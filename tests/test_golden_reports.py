"""Golden JSON reports of scripts/run_verifications.py, compared byte for byte.

The reports are the certificates of every shipped pipeline; any change in a
verdict, a witness or the report layout shows up here.  The golden files live
in tests/golden/verifications/; to rewrite them from the current sources run

    python scripts/run_verifications.py tests/golden/verifications
"""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verifications"


def test_reports_match_golden(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_verifications.py"),
                    str(tmp_path)], check=True, capture_output=True)
    produced = sorted(path.name for path in tmp_path.iterdir())
    assert produced == sorted(path.name for path in GOLDEN.iterdir())
    assert len(produced) == 9
    for name in produced:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
