"""Golden JSON reports of scripts/run_verifications.py and the transcript of
scripts/asymptotic_tables.py, compared byte for byte.

The reports are the certificates of every shipped pipeline; any change in a
verdict, a witness or the report layout shows up here.  The golden files live
in tests/golden/verifications/; to rewrite them from the current sources run

    python scripts/run_verifications.py tests/golden/verifications

The transcript's saturation ledger runs the monomial Koszul tally, the
saturation and the minimal generator count.  To rewrite it run

    python scripts/asymptotic_tables.py > tests/golden/asymptotic_tables.out
"""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verifications"
TABLES = ROOT / "tests" / "golden" / "asymptotic_tables.out"


def test_reports_match_golden(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_verifications.py"),
                    str(tmp_path)], check=True, capture_output=True)
    produced = sorted(path.name for path in tmp_path.iterdir())
    assert produced == sorted(path.name for path in GOLDEN.iterdir())
    assert len(produced) == 9
    for name in produced:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_asymptotic_tables_match_golden():
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "asymptotic_tables.py")],
                            check=True, capture_output=True)
    assert result.stdout == TABLES.read_bytes()
