"""Golden transcripts of the command line: stdout, exit code and --json report
of every subcommand and mode, compared byte for byte.

Only the text line ``elapsed: N ms`` is masked.  The golden files live in
tests/golden/cli/; to rewrite them from the current sources run

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import contextlib
import io
import json
import pathlib
import re
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli"
R2_RING = GOLDEN / "r2.ring"
VERONESE_RING = GOLDEN / "veronese.ring"
ULRICH_RING = GOLDEN / "ulrich.ring"
SG_R2 = "sg 2 {(2,0),(3,0),(2,1),(0,2),(0,3),(1,2),(1,1)}"

CASES = {
    "verify35-n2-q": ["verify-35", "--n", "2"],
    "verify35-n2-fp7": ["verify-35", "--n", "2", "--field", "fp:7"],
    "verify51-r2": ["verify-51", "--ring", str(R2_RING)],
    "verify51-veronese": ["verify-51", "--ring", str(VERONESE_RING)],
    "verify51-ulrich": ["verify-51", "--ring", str(ULRICH_RING)],
    "verify37-n1": ["verify-37", "--n", "1"],
    "verify37-n2": ["verify-37", "--n", "2"],
    "groebner-nf": ["groebner", "--ideal", "(x*y, x^2-y^2)", "--nf", "x^2"],
    "groebner-colength": ["groebner", "--ideal", "(x*y, x^2-y^2)", "--colength"],
    "groebner-colength-infinite": ["groebner", "--ideal", "(x*y)", "--colength"],
    "groebner-equal": ["groebner", "--ideal", "(x^2, x*y, y^2)",
                       "--equal", "(x^2, y^2, x*y)"],
    "groebner-basis": ["groebner", "--ideal", "(x*y, x^2-y^2)"],
    "semigroup-gaps": ["semigroup", "--gens", SG_R2, "--gaps"],
    "semigroup-gaps-not-finite": ["semigroup", "--gens", "sg 2 {(1,0)}", "--gaps"],
    "semigroup-multiplicity": ["semigroup", "--gens", SG_R2, "--multiplicity"],
    "semigroup-hilbert": ["semigroup", "--gens", SG_R2, "--hilbert", "2"],
    "semigroup-bare": ["semigroup", "--gens", SG_R2],
    "reduction-positive": ["reduction", "--ideal", "(x^2, y^2)",
                           "--in", "(x^2, y^2, x*y)"],
    "reduction-negative": ["reduction", "--ideal", "(x*y, x^2-y^2)", "--in", "(x, y)"],
    "reduction-inconclusive": ["reduction", "--ideal", "(x^2, y^2)",
                               "--in", "(x^2, y^2, x*y)", "--tmax", "0"],
    "koszul-cyclic": ["koszul", "--module", "cyclic (x*y)", "--sop", "x^2,y^2"],
    "koszul-ideal": ["koszul", "--module", "ideal (x^2, x*y)", "--sop", "x,y"],
    "koszul-free": ["koszul", "--module", "free 2", "--sop", "x^2,y^3"],
    "analyze-freeplus": ["analyze", "--family", "freeplus ideal=(x,y) growth=n",
                         "--range", "1..10"],
}

_ELAPSED = re.compile(r"^elapsed: \d+ ms$", re.MULTILINE)


def run_case(argv, json_path):
    """(masked stdout, exit code, JSON text) of one command-line run."""
    from ulrich_forge.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json", str(json_path)])
    text = _ELAPSED.sub("elapsed: N ms", out.getvalue())
    return text, code, pathlib.Path(json_path).read_text(encoding="utf-8")


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_matches_golden(name, tmp_path):
    text, code, report = run_case(CASES[name], tmp_path / "report.json")
    assert text == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert code == _exit_codes()[name]
    assert report == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_warm_replay_matches_golden(tmp_path):
    """Every case back to back in one process, in reverse order, with the
    Groebner bases that earlier cases left in the shared cache: a warm run
    prints what a cold one prints."""
    from ulrich_forge import groebner

    for name in sorted(CASES, reverse=True):
        text, code, report = run_case(CASES[name], tmp_path / f"{name}.json")
        assert text == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name
        assert code == _exit_codes()[name], name
        assert report == (GOLDEN / f"{name}.json").read_text(encoding="utf-8"), name
    assert groebner._reduced_basis.cache_info().hits > 0


def _regenerate():
    import tempfile

    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(CASES.items()):
            text, code, report = run_case(argv, pathlib.Path(tmp) / "report.json")
            (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
            (GOLDEN / f"{name}.json").write_text(report, encoding="utf-8")
            codes[name] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
