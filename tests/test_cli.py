"""Command-line interface: dispatch, exit codes, JSON reports, determinism."""
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ulrich_forge import AffineSemigroup, semigroup
from ulrich_forge.cli import main
from ulrich_forge.pipelines import (
    no_ulrich_semigroup,
    verify_no_ulrich,
    verify_ulrich_equivalence_for_example,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class TestVerifyCommands:
    def test_verify_35_writes_report(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(["verify-35", "--n", "2", "--json", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "NO_ULRICH" in text
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["pipeline"] == "verify-35"
        assert data["verdict"] == "NO_ULRICH"
        assert data["field"] == "Q"
        for check in data["checks"]:
            assert set(check) == {"claim", "anchor", "verdict", "certificate"}
            assert check["anchor"]

    def test_verify_35_expect_mismatch_fails(self):
        assert main(["verify-35", "--n", "2", "--expect", "ULRICH_EXISTS"]) == 1

    def test_verify_35_prime_field(self):
        assert main(["verify-35", "--n", "2", "--field", "fp:7"]) == 0

    def test_verify_35_bad_n_aborts(self):
        assert main(["verify-35", "--n", "1"]) == 1

    def test_json_reports_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify-35", "--n", "2", "--json", str(out1)])
        main(["verify-35", "--n", "2", "--json", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_51_from_ring_file(self, tmp_path):
        spec = tmp_path / "ring.txt"
        spec.write_text(
            "ring ambient=(x,y) gens=[x^2, x^3, x^2*y, y^2, y^3, x*y^2, x*y] "
            "reduction=[x*y, x^2 - y^2]\n"
        )
        out = tmp_path / "r51.json"
        code = main(["verify-51", "--ring", str(spec), "--json", str(out),
                     "--expect", "NO_WEAKLY_LIM_ULRICH"])
        assert code == 0
        data = json.loads(out.read_text())
        deduced = [c for c in data["checks"] if c["verdict"] == "false-deduced"]
        assert len(deduced) == 3

    def test_verify_51_refuses_without_hypotheses(self, tmp_path):
        spec = tmp_path / "veronese.txt"
        spec.write_text("ring ambient=(x,y) gens=[x^2, x*y, y^2]\n")
        code = main(["verify-51", "--ring", str(spec),
                     "--expect", "HYPOTHESES_NOT_SATISFIED"])
        assert code == 0

    def test_verify_37(self, tmp_path):
        out = tmp_path / "r37.json"
        assert main(["verify-37", "--n", "2", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "NO_ULRICH_AFTER_LOCALIZATION"
        nested = [c for c in data["checks"]
                  if c["claim"] == "the localized ring has no Ulrich modules"]
        assert nested and nested[0]["certificate"]["verdict"] == "NO_ULRICH"

    def test_verify_37_at_n_12(self, tmp_path):
        out = tmp_path / "r37.json"
        assert main(["verify-37", "--n", "12", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "NO_ULRICH_AFTER_LOCALIZATION"
        value = [c for c in data["checks"] if c["anchor"] == "homogeneous-multiplicity-value"]
        assert value[0]["certificate"] == {
            "computed": 169, "hull": [[0, 0, 13], [13, 0, 0], [0, 13, 0]], "lattice_index": 1}

    def test_agreement_between_35_and_51(self):
        for n in (2, 3):
            r35 = verify_no_ulrich(n)
            r51 = verify_ulrich_equivalence_for_example(n)
            crit35 = [c for c in r35.checks if c.anchor == "ulrich-extension-criterion"]
            crit51 = [c for c in r51.checks if c.anchor == "ulrich-extension-criterion"]
            # 35 passes because the extension is strictly smaller; 51 reports (d) false
            assert crit35[0].verdict == "pass"
            assert crit51[0].verdict == "false"


class TestUtilityCommands:
    def test_groebner_normal_form(self, capsys):
        assert main(["groebner", "--ideal", "(x*y, x^2-y^2)", "--nf", "x^2"]) == 0
        assert capsys.readouterr().out.strip() == "y^2"

    def test_groebner_colength(self, capsys):
        assert main(["groebner", "--ideal", "(x*y, x^2-y^2)", "--colength"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_groebner_equality(self, capsys):
        assert main(["groebner", "--ideal", "(x^2, x*y, y^2)",
                     "--equal", "(x^2, y^2, x*y)"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_semigroup_gaps(self, capsys):
        code = main(["semigroup", "--gens",
                     "sg 2 {(2,0),(3,0),(2,1),(0,2),(0,3),(1,2),(1,1)}",
                     "--gaps"])
        assert code == 0
        out = capsys.readouterr().out
        assert "count: 2" in out

    def test_semigroup_multiplicity(self, capsys):
        code = main(["semigroup", "--gens",
                     "sg 2 {(2,0),(3,0),(2,1),(0,2),(0,3),(1,2),(1,1)}",
                     "--multiplicity"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_reduction_negative(self, capsys):
        code = main(["reduction", "--ideal", "(x*y, x^2-y^2)", "--in", "(x, y)"])
        assert code == 0
        assert "NEGATIVE_MULTIPLICITY" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, line", [
        # e_J on the reduction path, for an ideal that also vanishes at (1, 0)
        # and (0, 1)
        (["--ideal", "x^3 - x^4, y^3 - y^4",
          "--in", "x^3 - x^4, y^3 - y^4, -x*y^2 + 2*x^2*y"],
         "NEGATIVE_MULTIPLICITY(e_I=16, e_J=11)\n"),
        # e_J = 8 for (x^2 + y*z, y^2 + x*z, z^2 + x*y, x*y*z), which takes
        # the reduction path in three variables
        (["--ideal", "(x^2 + y*z)^2, y^2 + x*z, z^2 + x*y",
          "--in", "x^2 + y*z, y^2 + x*z, z^2 + x*y, x*y*z", "--vars", "x,y,z"],
         "NEGATIVE_MULTIPLICITY(e_I=16, e_J=8)\n"),
        # e_J = 16 by a reduction of reduction number 2, whose r = 1 the
        # colengths skip
        (["--ideal", "x^5 - 2*x^6, y^5 - 3*y^6",
          "--in", "x^5 - 2*x^6, y^5 - 3*y^6, y^3 + 2*x^2*y"],
         "NEGATIVE_MULTIPLICITY(e_I=36, e_J=16)\n"),
    ], ids=["plane", "space", "skip"])
    def test_reduction_path_multiplicities(self, argv, line, capsys):
        assert main(["reduction", *argv]) == 0
        assert capsys.readouterr().out == line

    @pytest.mark.parametrize("module", ["cyclic (x*y)", "cyclic(x*y)"])
    def test_koszul_cyclic(self, module, capsys):
        code = main(["koszul", "--module", module, "--sop", "x^2,y^2"])
        assert code == 0
        assert "h=(3,3,0)" in capsys.readouterr().out

    def test_koszul_away_from_the_origin(self, capsys):
        # S/(J + K) is supported at (1, 0), not at the origin
        assert main(["koszul", "--module", "ideal (x^2 - x, x*y)", "--sop", "x - 1, y"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "h=(2,1,0) chi=1 chi1=1"

    def test_koszul_parenthesized_sop(self, capsys):
        code = main(["koszul", "--module", "cyclic (x*y)", "--sop", "(x^2, y^2)"])
        assert code == 0
        assert "h=(3,3,0)" in capsys.readouterr().out

    @pytest.mark.parametrize("module, tally", [
        ("cyclic (1)", "h=(0,0,0)"),
        ("ideal (1)", "h=(1,0,0)"),
    ])
    def test_koszul_of_unit_ideal(self, module, tally, capsys):
        # S/(1) = 0, and the ideal (1) is the free module S
        assert main(["koszul", "--module", module, "--sop", "x,y"]) == 0
        assert capsys.readouterr().out.startswith(tally + " ")

    @pytest.mark.parametrize("module", ["cyclic ()", "cyclic (0)"])
    def test_koszul_of_zero_ideal(self, module, capsys):
        # S/(0) = S: the ring passed with --vars covers the empty list
        assert main(["koszul", "--module", module, "--sop", "x,y", "--vars", "x,y"]) == 0
        assert capsys.readouterr().out.startswith("h=(1,0,0) ")

    def test_analyze_unit_ideal_family(self, capsys):
        assert main(["analyze", "--family", "powers ideal=(1)", "--range", "1..5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:6]
        assert [row.split()[:3] for row in rows] == [[str(n), "1", "1"] for n in range(1, 6)]

    def test_analyze_family(self, capsys):
        code = main(["analyze", "--family", "freeplus ideal=(x,y) growth=n",
                     "--range", "1..10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LIM_ULRICH_TREND" in out and "exact" in out

    def test_family_template_with_nested_parentheses(self, capsys):
        code = main(["analyze", "--family", "powers ideal=((x+y)^n,y^2)",
                     "--range", "1..4"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:5]
        assert [row.split()[:2] for row in rows] == [[str(n), "2"] for n in range(1, 5)]

    def test_semigroup_hilbert(self, capsys):
        code = main(["semigroup", "--gens",
                     "sg 2 {(2,0),(3,0),(2,1),(0,2),(0,3),(1,2),(1,1)}",
                     "--hilbert", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_inconclusive_reduction_exits_3(self, capsys):
        # equal multiplicities with no search budget leaves the question open
        code = main(["reduction", "--ideal", "(x^2, y^2)",
                     "--in", "(x^2, y^2, x*y)", "--tmax", "0"])
        assert code == 3
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_parse_error_exits_2(self, capsys):
        assert main(["groebner", "--ideal", "(2x, y)"]) == 2

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "ulrich_forge", "groebner",
             "--ideal", "(x*y, x^2-y^2)", "--nf", "x^2"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "y^2"


R2_GENS = "gens=[x^2, x^3, x^2*y, y^2, y^3, x*y^2, x*y]"
RING_KEYS = "unknown key; expected one of ambient, gens, reduction, field"

# (option, spec, the one error line after "error: "); each spec fails with
# a position counted from the start of the file or argument
MALFORMED_SPECS = [
    ("--ring", f"ring ambient=(x,y) {R2_GENS} reductoin=[x*y, x^2 - y^2]\n",
     f"ring spec clause 'reductoin': {RING_KEYS} (line 1, column 65)"),
    ("--ring", f"ring ambient=(x,y) {R2_GENS} gens=[x]\n",
     "ring spec clause 'gens': repeated key (line 1, column 65)"),
    ("--ring", "ring ambient=(x,y) colour=red gens=[x^2]\n",
     f"ring spec clause 'colour': {RING_KEYS} (line 1, column 20)"),
    ("--ring", "ring ambient=(x,y) gens=[x^2, x*y\n",
     "'[' is never closed (line 1, column 25)"),
    ("--ring", "ring ambient=(x,y) gens=[x^2, x*y, y^2]\n    reduction=[x*y, x^2 ? y^2]\n",
     "unexpected character '?' (line 2, column 25)"),
    ("--ring", "ring ambient=(x,y) gens=x^2\n",
     "ring spec clause 'gens' must be [...] (line 1, column 25)"),
    ("--ring", "ring ambient=(x,y] gens=[x^2]\n",
     "expected ')', found ']' (line 1, column 18)"),
    ("--family", "freeplus ideal=(x,y growth=n",
     "'(' is never closed (line 1, column 16)"),
    ("--family", "powers ideal=(x,y^n) growth=n",
     "family 'powers': argument 'growth': unknown key; expected one of ideal "
     "(line 1, column 22)"),
    ("--family", "freeplus ideal=(x,y) growth=n growth=2*n",
     "family 'freeplus': argument 'growth': repeated key (line 1, column 31)"),
    ("--family", "free growth=n^",
     "exponent must be a non-negative integer literal (line 1, column 15)"),
    ("--family", "powers ideal=(x,y^n]",
     "expected ')', found ']' (line 1, column 20)"),
    ("--module", "cyclic (x*y, x^2",
     "'(' is never closed (line 1, column 8)"),
    ("--module", "cyclic(x*y ? y)",
     "unexpected character '?' (line 1, column 12)"),
    ("--module", "ideal(x, y^)",
     "exponent must be a non-negative integer literal (line 1, column 12)"),
    ("--gens", "sg 2 {(2,0),(3,0)",
     "'{' is never closed (line 1, column 6)"),
    ("--gens", "sg 2 {(2,0),(3,x)}",
     "expected a non-negative integer, got 'x' (line 1, column 16)"),
    ("--gens", "sg 2 {(2,0)),(3,0)}",
     "expected '}', found ')' (line 1, column 12)"),
    ("--gens", "sg 2 {2,0}",
     "semigroup generator must be (a,b,...) (line 1, column 7)"),
    ("--gens", "sg 2 {(2,0)}}",
     "unmatched '}' (line 1, column 13)"),
    # str.isdigit accepts a superscript digit, int() does not
    ("--ideal", "x^\u00b2, y",
     "unexpected character '\u00b2' (line 1, column 3)"),
    # \w takes it into a word, str.isidentifier does not
    ("--ideal", "y\u00b2, x",
     "unexpected character '\u00b2' (line 1, column 2)"),
]


class TestErrorExits:
    """Every failure ends with an exit code and a one-line message."""

    def test_empty_range_is_usage_error(self, capsys):
        code = main(["analyze", "--family", "freeplus ideal=(x,y) growth=n",
                     "--range", "5..3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: empty index range 5..3")

    def test_missing_ring_file_is_usage_error(self, tmp_path, capsys):
        code = main(["verify-51", "--ring", str(tmp_path / "missing.txt")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_json_path_is_usage_error(self, tmp_path, capsys):
        code = main(["groebner", "--ideal", "(x*y, x^2-y^2)", "--colength",
                     "--json", str(tmp_path / "no-such-dir" / "out.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "4\n"
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("exc_type", [AssertionError, ArithmeticError])
    def test_failed_self_check_exits_4(self, exc_type, monkeypatch, capsys):
        from ulrich_forge import pipelines

        def broken(*args, **kwargs):
            raise exc_type("power identity does not hold")

        monkeypatch.setattr(pipelines, "verify_minimal_reduction", broken)
        assert main(["verify-35", "--n", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "certificate self-check failed: power identity does not hold\n"
        assert "Traceback" not in captured.err

    def test_non_integer_cone_sum_exits_4(self, monkeypatch, capsys):
        from ulrich_forge import newton

        # a half-integral point has a half-integral normalised area
        with pytest.raises(AssertionError, match="cone sum 1/2 "):
            newton.hull([(0, 0), (1, 0), (0, Fraction(1, 2))])
        # with every facet image of unit length, the facet from (0, 3) to
        # (1, 1), of normal (2, 1), adds 3/2 to the Newton cone sum
        monkeypatch.setattr(newton, "hull", lambda points: (1, ()))
        assert main(["semigroup", "--gens", "sg 2 {(3,0),(4,0),(1,1),(0,3),(0,4)}",
                     "--multiplicity"]) == 4
        assert capsys.readouterr().err == ("certificate self-check failed: the cone sum 9/2 "
                                           "of a lattice polytope is not an integer\n")

    def test_deep_parentheses_are_usage_error(self, capsys):
        deep = "(" * 1500 + "x" + ")" * 1500
        code = main(["groebner", "--ideal", deep, "--colength"])
        assert code == 2
        err = capsys.readouterr().err
        # the outer pair wraps the list, so the rejected "(" is the 102nd character
        assert err.startswith("error: parentheses nested deeper than 100 (line 1, column 102)")
        assert "Traceback" not in err

    def test_ring_clause_without_equals_is_usage_error(self, tmp_path, capsys):
        ring = tmp_path / "r.ring"
        ring.write_text("ring ambient=(x,y) gens=[x^2, x*y, y^2] reduction\n")
        assert main(["verify-51", "--ring", str(ring)]) == 2
        assert capsys.readouterr().err == "error: ring spec clause 'reduction' is not key=value\n"

    def test_gap_degree_cap_is_named(self, capsys):
        # the proven gap box of R_n is 2n(n - 1) - 1 points wide and high:
        # 4,139 at n = 46, past the row table's bound, refused before any row
        table = semigroup._member_set(no_ulrich_semigroup(46))
        built = list(table.rows)
        assert main(["verify-35", "--n", "46"]) == 3
        assert capsys.readouterr().err == (
            "inconclusive: row table of 4139 x 4139 points requested, above ROW_CAP=4096\n")
        assert table.rows == built

    def test_verify_35_certifies_at_n_40(self, capsys):
        # R_40's largest gap has degree 1,559; its proven box, 3,119 points
        # wide and high, fits the row table
        assert main(["verify-35", "--n", "40"]) == 0
        out = capsys.readouterr().out
        assert "'colength': 125060}\n" in out
        assert "verdict: NO_ULRICH\n" in out

    @pytest.mark.parametrize("n", [12, 20])
    def test_verify_35_past_degree_80(self, n, capsys):
        # the largest gap of R_n has degree n^2 - n - 1: 131 and 379 (n = 9,
        # degree 71, is the verify35-n9 pin)
        assert main(["verify-35", "--n", str(n)]) == 0
        assert "verdict: NO_ULRICH\n" in capsys.readouterr().out

    def test_infinite_gap_set_multiplicity_names_the_failed_condition(self, capsys):
        # proven infinite by the plane criterion, before any scan
        assert main(["semigroup", "--gens", "sg 2 {(1,0)}", "--multiplicity"]) == 2
        assert capsys.readouterr().err == (
            "error: gap set is not finite: no generator lies on the y-axis\n")

    def test_verify_51_names_the_gap_budget(self, tmp_path, capsys, row_cap):
        # R_9: the criterion holds, and the largest gap has degree 71
        ring = tmp_path / "r9.ring"
        ring.write_text("ring ambient=(x,y) gens=[x^9, x^10, x^9*y, y^9, y^10, x*y^9, x*y]"
                        " reduction=[x*y, x^9 - y^9]\n")
        assert main(["verify-51", "--ring", str(ring)]) == 0
        assert "verdict: NO_WEAKLY_LIM_ULRICH\n" in capsys.readouterr().out
        # with the row table's bound below R_9's 143 x 143 gap box that
        # budget is named
        row_cap(100)
        assert main(["verify-51", "--ring", str(ring)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "inconclusive: row table of 143 x 143 points requested, above ROW_CAP=100\n")

    def test_three_variable_ring_without_a_power_of_z_is_refused_unscanned(
            self, tmp_path, capsys, monkeypatch):
        ring = tmp_path / "xyz.ring"
        ring.write_text("ring ambient=(x,y,z) gens=[x^2, x^3, y^2, y^3, x*y, x*z, y*z]\n")
        monkeypatch.setattr(semigroup._RowTable, "scan", lambda self: pytest.fail("scanned"))
        assert main(["verify-51", "--ring", str(ring)]) == 0
        out = capsys.readouterr().out
        assert ("certificate: hypotheses not satisfied: gap set is not finite: "
                "in the hyperplane x = 0, no generator lies on the z-axis\n") in out
        assert "verdict: HYPOTHESES_NOT_SATISFIED\n" in out

    def test_row_cap_is_named_for_hilbert_samuel(self, capsys):
        # (t - 1) * maxgen far above the row bound: refused before any row
        table = semigroup._member_set(AffineSemigroup(2, ((2, 0), (3, 0), (0, 2), (0, 3),
                                                          (1, 1))))
        built = list(table.rows)
        assert main(["semigroup", "--gens", "sg 2 {(2,0),(3,0),(0,2),(0,3),(1,1)}",
                     "--hilbert", "100000000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: ") and "ROW_CAP=4096" in err
        assert table.rows == built
        # a 3-variable table has the same bound, on each side and on its bits
        table = semigroup._member_set(AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0),
                                                          (0, 3, 0), (0, 0, 2), (0, 0, 3),
                                                          (1, 1, 0), (0, 1, 1), (1, 0, 1))))
        built = list(table.rows)
        assert main(["semigroup", "--gens", "sg 3 {(2,0,0),(3,0,0),(0,2,0),(0,3,0),(0,0,2),"
                     "(0,0,3),(1,1,0),(0,1,1),(1,0,1)}", "--hilbert", "100000000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: ") and "ROW_CAP=4096" in err
        assert table.rows == built

    def test_semigroup_multiplicity_needs_no_table(self, capsys):
        code = main(["semigroup", "--gens",
                     "sg 2 {(2,0),(3,0),(2,1),(0,2),(0,3),(1,2),(1,1)}", "--multiplicity"])
        assert code == 0
        assert capsys.readouterr().out == "4\n"

    def test_verify_37_names_the_gap_budget(self, capsys, row_cap):
        assert main(["verify-37", "--n", "9"]) == 0
        assert "verdict: NO_ULRICH_AFTER_LOCALIZATION\n" in capsys.readouterr().out
        # the multiplicity holds, then the nested verify-35 runs out of budget
        row_cap(100)
        assert main(["verify-37", "--n", "9"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: ") and "ROW_CAP=100" in err

    @pytest.mark.parametrize("sop, count", [("x^2", 1), ("x, y, x+y", 3), ("(x^2)", 1)])
    def test_koszul_sop_needs_two_polynomials(self, sop, count, capsys):
        code = main(["koszul", "--module", "cyclic (x*y)", "--sop", sop, "--vars", "x,y"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --sop needs exactly two polynomials, got {count}\n")

    @pytest.mark.parametrize("extra", [[], ["--vars", "x,y"]])
    def test_koszul_sop_error_column_counts_from_argument_start(self, extra, capsys):
        code = main(["koszul", "--module", "cyclic (x*y)", "--sop", "x^2,y^"] + extra)
        assert code == 2
        assert capsys.readouterr().err.endswith("(line 1, column 7)\n")

    @pytest.mark.parametrize("module, quotient", [
        ("cyclic (x*y)", "S/(J + (f, g))"),
        ("ideal (x*y)", "S/(J + (f, g))"),
        ("ideal (y)", "S/(f, g)"),
        ("free 1", "S/(f, g)"),
    ])
    def test_koszul_needs_a_finite_length_quotient(self, module, quotient, capsys):
        # the pair need not be primary to the origin, only of finite colength
        code = main(["koszul", "--module", module, "--sop", "x, x^2", "--vars", "x,y"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {quotient} does not have finite length\n"

    @pytest.mark.parametrize("sop, extra", [("x, x", []), ("x, x^2", ["--vars", "x"]),
                                            ("x, y", ["--vars", "x,y,z"])])
    def test_koszul_free_module_needs_the_plane(self, sop, extra, capsys):
        # a pair of finite colength is regular only in two variables: on
        # k[x], (x, x) has H1 = S/(x), so (1, 0, 0) would be wrong
        code = main(["koszul", "--module", "free 1", "--sop", sop] + extra)
        assert code == 2
        assert capsys.readouterr().err == "error: two ambient variables required\n"

    @pytest.mark.parametrize("rank", ["-1", "x", "", "2.5"])
    def test_koszul_free_rank_must_be_natural(self, rank, capsys):
        code = main(["koszul", "--module", f"free {rank}", "--sop", "x,y"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ('error: --module "free R": rank R must be a '
                                f"non-negative integer, got {rank!r}\n")

    def test_negative_tmax_is_usage_error(self, capsys):
        code = main(["reduction", "--ideal", "x^2,y^2", "--in", "x,y", "--tmax", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: t_max must be non-negative, got -1\n"

    @pytest.mark.parametrize("option, spec, message", MALFORMED_SPECS)
    def test_malformed_spec_is_one_positioned_error(self, option, spec, message,
                                                   tmp_path, capsys):
        if option == "--ring":
            path = tmp_path / "bad.ring"
            path.write_text(spec)
            argv = ["verify-51", "--ring", str(path)]
        elif option == "--family":
            argv = ["analyze", "--family", spec, "--range", "1..3"]
        elif option == "--module":
            argv = ["koszul", "--module", spec, "--sop", "x,y"]
        elif option == "--ideal":
            argv = ["groebner", "--ideal", spec]
        else:
            argv = ["semigroup", "--gens", spec]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, column", [
        (["groebner", "--ideal", "1" * 5000 + "*x, y"], 1),
        (["groebner", "--ideal", "x + 1/" + "1" * 5000], 7),
        (["semigroup", "--gens", "sg 2 {(" + "1" * 5000 + ",0),(0,1)}", "--gaps"], 8),
        (["semigroup", "--gens", "sg " + "1" * 5000 + " {(1,0),(0,1)}"], 4),
        (["analyze", "--family", "powers ideal=(x^n,y^" + "1" * 5000 + ")", "--range", "1..2"],
         21),
        (["analyze", "--family", "powers ideal=(x^n,y)", "--range", " 1.." + "1" * 5000], 5),
        (["koszul", "--module", "free  " + "1" * 5000, "--sop", "x, y"], 7),
    ])
    def test_over_long_integer_literal_is_positioned(self, argv, column, capsys):
        # past Python's limit on converting digits to an int, a literal is
        # a usage error at its first digit, not Python's own message
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = (f"integer literal of 5000 digits is longer than "
                   f"{sys.get_int_max_str_digits()} digits (line 1, column {column})")
        assert captured.err.startswith("error: ") and captured.err.endswith(message + "\n")

    def test_negative_index_as_exponent_is_a_usage_error(self, capsys):
        # n = -1 read in place of n is refused as an exponent, not taken as
        # a power
        argv = ["analyze", "--family", "powers ideal=(x^n,y)", "--range=-1..1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: module construction failure at index -1: exponent must be a "
            "non-negative integer literal (line 1, column 17)\n")

    @pytest.mark.parametrize("index_range", ["1..2", "10..11"])
    def test_family_error_column_is_in_the_template(self, index_range, capsys):
        # the index is read in place of n, so its width moves no column
        argv = ["analyze", "--family", "powers ideal=(x^n,y^n,z)", "--range", index_range]
        assert main(argv) == 2
        first = index_range.split("..")[0]
        assert capsys.readouterr().err == (f"error: module construction failure at index {first}: "
                                           "unknown variable 'z' (line 1, column 23)\n")

    def test_spaced_semigroup_spec_parses(self, capsys):
        assert main(["semigroup", "--gens", "sg 2 { (2,0) ,( 3, 0 ), (0,2),(0,3),(1,1), }"]) == 0
        assert capsys.readouterr().out == (
            "AffineSemigroup(dim=2, {(0, 2),(0, 3),(1, 1),(2, 0),(3, 0)})\n")

    def test_n_below_one_is_a_usage_error(self, capsys):
        for command in ("verify-35", "verify-37"):
            assert main([command, "--n", "0"]) == 2
            assert capsys.readouterr().err == "error: n must be at least 1\n"

    def test_bad_field_spec_names_the_expected_form(self, capsys):
        assert main(["verify-35", "--n", "2", "--field", "fp:x"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown field spec 'fp:x' (expected q or fp:P)\n")

    @pytest.mark.parametrize("bad", ["5", "1..", "..3", "a..b", "1..2..3"])
    def test_range_must_be_a_to_b(self, bad, capsys):
        assert main(["analyze", "--family", "free growth=n", "--range", bad]) == 2
        assert capsys.readouterr().err == (
            f"error: --range must be A..B with integers A and B, got {bad!r}\n")

    def test_empty_variable_name_is_usage_error(self, capsys):
        assert main(["groebner", "--ideal", "x,y", "--vars", "x,,y", "--colength"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: variable name '' is not an identifier\n"

    def test_variable_names_are_stripped(self, capsys):
        assert main(["groebner", "--ideal", "x,y", "--vars", "x, y", "--colength"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_gap_scan_stops_at_the_row_cap(self, row_cap, capsys):
        # R_9's gap set is finite, but its proven box is 143 x 143
        row_cap(100)
        r9 = "sg 2 {(9,0),(10,0),(9,1),(0,9),(0,10),(1,9),(1,1)}"
        assert main(["semigroup", "--gens", r9, "--gaps"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: ") and "ROW_CAP=100" in err
        assert semigroup._member_set(no_ulrich_semigroup(9)).rows == []
        assert main(["semigroup", "--gens", "sg 2 {(2,0),(3,0),(2,1),(0,2),(0,3),(1,2),(1,1)}",
                     "--gaps"]) == 0
        assert capsys.readouterr().out == "gaps: [(0, 1), (1, 0)]\ncount: 2\n"

    def test_gaps_need_no_bound(self, capsys):
        # R_5: the criterion proves its 60 gaps finite, the largest of degree 19
        assert main(["semigroup", "--gens", "sg 2 {(5,0),(6,0),(5,1),(0,5),(0,6),(1,5),(1,1)}",
                     "--gaps"]) == 0
        assert capsys.readouterr().out.endswith("\ncount: 60\n")

    @pytest.mark.parametrize("spec", ["sg 2 {(1,0)}", "sg 1 {(2),(4)}", "sg 3 {(1,0,0),(0,1,0)}"])
    def test_infinite_gaps_are_reported_unscanned(self, spec, capsys, monkeypatch):
        monkeypatch.setattr(semigroup._RowTable, "scan", lambda self: pytest.fail("scanned"))
        assert main(["semigroup", "--gens", spec, "--gaps"]) == 0
        assert capsys.readouterr().out == "INFINITE\n"

    @pytest.mark.parametrize("spec, message", [
        ("powers foo", "family 'powers': argument 'foo' is not key=value"),
        ("free growth=n x", "family 'free': argument 'x' is not key=value"),
        ("powers", "family 'powers': missing key 'ideal'"),
        ("freeplus growth=n", "family 'freeplus': missing key 'ideal'"),
    ])
    def test_bad_family_spec_names_the_problem(self, spec, message, capsys):
        assert main(["analyze", "--family", spec, "--range", "1..2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, rank", [
        ("free growth=n-3", -2),
        ("freeplus ideal=(x,y) growth=n-2", -1),
    ])
    def test_negative_free_rank_is_a_construction_failure(self, spec, rank, capsys):
        assert main(["analyze", "--family", spec, "--range", "1..6"]) == 2
        assert capsys.readouterr().err == (
            "error: module construction failure at index 1: "
            f"free module rank must be non-negative, got {rank}\n")

    def test_free_rank_zero_is_a_zero_module(self, capsys):
        assert main(["analyze", "--family", "free growth=n-1", "--range", "1..6"]) == 2
        assert capsys.readouterr().err == "error: module at index 1 is zero\n"


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    from ulrich_forge.cli import build_parser

    parser = build_parser()
    with pytest.raises(SystemExit) as stopped:
        main(["verify-35"])  # --n is required
    assert stopped.value.code == 2
    assert main(["verify-35", "--n", "2"]) == 0
    assert build_parser() is parser
