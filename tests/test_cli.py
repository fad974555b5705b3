"""Command-line interface: dispatch, exit codes, JSON reports, determinism."""
import json
import os
import subprocess
import sys

import pytest

from ulrich_forge.cli import main
from ulrich_forge.pipelines import (
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
                     "--gaps", "--bound", "12"])
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

    def test_koszul_cyclic(self, capsys):
        code = main(["koszul", "--module", "cyclic (x*y)", "--sop", "x^2,y^2"])
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
        # the largest gap of R_9 has degree 71, so its certificate ends at 82
        assert main(["verify-35", "--n", "9"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: ") and "GAP_DEGREE_CAP=80" in err

    def test_infinite_gap_set_multiplicity_is_inconclusive(self, capsys):
        assert main(["semigroup", "--gens", "sg 2 {(1,0)}", "--multiplicity"]) == 3
        assert "GAP_DEGREE_CAP=80" in capsys.readouterr().err

    def test_stabilization_budget_is_named(self, monkeypatch, capsys):
        from ulrich_forge import patterns, semigroup

        monkeypatch.setattr(patterns, "STABILIZE_TERMS", 3)
        semigroup.multiplicity.cache_clear()
        code = main(["semigroup", "--gens",
                     "sg 2 {(2,0),(3,0),(2,1),(0,2),(0,3),(1,2),(1,1)}", "--multiplicity"])
        assert code == 3
        err = capsys.readouterr().err
        assert "STABILIZE_TERMS=3" in err
        assert "table: [1, 8, 19]" in err

    @pytest.mark.parametrize("spec, message", [
        ("powers foo", "family 'powers': argument 'foo' is not key=value"),
        ("free growth=n x", "family 'free': argument 'x' is not key=value"),
        ("powers", "family 'powers': missing key 'ideal'"),
        ("freeplus growth=n", "family 'freeplus': missing key 'ideal'"),
    ])
    def test_bad_family_spec_names_the_problem(self, spec, message, capsys):
        assert main(["analyze", "--family", spec, "--range", "1..2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
