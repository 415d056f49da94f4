"""End-to-end command-line flows on temporary files."""

import json
import math
import os
import re

import pytest

from csdd import cli, formats
from csdd.circuit import Vtree
from csdd.cli import main
from csdd.fixtures import squares_dataset
from csdd.schemas import SCHEMAS, check


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    check(payload, SCHEMAS[argv[0]])  # committed output shape per subcommand
    return payload


def _write_squares_model(capsys, workdir, mode="idm"):
    run_json(capsys, "compile", "--fixture", "squares", "-o", "squares.sdd")
    formats.write_dataset(squares_dataset(), workdir / "data.csv")
    out = "squares.csdd" if mode == "idm" else "squares.psdd"
    run_json(
        capsys,
        "learn", "--sdd", "squares.sdd", "--vtree", "squares.vtree",
        "--data", "data.csv", "--mode", mode, "--ess", "1.0", "-o", out,
    )
    return out


class TestCompile:
    def test_squares_fixture(self, capsys, workdir):
        payload = run_json(capsys, "compile", "--fixture", "squares", "-o", "squares.sdd")
        assert payload["classification"] == "singly_connected"
        assert payload["models"] == 10
        assert (workdir / "squares.sdd").exists()
        assert (workdir / "squares.vtree").exists()

    def test_seven_segment_fixture(self, capsys, workdir):
        payload = run_json(capsys, "compile", "--fixture", "seven-segment", "-o", "seg.sdd")
        assert payload["classification"] == "multiply_connected"
        assert payload["models"] == 444

    def test_formula_file_with_auto_vtree(self, capsys, workdir):
        (workdir / "f.sexp").write_text("(and (or x1 x2) (not x3))\n")
        payload = run_json(capsys, "compile", "--formula", "f.sexp", "--auto", "-o", "f.sdd")
        assert payload["models"] == 3

    def test_formula_nested_5000_deep(self, capsys, workdir):
        # the parser and the compile loop keep explicit stacks
        (workdir / "f.sexp").write_text("(not " * 5000 + "x1" + ")" * 5000 + "\n")
        payload = run_json(capsys, "compile", "--formula", "f.sexp", "--auto", "-o", "f.sdd")
        assert payload["models"] == 1

    def test_formula_too_deep_for_the_compiler_is_an_error_line(self, capsys, workdir):
        # apply recurses once per vtree level (until it keeps an explicit stack):
        # 1,000 levels pass the default recursion limit whatever the caller's depth
        n = 1000
        formats.write_vtree(Vtree.right_linear(n), workdir / "rl.vtree")
        (workdir / "f.sexp").write_text("(and " + " ".join(f"x{i}" for i in range(1, n + 1)) + ")\n")
        code, out, err = run(capsys, "compile", "--formula", "f.sexp", "--vtree", "rl.vtree", "-o", "f.sdd")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_unsatisfiable_still_writes(self, capsys, workdir):
        (workdir / "f.sexp").write_text("(and x1 (not x1))\n")
        code, out, err = run(capsys, "compile", "--formula", "f.sexp", "--auto", "-o", "f.sdd")
        assert code == 0
        assert json.loads(out)["models"] == 0
        assert "unsatisfiable" in err

    def test_vtree_with_auto_is_a_usage_error(self, capsys, workdir):
        # --auto would replace the given vtree with a balanced one
        (workdir / "f.sexp").write_text("(and x1 (or x2 x3))\n")
        formats.write_vtree(Vtree((1, (2, 3))), workdir / "rl.vtree")
        with pytest.raises(SystemExit) as exc:
            main(["compile", "--formula", "f.sexp", "--vtree", "rl.vtree", "--auto",
                  "-o", "f.sdd", "--vtree-out", "out.vtree"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not (workdir / "out.vtree").exists()

    @pytest.mark.parametrize("fixture", ["squares", "seven-segment"])
    @pytest.mark.parametrize("flag", [["--vtree", "given.vtree"], ["--auto"]])
    def test_fixture_refuses_a_vtree_choice(self, capsys, workdir, fixture, flag):
        # a fixture brings its own vtree, which would silently replace the given one
        formats.write_vtree(Vtree((1, (2, 3))), workdir / "given.vtree")
        code, out, err = run(capsys, "compile", "--fixture", fixture, *flag, "-o", "f.sdd")
        assert code == 1 and out == ""
        assert "--fixture" in err and flag[0] in err
        assert not (workdir / "f.sdd").exists() and not (workdir / "f.vtree").exists()

    def test_missing_vtree_fails(self, capsys, workdir):
        (workdir / "f.sexp").write_text("x1\n")
        code, _, err = run(capsys, "compile", "--formula", "f.sexp",
                           "--vtree", "nope.vtree", "-o", "f.sdd")
        assert code != 0


class TestLearn:
    def test_interval_file_contains_example_bounds(self, capsys, workdir):
        out = _write_squares_model(capsys, workdir, "idm")
        text = (workdir / out).read_text()
        assert repr(31 / 101) in text and repr(32 / 101) in text

    def test_bayes_on_empty_data_is_uniform(self, capsys, workdir):
        run_json(capsys, "compile", "--fixture", "squares", "-o", "squares.sdd")
        (workdir / "empty.csv").write_text("X1,X2,X3,X4,count\n")
        run_json(
            capsys,
            "learn", "--sdd", "squares.sdd", "--vtree", "squares.vtree",
            "--data", "empty.csv", "--mode", "bayes", "--ess", "1.0", "-o", "u.psdd",
        )
        vtree = formats.read_vtree(workdir / "squares.vtree")
        circuit, params = formats.read_psdd(workdir / "u.psdd", vtree)
        assert params.table[circuit.root] == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_idm_rejects_zero_mass(self, capsys, workdir):
        run_json(capsys, "compile", "--fixture", "squares", "-o", "squares.sdd")
        formats.write_dataset(squares_dataset(), workdir / "data.csv")
        code, _, err = run(
            capsys,
            "learn", "--sdd", "squares.sdd", "--vtree", "squares.vtree",
            "--data", "data.csv", "--mode", "idm", "--ess", "0.0", "-o", "x.csdd",
        )
        assert code != 0 and "positive" in err

    @pytest.mark.parametrize("mode", ["bayes", "idm"])
    @pytest.mark.parametrize("ess", ["nan", "inf"])
    def test_nonfinite_mass_fails_without_output(self, capsys, workdir, mode, ess):
        run_json(capsys, "compile", "--fixture", "squares", "-o", "squares.sdd")
        formats.write_dataset(squares_dataset(), workdir / "data.csv")
        code, out, err = run(
            capsys,
            "learn", "--sdd", "squares.sdd", "--vtree", "squares.vtree",
            "--data", "data.csv", "--mode", mode, "--ess", ess, "-o", "x.model",
        )
        assert code == 1 and out == "" and "finite" in err
        assert not (workdir / "x.model").exists()

    def test_ml_zero_context_reports_node(self, capsys, workdir):
        run_json(capsys, "compile", "--fixture", "squares", "-o", "squares.sdd")
        (workdir / "one.csv").write_text("X1,X2,X3,X4,count\n0,0,0,1,5\n")
        code, _, err = run(
            capsys,
            "learn", "--sdd", "squares.sdd", "--vtree", "squares.vtree",
            "--data", "one.csv", "--mode", "ml", "-o", "x.psdd",
        )
        assert code != 0 and "node" in err


class TestQuery:
    def test_credal_marginal(self, capsys, workdir):
        model = _write_squares_model(capsys, workdir, "idm")
        payload = run_json(
            capsys,
            "query", "--model", model, "--vtree", "squares.vtree",
            "--type", "marginal", "--evidence", "X1=0,X2=0,X3=0,X4=1",
        )
        assert payload["lower"] == pytest.approx(12 / 32 * 31 / 101, abs=1e-9)
        assert payload["upper"] >= payload["lower"]

    def test_credal_conditional_reports_certificate(self, capsys, workdir):
        model = _write_squares_model(capsys, workdir, "idm")
        payload = run_json(
            capsys,
            "query", "--model", model, "--vtree", "squares.vtree",
            "--type", "conditional", "--target", "X1=1",
            "--evidence", "X2=0,X3=0,X4=1", "--tol", "1e-7",
        )
        assert payload["certificate"]["status"] == "exact"
        assert payload["lower"] <= payload["upper"]

    def test_nan_tolerance_fails(self, capsys, workdir):
        model = _write_squares_model(capsys, workdir, "idm")
        code, out, err = run(
            capsys,
            "query", "--model", model, "--vtree", "squares.vtree",
            "--type", "conditional", "--target", "X1=1",
            "--evidence", "X3=0,X4=1", "--tol", "nan",
        )
        assert code == 1 and out == "" and "tolerance" in err

    @pytest.mark.parametrize("tol", ["1", "inf"])
    def test_tolerance_of_one_or_more_fails(self, capsys, workdir, tol):
        model = _write_squares_model(capsys, workdir, "idm")
        code, out, err = run(
            capsys,
            "query", "--model", model, "--vtree", "squares.vtree",
            "--type", "conditional", "--target", "X1=1",
            "--evidence", "X3=0,X4=1", "--tol", tol,
        )
        assert code == 1 and out == "" and "tolerance" in err

    def test_partition_overlap_fails(self, capsys, workdir):
        model = _write_squares_model(capsys, workdir, "idm")
        lines = (workdir / model).read_text().splitlines()
        toks = lines[-1].split()  # the root: D <id> <vtree> <k>, then 4 fields per element
        toks[3] = str(int(toks[3]) + 1)
        lines[-1] = " ".join(toks + toks[4:8])  # its first prime, twice
        (workdir / "overlap.csdd").write_text("\n".join(lines) + "\n")
        code, out, err = run(
            capsys,
            "query", "--model", "overlap.csdd", "--vtree", "squares.vtree",
            "--type", "marginal", "--evidence", "X4=1",
        )
        assert code == 1 and out == "" and "primes cover" in err

    @pytest.mark.parametrize("text", ["", "  \n\n", "c a comment first\n"])
    def test_model_without_a_header_fails(self, capsys, workdir, text):
        _write_squares_model(capsys, workdir, "idm")
        (workdir / "odd.csdd").write_text(text)
        code, out, err = run(
            capsys,
            "query", "--model", "odd.csdd", "--vtree", "squares.vtree", "--type", "marginal",
        )
        assert code == 1 and out == "" and "expected a psdd or csdd file" in err

    @pytest.mark.parametrize("mode", ["bayes", "idm"])
    def test_commented_model_answers_like_the_plain_one(self, capsys, workdir, mode):
        model = _write_squares_model(capsys, workdir, mode)
        text = (workdir / model).read_text()
        (workdir / f"noted.{model}").write_text("c learned from the squares data\nc\n" + text)
        argv = ["query", "--vtree", "squares.vtree", "--type", "map", "--evidence", "X4=1"]
        plain = run_json(capsys, *argv, "--model", model)
        assert run_json(capsys, *argv, "--model", f"noted.{model}") == plain

    def test_usage_errors_repeat(self, capsys, workdir):
        # the parser is built once per process; a bad call leaves it usable
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["query", "--type", "marginal"])
            assert exc.value.code == 2
            assert "--model" in capsys.readouterr().err
        model = _write_squares_model(capsys, workdir, "idm")
        run_json(capsys, "query", "--model", model, "--vtree", "squares.vtree",
                 "--type", "marginal")

    def test_point_map(self, capsys, workdir):
        model = _write_squares_model(capsys, workdir, "bayes")
        payload = run_json(
            capsys,
            "query", "--model", model, "--vtree", "squares.vtree",
            "--type", "map", "--evidence", "X3=0,X4=1",
        )
        assert payload["assignment"] == {"X1": 1, "X2": 0}

    def test_degenerate_csdd_has_equal_bounds(self, capsys, workdir):
        psdd_path = _write_squares_model(capsys, workdir, "bayes")
        vtree = formats.read_vtree(workdir / "squares.vtree")
        circuit, params = formats.read_psdd(workdir / psdd_path, vtree)
        from csdd.params import CsddParams

        formats.write_csdd(circuit, CsddParams.degenerate(params), workdir / "point.csdd")
        payload = run_json(
            capsys,
            "query", "--model", "point.csdd", "--vtree", "squares.vtree",
            "--type", "marginal", "--evidence", "X4=1",
        )
        assert payload["lower"] == pytest.approx(payload["upper"], abs=1e-12)

    def test_inconsistent_evidence_fails(self, capsys, workdir):
        model = _write_squares_model(capsys, workdir, "idm")
        code, _, err = run(
            capsys,
            "query", "--model", model, "--vtree", "squares.vtree",
            "--type", "marginal", "--evidence", "X1=1,X2=1,X3=1",
        )
        assert code != 0
        assert "violates circuit constraints" in err

    @pytest.mark.parametrize("mode", ["ml", "idm"])
    def test_conditional_target_in_evidence_fails(self, capsys, workdir, mode):
        model = _write_squares_model(capsys, workdir, mode)
        code, out, err = run(
            capsys,
            "query", "--model", model, "--vtree", "squares.vtree",
            "--type", "conditional", "--evidence", "X1=1,X3=0", "--target", "X1=0",
        )
        assert code == 1 and out == ""
        assert "queried variable 1 appears in the evidence" in err

    def test_point_conditional_on_zero_probability_evidence_fails(self, capsys, workdir):
        # both top pixels white is a model of the circuit, but the root gives it no mass
        from csdd.fixtures import squares_fixture
        from csdd.learn import bayes_estimate, collect_counts

        fx = squares_fixture()
        params = bayes_estimate(fx.circuit, collect_counts(fx.circuit, squares_dataset()), 1.0)
        params.table[fx.root] = (0.0, 0.5, 0.5)
        formats.write_vtree(fx.circuit.vtree, workdir / "squares.vtree")
        formats.write_psdd(fx.circuit, params, workdir / "zero.psdd")
        code, out, err = run(
            capsys,
            "query", "--model", "zero.psdd", "--vtree", "squares.vtree",
            "--type", "conditional", "--evidence", "X1=0,X2=0", "--target", "X3=1",
        )
        assert code == 1 and out == ""
        assert "evidence has zero probability under the point table" in err

    def test_point_marginal_and_conditional(self, capsys, workdir):
        from csdd.infer import marginal

        model = _write_squares_model(capsys, workdir, "bayes")
        vtree = formats.read_vtree(workdir / "squares.vtree")
        circuit, params = formats.read_psdd(workdir / model, vtree)
        argv = ["query", "--model", model, "--vtree", "squares.vtree"]
        given = run_json(capsys, *argv, "--type", "marginal", "--evidence", "X3=0,X4=1")
        assert given["model"] == "psdd"
        assert given["value"] == marginal(circuit, params, {3: False, 4: True})
        # a psdd conditional is the ratio of two marginals
        payload = run_json(capsys, *argv, "--type", "conditional", "--evidence", "X3=0,X4=1",
                           "--target", "X1=1")
        joint = marginal(circuit, params, {1: True, 3: False, 4: True})
        assert payload["model"] == "psdd"
        assert payload["value"] == joint / given["value"]

    @pytest.mark.parametrize("target, message", [
        (None, "--type conditional needs --target"),
        ("X1=1,X2=0", "--target must assign exactly one variable"),
    ])
    def test_conditional_needs_one_target(self, capsys, workdir, target, message):
        model = _write_squares_model(capsys, workdir, "idm")
        argv = ["query", "--model", model, "--vtree", "squares.vtree", "--type", "conditional",
                "--evidence", "X3=0"]
        code, out, err = run(capsys, *argv, *(() if target is None else ("--target", target)))
        assert code == 1 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("evidence, message", [
        ("X1", "assignment 'X1' is not of the form name=0|1"),
        ("X1=2", "variable X1: expected 0 or 1, got '2'"),
        ("X1=1,X3=0,X1=1", "variable X1 assigned twice"),
    ])
    def test_malformed_assignment_fails(self, capsys, workdir, evidence, message):
        model = _write_squares_model(capsys, workdir, "idm")
        code, out, err = run(
            capsys,
            "query", "--model", model, "--vtree", "squares.vtree",
            "--type", "marginal", "--evidence", evidence,
        )
        assert code == 1 and out == "" and err == f"error: {message}\n"

    def test_unknown_variable_fails(self, capsys, workdir):
        model = _write_squares_model(capsys, workdir, "idm")
        code, _, err = run(
            capsys,
            "query", "--model", model, "--vtree", "squares.vtree",
            "--type", "marginal", "--evidence", "X9=1",
        )
        assert code != 0 and "unknown variable" in err


class TestRobust:
    def test_squares_map_is_robust(self, capsys, workdir):
        _write_squares_model(capsys, workdir, "idm")
        _write_squares_model(capsys, workdir, "bayes")
        payload = run_json(
            capsys,
            "robust", "--csdd", "squares.csdd", "--psdd", "squares.psdd",
            "--vtree", "squares.vtree", "--evidence", "X3=0,X4=1",
        )
        assert payload["label"] in ("robust", "weakly_robust", "not_robust")
        assert payload["V"] >= 1.0 - 1e-12

    @pytest.mark.parametrize("csdd, psdd, message", [
        ("squares.psdd", "squares.psdd", "--csdd must point at a csdd file"),
        ("squares.csdd", "squares.csdd", "--psdd must point at a psdd file"),
    ])
    def test_model_of_the_wrong_kind_fails(self, capsys, workdir, csdd, psdd, message):
        _write_squares_model(capsys, workdir, "idm")
        _write_squares_model(capsys, workdir, "bayes")
        code, out, err = run(
            capsys,
            "robust", "--csdd", csdd, "--psdd", psdd, "--vtree", "squares.vtree",
            "--evidence", "X3=0",
        )
        assert code == 1 and out == "" and err == f"error: {message}\n"

    def test_inconsistent_evidence_fails(self, capsys, workdir):
        _write_squares_model(capsys, workdir, "idm")
        _write_squares_model(capsys, workdir, "bayes")
        code, out, err = run(
            capsys,
            "robust", "--csdd", "squares.csdd", "--psdd", "squares.psdd",
            "--vtree", "squares.vtree", "--evidence", "X1=1,X2=1,X3=1",
        )
        assert code == 1 and out == "" and err == "error: evidence violates circuit constraints\n"

    def test_psdd_of_another_circuit_refused_at_its_first_differing_line(self, capsys, workdir):
        _write_squares_model(capsys, workdir, "idm")
        _write_squares_model(capsys, workdir, "bayes")
        (workdir / "other.sexp").write_text("(or x1 (and x2 x4))\n")
        run_json(capsys, "compile", "--formula", "other.sexp", "--vtree", "squares.vtree",
                 "-o", "other.sdd")
        run_json(capsys, "learn", "--sdd", "other.sdd", "--vtree", "squares.vtree",
                 "--data", "data.csv", "--mode", "bayes", "--lenient", "-o", "other.psdd")

        def structure(line):  # a node line without its parameters
            toks = line.split()
            if toks[0] == "D":
                return toks[:4] + [t for i, t in enumerate(toks[4:]) if i % 3 != 2]
            return toks[:4]

        own = (workdir / "squares.psdd").read_text().splitlines()[1:]
        other = (workdir / "other.psdd").read_text().splitlines()[1:]
        first = next(i for i, (a, b) in enumerate(zip(own, other), 2) if structure(a) != structure(b))
        code, out, err = run(
            capsys,
            "robust", "--csdd", "squares.csdd", "--psdd", "other.psdd",
            "--vtree", "squares.vtree", "--evidence", "X3=0",
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: line {first}: ") and "Traceback" not in err

    def test_commented_psdd_answers_like_the_plain_one(self, capsys, workdir):
        _write_squares_model(capsys, workdir, "idm")
        _write_squares_model(capsys, workdir, "bayes")
        text = (workdir / "squares.psdd").read_text()
        (workdir / "noted.psdd").write_text("c learned from the squares data\nc\n" + text)
        argv = ["robust", "--csdd", "squares.csdd", "--vtree", "squares.vtree", "--evidence", "X3=0"]
        plain = run_json(capsys, *argv, "--psdd", "squares.psdd")
        assert run_json(capsys, *argv, "--psdd", "noted.psdd") == plain

    def test_shared_structure_flags_conflict(self, capsys, workdir):
        from csdd.fixtures import shared_node_fixture

        fx = shared_node_fixture()
        formats.write_vtree(fx.vtree, workdir / "m.vtree")
        formats.write_csdd(fx.circuit, fx.params(0.3, 0.8), workdir / "m.csdd")
        formats.write_psdd(fx.circuit, fx.point_params(), workdir / "m.psdd")
        payload = run_json(
            capsys,
            "robust", "--csdd", "m.csdd", "--psdd", "m.psdd", "--vtree", "m.vtree",
            "--evidence", "X3=1",
        )
        # the two contexts of the shared terminal pull its parameter apart
        assert payload["certificate"]["status"] == "possibly_outer"
        assert payload["certificate"]["conflicted"] == [fx.shared_top]

    def test_inconsistent_completion_not_robust(self, capsys, workdir):
        _write_squares_model(capsys, workdir, "idm")
        _write_squares_model(capsys, workdir, "bayes")
        payload = run_json(
            capsys,
            "robust", "--csdd", "squares.csdd", "--psdd", "squares.psdd",
            "--vtree", "squares.vtree", "--evidence", "X3=1,X4=1",
            "--map", "X1=1,X2=1",
        )
        assert payload == {**payload, "label": "not_robust", "V": 1.0}


class TestExperiment:
    def test_small_grid_produces_rows(self, capsys, workdir, monkeypatch):
        monkeypatch.setenv("CSDD_THREADS", "1")
        payload = run_json(
            capsys,
            "experiment", "--scenario", "seven-segment", "--d", "12",
            "--pf", "0.2", "--seeds", "2", "--test-size", "25", "-o", "grid.csv",
        )
        assert payload["cells"] == 2
        lines = (workdir / "grid.csv").read_text().strip().splitlines()
        assert lines[0].startswith("d,pf,seed,accuracy,determinacy")
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            for cell in cells[3:]:
                value = float(cell)
                assert math.isnan(value) or 0.0 <= value <= 1.0

    def test_deterministic_given_seed(self, capsys, workdir, monkeypatch):
        monkeypatch.setenv("CSDD_THREADS", "1")
        run_json(capsys, "experiment", "--d", "10", "--pf", "0.3", "--seeds", "1",
                 "--test-size", "20", "--seed", "9", "-o", "a.csv")
        run_json(capsys, "experiment", "--d", "10", "--pf", "0.3", "--seeds", "1",
                 "--test-size", "20", "--seed", "9", "-o", "b.csv")
        assert (workdir / "a.csv").read_text() == (workdir / "b.csv").read_text()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--test-size", "0", "at least one test row"), ("--test-size", "-2", "at least one test row"),
         ("--seeds", "0", "--seeds must be at least 1"), ("--seeds", "-1", "--seeds must be at least 1")],
    )
    def test_empty_grid_refused(self, capsys, workdir, monkeypatch, flag, value, message):
        # no cell, or a cell with no test row, would write a vacuous csv and exit 0
        monkeypatch.setenv("CSDD_THREADS", "1")
        argv = {"--d": "10", "--pf": "0.3", "--seeds": "1", "--test-size": "5", flag: value}
        code, out, err = run(capsys, "experiment", *(t for kv in argv.items() for t in kv),
                             "-o", "empty.csv")
        assert code == 1 and out == ""
        assert message in err
        assert not (workdir / "empty.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--d", "x", "--d entries must each be a positive integer"),
         ("--d", "10,x", "--d entries must each be a positive integer"),
         ("--d", "0", "--d entries must each be a positive integer"),
         ("--d", "-3", "--d entries must each be a positive integer"),
         ("--d", "10,2.5", "--d entries must each be a positive integer"),
         ("--d", "", "--d entries must each be a positive integer"),
         ("--pf", "1.5", "--pf entries must each be a number in [0, 1]"),
         ("--pf", "0.2,-0.1", "--pf entries must each be a number in [0, 1]"),
         ("--pf", "nan", "--pf entries must each be a number in [0, 1]"),
         ("--pf", "0.2,x", "--pf entries must each be a number in [0, 1]"),
         ("--ess", "0", "--ess must be positive and finite"),
         ("--ess", "-1", "--ess must be positive and finite"),
         ("--ess", "inf", "--ess must be positive and finite"),
         ("--ess", "nan", "--ess must be positive and finite")],
    )
    def test_bad_grid_option_refused(self, capsys, workdir, monkeypatch, flag, value, message):
        # refused by name before any cell runs, not by a worker's late ValueError
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "run_cell", no_cell)
        monkeypatch.setenv("CSDD_THREADS", "2")
        argv = {"--d": "10,12", "--pf": "0.2,0.3", "--seeds": "1", "--test-size": "5", flag: value}
        code, out, err = run(capsys, "experiment", *(t for kv in argv.items() for t in kv),
                             "-o", "bad.csv")
        assert code == 1 and out == ""
        assert message in err
        assert not (workdir / "bad.csv").exists()

    @pytest.mark.parametrize("threads", ["-1", "two", "1.5", " 2", "", "\u0662"])
    def test_bad_thread_count_refused(self, capsys, workdir, monkeypatch, threads):
        # checked before any cell runs, although a one-cell grid starts no pool
        monkeypatch.setenv("CSDD_THREADS", threads)
        code, out, err = run(capsys, "experiment", "--d", "10", "--pf", "0.3", "--seeds", "1",
                             "--test-size", "5", "-o", "threads.csv")
        assert code == 1 and out == ""
        assert f"CSDD_THREADS must be a non-negative integer, got {threads!r}" in err
        assert not (workdir / "threads.csv").exists()

    @pytest.mark.parametrize("threads", ["100000", "0", "1"])
    def test_pool_no_larger_than_the_grid(self, capsys, workdir, monkeypatch, threads):
        # a forked pool starts every worker it is given at once
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("CSDD_THREADS", threads)
        code, _, err = run(capsys, "experiment", "--d", "10", "--pf", "0.2,0.3", "--seeds", "1",
                           "--test-size", "5", "-o", "pool.csv")
        assert code == 0, err
        want = min(int(threads) or os.cpu_count() or 1, 2)  # 0 asks for one per CPU
        assert sizes == ([want] if want > 1 else [])  # one worker runs the cells in process

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_progress_line_per_cell(self, capsys, workdir, monkeypatch, threads):
        monkeypatch.setenv("CSDD_THREADS", threads)
        argv = ["experiment", "--d", "10", "--pf", "0.2,0.3", "--seeds", "2",
                "--test-size", "5", "--seed", "4", "-o", f"grid{threads}.csv"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        lines = err.splitlines()
        cells = [(pf, 4 + i) for pf in ("0.2", "0.3") for i in range(2)]
        assert len(lines) == len(cells)
        for index, (line, (pf, seed)) in enumerate(zip(lines, cells), 1):
            assert re.fullmatch(rf"cell {index}/4 d=10 pf={pf} seed={seed} \d+\.\d\ds", line), line
        # progress goes to stderr only: the csv and the json match a serial run
        monkeypatch.setenv("CSDD_THREADS", "1")
        assert run(capsys, *argv[:-1], "serial.csv")[1] == out.replace(f"grid{threads}.csv", "serial.csv")
        assert (workdir / f"grid{threads}.csv").read_text() == (workdir / "serial.csv").read_text()
