import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import cli
from rotinv.cli import (
    MatrixFileError,
    format_matrix_file,
    main,
    parse_matrix_file,
    report_from_document,
    report_to_document,
)
from rotinv.expr import EvalContext, evaluate, parse
from rotinv.linalg import SquareMatrix, Vector
from rotinv.objectivity import QuadraticForm
from rotinv.rotation import validate_rotation

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def identity3(tmp_path):
    path = tmp_path / "id3.txt"
    path.write_text("3\n1.0 0.0 0.0\n0.0 1.0 0.0\n0.0 0.0 1.0\n")
    return str(path)

@pytest.fixture
def diag12(tmp_path):
    path = tmp_path / "diag12.txt"
    path.write_text("2\n1 0\n0 2\n")
    return str(path)


class TestMatrixFileFormat:
    def test_round_trip(self):
        m = SquareMatrix([[0.5, -1.25], [3.0, 1e-17]])
        assert parse_matrix_file(format_matrix_file(m)) == m

    def test_rejects_wrong_row_count(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file("2\n1 0\n")

    def test_rejects_wrong_row_width(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file("2\n1 0 0\n0 1\n")

    def test_rejects_bad_order_line(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file("2.5\n1 0\n0 1\n")

    def test_rejects_non_finite(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file("1\ninf\n")

    def test_rejects_empty(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file("")


class TestMakeRotation:
    def test_e1_to_e2(self, capsys):
        code, out, err = run(capsys, "make-rotation", "1 0", "0 1")
        assert (code, out, err) == (0, "2\n0.0 -1.0\n1.0 0.0\n", "")
        validate_rotation(parse_matrix_file(out))

    def test_overflowing_norm_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "make-rotation", "1e200 0", "1 0")
        assert (code, out) == (2, "")
        assert err == "error: u must be within 1e-06 of unit norm, got norm 1e+200\n"

    def test_identity_in_one_dimension(self, capsys):
        code, out, _ = run(capsys, "make-rotation", "1", "1")
        assert code == 0
        assert out == (GOLDEN / "make_rotation_identity1.txt").read_text()

    def test_impossible_flip_cites_determinant(self, capsys):
        code, out, err = run(capsys, "make-rotation", "1", "-1")
        assert code == 1
        assert out == ""
        assert "det Q = 1" in err

    def test_unequal_lengths(self, capsys):
        code, _, err = run(capsys, "make-rotation", "1 0", "0 1 0")
        assert code == 2 and "equal length" in err

    def test_rejects_far_from_unit(self, capsys):
        code, _, err = run(capsys, "make-rotation", "2 0", "0 1")
        assert code == 2 and "unit norm" in err

    def test_normalizes_near_unit_input(self, capsys):
        code, out, _ = run(capsys, "make-rotation", "1.0000001 0", "0 1")
        assert code == 0
        validate_rotation(parse_matrix_file(out))

    def test_rejects_garbage(self, capsys):
        code, _, _ = run(capsys, "make-rotation", "abc", "0 1")
        assert code == 2

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "q.txt"
        code, out, _ = run(capsys, "make-rotation", "0 1", "1 0", "--out", str(target))
        assert code == 0 and out == ""
        validate_rotation(parse_matrix_file(target.read_text()))

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "q.txt"
        code, out, err = run(capsys, "make-rotation", "0 1", "1 0", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


class TestCheckQuadratic:
    def test_identity_golden(self, capsys, identity3):
        code, out, _ = run(capsys, "check-quadratic", identity3, "--json")
        assert code == 0
        assert out == (GOLDEN / "check_quadratic_identity3.json").read_text()
        doc = json.loads(out)
        assert doc["verdict"] == "objective" and doc["alpha"] == 1.0

    def test_diagonal_witness(self, capsys, diag12):
        code, out, _ = run(capsys, "check-quadratic", diag12, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "not_objective"
        assert doc["witness"]["f_x"] == pytest.approx(1.0, abs=1e-12)
        assert doc["witness"]["f_qx"] == pytest.approx(2.0, abs=1e-12)
        validate_rotation(SquareMatrix(doc["witness"]["q"]))

    def test_human_readable(self, capsys, diag12):
        code, out, _ = run(capsys, "check-quadratic", diag12)
        assert code == 1
        assert "verdict: not_objective" in out

    def test_loose_tolerance_flag(self, capsys, diag12):
        code, out, _ = run(capsys, "check-quadratic", diag12, "--tol", "0.5", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "objective"

    @pytest.mark.parametrize("tol", ["1", "10", "inf", "nan"])
    def test_tol_outside_the_open_unit_interval_exits_2(self, capsys, tmp_path, tol):
        # tol >= 1 would accept diag(1, -1); tol < 1 keeps tol*max|H_s| finite.
        path = tmp_path / "big.txt"
        path.write_text("2\n1.7e308 0\n0 1\n")
        code, out, err = run(capsys, "check-quadratic", str(path), "--tol", tol, "--json")
        assert (code, out, err) == (2, "", "error: --tol must be in (0, 1)\n")

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 0 0\n0 1\n")
        code, _, err = run(capsys, "check-quadratic", str(bad))
        assert code == 2 and "row 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check-quadratic", "/no/such/file")
        assert code == 2 and "cannot read" in err

    @pytest.mark.parametrize("rows", [
        "1e200 1e200\n1e200 1e200", "0 1e-300\n1e-300 0", "1.7e308 0\n0 1", "1e308 0\n0 -1e308",
        # The eigenvalue 2e308 overflows, so the witness is u_min / 2.
        "1e308 1e308\n1e308 1e308",
    ])
    def test_extreme_scale_witness_replays(self, capsys, tmp_path, rows):
        path = tmp_path / "h.txt"
        path.write_text(f"2\n{rows}\n")
        code, out, err = run(capsys, "check-quadratic", str(path), "--json")
        assert (code, err) == (1, "")
        report, _ = report_from_document(json.loads(out))
        w = report.witness
        qf = QuadraticForm(parse_matrix_file(path.read_text()))
        assert qf.value(w.x) == w.f_x and qf.value(w.q.apply(w.x)) == w.f_qx

    def test_isotropic_at_the_double_maximum(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("2\n1.7e308 0\n0 1.7e308\n")
        code, out, err = run(capsys, "check-quadratic", str(path), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["alpha"] == 1.7e308

    def test_readme_json_example_holds(self, capsys, diag12):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        code, out, _ = run(capsys, "check-quadratic", diag12, "--json")
        assert code == 1
        assert out == json.dumps(json.loads(example)) + "\n"

    def test_json_document_round_trips(self, capsys, diag12):
        _, out, _ = run(capsys, "check-quadratic", diag12, "--json")
        doc = json.loads(out)
        report, seed = report_from_document(doc)
        assert report_to_document(report, seed) == doc


class TestCheckFunction:
    def test_radial_is_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, "check-function", "norm(x)^2 + sin(norm(x))",
            "--dim", "3", "--trials", "300", "--json",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "inconclusive"
        assert doc["trials"] == 300
        assert doc["seed"] == 0

    def test_coordinate_is_refuted(self, capsys):
        code, out, _ = run(capsys, "check-function", "x1", "--dim", "2", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "not_objective"
        assert "witness" in doc
        report, _ = report_from_document(doc)  # witness rotation re-validates

    def test_dimension_one_is_objective(self, capsys):
        code, out, _ = run(capsys, "check-function", "x1^2", "--dim", "1", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "objective"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "check-function", "x0", "--dim", "2")
        assert code == 2 and "offset 0" in err

    def test_out_of_range_variable(self, capsys):
        code, _, err = run(capsys, "check-function", "x3", "--dim", "2")
        assert code == 2 and "x3" in err

    def test_t_is_an_unknown_identifier(self, capsys):
        code, out, err = run(capsys, "check-function", "t^2", "--dim", "2")
        assert (code, out) == (2, "")
        assert err == "error: cannot parse expression: unknown function or variable 't' (at offset 0)\n"

    def test_domain_error_during_trials(self, capsys):
        code, _, err = run(capsys, "check-function", "log(x1-20)", "--dim", "2")
        assert code == 2 and "evaluation failed" in err

    def test_rerun_is_byte_identical(self, capsys):
        args = ("check-function", "x1*x2", "--dim", "3", "--trials", "200", "--seed", "11", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2)

    def test_negative_seed_exits_2(self, capsys):
        code, _, err = run(capsys, "check-function", "x1", "--dim", "2", "--seed", "-1")
        assert code == 2 and err.startswith("error:") and "--seed" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exits_2(self, capsys, tol):
        code, out, err = run(capsys, "check-function", "norm(x)", "--dim", "2", "--tol", tol, "--json")
        assert (code, out, err) == (2, "", "error: --tol must be finite and > 0\n")

    @pytest.mark.parametrize("flag,value", [
        ("--radius-min", "nan"), ("--radius-max", "inf"), ("--radius-min", "-inf"),
    ])
    def test_non_finite_radius_range_exits_2(self, capsys, flag, value):
        code, _, err = run(capsys, "check-function", "norm(x)", "--dim", "2", f"{flag}={value}")
        assert code == 2 and err.startswith("error:") and "finite" in err

    def test_radii_where_x_dot_x_overflows(self, capsys):
        code, out, err = run(capsys, "check-function", "x1", "--dim", "2",
                             "--radius-min", "1e200", "--radius-max", "1e201", "--json")
        assert (code, err) == (1, "")
        w = report_from_document(json.loads(out))[0].witness
        f = parse("x1")
        assert evaluate(f, EvalContext.at_point(w.x)) == w.f_x
        assert evaluate(f, EvalContext.at_point(w.q.apply(w.x))) == w.f_qx

    def test_radii_where_x_dot_x_underflows(self, capsys):
        # The norm keeps its bits where x.x underflows: no division by zero.
        code, out, err = run(capsys, "check-function", "1/norm(x)", "--dim", "2", "--trials", "200",
                             "--radius-min", "1e-300", "--radius-max", "1e-299")
        assert (code, err) == (3, "") and out.startswith("verdict: inconclusive\n")

    @pytest.mark.parametrize("low,high", [("1e-13", "9e-13"), ("2e-12", "9e-12"), ("1e-300", "1e-299"),
                                          ("3e-308", "9e-308")])
    def test_tiny_radii_are_compared(self, capsys, low, high):
        code, _, err = run(capsys, "check-function", "x1/norm(x)", "--dim", "2",
                           "--radius-min", low, "--radius-max", high)
        assert (code, err) == (1, "")

    def test_subnormal_radii_are_not_compared(self, capsys):
        code, out, err = run(capsys, "check-function", "x1/norm(x)", "--dim", "2", "--trials", "200",
                             "--radius-min", "1e-320", "--radius-max", "2e-320")
        assert (code, err) == (3, "") and "trials: 200\n" in out

    def test_too_deep_an_expression_exits_2(self, capsys):
        code, out, err = run(capsys, "check-function", "(" * 3000 + "x1" + ")" * 3000, "--dim", "2")
        assert (code, out) == (2, "")
        assert err == "error: cannot parse expression: expression nests deeper than 200 levels (at offset 200)\n"

    def test_seed_is_echoed_and_reproduces(self, capsys):
        args = ("check-function", "x1", "--dim", "2", "--seed", "42", "--json")
        _, out, _ = run(capsys, *args)
        assert json.loads(out)["seed"] == 42


class TestProfile:
    def test_golden_csv(self, capsys):
        code, out, _ = run(capsys, "profile", "norm(x)^2", "--dim", "5", "--radii", "0,1,2")
        assert code == 0
        assert out == (GOLDEN / "profile_norm_sq.csv").read_text()

    def test_norm_beyond_the_square_root_of_the_double_maximum(self, capsys):
        code, out, err = run(capsys, "profile", "norm(x)", "--dim", "2", "--radii", "1e200")
        assert (code, out, err) == (0, "t,phi\n1e+200,1e+200\n", "")

    def test_norm_where_x_dot_x_underflows(self, capsys):
        code, out, err = run(capsys, "profile", "log(norm(x))", "--dim", "2", "--radii", "1e-200,1e-300,3e-310")
        assert (code, err) == (0, "")
        assert out == "t,phi\n1e-200,-460.51701859880916\n1e-300,-690.7755278982137\n3e-310,-712.7027665394861\n"

    def test_log_at_zero_names_the_radius(self, capsys):
        code, _, err = run(capsys, "profile", "log(norm(x))", "--dim", "2", "--radii", "0,1")
        assert code == 2
        assert "radius 0.0" in err

    def test_non_objective_function_still_has_a_profile(self, capsys):
        code, out, _ = run(capsys, "profile", "x1", "--dim", "2", "--radii", "1")
        assert code == 0
        assert out == "t,phi\n1.0,1.0\n"

    def test_out_flag(self, capsys, tmp_path):
        target = tmp_path / "p.csv"
        code, out, _ = run(capsys, "profile", "dot(x,x)", "--dim", "2", "--radii", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "t,phi\n2.0,4.0\n"

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "p.csv"
        code, out, err = run(capsys, "profile", "dot(x,x)", "--dim", "2", "--radii", "2", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    def test_bad_radii(self, capsys):
        assert run(capsys, "profile", "x1", "--dim", "2", "--radii", "a,b")[0] == 2
        assert run(capsys, "profile", "x1", "--dim", "2", "--radii", "-1")[0] == 2
        assert run(capsys, "profile", "x1", "--dim", "2", "--radii", "")[0] == 2

    def test_large_grid_keeps_every_row(self, capsys):
        # 3,000 radii, each three times and out of order: every row comes
        # back in grid order.
        radii = [(7 * i % 1000) / 8 for i in range(3000)]
        code, out, err = run(capsys, "profile", "dot(x,x)", "--dim", "3", "--radii", ",".join(map(repr, radii)))
        assert (code, err) == (0, "")
        assert out.splitlines() == ["t,phi"] + [f"{t!r},{t * t!r}" for t in radii]

    @pytest.mark.parametrize("radii", ["nan", "1,inf", "-inf"])
    def test_non_finite_radii_exit_2(self, capsys, radii):
        code, _, err = run(capsys, "profile", "norm(x)", "--dim", "2", f"--radii={radii}")
        assert code == 2 and err.startswith("error:") and "finite" in err


class TestSampleRotation:
    def test_dimension_one_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "r")
        code, _, _ = run(capsys, "sample-rotation", "--dim", "1", "--count", "3", "--out", prefix)
        assert code == 0
        for i in range(3):
            assert Path(f"{prefix}{i:03d}.txt").read_text() == "1\n1.0\n"

    def test_seeded_reruns_are_bitwise_identical(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run(capsys, "sample-rotation", "--dim", "4", "--count", "2", "--seed", "7", "--out", a)
        run(capsys, "sample-rotation", "--dim", "4", "--count", "2", "--seed", "7", "--out", b)
        for i in range(2):
            assert Path(f"{a}{i:03d}.txt").read_bytes() == Path(f"{b}{i:03d}.txt").read_bytes()

    def test_samples_validate(self, capsys, tmp_path):
        prefix = str(tmp_path / "s")
        code, _, _ = run(capsys, "sample-rotation", "--dim", "3", "--count", "100", "--seed", "1", "--out", prefix)
        assert code == 0
        for i in range(100):
            q = parse_matrix_file(Path(f"{prefix}{i:03d}.txt").read_text())
            validate_rotation(q, tol=1e-10)

    def test_output_is_pinned(self, capsys, tmp_path):
        # The files depend on haar_sample's exact draws and sign fix; the
        # fixtures pin them for seed 7.
        prefix = str(tmp_path / "q_")
        assert run(capsys, "sample-rotation", "--dim", "4", "--count", "2", "--seed", "7",
                   "--out", prefix)[0] == 0
        for i in range(2):
            expected = (GOLDEN / f"sample_rotation_dim4_seed7_{i:03d}.txt").read_bytes()
            assert Path(f"{prefix}{i:03d}.txt").read_bytes() == expected

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sample-rotation", "--dim", "2", "--seed", "-3",
                           "--out", str(tmp_path / "x"))
        assert code == 2 and err.startswith("error:")

    def test_bad_count(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sample-rotation", "--dim", "2", "--count", "0", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        prefix = tmp_path / "missing" / "r"
        code, out, err = run(capsys, "sample-rotation", "--dim", "2", "--out", str(prefix))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {prefix}000.txt: ") and err.count("\n") == 1


class TestContract:
    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2

    def test_no_arguments_exits_2(self, capsys):
        assert run(capsys)[0] == 2

    def test_version_exits_0(self, capsys):
        assert run(capsys, "--version")[0] == 0

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "check-function", "--help")
        assert code == 0 and out.startswith("usage:")

    @pytest.mark.parametrize("argv", [
        ["check-function", "x1"],
        ["check-function", "x1", "--dim", "abc"],
        ["no-such-command"],
        [],
    ])
    def test_usage_error_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv", [
        ["make-rotation", "1 0", "0 1"],
        ["profile", "norm(x)", "--dim", "2", "--radii", "1"],
        ["sample-rotation", "--dim", "2"],
    ])
    def test_empty_out_exits_2_and_writes_nothing(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--out", "")
        assert (code, out, err) == (2, "", "error: argument --out: must not be empty\n")
        assert list(tmp_path.iterdir()) == []

    def test_unexpected_exception_exits_2(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(cli, "extract_profile", boom)
        code, out, err = run(capsys, "profile", "norm(x)", "--dim", "2", "--radii", "1")
        assert code == 2 and out == ""
        assert err == "error: unexpected RuntimeError: simulated fault\n"

    @pytest.mark.parametrize("argv", [
        ["check-function", "norm(x)", "--trials", "1"],
        ["profile", "norm(x)", "--radii", "1"],
        ["sample-rotation", "--out"],
    ])
    def test_dim_above_cap_exits_2(self, capsys, tmp_path, argv):
        # Only MAX_DIM + 1 is tried: an uncapped huge --dim could exhaust memory.
        if argv[-1] == "--out":
            argv = argv + [str(tmp_path / "q_")]
        code, out, err = run(capsys, *argv, "--dim", str(cli.MAX_DIM + 1))
        assert code == 2 and out == ""
        assert err == f"error: --dim must be between 1 and {cli.MAX_DIM}\n"
        assert list(tmp_path.iterdir()) == []

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rotinv", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("rotinv ")


def run_quiet(*argv):
    # capsys is function-scoped, so Hypothesis tests capture by hand.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def assert_witness_iff_exit_1(code, out, f):
    """Exit 1 carries a JSON witness that replays through validate_rotation
    and the scalar function f; exit 0 and 3 carry none."""
    if code == 2:
        assert out == ""
        return
    doc = json.loads(out)
    assert ("witness" in doc) == (code == 1)
    if code == 1:
        w = doc["witness"]
        q = validate_rotation(SquareMatrix(w["q"]))
        x = Vector(w["x"])
        assert f(x) == w["f_x"] and f(q.apply(x)) == w["f_qx"]


# make-rotation's impossible flip in dimension one exits 1 without a
# witness by design (nothing is being tested for objectivity), so these
# properties cover only the two commands that report a verdict.
class TestExitOneMeansWitness:
    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=4),
        entries=st.lists(st.integers(min_value=-5, max_value=5), min_size=16, max_size=16),
        k=st.integers(min_value=-1000, max_value=1000),
    )
    def test_check_quadratic(self, m, entries, k):
        # Integer entries scaled by 2^k: a finite matrix always gets a verdict.
        h = SquareMatrix(np.ldexp(np.array(entries[: m * m], dtype=float).reshape(m, m), k))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.txt"
            path.write_text(format_matrix_file(h))
            code, out = run_quiet("check-quadratic", str(path), "--json")
        assert code in (0, 1)
        assert_witness_iff_exit_1(code, out, QuadraticForm(h).value)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=4),
        source=st.sampled_from([
            "norm(x)^2 + sin(norm(x))",
            "sqrt(dot(x,x)) - norm(x)",
            "x1",
            "x1*x2 + {a}",
            "dot(x,x) - {a}*x1",
            "exp({a}*x1/norm(x))",
            "abs(x1) + {a}*abs(x2)",
            "log(x1 - 20)",
        ]),
        a=st.floats(min_value=0.5, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_check_function(self, m, source, a, seed):
        source = source.format(a=repr(a))
        code, out = run_quiet(
            "check-function", source, "--dim", str(m), "--trials", "200", "--seed", str(seed), "--json"
        )
        assert code in (0, 1, 2, 3)
        expr = parse(source)
        assert_witness_iff_exit_1(code, out, lambda x: evaluate(expr, EvalContext.at_point(x)))
