"""End-to-end CLI tests: exit codes, JSON schema, determinism, file output."""

import argparse
import hashlib
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

import sobhyp.sobolev
from sobhyp.diffop import DiffOp
from sobhyp.exactnum import Poly
from sobhyp.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    return code, doc, err


def test_coeffs_json_schema(capsys):
    code, doc, _ = run_json(
        capsys, "coeffs", "--family", "scriptL", "--q", "3", "--r", "3", "--n", "2"
    )
    assert code == 0
    assert set(doc) == {"command", "params", "results", "pass"}
    assert doc["command"] == "coeffs"
    assert doc["params"] == {"family": "scriptL", "q": "3", "r": "3", "n": 2}
    assert doc["results"]["coefficients"] == ["1", "-2/9", "1/72"]
    assert doc["results"]["degree"] == 2
    assert doc["pass"] is True


def test_coeffs_csv_golden(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "--family", "scriptL", "--q", "3", "--r", "3",
        "--n", "2", "--format", "csv",
    )
    assert code == 0
    assert out == "k,coefficient\n0,1\n1,-2/9\n2,1/72\n"


def test_coeffs_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "--family", "scriptP", "--a", "1", "--b", "1", "--c", "2", "--n", "1"
    )
    assert code == 0
    assert out.startswith("command: coeffs\n")
    assert out.endswith("pass: true\n")


def test_output_is_deterministic(capsys):
    argv = ("verify", "orthogonality", "--family", "scriptL", "--q", "1/2",
            "--r", "2", "--nmax", "5", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_coeffs_bold_empty_slots(capsys):
    code, doc, _ = run_json(capsys, "coeffs", "--family", "boldL", "--q", "2", "--n", "3")
    assert code == 0
    assert doc["params"]["rs"] == []
    assert doc["results"]["coefficients"][1] == "-3/2"  # 1F1(-3; 2; x) linear term


def test_verify_orthogonality_pass(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "orthogonality", "--family", "scriptL",
        "--q", "1/2", "--r", "2", "--nmax", "4",
    )
    assert code == 0
    assert doc["pass"] is True
    assert doc["results"]["pairs_checked"] == 15
    assert doc["results"]["failures"] == 0
    assert doc["results"]["columns"] == ["n", "m", "inner_product", "expected", "ok"]
    assert all(row[4] is True for row in doc["results"]["rows"])


def _count_calls(monkeypatch, original, calls, name):
    """Replace ``original`` at every place it is bound, as the benchmark's
    tracer does, so a caller importing it by name is counted too."""

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module is not None and (module_name == "sobhyp" or module_name.startswith("sobhyp.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counted


def test_verify_orthogonality_lowers_each_member_once(capsys, monkeypatch):
    calls = []
    _count_calls(monkeypatch, sobhyp.sobolev.verify_orthogonality, calls, "verify")
    _count_calls(monkeypatch, sobhyp.sobolev.sobolev_inner_exact, calls, "inner")
    # DiffOp.__call__ is an alias of DiffOp.apply: patch both names.
    applied = _count_calls(monkeypatch, DiffOp.apply, calls, "apply")
    monkeypatch.setattr(DiffOp, "apply", applied)
    monkeypatch.setattr(DiffOp, "__call__", applied)
    code, doc, _ = run_json(
        capsys, "verify", "orthogonality", "--family", "scriptL",
        "--q", "1/2", "--r", "2", "--nmax", "4",
    )
    assert code == 0
    assert doc["results"]["pairs_checked"] == 15
    assert {name: calls.count(name) for name in ("verify", "inner", "apply")} == {
        "verify": 1, "inner": 0, "apply": 4 + 1,
    }


@pytest.mark.parametrize("subject,argv", [
    ("orthogonality", ["--family", "scriptL", "--q", "1", "--r", "2"]),
    ("ode3", ["--family", "scriptL", "--q", "1", "--r", "2"]),
    ("pencil", ["--family", "scriptL", "--q", "1", "--r", "2"]),
    ("recurrence", ["--family", "scriptL", "--q", "1", "--r", "2"]),
    ("psi", ["--a", "1", "--b", "2", "--c", "3"]),
    ("integral-rep", ["--family", "scriptL", "--q", "1", "--r", "2", "--z", "0.5"]),
])
def test_verify_rejects_negative_nmax(capsys, subject, argv):
    with pytest.raises(SystemExit) as info:
        main(["verify", subject, *argv, "--nmax", "-1"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "--nmax: must be nonnegative, got -1" in captured.err


def test_verify_orthogonality_names_first_failure(capsys, monkeypatch):
    original = sobhyp.sobolev.make_member

    def perturbed(spec, n):
        y = original(spec, n)
        return y + Poly.monomial(5) if n == 3 else y

    monkeypatch.setattr(sobhyp.sobolev, "make_member", perturbed)
    code, doc, err = run_json(
        capsys, "verify", "orthogonality", "--family", "scriptL",
        "--q", "1/2", "--r", "3", "--nmax", "5",
    )
    assert code == 1
    assert doc["results"]["failures"] == 6
    n, m, got, want, _ = next(row for row in doc["results"]["rows"] if not row[4])
    assert (n, m) == (3, 0)
    assert err == f"first failure: <y_3, y_0> = {got}, want {want}\n"


def test_verify_orthogonality_bold_p(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "orthogonality", "--family", "boldP",
        "--a", "1", "--b", "2", "--cs", "2,2", "--nmax", "3",
    )
    assert code == 0
    assert doc["params"]["cs"] == ["2", "2"]
    assert doc["pass"] is True


def test_verify_ode3_pass(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "ode3", "--family", "scriptP",
        "--a", "1", "--b", "2", "--c", "3", "--nmax", "8",
    )
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["results"]["rows"]) == 9
    assert all(row[1] == "0" and row[2] is True for row in doc["results"]["rows"])


@pytest.mark.parametrize("subject,name", [
    ("ode3", "ode3_residual"),
    ("pencil", "pencil_residual"),
    ("recurrence", "recurrence_residual_L"),
])
def test_verify_residual_row_reports_the_largest_coefficient(capsys, monkeypatch, subject, name):
    # A residual patched onto the module-level name is the one reported: the
    # subject table looks its function up at call time.
    residuals = {0: Poly(), 1: Poly([F(1, 6), F(-3, 4), F(1, 2)]), 2: Poly([-7])}
    monkeypatch.setattr(f"sobhyp.cli.{name}", lambda *args: residuals[args[-1]])
    code, doc, _ = run_json(
        capsys, "verify", subject, "--family", "scriptL", "--q", "1", "--r", "2", "--nmax", "2"
    )
    assert code == 1
    assert doc["results"]["rows"] == [[0, "0", True], [1, "3/4", False], [2, "7", False]]


def test_verify_ode3_rejects_bold(capsys):
    code, out, err = run_cli(
        capsys, "verify", "ode3", "--family", "boldL", "--q", "1", "--rs", "2,3", "--nmax", "4"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_pencil_composed(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "pencil", "--family", "boldL",
        "--q", "2", "--rs", "2,3", "--nmax", "6",
    )
    assert code == 0
    assert doc["pass"] is True


def test_verify_recurrence_pass(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "recurrence", "--family", "scriptL",
        "--q", "5", "--r", "3", "--nmax", "10",
    )
    assert code == 0
    assert doc["pass"] is True


def test_verify_integral_rep_pass(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "integral-rep", "--family", "scriptL",
        "--q", "1", "--r", "2", "--nmax", "5", "--z", "1",
    )
    assert code == 0
    assert doc["pass"] is True
    assert doc["results"]["columns"] == ["n", "direct", "integral", "abs_err", "ok"]


def test_verify_integral_rep_needs_z(capsys):
    code, _, err = run_cli(
        capsys, "verify", "integral-rep", "--family", "scriptL",
        "--q", "1", "--r", "2", "--nmax", "5",
    )
    assert code == 2
    assert "--z" in err


@pytest.mark.parametrize("z", ["inf", "-inf", "nan"])
def test_verify_integral_rep_rejects_non_finite_z(capsys, z):
    with pytest.raises(SystemExit) as info:
        main(["verify", "integral-rep", "--family", "scriptL", "--q", "1", "--r", "2",
              "--nmax", "2", f"--z={z}"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert f"argument --z: not a finite number: '{z}'" in captured.err


def test_verify_integral_rep_overflow_names_z(capsys):
    code, out, err = run_cli(
        capsys, "verify", "integral-rep", "--family", "scriptL", "--q", "1", "--r", "2",
        "--nmax", "2", "--z", "1e308",
    )
    assert code == 2
    assert out == ""
    assert err == "error: the member's value at z = 1e+308 exceeds the float range\n"


def test_verify_limit_overflow_names_z(capsys):
    code, out, err = run_cli(
        capsys, "verify", "limit", "--q", "2", "--r", "3", "--n", "8", "--z", "1e200"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: the limit errors at z = {10**200} exceed the float range\n"


def test_verify_limit_default_b_values(capsys):
    code, doc, _ = run_json(capsys, "verify", "limit", "--q", "2", "--r", "3", "--n", "3")
    assert code == 0
    assert doc["pass"] is True
    assert doc["params"]["b_values"] == ["256", "512", "1024", "2048", "4096"]
    assert len(doc["results"]["ratios"]) == 4
    lo, hi = doc["results"]["ratio_window"]
    assert all(lo <= rr <= hi for rr in doc["results"]["ratios"])


def test_verify_limit_degree_zero_vacuous(capsys):
    code, doc, _ = run_json(capsys, "verify", "limit", "--q", "1", "--r", "2", "--n", "0")
    assert code == 0
    assert doc["pass"] is True
    assert doc["results"]["ratios"] == []


def test_verify_limit_failure_exits_1(capsys):
    # b = 2, 3 gives a ratio near 1.5, outside the doubling window.
    code, doc, _ = run_json(
        capsys, "verify", "limit", "--q", "1", "--r", "2", "--n", "1", "--b-values", "2,3"
    )
    assert code == 1
    assert doc["pass"] is False
    assert doc["results"]["rows"][0] == ["2", 0.25]
    assert doc["results"]["rows"][1][1] == pytest.approx(1 / 6, rel=1e-15)


def test_verify_psi_pass(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "psi", "--a", "1", "--b", "2", "--c", "3", "--nmax", "6"
    )
    assert code == 0
    assert doc["pass"] is True
    assert [row[0] for row in doc["results"]["rows"]] == [2, 3, 4, 5, 6]
    assert all(row[1:5] == ["0", "0", "0", "0"] for row in doc["results"]["rows"])


@pytest.mark.parametrize("nmax", ["0", "1"])
def test_verify_psi_rejects_range_without_rows(capsys, nmax):
    code, out, err = run_cli(
        capsys, "verify", "psi", "--a", "1", "--b", "2", "--c", "3", "--nmax", nmax
    )
    assert code == 2
    assert out == ""
    assert err == f"error: psi needs --nmax of at least 2, got {nmax}\n"


def test_table_roots_conjugate_pair(capsys):
    code, doc, _ = run_json(
        capsys, "table", "roots", "--family", "scriptL", "--q", "3", "--r", "3", "--n", "2"
    )
    assert code == 0
    rows = doc["results"]["rows"]
    assert len(rows) == 2
    assert rows[0][2] == pytest.approx(-rows[1][2], abs=1e-12)
    assert abs(rows[0][2]) > 1e-3  # genuinely non-real
    assert doc["results"]["residual_bound"] <= 1e-9
    assert doc["results"]["iterations"] >= 1


def test_table_roots_needs_degree(capsys):
    code, _, err = run_cli(
        capsys, "table", "roots", "--family", "scriptL", "--q", "3", "--r", "3", "--n", "0"
    )
    assert code == 2
    assert "degree" in err


def test_table_roots_non_finite_iterates_exit_1(capsys):
    # At n = 18 the start circle is so wide that the first round overflows;
    # the NaN iterates used to be reported as a converged pass.
    code, out, err = run_cli(
        capsys, "table", "roots", "--family", "scriptL", "--q", "1", "--r", "1", "--n", "18"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "round 1" in err


def test_table_roots_float_range_overflow_exits_2(capsys):
    # The leading coefficient 1/200! underflows as a float and the monic
    # coefficients overflow; neither may escape as a traceback.
    code, out, err = run_cli(
        capsys, "table", "roots", "--family", "scriptL", "--q", "1", "--r", "1", "--n", "200"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "float range" in err


def test_table_quad_rule(capsys):
    code, doc, _ = run_json(
        capsys, "table", "quad-rule", "--weight", "laguerre", "--q", "1", "--points", "2"
    )
    assert code == 0
    rows = doc["results"]["rows"]
    assert rows[0][1] == pytest.approx(2 - 2**0.5, abs=1e-13)
    assert rows[1][1] == pytest.approx(2 + 2**0.5, abs=1e-13)
    assert rows[0][2] + rows[1][2] == pytest.approx(1.0, abs=1e-13)


def test_table_quad_rule_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "table", "quad-rule", "--weight", "jacobi", "--a", "1", "--b", "1",
        "--points", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,node,weight"
    assert len(lines) == 4


def test_table_eval_grid(capsys):
    code, doc, _ = run_json(
        capsys, "table", "eval-grid", "--family", "scriptP",
        "--a", "1", "--b", "1", "--c", "2", "--n", "3", "--x-range", "0:1:3",
    )
    assert code == 0
    rows = doc["results"]["rows"]
    assert [row[0] for row in rows] == [0.0, 0.5, 1.0]
    assert rows[0][1] == 1.0  # members are normalized to 1 at the origin


def test_table_eval_grid_overflow_names_x(capsys):
    code, out, err = run_cli(
        capsys, "table", "eval-grid", "--family", "scriptL", "--q", "1", "--r", "1",
        "--n", "100", "--x-range", "0:1e6:3",
    )
    assert code == 2
    assert out == ""
    assert err == "error: the member's value at x = 500000 exceeds the float range\n"


def test_table_discriminant_grid_signs(capsys):
    code, doc, _ = run_json(
        capsys, "table", "discriminant-grid", "--family", "scriptL",
        "--q-range", "3:3:1", "--r-range", "1:3:3",
    )
    assert code == 0
    rows = doc["results"]["rows"]
    assert [row[3] for row in rows] == [1, 0, -1]
    assert rows[2][2] == "-128"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out, _ = run_cli(
        capsys, "coeffs", "--family", "scriptL", "--q", "1", "--r", "2",
        "--n", "1", "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["coefficients"] == ["1", "-1/2"]


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "doc.txt"
    code, out, err = run_cli(
        capsys, "coeffs", "--family", "scriptL", "--q", "1", "--r", "2", "--n", "1",
        "--out", str(target),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_missing_family_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--family", "scriptL", "--q", "1", "--n", "2")
    assert code == 2
    assert "scriptL" in err


def test_invalid_parameter_value_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "coeffs", "--family", "scriptL", "--q", "0", "--r", "2", "--n", "2"
    )
    assert code == 2
    assert "positive" in err


def test_programming_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr("sobhyp.cli.make_member", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        main(["coeffs", "--family", "scriptL", "--q", "1", "--r", "2", "--n", "1"])


def test_argparse_rejects_unknown_family():
    with pytest.raises(SystemExit) as info:
        main(["coeffs", "--family", "hermite", "--n", "2"])
    assert info.value.code == 2


def test_argparse_rejects_bad_range():
    with pytest.raises(SystemExit) as info:
        main(["table", "eval-grid", "--family", "scriptL", "--q", "1", "--r", "2",
              "--n", "1", "--x-range", "0:1"])
    assert info.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sobhyp.cli", "coeffs", "--family", "scriptL",
         "--q", "3", "--r", "3", "--n", "2", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["coefficients"] == ["1", "-2/9", "1/72"]


# --- golden stdout bytes ------------------------------------------------------
#
# SHA-256 of stdout and the exit code for every subcommand in every format, at
# small sizes.  The digests were recorded before the CLI's handlers were merged
# into shared code paths; a refactor must leave them unchanged.

GOLDEN_CASES = {
    "coeffs-scriptL": ["coeffs", "--family", "scriptL", "--q", "3", "--r", "3", "--n", "2"],
    "coeffs-scriptP": ["coeffs", "--family", "scriptP", "--a", "1", "--b", "1/2", "--c", "2", "--n", "3"],
    "coeffs-boldL": ["coeffs", "--family", "boldL", "--q", "2", "--n", "3"],
    "coeffs-boldP": ["coeffs", "--family", "boldP", "--a", "1", "--b", "2", "--cs", "2,3", "--n", "3"],
    "orthogonality-scriptL": ["verify", "orthogonality", "--family", "scriptL",
                              "--q", "1/2", "--r", "2", "--nmax", "4"],
    "orthogonality-boldP": ["verify", "orthogonality", "--family", "boldP",
                            "--a", "1", "--b", "2", "--cs", "2,3", "--nmax", "3"],
    "ode3-scriptL": ["verify", "ode3", "--family", "scriptL", "--q", "2", "--r", "3", "--nmax", "4"],
    "ode3-scriptP": ["verify", "ode3", "--family", "scriptP", "--a", "1", "--b", "2", "--c", "3",
                     "--nmax", "4"],
    "ode3-rejects-boldL": ["verify", "ode3", "--family", "boldL", "--q", "1", "--rs", "2,3",
                           "--nmax", "4"],
    "pencil-boldL": ["verify", "pencil", "--family", "boldL", "--q", "2", "--rs", "2,3",
                     "--nmax", "4"],
    "pencil-scriptP": ["verify", "pencil", "--family", "scriptP", "--a", "1", "--b", "2",
                       "--c", "3", "--nmax", "4"],
    "recurrence-scriptL": ["verify", "recurrence", "--family", "scriptL", "--q", "5", "--r", "3",
                           "--nmax", "4"],
    "recurrence-scriptP": ["verify", "recurrence", "--family", "scriptP", "--a", "1", "--b", "2",
                           "--c", "3", "--nmax", "4"],
    "integral-rep-scriptL": ["verify", "integral-rep", "--family", "scriptL", "--q", "1",
                             "--r", "2", "--nmax", "3", "--z", "1"],
    "limit-pass": ["verify", "limit", "--q", "2", "--r", "3", "--n", "3"],
    "limit-fail": ["verify", "limit", "--q", "1", "--r", "2", "--n", "1", "--b-values", "2,3"],
    "psi": ["verify", "psi", "--a", "1", "--b", "2", "--c", "3", "--nmax", "4"],
    "roots-scriptL": ["table", "roots", "--family", "scriptL", "--q", "3", "--r", "3", "--n", "2"],
    "eval-grid-scriptP": ["table", "eval-grid", "--family", "scriptP", "--a", "1", "--b", "1",
                          "--c", "2", "--n", "3", "--x-range", "0:1:3"],
    "quad-rule-laguerre": ["table", "quad-rule", "--weight", "laguerre", "--q", "1",
                           "--points", "3"],
    "quad-rule-jacobi": ["table", "quad-rule", "--weight", "jacobi", "--a", "1", "--b", "2",
                         "--points", "3"],
    "discriminant-grid-scriptL": ["table", "discriminant-grid", "--family", "scriptL",
                                  "--q-range", "3:3:1", "--r-range", "1:3:3"],
    "discriminant-grid-scriptP": ["table", "discriminant-grid", "--family", "scriptP",
                                  "--a-range", "1:2:2", "--b-range", "1:1:1",
                                  "--c-range", "1:3:3"],
}

GOLDEN = {
    ("coeffs-scriptL", "text"): ("f0871d2ba30f603eda4fdd1de859402b951a6a7d00adf72932e40c8d99ef3d76", 0),
    ("coeffs-scriptL", "csv"): ("28affb4385bbe9c7385806bc310df5442b2a747cc5158f5f50b260790d5e2726", 0),
    ("coeffs-scriptL", "json"): ("845da52430a8a89c680df9cd9734f91a7e93eef13df4cc3dc31282185039f9e1", 0),
    ("coeffs-scriptP", "text"): ("a604d71db2f2dfeb966a98999a79c71250a2fe7b7eebb31e1fac80b279343c24", 0),
    ("coeffs-scriptP", "csv"): ("20bf70541b13096e58dcfcf89016fb90d707ae20ad60d245b580cda3aadc3ce1", 0),
    ("coeffs-scriptP", "json"): ("bfb32a55f6e249bae826b4c1849d017b27dcc88771a1e756798faf86be577f20", 0),
    ("coeffs-boldL", "text"): ("1700cbc9b14f5ae686049f9640021b7daeb3f774866a92b2e1cc016a10e53a40", 0),
    ("coeffs-boldL", "csv"): ("90f194a84e28fb78d83e28ba04867d6913429626752f536f2efde5919cc22e14", 0),
    ("coeffs-boldL", "json"): ("501104dd7278e8d1d3a9e36937dd351e7fefba38cebbd77657fd40ece6e7bedb", 0),
    ("coeffs-boldP", "text"): ("10192d475453c01768011625c40146a9d019e9e7e2e0e0f0a22fe2e15bcc93d7", 0),
    ("coeffs-boldP", "csv"): ("5f1df73ec80cde314f7c892ba3a829aea78c3d984e3c057ce3f71d60cfdd84ce", 0),
    ("coeffs-boldP", "json"): ("86330b5e3cf0b0c2af5ee37e4ec1876e84ca312a5f967c6631066b9e51e4880c", 0),
    ("orthogonality-scriptL", "text"): ("0b7374ebf454a974b48c45a1e6b4ad411bcb261b9e563f4d394ea2621349ff5d", 0),
    ("orthogonality-scriptL", "csv"): ("0b2e6e3e23ee09a75f83d8ac47a8babc1ae9b12381547e85cdf1809eb1b8c483", 0),
    ("orthogonality-scriptL", "json"): ("34d97eeed8a953c1efa7dc6d9f9f20ba4ea3e6ef1719501881ecf21dd0444a41", 0),
    ("orthogonality-boldP", "text"): ("a02ab5193e46ac3e246acca4fa5972836d55be98f88ffef25c5fff0473b1675c", 0),
    ("orthogonality-boldP", "csv"): ("eae5f0bec1926ab4b5264cd42c91475b99e5dad02ed2298206fc355d426e7e06", 0),
    ("orthogonality-boldP", "json"): ("7d9ff2618be679000622f3e829148abb8df59b3d331d74d703d5dfb5eec9ad44", 0),
    ("ode3-scriptL", "text"): ("da8e3b41c26da58b2bd0368d492d7479f6d897ee34aa109effa6df65146eaac7", 0),
    ("ode3-scriptL", "csv"): ("da9d896da254f4e2c06cb6dc847585161c3d194bed9ada75ad9449f37d68d328", 0),
    ("ode3-scriptL", "json"): ("631ec5f13bd198d7d56befd310172d6010d337e61ad3376741610a0187604959", 0),
    ("ode3-scriptP", "text"): ("8340460425be23ae53d7a913071840e7eaebebe138d5ce73fb1402ec507fd1ec", 0),
    ("ode3-scriptP", "csv"): ("da9d896da254f4e2c06cb6dc847585161c3d194bed9ada75ad9449f37d68d328", 0),
    ("ode3-scriptP", "json"): ("f3388099a5e4716c98317e0f7710c099bbddaf976e4104102bcae68ab1732422", 0),
    ("ode3-rejects-boldL", "text"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    ("ode3-rejects-boldL", "csv"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    ("ode3-rejects-boldL", "json"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    ("pencil-boldL", "text"): ("6fb10b113c4ba012a3314aad8521729ff1e87794be94f6df9dc73a227c4a9a0c", 0),
    ("pencil-boldL", "csv"): ("da9d896da254f4e2c06cb6dc847585161c3d194bed9ada75ad9449f37d68d328", 0),
    ("pencil-boldL", "json"): ("45cddafe981609c5c3d3169628fa81ec5c063cb342d43f0ff8bd5d2c90587bdb", 0),
    ("pencil-scriptP", "text"): ("6a0c9229c14538200457035aafb068f37888044fbd9357e244b9c1465f135ecd", 0),
    ("pencil-scriptP", "csv"): ("da9d896da254f4e2c06cb6dc847585161c3d194bed9ada75ad9449f37d68d328", 0),
    ("pencil-scriptP", "json"): ("bc20b95ff4ce0e3237b265de334e5349555229e67a7f25bcfdd4b9f7b1b91275", 0),
    ("recurrence-scriptL", "text"): ("6bc979fffd800ddd30af4b21586a72999e48036ed41e07cc20ef86391941f95e", 0),
    ("recurrence-scriptL", "csv"): ("da9d896da254f4e2c06cb6dc847585161c3d194bed9ada75ad9449f37d68d328", 0),
    ("recurrence-scriptL", "json"): ("445718dd623076a621cf3b2e3f142e3bc7646014a506085c6092a2ff0262a402", 0),
    ("recurrence-scriptP", "text"): ("6645e92b13365305bf941f616aa5fc550d08b4c66742fa4e3329af83d71134fb", 0),
    ("recurrence-scriptP", "csv"): ("da9d896da254f4e2c06cb6dc847585161c3d194bed9ada75ad9449f37d68d328", 0),
    ("recurrence-scriptP", "json"): ("e7ef95fcad725ae17a3535d9a990ee02344d1b225edb4dc9c54fdefdf50453f5", 0),
    ("integral-rep-scriptL", "text"): ("549eb6b1dcb10aa7ab3db10230a0ce13a692c3d4f0487581de942a1bdab63f00", 0),
    ("integral-rep-scriptL", "csv"): ("ec10c3ef2d0bd7aeb5611cee4400e9d6141e075955db2ded034e44b3a35df1f4", 0),
    ("integral-rep-scriptL", "json"): ("97751d702f7a730782d32ae26b886d9b3e7df562e8e729d57a569d99ca1e5b25", 0),
    ("limit-pass", "text"): ("8a1e6961d961ed22b6cff4c3c12ac346b25ad8ee05b672fd999bda833cab118a", 0),
    ("limit-pass", "csv"): ("a4c3fb84636bf2a8c4310c4db9f9772fb4c61e35fee7e05a33c034062e71f171", 0),
    ("limit-pass", "json"): ("91249e44aca4c6afedc6b56eec59f1c0cdd8ab686988f0c41dd5d7052dccd2fa", 0),
    ("limit-fail", "text"): ("67cf7a7f37e0cd321349ce364b991019cdbc1cd8eaf27b92b30be557d5e44adf", 1),
    ("limit-fail", "csv"): ("019ef51525061f52d92f75fc8f19b8b0a93bc4f0d26f59d4fb8b6a68f68aa9d0", 1),
    ("limit-fail", "json"): ("a8c50332e3c1679a25c08583ded507d238e7cdbdefc2e37a855879d55fd5503b", 1),
    ("psi", "text"): ("f3e6d96c212e5c772b2d0c7711818204535cdd32114af231451e44b8e4174095", 0),
    ("psi", "csv"): ("63c7245b9ce6219eb19763cf14e16535974a36a16c96d91200eaf62de8fb149a", 0),
    ("psi", "json"): ("6cfad92a392dfa24dade3a3bb0e0f1e637907156039959c61ee9305f4bb37d07", 0),
    ("roots-scriptL", "text"): ("b6d6e848f76cac1cd989ea92502cc790cbb06d0a6abf8caab43e82fce658b771", 0),
    ("roots-scriptL", "csv"): ("e1972237c22583c3b0f48551a8c0b27e838be318dc6f81b11e9efc8f4657324d", 0),
    ("roots-scriptL", "json"): ("a4df2a13ae03968dec43b098f906b4f59366eb7fe63f444948d579d49b8628e9", 0),
    ("eval-grid-scriptP", "text"): ("046a407a0d7ab7a4a633dbf587f6f2528846bb882d62d39eeb5e8fc5f0fe83d1", 0),
    ("eval-grid-scriptP", "csv"): ("e33fa51e41536ebd0d36eac58a2cb50a62ad34ce151a700ab77bf5f318f84f74", 0),
    ("eval-grid-scriptP", "json"): ("6c3f0e9dd76e6087af5979628c0d675640f853d1605d511328fffbeaca741b1e", 0),
    ("quad-rule-laguerre", "text"): ("9bb5433ff4aa9883ab4356d8be02af4892e2ef093280394e3699fe6f424f2924", 0),
    ("quad-rule-laguerre", "csv"): ("da1492e6ab0f9b4616d1d38d80aff5fe7e62b38528f07ebc07a03ce05c80a0d9", 0),
    ("quad-rule-laguerre", "json"): ("20fff81129a03ca0d7e183303da2f8ebea48792ecb217957ffee76af1f52e355", 0),
    ("quad-rule-jacobi", "text"): ("65ed8675639cab45a2b67848fac1e2c2617d0d641ee293750a2a9b9ef01477ea", 0),
    ("quad-rule-jacobi", "csv"): ("60d1b9416640ee7229990bde7cca4d68439f5e574422fa591c560d3ad65cd6b0", 0),
    ("quad-rule-jacobi", "json"): ("0805e155861526fd5ddd1ff56c76e5086b46be5e8c474af8a5c0be5d629839a4", 0),
    ("discriminant-grid-scriptL", "text"): ("23c6d67d23e992e86327c415f46612f9c48d8fda2342d1588d04112134d271af", 0),
    ("discriminant-grid-scriptL", "csv"): ("7987da15a0d03537ec7818866e0d01bebace966d32a4526e6a5efd831217f93b", 0),
    ("discriminant-grid-scriptL", "json"): ("c66275940c1c689410a32dd50a23b57a90e6f6f95b829d39b0e86663dfc416c8", 0),
    ("discriminant-grid-scriptP", "text"): ("d96b28edb622b100ef21cfff6fda9d0ae5244aee868343974d5b6821b84e2b83", 0),
    ("discriminant-grid-scriptP", "csv"): ("37b158fb50de1da1ef6f921945d00ffd04cfdd619745399045057e905b007e55", 0),
    ("discriminant-grid-scriptP", "json"): ("f501c4c0d90187be1030792f8550afd4196d5841e71bd017383463f5837a2375", 0),
}


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_cli_golden_bytes(capsys, name, fmt):
    code, out, _ = run_cli(capsys, *GOLDEN_CASES[name], "--format", fmt)
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN[(name, fmt)]


def test_golden_cases_cover_every_subcommand():
    covered = {tuple(argv[:2]) if argv[0] != "coeffs" else ("coeffs",)
               for argv in GOLDEN_CASES.values()}
    assert covered == {
        ("coeffs",),
        *(("verify", s) for s in ("orthogonality", "ode3", "pencil", "recurrence",
                                  "integral-rep", "limit", "psi")),
        *(("table", w) for w in ("roots", "eval-grid", "quad-rule", "discriminant-grid")),
    }


# --- help screens -------------------------------------------------------------
#
# SHA-256 of every ``--help`` screen at ``COLUMNS=80``, keyed by the command
# path.  Python 3.10's argparse titles the flag section "optional arguments:"
# where later versions print "options:"; the title is normalised to the later
# form before hashing.  The digests were recorded before the parser was built
# from shared parents and one output-flag loop.

HELP_SCREENS = {
    (): "2854ba445d5da1ca77caf47579454aefd8165a8eed26e3eec3ab8a8af6e6b849",
    ("coeffs",): "94e8e610c5623993237e4cbbf6306187f99bb7c1af3dac698008cc15bd1d59ae",
    ("verify",): "35ca1a3d707a9406f5028079aac875f6460bc6dac66a5f451aa6463c995035f5",
    ("table",): "02fa8d0ff7608c29c3672038fd746e13af2d7f762e99e490365cf97e14db953f",
    ("verify", "orthogonality"): "21efccc8c87aa10580a9723d903c6b54df0d32a53b42be93db9eadf023275397",
    ("verify", "ode3"): "57a91925b43d4bf52aedd89424d071c4e444a225014d48992eb8eaef10ed5ccd",
    ("verify", "pencil"): "e97db94674033e9bd5d545b06b07ed3ed50098816ec78a77a35d3a17265212bb",
    ("verify", "recurrence"): "55fb916cee1bfc6e3cf1a0e01988fad06f9d2e912b424749c13e11060668d68d",
    ("verify", "integral-rep"): "69a9fd48d4e8236a9b75e2eb283b317e4f0bbb11ec791bb5115fbcb7a1cce89f",
    ("verify", "limit"): "6047b1d251268f040717ec80dcaf609fda46159dae6271b9a17dbef80ed501be",
    ("verify", "psi"): "e0dc56562218dd055d150b6ade131dab6223ea34d5259adfbfbac2b53b14565c",
    ("table", "roots"): "14a66d7e719f24c9f72c41446dcb185cc1e49a3dd2eac56690ac0d6d3021bfe8",
    ("table", "eval-grid"): "43c9e81e3ac86a0d346fa73a01deee7667cf012159a63f56442b434bb2a3942d",
    ("table", "quad-rule"): "34cedf46d2967a207ea823a69645cfacf7187b5ca8249834d1c7b41566c5e26f",
    ("table", "discriminant-grid"): "78102d937a97f3aa8914a816dab05175d57a69ab61838f9528ecf26d558fb25d",
}


@pytest.mark.parametrize("path", sorted(HELP_SCREENS))
def test_help_screen_bytes(capsys, monkeypatch, path):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([*path, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out.replace("\noptional arguments:\n", "\noptions:\n")
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SCREENS[path]


def _parser_paths(parser, path=()):
    """The command path of ``parser`` and of every parser below it."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parser_paths(child, (*path, name))


def test_help_screens_cover_every_parser():
    assert set(HELP_SCREENS) == set(_parser_paths(_build_parser()))
