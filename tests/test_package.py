"""The package namespace: the public names and their order, and a cold import."""

import os
import subprocess
import sys

import sobhyp

PUBLIC_NAMES = [
    "__version__",
    "Poly", "Rational", "as_rational", "pochhammer",
    "FamilySpec", "PoleError", "script_l", "script_p", "bold_l", "bold_p", "laguerre",
    "jacobi", "jacobi_shifted", "terminating_series", "make_member", "leading_coefficient",
    "member_coeffs_float",
    "DiffOp", "compose", "identity_op", "make_D_xi", "composed_lowering", "laguerre_operator",
    "jacobi_operator", "pencil_residual", "ode3_residual",
    "DomainError", "PhiCoeffs", "PsiCoeffs", "phi_P", "phi_L", "psi_P", "recurrence_residual_P",
    "recurrence_residual_L", "generate_P_by_recurrence", "psi_consistency",
    "ConvergenceError", "WeightSpec", "laguerre_weight", "jacobi_weight", "moment",
    "SobolevForm", "sobolev_form_for", "sobolev_inner_exact", "a_n_normalized",
    "OrthogonalityReport", "verify_orthogonality", "QuadRule", "gauss_rule",
    "sobolev_inner_quadrature",
    "RootSet", "roots", "discriminant_L", "discriminant_P", "integral_rep_check",
    "limit_check",
]


def test_public_names_are_pinned_in_order():
    assert sobhyp.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in sobhyp.__all__:
        assert getattr(sobhyp, name) is not None, name


def test_cold_import_leaves_dataclasses_and_inspect_out():
    # The records are built on exactnum._Record: importing the CLI pulls in
    # neither dataclasses nor inspect, the largest part of the cold start.
    # sympy and mpmath are test-time oracles only; the runtime stays stdlib-only.
    src = os.path.dirname(os.path.dirname(sobhyp.__file__))
    code = ("import sys, sobhyp.cli; "
            "print(sorted({'dataclasses', 'inspect', 'mpmath', 'sympy'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
