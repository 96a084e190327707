"""Linear differential operators with polynomial coefficients.

An operator is the finite sum  sum_k  c_k(x) d^k/dx^k  stored as the tuple
of its coefficient polynomials, index = derivative order.  Application and
composition stay inside exact rational arithmetic, so operator identities
can be checked as literal polynomial equalities.

Two constructions matter downstream:

* ``make_D_xi(r)`` builds the order r-1 degree-preserving operator
  y  |->  (x^(r-1) y)^((r-1)), expanded into the  sum d_k x^k y^(k)  form
  with d_k = ((r-1)!/k!)^2 / (r-1-k)!.  For r = 1 it is the identity.
* ``laguerre_operator`` / ``jacobi_operator`` build the classical
  second-order operators together with their eigenvalue maps; the pencil
  residual checks that a lowering-operator image of a family member is an
  eigenfunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Sequence

from .exactnum import Poly, as_rational
from .families import _LAYOUTS, SCRIPT_L, SCRIPT_P, FamilySpec, make_member

__all__ = [
    "DiffOp",
    "compose",
    "identity_op",
    "make_D_xi",
    "composed_lowering",
    "laguerre_operator",
    "jacobi_operator",
    "pencil_residual",
    "ode3_residual",
]


@dataclass(frozen=True)
class DiffOp:
    """sum_k coeffs[k](x) d^k/dx^k with exact polynomial coefficients."""

    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        cs = [c if isinstance(c, Poly) else Poly([c]) for c in self.coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def order(self) -> int | None:
        """Order of the highest surviving derivative; ``None`` for the zero operator."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def apply(self, y: Poly) -> Poly:
        out = Poly()
        for k, ck in enumerate(self.coeffs):
            if not ck.is_zero:
                out = out + ck * y.derivative(k)
        return out

    __call__ = apply


def identity_op() -> DiffOp:
    return DiffOp((Poly([1]),))


def compose(outer: DiffOp, inner: DiffOp) -> DiffOp:
    """The operator acting as ``outer(inner(y))``, expanded by Leibniz's rule."""
    acc: dict[int, Poly] = {}
    for j, aj in enumerate(outer.coeffs):
        if aj.is_zero:
            continue
        for k, bk in enumerate(inner.coeffs):
            if bk.is_zero:
                continue
            # d^j (b_k y^(k)) = sum_i C(j,i) b_k^((j-i)) y^((k+i))
            for i in range(j + 1):
                dkb = bk.derivative(j - i)
                if dkb.is_zero:
                    continue
                term = aj * dkb * comb(j, i)
                acc[k + i] = acc.get(k + i, Poly()) + term
    if not acc:
        return DiffOp(())
    top = max(acc)
    return DiffOp(tuple(acc.get(k, Poly()) for k in range(top + 1)))


def _check_lowering_index(r) -> None:
    if not isinstance(r, int) or r < 1:
        raise ValueError("the lowering-operator index r must be a positive integer")


def make_D_xi(r: int) -> DiffOp:
    """The degree-preserving lowering operator y |-> (x^(r-1) y)^((r-1))."""
    _check_lowering_index(r)
    coeffs = []
    for k in range(r):
        dk = Fraction(factorial(r - 1) // factorial(k)) ** 2 / factorial(r - 1 - k)
        coeffs.append(Poly.monomial(k, dk))
    return DiffOp(tuple(coeffs))


def _weight_and_orders(spec: FamilySpec) -> tuple[tuple[Fraction, ...], list[int]]:
    """Split a hypergeometric spec into its weight parameters and lowering orders.

    The weight parameters are (q,) on the Laguerre side and (a, b) on the
    Jacobi side.  Every remaining parameter (r, c or a slot list entry) sets
    the order of one lowering operator, so it must be a positive integer.
    """
    layout = _LAYOUTS.get(spec.kind)
    if layout is None:
        raise ValueError(f"no lowering operator for family kind {spec.kind!r}")
    head = len(layout.weights)
    orders = []
    for v in spec.params[head:]:
        if v.denominator != 1 or v < 1:
            raise ValueError(f"lowering-operator index must be a positive integer, got {v}")
        orders.append(int(v))
    return spec.params[:head], orders


def composed_lowering(rs: Sequence[int]) -> DiffOp:
    """Composition D_{r_1} o ... o D_{r_d}; the last index acts first.

    Each distinct index sequence is composed once and the operator shared,
    since a DiffOp is immutable; the indices are checked on every call.
    """
    rs = tuple(rs)
    for r in rs:
        _check_lowering_index(r)
    return _composed_lowering(rs)


@lru_cache(maxsize=None)
def _composed_lowering(rs: tuple[int, ...]) -> DiffOp:
    op = identity_op()
    for r in rs:
        op = compose(op, make_D_xi(r))
    return op


def laguerre_operator(q) -> tuple[DiffOp, Callable[[int], Fraction]]:
    """Classical Laguerre-side operator x y'' + (q - x) y' and its eigenvalues -n."""
    q = as_rational(q)
    op = DiffOp((Poly(), Poly([q, -1]), Poly.monomial(1)))
    return op, lambda n: Fraction(-n)


def jacobi_operator(a, b) -> tuple[DiffOp, Callable[[int], Fraction]]:
    """Classical Jacobi-side operator x(1-x) y'' + (a - (a+b)x) y', eigenvalues -n(n+a+b-1)."""
    a = as_rational(a)
    b = as_rational(b)
    op = DiffOp((Poly(), Poly([a, -(a + b)]), Poly([0, 1, -1])))
    return op, lambda n: -n * (n + a + b - 1)


def pencil_residual(spec: FamilySpec, n: int) -> Poly:
    """L(D y_n) - lambda_n (D y_n) for the family's classical operator L.

    Zero exactly when the lowered member is a classical eigenfunction; the
    verification suite asserts this over whole parameter grids.
    """
    head, orders = _weight_and_orders(spec)
    op, eig = laguerre_operator(*head) if len(head) == 1 else jacobi_operator(*head)
    u = composed_lowering(orders)(make_member(spec, n))
    return op(u) - eig(n) * u


def ode3_residual(spec: FamilySpec, n: int) -> Poly:
    """Residual of the third-order equation satisfied by the degree-n member.

    For scriptL(q, r):
        x^2 y''' + (q+r+1-x) x y'' + (qr - 2x) y' + n (x y' + y) = 0
    and for scriptP(a, b, c):
        (1-x) x^2 y''' + (a+c+1 - (a+b+3)x) x y'' + (ac - 2(a+b)x) y'
            + n(n+a+b-1) (x y' + y) = 0.
    """
    y = make_member(spec, n)
    d1, d2, d3 = y.derivative(), y.derivative(2), y.derivative(3)
    x = Poly.monomial(1)
    if spec.kind == SCRIPT_L:
        q, r = spec.params
        return (
            Poly.monomial(2) * d3
            + Poly([0, q + r + 1, -1]) * d2
            + Poly([q * r, -2]) * d1
            + n * (x * d1 + y)
        )
    if spec.kind == SCRIPT_P:
        a, b, c = spec.params
        return (
            Poly([0, 0, 1, -1]) * d3
            + Poly([0, a + c + 1, -(a + b + 3)]) * d2
            + Poly([a * c, -2 * (a + b)]) * d1
            + (n * (n + a + b - 1)) * (x * d1 + y)
        )
    raise ValueError(f"no third-order equation for family kind {spec.kind!r}")
