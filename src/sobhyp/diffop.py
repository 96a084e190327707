"""Linear differential operators with polynomial coefficients.

An operator is the finite sum  sum_k  c_k(x) d^k/dx^k  stored as the tuple
of its coefficient polynomials, index = derivative order.  Application and
composition stay inside exact rational arithmetic, so operator identities
can be checked as literal polynomial equalities.

Two constructions matter downstream:

* ``composed_lowering(rs)`` builds the product of the degree-preserving
  operators D_r y = (x^(r-1) y)^((r-1)) from their action on monomials;
  ``make_D_xi(r)`` is the one-factor case, and D_1 is the identity.
* ``laguerre_operator`` / ``jacobi_operator`` build the classical
  second-order operators together with their eigenvalue maps; the pencil
  residual checks that a lowering-operator image of a family member is an
  eigenfunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Callable, Sequence

from .exactnum import Poly, as_rational, pochhammer
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


def _lowering_orders(values) -> tuple[int, ...]:
    """The lowering-operator orders, each checked to be a positive integer."""
    for v in values:
        if not isinstance(v, (int, Fraction)) or v.denominator != 1 or v < 1:
            raise ValueError(f"lowering-operator index must be a positive integer, got {v}")
    return tuple(int(v) for v in values)


def make_D_xi(r: int) -> DiffOp:
    """The degree-preserving lowering operator y |-> (x^(r-1) y)^((r-1))."""
    return composed_lowering((r,))


def _weight_and_orders(spec: FamilySpec) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """Split a hypergeometric spec into its weight parameters and lowering orders.

    The weight parameters are (q,) on the Laguerre side and (a, b) on the
    Jacobi side.  Every remaining parameter (r, c or a slot list entry) sets
    the order of one lowering operator, so it must be a positive integer.
    """
    layout = _LAYOUTS.get(spec.kind)
    if layout is None:
        raise ValueError(f"no lowering operator for family kind {spec.kind!r}")
    head = len(layout.weights)
    return spec.params[:head], _lowering_orders(spec.params[head:])


def composed_lowering(rs: Sequence[int]) -> DiffOp:
    """The composition of D_r over the orders ``rs``; the D_r commute.

    Each D_r is diagonal on monomials, D_r x^k = (k+1)_(r-1) x^k, so the
    composition scales x^k by lam(k) = prod_r (k+1)_(r-1).  As x^m d^m maps
    x^k to k!/(k-m)! x^k, its coefficients are (Delta^m lam)(0)/m! x^m.
    Each order tuple is built once and the operator shared.
    """
    return _composed_lowering(_lowering_orders(tuple(rs)))


@lru_cache(maxsize=None)
def _composed_lowering(orders: tuple[int, ...]) -> DiffOp:
    top = sum(orders) - len(orders)
    # diffs[k] = (Delta^m lam)(k) at step m; lam has degree top, so k <= top suffices.
    diffs = [prod(pochhammer(k + 1, r - 1) for r in orders) for k in range(top + 1)]
    coeffs = []
    for m in range(top + 1):
        coeffs.append(Poly.monomial(m, Fraction(diffs[0], factorial(m))))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return DiffOp(tuple(coeffs))


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

    For scriptL(q, r), with lam = n:
        x^2 y''' + (q+r+1-x) x y'' + (qr - 2x) y' + lam (x y' + y) = 0
    and for scriptP(a, b, c), with lam = n(n+a+b-1):
        (1-x) x^2 y''' + (a+c+1 - (a+b+3)x) x y'' + (ac - 2(a+b)x) y'
            + lam (x y' + y) = 0.
    The residual is one DiffOp applied to the member, with lam (x y' + y)
    folded into the coefficients of y and y'.
    """
    if spec.kind == SCRIPT_L:
        q, r = spec.params
        lam = n
        coeffs = [[q * r, lam - 2], [0, q + r + 1, -1], [0, 0, 1]]
    elif spec.kind == SCRIPT_P:
        a, b, c = spec.params
        lam = n * (n + a + b - 1)
        coeffs = [[a * c, lam - 2 * (a + b)], [0, a + c + 1, -(a + b + 3)], [0, 0, 1, -1]]
    else:
        raise ValueError(f"no third-order equation for family kind {spec.kind!r}")
    return DiffOp((Poly([lam]), *map(Poly, coeffs)))(make_member(spec, n))
