"""Linear differential operators with polynomial coefficients.

An operator is the finite sum  sum_k  c_k(x) d^k/dx^k  stored as the tuple
of its coefficient polynomials, index = derivative order.  It acts on
monomials as bands: c x^j d^k sends x^m to c perm(m, k) x^(m+j-k), so band
s = j - k carries an integer polynomial sigma_s(m) over one denominator.
Applying an operator is one int pass out[m + s] += sigma_s(m) y_m over the
numerators of y, built as one Poly at the end; composing two is Leibniz's
rule on their coefficients.  The lowering operators D_r y = (x^(r-1) y)^((r-1))
and their products (``composed_lowering``) have one band, lam; the classical
operators (``laguerre_operator`` / ``jacobi_operator``) have two.  Each of
these is built once per order tuple or parameter value and shared.  The two
identity residuals are one two-band int pass over a member's numerators
against n-free band tables, int tuples cached per equal spec and power-of-two
size: a sweep to degree n builds O(log n) of them and never changes one.  The
pencil L(D y) - lambda_n D y reads L's two bands and D's one; the series' own
equation, its term ratio in theta = x d/dx, reads the series' parameters, and
its e_k = k (A k + B) belongs to it alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm, prod
from typing import Callable, Sequence

from .exactnum import Poly, _poly, _Record, as_rational, pochhammer
from .families import _LAYOUTS, FamilySpec, _series_ints, make_member

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


class DiffOp(_Record):
    """sum_k coeffs[k](x) d^k/dx^k with exact polynomial coefficients."""

    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        cs = [c if isinstance(c, Poly) else Poly([c]) for c in self.coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        den = lcm(*(c.den for c in cs))
        terms: dict[int, list[tuple[int, int]]] = {}
        for k, ck in enumerate(cs):
            for j, v in enumerate(ck.nums):
                if v:
                    terms.setdefault(j - k, []).append((k, v * (den // ck.den)))
        bands = [(s, lru_cache(None)(lambda m, t=t: sum(v * perm(m, k) for k, v in t)))
                 for s, t in terms.items()]
        object.__setattr__(self, "_bands", (bands, den))

    @property
    def order(self) -> int | None:
        """Order of the highest surviving derivative; ``None`` for the zero operator."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def apply(self, y: Poly) -> Poly:
        """sum_s sigma_s(m) y_m x^(m+s) / den over the bands (s, sigma_s), in one int pass."""
        bands, den = self._bands
        nums = y.nums
        out = [0] * (len(nums) + max((s for s, _ in bands), default=0))
        for s, sigma in bands:
            for m in range(max(0, -s), len(nums)):
                out[m + s] += sigma(m) * nums[m]
        return _poly(out, den * y.den)

    __call__ = apply


def identity_op() -> DiffOp:
    return DiffOp((Poly([1]),))


def compose(outer: DiffOp, inner: DiffOp) -> DiffOp:
    """The operator acting as ``outer(inner(y))``, by Leibniz's rule:
    a d^k o b d^j = sum_i C(k, i) a b^(i) d^(j+k-i)."""
    out = [Poly()] * ((outer.order or 0) + (inner.order or 0) + 1)
    for k, a in enumerate(outer.coeffs):
        for j, b in enumerate(inner.coeffs):
            for i in range(min(k, len(b.nums) - 1) + 1):
                out[j + k - i] += comb(k, i) * a * b.derivative(i)
    return DiffOp(tuple(out))


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
    composition is the one band lam(k) = prod_r (k+1)_(r-1).  Each order
    tuple is built once and the operator shared.
    """
    return _composed_lowering(_lowering_orders(tuple(rs)))


@lru_cache(maxsize=None)
def _composed_lowering(orders: tuple[int, ...]) -> DiffOp:
    # The x^k d^k coefficient is the forward difference (Delta^k lam)(0) / k!.
    order = sum(orders) - len(orders)
    diffs = [prod(pochhammer(m + 1, r - 1) for r in orders) for m in range(order + 1)]
    coeffs = []
    for k in range(order + 1):
        coeffs.append(Poly.monomial(k, Fraction(diffs[0], factorial(k))))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return DiffOp(tuple(coeffs))


@lru_cache(maxsize=None)
def laguerre_operator(q) -> tuple[DiffOp, Callable[[int], Fraction]]:
    """Classical Laguerre-side operator x y'' + (q - x) y' and its eigenvalues -n."""
    op = DiffOp((Poly(), Poly([q, -1]), Poly.monomial(1)))  # Poly takes q exactly
    return op, lambda n: Fraction(-n)


@lru_cache(maxsize=None)
def jacobi_operator(a, b) -> tuple[DiffOp, Callable[[int], Fraction]]:
    """Classical Jacobi-side operator x(1-x) y'' + (a - (a+b)x) y', eigenvalues -n(n+a+b-1)."""
    a, b = as_rational(a), as_rational(b)
    op = DiffOp((Poly(), Poly([a, -(a + b)]), Poly([0, 1, -1])))
    return op, lambda n: -n * (n + a + b - 1)


def _two_band_residual(bands, spec: FamilySpec, n: int, y: Poly | None = None) -> Poly:
    """sum_k [(e_n - e_k) g(k) y_k + h(k) y_(k+1)] x^k / den for the degree-n
    member y, ``make_member(spec, n)`` unless the caller holds it: one fused
    int pass over the tables (den, e, g, h) that ``bands(spec, size)`` caches
    per power-of-two size.  They are asked for before the member, so a bad
    spec is reported before a bad n, and cover both e_n and every
    coefficient of y.
    """
    den, e, g, h = bands(spec, 1 << max(n, 0).bit_length())
    if y is None:
        y = make_member(spec, n)
    nums = y.nums
    if len(nums) > len(e):
        den, e, g, h = bands(spec, 1 << (len(nums) - 1).bit_length())
    e_n = e[n]
    out = [(e_n - ek) * gk * yk + hk * yk1
           for ek, gk, hk, yk, yk1 in zip(e, g, h, nums, nums[1:] + (0,))]
    return _poly(out, den * y.den)


def pencil_residual(spec: FamilySpec, n: int) -> Poly:
    """L(D y_n) - lambda_n (D y_n) for the family's classical operator L: zero
    exactly when the lowered member is a classical eigenfunction.

    It reads the operators it checks: L (``laguerre_operator`` /
    ``jacobi_operator``) through its two bands, L x^k = (down(k) x^(k-1) +
    diag(k) x^k) / den with lambda_n = diag(n) / den, and D, the shared
    ``composed_lowering`` that the Sobolev form lowers by, through its one,
    D x^k = lam(k) x^k.  With e_k = -diag(k) the residual is one two-band int
    pass: sum_k [(e_n - e_k) lam(k) y_k + down(k+1) lam(k+1) y_(k+1)] x^k / den.
    """
    return _two_band_residual(_pencil_bands, spec, n)


@lru_cache(maxsize=None)
def _pencil_bands(spec: FamilySpec, size: int) -> tuple:
    head, orders = _weight_and_orders(spec)
    L = (laguerre_operator if len(head) == 1 else jacobi_operator)(*head)[0]
    (l_bands, l_den), ([(_, lam)], d_den) = L._bands, _composed_lowering(orders)._bands
    down, diag = dict(l_bands)[-1], dict(l_bands)[0]
    ks = range(size)
    return (l_den * d_den, tuple(-diag(k) for k in ks), tuple(map(lam, ks)),
            tuple(down(k + 1) * lam(k + 1) for k in ks))


def ode3_residual(spec: FamilySpec, n: int) -> Poly:
    """Residual of the differential equation satisfied by the degree-n member.

    It is the series' term ratio in theta = x d/dx: with upper and lower
    parameters u, l -- (-n, 1, .., 1 | q, r1, .., rd) on the Laguerre side,
    (-n, n-1+a+b, 1, .., 1 | a, c1, .., cd) on the Jacobi side -- the member
    solves [theta prod_l (theta+l-1) - x prod_u (theta+u)] y = 0, of order
    d + 2 for d slots, and the residual, that image over x, is one two-band
    int pass:  sum_k [(k+1) prod_l (k+l) y_(k+1) - prod_u (k+u) y_k] x^k.
    For scriptL (d = 1) it is x^2 y''' + (q+r+1-x) x y'' + (qr - 2x) y' + n (x y' + y).
    The classical kinds, scaled zero-slot members, are refused.

    The bands read the series' own n-free parameters (``_series_ints``): the
    d slots, the lower pairs and a+b.  Over the product du dl of their
    denominators the band of y_(k+1) is (k+1) du prod_l (k+l), free of n.  In
    the band of y_k only (k-n)(k+n-1+a+b) depends on n: with a+b-1 = B/A in
    lowest terms, n-1+a+b has the denominator A for every n, so du = A and
    -(k-n)(k+n-1+a+b) = (e_n - e_k)/A with e_k = k (A k + B), an e_k of the
    theta form alone.  The Laguerre side has no such parameter: du = 1 and
    e_k = k.  Either way the band of y_k is (e_n - e_k) dl (k+1)^d.
    """
    return _two_band_residual(_ode3_bands, spec, n)


@lru_cache(maxsize=None)
def _ode3_bands(spec: FamilySpec, size: int) -> tuple:
    if spec.kind not in _LAYOUTS:
        raise ValueError(f"no third-order equation for family kind {spec.kind!r}")
    up, lower, s = _series_ints(spec)
    A, B = (s[1], s[0] - s[1]) if s else (0, 1)  # a+b = S/L, so a+b-1 = (S-L)/L
    du, dl = A or 1, prod(d for _, d in lower)
    ks = range(size)
    return (du * dl, tuple(k * (A * k + B) for k in ks),
            tuple(dl * (k + 1) ** len(up) for k in ks),
            tuple((k + 1) * du * prod(p + k * d for p, d in lower) for k in ks))
