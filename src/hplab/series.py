"""Truncated Laurent series at z = infinity in arbitrary precision.

A germ is a finite vector (c_0, ..., c_N) standing for sum c_k z^{-k} with
error O(z^{-N-1}).  All arithmetic runs under mpmath at an explicit binary
precision; operations between germs use the larger of the two precisions and
the shorter of the two truncations.

The germ of f = prod (A_j - u)^{alpha_j}, u = 1/phi, alpha_j = +-1/2, is
built from exact recurrences: u from its three-term Chebyshev recurrence,
num(u) and den(u) (the products over alpha_j > 0 and alpha_j < 0) from
u + 1/u = 2 (z - m) / h, then f^2 = num/den by one series division and f by
one series square root.  Every product and recurrence sum is a dot product of
exact term products, rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .funcspec import FunctionSpec


class SeriesError(ValueError):
    pass


class DegenerateInterval(SeriesError):
    pass


class ZeroConstantTerm(SeriesError):
    pass


class RadiusTooSmall(SeriesError):
    pass


class BranchInconsistency(SeriesError):
    """|phi(z)| <= 1 was observed on the quadrature contour, which means the
    inverse-Zhukovskii branch logic is broken for this input."""


@dataclass(frozen=True)
class LaurentGerm:
    coeffs: tuple
    precision_bits: int

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise SeriesError("a germ needs at least one coefficient")
        if self.precision_bits < 64:
            raise SeriesError("precision_bits must be at least 64")

    def __len__(self):
        return len(self.coeffs)

    @property
    def order(self) -> int:
        """Truncation order N: the expansion is exact through z^{-N}."""
        return len(self.coeffs) - 1

    def max_abs(self):
        return max(abs(c) for c in self.coeffs)

    def to_json(self) -> dict:
        digits = int(self.precision_bits * 0.30103) + 10
        return {
            "precision_bits": self.precision_bits,
            "coeffs": [mp.nstr(c, digits, strip_zeros=False) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LaurentGerm":
        prec = int(doc["precision_bits"])
        with mp.workprec(prec):
            coeffs = tuple(mp.mpmathify(s) for s in doc["coeffs"])
        return cls(coeffs=coeffs, precision_bits=prec)


def default_precision_bits(n: int) -> int:
    """Working precision that keeps Hermite-Pade systems of germ length n
    solvable despite their per-degree digit loss."""
    return max(256, math.ceil(10 * n * math.log2(10)))


def _join(a: LaurentGerm, b: LaurentGerm):
    return min(len(a), len(b)), max(a.precision_bits, b.precision_bits)


def germ_mul(a: LaurentGerm, b: LaurentGerm) -> LaurentGerm:
    n, prec = _join(a, b)
    with mp.workprec(prec):
        out = _mul_trunc(a.coeffs, b.coeffs, n)
    return LaurentGerm(tuple(out), prec)


def germ_constant(c, n: int, prec: int) -> LaurentGerm:
    with mp.workprec(prec):
        out = (mp.mpmathify(c),) + (mp.mpf(0),) * n
    return LaurentGerm(out, prec)


def _mul_trunc(a: list, b: list, n: int) -> list:
    """First n coefficients of a * b (fewer if the product is shorter); each
    is a dot product of exact term products, rounded once."""
    out = []
    for k in range(min(n, len(a) + len(b) - 1)):
        lo = max(0, k - len(b) + 1)
        out.append(mp.fdot(a[lo : k + 1], b[k - lo :: -1]))
    return out


def germ_div(a: LaurentGerm, b: LaurentGerm) -> LaurentGerm:
    """Quotient a / b by the recurrence b_0 q_k = a_k - sum_{j=1..k} b_j q_{k-j}."""
    n, prec = _join(a, b)
    if b.coeffs[0] == 0:
        raise ZeroConstantTerm("cannot divide by a germ vanishing at infinity")
    with mp.workprec(prec):
        out = _div_trunc(a.coeffs, b.coeffs, n)
    return LaurentGerm(tuple(out), prec)


def germ_sqrt(a: LaurentGerm, root=None) -> LaurentGerm:
    """Square root g of a, seeded with ``root``, a square root of a_0
    (default: the principal one).  g^2 = a gives, for k >= 1,

        2 g_0 g_k = a_k - sum_{j=1..k-1} g_j g_{k-j},

    a sum whose terms pair up, so each g_k costs about k/2 products."""
    prec = a.precision_bits
    if a.coeffs[0] == 0:
        raise ZeroConstantTerm("square root of a germ vanishing at infinity")
    with mp.workprec(prec):
        g = [mp.sqrt(a.coeffs[0]) if root is None else +root]
        for k in range(1, len(a)):
            half = (k - 1) // 2
            s = 2 * mp.fdot(g[1 : half + 1], g[k - 1 : k - half - 1 : -1])
            if k % 2 == 0:
                s += g[k // 2] ** 2
            g.append((a.coeffs[k] - s) / (2 * g[0]))
    return LaurentGerm(tuple(g), prec)


def _div_trunc(a, b, n: int) -> list:
    q = []
    for k in range(n):
        s = mp.fdot(b[1 : k + 1], q[::-1])
        q.append(((a[k] if k < len(a) else 0) - s) / b[0])
    return q


def _q(x):
    """A rational (Fraction or int) to an mpf at the current precision."""
    return mp.mpf(x.numerator) / x.denominator


def _center_radius(interval):
    """Midpoint m and half-length h of [e_low, e_high] at the current precision."""
    e_low, e_high = _q(interval[0]), _q(interval[1])
    return (e_low + e_high) / 2, (e_high - e_low) / 2


def inv_zhukovskii_germ(
    n: int, interval=None, precision_bits: int | None = None
) -> LaurentGerm:
    """Expansion of 1/phi_Delta(z) in powers of 1/z with error O(z^{-n-1}).

    phi_Delta is the conformal map of the complement of Delta = [e_low, e_high]
    onto the exterior of the unit disk; for the default interval [-1, 1] the
    germ is z - (z^2 - 1)^{1/2} with the branch fixed by
    (z^2 - 1)^{1/2} / z -> 1.

    u = 1/phi solves the Chebyshev equation
    (h^2 - (z - m)^2) u'' - (z - m) u' + u = 0, so its coefficients obey the
    three-term recurrence c_0 = 0, c_1 = h/2 and

        (j + 1) c_j = m (2j - 1) c_{j-1} + (h^2 - m^2) (j - 2) c_{j-2}.
    """
    if n < 1:
        raise SeriesError("truncation order must be at least 1")
    e_low, e_high = (Fraction(-1), Fraction(1)) if interval is None else map(Fraction, interval)
    if e_low >= e_high:
        raise DegenerateInterval(f"need e_low < e_high, got [{e_low}, {e_high}]")
    prec = precision_bits or default_precision_bits(n)
    with mp.workprec(prec + 16):
        m, h = _center_radius((e_low, e_high))
        q = h * h - m * m
        c = [mp.mpf(0), h / 2]
        for j in range(2, n + 1):
            c.append((m * (2 * j - 1) * c[j - 1] + q * (j - 2) * c[j - 2]) / (j + 1))
        with mp.workprec(prec):
            out = tuple(+x for x in c)
    return LaurentGerm(out, prec)


def _exact_to_mp(x) -> tuple:
    """(re, im) fraction pair to an mpmath number at current precision."""
    re, im = _q(x[0]), _q(x[1])
    return mp.mpc(re, im) if im != 0 else re


def _rational_parts(params, exponents):
    """num(u) = prod_{alpha_j > 0} (A_j - u) and den(u) = prod_{alpha_j < 0}
    (A_j - u) as ascending coefficient lists, and the constant term of
    f = (num/den)^{1/2}: the product of the principal powers c^alpha over the
    factors, c being a factor's value at u = 0.  A conjugate pair with equal
    exponents is merged into the real quadratic u^2 - 2 Re(A) u + |A|^2, so a
    spec whose pairs all merge keeps real coefficients throughout."""
    polys = {1: [mp.mpf(1)], -1: [mp.mpf(1)]}
    root = mp.mpf(1)
    items = list(zip(params, exponents))
    i = 0
    while i < len(items):
        a, alpha = items[i]
        if a[1] != 0 and items[i + 1 : i + 2] == [((a[0], -a[1]), alpha)]:
            factor = [_q(a[0] ** 2 + a[1] ** 2), -2 * _q(a[0]), 1]
            i += 2
        else:
            factor = [_exact_to_mp(a), -1]
            i += 1
        sign = 1 if alpha > 0 else -1
        polys[sign] = _mul_trunc(polys[sign], factor, len(polys[sign]) + 2)
        root *= mp.sqrt(factor[0]) ** sign
    return polys[1], polys[-1], root


def _poly_of_u(p: list, u: list, m, h, n: int) -> list:
    """p(u) to n + 1 coefficients from the germ u of 1/phi, in O(deg p * n).

    Powers of u follow from u + 1/u = 2 (z - m) / h:
    u^i = (2/h) (z - m) u^{i-1} - u^{i-2}, where [z g]_k = g_{k+1}.  Each
    step spends the top coefficient of u^{i-1}, so u must hold at least
    n + deg p coefficients.
    """
    if len(p) == 1:
        return list(p)
    acc = [p[1] * x for x in u[: n + 1]]
    acc[0] += p[0]
    r = 2 / h
    lo, hi = [1] + [0] * (len(u) - 1), u
    for coeff in p[2:]:
        nxt = [r * (hi[k + 1] - m * hi[k]) - lo[k] for k in range(len(hi) - 1)]
        lo, hi = hi, nxt
        for k in range(n + 1):
            acc[k] += coeff * nxt[k]
    return acc


def _parts(spec: FunctionSpec) -> list:
    """(interval, branch parameters, exponents) of each interval of a spec."""
    parts = [(spec.interval_1, spec.a_exact, spec.alpha)]
    if spec.class_tag == "two-interval":
        parts.append((spec.interval_2, spec.b_exact, spec.beta))
    return parts


def germ_of_family(
    spec: FunctionSpec, n: int, precision_bits: int | None = None
) -> tuple[LaurentGerm, LaurentGerm, LaurentGerm]:
    """Germs of f, f^2, f^3 at infinity, truncated at O(z^{-n-1}).

    f^2 = num/den is rational in u = 1/phi on each interval: f is one series
    division and one square root, after O(n) work for u and the polynomials.
    """
    if n < 1:
        raise SeriesError("truncation order must be at least 1")
    prec = precision_bits or default_precision_bits(n)
    with mp.workprec(prec + 16):
        num, den, root = [mp.mpf(1)], [mp.mpf(1)], mp.mpf(1)
        for interval, params, exponents in _parts(spec):
            top, bottom, c = _rational_parts(params, exponents)
            deg = max(len(top), len(bottom)) - 1
            u = inv_zhukovskii_germ(n + deg, interval, prec + 16).coeffs
            m, h = _center_radius(interval)
            num = _mul_trunc(num, _poly_of_u(top, u, m, h, n), n + 1)
            den = _mul_trunc(den, _poly_of_u(bottom, u, m, h, n), n + 1)
            root *= c
        square = LaurentGerm(tuple(_div_trunc(num, den, n + 1)), prec + 16)
        g = germ_sqrt(square, root)
        with mp.workprec(prec):
            f = LaurentGerm(tuple(+c for c in g.coeffs), prec)
    f2 = germ_mul(f, f)
    f3 = germ_mul(f2, f)
    return f, f2, f3


def _phi_value(z, interval):
    """phi_Delta(z) with the branch of modulus greater than one."""
    m, h = _center_radius(interval)
    zu = (z - m) / h
    w = mp.sqrt(zu * zu - 1)
    phi = zu + w
    if abs(phi) < 1:
        phi = zu - w
    return phi


def evaluate_closed_form(spec: FunctionSpec, z):
    """f(z) from its closed-form product, branch-consistent with the germ:
    each factor is A_j^{alpha_j} (1 - 1/(A_j phi))^{alpha_j} with principal
    powers throughout."""
    val = mp.mpc(1)
    for interval, params, exponents in _parts(spec):
        phi = _phi_value(z, interval)
        if abs(phi) <= 1:
            raise BranchInconsistency(f"|phi(z)| <= 1 on {interval} at z = {z}")
        for a, alpha in zip(params, exponents):
            av = _exact_to_mp(a)
            e = _q(alpha)
            val *= av ** e * (1 - 1 / (av * phi)) ** e
    return val


def oracle_coeffs(
    spec: FunctionSpec,
    n: int,
    radius=10,
    nodes: int | None = None,
    precision_bits: int | None = None,
) -> LaurentGerm:
    """Laurent coefficients by trapezoid quadrature of the closed form over
    the circle |z| = radius; the independent cross-check for germ_of_family.
    """
    from .funcspec import derived_points

    prec = precision_bits or default_precision_bits(n)
    m_nodes = nodes or max(2 * n + 1, 64)
    if m_nodes <= 2 * n:
        raise SeriesError("need more than 2n quadrature nodes")
    bd = derived_points(spec)
    r_min = max(abs(b) for b in bd.z_branch_points)
    with mp.workprec(prec + 32):
        r = mp.mpmathify(radius)
        if r <= r_min:
            raise RadiusTooSmall(f"radius {radius} must exceed max branch point modulus {r_min}")
        zs = [r * mp.expjpi(mp.mpf(2 * j) / m_nodes) for j in range(m_nodes)]
        fvals = [evaluate_closed_form(spec, z) for z in zs]
        coeffs = []
        for k in range(n + 1):
            s = mp.mpc(0)
            for z, fv in zip(zs, fvals):
                s += fv * z ** k
            coeffs.append(s / m_nodes)
        with mp.workprec(prec):
            out = tuple(+c for c in coeffs)
    return LaurentGerm(out, prec)
