"""Truncated Laurent series at z = infinity in arbitrary precision.

A germ is a finite vector (c_0, ..., c_N) standing for sum c_k z^{-k} with
error O(z^{-N-1}).  All arithmetic runs under mpmath at an explicit binary
precision; operations between germs use the larger of the two precisions and
the shorter of the two truncations.
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


def germ_add(a: LaurentGerm, b: LaurentGerm) -> LaurentGerm:
    n, prec = _join(a, b)
    with mp.workprec(prec):
        out = tuple(a.coeffs[k] + b.coeffs[k] for k in range(n))
    return LaurentGerm(out, prec)


def germ_scale(a: LaurentGerm, s) -> LaurentGerm:
    with mp.workprec(a.precision_bits):
        out = tuple(s * c for c in a.coeffs)
    return LaurentGerm(out, a.precision_bits)


def germ_constant(c, n: int, prec: int) -> LaurentGerm:
    with mp.workprec(prec):
        out = (mp.mpmathify(c),) + (mp.mpf(0),) * n
    return LaurentGerm(out, prec)


def _mul_trunc(a: list, b: list, n: int) -> list:
    out = []
    for k in range(n):
        s = mp.mpf(0)
        for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))):
            s += a[i] * b[k - i]
        out.append(s)
    return out


def germ_inv(a: LaurentGerm) -> LaurentGerm:
    """Reciprocal germ by Newton iteration x -> x(2 - a x)."""
    prec = a.precision_bits
    n = len(a)
    with mp.workprec(prec + 16):
        c0 = a.coeffs[0]
        if c0 == 0:
            raise ZeroConstantTerm("cannot invert a germ vanishing at infinity")
        x = [1 / c0]
        while len(x) < n:
            m = min(2 * len(x), n)
            ax = _mul_trunc(list(a.coeffs[:m]), x, m)
            two_minus = [-t for t in ax]
            two_minus[0] += 2
            x = _mul_trunc(x, two_minus, m)
    with mp.workprec(prec):
        out = tuple(+c for c in x)
    return LaurentGerm(out, prec)


def germ_isqrt(a: LaurentGerm) -> LaurentGerm:
    """Inverse square root by the Newton step g -> g (3 - a g^2) / 2, seeded
    with the principal root of the constant term."""
    prec = a.precision_bits
    n = len(a)
    with mp.workprec(prec + 16):
        c0 = a.coeffs[0]
        if c0 == 0:
            raise ZeroConstantTerm("fractional power of a germ vanishing at infinity")
        g = [1 / mp.sqrt(c0)]
        while len(g) < n:
            m = min(2 * len(g), n)
            g2 = _mul_trunc(g, g, m)
            ag2 = _mul_trunc(list(a.coeffs[:m]), g2, m)
            corr = [-t / 2 for t in ag2]
            corr[0] += mp.mpf(3) / 2
            g = _mul_trunc(g, corr, m)
    with mp.workprec(prec):
        out = tuple(+c for c in g)
    return LaurentGerm(out, prec)


def _pow_int(a: LaurentGerm, m: int) -> LaurentGerm:
    if m == 0:
        return germ_constant(1, a.order, a.precision_bits)
    base = a if m > 0 else germ_inv(a)
    m = abs(m)
    result = None
    while m:
        if m & 1:
            result = base if result is None else germ_mul(result, base)
        m >>= 1
        if m:
            base = germ_mul(base, base)
    return result


def series_pow_mul(a: LaurentGerm, b: LaurentGerm | None, exponent) -> LaurentGerm:
    """(a * b)^exponent truncated to the common order.

    The exponent may be any integer or half-integer; fractional powers go
    through the Newton inverse-square-root kernel with the branch pinned by
    the principal root of the constant term.
    """
    e = Fraction(exponent)
    base = germ_mul(a, b) if b is not None else a
    if e.denominator == 1:
        return _pow_int(base, int(e))
    if e.denominator != 2:
        raise SeriesError(f"only integer and half-integer exponents are supported, got {e}")
    # x^(m + 1/2) = x^m * x * x^(-1/2)
    m_int = int(e - Fraction(1, 2))
    half = germ_mul(base, germ_isqrt(base))
    if m_int == 0:
        return half
    return germ_mul(_pow_int(base, m_int), half)


def inv_zhukovskii_germ(
    n: int, interval=None, precision_bits: int | None = None
) -> LaurentGerm:
    """Expansion of 1/phi_Delta(z) in powers of 1/z with error O(z^{-n-1}).

    phi_Delta is the conformal map of the complement of Delta = [e_low, e_high]
    onto the exterior of the unit disk; for the default interval [-1, 1] the
    germ is z - (z^2 - 1)^{1/2} with the branch fixed by
    (z^2 - 1)^{1/2} / z -> 1.

    The coefficients satisfy the quadratic recursion obtained from
    s + 1/s = 2 (z - m) / h: with s = sum c_k z^{-k} and c_0 = 0,

        c_{k+1} = (h/2) ([s^2]_k + [k = 0]) + m c_k.
    """
    if n < 1:
        raise SeriesError("truncation order must be at least 1")
    if interval is None:
        e_low, e_high = Fraction(-1), Fraction(1)
    else:
        e_low, e_high = Fraction(interval[0]), Fraction(interval[1])
    if e_low >= e_high:
        raise DegenerateInterval(f"need e_low < e_high, got [{e_low}, {e_high}]")
    prec = precision_bits or default_precision_bits(n)
    with mp.workprec(prec + 16):
        m = (mp.mpf(e_low.numerator) / e_low.denominator + mp.mpf(e_high.numerator) / e_high.denominator) / 2
        h = (mp.mpf(e_high.numerator) / e_high.denominator - mp.mpf(e_low.numerator) / e_low.denominator) / 2
        c = [mp.mpf(0)] * (n + 1)
        for k in range(n):
            s2_k = mp.mpf(0)
            for i in range(1, k):
                s2_k += c[i] * c[k - i]
            c[k + 1] = (h / 2) * (s2_k + (1 if k == 0 else 0)) + m * c[k]
        with mp.workprec(prec):
            out = tuple(+x for x in c)
    return LaurentGerm(out, prec)


def _exact_to_mp(x) -> tuple:
    """(re, im) fraction pair to an mpmath number at current precision."""
    re = mp.mpf(x[0].numerator) / x[0].denominator
    im = mp.mpf(x[1].numerator) / x[1].denominator
    return mp.mpc(re, im) if im != 0 else re


def _factor_germs(params, exponents, u: LaurentGerm, prec: int):
    """Germs of (A_j - u)^{alpha_j}, merging conjugate pairs with equal
    exponents into a single real-coefficient factor."""
    factors = []
    i = 0
    items = list(zip(params, exponents))
    while i < len(items):
        (a, alpha) = items[i]
        if a[1] != 0 and i + 1 < len(items) and items[i + 1][0] == (a[0], -a[1]):
            a2, alpha2 = items[i + 1]
            if alpha == alpha2:
                # (A - u)(conj(A) - u) = u^2 - 2 Re(A) u + |A|^2, all real
                re = mp.mpf(a[0].numerator) / a[0].denominator
                mod2 = re * re + (mp.mpf(a[1].numerator) / a[1].denominator) ** 2
                u2 = germ_mul(u, u)
                pair = germ_add(germ_add(u2, germ_scale(u, -2 * re)), germ_constant(mod2, u.order, prec))
                factors.append(series_pow_mul(pair, None, alpha))
                i += 2
                continue
        av = _exact_to_mp(a)
        base = germ_add(germ_scale(u, -1), germ_constant(av, u.order, prec))
        factors.append(series_pow_mul(base, None, alpha))
        i += 1
    return factors


def germ_of_family(
    spec: FunctionSpec, n: int, precision_bits: int | None = None
) -> tuple[LaurentGerm, LaurentGerm, LaurentGerm]:
    """Germs of f, f^2, f^3 at infinity, truncated at O(z^{-n-1})."""
    if n < 1:
        raise SeriesError("truncation order must be at least 1")
    prec = precision_bits or default_precision_bits(n)
    with mp.workprec(prec + 16):
        u1 = inv_zhukovskii_germ(n, spec.interval_1, prec)
        factors = _factor_germs(spec.a_exact, spec.alpha, u1, prec)
        if spec.class_tag == "two-interval":
            u2 = inv_zhukovskii_germ(n, spec.interval_2, prec)
            factors += _factor_germs(spec.b_exact, spec.beta, u2, prec)
        f = factors[0]
        for g in factors[1:]:
            f = germ_mul(f, g)
        f2 = germ_mul(f, f)
        f3 = germ_mul(f2, f)
    return f, f2, f3


def _phi_value(z, e_low, e_high):
    """phi_Delta(z) with the branch of modulus greater than one."""
    m = (e_low + e_high) / 2
    h = (e_high - e_low) / 2
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
    i1 = spec.interval_1
    e1l, e1h = mp.mpf(i1[0].numerator) / i1[0].denominator, mp.mpf(i1[1].numerator) / i1[1].denominator
    phi1 = _phi_value(z, e1l, e1h)
    if abs(phi1) <= 1:
        raise BranchInconsistency(f"|phi(z)| <= 1 at z = {z}")
    val = mp.mpc(1)
    for a, alpha in zip(spec.a_exact, spec.alpha):
        av = _exact_to_mp(a)
        e = mp.mpf(alpha.numerator) / alpha.denominator
        val *= av ** e * (1 - 1 / (av * phi1)) ** e
    if spec.class_tag == "two-interval":
        i2 = spec.interval_2
        e2l, e2h = mp.mpf(i2[0].numerator) / i2[0].denominator, mp.mpf(i2[1].numerator) / i2[1].denominator
        phi2 = _phi_value(z, e2l, e2h)
        if abs(phi2) <= 1:
            raise BranchInconsistency(f"|phi_2(z)| <= 1 at z = {z}")
        for b, beta in zip(spec.b_exact, spec.beta):
            bv = _exact_to_mp(b)
            e = mp.mpf(beta.numerator) / beta.denominator
            val *= bv ** e * (1 - 1 / (bv * phi2)) ** e
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
