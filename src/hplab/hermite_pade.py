"""Type-I Hermite-Pade systems for the families [1,f], [1,f,f^2], [1,f,f^2,f^3].

For family size k and degree n the solver finds polynomials Q_0..Q_{k-1} of
degree at most n, not all zero, with

    sum_j Q_j(z) f(z)^j = O(z^{-(k-1)(n+1)}),   z -> infinity,

i.e. the coefficients of z^m vanish for -(k-1)(n+1) < m <= n.  That leaves
k(n+1) unknowns against (k-1)(n+1) + n conditions, so the kernel is at least
one-dimensional.

In x = 1/z, with P_j(x) = x^n Q_j(1/x) and F_j the germ of f^j, the
conditions read sum_j P_j F_j = O(x^sigma), sigma = k(n+1) - 1: an order
(sigma-basis) problem.  :func:`hp_type1` solves it by the iteration of
Beckermann & Labahn, one pivot and one elimination per power of x.  At the
working precision it updates only the k residual series, O(k^3 n^2)
products where dense elimination takes O(k^3 n^3).  The k x k polynomial
rows are carried as a double-precision shadow, which gives the row scales
that the pivot test reads, and the one row returned is rebuilt at the end
by replaying the recorded eliminations, O(k^2 n^2) products.
:func:`residual_order` certifies the result independently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
import mpmath as mp

from .series import germ_constant


class HermitePadeError(ValueError):
    pass


class InsufficientGermLength(HermitePadeError):
    pass


class OrderShortfall(HermitePadeError):
    """Certified residual order fell short of the (k-1)(n+1) contract; the
    working precision was exhausted."""


class NoConvergence(HermitePadeError):
    pass


def contract_order(k: int, n: int) -> int:
    """Residual decay order guaranteed by the defect-one linear system."""
    return (k - 1) * (n + 1)


@dataclass(frozen=True)
class HPSolution:
    """Type-I polynomials Q_0..Q_{k-1} of one family and degree.

    ``degenerate_kernel`` is set when the solutions of degree <= n span more
    than one dimension, as read from the row degrees of the order basis
    (see :func:`_order_basis`); ``polys`` is then one of them.
    """

    family_size: int
    degree: int
    polys: tuple  # k coefficient vectors, ascending degree, length n+1
    precision_bits: int
    degenerate_kernel: bool = False


@dataclass(frozen=True)
class ZeroSet:
    """Roots of a polynomial with their inclusion disks.

    ``roots`` holds ``deg`` working-precision roots sorted by real then
    imaginary part.  ``radii[i]`` is an upper bound of the radius of a disk
    about ``roots[i]``; all zeros lie in the union of the disks, and
    ``multiplicities[i]`` is the number of disks in the connected component
    that holds root i, which is also the number of zeros in that component
    (1 for an isolated simple root).  ``residual_bound`` is the backward-error
    ratio max |p(z_i)| / (|a_n| max(1, |z_i|)^deg).
    """

    roots: tuple
    multiplicities: tuple
    residual_bound: float
    radii: tuple


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finitely many atoms: ``support`` holds points
    of the base z plane, ``weights`` their nonnegative masses."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        total = float(sum(self.weights))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")

    def projected_z(self) -> np.ndarray:
        """The support as a complex array."""
        return np.asarray([complex(s) for s in self.support])


def _required_len(k: int, n: int) -> int:
    # coefficient of z^m in Q_j f^j reaches germ index i - m <= n + order - 1
    return n + contract_order(k, n)


def hp_type1(germs, n: int, precision_bits: int | None = None) -> HPSolution:
    """Solve the type-I system for the germs of (1, f, ..., f^{k-1}).

    ``germs`` holds the k - 1 germs of f, ..., f^{k-1}; the germ of 1 is
    implied.  The solution is the row of least degree (at most n) of the
    order basis that :func:`_order_basis` builds to order sigma = k(n+1) - 1:
    the only row rebuilt at the working precision, by replaying the
    eliminations that made it.  Its coefficients are reversed from P_j(x)
    into Q_j(z).  Normalization: the trailing nonzero coefficient of the
    first nonzero polynomial equals 1, which pins the projective scale so
    repeated runs are bit-for-bit identical.
    """
    germs = list(germs)
    if n < 0:
        raise HermitePadeError("degree must be nonnegative")
    k = len(germs) + 1
    if k not in (2, 3, 4):
        raise HermitePadeError(f"family size must be 2, 3 or 4, got {k}")
    prec = precision_bits or max(g.precision_bits for g in germs)
    germs = [germ_constant(1, germs[0].order, prec)] + germs

    need = _required_len(k, n)
    for g in germs[1:]:
        if len(g) < need:
            raise InsufficientGermLength(
                f"germ has {len(g)} coefficients, need at least {need} for k={k}, n={n}"
            )

    with mp.workprec(prec):
        deg, row = _order_basis([g.coeffs for g in germs], need, prec)
        # the row has length min(deg) + 1 <= n + 1; Q_j holds P_j's
        # coefficients reversed
        polys = [(p + [mp.mpf(0)] * (n - min(deg)))[::-1] for p in row]
        polys = _normalize(polys, prec)
    return HPSolution(
        family_size=k,
        degree=n,
        polys=polys,
        precision_bits=prec,
        degenerate_kernel=sum(max(0, n + 1 - d) for d in deg) > 1,
    )


def _order_basis(series, sigma, prec):
    """Order basis of the series F_j (ascending coefficients in x) to order
    x^sigma, by the iteration of Beckermann & Labahn (SIAM J. Matrix Anal.
    Appl. 15, 1994).

    Row r of the basis holds polynomials (P_{r,0}, ..., P_{r,k-1}) with
    sum_j P_{r,j} F_j = O(x^sigma).  Starting from the identity, step t
    reads each row's residual coefficient e_r at x^t, takes as pivot a row of
    least degree among those with |e_r| above 2^{-prec/2} of the row's scale
    (its largest coefficient times the largest of the F_j; the largest |e_r|
    on ties), removes e_r from every other row of at least the pivot's
    degree, and multiplies the pivot row by x.  The row degrees
    ``deg`` are those of a reduced basis: the polynomial vectors of degree
    <= n with the order are spanned by the rows of degree <= n, a space of
    dimension sum_r max(0, n + 1 - deg[r]).

    Only the residual series, which give e_r, the pivots and ``deg``, are
    updated at the working precision.  The rows' scales come from a
    double-precision shadow of the rows (:class:`_RowShadow`), and each step
    is recorded as (pivot, [(r, e_r / e_pivot), ...]).  Returns ``deg`` and
    the first row of least degree, rebuilt from those records by
    :func:`_replay_row`.
    """
    k = len(series)
    g_scale = max(abs(c) for f in series for c in f[:sigma])
    tiny = g_scale * mp.mpf(2) ** (-(prec // 2))
    res = [list(f[:sigma]) for f in series]  # residual series of each row
    shadow = _RowShadow(k, sigma, any(isinstance(c, mp.mpc) for f in res for c in f))
    deg = [0] * k
    steps = []
    for t in range(sigma):
        e = [r[t] for r in res]
        live = [r for r in range(k) if abs(e[r]) > tiny * shadow.scale(r)]
        if not live:
            continue
        piv = min(live, key=lambda r: (deg[r], -abs(e[r])))
        sp = res[piv]
        elim = []
        for r in range(k):
            if r == piv or deg[r] < deg[piv] or e[r] == 0:
                continue
            c = e[r] / e[piv]
            sr = res[r]
            for i in range(t + 1, sigma):
                sr[i] -= c * sp[i]
            elim.append((r, c))
        shadow.step(piv, elim)
        steps.append((piv, elim))
        res[piv] = [mp.mpf(0)] + sp[:-1]
        deg[piv] += 1
    return deg, _replay_row(steps, deg, min(range(k), key=deg.__getitem__))


class _RowShadow:
    """The rows of :func:`_order_basis` in double precision, for the scale
    that its pivot test reads.

    Row r is ``man[r] * 2**exp[r]``: a (k, sigma + 1) array of mantissas,
    complex when the series are, and an int exponent, so that a row's scale
    may lie outside the range of double precision.  After each update the
    row is renormalised by a power of two, which puts ``top[r]``, its largest
    |mantissa|, in [1/2, 1).
    """

    def __init__(self, k, sigma, complex_):
        self.man = np.zeros((k, k, sigma + 1), dtype=complex if complex_ else float)
        self.man[range(k), range(k), 0] = 0.5
        self.exp = [1] * k
        self.top = [0.5] * k

    def scale(self, r):
        """The largest |coefficient| of row r, as an mpf."""
        return mp.ldexp(self.top[r], self.exp[r])

    def step(self, piv, elim):
        """Row r -= c row piv for each (r, c) of ``elim``, then row piv *= x."""
        man, exp = self.man, self.exp
        for r, c in elim:
            cm, ce = _split(c)
            ce += exp[piv]
            e = max(exp[r], ce)
            row = man[r] * math.ldexp(1.0, exp[r] - e) - man[piv] * (cm * math.ldexp(1.0, ce - e))
            m = float(np.abs(row).max())
            # the clamp keeps 2^-shift finite should the row cancel below 2^-1000
            shift = max(math.frexp(m)[1], -1000)
            man[r] = row * 2.0 ** -shift
            exp[r] = e + shift
            self.top[r] = m * 2.0 ** -shift
        man[piv, :, 1:] = man[piv, :, :-1].copy()
        man[piv, :, 0] = 0


def _split(x):
    """x = m 2^e, as a double (or complex) mantissa m with |m| <= 1 and an
    int e."""
    if isinstance(x, mp.mpc):
        _, e = mp.frexp(max(abs(x.real), abs(x.imag)))
        return complex(mp.ldexp(x.real, -e), mp.ldexp(x.imag, -e)), e
    m, e = mp.frexp(x)
    return float(m), e


def _replay_row(steps, deg, best):
    """Row ``best`` of the order basis at the working precision, from the
    steps (pivot, [(r, c), ...]) of :func:`_order_basis`.

    The basis after the last step is T_{s-1} ... T_0 applied to the
    identity, where T_t subtracts c times row ``piv`` from each row r and
    then multiplies row ``piv`` by x.  Row ``best`` is e_best T_{s-1} ... T_0,
    a row vector v of polynomials to which the steps apply from the last one
    back: v[piv] is shifted by x, then v[piv] -= sum_r c v[r].  Written in
    the basis before step t, row ``best`` has components v[j] of degree at
    most deg[best] - deg_t[j], deg_t the row degrees then; v[j] is held at
    exactly that length (empty below 0), which every step keeps, so the row
    comes out with k components of length deg[best] + 1.
    """
    top = deg[best]
    deg = list(deg)
    zero = mp.mpf(0)
    v = [[zero] * max(0, top - d + 1) for d in deg]
    v[best] = [mp.mpf(1)]
    for piv, elim in reversed(steps):
        deg[piv] -= 1
        p = [zero] * max(0, top - deg[piv] + 1)
        p[1:] = v[piv]
        for r, c in elim:
            for i, x in enumerate(v[r]):
                p[i] -= c * x
        v[piv] = p
    return v


def _normalize(polys, prec):
    scale = max(abs(c) for p in polys for c in p)
    tiny = scale * mp.mpf(2) ** (-(prec // 2))
    norm = None
    for p in polys:
        if any(abs(c) > tiny for c in p):
            for c in reversed(p):
                if abs(c) > tiny:
                    norm = c
                    break
            break
    if norm is None:
        raise HermitePadeError("all polynomials vanish")
    return tuple(tuple(c / norm for c in p) for p in polys)


def residual_order(sol: HPSolution, germs, precision_bits: int | None = None) -> int:
    """Certify the decay order of sum Q_j f^j from longer germs of
    f, ..., f^{k-1} (the germ of 1 is implied, as in :func:`hp_type1`).

    Returns the largest d such that every coefficient of z^m with m > -d is
    below the 2^{-prec/4} relative threshold; raises OrderShortfall when the
    contract order is not met.
    """
    germs = list(germs)
    prec = precision_bits or sol.precision_bits
    k, n = sol.family_size, sol.degree
    if len(germs) != k - 1:
        raise HermitePadeError(f"need {k - 1} germs for family size {k}, got {len(germs)}")
    germs = [germ_constant(1, germs[0].order, prec)] + germs
    min_len = min(len(g) for g in germs[1:])
    need = _required_len(k, n) + 20
    if min_len < need:
        raise InsufficientGermLength(
            f"need at least {need} coefficients to certify, got {min_len}"
        )
    with mp.workprec(prec):
        scale = mp.mpf(0)
        for j, p in enumerate(sol.polys):
            scale = max(scale, max(abs(c) for c in p) * germs[j].max_abs())
        tol = scale * mp.mpf(2) ** (-(prec // 4))
        d = None
        for m in range(n, -(min_len - n), -1):
            # sum over j and i of Q_j[i] F_j[i - m], rounded once
            lo = max(0, m)
            r = mp.fdot(chain.from_iterable(
                zip(p[lo : n + 1], g.coeffs[lo - m :]) for p, g in zip(sol.polys, germs)))
            if abs(r) > tol:
                d = -m
                break
        if d is None:
            d = min_len - n - 1
    if d < contract_order(k, n):
        raise OrderShortfall(
            f"certified order {d} below contract {contract_order(k, n)} for k={k}, n={n}"
        )
    return d


def _horner(coeffs, x):
    """p(x) by Horner's rule, for an mpmath number or a numpy array x."""
    v = x * 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _horner_with_derivative(coeffs, x):
    """p(x) and p'(x) in one Horner pass, for an mpmath number or a numpy
    array x."""
    p = dp = x * 0
    for c in reversed(coeffs):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def polyroots_and_measure(poly, tol: float = 1e-12, precision_bits: int | None = None):
    """All complex roots by Aberth-Ehrlich simultaneous iteration, with
    inclusion disks, plus the normalized zero-counting measure.

    ``poly`` holds ascending coefficients (ints, floats, complex numbers,
    decimal strings or mpmath numbers).  Trailing coefficients below
    2^{-prec/2} of the largest are trimmed first; roots and disks are those
    of the trimmed polynomial, which keeps ``deg`` roots.  A run of s exactly
    zero coefficients at the low end is split off as s roots exactly 0, each
    with radius 0.  The iteration (:func:`_aberth`) runs on the rest: it
    starts on the circles of the Newton polygon of log|c_i| and climbs a
    ladder of precisions from double up to ``work = 2 * prec`` bits, each
    rung stopping a root once |p(z)| is at its rounding level, so the roots
    carry full working precision whatever ``tol``.

    For real coefficients (ints, floats, decimal strings or mpf numbers)
    the roots are exactly conjugate-closed: a real root has imaginary part
    exactly 0, and the conjugate of any other root is a root.  The ladder
    splits them into real roots and conjugate pairs after its first
    multi-precision rung in which every root met its test and found its
    class, and then refines one root per class; should a later rung fail
    to converge, it falls back to complex arithmetic from the roots as they
    were before the split (see :func:`_aberth`).  Without a split they are
    conjugate-closed to working precision only.

    Certificate: ``radii[i]`` bounds Neumaier's inclusion radius
    deg |p(z_i)| / |a_n prod_{j != i} (z_i - z_j)| from above, evaluated in
    interval arithmetic on enclosures of the coefficients as passed in; at a
    root z_i != 0 the factors z_i^s of p and of the product cancel, leaving
    deg / (deg - s) times Neumaier's radius of p / z^s: a larger disk about
    the same root, so what follows still holds.  For a conjugate-closed
    root set of a real polynomial the conjugate of a root shares its
    radius, which is computed once.
    Every zero of p lies in the union of the disks |z - z_i| <= r_i, and a
    connected component of m overlapping disks holds exactly m zeros counted
    with multiplicity; ``multiplicities[i]`` is the size of the component
    that holds root i.  ``tol`` bounds both the backward-error ratio
    ``residual_bound`` and every relative radius r_i / max(1, |z_i|).  When
    either is above it the working precision is raised once to 3 * prec;
    then NoConvergence is raised.
    """
    prec = precision_bits or 256
    coeffs = list(poly)
    with mp.workprec(prec):
        scale = max(abs(mp.mpmathify(c)) for c in coeffs)
        cut = scale * mp.mpf(2) ** (-(prec // 2))
        while coeffs and abs(mp.mpmathify(coeffs[-1])) <= cut:
            coeffs.pop()
    if len(coeffs) < 2:
        raise HermitePadeError("degree must be at least 1 after trimming")

    for attempt in range(2):
        work = prec * (attempt + 2)
        with mp.workprec(work):
            cs = [mp.mpmathify(c) for c in coeffs]
            deg = len(cs) - 1
            at_zero = next(i for i, c in enumerate(cs) if c != 0)
            roots = [mp.mpc(0)] * at_zero
            if at_zero < deg:
                roots += _aberth(cs[at_zero:], work)
            bound = _residual_bound(cs, roots)
            radii, sizes = _inclusion_disks(coeffs, roots, work, at_zero)
            rel_radius = max(r / max(1, abs(z)) for r, z in zip(radii, roots))
            if bound <= tol and rel_radius <= tol:
                order = sorted(range(deg), key=lambda i: (mp.re(roots[i]), mp.im(roots[i])))
                zs = ZeroSet(
                    roots=tuple(roots[i] for i in order),
                    multiplicities=tuple(sizes[i] for i in order),
                    residual_bound=float(bound),
                    radii=tuple(radii[i] for i in order),
                )
                w = 1.0 / deg
                measure = DiscreteMeasure(
                    support=tuple(complex(roots[i]) for i in order),
                    weights=tuple([w] * deg),
                )
                return zs, measure
    raise NoConvergence(
        f"root residual bound {float(bound)} or relative inclusion radius "
        f"{float(rel_radius)} above tol {tol}"
    )


def _aberth(cs, prec):
    """Aberth-Ehrlich iteration on a ladder of precisions, after MPSolve
    (Bini & Robol, J. Comput. Appl. Math. 2014).

    The starts lie on the circles of the Newton polygon of log|c_i|
    (:func:`_newton_polygon_starts`).  The rungs run in complex128
    (:func:`_double_rung`), then at 128, 256, ... bits below ``prec`` and
    last at ``prec`` bits (:func:`_mp_rung`).  Every rung has the same stop
    rule: a root stops once |p(z)| is at the rounding level of that rung,
    and the next rung starts from the roots so fixed.  ``cs[0]`` must be
    nonzero: an exact zero at 0 is split off by the caller.

    For real coefficients (every ``cs[k]`` an mpf) the roots come out
    exactly conjugate-closed.  After the first multi-precision rung in
    which every root met its test, a root within 2^(-b/4) max(1, |z|) of
    the real axis (b that rung's bits) is taken as real, and every other
    root must have a partner within that distance of its conjugate
    (:func:`_mirror`), or the ladder stays complex and tries again after
    the next rung.  From then on a real root is refined in real arithmetic
    and each pair is stepped once, its partner set to the exact conjugate.
    Should a later rung end with a root that never met its test (a near
    pair taken for two real roots, say), that rung and the rest run in
    complex arithmetic from the roots as they were before the split: Aberth
    started on the real axis never leaves it.
    """
    logs = _log2_moduli(cs)
    starts = _newton_polygon_starts(logs)
    roots = _double_rung(cs, logs, starts)
    if roots is None:
        roots = [mp.mpf(2) ** lr * mp.expj(t) for lr, t in starts]
    else:
        roots = [mp.mpc(z) for z in roots]
    real = all(isinstance(c, mp.mpf) for c in cs)
    mirror = None
    rung = 128
    while True:
        bits = min(rung, prec)
        roots, done = _mp_rung(cs, roots, bits, mirror)
        if mirror and not done:  # the split was wrong: undo it for good
            real = mirror = None
            roots, done = _mp_rung(cs, split, bits)
        if bits == prec:
            return [mp.mpc(z) for z in roots]
        if real and not mirror and done:
            mirror = _mirror(roots, mp.mpf(2) ** -(bits // 4))
            if mirror:
                split = roots
                roots = [z.real if m == i else z if m > i else roots[m].conjugate()
                         for i, (z, m) in enumerate(zip(roots, mirror))]
        rung *= 2


def _mirror(roots, tol):
    """Pair ``roots`` by conjugation: mirror[i] == i for a root within
    tol max(1, |z|) of the real axis, else the index of the first unpaired
    root within that distance of its conjugate.  None when a root has no
    partner.  With tol 0 this is exact: the real roots are those whose
    imaginary part is 0, and a partner is the exact conjugate."""
    mirror = [None] * len(roots)
    for i, z in enumerate(roots):
        if mirror[i] is not None:
            continue
        near = tol * max(1, abs(z))
        if abs(mp.im(z)) <= near:
            mirror[i] = i
            continue
        j = next((j for j in range(i + 1, len(roots)) if mirror[j] is None
                  and abs(roots[j] - z.conjugate()) <= near), None)
        if j is None:
            return None
        mirror[i], mirror[j] = j, i
    return mirror


def _log2_moduli(cs):
    """log2 |c_i| as floats; None for a zero coefficient."""
    with mp.workprec(64):
        return [float(mp.log(abs(c), 2)) if c != 0 else None for c in cs]


def _newton_polygon_starts(logs):
    """Start points of Aberth's iteration on the circles of the Newton
    polygon (Bini, Numer. Algorithms 13, 1996), as (log2 radius, angle).

    The upper convex hull of the points (i, log2|c_i|) has one edge a -> b
    per group of m = b - a roots of like modulus; the edge puts m points on
    the circle of radius (|c_a| / |c_b|)^(1/m), at angles 2 pi j / m turned by
    2 pi a / deg + 0.7.  A zero coefficient counts as 53 bits below the least
    nonzero one, so roots at 0 start on a small circle.  Radii are returned
    as log2 since they can lie outside the range of double precision.
    """
    deg = len(logs) - 1
    floor = min(v for v in logs if v is not None) - 53
    hull = []
    for x, y in enumerate(logs):
        y = floor if y is None else y
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) < 0:
                break
            hull.pop()  # hull[-1] lies on or below the chord to (x, y)
        hull.append((x, y))
    starts = []
    for (a, ya), (b, yb) in zip(hull, hull[1:]):
        m = b - a
        turn = 2 * math.pi * a / deg + 0.7
        starts += [((ya - yb) / m, 2 * math.pi * j / m + turn) for j in range(m)]
    return starts


def _double_rung(cs, logs, starts):
    """Aberth sweeps in complex128 from ``starts`` until every root meets the
    rounding test |p(z)| <= 4 deg 2^-53 sum_k |c_k| |z|^k, or 100 sweeps
    have run.

    The coefficients are scaled by 2^-e, e the exponent of the largest.  p is
    evaluated by Horner for |z| <= 1 and through its reversal at 1/z for
    |z| > 1, so no power of z can overflow.  Returns the roots as complex
    numbers, or None when a start radius or the scaled leading coefficient
    is outside the range of double precision.
    """
    if max(abs(lr) for lr, _ in starts) > 1000:
        return None
    scale = mp.mpf(2) ** -math.ceil(max(v for v in logs if v is not None))
    c = np.array([complex(x * scale) for x in cs])
    if c[-1] == 0:
        return None
    deg = len(c) - 1
    tol = 4 * deg * 2.0 ** -53
    z = np.array([2.0 ** lr * cmath.exp(1j * t) for lr, t in starts])
    live = np.ones(deg, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(100):
            idx = np.flatnonzero(live)
            zl = z[idx]
            outer = np.abs(zl) > 1
            # one column of coefficients per root: p's, or its reversal's
            coeffs = np.where(outer, c[::-1, None], c[:, None])
            x = np.where(outer, 1 / zl, zl)
            p, dp = _horner_with_derivative(coeffs, x)
            move = np.abs(p) > tol * _horner(np.abs(coeffs), np.abs(x))
            # p(z) = z^deg q(1/z): p/p' = z / (deg - w q'(w) / q(w))
            newton = np.where(outer, zl / (deg - x * dp / p), p / dp)[move]
            live[idx] = move
            move = idx[move]
            if not move.size:
                break
            diff = z[move, None] - z[None, :]
            diff[np.arange(move.size), move] = np.inf
            diff[diff == 0] = np.inf
            step = newton / (1 - newton * (1 / diff).sum(axis=1))
            new = z[move] - step
            ok = np.isfinite(new)
            z[move[ok]] = new[ok]
            live[move[~ok]] = False
    return [complex(v) for v in z]


def _mp_rung(cs, roots, prec, mirror=None):
    """Aberth sweeps at ``prec`` bits until every root meets the rounding
    test |p(z)| <= 4 deg 2^-prec sum_k |c_k| |z|^k, or 100 sweeps have run.
    A root that meets it is not moved again in this rung.  Every rung after
    the double one is this routine, the last one at the working precision
    included.  With ``mirror`` (see :func:`_aberth`) only one root of each
    conjugate class is active.  Returns the roots and whether every root
    met the test."""
    deg = len(roots)
    with mp.workprec(prec):
        cs = [+c for c in cs]
        moduli = [abs(c) for c in cs]
        tol = 4 * deg * mp.mpf(2) ** -prec
        live = range(deg) if mirror is None else [i for i in range(deg) if mirror[i] >= i]
        for _ in range(100):
            roots, live = _sweep(cs, roots, live, moduli, tol, mirror)
            if not live:
                break
    return roots, not live


def _sweep(cs, roots, active, moduli, tol, mirror=None):
    """One Jacobi sweep of the Aberth correction over the roots ``active``,
    at the working precision.

    A root that meets the rounding test |p(z)| <= tol sum_k |c_k| |z|^k
    (``moduli`` holds the |c_k|) keeps its place and leaves the active list.
    An exact multiple zero at 0, where |p(z)| and the sum shrink alike and
    the test is never met, is split off before Aberth (see
    :func:`polyroots_and_measure`).  1/(z_i - z_j) is computed once per
    pair: (j, i) takes its negation, which is exact, so the roots are those
    of computing both.  With ``mirror`` a real root (an mpf) takes the real
    part of its Aberth sum, where the terms of a conjugate pair add up, and
    stays real; the partner of a stepped root becomes its exact conjugate.
    Returns the new roots and the roots still active.
    """
    n = len(roots)
    inv = [[None] * n for _ in range(n)]
    eps = mp.mpf(2) ** (-mp.mp.prec + 8)
    new = list(roots)
    left = []
    for i in active:
        r = roots[i]
        p, dp = _horner_with_derivative(cs, r)
        if abs(p) <= tol * _horner(moduli, abs(r)):
            continue
        left.append(i)
        if dp == 0:
            new[i] = r + eps
        else:
            newton = p / dp
            s = 0
            row = inv[i]
            for j in range(n):
                if j == i:
                    continue
                v = inv[j][i]
                if v is None:
                    diff = r - roots[j]
                    v = row[j] = 1 / diff if diff != 0 else 0
                else:
                    v = -v
                s += v
            if mirror and mirror[i] == i:
                s = mp.re(s)
            denom = 1 - newton * s
            new[i] = r - (newton / denom if denom != 0 else newton)
        if mirror and mirror[i] != i:
            new[mirror[i]] = new[i].conjugate()
    return new, left


def _exact_mirror(cs, roots):
    """The pairing of :func:`_mirror` at tolerance 0 when the coefficients
    are real, else None.  For real p, |p(conj z)| = |p(z)|, and conjugation
    permutes an exactly conjugate-closed root set, so the conjugate of a
    root has the same residual and the same inclusion radius."""
    return None if any(isinstance(c, mp.mpc) for c in cs) else _mirror(roots, 0)


def _as_real(z):
    """z as an mpf when its imaginary part is exactly 0: the same number, in
    real arithmetic."""
    return mp.re(z) if mp.im(z) == 0 else z


def _residual_bound(cs, roots):
    lead = abs(cs[-1])
    deg = len(cs) - 1
    mirror = _exact_mirror(cs, roots)
    worst = mp.mpf(0)
    for i, r in enumerate(roots):
        if mirror and mirror[i] < i:
            continue
        scale = lead * max(mp.mpf(1), abs(r)) ** deg
        worst = max(worst, abs(_horner(cs, _as_real(r))) / scale)
    return worst


def _inclusion_disks(coeffs, roots, prec, at_zero=0):
    """Neumaier's inclusion radii of ``roots`` and the size of the cluster of
    overlapping disks that holds each root.

    The first ``at_zero`` roots are the exact zeros at 0 of a polynomial
    whose ``at_zero`` lowest coefficients are exactly 0; their radius is 0.

    Evaluated in mpmath interval arithmetic at ``prec`` bits.  Each
    coefficient is enclosed as given: an mpmath number exactly, an int,
    float or decimal string rounded outward to ``prec`` bits.  So each
    radius, the upper end of its interval, is a bound; it is +inf when the
    roots' differences cannot be told from 0.  A root whose imaginary part
    is exactly 0 is enclosed in a real interval.  For real coefficients and
    an exactly conjugate-closed root set, the conjugate of a root takes its
    radius (see :func:`_exact_mirror`).
    """
    iv = type(mp.iv)()  # own interval context: the shared mp.iv keeps its precision
    iv.prec = prec
    cs = [iv.convert(c) for c in coeffs]
    zs = [iv.convert(_as_real(z)) for z in roots]
    mirror = _exact_mirror([mp.mpmathify(c) for c in coeffs], roots)
    deg = len(zs)
    radii = [mp.mpf(0)] * deg
    for i, z in enumerate(zs):
        if i < at_zero or mirror and mirror[i] < i:
            continue
        p = iv.mpf(0)
        for c in reversed(cs):
            p = p * z + c
        d = cs[-1]
        for j, w in enumerate(zs):
            if j != i:
                d = d * (z - w)
        radii[i] = mp.make_mpf((deg * abs(p) / abs(d))._mpi_[1])
    if mirror:
        radii = [radii[min(i, m)] for i, m in enumerate(mirror)]
    return radii, _cluster_sizes(zs, radii)


def _cluster_sizes(zs, radii):
    """For each disk |z - zs[i]| <= radii[i], the number of disks in its
    connected component of the overlap graph, found by union-find.  ``zs``
    are interval enclosures; two disks overlap when the lower end of the
    distance of their centres is at most the sum of their radii."""
    parent = list(range(len(zs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            a, b = find(i), find(j)
            if a != b and (mp.make_mpf(abs(zs[i] - zs[j])._mpi_[0])
                           <= mp.fadd(radii[i], radii[j], rounding="c")):
                parent[a] = b
    comp = [find(i) for i in range(len(zs))]
    return [comp.count(c) for c in comp]
