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
Beckermann & Labahn, one pivot and one elimination per power of x, in
O(k^3 n^2) operations where dense elimination takes O(k^3 n^3).
:func:`residual_order` certifies the result independently.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    radii: tuple = ()


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
    order basis that :func:`_order_basis` builds to order sigma = k(n+1) - 1,
    with its coefficients reversed from P_j(x) into Q_j(z).  Normalization:
    the trailing nonzero coefficient of the first nonzero polynomial equals
    1, which pins the projective scale so repeated runs are bit-for-bit
    identical.
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
        deg, rows = _order_basis([g.coeffs for g in germs], need, prec)
        best = min(range(k), key=deg.__getitem__)
        # rows have length deg + 1 <= n + 1; Q_j holds P_j's coefficients reversed
        polys = [(p + [mp.mpf(0)] * (n - deg[best]))[::-1] for p in rows[best]]
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
    dimension sum_r max(0, n + 1 - deg[r]).  Returns ``deg`` and the rows.
    """
    k = len(series)
    g_scale = max(abs(c) for f in series for c in f[:sigma])
    tiny = g_scale * mp.mpf(2) ** (-(prec // 2))
    rows = [[[mp.mpf(int(i == j))] for j in range(k)] for i in range(k)]
    res = [list(f[:sigma]) for f in series]  # residual series of each row
    deg = [0] * k
    for t in range(sigma):
        e = [r[t] for r in res]
        live = [r for r in range(k)
                if abs(e[r]) > tiny * max(abs(c) for p in rows[r] for c in p)]
        if not live:
            continue
        piv = min(live, key=lambda r: (deg[r], -abs(e[r])))
        rp, sp = rows[piv], res[piv]
        for r in range(k):
            if r == piv or deg[r] < deg[piv] or e[r] == 0:
                continue
            c = e[r] / e[piv]
            sr = res[r]
            for i in range(t + 1, sigma):
                sr[i] -= c * sp[i]
            for pr, pp in zip(rows[r], rp):
                for i, v in enumerate(pp):
                    pr[i] -= c * v
        rows[piv] = [[mp.mpf(0)] + p for p in rp]
        res[piv] = [mp.mpf(0)] + sp[:-1]
        deg[piv] += 1
    return deg, rows


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
            r = mp.mpf(0)
            for j in range(k):
                cj = germs[j].coeffs
                pj = sol.polys[j]
                for i in range(n + 1):
                    idx = i - m
                    if 0 <= idx < len(cj):
                        r += pj[i] * cj[idx]
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
    v = mp.mpc(0)
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _horner_with_derivative(coeffs, x):
    """p(x) and p'(x) in one Horner pass."""
    p, dp = mp.mpc(0), mp.mpc(0)
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
    of the trimmed polynomial, which keeps ``deg`` roots.  The iteration
    starts from companion-matrix eigenvalues in double precision and runs at
    ``work = 2 * prec`` bits until its steps reach the rounding floor (see
    ``_aberth``), so the roots carry full working precision whatever ``tol``.

    Certificate: ``radii[i]`` bounds Neumaier's inclusion radius
    deg |p(z_i)| / |a_n prod_{j != i} (z_i - z_j)| from above, evaluated in
    interval arithmetic on enclosures of the coefficients as passed in.
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
            roots = _aberth(cs, deg, work)
            bound = _residual_bound(cs, roots)
            radii, sizes = _inclusion_disks(coeffs, roots, work)
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


def _aberth(cs, deg, prec):
    """Aberth-Ehrlich sweeps at ``prec`` bits.

    Stop rule, after the stagnation tests of MPSolve (Bini & Robol, J. Comput.
    Appl. Math. 2014), on the largest relative step of a sweep: once it is
    below 2^{-prec/2}, one more sweep reaches the rounding floor, since the
    iteration converges cubically at simple roots.  Multiple roots (where
    convergence is only linear, and a root of multiplicity m is fixed only
    to about 2^{-prec/m}) and ill-conditioned ones leave the steps at a
    floor above that level, so the loop also stops when the step, once
    below 2^{-prec/4}, has not halved for 3 sweeps.  200 sweeps are the last
    guard.
    """
    try:
        comp = np.zeros((deg, deg), dtype=complex)
        lead = complex(cs[-1])
        comp[1:, :-1] = np.eye(deg - 1)
        comp[:, -1] = [-complex(c) / lead for c in cs[:-1]]
        init = np.linalg.eigvals(comp)
        roots = [mp.mpc(z) for z in init]
    except Exception:
        r0 = 1 + max(abs(c) for c in cs[:-1]) / abs(cs[-1])
        roots = [r0 * mp.expjpi(mp.mpf(2 * i + 1) / deg) for i in range(deg)]
    # tiny deterministic shake so clustered eigenvalue output cannot coincide
    roots = [r + mp.mpf(2) ** (-40) * (1 + 1j) * (i + 1) / deg for i, r in enumerate(roots)]
    eps = mp.mpf(2) ** (-prec + 8)
    converged = mp.mpf(2) ** (-(prec // 2))
    watched = mp.mpf(2) ** (-(prec // 4))
    best, stalled, last = None, 0, False
    for _ in range(200):
        moved = mp.mpf(0)
        new = []
        for i, r in enumerate(roots):
            p, dp = _horner_with_derivative(cs, r)
            if dp == 0:
                new.append(r + eps)
                moved = max(moved, eps)
                continue
            newton = p / dp
            s = mp.mpc(0)
            for j, rj in enumerate(roots):
                if j != i:
                    diff = r - rj
                    if diff != 0:
                        s += 1 / diff
            denom = 1 - newton * s
            delta = newton / denom if denom != 0 else newton
            new.append(r - delta)
            moved = max(moved, abs(delta) / max(1, abs(r)))
        roots = new
        if last:
            break
        if moved < converged:
            last = True
        elif best is None:
            if moved < watched:
                best = moved
        elif moved <= best / 2:
            best, stalled = moved, 0
        else:
            stalled += 1
            if stalled == 3:
                break
    return roots


def _residual_bound(cs, roots):
    lead = abs(cs[-1])
    deg = len(cs) - 1
    worst = mp.mpf(0)
    for r in roots:
        scale = lead * max(mp.mpf(1), abs(r)) ** deg
        worst = max(worst, abs(_horner(cs, r)) / scale)
    return worst


def _inclusion_disks(coeffs, roots, prec):
    """Neumaier's inclusion radii of ``roots`` and the size of the cluster of
    overlapping disks that holds each root.

    Evaluated in mpmath interval arithmetic at ``prec`` bits.  Each
    coefficient is enclosed as given: an mpmath number exactly, an int,
    float or decimal string rounded outward to ``prec`` bits.  So each
    radius, the upper end of its interval, is a bound; it is +inf when the
    roots' differences cannot be told from 0.
    """
    iv = type(mp.iv)()  # own interval context: the shared mp.iv keeps its precision
    iv.prec = prec
    cs = [iv.convert(c) for c in coeffs]
    zs = [iv.convert(z) for z in roots]
    deg = len(zs)
    radii = []
    for i, z in enumerate(zs):
        p = iv.mpf(0)
        for c in reversed(cs):
            p = p * z + c
        d = cs[-1]
        for j, w in enumerate(zs):
            if j != i:
                d = d * (z - w)
        radii.append(mp.make_mpf((deg * abs(p) / abs(d))._mpi_[1]))
    # connected components of the overlap graph
    cluster = list(range(deg))
    for i in range(deg):
        for j in range(i + 1, deg):
            gap = mp.make_mpf(abs(zs[i] - zs[j])._mpi_[0])
            if cluster[i] != cluster[j] and gap <= mp.fadd(radii[i], radii[j], rounding="c"):
                merged = cluster[j]
                cluster = [cluster[i] if c == merged else c for c in cluster]
    return radii, [cluster.count(c) for c in cluster]
