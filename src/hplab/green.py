"""Green functions with pole at infinity, Robin constants, and the
S-property residual.

Two independent routes to the same quantities:

* the complexified derivative sqrt(V/B) of the Green function of an extremal
  continuum, integrated along routed paths (shared kernels in
  :mod:`hplab._kernels`); and
* a boundary-integral (Symm-type) solve for the equilibrium density of a
  parametrized arc, with the double-cover cosine substitution and spectral
  (Kress) quadrature for the logarithmic kernel (R. Kress, *Linear Integral
  Equations*).  The double cover maps theta and 2 pi - theta to the same
  point, so the system is folded onto the half grid of nodes in (0, pi),
  where it is regular and determines the density.

Closed forms for segments and circular arcs serve as oracles and as
high-accuracy Green functions for non-extremal comparison arcs.

Far field.  Let rho be the largest modulus of a root of V or B and
R0 = 2 rho.  Outside |t| = rho, sqrt(V/B) has a Laurent series whose branch
at infinity is the one that behaves like +1/t, so beyond R0 the Green function
is g(z) = log|z| + gamma - Re sum_k (a_k/k) z^-k.  A point with |z| > R0 takes
its value at R0 z/|z| from a short routed path and adds the change of the
series along the ray; the Robin constant gamma comes from one such point.  With
60 terms the tail at R0 is about 2^-60.  This needs the compact to lie inside
|t| < R0 (the traced arcs of the p = 1 and p = 2 test configurations do).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._kernels import integrate_paths
from .scurve import QuadraticDifferential, route_around
from .surface import zeta_branch

# Laurent terms of the far field (module docstring)
_FAR_TERMS = 60

# direction of the point on |z| = R0 that gives the Robin constant, slightly
# off-axis to dodge collinear roots
_ROBIN_DIRECTION = cmath.exp(1e-3j)

# share of the arc, by arclength and centred on it, that the S-property
# residual samples
_INTERIOR_FRACTION = 0.9


class GreenError(RuntimeError):
    pass


class InadmissibleCandidate(GreenError):
    """Comparison arc does not pass through the required points."""


@dataclass(frozen=True)
class GreenEvaluation:
    points: tuple
    values: tuple
    robin: float
    capacity: float


@dataclass(frozen=True)
class RobinComparison:
    labels: tuple
    robins: tuple
    capacities: tuple
    extremal_label: str


# ---------------------------------------------------------------------------
# Green values from the quadratic differential


def green_eval(qd: QuadraticDifferential, points) -> GreenEvaluation:
    """Green function of the extremal continuum of ``qd`` (pole at infinity)
    at the given points, together with the Robin constant.

    Within |z| <= R0 each value is |Re \\int sqrt(V/B)| from the nearest
    endpoint along a routed path; beyond R0 it is the value at R0 z/|z| plus
    the Laurent far field (module docstring).  The Robin constant is that of
    :func:`robin_gamma`, from a point evaluated in the same batch.
    """
    pts = [complex(z) for z in points]
    laurent = _laurent(qd)
    z0 = laurent[0] * _ROBIN_DIRECTION
    g = _green_many(qd, pts + [z0], laurent)
    gamma = _robin(g[-1], z0, laurent)
    return GreenEvaluation(
        points=tuple(pts), values=tuple(float(v) for v in g[:-1]), robin=gamma,
        capacity=math.exp(-gamma),
    )


def _laurent(qd: QuadraticDifferential):
    """(R0, a) with R0 = 2 max|root| and sqrt(V/B)(t) = (1/t) sum_k a[k]
    (R0/t)^k on the branch a[0] = 1, for k = 0 .. _FAR_TERMS.

    log(t sqrt(V/B)) = 1/2 [sum log(1 - v/t) - sum log(1 - b/t)] has
    coefficients l_k = -(S_v(k) - S_b(k)) / (2k) in R0/t, with S the power
    sums of the roots scaled by R0; the exponential follows from
    k a_k = sum_j j l_j a_(k-j).
    """
    num = np.asarray(qd.numerator_roots, dtype=complex)
    den = np.asarray(qd.denominator_roots, dtype=complex)
    r0 = 2.0 * float(np.max(np.abs(np.concatenate([num, den]))))
    k = np.arange(1, _FAR_TERMS + 1)
    jl = -0.5 * (
        ((num / r0)[:, None] ** k).sum(axis=0) - ((den / r0)[:, None] ** k).sum(axis=0)
    )
    a = np.zeros(_FAR_TERMS + 1, dtype=complex)
    a[0] = 1.0
    for n in range(1, _FAR_TERMS + 1):
        a[n] = np.dot(jl[:n], a[n - 1::-1]) / n
    return r0, a


def _laurent_tail(a, w) -> np.ndarray:
    """Re sum_(k>=1) (a[k]/k) w^k for each w = R0/z, by Horner's rule, one
    value per point; |w| <= 1 keeps the terms from overflowing."""
    w = np.asarray(w, dtype=complex).reshape(-1)
    c = a[1:] / np.arange(1, len(a))
    acc = np.full(w.shape, c[-1])
    for ck in c[-2::-1]:
        acc = acc * w + ck
    return (acc * w).real


def _green_many(qd: QuadraticDifferential, pts, laurent=None) -> np.ndarray:
    """Green values at ``pts``: every point within R0, or the point R0 z/|z|
    for one beyond it, is routed from its nearest endpoint, and all the paths
    go to :func:`integrate_paths` in one call.  ``laurent`` is
    :func:`_laurent` of ``qd`` when the caller has it already."""
    num = list(qd.numerator_roots)
    den = list(qd.denominator_roots)
    roots = num + den
    r0, a = _laurent(qd) if laurent is None else laurent
    pts = np.asarray(pts, dtype=complex)
    far = np.abs(pts) > r0
    starts = pts.copy()
    starts[far] = r0 * pts[far] / np.abs(pts[far])
    paths = []
    for z in starts.tolist():
        anchor = min(den, key=lambda r: abs(z - r))
        paths.append(route_around(anchor, z, roots))
    out = np.abs(integrate_paths(num, den, paths).real)
    if far.any():
        out[far] += (
            np.log(np.abs(pts[far]) / np.abs(starts[far]))
            + _laurent_tail(a, r0 / starts[far])
            - _laurent_tail(a, r0 / pts[far])
        )
    return out


def _robin(g0: float, z0: complex, laurent) -> float:
    """Robin constant from the Green value g0 at z0 on |z| = R0:
    gamma = g(z0) - log|z0| + Re sum_k (a_k/k) z0^-k."""
    r0, a = laurent
    return float(g0 - math.log(abs(z0)) + _laurent_tail(a, r0 / z0)[0])


def robin_gamma(qd: QuadraticDifferential) -> float:
    """Robin constant lim (g(z) - log|z|), from one routed path to the point
    z0 = R0 exp(i/1000) (:func:`_robin`)."""
    laurent = _laurent(qd)
    z0 = laurent[0] * _ROBIN_DIRECTION
    return _robin(_green_many(qd, [z0], laurent)[0], z0, laurent)


# ---------------------------------------------------------------------------
# Boundary-integral route (Symm equation with cosine double cover)


def _kress_weights(n: int) -> np.ndarray:
    """w[m] = quadrature weight for the kernel log(4 sin^2(theta/2)) at grid
    offset theta = 2 pi m / n, exact for trigonometric polynomials:
    w[m] = -(4 pi / n) [sum_(0<j<n/2) cos(j theta) / j + cos(n theta / 2) / n],
    all n of them from one FFT."""
    c = np.zeros(n)
    c[1:n // 2] = 1.0 / np.arange(1, n // 2)
    c[n // 2] = 1.0 / n
    return -(4 * math.pi / n) * np.fft.fft(c).real


def _symm_solve(curves, dcurves, n: int):
    """Symm equation for the equilibrium density of a disjoint union of
    analytic arcs, each given as ``curve(x)``, x in [-1, 1].

    The cosine substitution Z(theta) = curve(cos theta) double-covers each
    arc and absorbs the endpoint density singularity.  On its own arc the
    logarithmic kernel is split as log|2 sin((theta -+ tau)/2)| terms,
    integrated with spectral (Kress) weights w, plus a smooth part whose
    limits at tau = +-theta are log(|curve'(cos theta)| / 2); between arcs the
    kernel is smooth and takes plain trapezoid weights.

    Since Z(2 pi - theta) = Z(theta), the system on the full grid of n nodes
    has pairs of equal rows and of equal columns, and leaves the part of the
    density that is odd under theta -> 2 pi - theta to rounding.  It is
    solved on the half grid theta_j = 2 pi (j + 1/2) / n, j < n/2, for the
    even density, each column adding its mirror's.  With
    T(m) = w[m]/2 - (2 pi / n) log|2 sin(pi m / n)|, the self block is
    2 [T(|i - j|) + T(i + j + 1) + (2 pi / n) log|Z_i - Z_j|], its diagonal
    2 [w[0]/2 + w[2i + 1]/2 + (2 pi / n) log(|Z'_i| / 2)], the blocks between
    arcs 2 (2 pi / n) log|Z_a - Z_b|, and the normalisation row has weights
    4 pi / n.  Returns (robin, nodes, density) on the half grids, arc after
    arc, with ``density`` taken with respect to d(theta) and of total mass 1
    over the double covers.
    """
    if n % 2:
        raise ValueError("n must be even")
    k, h = len(curves), n // 2
    x = np.cos(2 * math.pi * (np.arange(h) + 0.5) / n)
    zs = [np.asarray([complex(c(xi)) for xi in x]) for c in curves]
    dzs = [np.asarray([complex(dc(xi)) for xi in x]) for dc in dcurves]
    step = 2 * math.pi / n
    hw = 0.5 * _kress_weights(n)
    t = hw.copy()
    t[1:] -= step * np.log(2 * np.sin(math.pi * np.arange(1, n) / n))
    # Kress part of a self block: T(|i - j|) as a Toeplitz and T(i + j + 1) as
    # a Hankel matrix, each row a window of one vector
    kress = 2 * (
        sliding_window_view(np.concatenate([t[h - 1:0:-1], t[:h]]), h)[::-1]
        + sliding_window_view(t[1:n], h)
    )
    np.fill_diagonal(kress, 2 * (hw[0] + hw[1:n:2]))

    m = k * h
    big = np.empty((m + 1, m + 1))
    for a in range(k):
        for b in range(k):
            blk = big[a * h:(a + 1) * h, b * h:(b + 1) * h]
            np.abs(np.subtract.outer(zs[a], zs[b]), out=blk)
            if a == b:
                # the limit of |Z_i - Z_j| over the two sine factors
                np.fill_diagonal(blk, np.abs(dzs[a]) / 2)
            np.log(blk, out=blk)
            blk *= 2 * step
            if a == b:
                blk += kress
    big[:m, m] = 1.0
    big[m, :m] = 2 * step
    big[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol = np.linalg.solve(big, rhs)
    return float(sol[m]), np.concatenate(zs), sol[:m]


def capacity_robin(curve, dcurve, n: int = 256):
    """Logarithmic capacity and Robin constant of the analytic arc
    ``curve(x)``, x in [-1, 1], by the Symm integral equation
    (:func:`_symm_solve`).  Returns (capacity, robin, nodes, density) on the
    n nodes theta_j = 2 pi (j + 1/2) / n of the double cover: the half-grid
    solution and its mirror copy, so that density[j] = density[n - 1 - j].
    ``density`` is the equilibrium density with respect to d(theta), of total
    mass 1 over the double cover.
    """
    gamma, z, density = _symm_solve([curve], [dcurve], n)
    return (math.exp(-gamma), gamma, np.concatenate([z, z[::-1]]),
            np.concatenate([density, density[::-1]]))


def capacity_robin_multi(curves, dcurves, n: int = 128):
    """Capacity and Robin constant of a disjoint union of analytic arcs, each
    parametrized over [-1, 1] as in :func:`capacity_robin`.  Returns
    (capacity, robin).
    """
    gamma, _, _ = _symm_solve(curves, dcurves, n)
    return math.exp(-gamma), gamma


def segment_capacity_robin(a: complex, b: complex, n: int = 256):
    """Capacity and Robin constant of the straight segment from ``a`` to
    ``b`` (real or complex endpoints) by the Symm solve."""
    m, h = (a + b) / 2, (b - a) / 2
    cap, gamma, _, _ = capacity_robin(lambda x: m + h * x, lambda x: h, n)
    return cap, gamma


# ---------------------------------------------------------------------------
# Closed forms: segment and circular arc


def segment_green(a: float, b: float, z: complex) -> float:
    """Green function of the segment [a, b] with pole at infinity."""
    m, h = (a + b) / 2, (b - a) / 2
    return math.log(abs(zeta_branch((complex(z) - m) / h)))


@dataclass(frozen=True)
class CircularArc:
    """Circular arc from ``a`` to ``b`` bulging by ``sagitta`` (signed
    maximal deviation from the chord, positive = toward +i side of a->b)."""

    a: complex
    b: complex
    sagitta: float

    def __post_init__(self):
        if self.sagitta == 0:
            raise InadmissibleCandidate("zero sagitta is the chord, not an arc")
        chord = abs(self.b - self.a)
        if abs(self.sagitta) >= chord * 50:
            raise InadmissibleCandidate("sagitta out of range")

    @property
    def center_radius(self):
        a, b, s = complex(self.a), complex(self.b), self.sagitta
        chord = abs(b - a)
        # sagitta s and half-chord c give radius r = (c^2 + s^2) / (2 s)
        c = chord / 2
        r = (c * c + s * s) / (2 * abs(s))
        mid = (a + b) / 2
        nrm = 1j * (b - a) / chord * math.copysign(1.0, s)
        center = mid + nrm * (abs(s) - r)
        return center, r

    def parametrization(self):
        """(curve, dcurve) over x in [-1, 1] by angle interpolation."""
        center, r = self.center_radius
        pa = cmath.phase(complex(self.a) - center)
        pb = cmath.phase(complex(self.b) - center)
        # go the short way through the bulge apex
        apex = (complex(self.a) + complex(self.b)) / 2 + 1j * (
            complex(self.b) - complex(self.a)
        ) / abs(self.b - self.a) * self.sagitta
        pm = cmath.phase(apex - center)
        # unwrap pa -> pm -> pb consistently
        d1 = (pm - pa + math.pi) % (2 * math.pi) - math.pi
        d2 = (pb - pm + math.pi) % (2 * math.pi) - math.pi
        span = d1 + d2

        def curve(x):
            return center + r * cmath.exp(1j * (pa + span * (x + 1) / 2))

        def dcurve(x):
            return 1j * r * span / 2 * cmath.exp(1j * (pa + span * (x + 1) / 2))

        return curve, dcurve

    def samples(self, n: int = 513) -> np.ndarray:
        curve, _ = self.parametrization()
        return np.asarray([curve(x) for x in np.linspace(-1, 1, n)])

    @property
    def _beta(self) -> float:
        """Direction of the ray that T(t) = (t - a)/(t - b) maps the arc onto."""
        a, b = complex(self.a), complex(self.b)
        apex = (a + b) / 2 + 1j * (b - a) / abs(b - a) * self.sagitta
        return cmath.phase((apex - a) / (apex - b))

    def green(self, z: complex) -> float:
        """Exact Green function (pole at infinity) of the arc complement.

        The Moebius map T(t) = (t - a)/(t - b) sends the arc to a ray from 0
        through e^{i beta} to infinity; the square root with the cut along
        that ray opens the complement onto a half plane, where the Green
        function is explicit.
        """
        a, b = complex(self.a), complex(self.b)
        beta = self._beta
        z = complex(z)
        if z == b:
            return 0.0
        t = (z - a) / (z - b)
        # rotate the ray onto the positive axis, cut = [0, inf)
        u = t * cmath.exp(-1j * beta)
        # sqrt with cut along [0, inf): sqrt(u) = exp(log(u)/2) with arg in (0, 2pi)
        ang = cmath.phase(u) % (2 * math.pi)
        s = math.sqrt(abs(u)) * cmath.exp(0.5j * ang)
        u0 = cmath.exp(-1j * beta)  # image of the pole z = infinity
        ang0 = cmath.phase(u0) % (2 * math.pi)
        s0 = math.sqrt(abs(u0)) * cmath.exp(0.5j * ang0)
        val = abs(cmath.log(abs((s - s0.conjugate()) / (s - s0))))
        return val

    def robin(self) -> float:
        """Exact Robin constant log(4 |sin(beta/2)| / |b - a|).

        As z -> infinity in :meth:`green`, |s - s0| ~ |b - a| / (2 |z|) and
        |s0 - conj s0| = 2 |sin(beta/2)|, so g(z) - log|z| tends to this
        value; it is minus the log of the classical arc capacity
        r sin(alpha/4), alpha the arc's central angle.
        """
        return math.log(4 * abs(math.sin(self._beta / 2)) / abs(self.b - self.a))


# ---------------------------------------------------------------------------
# S-property


def s_property_residual(green_fn, arc_points, h: float = 1e-5, n_samples: int = 40) -> float:
    """sup over interior arc samples of |d g / d n+  -  d g / d n-|.

    One-sided normal derivatives are formed from the second-order stencil
    (4 g(h) - g(2h)) / (2 h) on each side.  The samples are the vertices
    reached first at ``n_samples`` equal arclength steps over the central
    ``_INTERIOR_FRACTION`` of the arc, which keeps them away from the
    endpoint square-root behavior however densely the vertices crowd there.
    """
    pts = np.asarray(list(arc_points), dtype=complex)
    m = len(pts)
    s = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(pts)))])
    margin = s[-1] * (1 - _INTERIOR_FRACTION) / 2
    idx = np.unique(np.searchsorted(s, np.linspace(margin, s[-1] - margin, n_samples)))
    worst = 0.0
    for i in idx:
        j0, j1 = max(i - 1, 0), min(i + 1, m - 1)
        tangent = pts[j1] - pts[j0]
        tangent /= abs(tangent)
        nrm = 1j * tangent
        z = pts[i]
        dp = (4 * green_fn(z + h * nrm) - green_fn(z + 2 * h * nrm)) / (2 * h)
        dm = (4 * green_fn(z - h * nrm) - green_fn(z - 2 * h * nrm)) / (2 * h)
        worst = max(worst, abs(dp - dm))
    return worst


def qd_green_fn(qd: QuadraticDifferential):
    """Point-wise Green evaluator backed by the path-integral kernel."""

    def g(z: complex) -> float:
        return float(_green_many(qd, [complex(z)])[0])

    return g


# ---------------------------------------------------------------------------
# Ranking extremal vs comparison arcs


def robin_compare(qd: QuadraticDifferential, candidates, n: int = 512) -> RobinComparison:
    """Rank the extremal continuum of ``qd`` against candidate arcs joining
    the same endpoints; every candidate must contain the endpoint set.

    Robin constants of candidates come from the boundary-integral solve on
    their parametrizations; the extremal set's from the path-integral route.
    The extremal set must come out with the largest Robin constant (smallest
    capacity), so it is listed first.
    """
    den = [complex(r) for r in qd.denominator_roots]
    ends = np.asarray(den)
    labels = ["extremal"]
    robins = [robin_gamma(qd)]
    for i, cand in enumerate(candidates):
        gap = np.abs(ends[:, None] - cand.samples()).min(axis=1)
        miss = np.flatnonzero(gap > 1e-9 * np.maximum(1.0, np.abs(ends)))
        if len(miss):
            raise InadmissibleCandidate(
                f"candidate {i} misses the required point {den[miss[0]]}"
            )
        curve, dcurve = cand.parametrization()
        _, gamma, _, _ = capacity_robin(curve, dcurve, n)
        labels.append(f"candidate-{i}")
        robins.append(gamma)
    order = np.argsort(robins)[::-1]
    labels = tuple(labels[i] for i in order)
    robins = tuple(float(robins[i]) for i in order)
    return RobinComparison(
        labels=labels,
        robins=robins,
        capacities=tuple(math.exp(-g) for g in robins),
        extremal_label=labels[0],
    )
