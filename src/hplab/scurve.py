"""Extremal compacta of disjoint-arc type through conjugate point pairs.

The maximal-Robin-constant compact through 2p conjugate-paired points
consists of p pairwise disjoint analytic arcs, each joining a point to its
conjugate.  It is the critical graph of the quadratic differential
-Q(t) dt^2 with Q = V/B, where B is monic with the prescribed points as
simple roots and V is monic of degree 2p - 2 whose p - 1 roots are all
double.  Writing V = W^2 with W monic of degree p - 1, the complexified
Green derivative is W/sqrt(B), and the unknown roots of W are fixed by the
period conditions

* Re \\oint W/sqrt(B) = 0 around each of the first p - 1 cuts (evaluated as
  Re \\int between the pair's two points), and
* Re \\int W/sqrt(B) = 0 along connectors between consecutive pairs,

which this module solves by damped Newton iteration.  Each arc from a to b
is then the preimage of the segment [0, G(b)] of the imaginary axis under
the Abelian integral G(t) = \\int_a^t sqrt(Q), its natural parameter
(Strebel, *Quadratic Differentials*, 1984).  The arc is sampled at equal
steps of G by Newton's method on G(t) = target, so its vertices lie on the
trajectory and are equispaced in the equilibrium measure |sqrt(Q) dt| / pi.
The inverse t(G) is analytic along the arc, so a quartic extrapolation of
the last five vertices starts Newton close enough that the one quadrature
measuring its miss usually ends it (predictor-corrector continuation;
Allgower & Georg, *Introduction to Numerical Continuation Methods*, 1990).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import integrate_path

# a routed path passes a root at this fraction of min(path length,
# 1 + distance of the root from the start)
_DETOUR = 0.08

# Newton steps of the period solve, and of each traced point
_MAX_NEWTON = 60

# points per traced arc, equispaced in the natural parameter
_ARC_POINTS = 128

# Newton on a traced point stops once |G(t) - target| is below this fraction
# of |G(b)|; the step it then takes leaves about the square of that miss.  The
# quartic predictor of _trace_arc misses by about 3e-8 of |G(b)| at 128
# points, so past the first few vertices the first quadrature already stops
_NEWTON_TOL = 1e-7

# Re G(b) and the miss of the last step onto b, as fractions of |G(b)|
_LAND_TOL = 1e-9


class SCurveError(RuntimeError):
    pass


class NewtonDiverged(SCurveError):
    pass


class NotGeneralPosition(SCurveError):
    pass


class EndpointMismatch(SCurveError):
    pass


class SelfIntersection(SCurveError):
    pass


@dataclass(frozen=True)
class QuadraticDifferential:
    """-Q dt^2 with Q = V/B; ``numerator_roots`` lists the roots of V with
    multiplicity (each double zero appears twice), ``denominator_roots`` the
    prescribed endpoints."""

    numerator_roots: tuple
    denominator_roots: tuple
    residual: float = 0.0

    @property
    def double_zeros(self) -> tuple:
        """The distinct roots of V (roots of W)."""
        return tuple(self.numerator_roots[::2])

    def q_at(self, t: complex) -> complex:
        num = 1.0 + 0j
        for r in self.numerator_roots:
            num *= t - r
        den = 1.0 + 0j
        for r in self.denominator_roots:
            den *= t - r
        return num / den


@dataclass(frozen=True)
class CompactSet:
    """Traced extremal compact in the zeta-plane: one sampled arc per
    conjugate pair.  ``pairing`` maps each arc to its (start, end)
    endpoints."""

    arcs: tuple  # tuple of complex ndarrays
    endpoints: tuple
    pairing: tuple = ()

    def all_points(self) -> np.ndarray:
        return np.concatenate([np.asarray(a) for a in self.arcs])


@dataclass(frozen=True)
class AdmissibilityReport:
    on_second_sheet: bool
    complement_connected: bool
    single_valued: bool

    def all_ok(self) -> bool:
        return self.on_second_sheet and self.complement_connected and self.single_valued


def _scale_of(points) -> float:
    pts = np.asarray(points, dtype=complex)
    if len(pts) < 2:
        return 1.0
    return float(max(abs(a - b) for a in pts for b in pts))


def _conj_pairs(points, tol):
    """Group a conjugate-closed point set into (upper, lower) pairs sorted by
    real part; real points are rejected (degenerate pair)."""
    pts = [complex(p) for p in points]
    upper = sorted((p for p in pts if p.imag > tol), key=lambda z: z.real)
    lower = {complex(p) for p in pts if p.imag < -tol}
    if [p for p in pts if abs(p.imag) <= tol]:
        raise NotGeneralPosition("real prescribed points form a degenerate pair")
    pairs = []
    for u in upper:
        c = u.conjugate()
        match = min(lower, key=lambda z: abs(z - c), default=None)
        if match is None or abs(match - c) > tol * 10 + 1e-13:
            raise NotGeneralPosition("point set is not closed under conjugation")
        lower.discard(match)
        pairs.append((u, match))
    if lower:
        raise NotGeneralPosition("point set is not closed under conjugation")
    return pairs


def route_around(start: complex, end: complex, roots):
    """Polyline from ``start`` to ``end`` detouring around interior roots
    that sit within ``_DETOUR`` (relative) of the straight segment."""
    start, end = complex(start), complex(end)
    d = end - start
    L = abs(d)
    if L == 0:
        return [start, end]
    detours = []
    for r in roots:
        r = complex(r)
        u = ((r - start) / d).real
        if 0.0 < u < 1.0 and abs(r - start) >= 1e-12 and abs(r - end) >= 1e-12:
            dist = abs(start + u * d - r)
            margin = _DETOUR * min(L, 1.0 + abs(r - start))
            if dist < margin:
                detours.append((u, r + 1j * d / L * margin))
    detours.sort(key=lambda t: t[0])
    return [start] + [w for _, w in detours] + [end]


def _period_residual(w_roots, pairs, den_roots):
    """Stacked real parts of the cut periods (first p - 1 pairs) and the
    consecutive-pair connectors."""
    num = [r for w in w_roots for r in (w, w)]
    allr = list(num) + list(den_roots)
    res = []
    for u, l in pairs[:-1]:
        val, _ = integrate_path(num, den_roots, route_around(u, l, allr))
        res.append(val.real)
    for (u1, _), (u2, _) in zip(pairs[:-1], pairs[1:]):
        val, _ = integrate_path(num, den_roots, route_around(u1, u2, allr))
        res.append(val.real)
    return np.asarray(res)


def chebotarev_solve(points, tol: float = 1e-11) -> QuadraticDifferential:
    """Quadratic differential of the extremal disjoint-arc compact through a
    conjugate-closed set of 2p non-real points in general position.

    p = 1 needs no numerator; for p >= 2 the p - 1 double zeros are solved
    from the period conditions by damped Newton iteration with a finite
    difference Jacobian, at most ``_MAX_NEWTON`` steps.
    """
    pts = [complex(p) for p in points]
    if len(pts) % 2 != 0 or len(pts) < 2:
        raise NotGeneralPosition("need an even number (>= 2) of points")
    if len(set(pts)) != len(pts):
        raise NotGeneralPosition("points must be distinct")
    p = len(pts) // 2
    if p == 1:
        return QuadraticDifferential(
            numerator_roots=(), denominator_roots=tuple(pts), residual=0.0
        )

    scale = _scale_of(pts)
    pairs = _conj_pairs(pts, 1e-12 * scale)
    m = p - 1
    # initial double zeros between consecutive pair abscissae
    centers = [u.real for u, _ in pairs]
    v0 = np.asarray(
        [(centers[j] + centers[j + 1]) / 2 for j in range(m)], dtype=complex
    )
    x = np.concatenate([v0.real, v0.imag])

    def unpack(xx):
        return xx[:m] + 1j * xx[m:]

    fx = _period_residual(unpack(x), pairs, pts)
    for _ in range(_MAX_NEWTON):
        if np.max(np.abs(fx)) < tol:
            break
        h = 1e-7 * scale
        jac = np.empty((2 * m, 2 * m))
        for c in range(2 * m):
            xp = x.copy()
            xp[c] += h
            jac[:, c] = (_period_residual(unpack(xp), pairs, pts) - fx) / h
        try:
            dx = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged("singular Jacobian in period solve") from exc
        lam, base = 1.0, np.max(np.abs(fx))
        for _ in range(30):
            xt = x + lam * dx
            ft = _period_residual(unpack(xt), pairs, pts)
            if np.max(np.abs(ft)) < base:
                x, fx = xt, ft
                break
            lam /= 2
        else:
            raise NewtonDiverged("line search stalled in period solve")
    res = float(np.max(np.abs(fx)))
    if res >= tol:
        raise NewtonDiverged(f"period residual {res:.3e} above {tol:.3e}")
    w_roots = unpack(x)
    for w in w_roots:
        if min(abs(w - a) for a in pts) < 1e-8 * scale:
            raise NotGeneralPosition("double zero collided with an endpoint")
    num = tuple(r for w in w_roots for r in (w, w))
    return QuadraticDifferential(
        numerator_roots=num, denominator_roots=tuple(pts), residual=res
    )


def _trace_arc(qd: QuadraticDifferential, a: complex, b: complex) -> np.ndarray:
    """The trajectory of -Q dt^2 from the endpoint ``a`` to the endpoint
    ``b`` as ``_ARC_POINTS + 1`` vertices: vertex k solves
    G(t) = k G(b) / _ARC_POINTS with G(t) = \\int_a^t sqrt(Q).

    Newton starts vertices 1 and 2 from the square-root germ of G at ``a``,
    vertices 3 and 4 from the quadratic and later ones from the quartic
    extrapolation of the vertices before, which is exact when t is a
    polynomial of degree 4 in G.  Its miss, O(ds^5), is then mostly below
    ``_NEWTON_TOL``, so one quadrature from the previous vertex measures it,
    one step corrects it, and the vertex costs one ``integrate_path`` call.

    Raises EndpointMismatch when Re G(b) does not vanish or the last step
    does not land on ``b``, and NotGeneralPosition when Newton fails to
    converge, as it does when a double zero lies on the arc, or at once when
    an iterate is not finite.
    """
    num, den = qd.numerator_roots, qd.denominator_roots
    total, _ = integrate_path(num, den, route_around(a, b, num + den))
    if abs(total.real) > _LAND_TOL * abs(total):
        raise EndpointMismatch(f"Re G = {total.real:.3e} between {a} and {b}")
    ds = total / _ARC_POINTS
    # Q ~ c / (t - a) near a, so G ~ 2 sqrt(c (t - a))
    c = math.prod(a - r for r in num) / math.prod(a - r for r in den if r != a)
    pts, state = [a], 0j
    for k in range(1, _ARC_POINTS):
        # t(s) is analytic in s up to both endpoints
        if k < 3:
            t = a + (k * ds) ** 2 / (4 * c)
        elif k < 5:
            t = 3 * pts[-1] - 3 * pts[-2] + pts[-3]
        else:
            t = 5 * pts[-1] - 10 * pts[-2] + 10 * pts[-3] - 5 * pts[-4] + pts[-5]
        for _ in range(_MAX_NEWTON):
            g, w = integrate_path(num, den, [pts[-1], t], w0=state)
            if k == 1 and (g * ds.conjugate()).real < 0:
                g, w = -g, -w  # the branch of sqrt(Q) at a along which G(b) = total
            miss = g - ds
            root = cmath.sqrt(qd.q_at(t))
            # sign sqrt(Q) by the integrator's branch: w is sqrt(V B) at its
            # last quadrature node, near t
            if (root * math.prod(t - r for r in den) * w.conjugate()).real < 0:
                root = -root
            t -= miss / root
            if not cmath.isfinite(t):
                raise NotGeneralPosition(f"Newton lost point {k} of the arc from {a}")
            if abs(miss) <= _NEWTON_TOL * abs(total):
                break
        else:
            raise NotGeneralPosition(f"Newton found no point {k} of the arc from {a}")
        pts.append(t)
        state = w
    g, _ = integrate_path(num, den, [pts[-1], b], w0=state)
    if abs(g - ds) > _LAND_TOL * abs(total):
        raise EndpointMismatch(f"trajectory from {a} misses {b} by {abs(g - ds):.3e} in G")
    pts.append(b)
    return np.asarray(pts)


def trace_compact(qd: QuadraticDifferential) -> CompactSet:
    """Trace one arc per conjugate pair (from the upper point; from the
    first point when p = 1) and verify pairwise disjointness."""
    scale = _scale_of(qd.denominator_roots)
    den = [complex(r) for r in qd.denominator_roots]
    pairing = [tuple(den)] if len(den) == 2 else _conj_pairs(den, 1e-12 * scale)
    arcs = tuple(_trace_arc(qd, a, b) for a, b in pairing)
    comp = CompactSet(arcs=arcs, endpoints=tuple(den), pairing=tuple(pairing))
    _check_disjoint(comp, scale)
    return comp


def _check_disjoint(comp: CompactSet, scale: float):
    """Critical trajectories from distinct poles cannot cross, so the least
    vertex-to-edge distance, taken both ways, is the arcs' separation."""
    arcs = [np.asarray(a) for a in comp.arcs]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            d = min(_point_to_polyline(arcs[i], arcs[j]).min(),
                    _point_to_polyline(arcs[j], arcs[i]).min())
            if d < 1e-3 * scale:
                raise SelfIntersection(f"arcs {i} and {j} come within 1e-3 of touching")


def admissibility_check(comp: CompactSet, tol: float = 1e-12) -> AdmissibilityReport:
    """Structural admissibility of a traced compact in the uniformizing disk:
    all points strictly inside the unit circle, complement connected (true
    for pairwise disjoint simple arcs; a closed arc separates), and each
    endpoint covered by exactly one arc so the square-root monodromies
    cancel."""
    pts = comp.all_points()
    on_second_sheet = bool(np.all(np.abs(pts) < 1 - tol))
    closed = any(
        abs(np.asarray(a)[0] - np.asarray(a)[-1]) < 1e-12 and len(a) > 2
        for a in comp.arcs
    )
    complement_connected = not closed
    counts = {}
    for a, b in comp.pairing:
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
    single_valued = bool(comp.pairing) and all(
        counts.get(e, 0) == 1 for e in comp.endpoints
    )
    return AdmissibilityReport(
        on_second_sheet=on_second_sheet,
        complement_connected=complement_connected,
        single_valued=single_valued,
    )


def _point_to_polyline(p: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distances from each point of ``p`` to the polyline with vertices
    ``poly`` (exact point-to-segment projection per edge)."""
    a = poly[:-1][None, :]
    b = poly[1:][None, :]
    z = p[:, None]
    d = b - a
    L2 = (d * d.conjugate()).real
    L2 = np.where(L2 == 0, 1.0, L2)
    t = ((z - a) * d.conjugate()).real / L2
    t = np.clip(t, 0.0, 1.0)
    proj = a + t * d
    return np.abs(z - proj).min(axis=1)
