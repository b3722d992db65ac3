import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from hplab._kernels import integrate_path
from hplab.green import (
    CircularArc,
    InadmissibleCandidate,
    _green_many,
    _laurent,
    _laurent_tail,
    capacity_robin,
    capacity_robin_multi,
    green_eval,
    qd_green_fn,
    robin_compare,
    robin_gamma,
    s_property_residual,
    segment_capacity_robin,
    segment_green,
)
from hplab.scurve import (
    QuadraticDifferential,
    chebotarev_solve,
    route_around,
    trace_compact,
)
from hplab.surface import green_signed, lift

from conftest import segment_samples


# ---------------------------------------------------------------------------
# shared path-integral kernel


def test_kernel_against_quadrature():
    """Independent oracle: mpmath adaptive quadrature of the same branch of
    sqrt(V B)/B along a straight path far from all roots."""
    num = [0.1 + 0.2j, 0.1 + 0.2j]
    den = [0.3 + 0.4j, 0.3 - 0.4j]
    val, _ = integrate_path(num, den, [2.0 + 0j, 2.5 + 0j])

    def f(t):
        q = (t - num[0]) * (t - num[1]) / ((t - den[0]) * (t - den[1]))
        return mp.sqrt(q)

    ref = mp.quad(f, [mp.mpf(2), mp.mpf("2.5")])
    assert abs(abs(val) - abs(complex(ref))) < 1e-12


def test_kernel_square_root_singularity():
    """Endpoint singularity handling: integral of 1/sqrt(t) from 0 to 1 is 2."""
    val, _ = integrate_path([], [0j], [0j, 1.0 + 0j])
    assert abs(val) == pytest.approx(2.0, abs=1e-10)


_BENT_NUM = [0.1 + 0.2j, 0.1 + 0.2j]
_BENT_DEN = [0.3 + 0.4j, 0.3 - 0.4j]
_BENT_PATH = [2.0 + 0j, 1.0 + 1.0j, -0.5 + 0j]


def _continued_quad(num, den, pts, samples=400):
    """mpmath quadrature of sqrt(V B)/B along a polyline, on the branch that
    starts principal at pts[0] and is continued along the path: each segment
    tabulates the continued root at ``samples`` points, and every quadrature
    node takes the sign of the principal root that agrees with its nearest
    tabulated value."""
    mp.mp.dps = 30

    def vb(t):
        out = mp.mpc(1)
        for r in num + den:
            out *= t - r
        return out

    def b(t):
        out = mp.mpc(1)
        for r in den:
            out *= t - r
        return out

    total = mp.mpc(0)
    w = mp.sqrt(vb(mp.mpc(pts[0])))
    for z0, z1 in zip(pts[:-1], pts[1:]):
        z0, z1 = mp.mpc(z0), mp.mpc(z1)
        table = []
        for k in range(samples + 1):
            ws = mp.sqrt(vb(z0 + (z1 - z0) * k / samples))
            if mp.re(ws * mp.conj(w)) < 0:
                ws = -ws
            table.append(ws)
            w = ws

        def f(s, z0=z0, z1=z1, table=table):
            ws = mp.sqrt(vb(z0 + (z1 - z0) * s))
            if mp.re(ws * mp.conj(table[int(mp.nint(s * samples))])) < 0:
                ws = -ws
            return ws / b(z0 + (z1 - z0) * s) * (z1 - z0)

        total += mp.quad(f, [0, 1])
    mp.mp.dps = 15
    return complex(total)


def test_kernel_bent_path_against_continued_quadrature():
    val, _ = integrate_path(_BENT_NUM, _BENT_DEN, _BENT_PATH)
    ref = _continued_quad(_BENT_NUM, _BENT_DEN, _BENT_PATH)
    assert abs(val - ref) < 1e-12


def test_kernel_singular_at_both_ends():
    # \int_{-1}^{1} dt / sqrt((t - 1)(t + 1)) = -+ i pi
    val, _ = integrate_path([], [-1.0, 1.0], [-1.0 + 0j, 1.0 + 0j])
    assert abs(val) == pytest.approx(math.pi, abs=1e-10)


def test_kernel_branch_seed_flips_sign():
    _, w = integrate_path(_BENT_NUM, _BENT_DEN, _BENT_PATH[:2])
    rest, _ = integrate_path(_BENT_NUM, _BENT_DEN, _BENT_PATH[1:], w0=w)
    flipped, _ = integrate_path(_BENT_NUM, _BENT_DEN, _BENT_PATH[1:], w0=-w)
    assert abs(rest) > 0.1
    assert flipped == pytest.approx(-rest, abs=1e-14)


# ---------------------------------------------------------------------------
# boundary-integral solver against closed forms


def test_segment_capacity_exact():
    # capacity of [a, b] is (b - a)/4
    cap, gamma = segment_capacity_robin(-1.0, 1.0)
    assert cap == pytest.approx(0.5, abs=1e-13)
    assert gamma == pytest.approx(math.log(2.0), abs=1e-13)
    cap2, gamma2 = segment_capacity_robin(0.25, 0.75)
    assert cap2 == pytest.approx(0.125, abs=1e-13)
    # complex endpoints: a vertical segment of length 0.6
    cap3, _ = segment_capacity_robin(0.5 - 0.3j, 0.5 + 0.3j)
    assert cap3 == pytest.approx(0.15, abs=1e-13)


def test_two_symmetric_intervals_capacity_exact():
    # cap([-b, -a] U [a, b]) = sqrt(b^2 - a^2) / 2
    a, b = 0.5, 1.0
    curves = [lambda x: (-a - b) / 2 + (b - a) / 2 * x, lambda x: (a + b) / 2 + (b - a) / 2 * x]
    dcurves = [lambda x: (b - a) / 2, lambda x: (b - a) / 2]
    cap, gamma = capacity_robin_multi(curves, dcurves, n=128)
    assert cap == pytest.approx(math.sqrt(b * b - a * a) / 2, abs=1e-12)


def test_bie_requires_even_n():
    with pytest.raises(ValueError):
        capacity_robin(lambda x: x, lambda x: 1.0, n=255)


def test_density_positive_and_normalized():
    cap, gamma, z, density = capacity_robin(lambda x: x, lambda x: 1.0, n=128)
    # the double cover determines the density only up to a component that is
    # antisymmetric under theta -> 2 pi - theta; the physical density is the
    # mirror symmetrization
    sym = 0.5 * (density + density[::-1])
    assert np.all(sym > 0)
    assert (2 * math.pi / 128) * density.sum() == pytest.approx(1.0, abs=1e-12)
    # equilibrium density of a segment: 1/(pi sqrt(1-x^2)) dx pulls back to
    # the uniform measure dtheta/(2 pi) on the double cover
    assert np.max(np.abs(sym - 1 / (2 * math.pi))) < 1e-10


# ---------------------------------------------------------------------------
# Green values from the quadratic differential


def test_green_matches_segment_closed_form(qd_p1):
    pts = [1.0 + 0.5j, -0.7 + 0j, 2.0 - 1.0j, 0.45 + 1e-3j]
    ev = green_eval(qd_p1, pts)
    for z, g in zip(ev.points, ev.values):
        assert g == pytest.approx(segment_green(1 / 3, 1 / 2, z), abs=1e-9)
    assert ev.robin == pytest.approx(math.log(24.0), abs=1e-9)
    assert ev.capacity == pytest.approx(1 / 24, abs=1e-10)


def test_green_zero_on_the_set(qd_p1):
    ev = green_eval(qd_p1, [0.4 + 0j])
    assert ev.values[0] == pytest.approx(0.0, abs=1e-12)


def test_unit_segment_green_matches_surface():
    qd = chebotarev_solve([-1.0 + 0j, 1.0 + 0j])
    for z in (1.5 + 0.7j, -2.0 + 0.1j, 0.3 + 1.2j):
        g_path = green_eval(qd, [z]).values[0]
        g_surf = green_signed(lift(z, 1))
        assert g_path == pytest.approx(g_surf, abs=1e-10)


def test_two_robin_routes_agree(qd_p1):
    gamma_path = robin_gamma(qd_p1)
    _, gamma_bie = segment_capacity_robin(1 / 3, 1 / 2)
    assert abs(gamma_path - gamma_bie) <= 1e-6 * abs(gamma_bie)


def test_capacity_is_exp_minus_robin(qd_p1):
    ev = green_eval(qd_p1, [])
    assert ev.capacity == pytest.approx(math.exp(-robin_gamma(qd_p1)), rel=1e-14)


@pytest.mark.parametrize("endpoints", [(1 / 2, 1 / 3), (1 / 3, 1 / 2)])
def test_robin_independent_of_endpoint_order(endpoints):
    qd = QuadraticDifferential(numerator_roots=(), denominator_roots=endpoints)
    assert abs(robin_gamma(qd) - math.log(24.0)) <= 1e-12


# ---------------------------------------------------------------------------
# far field: Laurent tail beyond |z| = R0


def test_far_values_match_segment_closed_form(qd_p1):
    pts = [
        R * cmath.exp(1j * th)
        for R in (1e3, 1e4, 1e5, 1e6, 1e7)
        for th in (math.pi / 4, -math.pi / 4, math.pi)
    ]
    for z, g in zip(pts, _green_many(qd_p1, pts)):
        assert abs(g - segment_green(1 / 3, 1 / 2, z)) <= 1e-11


def _routed(qd, z):
    """Green value by one routed path from the nearest endpoint."""
    num, den = list(qd.numerator_roots), list(qd.denominator_roots)
    anchor = min(den, key=lambda r: abs(z - r))
    val, _ = integrate_path(num, den, route_around(anchor, z, num + den))
    return abs(val.real)


def test_far_field_continuous_across_r0(qd_p2):
    """Just outside R0 the far field agrees with the routed path; just
    inside, the far-field formula (continued below R0) agrees with the
    routed value that _green_many returns there."""
    r0, a = _laurent(qd_p2)
    gamma = robin_gamma(qd_p2)
    ring = np.exp(2j * math.pi * (np.arange(16) + 0.5) / 16)
    for scale in (1.01, 0.99):
        zs = scale * r0 * ring
        routed = np.asarray([_routed(qd_p2, complex(z)) for z in zs])
        laurent = gamma + np.log(np.abs(zs)) - _laurent_tail(a, r0 / zs)
        assert np.max(np.abs(laurent - routed)) <= 1e-10
        assert np.max(np.abs(_green_many(qd_p2, zs) - routed)) <= 1e-10


@pytest.mark.parametrize("t", [3.0 + 0j, 2.0 + 2.0j])
def test_laurent_series_is_the_plus_branch(qd_p2, t):
    r0, a = _laurent(qd_p2)
    series = sum(a[k] * (r0 / t) ** k for k in range(len(a))) / t
    exact = cmath.sqrt(qd_p2.q_at(t))
    if (exact * t).real < 0:
        exact = -exact
    assert abs(series - exact) <= 1e-14


def test_traced_compact_inside_r0(qd_p2):
    r0, _ = _laurent(qd_p2)
    for arc in trace_compact(qd_p2).arcs:
        assert np.max(np.abs(arc)) < r0


# ---------------------------------------------------------------------------
# circular arcs


def test_circular_arc_geometry():
    arc = CircularArc(a=-1.0 + 0j, b=1.0 + 0j, sagitta=0.4)
    center, r = arc.center_radius
    assert abs(arc.a - center) == pytest.approx(r, rel=1e-13)
    assert abs(arc.b - center) == pytest.approx(r, rel=1e-13)
    samples = arc.samples(201)
    assert abs(samples[0] - arc.a) < 1e-12
    assert abs(samples[-1] - arc.b) < 1e-12
    apex = samples[100]
    assert apex.imag == pytest.approx(0.4, abs=1e-12)


def test_circular_arc_green_vanishes_on_arc():
    arc = CircularArc(a=-1.0 + 0j, b=1.0 + 0j, sagitta=0.3)
    for z in arc.samples(11)[1:-1]:
        assert arc.green(z) < 1e-7


def test_circular_arc_robin_vs_bie():
    # independent check: exact conformal Robin constant against the
    # boundary-integral solve on the same parametrization
    arc = CircularArc(a=-1.0 + 0j, b=1.0 + 0j, sagitta=0.35)
    curve, dcurve = arc.parametrization()
    _, gamma_bie, _, _ = capacity_robin(curve, dcurve, n=256)
    assert arc.robin() == pytest.approx(gamma_bie, abs=1e-7)


def test_tilted_circular_arc_robin_vs_bie():
    # the closed form on an arc whose chord is neither real nor centred
    arc = CircularArc(1 / 3 + 0.1j, 1 / 2 - 0.05j, 0.03)
    curve, dcurve = arc.parametrization()
    _, gamma_bie, _, _ = capacity_robin(curve, dcurve, n=512)
    assert abs(arc.robin() - gamma_bie) < 1e-13


def test_circular_arc_rejects_zero_sagitta():
    with pytest.raises(InadmissibleCandidate):
        CircularArc(a=-1.0 + 0j, b=1.0 + 0j, sagitta=0.0)


# ---------------------------------------------------------------------------
# S-property


def test_s_property_holds_on_extremal_segment(qd_p1):
    g = qd_green_fn(qd_p1)
    pts = segment_samples(1 / 3, 1 / 2, 101)
    res = s_property_residual(g, pts, n_samples=15)
    assert res < 1e-6


def test_s_property_holds_on_p2_arcs(qd_p2):
    # traced vertices crowd near the endpoints, where h = 1e-5 does not
    # resolve g, so this holds only with samples spaced by arclength
    g = qd_green_fn(qd_p2)
    comp = trace_compact(qd_p2)
    assert len(comp.arcs) == 2
    for arc in comp.arcs:
        assert s_property_residual(g, arc, h=1e-5) <= 1e-4


def test_s_property_fails_on_circular_arc():
    # a bulging arc is not extremal for its endpoints, so the one-sided
    # normal derivatives of its Green function differ along the arc
    arc = CircularArc(a=-1.0 + 0j, b=1.0 + 0j, sagitta=0.4)
    res = s_property_residual(arc.green, arc.samples(201), n_samples=15)
    assert res > 1e-2


# ---------------------------------------------------------------------------
# ranking


def test_robin_compare_ranks_extremal_first(qd_p1):
    a, b = 1 / 3, 1 / 2
    L = b - a
    cands = [CircularArc(a, b, s * L) for s in (0.2, -0.3, 0.45)]
    cmp = robin_compare(qd_p1, cands, n=256)
    assert cmp.extremal_label == "extremal"
    assert cmp.labels[0] == "extremal"
    assert cmp.robins[0] >= max(cmp.robins[1:])
    # capacities listed in the matching (ascending) order
    assert list(cmp.capacities) == sorted(cmp.capacities)


def test_robin_compare_rejects_wrong_endpoints(qd_p1):
    bad = CircularArc(0.0 + 0j, 1.0 + 0j, 0.2)
    with pytest.raises(InadmissibleCandidate):
        robin_compare(qd_p1, [bad], n=128)
