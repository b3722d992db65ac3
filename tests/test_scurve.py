import math

import numpy as np
import pytest

from hplab._kernels import integrate_path
from hplab.green import green_eval, robin_gamma
from hplab.scurve import (
    CompactSet,
    EndpointMismatch,
    NotGeneralPosition,
    QuadraticDifferential,
    SelfIntersection,
    _check_disjoint,
    admissibility_check,
    chebotarev_solve,
    route_around,
    trace_compact,
)

from conftest import polyline_hausdorff, segment_samples


def test_p1_real_pair_is_segment(qd_p1, compact_p1):
    assert qd_p1.numerator_roots == ()
    assert qd_p1.residual == 0.0
    assert len(compact_p1.arcs) == 1
    seg = segment_samples(1 / 3, 1 / 2)
    assert polyline_hausdorff(compact_p1.arcs[0], seg) < 1e-8


def test_p1_vertical_pair_is_segment():
    a = 0.4 + 0.5j
    qd = chebotarev_solve([a, a.conjugate()])
    comp = trace_compact(qd)
    seg = segment_samples(a, a.conjugate())
    assert polyline_hausdorff(comp.arcs[0], seg) < 1e-8


def test_p1_vertical_pair_capacity_oracle():
    # the extremal compact through two points is the joining segment, whose
    # logarithmic capacity is length / 4
    a = 0.4 + 0.5j
    qd = chebotarev_solve([a, a.conjugate()])
    gamma = robin_gamma(qd)
    assert gamma == pytest.approx(math.log(4.0 / 1.0), abs=1e-9)


def test_p1_real_pair_capacity_oracle(qd_p1):
    gamma = robin_gamma(qd_p1)
    assert gamma == pytest.approx(math.log(4.0 / (1 / 6)), abs=1e-9)


def test_p2_period_conditions_met(qd_p2):
    assert qd_p2.residual < 1e-11
    assert len(qd_p2.double_zeros) == 1
    # each double zero is listed twice in the numerator multiset
    assert len(qd_p2.numerator_roots) == 2
    assert qd_p2.numerator_roots[0] == qd_p2.numerator_roots[1]


def test_p2_double_zero_between_pairs(qd_p2):
    w = qd_p2.double_zeros[0]
    assert -0.5 < w.real < 0.45


def test_p2_trace_disjoint_arcs(qd_p2):
    comp = trace_compact(qd_p2)
    assert len(comp.arcs) == 2
    # each arc joins a conjugate pair
    for a, b in comp.pairing:
        assert abs(a - b.conjugate()) < 1e-9
    # arcs stay well apart
    d = np.abs(comp.arcs[0][:, None] - comp.arcs[1][None, :])
    assert float(d.min()) > 1e-3


@pytest.fixture(params=["qd_p1", "qd_p2", "qd_sheets_p2"])
def qd_any(request):
    return request.getfixturevalue(request.param)


def test_trace_equispaced_in_natural_parameter(qd_any):
    """Each edge of a traced arc carries 1/N of G(b) = int_a^b sqrt(Q),
    integrated independently along the pair's routed path."""
    num, den = qd_any.numerator_roots, qd_any.denominator_roots
    comp = trace_compact(qd_any)
    lengths = []
    for (a, b), arc in zip(comp.pairing, comp.arcs):
        total, _ = integrate_path(num, den, route_around(a, b, num + den))
        state, incs = 0j, []
        for z0, z1 in zip(arc[:-1], arc[1:]):
            g, state = integrate_path(num, den, [z0, z1], w0=state)
            incs.append(g)
        if (incs[0] * total.conjugate()).real < 0:
            total = -total
        ds = total / (len(arc) - 1)
        assert max(abs(g - ds) for g in incs) <= 1e-10 * abs(total)
        lengths.append(abs(total))
    # sqrt(Q) ~ 1/t at infinity, so the arcs carry the whole period pi
    assert abs(sum(lengths) - math.pi) <= 1e-12


def test_green_vanishes_on_traced_vertices(qd_any):
    for arc in trace_compact(qd_any).arcs:
        assert max(green_eval(qd_any, list(arc[1:-1])).values) <= 1e-11


def test_trace_is_deterministic(qd_sheets_p2):
    first, second = trace_compact(qd_sheets_p2), trace_compact(qd_sheets_p2)
    assert all(np.array_equal(a, b) for a, b in zip(first.arcs, second.arcs))


def test_trace_rejects_shifted_double_zero(qd_p2):
    # off the solved double zero the periods no longer vanish
    w = qd_p2.double_zeros[0] + 0.2j
    qd = QuadraticDifferential(numerator_roots=(w, w), denominator_roots=qd_p2.denominator_roots)
    with pytest.raises(EndpointMismatch):
        trace_compact(qd)


def test_check_disjoint_sees_vertex_near_an_edge():
    # all vertices are at least 5e-3 apart, but the second arc starts 5e-4
    # above the first arc's first edge
    first = np.asarray([0.0, 0.01, 0.02], dtype=complex)
    second = np.asarray([0.005 + 0.0005j, 0.005 + 0.1j])
    comp = CompactSet(arcs=(first, second), endpoints=())
    with pytest.raises(SelfIntersection):
        _check_disjoint(comp, 1.0)


def test_p2_admissibility(qd_p2):
    comp = trace_compact(qd_p2)
    rep = admissibility_check(comp)
    assert rep.on_second_sheet
    assert rep.complement_connected
    assert rep.single_valued
    assert rep.all_ok()


def test_p2_conjugation_symmetry(qd_p2):
    # conjugate-symmetric data forces the double zero onto the real axis
    w = qd_p2.double_zeros[0]
    assert abs(w.imag) < 1e-9


def test_p2_capacity_beats_vertical_segments(qd_p2):
    """Independent extremality check: the solved compact has a larger Robin
    constant than the naive competitor joining each pair by a straight
    vertical segment (computed by the boundary-integral solver)."""
    from hplab.green import capacity_robin_multi

    gamma_ext = robin_gamma(qd_p2)

    def seg_pair(u):
        c, d = u.real, u.imag
        return (lambda x: complex(c, d * x), lambda x: complex(0, d))

    uppers = [r for r in qd_p2.denominator_roots if r.imag > 0]
    curves, dcurves = zip(*[seg_pair(u) for u in uppers])
    _, gamma_seg = capacity_robin_multi(list(curves), list(dcurves), n=128)
    assert gamma_ext > gamma_seg - 1e-10


def test_rejects_odd_count():
    with pytest.raises(NotGeneralPosition):
        chebotarev_solve([1j, -1j, 2 + 1j])


def test_rejects_duplicates():
    with pytest.raises(NotGeneralPosition):
        chebotarev_solve([1j, 1j, -1j, -1j])


def test_rejects_real_points_for_p2():
    with pytest.raises(NotGeneralPosition):
        chebotarev_solve([0.1, 0.2, 0.5 + 0.5j, 0.5 - 0.5j])


def test_rejects_non_conjugate_set():
    with pytest.raises(NotGeneralPosition):
        chebotarev_solve([0.1 + 0.5j, 0.1 - 0.5j, 0.5 + 0.5j, 0.5 + 0.4j])


def test_route_around_inserts_detour():
    # root sitting on the straight segment forces a waypoint
    path = route_around(0.0, 1.0, [0.5])
    assert len(path) == 3
    mid = path[1]
    assert abs(mid.imag) > 0.01


def test_route_around_ignores_far_roots():
    path = route_around(0.0, 1.0, [0.5 + 2j, -3.0])
    assert path == [0.0, 1.0]


def test_hausdorff_identities():
    pts = np.asarray([0.0, 1.0, 1j])
    assert polyline_hausdorff(pts, pts) == 0.0
    assert polyline_hausdorff(pts, pts + 0.5) == pytest.approx(0.5)


def test_polyline_hausdorff_measures_sag():
    line = np.asarray([0.0 + 0j, 1.0 + 0j])
    bent = np.asarray([0.0 + 0j, 0.5 + 0.1j, 1.0 + 0j])
    assert polyline_hausdorff(line, bent) == pytest.approx(0.1, abs=1e-12)


def test_q_at():
    qd = QuadraticDifferential(
        numerator_roots=(1j, 1j), denominator_roots=(2.0 + 0j, 3.0 + 0j)
    )
    t = 0.5 + 0.5j
    expected = (t - 1j) ** 2 / ((t - 2) * (t - 3))
    assert qd.q_at(t) == pytest.approx(expected)
