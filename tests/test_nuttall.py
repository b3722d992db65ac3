import numpy as np
import pytest

from hplab.nuttall import _GRID_MARGIN, _projection_nodes, default_grid, nuttall_report
from hplab.surface import green_signed, lift

# point checks: structure, pairing, a conjugate pair, the middle gap
POINTS = np.array([2.0 + 1.5j, 1.1 + 0.9j, 0.8 + 1.3j, 0.8 - 1.3j, 1.7 - 0.6j])


@pytest.fixture(scope="module")
def report(qd_p1):
    # modest grid keeps the suite fast; the acceptance test runs the full one
    return nuttall_report(qd_p1, n=800)


@pytest.fixture(scope="module")
def at_points(qd_p1):
    """Sheet functions at POINTS, one row (u1, u2, u3, u4) per point."""
    return nuttall_report(qd_p1, grid=POINTS).u


def test_sheet_functions_sum_to_zero(report):
    assert report.max_abs_sum < 1e-12


def test_strict_ordering_off_cuts(report):
    assert all(g > 0 for g in report.min_gaps)


def test_u1_decays_like_minus_three_log(report):
    assert report.slope_u1 == pytest.approx(-3.0, abs=1e-9)
    assert report.slope_stderr < 1e-6


def test_point_values_structure(at_points):
    u = at_points[0]
    assert len(u) == 4
    assert np.all(np.diff(u) > 0)
    assert sum(u) == pytest.approx(0.0, abs=1e-13)


def test_symmetric_pairing(at_points):
    # the sheet involution pairs u1 with u4 and u2 with u3:
    # u1 + u4 = -2 g1 and u2 + u3 = +2 g1
    u = at_points[1]
    g1 = green_signed(lift(POINTS[1], 1))
    assert u[3] + u[0] == pytest.approx(-2 * g1, abs=1e-12)
    assert u[2] + u[1] == pytest.approx(2 * g1, abs=1e-12)


def test_conjugation_symmetry(at_points):
    for x, y in zip(at_points[2], at_points[3]):
        assert x == pytest.approx(y, abs=1e-10)


def test_middle_gap_from_continuum_green(qd_p1, at_points):
    # u3 - u2 = 4 gF(zeta_2), four times the continuum Green function at the
    # second-sheet image
    from hplab.green import qd_green_fn

    u = at_points[4]
    gf = qd_green_fn(qd_p1)(lift(POINTS[4], 2).zeta)
    assert u[2] - u[1] == pytest.approx(4 * gf, abs=1e-10)


def test_default_grid_deterministic(qd_p1):
    a = default_grid(qd_p1, n=100)
    b = default_grid(qd_p1, n=100)
    assert np.array_equal(a, b)
    assert len(a) == 100
    assert np.all(np.abs(a.real) <= 4.0) and np.all(np.abs(a.imag) <= 4.0)


@pytest.mark.parametrize("n, box", [(1, 4.0), (300, 4.0), (300, 1.0)])
def test_default_grid_matches_scalar_loop(qd_p2, n, box):
    """The blocked, vectorised candidate test accepts the same points, in the
    same order, as one scalar distance per candidate."""
    rng = np.random.default_rng(7)
    nodes = _projection_nodes(qd_p2)
    ref = []
    while len(ref) < n:
        cand = (rng.random(2 * n) * 2 - 1) * box + 1j * (rng.random(2 * n) * 2 - 1) * box
        for z in cand.tolist():
            d = min(abs(z - min(max(z.real, -1.0), 1.0)), float(np.min(np.abs(nodes - z))))
            if d > _GRID_MARGIN:
                ref.append(z)
                if len(ref) == n:
                    break
    assert np.array_equal(default_grid(qd_p2, n, box=box), np.asarray(ref))


def test_grid_avoids_cuts(qd_p1):
    grid = default_grid(qd_p1, n=200)
    # clear of the base cut [-1, 1] by the grid margin
    assert np.all(np.abs(grid - np.clip(grid.real, -1, 1)) > 1e-3)
    rep = nuttall_report(qd_p1, grid=grid[:50])
    assert all(g > 0 for g in rep.min_gaps)
