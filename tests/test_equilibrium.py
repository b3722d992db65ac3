import math

import mpmath as mp
import numpy as np
import pytest

from hplab.equilibrium import (
    EquilibriumError,
    NegativeDensity,
    _cells,
    _log_cell_integral,
    external_field,
    interaction_kernel,
    measure_distance,
    potential,
    potential_energy,
    solve_equilibrium,
)
from hplab.hermite_pade import DiscreteMeasure
from hplab.surface import zeta_branch


def test_kernel_symmetry():
    z, t = 1.45 + 0.3j, 2.125 - 0.6j
    assert interaction_kernel(z, t) == pytest.approx(interaction_kernel(t, z), rel=1e-14)


def test_kernel_spot_value():
    # hand-computable point: z and t are the base images of 0.4 and 0.25,
    # where Phi(z) = 1/0.4 and Phi(t) = 1/0.25, so
    # K = -2 log(0.675) + log 9 = log(14400/729)
    z = (0.4 + 1 / 0.4) / 2
    t = (0.25 + 1 / 0.25) / 2
    assert interaction_kernel(z, t) == pytest.approx(math.log(14400 / 729), rel=1e-13)


def test_external_field_value():
    z = (0.4 + 1 / 0.4) / 2
    assert external_field(z) == pytest.approx(math.log(2.5), rel=1e-13)


def test_log_cell_integral_against_quadrature():
    a, b = 0.3 + 0.2j, 0.9 - 0.1j
    for z in (1.5 + 0.5j, 0.6 + 0.05j + 0.3j, 2.0 + 0j):
        exact = _log_cell_integral(z, a, b)
        L = abs(b - a)
        ref = mp.quad(
            lambda s: -2 * mp.log(abs(z - (a + (b - a) * s))) * L, [0, 1]
        )
        assert exact == pytest.approx(float(ref), rel=1e-10, abs=1e-12)


def test_log_cell_integral_endpoint_on_cell():
    # z at a cell endpoint: the integral is still finite (log is integrable)
    a, b = 0.0 + 0j, 1.0 + 0j
    val = _log_cell_integral(a, a, b)
    # \int_0^1 -2 log t dt = 2
    assert val == pytest.approx(2.0, rel=1e-12)


def test_log_cell_integral_broadcasts():
    a = np.asarray([0.3 + 0.2j, 0.0 + 0j, 1.0 + 1.0j, 0.5 - 0.5j])
    b = np.asarray([0.9 - 0.1j, 1.0 + 0j, 1.0 + 1.0j, 0.6 - 0.5j])  # third cell empty
    z = np.asarray([[1.5 + 0.5j], [0.0 + 0j], [0.5 + 0j], [0.6 - 0.5j]])  # two on endpoints
    vals = _log_cell_integral(z, a, b)
    assert vals.shape == (4, 4)
    for i in range(4):
        for j in range(4):
            scalar = _log_cell_integral(complex(z[i, 0]), complex(a[j]), complex(b[j]))
            assert isinstance(scalar, float)
            assert vals[i, j] == pytest.approx(scalar, rel=1e-15, abs=1e-15)
    assert np.all(vals[:, 2] == 0.0)
    assert np.all(np.isfinite(vals))


def test_cells_equal_arclength():
    arc = np.asarray([0.0, 1.0, 1.0 + 1.0j], dtype=complex)
    mids, cells, lengths = _cells(arc, 8)
    assert len(mids) == len(cells) == len(lengths) == 8
    assert np.allclose(lengths, 2.0 / 8)
    # cells chain up continuously
    for (a0, b0), (a1, _) in zip(cells[:-1], cells[1:]):
        assert abs(b0 - a1) < 1e-12


def test_cells_rejects_degenerate_arc():
    with pytest.raises(EquilibriumError):
        _cells(np.asarray([1.0 + 1j, 1.0 + 1j]), 4)


@pytest.fixture(scope="module")
def arc_off_cut():
    # straight arc on the real axis, away from the base segment [-1, 1]
    return np.linspace(1.5, 2.5, 801) + 0j


def test_equilibrium_basic_properties(arc_off_cut):
    rep = solve_equilibrium(arc_off_cut, n=200)
    assert np.all(rep.weights >= 0)
    assert rep.weights.sum() == pytest.approx(1.0, abs=1e-12)
    meas = rep.as_measure()
    assert len(meas.support) == 200
    # stationarity identity: the flat potential level c satisfies
    # c = (w G w + v w) = energy - v w
    vw = float(np.dot(rep.weights, [external_field(complex(z)) for z in rep.nodes]))
    assert rep.modified_robin == pytest.approx(rep.energy - vw, rel=1e-10)
    assert rep.residual_sup < 1e-2


def test_discrete_potential_off_support(arc_off_cut):
    # off the support the total potential sits below its flat on-support
    # level (the equilibrium variational inequality), and approaches it as
    # the standoff shrinks
    rep = solve_equilibrium(arc_off_cut, n=200)
    meas = rep.as_measure()
    p_far = potential(meas, 2.0 + 0.05j)
    p_near = potential(meas, 2.0 + 0.01j)
    assert p_far < rep.modified_robin + 1e-6
    assert abs(p_near - rep.modified_robin) < abs(p_far - rep.modified_robin)


def test_negative_density_raises():
    # a long spiral around the cut is no support of the equilibrium measure:
    # the stationarity system gives some cells negative weight
    spiral = 1.5 * np.exp((0.02 + 1j) * np.linspace(0, 12, 400))
    with pytest.raises(NegativeDensity):
        solve_equilibrium(spiral, 200)


def test_residual_shrinks_under_refinement(arc_off_cut):
    res = [solve_equilibrium(arc_off_cut, n=n).residual_sup for n in (100, 200, 400)]
    assert res[1] < res[0]
    assert res[2] < res[1]
    # first-order scheme: roughly halves per doubling
    assert res[2] < 0.4 * res[0]


def _honest_terms(arc, n):
    """Scalar-loop reference for the solver's residual.  For a
    piecewise-constant density w on the cell decomposition, the total
    potential at the cell midpoints is K @ (w / lengths) + M @ w + v, with
    the logarithmic part K integrated exactly over every cell; returns
    (K, M, v, lengths), built one scalar call per entry."""
    mids, cells, lengths = _cells(np.asarray(arc, dtype=complex), n)
    phis = [zeta_branch(complex(z)) for z in mids]
    K = np.asarray([[_log_cell_integral(complex(z), complex(a), complex(b)) for a, b in cells]
                    for z in mids])
    M = np.asarray([[math.log(abs(1 - p * q)) for q in phis] for p in phis])
    v = np.asarray([math.log(abs(p)) for p in phis])
    return K, M, v, lengths


def _honest_potential(terms, w):
    K, M, v, lengths = terms
    return K @ (w / lengths) + M @ w + v


def _honest_energy(terms, w):
    """Energy of a piecewise-constant density on the cell decomposition, with
    the logarithmic part integrated exactly over every cell."""
    return float(w @ _honest_potential(terms, w) + w @ terms[2])


def test_residual_matches_scalar_loop(arc_off_cut):
    # n = 100 leaves rows 4..95 (int(100 * 0.1 / 2) rounds 4.99... down):
    # 92 rows, two full blocks of 32 and a partial one
    n = 100
    rep = solve_equilibrium(arc_off_cut, n=n)
    p = _honest_potential(_honest_terms(arc_off_cut, n), rep.weights)[4:96]
    ref = np.average(p, weights=np.maximum(rep.weights[4:96], 1e-300))
    assert rep.residual_sup == pytest.approx(float(np.max(np.abs(p - ref))), abs=1e-13)


def test_energy_minimal_at_equilibrium(arc_off_cut):
    """Convexity sample: the equilibrium weights give lower (honestly
    integrated) energy than the uniform density and random feasible
    perturbations on the same cells."""
    n = 120
    rep = solve_equilibrium(arc_off_cut, n=n)
    terms = _honest_terms(arc_off_cut, n)
    base = _honest_energy(terms, rep.weights)
    uniform = np.full(n, 1.0 / n)
    assert _honest_energy(terms, uniform) > base
    rng = np.random.default_rng(3)
    for _ in range(3):
        w = rep.weights * (1 + 0.2 * rng.standard_normal(n))
        w = np.maximum(w, 1e-12)
        w /= w.sum()
        assert _honest_energy(terms, w) > base - 1e-12


def test_potential_energy_two_points():
    z, t = 1.5 + 0j, 2.5 + 0j
    mu = DiscreteMeasure(support=(z, t), weights=(0.5, 0.5))
    expected = 2 * 0.25 * interaction_kernel(z, t) + 2 * 0.5 * (
        external_field(z) + external_field(t)
    )
    assert potential_energy(mu) == pytest.approx(expected, rel=1e-13)


def test_measure_distance_identical_is_zero():
    pts = tuple(np.linspace(1.2, 2.2, 50) + 0j)
    w = tuple([1 / 50] * 50)
    mu = DiscreteMeasure(support=pts, weights=w)
    assert measure_distance(mu, mu) == 0.0


def test_measure_distance_point_vs_uniform():
    pts = tuple(np.linspace(0.0, 1.0, 101) + 0j)
    w = tuple([1 / 101] * 101)
    ref = DiscreteMeasure(support=pts, weights=w)
    point = DiscreteMeasure(support=(0.5 + 0j,), weights=(1.0,))
    d = measure_distance(point, ref)
    assert d == pytest.approx(0.5, abs=0.02)


def test_measure_distance_counts_stray_mass():
    pts = tuple(np.linspace(0.0, 1.0, 51) + 0j)
    w = tuple([1 / 51] * 51)
    ref = DiscreteMeasure(support=pts, weights=w)
    stray = DiscreteMeasure(support=(0.5 + 5j,), weights=(1.0,))
    assert measure_distance(stray, ref) > 1.0


def test_measure_distance_rejects_degenerate_reference():
    ref = DiscreteMeasure(support=(1.0 + 0j, 1.0 + 0j), weights=(0.5, 0.5))
    mu = DiscreteMeasure(support=(1.0 + 0j,), weights=(1.0,))
    with pytest.raises(EquilibriumError):
        measure_distance(mu, ref)
