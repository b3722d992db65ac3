"""The benchmark's checks must reject deliberately wrong outputs.

    python3 -m pytest pipebench/test_checks.py

Each test takes real outputs of one (reduced) round, confirms that the
workload's checks accept them, then perturbs one output and confirms that a
check rejects it.
"""

import dataclasses
import os
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "src")]

import checks as ck  # noqa: E402
import workloads as wls  # noqa: E402
from spans import Recorder  # noqa: E402


class SmallHpZeros(wls.HpZeros):
    n, bits = 6, 512


class SmallGreenP1Far(wls.GreenP1Far):
    NEAR_POINTS = 10
    FAR_RADII = (1e3, 1e4)
    NUTTALL_POINTS = 5
    SLOPE_RAYS = 1


def _failed(wl, out) -> set:
    checks, _ = wl.check(out)
    return {c.name for c in checks if not c.ok}


@pytest.fixture(scope="module")
def hp_round():
    wl = SmallHpZeros(seed=1)
    return wl, wl.run(Recorder())


@pytest.fixture(scope="module")
def p2_round():
    wl = wls.SheetsP2(seed=1)
    return wl, wl.run(Recorder())


@pytest.fixture(scope="module")
def p1_round():
    wl = SmallGreenP1Far(seed=1)
    return wl, wl.run(Recorder())


def test_program_outputs_pass(hp_round, p2_round, p1_round):
    for wl, out in (hp_round, p2_round, p1_round):
        assert _failed(wl, out) == set()


def _move_root(out, j, shift):
    zs = out["zeros"][j]
    roots = list(zs.roots)
    roots[0] = roots[0] + shift
    zeros = list(out["zeros"])
    zeros[j] = dataclasses.replace(zs, roots=tuple(roots))
    return {**out, "zeros": tuple(zeros)}


@pytest.mark.parametrize("j", [0, 1, 2])
def test_root_moved_off_its_conjugate_is_rejected(hp_round, j):
    wl, out = hp_round
    bad = _failed(wl, _move_root(out, j, 1e-6 * (1 + 1j) / abs(1 + 1j)))
    assert {f"Q{j}_rebuilt_from_roots", f"Q{j}_roots_conjugate_closed"} <= bad


@pytest.mark.parametrize("j", [0, 1, 2])
def test_root_moved_along_the_axis_is_rejected(hp_round, j):
    wl, out = hp_round
    assert f"Q{j}_rebuilt_from_roots" in _failed(wl, _move_root(out, j, 1e-6))


def test_dropped_root_is_rejected(hp_round):
    wl, out = hp_round
    zs = out["zeros"][1]
    bad = {**out, "zeros": (out["zeros"][0], dataclasses.replace(zs, roots=zs.roots[1:]),
                            out["zeros"][2])}
    assert "Q1_root_count" in _failed(wl, bad)


@pytest.mark.parametrize("k", [0, 7, -1])
def test_perturbed_germ_coefficient_is_rejected(hp_round, k):
    wl, out = hp_round
    germ = list(out["germ"])
    germ[k] = germ[k] * (1 + mp.mpf(10) ** -60)
    assert "germ_vs_contour_oracle" in _failed(wl, {**out, "germ": tuple(germ)})


def test_order_below_contract_is_rejected(hp_round):
    wl, out = hp_round
    assert "certified_order" in _failed(wl, {**out, "order": ck.contract(wl.k, wl.n) - 1})


def _shift_value(ev, i, delta):
    values = list(ev.values)
    values[i] += delta
    return dataclasses.replace(ev, values=tuple(values))


def test_p2_green_value_off_by_1e_8_is_rejected(p2_round):
    wl, out = p2_round
    for i in (0, len(wl.grid) - 1):
        bad = _failed(wl, {**out, "near": _shift_value(out["near"], i, 1e-8)})
        assert "green_conjugation_symmetry" in bad
    # the first grid point far enough from the arcs is a mean-value centre
    centre = next(i for i, z in enumerate(wl.grid)
                  if ck.distance_to_polylines(z, out["comp"].arcs) > 5 * wls.MV_RADIUS)
    bad = _failed(wl, {**out, "near": _shift_value(out["near"], centre, 1e-8)})
    assert "green_mean_value_property" in bad


def test_p2_extremal_robin_below_competitor_is_rejected(p2_round):
    wl, out = p2_round
    bad = _failed(wl, {**out, "gamma_seg": out["near"].robin + 1e-6})
    assert "robin_extremal_above_segments" in bad


def test_p2_wrong_slope_is_rejected(p2_round):
    wl, out = p2_round
    rep = dataclasses.replace(out["nuttall"], slope_u1=out["nuttall"].slope_u1 + 0.01)
    assert "u1_slope_minus_3" in _failed(wl, {**out, "nuttall": rep})


def test_p1_green_values_off_by_1e_8_are_rejected(p1_round):
    wl, out = p1_round
    bad = _failed(wl, {**out, "near": _shift_value(out["near"], 3, 1e-8)})
    assert "green_near_vs_segment_closed_form" in bad
    bad = _failed(wl, {**out, "far": _shift_value(out["far"], 1, 2e-8)})
    assert "green_far_vs_segment_closed_form" in bad


def test_p1_robin_constant_off_is_rejected(p1_round):
    wl, out = p1_round
    assert "robin_path_and_bie_vs_log24" in _failed(wl, {**out, "gamma": out["gamma"] + 1e-7})


def test_p1_extremal_ranked_below_candidate_is_rejected(p1_round):
    wl, out = p1_round
    cmp = out["compare"]
    swapped = dataclasses.replace(cmp, labels=cmp.labels[1:2] + cmp.labels[:1] + cmp.labels[2:],
                                  extremal_label=cmp.labels[1])
    assert "robin_compare_ranks_extremal_first" in _failed(wl, {**out, "compare": swapped})


def test_p1_equilibrium_not_refining_is_rejected(p1_round):
    wl, out = p1_round
    assert "equilibrium_residual_halves" in _failed(wl, {**out, "eq200": out["eq400"]})


def test_boundary_separation_of_a_compact_touching_the_base_segment():
    # zeta = 1/2 projects to z = 5/4 (distance 1/4); zeta = i/2 projects to
    # the imaginary axis, whose distance to [-1, 1] is |Im z| = 3/4
    assert ck.boundary_separation([[0.5 + 0j]]) == pytest.approx(0.25)
    assert ck.boundary_separation([[0.5j]]) == pytest.approx(0.75)
    assert ck.boundary_separation([[0.5 + 0j, 1.0 + 0j]]) == 0.0
