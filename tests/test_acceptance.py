"""Acceptance gate: end-to-end properties with analytically anchored values.

Each test states its tolerance inline; shared heavy artifacts (high-precision
germs, Hermite-Pade solves, the traced extremal compact) are module fixtures
so the gate stays within its runtime budgets.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from hplab import cli
from hplab.equilibrium import measure_distance, solve_equilibrium
from hplab.green import (
    CircularArc,
    qd_green_fn,
    robin_compare,
    robin_gamma,
    s_property_residual,
    segment_capacity_robin,
)
from hplab.hermite_pade import (
    contract_order,
    hp_type1,
    polyroots_and_measure,
    residual_order,
)
from hplab.nuttall import nuttall_report
from hplab.series import germ_of_family, oracle_coeffs

from conftest import RAW_Z2, polyline_hausdorff, segment_samples


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def germs_n20(spec_z):
    """Germs long enough for k=4, n=20 plus the certification margin."""
    need = 20 + contract_order(4, 20) + 25
    return germ_of_family(spec_z, need, precision_bits=2048)


@pytest.fixture(scope="module")
def germs_z2_n20(spec_z2):
    need = 20 + contract_order(4, 20) + 25
    return germ_of_family(spec_z2, need, precision_bits=2048)


@pytest.fixture(scope="module")
def hp_n40(spec_z):
    """The [1, f, f^2] solve at n = 40 and its precision, with the germs."""
    n = 40
    prec = max(2048, 64 * n + 512)
    need = n + contract_order(3, n) + 25
    f, f2, _ = germ_of_family(spec_z, need, precision_bits=prec)
    return prec, [f, f2], hp_type1([f, f2], n, precision_bits=prec)


@pytest.fixture(scope="module")
def arc_z(compact_p1):
    """z-projection of the traced extremal compact."""
    arc = np.asarray(compact_p1.arcs[0])
    return (arc + 1 / arc) / 2


@pytest.fixture(scope="module")
def equilibrium_400(arc_z):
    return solve_equilibrium(arc_z, 400)


# ---------------------------------------------------------------------------
# criterion 1: germ oracle agreement


def test_criterion_1_germ_oracle_agreement(spec_z):
    t0 = time.monotonic()
    n, prec = 64, 512
    f, _, _ = germ_of_family(spec_z, n, precision_bits=prec)
    g = oracle_coeffs(spec_z, n, precision_bits=prec)
    with mp.workprec(prec):
        scale = f.max_abs()
        worst = max(abs(a - b) / scale for a, b in zip(f.coeffs, g.coeffs))
        assert worst <= mp.mpf(10) ** -30
        c0 = 1 / mp.sqrt(6)
        c1 = mp.mpf(5) / (24 * mp.sqrt(6))
        assert abs(f.coeffs[0] - c0) <= mp.mpf(10) ** -20
        assert abs(f.coeffs[1] - c1) <= mp.mpf(10) ** -20
    assert time.monotonic() - t0 <= 10.0


# ---------------------------------------------------------------------------
# criterion 2: Hermite-Pade order contract


@pytest.mark.parametrize("k,required", [(3, 42), (4, 63)])
def test_criterion_2_order_contract(k, required, germs_n20):
    t0 = time.monotonic()
    sol = hp_type1(list(germs_n20[: k - 1]), 20, precision_bits=2048)
    order = residual_order(sol, list(germs_n20[: k - 1]))
    assert order >= required == contract_order(k, 20)
    assert time.monotonic() - t0 <= 120.0


# ---------------------------------------------------------------------------
# criterion 3: Pade zeros on the base interval


def test_criterion_3_pade_zeros_on_interval(spec_z):
    t0 = time.monotonic()
    n = 30
    need = n + contract_order(2, n) + 25
    f, _, _ = germ_of_family(spec_z, need, precision_bits=2048)
    sol = hp_type1([f], n, precision_bits=2048)
    zeros, _ = polyroots_and_measure(sol.polys[1], tol=1e-10, precision_bits=2048)
    for r in zeros.roots:
        x = min(max(float(mp.re(r)), -1.0), 1.0)
        assert abs(complex(r) - x) <= 1e-6
    assert time.monotonic() - t0 <= 60.0


# ---------------------------------------------------------------------------
# criterion 4: extremal compact is the segment (p = 1 real case)


def test_criterion_4_compact_is_segment(compact_p1, arc_z):
    seg = segment_samples(1 / 3, 1 / 2)
    assert polyline_hausdorff(compact_p1.arcs[0], seg) <= 1e-6
    seg_z = segment_samples(1.25, 5 / 3)
    assert polyline_hausdorff(arc_z, seg_z) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 5: Robin constant by both routes + ranking


def test_criterion_5_robin_both_routes_and_ranking(qd_p1):
    gamma_path = robin_gamma(qd_p1)
    _, gamma_bie = segment_capacity_robin(1 / 3, 1 / 2)
    assert abs(gamma_path - math.log(24.0)) <= 1e-8
    assert abs(gamma_bie - math.log(24.0)) <= 1e-8
    L = 1 / 2 - 1 / 3
    cands = [CircularArc(1 / 3, 1 / 2, s * L) for s in (0.2, -0.3, 0.45)]
    cmp = robin_compare(qd_p1, cands, n=256)
    assert cmp.extremal_label == "extremal"
    assert cmp.robins[0] >= max(cmp.robins[1:])


# ---------------------------------------------------------------------------
# criterion 6: S-property


def test_criterion_6_s_property(qd_p1, compact_p1):
    g = qd_green_fn(qd_p1)
    res = s_property_residual(g, compact_p1.arcs[0], h=1e-5)
    assert res <= 1e-4
    L = 1 / 2 - 1 / 3
    arc = CircularArc(1 / 3, 1 / 2, 0.4 * L)
    res_bad = s_property_residual(arc.green, arc.samples(201), h=1e-5)
    assert res_bad >= 1e-2


# ---------------------------------------------------------------------------
# criterion 7: sheet ordering on a 10^4 grid


def test_criterion_7_sheet_ordering(qd_p1):
    t0 = time.monotonic()
    rep = nuttall_report(qd_p1, n=10_000)
    assert len(rep.grid) == 10_000
    assert all(g > 0 for g in rep.min_gaps)
    assert rep.max_abs_sum <= 1e-10
    assert abs(rep.slope_u1 + 3.0) <= 1e-4
    assert time.monotonic() - t0 <= 300.0


# ---------------------------------------------------------------------------
# criterion 8: equilibrium residual and refinement


def test_criterion_8_equilibrium_residual(arc_z, equilibrium_400):
    assert equilibrium_400.residual_sup <= 1e-3
    rep200 = solve_equilibrium(arc_z, 200)
    assert rep200.residual_sup >= 2.0 * equilibrium_400.residual_sup


# ---------------------------------------------------------------------------
# criterion 9: weak-* proxy at n = 40


def test_criterion_9_zero_measure_distance(hp_n40, equilibrium_400):
    t0 = time.monotonic()
    prec, germs, sol = hp_n40
    assert residual_order(sol, germs) >= contract_order(3, 40)
    _, mu = polyroots_and_measure(sol.polys[2], tol=1e-10, precision_bits=prec)
    d = measure_distance(mu, equilibrium_400.as_measure())
    assert d <= 0.05
    assert time.monotonic() - t0 <= 20.0


@pytest.mark.parametrize("j", [0, 1, 2])
def test_hp_zeros_n40_at_solve_precision(j, hp_n40):
    # Q_0 has a genuine root near 4.8e82 beside 39 roots of modulus below 3:
    # at the solve's 3072 bits no coefficient is trimmed, and every root gets its disk
    t0 = time.monotonic()
    prec, _, sol = hp_n40
    zeros, _ = polyroots_and_measure(sol.polys[j], tol=1e-10, precision_bits=prec)
    assert time.monotonic() - t0 <= 30.0
    assert len(zeros.roots) == 40
    assert all(r / max(1, abs(z)) <= 1e-10 for r, z in zip(zeros.radii, zeros.roots))
    if j == 0:
        assert max(abs(z) for z in zeros.roots) > 1e80


# ---------------------------------------------------------------------------
# criterion 10: two-interval pipeline


def test_criterion_10_two_interval_germ_oracle(spec_z2):
    n, prec = 64, 512
    f, _, _ = germ_of_family(spec_z2, n, precision_bits=prec)
    g = oracle_coeffs(spec_z2, n, nodes=256, precision_bits=prec)
    with mp.workprec(prec):
        scale = f.max_abs()
        worst = max(abs(a - b) / scale for a, b in zip(f.coeffs, g.coeffs))
        assert worst <= mp.mpf(10) ** -30


@pytest.mark.parametrize("k,required", [(3, 42), (4, 63)])
def test_criterion_10_two_interval_order_contract(k, required, germs_z2_n20):
    t0 = time.monotonic()
    sol = hp_type1(list(germs_z2_n20[: k - 1]), 20, precision_bits=2048)
    order = residual_order(sol, list(germs_z2_n20[: k - 1]))
    assert order >= required
    assert time.monotonic() - t0 <= 30.0


def test_criterion_10_figure_data_end_to_end(tmp_path):
    spec_file = tmp_path / "spec_z2.json"
    spec_file.write_text(json.dumps(RAW_Z2))
    out = tmp_path / "out"
    rc = cli.main(["figure-data", "--spec", str(spec_file), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "figure_data_report.json").read_text())
    assert report["hp_order"] >= 42
    # the [1, f, f^2] zero clouds stay off both intervals
    for j in range(3):
        rows = (out / f"hp_zeros_q{j}.csv").read_text().splitlines()[3:]
        for row in rows:
            re, im, _ = row.split(",")
            z = complex(float(re), float(im))
            for a, b in ((-3.0, -2.0), (2.0, 3.0)):
                x = min(max(z.real, a), b)
                assert abs(z - x) > 1e-2
