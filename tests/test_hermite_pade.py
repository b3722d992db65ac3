import dataclasses

import mpmath as mp
import numpy as np
import pytest

import hplab.hermite_pade as hp_mod
from hplab.hermite_pade import (
    DiscreteMeasure,
    HermitePadeError,
    InsufficientGermLength,
    OrderShortfall,
    contract_order,
    hp_type1,
    polyroots_and_measure,
    residual_order,
)
from hplab.series import LaurentGerm, germ_of_family


PREC = 768


@pytest.fixture(scope="module")
def germs_z(spec_z):
    # long enough for k=4, n=8 plus the certification margin
    n = 8 + contract_order(4, 8) + 25
    return germ_of_family(spec_z, n, precision_bits=PREC)


def test_contract_order_values():
    assert contract_order(2, 20) == 21
    assert contract_order(3, 20) == 42
    assert contract_order(4, 20) == 63
    assert contract_order(3, 1) == 4


def _coeff_matrix_float(germs, k, n):
    """Double-precision copy of the linear system: rows are the coefficients
    of z^m for n >= m > -(k-1)(n+1), columns are the k(n+1) unknowns."""
    order = contract_order(k, n)
    rows = order + n
    cols = k * (n + 1)
    a = np.zeros((rows, cols))
    for r, m in enumerate(range(n, -order, -1)):
        for j in range(k):
            cj = germs[j].coeffs
            for i in range(n + 1):
                idx = i - m
                if 0 <= idx < len(cj):
                    a[r, j * (n + 1) + i] = float(cj[idx])
    return a


@pytest.mark.parametrize("k,n", [(3, 1), (2, 3), (2, 4)])
def test_against_svd_null_space(k, n, germs_z):
    """Brute-force oracle: for these small systems (5x6, 7x8 and 9x10) the
    kernel is computable directly with an SVD in double precision."""
    f = germs_z[0]
    one = type(f)((mp.mpf(1),) + (mp.mpf(0),) * f.order, f.precision_bits)
    sol = hp_type1(germs_z[: k - 1], n=n, precision_bits=PREC)
    a = _coeff_matrix_float([one] + list(germs_z[: k - 1]), k, n)
    _, s, vt = np.linalg.svd(a)
    # one row fewer than columns: full row rank means the kernel is exactly
    # the last right singular vector
    assert s[-1] > 1e-6 * s[0]
    kernel = vt[-1]
    v = np.array([float(c) for p in sol.polys for c in p])
    # residual against the float matrix
    assert np.linalg.norm(a @ v) < 1e-12 * np.linalg.norm(v) * s[0]
    # alignment with the SVD kernel vector
    cosang = abs(kernel @ v) / np.linalg.norm(v)
    assert cosang > 1 - 1e-10


def test_degenerate_kernel_flagged():
    # f = 1 + 2/z is a polynomial in 1/z: Q_1 = z R and Q_0 = -Q_1 f make
    # the residual vanish for every R of degree <= n - 1, so the kernel has
    # dimension n
    n = 5
    f = LaurentGerm((mp.mpf(1), mp.mpf(2)) + (mp.mpf(0),) * 40, 256)
    sol = hp_type1([f], n=n, precision_bits=256)
    assert sol.degenerate_kernel
    assert residual_order(sol, [f]) >= contract_order(2, n)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_order_certificates(k, germs_z):
    n = 8
    sol = hp_type1(germs_z[: k - 1], n=n, precision_bits=PREC)
    assert sol.family_size == k
    assert not sol.degenerate_kernel
    d = residual_order(sol, germs_z[: k - 1], precision_bits=PREC)
    assert d >= contract_order(k, n)


def test_determinism(germs_z):
    f, f2, _ = germs_z
    a = hp_type1([f, f2], n=5, precision_bits=PREC)
    b = hp_type1([f, f2], n=5, precision_bits=PREC)
    for pa, pb in zip(a.polys, b.polys):
        assert pa == pb


def test_insufficient_germ_length(spec_z):
    germs = germ_of_family(spec_z, 10, precision_bits=256)
    with pytest.raises(InsufficientGermLength):
        hp_type1(germs[:2], n=10, precision_bits=256)


def test_certification_needs_margin(germs_z):
    f, f2, _ = germs_z
    sol = hp_type1([f, f2], n=3, precision_bits=PREC)
    short = type(f)(f.coeffs[:20], f.precision_bits)
    short2 = type(f)(f2.coeffs[:20], f.precision_bits)
    with pytest.raises(InsufficientGermLength):
        residual_order(sol, [short, short2], precision_bits=PREC)


def test_order_shortfall_on_tampered_solution(germs_z):
    f, f2, _ = germs_z
    sol = hp_type1([f, f2], n=3, precision_bits=PREC)
    # perturb one coefficient: the residual order must collapse
    polys = [list(p) for p in sol.polys]
    polys[1][0] += mp.mpf("1e-3")
    bad = dataclasses.replace(sol, polys=tuple(tuple(p) for p in polys))
    with pytest.raises(OrderShortfall):
        residual_order(bad, [f, f2], precision_bits=PREC)


def test_pade_denominator_zeros_real(germs_z):
    # classical diagonal Pade of a Markov-type function: denominator zeros
    # are real and inside [-1, 1]
    f, _, _ = germs_z
    sol = hp_type1([f], n=8, precision_bits=PREC)
    zeros, measure = polyroots_and_measure(sol.polys[1], tol=1e-20, precision_bits=PREC)
    for r in zeros.roots:
        assert abs(mp.im(r)) < 1e-15
        assert -1 < mp.re(r) < 1
    assert len(zeros.radii) == len(zeros.roots)
    assert all(r <= 1e-20 for r in zeros.radii)
    assert sum(measure.weights) == pytest.approx(1.0, abs=1e-14)


def test_polyroots_known_polynomial():
    # (z^2 + z - 2)(z^2 + 9) = z^4 + z^3 + 7 z^2 + 9 z - 18
    poly = [-18, 9, 7, 1, 1]  # ascending coefficients
    zeros, _ = polyroots_and_measure(poly, tol=1e-14, precision_bits=256)
    got = [complex(r) for r in zeros.roots]
    for e in (1 + 0j, -2 + 0j, 3j, -3j):
        assert min(abs(g - e) for g in got) < 1e-12
    assert zeros.residual_bound <= 1e-14


def test_polyroots_trims_trailing_noise():
    # trailing coefficients at the rounding floor must not inflate the degree
    poly = [-1, 0, 1, 1e-80]
    zeros, _ = polyroots_and_measure(poly, tol=1e-14, precision_bits=256)
    assert len(zeros.roots) == 2
    got = sorted(complex(r).real for r in zeros.roots)
    assert got == pytest.approx([-1.0, 1.0], abs=1e-13)


def test_polyroots_rejects_constant():
    with pytest.raises(HermitePadeError):
        polyroots_and_measure([1.0, 1e-90], precision_bits=256)


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(support=(0.0, 1.0), weights=(0.5,))
    with pytest.raises(ValueError):
        DiscreteMeasure(support=(0.0, 1.0), weights=(0.7, 0.7))
    with pytest.raises(ValueError):
        DiscreteMeasure(support=(0.0, 1.0), weights=(-0.5, 1.5))


def test_discrete_measure_projection():
    m = DiscreteMeasure(support=(0.5, 1 + 2j), weights=(0.25, 0.75))
    z = m.projected_z()
    assert z.dtype == complex
    assert list(z) == [0.5, 1 + 2j]


def _covers(zeros, e, idx=None):
    """True when the disk of one of the roots ``idx`` (default all) holds e."""
    idx = range(len(zeros.roots)) if idx is None else idx
    return any(abs(zeros.roots[i] - e) <= zeros.radii[i] for i in idx)


@pytest.mark.parametrize("precision_bits", [None, 2048])
def test_aberth_stops_before_sweep_cap(precision_bits, spec_z, monkeypatch):
    # each sweep evaluates p and p' once per root, so calls / deg = sweeps
    k, n, bits = 3, 10, 2048
    germs = germ_of_family(spec_z, n + contract_order(k, n) + 25, precision_bits=bits)
    sol = hp_type1(list(germs[: k - 1]), n, precision_bits=bits)
    calls = []
    one_pass = hp_mod._horner_with_derivative

    def counted(coeffs, x):
        calls.append(1)
        return one_pass(coeffs, x)

    monkeypatch.setattr(hp_mod, "_horner_with_derivative", counted)
    for q in sol.polys:
        calls.clear()
        zeros, _ = polyroots_and_measure(q, tol=1e-10, precision_bits=precision_bits)
        deg = len(zeros.roots)
        assert deg == n
        assert len(calls) <= 40 * deg


def test_polyroots_double_root_cluster():
    # (z - 1)^2 (z + 2) = z^3 - 3z + 2; roots sorted by real part: -2, 1, 1
    zeros, measure = polyroots_and_measure([2, -3, 0, 1], tol=1e-14, precision_bits=256)
    assert len(zeros.roots) == len(zeros.radii) == 3
    assert zeros.multiplicities == (1, 2, 2)
    assert abs(zeros.roots[0] + 2) <= zeros.radii[0]
    # the component of the two overlapping disks holds the double zero at 1
    assert _covers(zeros, 1, idx=(1, 2))
    assert sum(measure.weights) == pytest.approx(1.0, abs=1e-14)


def test_polyroots_known_quartic_disks():
    # (z^2 + z - 2)(z^2 + 9): every disk is tiny and holds a true root
    zeros, _ = polyroots_and_measure([-18, 9, 7, 1, 1], tol=1e-14, precision_bits=256)
    assert len(zeros.radii) == 4
    assert zeros.multiplicities == (1, 1, 1, 1)
    assert all(r <= 1e-14 for r in zeros.radii)
    for e in (1, -2, mp.mpc(0, 3), mp.mpc(0, -3)):
        assert _covers(zeros, e)


@pytest.mark.parametrize("poly", [[-18, 9, 7, 1, 1], [2, -3, 0, 1]])
def test_polyroots_bit_identical_reruns(poly):
    a, _ = polyroots_and_measure(poly, tol=1e-14, precision_bits=256)
    b, _ = polyroots_and_measure(poly, tol=1e-14, precision_bits=256)
    # mpmath numbers are normalized, so equal values at one precision are
    # equal bits
    assert a == b


def test_newton_polygon_starts_find_far_root():
    # (z - 1e80)(z^3 - 1): the hull edges give one circle of radius 1e80
    # and one of radius 1
    a = 10**80
    poly = [a, -1, 0, -a, 1]
    cs = [mp.mpf(c) for c in poly]
    moduli = [2.0 ** lr for lr, _ in hp_mod._newton_polygon_starts(hp_mod._log2_moduli(cs))]
    assert len(moduli) == 4
    assert sum(a / 2 <= m <= 2 * a for m in moduli) == 1
    assert sum(0.5 <= m <= 2 for m in moduli) == 3
    # the iteration and certificate of polyroots_and_measure at 256 bits
    # (work = 512), without its trim rule, which would drop the leading 1
    # against 1e80
    work = 512
    with mp.workprec(work):
        roots = hp_mod._aberth(cs, 4, work)
        bound = hp_mod._residual_bound(cs, roots)
        radii, sizes = hp_mod._inclusion_disks(poly, roots, work)
    assert bound <= 1e-14
    assert all(r / max(1, abs(z)) <= 1e-14 for r, z in zip(radii, roots))
    assert sizes == [1, 1, 1, 1]
    for e in (a, 1, mp.expjpi(mp.mpf(2) / 3), mp.expjpi(-mp.mpf(2) / 3)):
        assert min(abs(z - e) / abs(e) for z in roots) <= 1e-14


def test_polyroots_scale_invariant():
    # scaling by 2^3000 is exact and puts the coefficients far outside the
    # range of double precision
    poly = [-18, 9, 7, 1, 1]
    a, _ = polyroots_and_measure(poly, tol=1e-14, precision_bits=256)
    b, _ = polyroots_and_measure([c * 2**3000 for c in poly], tol=1e-14, precision_bits=256)
    assert a.multiplicities == b.multiplicities
    for x, y in zip(a.roots, b.roots):
        assert abs(x - y) <= mp.mpf(2) ** -400 * abs(x)


def test_polyroots_root_beyond_double_range():
    # a start radius of 2^1200 has no double: the ladder begins at 128 bits
    a = 2**1200
    zeros, _ = polyroots_and_measure([a, -(a + 1), 1], tol=1e-14, precision_bits=4096)
    assert abs(zeros.roots[0] - 1) <= 1e-14
    assert abs(zeros.roots[1] - a) <= 1e-14 * mp.mpf(a)


def test_aberth_ladder_sweeps_on_hp_zeros(spec_z, monkeypatch):
    # every rung evaluates p through _horner_with_derivative: once per root
    # and sweep at multiple precision, once per sweep in double precision
    k, n, bits = 3, 10, 2048
    germs = germ_of_family(spec_z, n + contract_order(k, n) + 25, precision_bits=bits)
    sol = hp_type1(list(germs[: k - 1]), n, precision_bits=bits)
    calls = []
    one_pass = hp_mod._horner_with_derivative

    def counted(coeffs, x):
        calls.append(1)
        return one_pass(coeffs, x)

    monkeypatch.setattr(hp_mod, "_horner_with_derivative", counted)
    for q in sol.polys:
        calls.clear()
        zeros, _ = polyroots_and_measure(q, tol=1e-10)
        deg = len(zeros.roots)
        assert deg == n
        assert len(calls) <= 12 * deg
