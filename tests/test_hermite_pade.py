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
from hplab.funcspec import validate_spec
from hplab.series import LaurentGerm, germ_constant, germ_of_family

from conftest import RAW_P2, RAW_Z


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


# a conjugate pair with unequal exponents does not merge into a real
# quadratic, so its germ has complex coefficients
RAW_COMPLEX = {"class": "Z", "A": [["1.5", "1"], ["1.5", "-1"]], "alpha": ["1/2", "-1/2"]}


@pytest.mark.parametrize("raw,k,n,degrees,degenerate", [
    (RAW_Z, 4, 12, [13, 17, 6, 15], True),
    (RAW_Z, 4, 20, [21, 21, 22, 19], True),
    (RAW_Z, 3, 10, [11, 11, 10], False),
    (RAW_COMPLEX, 4, 10, [11, 11, 10, 11], False),
])
def test_order_basis_degrees_near_pivot_threshold(raw, k, n, degrees, degenerate):
    # 256 bits do not resolve these systems: some |e_r| sit within a few
    # bits of the pivot threshold tiny * max|row|, so the row degrees pin
    # how closely the rows' scale follows their coefficients
    germs = germ_of_family(validate_spec(raw), n + contract_order(k, n), precision_bits=256)
    germs = germs[: k - 1]
    series = [germ_constant(1, germs[0].order, 256), *germs]
    with mp.workprec(256):
        deg, _ = hp_mod._order_basis([g.coeffs for g in series], k * (n + 1) - 1, 256)
    assert deg == degrees
    assert hp_type1(germs, n, precision_bits=256).degenerate_kernel is degenerate


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


@pytest.fixture
def horner_calls(monkeypatch):
    """One entry per call of ``_horner_with_derivative``: every rung
    evaluates p and p' through it, once per root and sweep at multiple
    precision and once per sweep in double precision."""
    calls = []
    one_pass = hp_mod._horner_with_derivative

    def counted(coeffs, x):
        calls.append(1)
        return one_pass(coeffs, x)

    monkeypatch.setattr(hp_mod, "_horner_with_derivative", counted)
    return calls


def _covers(zeros, e, idx=None):
    """True when the disk of one of the roots ``idx`` (default all) holds e."""
    idx = range(len(zeros.roots)) if idx is None else idx
    return any(abs(zeros.roots[i] - e) <= zeros.radii[i] for i in idx)


@pytest.mark.parametrize("precision_bits", [None, 2048])
def test_aberth_stops_before_sweep_cap(precision_bits, spec_z, horner_calls):
    # each sweep evaluates p and p' once per root, so calls / deg = sweeps
    k, n, bits = 3, 10, 2048
    germs = germ_of_family(spec_z, n + contract_order(k, n) + 25, precision_bits=bits)
    sol = hp_type1(list(germs[: k - 1]), n, precision_bits=bits)
    for q in sol.polys:
        horner_calls.clear()
        zeros, _ = polyroots_and_measure(q, tol=1e-10, precision_bits=precision_bits)
        deg = len(zeros.roots)
        assert deg == n
        assert len(horner_calls) <= 40 * deg


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
        roots = hp_mod._aberth(cs, work)
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


def test_aberth_ladder_sweeps_on_hp_zeros(spec_z, horner_calls):
    k, n, bits = 3, 10, 2048
    germs = germ_of_family(spec_z, n + contract_order(k, n) + 25, precision_bits=bits)
    sol = hp_type1(list(germs[: k - 1]), n, precision_bits=bits)
    for q in sol.polys:
        horner_calls.clear()
        zeros, _ = polyroots_and_measure(q, tol=1e-10)
        deg = len(zeros.roots)
        assert deg == n
        assert len(horner_calls) <= 11 * deg


def test_exact_zeros_at_zero_split_off(spec_z, horner_calls):
    # at 256 bits the kernel of RAW_Z for k=4, n=12 is degenerate, and the
    # row returned has its six lowest coefficients exactly 0 in every Q_j;
    # Aberth converges only linearly to a multiple zero, so it must not see
    # them
    k, n = 4, 12
    germs = germ_of_family(spec_z, n + contract_order(k, n), precision_bits=256)
    sol = hp_type1(list(germs[: k - 1]), n, precision_bits=256)
    assert sol.degenerate_kernel
    for q in sol.polys:
        horner_calls.clear()
        zeros, _ = polyroots_and_measure(q, tol=1e-10, precision_bits=256)
        deg = len(zeros.roots)
        at_zero = [i for i, z in enumerate(zeros.roots) if z == 0]
        assert len(at_zero) == 6
        assert all(zeros.multiplicities[i] == 6 and zeros.radii[i] == 0 for i in at_zero)
        assert len(horner_calls) <= 12 * deg


@pytest.fixture(scope="module", params=[RAW_Z, RAW_P2], ids=["RAW_Z", "RAW_P2"])
def hp_zeros_polys(request):
    """The Q_j of `hplab hp` at k=3, n=10 and 2048 bits: real coefficients,
    all zeros real on RAW_Z, real ones and conjugate pairs on RAW_P2."""
    k, n, bits = 3, 10, 2048
    spec = validate_spec(request.param)
    germs = germ_of_family(spec, n + contract_order(k, n) + 25, precision_bits=bits)
    return hp_type1(list(germs[: k - 1]), n, precision_bits=bits).polys


def test_real_route_matches_complex_route(hp_zeros_polys):
    # mpc coefficients take the complex route on every rung
    for q in hp_zeros_polys:
        real, _ = polyroots_and_measure(q, tol=1e-10)
        with mp.workprec(2048):  # the precision of q
            q_mpc = [mp.mpc(c) for c in q]
        cplx, _ = polyroots_and_measure(q_mpc, tol=1e-10)
        for z, m in zip(real.roots, real.multiplicities):
            j = min(range(len(cplx.roots)), key=lambda j: abs(cplx.roots[j] - z))
            assert abs(cplx.roots[j] - z) <= 1e-120 * max(1, abs(z))
            assert cplx.multiplicities[j] == m
        assert all(r <= 1e-10 * max(1, abs(z)) for r, z in zip(real.radii, real.roots))
        # the real roots are those the complex route puts on the axis, and
        # have imaginary part exactly 0
        assert ([abs(mp.im(z)) <= 1e-100 for z in cplx.roots].count(True)
                == [mp.im(z) == 0 for z in real.roots].count(True))
        with mp.workprec(1024):  # conjugate() rounds to the working precision
            assert {z.conjugate() for z in real.roots} == set(real.roots)


def test_roots_agree_with_mpmath_polyroots(hp_zeros_polys):
    # an independent route: mpmath's Durand-Kerner on the same coefficients
    for q in hp_zeros_polys:
        zeros, _ = polyroots_and_measure(q, tol=1e-10)
        with mp.workprec(512):
            ref = mp.polyroots(q[::-1], maxsteps=200, extraprec=1024)
        assert zeros.multiplicities == (1,) * len(ref)
        nearest = [min(range(len(ref)), key=lambda j: abs(ref[j] - z)) for z in zeros.roots]
        assert sorted(nearest) == list(range(len(ref)))
        for z, j in zip(zeros.roots, nearest):
            assert abs(z - ref[j]) <= 1e-120 * abs(ref[j])


def test_taylor_shift_fires_and_pays(spec_z, horner_calls, monkeypatch):
    # the zeros of these Q_j lie on [1.25, 1.667]: every root call moves to
    # the variable of that cluster, and the 128-bit rung, which took 358-431
    # calls (18-22 complex sweeps) in the monomial basis about 0, takes 44-47
    # there; the whole call took 473-551
    k, n, bits = 3, 20, 2048
    germs = germ_of_family(spec_z, n + contract_order(k, n) + 25, precision_bits=bits)
    sol = hp_type1(list(germs[: k - 1]), n, precision_bits=bits)
    shifts = []
    shift = hp_mod._taylor_shift

    def spy(cs, m, e):
        shifts.append(e)
        return shift(cs, m, e)

    monkeypatch.setattr(hp_mod, "_taylor_shift", spy)
    for q in sol.polys:
        horner_calls.clear()
        shifts.clear()
        zeros, _ = polyroots_and_measure(q, tol=1e-10)
        deg = len(zeros.roots)
        assert shifts
        assert len(horner_calls) <= 12 * deg


def _far_cluster():
    """prod_{j<12} (8z - 800 - j): the zeros 100 + j/8, with exact integer
    coefficients."""
    poly = [1]
    for j in range(12):
        poly = [8 * b - (800 + j) * a for a, b in zip(poly + [0], [0] + poly)]
    return poly, [100 + mp.mpf(j) / 8 for j in range(12)]


def test_far_cluster_roots_real_and_covered():
    poly, truth = _far_cluster()
    zeros, _ = polyroots_and_measure(poly, tol=1e-14, precision_bits=256)
    assert all(mp.im(z) == 0 for z in zeros.roots)
    assert zeros.multiplicities == (1,) * 12
    assert all(_covers(zeros, e) for e in truth)
    # scaling by 2^3000 is exact: the same cluster, the same shift
    scaled, _ = polyroots_and_measure([c * 2**3000 for c in poly], tol=1e-14, precision_bits=256)
    assert all(mp.im(z) == 0 for z in scaled.roots)
    assert scaled.multiplicities == zeros.multiplicities
    for x, y in zip(zeros.roots, scaled.roots):
        assert abs(x - y) <= mp.mpf(2) ** -400 * abs(x)


def test_near_pair_under_early_split(monkeypatch):
    # (z - 1)^2 + 1e-40: the pair lies 1e-20 (about 2^-66) from 1, below the
    # double resolution of its centre, so no second shift zooms in on it;
    # the double rung's split takes it for two real roots, and the first
    # rung must undo that
    with mp.workprec(1024):
        eps = mp.mpf("1e-40")
        q = [1 + eps, mp.mpf(-2), mp.mpf(1)]
        truth = [mp.mpc(1, mp.sqrt(eps)), mp.mpc(1, -mp.sqrt(eps))]
    rungs = []
    rung = hp_mod._mp_rung

    def spy(cs, roots, prec, mirror=None):
        roots, done = rung(cs, roots, prec, mirror)
        rungs.append((prec, mirror is not None, done))
        return roots, done

    monkeypatch.setattr(hp_mod, "_mp_rung", spy)
    zeros, _ = polyroots_and_measure(q, precision_bits=512)
    assert rungs[0] == (128, True, False)
    assert zeros.multiplicities == (1, 1)
    assert all(_covers(zeros, e) for e in truth)
    for z, e in zip(zeros.roots, truth[::-1]):
        assert abs(z - e) <= 1e-200


def test_near_conjugate_pair_falls_back_to_complex_ladder(monkeypatch):
    # (z - 1)^2 + 1e-90: at 128 and 256 bits the coefficients hold a double
    # zero at 1, so the pair is split as two real roots; at 512 bits real
    # Aberth finds no zero, and the ladder must go back to the complex roots
    # it split, which a restart from the real axis could never leave
    with mp.workprec(1024):
        eps = mp.mpf("1e-90")
        q = [1 + eps, mp.mpf(-2), mp.mpf(1)]
        truth = [mp.mpc(1, mp.sqrt(eps)), mp.mpc(1, -mp.sqrt(eps))]
    rungs = []
    rung = hp_mod._mp_rung

    def spy(cs, roots, prec, mirror=None):
        roots, done = rung(cs, roots, prec, mirror)
        rungs.append((mirror is not None, done))
        return roots, done

    monkeypatch.setattr(hp_mod, "_mp_rung", spy)
    zeros, _ = polyroots_and_measure(q, precision_bits=512)
    assert (True, False) in rungs
    assert zeros.multiplicities == (1, 1)
    assert all(r <= 1e-200 for r in zeros.radii)
    assert all(_covers(zeros, e) for e in truth)


def test_close_real_pair_stays_real():
    # (z - 1)(z - 1 - 1e-45): two real zeros the 128-bit rung cannot tell apart
    with mp.workprec(1024):
        d = mp.mpf("1e-45")
        q = [1 + d, -(2 + d), mp.mpf(1)]
        truth = [mp.mpf(1), 1 + d]
    zeros, _ = polyroots_and_measure(q, precision_bits=512)
    assert zeros.multiplicities == (1, 1)
    assert all(mp.im(z) == 0 for z in zeros.roots)
    assert all(_covers(zeros, e) for e in truth)


@pytest.mark.parametrize("centres", [(0, 1, 2, 10), (0, 2, 1, 10)])
def test_cluster_sizes_merge_a_chain(centres):
    # the disks about 0 and 1 meet, and those about 1 and 2, but not those
    # about 0 and 2: one component of three; the disk about 10 is alone
    iv = type(mp.iv)()
    zs = [iv.convert(x) for x in centres]
    assert hp_mod._cluster_sizes(zs, [mp.mpf("0.6")] * 4) == [3, 3, 3, 1]
