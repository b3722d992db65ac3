from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from conftest import RAW_Z2
from hplab.funcspec import validate_spec
from hplab.series import (
    DegenerateInterval,
    LaurentGerm,
    RadiusTooSmall,
    ZeroConstantTerm,
    default_precision_bits,
    evaluate_closed_form,
    germ_constant,
    germ_div,
    germ_mul,
    germ_of_family,
    germ_sqrt,
    inv_zhukovskii_germ,
    oracle_coeffs,
)


def _rel_err(a, b):
    scale = max(abs(a), abs(b), mp.mpf(1))
    return abs(a - b) / scale


def test_inv_zhukovskii_default_interval():
    g = inv_zhukovskii_germ(5, precision_bits=256)
    expected = [0, Fraction(1, 2), 0, Fraction(1, 8), 0, Fraction(1, 16)]
    for c, e in zip(g.coeffs, expected):
        assert abs(c - mp.mpf(e.numerator) / e.denominator) < mp.mpf(2) ** -200


def test_inv_zhukovskii_wide_interval():
    g = inv_zhukovskii_germ(3, interval=(-2, 2), precision_bits=256)
    expected = [0, 1, 0, 1]
    for c, e in zip(g.coeffs, expected):
        assert abs(c - e) < mp.mpf(2) ** -200


def test_inv_zhukovskii_shifted_interval_against_closed_form():
    # compare the germ evaluated at a large point with 1/phi computed directly
    g = inv_zhukovskii_germ(40, interval=(Fraction(2), Fraction(3)), precision_bits=512)
    with mp.workprec(512):
        z = mp.mpf(50)
        series_val = mp.fsum(c * z ** -k for k, c in enumerate(g.coeffs))
        zu = (z - mp.mpf("2.5")) / mp.mpf("0.5")
        direct = 1 / (zu + mp.sqrt(zu * zu - 1))
        # truncation error decays like (3/50)^(n+1)
        assert abs(series_val - direct) < mp.mpf(10) ** -45


def test_inv_zhukovskii_high_order_asymmetric_interval():
    # n = 300 terms of the three-term recurrence on an interval with m != 0
    lo, hi = Fraction(-1, 3), Fraction(7, 2)
    g = inv_zhukovskii_germ(300, interval=(lo, hi), precision_bits=2048)
    with mp.workprec(2048):
        z = mp.mpf(50)
        series_val = mp.fsum(c * z ** -k for k, c in enumerate(g.coeffs))
        m = (mp.mpf(lo.numerator) / lo.denominator + mp.mpf(hi.numerator) / hi.denominator) / 2
        h = (mp.mpf(hi.numerator) / hi.denominator - mp.mpf(lo.numerator) / lo.denominator) / 2
        zu = (z - m) / h
        direct = 1 / (zu + mp.sqrt(zu * zu - 1))
        # truncation error decays like (3.5/50)^(n+1), about 1e-347
        assert abs(series_val - direct) < mp.mpf(10) ** -340


def test_inv_zhukovskii_degenerate_interval():
    with pytest.raises(DegenerateInterval):
        inv_zhukovskii_germ(4, interval=(1, 1))


def test_germ_of_family_leading_coeffs(spec_z):
    f, f2, f3 = germ_of_family(spec_z, 8, precision_bits=512)
    with mp.workprec(512):
        c0 = 1 / mp.sqrt(6)
        c1 = mp.mpf(5) / (24 * mp.sqrt(6))
        assert _rel_err(f.coeffs[0], c0) < mp.mpf(10) ** -100
        assert _rel_err(f.coeffs[1], c1) < mp.mpf(10) ** -100
        # squared and cubed germs are consistent with f
        ff = germ_mul(f, f)
        for a, b in zip(ff.coeffs, f2.coeffs):
            assert abs(a - b) == 0
        fff = germ_mul(ff, f)
        for a, b in zip(fff.coeffs, f3.coeffs):
            assert abs(a - b) == 0


# p = 2, two conjugate pairs with the same exponent: multiplied as four
# complex linear factors, rounding would leave an imaginary residue
RAW_SAME_SIGN_PAIRS = {
    "class": "Z",
    "A": [["1.5", "1.1"], ["1.5", "-1.1"], ["-1.6", "0.7"], ["-1.6", "-0.7"]],
    "alpha": ["1/2", "1/2", "1/2", "1/2"],
}


@pytest.mark.parametrize("raw", [RAW_Z2, RAW_SAME_SIGN_PAIRS], ids=["z2", "same-sign-pairs"])
def test_germ_coefficients_are_real(raw):
    # conjugate-symmetric parameter sets force real Laurent coefficients
    f, _, _ = germ_of_family(validate_spec(raw), 12, precision_bits=512)
    for c in f.coeffs:
        assert mp.im(c) == 0


def test_oracle_agreement_single_interval(spec_z):
    n = 24
    prec = 512
    f, _, _ = germ_of_family(spec_z, n, precision_bits=prec)
    g = oracle_coeffs(spec_z, n, radius=10, precision_bits=prec)
    with mp.workprec(prec):
        scale = f.max_abs()
        for a, b in zip(f.coeffs, g.coeffs):
            assert abs(a - b) / scale < mp.mpf(10) ** -40


def test_oracle_agreement_two_interval(spec_z2):
    n = 24
    prec = 512
    f, _, _ = germ_of_family(spec_z2, n, precision_bits=prec)
    g = oracle_coeffs(spec_z2, n, radius=12, nodes=200, precision_bits=prec)
    with mp.workprec(prec):
        scale = f.max_abs()
        for a, b in zip(f.coeffs, g.coeffs):
            assert abs(a - b) / scale < mp.mpf(10) ** -40


# specs whose f_0 is not a product of real positive roots
BRANCH_SPECS = {
    # f_0 = sqrt(1.5 + i) / sqrt(1.5 - i)
    "unequal-pair": {"class": "Z", "A": [["1.5", "1"], ["1.5", "-1"]], "alpha": ["1/2", "-1/2"]},
    # f_0 = sqrt(-2) sqrt(3) = i sqrt(6)
    "negative-real": {"class": "Z", "A": [["-2", "0"], ["3", "0"]], "alpha": ["1/2", "1/2"]},
    "two-interval-unequal-pairs": {
        "class": "Z2",
        "A": [["1.2", "0.8"], ["1.2", "-0.8"]],
        "alpha": ["1/2", "-1/2"],
        "B": [["1.1", "1.1"], ["1.1", "-1.1"]],
        "beta": ["-1/2", "1/2"],
        "intervals": [["-3", "-2"], ["2", "3"]],
    },
}


@pytest.mark.parametrize("name", sorted(BRANCH_SPECS))
def test_oracle_agreement_complex_branch(name):
    spec = validate_spec(BRANCH_SPECS[name])
    n = 40
    prec = 512
    f, _, _ = germ_of_family(spec, n, precision_bits=prec)
    g = oracle_coeffs(spec, n, radius=12, nodes=200, precision_bits=prec)
    with mp.workprec(prec):
        scale = f.max_abs()
        for a, b in zip(f.coeffs, g.coeffs):
            assert abs(a - b) / scale < mp.mpf(10) ** -40


def test_oracle_radius_too_small(spec_z):
    with pytest.raises(RadiusTooSmall):
        oracle_coeffs(spec_z, 8, radius=1, precision_bits=256)


def test_closed_form_matches_series_tail(spec_z):
    f, _, _ = germ_of_family(spec_z, 30, precision_bits=512)
    with mp.workprec(512):
        z = mp.mpf(40)
        series_val = mp.fsum(c * z ** -k for k, c in enumerate(f.coeffs))
        direct = evaluate_closed_form(spec_z, z)
        assert abs(series_val - direct) < mp.mpf(10) ** -40


def test_json_roundtrip():
    g = inv_zhukovskii_germ(10, precision_bits=320)
    doc = g.to_json()
    back = LaurentGerm.from_json(doc)
    assert back.precision_bits == g.precision_bits
    assert len(back) == len(g)
    for a, b in zip(g.coeffs, back.coeffs):
        assert abs(a - b) < mp.mpf(2) ** -300


def test_default_precision_monotone():
    assert default_precision_bits(1) == 256
    assert default_precision_bits(100) > default_precision_bits(50) > 256


coeff_floats = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)


def _mk(coeffs):
    with mp.workprec(256):
        return LaurentGerm(tuple(mp.mpf(c) for c in coeffs), 256)


@given(
    a=st.lists(coeff_floats, min_size=4, max_size=8),
    b=st.lists(coeff_floats, min_size=4, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_germ_mul_commutes(a, b):
    ga, gb = _mk(a), _mk(b)
    ab, ba = germ_mul(ga, gb), germ_mul(gb, ga)
    for x, y in zip(ab.coeffs, ba.coeffs):
        # summation order differs, so equality only holds to working precision
        assert abs(x - y) <= mp.mpf(2) ** -230 * max(1, abs(x))


@given(
    head=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    tail=st.lists(coeff_floats, min_size=3, max_size=8),
    a=st.lists(coeff_floats, min_size=4, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_germ_inverse_round_trip(head, tail, a):
    b = _mk([head] + tail)
    ga = _mk(a)
    back = germ_mul(germ_div(ga, b), b)
    for x, y in zip(back.coeffs, ga.coeffs):
        assert abs(x - y) < mp.mpf(2) ** -180


@given(
    head=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    tail=st.lists(coeff_floats, min_size=3, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_germ_sqrt_squares_back(head, tail):
    g = _mk([head] + tail)
    r = germ_sqrt(g)
    assert r.coeffs[0] > 0
    sq = germ_mul(r, r)
    for x, y in zip(sq.coeffs, g.coeffs):
        assert abs(x - y) < mp.mpf(2) ** -170


def test_inverse_requires_nonzero_constant_term():
    g = _mk([0.0, 1.0, 2.0])
    with pytest.raises(ZeroConstantTerm):
        germ_div(_mk([1.0, 1.0, 1.0]), g)
    with pytest.raises(ZeroConstantTerm):
        germ_sqrt(g)


def test_germ_constant():
    g = germ_constant(3, 4, 256)
    assert len(g) == 5
    assert g.coeffs[0] == 3
    assert all(c == 0 for c in g.coeffs[1:])
