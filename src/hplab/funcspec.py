"""Parameter bundles for the two germ classes and their derived branch data.

Single-interval specs carry 2p branch parameters A_j with exponents +-1/2
attached to the interval [-1, 1]; two-interval specs additionally carry 2q
parameters B_k and a pair of disjoint real intervals.  All structural checks
(moduli, conjugate symmetry, integer exponent sum) are exact: inputs are
parsed as decimal strings into rationals, never rounded through binary
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class SpecError(ValueError):
    """Invalid function-class parameters."""


class ModulusTooSmall(SpecError):
    pass


class ExponentSumNotInteger(SpecError):
    pass


class NotConjugateSymmetric(SpecError):
    pass


class DuplicateBranchParameter(SpecError):
    pass


class BadIntervalOrder(SpecError):
    pass


ExactComplex = tuple[Fraction, Fraction]

HALF = Fraction(1, 2)


def _parse_exact(value) -> ExactComplex:
    """Parse a decimal string, number, or [re, im] pair into exact rationals."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise SpecError(f"complex entry must be [re, im], got {value!r}")
        return (_parse_real(value[0]), _parse_real(value[1]))
    return (_parse_real(value), Fraction(0))


def _parse_real(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"cannot parse {value!r} as an exact number") from exc
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise SpecError(f"non-finite value {value!r}")
        return Fraction(value)
    raise SpecError(f"cannot parse {value!r} as an exact number")


def _parse_exponent(value) -> Fraction:
    a = _parse_real(value)
    if a not in (HALF, -HALF):
        raise SpecError(f"exponent must be +1/2 or -1/2, got {value!r}")
    return a


def _conj(x: ExactComplex) -> ExactComplex:
    return (x[0], -x[1])


def _to_complex(x: ExactComplex) -> complex:
    return complex(float(x[0]), float(x[1]))


@dataclass(frozen=True)
class FunctionSpec:
    """Validated parameters of a germ class member.

    ``a_exact`` / ``b_exact`` hold the branch parameters as exact rational
    (re, im) pairs; ``alpha`` / ``beta`` are exact +-1/2 exponents paired
    index-by-index with them.
    """

    class_tag: str  # "single-interval" | "two-interval"
    a_exact: tuple[ExactComplex, ...]
    alpha: tuple[Fraction, ...]
    b_exact: tuple[ExactComplex, ...] = ()
    beta: tuple[Fraction, ...] = ()
    intervals: tuple[tuple[Fraction, Fraction], ...] = ()

    @property
    def p(self) -> int:
        return len(self.a_exact) // 2

    @property
    def q(self) -> int:
        return len(self.b_exact) // 2

    @property
    def A(self) -> tuple[complex, ...]:
        return tuple(_to_complex(x) for x in self.a_exact)

    @property
    def B(self) -> tuple[complex, ...]:
        return tuple(_to_complex(x) for x in self.b_exact)

    @property
    def interval_1(self) -> tuple[Fraction, Fraction]:
        if self.class_tag == "single-interval":
            return (Fraction(-1), Fraction(1))
        return self.intervals[0]

    @property
    def interval_2(self) -> tuple[Fraction, Fraction] | None:
        if self.class_tag == "two-interval":
            return self.intervals[1]
        return None


@dataclass(frozen=True)
class BranchData:
    """Geometric data derived from a spec: branch points in the z-plane and
    the images of the A_j inside the unit disk of the uniformizing plane."""

    z_branch_points: tuple[complex, ...]
    zeta_images: tuple[complex, ...]
    a_points: tuple[complex, ...]
    b_points: tuple[complex, ...] = ()


def _check_family(values: tuple[ExactComplex, ...], label: str, require_nonreal: bool):
    if len(values) == 0 or len(values) % 2 != 0:
        raise SpecError(f"{label} must contain an even, positive number of entries")
    for v in values:
        if v[0] * v[0] + v[1] * v[1] <= 1:
            raise ModulusTooSmall(f"|{label}_j| must exceed 1, got {_to_complex(v)}")
        if require_nonreal and v[1] == 0:
            raise SpecError(f"two-interval class requires non-real {label}_j, got {_to_complex(v)}")
    if len(set(values)) != len(values):
        raise DuplicateBranchParameter(f"duplicate entries in {label}")
    pool = set(values)
    for v in values:
        if _conj(v) not in pool:
            raise NotConjugateSymmetric(
                f"{label} set is not closed under conjugation: missing conjugate of {_to_complex(v)}"
            )


def _canonical_order(values, exponents):
    """Sort conjugate pairs adjacent (positive-imaginary first), keeping each
    exponent attached to its parameter."""
    items = list(zip(values, exponents))
    items.sort(key=lambda it: (it[0][0], abs(it[0][1]), -it[0][1]))
    return tuple(v for v, _ in items), tuple(e for _, e in items)


def validate_spec(raw: dict) -> FunctionSpec:
    """Validate a raw parameter bundle and return a normalized FunctionSpec.

    Raises a SpecError subclass naming the violated condition.
    """
    if not isinstance(raw, dict):
        raise SpecError("spec document must be a mapping")
    tag = raw.get("class", "Z")
    if tag in ("Z", "single-interval"):
        class_tag = "single-interval"
    elif tag in ("Z2", "two-interval"):
        class_tag = "two-interval"
    else:
        raise SpecError(f"unknown class tag {tag!r}")

    a_vals = tuple(_parse_exact(x) for x in raw.get("A", ()))
    alphas = tuple(_parse_exponent(x) for x in raw.get("alpha", ()))
    if len(a_vals) != len(alphas):
        raise SpecError("A and alpha must have equal length")

    two = class_tag == "two-interval"
    _check_family(a_vals, "A", require_nonreal=two)

    b_vals: tuple[ExactComplex, ...] = ()
    betas: tuple[Fraction, ...] = ()
    intervals: tuple[tuple[Fraction, Fraction], ...] = ()
    if two:
        b_vals = tuple(_parse_exact(x) for x in raw.get("B", ()))
        betas = tuple(_parse_exponent(x) for x in raw.get("beta", ()))
        if len(b_vals) != len(betas):
            raise SpecError("B and beta must have equal length")
        _check_family(b_vals, "B", require_nonreal=True)

        iv = raw.get("intervals")
        if not iv or len(iv) != 2:
            raise BadIntervalOrder("two-interval class needs two intervals")
        e1, e2 = (_parse_real(x) for x in iv[0])
        e3, e4 = (_parse_real(x) for x in iv[1])
        if not (e1 < e2 < e3 < e4):
            raise BadIntervalOrder(f"interval endpoints must be strictly increasing, got {iv}")
        intervals = ((e1, e2), (e3, e4))
    elif raw.get("B") or raw.get("beta"):
        raise SpecError("B/beta are only valid for the two-interval class")

    total = sum(alphas, Fraction(0)) + sum(betas, Fraction(0))
    if total.denominator != 1:
        raise ExponentSumNotInteger(f"exponent sum {total} is not an integer")

    a_vals, alphas = _canonical_order(a_vals, alphas)
    if two:
        b_vals, betas = _canonical_order(b_vals, betas)

    return FunctionSpec(
        class_tag=class_tag,
        a_exact=a_vals,
        alpha=alphas,
        b_exact=b_vals,
        beta=betas,
        intervals=intervals,
    )


def _zhukovskii_exact(v: ExactComplex) -> ExactComplex:
    """(v + 1/v) / 2 in exact rational arithmetic."""
    re, im = v
    d = re * re + im * im
    return ((re + re / d) / 2, (im - im / d) / 2)


def _affine(mid: Fraction, half: Fraction, v: ExactComplex) -> ExactComplex:
    return (mid + half * v[0], half * v[1])


def derived_points(spec: FunctionSpec) -> BranchData:
    """Branch points in the z-plane and zeta-plane images of the A_j.

    For the single-interval class a_j is the Zhukovskii image of A_j and the
    zeta image is 1/A_j.  For the two-interval class the a_j (resp. b_k) are
    obtained through the affine-rescaled inverse-Zhukovskii maps of the two
    intervals.
    """
    if spec.class_tag == "single-interval":
        a_pts = tuple(_to_complex(_zhukovskii_exact(v)) for v in spec.a_exact)
        zeta = tuple(1 / _to_complex(v) for v in spec.a_exact)
        zbp = (complex(-1), complex(1)) + a_pts
        return BranchData(z_branch_points=zbp, zeta_images=zeta, a_points=a_pts)

    (e1, e2), (e3, e4) = spec.intervals
    m1, h1 = (e1 + e2) / 2, (e2 - e1) / 2
    m2, h2 = (e3 + e4) / 2, (e4 - e3) / 2
    a_pts = tuple(_to_complex(_affine(m1, h1, _zhukovskii_exact(v))) for v in spec.a_exact)
    b_pts = tuple(_to_complex(_affine(m2, h2, _zhukovskii_exact(v))) for v in spec.b_exact)
    zeta = tuple(1 / _to_complex(v) for v in spec.a_exact)
    zbp = tuple(map(complex, map(float, (e1, e2, e3, e4)))) + a_pts + b_pts
    return BranchData(z_branch_points=zbp, zeta_images=zeta, a_points=a_pts, b_points=b_pts)
