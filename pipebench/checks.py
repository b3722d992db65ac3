"""Checks of pipeline outputs against computations made apart from hplab.

Every function here takes plain outputs (coefficients, roots, values, arcs)
and either computes an error against an independent route or tests a
property the method must have.  None compares against a saved copy of an
earlier run.  ``test_checks.py`` feeds each check a deliberately wrong output
and expects it to be rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float
    ok: bool


def at_most(name: str, value, limit) -> Check:
    value = float(value)
    return Check(name, value, float(limit), bool(value <= limit))


def at_least(name: str, value, limit) -> Check:
    value = float(value)
    return Check(name, value, float(limit), bool(value >= limit))


# ---------------------------------------------------------------------------
# series and Hermite-Pade


def germ_error(coeffs, oracle, prec: int) -> float:
    """max_k |a_k - b_k| / max_k |a_k| between a germ and its oracle."""
    with mp.workprec(prec):
        scale = max(abs(mp.mpmathify(c)) for c in coeffs)
        worst = max(abs(mp.mpmathify(a) - mp.mpmathify(b)) for a, b in zip(coeffs, oracle))
        return float(worst / scale)


def contract(k: int, n: int) -> int:
    """Order the defect-one type-I system guarantees: (k - 1)(n + 1)."""
    return (k - 1) * (n + 1)


def trimmed_degree(coeffs, prec: int) -> int:
    """Degree after dropping leading coefficients below 2^(-prec/2) of the
    largest one, the numerical-zero rule for a kernel vector at ``prec``."""
    with mp.workprec(prec):
        cs = [abs(mp.mpmathify(c)) for c in coeffs]
        cut = max(cs) * mp.mpf(2) ** (-(prec // 2))
        deg = len(cs) - 1
        while deg > 0 and cs[deg] <= cut:
            deg -= 1
        return deg


def conjugate_mismatch(roots) -> float:
    """Worst distance from a root's conjugate to the nearest root, relative
    to max(1, |root|): 0 for the root set of a real polynomial."""
    rs = np.asarray([complex(r) for r in roots])
    worst = 0.0
    for r in rs:
        d = float(np.min(np.abs(rs - r.conjugate())))
        worst = max(worst, d / max(1.0, abs(r)))
    return worst


def rebuild_error(coeffs, roots, prec: int) -> float:
    """max_k |c_k - lead * e_k(roots)| / max_k |c_k|: the polynomial rebuilt
    from its roots, in mpmath at ``prec`` bits, against the coefficients."""
    deg = len(roots)
    with mp.workprec(prec):
        cs = [mp.mpmathify(c) for c in coeffs[: deg + 1]]
        prod = [mp.mpc(1)]
        for r in roots:
            r = mp.mpmathify(r)
            nxt = [mp.mpc(0)] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i + 1] += c
                nxt[i] -= r * c
            prod = nxt
        lead = cs[deg]
        scale = max(abs(c) for c in cs)
        return float(max(abs(c - lead * p) for c, p in zip(cs, prod)) / scale)


# ---------------------------------------------------------------------------
# Green functions


def segment_green(a: float, b: float, z) -> float:
    """Green function of the segment [a, b] with pole at infinity, as
    log max(|u + s|, |u - s|), s = sqrt(u^2 - 1), u = (z - m)/h; taking the
    larger root of the Zhukovskii equation makes the branch irrelevant."""
    with mp.workprec(106):
        m, h = (mp.mpf(a) + b) / 2, (mp.mpf(b) - a) / 2
        u = (mp.mpc(z) - m) / h
        s = mp.sqrt(u * u - 1)
        return float(mp.log(max(abs(u + s), abs(u - s))))


def closed_form_error(points, values, a: float, b: float) -> float:
    return max(abs(v - segment_green(a, b, z)) for z, v in zip(points, values))


def conjugate_asymmetry(values) -> float:
    """Worst |g(z) - g(conj z)| on a grid whose second half conjugates the
    first (the Green function of a conjugate-closed set is symmetric)."""
    vals = np.asarray(values, dtype=float)
    half = len(vals) // 2
    return float(np.max(np.abs(vals[:half] - vals[half: 2 * half])))


def circle_points(centers, radius: float, m: int = 16) -> list:
    ring = radius * np.exp(2j * math.pi * np.arange(m) / m)
    return [complex(c + w) for c in centers for w in ring]


def mean_value_residual(center_values, ring_values, m: int = 16) -> float:
    """Worst |g(c) - mean of g on the circle around c|.  ``ring_values`` are
    laid out as circle_points lays out the points.  A harmonic function
    satisfies this up to the trapezoid error (radius/distance)^m."""
    rings = np.asarray(ring_values, dtype=float).reshape(len(center_values), m)
    return float(np.max(np.abs(rings.mean(axis=1) - np.asarray(center_values))))


def distance_to_polylines(z: complex, arcs) -> float:
    return min(float(np.min(np.abs(np.asarray(a) - z))) for a in arcs)


def boundary_separation(arcs) -> float:
    """Minimum distance from the z-projection (zeta + 1/zeta)/2 of the traced
    compact to [-1, 1]: the 2|3 boundary against the 1|2 and 3|4 ones."""
    z = np.concatenate([(np.asarray(a) + 1 / np.asarray(a)) / 2 for a in arcs])
    x = np.clip(z.real, -1.0, 1.0)
    return float(np.min(np.abs(z - x)))
