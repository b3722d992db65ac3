"""Sheet functions u1..u4 of the four-sheeted covering built from the
two-sheeted surface w^2 = z^2 - 1 and an extremal continuum in the
uniformizing disk.

With g1 the Green function of [-1, 1] (log|zeta_1(z)|, |zeta_1| > 1) and gF
the Green function of the extremal continuum evaluated on the two sheet
images zeta_1 and zeta_2 = 1/zeta_1, the sheet functions are

    u1 = -2 gF(zeta_1) - g1      u2 = -2 gF(zeta_2) + g1
    u3 =  2 gF(zeta_2) + g1      u4 =  2 gF(zeta_1) - g1

They sum to zero identically, satisfy u1 <= u2 <= u3 <= u4 with strict
inequalities off the cuts, and u1 decays like -3 log|z| at infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .green import _green_many
from .scurve import QuadraticDifferential
from .surface import zeta_branch


# points sampled on each chord between skeleton points of the continuum
_CHORD_NODES = 64

# grid points closer than this to a cut are redrawn
_GRID_MARGIN = 1e-3

# candidates tested per block by default_grid: caps the distance array at
# 16 x (projection nodes) entries; 256-row blocks were no faster on a
# 10,000-point grid and raised the peak memory of a 250-point one by 1.7 MB
_GRID_BLOCK = 16


class NuttallError(RuntimeError):
    pass


@dataclass(frozen=True)
class NuttallReport:
    grid: np.ndarray
    u: np.ndarray  # shape (npts, 4)
    min_gaps: tuple  # minima of (u2-u1, u3-u2, u4-u3) over the grid
    max_abs_sum: float
    slope_u1: float
    slope_stderr: float


def _cut_distance(zs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Distance of each point of ``zs`` to the visible cuts: the base segment
    [-1, 1] and the z-projections ``nodes`` of the continuum
    (:func:`_projection_nodes`)."""
    d = np.abs(zs - np.clip(zs.real, -1.0, 1.0))
    if len(nodes):
        d = np.minimum(d, np.abs(zs[:, None] - nodes).min(axis=1))
    return d


def _projection_nodes(qd: QuadraticDifferential) -> np.ndarray:
    """z-projections of straight chords between the skeleton points of the
    continuum (its endpoints and double zeros): a conservative sampling of
    where the lifted cuts can sit."""
    nodes = []
    ends = list(qd.denominator_roots) + list(qd.double_zeros)
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            for t in np.linspace(0, 1, _CHORD_NODES):
                nodes.append(ends[i] + t * (ends[j] - ends[i]))
    zeta = np.asarray(nodes)
    return (zeta + 1 / zeta) / 2


def _u_batch(qd: QuadraticDifferential, zs: np.ndarray) -> np.ndarray:
    zeta1 = zeta_branch(zs)
    g1 = np.log(np.abs(zeta1))
    gf1, gf2 = np.split(_green_many(qd, np.concatenate([zeta1, 1 / zeta1])), 2)
    u1 = -2 * gf1 - g1
    u2 = -2 * gf2 + g1
    u3 = 2 * gf2 + g1
    u4 = 2 * gf1 - g1
    return np.stack([u1, u2, u3, u4], axis=1)


def default_grid(qd: QuadraticDifferential, n: int = 10_000, seed: int = 7,
                 box: float = 4.0) -> np.ndarray:
    """Deterministic quasi-random grid in a box around the cuts, excluding
    points within ``_GRID_MARGIN`` of the cuts themselves."""
    rng = np.random.default_rng(seed)
    nodes = _projection_nodes(qd)
    pts = []
    count = 0
    while count < n:
        cand = (rng.random(2 * n) * 2 - 1) * box + 1j * (rng.random(2 * n) * 2 - 1) * box
        for start in range(0, len(cand), _GRID_BLOCK):
            block = cand[start:start + _GRID_BLOCK]
            pts.append(block[_cut_distance(block, nodes) > _GRID_MARGIN][: n - count])
            count += len(pts[-1])
            if count == n:
                break
    return np.concatenate(pts) if pts else np.empty(0, dtype=complex)


def nuttall_report(
    qd: QuadraticDifferential,
    grid: np.ndarray | None = None,
    n: int = 10_000,
    slope_radii=(1e6, 1e7),
    slope_rays: int = 8,
    slope_samples: int = 12,
) -> NuttallReport:
    """Grid verification of the sheet ordering.

    Checks performed on the returned data: min over the grid of each
    consecutive gap (positive iff the strict ordering holds off the cuts),
    the worst |u1+u2+u3+u4|, and the least-squares slope of u1 against
    log|z| on rays with |z| between ``slope_radii``.
    """
    if grid is None:
        grid = default_grid(qd, n)
    u = _u_batch(qd, grid)
    gaps = np.diff(u, axis=1)
    min_gaps = tuple(float(g) for g in gaps.min(axis=0))
    max_abs_sum = float(np.max(np.abs(u.sum(axis=1))))

    r0, r1 = slope_radii
    radii = np.exp(np.linspace(math.log(r0), math.log(r1), slope_samples))
    angles = 2 * math.pi * (np.arange(slope_rays) + 0.37) / slope_rays
    zs = np.concatenate([radii * cmath.exp(1j * ang) for ang in angles])
    xs = np.tile(np.log(radii), slope_rays)
    ys = _u_batch(qd, zs)[:, 0]
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, res, _, _ = np.linalg.lstsq(a, ys, rcond=None)
    fit = a @ coef
    dof = max(len(xs) - 2, 1)
    stderr = float(
        math.sqrt(np.sum((ys - fit) ** 2) / dof / np.sum((xs - xs.mean()) ** 2))
    )
    return NuttallReport(
        grid=grid,
        u=u,
        min_gaps=min_gaps,
        max_abs_sum=max_abs_sum,
        slope_u1=float(coef[0]),
        slope_stderr=stderr,
    )
