"""Nonstandard logarithmic equilibrium problem on an arc.

The interaction kernel on the base plane is

    K(z, t) = -2 log|z - t| + log|1 - Phi(z) Phi(t)|,

with Phi(z) = z + sqrt(z^2 - 1) (the branch with |Phi| > 1), and the external
field is V(z) = log|Phi(z)|.  The equilibrium measure lambda minimizes

    J(mu) = \\iint K dmu dmu + 2 \\int V dmu

over probability measures on the arc; at the minimum the total potential
P(z) = \\int K(z, t) dlambda(t) + V(z) is constant on the support.

The solver discretizes the arc into equal-arclength cells with a lumped
diagonal and solves the stationarity system directly.  A negative cell weight
means the arc is not the support of the equilibrium measure, and raises
NegativeDensity.  The reported residual re-evaluates the potential of the
piecewise-constant density honestly - with the logarithmic part integrated in
closed form over every cell - so it reflects the true discretization error and
shrinks under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite_pade import DiscreteMeasure
from .surface import zeta_branch

# interior rows per block of the residual evaluation: caps its temporaries at
# 32 x n entries, so peak memory stays that of the n x n system
_BLOCK_ROWS = 32

# share of the cells, centred on the arc, over which the residual is taken
_INTERIOR_FRACTION = 0.9


class EquilibriumError(RuntimeError):
    pass


class NegativeDensity(EquilibriumError):
    """The stationarity system gave a negative cell weight: the arc is not
    the support of the equilibrium measure."""


@dataclass(frozen=True)
class EnergyReport:
    nodes: np.ndarray
    weights: np.ndarray
    cell_lengths: np.ndarray
    energy: float
    modified_robin: float  # the constant value of the total potential
    residual_sup: float

    def as_measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(
            support=tuple(complex(z) for z in self.nodes),
            weights=tuple(float(w) for w in self.weights),
        )


def interaction_kernel(z: complex, t: complex) -> float:
    """K(z, t) for distinct points off the segment [-1, 1]."""
    return float(
        -2 * math.log(abs(complex(z) - complex(t)))
        + math.log(abs(1 - zeta_branch(z) * zeta_branch(t)))
    )


def external_field(z: complex) -> float:
    return math.log(abs(zeta_branch(z)))


def potential(measure: DiscreteMeasure, z: complex) -> float:
    """Total potential P(z) = \\int K(z, t) dmu(t) + V(z) of a discrete
    measure."""
    total = 0.0
    for t, w in zip(measure.support, measure.weights):
        total += w * interaction_kernel(z, complex(t))
    return total + external_field(z)


def potential_energy(measure: DiscreteMeasure) -> float:
    """J(mu) for a discrete measure, over off-diagonal pairs only, since point
    masses have infinite self-interaction."""
    pts = [complex(t) for t in measure.support]
    w = np.asarray(measure.weights)
    total = 0.0
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i != j:
                total += w[i] * w[j] * interaction_kernel(pts[i], pts[j])
    return float(total + 2 * np.dot(w, [external_field(t) for t in pts]))


def _cells(arc: np.ndarray, n: int):
    """Split a polyline into n equal-arclength cells; returns (midpoints,
    cell endpoints as (start, end) complex pairs, lengths)."""
    arc = np.asarray(arc, dtype=complex)
    seg = np.abs(np.diff(arc))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total == 0:
        raise EquilibriumError("arc has zero length")
    bounds = np.linspace(0.0, total, n + 1)
    pos = np.interp(bounds, s, np.arange(len(arc)))
    verts = np.interp(pos, np.arange(len(arc)), arc.real) + 1j * np.interp(
        pos, np.arange(len(arc)), arc.imag
    )
    mids_s = (bounds[:-1] + bounds[1:]) / 2
    posm = np.interp(mids_s, s, np.arange(len(arc)))
    mids = np.interp(posm, np.arange(len(arc)), arc.real) + 1j * np.interp(
        posm, np.arange(len(arc)), arc.imag
    )
    lengths = np.diff(bounds)
    cells = list(zip(verts[:-1], verts[1:]))
    return mids, cells, lengths


def _log_cell_integral(z, a, b):
    """Exact \\int_cell -2 log|z - t| |dt| over the straight cell [a, b].

    Broadcasts over arrays of z, a and b; scalars give a float.  A
    zero-length cell gives 0."""
    z, a, b = (np.asarray(x, dtype=complex) for x in (z, a, b))
    L = np.abs(b - a)
    empty = L == 0
    e = np.where(empty, 1, b - a) / np.where(empty, 1, L)
    d = (z - a) / e
    xi, eta = d.real, np.abs(d.imag)
    pos = eta > 0
    eta_safe = np.where(pos, eta, 1)

    def anti(u):
        du = u - xi
        r2 = du * du + eta * eta
        val = np.where(r2 == 0, 0, du * np.log(np.where(r2 == 0, 1, r2))) - 2 * u
        return val + np.where(pos, 2 * eta * np.arctan(du / eta_safe), 0)

    out = np.where(empty, 0.0, anti(0.0) - anti(L))
    return out if out.ndim else float(out)


def solve_equilibrium(arc, n: int = 400) -> EnergyReport:
    """Equilibrium measure of the kernel-plus-field problem on the arc.

    ``arc`` is a polyline (sequence of complex points) staying off [-1, 1].
    The density is piecewise constant on n equal-arclength cells; a negative
    cell weight raises NegativeDensity.  The residual is the sup over the
    central ``_INTERIOR_FRACTION`` of the cell midpoints of the deviation of
    the honestly re-evaluated total potential from its weighted mean.  That
    re-evaluation takes the interior rows in blocks of ``_BLOCK_ROWS``: per
    block, one array of exact cell integrals of -2 log|z - t| times the
    densities, plus log|1 - Phi(z) Phi(t)| times the weights, plus the field.
    """
    mids, cells, lengths = _cells(np.asarray(arc, dtype=complex), n)
    phis = zeta_branch(mids)
    # log|1 - Phi(z) Phi(t)|, kept for the residual rows
    prod = np.multiply.outer(phis, phis)
    np.subtract(1, prod, out=prod)
    log_phi = np.abs(prod)
    del prod
    np.log(log_phi, out=log_phi)
    v = np.log(np.abs(phis))

    # stationarity: G w + v = c 1 on the support, sum w = 1; G is built in
    # place in the system matrix
    sys = np.empty((n + 1, n + 1))
    g = sys[:n, :n]
    np.abs(np.subtract.outer(mids, mids), out=g)
    np.fill_diagonal(g, 1.0)
    np.log(g, out=g)
    g *= -2
    g += log_phi
    # lumped diagonal: cell-average of -2 log|z - t| at the midpoint
    np.fill_diagonal(g, 2 * (1 - np.log(lengths / 2)) + np.diagonal(log_phi))
    sys[:n, n] = -1.0
    sys[n, :n] = 1.0
    sys[n, n] = 0.0
    rhs = np.concatenate([-v, [1.0]])
    sol = np.linalg.solve(sys, rhs)
    w = sol[:n]
    c = float(sol[n])
    if np.any(w < 0):
        raise NegativeDensity(
            f"cell weight {float(w.min()):.3e} < 0: the arc is not the support"
        )

    energy = float(w @ g @ w + 2 * v @ w)

    # honest residual: piecewise-constant density, exact log integrals
    lo = int(n * (1 - _INTERIOR_FRACTION) / 2)
    hi = n - lo
    a, b = np.asarray(cells).T
    dens = w / lengths
    pvals = np.empty(hi - lo)
    for start in range(lo, hi, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, hi))
        pvals[rows.start - lo:rows.stop - lo] = (
            _log_cell_integral(mids[rows, None], a, b) @ dens
            + log_phi[rows] @ w
            + v[rows]
        )
    ref = float(np.average(pvals, weights=w[lo:hi]))
    residual = float(np.max(np.abs(pvals - ref)))

    return EnergyReport(
        nodes=mids,
        weights=w,
        cell_lengths=lengths,
        energy=energy,
        modified_robin=c,
        residual_sup=residual,
    )


def measure_distance(mu: DiscreteMeasure, ref: DiscreteMeasure) -> float:
    """Distance between a discrete measure and a reference measure supported
    on (or near) a real segment of the base plane.

    The reference segment is the real hull of the reference support.  The
    value is the Kolmogorov-Smirnov distance of the distribution functions
    projected onto it plus the ``mu`` mass sitting farther than 10% of its
    length from it.  Identical measures give 0; a point mass at the midpoint
    against the uniform measure gives 0.5.
    """
    zs = mu.projected_z()
    zr = ref.projected_z()
    a, b = float(np.min(zr.real)), float(np.max(zr.real))
    if b <= a:
        raise EquilibriumError("reference measure must span a nondegenerate segment")
    band = 0.1 * (b - a)

    wm = np.asarray(mu.weights)
    wr = np.asarray(ref.weights)
    proj = np.clip(zs.real, a, b)
    off = np.abs(zs - proj)
    stray = float(wm[off > band].sum())

    xm = proj
    xr = np.clip(zr.real, a, b)
    grid = np.unique(np.concatenate([xm, xr]))
    cdf_m = np.array([wm[xm <= x].sum() for x in grid])
    cdf_r = np.array([wr[xr <= x].sum() for x in grid])
    ks = float(np.max(np.abs(cdf_m - cdf_r)))
    return ks + stray
