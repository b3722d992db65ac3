"""Double-precision hot kernels: contour integrals of sqrt(V(t)/B(t)).

V and B are monic polynomials given by their root sets.  The integrand is
evaluated as sqrt(V*B)/B.  These integrals power the Green-function
evaluation, the Chebotarev period conditions, and the sheet-function grids;
their cost in the whole pipeline is measured by ``pipebench/run.py``
(workloads ``sheets-p2`` and ``green-p1-far``).

Panel lengths are capped by the distance to the nearest root, so the branch
never rotates far between nodes.  Segments ending at a root are integrated
under the substitution t = a + d*s^2, which removes the inverse-square-root
endpoint singularity of denominator roots exactly (and restores smoothness at
numerator roots, where the integrand vanishes like a square root).

Each segment is done in two passes.  A scalar loop lays out the panels, since
each panel starts where the previous one ended.  Then all 16 Gauss-Legendre
nodes of all panels are evaluated at once as numpy arrays.  The branch of
sqrt(V*B) is carried by sign continuity: node i takes the principal root
times (-1)^k, where k counts the flips Re(ws_j conj(ws_{j-1})) < 0 at nodes
j <= i (a cumulative parity), and the first node is compared with the
incoming state when that is nonzero.  So a single branch choice propagates
along the whole path.
"""

from __future__ import annotations

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# panel half-length stays below dist/5, so the 16-node rule resolves the
# nearest singularity with ~1e-22 relative panel error
_PANEL_FACTOR = 2.5
_MIN_STEP = 1e-7
_MAX_PANELS = 60000
_ENDPOINT_EPS = 1e-9


def _min_dist(roots, z, e0, e1):
    best = 1e300
    for r in roots:
        if abs(r - e0) < _ENDPOINT_EPS or abs(r - e1) < _ENDPOINT_EPS:
            continue
        d = abs(z - r)
        if d < best:
            best = d
    return best


def _segment(num_roots, den_roots, base, other, x0, x1, squared, w_in):
    """Integrate sqrt(V/B) over t(x) = base + (other-base)*x (or *x^2 when
    ``squared``) as x runs from x0 to x1.  ``w_in`` seeds the branch of
    sqrt(V*B); pass 0 to start from the principal branch.  Returns
    (integral, sqrt state at the last node)."""
    d = other - base
    if abs(d) == 0.0:
        return 0j, w_in
    roots = num_roots + den_roots
    direction = 1.0 if x1 >= x0 else -1.0
    speed = 2.0 * abs(d) if squared else abs(d)
    mids, halves = [], []
    x = x0
    for _ in range(_MAX_PANELS):
        if direction * (x1 - x) <= 1e-300:
            break
        t_here = base + d * (x * x if squared else x)
        step = max(_min_dist(roots, t_here, base, other) / (speed * _PANEL_FACTOR), _MIN_STEP)
        step = min(step, direction * (x1 - x))
        mids.append(x + direction * step / 2.0)
        halves.append(direction * step / 2.0)
        x += direction * step

    hh = np.asarray(halves)[:, None]
    xq = (np.asarray(mids)[:, None] + hh * _GL_X).ravel()
    weights = (hh * _GL_W).ravel()
    if squared:
        t = base + d * xq * xq
        jac = 2.0 * d * xq
    else:
        t = base + d * xq
        jac = d
    prod = np.ones_like(t)
    den = np.ones_like(t)
    for r in num_roots:
        prod *= t - r
    for r in den_roots:
        f = t - r
        prod *= f
        den *= f
    ws = np.sqrt(prod)
    prev = np.concatenate(([w_in if w_in != 0 else ws[0]], ws[:-1]))
    ws[np.logical_xor.accumulate((ws * prev.conj()).real < 0.0)] *= -1.0
    total = np.sum(weights * (ws / den) * jac)
    return complex(total), complex(ws[-1])


def integrate_path(num_roots, den_roots, waypoints, w0=0j):
    """Integral of sqrt(V/B) along the polyline ``waypoints``, with branch
    continuity carried across segments.  Returns (integral, final sqrt
    state).

    Parameters
    ----------
    num_roots, den_roots : sequences of complex
        Roots of the monic numerator V and denominator B.
    waypoints : sequence of complex
        Polyline vertices; interior vertices must stay away from all roots.
        A vertex within _ENDPOINT_EPS of a root is taken as that root, and
        its segments are integrated under the squared substitution.
    w0 : complex
        Branch seed for sqrt(V*B) at the first quadrature node (0 = principal).
    """
    nr = [complex(r) for r in num_roots]
    dr = [complex(r) for r in den_roots]
    pts = [complex(p) for p in waypoints]
    allr = nr + dr
    sing = [bool(allr) and min(abs(r - p) for r in allr) < _ENDPOINT_EPS for p in pts]
    total = 0j
    w = complex(w0)
    for i in range(len(pts) - 1):
        z0, z1 = pts[i], pts[i + 1]
        if sing[i] and sing[i + 1]:
            zm = (z0 + z1) / 2.0
            part, w = _segment(nr, dr, z0, zm, 0.0, 1.0, True, w)
            total += part
            part, w = _segment(nr, dr, z1, zm, 1.0, 0.0, True, w)
        elif sing[i]:
            part, w = _segment(nr, dr, z0, z1, 0.0, 1.0, True, w)
        elif sing[i + 1]:
            part, w = _segment(nr, dr, z1, z0, 1.0, 0.0, True, w)
        else:
            part, w = _segment(nr, dr, z0, z1, 0.0, 1.0, False, w)
        total += part
    return total, w
