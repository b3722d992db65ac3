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

A polyline is split into segments (:func:`_segments`), and each segment's
panels are laid out one after another, since each panel starts where the
previous one ended.  :func:`integrate_path` lays out its segments with a
scalar loop and evaluates them one at a time, carrying the branch from each
to the next.  :func:`integrate_paths` advances the segments of all its paths
in lockstep, one numpy step per panel, so a batch costs as many steps as its
longest segment has panels; it then evaluates the paths in blocks of
``_BLOCK_PATHS``, so that the node temporaries stay small.  Both evaluate
with :func:`_sum_nodes`, which takes all 16 Gauss-Legendre nodes of all its
panels at once as numpy arrays.

The branch of sqrt(V*B) is carried by sign continuity: node i takes the
principal root times (-1)^k, where k counts the flips
Re(ws_j conj(ws_{j-1})) < 0 at nodes j <= i of the same path (a cumulative
parity, restarted at the first node of each path), and the first node is
compared with the incoming state when that is nonzero.  So a single branch
choice propagates along the whole path.  The weighted node values are
summed panel by panel, and the panel sums path by path with ``np.bincount``
in panel order, so a path's integral does not depend on the other paths of
its batch.
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

# paths whose nodes integrate_paths evaluates together: the block's largest
# temporary, one complex value per node and root, stays near 1 MB on the
# p = 2 grids of pipebench
_BLOCK_PATHS = 64


def _segments(pts, sing):
    """Segments (base, other, x0, x1, squared) of the polyline ``pts``: each
    is t(x) = base + (other-base)*x (or *x^2 when ``squared``) as x runs from
    x0 to x1.  A vertex within _ENDPOINT_EPS of a root (``sing``) is taken
    as that root and its segments use the squared substitution from it; a
    segment joining two roots is split at its midpoint.  Zero-length
    segments are dropped."""
    segs = []
    for z0, z1, s0, s1 in zip(pts, pts[1:], sing, sing[1:]):
        if s0 and s1:
            zm = (z0 + z1) / 2.0
            segs += [(z0, zm, 0.0, 1.0, True), (z1, zm, 1.0, 0.0, True)]
        elif s0:
            segs.append((z0, z1, 0.0, 1.0, True))
        elif s1:
            segs.append((z1, z0, 1.0, 0.0, True))
        else:
            segs.append((z0, z1, 0.0, 1.0, False))
    return [s for s in segs if s[1] != s[0]]


def _layout(roots, base, other, x0, x1, squared):
    """Panels (midpoints, half-lengths) of one segment, in order along it.
    A panel's length is capped by the distance from its start to the nearest
    root that is not an end of the segment."""
    d = other - base
    direction = 1.0 if x1 >= x0 else -1.0
    speed = 2.0 * abs(d) if squared else abs(d)
    # only a squared segment can end at a root (_segments)
    near = [r for r in roots if abs(r - base) >= _ENDPOINT_EPS
            and abs(r - other) >= _ENDPOINT_EPS] if squared else roots
    scale = speed * _PANEL_FACTOR
    mids, halves = [], []
    x = x0
    for _ in range(_MAX_PANELS):
        left = direction * (x1 - x)
        if left <= 1e-300:
            break
        t_here = base + d * (x * x if squared else x)
        dist = min([abs(t_here - r) for r in near], default=1e300)
        step = min(max(dist / scale, _MIN_STEP), left)
        half = direction * step / 2.0
        mids.append(x + half)
        halves.append(half)
        x += direction * step
    return mids, halves


def _layout_lockstep(r, base, other, x0, x1, squared):
    """Panels of many segments, given as arrays of the :func:`_segments`
    fields, by the rule of :func:`_layout` advanced for all segments at once;
    ``r`` is the array of all roots.  Returns (segment index, midpoint,
    half-length) per panel, segment after segment and in order along each."""
    d = other - base
    direction = np.where(x1 >= x0, 1.0, -1.0)
    scale = np.where(squared, 2.0 * np.abs(d), np.abs(d)) * _PANEL_FACTOR
    skip = (np.abs(r - base[:, None]) < _ENDPOINT_EPS) | (np.abs(r - other[:, None]) < _ENDPOINT_EPS)
    seg = np.arange(len(base))
    x = x0
    segs, mids, halves = [], [], []
    for _ in range(_MAX_PANELS):
        left = direction * (x1 - x)
        live = left > 1e-300
        if not live.all():
            seg, x, left = seg[live], x[live], left[live]
            base, d, direction, x1 = base[live], d[live], direction[live], x1[live]
            scale, squared, skip = scale[live], squared[live], skip[live]
            if not len(seg):
                break
        t_here = base + d * np.where(squared, x * x, x)
        dist = np.where(skip, 1e300, np.abs(t_here[:, None] - r)).min(axis=1, initial=1e300)
        step = np.minimum(np.maximum(dist / scale, _MIN_STEP), left)
        half = direction * step / 2.0
        segs.append(seg)
        mids.append(x + half)
        halves.append(half)
        x = x + direction * step
    segs = np.concatenate(segs)
    order = np.argsort(segs, kind="stable")
    return segs[order], np.concatenate(mids)[order], np.concatenate(halves)[order]


def _sum_nodes(roots, nv, mid, half, base, d, squared, path=None, npaths=1, w0=0j):
    """Integrals of sqrt(V/B) over panels grouped into paths.

    ``roots`` is an array of the roots of V (the first ``nv``) and then of
    B.  Panel i has midpoint mid[i] and half-length half[i] in x and belongs
    to path[i] in 0 .. npaths-1, or to the one path when ``path`` is None;
    the panels come path after path, in order along each.  It lies on
    t(x) = base + d*x (x^2 where ``squared``), where base, d and squared are
    scalars shared by all panels or columns of shape (P, 1), one row per
    panel.  Each path starts on the principal branch; the one path starts on
    the branch nearer to ``w0`` when that is nonzero.  Returns (the npaths
    integrals, sqrt state at the last node, w0 if there are no panels).
    """
    hh = half[:, None]
    xq = mid[:, None] + hh * _GL_X
    # x^2 or x, and the node weights times 2x or 1: the Jacobian of the
    # squared substitution, save for the factor 2 applied to each panel sum
    weights = hh * _GL_W
    if isinstance(squared, np.ndarray):
        u = np.where(squared, xq, 1.0)
        xs, weights = xq * u, weights * u
    elif squared:
        xs, weights = xq * xq, weights * xq
    else:
        xs = xq
    t = base + d * xs
    # t - r for every root, numerator roots first: the products run over the
    # leading axis, in the order of the roots
    diff = t - roots[:, None, None]
    ws = np.sqrt(np.multiply.reduce(diff, axis=0))
    den = np.multiply.reduce(diff[nv:], axis=0)
    # cumulative parity of the sign flips, restarted at the first node of
    # each path
    flat = ws.ravel()
    flip = np.zeros(len(flat), dtype=bool)
    np.less((flat[1:] * flat[:-1].conj()).real, 0.0, out=flip[1:])
    parity = np.logical_xor.accumulate(flip).reshape(ws.shape)
    offset = parity[:1, :1] if path is None else parity[np.searchsorted(path, path), :1]
    if w0 != 0 and (complex(flat[0]) * w0.conjugate()).real < 0.0:
        offset = ~offset
    np.negative(ws, out=ws, where=parity != offset)
    panel = (np.add.reduce(weights * (ws / den), axis=1, keepdims=True) * (d * (1.0 + squared))).ravel()
    if path is None:
        totals = panel.sum(keepdims=True)
    else:
        totals = np.bincount(path, panel.real, npaths) + 1j * np.bincount(path, panel.imag, npaths)
    return totals, (complex(flat[-1]) if len(flat) else w0)


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
    roots = nr + dr
    rr = np.array(roots, dtype=complex)
    pts = [complex(p) for p in waypoints]
    sing = [bool(roots) and min([abs(r - p) for r in roots]) < _ENDPOINT_EPS for p in pts]
    total, w = 0j, complex(w0)
    for base, other, x0, x1, squared in _segments(pts, sing):
        mid, half = np.array(_layout(roots, base, other, x0, x1, squared))
        part, w = _sum_nodes(rr, len(nr), mid, half, base, other - base, squared, w0=w)
        total += complex(part[0])
    return total, w


def integrate_paths(num_roots, den_roots, paths) -> np.ndarray:
    """Integrals of sqrt(V/B) along each polyline of ``paths``, each starting
    on the principal branch: the first values of :func:`integrate_path` with
    w0 = 0, for a batch of paths at once (module docstring)."""
    nr = [complex(r) for r in num_roots]
    dr = [complex(r) for r in den_roots]
    rr = np.array(nr + dr, dtype=complex)
    pts = [complex(p) for path in paths for p in path]
    sing = (np.abs(np.array(pts)[:, None] - rr).min(axis=1, initial=np.inf) < _ENDPOINT_EPS).tolist()
    owner, segs, k = [], [], 0
    for i, path in enumerate(paths):
        s = _segments(pts[k:k + len(path)], sing[k:k + len(path)])
        k += len(path)
        owner += [i] * len(s)
        segs += s
    out = np.zeros(len(paths), dtype=complex)
    if not segs:
        return out
    base, other, x0, x1, squared = (np.asarray(c) for c in zip(*segs))
    seg, mid, half = _layout_lockstep(rr, base, other, x0, x1, squared)
    d = other - base
    path = np.asarray(owner)[seg]
    for first in range(0, len(paths), _BLOCK_PATHS):
        lo, hi = np.searchsorted(path, [first, first + _BLOCK_PATHS])
        n = min(_BLOCK_PATHS, len(paths) - first)
        s = seg[lo:hi, None]
        out[first:first + n], _ = _sum_nodes(rr, len(nr), mid[lo:hi], half[lo:hi], base[s], d[s],
                                             squared[s], path[lo:hi] - first, n)
    return out
