"""Double-precision hot kernels: contour integrals of sqrt(V(t)/B(t)).

V and B are monic polynomials given by their root sets.  The integrand is
evaluated as sqrt(V*B)/B, with the square root of the full product tracked by
sign continuity from quadrature node to quadrature node, so a single branch
choice propagates along the whole path.  These integrals power the
Green-function evaluation, the Chebotarev period conditions, and the
sheet-function grids, so they carry numba ``@njit`` compilation.  Set
``HPLAB_NO_NUMBA=1`` to run the identical code paths as plain Python/numpy.
Their cost in the whole pipeline is measured by ``pipebench/run.py``
(workloads ``sheets-p2`` and ``green-p1-far``).

Panel lengths are capped by the distance to the nearest root, so the branch
never rotates far between nodes.  Segments ending at a root are integrated
under the substitution t = a + d*s^2, which removes the inverse-square-root
endpoint singularity of denominator roots exactly (and restores smoothness at
numerator roots, where the integrand vanishes like a square root).
"""

from __future__ import annotations

import os

import numpy as np

JIT_ENABLED = os.environ.get("HPLAB_NO_NUMBA", "") in ("", "0")
if JIT_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        JIT_ENABLED = False
if not JIT_ENABLED:
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# panel half-length stays below dist/5, so the 16-node rule resolves the
# nearest singularity with ~1e-22 relative panel error
_PANEL_FACTOR = 2.5
_MIN_STEP = 1e-7
_MAX_PANELS = 60000
_ENDPOINT_EPS = 1e-9


@njit(cache=True)
def _min_dist(num_roots, den_roots, z, e0, e1):
    best = 1e300
    for r in num_roots:
        if abs(r - e0) < _ENDPOINT_EPS or abs(r - e1) < _ENDPOINT_EPS:
            continue
        d = abs(z - r)
        if d < best:
            best = d
    for r in den_roots:
        if abs(r - e0) < _ENDPOINT_EPS or abs(r - e1) < _ENDPOINT_EPS:
            continue
        d = abs(z - r)
        if d < best:
            best = d
    return best


@njit(cache=True)
def _integrand(num_roots, den_roots, t, w_prev):
    """sqrt(V(t)/B(t)) continued from the previous sqrt value ``w_prev`` of
    the product V*B; returns (value, new sqrt state)."""
    prod = 1.0 + 0.0j
    den = 1.0 + 0.0j
    for r in num_roots:
        prod *= t - r
    for r in den_roots:
        d = t - r
        prod *= d
        den *= d
    ws = np.sqrt(prod)
    if w_prev != 0.0 and (ws * np.conj(w_prev)).real < 0.0:
        ws = -ws
    return ws / den, ws


@njit(cache=True)
def _segment(num_roots, den_roots, base, other, x0, x1, squared, w_in, glx, glw):
    """Integrate sqrt(V/B) over t(x) = base + (other-base)*x (or *x^2 when
    ``squared``) as x runs from x0 to x1.  ``w_in`` seeds the branch of
    sqrt(V*B); pass 0 to start from the principal branch.  Returns
    (integral, sqrt state at the last node)."""
    d = other - base
    total = 0.0 + 0.0j
    w = w_in
    if abs(d) == 0.0:
        return total, w
    direction = 1.0 if x1 >= x0 else -1.0
    speed = 2.0 * abs(d) if squared else abs(d)
    x = x0
    for _ in range(_MAX_PANELS):
        if direction * (x1 - x) <= 1e-300:
            break
        t_here = base + d * (x * x if squared else x)
        dist = _min_dist(num_roots, den_roots, t_here, base, other)
        step = dist / (speed * _PANEL_FACTOR)
        if step < _MIN_STEP:
            step = _MIN_STEP
        remaining = direction * (x1 - x)
        if step > remaining:
            step = remaining
        mid = x + direction * step / 2.0
        hh = direction * step / 2.0
        for q in range(len(glx)):
            xq = mid + hh * glx[q]
            if squared:
                t = base + d * xq * xq
                jac = 2.0 * d * xq
            else:
                t = base + d * xq
                jac = d
            val, w = _integrand(num_roots, den_roots, t, w)
            total += glw[q] * hh * val * jac
        x += direction * step
    return total, w


@njit(cache=True)
def path_integral(num_roots, den_roots, pts, sing, w0, glx, glw):
    """Integral of sqrt(V/B) along the polyline ``pts`` with branch
    continuity carried across segments.

    ``sing[i]`` marks waypoint i as a root (endpoint singularity); ``w0``
    seeds the branch of sqrt(V*B) (0 for principal at the first node).
    Returns (integral, final sqrt state).
    """
    total = 0.0 + 0.0j
    w = w0
    for i in range(len(pts) - 1):
        z0 = pts[i]
        z1 = pts[i + 1]
        if sing[i] and sing[i + 1]:
            zm = (z0 + z1) / 2.0
            part, w = _segment(num_roots, den_roots, z0, zm, 0.0, 1.0, True, w, glx, glw)
            total += part
            part, w = _segment(num_roots, den_roots, z1, zm, 1.0, 0.0, True, w, glx, glw)
            total += part
        elif sing[i]:
            part, w = _segment(num_roots, den_roots, z0, z1, 0.0, 1.0, True, w, glx, glw)
            total += part
        elif sing[i + 1]:
            part, w = _segment(num_roots, den_roots, z1, z0, 1.0, 0.0, True, w, glx, glw)
            total += part
        else:
            part, w = _segment(num_roots, den_roots, z0, z1, 0.0, 1.0, False, w, glx, glw)
            total += part
    return total, w


def _as_root_array(roots):
    arr = np.asarray(list(roots), dtype=np.complex128)
    return arr.reshape(-1)


def integrate_path(num_roots, den_roots, waypoints, singular=None, w0=0j):
    """Python-facing wrapper around :func:`path_integral`.

    Parameters
    ----------
    num_roots, den_roots : sequences of complex
        Roots of the monic numerator V and denominator B.
    waypoints : sequence of complex
        Polyline vertices; interior vertices must stay away from all roots.
    singular : sequence of bool, optional
        Marks waypoints that coincide with roots.  Default: detected by
        proximity (< 1e-9).
    w0 : complex
        Branch seed for sqrt(V*B) at the first quadrature node (0 = principal).
    """
    nr = _as_root_array(num_roots)
    dr = _as_root_array(den_roots)
    pts = np.asarray(list(waypoints), dtype=np.complex128)
    if singular is None:
        allr = np.concatenate([nr, dr])
        sing = np.array(
            [allr.size > 0 and np.min(np.abs(allr - p)) < _ENDPOINT_EPS for p in pts],
            dtype=np.bool_,
        )
    else:
        sing = np.asarray(singular, dtype=np.bool_)
    total, w = path_integral(nr, dr, pts, sing, complex(w0), _GL_X, _GL_W)
    return complex(total), complex(w)
