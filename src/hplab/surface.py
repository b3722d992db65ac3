"""Two-sheeted surface w^2 = z^2 - 1 and its uniformization by the zeta sphere.

The map z = (zeta + 1/zeta) / 2 identifies the exterior of the unit circle
with the first (physical) sheet and the punctured disk with the second sheet;
the unit circle itself double-covers the cut [-1, 1].  The inverse on sheet 1
is zeta = z + sqrt(z^2 - 1) with |zeta| > 1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np


class SurfaceError(ValueError):
    pass


class PoleAtInfinity(SurfaceError):
    """Requested a finite value of a function with a pole at this point."""


@dataclass(frozen=True)
class SurfacePoint:
    """Point of the surface: base coordinate ``z``, sheet 1 or 2, and its
    uniformizing coordinate ``zeta`` (|zeta| > 1 on sheet 1, < 1 on sheet 2).
    ``on_cut`` marks points of the double-covered segment [-1, 1], where the
    sheet label is a boundary-value convention rather than an open-sheet
    membership."""

    z: complex
    sheet: int
    zeta: complex
    on_cut: bool = False


def zeta_branch(z):
    """Inverse Zhukovskii map onto sheet 1: zeta = z + sqrt(z - 1) sqrt(z + 1),
    or z minus that root when the sum has modulus below 1, so |zeta| >= 1
    whatever branch the principal roots land on (signed zeros left of -1
    included).  Works elementwise on arrays; a scalar gives a complex."""
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z - 1) * np.sqrt(z + 1)
    zeta = z + s
    zeta = np.where(np.abs(zeta) < 1, z - s, zeta)
    return zeta if zeta.ndim else complex(zeta)


def lift(z: complex, sheet: int, cut_side: int = +1) -> SurfacePoint:
    """Lift a plane point to the chosen sheet.

    On the cut [-1, 1] the two sheets meet; ``cut_side`` (+1 upper boundary
    value, -1 lower) selects which boundary limit of zeta is reported.
    """
    if sheet not in (1, 2):
        raise SurfaceError(f"sheet must be 1 or 2, got {sheet}")
    z = complex(z)
    on_cut = z.imag == 0 and -1 <= z.real <= 1
    if on_cut:
        x = z.real
        # boundary value from the requested side: zeta = x ± i sqrt(1-x^2)
        y = cmath.sqrt(1 - x * x).real
        zeta = complex(x, cut_side * y)
        if sheet == 2:
            zeta = zeta.conjugate()
        return SurfacePoint(z=z, sheet=sheet, zeta=zeta, on_cut=True)
    zeta = zeta_branch(z)  # |zeta| > 1 off the cut
    if sheet == 2:
        zeta = 1 / zeta
    return SurfacePoint(z=z, sheet=sheet, zeta=zeta)


def project(zeta: complex) -> SurfacePoint:
    """Inverse of the uniformization: classify a zeta-sphere point."""
    zeta = complex(zeta)
    if zeta == 0:
        raise SurfaceError("zeta = 0 corresponds to infinity on sheet 2")
    z = (zeta + 1 / zeta) / 2
    r = abs(zeta)
    if abs(r - 1) < 1e-15:
        sheet = 1 if zeta.imag >= 0 else 2
        return SurfacePoint(z=z, sheet=sheet, zeta=zeta, on_cut=True)
    sheet = 1 if r > 1 else 2
    return SurfacePoint(z=z, sheet=sheet, zeta=zeta)


def green_signed(pt: SurfacePoint) -> float:
    """Green function of the cut [-1, 1] with pole at infinity of sheet 1,
    harmonically continued across the cut: log|zeta|, positive on sheet 1,
    negative on sheet 2, zero on the cut."""
    if pt.zeta == 0:
        raise PoleAtInfinity("logarithmic pole at infinity of sheet 2")
    return cmath.log(abs(pt.zeta)).real

