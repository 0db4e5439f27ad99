"""The Stieltjes transform at a single point, used only as the density's
independent reference.

`density` tracks the physical branch of the cubic along the real axis from
the right; `stieltjes` continues it from the -1/z asymptote down a straight
path to z, so the two agree only if both follow the same root.
"""
import numpy as np

from randcorr.errors import NumericalError, ValidationError
from randcorr.spectral import _cubic_coeffs, _follow, _roots_batch


def cubic_residual(alpha: float, z, s) -> float:
    """Relative residual of the defining cubic at (z, s)."""
    a3, a2, a1, a0 = _cubic_coeffs(alpha, z)
    num = np.abs(a3 * s**3 + a2 * s**2 + a1 * s + a0)
    den = np.abs(a3 * s**3) + np.abs(a2 * s**2) + np.abs(a1 * s) + np.abs(a0)
    return float(np.max(num / den))


def stieltjes(alpha: float, z: complex) -> complex:
    """The Stieltjes transform at a single z with Im z > 0.

    The physical branch is continued from the -1/z asymptote down a
    straight path to z; the returned root has Im s > 0 and satisfies the
    cubic to 1e-12 (relative).
    """
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    z = complex(z)
    if z.imag <= 0:
        raise ValidationError("stieltjes requires Im z > 0")
    anchor = 1e9j * max(1.0, abs(z))
    ts = np.geomspace(1.0, 1e-9, 60)
    path = z + (anchor - z) * ts
    path = np.append(path, z)
    roots = _roots_batch(alpha, path)
    s = _follow(roots, -1.0 / path[0])[-1]
    if s.imag <= 0:
        raise NumericalError("no upper-half-plane root found",
                             detail={"z": z, "roots": roots[-1].tolist()})
    res = cubic_residual(alpha, z, s)
    if res > 1e-12:
        raise NumericalError(f"cubic residual {res:.2e} above tolerance",
                             detail={"z": z})
    return complex(s)
