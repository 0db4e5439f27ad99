"""The Stieltjes transform at a single point, used only as the density's
independent reference, with the reference root finder and branch tracker.

`density` tracks the physical branch of the cubic along the real axis from
the right; `stieltjes` continues it from the -1/z asymptote down a straight
path to z, so the two agree only if both follow the same root.  It finds
the roots as companion-matrix eigenvalues and follows the branch one point
at a time, so it shares no root or tracking code with `density`.
"""
import numpy as np

from randcorr.errors import NumericalError, ValidationError
from randcorr.spectral import _cubic_coeffs


def companion_roots(alpha: float, zs: np.ndarray) -> np.ndarray:
    """All three cubic roots per z, via batched companion eigenvalues,
    polished with one Newton step."""
    a3, a2, a1, a0 = _cubic_coeffs(alpha, zs)
    n = len(zs)
    comp = np.zeros((n, 3, 3), dtype=complex)
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 0, 2] = -a0 / a3
    comp[:, 1, 2] = -a1 / a3
    comp[:, 2, 2] = -a2 / a3
    roots = np.linalg.eigvals(comp)
    a3c, a2c, a1c = a3[:, None], a2[:, None], a1[:, None]
    p = a3c * roots**3 + a2c * roots**2 + a1c * roots + a0[:, None]
    dp = 3 * a3c * roots**2 + 2 * a2c * roots + a1c
    safe = np.abs(dp) > 1e-30
    roots = np.where(safe, roots - p / np.where(safe, dp, 1.0), roots)
    return roots


def follow_loop(roots: np.ndarray, start: complex) -> np.ndarray:
    """The branch through the rows of `roots` (three cubic roots each), in
    row order: in each row the root nearest the one before, starting from
    the root nearest `start`."""
    branch = np.empty(len(roots), dtype=complex)
    s = start
    for k, row in enumerate(roots):
        s = branch[k] = row[np.argmin(np.abs(row - s))]
    return branch


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
    roots = companion_roots(alpha, path)
    s = follow_loop(roots, -1.0 / path[0])[-1]
    if s.imag <= 0:
        raise NumericalError("no upper-half-plane root found",
                             detail={"z": z, "roots": roots[-1].tolist()})
    res = cubic_residual(alpha, z, s)
    if res > 1e-12:
        raise NumericalError(f"cubic residual {res:.2e} above tolerance",
                             detail={"z": z})
    return complex(s)
