"""Limiting spectral law of G H^t H G^t / (nm) at aspect ratio alpha = m/n.

The Stieltjes transform s(z) = int dF(x)/(x - z) (Herglotz convention:
Im s > 0 for Im z > 0) of the limiting eigenvalue distribution F satisfies

    (z^2/alpha) s^3 - (z(alpha-1)/alpha) s^2 - z s - 1 = 0.

For alpha < 1 the matrix has rank m < n, so F carries an atom of mass
1 - alpha at zero; the absolutely continuous part is recovered by Stieltjes
inversion f(x) = Im s(x + i eps)/pi after subtracting the atom's smeared
Lorentzian.  The cubic has spurious upper-half-plane roots, so the physical
branch is tracked by continuity from the -1/z asymptote rather than picked
by largest imaginary part.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import singular_values
from .sampling import SeedSpec, gaussian_product

DEFAULT_GRID_POINTS = 4000
MIN_GRID_POINTS = 400  # coarser grids fail the 1e-3 mass check (250: at alpha 0.343)
_EDGE_POINTS = 2500  # graded points resolving the hard edge at 0 (worst at alpha=1)
_EPS_CAP = 1e-6
_ALPHA_LO = 0.01  # lower end of alpha_threshold's bracket
BRENT_RTOL = 4 * np.finfo(float).eps  # brentq's relative tolerance (its default)
_CUBE_ROOTS_OF_ONE = np.exp(2j * np.pi / 3.0 * np.arange(3))


def _cubic_coeffs(alpha: float, z):
    z = np.asarray(z, dtype=complex)
    return (z * z / alpha, -z * (alpha - 1.0) / alpha, -z,
            -np.ones_like(z))


def _aligned_sqrt(square: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The square root of `square` whose sum with `ref` has no cancellation
    (their real inner product is >= 0)."""
    root = np.sqrt(square)
    return np.where((ref.conjugate() * root).real >= 0.0, root, -root)


def _roots_batch(alpha: float, zs: np.ndarray) -> np.ndarray:
    """All three cubic roots per z in closed form, each polished with one
    Newton step.

    With the cubic monic, s^3 + b s^2 + c s + d, Cardano gives the roots
    -(b + C + D0/C)/3 over the three cube roots C of (D1 + R)/2, where
    D0 = b^2 - 3c, D1 = 2b^3 - 9bc + 27d and R = +-sqrt(D1^2 - 4 D0^3) takes
    the sign that adds to D1 without cancellation.  Only the largest root r
    is taken from it; the other two solve the deflated quadratic
    s^2 + e1 s + e0, e0 = -d/r, by the stable formula (one root from the sum
    with no cancellation, the other from the product).  Matching the s
    coefficients gives two forms of e1: b + r, and (e0 - c)/r from
    c = e0 - r e1.  At large alpha, b and r are both about alpha/|z| in
    size and b + r cancels; there e0 - c adds terms of one sign, so e1 is
    taken from it wherever |b + r| < |b|/2."""
    a3, a2, a1, a0 = _cubic_coeffs(alpha, zs)
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    d0 = b * b - 3.0 * c
    d1 = (2.0 * b * b - 9.0 * c) * b + 27.0 * d
    root = _aligned_sqrt(d1 * d1 - 4.0 * d0 ** 3, d1)
    cubes = ((d1 + root) / 2.0) ** (1.0 / 3.0) * _CUBE_ROOTS_OF_ONE[:, None]
    # C = 0 only at a triple root, where D0 = 0 too and each root is -b/3
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(cubes != 0.0, d0 / cubes, 0.0)
    cardano = -(b + cubes + quotient) / 3.0
    r = cardano[np.abs(cardano).argmax(axis=0), np.arange(cardano.shape[1])]
    # d = -alpha/z^2 is never 0, so neither is any root
    e1, e0 = b + r, -d / r
    e1 = np.where(np.abs(e1) < 0.5 * np.abs(b), (e0 - c) / r, e1)
    q = -(e1 + _aligned_sqrt(e1 * e1 - 4.0 * e0, e1)) / 2.0
    roots = np.stack([r, q, e0 / q], axis=1)
    a3c, a2c, a1c = a3[:, None], a2[:, None], a1[:, None]
    p = a3c * roots**3 + a2c * roots**2 + a1c * roots + a0[:, None]
    dp = 3 * a3c * roots**2 + 2 * a2c * roots + a1c
    safe = np.abs(dp) > 1e-30
    roots = np.where(safe, roots - p / np.where(safe, dp, 1.0), roots)
    return roots


def _follow(roots: np.ndarray, start: complex) -> np.ndarray:
    """The branch through the rows of `roots` (three cubic roots each), in
    row order: in each row the root nearest the one before, starting from
    the root nearest `start`.

    Which root of row k is nearest depends only on which root of row k - 1
    was taken, so each step is a map of {0, 1, 2} to itself, read off the
    row-to-row distances by argmin (first index on ties).  The maps are
    composed by doubling: after the pass with offset d, row k holds the
    composition of the maps of rows k - 2d + 1 .. k."""
    maps = np.empty(roots.shape, dtype=np.intp)
    maps[0] = np.argmin(np.abs(roots[0] - start))
    maps[1:] = np.argmin(np.abs(roots[1:, None, :] - roots[:-1, :, None]), axis=2)
    step = 1
    while step < len(roots):
        maps[step:] = np.take_along_axis(maps[step:], maps[:-step], axis=1)
        step *= 2
    return roots[np.arange(len(roots)), maps[:, 0]]


def ac_support_edges(alpha: float) -> tuple[float, float]:
    """Edges of the absolutely continuous support, where the cubic's
    discriminant (a quadratic in x after factoring x^3) vanishes."""
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    b = alpha * ((alpha - 1.0) ** 2 - 18.0 * (alpha - 1.0) - 27.0)
    disc = b * b + 64.0 * alpha**2 * (alpha - 1.0) ** 3
    root = np.sqrt(max(disc, 0.0))
    x_hi = (-b + root) / (8.0 * alpha**2)
    x_lo = max(0.0, (-b - root) / (8.0 * alpha**2))
    return float(x_lo), float(x_hi)


@dataclass
class SpectralLaw:
    """Discretized limiting law: a.c. density on a grid plus the point mass
    at zero (present for alpha < 1), with its fractional moment."""

    alpha: float
    grid: np.ndarray
    density: np.ndarray
    support_upper: float
    c_alpha: float
    atom_mass: float = 0.0
    tail_mass: float = 0.0

    def total_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid) + self.atom_mass
                     + self.tail_mass)

    def first_moment(self) -> float:
        return float(np.trapezoid(self.density * self.grid, self.grid))

    def cdf_grid(self) -> np.ndarray:
        inc = np.concatenate(
            [[0.0], np.cumsum(0.5 * (self.density[1:] + self.density[:-1])
                              * np.diff(self.grid))])
        return np.minimum(self.atom_mass + self.tail_mass + inc, 1.0)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = np.interp(x, self.grid, self.cdf_grid(),
                         left=self.atom_mass, right=1.0)
        return np.where(x < 0.0, 0.0, vals)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for x, f in zip(self.grid, self.density):
                fh.write(f"{format(x, '.17g')},{format(f, '.17g')}\n")


def _density_arrays(alpha: float, grid_points: int, eps_cap: float):
    x_lo, x_hi = ac_support_edges(alpha)
    top = 1.08 * x_hi
    xs_uniform = np.linspace(top / grid_points, top, grid_points)
    xs_graded = top * 0.02 * np.geomspace(1e-12, 1.0, _EDGE_POINTS)
    xs = np.unique(np.concatenate([xs_graded, xs_uniform]))
    steps = np.diff(xs, prepend=0.0)
    eps = np.clip(steps / 10.0, 1e-13, eps_cap)
    zs = xs + 1j * eps
    roots = _roots_batch(alpha, zs)
    atom = max(0.0, 1.0 - alpha)
    # tracked down the real axis from the right, where s ~ -1/z - 1/z^2
    s_vals = _follow(roots[::-1], -1.0 / zs[-1] - 1.0 / zs[-1] ** 2)[::-1]
    f = s_vals.imag / np.pi - atom * (eps / np.pi) / (xs * xs + eps * eps)
    # the tracked profile must end where the discriminant puts the edge:
    # support past it would leave the profile above the floor at the top
    floor = max(1e-7, 1e-3 * f[xs >= 0.5 * x_hi].max())
    above = np.flatnonzero(f > floor)
    edge = float(xs[above[-1]]) if above.size else 0.0
    if abs(edge - x_hi) > max(3.0 * top / grid_points, 0.02 * x_hi):
        raise NumericalError(
            "tracked density edge disagrees with the discriminant edge",
            detail={"tracked": edge, "discriminant": x_hi})
    f = np.maximum(f, 0.0)
    f[xs > x_hi] = 0.0
    # below-grid tail of a hard edge at 0: local power-law extrapolation
    tail = 0.0
    if alpha <= 1.0 and f[0] > 0.0 and f[1] > 0.0 and xs[0] < 1e-6 * x_hi:
        p = np.log(f[1] / f[0]) / np.log(xs[1] / xs[0])
        if -1.0 < p < 0.0:
            tail = float(f[0] * xs[0] / (p + 1.0))
    return xs, f, atom, tail, x_hi


def density(alpha: float, grid_points: int = DEFAULT_GRID_POINTS,
            eps_cap: float = _EPS_CAP) -> SpectralLaw:
    """Stieltjes inversion of the cubic on a graded grid.

    The grid is uniform over [0, 1.08 x_hi] with geometric refinement near
    zero; the inversion offset eps is min(eps_cap, local step / 10).  The
    reported support edge x_hi is the discriminant zero of the cubic.  It
    is checked on the tracked profile itself: the last grid point where the
    density stands above max(1e-7, 1e-3 times its largest value over
    x >= x_hi/2) must lie within max(3 grid steps, 0.02 x_hi) of x_hi, and
    the total mass within 1e-3 of 1.
    """
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    if grid_points < MIN_GRID_POINTS:
        raise ValidationError(f"grid_points must be >= {MIN_GRID_POINTS}")
    xs, f, atom, tail, x_hi = _density_arrays(alpha, grid_points, eps_cap)
    c_val = float(np.trapezoid(f * np.sqrt(xs), xs))
    law = SpectralLaw(alpha=float(alpha), grid=xs, density=f,
                      support_upper=float(x_hi), c_alpha=c_val,
                      atom_mass=atom, tail_mass=tail)
    mass = law.total_mass()
    if abs(mass - 1.0) > 1e-3:
        raise NumericalError(f"density normalization off: total mass {mass:.6f}",
                             detail={"alpha": alpha})
    return law


def c_alpha(alpha: float, grid_points: int = DEFAULT_GRID_POINTS,
            eps_cap: float = _EPS_CAP) -> float:
    """Fractional moment int sqrt(x) dF(x); the atom at zero contributes
    nothing, so only the a.c. part is integrated."""
    return density(alpha, grid_points, eps_cap).c_alpha


def threshold_objective(gap_constant: float, alpha: float,
                        grid_points: int = DEFAULT_GRID_POINTS,
                        eps_cap: float = _EPS_CAP) -> float:
    """gap_constant * C_alpha / sqrt(alpha) - 1: positive below the
    threshold, negative above it."""
    return gap_constant * c_alpha(alpha, grid_points, eps_cap) / np.sqrt(alpha) - 1.0


def alpha_threshold(gap_constant: float, tol: float = 1e-4,
                    grid_points: int = DEFAULT_GRID_POINTS,
                    eps_cap: float = _EPS_CAP) -> float:
    """The aspect ratio where gap_constant * C_alpha / sqrt(alpha) crosses 1.

    The bracket is [_ALPHA_LO, hi], hi doubled from 1 until the objective
    is <= 0 (C_alpha <= 1, so C_alpha/sqrt(alpha) tends to 0).  It decreases
    in alpha (checked at the ends of the bracket), so the crossing is the
    single root on it, found by Brent's method: the root of
    threshold_objective lies within tol + BRENT_RTOL * alpha0 of the
    returned alpha0.  Each objective value costs one density inversion,
    shared with Brent by a cache.
    """
    if gap_constant <= 0:
        raise ValidationError("gap_constant must be positive")

    @functools.lru_cache(maxsize=None)
    def objective(a: float) -> float:
        return threshold_objective(gap_constant, a, grid_points, eps_cap)

    hi = 1.0
    while objective(hi) > 0:
        hi *= 2.0
    f_lo, f_hi = objective(_ALPHA_LO), objective(hi)
    if f_lo <= f_hi:
        raise NumericalError("C_alpha/sqrt(alpha) not decreasing on bracket",
                             detail={"lo": f_lo, "hi": f_hi})
    if f_lo < 0:
        raise NumericalError("no sign change on the bracket",
                             detail={"f(lo)": f_lo, "f(hi)": f_hi})
    from scipy.optimize import brentq  # loaded on use: it is most of `import randcorr`

    return float(brentq(objective, _ALPHA_LO, hi, xtol=tol, rtol=BRENT_RTOL))


@dataclass
class EmpiricalSpectrum:
    """Sorted eigenvalues of one realization of G H^t H G^t/(nm)."""

    eigenvalues: np.ndarray
    n: int
    m: int


def empirical_spectrum(n: int, m: int, seed: SeedSpec) -> EmpiricalSpectrum:
    """Squared singular values of G H^t / sqrt(nm); the min(n, m) rank
    deficiency makes the trailing eigenvalues exact zeros."""
    if n < 1 or m < 1:
        raise ValidationError("empirical_spectrum requires n, m >= 1")
    sv = singular_values(gaussian_product(n, m, seed))
    lam = sv * sv / (n * m)
    rank_tol = lam.max() * n * np.finfo(float).eps if lam.size else 0.0
    lam[lam < rank_tol] = 0.0
    return EmpiricalSpectrum(eigenvalues=np.sort(lam), n=n, m=m)


def ks_distance(emp: EmpiricalSpectrum, law: SpectralLaw) -> float:
    """sup_x |F_n(x) - F(x)| between the empirical CDF and the law.

    Tie-aware: repeated eigenvalues (the exact zeros meeting the law's atom)
    produce a single jump, evaluated against the CDF's left and right limits.
    """
    alpha_emp = emp.m / emp.n
    if abs(alpha_emp - law.alpha) > 1e-6:
        raise ValidationError(
            f"aspect mismatch: law alpha={law.alpha}, empirical m/n={alpha_emp}")
    values, counts = np.unique(emp.eigenvalues, return_counts=True)
    cum = np.cumsum(counts) / emp.n
    cum_prev = np.concatenate([[0.0], cum[:-1]])
    f_right = law.cdf(values)
    f_left = np.where(values > 0.0, f_right, 0.0)  # the law jumps only at 0
    d = max(float(np.max(np.abs(cum - f_right))),
            float(np.max(np.abs(cum_prev - f_left))))
    return min(max(d, 0.0), 1.0)


def ks_distance_of_draw(law: SpectralLaw, n: int, m: int, seed: int) -> float:
    """ks_distance of the law from the n x m empirical spectrum drawn at
    SeedSpec(seed, 0): `spectral --ks-n n --ks-m m --seed seed`'s number."""
    return ks_distance(empirical_spectrum(n, m, SeedSpec(seed, 0)), law)
