"""Seeded samplers for every random ensemble the experiments draw from.

Reproducibility contract: every sampler is a pure function of its arguments
and a SeedSpec.  Per-trial streams are independent Philox streams keyed by

    stream_seed = splitmix64(master_seed XOR splitmix64(trial_index + 1))

so distinct trial indices give uncorrelated, parallel-safe streams and any
recorded (master_seed, trial_index) pair reproduces its trial bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

_MASK64 = (1 << 64) - 1

ENSEMBLE_KINDS = (
    "gaussian",
    "haar_orthogonal",
    "bi_invariant",
    "gaussian_product",
    "unit_rows_correlation",
)
_RECTANGULAR_KINDS = ("gaussian_product", "unit_rows_correlation")


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer; the published mixing function for stream seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus trial index; derives one independent stream per trial."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) <= _MASK64:
            raise ValidationError("master_seed must fit in 64 unsigned bits")
        if int(self.trial_index) < 0:
            raise ValidationError("trial_index must be non-negative")

    def stream_seed(self) -> int:
        return splitmix64((int(self.master_seed) ^ splitmix64(int(self.trial_index) + 1)) & _MASK64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.stream_seed()))


@dataclass
class EnsembleSpec:
    """Which ensemble to draw: kind, size n, and m/spectrum when applicable."""

    kind: str
    n: int
    m: int | None = None
    spectrum: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if self.kind in _RECTANGULAR_KINDS:
            if self.m is None or self.m < 1:
                raise ValidationError(f"{self.kind} requires m >= 1")
        elif self.m is not None:
            raise ValidationError(f"{self.kind} does not take m")
        if self.kind == "bi_invariant":
            if self.spectrum is None:
                raise ValidationError("bi_invariant requires a spectrum")
            self.spectrum = np.asarray(self.spectrum, dtype=float)
            if self.spectrum.ndim != 1 or len(self.spectrum) != self.n:
                raise ValidationError("spectrum must be a length-n vector")
        elif self.spectrum is not None:
            raise ValidationError(f"{self.kind} does not take a spectrum")

    def sample(self, seed: SeedSpec) -> np.ndarray:
        if self.kind == "gaussian":
            return gaussian(self.n, self.n, seed)
        if self.kind == "haar_orthogonal":
            return haar_orthogonal(self.n, seed)
        if self.kind == "bi_invariant":
            return bi_invariant(self.spectrum, seed)
        if self.kind == "gaussian_product":
            return gaussian_product(self.n, self.m, seed)
        return unit_rows_correlation(self.n, self.m, seed)


def gaussian(n: int, m: int, seed: SeedSpec) -> np.ndarray:
    """n x m matrix of i.i.d. standard normals."""
    if n < 1 or m < 1:
        raise ValidationError("gaussian requires n, m >= 1")
    return seed.generator().standard_normal((n, m))


def _haar_from(gen: np.random.Generator, n: int) -> np.ndarray:
    for _ in range(3):
        g = gen.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        if np.all(np.abs(d) > 1e-12 * max(1.0, np.abs(d).max())):
            signs = np.where(d >= 0, 1.0, -1.0)
            return q * signs
    raise NumericalError("QR breakdown persisted across 3 resampling attempts")


def haar_orthogonal(n: int, seed: SeedSpec) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign correction.

    Multiplying column j of Q by sign(R_jj) is what makes the draw Haar;
    plain numpy QR is not.
    """
    if n < 1:
        raise ValidationError("haar_orthogonal requires n >= 1")
    return _haar_from(seed.generator(), n)


def bi_invariant(spectrum, seed: SeedSpec) -> np.ndarray:
    """U diag(spectrum) V^t with independent Haar U, V: the generic matrix
    whose distribution is unchanged by one-sided orthogonal rotations."""
    s = np.asarray(spectrum, dtype=float)
    if s.ndim != 1 or len(s) < 1:
        raise ValidationError("spectrum must be a non-empty vector")
    if np.any(s < 0):
        raise ValidationError("spectrum entries must be non-negative")
    n = len(s)
    gen = seed.generator()
    u = _haar_from(gen, n)
    v = _haar_from(gen, n)
    return (u * s) @ v.T


def _gaussian_pair(n: int, m: int, seed: SeedSpec):
    """The coupled (G, H) draw shared by gaussian_product and
    unit_rows_correlation, so tau and GH^t/m come from one realization."""
    if n < 1 or m < 1:
        raise ValidationError("requires n, m >= 1")
    gen = seed.generator()
    g = gen.standard_normal((n, m))
    h = gen.standard_normal((n, m))
    return g, h, gen


def gaussian_product(n: int, m: int, seed: SeedSpec) -> np.ndarray:
    """G H^t for independent n x m Gaussians; bi-orthogonally invariant."""
    g, h, _ = _gaussian_pair(n, m, seed)
    return g @ h.T


def unit_rows_correlation(n: int, m: int, seed: SeedSpec) -> np.ndarray:
    """Inner-product correlation tau_ij = <u_i, v_j> of uniform unit rows,
    built from the same (G, H) realization as gaussian_product(n, m, seed)."""
    g, h, gen = _gaussian_pair(n, m, seed)
    gn = np.linalg.norm(g, axis=1)
    hn = np.linalg.norm(h, axis=1)
    while np.any(gn < 1e-300) or np.any(hn < 1e-300):  # pragma: no cover
        for mat, nrm in ((g, gn), (h, hn)):
            bad = np.nonzero(nrm < 1e-300)[0]
            for i in bad:
                mat[i] = gen.standard_normal(m)
        gn = np.linalg.norm(g, axis=1)
        hn = np.linalg.norm(h, axis=1)
    return (g / gn[:, None]) @ (h / hn[:, None]).T
