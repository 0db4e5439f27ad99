"""Dense real matrix primitives: SVD, the three norms, CSV round-trip.

Matrices are plain float64 numpy arrays throughout the package; `as_matrix`
is the single entry point that enforces the carrier contract (2-d, finite).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and convert to a float64 2-d array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class SvdTriple:
    """Singular value decomposition a = u @ diag(sigma) @ v.T, as LAPACK
    returns it: sigma descending and non-negative, u and v orthogonal up to
    rounding."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(a) -> SvdTriple:
    """Full SVD of a square matrix.  Not validated: every certificate built
    from it charges its own error (see norms), and the rest are labelled
    estimates.  A LAPACK failure raises NumericalError."""
    m = as_matrix(a, square=True)
    try:
        u, s, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return SvdTriple(u=u, sigma=s, v=vt.T)


def gram_eigh(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values sigma (descending), right singular vectors v and the
    products a @ v of a square matrix, from the symmetric eigendecomposition
    a^t a = v diag(w) v^t, without forming the left singular vectors.

    sigma_k is the norm of column k of a @ v: sqrt(w_k) up to the rounding
    of a^t a, which adds about eps ||a||^2 to every w_k and so lifts a zero
    singular value to about sqrt(eps) ||a||.  Components with sigma_k = 0
    are dropped, so sigma > 0 and a = (a @ v) v^t up to the directions
    dropped.  Nothing here is validated; a caller that needs a certificate
    checks what it builds from the result.
    """
    m = as_matrix(a, square=True)
    try:
        _, v = np.linalg.eigh(m.T @ m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    mv = m @ v
    sigma = np.sqrt((mv * mv).sum(axis=0))
    order = np.argsort(-sigma, kind="stable")
    order = order[sigma[order] > 0.0]
    return sigma[order], v[:, order], mv[:, order]


def singular_values(a) -> np.ndarray:
    m = as_matrix(a, square=True)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(singular_values(a).sum())


def operator_norm(a) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def flatness_ratio(a) -> float:
    """Spectral flatness n * ||a||_op / ||a||_tr; 1 iff all singular values equal."""
    return flatness_from_sigma(singular_values(as_matrix(a, square=True)))


def flatness_from_sigma(sigma: np.ndarray) -> float:
    """flatness_ratio from the descending singular values of a square matrix."""
    total = sigma.sum()
    if total == 0.0:
        raise ValidationError("flatness_ratio is undefined for the zero matrix")
    return float(sigma.size * sigma[0] / total)


# the values `randcorr norm --which` computes from the singular values alone
SPECTRAL_VALUES = {"trace": trace_norm, "operator": operator_norm,
                   "flatness": flatness_ratio}


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix (rows of comma-separated decimals)."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise ValidationError(
                    f"non-numeric entry on line {lineno} of {path}") from None
    if not rows:
        raise ValidationError(f"empty matrix file: {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError(f"ragged rows in matrix file: {path}")
    return as_matrix(np.array(rows, dtype=float))


def write_matrix_csv(path, a) -> None:
    """Write a matrix as headerless CSV with 17-significant-digit round-trip."""
    m = as_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        for row in m:
            fh.write(",".join(format(x, ".17g") for x in row))
            fh.write("\n")
