"""Quantum and classical norms of correlation matrices.

The sign-vector norm ||a||_{inf->1} = max_{alpha,beta in {+-1}^n} alpha^t a beta
is the classical (Bell) value of a functional; its dual is the projective
norm, whose unit ball is the polytope of classical correlations.  The
factorization norm gamma2 plays the same role for the quantum set.  This
module computes exact values where enumeration is affordable and certified
two-sided brackets everywhere else.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import SvdTriple, as_matrix, svd
from .sampling import SeedSpec

if TYPE_CHECKING:
    from scipy.optimize._highspy._core import _Highs

EXACT_CAP = 24          # 2^(n-1) sign vectors enumerated exactly up to here
GAMMA2_RESCALE_TOL = 3e-3       # stop once upper <= (1 + tol) * rescaled trace norm
GAMMA2_RESCALE_MAX_ITER = 100   # rescaling steps after the plain factorization
GAMMA2_SCALE_FLOOR = 1e-2       # smallest row/column weight, relative to the largest
TOL_FACTOR_RESIDUAL = 1e-9      # max reconstruction residual of an upper certificate
_LOW_BITS = 12                  # sign bits in the exact enumeration's low table (2^12 x n)
_INT16_MAX = 2 ** 15 - 1        # bound on every partial sum of the exact int16 screen
_TIE_RTOL = 1e-12               # sign vectors this close (relative) to the maximum tie
_PRICING_COLUMNS = 32           # atoms priced per column-generation round
_PRICE_CAP = 1.0 + 1e-9         # atoms after a round's best enter only if they price above
HEURISTIC_RESTARTS = 50         # alternating-ascent starts above EXACT_CAP


KG_UPPER = 1.78221  # published upper bound on the real Grothendieck constant


def _sign(x: np.ndarray) -> np.ndarray:
    # sign with the fixed 0 -> +1 convention, so certificates are exact +-1
    return np.where(x >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class SignPair:
    """A pair of sign vectors attaining (or witnessing) an inf->1 value."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        for v in (self.alpha, self.beta):
            arr = np.asarray(v, dtype=float)
            if arr.ndim != 1 or not (np.abs(arr) == 1.0).all():
                raise ValidationError("sign vectors must have entries exactly +-1")

    def pairing(self, a) -> float:
        m = as_matrix(a)
        return float(self.alpha @ m @ self.beta)

    def to_dict(self) -> dict:
        return {"type": "sign_pair",
                "alpha": [int(x) for x in self.alpha],
                "beta": [int(x) for x in self.beta]}

    @classmethod
    def from_dict(cls, d: dict) -> "SignPair":
        return cls(np.asarray(d["alpha"], dtype=float), np.asarray(d["beta"], dtype=float))


@dataclass(frozen=True)
class DualWitness:
    """Orthogonal matrix a certifying gamma2(t) >= <t, a>/n."""

    a: np.ndarray

    def value(self, t) -> float:
        m = as_matrix(t, square=True)
        return float((m * self.a).sum() / m.shape[0])

    def to_dict(self) -> dict:
        return {"type": "dual_witness", "a": self.a.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "DualWitness":
        return cls(as_matrix(d["a"], square=True))


@dataclass(frozen=True)
class FactorizationPair:
    """Explicit factorization t = x @ y certifying a gamma2 upper bound."""

    x: np.ndarray
    y: np.ndarray

    def value(self) -> float:
        row = np.sqrt((self.x * self.x).sum(axis=1).max())
        col = np.sqrt((self.y * self.y).sum(axis=0).max())
        return float(row * col)

    def residual(self, t) -> float:
        m = as_matrix(t)
        denom = max(1.0, float(np.abs(m).max()))
        return float(np.abs(self.x @ self.y - m).max() / denom)

    def to_dict(self) -> dict:
        return {"type": "factorization", "x": self.x.tolist(), "y": self.y.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FactorizationPair":
        return cls(np.asarray(d["x"], dtype=float), np.asarray(d["y"], dtype=float))


@dataclass
class ConvexDecomposition:
    """t ~= sum_k weights[k] * outer(alphas[k], betas[k]); upper_bound(t)
    bounds the projective norm when the weights are nonnegative. The atoms
    are two blocks of +-1 of the same shape, one atom per row. It is the
    upper certificate of classical_upper_bound's bracket and carries no
    flags: whether a run closed its bracket follows from the bracket's two
    re-evaluable ends, and its reconstruction residual from t."""

    weights: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.betas = np.asarray(self.betas, dtype=float)
        if self.alphas.shape != self.betas.shape or not (
                (np.abs(self.alphas) == 1.0).all() and (np.abs(self.betas) == 1.0).all()):
            raise ValidationError("sign vectors must have entries exactly +-1, "
                                  "in two blocks of the same shape")

    def weight_sum(self) -> float:
        return float(np.sum(self.weights))

    def reconstruct(self, n: int) -> np.ndarray:
        """sum_k weights[k] * outer(alpha_k, beta_k), added atom by atom in
        order (a reduction over the leading axis), so bit for bit the sum of
        one outer product per atom. One weight per atom and sign vectors of
        length n are required: broadcasting would otherwise spread a short
        weight list over every atom. With no atom, the blocks may have any
        empty shape (a report's empty atom list reads back as shape (0,))."""
        w = np.asarray(self.weights, dtype=float)
        k = len(self.alphas)
        if w.shape != (k,) or (k and self.alphas.shape != (k, n)):
            raise ValidationError(
                f"a decomposition of an {n} x {n} matrix needs one weight per atom "
                f"and sign vectors of length {n}: {w.shape} weights, "
                f"{self.alphas.shape} sign block")
        alphas, betas = self.alphas.reshape(k, n), self.betas.reshape(k, n)
        return np.add.reduce(w[:, None, None] * alphas[:, :, None] * betas[:, None, :],
                             axis=0)

    def reconstruction_residual(self, t) -> float:
        m = as_matrix(t, square=True)
        return float(np.abs(self.reconstruct(m.shape[0]) - m).max())

    def upper_bound(self, t) -> float:
        """pi(t) <= sum(w) + sum |e_ij|, e = t - reconstruction, for
        nonnegative weights, converged or not: each e_i e_j^t is the average
        of four sign atoms (alpha_i = beta_j = +1, the rest all +1 or -1)."""
        m = as_matrix(t, square=True)
        return self.weight_sum() + float(np.abs(m - self.reconstruct(m.shape[0])).sum())

    def to_dict(self) -> dict:
        return {"type": "convex_decomposition",
                "weights": [float(w) for w in self.weights],
                "atoms": [{"type": "sign_pair", "alpha": alpha, "beta": beta}
                          for alpha, beta in zip(self.alphas.astype(int).tolist(),
                                                 self.betas.astype(int).tolist())]}

    @classmethod
    def from_dict(cls, d: dict) -> "ConvexDecomposition":
        return cls(weights=np.asarray(d["weights"], dtype=float),
                   alphas=[a["alpha"] for a in d["atoms"]],
                   betas=[a["beta"] for a in d["atoms"]])


@dataclass
class NormBracket:
    """Certified lower/upper bounds with re-evaluable certificates."""

    lower: float
    upper: float
    lower_certificate: object = None
    upper_certificate: object = None

    def __post_init__(self):
        if self.lower > self.upper + 1e-12 * max(1.0, abs(self.upper)):
            raise NumericalError(
                f"bracket inverted: lower={self.lower} > upper={self.upper}")

    def ratio(self) -> float:
        return self.upper / self.lower if self.lower > 0 else np.inf


@dataclass
class BellFunctional:
    """A Bell functional a with its inf->1 norm (exact, or a certified upper
    bound with the heuristic lower estimate carried separately)."""

    a: np.ndarray
    eps_one_norm: float
    exact: bool
    heuristic_lower: float | None = None
    near_singular: bool = False
    attaining: SignPair | None = None

    def to_dict(self) -> dict:
        d = {"type": "bell_functional", "a": self.a.tolist(),
             "eps_one_norm": self.eps_one_norm, "exact": self.exact,
             "near_singular": self.near_singular}
        if self.heuristic_lower is not None:
            d["heuristic_lower"] = self.heuristic_lower
        if self.attaining is not None:
            d["attaining"] = self.attaining.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BellFunctional":
        lower, attaining = d.get("heuristic_lower"), d.get("attaining")
        return cls(a=as_matrix(d["a"], square=True),
                   eps_one_norm=float(d["eps_one_norm"]), exact=bool(d["exact"]),
                   heuristic_lower=None if lower is None else float(lower),
                   near_singular=bool(d["near_singular"]),
                   attaining=None if attaining is None else SignPair.from_dict(attaining))


@functools.lru_cache(maxsize=_LOW_BITS + 1)
def _sign_rows(count: int) -> np.ndarray:
    """All 2^count vectors (s_1..s_count) in {+-1}^count, one per row; row j
    has s_i = -1 exactly where bit i-1 of j is set.  Built on first use and
    shared read-only afterwards: rebuilding them was a fifth of the cost of
    a whole enumeration at n <= 8."""
    idx = np.arange(1 << count)
    rows = 1.0 - 2.0 * ((idx[:, None] >> np.arange(count)) & 1)
    rows.flags.writeable = False
    return rows


class _SplitTables:
    """The exact enumeration of a square m: an exact int16 screen of every
    sign vector, then float64 rescoring of the few the screen cannot rule
    out.

    Index i (0 <= i < 2^(n-1)) stands for alpha = (1, s_low, s_high): bit b
    of i set means alpha_(b+2) = -1.  With k = min(n - 1, _LOW_BITS) low
    bits, m^t alpha is row j = i mod 2^k of low = (sign rows over k bits)
    m[1:1+k] plus row h = i >> k of high = m[0] + (sign rows over the rest)
    m[1+k:], and the value of i is ||m^t alpha||_1 = sum_c |low_jc + high_hc|.

    Scale.  Both tables are built in float64 from m 2^-exp, exp = p - s.
    With 2^(e-1) <= max |m_ij| < 2^e and p = e + ceil(log2 n^2), the sum
    A = sum |m_ij| 2^-p is under 1, and A+ = (1 + 2^-40) times its float64
    value bounds it from above.  S = 2^s is the largest power of two with
        S A+ + n + 1 <= 2^15 - 1   (S = 1 when m = 0, so A = 0),
    applied by multiplying m 2^-p by 2.0 ** s.  Powers of two change no
    comparison and are exact bar float64 underflow (entries 2^-1000 below
    the largest), so each float64 table entry is S times the entry of
    tables built at 2^-p.  Below, S A is the scaled matrix's sum of
    |entries|, under 2^15.

    Screen.  L = rint(low), transposed to n x 2^k, and H = rint(high) are
    int16 tables.  For all 2^k vectors of high row h at once, the values
    sum_c |L_c + H_c| take one np.add pass over L (row c plus H_hc), one
    np.abs pass and one int16 np.add.reduce over the n rows.  Integer
    arithmetic is exact, and nothing wraps: each partial sum is at most
    sum_c (|L_c| + |H_c|), which is at most S A + n (|low_c| + |high_c|
    summed over c is at most S A, and the 2n roundings add at most 1/2
    each) plus float64 errors far below 1, so under S A+ + n + 1 <= 2^15 - 1.

    Slack: a bound on |screened value - V| for V the exact value of the
    scaled m.  As |.| is 1-Lipschitz, the only error beyond the roundings
    (1/2 per entry, n per vector) is that of the float64 tables, under
    n 2^-53 S A < 1 in total; the float64 rescoring errs by under
    6n 2^-53 S A < 1 as well.  So slack = n + 1 integer units bounds both
    |screened - V| and |screened - rescored|.

    Candidates.  Let top be the largest screened value and kth the
    count-th largest.  The float64 maximum M is at most top + slack, and
    the count-th largest float64 value is at least kth - slack, since
    count vectors screen at or above kth.  So every vector among the
    count best in float64, or within _TIE_RTOL M of M, screens at or above
    the integer
        cut = kth - 2 slack - ceil(_TIE_RTOL (top + slack)).
    Each vector at or above the cut is rescored as the float64 sum of its
    own row |low_j + high_h|, so its value is the same whichever other
    vectors reach the cut; the ranking is then one sort of those values.
    """

    def __init__(self, m: np.ndarray):
        n = m.shape[0]
        self.m = m
        self.k = min(n - 1, _LOW_BITS)
        self.low_signs, self.high_signs = _sign_rows(self.k), _sign_rows(n - 1 - self.k)
        # sum |m_ij| <= n^2 max |m_ij| < n^2 2^e <= 2^p: A = sum |m_ij| 2^-p < 1
        e = math.frexp(float(np.abs(m).max()))[1]
        p = e + (n * n - 1).bit_length()
        scaled = np.ldexp(m, -p)
        self.slack = n + 1
        # S = 2^s, the largest power of two with S A+ + slack <= 2^15 - 1;
        # A+ bounds A (a float64 sum of n^2 <= 576 terms errs under 2^-40)
        a_up = float(np.abs(scaled).sum()) * (1.0 + 2.0 ** -40)
        room = _INT16_MAX - self.slack
        s = math.frexp(room / a_up)[1] - 1 if a_up else 0
        if math.ldexp(a_up, s) > room:
            s -= 1
        scaled *= 2.0 ** s
        self.exp = p - s
        # built transposed: the screen reads n rows of 2^k (C-contiguous),
        # the rescoring reads rows j of the transpose, a view
        low_t = scaled[1:1 + self.k].T @ self.low_signs.T
        self.low = low_t.T
        self.high = scaled[0] + self.high_signs @ scaled[1 + self.k:]
        self.low16 = np.empty(low_t.shape, dtype=np.int16)
        np.rint(low_t, out=self.low16, casting="unsafe")
        self.high16 = np.rint(self.high).astype(np.int16)

    def _screen(self, h: int, buf: np.ndarray) -> np.ndarray:
        """The integer values of the 2^k sign vectors in high row h (a new
        int16 array)."""
        np.add(self.low16, self.high16[h][:, None], out=buf)
        np.abs(buf, out=buf)
        return np.add.reduce(buf, axis=0, dtype=np.int16)

    def ranked(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Up to `count` sign vectors, best first: their indices and their
        float64 values ||m^t alpha||_1 as rescored, un-scaled (two arrays).

        First comes the tie rule's choice: the first index whose float64
        value is within _TIE_RTOL relative of the float64 maximum.  The
        others follow by float64 value, exact ties in index order.

        The screen runs over every high row, keeping each row's maximum (and
        its `count` largest values).  The rows that reach the cut are
        screened again, and every index at or above the cut is rescored in
        float64 as its own row sum, so its value depends on its sign vector
        alone, not on which other candidates are rescored with it.
        """
        buf = np.empty_like(self.low16)
        row_max, tops = [], []
        for h in range(self.high.shape[0]):
            vals = self._screen(h, buf)
            row_max.append(int(vals.max()))
            if count > 1:
                tops.append(_largest(vals, count))
        top = max(row_max)
        kth = int(_largest(np.concatenate(tops), count).min()) if count > 1 else top
        cut = kth - 2 * self.slack - math.ceil(_TIE_RTOL * (top + self.slack))
        idx, vals = [], []
        for h, best in enumerate(row_max):
            if best >= cut:
                j = (self._screen(h, buf) >= cut).nonzero()[0]
                idx.append((h << self.k) + j)
                vals.append(np.abs(self.low[j] + self.high[h]).sum(axis=1))
        idx, vals = np.concatenate(idx), np.concatenate(vals)
        top64 = vals.max()
        first = int((vals >= top64 - _TIE_RTOL * top64).argmax())
        order = np.argsort(-vals, kind="stable")  # idx ascends: ties in index order
        order = np.concatenate(([first], order[order != first]))[:count]
        return idx[order], np.ldexp(vals[order], self.exp)

    def pairs(self, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sign vectors `indices` as alphas, their betas = sign(m^t alpha) and
        the values alpha^t m beta recomputed from each pair: a float64 array
        and two (len(indices) x n) blocks of +-1, one row per index.

        The products are stacked matrix-vector products, one per row, so
        each row's beta and value are bit for bit m^t alpha and
        alpha @ m @ beta taken for that pair alone, whatever the batch."""
        h, j = np.divmod(np.asarray(indices, dtype=np.int64), 1 << self.k)
        alphas = np.hstack((np.ones((h.size, 1)), self.low_signs[j], self.high_signs[h]))
        partial = np.matmul(alphas[:, None, :], self.m)
        betas = _sign(partial[:, 0])
        values = np.matmul(partial, betas[:, :, None])[:, 0, 0]
        if not ((np.abs(alphas) == 1.0).all() and (np.abs(betas) == 1.0).all()):
            raise ValidationError("sign vectors must have entries exactly +-1")
        return values, alphas, betas

    def pair(self, i: int) -> tuple[float, SignPair]:
        """Sign vector i as alpha, beta = sign(m^t alpha), and the value
        alpha^t m beta recomputed from the pair."""
        values, alphas, betas = self.pairs([i])
        return float(values[0]), SignPair(alphas[0], betas[0])


def _largest(vals: np.ndarray, count: int) -> np.ndarray:
    """The `count` largest entries of vals (all of them if it has fewer),
    copied out of np.partition's full-size result so that it is freed."""
    if vals.size <= count:
        return vals
    return np.partition(vals, vals.size - count)[vals.size - count:].copy()


def infty_to_one_exact(a) -> tuple[float, SignPair]:
    """Exact max of alpha^t a beta over sign vectors, with an attaining pair.

    Enumerates the 2^(n-1) sign vectors alpha with alpha_1 = +1 (global sign
    symmetry) and takes beta = sign(a^t alpha), so each value is
    ||a^t alpha||_1.  Every value is screened exactly in int16 arithmetic on
    rounded split tables (see _SplitTables), and only those within a proved
    slack of the best are rescored in float64.  Tie rule: the pair returned
    is the first alpha in index order (the binary count of its sign bits)
    whose float64 value is within _TIE_RTOL = 1e-12 relative of the float64
    maximum, so the choice does not depend on the summation order.  The returned value is
    alpha^t a beta recomputed from the attaining pair.
    """
    m = as_matrix(a, square=True)
    n = m.shape[0]
    if n > EXACT_CAP:
        raise ValidationError(
            f"n={n} exceeds EXACT_CAP={EXACT_CAP}; use infty_to_one_heuristic")
    tables = _SplitTables(m)
    return tables.pair(tables.ranked(1)[0][0])


def _top_atoms(y: np.ndarray, count: int, floor: float = -np.inf
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `count` largest ||y^t alpha||_1 over the exact enumeration, as
    _SplitTables.pairs gives them (values alpha^t y beta, alphas, betas),
    keeping after the first only those whose value exceeds `floor`.

    The rows are _SplitTables.ranked(count)'s, in its order: first
    infty_to_one_exact(y)'s pair (the tie rule's choice), then the others by
    float64 value, exact ties in index order.
    """
    tables = _SplitTables(y)
    values, alphas, betas = tables.pairs(tables.ranked(count)[0])
    keep = values > floor
    keep[0] = True
    return values[keep], alphas[keep], betas[keep]


def infty_to_one_heuristic(a, restarts: int, seed: SeedSpec) -> tuple[float, SignPair]:
    """Alternating-ascent lower bound on the inf->1 norm.

    From each random start, alternately set beta = sign(a^t alpha) and
    alpha = sign(a beta) until neither step strictly increases the value;
    the result is the best fixed point over all restarts (never decreases
    as restarts grow).
    """
    m = as_matrix(a, square=True)
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    n = m.shape[0]
    gen = seed.generator()
    best_val = -np.inf
    best_pair = None
    for _ in range(restarts):
        alpha = _sign(gen.standard_normal(n))
        val = -np.inf
        while True:
            beta = _sign(m.T @ alpha)
            alpha_next = _sign(m @ beta)
            new = float(alpha_next @ m @ beta)
            if new <= val + 1e-12 * max(1.0, abs(val)):
                break
            val = new
            alpha = alpha_next
        if val > best_val:
            best_val = val
            best_pair = SignPair(alpha, _sign(m.T @ alpha))
    return best_val, best_pair


def _rescaled_factorization(du: np.ndarray, dv: np.ndarray, triple: SvdTriple
                            ) -> tuple[FactorizationPair, np.ndarray, np.ndarray]:
    """Un-scale the SVD U' S' V'^t of M = diag(du) t diag(dv) into the
    factorization t = (diag(du)^-1 U' sqrt(S')) (sqrt(S') V'^t diag(dv)^-1).

    Rows with du_i = 0 (columns with dv_j = 0) are zero rows (columns) of t
    and get zero factor rows (columns), so nothing is divided by zero.  Also
    returns the row and column weights diag((MM^t)^(1/2)) and
    diag((M^tM)^(1/2)); the row weight is u_i ((W o t) v)_i with W = U'V'^t.
    """
    root = np.sqrt(triple.sigma)
    x = triple.u * root
    y = root[:, None] * triple.v.T
    rows, cols = du > 0, dv > 0
    x[rows] /= du[rows, None]
    x[~rows] = 0.0
    y[:, cols] /= dv[cols]
    y[:, ~cols] = 0.0
    row_w = (triple.u * triple.u) @ triple.sigma
    col_w = (triple.v * triple.v) @ triple.sigma
    return FactorizationPair(x, y), row_w, col_w


def _next_scale(d: np.ndarray, weights: np.ndarray, live: np.ndarray,
                damped: bool) -> np.ndarray:
    """The next row (or column) scaling from the current one d and the
    weights u o ((W o t) v): the undamped step (W o t) v = weights / d, or
    the damped step sqrt(weights), the geometric mean of d and (W o t) v.
    Normalised, floored at GAMMA2_SCALE_FLOOR times its largest entry on
    live rows and 0 on all-zero rows.

    An entry the update drives towards 0 belongs to a row that is slack in
    the optimal factorization; the floor keeps un-scaling from dividing the
    SVD's rounding error by a vanishing weight.
    """
    if damped:
        step = np.sqrt(weights)
    else:
        step = np.divide(weights, d, out=np.zeros_like(weights), where=live)
    step = step / np.linalg.norm(step)
    return np.where(live, np.maximum(step, GAMMA2_SCALE_FLOOR * step.max()), 0.0)


def _log_step(d: np.ndarray, d_next: np.ndarray, live: np.ndarray) -> np.ndarray:
    """log(d_next / d) on live entries: the direction of a scaling step."""
    return np.log(d_next[live] / d[live])


def _rescale(m: np.ndarray, triple: SvdTriple, width: float | None = None
             ) -> tuple[FactorizationPair, float, float]:
    """The diagonal-rescaling loop behind gamma2_bracket and gamma2_oracle
    (see gamma2_bracket for the step), from the SVD `triple` of m.  Returns
    the best factorization within TOL_FACTOR_RESIDUAL, its value (the best
    upper bound) and the best lower bound: the largest dual
    ||diag(u) m diag(v)||_tr over unit u, v among the iterates, the plain
    ||m||_tr / n (u, v uniform) and max |m_ij| (u, v coordinate vectors;
    this is gamma2 itself for PSD m, where the iterates' dual lags).

    The loop stops once upper <= (1 + GAMMA2_RESCALE_TOL) * (the iterates'
    best dual) and, when `width` is given, also upper - lower <= width, or
    after GAMMA2_RESCALE_MAX_ITER steps.  A width only adds a condition, so
    a run with one takes the same iterates and never stops earlier than a
    run without: its upper bound is at most, and its lower bound at least,
    theirs.
    """
    closed_form = max(float(triple.sigma.sum() / m.shape[0]), float(np.abs(m).max()))
    live_rows, live_cols = np.any(m, axis=1), np.any(m, axis=0)
    # zero rows/columns of t keep zero weight; the rest start uniform, so the
    # first iterate is the plain factorization of t itself
    du, dv = live_rows.astype(float), live_cols.astype(float)
    best, best_upper, best_dual = None, np.inf, 0.0
    damped, prev = False, None
    for step in range(GAMMA2_RESCALE_MAX_ITER + 1):
        if step:
            triple = svd(du[:, None] * m * dv)
        cert, row_w, col_w = _rescaled_factorization(du, dv, triple)
        value = cert.value()
        if value < best_upper and cert.residual(m) <= TOL_FACTOR_RESIDUAL:
            best, best_upper = cert, value
        dual = float(triple.sigma.sum() / (np.linalg.norm(du) * np.linalg.norm(dv)))
        best_dual = max(best_dual, dual)
        if (best_upper <= (1.0 + GAMMA2_RESCALE_TOL) * best_dual
                and (width is None or best_upper - max(best_dual, closed_form) <= width)):
            break
        du_next = _next_scale(du, row_w, live_rows, damped)
        dv_next = _next_scale(dv, col_w, live_cols, damped)
        if not damped and prev is not None:
            if dual < prev[0]:
                # the last undamped step overshot: step again from the
                # iterate before it
                damped = True
                dual, du, dv, row_w, col_w = prev
            elif (_log_step(prev[1], du, live_rows) @ _log_step(du, du_next, live_rows)
                  + _log_step(prev[2], dv, live_cols) @ _log_step(dv, dv_next, live_cols)
                  < 0.0):
                # the next undamped step would turn back on the last one
                damped = True
            if damped:
                du_next = _next_scale(du, row_w, live_rows, damped)
                dv_next = _next_scale(dv, col_w, live_cols, damped)
        prev = (dual, du, dv, row_w, col_w)
        du, dv = du_next, dv_next
    if best is None:
        raise NumericalError("no gamma2 factorization met the residual tolerance",
                             detail={"tol": TOL_FACTOR_RESIDUAL})
    return best, best_upper, max(best_dual, closed_form)


def _nonzero_square(t) -> np.ndarray:
    m = as_matrix(t, square=True)
    if not np.any(m):
        raise ValidationError("gamma2 requires a nonzero matrix")
    return m


def gamma2_bracket(t, triple: SvdTriple | None = None) -> NormBracket:
    """Two-sided gamma2 bracket.

    lower = ||t||_tr / n, witnessed by the orthogonal dual functional UV^t
    from the SVD t = U S V^t.

    upper = max row norm of x times max column norm of y for an explicit
    factorization t = x y, found by diagonal rescaling.  gamma2 has the dual
    form max over unit u, v of ||diag(u) t diag(v)||_tr; starting from the
    plain factorization U sqrt(S) . sqrt(S) V^t (u = v uniform), each step
    takes W = U'V'^t from the SVD of diag(u) t diag(v), sets
    u <- (W o t) v, normalised (likewise v <- (W o t)^t u), and un-scales
    that SVD into a factorization of t.

    The undamped step can overshoot.  If one lowers the dual
    ||diag(u) t diag(v)||_tr / (||u|| ||v||) below the previous iterate's,
    the iteration goes back to that iterate.  If the next one would turn
    back on the last (successive moves of (log u, log v) have a negative
    inner product: an oscillation whose dual can still creep up for 100
    steps), it stays at the current iterate.  Either way it takes the
    damped step u <- sqrt(u o ((W o t) v)), the geometric mean of u and
    (W o t) v, from there on.

    The best iterate whose reconstruction residual is at most
    TOL_FACTOR_RESIDUAL is kept, so the upper bound never exceeds the plain
    one.  Iteration stops once the upper bound is within a factor
    1 + GAMMA2_RESCALE_TOL of the largest dual seen (itself a lower bound on
    gamma2), or after GAMMA2_RESCALE_MAX_ITER steps.

    `triple` is the SVD of t when the caller already holds it (a gap takes
    the Bell functional from the same SVD); without it the bracket takes
    its own.  Either way the first iterate is that SVD.
    """
    m = _nonzero_square(t)
    triple = svd(m) if triple is None else triple
    lower = float(triple.sigma.sum() / m.shape[0])
    witness = DualWitness(triple.u @ triple.v.T)
    best, upper, _ = _rescale(m, triple)
    return NormBracket(lower=lower, upper=upper,
                       lower_certificate=witness, upper_certificate=best)


def gamma2_oracle(t, tol: float = 1e-4, triple: SvdTriple | None = None) -> float:
    """gamma2 to an absolute accuracy `tol`: the rescaling loop of
    gamma2_bracket, continued until its best upper bound is within `tol`
    of its best lower bound (or for GAMMA2_RESCALE_MAX_ITER steps), returns
    the midpoint of the two.  The lower bound is the best dual seen, at
    least ||t||_tr / n and max |t_ij|.  Both ends bound gamma2, so the
    result is within tol / 2 of it when the run closes, and within half
    the width reached when it does not.

    The run never stops before gamma2_bracket's does and takes the same
    iterates from the same SVD, so its bounds lie inside the bracket
    gamma2_bracket(t, triple) reports, and so does the result.  Where the
    two bounds meet, the lower one can exceed the upper one by a rounding
    error; it is clamped to the upper one, so the result never exceeds the
    bracket's upper end.  `triple` is the SVD of t when the caller already
    holds it.
    """
    m = _nonzero_square(t)
    triple = svd(m) if triple is None else triple
    _, upper, lower = _rescale(m, triple, tol)
    return 0.5 * (min(lower, upper) + upper)


def classical_lower_bound(t, bell: BellFunctional) -> float:
    """Certified lower bound <t, a>/||a|| on the projective norm of t.

    Remains valid when bell.eps_one_norm is an upper bound on the true norm.
    """
    m = as_matrix(t, square=True)
    if bell.eps_one_norm <= 0:
        raise ValidationError("Bell functional norm must be positive")
    return float((m * bell.a).sum() / bell.eps_one_norm)


def _near_singular(sigma: np.ndarray) -> bool:
    """The Bell functional's warning flag, from the descending singular
    values of t: the smallest is within 1e-10 (relative) of zero, so UV^t
    is not unique."""
    return bool(sigma[-1] <= 1e-10 * max(sigma[0], 1e-300))


def bell_functional_from_svd(t, heuristic_restarts: int = HEURISTIC_RESTARTS,
                             seed: SeedSpec = SeedSpec(0, 0),
                             triple: SvdTriple | None = None) -> BellFunctional:
    """The orthogonal functional UV^t from the SVD of t.

    For n <= EXACT_CAP the inf->1 norm is computed exactly; above the cap
    the certified upper bound n is stored (alpha^t a beta <= n ||a||_op,
    and a is orthogonal) and the alternating-ascent estimate is reported
    separately.  Near-singular inputs keep the (non-unique) UV^t and set a
    warning flag.  `triple` is the SVD of t when the caller already holds
    it (a gap also reads its trace norm); without it one is taken here.
    """
    m = as_matrix(t, square=True)
    triple = svd(m) if triple is None else triple
    a = triple.u @ triple.v.T
    n = a.shape[0]
    near_singular = _near_singular(triple.sigma)
    if n <= EXACT_CAP:
        value, pair = infty_to_one_exact(a)
        return BellFunctional(a=a, eps_one_norm=value, exact=True,
                              near_singular=near_singular, attaining=pair)
    h_val, h_pair = infty_to_one_heuristic(a, heuristic_restarts, seed)
    return BellFunctional(a=a, eps_one_norm=float(n), exact=False,
                          heuristic_lower=h_val, near_singular=near_singular,
                          attaining=h_pair)


_MASTER_OPTIONS = (("output_flag", False), ("presolve", "off"),
                   ("simplex_strategy", 4))  # 4: primal simplex


def linprog(highs: _Highs) -> tuple[np.ndarray, np.ndarray]:
    """Re-optimise the master model from its last basis; return its column
    values and its row duals (the signs of scipy's `eqlin.marginals`).

    The one HiGHS solve of each column-generation round.  It is named
    `linprog` because the span tracer in `perfbench/tracing.py` times the
    master solves by rebinding `randcorr.norms.linprog` as its `norms.lp`
    span; under another name its installation fails."""
    from scipy.optimize._highspy._core import HighsModelStatus

    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise NumericalError(f"master LP failed: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    return np.asarray(solution.col_value), np.asarray(solution.row_dual)


def _atom_codes(alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """One integer per row from the sign bits of alpha and beta (2n <= 48
    bits at n <= EXACT_CAP).  Every atom priced here has alpha_1 = +1, so
    the code tells apart exactly the atoms whose columns outer(alpha, beta)
    differ."""
    signs = np.hstack((alphas, betas)) < 0.0
    return signs @ (1 << np.arange(signs.shape[1], dtype=np.int64))


class _AtomPool:
    """The restricted master, kept from one round to the next: its sign
    atoms as two (k x n) blocks of +-1, alphas and betas, one atom per row,
    their codes (see _atom_codes) and the HiGHS model.  The model has one
    equality row per entry of b and its columns are the 2 n^2 elastic
    slacks +-e_i (cost slack_cost each) followed by the atoms' columns
    outer(alpha, beta) flattened (cost 1 each) in pool order.  The codes
    keep any atom from entering twice."""

    def __init__(self, b: np.ndarray, slack_cost: float):
        n2 = b.size
        n = math.isqrt(n2)
        self.alphas, self.betas = np.empty((0, n)), np.empty((0, n))
        self.codes = np.empty(0, dtype=np.int64)
        self.slacks = 2 * n2
        # scipy.optimize loads here, not with the package: it is most of
        # the time `import randcorr` takes
        from scipy.optimize._highspy._core import _Highs

        self.highs = _Highs()
        for option, value in _MASTER_OPTIONS:
            self.highs.setOptionValue(option, value)
        no_index = np.empty(0, dtype=np.int32)
        self.highs.addRows(n2, b, b, 0, no_index, no_index, np.empty(0))
        entries = np.arange(self.slacks, dtype=np.int32)
        self.highs.addCols(self.slacks, np.full(self.slacks, slack_cost),
                           np.zeros(self.slacks), np.full(self.slacks, np.inf),
                           self.slacks, entries, entries % n2,
                           np.repeat([1.0, -1.0], n2))

    def fresh(self, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """The rows whose atoms are neither pooled nor repeated in an
        earlier row, in order."""
        out, seen = [], set(self.codes.tolist())
        for row, code in enumerate(_atom_codes(alphas, betas).tolist()):
            if code not in seen:
                seen.add(code)
                out.append(row)
        return np.array(out, dtype=np.intp)

    def add(self, alphas: np.ndarray, betas: np.ndarray) -> None:
        """Append fresh atoms and their columns.  Nothing ever leaves the
        pool, so its first k rows stay the atoms of the first k columns."""
        k, n = alphas.shape
        n2 = n * n
        cols = alphas[:, :, None] * betas[:, None, :]
        self.highs.addCols(k, np.ones(k), np.zeros(k), np.full(k, np.inf), k * n2,
                           np.arange(0, k * n2, n2, dtype=np.int32),
                           np.tile(np.arange(n2, dtype=np.int32), k), cols.ravel())
        self.alphas = np.vstack((self.alphas, alphas))
        self.betas = np.vstack((self.betas, betas))
        self.codes = np.concatenate((self.codes, _atom_codes(alphas, betas)))


def classical_upper_bound(t, max_atoms: int = 400, tol: float = 1e-9) -> NormBracket:
    """The projective-norm bracket of t, by column generation over sign
    atoms priced by the exact enumeration, so n <= EXACT_CAP.  It returns
    both ends but keeps the name of its upper one: the span tracer in
    perfbench/tracing.py times it as `norms.classical_upper`.

    Restricted master: min sum(w) with sum_k w_k outer(alpha_k, beta_k) = t,
    w >= 0 (elastic slacks keep it feasible while the pool is small).  One
    HiGHS model lives across the rounds: atoms enter it as columns and
    never leave it, and each round re-optimises it without presolve by primal
    simplex from the last basis, which stays primal feasible when columns
    are added.  Pricing maximizes the dual pairing over all sign matrices.
    The enumeration scores every sign vector anyway, so each round adds the
    price-attaining atom plus up to _PRICING_COLUMNS - 1 further atoms
    priced above _PRICE_CAP (multi-column pricing).

    Upper end: the master's decomposition, certified by its upper_bound(t)
    (the weight sum plus the elastic slacks' reconstruction error).  Lower
    end: the best BellFunctional among UV^t from the SVD of t (round 0)
    and each round's dual Y, priced exactly: by weak duality
    <t, Y> / ||Y||_{inf->1} <= pi(t).  The best is kept, not the last, as
    this Lagrangian bound is not monotone; UV^t wins ties.  The run stops
    once upper - lower <= tol, on a pricing stall, or after max_atoms
    master solves.

    The pool starts from the _PRICING_COLUMNS best atoms of the enumeration
    of t, best first, plus the all-ones atom.  max_atoms bounds the master
    solves and nothing else: an atom that has entered the pool is never
    dropped (column generation converges without ever removing a column, and
    an atom dropped at zero weight tends to be priced back in later).  Each
    solve therefore grows slower as the pool grows, so at n >= 20 a run
    takes minutes; a smaller max_atoms stops it sooner with a wider
    bracket.  Above EXACT_CAP nothing could be certified, so the bracket is
    refused with a ValidationError before any work.
    """
    m = as_matrix(t, square=True)
    n = m.shape[0]
    if n > EXACT_CAP:
        raise ValidationError(
            f"n={n} exceeds EXACT_CAP={EXACT_CAP}, the limit of exact pricing")
    if max_atoms < 1:
        raise ValidationError("max_atoms must be >= 1")
    best = bell_functional_from_svd(m)
    lower = classical_lower_bound(m, best)
    b = m.flatten()
    scale = max(1.0, float(np.abs(m).max()))

    ones = np.ones((1, n))
    _, alphas, betas = _top_atoms(m, _PRICING_COLUMNS)
    alphas, betas = np.vstack((alphas, ones)), np.vstack((betas, ones))
    pool = _AtomPool(b, 1e6 * scale)
    new = pool.fresh(alphas, betas)
    pool.add(alphas[new], betas[new])
    for _ in range(max_atoms):
        x, y = linprog(pool.highs)
        weights = x[pool.slacks:]
        live = np.flatnonzero(weights > 1e-14)
        dec = ConvexDecomposition(weights[live], pool.alphas[live], pool.betas[live])
        upper = dec.upper_bound(m)
        dual = y.reshape(n, n)
        values, alphas, betas = _top_atoms(dual, _PRICING_COLUMNS, _PRICE_CAP)
        if values[0] > 0.0:
            bell = BellFunctional(a=dual, eps_one_norm=float(values[0]), exact=True,
                                  near_singular=best.near_singular,
                                  attaining=SignPair(alphas[0], betas[0]))
            value = classical_lower_bound(m, bell)
            if value > lower:
                best, lower = bell, value
        if upper - lower <= tol:
            break
        new = pool.fresh(alphas, betas)
        if not new.size or new[0] != 0:
            break  # pricing stalled on a pooled atom: numerical plateau
        pool.add(alphas[new], betas[new])
    return NormBracket(lower=lower, upper=upper, lower_certificate=best,
                       upper_certificate=dec)


def quantum_classical_gap(t, heuristic_restarts: int = HEURISTIC_RESTARTS,
                          seed: SeedSpec = SeedSpec(0, 0)) -> float:
    """Estimated ratio of classical to quantum norm of t.

    Numerator: the certified classical lower bound <t, UV^t>/||UV^t||.
    Denominator: ||t||_tr / n, the quantum norm value that the trace-norm
    convergence theorem makes asymptotically exact for flat bi-invariant
    ensembles.  A value > 1 flags t/gamma2(t) as non-classical; when n
    exceeds EXACT_CAP the Bell norm is the alternating-ascent estimate and
    the gap is an uncertified (optimistic) estimate.  One SVD of t gives
    both the functional and the denominator.
    """
    m = as_matrix(t, square=True)
    if not np.any(m):
        raise ValidationError("quantum_classical_gap requires a nonzero matrix")
    triple = svd(m)
    bell = bell_functional_from_svd(m, heuristic_restarts, seed, triple)
    return gap_from_bell(m, bell, float(triple.sigma.sum() / m.shape[0]))


def gap_from_bell(t, bell: BellFunctional, trace_lower: float) -> float:
    """The quantum_classical_gap of t from its Bell functional and its
    ||t||_tr / n (the gamma2 bracket's lower end)."""
    m = as_matrix(t, square=True)
    norm_value = bell.eps_one_norm if bell.exact else bell.heuristic_lower
    numerator = float((m * bell.a).sum() / norm_value)
    return numerator / trace_lower


def tau_gap_bound(n: int, m: int, seed: SeedSpec) -> float:
    """Certified upper bound on the projective norm of tau - GH^t/m for the
    coupled draw, via the row-normalization error vectors.

    With eps_i = g_i/||g_i|| - g_i/sqrt(m) (and delta_j for H), each cross
    term is a Gram matrix whose gamma2 is at most the product of maximal row
    norms; the Grothendieck upper constant converts gamma2 into the
    projective norm.
    """
    from .sampling import _gaussian_pair

    g, h, _ = _gaussian_pair(n, m, seed)
    gn = np.linalg.norm(g, axis=1)
    hn = np.linalg.norm(h, axis=1)
    sqrt_m = np.sqrt(m)
    max_eps = float(np.abs(gn / sqrt_m - 1.0).max())
    max_delta = float(np.abs(hn / sqrt_m - 1.0).max())
    return KG_UPPER * (max_eps * hn.max() / sqrt_m
                       + gn.max() * max_delta / sqrt_m
                       + max_eps * max_delta)
