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
from .linalg import SvdTriple, as_matrix, gram_eigh, svd
from .sampling import SeedSpec

if TYPE_CHECKING:
    from scipy.optimize._highspy._core import _Highs

EXACT_CAP = 24          # 2^(n-1) sign vectors enumerated exactly up to here
GAMMA2_RESCALE_TOL = 3e-3       # stop once upper <= (1 + tol) * rescaled trace norm
GAMMA2_RESCALE_MAX_ITER = 100   # rescaling steps after the plain factorization
GAMMA2_SCALE_FLOOR = 1e-2       # smallest row/column weight, relative to the largest
_LOW_BITS = 12                  # sign bits in the exact enumeration's low table (2^12 x n)
_INT16_MAX = 2 ** 15 - 1        # bound on every partial sum of the exact int16 screen
_SCREEN_ENTRIES = 2 ** 19       # int16 entries (1 MB) in one block of the screen's buffer
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


def op_norm_bound(a: np.ndarray) -> float:
    """rho(a) >= ||a||_op of a square a, with no SVD.

    rho^2 is the largest row sum of |fl(a^t a)| + gamma_n |a|^t |a|, with
    gamma_n = n u / (1 - n u), u = 2^-53: ||a||_op^2 is at most a^t a's
    largest absolute row sum (an induced norm bounds the spectral radius),
    and fl(a^t a) errs entrywise by at most gamma_n (|a|^t |a|)_ij in any
    summation order (Higham, "Accuracy and Stability of Numerical
    Algorithms", 3.5), whose row sums |a|^t (|a| 1) take O(n^2).  The
    sums and the square root are exact only to rounding."""
    n, abs_a = a.shape[0], np.abs(a)
    nu = n * np.finfo(float).eps / 2
    return math.sqrt((np.abs(a.T @ a).sum(axis=1)
                      + nu / (1.0 - nu) * (abs_a.T @ abs_a.sum(axis=1))).max())


@dataclass(frozen=True)
class DualWitness:
    """Any square a, certifying gamma2(t) >= <t, a> / (n rho(a)), rho(a) =
    op_norm_bound(a) >= ||a||_op: for unit x_i, y_j, sum_ij a_ij <x_i, y_j>
    = sum_k X_k^t a Y_k (X_k the k-th coordinates of the x_i) <=
    ||a||_op |X| |Y| = n ||a||_op.  The pairing and the quotient are exact
    only to rounding."""

    a: np.ndarray

    def value(self, t) -> float:
        m = as_matrix(t, square=True)
        if self.a.shape != m.shape:
            raise ValidationError(f"a {self.a.shape} witness for a {m.shape} matrix")
        return float((m * self.a).sum() / (m.shape[0] * op_norm_bound(self.a)))

    def to_dict(self) -> dict:
        return {"type": "dual_witness", "a": self.a.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "DualWitness":
        return cls(as_matrix(d["a"], square=True))


@dataclass(frozen=True)
class FactorizationPair:
    """x @ y ~= t, certifying gamma2(t) <= r(x) c(y) + c(E), E = t - x y, for
    r and c the largest row and column l2 norms: gamma2(t) <= gamma2(x y) +
    gamma2(I E) <= r(x) c(y) + r(I) c(E).  The error is charged, not gated."""

    x: np.ndarray
    y: np.ndarray

    def value(self, t) -> float:
        m = as_matrix(t, square=True)
        e = m - self.x @ self.y
        row = np.sqrt((self.x * self.x).sum(axis=1).max())
        col = np.sqrt((self.y * self.y).sum(axis=0).max())
        return float(row * col + np.sqrt((e * e).sum(axis=0).max()))

    def to_dict(self) -> dict:
        return {"type": "factorization", "x": self.x.tolist(), "y": self.y.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FactorizationPair":
        return cls(as_matrix(d["x"]), as_matrix(d["y"]))


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
    """A Bell functional a, an upper bound eps_one_norm on its inf->1 norm
    and a sign pair, as bell_functional builds them: up to EXACT_CAP the
    enumerated norm, which the pair attains; above it n op_norm_bound(a),
    and the ascent's pair, whose value is the estimate a gap divides by."""

    a: np.ndarray
    eps_one_norm: float
    attaining: SignPair

    def to_dict(self) -> dict:
        return {"type": "bell_functional", "a": self.a.tolist(),
                "eps_one_norm": self.eps_one_norm, "attaining": self.attaining.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "BellFunctional":
        return cls(a=as_matrix(d["a"], square=True), eps_one_norm=float(d["eps_one_norm"]),
                   attaining=SignPair.from_dict(d["attaining"]))


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

    Screen.  L = rint(low) and H = rint(high), both transposed (n x 2^k
    and n x 2^(n-1-k)), are int16 tables.  The screen takes B high rows at
    a time in one n x B x 2^k int16 buffer: one np.add of L (row c
    broadcast over the B rows) and H's B columns (H_hc broadcast over the
    2^k low vectors), one in-place np.abs pass and one int16
    np.add.reduce over the n rows, each a contiguous run of B 2^k
    entries, give sum_c |L_c + H_c| for the block's B 2^k vectors.
    B = _SCREEN_ENTRIES // (n 2^k), at least 1 and at most every row:
    a 1 MB buffer, which a core's L2 cache holds through the three passes,
    and several rows per numpy call, which spreads the per-call cost.  A
    table with n 2^(n-1) <= 2^19 entries (n <= 16) is one block.  Integer
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
    vectors reach the cut.  The candidates are rescored a block at a time,
    in index order, and only two running sets are kept: the count best so
    far (ties in index order), and the strict prefix-maximum records within
    2 _TIE_RTOL of the running maximum.  The tie rule's choice, the first
    index within _TIE_RTOL of the final maximum M, beats every value before
    it, so it is a record; every running maximum is at most M, so its value
    stays above (1 - 2 _TIE_RTOL) times each one (the factor 2 covers the
    rounding), and it is never dropped.  So memory does not grow with the
    number of candidates, which is every sign vector of eye(n).
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
        # built transposed: the screen reads n rows of 2^k (C-contiguous)
        # and n rows of the high columns, the rescoring reads rows j of the
        # transpose, a view
        low_t = scaled[1:1 + self.k].T @ self.low_signs.T
        self.low = low_t.T
        self.high = scaled[0] + self.high_signs @ scaled[1 + self.k:]
        self.low16 = np.empty(low_t.shape, dtype=np.int16)
        np.rint(low_t, out=self.low16, casting="unsafe")
        self.high16_t = np.rint(self.high.T).astype(np.int16, order="C")

    def _screen(self, rows, buf: np.ndarray) -> np.ndarray:
        """The integer values of the 2^k sign vectors in each high row of
        `rows` (a slice or an index array): a new int16 array, one row of
        2^k per high row.  buf is int16, n x len(rows) x 2^k, and holds
        |L_c + H_c| afterwards."""
        np.add(self.low16[:, None, :], self.high16_t[:, rows, None], out=buf)
        np.abs(buf, out=buf)
        return np.add.reduce(buf, axis=0, dtype=np.int16)

    def ranked(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Up to `count` sign vectors, best first: their indices and their
        float64 values ||m^t alpha||_1 as rescored, un-scaled (two arrays).

        First comes the tie rule's choice: the first index whose float64
        value is within _TIE_RTOL relative of the float64 maximum.  The
        others follow by float64 value, exact ties in index order.

        The screen runs over every high row, a block at a time (see
        _SplitTables), keeping each row's maximum (and each block's `count`
        largest values).  A table of one block takes its candidates from the
        values it has just screened; a larger one screens again, in blocks,
        only the rows whose maximum reaches the cut.  Every index at or
        above the cut is rescored in float64 as its own row sum, so its
        value depends on its sign vector alone, not on which other
        candidates are rescored with it.  The rescoring goes a block's worth
        of indices at a time, in index order, and keeps only the records
        the tie rule can pick and the count best (see _SplitTables), so the
        memory it takes does not grow with ties.
        """
        n, size = self.low16.shape
        rows = self.high16_t.shape[1]
        block = min(rows, max(1, _SCREEN_ENTRIES // (n * size)))  # high rows
        buf = np.empty((n, block, size), dtype=np.int16)
        if block == rows:  # one block from row 0: its flat positions are the indices
            screened = self._screen(slice(None), buf).ravel()
            top, tops = int(screened.max()), [screened]
        else:
            row_max, tops = [], []
            for lo in range(0, rows, block):
                screened = self._screen(slice(lo, lo + block), buf[:, :min(block, rows - lo)])
                row_max.append(screened.max(axis=1))
                if count > 1:
                    tops.append(_largest(screened.ravel(), count))
            row_max = np.concatenate(row_max)
            top = int(row_max.max())
        kth = int(_largest(np.concatenate(tops), count).min()) if count > 1 else top
        cut = kth - 2 * self.slack - math.ceil(_TIE_RTOL * (top + self.slack))
        # the candidates, ascending, a block's worth at a time
        if block == rows:
            chunks = [(screened >= cut).nonzero()[0]]
        else:
            hot = (row_max >= cut).nonzero()[0]
            chunks = (self._reaching(hot[lo:lo + block], cut, buf)
                      for lo in range(0, hot.size, block))
        # kept as they stream past: the strict prefix-maximum records near
        # the running maximum, among which the tie rule's choice lies, and
        # the count best, ties in index order
        rec_i, best_i = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        rec_v, best_v = np.empty(0), np.empty(0)
        for idx in chunks:
            h, j = np.divmod(idx, size)
            terms = self.low[j]
            terms += self.high[h]
            vals = np.abs(terms, out=terms).sum(axis=1)
            cur = rec_v[-1] if rec_v.size else -np.inf
            new = vals > np.maximum.accumulate(np.concatenate(([cur], vals[:-1])))
            rec_i, rec_v = np.concatenate((rec_i, idx[new])), np.concatenate((rec_v, vals[new]))
            near = rec_v >= rec_v[-1] * (1.0 - 2.0 * _TIE_RTOL)
            rec_i, rec_v = rec_i[near], rec_v[near]
            if count > 1:
                # a later index enters only above the count-th best so far
                over = vals > best_v[-1] if best_v.size == count else slice(None)
                idx, vals = idx[over], vals[over]
                if vals.size > count:
                    over = vals >= _largest(vals, count).min()
                    idx, vals = idx[over], vals[over]
                order = np.argsort(-np.concatenate((best_v, vals)), kind="stable")[:count]
                best_i = np.concatenate((best_i, idx))[order]
                best_v = np.concatenate((best_v, vals))[order]
        top64 = rec_v[-1]
        first = int((rec_v >= top64 - _TIE_RTOL * top64).argmax())
        # the count best hold the count - 1 best other than first
        others = best_i != rec_i[first]
        indices = np.concatenate((rec_i[first:first + 1], best_i[others]))[:count]
        values = np.concatenate((rec_v[first:first + 1], best_v[others]))[:count]
        return indices, np.ldexp(values, self.exp)

    def _reaching(self, rows: np.ndarray, cut: int, buf: np.ndarray) -> np.ndarray:
        """The indices in high rows `rows` (ascending) whose screened value
        reaches the cut, ascending."""
        r, j = (self._screen(rows, buf[:, :rows.size]) >= cut).nonzero()
        return (rows[r] << self.k) + j

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
    the result is the best fixed point's pair over all restarts, with the
    value that pair attains (never decreases as restarts grow).
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
        pair = SignPair(alpha, beta)  # beta = sign(a^t alpha) at the break
        value = pair.pairing(m)
        if value > best_val:
            best_val, best_pair = value, pair
    return best_val, best_pair


def _rescaled_factorization(du: np.ndarray, dv: np.ndarray, sigma: np.ndarray,
                            v: np.ndarray, mv: np.ndarray
                            ) -> tuple[FactorizationPair, np.ndarray, np.ndarray]:
    """Un-scale M = diag(du) t diag(dv) = (MV) V^t, given its singular values
    sigma > 0, right singular vectors V and the products MV, into the
    factorization t = (diag(du)^-1 MV S^-1/2) (S^1/2 V^t diag(dv)^-1).  No
    left singular vectors are needed: MV S^-1 is U.

    Rows with du_i = 0 (columns with dv_j = 0) are zero rows (columns) of t
    and get zero factor rows (columns), so nothing is divided by zero.  Also
    returns the row and column weights diag((MM^t)^(1/2)) = (MV o MV) S^-1
    and diag((M^tM)^(1/2)) = (V o V) S; the row weight is u_i ((W o t) v)_i
    with W = UV^t.
    """
    root = np.sqrt(sigma)
    x = mv / root
    y = root[:, None] * v.T
    rows, cols = du > 0, dv > 0
    x[rows] /= du[rows, None]
    x[~rows] = 0.0
    y[:, cols] /= dv[cols]
    y[:, ~cols] = 0.0
    row_w = (mv * mv) @ (1.0 / sigma)
    col_w = (v * v) @ sigma
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
    (see gamma2_bracket for the step), from the SVD `triple` of m: the first
    iterate un-scales that SVD, every later one the eigendecomposition
    gram_eigh takes of the rescaled m.  Returns the factorization of least
    value(m), that value (the best upper bound) and the best lower bound:
    the largest dual ||diag(u) m diag(v)||_tr over unit u, v among the
    iterates, the plain ||m||_tr / n (u, v uniform) and max |m_ij| (u, v
    coordinate vectors; this is gamma2 itself for PSD m, where the
    iterates' dual lags).

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
    # in the form gram_eigh gives every later iterate: (S, V, MV = US), with
    # the zero singular values dropped (they add nothing to t = U S V^t)
    keep = triple.sigma > 0.0
    sigma, v, mv = triple.sigma[keep], triple.v[:, keep], (triple.u * triple.sigma)[:, keep]
    best, best_upper, best_dual = None, np.inf, 0.0
    damped, prev = False, None
    for step in range(GAMMA2_RESCALE_MAX_ITER + 1):
        if step:
            sigma, v, mv = gram_eigh(du[:, None] * m * dv)
        cert, row_w, col_w = _rescaled_factorization(du, dv, sigma, v, mv)
        value = cert.value(m)
        if value < best_upper:
            best, best_upper = cert, value
        dual = float(sigma.sum() / (np.linalg.norm(du) * np.linalg.norm(dv)))
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
    return best, best_upper, max(best_dual, closed_form)


def _nonzero_square(t) -> np.ndarray:
    m = as_matrix(t, square=True)
    if not np.any(m):
        raise ValidationError("gamma2 requires a nonzero matrix")
    return m


def gamma2_bracket(t, triple: SvdTriple | None = None) -> NormBracket:
    """Two-sided gamma2 bracket, each end its certificate's value(t).

    lower = DualWitness(UV^t).value(t) from the SVD t = U S V^t, ||t||_tr / n
    up to rounding; where the two ends meet it can exceed the upper one by
    a rounding error, and is clamped to it, so the bracket never inverts.

    upper = FactorizationPair(x, y).value(t) for x y ~= t found by diagonal
    rescaling.  gamma2 has the dual form max over unit u, v of
    ||diag(u) t diag(v)||_tr; starting from the plain factorization U sqrt(S) . sqrt(S) V^t (u = v uniform), each step
    sets u <- (W o t) v, normalised (likewise v <- (W o t)^t u), where
    W = U'V'^t is the polar factor of M = diag(u) t diag(v), and un-scales
    M into a factorization of t.  M is decomposed from the symmetric
    eigendecomposition M^t M = V' S'^2 V'^t (linalg.gram_eigh): the
    factorization and both updates need only S', V' and M V', so U' is
    never formed.  Only the first iterate takes an SVD; none is validated,
    as every iterate is charged its factorization's reconstruction error.

    The undamped step can overshoot.  If one lowers the dual
    ||diag(u) t diag(v)||_tr / (||u|| ||v||) below the previous iterate's,
    the iteration goes back to that iterate.  If the next one would turn
    back on the last (successive moves of (log u, log v) have a negative
    inner product: an oscillation whose dual can still creep up for 100
    steps), it stays at the current iterate.  Either way it takes the
    damped step u <- sqrt(u o ((W o t) v)), the geometric mean of u and
    (W o t) v, from there on.

    The iterate of least value(t) is kept, so the upper bound never exceeds
    the plain factorization's.  Iteration stops once the upper bound is
    within a factor 1 + GAMMA2_RESCALE_TOL of the largest dual seen (itself
    a lower bound on gamma2), or after GAMMA2_RESCALE_MAX_ITER steps.

    `triple` is the SVD of t when the caller already holds it (a gap takes
    the Bell functional from the same SVD); without it the bracket takes
    its own.  Either way the first iterate is that SVD.
    """
    m = _nonzero_square(t)
    triple = svd(m) if triple is None else triple
    witness = DualWitness(triple.u @ triple.v.T)
    best, upper, _ = _rescale(m, triple)
    return NormBracket(lower=min(witness.value(m), upper), upper=upper,
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
    """Certified lower bound <t, a>/||a|| on the projective norm of t, for an
    a of t's shape.

    Remains valid when bell.eps_one_norm is an upper bound on the true norm.
    """
    m = as_matrix(t, square=True)
    if bell.a.shape != m.shape:
        raise ValidationError(f"a {bell.a.shape} Bell functional for a {m.shape} matrix")
    if bell.eps_one_norm <= 0:
        raise ValidationError("Bell functional norm must be positive")
    return float((m * bell.a).sum() / bell.eps_one_norm)


def bell_functional(a, seed: SeedSpec = SeedSpec(0, 0)) -> BellFunctional:
    """The Bell functional a with its inf->1 norm bound and sign pair: the
    one place that builds them, for the commands and for verify-certificate,
    which rebuilds a stored functional from its a and compares the whole.

    For n <= EXACT_CAP the norm is enumerated (infty_to_one_exact), and the
    pair is the tie rule's, which attains it.  Above the cap the bound is
    n op_norm_bound(a) >= n ||a||_op, and the pair is the best of
    HEURISTIC_RESTARTS ascent starts from `seed`: its value, a lower bound
    on the norm, is the estimate a gap divides by.
    """
    m = as_matrix(a, square=True)
    n = m.shape[0]
    if n <= EXACT_CAP:
        value, pair = infty_to_one_exact(m)
        return BellFunctional(a=m, eps_one_norm=value, attaining=pair)
    _, pair = infty_to_one_heuristic(m, HEURISTIC_RESTARTS, seed)
    return BellFunctional(a=m, eps_one_norm=n * op_norm_bound(m), attaining=pair)


def bell_functional_from_svd(t, seed: SeedSpec = SeedSpec(0, 0),
                             triple: SvdTriple | None = None) -> BellFunctional:
    """bell_functional of the orthogonal functional UV^t from the SVD of t,
    its ascent (above EXACT_CAP) started from `seed`.  `triple` is the SVD
    of t when the caller already holds it (a gap also reads its trace
    norm); without it one is taken here.
    """
    triple = svd(t) if triple is None else triple
    return bell_functional(triple.u @ triple.v.T, seed)


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
    <t, Y> / ||Y||_{inf->1} <= pi(t).  Y's functional is taken from the
    round's pricing enumeration, not enumerated again; it is bit for bit
    bell_functional(Y), which verify-certificate rebuilds.  The best is
    kept, not the last, as this Lagrangian bound is not monotone; UV^t wins
    ties.  The run stops once upper - lower <= tol, on a pricing stall, or
    after max_atoms master solves.  Where the two ends meet, the lower one
    can exceed the upper one by a rounding error; it is clamped to the
    upper one, so the bracket never inverts.

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
            bell = BellFunctional(a=dual, eps_one_norm=float(values[0]),
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
    return NormBracket(lower=min(lower, upper), upper=upper, lower_certificate=best,
                       upper_certificate=dec)


def quantum_classical_gap(t, seed: SeedSpec = SeedSpec(0, 0)) -> float:
    """Estimated ratio of classical to quantum norm of t.

    Numerator: the certified classical lower bound <t, UV^t>/||UV^t||.
    Denominator: the certified gamma2 lower bound DualWitness(UV^t).value(t),
    ||t||_tr / n up to rounding: the quantum norm value that the trace-norm
    convergence theorem makes asymptotically exact for flat bi-invariant
    ensembles.  A value > 1 flags t/gamma2(t) as non-classical; when n
    exceeds EXACT_CAP the Bell norm is the alternating-ascent estimate and
    the gap is an uncertified (optimistic) estimate.  One SVD of t gives
    the functional, whose UV^t also witnesses the denominator.
    """
    m = as_matrix(t, square=True)
    if not np.any(m):
        raise ValidationError("quantum_classical_gap requires a nonzero matrix")
    bell = bell_functional_from_svd(m, seed)
    return gap_from_bell(m, bell, DualWitness(bell.a).value(m))


def gap_from_bell(t, bell: BellFunctional, gamma2_lower: float) -> float:
    """The quantum_classical_gap of t from its Bell functional and a gamma2
    lower bound (the gamma2 bracket's lower end).  It divides by the value
    of the functional's sign pair: up to EXACT_CAP the enumerated norm,
    which the pair attains, above it the ascent's estimate of the norm."""
    m = as_matrix(t, square=True)
    numerator = float((m * bell.a).sum() / bell.attaining.pairing(bell.a))
    return numerator / gamma2_lower


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
