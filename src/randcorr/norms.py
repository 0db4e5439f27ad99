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

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from .errors import NumericalError, ValidationError
from .linalg import SvdTriple, as_matrix, svd
from .sampling import SeedSpec

EXACT_CAP = 24          # 2^(n-1) sign vectors enumerated exactly up to here
GAMMA2_ORACLE_CAP = 12  # PSD-completion oracle stays desk-scale
GAMMA2_ORACLE_TOL_FEAS = 1e-7   # relative residual of a feasible PSD completion
GAMMA2_ORACLE_MAX_ITER = 3000   # alternating projections per feasibility test
GAMMA2_ORACLE_MAX_BISECT = 40   # bisection steps before the oracle gives up
GAMMA2_RESCALE_TOL = 3e-3       # stop once upper <= (1 + tol) * rescaled trace norm
GAMMA2_RESCALE_MAX_ITER = 100   # rescaling steps after the plain factorization
GAMMA2_SCALE_FLOOR = 1e-2       # smallest row/column weight, relative to the largest
TOL_FACTOR_RESIDUAL = 1e-9      # max reconstruction residual of an upper certificate
TOL_DECOMPOSITION_RESIDUAL = 1e-6  # max residual of a certified convex decomposition
_LOW_BITS = 12                  # sign bits in the exact enumeration's low table (2^12 x n)
_TIE_RTOL = 1e-12               # sign vectors this close (relative) to the maximum tie
_PRICING_COLUMNS = 32           # atoms priced per column-generation round
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
    """t ~= sum_k weights[k] * outer(alpha_k, beta_k); the weight sum upper
    bounds the projective norm whenever the reconstruction is exact."""

    weights: np.ndarray
    atoms: list[SignPair]
    residual: float = 0.0
    converged: bool = True
    certified: bool = True

    def weight_sum(self) -> float:
        return float(np.sum(self.weights))

    def reconstruct(self, n: int) -> np.ndarray:
        out = np.zeros((n, n))
        for w, atom in zip(self.weights, self.atoms):
            out += w * np.outer(atom.alpha, atom.beta)
        return out

    def reconstruction_residual(self, t) -> float:
        m = as_matrix(t, square=True)
        return float(np.abs(self.reconstruct(m.shape[0]) - m).max())

    def to_dict(self) -> dict:
        return {"type": "convex_decomposition",
                "weights": [float(w) for w in self.weights],
                "atoms": [a.to_dict() for a in self.atoms],
                "residual": self.residual,
                "converged": self.converged,
                "certified": self.certified}

    @classmethod
    def from_dict(cls, d: dict) -> "ConvexDecomposition":
        return cls(weights=np.asarray(d["weights"], dtype=float),
                   atoms=[SignPair.from_dict(a) for a in d["atoms"]],
                   residual=float(d.get("residual", 0.0)),
                   converged=bool(d.get("converged", True)),
                   certified=bool(d.get("certified", True)))


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


@functools.lru_cache(maxsize=EXACT_CAP)
def _ones(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ones(n) in float64 and float32: the vectors that sum table
    rows by a matrix product."""
    pair = np.ones(n), np.ones(n, dtype=np.float32)
    for v in pair:
        v.flags.writeable = False
    return pair


class _SplitTables:
    """The exact enumeration of a square m: a float32 screen of every sign
    vector, then float64 rescoring of the few the screen cannot rule out.

    Index i (0 <= i < 2^(n-1)) stands for alpha = (1, s_low, s_high): bit b
    of i set means alpha_(b+2) = -1.  With k = min(n - 1, _LOW_BITS) low
    bits, m^t alpha is row j = i mod 2^k of low = (sign rows over k bits)
    m[1:1+k] plus row h = i >> k of high = m[0] + (sign rows over the rest)
    m[1+k:], and the value of i is ||m^t alpha||_1 = sum_c |low_jc + high_hc|.

    Scale.  Both tables are built in float64 from m 2^p, where 2^(e-1) <=
    max |m_ij| < 2^e and p = -(e + ceil(log2 n^2)), so that
    A = sum |m_ij| 2^p < 1.  A power of two changes no comparison, is exact
    bar float64 underflow (entries 2^-1000 below the largest), and keeps the
    float32 copies in range for entries anywhere in 1e+-300.

    Screen.  low32 is the low table transposed (n x 2^k) and h the high row,
    both in float32.  For all 2^k vectors of high row h at once,
        sum_c |l_c + h_c| = 2 sum_c max(l_c, -h_c) - sum_c l_c + sum_c h_c
    takes one np.maximum pass over low32 and one ones @ buf product; the
    sums of l (one per low row) and of h (one per high row) are computed
    once, by the same float32 product.

    Slack: a bound on |screened value - V| for V the exact value.  With
    u = 2^-24 and eta = 2^-150 (half the smallest float32 subnormal),
    rounding x to float32 errs by at most u|x| + eta, and a float32 sum of n
    terms in any order by gamma = (n - 1) u / (1 - (n - 1) u) times the sum
    of their sizes; additions whose result is subnormal are exact.
    - Tables.  The float64 entries err by n 2^-53 A in total, and rounding
      them to float32 by u A + 2n eta over one vector's 2n entries.  As
      |.| is 1-Lipschitz, V' = sum_c |l_c + h_c| of the float32 entries is
      within u A + 2n eta of V (to first order), and
      A' = sum_c (|l_c| + |h_c|) <= A + u A + 2n eta.
    - Arithmetic.  max, negation and doubling are exact.  The sum of the
      terms max(l_c, -h_c), each at most |l_c| + |h_c| in size, errs by
      gamma A', doubled to 2 gamma A'; the sums of l and of h together by
      gamma A'.  Of the two subtractions that combine the three, the first
      has a result of size at most 3 A' and the second of about A': u 4 A'.
    So |screened value - V| <= (3n + 2) u A + 2n eta to first order.
    slack = (3n + 16) u + 8n eta (A < 1) adds 14 u for the second-order
    terms (under n^2 u^2), the float64 tables and the float64 rescoring
    (under 3n 2^-53 each), so it bounds |screened - rescored| as well.
    slack64 = (10n + 16) 2^-53 + 8n 2^-1074 bounds |rescored - alpha^t m beta|
    for the pair built from the same alpha: the rescored value errs by
    under 6n 2^-53 A, and alpha^t m beta by under 4n 2^-53 A (two float64
    sums of n terms, and beta entries whose sign rounding may flip).

    Candidates.  Let top32 be the largest screened value and kth32 the
    count-th largest.  The float64 maximum M is at most top32 + slack, and
    the count-th largest float64 value is at least kth32 - slack, since
    count vectors screen at or above kth32.  So every vector among the
    count best in float64, or within _TIE_RTOL M of M, screens at or above
        cut = kth32 - 2 slack - _TIE_RTOL (top32 + slack).
    """

    def __init__(self, m: np.ndarray):
        n = m.shape[0]
        self.m = m
        self.k = min(n - 1, _LOW_BITS)
        self.low_signs, self.high_signs = _sign_rows(self.k), _sign_rows(n - 1 - self.k)
        # sum |m_ij| <= n^2 max |m_ij| < n^2 2^e <= 2^-p: A < 1
        e = math.frexp(float(np.abs(m).max()))[1]
        self.exp = e + (n * n - 1).bit_length()
        scaled = np.ldexp(m, -self.exp)
        self.low = self.low_signs @ scaled[1:1 + self.k]
        self.high = scaled[0] + self.high_signs @ scaled[1 + self.k:]
        self.low32 = np.ascontiguousarray(self.low.T, dtype=np.float32)
        self.neg_high32 = np.negative(self.high, dtype=np.float32)
        self.ones, self.ones32 = _ones(n)
        self.low32_sum = self.ones32 @ self.low32
        self.neg_high32_sum = self.neg_high32 @ self.ones32
        self.slack = (3 * n + 16) * 2.0 ** -24 + 8 * n * 2.0 ** -150
        self.slack64 = (10 * n + 16) * 2.0 ** -53 + 8 * n * 2.0 ** -1074

    def _screen(self, h: int, buf: np.ndarray) -> np.ndarray:
        """Float32 values of the 2^k sign vectors in high row h (a new array)."""
        np.maximum(self.low32, self.neg_high32[h][:, None], out=buf)
        vals = self.ones32 @ buf
        vals += vals  # doubling is exact
        vals -= self.low32_sum
        vals -= self.neg_high32_sum[h]
        return vals

    def ranked(self, count: int) -> list[tuple[int, float]]:
        """Up to `count` sign vectors, best first, each as (index, float64
        value ||m^t alpha||_1 as rescored, un-scaled).

        First comes the tie rule's choice: the first index whose float64
        value is within _TIE_RTOL relative of the float64 maximum.  The
        others follow by float64 value, exact ties in index order.

        The screen runs over every high row, keeping each row's maximum (and
        its `count` largest values) and the screen of the best row.  Then
        the rows that reach the cut are rescored in float64, one at a time,
        keeping each row's float64 maximum (and the `count` best so far).
        The tie rule's index lies in the first of those rows whose maximum
        is within _TIE_RTOL of the largest; that row is rescored once more
        unless it was the last one rescored.
        """
        buf = np.empty_like(self.low32)

        def rescore(h: int) -> tuple[np.ndarray, np.ndarray]:
            # (low rows j at or above the cut, their float64 values)
            vals = best_screen[1] if h == best_screen[0] else self._screen(h, buf)
            j = (vals >= cut).nonzero()[0]
            return j, np.abs(self.low[j] + self.high[h]) @ self.ones

        row_max, tops, top32 = [], [], -np.inf
        for h in range(self.high.shape[0]):
            vals = self._screen(h, buf)
            row_max.append(float(vals.max()))
            if row_max[h] > top32:
                best_screen, top32 = (h, vals), row_max[h]
            if count > 1:
                tops.append(_largest(vals, count))
        kth32 = float(_largest(np.concatenate(tops), count).min()) if count > 1 else top32
        # a float64 scalar, so that float32 values are compared to it unrounded
        cut = np.float64(kth32 - 2 * self.slack - _TIE_RTOL * (top32 + self.slack))
        row64, best_idx, best_val = {}, np.empty(0, dtype=np.int64), np.empty(0)
        for h in range(len(row_max)):
            if row_max[h] >= cut:
                j, vals = rescore(h)
                row64[h], last = vals.max(), (h, j, vals)
                if count > 1:
                    best_idx = np.concatenate((best_idx, (h << self.k) + j))
                    best_val = np.concatenate((best_val, vals))
                    order = np.lexsort((best_idx, -best_val))[:count]
                    best_idx, best_val = best_idx[order], best_val[order]
        top64 = max(row64.values())
        tie = top64 - _TIE_RTOL * top64
        h = next(h for h, v in row64.items() if v >= tie)
        j, vals = last[1:] if h == last[0] else rescore(h)
        at = (vals >= tie).argmax()
        first = (h << self.k) + int(j[at])
        ranked = [(first, vals[at])] + [(int(i), v) for i, v in zip(best_idx, best_val)
                                        if i != first][:count - 1]
        return [(i, float(np.ldexp(v, self.exp))) for i, v in ranked]

    def pair(self, i: int) -> tuple[float, SignPair]:
        """Sign vector i as alpha, beta = sign(m^t alpha), and the value
        alpha^t m beta recomputed from the pair."""
        h, j = divmod(i, 1 << self.k)
        alpha = np.concatenate(([1.0], self.low_signs[j], self.high_signs[h]))
        beta = _sign(self.m.T @ alpha)
        return float(alpha @ self.m @ beta), SignPair(alpha, beta)


def _largest(vals: np.ndarray, count: int) -> np.ndarray:
    """The `count` largest entries of vals (all of them if it has fewer)."""
    if vals.size <= count:
        return vals
    return np.partition(vals, vals.size - count)[vals.size - count:]


def infty_to_one_exact(a) -> tuple[float, SignPair]:
    """Exact max of alpha^t a beta over sign vectors, with an attaining pair.

    Enumerates the 2^(n-1) sign vectors alpha with alpha_1 = +1 (global sign
    symmetry) and takes beta = sign(a^t alpha), so each value is
    ||a^t alpha||_1.  Every value is screened in float32 from split tables
    (see _SplitTables), and only those within a proved slack of the best are
    rescored in float64.  Tie rule: the pair returned is the first alpha in
    index order (the binary count of its sign bits) whose float64 value is
    within _TIE_RTOL = 1e-12 relative of the float64 maximum, so the choice
    does not depend on the summation order.  The returned value is
    alpha^t a beta recomputed from the attaining pair.
    """
    m = as_matrix(a, square=True)
    n = m.shape[0]
    if n > EXACT_CAP:
        raise ValidationError(
            f"n={n} exceeds EXACT_CAP={EXACT_CAP}; use infty_to_one_heuristic")
    tables = _SplitTables(m)
    return tables.pair(tables.ranked(1)[0][0])


def _top_sign_pairs(y: np.ndarray, count: int,
                    floor: float = -np.inf) -> list[tuple[float, SignPair]]:
    """The `count` largest ||y^t alpha||_1 over the exact enumeration, each as
    (alpha^t y beta, SignPair), keeping after the first only those whose
    alpha^t y beta exceeds `floor`.

    The first entry is infty_to_one_exact(y)'s pair (the tie rule's choice);
    the others follow by float64 value, exact ties in index order.  They come
    from the same float32 screen and float64 rescoring, with the cut taken
    at the count-th largest screened value.  A pair is built only when its
    rescored value is within slack64 of `floor` or above: slack64 bounds
    how far the rescored value and alpha^t y beta can differ, so the pairs
    skipped are exactly those that would fail the floor.
    """
    tables = _SplitTables(y)
    ranked = tables.ranked(count)
    near = floor - float(np.ldexp(tables.slack64, tables.exp))
    rest = (tables.pair(i) for i, value in ranked[1:] if value > near)
    return [tables.pair(ranked[0][0])] + [p for p in rest if p[0] > floor]


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


def gamma2_bracket(t) -> NormBracket:
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
    """
    m = as_matrix(t, square=True)
    if not np.any(m):
        raise ValidationError("gamma2_bracket requires a nonzero matrix")
    return _gamma2_bracket(m, svd(m))


def _gamma2_bracket(m: np.ndarray, triple: SvdTriple) -> NormBracket:
    """gamma2_bracket on a nonzero square m and its SVD triple."""
    n = m.shape[0]
    lower = float(triple.sigma.sum() / n)
    witness = DualWitness(triple.u @ triple.v.T)
    # zero rows/columns of t keep zero weight; the rest start uniform, so the
    # first iterate is the plain factorization of t itself
    live_rows, live_cols = np.any(m, axis=1), np.any(m, axis=0)
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
        if best_upper <= (1.0 + GAMMA2_RESCALE_TOL) * best_dual:
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
    return NormBracket(lower=lower, upper=best_upper,
                       lower_certificate=witness, upper_certificate=best)


def _psd_completion_feasible(t: np.ndarray, c: float, z0: np.ndarray | None):
    """Alternating projections between the PSD cone and the affine slice
    {off-diagonal block = t, diagonal <= c}.  Returns (feasible, last Z)."""
    n = t.shape[0]
    scale = 1.0 + float(np.linalg.norm(t))
    if z0 is None:
        z = np.zeros((2 * n, 2 * n))
        z[:n, n:] = t
        z[n:, :n] = t.T
        np.fill_diagonal(z, c)
    else:
        z = z0.copy()
        d = np.diagonal(z).copy()
        np.fill_diagonal(z, np.minimum(d, c))
    prev_res = np.inf
    for it in range(GAMMA2_ORACLE_MAX_ITER):
        w, vec = np.linalg.eigh(z)
        psd = (vec * np.maximum(w, 0.0)) @ vec.T
        z = psd.copy()
        z[:n, n:] = t
        z[n:, :n] = t.T
        d = np.diagonal(z).copy()
        np.fill_diagonal(z, np.minimum(d, c))
        res = float(np.linalg.norm(psd - z)) / scale
        if res < GAMMA2_ORACLE_TOL_FEAS:
            return True, z
        if it % 50 == 49:
            if res > 10 * GAMMA2_ORACLE_TOL_FEAS and res > 0.999 * prev_res:
                return False, z
            prev_res = res
    return res < 10 * GAMMA2_ORACLE_TOL_FEAS, z


def gamma2_oracle(t, tol: float = 1e-4) -> float:
    """Small-n gamma2 oracle, independent of the bracket construction.

    Bisects c over [bracket.lower, bracket.upper] on feasibility of a PSD
    completion [[P, t], [t^t, Q]] with all diagonal entries <= c, decided
    by alternating projections (eigenvalue clipping vs. affine reset).
    The projections give up as infeasible when 50 of them cut the residual
    by less than 0.1%, which happens for feasible c close to gamma2, so the
    result can lie above gamma2 by about 5e-4 relative, whatever `tol`.
    """
    m = as_matrix(t, square=True)
    if m.shape[0] > GAMMA2_ORACLE_CAP:
        raise ValidationError(f"gamma2_oracle is capped at n={GAMMA2_ORACLE_CAP}")
    bracket = gamma2_bracket(m)
    lo, hi = bracket.lower, bracket.upper
    warm = None
    steps = 0
    while hi - lo > tol:
        if steps >= GAMMA2_ORACLE_MAX_BISECT:
            raise NumericalError("gamma2 bisection failed to separate",
                                 detail={"interval": (lo, hi)})
        mid = 0.5 * (lo + hi)
        feasible, warm = _psd_completion_feasible(m, mid, warm)
        if feasible:
            hi = mid
        else:
            lo = mid
        steps += 1
    return 0.5 * (lo + hi)


def classical_lower_bound(t, bell: BellFunctional) -> float:
    """Certified lower bound <t, a>/||a|| on the projective norm of t.

    Remains valid when bell.eps_one_norm is an upper bound on the true norm.
    """
    m = as_matrix(t, square=True)
    if bell.eps_one_norm <= 0:
        raise ValidationError("Bell functional norm must be positive")
    return float((m * bell.a).sum() / bell.eps_one_norm)


def bell_functional_from_svd(t, heuristic_restarts: int = HEURISTIC_RESTARTS,
                             seed: SeedSpec = SeedSpec(0, 0)) -> BellFunctional:
    """The orthogonal functional UV^t from the SVD of t.

    For n <= EXACT_CAP the inf->1 norm is computed exactly; above the cap
    the certified upper bound n is stored (alpha^t a beta <= n ||a||_op,
    and a is orthogonal) and the alternating-ascent estimate is reported
    separately.  Near-singular inputs keep the (non-unique) UV^t and set a
    warning flag.
    """
    m = as_matrix(t, square=True)
    return _bell_functional(svd(m), heuristic_restarts, seed)


def _near_singular(sigma: np.ndarray) -> bool:
    """The Bell functional's warning flag, from the descending singular
    values of t: the smallest is within 1e-10 (relative) of zero, so UV^t
    is not unique."""
    return bool(sigma[-1] <= 1e-10 * max(sigma[0], 1e-300))


def _bell_functional(triple: SvdTriple, heuristic_restarts: int,
                     seed: SeedSpec) -> BellFunctional:
    """bell_functional_from_svd on the SVD triple of t."""
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


def _atom_column(pair: SignPair) -> np.ndarray:
    return np.outer(pair.alpha, pair.beta).ravel()


_MASTER_OPTIONS = (("output_flag", False), ("presolve", "off"),
                   ("simplex_strategy", 4))  # 4: primal simplex


def linprog(highs: _Highs) -> tuple[np.ndarray, np.ndarray]:
    """Re-optimise the master model from its last basis; return its column
    values and its row duals (the signs of scipy's `eqlin.marginals`).

    The one HiGHS solve of each column-generation round.  It is named
    `linprog` because the span tracer in `perfbench/tracing.py` times the
    master solves by rebinding `randcorr.norms.linprog` as its `norms.lp`
    span; under another name its installation fails."""
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise NumericalError(f"master LP failed: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    return np.asarray(solution.col_value), np.asarray(solution.row_dual)


class _AtomPool:
    """The restricted master, kept from one round to the next: its sign
    atoms, the bytes of their columns outer(alpha, beta) flattened, and the
    HiGHS model.  The model has one equality row per entry of b and its
    columns are the 2 n^2 elastic slacks +-e_i (cost slack_cost each)
    followed by the atoms' columns (cost 1 each) in pool order.  The bytes
    keep any atom from entering twice (outer(alpha, beta) =
    outer(-alpha, -beta))."""

    def __init__(self, b: np.ndarray, slack_cost: float):
        n2 = b.size
        self.atoms: list[SignPair] = []
        self.keys: set[bytes] = set()
        self.slacks = 2 * n2
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

    def fresh(self, pairs) -> list[SignPair]:
        """The pairs whose atoms are neither pooled nor repeated earlier in
        `pairs`, in order."""
        out, seen = [], set(self.keys)
        for pair in pairs:
            key = _atom_column(pair).tobytes()
            if key not in seen:
                seen.add(key)
                out.append(pair)
        return out

    def add(self, pairs: list[SignPair]) -> None:
        """Append fresh pairs' atoms (a new list, so that a caller's
        reference to the old one stays as it was) and their columns."""
        cols = [_atom_column(pair) for pair in pairs]
        k, n2 = len(cols), cols[0].size
        self.highs.addCols(k, np.ones(k), np.zeros(k), np.full(k, np.inf), k * n2,
                           np.arange(0, k * n2, n2, dtype=np.int32),
                           np.tile(np.arange(n2, dtype=np.int32), k),
                           np.concatenate(cols))
        self.atoms = self.atoms + pairs
        self.keys.update(col.tobytes() for col in cols)

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the atoms where mask is true."""
        drop = self.slacks + np.flatnonzero(~mask).astype(np.int32)
        self.highs.deleteCols(drop.size, drop)
        self.atoms = [a for a, keep_it in zip(self.atoms, mask) if keep_it]
        self.keys = {_atom_column(a).tobytes() for a in self.atoms}


def classical_upper_bound(t, max_atoms: int = 400, tol: float = 1e-9,
                          seed: SeedSpec = SeedSpec(0, 0)) -> ConvexDecomposition:
    """Projective-norm upper bound by column generation over sign atoms.

    Restricted master: min sum(w) with sum_k w_k outer(alpha_k, beta_k) = t,
    w >= 0 (elastic slacks keep it feasible while the pool is small).  One
    HiGHS model lives across the rounds: atoms enter and leave it as
    columns, and each round re-optimises it without presolve by primal
    simplex from the last basis, which stays primal feasible when columns
    are added.  Pricing maximizes the dual pairing over sign
    matrices; with exact pricing (n <= EXACT_CAP) the result is certified
    optimal to `tol` via the dual bound sum(w) <= opt * price.  Exact pricing
    scores every sign vector anyway, so each round adds the price-attaining
    atom plus up to _PRICING_COLUMNS - 1 further atoms of value above
    1 + 1e-9 (multi-column pricing); above EXACT_CAP the heuristic prices
    one atom per round.

    The pool starts from the best atoms of the enumeration that the first
    atom needs anyway (up to min(_PRICING_COLUMNS, max_atoms + 1) of them,
    best first) plus the all-ones atom; above EXACT_CAP, from the
    heuristic's atom plus all-ones.  max_atoms bounds the master solves,
    and the pool never holds more than max_atoms + 2 atoms.  When new atoms
    would overflow it, atoms with zero weight in the current master
    solution are dropped first.
    """
    m = as_matrix(t, square=True)
    if max_atoms < 1:
        raise ValidationError("max_atoms must be >= 1")
    n = m.shape[0]
    certified = n <= EXACT_CAP
    b = m.flatten()
    scale = max(1.0, float(np.abs(m).max()))

    def price_oracle(y: np.ndarray) -> list[tuple[float, SignPair]]:
        if certified:
            return _top_sign_pairs(y, _PRICING_COLUMNS, floor=1.0 + 1e-9)
        return [infty_to_one_heuristic(y, HEURISTIC_RESTARTS, seed)]

    if certified:
        start = [pair for _, pair in
                 _top_sign_pairs(m, min(_PRICING_COLUMNS, max_atoms + 1))]
    else:
        start = [infty_to_one_heuristic(m, HEURISTIC_RESTARTS, seed)[1]]
    pool = _AtomPool(b, 1e6 * scale)
    pool.add(pool.fresh(start + [SignPair(np.ones(n), np.ones(n))]))
    capacity = max_atoms + 2
    dual_bound = None
    for _ in range(max_atoms):
        k = len(pool.atoms)
        x, y = linprog(pool.highs)
        weights = x[pool.slacks:]
        solved, live = pool.atoms, weights > 1e-14
        slack = float(x[:pool.slacks].sum())
        priced = price_oracle(y.reshape(n, n))
        price = priced[0][0]
        primal = float(weights.sum())
        if price > 0:
            dual_bound = float(y @ b) / price
        gap = primal - dual_bound if dual_bound is not None else np.inf
        if price <= 1.0 + 1e-9 and slack <= 1e-9 * scale and gap <= tol:
            break
        new = pool.fresh(pair for _, pair in priced)
        if not new or new[0] is not priced[0][1]:
            break  # pricing stalled on a pooled atom: numerical plateau
        if k + len(new) > capacity:
            pool.keep(live)
            new = new[:capacity - len(pool.atoms)]
        if not new:
            break  # every pooled atom carries weight
        pool.add(new)
    kept_atoms = [a for a, keep_it in zip(solved, live) if keep_it]
    kept_w = weights[live]
    dec = ConvexDecomposition(weights=kept_w, atoms=kept_atoms,
                              converged=bool(price <= 1.0 + 1e-9 and slack <= 1e-9 * scale),
                              certified=certified and bool(price <= 1.0 + 1e-9))
    dec.residual = dec.reconstruction_residual(m)
    return dec


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
    bell = _bell_functional(triple, heuristic_restarts, seed)
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
