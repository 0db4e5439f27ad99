import functools
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from randcorr.cli import main
from randcorr.errors import NumericalError, ValidationError
from randcorr.linalg import gram_eigh, svd, trace_norm, write_matrix_csv
from randcorr.norms import (EXACT_CAP, GAMMA2_RESCALE_MAX_ITER, GAMMA2_RESCALE_TOL,
                            HEURISTIC_RESTARTS, KG_UPPER, BellFunctional,
                            ConvexDecomposition, DualWitness, FactorizationPair, NormBracket,
                            _SCREEN_ENTRIES, _TIE_RTOL, SignPair, _rescale,
                            _rescaled_factorization, _SplitTables, _top_atoms,
                            bell_functional, bell_functional_from_svd,
                            classical_lower_bound, classical_upper_bound, gamma2_bracket,
                            gamma2_oracle, gap_from_bell,
                            infty_to_one_exact, infty_to_one_heuristic, op_norm_bound,
                            quantum_classical_gap, tau_gap_bound)
from randcorr.sampling import SeedSpec, bi_invariant, gaussian, haar_orthogonal

from psd_completion_reference import GAMMA2_ORACLE_CAP, gamma2_psd_completion
from ranked_reference import ranked_reference

CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])


def residual(pair, t):
    """max |x y - t| / max(1, max |t|): how far a factorization is from t."""
    return float(np.abs(pair.x @ pair.y - t).max() / max(1.0, float(np.abs(t).max())))


def brute_force_infty_to_one(a):
    """Independent oracle: full enumeration over all sign pairs."""
    n = a.shape[0]
    best = -np.inf
    for alpha in itertools.product((-1.0, 1.0), repeat=n):
        for beta in itertools.product((-1.0, 1.0), repeat=n):
            best = max(best, float(np.array(alpha) @ a @ np.array(beta)))
    return best


def reference_infty_to_one(a):
    """Independent oracle: every alpha with alpha_1 = +1, beta = sign(a^t alpha)."""
    n = a.shape[0]
    alphas = np.array([(1.0,) + rest
                       for rest in itertools.product((1.0, -1.0), repeat=n - 1)])
    partial = alphas @ a
    betas = np.where(partial >= 0.0, 1.0, -1.0)
    return float((partial * betas).sum(axis=1).max())


def reference_alphas(n, start=0, stop=None):
    """Every alpha with alpha_1 = +1 whose index lies in [start, stop) (all
    of them by default), in index order: bit b of the index set means
    alpha_(b+2) = -1."""
    idx = np.arange(start, 1 << (n - 1) if stop is None else stop)
    bits = (idx[:, None] >> np.arange(n - 1)) & 1
    return np.hstack([np.ones((idx.size, 1)), 1.0 - 2.0 * bits])


def reference_ranking(a):
    """||a^t alpha||_1 for every alpha in index order, and the index the tie
    rule picks: the first within 1e-12 relative of the maximum.  The alphas
    are built 2^16 at a time, so n = 20 needs no 80 MB sign table."""
    n, block = a.shape[0], 1 << 16
    size = 1 << (n - 1)
    vals = np.concatenate([np.abs(reference_alphas(n, lo, min(size, lo + block)) @ a).sum(axis=1)
                           for lo in range(0, size, block)])
    top = vals.max()
    return vals, int(np.argmax(vals >= top - 1e-12 * top))


def alpha_index(alpha):
    """The index of a sign vector with alpha_1 = +1 (see reference_alphas)."""
    return int(((1.0 - alpha[1:]) / 2) @ (1 << np.arange(alpha.size - 1)))


def top_sign_pairs(y, count, floor=-np.inf):
    """_top_atoms' rows as a list of (value, SignPair), best first."""
    values, alphas, betas = _top_atoms(y, count, floor)
    return [(v, SignPair(a, b)) for v, a, b in zip(values.tolist(), alphas, betas)]


def sylvester_hadamard(n):
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def small_gaussian(n, seed, trial=0):
    return gaussian(n, n, SeedSpec(seed, trial)) / math.sqrt(n)


# --- exact inf->1 norm -------------------------------------------------------

def test_exact_identity_and_ones():
    val, pair = infty_to_one_exact(np.eye(6))
    assert val == pytest.approx(6.0)
    assert pair.pairing(np.eye(6)) == pytest.approx(val)
    val, _ = infty_to_one_exact(np.ones((5, 5)))
    assert val == pytest.approx(25.0)


def test_exact_chsh_and_hadamard_against_brute_force():
    val, pair = infty_to_one_exact(CHSH)
    assert val == pytest.approx(2.0)
    assert val == pytest.approx(brute_force_infty_to_one(CHSH))
    had4 = np.kron(CHSH, CHSH)
    val4, pair4 = infty_to_one_exact(had4)
    assert val4 == pytest.approx(8.0)
    assert val4 == pytest.approx(brute_force_infty_to_one(had4))
    assert pair4.pairing(had4) == pytest.approx(val4)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
def test_exact_matches_brute_force(n, seed):
    g = gaussian(n, n, SeedSpec(seed, 1))
    val, pair = infty_to_one_exact(g)
    assert val == pytest.approx(brute_force_infty_to_one(g), rel=1e-12)
    assert pair.pairing(g) == pytest.approx(val, rel=1e-12)


def test_split_enumeration_matches_reference():
    # n = 1 has no sign bits; n - 1 = 12 is the last size with one high row
    for n in [1] + list(range(12, 17)):
        g = gaussian(n, n, SeedSpec(60, n))
        val, pair = infty_to_one_exact(g)
        assert val == pytest.approx(reference_infty_to_one(g), rel=1e-12)
        assert val == pair.pairing(g)
        assert pair.alpha[0] == 1.0
        assert np.array_equal(pair.beta, np.where(g.T @ pair.alpha >= 0.0, 1.0, -1.0))


def test_split_enumeration_tie_heavy_inputs():
    # every sign vector ties on eye(n); the first in index order (all +1) is kept
    for a, want in ((np.ones((14, 14)), 196.0), (np.eye(15), 15.0)):
        val, pair = infty_to_one_exact(a)
        assert val == want
        assert np.array_equal(pair.alpha, np.ones(a.shape[0]))
        assert pair.pairing(a) == val
    had16 = sylvester_hadamard(16)
    val, pair = infty_to_one_exact(had16)
    assert val == 64.0  # n^(3/2)
    assert pair.pairing(had16) == val
    assert reference_infty_to_one(had16) == 64.0


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=10 ** 6))
def test_split_enumeration_matches_reference_hypothesis(n, seed):
    g = gaussian(n, n, SeedSpec(seed, 3))
    val, pair = infty_to_one_exact(g)
    assert val == pytest.approx(reference_infty_to_one(g), rel=1e-12)
    assert val == pair.pairing(g)


# --- int16 screen, float64 rescoring and the tie rule --------------------------

def check_against_reference(a, count=32):
    """infty_to_one_exact and _top_atoms against reference_ranking: the
    tie rule's alpha first, then the next best values."""
    vals, first = reference_ranking(a)
    val, pair = infty_to_one_exact(a)
    assert alpha_index(pair.alpha) == first
    assert np.array_equal(pair.beta, np.where(a.T @ pair.alpha >= 0.0, 1.0, -1.0))
    assert val == pair.pairing(a)
    assert val == pytest.approx(vals.max(), rel=1e-12, abs=0.0)
    top = top_sign_pairs(a, count)
    assert len(top) == min(count, vals.size)
    assert top[0][0] == val and np.array_equal(top[0][1].alpha, pair.alpha)
    assert len({alpha_index(p.alpha) for _, p in top}) == len(top)
    want = np.sort(np.delete(vals, first))[::-1][:count - 1]
    np.testing.assert_allclose([v for v, _ in top[1:]], want, rtol=1e-12, atol=0.0)


def mixed_magnitudes(n, seed):
    """A Gaussian matrix whose entries are scaled by 10^k, k uniform in
    [-300, 300], independently per entry."""
    gen = np.random.default_rng(seed)
    return gen.standard_normal((n, n)) * 10.0 ** gen.integers(-300, 301, size=(n, n))


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300, "mixed"])
def test_screen_matches_reference_across_scales(scale):
    for n in (1, 2, 3, 7, 13, 14):
        for t in range(3):
            if scale == "mixed":
                a = mixed_magnitudes(n, 1000 * n + t)
            else:
                a = scale * gaussian(n, n, SeedSpec(64, 100 * n + t))
            check_against_reference(a)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=13), st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([-300, -150, 0, 150, 300, "mixed"]))
def test_screen_matches_reference_hypothesis(n, seed, exponent):
    if exponent == "mixed":
        a = mixed_magnitudes(n, seed)
    else:
        a = 10.0 ** exponent * gaussian(n, n, SeedSpec(seed, 5))
    check_against_reference(a)


@pytest.mark.parametrize("case", ["ones14", "sylvester11", "sylvester19", "sylvester20",
                                  "seeded13"])
def test_ranked_does_not_depend_on_count(case):
    # every candidate is rescored as its own row sum, so ranked(c) is the
    # first c entries of ranked(64), and an index has one value whatever the
    # count: also on inputs full of mathematical ties, where the tie rule's
    # choice and the order of ties hang on the last bit
    if case == "ones14":
        m = 0.1 * np.ones((14, 14))
    elif case == "seeded13":
        m = small_gaussian(13, 71)
    else:
        n = int(case[len("sylvester"):])
        m = 0.1 * sylvester_hadamard(32)[:n, :n]
    tables = _SplitTables(m)
    indices, values = tables.ranked(64)
    assert indices.size == values.size == 64
    assert np.unique(indices).size == 64
    for count in (1, 2, 3, 8, 32):
        idx, vals = tables.ranked(count)
        np.testing.assert_array_equal(idx, indices[:count])
        np.testing.assert_array_equal(vals, values[:count])
    h, j = np.divmod(indices, 1 << tables.k)
    alone = [np.ldexp(np.abs(tables.low[b] + tables.high[a]).sum(), tables.exp)
             for a, b in zip(h.tolist(), j.tolist())]
    assert values.tolist() == alone


@pytest.mark.parametrize("case", ["zero", "ones", "eye", "hadamard"])
def test_screen_exact_ties_in_index_order(case):
    # every value is an integer, so the whole ranking is exact: the first
    # `count` in (value desc, index asc) order come back (at n = 20 too,
    # where the zero matrix's scale is 1)
    for n in (2, 5, 8, 13, 14, 20):
        a = {"zero": np.zeros((n, n)), "ones": np.ones((n, n)), "eye": np.eye(n),
             "hadamard": sylvester_hadamard(n)[:n, :n]}[case]
        vals, first = reference_ranking(a)
        order = np.lexsort((np.arange(vals.size), -vals))
        assert first == order[0]
        top = top_sign_pairs(a, 32)
        assert [alpha_index(p.alpha) for _, p in top] == list(order[:32])
        assert [v for v, _ in top] == list(vals[order[:32]])


@pytest.mark.parametrize("n", [4, 9, 14, 17])
def test_screen_near_tie_needs_rescoring(n):
    # eye(n) + eps s s^t has value n + eps (alpha . s)^2 to first order: a
    # unique maximum at alpha = s, about 4 (n - 1) eps = 4e-9 n above the
    # rest, which the int16 screen (units near 2^-15 of the value) cannot
    # resolve; every other alpha screens within the slack of it
    gen = np.random.default_rng(n)
    s = np.concatenate(([1.0], gen.choice([-1.0, 1.0], size=n - 1)))
    s[1] = -1.0  # never the all-ones alpha, which heads the index order
    a = np.eye(n) + 1e-9 * np.outer(s, s)
    val, pair = infty_to_one_exact(a)
    assert np.array_equal(pair.alpha, s)
    assert val == pytest.approx(n + 1e-9 * n * n, rel=1e-15)
    check_against_reference(a)


def tie_prone(kind, n, seed):
    """An n x n input of `kind`, several of them full of exact or near ties."""
    gen = np.random.default_rng(seed)
    if kind == "uv":
        u, _, vt = np.linalg.svd(gen.standard_normal((n, n)))
        return u @ vt
    return {"gaussian": lambda: gen.standard_normal((n, n)),
            "integers": lambda: gen.integers(-2, 3, size=(n, n)).astype(float),
            "signs": lambda: 0.1 * gen.choice([-1.0, 1.0], size=(n, n)),
            "eye": lambda: np.eye(n), "ones": lambda: np.ones((n, n)),
            "eye_noise": lambda: np.eye(n) + 1e-13 * gen.standard_normal((n, n))}[kind]()


TIE_PRONE = ("gaussian", "uv", "integers", "signs", "eye", "ones", "eye_noise")


def check_ranked_against_the_reference(m, counts=(1, 2, 32)):
    tables = _SplitTables(m)
    for count in counts:
        idx, vals = tables.ranked(count)
        want_idx, want_vals = ranked_reference(tables, count)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(vals, want_vals)


@pytest.mark.parametrize("kind", TIE_PRONE)
def test_ranked_matches_the_gathering_reference(kind):
    # streaming the candidates keeps the rows, order and bits of the
    # version that gathered them all; n >= 17 takes the screen's second pass
    for n in (1, 2, 5, 9, 13, 16, 17, 19, 20, 22):
        for t in range(1 if n == 22 else 2):
            check_ranked_against_the_reference(tie_prone(kind, n, 100 * n + t))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(TIE_PRONE), st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([1, 2, 5, 32]))
def test_ranked_matches_the_gathering_reference_hypothesis(kind, n, seed, count):
    check_ranked_against_the_reference(tie_prone(kind, n, seed), (count,))


@pytest.mark.parametrize("n", [20, 22])
def test_ranked_memory_does_not_grow_with_ties(n):
    # every one of eye(n)'s 2^(n-1) sign vectors ties: held at once, their
    # indices and values took 17 MB at n = 20 and 65 MB at n = 22.  Streamed,
    # the peak is about two blocks of rescored rows (B 2^12 x n float64)
    tables = _SplitTables(np.eye(n))
    for count in (1, 32):
        tracemalloc.start()
        try:
            idx, vals = tables.ranked(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx[0] == 0 and vals[0] == n
        assert peak < 14 * 2 ** 20, (count, peak)


def screen_blocks(tables):
    """_SplitTables._screen over every high row in order, in the blocks
    ranked uses (the last one partial where the rows do not divide): each
    block's buffer, which the screen leaves holding |L_c + H_c|, and its
    int16 values, one row of 2^k per high row."""
    n, size = tables.low16.shape
    rows = tables.high16_t.shape[1]
    block = max(1, _SCREEN_ENTRIES // (n * size))
    for lo in range(0, rows, block):
        buf = np.empty((n, min(block, rows - lo), size), dtype=np.int16)
        yield buf, tables._screen(slice(lo, lo + block), buf)


def test_screen_error_within_slack():
    # every screened value lies within the proved slack (n + 1 integer units)
    # of the exact value (computed here in float64 from the float64 tables,
    # whose own error is under 1e-9 units)
    for n, scale in ((2, 1.0), (9, 1e-300), (14, 1e300), (17, 1.0), (20, 1.0)):
        for a in (scale * gaussian(n, n, SeedSpec(65, n)), mixed_magnitudes(n, n),
                  scale * np.eye(n), scale * np.ones((n, n))):
            tables = _SplitTables(a)
            exact = np.concatenate([np.abs(tables.low + row).sum(axis=1)
                                    for row in tables.high])
            blocks = [vals for _, vals in screen_blocks(tables)]
            assert all(vals.dtype == np.int16 for vals in blocks)
            screened = np.concatenate([vals.ravel() for vals in blocks])
            assert screened.shape == exact.shape
            assert np.abs(screened - exact).max() <= tables.slack == n + 1


@pytest.mark.parametrize("case", ["ones", "-ones", "flipped", "near_bound", "mixed"])
def test_int16_screen_never_wraps(case):
    # at n = 24, the largest tables, every screened value equals the int64
    # sum of the same block's buffer.  Its terms |L_c + H_c| are >= 0, so
    # the partial sums rise to that value, and none leaves the int16 range.
    # 0.888 ones(24) puts the largest value 31 units below 2^15 - 1.  The
    # 2048 high rows do not fill a whole number of blocks, so the last
    # block is a partial one.
    n = 24
    flips = np.where(np.arange(n) % 3 == 1, -1.0, 1.0)
    a = {"ones": np.ones((n, n)), "-ones": -np.ones((n, n)),
         "flipped": np.ones((n, n)) * flips, "near_bound": 0.888 * np.ones((n, n)),
         "mixed": mixed_magnitudes(n, 67)}[case]
    tables = _SplitTables(a)
    top, rows, shapes = 0, 0, set()
    for buf, vals in screen_blocks(tables):
        assert buf.min() >= 0
        assert np.array_equal(vals, buf.sum(axis=0, dtype=np.int64))
        top = max(top, int(vals.max()))
        rows += vals.shape[0]
        shapes.add(vals.shape[0])
    assert rows == tables.high16_t.shape[1] == 2048
    assert len(shapes) == 2  # full blocks and the partial last one
    assert top <= np.iinfo(np.int16).max
    if case == "near_bound":
        assert top == 2 ** 15 - 1 - 31
    if case != "mixed":
        assert infty_to_one_exact(a)[0] == pytest.approx(576.0 * abs(a[0, 0]), rel=1e-15)


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_screen_matches_reference_at_large_n(n):
    # the ranking at the sizes the benchmark and the gap reports run, on a
    # Gaussian and on its orthogonal functional UV^t, and at n = 20 on inputs
    # full of ties: the tables span several screen blocks with a partial
    # last one, and the rows that reach the cut are screened a second time
    g = small_gaussian(n, 68, n)
    triple = svd(g)
    cases = [g, triple.u @ triple.v.T]
    if n == 20:
        cases += [np.eye(n), np.ones((n, n)), sylvester_hadamard(32)[:n, :n]]
    for a in cases:
        check_against_reference(a)


def test_tie_band_kept_by_an_exact_screen(monkeypatch):
    # 2^44 eye(6) + 3 s s^t has the integer values 6 2^44 + 3 (alpha . s)^2,
    # so the all-ones alpha (index 0, alpha . s = 2) lies 96 below the
    # maximum at s (alpha . s = 6), 9.1e-13 relative: inside the tie band,
    # so the tie rule returns index 0.  With a screen that has no error at
    # all (the exact integer values, a zero integer slack), only the tie
    # margin in the cut keeps index 0 a candidate.
    def exact_screen(self, rows, buf):
        # exact binary fractions, one row of 2^k values per high row
        vals = np.abs(self.low[None, :, :] + self.high[rows][:, None, :]).sum(axis=2)
        return np.ldexp(vals, self.exp).astype(np.int64)

    init = _SplitTables.__init__

    def no_slack(self, m):
        init(self, m)
        self.slack = 0

    n = 6
    s = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
    a = 2.0 ** 44 * np.eye(n) + 3.0 * np.outer(s, s)
    vals, first = reference_ranking(a)
    assert first == 0 and vals.argmax() == alpha_index(s)
    monkeypatch.setattr(_SplitTables, "_screen", exact_screen)
    monkeypatch.setattr(_SplitTables, "__init__", no_slack)
    _, pair = infty_to_one_exact(a)
    assert alpha_index(pair.alpha) == 0
    assert alpha_index(top_sign_pairs(a, 4)[0][1].alpha) == 0


def test_each_high_row_is_screened_once_then_only_the_rows_at_the_cut(monkeypatch):
    # a table of one block (n = 13, one high row) takes its candidates from
    # the values it has just screened; a larger one (n = 20, 128 high rows)
    # screens each row once, in order, then only the rows whose maximum
    # reaches the cut, found here from the first pass's own values
    calls = []
    screen = _SplitTables._screen

    def counting(self, rows, buf):
        vals = screen(self, rows, buf)
        hs = np.atleast_1d(np.arange(self.high.shape[0])[rows])
        calls.append((hs, vals.reshape(hs.size, -1)))
        return vals

    monkeypatch.setattr(_SplitTables, "_screen", counting)
    for n, rows in ((13, 1), (20, 128)):
        a = small_gaussian(n, 69, n)
        for count, rank in ((1, lambda: infty_to_one_exact(a)),
                            (32, lambda: _top_atoms(a, 32))):
            calls.clear()
            rank()
            screened = np.concatenate([hs for hs, _ in calls]).tolist()
            assert screened[:rows] == list(range(rows))
            vals = np.concatenate([v for _, v in calls])[:rows]
            slack = n + 1
            top = int(vals.max())
            kth = int(np.sort(vals.ravel())[-count])
            cut = kth - 2 * slack - math.ceil(_TIE_RTOL * (top + slack))
            hot = (vals.max(axis=1) >= cut).nonzero()[0].tolist()
            assert screened[rows:] == (hot if rows > 1 else [])
            assert 0 < len(hot) < rows or rows == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["gaussian", "integer"]))
def test_column_permutation_keeps_alpha(n, seed, kind):
    # permuting columns permutes the terms of every value: the summation
    # order changes, but the tie rule picks the same alpha
    gen = np.random.default_rng(seed)
    a = (gen.standard_normal((n, n)) if kind == "gaussian"
         else gen.integers(-2, 3, size=(n, n)).astype(float))
    perm = gen.permutation(n)
    val, pair = infty_to_one_exact(a)
    val_p, pair_p = infty_to_one_exact(a[:, perm])
    assert np.array_equal(pair_p.alpha, pair.alpha)
    assert np.array_equal(pair_p.beta, pair.beta[perm])
    assert val_p == pytest.approx(val, rel=1e-12)


def test_column_permutation_keeps_alpha_on_rounded_ties():
    # many sign vectors of 0.1 H8 tie exactly, and 0.1 is no binary
    # fraction, so each column order rounds the tied values differently
    # (taking the first maximum after rounding picks another alpha under 4
    # of these 10 orders)
    a = 0.1 * sylvester_hadamard(8)
    _, pair = infty_to_one_exact(a)
    for t in range(10):
        perm = np.random.default_rng(t).permutation(8)
        _, pair_p = infty_to_one_exact(a[:, perm])
        assert np.array_equal(pair_p.alpha, pair.alpha)
        assert np.array_equal(pair_p.beta, pair.beta[perm])


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=1e-3, max_value=1e3))
def test_rotation_2x2_returns_first_alpha(theta, r):
    # both alphas of a scaled 2x2 rotation tie at r (|c + s| + |c - s|)
    c, s = math.cos(theta), math.sin(theta)
    rot = r * np.array([[c, -s], [s, c]])
    val, pair = infty_to_one_exact(rot)
    assert np.array_equal(pair.alpha, [1.0, 1.0])
    assert val == pytest.approx(2 * r * max(abs(c), abs(s)), rel=1e-12)


def test_exact_cap_enforced():
    with pytest.raises(ValidationError):
        infty_to_one_exact(np.eye(25))


def test_exact_orthogonal_upper_bound():
    for t in range(20):
        o = haar_orthogonal(10, SeedSpec(30, t))
        val, _ = infty_to_one_exact(o)
        assert val <= 10.0 + 1e-9


# --- heuristic ----------------------------------------------------------------

def test_heuristic_identity_fixed_point():
    val, _ = infty_to_one_heuristic(np.eye(8), 1, SeedSpec(31, 0))
    assert val == pytest.approx(8.0)


def test_heuristic_is_lower_bound_and_monotone_in_restarts():
    for t in range(30):
        g = gaussian(8, 8, SeedSpec(32, t))
        exact, _ = infty_to_one_exact(g)
        h1, _ = infty_to_one_heuristic(g, 1, SeedSpec(33, t))
        h100, _ = infty_to_one_heuristic(g, 100, SeedSpec(33, t))
        assert h1 <= exact + 1e-9
        assert h100 <= exact + 1e-9
        assert h100 >= h1 - 1e-12


# --- gamma2 bracket -----------------------------------------------------------

def test_bracket_orthogonal_is_tight():
    o = haar_orthogonal(9, SeedSpec(35, 0))
    br = gamma2_bracket(o)
    assert br.lower == pytest.approx(1.0, abs=1e-9)
    assert br.upper == pytest.approx(1.0, abs=1e-9)


def test_bracket_spiky_diagonal():
    spike = np.zeros((8, 8))
    spike[0, 0] = 1.0
    br = gamma2_bracket(spike)
    assert br.lower == pytest.approx(1 / 8)
    assert br.upper == pytest.approx(1.0)


def test_bracket_certificates_re_evaluate():
    g = small_gaussian(12, 36)
    br = gamma2_bracket(g)
    assert br.lower_certificate.value(g) == pytest.approx(br.lower, rel=1e-12)
    assert br.upper_certificate.value(g) == pytest.approx(br.upper, rel=1e-12)
    assert residual(br.upper_certificate, g) <= 1e-9


def test_bracket_ratio_scale_with_n():
    # gamma2 / (||t||_tr / n) -> 1 for Gaussian t; the rescaled upper bound
    # follows gamma2, so the ratio shrinks with n and sits under 1.05 at n=400
    ratios100 = [gamma2_bracket(small_gaussian(100, 37, t)).ratio()
                 for t in range(5)]
    ratios400 = [gamma2_bracket(small_gaussian(400, 38, t)).ratio()
                 for t in range(5)]
    assert min(ratios100 + ratios400) >= 1.0
    assert np.median(ratios400) < np.median(ratios100)
    assert np.median(ratios400) <= 1.05


def test_bracket_rejects_zero():
    with pytest.raises(ValidationError):
        gamma2_bracket(np.zeros((4, 4)))


def test_inverted_bracket_rejected():
    with pytest.raises(NumericalError):
        NormBracket(lower=2.0, upper=1.0)


# --- invariance properties ----------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.01, max_value=100.0))
def test_scale_equivariance(n, seed, c):
    g = gaussian(n, n, SeedSpec(seed, 2))
    ve, _ = infty_to_one_exact(g)
    vc, _ = infty_to_one_exact(c * g)
    assert vc == pytest.approx(c * ve, rel=1e-12)
    assert trace_norm(c * g) == pytest.approx(c * trace_norm(g), rel=1e-12)
    br, brc = gamma2_bracket(g), gamma2_bracket(c * g)
    assert brc.lower == pytest.approx(c * br.lower, rel=1e-12)
    assert brc.upper == pytest.approx(c * br.upper, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10 ** 6))
def test_transpose_permutation_sign_invariance(n, seed):
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((n, n))
    val, _ = infty_to_one_exact(g)
    val_t, _ = infty_to_one_exact(g.T)
    perm = gen.permutation(np.eye(n))
    signs = np.diag(gen.choice([-1.0, 1.0], size=n))
    val_p, _ = infty_to_one_exact(signs @ perm @ g @ perm.T @ signs)
    assert val_t == pytest.approx(val, rel=1e-12)
    assert val_p == pytest.approx(val, rel=1e-12)
    assert trace_norm(g.T) == pytest.approx(trace_norm(g), rel=1e-9)


# --- gamma2 oracle -------------------------------------------------------------

def test_oracle_identity_and_rotation():
    assert gamma2_oracle(np.eye(4), tol=1e-4) == pytest.approx(1.0, abs=1e-3)
    rot = np.array([[math.cos(0.7), -math.sin(0.7)],
                    [math.sin(0.7), math.cos(0.7)]])
    assert gamma2_oracle(rot, tol=1e-4) == pytest.approx(1.0, abs=1e-3)
    assert gamma2_oracle(1.7 * rot, tol=1e-4) == pytest.approx(1.7, abs=2e-3)


def test_oracle_psd_equals_max_diagonal():
    # for PSD input gamma2 is the largest diagonal entry: the plain
    # factorization reaches it from above and max |t_ij| from below, while
    # the iterates' dual lags (by up to 1.9e-3 on 8 x 8 inputs)
    for t in range(5):
        g = gaussian(6, 6, SeedSpec(39, t))
        psd = g @ g.T / 6
        val = gamma2_oracle(psd, tol=1e-4)
        assert val == pytest.approx(psd.diagonal().max(), rel=1e-12)


def test_oracle_agrees_with_tight_bracket_on_haar():
    # the bracket closes at its first iterate here, and its lower end can
    # exceed its upper end by a rounding error: the oracle must still not
    # exceed the certified upper bound
    for t in range(100):
        o = haar_orthogonal(8, SeedSpec(40, t))
        br, oracle = gamma2_bracket(o), gamma2_oracle(o, tol=1e-4)
        assert oracle == pytest.approx(1.0, abs=1e-3)
        assert min(br.lower, br.upper) <= oracle <= br.upper


def _kind_matrix(kind, n, seed):
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((n, n))
    if kind == "psd":
        return g @ g.T / n
    if kind == "cubed":
        return g ** 3
    if kind == "integer":
        return gen.integers(-2, 3, size=(n, n)).astype(float)
    if kind == "half_rank":
        spectrum = np.concatenate([gen.uniform(0.2, 2.0, n - n // 2), np.zeros(n // 2)])
        return bi_invariant(spectrum, SeedSpec(seed, 0))
    if kind == "rank_one":
        return np.outer(gen.standard_normal(n), gen.standard_normal(n))
    if kind == "zero_lines":
        g[0] = 0.0
        g[:, -1] = 0.0
    return g / math.sqrt(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["gaussian", "cubed", "psd", "integer"]),
       st.sampled_from([1e-6, 1e-4, 0.5]))
def test_oracle_inside_its_own_run_and_the_bracket_hypothesis(n, seed, kind, tol):
    t = _kind_matrix(kind, n, seed)
    assume(np.any(t))
    import randcorr.norms as norms_mod
    triple = svd(t)
    br = gamma2_bracket(t, triple)
    with mock.patch.object(norms_mod, "gram_eigh", wraps=norms_mod.gram_eigh) as steps:
        cert, upper, dual = _rescale(t, triple, tol)
    _, default_upper, default_dual = _rescale(t, triple)
    oracle = gamma2_oracle(t, tol, triple)
    assert oracle == gamma2_oracle(t, tol)
    # a stop width only adds a condition: the run goes at least as far as
    # the bracket's, from the same iterates
    assert default_upper == br.upper
    assert upper <= default_upper and dual >= default_dual
    assert cert.value(t) == upper and residual(cert, t) <= 1e-9
    assert min(dual, upper) <= oracle <= upper
    # the run's lower bound counts the bracket's lower end; its upper
    # bound falls below that only where the two meet, by a rounding error
    assert br.lower <= dual and upper <= br.upper
    assert min(br.lower, upper) <= oracle <= br.upper
    slack = 1e-12 * upper
    if steps.call_count < GAMMA2_RESCALE_MAX_ITER:
        # the run closed, so the oracle is within tol / 2 of both bounds
        assert upper - dual <= tol
        assert max(upper - oracle, oracle - dual) <= tol / 2 + slack


@pytest.mark.parametrize("trial", [2, 5, 58])
def test_oracle_stays_below_the_certified_upper_bound_where_the_reference_does_not(trial):
    # the PSD-completion bisection gives up on feasible c near gamma2, so on
    # these seeded 8 x 8 Gaussians it lands 2e-4 to 5.3e-4 above a
    # factorization the rescaling run certifies; the oracle is the midpoint
    # of that run's bounds, so it cannot
    g = small_gaussian(8, 41, trial)
    cert, upper, _ = _rescale(g, svd(g), 1e-6)
    assert residual(cert, g) <= 1e-9
    assert gamma2_psd_completion(g, tol=1e-6) > upper + 1e-4
    assert gamma2_oracle(g, tol=1e-6) <= upper


def test_oracle_agrees_with_the_psd_completion_reference():
    # criterion 9's first 30 matrices; the reference is accurate to about
    # 5e-4 relative
    for t in range(30):
        spectrum = SeedSpec(902, 2 * t).generator().uniform(0.2, 2.0, 8)
        mat = bi_invariant(spectrum, SeedSpec(902, 2 * t + 1))
        oracle = gamma2_oracle(mat, tol=1e-4)
        assert gamma2_psd_completion(mat, tol=1e-4) == pytest.approx(oracle, rel=5e-4)


@pytest.mark.parametrize("n", [13, 20])
def test_oracle_runs_above_the_reference_cap(n):
    g = small_gaussian(n, 43)
    br = gamma2_bracket(g)
    assert br.lower <= gamma2_oracle(g, tol=1e-4) <= br.upper


def plain_factorization_value(t):
    """gamma2 upper bound of the unscaled factorization U sqrt(S) . sqrt(S) V^t."""
    u, s, vt = np.linalg.svd(t)
    x, y = u * np.sqrt(s), np.sqrt(s)[:, None] * vt
    return (np.sqrt((x * x).sum(axis=1).max())
            * np.sqrt((y * y).sum(axis=0).max()))


def test_rescaled_upper_matches_oracle_and_beats_plain_factorization():
    for t in range(10):
        g = small_gaussian(8, 41, t)
        br = gamma2_bracket(g)
        oracle = gamma2_psd_completion(g, tol=1e-6)
        assert br.upper <= (1.0 + GAMMA2_RESCALE_TOL) * oracle + 1e-6
        assert br.upper <= plain_factorization_value(g)
        assert residual(br.upper_certificate, g) <= 1e-9


def _bracket_trace(monkeypatch):
    """Record, per gamma2_bracket call, each iterate's scalings du, dv and
    dual ||diag(du) t diag(dv)||_tr / (||du|| ||dv||), each scaling step's
    input and whether it was damped, and the number of decompositions taken:
    SVDs (the first iterate's) and eigendecompositions (every later one's)."""
    import randcorr.norms as norms_mod
    trace = {"iterates": [], "steps": [], "svds": 0, "eighs": 0}
    real_factorization, real_next = norms_mod._rescaled_factorization, norms_mod._next_scale
    real_svd, real_eigh = norms_mod.svd, norms_mod.gram_eigh

    def factorization(du, dv, sigma, v, mv):
        dual = float(sigma.sum() / (np.linalg.norm(du) * np.linalg.norm(dv)))
        trace["iterates"].append((du.copy(), dv.copy(), dual))
        return real_factorization(du, dv, sigma, v, mv)

    def next_scale(d, weights, live, damped):
        trace["steps"].append((d.copy(), damped))
        return real_next(d, weights, live, damped)

    def counting_svd(m):
        trace["svds"] += 1
        return real_svd(m)

    def counting_eigh(m):
        trace["eighs"] += 1
        return real_eigh(m)

    monkeypatch.setattr(norms_mod, "_rescaled_factorization", factorization)
    monkeypatch.setattr(norms_mod, "_next_scale", next_scale)
    monkeypatch.setattr(norms_mod, "svd", counting_svd)
    monkeypatch.setattr(norms_mod, "gram_eigh", counting_eigh)
    return trace


def test_bracket_svd_count_at_n400(monkeypatch):
    # the undamped step reaches the 1 + GAMMA2_RESCALE_TOL stop in at most
    # 4 rescaling steps at n = 400 (the damped step alone took 8); only the
    # first iterate takes an SVD, every later one an eigendecomposition
    for t in range(3):
        g = small_gaussian(400, 42, t)
        trace = _bracket_trace(monkeypatch)
        br = gamma2_bracket(g)
        assert trace["svds"] == 1
        assert trace["svds"] + trace["eighs"] == len(trace["iterates"]) <= 5
        assert br.upper <= (1.0 + GAMMA2_RESCALE_TOL) * max(d for _, _, d in trace["iterates"])


# A 3x3 integer input (gamma2 = 3) on which the undamped step, left to
# itself, lowers the dual at iterate 17; found by a seeded search over
# integer matrices.
OVERSHOOT = np.array([[0.0, -3.0, 1.0], [-1.0, -2.0, 0.0], [3.0, 0.0, -1.0]])


def test_bracket_dual_drop_goes_back_to_previous_iterate(monkeypatch):
    import randcorr.norms as norms_mod
    trace = _bracket_trace(monkeypatch)
    # without the turn-back test, only the dual drop can stop the undamped step
    monkeypatch.setattr(norms_mod, "_log_step", lambda d, d_next, live: np.zeros(1))
    br = gamma2_bracket(OVERSHOOT)
    duals = [d for _, _, d in trace["iterates"]]
    drops = [k for k in range(1, len(duals)) if duals[k] < duals[k - 1]]
    assert drops
    k = drops[0]
    # the first damped step starts from iterate k - 1's scalings
    first = [i for i, (_, damped) in enumerate(trace["steps"]) if damped][0]
    du_prev, dv_prev, _ = trace["iterates"][k - 1]
    assert np.array_equal(trace["steps"][first][0], du_prev)
    assert np.array_equal(trace["steps"][first + 1][0], dv_prev)
    assert all(damped for _, damped in trace["steps"][first:])
    accepted = duals[:k] + duals[k + 1:]
    assert all(b >= a for a, b in zip(accepted, accepted[1:]))
    assert br.upper <= (1.0 + GAMMA2_RESCALE_TOL) * max(accepted)
    assert residual(br.upper_certificate, OVERSHOOT) <= 1e-9
    monkeypatch.undo()
    assert br.upper <= (1.0 + GAMMA2_RESCALE_TOL) * gamma2_psd_completion(OVERSHOOT, tol=1e-6)


def test_bracket_oscillation_switches_to_damped_step(monkeypatch):
    # on this heavy-tailed 5x5 the undamped step swings back and forth while
    # its dual creeps up: undamped to the end, it ran all 100 steps and
    # stopped 1.6% above the bound the damped step alone reaches in 19
    # decompositions
    g = gaussian(5, 5, SeedSpec(61, 608)) ** 3
    trace = _bracket_trace(monkeypatch)
    br = gamma2_bracket(g)
    duals = [d for _, _, d in trace["iterates"]]
    assert any(damped for _, damped in trace["steps"])
    assert all(b >= a for a, b in zip(duals, duals[1:]))
    assert trace["svds"] + trace["eighs"] <= 30
    assert br.upper <= (1.0 + GAMMA2_RESCALE_TOL) * max(duals)
    monkeypatch.undo()
    assert br.upper <= (1.0 + GAMMA2_RESCALE_TOL) * gamma2_psd_completion(g, tol=1e-6)


KINDS = ["gaussian", "cubed", "psd", "integer", "half_rank", "rank_one", "zero_lines"]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(KINDS), st.sampled_from([1e-1, 1e-3, 1e-6]))
def test_any_witness_and_factorization_bracket_the_reference_hypothesis(n, seed, kind, eps):
    # any a and any x, y certify their values, the witness's operator norm
    # and the factorization's error charged: (1 + eps) UV^t would pair to
    # (1 + eps) ||t||_tr / n, and (1 - eps) x y to (1 - eps) r(x) c(y),
    # past gamma2 wherever the bracket is tight, if neither were charged
    t = _kind_matrix(kind, n, seed)
    assume(np.any(t))
    gen = np.random.default_rng(seed)
    br = gamma2_bracket(t)
    cert = br.upper_certificate
    # the reference lies within tol / 2 below gamma2 and 5e-4 relative above
    tol = 1e-4
    ref = gamma2_psd_completion(t, tol=tol)
    noise = lambda *shape: eps * gen.standard_normal(shape)
    witnesses = [gen.standard_normal((n, n)),
                 (1.0 + eps) * br.lower_certificate.a + noise(n, n)]
    pairs = [FactorizationPair(gen.standard_normal((n, 3)), gen.standard_normal((3, n))),
             FactorizationPair((1.0 - eps) * cert.x, cert.y),
             FactorizationPair(cert.x + noise(*cert.x.shape), cert.y + noise(*cert.y.shape))]
    for a in witnesses:
        assert DualWitness(a).value(t) <= ref + tol
    for pair in pairs:
        assert ref <= (1.0 + 5e-4) * (pair.value(t) + tol)


def _check_eigh_step_against_svd(t, seed):
    """The rescaling step's eigendecomposition of M = diag(du) t diag(dv),
    and the iterate un-scaled from it, against the SVD of the same M."""
    gen = np.random.default_rng(seed)
    n = t.shape[0]
    du = np.where(np.any(t, axis=1), gen.uniform(0.1, 1.0, n), 0.0)
    dv = np.where(np.any(t, axis=0), gen.uniform(0.1, 1.0, n), 0.0)
    m = du[:, None] * t * dv
    sigma, v, mv = gram_eigh(m)
    ref = svd(m)
    top = ref.sigma[0]
    assert np.all(sigma > 0.0) and np.all(np.diff(sigma) <= 0.0)
    assert np.abs(np.pad(sigma, (0, n - sigma.size)) - ref.sigma).max() <= 1e-12 * top
    assert np.abs(v.T @ v - np.eye(sigma.size)).max() <= 1e-12
    assert np.abs(mv - m @ v).max() <= 1e-14 * top
    cert, row_w, col_w = _rescaled_factorization(du, dv, sigma, v, mv)
    # diag((MM^t)^(1/2)) and diag((M^tM)^(1/2)) from the SVD's U and V
    assert np.abs(row_w - (ref.u * ref.u) @ ref.sigma).max() <= 1e-12 * top
    assert np.abs(col_w - (ref.v * ref.v) @ ref.sigma).max() <= 1e-12 * top
    assert residual(cert, t) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_eigh_step_agrees_with_the_svd_of_the_rescaled_matrix(kind):
    for n in range(1, 13):
        for seed in range(3):
            t = _kind_matrix(kind, n, seed)
            if np.any(t):
                _check_eigh_step_against_svd(t, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(KINDS))
def test_eigh_step_agrees_with_the_svd_of_the_rescaled_matrix_hypothesis(n, seed, kind):
    t = _kind_matrix(kind, n, seed)
    assume(np.any(t))
    _check_eigh_step_against_svd(t, seed)


def test_failed_eigendecomposition_is_a_numerical_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    g = small_gaussian(6, 44)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="did not converge"):
        gram_eigh(g)
    # the bracket's first iterate is an SVD, so the failure surfaces at
    # its first rescaling step
    with pytest.raises(NumericalError, match="did not converge"):
        gamma2_bracket(g)


def test_oracle_cap():
    # the PSD-completion reference keeps its cap; gamma2_oracle has none
    with pytest.raises(ValidationError):
        gamma2_psd_completion(np.eye(GAMMA2_ORACLE_CAP + 1))


# --- classical bounds ----------------------------------------------------------

ONES_PAIR = SignPair(np.ones(2), np.ones(2))  # attains 2 on eye(2) and CHSH


def test_classical_lower_identity_and_chsh():
    bell = BellFunctional(a=np.eye(2), eps_one_norm=2.0, attaining=ONES_PAIR)
    assert classical_lower_bound(np.eye(2), bell) == pytest.approx(1.0)
    bell = BellFunctional(a=CHSH, eps_one_norm=2.0, attaining=ONES_PAIR)
    assert classical_lower_bound(CHSH, bell) == pytest.approx(2.0)


def test_classical_lower_valid_with_upper_bound_norm():
    # an over-estimated functional norm can only weaken the bound
    bell_loose = BellFunctional(a=CHSH, eps_one_norm=3.0, attaining=ONES_PAIR)
    assert classical_lower_bound(CHSH, bell_loose) == pytest.approx(4 / 3)


def test_bell_functional_orthogonal_input():
    o = haar_orthogonal(10, SeedSpec(41, 0))
    bell = bell_functional_from_svd(o)
    assert np.allclose(bell.a, o, atol=1e-9)
    assert bell.attaining.pairing(bell.a) == bell.eps_one_norm == infty_to_one_exact(o)[0]


def test_bell_functional_diagonal():
    bell = bell_functional_from_svd(np.diag([2.0, 1.0]))
    assert np.allclose(bell.a, np.eye(2), atol=1e-12)
    assert bell.eps_one_norm == pytest.approx(2.0)


def test_bell_functional_band_at_n16():
    vals = []
    for t in range(20):
        o = haar_orthogonal(16, SeedSpec(42, t))
        bell = bell_functional_from_svd(o)
        vals.append(bell.eps_one_norm / 16)
        assert 0.90 <= vals[-1] <= 1.0  # pilot-measured range
    assert 0.77 <= np.mean(vals) <= 0.97


def test_bell_functional_heuristic_above_cap():
    g = small_gaussian(30, 43)
    bell = bell_functional_from_svd(g, seed=SeedSpec(44, 0))
    assert bell.eps_one_norm == 30 * op_norm_bound(bell.a)
    assert bell.eps_one_norm == pytest.approx(30.0, rel=1e-12)
    want = infty_to_one_heuristic(bell.a, HEURISTIC_RESTARTS, SeedSpec(44, 0))[1]
    assert bell.attaining.to_dict() == want.to_dict()
    assert bell.attaining.pairing(bell.a) < bell.eps_one_norm


@pytest.mark.parametrize("n", range(EXACT_CAP + 1, 41))
def test_bell_functional_norm_bound_above_cap_covers_the_operator_norm(n):
    # n rho(a) >= n ||a||_op >= ||a||_{inf->1}; a bare n sits below
    # n sigma_max(a) on every one of these draws
    for i in range(3):
        a = bell_functional_from_svd(gaussian(n, n, SeedSpec(7, i)) / math.sqrt(n))
        assert a.eps_one_norm >= n * np.linalg.svd(a.a, compute_uv=False)[0]


def _lower_certificate_is_rebuilt(t):
    # classical_upper_bound builds each round's functional from its pricing
    # enumeration, verify-certificate with bell_functional: bit for bit one
    for max_atoms in (400, 2):
        bell = classical_upper_bound(t, max_atoms=max_atoms).lower_certificate
        assert bell.to_dict() == bell_functional(bell.a).to_dict()


def _integer_with_ties(seed):
    return np.round(1.5 * gaussian(5, 5, SeedSpec(seed, 0)))


@pytest.mark.parametrize("t", [
    *(gaussian(n, n, SeedSpec(29, n)) / math.sqrt(n) for n in range(3, 9)),
    CHSH, np.eye(4), np.ones((3, 3)), *(_integer_with_ties(seed) for seed in range(3))])
def test_classical_lower_certificate_is_bell_functional_of_its_matrix(t):
    _lower_certificate_is_rebuilt(t)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6),
       st.booleans())
def test_classical_lower_certificate_is_bell_functional_hypothesis(n, seed, integer):
    t = gaussian(n, n, SeedSpec(seed, 3))
    _lower_certificate_is_rebuilt(np.round(2.0 * t) if integer else t)


@pytest.mark.parametrize("n", range(2, EXACT_CAP + 1))
def test_gap_from_bell_divides_by_the_enumerated_norm_up_to_the_cap(n):
    # up to the cap the pair's value is the enumerated norm bit for bit, so
    # dividing by it, as above the cap, moves no gap
    t = gaussian(n, n, SeedSpec(31, n)) / math.sqrt(n)
    bell = bell_functional_from_svd(t)
    lower = DualWitness(bell.a).value(t)
    assert bell.attaining.pairing(bell.a) == bell.eps_one_norm
    assert gap_from_bell(t, bell, lower) == float((t * bell.a).sum() / bell.eps_one_norm) / lower


def _bracket_parts(bracket):
    return (bracket.lower, bracket.upper, bracket.lower_certificate.to_dict(),
            bracket.upper_certificate.to_dict())


def _same_on_a_callers_svd(t):
    # given svd(t), the bracket and the functional return exactly what they
    # compute from t alone
    triple = svd(t)
    assert _bracket_parts(gamma2_bracket(t, triple)) == _bracket_parts(gamma2_bracket(t))
    assert (bell_functional_from_svd(t, triple=triple).to_dict()
            == bell_functional_from_svd(t).to_dict())


@pytest.mark.parametrize("n", (2, 6, 8, 30))
def test_norms_on_a_callers_svd_seeded(n):
    _same_on_a_callers_svd(small_gaussian(n, 60 + n))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
def test_norms_on_a_callers_svd_hypothesis(n, seed):
    _same_on_a_callers_svd(gaussian(n, n, SeedSpec(seed, 5)))


# --- column generation ----------------------------------------------------------

def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the time `import randcorr` takes, so the
    # column generation and alpha_threshold load it where they use it
    src = str(Path(__import__("randcorr").__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, randcorr, randcorr.cli; sys.exit('scipy.optimize' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                   check=True)


def test_scipy_pin_keeps_the_highs_model_classes():
    # the master LP drives HiGHS through these private scipy classes
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    assert HighsModelStatus.kOptimal != HighsModelStatus.kInfeasible
    highs = _Highs()
    assert all(callable(getattr(highs, name)) for name in (
        "setOptionValue", "addRows", "addCols", "run", "getModelStatus",
        "modelStatusToString", "getSolution"))


def closed(bracket, tol=1e-9):
    """The rule a classical report's converged and certified flags restate:
    the bracket's two certified ends are within tol."""
    return bracket.upper - bracket.lower <= tol


def test_upper_bound_identity_two_atoms():
    br = classical_upper_bound(np.eye(2))
    dec = br.upper_certificate
    assert closed(br)
    assert dec.weight_sum() == pytest.approx(1.0, abs=1e-9)
    assert dec.reconstruction_residual(np.eye(2)) <= 1e-9


def test_upper_bound_all_ones_single_atom():
    dec = classical_upper_bound(np.ones((4, 4))).upper_certificate
    assert dec.weight_sum() == pytest.approx(1.0, abs=1e-9)


def test_upper_bound_chsh():
    # the bracket is pinned to [2, 2]
    br = classical_upper_bound(CHSH)
    dec = br.upper_certificate
    assert dec.weight_sum() == pytest.approx(2.0, abs=1e-9)
    assert dec.reconstruction_residual(CHSH) <= 1e-9
    assert br.lower == pytest.approx(2.0, abs=1e-12)
    assert br.upper == pytest.approx(2.0, abs=1e-12)


def test_decomposition_serialization_round_trip():
    dec = classical_upper_bound(CHSH).upper_certificate
    assert set(dec.to_dict()) == {"type", "weights", "atoms"}
    back = ConvexDecomposition.from_dict(dec.to_dict())
    assert back.weight_sum() == pytest.approx(dec.weight_sum())
    assert back.reconstruction_residual(CHSH) <= 1e-9


def loop_reconstruct(dec, n):
    """Reference: one np.outer per atom, added in order."""
    out = np.zeros((n, n))
    for w, alpha, beta in zip(dec.weights, dec.alphas, dec.betas):
        out += w * np.outer(alpha, beta)
    return out


def random_decomposition(rng, n, k):
    signs = rng.choice((-1.0, 1.0), size=(2, k, n))
    weights = rng.exponential(size=k) * rng.choice((1e-8, 1.0, 1e3), size=k)
    return ConvexDecomposition(weights, *signs)


def test_reconstruct_equals_the_per_atom_loop_bit_for_bit():
    rng = np.random.default_rng(70)
    cases = [(n, int(k)) for n in range(2, 13) for k in rng.integers(0, 201, size=20)]
    cases += [(24, 24 * 24), (1, 0), (5, 1)]
    for n, k in cases:
        dec = random_decomposition(rng, n, k)
        got = dec.reconstruct(n)
        assert got.shape == (n, n)
        assert np.array_equal(got, loop_reconstruct(dec, n)), (n, k)
    for t in (CHSH, small_gaussian(6, 70), small_gaussian(8, 70)):
        dec = classical_upper_bound(t).upper_certificate
        assert np.array_equal(dec.reconstruct(len(t)), loop_reconstruct(dec, len(t)))


@pytest.mark.parametrize("weights, length", [([0.5], 2), ([0.5, 0.5, 0.5], 2),
                                             ([[0.5, 0.5]], 2), ([0.5, 0.5], 4)])
def test_reconstruct_needs_one_weight_per_atom_and_length_n_atoms(weights, length):
    # broadcasting [0.5] over (1,1) and (1,-1) would rebuild I_2 exactly
    # with a weight sum of 0.5; so would reshaping length-4 atoms to rows of 2
    signs = np.array([[1.0] * length, [1.0, -1.0] * (length // 2)])
    dec = ConvexDecomposition(np.array(weights), signs, signs)
    with pytest.raises(ValidationError, match="one weight per atom"):
        dec.reconstruct(2)


def test_duality_sandwich_on_seeded_inputs():
    # certified classical lower bound <= exact-reconstruction weight sum,
    # and the Grothendieck sandwich against the gamma2 bracket
    for t in range(500):
        g = gaussian(6, 6, SeedSpec(45, t))
        bell = bell_functional_from_svd(g)
        lower = classical_lower_bound(g, bell)
        br = classical_upper_bound(g, max_atoms=200, tol=1e-7)
        dec = br.upper_certificate
        assert closed(br, 1e-7), f"column generation stalled on trial {t}"
        assert dec.reconstruction_residual(g) <= 1e-6
        assert lower <= br.lower <= dec.weight_sum() + 1e-7
        br = gamma2_bracket(g)
        assert br.lower <= dec.weight_sum() + 1e-7
        assert dec.weight_sum() <= KG_UPPER * br.upper + 1e-6


def reference_projective_norm(t):
    """Independent oracle: min ||w||_1 over t = sum_k w_k outer(alpha_k, beta_k)
    with all 2^(2n-1) sign atoms (alpha_1 = +1), as one LP."""
    n = t.shape[0]
    alphas = [(1.0,) + rest for rest in itertools.product((1.0, -1.0), repeat=n - 1)]
    betas = list(itertools.product((1.0, -1.0), repeat=n))
    atoms = np.array([np.outer(a, b).ravel() for a in alphas for b in betas]).T
    res = linprog(np.ones(2 * atoms.shape[1]), A_eq=np.hstack([atoms, -atoms]),
                  b_eq=t.ravel(), bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


@pytest.mark.parametrize("case", ["seeded", "ones", "eye", "hadamard16"])
def test_top_sign_pairs_first_entry_is_exact(case):
    if case == "seeded":
        mats = [small_gaussian(n, 61, n) for n in range(1, 17)]
    elif case == "ones":
        mats = [np.ones((n, n)) for n in (1, 6, 14)]
    elif case == "eye":
        mats = [np.eye(n) for n in (1, 6, 15)]
    else:
        mats = [sylvester_hadamard(16)]
    for m in mats:
        val, pair = infty_to_one_exact(m)
        for count in (1, 32):
            top_val, top_pair = top_sign_pairs(m, count)[0]
            assert top_val == val
            assert np.array_equal(top_pair.alpha, pair.alpha)
            assert np.array_equal(top_pair.beta, pair.beta)


def test_top_sign_pairs_match_reference_ranking():
    # both sides of the one-high-row boundary (n - 1 = 12)
    for n in (5, 13, 14):
        g = small_gaussian(n, 62, n)
        alphas = np.array([(1.0,) + rest
                           for rest in itertools.product((1.0, -1.0), repeat=n - 1)])
        want = np.sort(np.abs(alphas @ g).sum(axis=1))[::-1][:32]
        top = top_sign_pairs(g, 32)
        assert len(top) == min(32, len(alphas))
        assert len({p.alpha.tobytes() for _, p in top}) == len(top)
        for value, pair in top:
            assert pair.alpha[0] == 1.0
            assert np.array_equal(pair.beta, np.where(g.T @ pair.alpha >= 0.0, 1.0, -1.0))
            assert value == pair.pairing(g)
        np.testing.assert_allclose([v for v, _ in top], want, rtol=1e-12)


def test_top_sign_pairs_ties_in_index_order():
    # every alpha ties on eye(6): the first 32 in index order come back
    top = top_sign_pairs(np.eye(6), 32)
    assert [v for v, _ in top] == [6.0] * 32
    idx = [int(((1.0 - p.alpha[1:]) / 2) @ (1 << np.arange(5))) for _, p in top]
    assert idx == list(range(32))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_upper_bound_matches_full_sign_atom_lp(n):
    for t in range(4):
        g = small_gaussian(n, 63, t)
        br = classical_upper_bound(g)
        dec = br.upper_certificate
        assert closed(br)
        assert dec.reconstruction_residual(g) <= 1e-9
        assert dec.weight_sum() == pytest.approx(reference_projective_norm(g), rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10 ** 6))
def test_upper_bound_matches_full_sign_atom_lp_hypothesis(n, seed):
    g = gaussian(n, n, SeedSpec(seed, 4))
    br = classical_upper_bound(g)
    assert closed(br)
    assert br.upper_certificate.weight_sum() == pytest.approx(reference_projective_norm(g),
                                                              rel=1e-9)


@functools.cache
def seeded_reference_projective_norm(data: bytes, n: int) -> float:
    """reference_projective_norm of an n x n float64 matrix given by its
    bytes, solved once per matrix for all the max_atoms it is run at."""
    return reference_projective_norm(np.frombuffer(data).reshape(n, n))


def assert_classical_report_brackets(t, max_atoms, directory):
    # the report's upper bound holds however early column generation stops;
    # its lower end, the best of UV^t and every priced dual, never falls
    # below UV^t's bound; both flags restate the bracket's closure to tol,
    # which the default max_atoms always reaches
    mpath, out = directory / "t.csv", directory / "classical.json"
    write_matrix_csv(mpath, t)
    assert main(["classical", "--matrix", str(mpath), "--max-atoms", str(max_atoms),
                 "--out", str(out)]) == 0
    assert main(["verify-certificate", str(out)]) == 0
    doc = json.loads(out.read_text())
    results, matrix = doc["results"], np.asarray(doc["matrix"])
    want = seeded_reference_projective_norm(t.tobytes(), len(t))
    assert results["upper"] is not None
    assert results["upper"] >= want - 1e-9 * max(1.0, want), (max_atoms, want)
    assert results["upper"] >= results["lower"]
    uv = classical_lower_bound(matrix, bell_functional_from_svd(matrix))
    assert results["lower"] >= uv - 1e-12 * abs(uv), (max_atoms, uv)
    closed_to_tol = results["upper"] - results["lower"] <= doc["config"]["tol"]
    assert results["converged"] is results["certified"] is closed_to_tol
    assert closed_to_tol or max_atoms < 400


@pytest.mark.parametrize("max_atoms", [1, 2, 5, 400])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_classical_report_upper_bounds_the_full_sign_atom_lp(n, max_atoms, tmp_path):
    for t in range(3):
        assert_classical_report_brackets(small_gaussian(n, 64, t), max_atoms, tmp_path)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([1, 2, 5, 400]))
@example(n=2, seed=310, max_atoms=5)  # its two ends meet, the lower one 1 ulp above
def test_classical_report_upper_bounds_the_full_sign_atom_lp_hypothesis(n, seed, max_atoms):
    with tempfile.TemporaryDirectory() as directory:
        assert_classical_report_brackets(gaussian(n, n, SeedSpec(seed, 5)), max_atoms,
                                         Path(directory))


def model_atom_columns(highs):
    """The atom columns of a master model (its columns after the 2 n^2
    slack columns), dense, one per column."""
    n2 = highs.getNumRow()
    k = highs.getNumCol() - 2 * n2
    _, starts, index, value = highs.getColsEntries(
        k, np.arange(2 * n2, 2 * n2 + k, dtype=np.int32))
    cols = np.zeros((n2, k))
    for j, (lo, hi) in enumerate(zip(starts, [*starts[1:], len(index)])):
        cols[index[lo:hi], j] = value[lo:hi]
    return cols


def capture_masters(monkeypatch):
    """Record the atom columns of the model at every master solve of
    classical_upper_bound, read from the model just before it is solved."""
    import randcorr.norms as norms_mod
    masters = []
    solve = norms_mod.linprog

    def capturing(highs):
        masters.append(model_atom_columns(highs))
        return solve(highs)

    monkeypatch.setattr(norms_mod, "linprog", capturing)
    return masters


def atom_columns(alphas, betas):
    """The columns outer(alpha, beta) flattened of two +-1 blocks, one atom
    per row."""
    return np.array([np.outer(a, b).ravel() for a, b in zip(alphas, betas)]).T


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_upper_bound_pool_starts_from_top_sign_pairs(monkeypatch, n):
    masters = capture_masters(monkeypatch)
    g = small_gaussian(n, 65, n)
    ones = np.ones((n * n, 1))
    for max_atoms in (400, 5):
        masters.clear()
        classical_upper_bound(g, max_atoms=max_atoms)
        _, alphas, betas = _top_atoms(g, 32)
        want = atom_columns(alphas, betas)
        if not (want == ones).all(axis=0).any():
            want = np.hstack([want, ones])
        np.testing.assert_array_equal(masters[0], want)
        assert masters[0].shape[1] <= 33


def reference_pair(tables, i):
    """Sign vector i of the tables, beta = sign(m^t alpha) and the value
    alpha^t m beta, built one pair at a time."""
    h, j = divmod(i, 1 << tables.k)
    alpha = np.concatenate(([1.0], tables.low_signs[j], tables.high_signs[h]))
    beta = np.where(tables.m.T @ alpha >= 0.0, 1.0, -1.0)
    return float(alpha @ tables.m @ beta), alpha, beta


def eager_top_sign_pairs(y, count, floor=-np.inf):
    """Reference pricing: builds a pair for every ranked sign vector, one at
    a time, then keeps the first and those of value above floor."""
    tables = _SplitTables(y)
    pairs = [reference_pair(tables, i) for i in tables.ranked(count)[0].tolist()]
    return pairs[:1] + [p for p in pairs[1:] if p[0] > floor]


@pytest.mark.parametrize("case", ["seeded", "mixed", "ones", "eye", "hadamard16"])
def test_pairs_equal_the_pairs_built_one_at_a_time(case):
    # the stacked products give each row bit for bit what pair(i) and a
    # one-pair-at-a-time build give, in any order and with repeats
    for n in (1, 2, 5, 8, 13, 14, 16):
        m = {"seeded": small_gaussian(n, 69, n), "mixed": mixed_magnitudes(n, 69 + n),
             "ones": np.ones((n, n)), "eye": np.eye(n),
             "hadamard16": sylvester_hadamard(16)[:n, :n]}[case]
        tables = _SplitTables(m)
        count = 1 << (n - 1)
        idx = np.random.default_rng(n).integers(0, count, size=40)
        idx[:2] = (0, count - 1)
        values, alphas, betas = tables.pairs(idx)
        assert values.shape == (40,) and alphas.shape == betas.shape == (40, n)
        for row, i in enumerate(idx.tolist()):
            value, pair = tables.pair(i)
            ref_value, ref_alpha, ref_beta = reference_pair(tables, i)
            assert values[row] == value == ref_value
            assert np.array_equal(alphas[row], pair.alpha)
            assert np.array_equal(alphas[row], ref_alpha)
            assert np.array_equal(betas[row], pair.beta)
            assert np.array_equal(betas[row], ref_beta)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10 ** 6))
def test_lazy_pricing_admits_the_eager_atoms(n, seed):
    import randcorr.norms as norms_mod
    g = gaussian(n, n, SeedSpec(seed, 5)) / math.sqrt(n)
    calls, built, pricing = [], [], []
    pairs = _SplitTables.pairs

    def counting_pairs(self, indices):
        # the UV^t functional's own enumeration is not a pricing call
        if pricing:
            built[-1] += len(indices)
        return pairs(self, indices)

    def recording(y, count, floor=-np.inf):
        built.append(0)
        pricing.append(True)
        out = _top_atoms(y, count, floor)
        pricing.pop()
        calls.append((y.copy(), count, floor, out))
        return out

    norms_mod._top_atoms = recording
    _SplitTables.pairs = counting_pairs
    try:
        classical_upper_bound(g)
    finally:
        norms_mod._top_atoms = _top_atoms
        _SplitTables.pairs = pairs
    assert len(calls) >= 2 and calls[1][2] == 1.0 + 1e-9
    for (y, count, floor, (values, alphas, betas)), made in zip(calls, built):
        assert len(values) <= made
        want = eager_top_sign_pairs(y, count, floor)
        assert values.tolist() == [v for v, _, _ in want]
        for p, q, (_, alpha, beta) in zip(alphas, betas, want):
            assert np.array_equal(p, alpha) and np.array_equal(q, beta)


@pytest.mark.parametrize("case", ["seeded6", "seeded8_max5", "ones", "eye", "chsh",
                                  "hadamard8"])
def test_upper_bound_pool_has_no_repeated_column(monkeypatch, case):
    masters = capture_masters(monkeypatch)
    max_atoms = 400
    if case == "seeded6":
        t = small_gaussian(6, 66)
    elif case == "seeded8_max5":
        t, max_atoms = small_gaussian(8, 66), 5
    elif case == "ones":
        t = np.ones((5, 5))
    elif case == "eye":
        t = np.eye(5)
    elif case == "chsh":
        t = CHSH
    else:
        t = sylvester_hadamard(8)
    classical_upper_bound(t, max_atoms=max_atoms)
    assert masters
    for solve, cols in enumerate(masters, start=1):
        assert np.unique(cols, axis=1).shape[1] == cols.shape[1]
        # 32 best atoms and all-ones to start, then up to 32 per solve
        assert cols.shape[1] <= 33 + 32 * (solve - 1)


@pytest.mark.parametrize("n, max_atoms", [(4, 400), (6, 400), (8, 400), (8, 5), (10, 5)])
def test_model_columns_follow_the_pool(monkeypatch, n, max_atoms):
    # after every solve the model holds the 2 n^2 slacks +-e_i, then the
    # pool's atoms in pool order; atoms only ever join the pool
    import randcorr.norms as norms_mod
    pools, pooled = [], []

    class RecordedPool(norms_mod._AtomPool):
        def __init__(self, *args):
            super().__init__(*args)
            pools.append(self)

    solve = norms_mod.linprog

    def checking(highs):
        out = solve(highs)
        pool, = pools
        assert highs is pool.highs
        np.testing.assert_array_equal(model_atom_columns(highs),
                                      atom_columns(pool.alphas, pool.betas))
        _, starts, index, value = highs.getColsEntries(
            2 * n * n, np.arange(2 * n * n, dtype=np.int32))
        np.testing.assert_array_equal(starts, np.arange(2 * n * n))
        np.testing.assert_array_equal(index, np.tile(np.arange(n * n), 2))
        np.testing.assert_array_equal(value, np.repeat([1.0, -1.0], n * n))
        pooled.append([(a.tobytes(), b.tobytes()) for a, b in zip(pool.alphas, pool.betas)])
        return out

    monkeypatch.setattr(norms_mod, "_AtomPool", RecordedPool)
    monkeypatch.setattr(norms_mod, "linprog", checking)
    classical_upper_bound(small_gaussian(n, 67, n), max_atoms=max_atoms)
    assert len(pooled) >= 2
    assert all(b[:len(a)] == a for a, b in zip(pooled, pooled[1:])), "an atom left"


def cold_master_value(cols, t):
    """Independent reference: min sum(w) over cols @ w = t, w >= 0, solved
    from scratch by scipy's linprog."""
    res = linprog(np.ones(cols.shape[1]), A_eq=cols, b_eq=t.ravel(),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def check_warm_master_matches_cold(t):
    with pytest.MonkeyPatch.context() as mp:
        masters = capture_masters(mp)
        br = classical_upper_bound(t)
    assert closed(br)
    assert br.upper_certificate.weight_sum() == pytest.approx(
        cold_master_value(masters[-1], t), rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_warm_master_matches_cold_solve_of_final_pool(n):
    for trial in range(3):
        check_warm_master_matches_cold(small_gaussian(n, 68, trial))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10 ** 6))
def test_warm_master_matches_cold_solve_of_final_pool_hypothesis(n, seed):
    check_warm_master_matches_cold(gaussian(n, n, SeedSpec(seed, 6)) / math.sqrt(n))


def test_upper_bound_converges_at_n10_default_max_atoms():
    g = small_gaussian(10, 7)
    br = classical_upper_bound(g)
    dec = br.upper_certificate
    assert closed(br)
    assert dec.reconstruction_residual(g) <= 1e-9
    assert classical_lower_bound(g, bell_functional_from_svd(g)) <= br.lower
    assert br.lower <= dec.weight_sum() + 1e-9


def test_upper_bound_refuses_above_exact_cap_before_any_work(monkeypatch):
    # only exact pricing can certify a decomposition, so above the cap the
    # bound is refused before any SVD, enumeration, ascent or LP runs
    import randcorr.norms as norms_mod
    calls = []
    for name in ("svd", "_top_atoms", "infty_to_one_heuristic", "linprog"):
        monkeypatch.setattr(norms_mod, name,
                            lambda *a, _name=name, **k: calls.append(_name)
                            or pytest.fail(f"{_name} ran"))
    with pytest.raises(ValidationError, match="EXACT_CAP"):
        classical_upper_bound(small_gaussian(EXACT_CAP + 1, 7))
    assert calls == []


# --- gap and tau bound -----------------------------------------------------------

def test_gap_all_ones_control():
    assert quantum_classical_gap(np.ones((6, 6))) <= 1.0 + 1e-9


def test_gap_uses_one_svd_and_matches_bracket_lower(monkeypatch):
    import randcorr.norms as norms_mod
    g = small_gaussian(10, 56)
    bell = bell_functional_from_svd(g)
    want = gap_from_bell(g, bell, gamma2_bracket(g).lower)
    calls = []
    real_svd = norms_mod.svd

    def counting_svd(m):
        calls.append(m.shape)
        return real_svd(m)

    monkeypatch.setattr(norms_mod, "svd", counting_svd)
    assert quantum_classical_gap(g) == want
    assert len(calls) == 1


def test_gap_rejects_zero():
    with pytest.raises(ValidationError):
        quantum_classical_gap(np.zeros((4, 4)))


def test_gap_orthogonal_matches_norm_ratio():
    o = haar_orthogonal(12, SeedSpec(46, 0))
    val, _ = infty_to_one_exact(o)
    assert quantum_classical_gap(o) == pytest.approx(12.0 / val, rel=1e-9)


def test_gap_gaussian_typically_above_one():
    gaps = [quantum_classical_gap(small_gaussian(20, 47, t)) for t in range(10)]
    assert np.mean([g > 1.0 for g in gaps]) >= 0.9


def test_gap_orthogonal_frequency_at_n16():
    hits = [quantum_classical_gap(haar_orthogonal(16, SeedSpec(51, t))) >= 1.03
            for t in range(40)]
    assert np.mean(hits) >= 0.8


def test_gap_large_n_heuristic_estimate():
    # above the exact cap the Bell norm is heuristic; the gap estimate sits
    # near 1/0.92 at this size (report-grade, not certified)
    for t in range(3):
        gap = quantum_classical_gap(small_gaussian(200, 52, t), seed=SeedSpec(53, t))
        assert gap >= 1.02


def test_classical_lower_large_n_floor():
    # with the certified norm upper bound n rho(a), the lower bound equals
    # trace/n up to rho(a) - 1, about 1e-12 here
    t = small_gaussian(200, 54)
    bell = bell_functional_from_svd(t, seed=SeedSpec(55, 0))
    lower = classical_lower_bound(t, bell)
    floor = (math.sqrt(16 / 15) - 0.05) * trace_norm(t) / 200
    assert lower >= floor
    assert lower == pytest.approx(trace_norm(t) / 200, rel=1e-9)


def test_tau_gap_bound_properties():
    seed = SeedSpec(48, 0)
    b1 = tau_gap_bound(50, 500, seed)
    assert b1 == tau_gap_bound(50, 500, seed)  # deterministic
    assert b1 >= 0.0
    med_small = np.median([tau_gap_bound(50, 500, SeedSpec(49, t)) for t in range(10)])
    med_large = np.median([tau_gap_bound(50, 4000, SeedSpec(49, t)) for t in range(10)])
    assert med_large < med_small


def test_tau_gap_bound_dominates_normalized_pairings():
    from randcorr.sampling import gaussian_product, unit_rows_correlation
    n, m = 12, 200
    seed = SeedSpec(50, 0)
    residual = unit_rows_correlation(n, m, seed) - gaussian_product(n, m, seed) / m
    bound = tau_gap_bound(n, m, seed)
    gen = np.random.default_rng(0)
    for _ in range(1000):
        alpha = gen.choice([-1.0, 1.0], size=n)
        beta = gen.choice([-1.0, 1.0], size=n)
        pairing = float(alpha @ residual @ beta) / n ** 2  # unit dual norm
        assert pairing <= bound + 1e-12


def test_sign_pair_validation():
    with pytest.raises(ValidationError):
        SignPair(np.array([1.0, 0.5]), np.array([1.0, -1.0]))
