import math

import numpy as np
import pytest

from randcorr.errors import ValidationError
from randcorr.linalg import flatness_ratio, svd
from randcorr.norms import KG_UPPER, tau_gap_bound
from randcorr.sampling import (EnsembleSpec, SeedSpec, bi_invariant, gaussian,
                               gaussian_product, haar_orthogonal, splitmix64,
                               unit_rows_correlation)


def test_seedspec_streams_are_deterministic_and_distinct():
    a = gaussian(6, 6, SeedSpec(123, 4))
    b = gaussian(6, 6, SeedSpec(123, 4))
    c = gaussian(6, 6, SeedSpec(123, 5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert SeedSpec(123, 4).stream_seed() == splitmix64(123 ^ splitmix64(5))


def test_seedspec_validation():
    with pytest.raises(ValidationError):
        SeedSpec(-1, 0)
    with pytest.raises(ValidationError):
        SeedSpec(0, -2)


def test_gaussian_moments():
    draws = gaussian(1000, 1000, SeedSpec(10, 0))
    assert abs(draws.mean()) <= 0.01
    assert abs(draws.var() - 1.0) <= 0.01


def test_haar_orthogonal_n1_sign_frequencies():
    vals = [haar_orthogonal(1, SeedSpec(11, t))[0, 0] for t in range(10_000)]
    vals = np.array(vals)
    assert set(np.unique(vals)) == {-1.0, 1.0}
    assert abs(np.mean(vals == 1.0) - 0.5) <= 0.01


def test_haar_orthogonality_residual():
    for t in range(50):
        o = haar_orthogonal(7, SeedSpec(12, t))
        assert np.linalg.norm(o @ o.T - np.eye(7)) < 1e-9


def test_haar_first_column_moments():
    cols = np.array([haar_orthogonal(5, SeedSpec(13, t))[:, 0]
                     for t in range(10_000)])
    assert np.all(np.abs(cols.mean(axis=0)) <= 0.02)
    assert (cols[:, 0] ** 2).mean() == pytest.approx(0.2, abs=0.01)


def test_haar_invariance_under_signed_permutation():
    # two-sample KS between (P O)_11 and O_11 below the 1% critical value
    n = 5
    perm = np.zeros((n, n))
    order = [2, 0, 4, 1, 3]
    signs = [1, -1, 1, 1, -1]
    for i, (j, s) in enumerate(zip(order, signs)):
        perm[i, j] = s
    a_vals, b_vals = [], []
    for t in range(10_000):
        o = haar_orthogonal(n, SeedSpec(14, t))
        a_vals.append(o[0, 0])
        b_vals.append((perm @ o)[0, 0])
    a_vals = np.sort(a_vals)
    b_vals = np.sort(b_vals)
    grid = np.concatenate([a_vals, b_vals])
    fa = np.searchsorted(a_vals, grid, side="right") / len(a_vals)
    fb = np.searchsorted(b_vals, grid, side="right") / len(b_vals)
    ks = np.abs(fa - fb).max()
    critical = 1.628 * math.sqrt(2 / 10_000)  # 1% level, equal samples
    assert ks < critical


def test_bi_invariant_unit_spectrum_is_orthogonal():
    t = bi_invariant(np.ones(6), SeedSpec(15, 0))
    assert np.linalg.norm(t @ t.T - np.eye(6)) < 1e-9


def test_bi_invariant_realizes_spectrum():
    spec = np.array([5.0, 3.0, 2.0, 0.5, 0.0])
    t = bi_invariant(spec, SeedSpec(16, 0))
    assert np.allclose(svd(t).sigma, np.sort(spec)[::-1], atol=1e-9)
    assert flatness_ratio(t) == pytest.approx(5 * spec.max() / spec.sum(), abs=1e-9)


def test_bi_invariant_rejects_negative_spectrum():
    with pytest.raises(ValidationError):
        bi_invariant([1.0, -0.5], SeedSpec(17, 0))


def test_gaussian_product_entry_moments():
    n, m = 4, 8
    entries = np.array([gaussian_product(n, m, SeedSpec(18, t))[0, 0]
                        for t in range(10_000)])
    assert abs(entries.mean()) <= 3 * math.sqrt(m / 10_000) + 0.05
    assert entries.var() == pytest.approx(m, rel=0.03)


def test_gaussian_product_mean_eigenvalue():
    n, m = 200, 100
    prod = gaussian_product(n, m, SeedSpec(19, 0))
    lam = np.linalg.svd(prod, compute_uv=False) ** 2 / (n * m)
    assert lam.mean() == pytest.approx(1.0, abs=0.05)


def test_unit_rows_correlation_entries():
    tau = unit_rows_correlation(30, 10, SeedSpec(20, 0))
    assert np.all(np.abs(tau) <= 1.0 + 1e-12)
    tau1 = unit_rows_correlation(12, 1, SeedSpec(21, 0))
    assert set(np.unique(np.round(tau1, 12))) <= {-1.0, 1.0}


def test_unit_rows_correlation_second_moment():
    m = 10
    vals = np.concatenate([unit_rows_correlation(100, m, SeedSpec(22, t)).ravel()
                           for t in range(10)])
    assert (vals ** 2).mean() == pytest.approx(1.0 / m, abs=0.005)


def test_unit_rows_coupling_with_gaussian_product():
    # tau and GH^t/m under one seed agree entrywise within the certified
    # normalization-error bound (Grothendieck factor removed)
    n, m = 20, 500
    seed = SeedSpec(23, 0)
    tau = unit_rows_correlation(n, m, seed)
    prod = gaussian_product(n, m, seed) / m
    bound = tau_gap_bound(n, m, seed) / KG_UPPER
    assert np.abs(tau - prod).max() <= bound + 1e-12


def test_ensemble_spec_validation_and_dispatch():
    spec = EnsembleSpec(kind="gaussian", n=4)
    assert spec.sample(SeedSpec(1, 0)).shape == (4, 4)
    spec = EnsembleSpec(kind="gaussian_product", n=3, m=5)
    assert spec.sample(SeedSpec(1, 0)).shape == (3, 3)
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="gaussian", n=3, m=5)
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="unit_rows_correlation", n=3)
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="bi_invariant", n=3)
    with pytest.raises(ValidationError):
        EnsembleSpec(kind="nope", n=3)
