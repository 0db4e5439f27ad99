import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcorr.errors import ValidationError
from randcorr.linalg import (as_matrix, flatness_ratio, operator_norm,
                             read_matrix_csv, svd, trace_norm,
                             write_matrix_csv)
from randcorr.sampling import SeedSpec, gaussian, haar_orthogonal

from jacobi_reference import jacobi_singular_values


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValidationError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValidationError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValidationError):
        as_matrix([[1.0, 2.0]], square=True)


def _reconstruction_residual(triple, a) -> float:
    """||U S V^t - a||_F / ||a||_F: LAPACK's accuracy, which svd no longer gates."""
    return np.linalg.norm((triple.u * triple.sigma) @ triple.v.T - a) / np.linalg.norm(a)


def test_svd_identity():
    triple = svd(np.eye(3))
    assert np.allclose(triple.sigma, [1.0, 1.0, 1.0])


def test_svd_signed_diagonal():
    triple = svd(np.diag([3.0, -4.0]))
    assert np.allclose(triple.sigma, [4.0, 3.0])
    assert _reconstruction_residual(triple, np.diag([3.0, -4.0])) < 1e-14


def test_svd_gaussian_reconstruction_and_jacobi_cross_check():
    g = gaussian(8, 8, SeedSpec(1234, 0))
    triple = svd(g)
    assert _reconstruction_residual(triple, g) <= 1e-10
    ref = jacobi_singular_values(g)
    assert np.allclose(triple.sigma, ref, rtol=1e-10, atol=1e-12)


def test_svd_reconstruction_sweep():
    # seeded sweep over n in 2..64
    count = 0
    for trial in range(1000):
        n = 2 + (trial % 63)
        g = gaussian(n, n, SeedSpec(777, trial))
        triple = svd(g)
        assert _reconstruction_residual(triple, g) <= 1e-9
        eye = np.eye(n)
        assert np.linalg.norm(triple.u @ triple.u.T - eye) <= 1e-9
        assert np.linalg.norm(triple.v @ triple.v.T - eye) <= 1e-9
        assert np.all(np.diff(triple.sigma) <= 1e-12)
        assert np.all(triple.sigma >= 0)
        count += 1
    assert count == 1000


def test_trace_norm_identity_and_orthogonal():
    assert trace_norm(np.eye(7)) == pytest.approx(7.0)
    o = haar_orthogonal(9, SeedSpec(5, 0))
    assert trace_norm(o) == pytest.approx(9.0, abs=1e-9)


def test_trace_norm_gaussian_constant():
    vals = [trace_norm(gaussian(300, 300, SeedSpec(42, t)) / math.sqrt(300)) / 300
            for t in range(6)]
    assert np.mean(vals) == pytest.approx(8 / (3 * math.pi), abs=0.02)


def test_operator_norm_basics():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_gaussian_constant():
    vals = [operator_norm(gaussian(300, 300, SeedSpec(43, t)) / math.sqrt(300))
            for t in range(6)]
    assert np.mean(vals) == pytest.approx(2.0, abs=0.1)


def test_flatness_ratio():
    o = haar_orthogonal(6, SeedSpec(6, 0))
    assert flatness_ratio(o) == pytest.approx(1.0, abs=1e-9)
    spike = np.zeros((8, 8))
    spike[0, 0] = 1.0
    assert flatness_ratio(spike) == pytest.approx(8.0)
    with pytest.raises(ValidationError):
        flatness_ratio(np.zeros((3, 3)))


def test_flatness_ratio_gaussian():
    # ratio of the operator and trace constants: 2 / (8/(3 pi)) = 3 pi / 4
    vals = [flatness_ratio(gaussian(300, 300, SeedSpec(44, t))) for t in range(6)]
    assert np.mean(vals) == pytest.approx(3 * math.pi / 4, abs=0.05)


def test_trace_norm_duality_against_orthogonal_pairings():
    g = gaussian(10, 10, SeedSpec(7, 0))
    tn = trace_norm(g)
    for t in range(25):
        o = haar_orthogonal(10, SeedSpec(8, t))
        assert abs((g * o).sum()) <= tn + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10 ** 6))
def test_norm_ordering(n, seed):
    g = gaussian(n, n, SeedSpec(seed, 0))
    op = operator_norm(g)
    tn = trace_norm(g)
    assert op <= tn + 1e-12
    assert tn <= n * op + 1e-9


def test_matrix_csv_round_trip(tmp_path):
    g = gaussian(5, 7, SeedSpec(99, 0))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, g)
    back = read_matrix_csv(path)
    assert np.array_equal(back, g)


def test_matrix_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValidationError):
        read_matrix_csv(path)
