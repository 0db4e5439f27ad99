import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from randcorr.errors import NumericalError, ValidationError
from randcorr.sampling import SeedSpec
from randcorr.spectral import (MIN_GRID_POINTS, EmpiricalSpectrum, _follow,
                               ac_support_edges, alpha_threshold, c_alpha,
                               density, empirical_spectrum, ks_distance)
from stieltjes_reference import companion_roots, cubic_residual, follow_loop, stieltjes

ALPHAS = (0.05, 0.1269, 0.5, 1.0, 4.0, 16.0)


def cubic_discriminant(x, alpha):
    """Independent oracle: discriminant of the defining cubic at real x."""
    a = x * x / alpha
    b = -x * (alpha - 1) / alpha
    c = -x
    d = -1.0
    return (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_stieltjes_large_z_asymptotic(alpha):
    z = 100j
    s = stieltjes(alpha, z)
    assert abs(s - (-1 / z)) <= 1e-3
    assert s.imag > 0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_stieltjes_residual_and_herglotz(alpha):
    for z in (0.5 + 1e-6j, 1.0 + 1e-6j, 2.0 + 0.5j, -1.0 + 1j, 10j):
        s = stieltjes(alpha, z)
        assert cubic_residual(alpha, z, s) <= 1e-12
        assert s.imag > 0


def test_stieltjes_interior_point_alpha_one():
    s = stieltjes(1.0, 1.0 + 1e-6j)
    assert s.imag > 0


def test_stieltjes_rejects_lower_half_plane():
    with pytest.raises(ValidationError):
        stieltjes(1.0, 1.0 - 1j)


def test_support_edges_against_discriminant_roots():
    for alpha in (0.3, 1.0, 2.5):
        lo, hi = ac_support_edges(alpha)
        hi_oracle = brentq(lambda x: cubic_discriminant(x, alpha),
                           max(hi * 0.5, 1e-6), hi * 2.0)
        assert hi == pytest.approx(hi_oracle, rel=1e-9)
        if lo > 0:
            lo_oracle = brentq(lambda x: cubic_discriminant(x, alpha),
                               lo * 0.5, (lo + hi) / 2)
            assert lo == pytest.approx(lo_oracle, rel=1e-6)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 4.0))
def test_density_matches_stieltjes_inside_the_support(alpha):
    # two trackings of one branch: density follows the roots along the real
    # axis from the right, stieltjes down from far up the imaginary axis
    law = density(alpha)
    lo, hi = ac_support_edges(alpha)
    inside = lo + (hi - lo) * np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    for i in np.searchsorted(law.grid, inside):
        ref = stieltjes(alpha, law.grid[i] + 1e-9j).imag / math.pi
        assert law.density[i] == pytest.approx(ref, rel=1e-4)


def test_alpha_one_support_is_fuss_catalan_edge():
    law = density(1.0)
    grid_step = law.grid[-1] - law.grid[-2]
    assert abs(law.support_upper - 27 / 4) <= grid_step
    assert ac_support_edges(1.0) == (0.0, 6.75)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_density_invariants(alpha):
    law = density(alpha)
    assert abs(law.total_mass() - 1.0) <= 1e-4
    assert np.all(law.density >= 0.0)
    step = law.grid[-1] - law.grid[-2]
    beyond = law.grid > law.support_upper + step
    assert np.all(law.density[beyond] == 0.0)
    assert law.first_moment() == pytest.approx(1.0, abs=1e-3)
    assert law.atom_mass == pytest.approx(max(0.0, 1 - alpha))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_c_alpha_jensen(alpha):
    law = density(alpha)
    assert law.c_alpha <= math.sqrt(law.first_moment()) + 1e-3


def test_c_alpha_large_alpha_approaches_gaussian_constant():
    assert c_alpha(16.0) == pytest.approx(8 / (3 * math.pi), abs=0.02)


def test_c_alpha_one_matches_monte_carlo():
    # E sqrt(lambda) at n = m = 500 over a few trials
    vals = []
    for t in range(5):
        emp = empirical_spectrum(500, 500, SeedSpec(60, t))
        vals.append(np.sqrt(emp.eigenvalues).mean())
    assert c_alpha(1.0) == pytest.approx(np.mean(vals), abs=0.01)


def test_alpha_threshold_reproduces_nonlocality_ratio():
    a0 = alpha_threshold(math.sqrt(16 / 15))
    assert a0 == pytest.approx(0.1269, abs=0.001)


def test_alpha_threshold_monotone_in_gap_constant():
    a0 = alpha_threshold(math.sqrt(16 / 15), tol=5e-4)
    a1 = alpha_threshold(2 * math.sqrt(16 / 15), tol=5e-4)
    assert a1 > a0


def test_alpha_threshold_self_consistency():
    # plugging the solver's own C back in puts the root at that alpha
    target = 0.3
    gc = math.sqrt(target) / c_alpha(target)
    assert alpha_threshold(gc, tol=1e-4) == pytest.approx(target, abs=1e-3)


def test_alpha_threshold_requires_sign_change():
    with pytest.raises(NumericalError):
        alpha_threshold(0.01)


def test_alpha_threshold_discretization_stability():
    a_default = alpha_threshold(math.sqrt(16 / 15))
    a_fine = alpha_threshold(math.sqrt(16 / 15), grid_points=8000, eps_cap=5e-7)
    assert abs(a_default - a_fine) <= 2e-4


def test_empirical_spectrum_properties():
    emp = empirical_spectrum(200, 100, SeedSpec(61, 0))
    assert np.all(emp.eigenvalues >= 0.0)
    assert emp.eigenvalues.mean() == pytest.approx(1.0, abs=0.05)
    # exact rank deficiency: n - m zero eigenvalues
    assert int(np.sum(emp.eigenvalues == 0.0)) == 100


def test_ks_distance_identity_discretization():
    # a synthetic sample at the law's own quantiles (zeros for the atom)
    law = density(0.5)
    n, m_eff = 400, 200
    levels = law.atom_mass + (1 - law.atom_mass) * (np.arange(1, m_eff + 1) - 0.5) / m_eff
    lam_ac = np.interp(levels, law.cdf_grid(), law.grid)
    lam = np.concatenate([np.zeros(n - m_eff), lam_ac])
    emp = EmpiricalSpectrum(eigenvalues=np.sort(lam), n=n, m=m_eff)
    assert ks_distance(emp, law) <= 0.01


def test_ks_distance_bounds_and_mismatch():
    law = density(0.5)
    emp = empirical_spectrum(100, 50, SeedSpec(62, 0))
    d = ks_distance(emp, law)
    assert 0.0 <= d <= 1.0
    with pytest.raises(ValidationError):
        ks_distance(empirical_spectrum(100, 75, SeedSpec(62, 1)), law)


def test_ks_distance_decreases_with_n():
    law = density(0.5)
    small = [ks_distance(empirical_spectrum(100, 50, SeedSpec(63, t)), law)
             for t in range(10)]
    large = [ks_distance(empirical_spectrum(400, 200, SeedSpec(64, t)), law)
             for t in range(10)]
    assert np.median(large) < np.median(small)


def test_density_tracks_the_branch_once(monkeypatch):
    import randcorr.spectral as spectral_mod
    calls = []
    real = spectral_mod._roots_batch

    def counting(alpha, zs):
        calls.append(len(zs))
        return real(alpha, zs)

    monkeypatch.setattr(spectral_mod, "_roots_batch", counting)
    density(0.5)
    assert len(calls) == 1


@pytest.mark.parametrize("scale", (0.97, 1.03))
@pytest.mark.parametrize("alpha", (0.1, 0.5, 1.0, 4.0))
def test_density_rejects_a_moved_discriminant_edge(alpha, scale, monkeypatch):
    # the tracked profile ends at the true edge, 3% away from the one given
    import randcorr.spectral as spectral_mod
    x_lo, x_hi = ac_support_edges(alpha)
    monkeypatch.setattr(spectral_mod, "ac_support_edges",
                        lambda a: (x_lo, scale * x_hi))
    with pytest.raises(NumericalError, match="edge"):
        density(alpha)


def density_kernel_inputs(alpha, grid_points=MIN_GRID_POINTS):
    """The z grid density(alpha) hands to _roots_batch, the roots it gets
    back, and the (roots, start) it hands to _follow."""
    import randcorr.spectral as spectral_mod
    seen = {}
    roots_batch, follow = spectral_mod._roots_batch, spectral_mod._follow

    def recording_roots(a, zs):
        seen["zs"], seen["roots"] = zs, roots_batch(a, zs)
        return seen["roots"]

    def recording_follow(roots, start):
        seen["follow"] = (roots, start)
        return follow(roots, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral_mod, "_roots_batch", recording_roots)
        mp.setattr(spectral_mod, "_follow", recording_follow)
        density(alpha, grid_points)
    return seen["zs"], seen["roots"], seen["follow"]


def root_set_error(got, want):
    """Per row, the largest relative error of `got` against `want` under
    the best matching of the three roots."""
    return np.min([np.max(np.abs(got[:, perm] - want) / np.abs(want), axis=1)
                   for perm in itertools.permutations(range(3))], axis=0)


def check_roots_and_branch(alpha):
    zs, roots, (tracked, start) = density_kernel_inputs(alpha)
    assert root_set_error(roots, companion_roots(alpha, zs)).max() <= 1e-12
    assert np.array_equal(_follow(tracked, start), follow_loop(tracked, start))


def test_closed_form_roots_and_scan_match_the_reference_on_the_alpha_sweep():
    # the closed-form roots equal the companion eigenvalues as sets, and the
    # doubling scan picks the branch the one-row-at-a-time loop picks
    for alpha in np.geomspace(0.005, 200.0, 65):
        check_roots_and_branch(alpha)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=math.log(0.005), max_value=math.log(200.0)))
def test_closed_form_roots_and_scan_match_the_reference_hypothesis(log_alpha):
    check_roots_and_branch(math.exp(log_alpha))


@pytest.mark.parametrize("k", range(30, 47))
def test_density_at_very_large_alpha(k):
    # b + r cancels in the deflation there, which once gave a wrong edge at
    # 2^40 and 2^43 and a wrong mass at 2^45; C_alpha tends to 8/(3pi)
    law = density(2.0 ** k)
    assert abs(law.total_mass() - 1.0) <= 1e-5
    assert law.c_alpha == pytest.approx(8 / (3 * math.pi), rel=1e-6)
    if k % 4 == 0 or k in (43, 45):
        check_roots_and_branch(2.0 ** k)


@pytest.mark.parametrize("rows", [1, 2, 3, 64, 1000])
def test_follow_scan_equals_the_loop_on_exact_ties(rows):
    # roots on a small integer lattice: many rows hold two roots at the same
    # distance from the one before, and argmin takes the first in both
    gen = np.random.default_rng(rows)
    ties = 0
    for _ in range(50):
        roots = (gen.integers(-2, 3, size=(rows, 3))
                 + 1j * gen.integers(-2, 3, size=(rows, 3))).astype(complex)
        start = complex(gen.integers(-2, 3), gen.integers(-2, 3))
        want = follow_loop(roots, start)
        assert np.array_equal(_follow(roots, start), want)
        prev = np.concatenate(([start], want[:-1]))
        dist = np.abs(roots - prev[:, None])
        ties += int(((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties > 0


def test_density_validation():
    with pytest.raises(ValidationError):
        density(-1.0)
    with pytest.raises(ValidationError):
        density(1.0, grid_points=10)
    # 200 points fail the mass check at alpha = 0.3138 (total mass 0.998811)
    for alpha in (1.0, 0.3138):
        with pytest.raises(ValidationError, match="grid_points"):
            density(alpha, grid_points=MIN_GRID_POINTS - 1)


def test_density_at_the_grid_floor_passes_its_checks():
    # density raises if the tracked edge or the total mass is off, so every
    # grid_points it accepts must pass both across the range of alpha (250
    # points left a total mass of 0.998952 at alpha = 0.3429)
    for alpha in np.append(np.geomspace(0.005, 200.0, 65), 0.34290134400373157):
        law = density(alpha, grid_points=MIN_GRID_POINTS)
        assert abs(law.total_mass() - 1.0) <= 1e-3


def test_law_csv_export(tmp_path):
    law = density(1.0, grid_points=MIN_GRID_POINTS)
    path = tmp_path / "law.csv"
    law.to_csv(path)
    rows = [line.split(",") for line in path.read_text().strip().splitlines()]
    xs = np.array([float(r[0]) for r in rows])
    fs = np.array([float(r[1]) for r in rows])
    assert np.array_equal(xs, law.grid)
    assert np.array_equal(fs, law.density)
