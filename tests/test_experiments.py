import json
import math

import pytest

from randcorr.errors import ValidationError
from randcorr.experiments import (SCENARIOS, ExperimentConfig, TrialRecord,
                                  default_config, gaussian_max_row_bound,
                                  gaussian_row_bound, grid, levy_bound,
                                  monte_carlo_se, run_experiment, run_trial,
                                  summarize_records)


def small(scenario, **overrides):
    cfg = default_config(scenario)
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario="nope", sizes=[4], trials=1, master_seed=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario="qc_gap", sizes=[], trials=1, master_seed=0)
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"scenario": "qc_gap", "sizes": [4],
                                    "trials": 1, "master_seed": 0, "oops": 1})


def test_config_round_trip_merges_defaults():
    cfg = ExperimentConfig(scenario="qc_gap", sizes=[8], trials=3, master_seed=1)
    assert cfg.thresholds["freq_min"] == 0.9
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


def test_concentration_test_bounds_are_probabilities():
    assert 0.0 <= levy_bound(1.0, 3) <= 1.0
    assert 0.0 <= gaussian_row_bound(0.2, 10) <= 1.0
    assert 0.0 <= gaussian_max_row_bound(0.2, 5, 10) <= 1.0
    with pytest.raises(ValidationError):
        levy_bound(2.0, 3)
    with pytest.raises(ValidationError):
        gaussian_row_bound(1.5, 3)


def test_monte_carlo_se_guard():
    assert monte_carlo_se(0.0, 100) == 1 / 100
    assert monte_carlo_se(0.5, 100) == pytest.approx(0.05)


def test_reports_are_bit_reproducible():
    cfg = small("qc_gap", sizes=[8], trials=6)
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    assert rep1.to_json() == rep2.to_json()
    # wall clock differs but is excluded from the canonical document
    assert rep1.wall_clock_s != 0.0


def test_threaded_run_matches_sequential():
    cfg = small("tau_approximation", trials=4)
    rep1 = run_experiment(cfg, threads=1)
    rep2 = run_experiment(cfg, threads=4)
    assert rep1.to_json() == rep2.to_json()


def test_summaries_recompute_from_records():
    cfg = small("orthogonal_norm_band", trials=20)
    rep = run_experiment(cfg)
    fresh = summarize_records(rep.trials)
    assert json.dumps(fresh, sort_keys=True) == json.dumps(rep.summaries,
                                                           sort_keys=True)


def test_trial_records_reproducible_individually():
    cfg = small("qc_gap", sizes=[8], trials=5)
    rep = run_experiment(cfg)
    from randcorr.norms import quantum_classical_gap
    from randcorr.sampling import SeedSpec, gaussian
    rec = rep.trials[3]
    n = rec.size["n"]
    seed = SeedSpec(cfg.master_seed, rec.trial_index)
    t = gaussian(n, n, seed) / math.sqrt(n)
    assert quantum_classical_gap(t, heuristic_restarts=50, seed=seed) == \
        rec.values["gap"]


# a few cheap trials per scenario, each with more than one size
SMALL = {
    "orthogonal_norm_band": dict(sizes=[4, 6], trials=2),
    "quantum_norm_convergence": dict(sizes=[6, 10], trials=2),
    "qc_gap": dict(sizes=[6], trials=2),
    "nonlocality_sweep": dict(sizes=[6], trials=1),
    "mean_width": dict(sizes=[6, 8], trials=2),
    "levy_tails": dict(sizes=[5, 7], params={"thetas": [1.0, 1.3], "draws": 2000}),
    "gaussian_row_concentration": dict(
        params={"cases": [[50, 0.3], [20, 0.4]], "draws": 2000}),
    "tau_approximation": dict(sizes=[6], trials=2, params={"m_values": [20, 40]}),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_single_trial_rebuilds_report_records(scenario):
    cfg = small(scenario, **SMALL[scenario])
    rep = run_experiment(cfg)
    sizes = grid(cfg)
    assert [t.size for t in rep.trials] == sizes
    for i in (0, len(sizes) - 1):
        assert run_trial(cfg, i, sizes[i]) == rep.trials[i]


def test_csv_export_shape():
    cfg = small("tau_approximation", trials=3)
    rep = run_experiment(cfg)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0].startswith("trial_index,stream_seed,size_n,size_m")
    assert len(lines) == 1 + len(rep.trials)


def test_orthogonal_band_scenario_passes():
    rep = run_experiment(small("orthogonal_norm_band", trials=40))
    assert rep.passed()


def test_qc_gap_scenario_and_control():
    rep = run_experiment(small("qc_gap", sizes=[12], trials=25))
    names = [v.name for v in rep.verdicts]
    assert "all_ones_control" in names
    assert rep.passed()


def test_quantum_norm_convergence_known_finite_size_failure():
    # with the rescaled gamma2 upper bound both verdicts pass on a few trials:
    # the median bracket ratio decreases with n and, at n=400, lies between
    # 1 (it is upper over lower) and the default 1.05 cap
    cfg = small("quantum_norm_convergence", trials=6)
    rep = run_experiment(cfg)
    by_name = {v.name: v for v in rep.verdicts}
    assert by_name["median_ratio_decreasing"].passed
    assert by_name["median_ratio_n400"].passed
    assert 1.0 <= by_name["median_ratio_n400"].value <= 1.05


def test_quantum_norm_convergence_flatness_precondition():
    spiky = [1.0] + [0.0] * 7
    cfg = small("quantum_norm_convergence", sizes=[8], trials=2,
                params={"ensemble": "bi_invariant", "spectrum": spiky})
    with pytest.raises(ValidationError):
        run_experiment(cfg)


def test_quantum_norm_convergence_one_svd_per_trial(monkeypatch):
    # each trial takes one SVD for the flatness precondition and the bracket,
    # and reports what flatness_ratio and gamma2_bracket give on its matrix
    import randcorr.experiments as experiments_mod
    import randcorr.linalg as linalg_mod
    from randcorr.linalg import flatness_ratio
    from randcorr.norms import gamma2_bracket
    matrices = []
    real_svd = experiments_mod.svd

    def recording_svd(m):
        matrices.append(m.copy())
        return real_svd(m)

    monkeypatch.setattr(experiments_mod, "svd", recording_svd)
    monkeypatch.setattr(linalg_mod, "singular_values", None)  # no values-only SVD
    rep = run_experiment(small("quantum_norm_convergence", sizes=[6, 10], trials=3))
    monkeypatch.undo()
    assert len(matrices) == len(rep.trials) == 6
    for t, trial in zip(matrices, rep.trials):
        assert trial.values["flatness"] == pytest.approx(flatness_ratio(t), rel=1e-13)
        assert trial.values["bracket_ratio"] == gamma2_bracket(t).ratio()


def test_nonlocality_sweep_controls():
    cfg = small("nonlocality_sweep", trials=15)
    rep = run_experiment(cfg)
    by_name = {v.name: v for v in rep.verdicts}
    assert by_name["local_control_alpha4"].passed
    freqs = {}
    for summary in rep.summaries:
        if summary["stat"] == "certificate_event":
            freqs[summary["size"]["alpha"]] = summary["mean"]
    assert freqs[4.0] <= 0.1
    assert freqs[0.125] > freqs[1.0]


def test_nonlocality_sweep_judges_the_first_size():
    # the grid rounds alpha * n to m per size, so alpha = 0.125 is m = 1 at
    # n = 8 and m = 2 (alpha 1/6) at n = 12: the verdicts read the n = 8 trials
    from randcorr.verify import verify_report
    rep = run_experiment(small("nonlocality_sweep", sizes=[8, 12], trials=2))
    lo, hi, transition = rep.verdicts
    assert (lo.name, hi.name) == ("nonlocal_frequency_alpha0.125", "local_control_alpha4")
    rates = {s["size"]["alpha"]: s["mean"] for s in rep.summaries
             if s["stat"] == "certificate_event" and s["size"]["n"] == 8}
    assert (lo.value, hi.value) == (rates[0.125], rates[4.0])
    assert transition.value in rates
    assert verify_report(rep.to_dict()) == []


def test_alpha0_is_the_computed_threshold():
    # the sweep's informational threshold is stored as a constant, so that
    # building its verdicts costs no density inversion
    from randcorr.experiments import ALPHA0, SQRT_16_15
    from randcorr.spectral import alpha_threshold
    tol = 1e-4
    assert abs(ALPHA0 - alpha_threshold(SQRT_16_15, tol=tol)) <= tol


def test_mean_width_one_svd_per_trial(monkeypatch):
    # each trial takes one SVD of its matrix for the trace norm and the
    # functional, and no values-only SVD (so no trace_norm)
    import randcorr.experiments as experiments_mod
    import randcorr.linalg as linalg_mod
    import randcorr.norms as norms_mod
    from randcorr.linalg import trace_norm
    from randcorr.norms import bell_functional_from_svd, gap_from_bell
    from randcorr.sampling import SeedSpec
    matrices = []
    real_svd = linalg_mod.svd

    def recording_svd(m):
        matrices.append(m.copy())
        return real_svd(m)

    monkeypatch.setattr(experiments_mod, "svd", recording_svd)
    monkeypatch.setattr(norms_mod, "svd", recording_svd)
    monkeypatch.setattr(linalg_mod, "singular_values", None)  # no values-only SVD
    cfg = small("mean_width", sizes=[8, 30], trials=2)
    rep = run_experiment(cfg)
    monkeypatch.undo()
    assert len(matrices) == len(rep.trials) == 4
    for g, trial in zip(matrices, rep.trials):
        n = trial.size["n"]
        bell = bell_functional_from_svd(g, seed=SeedSpec(cfg.master_seed, trial.trial_index))
        assert trial.values["quantum_width_scaled"] == pytest.approx(
            trace_norm(g) / n ** 1.5, rel=1e-12)
        assert trial.values["classical_width_scaled"] == \
            gap_from_bell(g, bell, 1.0) / math.sqrt(n)


def test_mean_width_scenario():
    rep = run_experiment(small("mean_width", trials=12))
    by_name = {v.name: v for v in rep.verdicts}
    assert by_name["quantum_width_constant"].passed
    assert by_name["width_ratio"].passed


def test_levy_tails_monotone_in_theta():
    cfg = small("levy_tails", sizes=[20],
                params={"thetas": [1.0, 1.2, 1.4], "draws": 20_000})
    rep = run_experiment(cfg)
    excs = [t.values["exceedance"] for t in rep.trials]
    assert excs[0] <= excs[1] <= excs[2]
    assert rep.passed()


def test_levy_theta_near_right_angle_trivial():
    cfg = small("levy_tails", sizes=[10],
                params={"thetas": [math.pi / 2 - 1e-6], "draws": 5_000})
    rep = run_experiment(cfg)
    assert rep.trials[0].values["bound"] == pytest.approx(0.5, abs=1e-4)
    assert rep.passed()


def test_levy_tails_bound_uses_configured_theta():
    # the size shows theta rounded to 10 digits; the bound does not round
    cfg = small("levy_tails", sizes=[20],
                params={"thetas": [math.pi / 3], "draws": 2000})
    rec = run_experiment(cfg).trials[0]
    assert rec.size["theta"] == round(math.pi / 3, 10)
    assert rec.values["bound"] == levy_bound(math.pi / 3, 20)
    assert rec.values["bound"] != levy_bound(round(math.pi / 3, 10), 20)


def test_orthogonal_band_size_check_runs_no_trial(monkeypatch):
    import randcorr.experiments as experiments_mod
    drawn = []
    monkeypatch.setattr(experiments_mod, "haar_orthogonal",
                        lambda n, seed: drawn.append(n))
    with pytest.raises(ValidationError):
        run_experiment(small("orthogonal_norm_band", sizes=[4, 30], trials=1))
    assert drawn == []


def test_gaussian_row_concentration_scenario():
    cfg = small("gaussian_row_concentration",
                params={"cases": [[400, 0.2], [100, 0.3]], "draws": 20_000})
    rep = run_experiment(cfg)
    assert rep.passed()
    rec = rep.trials[0]
    # union-bound consistency between the two tracked frequencies
    assert rec.values["max_row_exceedance"] <= \
        rec.size["n"] * 2 * max(rec.values["one_row_exceedance"], 1e-12) + 0.05


def test_tau_approximation_scenario():
    rep = run_experiment(small("tau_approximation", trials=8))
    assert rep.passed()
    by_name = {v.name: v for v in rep.verdicts}
    assert by_name["bound_decreasing_in_m"].passed


def test_summarize_records_quantiles():
    records = [TrialRecord(i, 0, {"n": 1}, {"x": float(i)}) for i in range(101)]
    out = summarize_records(records)
    assert out[0]["q05"] == pytest.approx(5.0)
    assert out[0]["q95"] == pytest.approx(95.0)
    assert out[0]["q50"] == pytest.approx(50.0)
