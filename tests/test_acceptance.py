"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line with the measured values before
asserting, so a full run documents the numeric outcome of every criterion.
"""
import functools
import math
import time

import numpy as np

from randcorr.cli import main
from randcorr.experiments import default_config, run_experiment
from randcorr.linalg import operator_norm, trace_norm, write_matrix_csv
from randcorr.norms import (classical_lower_bound, classical_upper_bound,
                            gamma2_bracket, infty_to_one_exact,
                            infty_to_one_heuristic, BellFunctional, SignPair)
from randcorr.sampling import SeedSpec, bi_invariant, gaussian
from randcorr.spectral import (alpha_threshold, c_alpha, density,
                               empirical_spectrum, ks_distance)

from psd_completion_reference import gamma2_psd_completion

CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_1_threshold_reproduction():
    start = time.perf_counter()
    a0 = alpha_threshold(math.sqrt(16 / 15))
    elapsed = time.perf_counter() - start
    ok = abs(a0 - 0.1269) <= 0.001 and elapsed < 10.0
    assert report(1, ok, f"alpha0={a0:.5f} (target 0.1269 +- 0.001), "
                         f"{elapsed:.1f}s (< 10 s)")


@functools.cache
def _quantum_norm_convergence_run():
    # both halves of criterion 2 read the same default run: (report, seconds)
    start = time.perf_counter()
    rep = run_experiment(default_config("quantum_norm_convergence"))
    return rep, time.perf_counter() - start


def test_criterion_2_quantum_norm_convergence_monotone():
    rep, elapsed = _quantum_norm_convergence_run()
    medians = {s["size"]["n"]: s["q50"] for s in rep.summaries
               if s["stat"] == "bracket_ratio"}
    seq = [medians[n] for n in (50, 100, 200, 400)]
    ok = all(a > b for a, b in zip(seq, seq[1:])) and elapsed < 120.0
    assert report("2 (monotone part)", ok,
                  f"median ratios {[round(x, 4) for x in seq]} strictly "
                  f"decreasing across n=50..400, {elapsed:.0f}s (< 2 min)")


def test_criterion_2_quantum_norm_convergence_cap():
    # gamma2(t) / (||t||_tr / n) -> 1 for flat ensembles; the bracket's upper
    # end is the diagonally rescaled factorization, which stops within a small
    # tolerance of a lower bound on gamma2, so the median ratio at n=400 must
    # sit under the stated 1.05 cap.
    rep, _ = _quantum_norm_convergence_run()
    med400 = next(s["q50"] for s in rep.summaries
                  if s["stat"] == "bracket_ratio" and s["size"]["n"] == 400)
    ok = med400 <= 1.05
    assert report("2 (cap part)", ok,
                  f"median bracket ratio at n=400 is {med400:.4f}, "
                  f"stated cap 1.05"), \
        (f"median gamma2 bracket ratio at n=400 = {med400:.4f} > 1.05: the "
         f"certified upper bound is not tracking gamma2 to within the cap")


def test_criterion_3_gaussian_constants():
    tn, on = [], []
    for t in range(20):
        g = gaussian(300, 300, SeedSpec(300, t)) / math.sqrt(300)
        tn.append(trace_norm(g) / 300)
        on.append(operator_norm(g))
    tn_mean, on_mean = float(np.mean(tn)), float(np.mean(on))
    ok = (abs(tn_mean - 8 / (3 * math.pi)) <= 0.02
          and abs(on_mean - 2.0) <= 0.1)
    assert report(3, ok, f"trace/n={tn_mean:.4f} (0.8488 +- 0.02), "
                         f"operator={on_mean:.4f} (2 +- 0.1), 20 trials at n=300")


def test_criterion_4_orthogonal_norm_band():
    start = time.perf_counter()
    cfg = default_config("orthogonal_norm_band")
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    freq = next(s["mean"] for s in rep.summaries if s["stat"] == "in_band_event")
    ok = freq >= 0.95 and elapsed < 300.0
    assert report(4, ok, f"{freq:.3f} of 200 draws inside [0.748, 1.018] at "
                         f"n=16 (>= 0.95), {elapsed:.0f}s (< 5 min)")


def test_criterion_5_gap_certification():
    cfg = default_config("qc_gap")
    rep = run_experiment(cfg)
    freq = next(s["mean"] for s in rep.summaries
                if s["stat"] == "gap_gt_1_event" and "control" not in s["size"])
    control = next(t.values["gap"] for t in rep.trials
                   if t.size.get("control") == "all_ones")
    ok = freq >= 0.9 and control <= 1.0 + 1e-9
    assert report(5, ok, f"gap>1 frequency {freq:.3f} over 200 Gaussian trials "
                         f"at n=20 (>= 0.9); all-ones control gap {control:.6f} (<= 1)")


def test_criterion_6_mean_width_constants():
    cfg = default_config("mean_width")
    rep = run_experiment(cfg)
    by_name = {v.name: v for v in rep.verdicts}
    q = by_name["quantum_width_constant"]
    ratio = by_name["width_ratio"]
    ok = q.passed and ratio.passed and by_name["classical_width_constant"].passed
    assert report(6, ok, f"quantum width constant {q.value:.4f} "
                         f"(0.8488 +- 0.02); classical/quantum ratio "
                         f"{ratio.value:.4f} (>= 1.02); n=200, 50 trials")


def test_criterion_7_spectral_law_oracle_equivalence():
    law = density(0.5)
    emp = empirical_spectrum(400, 200, SeedSpec(700, 0))
    ks = ks_distance(emp, law)
    mc = np.mean([np.sqrt(empirical_spectrum(500, 500, SeedSpec(701, t))
                          .eigenvalues).mean() for t in range(20)])
    c1 = c_alpha(1.0)
    ok = ks <= 0.05 and abs(c1 - mc) <= 0.01
    assert report(7, ok, f"KS(n=400, m=200)={ks:.4f} (<= 0.05); "
                         f"C_1={c1:.5f} vs Monte Carlo {mc:.5f} (within 0.01)")


def test_criterion_8_tail_bound_soundness():
    levy = run_experiment(default_config("levy_tails"))
    rows = run_experiment(default_config("gaussian_row_concentration"))
    ok = levy.passed() and rows.passed()
    points = [f"{v.name}:{'ok' if v.passed else 'EXCEEDED'}"
              for v in levy.verdicts + rows.verdicts]
    assert report(8, ok, "empirical exceedance <= bound + 3 s.e. at every "
                         "grid point, 1e5 draws each: " + ", ".join(points))


def test_criterion_9_oracle_equivalence_suite():
    agree = 0
    for t in range(500):
        g = gaussian(10, 10, SeedSpec(900, t))
        exact, _ = infty_to_one_exact(g)
        heur, _ = infty_to_one_heuristic(g, 50, SeedSpec(901, t))
        agree += abs(exact - heur) <= 1e-9 * max(1.0, exact)
    rate = agree / 500

    inside = 0
    for t in range(100):
        spectrum = SeedSpec(902, 2 * t).generator().uniform(0.2, 2.0, 8)
        mat = bi_invariant(spectrum, SeedSpec(902, 2 * t + 1))
        bracket = gamma2_bracket(mat)
        val = gamma2_psd_completion(mat, tol=1e-4)
        inside += (bracket.lower - 1e-6 <= val <= bracket.upper + 1e-6)

    lower = classical_lower_bound(
        CHSH, BellFunctional(a=CHSH, eps_one_norm=2.0,
                             attaining=SignPair(np.ones(2), np.ones(2))))
    upper = classical_upper_bound(CHSH).upper_certificate.weight_sum()
    pinned = abs(lower - 2.0) <= 1e-6 and abs(upper - 2.0) <= 1e-6

    ok = rate >= 0.99 and inside == 100 and pinned
    assert report(9, ok, f"heuristic agreement {rate:.3f} (>= 0.99); oracle "
                         f"inside bracket {inside}/100; CHSH projective norm "
                         f"pinned to [{lower:.8f}, {upper:.8f}] (2 +- 1e-6)")


def test_criterion_10_determinism_and_certificates(tmp_path):
    cfg = default_config("tau_approximation")
    cfg.trials = 5
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    bit_exact = r1.to_json() == r2.to_json()

    verified = []
    exp_out = str(tmp_path / "exp.json")
    assert main(["experiment", "--scenario", "tau_approximation", "--trials",
                 "4", "--seed", "5", "--out", exp_out]) == 0
    verified.append(main(["verify-certificate", exp_out]) == 0)

    mat = gaussian(6, 6, SeedSpec(1000, 0)) / math.sqrt(6)
    mpath = str(tmp_path / "m.csv")
    write_matrix_csv(mpath, mat)
    for sub in ("gap", "gamma2", "classical", "norm"):
        out = str(tmp_path / f"{sub}.json")
        assert main([sub, "--matrix", mpath, "--out", out]) == 0
        verified.append(main(["verify-certificate", out]) == 0)

    ok = bit_exact and all(verified)
    assert report(10, ok, f"same-seed re-run bit-exact: {bit_exact}; "
                          f"certificate verification on {len(verified)} emitted "
                          f"reports: {sum(verified)}/{len(verified)}")
