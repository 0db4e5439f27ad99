"""Each benchmark check passes on the program's real output and fails on a
wrong one, and the independent references agree with brute force.

    python3 -m pytest perfbench/test_checks.py
"""
import contextlib
import copy
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from randcorr import cli  # noqa: E402
from randcorr.experiments import ExperimentConfig, run_experiment  # noqa: E402
from randcorr.sampling import SeedSpec, gaussian  # noqa: E402

import checks  # noqa: E402
from workloads import write_csv  # noqa: E402


def brute_infty_to_one(a):
    n = a.shape[0]
    signs = [np.array(s) for s in itertools.product((-1.0, 1.0), repeat=n)]
    return max(float(x @ a @ y) for x in signs for y in signs)


def full_atom_lp(t):
    """The projective-norm LP written over all 2^(2n-1) sign-atom columns."""
    n = t.shape[0]
    alphas = np.hstack([np.ones((1 << (n - 1), 1)), checks.sign_rows(n - 1)])
    atoms = np.einsum("ai,bj->ijab", alphas, checks.sign_rows(n)).reshape(n * n, -1)
    res = linprog(np.ones(atoms.shape[1]), A_eq=atoms, b_eq=t.ravel(),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def cli_report(tmp_path, argv, matrix=None):
    if matrix is not None:
        write_csv(str(tmp_path / "m.csv"), matrix)
        argv = argv + ["--matrix", str(tmp_path / "m.csv")]
    out = str(tmp_path / "r.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", out]) == 0
    with open(out) as fh:
        return json.load(fh)


# --- references ------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_infty_to_one_matches_brute_force(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    assert checks.infty_to_one(a, low_bits=2) == pytest.approx(brute_infty_to_one(a), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_projective_norm_dual_matches_full_atom_lp(n):
    t = np.random.default_rng(10 + n).standard_normal((n, n))
    assert checks.projective_norm(t) == pytest.approx(full_atom_lp(t), rel=1e-9)


def test_projective_norm_known_values():
    assert checks.projective_norm(np.array([[1.0, 1.0], [1.0, -1.0]])) == pytest.approx(2.0)
    # I = E[alpha alpha^t] over uniform sign vectors alpha
    assert checks.projective_norm(np.eye(3)) == pytest.approx(1.0)


def test_regenerated_gaussian_is_the_programs_draw():
    seed = SeedSpec(123, 4)
    want = gaussian(7, 7, seed) / math.sqrt(7)
    assert np.array_equal(checks.regenerate_gaussian(seed.stream_seed(), 7), want)


# --- each check fails on a wrong answer --------------------------------------------

def test_qc_gap_check():
    n = 6
    rep = run_experiment(ExperimentConfig(scenario="qc_gap", sizes=[n], trials=3,
                                          master_seed=5)).to_dict()
    assert checks.check_qc_gap([rep], n) == []
    bad = copy.deepcopy(rep)
    bad["trials"][1]["values"]["gap"] *= 1.0 + 1e-6
    assert checks.check_qc_gap([bad], n)
    bad = copy.deepcopy(rep)
    bad["trials"][-1]["values"]["gap"] = 1.0 + 1e-6   # the all-ones control
    assert checks.check_qc_gap([bad], n)
    bad = copy.deepcopy(rep)
    bad["verdicts"][0]["passed"] = False
    assert checks.check_qc_gap([bad], n)
    bad = copy.deepcopy(rep)
    bad["trials"][0]["stream_seed"] += 1                # a different matrix
    assert checks.check_qc_gap([bad], n)


def test_gamma2_convergence_check():
    rep = run_experiment(ExperimentConfig(scenario="quantum_norm_convergence",
                                          sizes=[50, 100], trials=2,
                                          master_seed=5)).to_dict()
    assert checks.check_gamma2_convergence([rep]) == []
    bad = copy.deepcopy(rep)
    bad["trials"][0]["values"]["bracket_ratio"] = 1.0 - 1e-9
    assert checks.check_gamma2_convergence([bad])
    bad = copy.deepcopy(rep)
    trial = bad["trials"][0]
    plain = checks.plain_factorization_ratio(
        checks.regenerate_gaussian(trial["stream_seed"], trial["size"]["n"]))
    trial["values"]["bracket_ratio"] = plain * (1.0 + 1e-6)
    assert checks.check_gamma2_convergence([bad])
    bad = copy.deepcopy(rep)
    for trial in bad["trials"]:
        if trial["size"]["n"] == 100:
            trial["values"]["bracket_ratio"] = 1.06
    assert checks.check_gamma2_convergence([bad])


def test_classical_check(tmp_path):
    t = gaussian(4, 4, SeedSpec(9, 0)) / 2.0
    rep = cli_report(tmp_path, ["classical"], t)
    assert checks.check_classical(rep, "g4") == []
    bad = copy.deepcopy(rep)
    bad["results"]["upper"] *= 1.0 + 1e-6
    assert checks.check_classical(bad, "g4")
    bad = copy.deepcopy(rep)
    bad["results"]["lower"] = bad["results"]["upper"] * 1.001
    assert checks.check_classical(bad, "g4")
    bad = copy.deepcopy(rep)
    bad["results"]["converged"] = False
    assert checks.check_classical(bad, "g4")
    bad = copy.deepcopy(rep)
    bad["matrix"][0][0] = -bad["matrix"][0][0]          # a flipped sign
    assert checks.check_classical(bad, "g4")

    chsh = cli_report(tmp_path, ["classical"], np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert checks.check_classical(chsh, "chsh", 2.0) == []
    bad = copy.deepcopy(chsh)
    bad["results"]["lower"] = 1.9
    assert checks.check_classical(bad, "chsh", 2.0)


def test_gamma2_check(tmp_path):
    h = np.ones((1, 1))
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    rep = cli_report(tmp_path, ["gamma2", "--oracle"], h)
    assert checks.check_gamma2(rep, "h8", math.sqrt(8.0)) == []
    bad = copy.deepcopy(rep)
    bad["results"]["upper"] *= 1.0 + 1e-6
    assert checks.check_gamma2(bad, "h8", math.sqrt(8.0))
    bad = copy.deepcopy(rep)
    bad["results"]["oracle"] *= 1.0 + 1e-6
    assert checks.check_gamma2(bad, "h8", math.sqrt(8.0))

    g = cli_report(tmp_path, ["gamma2", "--oracle"], gaussian(6, 6, SeedSpec(2, 0)))
    assert checks.check_gamma2(g, "g6") == []
    bad = copy.deepcopy(g)
    bad["results"]["oracle"] = bad["results"]["lower"] * (1.0 - 1e-6)
    assert checks.check_gamma2(bad, "g6")


def test_gap_check(tmp_path):
    rep = cli_report(tmp_path, ["gap"], gaussian(7, 7, SeedSpec(4, 0)) / math.sqrt(7))
    assert checks.check_gap(rep, "g7") == []
    bad = copy.deepcopy(rep)
    bad["results"]["bell_norm"] *= 1.0 + 1e-6
    assert checks.check_gap(bad, "g7")
    bad = copy.deepcopy(rep)
    bad["results"]["gap"] *= 1.0 - 1e-6
    assert checks.check_gap(bad, "g7")
    bad = copy.deepcopy(rep)
    bad["matrix"][2][3] = -bad["matrix"][2][3]          # a flipped sign
    assert checks.check_gap(bad, "g7")


def test_threshold_check():
    assert checks.check_threshold({"results": {"alpha0": 0.12695}}, "t") == []
    assert checks.check_threshold({"results": {"alpha0": 0.1281}}, "t")
    assert checks.check_threshold({"results": {"alpha0": 0.1258}}, "t")


def test_verified_check(tmp_path):
    cli_report(tmp_path, ["classical"], gaussian(4, 4, SeedSpec(3, 0)))
    report = str(tmp_path / "r.json")

    def verify_stdout():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli.main(["verify-certificate", report])
        return stdout.getvalue()

    assert checks.check_verified(verify_stdout(), "v") == []
    with open(report) as fh:
        doc = json.load(fh)
    doc["certificates"][1]["certificate"]["atoms"][0]["beta"][0] *= -1   # a flipped sign
    with open(report, "w") as fh:
        json.dump(doc, fh)
    assert checks.check_verified(verify_stdout(), "v")
