"""Correctness checks for the benchmark's outputs.

Each check compares a program output against a computation made here,
apart from the program (own sign enumeration, own LP, own SVD-based
factorization, own regeneration of seeded matrices), or against a property
the method must have.  Checks return a list of failure messages; an empty
list means the output passed.  They run outside the timed region.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

ALPHA0 = 0.1269          # the paper's non-locality threshold for sqrt(16/15)
ALPHA0_TOL = 1e-3
CONVERGENCE_CAP = 1.05   # acceptance criterion 2: median gamma2 ratio at the largest n
REL_TOL = 1e-9
LP_REL_TOL = 1e-7        # HiGHS feasibility/optimality tolerances are ~1e-9 absolute


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def regenerate_gaussian(stream_seed: int, n: int) -> np.ndarray:
    """The n x n standard normal draw of one trial, rebuilt from the trial's
    recorded Philox stream seed and scaled by 1/sqrt(n)."""
    gen = np.random.Generator(np.random.Philox(key=int(stream_seed)))
    return gen.standard_normal((n, n)) / math.sqrt(n)


def sign_rows(count: int) -> np.ndarray:
    """All 2^count vectors in {+-1}^count, one per row."""
    idx = np.arange(1 << count)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(count)) & 1)


def infty_to_one(a: np.ndarray, low_bits: int = 10) -> float:
    """max over sign vectors alpha, beta of alpha^t a beta, by enumeration.

    Fixes alpha_0 = +1 and splits the other n - 1 signs into a low and a
    high half: every alpha^t a is a row of the high-half partial sums plus
    a row of the low-half partial sums, and beta = sign(a^t alpha) turns
    the value into the 1-norm of that sum.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    k = min(low_bits, n - 1)
    low = sign_rows(k) @ a[1:1 + k]
    high = a[0] + sign_rows(n - 1 - k) @ a[1 + k:]
    best = -np.inf
    chunk = max(1, (1 << 16) >> k)
    for start in range(0, len(high), chunk):
        vals = np.abs(high[start:start + chunk, None, :] + low[None]).sum(axis=2)
        best = max(best, float(vals.max()))
    return best


def bell_norm_and_gap(t: np.ndarray) -> tuple[float, float]:
    """||UV^t||_{inf->1} for the Bell functional UV^t from numpy's SVD of t,
    and the gap <t, UV^t> / ||UV^t||_{inf->1} over ||t||_tr / n."""
    n = t.shape[0]
    u, s, vt = np.linalg.svd(t)
    a = u @ vt
    norm = infty_to_one(a)
    return norm, float((t * a).sum()) / norm / (s.sum() / n)


def plain_factorization_ratio(t: np.ndarray) -> float:
    """gamma2 upper bound of the plain factorization U sqrt(S) . sqrt(S) V^t
    over ||t||_tr / n."""
    n = t.shape[0]
    u, s, vt = np.linalg.svd(t)
    root = np.sqrt(s)
    x, y = u * root, root[:, None] * vt
    upper = math.sqrt((x * x).sum(axis=1).max()) * math.sqrt((y * y).sum(axis=0).max())
    return upper / (s.sum() / n)


def projective_norm(t: np.ndarray) -> float:
    """Projective norm of t: the full LP over all 2^(2n-1) sign atoms, in
    its dual form.

    min sum w s.t. sum_k w_k alpha_k beta_k^t = t, w >= 0 has the dual
    max <t, y> s.t. alpha^t y beta <= 1 for all sign pairs.  For fixed alpha
    the largest alpha^t y beta is ||y^t alpha||_1, so the constraints become
    s_aj >= |(y^t alpha_a)_j|, sum_j s_aj <= 1 over the 2^(n-1) alpha with
    alpha_0 = +1: 2^n n + 2^(n-1) rows instead of 2^(2n-1) columns.
    """
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    alphas = np.hstack([np.ones((1 << (n - 1), 1)), sign_rows(n - 1)])
    m = len(alphas)
    ny, ns = n * n, m * n
    # row (a, j) of alpha_a^t y with y flattened row-major: coefficient
    # alpha_a[i] on y[i, j]
    ay = sparse.csr_matrix(
        np.einsum("ai,jk->ajik", alphas, np.eye(n)).reshape(ns, ny))
    eye_s = sparse.identity(ns, format="csr")
    row_sums = sparse.kron(sparse.identity(m), np.ones((1, n)))
    a_ub = sparse.vstack([
        sparse.hstack([ay, -eye_s]),
        sparse.hstack([-ay, -eye_s]),
        sparse.hstack([sparse.csr_matrix((m, ny)), row_sums]),
    ], format="csr")
    b_ub = np.concatenate([np.zeros(2 * ns), np.ones(m)])
    cost = np.concatenate([-t.ravel(), np.zeros(ns)])
    bounds = [(None, None)] * ny + [(0, None)] * ns
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


# --- per-workload checks -------------------------------------------------------

def check_qc_gap(reports: list[dict], n: int) -> list[str]:
    """qc_gap reports (as dicts): every verdict passes, the all-ones control
    shows no gap, and every Gaussian trial's gap matches a recomputation
    from the regenerated matrix with this module's own enumeration."""
    failures = []
    for rep in reports:
        seed = rep["config"]["master_seed"]
        for v in rep["verdicts"]:
            if not v["passed"]:
                failures.append(f"qc_gap seed {seed}: verdict {v['name']} failed")
        for trial in rep["trials"]:
            gap = trial["values"]["gap"]
            if trial["size"].get("control") == "all_ones":
                if not gap <= 1.0 + 1e-9:
                    failures.append(f"qc_gap seed {seed}: all-ones control gap {gap}")
                continue
            _, want = bell_norm_and_gap(regenerate_gaussian(trial["stream_seed"], n))
            if not _close(gap, want):
                failures.append(f"qc_gap seed {seed} trial {trial['trial_index']}: "
                                f"gap {gap!r} != recomputed {want!r}")
    return failures


def check_gamma2_convergence(reports: list[dict]) -> list[str]:
    """quantum_norm_convergence reports: every ratio lies in
    [1, plain-factorization ratio], and the median ratio at the largest
    size is within the paper's convergence cap."""
    failures = []
    by_n: dict[int, list[float]] = {}
    for rep in reports:
        seed = rep["config"]["master_seed"]
        for trial in rep["trials"]:
            n = int(trial["size"]["n"])
            ratio = trial["values"]["bracket_ratio"]
            by_n.setdefault(n, []).append(ratio)
            plain = plain_factorization_ratio(regenerate_gaussian(trial["stream_seed"], n))
            if ratio < 1.0:
                failures.append(f"gamma2 seed {seed} n={n}: ratio {ratio!r} < 1")
            if ratio > plain * (1.0 + REL_TOL):
                failures.append(f"gamma2 seed {seed} n={n}: ratio {ratio!r} above "
                                f"the plain factorization's {plain!r}")
    if by_n:
        largest = max(by_n)
        median = float(np.median(by_n[largest]))
        if median > CONVERGENCE_CAP:
            failures.append(f"gamma2 median ratio {median!r} at n={largest} "
                            f"exceeds {CONVERGENCE_CAP}")
    return failures


def check_classical(report: dict, label: str, known: float | None = None) -> list[str]:
    """`randcorr classical` report: converged, lower <= upper, and upper
    equal to the full sign-atom LP (or to a known norm)."""
    res = report["results"]
    t = np.asarray(report["matrix"], dtype=float)
    failures = []
    if not (res["converged"] and res["certified"]):
        failures.append(f"{label}: column generation not converged/certified")
    if res["lower"] > res["upper"] * (1.0 + REL_TOL):
        failures.append(f"{label}: lower {res['lower']!r} > upper {res['upper']!r}")
    want = projective_norm(t) if known is None else known
    if not _close(res["upper"], want, LP_REL_TOL):
        failures.append(f"{label}: upper {res['upper']!r} != projective norm {want!r}")
    if known is not None and not _close(res["lower"], known):
        failures.append(f"{label}: lower {res['lower']!r} != known norm {known!r}")
    return failures


def check_gamma2(report: dict, label: str, known: float | None = None) -> list[str]:
    """`randcorr gamma2 --oracle` report: the oracle lies in the bracket,
    and the bracket closes on a known gamma2 when one is given."""
    res = report["results"]
    failures = []
    lo, hi, oracle = res["lower"], res["upper"], res["oracle"]
    if not lo * (1.0 - REL_TOL) <= oracle <= hi * (1.0 + REL_TOL):
        failures.append(f"{label}: oracle {oracle!r} outside [{lo!r}, {hi!r}]")
    if known is not None and not (_close(lo, known) and _close(hi, known)):
        failures.append(f"{label}: bracket [{lo!r}, {hi!r}] != [{known!r}, {known!r}]")
    return failures


def check_gap(report: dict, label: str) -> list[str]:
    """`randcorr gap` report: Bell norm and gap equal this module's own."""
    res = report["results"]
    t = np.asarray(report["matrix"], dtype=float)
    norm, want = bell_norm_and_gap(t)
    failures = []
    if not _close(res["bell_norm"], norm):
        failures.append(f"{label}: Bell norm {res['bell_norm']!r} != enumerated {norm!r}")
    if not _close(res["gap"], want):
        failures.append(f"{label}: gap {res['gap']!r} != recomputed {want!r}")
    return failures


def check_threshold(report: dict, label: str) -> list[str]:
    value = report["results"]["alpha0"]
    if abs(value - ALPHA0) > ALPHA0_TOL:
        return [f"{label}: alpha0 {value!r} not within {ALPHA0_TOL} of {ALPHA0}"]
    return []


def check_verified(stdout: str, label: str) -> list[str]:
    """verify-certificate exited 0 (else the request failed) and said so."""
    if "all certificates verified" not in stdout:
        return [f"{label}: {stdout.strip()!r}"]
    return []
