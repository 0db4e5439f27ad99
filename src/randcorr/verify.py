"""Re-check a report: rebuild what it claims from its own contents, then
compare the stored report with the rebuild as a whole.

A single-matrix report's certificates are re-evaluated against its embedded
matrix. Each certificate's claim fixes the payload class; the payload must
round-trip through that class's from_dict/to_dict unchanged, with what
the matrix fixes (a Bell functional's near_singular flag) rebuilt from it,
and the stored value must equal the re-evaluated one (a decomposition's is
its upper_bound: the weight sum plus the l1 mass of the matrix minus its
reconstruction). The report's `results` are rebuilt by report_results, the
function its command writes them with. An experiment report is rebuilt
from its config and its per-trial values, with trial i laid out as the
seeded trial at position i of the scenario's grid; no trial is re-run.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .experiments import (ExperimentConfig, ExperimentReport, TrialRecord, grid,
                          summarize_records, verdicts)
from .linalg import SPECTRAL_VALUES, as_matrix, operator_norm, svd
from .norms import (TOL_FACTOR_RESIDUAL, BellFunctional, ConvexDecomposition, DualWitness,
                    FactorizationPair, SignPair, _near_singular, classical_lower_bound,
                    gap_from_bell, infty_to_one_exact)
from .sampling import SeedSpec
from .spectral import BRENT_RTOL, density, ks_distance_of_draw, threshold_objective

_REL_TOL = 1e-12            # stored and rebuilt numbers agree to this, relative
_ORTHOGONALITY_TOL = 1e-6   # max ||a a^t - I||_F of a gamma2 dual witness
# what a malformed report (a missing key, a non-numeric entry) raises
_MALFORMED = (ValidationError, NumericalError, KeyError, TypeError, ValueError,
              AttributeError, IndexError)


def _agree(stored, fresh) -> bool:
    """Two unequal leaves still agree when both are numbers, one at least a
    float, and both NaN or both finite and within _REL_TOL relative."""
    if not (all(isinstance(x, (int, float)) for x in (stored, fresh))
            and (isinstance(stored, float) or isinstance(fresh, float))):
        return False
    a, b = float(stored), float(fresh)
    return (math.isnan(a) and math.isnan(b)) or (
        math.isfinite(a) and math.isfinite(b)
        and abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b)))


def _diff(stored, fresh, path: str = "") -> list[str]:
    """One line per place where `stored` differs from its rebuild `fresh`:
    objects need the same keys, lists the same length, and leaves must be
    equal or _agree. Equal subtrees are skipped at C speed."""
    if stored == fresh:
        return []
    if isinstance(stored, dict) and isinstance(fresh, dict):
        if stored.keys() != fresh.keys():
            return [f"{path or 'report'}: keys {sorted(stored.keys() - fresh.keys())} "
                    f"stored but not rebuilt, {sorted(fresh.keys() - stored.keys())} missing"]
        return [line for key in fresh
                for line in _diff(stored[key], fresh[key], f"{path}.{key}" if path else key)]
    if isinstance(stored, list) and isinstance(fresh, list):
        if len(stored) != len(fresh):
            return [f"{path}: {len(stored)} entries stored, {len(fresh)} rebuilt"]
        return [line for i, (a, b) in enumerate(zip(stored, fresh))
                for line in _diff(a, b, f"{path}[{i}]")]
    return [] if _agree(stored, fresh) else [
        f"{path}: {stored!r} stored, re-evaluates to {fresh!r}"]


# --- certificate re-evaluation, one function per claim ------------------------

def _witness_value(witness: DualWitness, t) -> float:
    n = witness.a.shape[0]
    if not np.linalg.norm(witness.a @ witness.a.T - np.eye(n)) <= _ORTHOGONALITY_TOL:
        raise ValidationError("witness not orthogonal")
    return witness.value(t)


def _factorization_value(pair: FactorizationPair, t) -> float:
    if not pair.residual(t) <= TOL_FACTOR_RESIDUAL:
        raise ValidationError("factorization does not reproduce the matrix")
    return pair.value()


def _decomposition_value(dec: ConvexDecomposition, t) -> float:
    """dec.upper_bound(t), the value the command stores. The bound holds
    only for nonnegative weights: a pair c * (alpha, beta) + c * (-alpha,
    beta) adds nothing to t and 2c to the weight sum."""
    if not (np.asarray(dec.weights, dtype=float) >= 0.0).all():
        raise ValidationError("decomposition weights must be nonnegative")
    return dec.upper_bound(t)


def _bell_norm(bell: BellFunctional, t) -> float:
    """The functional's inf->1 norm: enumerated when exact, else n ||a||_op
    (alpha^t a beta <= n ||a||_op for any a, orthogonal or not). The stored
    eps_one_norm must agree with it, the attaining pair must reach the
    value a gap divides by (the norm, or heuristic_lower above EXACT_CAP),
    and near_singular must be the flag the singular values of t give."""
    a = bell.a
    norm = infty_to_one_exact(a)[0] if bell.exact else a.shape[0] * operator_norm(a)
    reached = "eps_one_norm" if bell.exact else "heuristic_lower"
    problems = (_diff(bell.eps_one_norm, norm, "eps_one_norm")
                + _diff(getattr(bell, reached), bell.attaining.pairing(a),
                        f"{reached} (its attaining pair)")
                + _diff(bell.near_singular, _near_singular(svd(t).sigma), "near_singular"))
    if problems:
        raise ValidationError("; ".join(problems))
    return norm


def _classical_lower(bell: BellFunctional, t) -> float:
    _bell_norm(bell, t)
    return classical_lower_bound(t, bell)


# claim: (payload class, re-evaluation of the claimed value against t)
_CERTIFICATES = {
    "infty_to_one_lower": (SignPair, SignPair.pairing),
    "gamma2_lower": (DualWitness, _witness_value),
    "gamma2_upper": (FactorizationPair, _factorization_value),
    "classical_lower": (BellFunctional, _classical_lower),
    "classical_upper": (ConvexDecomposition, _decomposition_value),
    "bell_functional": (BellFunctional, _bell_norm),
}


def law_results(law, config: dict) -> dict:
    """A spectral report's results for `law`, the density at its config's
    alpha and grid: the law's numbers, and the ks_distance of the draw the
    config records (ks_n, ks_m, seed) when it records one."""
    results = {"support_upper": law.support_upper, "c_alpha": law.c_alpha,
               "atom_mass": law.atom_mass, "total_mass": law.total_mass(),
               "first_moment": law.first_moment()}
    if "ks_n" in config:
        results["ks_distance"] = ks_distance_of_draw(law, config["ks_n"], config["ks_m"],
                                                     config["seed"])
    return results


def report_results(kind: str, config: dict, matrix, values: dict, payloads: dict) -> dict:
    """The `results` of a report of `kind` that follow from its config, its
    matrix and its certificates' values and payloads (dicts keyed by claim):
    what the command writes, and what verify_report rebuilds. An entry that
    restates a claim is null without its certificate. The entries nothing
    here fixes are the command's to add (see _verify_single)."""
    if kind == "norm":
        which = config["which"]
        return {"value": SPECTRAL_VALUES[which](matrix) if which in SPECTRAL_VALUES
                else values.get("infty_to_one_lower")}
    if kind == "gamma2":
        return {"lower": values.get("gamma2_lower"), "upper": values.get("gamma2_upper")}
    if kind == "classical":
        # the bracket's closure to the run's tol is all the flags can claim
        lower, upper = values["classical_lower"], values["classical_upper"]
        closed = upper - lower <= config["tol"]
        return {"lower": lower, "upper": upper, "converged": closed, "certified": closed,
                "residual": payloads["classical_upper"].reconstruction_residual(matrix)}
    if kind == "gap":
        bell, lower = payloads["bell_functional"], values["gamma2_lower"]
        return {"gap": gap_from_bell(matrix, bell, lower), "bell_norm_exact": bell.exact,
                "bell_norm": values["bell_functional"], "gamma2_lower": lower,
                "gamma2_upper": values.get("gamma2_upper")}
    if kind == "spectral":
        return law_results(density(config["alpha"], config["grid_points"]), config)
    if kind == "threshold":
        return {}
    raise ValidationError(f"unknown report kind {kind!r}")


def _threshold_failures(config: dict, alpha0) -> list[str]:
    """alpha_threshold's objective must change sign across alpha0 -+ w,
    w = tol + BRENT_RTOL |alpha0|, the interval Brent's method puts the root
    in: two densities instead of the search's four."""
    width = config["tol"] + BRENT_RTOL * abs(alpha0)
    ends = [threshold_objective(config["gap_constant"], alpha0 + side * width)
            for side in (-1.0, 1.0)]
    if ends[0] >= 0.0 >= ends[1]:
        return []
    return [f"results.alpha0: {alpha0!r} stored, but gap C_alpha/sqrt(alpha) - 1 "
            f"is {ends[0]:.3g} and {ends[1]:.3g} at alpha0 -+ {width:.3g}, "
            "with no root between"]


def _oracle_failures(oracle, lower: float, upper: float) -> list[str]:
    """gamma2_oracle continues the bracket's rescaling run from the same SVD
    and returns the midpoint of its best lower and upper bounds, within
    tol / 2 of gamma2 when the run closes to `tol` and within half the
    width reached when it does not.  Both ends lie inside the bracket, so
    the value must lie in the re-evaluated [lower, upper], to _REL_TOL
    relative."""
    slack = _REL_TOL * max(1.0, abs(lower), abs(upper))
    if lower - slack <= float(oracle) <= upper + slack:
        return []
    return [f"results.oracle: {oracle!r} stored, outside the gamma2 bracket "
            f"[{lower!r}, {upper!r}] the oracle lies in"]


def _classical_bracket_failures(lower: float, upper: float) -> list[str]:
    """lower <= pi(t) <= upper, the decomposition's upper_bound, so a
    re-evaluated lower bound above the re-evaluated upper one by more than
    _REL_TOL relative means a false certificate."""
    if lower <= upper + _REL_TOL * max(1.0, abs(upper)):
        return []
    return [f"classical bracket: lower {lower!r} above upper {upper!r}"]


def _verify_single(doc: dict) -> list[str]:
    """Each certificate is re-evaluated and rebuilt, and `results` are
    rebuilt from the re-evaluated claims by report_results, the function the
    command writes them with. Only these entries are kept as stored, where
    report_results does not rebuild them: gamma2's oracle, which must lie in
    the re-evaluated bracket; threshold's alpha0, across which the objective
    must change sign (alpha0 -+ (tol + BRENT_RTOL alpha0)); and spectral's
    csv. Any other entry fails. A classical report's lower bound must also
    not exceed its upper one."""
    try:
        mat = as_matrix(doc["matrix"]) if "matrix" in doc else None
    except _MALFORMED as exc:
        return [f"matrix: not a finite numeric matrix: {exc}"]
    certs, results = doc.get("certificates", []), doc.get("results", {})
    if not isinstance(certs, list) or not isinstance(results, dict):
        return ["`certificates` must be a list and `results` an object"]
    failures, values, payloads = [], {}, {}
    for i, cert in enumerate(certs):
        claims = cert.get("claims") if isinstance(cert, dict) else None
        label = f"certificate {i} ({claims})"
        entry = _CERTIFICATES.get(claims) if isinstance(claims, str) else None
        if entry is None or not isinstance(cert.get("certificate"), dict):
            failures.append(f"{label}: needs a known `claims` name and a "
                            "`certificate` object")
            continue
        cls, evaluate = entry
        try:
            payload = cls.from_dict(cert["certificate"])
            value = evaluate(payload, mat)
        except _MALFORMED as exc:
            failures.append(f"{label}: re-evaluation failed: {exc}")
            continue
        values[claims], payloads[claims] = value, payload
        failures += _diff(cert, {"claims": claims, "value": value,
                                 "certificate": payload.to_dict()}, label)
    kind, config = doc.get("kind"), doc.get("config")
    stored = {"gamma2": ("oracle",), "threshold": ("alpha0",),
              "spectral": ("csv",)}.get(kind, ())
    try:
        fresh_results = report_results(kind, config, mat, values, payloads)
        fresh_results.update((key, results[key]) for key in stored
                             if key in results and key not in fresh_results)
        if kind == "threshold":
            failures += _threshold_failures(config, results["alpha0"])
        elif kind == "gamma2" and "oracle" in results and {
                "gamma2_lower", "gamma2_upper"} <= values.keys():
            failures += _oracle_failures(results["oracle"], values["gamma2_lower"],
                                         values["gamma2_upper"])
        elif kind == "classical":
            failures += _classical_bracket_failures(values["classical_lower"],
                                                    values["classical_upper"])
    except _MALFORMED as exc:
        failures.append(f"results: re-evaluation failed: {exc!r}")
        fresh_results = results
    fresh = {key: doc[key] for key in
             ("schema_version", "kind", "config", "matrix", "certificates") if key in doc}
    fresh["results"] = fresh_results
    return failures + _diff(doc, fresh)


def _verify_experiment(doc: dict) -> list[str]:
    """The report must equal its rebuild from its config and the values of
    its trials: trial i is given trial_index i, the stream_seed of
    (master_seed, i) and the size grid(cfg)[i], and the summaries and
    verdicts are recomputed from those trials."""
    try:
        cfg = ExperimentConfig.from_dict(doc["config"])
        stored = [TrialRecord.from_dict(t) for t in doc["trials"]]
        sizes = grid(cfg)
        if len(stored) != len(sizes):
            return [f"trial count mismatch: {len(stored)} stored, "
                    f"{len(sizes)} in the grid"]
        trials = [TrialRecord(i, SeedSpec(cfg.master_seed, i).stream_seed(), size,
                              t.values) for i, (t, size) in enumerate(zip(stored, sizes))]
        summaries = summarize_records(trials)
        fresh = ExperimentReport(cfg, trials, summaries,
                                 verdicts(cfg, trials, summaries),
                                 doc.get("wall_clock_s", 0.0))
    except _MALFORMED as exc:
        return [f"report cannot be rebuilt: {exc!r}"]
    return _diff(doc, fresh.to_dict(include_timing="wall_clock_s" in doc))


def verify_report(doc: dict) -> list[str]:
    """What fails to verify in a report, one line each; empty when every
    certificate and every rebuilt entry matches."""
    if doc.get("kind") == "experiment":
        return _verify_experiment(doc)
    return _verify_single(doc)
