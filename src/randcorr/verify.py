"""Re-check a report: rebuild what it claims from its own contents, then
compare the stored report with the rebuild as a whole.

A single-matrix report's certificates are re-evaluated against its embedded
matrix. Each certificate's claim fixes the payload class; the payload must
round-trip through that class's from_dict/to_dict unchanged, and the
stored value must equal the re-evaluated one, the value the command
stores: each payload's value charges its own error, so no tolerance gates
it, and no bracket's lower end may exceed its upper one.  A payload that
states an exact norm is rebuilt whole: an `infty_to_one` pair by
infty_to_one_exact of the matrix, a `classical_lower` functional by
norms.bell_functional of its own a (past the enumeration's cap, the
ascent from the default seed that `gap` runs), so only the pair the
program writes verifies.  Only `norm --which trace|operator|flatness`
reports, values of the singular values, take an SVD.
The report's `results` are rebuilt by report_results, the function its
command writes them with, and its `config` holds exactly the keys that
rebuild reads. An experiment report is rebuilt from its config and its
per-trial values, with trial i laid out as the seeded trial at position i
of the scenario's grid; no trial is re-run.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .experiments import (SCHEMA_VERSION, ExperimentConfig, ExperimentReport, TrialRecord,
                          grid, summarize_records, verdicts)
from .linalg import SPECTRAL_VALUES, as_matrix
from .norms import (BellFunctional, ConvexDecomposition, DualWitness, FactorizationPair,
                    SignPair, bell_functional, classical_lower_bound, gap_from_bell,
                    infty_to_one_exact)
from .sampling import SeedSpec
from .spectral import BRENT_RTOL, density, ks_distance_of_draw, threshold_objective

_REL_TOL = 1e-12            # stored and rebuilt numbers agree to this, relative
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

def _rebuilt(stored, fresh) -> None:
    """Raise unless the stored payload equals `fresh`, its rebuild."""
    problems = _diff(stored.to_dict(), fresh.to_dict())
    if problems:
        raise ValidationError("; ".join(problems))


def _infty_to_one(pair: SignPair, t) -> float:
    """The exact inf->1 norm of t, re-enumerated; the stored pair must be
    the enumeration's own (the tie rule's)."""
    norm, fresh = infty_to_one_exact(t)
    _rebuilt(pair, fresh)
    return norm


def _decomposition_value(dec: ConvexDecomposition, t) -> float:
    """dec.upper_bound(t), the value the command stores. The bound holds
    only for nonnegative weights: a pair c * (alpha, beta) + c * (-alpha,
    beta) adds nothing to t and 2c to the weight sum."""
    if not (np.asarray(dec.weights, dtype=float) >= 0.0).all():
        raise ValidationError("decomposition weights must be nonnegative")
    return dec.upper_bound(t)


def _classical_lower(bell: BellFunctional, t) -> float:
    """<t, a> / eps_one_norm, once the functional equals bell_functional(a),
    the program's one build of its norm bound and sign pair."""
    _rebuilt(bell, bell_functional(bell.a))
    return classical_lower_bound(t, bell)


# claim: (payload class, re-evaluation of the claimed value against t)
_CERTIFICATES = {
    "infty_to_one": (SignPair, _infty_to_one),
    "infty_to_one_lower": (SignPair, SignPair.pairing),
    "gamma2_lower": (DualWitness, DualWitness.value),
    "gamma2_upper": (FactorizationPair, FactorizationPair.value),
    "classical_lower": (BellFunctional, _classical_lower),
    "classical_upper": (ConvexDecomposition, _decomposition_value),
}
# (lower, upper) claim pairs: the two ends of one bracket
_BRACKETS = (("classical_lower", "classical_upper"), ("gamma2_lower", "gamma2_upper"))
# the claim whose value a `norm --which` report states
_NORM_CLAIMS = {"infty-to-one": "infty_to_one", "infty-to-one-heuristic": "infty_to_one_lower"}


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


# each kind's config keys: what its rebuild reads, and `matrix`, a CSV path (a label)
_CONFIG_KEYS = {"norm": [{"matrix", "which"}], "gamma2": [{"matrix"}],
                "classical": [{"matrix", "tol"}], "gap": [{"matrix"}],
                "spectral": [{"alpha", "grid_points"},  # with a KS draw, or none
                             {"alpha", "grid_points", "ks_n", "ks_m", "seed"}],
                "threshold": [{"gap_constant", "tol"}]}


def report_results(kind: str, config: dict, matrix, values: dict, payloads: dict) -> dict:
    """The `results` of a report of `kind` that follow from its config, its
    matrix and its certificates' values and payloads (dicts keyed by claim):
    what the command writes, and what verify_report rebuilds. An entry that
    restates a claim is null without its certificate. The entries nothing
    here fixes are the command's to add (see _verify_single)."""
    if kind == "norm":
        which = config["which"]
        return {"value": SPECTRAL_VALUES[which](matrix) if which in SPECTRAL_VALUES
                else values.get(_NORM_CLAIMS[which])}
    if kind == "gamma2":
        return {"lower": values.get("gamma2_lower"), "upper": values.get("gamma2_upper")}
    if kind == "classical":
        # the bracket's closure to the run's tol is all the flags can claim
        lower, upper = values["classical_lower"], values["classical_upper"]
        closed = upper - lower <= config["tol"]
        return {"lower": lower, "upper": upper, "converged": closed, "certified": closed,
                "residual": payloads["classical_upper"].reconstruction_residual(matrix)}
    if kind == "gap":
        bell = payloads["classical_lower"]
        return {"gap": gap_from_bell(matrix, bell),
                # exact where the norm bound is attained: wherever it is enumerated
                "bell_norm_exact": bell.eps_one_norm == bell.attaining.pairing(bell.a),
                "bell_norm": bell.eps_one_norm,
                "gamma2_lower": values.get("gamma2_lower"),
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
    and returns the midpoint of its upper bound and its dual witness's
    value, within tol / 2 of gamma2 when the run closes to `tol` and within
    half the width reached when it does not.  These lie inside the bracket
    up to the two witnesses' rounding charges, which _REL_TOL absorbs, so
    the value must lie in the re-evaluated [lower, upper], to _REL_TOL
    relative."""
    slack = _REL_TOL * max(1.0, abs(lower), abs(upper))
    if lower - slack <= float(oracle) <= upper + slack:
        return []
    return [f"results.oracle: {oracle!r} stored, outside the gamma2 bracket "
            f"[{lower!r}, {upper!r}] the oracle lies in"]


def _bracket_failures(lower: float, upper: float) -> list[str]:
    """Each end of a bracket is a re-evaluated certificate's value, which
    charges its own error, so a lower end above the upper one by more than
    _REL_TOL relative means a false certificate."""
    if lower <= upper + _REL_TOL * max(1.0, abs(upper)):
        return []
    return [f"lower {lower!r} above upper {upper!r}"]


def _verify_single(doc: dict) -> list[str]:
    """Each certificate is re-evaluated and rebuilt, and `results` are
    rebuilt from the re-evaluated claims by report_results, the function the
    command writes them with. Only these entries are kept as stored, where
    report_results does not rebuild them: gamma2's oracle, which must lie in
    the re-evaluated bracket; threshold's alpha0, across which the objective
    must change sign (alpha0 -+ (tol + BRENT_RTOL alpha0)); and spectral's
    csv. Any other entry fails. No bracket's lower end may exceed its upper
    one (see _BRACKETS), and the config holds the keys of _CONFIG_KEYS.
    Where a certificate fails, its line is the report's failure and
    `results` are not rebuilt."""
    try:
        mat = as_matrix(doc["matrix"]) if "matrix" in doc else None
    except _MALFORMED as exc:
        return [f"matrix: not a finite numeric matrix: {exc}"]
    certs, results = doc.get("certificates", []), doc.get("results", {})
    if not isinstance(certs, list) or not isinstance(results, dict):
        return ["`certificates` must be a list and `results` an object"]
    failures, values, payloads = [], {}, {}
    certified = True  # every certificate re-evaluated
    for i, cert in enumerate(certs):
        claims = cert.get("claims") if isinstance(cert, dict) else None
        label = f"certificate {i} ({claims})"
        entry = _CERTIFICATES.get(claims) if isinstance(claims, str) else None
        if entry is None or not isinstance(cert.get("certificate"), dict):
            failures.append(f"{label}: needs a known `claims` name and a "
                            "`certificate` object")
            certified = False
            continue
        cls, evaluate = entry
        try:
            payload = cls.from_dict(cert["certificate"])
            value = evaluate(payload, mat)
        except _MALFORMED as exc:
            failures.append(f"{label}: re-evaluation failed: {exc}")
            certified = False
            continue
        values[claims], payloads[claims] = value, payload
        failures += _diff(cert, {"claims": claims, "value": value,
                                 "certificate": payload.to_dict()}, label)
    failures += [f"{low}, {up}: {line}" for low, up in _BRACKETS if {low, up} <= values.keys()
                 for line in _bracket_failures(values[low], values[up])]
    kind, config = doc.get("kind"), doc.get("config")
    stored = {"gamma2": ("oracle",), "threshold": ("alpha0",),
              "spectral": ("csv",)}.get(kind, ())
    try:
        # results rebuilt without a failed certificate would only restate
        # its failure, so they are kept as stored
        fresh_results = (report_results(kind, config, mat, values, payloads) if certified
                         else results)
        if config.keys() not in _CONFIG_KEYS[kind]:
            failures.append(f"config: keys {sorted(config)}, not one of "
                            f"{[sorted(keys) for keys in _CONFIG_KEYS[kind]]}")
        fresh_results.update((key, results[key]) for key in stored
                             if key in results and key not in fresh_results)
        if kind == "threshold":
            failures += _threshold_failures(config, results["alpha0"])
        elif kind == "gamma2" and "oracle" in results and {
                "gamma2_lower", "gamma2_upper"} <= values.keys():
            failures += _oracle_failures(results["oracle"], values["gamma2_lower"],
                                         values["gamma2_upper"])
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
        fresh = ExperimentReport(cfg, trials, summaries, verdicts(cfg, trials, summaries))
    except _MALFORMED as exc:
        return [f"report cannot be rebuilt: {exc!r}"]
    return _diff(doc, fresh.to_dict())


def verify_report(doc: dict) -> list[str]:
    """What fails to verify in a report, one line each; empty when every
    certificate and every rebuilt entry matches. A report of another
    schema_version than SCHEMA_VERSION is one failure, checked first."""
    if doc.get("schema_version") != SCHEMA_VERSION:
        return [f"schema_version: {doc.get('schema_version')!r}, "
                f"not the supported {SCHEMA_VERSION!r}"]
    if doc.get("kind") == "experiment":
        return _verify_experiment(doc)
    return _verify_single(doc)
