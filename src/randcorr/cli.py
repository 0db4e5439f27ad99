"""Command-line front door.

Exit codes: 0 success, 1 numerical failure, 2 validation error, 3 experiment
verdict failure.  Errors go to stderr as single-line JSON.  Target constants
may be written symbolically ("sqrt(16/15)", "8/(3pi)") to avoid hand-rounding
drift; the tiny evaluator supports + - * / sqrt ln pi with implicit
multiplication.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import spectral
from .errors import NumericalError, ValidationError
from .linalg import SPECTRAL_VALUES, read_matrix_csv, svd, write_matrix_csv
from .norms import (GAMMA2_RESCALE_MAX_ITER, HEURISTIC_RESTARTS, bell_functional_from_svd,
                    classical_upper_bound, gamma2_bracket, gamma2_oracle,
                    infty_to_one_exact, infty_to_one_heuristic)
from .sampling import ENSEMBLE_KINDS, EnsembleSpec, SeedSpec
from .experiments import SCHEMA_VERSION, ExperimentConfig, default_config, run_experiment
from .verify import law_results, report_results, verify_report

OUT_ENV = "RANDCORR_OUT"


# --- symbolic constant parser ------------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str) -> list:
        out = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/()":
                out.append(ch)
                i += 1
            elif ch.isdigit() or ch == ".":
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                         or (text[j] in "+-" and text[j - 1] in "eE")):
                    j += 1
                try:
                    out.append(float(text[i:j]))
                except ValueError:
                    raise ValidationError(f"malformed number {text[i:j]!r}") from None
                i = j
            elif ch.isalpha():
                j = i
                while j < len(text) and text[j].isalpha():
                    j += 1
                out.append(text[i:j])
                i = j
            else:
                raise ValidationError(f"bad character {ch!r} in expression")
        return out

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def pop(self):
        tok = self.peek()
        self.pos += 1
        return tok


def parse_scalar(text: str) -> float:
    """Evaluate a constant expression over + - * / sqrt ln pi."""
    toks = _Tokens(text)

    def expr() -> float:
        val = term()
        while toks.peek() in ("+", "-"):
            op = toks.pop()
            rhs = term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term() -> float:
        val = unary()
        while True:
            nxt = toks.peek()
            if nxt in ("*", "/"):
                op = toks.pop()
                rhs = unary()
                if op == "/" and rhs == 0.0:
                    raise ValidationError(f"division by zero in {text!r}")
                val = val * rhs if op == "*" else val / rhs
            elif isinstance(nxt, float) or nxt == "(" or (
                    isinstance(nxt, str) and nxt.isalpha()):
                val = val * unary()  # implicit multiplication: "3pi"
            else:
                return val

    def unary() -> float:
        if toks.peek() == "-":
            toks.pop()
            return -unary()
        return atom()

    def atom() -> float:
        tok = toks.pop()
        if isinstance(tok, float):
            return tok
        if tok == "pi":
            return math.pi
        if tok in ("sqrt", "ln"):
            if toks.pop() != "(":
                raise ValidationError(f"{tok} needs parentheses")
            val = expr()
            if toks.pop() != ")":
                raise ValidationError("unbalanced parentheses")
            if val < 0.0 or (tok == "ln" and val == 0.0):
                raise ValidationError(f"{tok}({val!r}) is undefined")
            return math.sqrt(val) if tok == "sqrt" else math.log(val)
        if tok == "(":
            val = expr()
            if toks.pop() != ")":
                raise ValidationError("unbalanced parentheses")
            return val
        raise ValidationError(f"unexpected token {tok!r}")

    try:
        val = expr()
    except RecursionError:
        # one Python frame per nesting level of parentheses or unary minus
        raise ValidationError(f"expression nested too deeply: {text[:40]!r}...") from None
    if toks.peek() is not None:
        raise ValidationError(f"trailing input in expression: {text!r}")
    if not math.isfinite(val):
        raise ValidationError(f"expression {text!r} is not finite")
    return val


# --- report plumbing ---------------------------------------------------------

def _report(kind: str, config: dict, results: dict, matrix=None, claims=None) -> dict:
    """A report. With a matrix, its certificates are `claims`, {claim:
    (value, payload)}, and its results are report_results' from them (what
    verify-certificate rebuilds) plus `results`, the entries report_results
    cannot build; without one, `results` are all of them."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "config": config,
           "results": results}
    if matrix is not None:
        doc["results"] = report_results(
            kind, config, matrix, {claim: value for claim, (value, _) in claims.items()},
            {claim: payload for claim, (_, payload) in claims.items()}) | results
        doc["matrix"] = np.asarray(matrix).tolist()
        if claims:
            doc["certificates"] = [
                {"claims": claim, "value": value, "certificate": payload.to_dict()}
                for claim, (value, payload) in claims.items()]
    return doc


def _writable(path: str) -> str:
    """`path`, with its parent directory created."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _write_out(args, default_name: str, text: str) -> None:
    """Write `text` to --out, or to `default_name` under $RANDCORR_OUT."""
    out = args.out
    if out is None and os.environ.get(OUT_ENV):
        out = os.path.join(os.environ[OUT_ENV], default_name)
    if out:
        with open(_writable(out), "w", encoding="ascii") as fh:
            fh.write(text)


def _emit(doc: dict, args, headline: str) -> None:
    print(headline)
    seed = getattr(args, "seed", 0) or 0
    _write_out(args, f"{doc['kind']}-seed{seed}.json",
               json.dumps(doc, sort_keys=True, indent=2) + "\n")


# --- subcommand handlers -----------------------------------------------------

def _cmd_sample(args) -> int:
    if args.out is None:
        raise ValidationError("sample requires --out for the matrix CSV")
    spectrum = None
    if args.spectrum:
        spectrum = [parse_scalar(tok) for tok in args.spectrum.split(",")]
    spec = EnsembleSpec(kind=args.kind, n=args.n, m=args.m, spectrum=spectrum)
    mat = spec.sample(SeedSpec(args.seed, args.trial))
    write_matrix_csv(_writable(args.out), mat)
    print(f"wrote {mat.shape[0]}x{mat.shape[1]} matrix to {args.out}")
    return 0


def _cmd_norm(args) -> int:
    mat = read_matrix_csv(args.matrix)
    config = {"subcommand": "norm", "matrix": args.matrix, "which": args.which,
              "restarts": args.restarts, "seed": args.seed}
    claims = {}
    if args.which == "infty-to-one":
        claims["infty_to_one_lower"] = infty_to_one_exact(mat)
    elif args.which == "infty-to-one-heuristic":
        claims["infty_to_one_lower"] = infty_to_one_heuristic(mat, args.restarts,
                                                              SeedSpec(args.seed, 0))
    doc = _report("norm", config, {}, mat, claims)
    _emit(doc, args, format(doc["results"]["value"], ".12g"))
    return 0


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"--tol must be positive and finite, not {tol!r}")


def _cmd_gamma2(args) -> int:
    _check_tol(args.tol)
    mat = read_matrix_csv(args.matrix)
    # one SVD for both the bracket and the oracle, which continues its loop
    triple = svd(mat)
    bracket = gamma2_bracket(mat, triple)
    config = {"subcommand": "gamma2", "matrix": args.matrix,
              "oracle": args.oracle, "tol": args.tol}
    claims = {"gamma2_lower": (bracket.lower, bracket.lower_certificate),
              "gamma2_upper": (bracket.upper, bracket.upper_certificate)}
    oracle = {"oracle": gamma2_oracle(mat, args.tol, triple)} if args.oracle else {}
    doc = _report("gamma2", config, oracle, mat, claims)
    _emit(doc, args, f"gamma2 in [{bracket.lower:.12g}, {bracket.upper:.12g}]")
    return 0


def _cmd_classical(args) -> int:
    _check_tol(args.tol)
    mat = read_matrix_csv(args.matrix)
    bracket = classical_upper_bound(mat, max_atoms=args.max_atoms, tol=args.tol)
    config = {"subcommand": "classical", "matrix": args.matrix,
              "max_atoms": args.max_atoms, "tol": args.tol}
    claims = {"classical_lower": (bracket.lower, bracket.lower_certificate),
              "classical_upper": (bracket.upper, bracket.upper_certificate)}
    doc = _report("classical", config, {}, mat, claims)
    _emit(doc, args, f"projective norm in [{bracket.lower:.12g}, {bracket.upper:.12g}]"
          + ("" if doc["results"]["converged"]
             else " (column generation stopped unconverged)"))
    return 0


def _cmd_gap(args) -> int:
    mat = read_matrix_csv(args.matrix)
    # one SVD for both the gamma2 bracket and the Bell functional
    triple = svd(mat)
    bracket = gamma2_bracket(mat, triple)
    bell = bell_functional_from_svd(mat, args.restarts, SeedSpec(args.seed, 0), triple)
    config = {"subcommand": "gap", "matrix": args.matrix,
              "restarts": args.restarts, "seed": args.seed}
    claims = {"bell_functional": (bell.eps_one_norm, bell),
              "gamma2_lower": (bracket.lower, bracket.lower_certificate),
              "gamma2_upper": (bracket.upper, bracket.upper_certificate)}
    doc = _report("gap", config, {}, mat, claims)
    _emit(doc, args, f"quantum-classical gap estimate {doc['results']['gap']:.12g}"
          + ("" if bell.exact else " (heuristic Bell norm, not certified)"))
    return 0


def _cmd_spectral(args) -> int:
    alpha = parse_scalar(args.alpha)
    law = spectral.density(alpha, grid_points=args.grid_points)
    config = {"subcommand": "spectral", "alpha": alpha,
              "grid_points": args.grid_points}
    if args.ks_n:
        if not args.ks_m:
            raise ValidationError("--ks-n requires --ks-m")
        config.update(ks_n=args.ks_n, ks_m=args.ks_m, seed=args.seed)
    results = law_results(law, config)
    if args.csv:
        law.to_csv(_writable(args.csv))
        results["csv"] = args.csv
    doc = _report("spectral", config, results)
    _emit(doc, args, f"alpha={alpha:g}: support_upper={law.support_upper:.6g} "
                     f"C_alpha={law.c_alpha:.6g}")
    return 0


def _cmd_threshold(args) -> int:
    _check_tol(args.tol)
    gap_constant = parse_scalar(args.gap)
    value = spectral.alpha_threshold(gap_constant, tol=args.tol)
    config = {"subcommand": "threshold", "gap_constant": gap_constant,
              "tol": args.tol}
    doc = _report("threshold", config, {"alpha0": value})
    _emit(doc, args, f"alpha0 = {value:.4f}")
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
    else:
        if not args.scenario:
            raise ValidationError("experiment needs --scenario or --config")
        defaults = default_config(args.scenario)
        cfg = ExperimentConfig(
            scenario=args.scenario,
            sizes=defaults.sizes if args.n is None else args.n,
            trials=defaults.trials if args.trials is None else args.trials,
            master_seed=args.seed)
    report = run_experiment(cfg, threads=args.threads)
    _write_out(args, f"experiment-{cfg.scenario}-seed{cfg.master_seed}.json",
               report.to_csv() if args.format == "csv"
               else report.to_json(include_timing=args.timings) + "\n")
    print(f"scenario {cfg.scenario}: "
          + ("all verdicts passed" if report.passed() else "VERDICT FAILURE"))
    for v in report.verdicts:
        print(f"  [{'PASS' if v.passed else 'FAIL'}] {v.name}: "
              f"value={v.value:.6g} threshold={v.threshold:.6g}")
    return 0 if report.passed() else 3


def _cmd_verify(args) -> int:
    with open(args.report, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("a report is a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema version {doc.get('schema_version')!r}")
    failures = verify_report(doc)
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print("all certificates verified")
    return 1 if failures else 0


# --- argument parsing ---------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: it costs about 2 ms, more than some commands
    # take, and parse_args keeps no state from one call to the next
    parser = argparse.ArgumentParser(
        prog="randcorr",
        description="Random correlation matrices: quantum/classical norms, "
                    "spectral laws, seeded experiments.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default=None, help="report/output path")

    p = sub.add_parser("sample", help="draw one matrix from an ensemble")
    p.add_argument("--kind", required=True, choices=ENSEMBLE_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--spectrum", default=None,
                   help="comma-separated spectrum for bi_invariant")
    p.add_argument("--trial", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("norm", help="matrix norms")
    p.add_argument("--matrix", required=True)
    p.add_argument("--which", default="infty-to-one",
                   choices=("infty-to-one", "infty-to-one-heuristic", *SPECTRAL_VALUES))
    p.add_argument("--restarts", type=int, default=HEURISTIC_RESTARTS)
    common(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("gamma2", help="quantum-norm bracket (and an estimate to --tol)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also report `oracle`: the bracket's rescaling run "
                        "continued until its best upper and lower bounds "
                        f"are --tol apart (or for {GAMMA2_RESCALE_MAX_ITER} "
                        "steps), and their midpoint")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="absolute width, upper - lower, at which the oracle stops")
    common(p)
    p.set_defaults(func=_cmd_gamma2)

    p = sub.add_parser("classical", help="projective-norm bracket")
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-atoms", type=int, default=400,
                   help="bound on master LP solves, and on nothing else: the "
                        "pool starts from the first enumeration's 32 best atoms "
                        "plus all-ones, each solve adds up to 32 priced atoms "
                        "and no atom ever leaves it, so each solve is slower "
                        "than the last; at n >= 20 a run takes minutes, and a "
                        "smaller value stops it sooner, unconverged, with a "
                        "wider certified bracket")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="absolute width, upper - lower, at which column "
                        "generation stops")
    p.add_argument("--out", default=None, help="report path")
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("gap", help="classical/quantum norm ratio estimate")
    p.add_argument("--matrix", required=True)
    p.add_argument("--restarts", type=int, default=HEURISTIC_RESTARTS)
    common(p)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("spectral", help="limiting law of the Gaussian product")
    p.add_argument("--alpha", required=True, help="aspect ratio m/n (expression)")
    p.add_argument("--grid-points", type=int, default=4000)
    p.add_argument("--csv", default=None, help="write (x, density) CSV here")
    p.add_argument("--ks-n", type=int, default=None)
    p.add_argument("--ks-m", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("threshold", help="non-locality aspect-ratio threshold")
    p.add_argument("--gap", required=True,
                   help='gap constant, e.g. "sqrt(16/15)"')
    p.add_argument("--tol", type=float, default=1e-4)
    common(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("experiment", help="run a seeded Monte Carlo scenario")
    p.add_argument("--scenario", default=None)
    p.add_argument("--config", default=None, help="full JSON config file")
    p.add_argument("--n", type=int, nargs="*", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock in the report (breaks byte-identity)")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify-certificate", help="re-evaluate a report's certificates")
    p.add_argument("report")
    p.set_defaults(func=_cmd_verify)

    return parser


def _jsonable(obj):
    # arrays and numpy scalars in an error's detail become lists and numbers
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return repr(obj)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        line = {"error": "numerical", "message": str(exc)}
        if exc.detail is not None:
            line["detail"] = exc.detail
        print(json.dumps(line, default=_jsonable), file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
