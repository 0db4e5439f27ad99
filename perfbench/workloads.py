"""The benchmark's workloads: inputs derived from the workload seed, the
fixed batch of requests one round sends through randcorr's front doors,
and the checks on one round's outputs.

A request is one call into a front door: `run_experiment` on one scenario
config at one master seed, or one `randcorr.cli.main([...])` command.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np
from randcorr import cli, experiments

import checks


def master_seeds(seed: int, count: int) -> list[int]:
    """Scenario master seeds: the first `count` 64-bit words that numpy's
    SeedSequence draws from the workload seed."""
    words = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(w) for w in words]


def write_csv(path: str, a) -> None:
    """Headerless CSV with shortest round-trip decimals."""
    with open(path, "w", encoding="ascii") as fh:
        for row in np.asarray(a, dtype=float):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


class RequestFailed(Exception):
    pass


class ExperimentRequest:
    """One run_experiment call; its output is the report as a dict."""

    kind = "experiments.request"
    out = None

    def __init__(self, scenario: str, sizes: list[int], trials: int, master_seed: int):
        self.label = f"{scenario}@{master_seed}"
        self.config = experiments.ExperimentConfig(
            scenario=scenario, sizes=list(sizes), trials=trials, master_seed=master_seed)

    def call(self):
        return experiments.run_experiment(self.config)

    def collect(self, report) -> dict:
        return report.to_dict()


class CliRequest:
    """One randcorr.cli.main command.  Its output is the report it wrote
    (for a command with --out) or its stdout (for verify-certificate)."""

    def __init__(self, argv: list[str], label: str):
        self.argv, self.label = argv, label
        self.out = argv[argv.index("--out") + 1] if "--out" in argv else None
        self.kind = "cli.verify" if argv[0] == "verify-certificate" else "cli.command"

    def call(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self.argv)
        if code != 0:
            raise RequestFailed(f"{self.label}: exit {code}: {stderr.getvalue().strip()}")
        return stdout.getvalue()

    def collect(self, stdout: str):
        if self.out is None:
            return stdout
        with open(self.out, "r", encoding="ascii") as fh:
            return json.load(fh)


class QcGapN20:
    """qc_gap at n = 20 (exact Bell norms, all-ones control) through
    run_experiment at MASTERS master seeds."""

    name = "qc_gap_n20"
    MASTERS, TRIALS, N = 4, 4, 20

    def build(self, seed: int, workdir: str) -> list:
        return [ExperimentRequest("qc_gap", [self.N], self.TRIALS, m)
                for m in master_seeds(seed, self.MASTERS)]

    def check(self, outputs: dict) -> list[str]:
        return checks.check_qc_gap(list(outputs.values()), self.N)


class Gamma2Convergence:
    """quantum_norm_convergence at its four sizes through run_experiment at
    MASTERS master seeds."""

    name = "gamma2_convergence"
    MASTERS, TRIALS, SIZES = 6, 2, [50, 100, 200, 400]

    def build(self, seed: int, workdir: str) -> list:
        return [ExperimentRequest("quantum_norm_convergence", self.SIZES, self.TRIALS, m)
                for m in master_seeds(seed, self.MASTERS)]

    def check(self, outputs: dict) -> list[str]:
        return checks.check_gamma2_convergence(list(outputs.values()))


class CliCertify:
    """Single-matrix CLI round trips: each command writes its report with
    --out and verify-certificate then runs on it.

    Once per round: classical on the CHSH matrix and on seeded n = 4 and
    n = 8 matrices, gamma2 --oracle on the 8x8 Sylvester Hadamard matrix and
    on a seeded n = 8 matrix, and threshold --gap sqrt(16/15).  Then SETS
    times: classical on three seeded n = 6 matrices and gap on a seeded
    n = 20 matrix.

    Column generation is the bulk of the time.  How long it takes varies
    with the matrix, and the variance per second of work is about 13 times
    larger at n = 8 than at n = 6, so the bulk runs at n = 6 on many
    matrices.  Every verify-certificate of a classical report takes a few
    milliseconds; the gap reports' slower verifications balance them, so
    the median request falls among the n = 6 column generations and gap
    verifications, not at the edge between the fast verifications and the
    rest.
    """

    name = "cli_certify"
    SETS = 12
    KNOWN = {"classical-chsh": 2.0, "gamma2-h8": math.sqrt(8.0)}

    def build(self, seed: int, workdir: str) -> list:
        requests = []
        rng = np.random.default_rng(seed)

        def matrix(name, a):
            path = os.path.join(workdir, f"{name}.csv")
            write_csv(path, a)
            return path

        def gaussian(name, n):
            return matrix(name, rng.standard_normal((n, n)) / math.sqrt(n))

        def command(argv, label):
            out = os.path.join(workdir, f"{label}.json")
            requests.append(CliRequest(argv + ["--out", out], label))
            requests.append(CliRequest(["verify-certificate", out], f"verify {label}"))

        hadamard = np.ones((1, 1))
        for _ in range(3):
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        command(["classical", "--matrix", matrix("chsh", [[1.0, 1.0], [1.0, -1.0]])],
                "classical-chsh")
        command(["classical", "--matrix", gaussian("g4", 4)], "classical-g4")
        command(["classical", "--matrix", gaussian("g8", 8)], "classical-g8")
        command(["gamma2", "--matrix", matrix("h8", hadamard), "--oracle"], "gamma2-h8")
        command(["gamma2", "--matrix", gaussian("o8", 8), "--oracle"], "gamma2-o8")
        command(["threshold", "--gap", "sqrt(16/15)"], "threshold")
        for s in range(self.SETS):
            for k in range(3):
                command(["classical", "--matrix", gaussian(f"g6-{s}-{k}", 6)],
                        f"classical-g6-{s}-{k}")
            command(["gap", "--matrix", gaussian(f"g20-{s}", 20)], f"gap-g20-{s}")
        return requests

    def check(self, outputs: dict) -> list[str]:
        failures = []
        for label, out in outputs.items():
            if label.startswith("verify "):
                failures += checks.check_verified(out, label)
            elif label.startswith("classical-"):
                failures += checks.check_classical(out, label, self.KNOWN.get(label))
            elif label.startswith("gamma2-"):
                failures += checks.check_gamma2(out, label, self.KNOWN.get(label))
            elif label.startswith("gap-"):
                failures += checks.check_gap(out, label)
            else:
                failures += checks.check_threshold(out, label)
        return failures


WORKLOADS = {w.name: w for w in (QcGapN20(), Gamma2Convergence(), CliCertify())}
