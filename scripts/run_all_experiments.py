#!/usr/bin/env python3
"""Run every experiment scenario at its default configuration.

Runs `randcorr experiment` once per scenario, writing one JSON report per
scenario into --outdir; the verdict lines are those of `randcorr
experiment`.  Exit status is nonzero if any run's is.
"""
import argparse
import os
import sys
import time

from randcorr.cli import main as randcorr_main
from randcorr.experiments import SCENARIOS, default_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="Python threads per scenario (default: one per core); with "
                         "more than one, set OPENBLAS_NUM_THREADS=1 so that OpenBLAS "
                         "threads do not oversubscribe the cores")
    ap.add_argument("--quick", action="store_true",
                    help="cut trial counts for a fast sanity pass")
    ap.add_argument("--scenario", action="append", default=None,
                    help="run only these scenarios (repeatable)")
    args = ap.parse_args()

    status = 0
    for name in args.scenario or SCENARIOS:
        path = os.path.join(args.outdir, f"{name}.json")
        argv = ["experiment", "--scenario", name, "--seed", str(args.seed),
                "--threads", str(args.threads), "--out", path]
        if args.quick:
            argv += ["--trials", str(max(1, default_config(name).trials // 10))]
        start = time.perf_counter()
        code = randcorr_main(argv)
        print(f"{name}: exit {code} ({time.perf_counter() - start:.1f}s) -> {path}")
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
