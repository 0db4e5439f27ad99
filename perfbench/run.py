"""Run one benchmark workload against the randcorr checkout this file sits in.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: qc_gap_n20, gamma2_convergence, cli_certify (see README.md).
The run repeats the workload's fixed batch of requests in whole rounds
while the next round still fits in --seconds (at least one round), then
checks the first round's outputs and that every later round reproduced
them.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
request_p50_ms, peak_rss_mb); with --trace 1 they are the per-layer ones
from spans recorded around randcorr's public functions, and the spans are
written to perfbench/out/trace-<workload>-seed<n>.jsonl.
"""
import os

# One thread in total: numpy, scipy and HiGHS read these when they load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time importing randcorr and building the inputs, then exit")
    return p.parse_args(argv)


def import_workloads():
    """Import the workloads (and with them randcorr) from this checkout's
    src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import randcorr
    import workloads
    if Path(randcorr.__file__).resolve().parent != SRC / "randcorr":
        raise SystemExit(f"randcorr imported from {randcorr.__file__}, not {SRC}")
    return workloads


def setup_probe(args) -> None:
    start = time.perf_counter()
    workloads = import_workloads()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        workloads.WORKLOADS[args.workload].build(args.seed, work)
        elapsed = time.perf_counter() - start
    print(repr(elapsed))


def measure_setup(args) -> float:
    """Median over fresh processes of the time to import randcorr and build
    the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def canonical(output) -> str:
    return output if isinstance(output, str) else json.dumps(output, sort_keys=True)


def run_rounds(requests, seconds: float, tracer):
    """Send the batch in whole rounds; return request and round times, the
    counts, the first round's outputs and any failures seen on the way."""
    request_s, round_s, failures = [], [], []
    attempted = failed = 0
    first: dict[str, object] = {}
    start = time.perf_counter()
    for round_ in itertools.count():
        round_start = time.perf_counter()
        busy = 0.0
        report_bytes = 0
        if tracer is not None:
            tracer.round = round_
        for req in requests:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = req.call() if tracer is None else tracer.request(req.kind, req.call)
            except Exception:  # a failed request is counted, and the run goes on
                result = None
                failed += 1
                print(f"request {req.label} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
            elapsed = time.perf_counter() - t0
            busy += elapsed
            request_s.append(elapsed)
            if result is None:
                continue
            output = req.collect(result)
            if req.out:
                report_bytes += os.path.getsize(req.out)
            if round_ == 0:
                first[req.label] = output
            elif req.label in first and canonical(output) != canonical(first[req.label]):
                failures.append(f"{req.label}: round {round_} output differs from round 0")
        round_s.append(busy)
        if tracer is not None:
            tracer.report_bytes[round_] = report_bytes
        last = time.perf_counter() - round_start
        if time.perf_counter() - start + last > seconds:
            break
    return request_s, round_s, attempted, failed, first, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "randcorr" / "__init__.py").is_file():
        print(f"no randcorr sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = import_workloads()
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(args)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        requests = workload.build(args.seed, work)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            request_s, round_s, attempted, failed, first, failures = run_rounds(
                requests, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures += workload.check(first)
    for f in failures:
        print(f"CHECK FAILED {f}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(round_s)} round(s), {attempted} "
          f"requests, {failed} failed, median round {statistics.median(round_s):.3f} s, "
          f"{len(failures)} check failure(s)", file=sys.stderr)
    if tracer is None:
        values = {"setup_s": setup_s, "wall_s": statistics.median(round_s),
                  "request_p50_ms": 1e3 * statistics.median(request_s),
                  "peak_rss_mb": peak_rss_mb}
    else:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = tracer.layer_metrics()
    metrics = with_units(values, "per_layer" if args.trace else "end_to_end")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def with_units(values: dict, section: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    with open(SPEC, "r", encoding="ascii") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         f"the {section} list of {SPEC.name}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
