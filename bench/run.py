"""critmac benchmark: one workload per run, one JSON result on the last line.

    python3 bench/run.py --workload design|simulate|oracle --seed N \
        --seconds S --trace 0|1

Run from the repository root.  With --trace 0 the run repeats whole rounds
of the workload until S seconds have passed and prints the end-to-end
metrics over all its rounds.  With --trace 1 it runs round 0 once untraced
and once traced, writes the spans to .bench_work/ and prints the per-layer
metrics.  Either way every output is checked, `attempted` and `failed`
count the operations of one round, and progress and any failed check go to
stderr.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path[:0] = [str(ROOT), str(SRC)]

from bench.speed import SpeedSampler  # imports no numpy, unlike the other modules

SETUP_TIMEOUT_S = 120


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# Imports critmac.cli while it samples its own speed (`bench.speed`), and
# prints the factor that scales its wall time to the nominal speed.
_SETUP_CHILD = """
import time
from bench.speed import SpeedSampler
with SpeedSampler() as speed:
    start = time.perf_counter()
    import critmac.cli
    end = time.perf_counter()
print(speed.nominal_seconds(start, end) / (end - start))
"""


def measure_setup(importtime: bool) -> tuple[float, float, dict[str, float]]:
    """Import critmac.cli in a fresh interpreter, timed from spawn to exit.

    Returns the time at the nominal speed, the raw wall time and each
    package's import self time.  The child samples its own speed while it
    imports; its factor scales the whole spawn-to-exit time.  Runs before
    this process imports numpy, so the two do not compete.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    flags = ["-X", "importtime"] if importtime else []
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _SETUP_CHILD],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"cannot import critmac.cli from {SRC}:\n{proc.stderr.strip()}")
    packages = {"numpy": 0.0, "scipy": 0.0, "critmac": 0.0}
    # lines read "import time: <self us> | <cumulative us> | <indent><module>"
    for match in re.finditer(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", proc.stderr):
        top = match.group(2).split(".")[0]
        if top in packages:
            packages[top] += int(match.group(1)) / 1e6
    return wall * float(proc.stdout.split()[-1]), wall, packages


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["design", "simulate", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_s, setup_wall_s, import_s = measure_setup(importtime=bool(args.trace))

    from bench import workloads
    from bench.tracing import Tracer, layer_metrics

    ops = workloads.WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.seed, run_dir)
    rounds = []
    try:
        if args.trace:
            tracer = Tracer()
            with SpeedSampler() as ctx.speed:
                rounds.append(workloads.run_round(ops, ctx))
                ctx.tracer = tracer
                with tracer.installed():
                    rounds.append(workloads.run_round(ops, ctx))  # the same round again
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.csv")
        else:
            start = time.perf_counter()
            with SpeedSampler() as ctx.speed:
                while not rounds or time.perf_counter() - start < args.seconds:
                    ctx.round_index = len(rounds)
                    rounds.append(workloads.run_round(ops, ctx))
                    log(f"round {ctx.round_index}: {rounds[-1].wall:.2f} s")
                    for call, wall, nominal in ctx.timings:
                        log(f"  {call}: {wall:.3f} s wall, {nominal:.3f} s nominal")
                    ctx.timings.clear()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, problems = workloads.counts_per_round(rounds)
    problems += [p for r in rounds for p in r.problems]
    for problem in problems:
        log(f"INCORRECT: {problem}")
    if args.trace:
        base, traced = rounds
        metrics = {f"setup.{pkg}_s": seconds for pkg, seconds in import_s.items()}
        metrics.update(layer_metrics(tracer, traced.solutions))
        metrics["sim.invalid_rounds"] = traced.invalid_rounds
        metrics["cli.output_bytes"] = traced.output_bytes
        metrics["cli.trace_bytes"] = traced.trace_bytes
        metrics["trace.overhead_s"] = sum(traced.seconds.values()) - sum(base.seconds.values())
    else:
        metrics = {"setup_s": setup_s, **workloads.end_to_end(rounds)}
        log(f"{len(rounds)} round(s); the same metrics from raw wall-clock times: "
            + json.dumps({"setup_s": setup_wall_s, **workloads.end_to_end(rounds, wall=True)}))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
