"""The benchmark's workloads: operations, rounds and end-to-end metrics.

A round is a fixed list of operations.  The four CLI commands run in-process
through `critmac.cli.main(argv)` with their outputs written under a work
directory; the oracle runs through `critmac.estimate_metrics_oracle`.  Each
operation is timed alone, then its output is checked (outside the timed
region) by `checks`.

Every workload also runs small fixed probes of the commands its main part
leaves out, so that every end-to-end metric is measured on every workload
(see `WORKLOADS` and README.md).
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import critmac
import critmac.cli

from bench import checks
from bench.checks import OPTIMA, THETA, Incorrect


@dataclass
class Outcome:
    """What one operation did: its timed work and the faults its check found."""

    seconds: float
    work: float                     # points, rounds or solutions timed
    faults: list                    # one entry per operation: None or a fault id
    output_bytes: int = 0
    trace_bytes: int = 0
    invalid_rounds: int = 0


class Context:
    """Per-run state shared by the operations: seeds, work directory, tracer.

    With a `speed` sampler set, operation times are reported at the nominal
    machine speed (see `bench.speed`); otherwise as wall seconds.
    """

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = None
        self.speed = None
        self.round_index = 0
        self.timings: list[tuple[str, float, float]] = []  # (call, wall s, reported s)

    def timed(self, label: str, fn, *args):
        """Call fn(*args); returns its result and its time in seconds."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        seconds = end - start
        if self.speed is not None:
            seconds = self.speed.nominal_seconds(start, end)
        self.timings.append((label, end - start, seconds))
        return result, seconds

    def seed_for(self, op_index: int) -> int:
        """A seed for one operation of one round, derived from the run's --seed."""
        text = f"{self.seed}:{self.round_index}:{op_index}".encode()
        return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "big") >> 1

    def cli(self, kind: str, argv: list[str]) -> float:
        """Run one CLI command in-process; returns its time in seconds."""
        main = critmac.cli.main
        if self.tracer is not None:
            main = self.tracer.wrap("cli.main", main, lambda args, kwargs: kind)
        label = " ".join(argv[: argv.index("--format")])
        code, seconds = self.timed(label, main, argv)
        if code != 0:
            raise Incorrect(f"critmac {' '.join(argv)} exited with code {code}")
        return seconds


def _flags(**values) -> list[str]:
    out = []
    for key, value in values.items():
        out += [f"--{key.replace('_', '-')}", str(value)]
    return out


@dataclass(frozen=True)
class Optimize:
    n: int
    eta: float | None = None
    epsilon: float = 0.01
    group = "optimize"
    operations = 1

    def run(self, ctx: Context, index: int) -> Outcome:
        out = ctx.work_dir / f"op{index}.json"
        eta = [] if self.eta is None else _flags(eta=self.eta)
        argv = ["optimize", *_flags(n=self.n, theta=THETA, epsilon=self.epsilon), *eta,
                "--format", "json", "--output", str(out)]
        seconds = ctx.cli("optimize", argv)
        text = out.read_text()
        fault = checks.check_optimize(text, self.n, self.eta, self.epsilon)
        return Outcome(seconds, 1, [fault], output_bytes=len(text.encode()))


@dataclass(frozen=True)
class SweepEta:
    n: int
    start: float
    stop: float
    step: float
    epsilon: float = 0.01
    group = "sweep_eta"

    @property
    def etas(self) -> list[float]:
        return [float(e) for e in checks.qr_axis(self.start, self.stop, self.step)]

    @property
    def operations(self) -> int:
        return len(self.etas)

    def run(self, ctx: Context, index: int) -> Outcome:
        out = ctx.work_dir / f"op{index}.json"
        argv = ["sweep", "--axis", "eta",
                *_flags(n=self.n, theta=THETA, epsilon=self.epsilon),
                "--from", str(self.start), "--to", str(self.stop), "--step", str(self.step),
                "--format", "json", "--output", str(out)]
        seconds = ctx.cli("sweep_eta", argv)
        text = out.read_text()
        faults = checks.check_sweep_eta(text, self.n, self.etas, self.epsilon)
        return Outcome(seconds, len(faults), faults, output_bytes=len(text.encode()))


@dataclass(frozen=True)
class SweepQR:
    n: int
    step: float
    group = "sweep_qr"
    operations = 1

    def run(self, ctx: Context, index: int) -> Outcome:
        out = ctx.work_dir / f"op{index}.json"
        argv = ["sweep", "--axis", "qr", *_flags(n=self.n, theta=THETA, step=self.step),
                "--format", "json", "--output", str(out)]
        seconds = ctx.cli("sweep_qr", argv)
        text = out.read_text()
        points = checks.check_sweep_qr(text, self.n, self.step)
        return Outcome(seconds, points, [None], output_bytes=len(text.encode()))


@dataclass(frozen=True)
class Simulate:
    """Single-critical rounds at the paper's optimum, with --q/--r given."""

    n: int
    rounds: int
    enhanced: bool = False
    group = "simulate"
    operations = 1

    def run(self, ctx: Context, index: int) -> Outcome:
        out = ctx.work_dir / f"op{index}.json"
        q, r = OPTIMA[self.n]
        argv = ["simulate", *_flags(n=self.n, theta=THETA, q=q, r=r, rounds=self.rounds,
                                    seed=ctx.seed_for(index)),
                *(["--enhanced"] if self.enhanced else []),
                "--format", "json", "--output", str(out)]
        seconds = ctx.cli("simulate", argv)
        text = out.read_text()
        checks.check_simulate(text, self.n, q, r, self.enhanced)
        return Outcome(seconds, self.rounds, [None], output_bytes=len(text.encode()))


@dataclass(frozen=True)
class Scenario:
    """Two-critical rounds at N = 10 with the enhanced rules and a trace file."""

    scenario: str
    rounds: int
    n = 10
    group = "scenario"
    operations = 1

    def run(self, ctx: Context, index: int) -> Outcome:
        out = ctx.work_dir / f"op{index}.json"
        trace = ctx.work_dir / f"op{index}.csv"
        q, r = OPTIMA[self.n]
        argv = ["simulate", *_flags(n=self.n, theta=THETA, q=q, r=r, rounds=self.rounds,
                                    seed=ctx.seed_for(index)),
                "--enhanced", "--scenario", self.scenario,
                "--format", "json", "--output", str(out), "--trace-output", str(trace)]
        seconds = ctx.cli("scenario", argv)
        text = out.read_text()
        doc = checks.check_scenario(text, self.scenario, self.rounds)
        traced_rounds = checks.check_trace(trace, self.n)
        if traced_rounds != doc["attempted_rounds"]:
            raise Incorrect(f"trace holds {traced_rounds} rounds, the summary "
                            f"{doc['attempted_rounds']} attempted")
        return Outcome(seconds, doc["valid_rounds"], [None], output_bytes=len(text.encode()),
                       trace_bytes=trace.stat().st_size,
                       invalid_rounds=doc["attempted_rounds"] - doc["valid_rounds"])


@dataclass(frozen=True)
class Oracle:
    n: int
    rounds: int
    group = "oracle"
    operations = 1

    def run(self, ctx: Context, index: int) -> Outcome:
        q, r = OPTIMA[self.n]
        params = critmac.ProtocolParams(self.n, THETA, q, r)
        est, seconds = ctx.timed(
            f"oracle --n {self.n} --rounds {self.rounds}",
            critmac.estimate_metrics_oracle, params, self.rounds, ctx.seed_for(index),
        )
        checks.check_oracle(est, self.n, q, r, self.rounds)
        return Outcome(seconds, self.rounds, [None])


# Each workload's main calls are interleaved with small fixed probes of the
# commands it otherwise leaves out, so that every end-to-end metric is
# measured on every workload.  Probes are split into several short calls
# spread over the round: on a shared machine whose speed drifts over
# seconds, a metric is then sampled at several moments of the run.
WORKLOADS = {
    "design": [
        Optimize(10),
        Simulate(10, 400),
        Optimize(50),
        Scenario("two-critical-simultaneous", 100),
        Oracle(3, 25_000),
        Oracle(50, 2_500),
        Optimize(10, eta=1.0),
        SweepQR(50, 0.04),
        Optimize(10, eta=0.65),
        Scenario("two-critical-simultaneous", 100),
        Oracle(3, 25_000),
        Oracle(50, 2_500),
        SweepEta(10, 0.6, 1.7, 0.1),
        Simulate(10, 400),
        SweepQR(50, 0.04),
    ],
    "simulate": [
        Simulate(10, 350),
        Optimize(3, eta=1.0, epsilon=0.3),
        Oracle(3, 10_000),
        Simulate(50, 55, enhanced=True),
        SweepEta(3, 0.9, 1.3, 0.4, epsilon=0.3),
        Oracle(50, 1_000),
        Scenario("two-critical-simultaneous", 55),
        SweepQR(10, 0.04),
        Oracle(3, 10_000),
        Scenario("two-critical-during-collision", 55),
        SweepEta(3, 1.0, 1.4, 0.4, epsilon=0.3),
        SweepQR(10, 0.04),
        Oracle(50, 1_000),
    ],
    "oracle": [
        Oracle(3, 25_000),
        Optimize(3, eta=1.0, epsilon=0.3),
        Simulate(10, 180),
        Oracle(50, 2_500),
        SweepEta(3, 0.9, 1.3, 0.4, epsilon=0.3),
        Scenario("two-critical-simultaneous", 50),
        Oracle(3, 25_000),
        SweepQR(10, 0.04),
        Simulate(10, 180),
        Oracle(50, 2_500),
        SweepEta(3, 1.0, 1.4, 0.4, epsilon=0.3),
        SweepQR(10, 0.04),
        Scenario("two-critical-simultaneous", 50),
    ],
}

# end-to-end metric -> (operation group, "total" seconds per round or "rate" work/s)
END_TO_END = {
    "optimize_s": ("optimize", "total"),
    "sweep_s": ("sweep_eta", "total"),
    "qr_points_per_s": ("sweep_qr", "rate"),
    "sim_rounds_per_s": ("simulate", "rate"),
    "scenario_rounds_per_s": ("scenario", "rate"),
    "oracle_rounds_per_s": ("oracle", "rate"),
}


@dataclass
class RoundResult:
    seconds: dict = field(default_factory=dict)   # group -> timed seconds (nominal speed)
    wall_seconds: dict = field(default_factory=dict)  # group -> the same calls' wall seconds
    work: dict = field(default_factory=dict)      # group -> timed work
    attempted: int = 0
    failed: int = 0
    solutions: int = 0
    problems: list = field(default_factory=list)
    output_bytes: int = 0
    trace_bytes: int = 0
    invalid_rounds: int = 0
    wall: float = 0.0                               # wall seconds of the whole round


def run_round(ops: list, ctx: Context) -> RoundResult:
    """Run every operation of a round once; a failing check is recorded, not raised."""
    result = RoundResult()
    start = time.perf_counter()
    for index, op in enumerate(ops):
        result.attempted += op.operations
        if op.group in ("optimize", "sweep_eta"):
            result.solutions += op.operations
        mark = len(ctx.timings)
        try:
            outcome = op.run(ctx, index)
        except Incorrect as exc:
            result.problems.append(f"{op}: {exc}")
            continue
        except Exception:  # a crash of the program is an incorrect output too
            result.problems.append(f"{op}: {traceback.format_exc()}")
            continue
        result.seconds[op.group] = result.seconds.get(op.group, 0.0) + outcome.seconds
        wall = sum(timing[1] for timing in ctx.timings[mark:])
        result.wall_seconds[op.group] = result.wall_seconds.get(op.group, 0.0) + wall
        result.work[op.group] = result.work.get(op.group, 0) + outcome.work
        result.failed += sum(fault is not None for fault in outcome.faults)
        result.output_bytes += outcome.output_bytes
        result.trace_bytes += outcome.trace_bytes
        result.invalid_rounds += outcome.invalid_rounds
    result.wall = time.perf_counter() - start
    return result


def counts_per_round(rounds: list[RoundResult]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed in one round, and a problem if rounds differ.

    Every round runs the same operations, so every round must count the
    same; reporting one round keeps the counts independent of how many
    rounds fit into a run.
    """
    counts = [(r.attempted, r.failed) for r in rounds]
    problems = []
    if len(set(counts)) != 1:
        problems.append("rounds differ in operations failed/attempted: "
                        + ", ".join(f"{failed}/{attempted}" for attempted, failed in counts))
    return (*counts[0], problems)


def end_to_end(rounds: list[RoundResult], wall: bool = False) -> dict[str, float]:
    """Each workload metric over all the run's rounds: seconds per round, or work per second.

    Times are at the nominal speed, or with `wall` the raw wall-clock times.
    """
    metrics = {}
    for metric, (group, kind) in END_TO_END.items():
        seconds = sum((r.wall_seconds if wall else r.seconds).get(group, 0.0) for r in rounds)
        if kind == "total":
            metrics[metric] = seconds / len(rounds)
        else:
            work = sum(r.work.get(group, 0) for r in rounds)
            metrics[metric] = work / seconds if seconds else 0.0
    return metrics
