"""Spans and counts around calls into each layer of critmac, for traced runs.

The tracer wraps public functions by replacing module attributes (every
module that imported the function by name gets the wrapper) and restores
them afterwards; the program's source is not touched.  Spans are kept in
memory as [name, start_ns, end_ns, parent, tag] and written out when the
run ends.  A span's self time is its duration minus its children's: the
program is single-threaded, so children never overlap.

Protocol rules cost less than a microsecond per call, so they are counted,
not timed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import critmac
import critmac.cli
import critmac.design
import critmac.markov
import critmac.oracle
import critmac.protocol
import critmac.sim

_MODULES = (
    critmac, critmac.markov, critmac.design, critmac.sim,
    critmac.cli, critmac.oracle, critmac.protocol,
)


def _params_tag(args, kwargs):
    p = args[0] if args else kwargs["params"]
    return (p.n_users, p.theta, p.q, p.r)


def _round_tag(args, kwargs):
    return (args[0].seed, args[1])


def _oracle_tag(args, kwargs):
    return (args[0].n_users, args[1])


# (span name, module, attribute, tag function)
_TIMED = (
    ("markov.contention_time", critmac.markov, "contention_time", _params_tag),
    ("markov.critical_delay", critmac.markov, "critical_delay", _params_tag),
    ("markov.enhanced_critical_delay", critmac.markov, "enhanced_critical_delay", _params_tag),
    ("markov.stationary_distribution", critmac.markov, "stationary_distribution", None),
    ("markov.critical_hitting_times", critmac.markov, "critical_hitting_times", None),
    ("design.maximize_utilization", critmac.design, "maximize_utilization", None),
    ("design.solve_design_problem", critmac.design, "solve_design_problem", None),
    ("design.sweep", critmac.design, "sweep", None),
    ("sim.run_experiment", critmac.sim, "run_experiment", None),
    ("sim.simulate_two_critical", critmac.sim, "simulate_two_critical", None),
    ("sim.run_round", critmac.sim, "run_round", _round_tag),
    ("sim.write_trace_rows", critmac.sim, "write_trace_rows", None),
    ("oracle.estimate_metrics_oracle", critmac.oracle, "estimate_metrics_oracle", _oracle_tag),
)
_COUNTED = (
    ("protocol.rule_g.calls", critmac.protocol, "rule_g"),
    ("protocol.two_critical_mode_trigger.calls", critmac.protocol, "two_critical_mode_trigger"),
)


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for name, _, _ in _COUNTED}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, tag_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            tag = tag_of(args, kwargs) if tag_of else None
            span = [name, clock(), 0, stack[-1] if stack else -1, tag]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced function in every critmac module; restore on exit."""
        undo = []

        def patch(original, wrapper):
            for mod in _MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        for name, mod, attr, tag_of in _TIMED:
            original = getattr(mod, attr)
            patch(original, self.wrap(name, original, tag_of))
        for name, mod, attr in _COUNTED:
            original = getattr(mod, attr)
            patch(original, self._counter(name, original))
        engine = critmac.sim.SlotEngine
        undo.append((engine, "step", engine.step))
        engine.step = self.wrap("sim.step", engine.step)
        try:
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,tag\n")
            for sid, (name, start, end, parent, tag) in enumerate(self.spans):
                if tag is None or isinstance(tag, str):
                    tag_text = tag or ""
                else:
                    tag_text = " ".join(map(repr, tag))
                fh.write(f"{sid},{name},{start},{end},{parent},{tag_text}\n")


def layer_metrics(tracer: Tracer, solutions: int) -> dict[str, float]:
    """Per-layer metrics from one traced round.

    `solutions` is the number of design solutions the round asked for (each
    optimize command and each eta-sweep row).  Spans are grouped by their
    root, the `cli.main` span of the command (tagged with the operation
    kind) or the oracle call.
    """
    spans = tracer.spans
    child = [0] * len(spans)
    root = [0] * len(spans)
    for sid, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[sid] = root[parent]
        else:
            root[sid] = sid

    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)  # by layer
    evals: dict[int, list] = defaultdict(list)   # design solution command -> markov keys
    round_runs: dict[tuple, int] = defaultdict(int)
    oracle_ns: dict[int, int] = defaultdict(int)
    oracle_rounds: dict[int, int] = defaultdict(int)
    for sid, (name, start, end, _, tag) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total_ns[name] += dur
        self_ns[name.split(".")[0]] += dur - child[sid]
        root_tag = spans[root[sid]][4]
        if name in ("markov.contention_time", "markov.critical_delay") and root_tag in (
            "optimize", "sweep_eta"
        ):
            evals[root[sid]].append((name, *tag))
        elif name == "sim.run_round" and root_tag == "scenario":
            round_runs[(root[sid], *tag)] += 1
        elif name == "oracle.estimate_metrics_oracle":
            oracle_ns[tag[0]] += dur
            oracle_rounds[tag[0]] += tag[1]

    def mean_us(name: str) -> float:
        return total_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    def per_round_us(n: int) -> float:
        return oracle_ns[n] / oracle_rounds[n] / 1e3 if oracle_rounds[n] else 0.0

    eval_calls = sum(len(keys) for keys in evals.values())
    distinct = sum(len(set(keys)) for keys in evals.values())
    return {
        "markov.contention_time.calls": calls["markov.contention_time"],
        "markov.contention_time.us": mean_us("markov.contention_time"),
        "markov.critical_delay.calls": calls["markov.critical_delay"],
        "markov.critical_delay.us": mean_us("markov.critical_delay"),
        "markov.stationary_distribution.us": mean_us("markov.stationary_distribution"),
        "markov.critical_hitting_times.us": mean_us("markov.critical_hitting_times"),
        "design.self_s": self_ns["design"] / 1e9,
        "design.evals_per_solution": eval_calls / solutions if solutions else 0.0,
        "design.unique_eval_ratio": distinct / eval_calls if eval_calls else 0.0,
        "sim.slots": calls["sim.step"],
        "sim.step.us": mean_us("sim.step"),
        "sim.run_round.us": mean_us("sim.run_round"),
        "sim.round_runs_per_round": (
            sum(round_runs.values()) / len(round_runs) if round_runs else 0.0
        ),
        "sim.write_trace_rows.s": total_ns["sim.write_trace_rows"] / 1e9,
        "protocol.rule_g.calls": tracer.counts["protocol.rule_g.calls"],
        "protocol.two_critical_mode_trigger.calls":
            tracer.counts["protocol.two_critical_mode_trigger.calls"],
        "oracle.n3.us_per_round": per_round_us(3),
        "oracle.n50.us_per_round": per_round_us(50),
        "cli.self_s": self_ns["cli"] / 1e9,
    }
