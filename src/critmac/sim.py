"""Slot-level Monte Carlo simulation of the protocol.

Each round simulates a normal phase of fixed length (all users carrying
normal traffic, initial observation idle) followed by a critical phase in
which one user (or two, in the two-critical scenarios) receives critical
traffic and the round runs until that traffic completes.  Per-slot feedback
follows the collision-channel rules: no transmitter -> everyone observes
idle; one transmitter -> it observes success, everyone else busy; several ->
transmitters observe failure, the rest busy.

Randomness: each round draws from its own counter-based Philox stream keyed
by (seed, round_index), with a fixed draw order inside the round (critical
user, traffic lengths, then one uniform per user per slot).  Rounds are
therefore reproducible independently and in any order.

Metric estimation from the normal phase:

* T_s uses the run-continuation estimator: every success slot whose next
  slot is still inside the phase is a Bernoulli trial of the run stopping,
  so T_s = trials / stops.  This is unbiased; a plain mean over completed
  run lengths is not, because runs starting near the phase end complete
  only if they are short.
* T_c averages completed contention periods whose initial idle slot occurs
  at least TC_START_MARGIN slots before the phase end, which removes the
  same late-start conditioning (periods are short-tailed, so the residual
  truncation effect is negligible).
* C_norm is the raw fraction of success slots over the whole phase, which
  matches the published simulation convention and carries a small
  initialization transient at low theta.
* D_crit counts the first critical user's failure slots in its critical
  phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import IO

import math
import numpy as np

from .errors import BadParams, ScenarioUnsatisfiable
from .protocol import (
    BUSY,
    CRITICAL,
    FAILURE,
    IDLE,
    NORMAL,
    SUCCESS,
    EnhancementConfig,
    Observation,
    ProtocolParams,
    TrafficType,
    UserState,
    two_critical_mode_trigger,
    user_transmission_probability,
)

TC_START_MARGIN = 30
_MAX_CRITICAL_SLOTS = 100_000
_SCENARIO_TAIL_SLOTS = 3


class Scenario(Enum):
    SINGLE_CRITICAL = "single"
    TWO_CRITICAL_DURING_SUCCESS = "two-critical-during-success"
    TWO_CRITICAL_SIMULTANEOUS = "two-critical-simultaneous"
    TWO_CRITICAL_DURING_COLLISION = "two-critical-during-collision"


TWO_CRITICAL_SCENARIOS = (
    Scenario.TWO_CRITICAL_DURING_SUCCESS,
    Scenario.TWO_CRITICAL_SIMULTANEOUS,
    Scenario.TWO_CRITICAL_DURING_COLLISION,
)


@dataclass(frozen=True)
class CriticalTrafficModel:
    """Distribution of the critical-traffic length X (in packets = slots).

    Under a non-intrusive protocol the delay metrics do not depend on X, so
    the default Fixed(20) only sets trace lengths; Geometric(mean) is
    offered for more realistic traces.  Realized lengths are always >= 1.
    """

    kind: str
    value: float

    @staticmethod
    def fixed(length: int) -> "CriticalTrafficModel":
        if length < 1:
            raise BadParams("fixed critical-traffic length must be >= 1")
        return CriticalTrafficModel("fixed", float(length))

    @staticmethod
    def geometric(mean: float) -> "CriticalTrafficModel":
        if mean < 1.0:
            raise BadParams("geometric critical-traffic mean must be >= 1")
        return CriticalTrafficModel("geometric", float(mean))

    def draw(self, rng: np.random.Generator) -> int:
        if self.kind == "fixed":
            return int(self.value)
        return int(rng.geometric(1.0 / self.value))


@dataclass(frozen=True)
class SimConfig:
    params: ProtocolParams
    enhancement: EnhancementConfig = EnhancementConfig()
    normal_phase_slots: int = 100
    rounds: int = 1000
    traffic_model: CriticalTrafficModel = CriticalTrafficModel.fixed(20)
    seed: int = 0
    scenario: Scenario = Scenario.SINGLE_CRITICAL

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise BadParams("rounds must be >= 1")
        if self.normal_phase_slots < 1:
            raise BadParams("normal_phase_slots must be >= 1")
        if self.scenario in TWO_CRITICAL_SCENARIOS and self.params.n_users < 2:
            raise BadParams("two-critical scenarios need at least 2 users")
        if self.params.r == 1.0 and self.params.n_users >= 2 and not self.enhancement.enabled:
            raise BadParams(
                "r = 1 needs the enhanced rules: colliding users never back off, "
                "so a critical phase with a collision never ends"
            )


@dataclass(frozen=True)
class SlotRecord:
    slot: int
    phase: str  # "normal" | "critical"
    actions: tuple[bool, ...]
    observations: tuple[Observation, ...]
    traffic: tuple[TrafficType, ...]

    @property
    def transmitters(self) -> int:
        return sum(self.actions)


@dataclass
class SlotTrace:
    round_index: int
    records: list[SlotRecord] = field(default_factory=list)
    # (slot, event, user); events: critical_arrival, g_entry, g_revert, completion
    events: list[tuple[int, str, int]] = field(default_factory=list)


@dataclass
class RoundStats:
    """Per-round raw material for the experiment-level estimators."""

    contention_lengths: list[int] = field(default_factory=list)
    contention_starts: list[int] = field(default_factory=list)  # slot of each period's idle slot
    normal_successes: int = 0
    normal_slots: int = 0
    ts_trials: int = 0
    ts_stops: int = 0
    critical_collisions: int = 0
    critical_phase_slots: int = 0


class SlotEngine:
    """Steps N users through slots, maintaining each user's protocol state.

    The engine owns the per-user states and the feedback bookkeeping; round
    structure (phase lengths, critical arrivals) is driven from outside via
    :meth:`set_critical` and :meth:`step`.  Two-critical inference (mode
    switching to ``rule_g``) runs only when ``two_critical_inference`` is
    set, which the scenario runner enables; single-critical experiments
    never evaluate those triggers.
    """

    def __init__(
        self,
        params: ProtocolParams,
        enhancement: EnhancementConfig,
        rng: np.random.Generator,
        *,
        two_critical_inference: bool = False,
    ):
        self.params = params
        self.enh = enhancement
        self.rng = rng
        self.two_critical_inference = two_critical_inference
        self.users = [UserState() for _ in range(params.n_users)]
        self.slot = 0
        self.events: list[tuple[int, str, int]] = []

    def set_critical(self, user: int, packets: int) -> None:
        """Mark a user critical with `packets` slots of traffic, effective next slot."""
        u = self.users[user]
        if packets < 1:
            raise BadParams("critical traffic needs at least one packet")
        if u.traffic is CRITICAL:
            raise BadParams(f"user {user} is already critical")
        u.traffic = CRITICAL
        u.critical_remaining = packets
        u.critical_window = [u.last_observation]
        self.events.append((self.slot + 1, "critical_arrival", user))

    def step(self, phase: str = "normal") -> SlotRecord:
        self.slot += 1
        users = self.users
        n = len(users)
        draws = self.rng.random(n)
        params, enh = self.params, self.enh
        actions = tuple(
            bool(d < user_transmission_probability(params, enh, u)) for d, u in zip(draws, users)
        )
        k = sum(actions)
        traffic_now = tuple(u.traffic for u in users)

        observations = []
        completed = []
        for i, u in enumerate(users):
            if actions[i]:
                obs = SUCCESS if k == 1 else FAILURE
            else:
                obs = IDLE if k == 0 else BUSY
            observations.append(obs)
            u.prev_observation = u.last_observation
            u.last_observation = obs
            u.consecutive_failures = (
                u.consecutive_failures + 1 if obs is FAILURE else 0
            )
            if u.two_crit_mode:
                u.g_observation = obs
            if u.traffic is CRITICAL:
                if self.two_critical_inference:
                    u.critical_window.append(obs)
                if obs is SUCCESS:
                    u.critical_remaining -= 1
                    if u.critical_remaining == 0:
                        completed.append(i)
            if (
                u.yield_after_idle
                and u.traffic is NORMAL
                and u.prev_observation is IDLE
            ):
                u.yield_after_idle = False  # the owed wait slot was just taken

        for u in users:
            u.prev_traffic = u.traffic
        for i in completed:
            u = users[i]
            if u.two_crit_mode:
                u.yield_after_idle = True
            u.traffic = NORMAL
            u.two_crit_mode = False
            u.critical_window = []
            self.events.append((self.slot, "completion", i))

        if self.two_critical_inference:
            for i, u in enumerate(users):
                if u.traffic is not CRITICAL:
                    continue
                if not u.two_crit_mode and two_critical_mode_trigger(u, self.enh, u.critical_window):
                    u.two_crit_mode = True
                    u.g_observation = IDLE
                    self.events.append((self.slot + 1, "g_entry", i))
                elif (
                    u.two_crit_mode
                    and u.prev_observation is SUCCESS
                    and u.last_observation is IDLE
                ):
                    # alternation broke on an idle slot: the partner finished,
                    # so behave like a fresh critical arrival again
                    u.two_crit_mode = False
                    u.consecutive_failures = 0
                    u.critical_window = [u.last_observation]
                    self.events.append((self.slot + 1, "g_revert", i))

        return SlotRecord(
            slot=self.slot,
            phase=phase,
            actions=actions,
            observations=tuple(observations),
            traffic=traffic_now,
        )


def _round_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, round_index))))


def _normal_phase_stats(success_flags: list[bool]) -> RoundStats:
    """Segment the normal phase into runs and contention periods."""
    stats = RoundStats()
    w = len(success_flags)
    stats.normal_slots = w
    stats.normal_successes = sum(success_flags)
    stats.ts_trials = sum(success_flags[:-1])
    stats.ts_stops = sum(
        1 for t in range(w - 1) if success_flags[t] and not success_flags[t + 1]
    )
    i = 0
    while i < w and not success_flags[i]:
        i += 1  # leading contention has no preceding run: not a contention period
    while i < w:
        j = i
        while j < w and success_flags[j]:
            j += 1
        k = j
        while k < w and not success_flags[k]:
            k += 1
        if j < w and k < w:
            stats.contention_lengths.append(k - j)
            stats.contention_starts.append(j + 1)  # slots are 1-based
        i = k
    return stats


def run_round(
    cfg: SimConfig, round_index: int, *, keep_trace: bool = True
) -> tuple[SlotTrace, RoundStats]:
    """Simulate one round: a normal phase, then the scenario's critical phase."""
    rng = _round_rng(cfg.seed, round_index)
    n = cfg.params.n_users
    two_crit = cfg.scenario in TWO_CRITICAL_SCENARIOS
    if two_crit and not cfg.enhancement.enabled:
        raise ScenarioUnsatisfiable("two-critical scenarios require the enhanced rules")

    first = int(rng.integers(n))
    if two_crit:
        second = int((first + 1 + rng.integers(n - 1)) % n)
        lengths = (cfg.traffic_model.draw(rng), cfg.traffic_model.draw(rng))
    else:
        second = -1
        lengths = (cfg.traffic_model.draw(rng),)

    engine = SlotEngine(
        cfg.params, cfg.enhancement, rng, two_critical_inference=two_crit
    )
    trace = SlotTrace(round_index=round_index)
    success_flags = []
    last_transmitters = 0
    for _ in range(cfg.normal_phase_slots):
        rec = engine.step("normal")
        success_flags.append(rec.transmitters == 1)
        last_transmitters = rec.transmitters
        if keep_trace:
            trace.records.append(rec)
    stats = _normal_phase_stats(success_flags)

    if cfg.scenario is Scenario.TWO_CRITICAL_SIMULTANEOUS:
        # start from a collision-free boundary so both users carry zero
        # failure counts into the phase (the canonical simultaneous case)
        guard = 0
        while last_transmitters >= 2:
            rec = engine.step("normal")
            last_transmitters = rec.transmitters
            if keep_trace:
                trace.records.append(rec)
            guard += 1
            if guard > 1000:
                raise RuntimeError("no collision-free boundary found")

    engine.set_critical(first, lengths[0])
    injected = False
    if cfg.scenario is Scenario.TWO_CRITICAL_SIMULTANEOUS:
        engine.set_critical(second, lengths[1])
        injected = True

    u_first = engine.users[first]
    while True:
        if two_crit and not injected:
            # inject only on an in-phase observation (critical_window holds the
            # pre-arrival slot plus one entry per critical-phase slot)
            in_phase = (
                u_first.traffic is CRITICAL
                and len(u_first.critical_window) >= 2
            )
            if cfg.scenario is Scenario.TWO_CRITICAL_DURING_SUCCESS:
                ready = in_phase and u_first.last_observation is SUCCESS
            else:  # during collision
                ready = in_phase and u_first.last_observation is FAILURE
            if ready:
                engine.set_critical(second, lengths[1])
                injected = True
        any_critical = any(u.traffic is CRITICAL for u in engine.users)
        if not any_critical:
            break
        rec = engine.step("critical")
        stats.critical_phase_slots += 1
        if rec.actions[first] and rec.observations[first] is FAILURE:
            stats.critical_collisions += 1
        if keep_trace:
            trace.records.append(rec)
        if stats.critical_phase_slots > _MAX_CRITICAL_SLOTS:
            raise RuntimeError("critical phase failed to terminate")
        if two_crit and not injected and u_first.traffic is NORMAL:
            break  # scenario condition never occurred before completion

    if two_crit and injected:
        for _ in range(_SCENARIO_TAIL_SLOTS):
            rec = engine.step("normal")
            if keep_trace:
                trace.records.append(rec)
    trace.events = engine.events
    return trace, stats


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated metrics over all rounds, with standard errors."""

    t_s: float
    t_s_se: float
    t_c: float
    t_c_se: float
    c_norm: float
    c_norm_se: float
    d_crit: float
    d_crit_se: float
    max_d_crit: int
    rounds: int


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = float(values.mean())
    if len(values) < 2:
        return m, math.inf
    return m, float(values.std(ddof=1) / math.sqrt(len(values)))


def run_experiment(cfg: SimConfig, trace_sink: IO[str] | None = None) -> ExperimentResult:
    """Run cfg.rounds rounds and aggregate the Table-style metrics.

    With ``trace_sink`` set, every slot of every round is streamed to it in
    the documented trace format (see :func:`write_trace_header`).
    """
    trials = stops = 0
    tc_samples: list[int] = []
    all_periods: list[int] = []
    fractions = np.empty(cfg.rounds)
    collisions = np.empty(cfg.rounds)
    margin = cfg.normal_phase_slots - TC_START_MARGIN
    keep_trace = trace_sink is not None
    if keep_trace:
        write_trace_header(trace_sink, cfg.params.n_users)
    for idx in range(cfg.rounds):
        trace, st = run_round(cfg, idx, keep_trace=keep_trace)
        if keep_trace:
            write_trace_rows(trace_sink, trace)
        trials += st.ts_trials
        stops += st.ts_stops
        all_periods.extend(st.contention_lengths)
        tc_samples.extend(
            ln for ln, s in zip(st.contention_lengths, st.contention_starts) if s <= margin
        )
        fractions[idx] = st.normal_successes / st.normal_slots
        collisions[idx] = st.critical_collisions

    # T_s = trials/stops inverts the estimated run-stop probability; its SE
    # follows from the binomial variance of the stop count by the delta method.
    t_s = trials / stops if stops else math.inf
    theta_hat = stops / trials if trials else math.nan
    t_s_se = (
        math.sqrt(theta_hat * (1.0 - theta_hat) / trials) / theta_hat**2
        if trials and stops
        else math.inf
    )
    if not tc_samples and all_periods:
        tc_samples = all_periods  # phase too short for the start margin
    tc_arr = np.asarray(tc_samples, dtype=float)
    t_c, t_c_se = _mean_se(tc_arr) if len(tc_arr) else (math.nan, math.inf)
    c_norm, c_norm_se = _mean_se(fractions)
    d_crit, d_crit_se = _mean_se(collisions)
    return ExperimentResult(
        t_s=t_s,
        t_s_se=t_s_se,
        t_c=t_c,
        t_c_se=t_c_se,
        c_norm=c_norm,
        c_norm_se=c_norm_se,
        d_crit=d_crit,
        d_crit_se=d_crit_se,
        max_d_crit=int(collisions.max()),
        rounds=cfg.rounds,
    )


# --- trace export -----------------------------------------------------------

_OBS_CODE = {
    Observation.IDLE: "idle",
    Observation.BUSY: "busy",
    Observation.SUCCESS: "success",
    Observation.FAILURE: "failure",
}


def trace_columns(n_users: int) -> list[str]:
    cols = ["round", "slot", "phase"]
    for i in range(n_users):
        cols += [f"action_{i}", f"obs_{i}", f"traffic_{i}"]
    return cols


def write_trace_header(sink: IO[str], n_users: int) -> None:
    sink.write(",".join(trace_columns(n_users)) + "\n")


def write_trace_rows(sink: IO[str], trace: SlotTrace) -> None:
    for rec in trace.records:
        fields = [str(trace.round_index), str(rec.slot), rec.phase]
        for act, obs, z in zip(rec.actions, rec.observations, rec.traffic):
            fields += ["T" if act else "W", _OBS_CODE[obs], z.value]
        sink.write(",".join(fields) + "\n")


# --- two-critical scenarios --------------------------------------------------


@dataclass
class ScenarioRoundReport:
    round_index: int
    injected: bool
    arrival_slots: tuple[int, int] | None = None
    g_entry_slots: dict[int, int] = field(default_factory=dict)
    first_joint_g_slot: int | None = None
    first_shared_success_slot: int | None = None
    critical_collisions: int = 0
    completion_order: list[int] = field(default_factory=list)
    completion_slots: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


@dataclass
class ScenarioSummary:
    scenario: Scenario
    requested_rounds: int
    attempted_rounds: int
    reports: list[ScenarioRoundReport]

    @property
    def valid_reports(self) -> list[ScenarioRoundReport]:
        return [r for r in self.reports if r.injected]

    @property
    def violation_count(self) -> int:
        return sum(len(r.violations) for r in self.reports)


def _verify_two_critical_round(
    cfg: SimConfig, trace: SlotTrace, users: tuple[int, int]
) -> ScenarioRoundReport:
    """Check one scenario round against the dynamics the rule set guarantees.

    Deterministic consequences asserted here: both critical users switch to
    rule_g within backoff_bound + 2 slots of coexistence (exactly after
    backoff_bound + 1 collisions in the simultaneous case); the criticals
    collide at least once while coexisting; from the first single-critical
    success with both users in g-mode, successes alternate strictly between
    the two until the first completes; the slot after the first completion
    is a success by the survivor, the next slot is idle, and the finished
    user waits in the slot after that idle slot.
    """
    report = ScenarioRoundReport(round_index=trace.round_index, injected=True)
    u1, u2 = users
    b = cfg.enhancement.backoff_bound
    arrivals = {u: s for s, ev, u in trace.events if ev == "critical_arrival"}
    entries: dict[int, int] = {}
    for s, ev, u in trace.events:  # first entry per user (a survivor may re-enter)
        if ev == "g_entry" and u in (u1, u2) and u not in entries:
            entries[u] = s
    completions = [(s, u) for s, ev, u in trace.events if ev == "completion"]
    report.arrival_slots = (arrivals[u1], arrivals[u2])
    report.g_entry_slots = entries
    report.completion_order = [u for _, u in completions]
    report.completion_slots = [s for s, _ in completions]
    a2 = arrivals[u2]
    rec_at = {rec.slot: rec for rec in trace.records}

    if u1 not in entries or u2 not in entries:
        report.violations.append("a critical user never entered rule-g mode")
        return report
    joint = max(entries.values())
    report.first_joint_g_slot = joint
    if joint - a2 > b + 2:
        report.violations.append(
            f"rule-g inference took {joint - a2} slots, bound is {b + 2}"
        )
    if cfg.scenario is Scenario.TWO_CRITICAL_SIMULTANEOUS:
        # entry exactly one slot after the consecutive-collision count first
        # reaches b + 1 (failure runs may have begun before the arrival)
        for u in (u1, u2):
            count, hit = 0, None
            for rec in trace.records:
                count = count + 1 if rec.observations[u] is Observation.FAILURE else 0
                if count == b + 1:
                    hit = rec.slot
                    break
            if hit is None or entries[u] != hit + 1:
                report.violations.append(
                    f"user {u} entered rule-g at slot {entries[u]}, expected one slot "
                    f"after its collision count reached {b + 1} (slot {hit})"
                )
    if cfg.scenario is Scenario.TWO_CRITICAL_DURING_SUCCESS:
        # the interrupted run owner reacts to its (success, failure) at once
        if entries[u1] != a2 + 1:
            report.violations.append(
                f"run owner entered rule-g at slot {entries[u1]}, expected {a2 + 1}"
            )

    # collisions between the two criticals while both are critical
    first_completion = completions[0][0]
    both_critical = range(a2, first_completion + 1)
    n_coll = sum(
        1
        for s in both_critical
        if s in rec_at and rec_at[s].actions[u1] and rec_at[s].actions[u2]
    )
    report.critical_collisions = n_coll
    if n_coll < 1:
        report.violations.append("the two critical users never collided")

    # first solo success by a critical user once both run rule_g
    shared = None
    for s in range(joint, first_completion + 1):
        rec = rec_at[s]
        if rec.transmitters == 1 and (rec.actions[u1] or rec.actions[u2]):
            shared = s
            break
    report.first_shared_success_slot = shared
    if shared is None:
        report.violations.append("no critical success after both entered rule-g")
        return report
    expect = u1 if rec_at[shared].actions[u1] else u2
    for s in range(shared, first_completion + 1):
        rec = rec_at[s]
        other = u2 if expect == u1 else u1
        if not (rec.actions[expect] and not rec.actions[other] and rec.transmitters == 1):
            report.violations.append(f"alternation broken at slot {s}")
            break
        expect = other

    finisher = completions[0][1]
    survivor = u2 if finisher == u1 else u1
    s1, s2, s3 = first_completion + 1, first_completion + 2, first_completion + 3
    if not (
        s1 in rec_at
        and rec_at[s1].actions[survivor]
        and rec_at[s1].transmitters == 1
    ):
        report.violations.append("survivor did not take the slot after the first completion")
    if not (s2 in rec_at and rec_at[s2].transmitters == 0):
        report.violations.append("no idle slot after the handover success")
    if s3 in rec_at and rec_at[s3].actions[finisher]:
        report.violations.append("finished user transmitted in the slot after the idle slot")
    return report


def simulate_two_critical(
    cfg: SimConfig, trace_sink: IO[str] | None = None
) -> ScenarioSummary:
    """Run and verify two-critical rounds until cfg.rounds valid rounds accrue.

    A round is valid when the second critical event could be injected (the
    during-success / during-collision conditions are state-dependent, so a
    round may end before its condition occurs); invalid rounds are reported
    but carry no verification.  At most 5 * cfg.rounds rounds are attempted.
    Raises ScenarioUnsatisfiable when the enhancement is disabled, since the
    inference rules rely on it.  With ``trace_sink`` set, every slot of
    every attempted round is streamed to it in the documented trace format.
    """
    if cfg.scenario not in TWO_CRITICAL_SCENARIOS:
        raise BadParams(f"scenario {cfg.scenario} is not a two-critical scenario")
    if not cfg.enhancement.enabled:
        raise ScenarioUnsatisfiable("two-critical inference requires the enhanced rules")
    if trace_sink is not None:
        write_trace_header(trace_sink, cfg.params.n_users)
    reports: list[ScenarioRoundReport] = []
    valid = 0
    idx = 0
    while valid < cfg.rounds and idx < 5 * cfg.rounds:
        trace, _ = run_round(cfg, idx, keep_trace=True)
        if trace_sink is not None:
            write_trace_rows(trace_sink, trace)
        arrivals = {u for _, ev, u in trace.events if ev == "critical_arrival"}
        if len(arrivals) < 2:
            reports.append(ScenarioRoundReport(round_index=idx, injected=False))
        else:
            first = next(u for s, ev, u in sorted(trace.events) if ev == "critical_arrival")
            second = next(u for u in arrivals if u != first)
            reports.append(_verify_two_critical_round(cfg, trace, (first, second)))
            valid += 1
        idx += 1
    if valid < cfg.rounds:
        raise ScenarioUnsatisfiable(
            f"only {valid} of {cfg.rounds} rounds admitted the scenario injection"
        )
    return ScenarioSummary(
        scenario=cfg.scenario, requested_rounds=cfg.rounds, attempted_rounds=idx, reports=reports
    )
