"""Reference slot engine for the property tests: one user at a time.

This is the simulator's earlier per-user engine, kept only as a test
oracle for the array engine in `critmac.sim`.  Each user carries a
`UserState`; every slot loops over the users in Python, applies the rule
stack written out as scalar branches, and keeps the two-critical
inference window as a list of observations.  `run_round` drives one round
through the same structure and draw order as the simulator (critical user,
traffic lengths, then one uniform per user per slot), so a round's `Slot`s,
events and `RoundStats` must match the array engine's trace, decoded,
exactly: `milestones` reduces the events to the engine's arrival, entry
and completion arrays, and `batch_stats` reads a one-round batch's
`RoundStats`.  `as_arrays` gives reference states to the array rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from critmac.errors import BadParams
from critmac.protocol import (
    BUSY,
    CRITICAL,
    FAILURE,
    IDLE,
    NORMAL,
    OBSERVATIONS,
    SUCCESS,
    EnhancementConfig,
    Observation,
    ProtocolParams,
    TrafficType,
    UserArrays,
)
from critmac.sim import (
    _MAX_CRITICAL_SLOTS,
    _SCENARIO_TAIL_SLOTS,
    TWO_CRITICAL_SCENARIOS,
    Scenario,
    SimConfig,
    _normal_phase_stats,
)


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


def batch_stats(batch) -> RoundStats:
    """The statistics of the array engine's one-round batch."""
    ph = _normal_phase_stats(batch.flags)
    return RoundStats(
        contention_lengths=ph.period_length.tolist(),
        contention_starts=ph.period_start.tolist(),
        normal_successes=int(ph.successes[0]),
        normal_slots=batch.flags.shape[1],
        ts_trials=int(ph.trials[0]),
        ts_stops=int(ph.stops[0]),
        critical_collisions=int(batch.collisions[0]),
        critical_phase_slots=int(batch.critical_phase[:, 0].sum()),
    )


def milestones(events: list[tuple[int, str, int]], n_users: int) -> list[list[list[int]]]:
    """A round's events as the engine's (1, users) arrived, entered and finished slots (0: none).

    Arrivals and completions keep each user's last slot, entries its first;
    reverts are not kept.
    """
    kinds = ("critical_arrival", "g_entry", "completion")
    arrays = [[0] * n_users for _ in kinds]
    for slot, kind, user in events:
        if kind in kinds:
            row = arrays[kinds.index(kind)]
            if kind != "g_entry" or not row[user]:
                row[user] = slot
    return [[row] for row in arrays]


@dataclass
class UserState:
    """Everything a single user remembers between slots.

    last_observation / prev_observation are the observations of the previous
    two slots; consecutive_failures is the length of the current run of
    failure observations.  g_observation is the separate one-slot memory used
    while two_crit_mode is active (initialized to idle on mode entry).  The
    array engine keeps no separate rule-g memory: its rule g reads the last
    observation, which entry resets to idle (see `as_arrays`).
    critical_window records the observations around a critical arrival
    (one slot before it plus the first slots of the critical phase), which
    the two-critical inference reads. yield_after_idle marks a user that
    finished critical traffic during a shared (two-critical) phase and still
    owes one wait slot after the next idle slot.
    """

    last_observation: Observation = IDLE
    prev_observation: Observation = IDLE
    consecutive_failures: int = 0
    traffic: TrafficType = NORMAL
    prev_traffic: TrafficType = NORMAL
    critical_remaining: int = 0
    two_crit_mode: bool = False
    g_observation: Observation = IDLE
    yield_after_idle: bool = False
    critical_window: list[Observation] = field(default_factory=list)


@dataclass(frozen=True)
class Slot:
    """One slot of a round: its phase and each user's action, observation and traffic."""

    slot: int
    phase: str  # "normal" | "critical"
    actions: tuple[bool, ...]
    observations: tuple[Observation, ...]
    traffic: tuple[TrafficType, ...]

    @property
    def transmitters(self) -> int:
        return sum(self.actions)


_RULE_G = {IDLE: 1.0, BUSY: 1.0, SUCCESS: 0.0, FAILURE: 0.5}


def probability(params: ProtocolParams, cfg: EnhancementConfig, u: UserState) -> float:
    """The rule stack, one user, as scalar branches."""
    if u.traffic is CRITICAL:
        return _RULE_G[u.g_observation] if u.two_crit_mode else 1.0
    last = u.last_observation
    if cfg.enabled:
        if u.prev_observation is SUCCESS and last is FAILURE:
            return 0.0
        if u.consecutive_failures >= cfg.backoff_bound:
            return 0.0
        if cfg.suppress_after_critical and u.prev_traffic is CRITICAL:
            return 0.0
        if u.yield_after_idle and last is IDLE:
            return 0.0
    if last is IDLE:
        return params.q
    if last is BUSY:
        return 0.0
    if last is SUCCESS:
        return 1.0 - params.theta
    return params.r


def success_failure(window: list[Observation]) -> bool:
    """An own success then a failure in the window, the slot before the arrival not counted."""
    return any(a is SUCCESS and b is FAILURE for a, b in zip(window[1:], window[2:]))


def triggered(u: UserState, cfg: EnhancementConfig) -> bool:
    """Two-critical inference from the user's failure run and observation window."""
    return u.consecutive_failures >= cfg.backoff_bound + 1 or success_failure(u.critical_window)


def as_arrays(states: list[list[UserState]]) -> UserArrays:
    """Users' states, a list of rows of users, as the array rules' `UserArrays`."""

    def column(value, dtype):
        return np.array([[value(u) for u in row] for row in states], dtype=dtype)

    def codes(obs):
        return column(lambda u: OBSERVATIONS.index(obs(u)), np.int8)

    # the array engine's rule g reads `last`
    return UserArrays(
        last=codes(lambda u: u.g_observation if u.two_crit_mode else u.last_observation),
        prev=codes(lambda u: u.prev_observation),
        failures=column(lambda u: u.consecutive_failures, np.int64),
        critical=column(lambda u: u.traffic is CRITICAL, bool),
        prev_critical=column(lambda u: u.prev_traffic is CRITICAL, bool),
        remaining=column(lambda u: u.critical_remaining, np.int64),
        g_mode=column(lambda u: u.two_crit_mode, bool),
        yield_after_idle=column(lambda u: u.yield_after_idle, bool),
    )


class ReferenceEngine:
    """Steps N users through slots of one round, one `UserState` each."""

    def __init__(self, params, enhancement, rng, *, two_critical_inference=False):
        self.params = params
        self.enh = enhancement
        self.rng = rng
        self.two_critical_inference = two_critical_inference
        self.users = [UserState() for _ in range(params.n_users)]
        self.slot = 0
        self.events: list[tuple[int, str, int]] = []

    def set_critical(self, user: int, packets: int) -> None:
        u = self.users[user]
        if packets < 1:
            raise BadParams("critical traffic needs at least one packet")
        if u.traffic is CRITICAL:
            raise BadParams(f"user {user} is already critical")
        u.traffic = CRITICAL
        u.critical_remaining = packets
        u.critical_window = [u.last_observation]
        self.events.append((self.slot + 1, "critical_arrival", user))

    def step(self, phase: str = "normal") -> Slot:
        self.slot += 1
        users = self.users
        draws = self.rng.random(len(users))
        actions = tuple(
            bool(d < probability(self.params, self.enh, u)) for d, u in zip(draws, users)
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
            u.consecutive_failures = u.consecutive_failures + 1 if obs is FAILURE else 0
            if u.two_crit_mode:
                u.g_observation = obs
            if u.traffic is CRITICAL:
                if self.two_critical_inference:
                    u.critical_window.append(obs)
                if obs is SUCCESS:
                    u.critical_remaining -= 1
                    if u.critical_remaining == 0:
                        completed.append(i)
            if u.yield_after_idle and u.traffic is NORMAL and u.prev_observation is IDLE:
                u.yield_after_idle = False

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
                if not u.two_crit_mode and triggered(u, self.enh):
                    u.two_crit_mode = True
                    u.g_observation = IDLE
                    self.events.append((self.slot + 1, "g_entry", i))
                elif (
                    u.two_crit_mode
                    and u.prev_observation is SUCCESS
                    and u.last_observation is IDLE
                ):
                    u.two_crit_mode = False
                    u.consecutive_failures = 0
                    u.critical_window = [u.last_observation]
                    self.events.append((self.slot + 1, "g_revert", i))

        return Slot(
            slot=self.slot,
            phase=phase,
            actions=actions,
            observations=tuple(observations),
            traffic=traffic_now,
        )


def normal_phase_stats(success_flags: list[bool]) -> RoundStats:
    stats = RoundStats()
    w = len(success_flags)
    stats.normal_slots = w
    stats.normal_successes = sum(success_flags)
    stats.ts_trials = sum(success_flags[:-1])
    stats.ts_stops = sum(1 for t in range(w - 1) if success_flags[t] and not success_flags[t + 1])
    i = 0
    while i < w and not success_flags[i]:
        i += 1
    while i < w:
        j = i
        while j < w and success_flags[j]:
            j += 1
        k = j
        while k < w and not success_flags[k]:
            k += 1
        if j < w and k < w:
            stats.contention_lengths.append(k - j)
            stats.contention_starts.append(j + 1)
        i = k
    return stats


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    """A round's generator as the seed contract defines it, one SeedSequence per round."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, round_index))))


def run_round(cfg: SimConfig, round_index: int):
    """One round: (slots, events, RoundStats)."""
    rng = round_rng(cfg.seed, round_index)
    n = cfg.params.n_users
    two_crit = cfg.scenario in TWO_CRITICAL_SCENARIOS

    first = int(rng.integers(n))
    if two_crit:
        second = int((first + 1 + rng.integers(n - 1)) % n)
        lengths = (cfg.traffic_model.draw(rng), cfg.traffic_model.draw(rng))
    else:
        second = -1
        lengths = (cfg.traffic_model.draw(rng),)

    engine = ReferenceEngine(cfg.params, cfg.enhancement, rng, two_critical_inference=two_crit)
    slots = []
    success_flags = []
    last_transmitters = 0
    for _ in range(cfg.normal_phase_slots):
        slot = engine.step("normal")
        success_flags.append(slot.transmitters == 1)
        last_transmitters = slot.transmitters
        slots.append(slot)
    stats = normal_phase_stats(success_flags)

    if cfg.scenario is Scenario.TWO_CRITICAL_SIMULTANEOUS:
        guard = 0
        while last_transmitters >= 2:
            slot = engine.step("normal")
            last_transmitters = slot.transmitters
            slots.append(slot)
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
            in_phase = u_first.traffic is CRITICAL and len(u_first.critical_window) >= 2
            if cfg.scenario is Scenario.TWO_CRITICAL_DURING_SUCCESS:
                ready = in_phase and u_first.last_observation is SUCCESS
            else:
                ready = in_phase and u_first.last_observation is FAILURE
            if ready:
                engine.set_critical(second, lengths[1])
                injected = True
        if not any(u.traffic is CRITICAL for u in engine.users):
            break
        slot = engine.step("critical")
        stats.critical_phase_slots += 1
        if slot.actions[first] and slot.observations[first] is FAILURE:
            stats.critical_collisions += 1
        slots.append(slot)
        if stats.critical_phase_slots > _MAX_CRITICAL_SLOTS:
            raise RuntimeError("critical phase failed to terminate")
        if two_crit and not injected and u_first.traffic is NORMAL:
            break

    if two_crit and injected:
        for _ in range(_SCENARIO_TAIL_SLOTS):
            slots.append(engine.step("normal"))
    return slots, engine.events, stats
