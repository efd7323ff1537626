"""Slot-level Monte Carlo simulation of the protocol.

Each round simulates a normal phase of fixed length (all users carrying
normal traffic, initial observation idle) followed by a critical phase in
which one user (or two, in the two-critical scenarios) receives critical
traffic and the round runs until that traffic completes.  Per-slot feedback
follows the collision-channel rules (:func:`protocol.channel_feedback`): no
transmitter -> everyone observes idle; one transmitter -> it observes
success, everyone else busy; several -> transmitters observe failure, the
rest busy.

Engine: :class:`SlotEngine` steps a batch of rounds in lockstep.  The state
of every user of every round is a set of ``(rounds, users)`` arrays
(:class:`protocol.UserArrays`: observation codes, failure counts, critical
flags and remaining packets, the rule-g memory and the wait owed after a
shared phase), and one slot is one array rule lookup, one comparison with
the slot's uniforms, the feedback from each round's transmitter count, and
masked state updates.  All rounds of a batch are always at the same slot,
and row j of every array is round j until the batch ends: a round that has
ended keeps its row and steps on, and none of its later slots is read (they
draw from its own stream, so they change no other round).  The round
structure is applied between steps, to each round separately: after its
normal phase its critical users arrive (simultaneous scenario: at a
collision-free boundary), and it ends when they have finished, at an end
slot read from their milestones (see :func:`_run_batch`).  A batch
holds as many rounds as 1 MB budgets allow (:func:`_batch_rounds`), so its
memory does not grow with the run, and each lockstep step, whose cost is
mostly fixed, serves hundreds of rounds.  A two-critical run sizes its
batches from the share of its rounds expected to admit the second arrival
(:func:`_valid_share`), so one batch usually holds the whole run.  A batch
is the only record of its rounds (:class:`_Batch`): each user's critical
milestones (the slots of its arrival, first rule-g entry and completion)
and, when traced, the packed cells it is written from in chunks of rows
(:func:`write_trace_rows`).  A two-critical batch's valid rounds are
verified together from it (:func:`_verify_rounds`), and only they get a
row.  A run's records do grow: per-round counts, contention periods and
the rows of valid scenario rounds, with its rounds and normal-phase slots,
up to the bounds that :class:`SimConfig` sets.

Randomness: each round draws from its own counter-based Philox stream keyed
by (seed, round_index), with a fixed draw order inside the round (critical
users, geometric traffic lengths, then one uniform per user per slot).  Its
key is exactly ``SeedSequence((seed, round_index))``'s, so the seed contract
is unchanged, but it is derived a batch at a time (:func:`_round_keys`).
The uniforms are drawn as ``rng.random((rows, users))`` blocks, which equal
that many successive ``rng.random(users)`` calls bit for bit; a round that
outlasts its block draws the next block from its own stream.  Rounds are
therefore reproducible independently, in any order and in any batch.

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
from typing import IO, Iterator, NamedTuple, Sequence

import itertools
import math
import numpy as np

from . import markov
from .errors import BadParams, ScenarioUnsatisfiable, SingularSystem
from .protocol import (
    CRITICAL,
    FAILURE_CODE,
    IDLE_CODE,
    NORMAL,
    OBSERVATIONS,
    SUCCESS_CODE,
    EnhancementConfig,
    ProtocolParams,
    UserArrays,
    channel_feedback,
    rule_g,
    transmission_probabilities,
    two_critical_mode_trigger,
)

TC_START_MARGIN = 30
_MAX_CRITICAL_SLOTS = 100_000
_SCENARIO_TAIL_SLOTS = 3
_GUARD_SLOTS = 1000
# rows drawn per round beyond its expected length, and per extra block
_EXTRA_ROWS = 16
# a geometric mean above _MAX_CRITICAL_SLOTS / _GEOMETRIC_TAIL would exceed
# the cap with probability above exp(-_GEOMETRIC_TAIL) per length drawn
_GEOMETRIC_TAIL = 20
# binomial standard deviations of valid rounds a scenario batch holds spare
_SHARE_SPREAD = 3
_ATTEMPTS_PER_ROUND = 5  # rounds a two-critical run attempts at most, per valid round asked for


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
    offered for more realistic traces.  Realized lengths are always >= 1,
    and a fixed length must be an integer.  A critical phase is capped at
    _MAX_CRITICAL_SLOTS slots, so a fixed length above the cap, or a
    geometric mean above cap / _GEOMETRIC_TAIL, is rejected.
    """

    kind: str
    value: float

    @staticmethod
    def fixed(length: int) -> "CriticalTrafficModel":
        if not isinstance(length, int):
            raise BadParams(f"fixed critical-traffic length must be an integer, got {length!r}")
        if length < 1:
            raise BadParams("fixed critical-traffic length must be >= 1")
        if length > _MAX_CRITICAL_SLOTS:
            raise BadParams(
                f"fixed critical-traffic length {length} exceeds the "
                f"{_MAX_CRITICAL_SLOTS}-slot critical-phase cap"
            )
        return CriticalTrafficModel("fixed", float(length))

    @staticmethod
    def geometric(mean: float) -> "CriticalTrafficModel":
        if not mean >= 1.0:
            raise BadParams("geometric critical-traffic mean must be >= 1")
        if mean * _GEOMETRIC_TAIL > _MAX_CRITICAL_SLOTS:
            raise BadParams(
                f"geometric critical-traffic mean {mean} exceeds "
                f"{_MAX_CRITICAL_SLOTS // _GEOMETRIC_TAIL}: its lengths would overrun the "
                f"{_MAX_CRITICAL_SLOTS}-slot critical-phase cap"
            )
        return CriticalTrafficModel("geometric", float(mean))

    def draw(self, rng: np.random.Generator) -> int:
        if self.kind == "fixed":
            return int(self.value)
        return int(rng.geometric(1.0 / self.value))


def _rule_g_contention() -> float:
    """Mean slots two rule_g users lose from their joint entry to their first solo success.

    With rule_g's chance p of sending after each observation (idle at the entry,
    then failures), the slots w lost solve w = 1 - 2p(1 - p) + p^2 w_fail + (1 - p)^2 w_idle.
    """
    p = rule_g(np.array([IDLE_CODE, FAILURE_CODE]))
    moves = np.stack([(1 - p) ** 2, p**2], axis=1)  # to idle, to a collision
    return float(np.linalg.solve(np.eye(2) - moves, 1 - 2 * p * (1 - p))[0])


@dataclass(frozen=True)
class SimConfig:
    """A simulation run; ``rounds``, ``normal_phase_slots`` and ``seed`` must be integers."""

    params: ProtocolParams
    enhancement: EnhancementConfig = EnhancementConfig()
    normal_phase_slots: int = 100
    rounds: int = 1000
    traffic_model: CriticalTrafficModel = CriticalTrafficModel.fixed(20)
    seed: int = 0
    scenario: Scenario = Scenario.SINGLE_CRITICAL
    # the expected share of rounds that admit the second arrival (_valid_share), from __post_init__
    valid_share: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("rounds", "normal_phase_slots", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise BadParams(f"{name} must be an integer, got {value!r}")
        if self.rounds < 1:
            raise BadParams("rounds must be >= 1")
        if self.seed < 0:
            raise BadParams(f"seed must be >= 0, got {self.seed}")
        if self.normal_phase_slots < 1:
            raise BadParams("normal_phase_slots must be >= 1")
        # a run's records grow with its rounds (about 65 B a round, 80 B a valid
        # scenario round), a batch's normal-phase statistics with its slots (about
        # 9 B per round and slot); at N = 3, 10**6 rounds of 100 slots peak at
        # 102 MB (120 MB two-critical) and 10**4 rounds of 10**4 slots at 151 MB
        for name, size, cap in (
            ("rounds", self.rounds, 10**6),
            ("normal_phase_slots", self.normal_phase_slots, 10**4),
            ("rounds * normal_phase_slots", self.rounds * self.normal_phase_slots, 10**8),
        ):
            if size > cap:
                raise BadParams(f"{name} must be at most {cap}, got {size}")
        two_crit = self.scenario in TWO_CRITICAL_SCENARIOS
        if two_crit and self.params.n_users < 2:
            raise BadParams("two-critical scenarios need at least 2 users")
        # collisions on top of a critical phase's packets (none for one user): at
        # most b under the enhanced rules; two critical users add b + 1 before they
        # infer each other, the rule_g contention (_GEOMETRIC_TAIL times its mean)
        # and b for the survivor, which contends afresh after the handover
        b = self.enhancement.backoff_bound
        shared = b + 1 + _GEOMETRIC_TAIL * _rule_g_contention() if two_crit else 0
        collisions = 0.0 if self.params.n_users < 2 else b + shared
        if self.params.n_users >= 2 and not self.enhancement.enabled:
            # the base rules do not bound collisions: N - 1 colliders take this
            # many slots on average to clear, and at r = 1 they never back off
            r = self.params.r
            clear = math.inf if r == 1.0 else markov.critical_hitting_times(self.params)[-1]
            collisions = clear * _GEOMETRIC_TAIL
            if collisions > _MAX_CRITICAL_SLOTS:
                raise BadParams(
                    f"r = {r} needs the enhanced rules: colliding users take {clear:.0f} slots "
                    f"on average to clear, above the {_MAX_CRITICAL_SLOTS // _GEOMETRIC_TAIL} "
                    f"that the {_MAX_CRITICAL_SLOTS}-slot critical-phase cap allows"
                )
        # geometric lengths are bounded by their mean alone (see CriticalTrafficModel)
        fixed = self.traffic_model.kind == "fixed"
        packets = (1 + two_crit) * int(self.traffic_model.value) if fixed else 0
        if packets + collisions > _MAX_CRITICAL_SLOTS:
            raise BadParams(
                f"{packets} critical packets and {collisions:.0f} collisions on top exceed "
                f"the {_MAX_CRITICAL_SLOTS}-slot critical-phase cap"
            )
        if two_crit and not self.enhancement.enabled:
            raise ScenarioUnsatisfiable("two-critical inference requires the enhanced rules")
        never = f"{self.scenario.value} never injects its second arrival"  # X = 1 also at mean 1
        if self.scenario is Scenario.TWO_CRITICAL_DURING_SUCCESS and self.traffic_model.value == 1:
            raise ScenarioUnsatisfiable(f"{never}: X = 1 leaves no packet after the first success")
        if self.scenario is Scenario.TWO_CRITICAL_DURING_COLLISION and self.params.q == 0:
            raise ScenarioUnsatisfiable(f"{never}: at q = 0 no normal user leaves the idle start")
        # the valid rounds the most rounds a run attempts hold, _SHARE_SPREAD binomial
        # deviations above their mean (see _rounds_to_try); all, if single-critical
        share, attempts = _valid_share(self), _ATTEMPTS_PER_ROUND * self.rounds
        object.__setattr__(self, "valid_share", share)
        spread = _SHARE_SPREAD * math.sqrt(attempts * share * (1.0 - share))
        if attempts * share + spread < self.rounds:
            raise ScenarioUnsatisfiable(
                f"{self.scenario.value} admits its second arrival in about {share:.3f} of "
                f"rounds: {attempts} rounds would not hold {self.rounds} valid ones"
            )


def _expected_slots(cfg: SimConfig) -> int:
    """Slots a round is expected to last, plus a margin: its first block of uniforms."""
    critical_users = 2 if cfg.scenario in TWO_CRITICAL_SCENARIOS else 1
    critical_slots = critical_users * math.ceil(cfg.traffic_model.value)
    return cfg.normal_phase_slots + critical_slots + _EXTRA_ROWS


def _batch_rounds(cfg: SimConfig, keep_trace: bool) -> int:
    """Rounds per batch, from what a round costs in memory.

    Two parts of a batch grow with its rounds, and each is held within
    ``markov._STACK_ELEMENTS`` float64.  The block of uniforms is kept
    within it by :meth:`SlotEngine._uniforms`; a batch leaves each round
    at least ``_EXTRA_ROWS`` rows of it.  Each round's own state, its
    generator (about 1.7 KB, charged as ``_EXTRA_ROWS ** 2`` floats) and,
    when traced, its packed cells (one byte per user and slot), must fit
    the budget as well.  Trace cells are kept as full batch rows, ended
    rounds included, once per step and once as the batch's array.  So a
    batch holds about twice the budget, whatever the number of rounds.  The
    three int32 milestone arrays add 12 B per user and round, against the
    uniform block's 128 B or more, so they are not charged.
    """
    n = cfg.params.n_users
    own = _EXTRA_ROWS**2
    if keep_trace:
        own += _expected_slots(cfg) * 2 * n // 8
    return max(1, markov._STACK_ELEMENTS // max(_EXTRA_ROWS * n, own))


# packed per-user cell of a trace: action << 3 | observation code << 1 | critical
def _pack(tx: np.ndarray, obs: np.ndarray, critical: np.ndarray) -> np.ndarray:
    packed = tx.view(np.uint8) << 3
    packed |= obs.view(np.uint8) << 1
    packed |= critical
    return packed


class SlotEngine:
    """Steps a batch of rounds in lockstep, one slot of every round per step.

    ``rngs`` are the rounds' generators, one a row (:func:`_round_rngs`),
    positioned after their draws of critical users and traffic lengths; the
    engine draws their uniforms in blocks, the first of ``rows`` slots.  Row
    j of ``users`` and of the milestones is round j of the batch for the
    batch's whole run: a round that has ended keeps its row and keeps
    stepping, and its caller reads none of those slots.  The milestones are
    each user's last critical arrival (``arrived``), first rule-g entry
    (``entered``) and last completion (``finished``): slots, 0 for none.
    Round structure (phase lengths, critical arrivals) is driven from
    outside via :meth:`set_critical` and :meth:`step`.  Under the enhanced
    rules, the only rules that read failure runs (``users.failures``), a
    step counts them, and it calls :func:`protocol.two_critical_mode_trigger`
    for the critical users before ``prev_critical`` takes the slot's traffic;
    :meth:`set_critical` clears an arriving user's ``prev_critical``.
    """

    def __init__(
        self,
        params: ProtocolParams,
        enhancement: EnhancementConfig,
        rngs: Sequence[np.random.Generator],
        rows: int,
    ):
        self.params = params
        self.enh = enhancement
        self.rngs = list(rngs)
        shape = (len(self.rngs), params.n_users)
        self.users = UserArrays.initial(shape)
        self.slot = 0
        self.arrived, self.entered, self.finished = np.zeros((3, *shape), dtype=np.int32)
        self._rows = rows
        self._buffer = np.empty(0)
        self._block = self._buffer.reshape(shape[0], 0, shape[1])
        self._block_start = 0
        self._ones = np.ones(params.n_users)

    def set_critical(self, at: np.ndarray, users: np.ndarray, packets: np.ndarray) -> None:
        """Give user users[j] of round at[j] critical traffic, effective next slot."""
        s = self.users
        if np.any(packets < 1):
            raise BadParams("critical traffic needs at least one packet")
        if np.any(s.critical[at, users]):
            raise BadParams("a user that is already critical received critical traffic")
        s.critical[at, users] = True
        s.remaining[at, users] = packets
        s.prev_critical[at, users] = False  # a success before the arrival does not count
        self.arrived[at, users] = self.slot + 1

    def _uniforms(self) -> np.ndarray:
        row = self.slot - self._block_start
        if row >= self._block.shape[1]:
            rounds, n = len(self.rngs), self.params.n_users
            left = self._rows - self.slot
            rows = left if left > 0 else _EXTRA_ROWS
            rows = max(1, min(rows, markov._STACK_ELEMENTS // (rounds * n)))
            size = rounds * rows * n
            if self._buffer.size < size:
                self._buffer = self._block = None  # release the spent block first
                self._buffer = np.empty(size)
            # later blocks refill the first one's memory
            self._block = self._buffer[:size].reshape(rounds, rows, n)
            for rng, out in zip(self.rngs, self._block):
                rng.random(out=out)
            self._block_start, row = self.slot, 0
        return self._block[:, row]

    def step(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every round one slot; returns (actions, observations, transmitters)."""
        s = self.users
        tx = self._uniforms() < transmission_probabilities(self.params, self.enh, s)
        # a row count as a product with ones is exact, and cheaper than tx.sum(axis=1)
        k = (tx @ self._ones).astype(np.int32)
        obs = channel_feedback(tx, k[:, None])
        self.slot += 1

        s.prev, s.last = s.last, obs
        if self.enh.enabled:
            s.failures = (s.failures + 1) * (obs == FAILURE_CODE)
        critical = s.critical
        any_critical = critical.any()
        if self.enh.enabled and any_critical:
            # it reads the previous slot's traffic, before prev_critical takes this slot's
            trigger = two_critical_mode_trigger(self.enh, s)
        np.copyto(s.prev_critical, critical)
        if s.yield_after_idle.any():
            s.yield_after_idle &= critical | (s.prev != IDLE_CODE)
        if not any_critical:
            return tx, obs, k

        # only critical users are in g-mode
        s.g_observation = np.where(s.g_mode, obs, s.g_observation)
        served = critical & (obs == SUCCESS_CODE)
        s.remaining -= served
        done = served & (s.remaining == 0)
        if done.any():
            s.yield_after_idle |= done & s.g_mode
            keep = ~done
            critical &= keep
            s.g_mode &= keep
            self.finished[done] = self.slot

        if self.enh.enabled and critical.any():
            g_mode = s.g_mode
            enter = critical & ~g_mode & trigger
            revert = (
                critical & g_mode & (s.prev == SUCCESS_CODE) & (s.last == IDLE_CODE)
            )
            switch = enter | revert
            if switch.any():
                # alternation broke on an idle slot: the partner finished, so
                # a reverting user behaves like a fresh critical arrival again
                s.g_mode = g_mode ^ switch
                s.g_observation[enter] = IDLE_CODE
                s.failures[revert] = 0
                self.entered[enter & (self.entered == 0)] = self.slot + 1
        return tx, obs, k


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its constants and pool size
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32, _POOL = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF, 4


def _hash(values, rows: int, h: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of `values` into `rows` rows, one hash constant a row from h on."""
    c = list(itertools.accumulate(range(rows), lambda x, _: x * mult & _MASK32, initial=h))
    consts = np.array(c, dtype=np.uint32)[:, None]
    out = (values ^ consts[:-1]) * consts[1:]
    return out ^ out >> 16, c[-1]


def _round_keys(seed: int, indices: Sequence[int]) -> np.ndarray:
    """Row j is ``SeedSequence((seed, indices[j])).generate_state(2, np.uint64)``, all j at once.

    Entropy: the seed's uint32 words, low first, then the round index (one word), the only array.
    """
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [*words, np.asarray(indices, dtype=np.uint32)]
    pool = np.zeros((_POOL, len(entropy[-1])), dtype=np.uint32)
    for i, word in enumerate(entropy[:_POOL]):
        pool[i] = word
    pool, h = _hash(pool, _POOL, _INIT_A)
    # mix each pool word into the other three, then each word past the pool into all four
    for src in range(max(len(entropy), _POOL)):
        dst = [i for i in range(_POOL) if i != src]
        hashed, h = _hash(pool[src] if src < _POOL else entropy[src], len(dst), h)
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
    state = _hash(pool, _POOL, _INIT_B, _MULT_B)[0].astype(np.uint64)
    # generate_state reads the four words as two little-endian uint64
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


class _Key(NamedTuple):
    """A seed sequence, registered as numpy's ISeedSequence, that hands Philox a ready key."""

    key: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


def _round_rngs(seed: int, indices: Sequence[int]) -> list[np.random.Generator]:
    """The rounds' generators: ``Generator(Philox(SeedSequence((seed, i))))`` for each i."""
    np.random.bit_generator.ISeedSequence.register(_Key)  # `import critmac` leaves numpy.random out
    return [np.random.Generator(np.random.Philox(_Key(k))) for k in _round_keys(seed, indices)]


@dataclass
class _Batch:
    """A batch of rounds run in lockstep, by position in the batch, each to its end slot.

    It is the only record of its rounds: round j is row j of every array,
    and in a traced batch its slots are ``cells[:slots[j], j]`` (row t is
    slot t + 1; later rows are not read).  A cell packs a user's action,
    observation code and traffic (see :func:`_pack`), which :attr:`actions`,
    :attr:`observations` and :attr:`critical_phase` read.
    """

    indices: list[int]
    flags: np.ndarray             # (rounds, normal slots): success slots of the normal phase
    collisions: np.ndarray        # the first critical user's failures in its critical phase
    arrived: np.ndarray           # (rounds, users) critical milestones: slots, 0 for none;
    entered: np.ndarray           # the arrival, first rule-g entry and completion of each
    finished: np.ndarray          # user (see SlotEngine)
    cells: np.ndarray | None      # (slots, rounds, users) packed trace cells, when kept
    slots: np.ndarray             # slots each round ran: its end slot
    pairs: np.ndarray             # (rounds, 2) critical users by arrival, simultaneous by index
    injected: np.ndarray          # the second arrived (pairs[:, 1] is -1 if single-critical)

    @property
    def actions(self) -> np.ndarray:
        return self.cells >= 8

    @property
    def observations(self) -> np.ndarray:
        return (self.cells >> 1) & 3

    @property
    def critical_phase(self) -> np.ndarray:
        """(slots, rounds): the slots in which some user carried critical traffic."""
        # a count (at most two users, so uint8 holds it) is cheaper than .any(axis=2)
        return np.einsum("sru->sr", self.cells & 1) > 0


def _run_batch(cfg: SimConfig, indices: Sequence[int], keep_trace: bool) -> _Batch:
    """Run the rounds `indices` in lockstep: a normal phase, then the scenario's critical phase.

    The round structure is read from the engine's state: a round's first
    critical user arrives once its normal phase ends (simultaneous: at the
    first collision-free boundary after it), its critical phase is the
    slots in which some user carries critical traffic, and its end slot is
    its last completion (``finished``), ``_SCENARIO_TAIL_SLOTS`` later in a
    round that admitted the second arrival, so that its trace shows the
    handover.  The batch ends at its last end slot.
    """
    params, scenario = cfg.params, cfg.scenario
    n, w = params.n_users, cfg.normal_phase_slots
    two_crit = scenario in TWO_CRITICAL_SCENARIOS
    simultaneous = scenario is Scenario.TWO_CRITICAL_SIMULTANEOUS

    rngs = _round_rngs(cfg.seed, indices)
    size = len(rngs)
    pairs = np.full((size, 2), -1, dtype=np.intp)
    first, second = pairs.T
    drawn = []  # the critical users' traffic lengths, round by round, by arrival
    for j, rng in enumerate(rngs):
        first[j] = rng.integers(n)
        if two_crit:
            second[j] = (first[j] + 1 + rng.integers(n - 1)) % n
        for _ in range(1 + two_crit):
            drawn.append(cfg.traffic_model.draw(rng))
    lengths = np.array(drawn, dtype=np.int64).reshape(size, 1 + two_crit)

    engine = SlotEngine(params, cfg.enhancement, rngs, _expected_slots(cfg))
    flags = np.empty((size, w), dtype=bool)
    cells: list[np.ndarray] = []  # packed trace cells of every round, per step
    for t in range(w):
        tx, obs, k = engine.step()
        flags[:, t] = k == 1
        if keep_trace:
            cells.append(_pack(tx, obs, engine.users.prev_critical))

    # the first critical user's observation that lets the second one arrive
    trigger = SUCCESS_CODE if scenario is Scenario.TWO_CRITICAL_DURING_SUCCESS else FAILURE_CODE
    pending = np.ones(size, dtype=bool)  # the first critical user has not arrived
    injected = np.zeros(size, dtype=bool)
    collisions = np.zeros(size, dtype=np.int64)
    rows = np.arange(size)
    while True:
        users = engine.users
        # the first critical user arrives when the normal phase ends; simultaneous:
        # at a collision-free boundary, so both users carry zero failure counts
        # into the phase (the canonical simultaneous case)
        at = np.flatnonzero(pending & (k < 2) if simultaneous else pending)
        if len(at):
            engine.set_critical(at, first[at], lengths[at, 0])
            pending[at] = False
        if two_crit:
            # the second arrives with the simultaneous first, else on an
            # observation the first, so far only, critical user made while critical
            if not simultaneous:
                trig = users.critical & users.prev_critical & (users.last == trigger)
                at = np.flatnonzero(trig.any(axis=1) & ~injected)
            if len(at):
                engine.set_critical(at, second[at], lengths[at, 1])
                injected[at] = True
        # the rounds whose next slot is in the critical phase
        live = users.critical.any(axis=1)
        if not live.any() and not pending.any():
            # a round ends at its last completion, and shows the handover if it had two users
            slots = engine.finished.max(axis=1) + _SCENARIO_TAIL_SLOTS * injected
            if engine.slot >= slots.max():
                break

        tx, obs, k = engine.step()
        if keep_trace:
            cells.append(_pack(tx, obs, engine.users.prev_critical))
        # a failure is always the user's own transmission
        collisions += live & (obs[rows, first] == FAILURE_CODE)
        # a critical round has been so for slot - arrived + 1 slots (arrived is
        # the first's arrival), no more than the slots since the normal phase;
        # a pending round has waited all of those
        ran = engine.slot - w
        if ran > _MAX_CRITICAL_SLOTS and (
            live & (engine.slot - engine.arrived[rows, first] >= _MAX_CRITICAL_SLOTS)
        ).any():
            raise RuntimeError("critical phase failed to terminate")
        if ran > _GUARD_SLOTS and pending.any():
            raise RuntimeError("no collision-free boundary found")

    if simultaneous:
        pairs.sort(axis=1)
    return _Batch(
        indices=list(indices),
        flags=flags,
        collisions=collisions,
        arrived=engine.arrived,
        entered=engine.entered,
        finished=engine.finished,
        cells=np.stack(cells) if keep_trace else None,
        slots=slots,
        pairs=pairs,
        injected=injected,
    )


@dataclass
class _PhaseStats:
    """Normal-phase statistics of a batch of rounds (see the module docstring)."""

    successes: np.ndarray
    trials: np.ndarray
    stops: np.ndarray
    period_length: np.ndarray
    period_start: np.ndarray  # 1-based slot of the period's initial idle slot


def _normal_phase_stats(flags: np.ndarray) -> _PhaseStats:
    """Segment each round's normal phase (a row of success flags) into runs and contention periods.

    A contention period starts in the slot after a success and lasts until
    the next success; a leading contention has no preceding run, and a
    trailing one no end, so neither counts.
    """
    w = flags.shape[1]
    stop = flags[:, :-1] & ~flags[:, 1:]
    resume = ~flags[:, :-1] & flags[:, 1:]
    rb, jb = np.nonzero(stop)
    re, ke = np.nonzero(resume)
    # the first resume after each stop, if one follows in the same round
    nxt = np.searchsorted(re * w + ke, rb * w + jb)
    ended = nxt < len(re)
    rb, jb, nxt = rb[ended], jb[ended], nxt[ended]
    closed = re[nxt] == rb
    return _PhaseStats(
        successes=flags.sum(axis=1),
        trials=flags[:, :-1].sum(axis=1),
        stops=stop.sum(axis=1),
        period_length=(ke[nxt] - jb)[closed],
        period_start=jb[closed] + 2,
    )


def run_round(cfg: SimConfig, round_index: int) -> _Batch:
    """Simulate and trace one round, as a one-round batch."""
    return _run_batch(cfg, [round_index], keep_trace=True)


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
    """Mean and standard error of `values`, which it overwrites.

    Bit for bit ``values.mean()`` and ``values.std(ddof=1) / sqrt(n)``, but
    the deviations are formed and squared in place, not in a copy, so a
    long run's samples are held once.
    """
    n = len(values)
    m = float(values.mean())
    if n < 2:
        return m, math.inf
    mean = np.add.reduce(values, keepdims=True)
    np.true_divide(mean, n, out=mean)
    values -= mean
    values *= values
    var = np.add.reduce(values) / (n - 1)
    return m, float(np.sqrt(var) / math.sqrt(n))


def run_experiment(cfg: SimConfig, trace_sink: IO[str] | None = None) -> ExperimentResult:
    """Run cfg.rounds rounds and aggregate the Table-style metrics.

    With ``trace_sink`` set, every slot of every round is streamed to it in
    the documented trace format (see :func:`write_trace_header`).
    """
    trials = stops = 0
    # per-round counts, in the smallest types that hold them: a success count
    # or a period is at most the normal phase, a collision count the cap
    counts = np.min_scalar_type(cfg.normal_phase_slots)
    successes = np.empty(cfg.rounds, counts)
    collisions = np.empty(cfg.rounds, np.min_scalar_type(_MAX_CRITICAL_SLOTS))
    tc_samples: list[np.ndarray] = []
    # every period, kept only until one starts early enough to be a T_c sample
    all_periods: list[np.ndarray] = []
    have_tc = False
    margin = cfg.normal_phase_slots - TC_START_MARGIN
    keep_trace = trace_sink is not None
    if keep_trace:
        write_trace_header(trace_sink, cfg.params.n_users)
    size = _batch_rounds(cfg, keep_trace)
    for start in range(0, cfg.rounds, size):
        indices = range(start, min(start + size, cfg.rounds))
        batch = _run_batch(cfg, indices, keep_trace)
        if keep_trace:
            write_trace_rows(trace_sink, batch, len(indices))
        ph = _normal_phase_stats(batch.flags)
        trials += int(ph.trials.sum())
        stops += int(ph.stops.sum())
        tc_samples.append(ph.period_length[ph.period_start <= margin].astype(counts))
        if not have_tc:
            all_periods.append(ph.period_length)
            have_tc = len(tc_samples[-1]) > 0
        successes[indices.start:indices.stop] = ph.successes
        collisions[indices.start:indices.stop] = batch.collisions
        del batch  # before the next batch is run

    # T_s = trials/stops inverts the estimated run-stop probability; its SE
    # follows from the binomial variance of the stop count by the delta method.
    t_s = trials / stops if stops else math.inf
    theta_hat = stops / trials if trials else math.nan
    t_s_se = (
        math.sqrt(theta_hat * (1.0 - theta_hat) / trials) / theta_hat**2
        if trials and stops
        else math.inf
    )
    # phase too short for the start margin: every period is a sample
    tc_arr = np.concatenate(tc_samples if have_tc else all_periods, dtype=float)
    t_c, t_c_se = _mean_se(tc_arr) if len(tc_arr) else (math.nan, math.inf)
    c_norm, c_norm_se = _mean_se(successes / cfg.normal_phase_slots)
    d_crit, d_crit_se = _mean_se(collisions.astype(float))
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

# a packed cell (see _pack) as its three trace columns
_CELLS = [
    f"{'T' if code >> 3 else 'W'},{OBSERVATIONS[(code >> 1) & 3].value},"
    f"{(CRITICAL if code & 1 else NORMAL).value}"
    for code in range(16)
]
# a row's last cell, and two adjacent cells a, b as one piece (by a << 4 | b),
# each followed by "," or, at the end of a row, a newline
_CELLS_LAST = np.array([c + "\n" for c in _CELLS], dtype=object)
_PAIRS_INNER = np.array([a + "," + b + "," for a in _CELLS for b in _CELLS], dtype=object)
_PAIRS_LAST = np.array([a + "," + b + "\n" for a in _CELLS for b in _CELLS], dtype=object)
_PHASES = ("normal", "critical")
# trace rows joined and written at a time
_TRACE_CHUNK_ROWS = 2048


def write_trace_header(sink: IO[str], n_users: int) -> None:
    users = [f"action_{i},obs_{i},traffic_{i}" for i in range(n_users)]
    sink.write(",".join(["round,slot,phase", *users]) + "\n")


def write_trace_rows(sink: IO[str], batch: _Batch, rounds: int) -> None:
    """Write the first `rounds` rounds of a traced batch, each round's slots in order.

    The rows are written in chunks of at most ``_TRACE_CHUNK_ROWS``: each
    chunk is an object array of text pieces, looked up for all its rows at
    once (the round, the slot and phase, one per pair of user cells, and a
    last single cell when the users are odd), and one join.  A slot is in
    the critical phase when some user's cell carries critical traffic.
    """
    slots = batch.slots[:rounds]
    if not len(slots):
        return
    ends = np.cumsum(slots)
    heads = np.array([f"{i}," for i in batch.indices[:rounds]], dtype=object)
    # slot t of phase f is steps[2 * (t - 1) + f]
    steps = np.array(
        [f"{t},{phase}," for t in range(1, int(slots.max()) + 1) for phase in _PHASES],
        dtype=object,
    )
    users = batch.cells.shape[2]
    phase = batch.critical_phase
    half = users // 2
    pieces = np.empty((min(_TRACE_CHUNK_ROWS, ends[-1]), 2 + half + users % 2), dtype=object)
    for first in range(0, ends[-1], _TRACE_CHUNK_ROWS):
        row = np.arange(first, min(first + _TRACE_CHUNK_ROWS, ends[-1]))
        k = np.searchsorted(ends, row, side="right")  # the row's round
        t = row - ends[k] + slots[k]  # and its slot, from 0
        cells = batch.cells[t, k]
        out = pieces[: len(row)]
        out[:, 0] = heads[k]
        out[:, 1] = steps[2 * t + phase[t, k]]
        pairs = cells[:, 0 : 2 * half : 2] << 4 | cells[:, 1 : 2 * half : 2]
        if users % 2:
            out[:, 2:-1] = _PAIRS_INNER[pairs]
            out[:, -1] = _CELLS_LAST[cells[:, -1]]
        else:
            out[:, 2:-1] = _PAIRS_INNER[pairs[:, :-1]]
            out[:, -1] = _PAIRS_LAST[pairs[:, -1]]
        sink.write("".join(out.ravel().tolist()))


# --- two-critical scenarios --------------------------------------------------


@dataclass(eq=False)
class ScenarioSummary:
    """A two-critical run: the rounds it attempted, and a row of columns per valid round, in order.

    Slots count from 1 at the start of a round, 0 for none.  A ``(rounds, 2)`` column is by
    pair position: by arrival (simultaneous: by user index).  A round that owed a joint rule-g
    entry it never made counts no collisions.
    """

    scenario: Scenario
    attempted_rounds: int
    round_index: np.ndarray  # the round's index, which keys its random stream
    users: np.ndarray        # (rounds, 2) the two critical users
    arrived: np.ndarray      # (rounds, 2) slots of each one's arrival,
    entered: np.ndarray      # first rule-g entry
    finished: np.ndarray     # and completion
    joint: np.ndarray        # the slot of the later entry, if both entered
    shared: np.ndarray       # that of the first solo critical success after it
    collisions: np.ndarray   # slots in which the two collided while both were critical
    violations: np.ndarray   # a tuple of messages a round, one per check it failed

    @property
    def violation_count(self) -> int:
        return sum(map(len, self.violations))


def _verify_rounds(cfg: SimConfig, batch: _Batch, rows: np.ndarray) -> dict[str, np.ndarray]:
    """Check the valid scenario rounds ``rows`` of a traced batch: their summary's columns.

    A round's cells, end slot, milestones, critical users and index are
    read from the batch (:class:`_Batch`); each check is one array operation
    over all the rounds, and only the messages are spelled round by round.

    Deterministic consequences asserted here: both critical users switch to
    rule_g within backoff_bound + 2 slots of coexistence (exactly after
    backoff_bound + 1 collisions in the simultaneous case, and the
    interrupted run owner at once in the during-success case); the
    criticals collide at least once while coexisting; from the first
    single-critical success with both users in g-mode, successes alternate
    strictly between the two until the first completes; the slot after the
    first completion is a success by the survivor, the next slot is idle,
    and the finished user waits in the slot after that idle slot.

    Short critical traffic can end before the inference bound: when the
    first completion comes earlier than backoff_bound + 2 slots after the
    second arrival, neither user owes an entry, since the two were not both
    critical when the bound ran out.  Without a joint entry there is no
    alternation to check.  The handover still holds (the survivor hears the
    finisher's last success as busy, and rule_g and the plain critical rule
    both transmit then), but only a finisher that had entered rule_g waits
    after the idle slot: the wait belongs to a shared phase.

    The handover is checked only with ``suppress_after_critical``: without
    its wait the finisher is a normal user and may take the survivor's slot.
    """
    b = cfg.enhancement.backoff_bound
    users = batch.pairs[rows]
    rounds = np.arange(len(rows))
    first, second = users.T
    # (rounds, 2) by pair position: arrivals, first entries (0: none) and completions
    arrived, entered, finished = (a[rows[:, None], users] for a in (
        batch.arrived, batch.entered, batch.finished))
    a2 = arrived[:, 1]
    done = finished.min(axis=1)
    first_done = finished[:, 0] < finished[:, 1]  # the first critical user finished first
    joint = np.where(entered.all(axis=1), entered.max(axis=1), 0)
    # both were still critical when the inference bound ran out, and not both entered
    missed = (joint == 0) & (done >= a2 + b + 2)

    slots = batch.slots[rows]
    t = np.arange(len(batch.cells))[:, None]  # row of each slot, against each round
    ran = t < slots
    sent = batch.actions
    transmitters = np.einsum("sru->sr", sent, dtype=np.intp)[:, rows]
    alone = transmitters == 1
    act1, act2 = sent[:, rows, first], sent[:, rows, second]

    def at(flags: np.ndarray, row: np.ndarray) -> np.ndarray:
        """flags[row[j], j] of each round j, False past the slots it ran."""
        return flags[np.minimum(row, len(flags) - 1), rounds] & (row < slots)

    # collisions between the two criticals while both are critical
    collisions = np.count_nonzero(
        act1 & act2 & ran & (t >= np.maximum(a2, 1) - 1) & (t < done), axis=0
    )
    # first solo success by a critical user once both run rule_g; from it
    # on, the two send alone in turn until the first completion
    sharing = ran & (t < done)
    solo = alone & (act1 | act2) & sharing & (t >= joint - 1) & (joint > 0)
    shared = np.where(solo.any(axis=0), solo.argmax(axis=0) + 1, 0)
    turn1 = ((t - shared + 1) % 2 == 0) == at(act1, shared - 1)
    in_turn = alone & (act1 == turn1) & (act2 != turn1)
    broken = sharing & (t >= shared - 1) & (shared > 0) & ~in_turn
    broken_at = np.where(broken.any(axis=0), broken.argmax(axis=0) + 1, 0)
    # the handover: rows done, done + 1 and done + 2 are the three slots after the completion
    took_over = np.where(first_done, at(act2, done), at(act1, done)) & at(alone, done)
    idle = at(transmitters == 0, done + 1)
    # only a user that finished in g-mode owes the wait after the idle slot
    waits = np.where(first_done, entered[:, 0], entered[:, 1]) > 0
    finisher_sent = waits & np.where(first_done, at(act1, done + 2), at(act2, done + 2))
    if cfg.scenario is Scenario.TWO_CRITICAL_SIMULTANEOUS:
        # the first slot each user's consecutive-collision count reaches b + 1
        # (failure runs may have begun before the arrival)
        failed = (batch.observations[:, rows[:, None], users] == FAILURE_CODE) & ran[:, :, None]
        failed = np.concatenate([np.zeros((b + 1, len(rows), 2), bool), failed])
        counted = np.cumsum(failed, axis=0)
        runs = counted[b + 1 :] - counted[: -b - 1] == b + 1  # rows that end b + 1 failures
        hits = np.where(runs.any(axis=0), runs.argmax(axis=0) + 1, 0)

    def violations(j: int, entry: list[int]) -> Iterator[str]:
        if missed[j]:
            yield "a critical user never entered rule-g mode"
            return
        if joint[j] and joint[j] - a2[j] > b + 2:
            yield f"rule-g inference took {joint[j] - a2[j]} slots, bound is {b + 2}"
        if cfg.scenario is Scenario.TWO_CRITICAL_SIMULTANEOUS:
            # entry exactly one slot after the count first reaches b + 1
            for u, e, hit in zip(users[j].tolist(), entry, hits[j].tolist()):
                if e != (hit + 1 if hit else 0):
                    yield (
                        f"user {u} entered rule-g at slot {e or None}, expected one slot "
                        f"after its collision count reached {b + 1} (slot {hit or None})"
                    )
        # the interrupted run owner reacts to its (success, failure) at once
        if cfg.scenario is Scenario.TWO_CRITICAL_DURING_SUCCESS and entry[0] != a2[j] + 1:
            yield f"run owner entered rule-g at slot {entry[0] or None}, expected {a2[j] + 1}"
        if collisions[j] < 1:
            yield "the two critical users never collided"
        if joint[j] and not shared[j]:
            yield "no critical success after both entered rule-g"
            return
        if broken_at[j]:
            yield f"alternation broken at slot {broken_at[j]}"
        if not cfg.enhancement.suppress_after_critical:  # no wait: no handover owed
            return
        if not took_over[j]:
            yield "survivor did not take the slot after the first completion"
        if not idle[j]:
            yield "no idle slot after the handover success"
        if finisher_sent[j]:
            yield "finished user transmitted in the slot after the idle slot"

    # a tuple of messages a round, set one by one (equal-length tuples would make a 2-d array)
    found = np.empty(len(rows), dtype=object)
    for j, entry in enumerate(entered.tolist()):
        found[j] = tuple(violations(j, entry))
    return dict(round_index=np.asarray(batch.indices)[rows], users=users, arrived=arrived,
                entered=entered, finished=finished, joint=joint, shared=shared,
                collisions=np.where(missed, 0, collisions), violations=found)


def _valid_share(cfg: SimConfig) -> float:
    """The expected share of the scenario's rounds that admit the second arrival.

    A during-collision round is valid exactly when the first critical
    user's arrival slot collides: it transmits, so some other user must
    transmit too.  That chance is read off the normal chain's stationary
    distribution over the last normal-phase slot (see :mod:`markov`), in
    which the arriving user is any one of the N.  It is an estimate: the
    chain leaves out the enhanced rules' waits and the idle start of the
    normal phase (0.780 against 0.778 seen over 400 rounds at N = 10).  A
    during-success round is valid when the first critical user has a packet
    left after its first success, so its traffic length X >= 2 (a fixed X
    is: :class:`SimConfig` refuses X = 1); a simultaneous round always is.
    Where the chain has no unique stationary distribution (boundary q or
    r), the share is taken as 1.
    """
    if cfg.scenario is Scenario.TWO_CRITICAL_DURING_SUCCESS:  # a geometric X is 1 w.p. 1 / mean
        model = cfg.traffic_model
        return 1.0 if model.kind == "fixed" else 1.0 - 1.0 / model.value
    if cfg.scenario is not Scenario.TWO_CRITICAL_DURING_COLLISION:
        return 1.0
    params = cfg.params
    try:
        w = markov.stationary_distribution(markov.build_normal_matrix(params))
    except SingularSystem:
        return 1.0
    n, q, r = params.n_users, params.q, params.r
    k = np.arange(2, n + 1)
    # the chance that no other user transmits after each state: after an idle
    # slot each of N - 1 with q; after a success only its owner, with
    # 1 - theta, unless it is the arriving user; after k colliders each
    # other collider with r
    silent = np.concatenate((
        [(1.0 - q) ** (n - 1), (1.0 + (n - 1) * params.theta) / n],
        (k * (1.0 - r) ** (k - 1) + (n - k) * (1.0 - r) ** k) / n,
    ))
    return min(max(1.0 - float(w @ silent), 0.0), 1.0)


def _rounds_to_try(missing: int, share: float, limit: int) -> int:
    """Rounds a batch needs to hold `missing` valid ones when `share` of rounds are valid.

    m rounds hold m * share valid ones on average, with binomial standard
    deviation sqrt(m * share * (1 - share)).  This is the least m whose
    mean lies ``_SHARE_SPREAD`` deviations above `missing`, at most `limit`.
    """
    if share >= 1.0:
        return min(missing, limit)
    if share * limit <= missing:
        return limit
    spread = _SHARE_SPREAD * math.sqrt(share * (1.0 - share))
    root = (spread + math.sqrt(spread**2 + 4.0 * share * missing)) / (2.0 * share)
    return min(math.ceil(root**2), limit)


def simulate_two_critical(cfg: SimConfig, trace_sink: IO[str] | None = None) -> ScenarioSummary:
    """Run and verify two-critical rounds until cfg.rounds valid rounds accrue.

    A round is valid when the second critical event could be injected (the
    during-success / during-collision conditions are state-dependent, so a
    round may end before its condition occurs); only valid rounds are
    verified.  At most 5 * cfg.rounds rounds are attempted: SimConfig
    refuses a scenario whose expected share of valid rounds could not fill
    the count in as many, and one without the enhanced rules, which the
    inference relies on.  With ``trace_sink`` set, every slot of every
    attempted round is streamed to it in the documented trace format.

    Rounds run in batches, each sized to hold the valid rounds still
    missing (:func:`_rounds_to_try`): exactly those when every round is
    valid, a few binomial standard deviations more when not.  The first
    batch takes the scenario's expected share of valid rounds
    (:func:`_valid_share`), so one batch usually completes the count; a
    later one, needed when a batch was cut by its memory bound
    (:func:`_batch_rounds`) or fell short, takes the share seen so far if
    that is lower.  Rounds of a batch past the one that completes the count
    are discarded unverified; every round is seeded by its index, so batch
    sizes change no output.
    """
    if cfg.scenario not in TWO_CRITICAL_SCENARIOS:
        raise BadParams(f"scenario {cfg.scenario} is not a two-critical scenario")
    if trace_sink is not None:
        write_trace_header(trace_sink, cfg.params.n_users)
    columns: dict[str, np.ndarray] = {}  # of all cfg.rounds valid rounds, made by the first batch
    valid = idx = 0
    limit = _ATTEMPTS_PER_ROUND * cfg.rounds
    share = cfg.valid_share
    while valid < cfg.rounds and idx < limit:
        missing = cfg.rounds - valid
        if idx:  # a batch was cut or fell short: the share seen so far, if lower
            share = min(share, valid / idx)
        size = _rounds_to_try(missing, share, limit - idx)
        size = max(1, min(size, _batch_rounds(cfg, keep_trace=True)))
        batch = _run_batch(cfg, range(idx, idx + size), keep_trace=True)
        # the batch's valid rounds up to the one that completes the count
        rows = np.flatnonzero(batch.injected)[:missing]
        used = int(rows[-1]) + 1 if len(rows) == missing else size
        for name, part in _verify_rounds(cfg, batch, rows).items():
            if name not in columns:
                columns[name] = np.empty((cfg.rounds, *part.shape[1:]), part.dtype)
            columns[name][valid : valid + len(rows)] = part
        valid += len(rows)
        if trace_sink is not None:
            write_trace_rows(trace_sink, batch, used)
        idx += used
    if valid < cfg.rounds:
        raise ScenarioUnsatisfiable(
            f"only {valid} of {cfg.rounds} rounds admitted the scenario injection"
        )
    return ScenarioSummary(scenario=cfg.scenario, attempted_rounds=idx, **columns)
