"""Decision rules for slotted MAC protocols that prioritize critical traffic.

A protocol maps the pair (previous observation, current traffic type) to a
transmission probability.  The family implemented here is parameterized by
(N, theta, q, r): users with critical traffic always transmit; users with
normal traffic transmit with probability q after an idle slot, never after a
busy slot, with probability 1 - theta after their own success, and with
probability r after their own collision.  Fixing f(busy, normal) = 0 makes
the protocol non-intrusive: once a critical user succeeds, nobody interrupts
it until its critical traffic completes.

Two extensions are implemented on top of the base family:

* enhanced rules (normal users only): wait after a (success, failure)
  pattern, wait after backoff_bound consecutive collisions, optionally
  wait for one slot right after finishing critical traffic, and wait once
  after an idle slot when a shared two-critical phase ended;
* a two-critical-user mode: a critical user that infers the presence of a
  second critical user switches to the sharing rule ``rule_g`` until its
  critical traffic completes.

The rules exist once, as array lookups over :class:`UserArrays` (the state
of many users in many rounds, observations as integer codes):
:func:`transmission_probabilities` and :func:`two_critical_mode_triggers`.
The one-user functions (:func:`user_transmission_probability`,
:func:`two_critical_mode_trigger`, :func:`rule_g`,
:func:`transmission_probability`) are their one-element case.
:func:`channel_feedback` is the collision channel that the slot engine and
the oracle share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import BadParams


class Observation(Enum):
    """Per-slot channel feedback available to a single user."""

    IDLE = "idle"
    BUSY = "busy"
    SUCCESS = "success"
    FAILURE = "failure"


class TrafficType(Enum):
    NORMAL = "normal"
    CRITICAL = "critical"


IDLE, BUSY, SUCCESS, FAILURE = (
    Observation.IDLE, Observation.BUSY, Observation.SUCCESS, Observation.FAILURE
)
NORMAL, CRITICAL = TrafficType.NORMAL, TrafficType.CRITICAL

# Observations as integer codes: OBSERVATIONS[code] is the member.
IDLE_CODE, BUSY_CODE, SUCCESS_CODE, FAILURE_CODE = 0, 1, 2, 3
OBSERVATIONS = (IDLE, BUSY, SUCCESS, FAILURE)
OBSERVATION_CODE = {obs: code for code, obs in enumerate(OBSERVATIONS)}


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol parameters (N, theta, q, r).

    theta is the per-slot stopping probability of a success run (the
    short-term fairness level), q the transmission probability after an idle
    slot, r the retransmission probability after a collision.  Analytical
    operations additionally require n_users >= 2 and interior (q, r); the
    simulator accepts n_users = 1 as a degenerate sanity case.
    """

    n_users: int
    theta: float
    q: float
    r: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_users, int) or self.n_users < 1:
            raise BadParams(f"n_users must be a positive integer, got {self.n_users!r}")
        if not 0.0 < self.theta <= 1.0:
            raise BadParams(f"theta must lie in (0, 1], got {self.theta!r}")
        for name in ("q", "r"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise BadParams(f"{name} must lie in [0, 1], got {v!r}")


@dataclass(frozen=True)
class EnhancementConfig:
    """Switches for the enhanced rule set.

    backoff_bound is the number of consecutive collisions after which a
    normal user must wait; it also bounds a critical user's worst-case
    collision count.  backoff_bound = 1 would forbid any retransmission
    after a collision, so values below 2 are rejected.
    """

    enabled: bool = False
    backoff_bound: int = 5
    suppress_after_critical: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.backoff_bound, int) or self.backoff_bound < 2:
            raise BadParams(f"backoff_bound must be an integer >= 2, got {self.backoff_bound!r}")


@dataclass
class UserState:
    """Everything a single user remembers between slots.

    last_observation / prev_observation are the observations of the previous
    two slots; consecutive_failures is the length of the current run of
    failure observations.  g_observation is the separate one-slot memory used
    while two_crit_mode is active (initialized to idle on mode entry), and
    critical_window records the observations around a critical arrival
    (one slot before it plus the first slots of the critical phase), which
    the two-critical inference reads. yield_after_idle marks a user that
    finished critical traffic during a shared (two-critical) phase and still
    owes one wait slot after the next idle slot.
    """

    last_observation: Observation = Observation.IDLE
    prev_observation: Observation = Observation.IDLE
    consecutive_failures: int = 0
    traffic: TrafficType = TrafficType.NORMAL
    prev_traffic: TrafficType = TrafficType.NORMAL
    critical_remaining: int = 0
    two_crit_mode: bool = False
    g_observation: Observation = Observation.IDLE
    yield_after_idle: bool = False
    critical_window: list[Observation] = field(default_factory=list)


@dataclass
class UserArrays:
    """The state of many users as arrays of one shape, e.g. (rounds, users).

    The fields mirror :class:`UserState`, with observations as integer codes
    and traffic as a critical flag.  ``critical_window`` is replaced by two
    flags that the slot engine keeps up to date: ``in_phase`` (the user has
    observed at least one slot of its critical phase, counted from the
    arrival or from a return to the plain critical rule) and
    ``success_failure`` (within that span it observed its own success
    followed by a failure).
    """

    last: np.ndarray
    prev: np.ndarray
    failures: np.ndarray
    critical: np.ndarray
    prev_critical: np.ndarray
    remaining: np.ndarray
    g_mode: np.ndarray
    g_observation: np.ndarray
    yield_after_idle: np.ndarray
    in_phase: np.ndarray
    success_failure: np.ndarray

    @classmethod
    def initial(cls, shape: tuple[int, ...]) -> "UserArrays":
        """Users that start a round: normal traffic, idle observations."""
        codes = {"last", "prev", "g_observation"}  # int8 observation codes
        counts = {"failures", "remaining"}  # int64; the rest are flags
        return cls(**{
            f.name: np.zeros(
                shape, np.int8 if f.name in codes else np.int64 if f.name in counts else bool
            )
            for f in fields(cls)
        })

    @classmethod
    def of(cls, state: UserState) -> "UserArrays":
        """One user's state as arrays of shape (1,)."""
        window = state.critical_window
        return cls(
            last=np.array([OBSERVATION_CODE[state.last_observation]], dtype=np.int8),
            prev=np.array([OBSERVATION_CODE[state.prev_observation]], dtype=np.int8),
            failures=np.array([state.consecutive_failures]),
            critical=np.array([state.traffic is CRITICAL]),
            prev_critical=np.array([state.prev_traffic is CRITICAL]),
            remaining=np.array([state.critical_remaining]),
            g_mode=np.array([state.two_crit_mode]),
            g_observation=np.array([OBSERVATION_CODE[state.g_observation]], dtype=np.int8),
            yield_after_idle=np.array([state.yield_after_idle]),
            in_phase=np.array([len(window) >= 2]),
            success_failure=np.array([any(
                a is SUCCESS and b is FAILURE for a, b in zip(window[1:], window[2:])
            )]),
        )

    def take(self, keep: np.ndarray) -> "UserArrays":
        """The rows selected by `keep` (a mask or index array over the first axis)."""
        return UserArrays(**{f.name: getattr(self, f.name)[keep] for f in fields(self)})


def channel_feedback(tx: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    """Collision-channel observation codes for transmit flags of shape (rows, users).

    No transmitter: everyone observes idle; one: it observes success and
    everyone else busy; several: the transmitters observe failure and the
    rest busy.  ``k`` is the per-row transmitter count, shaped (rows, 1),
    when the caller already has it.
    """
    if k is None:
        k = tx.sum(axis=1, keepdims=True)
    t = tx.view(np.int8)
    # a transmitter: SUCCESS_CODE (2) + 1 if anyone else transmitted;
    # a listener: IDLE_CODE (0) + 1 if anyone transmitted
    return (t << 1) + (k > t).view(np.int8)


def normal_rule_table(params: ProtocolParams) -> np.ndarray:
    """The base rule f(y, normal) by observation code y."""
    return np.array([params.q, 0.0, 1.0 - params.theta, params.r])


# rule_g by observation code: transmit after idle or busy, wait after an own
# success, retransmit with probability 1/2 after a collision
_RULE_G = np.array([1.0, 1.0, 0.0, 0.5])


def transmission_probability(params: ProtocolParams, y: Observation, z: TrafficType) -> float:
    """Base decision rule f(y, z) of the protocol family."""
    if z is CRITICAL:
        return 1.0
    return float(normal_rule_table(params)[OBSERVATION_CODE[y]])


def transmission_probabilities(
    params: ProtocolParams, cfg: EnhancementConfig, users: UserArrays
) -> np.ndarray:
    """Every user's transmission probability in the current slot, from its state.

    Critical traffic always transmits, or follows ``rule_g`` while the user
    is in the two-critical mode.  When cfg.enabled is set, normal traffic
    first checks the enhanced waiting rules:

    1. wait after observing success then failure,
    2. wait after backoff_bound consecutive failures,
    3. wait for one slot after the user's own critical traffic completed
       (when suppress_after_critical is set),
    4. wait after an idle slot while a wait is owed for a shared
       (two-critical) phase that ended (``UserState.yield_after_idle``).

    Otherwise the base rule f(last observation, normal) applies.
    """
    last = users.last
    p = normal_rule_table(params).take(last)
    if cfg.enabled:
        wait = users.failures >= cfg.backoff_bound
        wait |= (last == FAILURE_CODE) & (users.prev == SUCCESS_CODE)
        if cfg.suppress_after_critical:
            wait |= users.prev_critical
        wait |= users.yield_after_idle & (last == IDLE_CODE)
        p[wait] = 0.0
    critical = users.critical
    if critical.any():
        p = np.where(critical, np.where(users.g_mode, _RULE_G.take(users.g_observation), 1.0), p)
    return p


def user_transmission_probability(
    params: ProtocolParams, cfg: EnhancementConfig, state: UserState
) -> float:
    """One user's transmission probability: :func:`transmission_probabilities` for one."""
    return float(transmission_probabilities(params, cfg, UserArrays.of(state))[0])


def rule_g(y: Observation) -> float:
    """Channel-sharing rule used by two coexisting critical users.

    Transmit after idle or busy, wait after an own success, retransmit with
    probability 1/2 after a collision.  Once one of the two users succeeds,
    this rule makes their actions alternate (T, W)/(W, T) deterministically.
    """
    return float(_RULE_G[OBSERVATION_CODE[y]])


def two_critical_mode_triggers(cfg: EnhancementConfig, users: UserArrays) -> np.ndarray:
    """Which critical users infer a second critical user; see :func:`two_critical_mode_trigger`."""
    return (users.failures >= cfg.backoff_bound + 1) | users.success_failure


def two_critical_mode_trigger(
    state: UserState,
    cfg: EnhancementConfig,
    history_window: Sequence[Observation] = (),
) -> bool:
    """Decide whether a critical user should switch to ``rule_g``.

    A critical user infers that a second critical user exists when it sees a
    pattern that is impossible while at most one critical user is present
    (given the enhanced rules with bound B = backoff_bound):

    * B + 1 consecutive collisions -- normal users back off after B, and a
      lone critical user inherits that bound because colliding normal users
      always share one failure count;
    * an own success immediately followed by a collision, both while
      critical -- after any success every normal user observes busy and
      waits, so only another critical user can collide with the next slot.

    ``history_window`` holds the observation of the slot before the critical
    arrival followed by every observation since; the success/failure pair is
    searched from index 1 so that a success obtained while still normal does
    not count.  Once triggered, the switch is permanent for the rest of the
    user's critical phase (the caller enforces persistence via
    ``UserState.two_crit_mode``).
    """
    if state.traffic is not CRITICAL:
        raise BadParams("two_critical_mode_trigger applies to critical users only")
    if state.two_crit_mode:
        return True
    users = UserArrays.of(replace(state, critical_window=list(history_window)))
    return bool(two_critical_mode_triggers(cfg, users)[0])
