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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

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


# The members, bound once: attribute access on an Enum class costs about
# 0.1 us on CPython 3.11, and the slot engine applies the rules below to
# every user in every slot.
IDLE, BUSY, SUCCESS, FAILURE = (
    Observation.IDLE, Observation.BUSY, Observation.SUCCESS, Observation.FAILURE
)
NORMAL, CRITICAL = TrafficType.NORMAL, TrafficType.CRITICAL


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


def transmission_probability(params: ProtocolParams, y: Observation, z: TrafficType) -> float:
    """Base decision rule f(y, z) of the protocol family."""
    if z is CRITICAL:
        return 1.0
    if y is IDLE:
        return params.q
    if y is BUSY:
        return 0.0
    if y is SUCCESS:
        return 1.0 - params.theta
    return params.r


def user_transmission_probability(
    params: ProtocolParams, cfg: EnhancementConfig, state: UserState
) -> float:
    """A user's transmission probability in the current slot, from its state.

    Critical traffic always transmits, or follows ``rule_g`` while the user
    is in the two-critical mode.  When cfg.enabled is set, normal traffic
    first checks the enhanced waiting rules, in a fixed order:

    1. wait after observing success then failure,
    2. wait after backoff_bound consecutive failures,
    3. wait for one slot after the user's own critical traffic completed
       (when suppress_after_critical is set),
    4. wait after an idle slot while a wait is owed for a shared
       (two-critical) phase that ended (``UserState.yield_after_idle``).

    Otherwise the base rule f(last observation, normal) applies.
    """
    if state.traffic is CRITICAL:
        return rule_g(state.g_observation) if state.two_crit_mode else 1.0
    last = state.last_observation
    if cfg.enabled:
        if state.prev_observation is SUCCESS and last is FAILURE:
            return 0.0
        if state.consecutive_failures >= cfg.backoff_bound:
            return 0.0
        if cfg.suppress_after_critical and state.prev_traffic is CRITICAL:
            return 0.0
        if state.yield_after_idle and last is IDLE:
            return 0.0
    return transmission_probability(params, last, NORMAL)


_RULE_G = {
    Observation.IDLE: 1.0,
    Observation.BUSY: 1.0,
    Observation.SUCCESS: 0.0,
    Observation.FAILURE: 0.5,
}


def rule_g(y: Observation) -> float:
    """Channel-sharing rule used by two coexisting critical users.

    Transmit after idle or busy, wait after an own success, retransmit with
    probability 1/2 after a collision.  Once one of the two users succeeds,
    this rule makes their actions alternate (T, W)/(W, T) deterministically.
    """
    return _RULE_G[y]


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
    if state.consecutive_failures >= cfg.backoff_bound + 1:
        return True
    w = history_window
    for i in range(1, len(w) - 1):
        if w[i] is SUCCESS and w[i + 1] is FAILURE:
            return True
    return False
