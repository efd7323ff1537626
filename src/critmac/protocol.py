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
* a two-critical-user mode, part of the enhanced rules in every run: a
  critical user that infers the presence of a second critical user
  switches to the sharing rule ``rule_g`` until its critical traffic
  completes.  A user cannot know whether a run holds one critical user or
  two; with one, the patterns it infers from never occur.

The rules exist once, as array functions over :class:`UserArrays` (the
state of many users in many rounds, observations as integer codes):
:func:`transmission_probabilities`, with :func:`normal_rule_table` and
:func:`rule_g` as its lookups, and :func:`two_critical_mode_trigger`.  One
user is the one-element case.  :func:`channel_feedback` is the collision
channel that the slot engine and the oracle share.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

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
class UserArrays:
    """The state of many users as arrays of one shape, e.g. (rounds, users).

    Everything a user remembers between slots, and nothing more: the
    observations of the previous two slots as codes (``last``, ``prev``),
    the length of the current failure run (``failures``), the traffic of
    this and of the previous slot as critical flags (``critical``,
    ``prev_critical``; an arrival clears the latter, so for a critical user
    it means critical in the previous slot of this phase), the critical
    packets still to send (``remaining``), the two-critical mode
    (``g_mode``; rule g reads ``last``, which entry resets to idle), and
    ``yield_after_idle``: a wait owed after the next idle slot, by a user
    that finished critical traffic in a shared (two-critical) phase.
    """

    last: np.ndarray
    prev: np.ndarray
    failures: np.ndarray
    critical: np.ndarray
    prev_critical: np.ndarray
    remaining: np.ndarray
    g_mode: np.ndarray
    yield_after_idle: np.ndarray

    @classmethod
    def initial(cls, shape: tuple[int, ...]) -> "UserArrays":
        """Users that start a round: normal traffic, idle observations."""
        codes = {"last", "prev"}  # int8 observation codes
        counts = {"failures", "remaining"}  # int32; the rest are flags
        return cls(**{
            f.name: np.zeros(
                shape, np.int8 if f.name in codes else np.int32 if f.name in counts else bool
            )
            for f in fields(cls)
        })


def channel_feedback(tx: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Collision-channel observation codes for transmit flags of shape (rows, users).

    No transmitter: everyone observes idle; one: it observes success and
    everyone else busy; several: the transmitters observe failure and the
    rest busy.  ``k`` is the per-row transmitter count, shaped (rows, 1).
    """
    t = tx.view(np.int8)
    # a transmitter: SUCCESS_CODE (2) + 1 if anyone else transmitted;
    # a listener: IDLE_CODE (0) + 1 if anyone transmitted
    obs = (k > t).view(np.int8)
    obs += t
    obs += t
    return obs


def normal_rule_table(params: ProtocolParams) -> np.ndarray:
    """The base rule f(y, normal) by observation code y."""
    return np.array([params.q, 0.0, 1.0 - params.theta, params.r])


_RULE_G = np.array([1.0, 1.0, 0.0, 0.5])


def rule_g(codes: np.ndarray) -> np.ndarray:
    """Channel-sharing rule used by two coexisting critical users, by observation code.

    Transmit after idle or busy, wait after an own success, retransmit with
    probability 1/2 after a collision.  Once one of the two users succeeds,
    this rule makes their actions alternate (T, W)/(W, T) deterministically.
    """
    return _RULE_G.take(codes)


def transmission_probabilities(
    params: ProtocolParams, cfg: EnhancementConfig, users: UserArrays
) -> np.ndarray:
    """Every user's transmission probability in the current slot, from its state.

    Critical traffic always transmits, or follows :func:`rule_g` while the
    user is in the two-critical mode.  When cfg.enabled is set, normal
    traffic first checks the enhanced waiting rules:

    1. wait after observing success then failure,
    2. wait after backoff_bound consecutive failures,
    3. wait for one slot after the user's own critical traffic completed
       (when suppress_after_critical is set),
    4. wait after an idle slot while a wait is owed for a shared
       (two-critical) phase that ended (``yield_after_idle``).

    Otherwise the base rule f(last observation, normal) applies.
    """
    last = users.last
    p = normal_rule_table(params).take(last)
    if cfg.enabled:
        wait = users.failures >= cfg.backoff_bound
        wait |= (last == FAILURE_CODE) & (users.prev == SUCCESS_CODE)
        if cfg.suppress_after_critical:
            wait |= users.prev_critical
        if users.yield_after_idle.any():
            wait |= users.yield_after_idle & (last == IDLE_CODE)
        np.putmask(p, wait, 0.0)
    critical = users.critical
    if critical.any():
        np.putmask(p, critical, 1.0)
        if users.g_mode.any():
            g_mode = critical & users.g_mode
            p[g_mode] = rule_g(last[g_mode])
    return p


def two_critical_mode_trigger(cfg: EnhancementConfig, users: UserArrays) -> np.ndarray:
    """Which critical users infer a second critical user and switch to :func:`rule_g`.

    It reads only the user's memory: its failure run, its last two
    observations, and its traffic in the slots they were made in
    (``critical``, ``prev_critical``).  Each pattern is impossible while at
    most one critical user is present (given the enhanced rules with bound
    B = backoff_bound):

    * B + 1 consecutive collisions -- normal users back off after B, and a
      lone critical user inherits that bound because colliding normal users
      always share one failure count;
    * an own success followed by a collision, both while critical (a
      success obtained while still normal, or before the arrival of the
      current critical traffic, does not count) -- after any success every
      normal user observes busy and waits, so only another critical user
      can collide with the next slot.

    Meaningful for critical users only.  The slot engine calls it after
    recording a slot's observation and failure run, before
    ``prev_critical`` takes that slot's traffic.  A user outside rule g for
    which it holds enters rule g in that same step, so the pattern need not
    be kept.  The engine keeps the switch (``g_mode``) until the traffic
    completes or the alternation breaks.
    """
    success_then_collision = (users.prev == SUCCESS_CODE) & (users.last == FAILURE_CODE)
    success_then_collision &= users.critical & users.prev_critical
    return (users.failures >= cfg.backoff_bound + 1) | success_then_collision
