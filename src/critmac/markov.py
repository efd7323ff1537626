"""Closed-form performance metrics via small Markov chains.

Two chains describe the protocol's behavior, both over the number of
simultaneous transmissions in a slot:

* normal phase: states 0..N (all users normal).  State 1 is the success
  state; removing its row and column leaves the transient block Q_norm whose
  fundamental matrix gives the mean contention-period length T_c.  The
  chain's stationary distribution w gives the slot-state probabilities, and
  w(1) equals the channel utilization C_norm = 1 / (theta * T_c + 1).
* critical phase: states 0..N-1 counting transmissions by *normal* users
  while the critical user transmits every slot.  State 0 (critical success)
  is absorbing; the fundamental matrix row sums m_k are the expected slots
  until the critical user's first success starting from k colliding normal
  users.

The expected number of collisions a critical user suffers, D_crit, follows
by conditioning on the outcome (l, a) of the last normal-phase slot: l other
transmitters and own action a (T/W).  d(l, a) is the conditional expected
collision count and v(l, a) the stationary probability of that outcome.

All linear systems are dense and tiny (dimension <= N + 1) and are solved
with numpy.linalg.solve.  SingularSystem is raised exactly where a chain has
no unique answer:

* T_c and D_crit (plain and enhanced) at boundary q or r (0 or 1): an idle
  or colliding population that never transmits, or colliders that never
  back off, never reach a success;
* the hitting times m at r = 1, where 1 - r^k = 0 on the diagonal of
  I - Q_crit;
* a stationary distribution of a matrix with more than one absorbing
  state (the normal chain at r = 1 with N >= 3).  The normal chain at
  N = 2, r = 1 has the single absorbing state 2 and keeps its unique
  answer.

Interior points near the boundary are well posed and return the large
finite value; a LinAlgError or a non-finite solution still raises
SingularSystem rather than returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, SingularSystem
from .protocol import ProtocolParams

_ROW_SUM_TOL = 1e-12

ACTION_TRANSMIT = "T"
ACTION_WAIT = "W"


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix over transmission-count states.

    ``states[i]`` is the transmission count labelling row/column i; rows are
    kept in natural state order (the block forms used in derivations are a
    display convention only).
    """

    entries: np.ndarray
    states: tuple[int, ...]

    def __post_init__(self) -> None:
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise BadParams(f"transition matrix must be square, got shape {e.shape}")
        if len(self.states) != e.shape[0]:
            raise BadParams("state labels do not match matrix dimension")
        if np.any(e < -0.0) or np.any(e > 1.0 + 1e-15):
            raise BadParams("transition probabilities must lie in [0, 1]")
        if np.max(np.abs(e.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise BadParams("rows of a transition matrix must sum to 1")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PerformanceMetrics:
    """The protocol's steady-state metrics, all in slots or fractions.

    t_s = 1/theta (mean success-run length), f_norm = 1/t_s,
    c_norm = 1/(theta*t_c + 1).
    """

    t_s: float
    t_c: float
    c_norm: float
    d_crit: float
    f_norm: float


@dataclass(frozen=True, eq=False)
class DelayDecomposition:
    """Tables d(l, a), v(l, a) and the hitting-time vector m.

    Keys run over l = 0..N-1 and a in {"T", "W"}.  v is a complete
    probability decomposition of the last normal-phase slot (its values sum
    to 1); m_vector[k-1] is the expected number of slots until the critical
    user's first success starting from k colliding normal users.
    """

    d_table: dict[tuple[int, str], float]
    v_table: dict[tuple[int, str], float]
    m_vector: np.ndarray

    def delay(self) -> float:
        """Contract the tables: sum of v(l, a) * d(l, a)."""
        return float(sum(self.v_table[key] * self.d_table[key] for key in self.v_table))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense solve of a x = b; an exactly singular or overflowing system raises."""
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"linear system is singular: {exc}") from None
    if not np.all(np.isfinite(x)):
        raise SingularSystem("linear system has no finite solution")
    return x


_COMB_CACHE: dict[int, np.ndarray] = {0: np.ones(1)}


def _comb_row(n: int) -> np.ndarray:
    """Binomial coefficients C(n, 0..n); exact in floats for the sizes used here."""
    if n not in _COMB_CACHE:
        top = max(_COMB_CACHE)
        for m in range(top + 1, n + 1):
            prev = _COMB_CACHE[m - 1]
            row = np.ones(m + 1)
            row[1:m] = prev[1:] + prev[:-1]
            _COMB_CACHE[m] = row
    return _COMB_CACHE[n]


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """The Binomial(n, p) probability row over 0..n successes."""
    j = np.arange(n + 1)
    return _comb_row(n) * np.power(p, j) * np.power(1.0 - p, n - j)


def _require_analysis_params(params: ProtocolParams) -> None:
    if params.n_users < 2:
        raise BadParams("analytical metrics require n_users >= 2")


def _require_interior(params: ProtocolParams) -> None:
    _require_analysis_params(params)
    if not (0.0 < params.q < 1.0 and 0.0 < params.r < 1.0):
        raise SingularSystem(
            f"boundary parameters (q={params.q}, r={params.r}) make the system singular; "
            "q and r must lie strictly inside (0, 1)"
        )


def build_normal_matrix(params: ProtocolParams) -> TransitionMatrix:
    """Normal-phase chain over states 0..N (simultaneous transmissions).

    Row 0 is Binomial(N, q): every user saw the idle slot.  Row 1 puts theta
    on state 0 and 1 - theta on state 1: only the successful user may
    transmit.  Row k >= 2 is Binomial(k, r) over 0..k: only the k colliding
    users may retransmit.
    """
    _require_analysis_params(params)
    n = params.n_users
    p = np.zeros((n + 1, n + 1))
    p[0, :] = binomial_pmf(n, params.q)
    p[1, 0] = params.theta
    p[1, 1] = 1.0 - params.theta
    for k in range(2, n + 1):
        p[k, : k + 1] = binomial_pmf(k, params.r)
    return TransitionMatrix(p, tuple(range(n + 1)))


def build_critical_matrix(params: ProtocolParams) -> TransitionMatrix:
    """Critical-phase chain over states 0..N-1 (transmissions by normal users).

    Row k is Binomial(k, r): non-colliding normal users observe busy and
    wait, so only the k colliders may retransmit.  State 0 is absorbing (the
    critical user succeeds and is never interrupted again).
    """
    _require_analysis_params(params)
    n = params.n_users
    p = np.zeros((n, n))
    p[0, 0] = 1.0
    for k in range(1, n):
        p[k, : k + 1] = binomial_pmf(k, params.r)
    return TransitionMatrix(p, tuple(range(n)))


def contention_time(params: ProtocolParams) -> float:
    """Mean contention-period length T_c, in slots.

    Solves (I - Q_norm) x = e for the transient block Q_norm (state 1
    removed) and returns the entry for state 0: the expected number of
    non-success slots from an idle slot until the next success, counting the
    idle slot itself.  Independent of theta since Q_norm excludes row and
    column 1.
    """
    _require_interior(params)
    n = params.n_users
    p = build_normal_matrix(params).entries
    keep = [0] + list(range(2, n + 1))
    q_block = p[np.ix_(keep, keep)]
    x = _solve(np.eye(n) - q_block, np.ones(n))
    return float(x[0])


def channel_utilization(params: ProtocolParams) -> float:
    """Normal-phase utilization C_norm = 1 / (theta * T_c + 1)."""
    return 1.0 / (params.theta * contention_time(params) + 1.0)


def stationary_distribution(m: TransitionMatrix) -> np.ndarray:
    """Stationary distribution w of a row-stochastic matrix: wP = w, sum w = 1.

    Solved as a linear system with the normalization constraint replacing
    one redundant balance equation (last column of P - I set to ones), which
    is deterministic and avoids eigen-iteration.  Every absorbing state
    carries a stationary distribution of its own, so a matrix with more than
    one has no unique answer and raises SingularSystem.
    """
    n = m.dim
    absorbing = int(np.count_nonzero(np.diag(m.entries) == 1.0))
    if absorbing > 1:
        raise SingularSystem(
            f"chain has {absorbing} absorbing states, so its stationary distribution "
            "is not unique"
        )
    a = m.entries - np.eye(n)
    a[:, -1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    w = _solve(a.T, b)
    return w


def critical_hitting_times(params: ProtocolParams) -> np.ndarray:
    """Vector m with m[k-1] = expected slots to absorb from state k, k = 1..N-1.

    Computed as (I - Q_crit)^(-1) e for the transient block of the
    critical-phase chain; requires r < 1 (at r = 1 colliders never back
    off: 1 - r^k = 0 on the diagonal, and SingularSystem is raised).
    """
    _require_analysis_params(params)
    if params.r == 1.0:
        raise SingularSystem("r = 1: colliding users never back off, so no hitting time is finite")
    n = params.n_users
    p = build_critical_matrix(params).entries
    q_block = p[1:, 1:]
    return _solve(np.eye(n - 1) - q_block, np.ones(n - 1))


def delay_decomposition(params: ProtocolParams, w_norm: np.ndarray) -> DelayDecomposition:
    """Tables d(l, a) and v(l, a) for the critical-delay contraction.

    (l, a) describes the last slot before the critical event: l transmissions
    by other users and own action a.  With m the hitting-time vector:

    * d(l, T) = d(l, W) = m_l - 1 for l >= 2 (the chain starts at state l,
      and the collision of that last slot is not counted),
    * d(1, T) = m_1 - 1; d(1, W) = (1 - theta) m_1 (the successful user
      retransmits with probability 1 - theta),
    * d(0, T) = 0 (the critical user's own success silences everyone),
    * d(0, W) = sum_k C(N-1, k) q^k (1-q)^(N-1-k) m_k (contention restarts
      after the idle slot).

    v weighs these outcomes under the stationary slot distribution w:
    v(l, T) = (l+1)/N * w(l+1) and v(l, W) = (N-l)/N * w(l).
    """
    _require_analysis_params(params)
    n = params.n_users
    if len(w_norm) != n + 1:
        raise BadParams(f"w_norm must have length n_users + 1 = {n + 1}, got {len(w_norm)}")
    m = critical_hitting_times(params)
    theta, q = params.theta, params.q

    d: dict[tuple[int, str], float] = {}
    d[(0, ACTION_TRANSMIT)] = 0.0
    d[(0, ACTION_WAIT)] = float(np.sum(binomial_pmf(n - 1, q)[1:] * m))
    d[(1, ACTION_TRANSMIT)] = float(m[0] - 1.0)
    d[(1, ACTION_WAIT)] = float((1.0 - theta) * m[0])
    for l in range(2, n):
        d[(l, ACTION_TRANSMIT)] = float(m[l - 1] - 1.0)
        d[(l, ACTION_WAIT)] = float(m[l - 1] - 1.0)

    v: dict[tuple[int, str], float] = {}
    for l in range(n):
        v[(l, ACTION_TRANSMIT)] = (l + 1) / n * float(w_norm[l + 1])
        v[(l, ACTION_WAIT)] = (n - l) / n * float(w_norm[l])
    return DelayDecomposition(d_table=d, v_table=v, m_vector=m)


def critical_delay(params: ProtocolParams) -> float:
    """Expected collisions of a critical user before its first success, D_crit.

    Independent of the critical-traffic length: after the first success the
    transmission is never interrupted.
    """
    _require_interior(params)
    w = stationary_distribution(build_normal_matrix(params))
    return delay_decomposition(params, w).delay()


def enhanced_critical_delay(params: ProtocolParams) -> float:
    """D_crit when normal users wait after a (success, failure) pattern.

    The modification lets the interrupted run owner detect the critical user
    after one collision, replacing d(1, W) by 1 - theta; all other table
    entries are unchanged.
    """
    _require_interior(params)
    w = stationary_distribution(build_normal_matrix(params))
    dec = delay_decomposition(params, w)
    dec.d_table[(1, ACTION_WAIT)] = 1.0 - params.theta
    return dec.delay()


def evaluate_metrics(params: ProtocolParams, enhanced: bool = False) -> PerformanceMetrics:
    """Bundle all steady-state metrics for one parameter point."""
    t_c = contention_time(params)
    d = enhanced_critical_delay(params) if enhanced else critical_delay(params)
    return PerformanceMetrics(
        t_s=1.0 / params.theta,
        t_c=t_c,
        c_norm=1.0 / (params.theta * t_c + 1.0),
        d_crit=d,
        f_norm=params.theta,
    )
