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

All linear systems are dense and small (dimension <= N + 1) and are solved
with numpy.linalg.solve, on stacks of matrices: `contention_times` and
`critical_delays` build the chains of many (q, r) points of one (N, theta)
as (points, dim, dim) arrays of about _STACK_ELEMENTS floats and solve each
system once per stack.  The one-point functions are the same code on a
stack of one, so both give the same bits at every point.  SingularSystem is
raised exactly where a chain has no unique answer:

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
SingularSystem rather than returning garbage.  The stacked functions never
raise for a point: they return NaN where the one-point function would
raise (and for every point of a stack holding an exactly singular system),
so a caller asks the one-point function for that point's error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, SingularSystem
from .protocol import ProtocolParams

_ROW_SUM_TOL = 1e-12
# float64 entries per stacked (points, dim, dim) array: 1 MB
_STACK_ELEMENTS = 2 ** 17

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
        _check_stochastic(e)

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
        return float(_contract(self.v_table, self.d_table))


def _contract(v_table: dict, d_table: dict):
    """Sum of v(l, a) * d(l, a), added in v's key order (floats or per-point arrays)."""
    return sum(v_table[key] * d_table[key] for key in v_table)


def _check_stochastic(entries: np.ndarray) -> None:
    """Entries in [0, 1] and rows summing to 1, for one matrix or a stack of them."""
    if np.any(entries < -0.0) or np.any(entries > 1.0 + 1e-15):
        raise BadParams("transition probabilities must lie in [0, 1]")
    if np.max(np.abs(entries.sum(axis=-1) - 1.0)) > _ROW_SUM_TOL:
        raise BadParams("rows of a transition matrix must sum to 1")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a[i] x[i] = b for every system of the stack a.

    An exactly singular system raises SingularSystem for the whole stack; a
    system whose solution is not finite gets NaN in every entry of it.
    """
    rhs = np.broadcast_to(b[:, None], (*a.shape[:-1], 1))
    try:
        x = np.linalg.solve(a, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"linear system is singular: {exc}") from None
    x[~np.all(np.isfinite(x), axis=-1)] = np.nan
    return x


def _single(x: np.ndarray) -> np.ndarray:
    """The answer of a stack of one system; a solution that is not finite raises."""
    if np.isnan(x).any():
        raise SingularSystem("linear system has no finite solution")
    return x[0]


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


def _powers(n: int, p) -> tuple[np.ndarray, np.ndarray]:
    """p^j and (1 - p)^j for j = 0..n, one row per entry of p."""
    j = np.arange(n + 1)
    p = np.asarray(p, dtype=float)[..., None]
    return np.power(p, j), np.power(1.0 - p, j)


def _binomial(k: int, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Binomial(k, p) rows from the powers of p: C(k, j) p^j (1 - p)^(k - j), j = 0..k."""
    return _comb_row(k) * up[..., : k + 1] * down[..., k::-1]


def binomial_pmf(n: int, p) -> np.ndarray:
    """The Binomial(n, p) probability row over 0..n successes, one row per entry of p."""
    return _binomial(n, *_powers(n, p))


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


def _normal_stack(n: int, theta: float, qs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Normal-phase chains of the points (qs[i], rs[i]), as a (points, N+1, N+1) stack."""
    p = np.zeros((len(qs), n + 1, n + 1))
    p[:, 0, :] = binomial_pmf(n, qs)
    p[:, 1, 0] = theta
    p[:, 1, 1] = 1.0 - theta
    up, down = _powers(n, rs)
    for k in range(2, n + 1):
        p[:, k, : k + 1] = _binomial(k, up, down)
    return p


def _critical_stack(n: int, rs: np.ndarray) -> np.ndarray:
    """Critical-phase chains of the retransmission probabilities rs, as a (points, N, N) stack."""
    p = np.zeros((len(rs), n, n))
    p[:, 0, 0] = 1.0
    up, down = _powers(n - 1, rs)
    for k in range(1, n):
        p[:, k, : k + 1] = _binomial(k, up, down)
    return p


def build_normal_matrix(params: ProtocolParams) -> TransitionMatrix:
    """Normal-phase chain over states 0..N (simultaneous transmissions).

    Row 0 is Binomial(N, q): every user saw the idle slot.  Row 1 puts theta
    on state 0 and 1 - theta on state 1: only the successful user may
    transmit.  Row k >= 2 is Binomial(k, r) over 0..k: only the k colliding
    users may retransmit.
    """
    _require_analysis_params(params)
    n = params.n_users
    p = _normal_stack(n, params.theta, [params.q], [params.r])[0]
    return TransitionMatrix(p, tuple(range(n + 1)))


def build_critical_matrix(params: ProtocolParams) -> TransitionMatrix:
    """Critical-phase chain over states 0..N-1 (transmissions by normal users).

    Row k is Binomial(k, r): non-colliding normal users observe busy and
    wait, so only the k colliders may retransmit.  State 0 is absorbing (the
    critical user succeeds and is never interrupted again).
    """
    _require_analysis_params(params)
    n = params.n_users
    return TransitionMatrix(_critical_stack(n, [params.r])[0], tuple(range(n)))


def _contention_stack(n: int, theta: float, qs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """T_c at each point of a stack: entry 0 of (I - Q_norm)^-1 e."""
    p = _normal_stack(n, theta, qs, rs)
    _check_stochastic(p)
    a = np.delete(np.delete(p, 1, axis=1), 1, axis=2)  # Q_norm: state 1 removed
    np.subtract(np.eye(n), a, out=a)
    return _solve(a, np.ones(n))[:, 0]


def contention_time(params: ProtocolParams) -> float:
    """Mean contention-period length T_c, in slots.

    Solves (I - Q_norm) x = e for the transient block Q_norm (state 1
    removed) and returns the entry for state 0: the expected number of
    non-success slots from an idle slot until the next success, counting the
    idle slot itself.  Independent of theta since Q_norm excludes row and
    column 1.
    """
    _require_interior(params)
    return float(_single(_contention_stack(params.n_users, params.theta, [params.q], [params.r])))


def channel_utilization(params: ProtocolParams) -> float:
    """Normal-phase utilization C_norm = 1 / (theta * T_c + 1)."""
    return 1.0 / (params.theta * contention_time(params) + 1.0)


def _stationary_solve(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of each matrix of a stack; see stationary_distribution."""
    absorbing = np.count_nonzero(np.diagonal(p, axis1=-2, axis2=-1) == 1.0, axis=-1).max()
    if absorbing > 1:
        raise SingularSystem(
            f"chain has {absorbing} absorbing states, so its stationary distribution "
            "is not unique"
        )
    n = p.shape[-1]
    a = p - np.eye(n)
    a[..., -1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return _solve(np.swapaxes(a, -1, -2), b)


def stationary_distribution(m: TransitionMatrix) -> np.ndarray:
    """Stationary distribution w of a row-stochastic matrix: wP = w, sum w = 1.

    Solved as a linear system with the normalization constraint replacing
    one redundant balance equation (last column of P - I set to ones), which
    is deterministic and avoids eigen-iteration.  Every absorbing state
    carries a stationary distribution of its own, so a matrix with more than
    one has no unique answer and raises SingularSystem.
    """
    return _single(_stationary_solve(m.entries[None]))


def _hitting_solve(p: np.ndarray) -> np.ndarray:
    """Hitting times m of each critical chain of a stack: (I - Q_crit)^-1 e."""
    n = p.shape[-1]
    return _solve(np.eye(n - 1) - p[:, 1:, 1:], np.ones(n - 1))


def critical_hitting_times(params: ProtocolParams) -> np.ndarray:
    """Vector m with m[k-1] = expected slots to absorb from state k, k = 1..N-1.

    Computed as (I - Q_crit)^(-1) e for the transient block of the
    critical-phase chain; requires r < 1 (at r = 1 colliders never back
    off: 1 - r^k = 0 on the diagonal, and SingularSystem is raised).
    """
    _require_analysis_params(params)
    if params.r == 1.0:
        raise SingularSystem("r = 1: colliding users never back off, so no hitting time is finite")
    p = build_critical_matrix(params).entries
    return _single(_hitting_solve(p[None]))


def _delay_tables(
    n: int, theta: float, qs: np.ndarray, m: np.ndarray, w: np.ndarray
) -> tuple[dict, dict]:
    """d(l, a) and v(l, a) of every point of a stack, each entry an array over the points.

    m is the (points, N-1) stack of hitting times and w the (points, N+1)
    stack of stationary distributions; see delay_decomposition.
    """
    d: dict[tuple[int, str], np.ndarray] = {}
    d[(0, ACTION_TRANSMIT)] = np.zeros(len(qs))
    d[(0, ACTION_WAIT)] = np.sum(binomial_pmf(n - 1, qs)[:, 1:] * m, axis=-1)
    d[(1, ACTION_TRANSMIT)] = m[:, 0] - 1.0
    d[(1, ACTION_WAIT)] = (1.0 - theta) * m[:, 0]
    for l in range(2, n):
        d[(l, ACTION_TRANSMIT)] = d[(l, ACTION_WAIT)] = m[:, l - 1] - 1.0

    v: dict[tuple[int, str], np.ndarray] = {}
    for l in range(n):
        v[(l, ACTION_TRANSMIT)] = (l + 1) / n * w[:, l + 1]
        v[(l, ACTION_WAIT)] = (n - l) / n * w[:, l]
    return d, v


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
    d, v = _delay_tables(n, params.theta, np.array([params.q]), m[None],
                         np.asarray(w_norm, dtype=float)[None])
    return DelayDecomposition(
        d_table={key: float(val[0]) for key, val in d.items()},
        v_table={key: float(val[0]) for key, val in v.items()},
        m_vector=m,
    )


def critical_delay(params: ProtocolParams) -> float:
    """Expected collisions of a critical user before its first success, D_crit.

    Independent of the critical-traffic length: after the first success the
    transmission is never interrupted.
    """
    _require_interior(params)
    w = stationary_distribution(build_normal_matrix(params))
    return delay_decomposition(params, w).delay()


def _delay_stack(n: int, theta: float, qs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """D_crit at each point of a stack, as critical_delay computes it point by point."""
    p = _normal_stack(n, theta, qs, rs)
    _check_stochastic(p)
    w = _stationary_solve(p)
    c = _critical_stack(n, rs)
    _check_stochastic(c)
    m = _hitting_solve(c)
    d, v = _delay_tables(n, theta, qs, m, w)
    return _contract(v, d)


def _by_stacks(solve_stack, n_users: int, theta: float, qs, rs) -> np.ndarray:
    """solve_stack over the interior points of (qs, rs), one stack of points at a time.

    Points with q or r outside (0, 1), and every point of a stack that
    raises, are left NaN.
    """
    _require_analysis_params(ProtocolParams(n_users, theta, 0.0, 0.0))  # N and theta checks
    qs = np.asarray(qs, dtype=float)
    rs = np.asarray(rs, dtype=float)
    out = np.full(len(qs), np.nan)
    inside = np.flatnonzero((qs > 0.0) & (qs < 1.0) & (rs > 0.0) & (rs < 1.0))
    size = max(1, _STACK_ELEMENTS // (n_users + 1) ** 2)
    for start in range(0, len(inside), size):
        idx = inside[start : start + size]
        try:
            out[idx] = solve_stack(n_users, theta, qs[idx], rs[idx])
        except (BadParams, SingularSystem):
            pass  # each of these points is left to the one-point function
    return out


def contention_times(n_users: int, theta: float, qs, rs) -> np.ndarray:
    """T_c at every point (qs[i], rs[i]) of one (N, theta), solved in stacks.

    Each value has the bits contention_time gives at that point.  NaN marks
    a point where contention_time raises (q or r not strictly inside (0, 1),
    or no finite solution) and every point of a stack holding an exactly
    singular system; contention_time gives such a point's answer.
    """
    return _by_stacks(_contention_stack, n_users, theta, qs, rs)


def critical_delays(n_users: int, theta: float, qs, rs) -> np.ndarray:
    """D_crit at every point (qs[i], rs[i]) of one (N, theta), solved in stacks.

    Each value has the bits critical_delay gives at that point; NaN marks
    points as in contention_times, and critical_delay answers them.
    """
    return _by_stacks(_delay_stack, n_users, theta, qs, rs)


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
