"""Closed-form performance metrics via small Markov chains.

Two chains describe the protocol's behavior, both over the number of
simultaneous transmissions in a slot:

* normal phase: states 0..N.  Row 0 is Binomial(N, q), row 1 puts theta on
  state 0 and 1 - theta on state 1 (a success), row k >= 2 is
  Binomial(k, r) over 0..k.  T_c is the mean number of non-success slots
  from an idle slot until the next success, counting the idle slot; the
  stationary distribution w has w(1) = C_norm = 1 / (theta * T_c + 1).
* critical phase: states 0..N-1 counting transmissions by *normal* users
  while the critical user transmits every slot.  Row k is Binomial(k, r);
  state 0 (critical success) is absorbing, and m_k is the expected number
  of slots until it from k colliding normal users.

D_crit, the expected number of collisions a critical user suffers, follows
by conditioning on the outcome (l, a) of the last normal-phase slot: l other
transmitters and own action a (T/W), with d(l, a) the conditional expected
collision count and v(l, a) = (l+1)/N w(l+1) (a = T) or (N-l)/N w(l) (a = W)
the stationary probability of that outcome.  With m the critical chain's
hitting times, d(l, T) = d(l, W) = m_l - 1 for l >= 2, d(1, T) = m_1 - 1,
d(1, W) = (1 - theta) m_1 (1 - theta under the enhanced rules), d(0, T) = 0
and d(0, W) = sum_k Binomial(N-1, q)_k m_k.

Only the idle row depends on q, and every other row is lower-triangular.
So each metric is a set of tables over the states that depend on
(N, theta, r) alone, one lower-triangular solve per r, contracted at each
point with Binomial(N, q).  With L the normal chain over the states 1..N:

* T_c.  From a collision state k >= 2 the time to the next success is
  A_k + (1 - C_k) T_c (C_k: the chance to see a success before an idle
  slot), so T_c = (1 + sum_k P_0k A_k) / (P_01 + sum_k P_0k C_k).
* D_crit, in renewal form over cycles from the idle slot.  With c_j the
  coefficient of w_j in sum v(l, a) d(l, a), (I - L) g = c and
  (I - L) s = 1: D_crit = (d(0, W) + P_0[1:] g) / (1 + P_0[1:] s).

Row k of each system is divided by 1 - P_kk, summed from the row's entries
left of the diagonal.  With a unit diagonal that no entry below it exceeds,
numpy.linalg.solve never pivots and substitutes forward in positive terms:
no digits cancel, even for q or r next to 0 or 1.  Both metrics' systems
are read from one block per r, the rows k = 1..N of Binomial(k, r) with
their unit diagonal (`_unit_block`).  `contention_times` and
`critical_delays` evaluate the grid qs x rs, a (len(qs), len(rs)) array,
and `metric_grids` both on one grid: one block and one table solve per r
and one Binomial row per q, shared by T_c and D_crit, contracted cell by
cell in the same arithmetic as the one-point functions, so each cell has
their bits; `critical_delay_along_q` reads D_crit one q at a time from one
r's tables, solved once, with the one-point bits.  The dense normal chain and
`stationary_distribution` are the explicit form, which the oracle draws
from; the explicit (d, v) contraction
and the critical chain are test references (tests/explicit_forms.py).  The
float Pascal table C(N, k) overflows from N = 1030 on, and such N is
rejected with BadParams.

The one-point T_c and D_crit raise SingularSystem on the whole boundary
(q or r equal to 0 or 1), by convention, and at an interior point whose
metric is not finite.  The chains have no finite answer on only part of
that boundary: T_c at q = 0, where the idle population never transmits,
and at r = 1, where colliders never back off; D_crit only at r = 1.  At
q = 1 and at r = 0 both are finite (at N = 10, theta = 0.1: T_c = 3.2623
and D_crit = 0.7300 at q = 0.1, r = 0; 5.5218 and 1.7112 at q = 1,
r = 0.4; the oracle agrees).  SingularSystem is also raised for m at
r = 1 (1 - r^k = 0) and for a stationary distribution of a matrix with
more than one absorbing state (the normal chain at r = 1 with N >= 3; at
N = 2 it has one).  Interior points near the boundary return the large
finite value.
A grid is NaN exactly where the one-point function raises: in the rows of
q and the columns of r outside (0, 1), and at cells whose value is not
finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import BadParams, SingularSystem
from .protocol import ProtocolParams

# float64 entries per temporary array of a batched evaluation: 1 MB
_STACK_ELEMENTS = 2 ** 17


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix over transmission-count states: row and column i are count i."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise BadParams(f"transition matrix must be square, got shape {e.shape}")
        if np.any(e < -0.0) or np.any(e > 1.0 + 1e-15):
            raise BadParams("transition probabilities must lie in [0, 1]")
        if np.max(np.abs(e.sum(axis=1) - 1.0)) > 1e-12:
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


# 8 (n + 1)^2 bytes a table: the last few N (a solve reads N and N - 1), not every N seen
@lru_cache(maxsize=8)
def _coefficients(n: int) -> np.ndarray:
    """C(k, j) for k, j = 0..n; BadParams if C(n, j) overflows (n >= 1030)."""
    rows = [np.ones(1)]
    for k in range(1, n + 1):
        row = np.append(rows[-1], 0.0)
        with np.errstate(over="ignore"):
            row[1:] += rows[-1]
        if np.isinf(row[k // 2]):  # the largest of C(k, j); raised before any table exists
            raise BadParams(f"too many users: the binomial coefficients C({n}, k) overflow a float")
        rows.append(row)
    comb = np.zeros((n + 1, n + 1))
    for k, row in enumerate(rows):
        comb[k, : k + 1] = row
    return comb


def _powers(n: int, p) -> tuple[np.ndarray, np.ndarray]:
    """p^j and (1 - p)^j for j = 0..n, one row per entry of p."""
    j = np.arange(n + 1)
    p = np.asarray(p, dtype=float)[..., None]
    return np.power(p, j), np.power(1.0 - p, j)


def binomial_pmf(n: int, p) -> np.ndarray:
    """The Binomial(n, p) probability row over 0..n successes, one row per entry of p."""
    up, down = _powers(n, p)
    return _coefficients(n)[n] * up * down[..., ::-1]


def _binomial_block(n: int, rs) -> np.ndarray:
    """Rows k = 0..n of Binomial(k, r) over 0..k, zero right of the diagonal, for each r of rs.

    (1 - r)^(k - j) is read, without a copy, from a strided view of the row
    padded = ((1 - r)^n, ..., (1 - r)^0, 1, ..., 1): entry (k, j) is
    padded[n - k + j], which is 1 right of the diagonal, where C(k, j) is 0.
    """
    up, down = _powers(n, rs)
    padded = np.ones((len(down), 2 * n + 1))
    padded[:, : n + 1] = down[:, ::-1]
    size = padded.itemsize
    # the ndarray constructor (1 us), not sliding_window_view (13 us, a fifth of a one-point solve)
    windows = np.ndarray((len(down), n + 1, n + 1), buffer=padded, offset=n * size,
                         strides=(padded.strides[0], -size, size))
    return _coefficients(n) * up[:, None, :] * windows


def _unit_block(n: int, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I - P over the states 1..N of rows k = 1..N of Binomial(k, r), row k divided by 1 - P_kk.

    1 - P_kk is summed from the row's entries left of the diagonal and
    returned as den[:, k-1].  Rows k >= 2 are both chains' rows; row 1 is e_1.
    """
    block = _binomial_block(n, rs)
    block.reshape(len(block), -1)[:, :: n + 2] = 0.0  # the diagonal P_kk
    low = block[:, 1:]
    den = low.sum(axis=-1)
    a = low[:, :, 1:] / den[..., None]
    # in place: a fresh array of this size costs about as much in page faults as the block
    return np.subtract(np.eye(n), a, out=a), den


def _solved(tables: Callable) -> Callable:
    """tables(N, theta, a, den) as a function of (N, theta, rs), from the block of rs."""
    return lambda n, theta, rs: tables(n, theta, *_unit_block(n, rs))


def _contention_tables(n: int, theta: float, a: np.ndarray, den: np.ndarray) -> tuple:
    """A_k and C_k, k = 2..N, of each r of the block (a, den).

    (I - L) [A, C] = [1, P_k1] over the states 2..N.
    """
    rhs = np.concatenate([1.0 / den[:, 1:, None], -a[:, 1:, :1]], axis=-1)  # [1, P_k1] / den
    x = np.linalg.solve(a[:, 1:, 1:], rhs)
    return x[..., 0], x[..., 1]


def _contention_contract(n: int, qs: np.ndarray, p0: np.ndarray, a: np.ndarray, c: np.ndarray):
    """T_c on the grid qs x rs from each q's Binomial(N, q) row p0 and each r's tables A and C."""
    return (1.0 + (p0[..., 2:] * a).sum(axis=-1)) / (p0[..., 1] + (p0[..., 2:] * c).sum(axis=-1))


def _delay_tables(n: int, theta: float, a: np.ndarray, den: np.ndarray,
                  enhanced: bool = False) -> tuple:
    """m, g and s of each r of the block (a, den); `enhanced` sets d(1, W) = 1 - theta.

    The block is left as it is, for T_c to read.  m solves the leading N-1
    rows, the critical chain's, and c_j = j/N d(j-1, T) + (N-j)/N d(j, W),
    j = 1..N, is the coefficient of w_j in sum v(l, a) d(l, a) (see the
    module docstring).
    """
    m = np.linalg.solve(a[:, :-1, :-1], 1.0 / den[:, :-1, None])[..., 0]
    zero = np.zeros((len(den), 1))
    d1w = np.full((len(den), 1), 1.0 - theta) if enhanced else (1.0 - theta) * m[:, :1]
    d_t = np.concatenate([zero, m - 1.0], axis=1)
    d_w = np.concatenate([d1w, m[:, 1:] - 1.0, zero], axis=1)
    j = np.arange(1, n + 1)
    c = j / n * d_t + (n - j) / n * d_w
    den = den.copy()
    den[:, 0] = theta  # row 1 of the normal chain
    gs = np.linalg.solve(a, np.stack([c, np.ones_like(c)], axis=-1) / den[..., None])
    return m, gs[..., 0], gs[..., 1]


def _delay_contract(n: int, qs: np.ndarray, p0: np.ndarray, m: np.ndarray, g: np.ndarray,
                    s: np.ndarray):
    """D_crit on the grid qs x rs from each q's Binomial(N, q) row p0 and each r's tables."""
    p0 = p0[..., 1:]
    d0w = (binomial_pmf(n - 1, qs)[:, None, 1:] * m).sum(axis=-1)
    return (d0w + (p0 * g).sum(axis=-1)) / (1.0 + (p0 * s).sum(axis=-1))


@np.errstate(all="ignore")  # a value that is not finite is NaN
def _on_grid(metrics, n_users: int, theta: float, qs, rs) -> list[np.ndarray]:
    """contract(N, q, Binomial(N, q), *tables of r) at every (qs[i], rs[j]), for each metric.

    metrics holds (tables, contract) pairs; a grid is NaN at q or r outside
    (0, 1).  Each r's block is built once for all the metrics, in chunks of
    about _STACK_ELEMENTS floats, and each metric's tables are solved from
    it; q rows are contracted in chunks of temporaries that size, from one
    Binomial(N, q) row set a chunk, one metric at a time.
    """
    _require_analysis_params(ProtocolParams(n_users, theta, 0.0, 0.0))  # N and theta checks
    qs = np.asarray(qs, dtype=float)
    rs = np.asarray(rs, dtype=float)
    outs = [np.full((len(qs), len(rs)), np.nan) for _ in metrics]
    rows = np.flatnonzero((qs > 0.0) & (qs < 1.0))
    cols = np.flatnonzero((rs > 0.0) & (rs < 1.0))
    if rows.size and cols.size:
        size = max(1, _STACK_ELEMENTS // (n_users + 1) ** 2)
        parts = []  # per r chunk, each metric's tables
        for i in range(0, cols.size, size):
            a, den = _unit_block(n_users, rs[cols[i : i + size]])
            parts.append([tables(n_users, theta, a, den) for tables, _ in metrics])
        tabs = [[np.concatenate(table) for table in zip(*solved)] for solved in zip(*parts)]
        size = max(1, _STACK_ELEMENTS // (cols.size * (n_users + 1)))
        for i in range(0, rows.size, size):
            chunk = rows[i : i + size]
            cells = np.ix_(chunk, cols)
            p0 = binomial_pmf(n_users, qs[chunk])[:, None]
            for out, (_, contract), tab in zip(outs, metrics, tabs):
                out[cells] = contract(n_users, qs[chunk], p0, *tab)
    for out in outs:
        out[~np.isfinite(out)] = np.nan
    return outs


@np.errstate(all="ignore")  # a value that is not finite raises
def _at_point(solve, contract, params: ProtocolParams) -> float:
    """contract(N, q, Binomial(N, q), *solve(N, theta, [r])) at params, as _on_grid computes it."""
    _require_interior(params)
    n = params.n_users
    q = np.array([params.q])
    tables = solve(n, params.theta, np.array([params.r]))
    value = contract(n, q, binomial_pmf(n, q)[:, None], *tables)[0, 0]
    if not np.isfinite(value):
        raise SingularSystem("the metric has no finite value at this point")
    return float(value)


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
    p = _binomial_block(n, [params.r])[0]
    p[0] = binomial_pmf(n, params.q)
    p[1, :2] = params.theta, 1.0 - params.theta
    return TransitionMatrix(p)


def contention_times(n_users: int, theta: float, qs, rs) -> np.ndarray:
    """T_c of one (N, theta) on the grid qs x rs: (len(qs), len(rs)) values T_c(qs[i], rs[j]).

    Each cell has the bits contention_time gives at that point.  NaN marks
    exactly the cells where contention_time raises: the rows of q and the
    columns of r not strictly inside (0, 1), and a T_c that is not finite.
    """
    return _on_grid([(_contention_tables, _contention_contract)], n_users, theta, qs, rs)[0]


def contention_time(params: ProtocolParams) -> float:
    """Mean contention-period length T_c, in slots.

    The expected number of non-success slots from an idle slot until the
    next success, counting the idle slot itself.  Independent of theta,
    which only row 1 holds.
    """
    return _at_point(_solved(_contention_tables), _contention_contract, params)


def channel_utilization(params: ProtocolParams) -> float:
    """Normal-phase utilization C_norm = 1 / (theta * T_c + 1)."""
    return 1.0 / (params.theta * contention_time(params) + 1.0)


def stationary_distribution(m: TransitionMatrix) -> np.ndarray:
    """Stationary distribution w of a row-stochastic matrix: wP = w, sum w = 1.

    Solved as a linear system with the normalization constraint replacing
    one redundant balance equation (last column of P - I set to ones).
    Every absorbing state carries a stationary distribution of its own, so
    a matrix with more than one raises SingularSystem, as does a system
    without a finite solution.
    """
    absorbing = np.count_nonzero(np.diagonal(m.entries) == 1.0)
    if absorbing > 1:
        raise SingularSystem(f"chain has {absorbing} absorbing states, so its stationary "
                             "distribution is not unique")
    a = m.entries - np.eye(m.dim)
    a[:, -1] = 1.0
    b = np.zeros(m.dim)
    b[-1] = 1.0
    try:
        w = np.linalg.solve(a.T, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"linear system is singular: {exc}") from None
    if not np.all(np.isfinite(w)):
        raise SingularSystem("linear system has no finite solution")
    return w


def critical_hitting_times(params: ProtocolParams) -> np.ndarray:
    """Vector m with m[k-1] = expected slots to absorb from state k, k = 1..N-1.

    (I - Q_crit) m = e by forward substitution: m_1 = 1 / (1 - r) and
    m_k = (1 + sum_{1<=j<k} P_kj m_j) / (1 - P_kk).  At r = 1 colliders
    never back off (1 - r^k = 0), and SingularSystem is raised.
    """
    _require_analysis_params(params)
    if params.r == 1.0:
        raise SingularSystem("r = 1: colliding users never back off, so no hitting time is finite")
    m = _solved(_delay_tables)(params.n_users, params.theta, np.array([params.r]))[0][0]
    if not np.all(np.isfinite(m)):
        raise SingularSystem("the hitting times are not finite")
    return m


def critical_delays(n_users: int, theta: float, qs, rs) -> np.ndarray:
    """D_crit of one (N, theta) on the grid qs x rs: (len(qs), len(rs)) values D_crit(qs[i], rs[j]).

    Each cell has the bits critical_delay gives at that point; NaN marks
    exactly the cells where critical_delay raises, as in contention_times.
    """
    return _on_grid([(_delay_tables, _delay_contract)], n_users, theta, qs, rs)[0]


def metric_grids(n_users: int, theta: float, qs, rs) -> tuple[np.ndarray, np.ndarray]:
    """(contention_times, critical_delays) of one (N, theta) on the grid qs x rs, bit for bit.

    Each r's block is built once for both, not once for each.
    """
    t_c, d_crit = _on_grid([(_contention_tables, _contention_contract),
                            (_delay_tables, _delay_contract)], n_users, theta, qs, rs)
    return t_c, d_crit


def critical_delay(params: ProtocolParams) -> float:
    """Expected collisions of a critical user before its first success, D_crit.

    Independent of the critical-traffic length: after the first success the
    transmission is never interrupted.
    """
    return _at_point(_solved(_delay_tables), _delay_contract, params)


def critical_delay_along_q(n_users: int, theta: float, r: float) -> Callable[[float], float]:
    """q -> critical_delay(ProtocolParams(n_users, theta, q, r)), with r's tables solved once.

    Each call has critical_delay's bits and raises where it raises; the
    tables are solved at the first call that gets past the parameter checks.
    """
    memo = []

    def tables(n: int, theta: float, rs: np.ndarray) -> tuple:
        if not memo:
            memo.append(_solved(_delay_tables)(n, theta, rs))
        return memo[0]

    return lambda q: _at_point(tables, _delay_contract, ProtocolParams(n_users, theta, q, r))


def enhanced_critical_delay(params: ProtocolParams) -> float:
    """D_crit when normal users wait after a (success, failure) pattern.

    The modification lets the interrupted run owner detect the critical user
    after one collision, replacing d(1, W) by 1 - theta; all other table
    entries are unchanged.
    """
    return _at_point(_solved(partial(_delay_tables, enhanced=True)), _delay_contract, params)


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
