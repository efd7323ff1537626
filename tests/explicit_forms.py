"""Explicit forms of the critical delay, kept as references for the tests.

`critmac.markov` computes D_crit once, in renewal form over per-r tables.
This module keeps the derivation's explicit form beside it: the critical
chain as a dense matrix, and the tables d(l, a) and v(l, a) of the last
normal-phase slot, whose contraction sum v(l, a) d(l, a) is D_crit.  The
tests compare the package against it (`test_markov.py`), and acceptance
criterion 4 reads d(1, W) = 1.73 from it.  It also keeps the Binomial(k, r)
block as a gather of the (1 - r)^j table, which the package reads from a
strided view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from critmac.errors import BadParams
from critmac.markov import (
    TransitionMatrix,
    _binomial_block,
    _coefficients,
    _powers,
    _require_analysis_params,
    binomial_pmf,
    critical_hitting_times,
)
from critmac.protocol import ProtocolParams


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
        """Contract the tables: sum of v(l, a) * d(l, a), in v's key order."""
        return float(sum(self.v_table[key] * self.d_table[key] for key in self.v_table))


def gathered_binomial_block(n: int, rs) -> np.ndarray:
    """Rows k = 0..n of Binomial(k, r), the (1 - r)^j table gathered at j = max(k - j, 0)."""
    comb = _coefficients(n)
    up, down = _powers(n, rs)
    k, j = np.indices(comb.shape)
    return comb * up[:, None, :] * down[:, np.maximum(k - j, 0)]


def build_critical_matrix(params: ProtocolParams) -> TransitionMatrix:
    """Critical-phase chain over states 0..N-1 (transmissions by normal users).

    Row k is Binomial(k, r): non-colliding normal users observe busy and
    wait, so only the k colliders may retransmit.  State 0 is absorbing (the
    critical user succeeds and is never interrupted again).
    """
    _require_analysis_params(params)
    return TransitionMatrix(_binomial_block(params.n_users - 1, [params.r])[0])


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
    n, theta = params.n_users, params.theta
    if len(w_norm) != n + 1:
        raise BadParams(f"w_norm must have length n_users + 1 = {n + 1}, got {len(w_norm)}")
    m = critical_hitting_times(params)
    w = np.asarray(w_norm, dtype=float).tolist()
    h = (m - 1.0).tolist()
    d = {(0, "T"): 0.0, (0, "W"): float(np.sum(binomial_pmf(n - 1, params.q)[1:] * m)),
         (1, "T"): h[0], (1, "W"): float((1.0 - theta) * m[0])}
    d.update({(l, a): h[l - 1] for l in range(2, n) for a in "TW"})
    v = {(l, a): (l + 1) / n * w[l + 1] if a == "T" else (n - l) / n * w[l]
         for l in range(n) for a in "TW"}
    return DelayDecomposition(d_table=d, v_table=v, m_vector=m)
