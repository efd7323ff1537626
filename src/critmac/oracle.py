"""Brute-force Monte Carlo oracle for the closed-form metrics.

This is the validation counterpart of the analytical formulas: it estimates
T_c, C_norm and D_crit by direct simulation (baseline protocol, single
critical user), vectorized across rounds so that 10^6-round runs finish in
seconds.  Estimators are deliberately free of windowing bias:

* T_c simulates whole contention periods on the transmission-count chain,
  starting from the idle slot and counting slots until the first success;
* C_norm simulates whole renewal cycles (a success run is one geometric
  draw of the run length, which is exactly the per-slot stopping process)
  and forms total successes / total slots with a delta-method SE;
* D_crit draws the last normal slot's transmitter count k from the chain's
  exact stationary distribution, gives the k transmitters to users 0..k-1
  (the users are exchangeable), then runs the N-user slot process from a
  uniformly chosen critical user and counts its collisions until its first success.

Randomness comes from a single counter-based Philox stream (per call), with
a fixed batch layout, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams
from .markov import build_normal_matrix, stationary_distribution
from .protocol import ProtocolParams, channel_feedback, normal_rule_table

_BATCH = 1 << 17


@dataclass(frozen=True)
class OracleEstimate:
    t_c: float
    t_c_se: float
    c_norm: float
    c_norm_se: float
    d_crit: float
    d_crit_se: float
    rounds: int


def _count_step(params: ProtocolParams, k: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Next slot's transmission counts on the normal chain, from the current counts k.

    After idle all N users draw; after k >= 1 only those k, by the rule for what they saw.
    """
    p = normal_rule_table(params)[np.minimum(k, 2) + (k > 0)]
    return rng.binomial(np.where(k == 0, params.n_users, k), p)


def _contention_lengths(params: ProtocolParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate `size` contention periods on the state chain; returns lengths."""
    state = np.zeros(size, dtype=np.int64)
    length = np.ones(size, dtype=np.int64)  # the initial idle slot counts
    idx = np.arange(size)
    while idx.size:
        nxt = _count_step(params, state[idx], rng)
        state[idx] = nxt
        keep = nxt != 1
        length[idx[keep]] += 1
        idx = idx[keep]
    return length


def _stationary_counts(params: ProtocolParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """`size` inverse-CDF draws from the normal chain's stationary w, clamped to N for round-off."""
    cdf = np.cumsum(stationary_distribution(build_normal_matrix(params)))
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), params.n_users)


def _critical_collision_counts(
    params: ProtocolParams, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Inject one critical user after a stationary slot, count its failures in the slot process."""
    n = params.n_users
    k = _stationary_counts(params, size, rng)
    obs = channel_feedback(np.arange(n) < k[:, None], k[:, None])
    table = normal_rule_table(params).astype(np.float32)
    crit = rng.integers(0, n, size)
    fails = np.zeros(size, dtype=np.int64)
    idx = np.arange(size)
    while idx.size:
        sub = obs[idx]
        p = table[sub]
        p[np.arange(idx.size), crit[idx]] = 1.0
        tx = rng.random(sub.shape, dtype=np.float32) < p
        k = tx.sum(axis=1, keepdims=True)
        succ = k[:, 0] == 1  # the critical user always transmits, so k==1 is its success
        fails[idx[~succ]] += 1
        obs[idx] = channel_feedback(tx, k)
        idx = idx[~succ]
    return fails


def estimate_metrics_oracle(params: ProtocolParams, rounds: int, seed: int) -> OracleEstimate:
    """Estimate (T_c, C_norm, D_crit) with standard errors from `rounds` samples each."""
    if params.n_users < 2:
        raise BadParams("the oracle requires n_users >= 2")
    if not 0.0 < params.q < 1.0 or not 0.0 <= params.r < 1.0:
        raise BadParams("the oracle requires q in (0, 1) and r in [0, 1)")
    if not isinstance(rounds, int) or not isinstance(seed, int):
        raise BadParams(f"the oracle requires integer rounds and seed, got {rounds!r} and {seed!r}")
    if rounds < 2 or seed < 0:
        raise BadParams(f"the oracle requires rounds >= 2 and seed >= 0, got {rounds} and {seed}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0))))

    # the sum and the sum of squares of each estimator's samples: T_c, a
    # cycle's success run, D_crit
    moments = np.zeros((3, 2))
    left = rounds
    while left > 0:
        b = min(_BATCH, left)
        left -= b
        draws = (_contention_lengths(params, b, rng), rng.geometric(params.theta, b),
                 _critical_collision_counts(params, b, rng))
        for row, x in zip(moments, draws):
            x = x.astype(np.float64)
            row += (x.sum(), (x**2).sum())

    m = float(rounds)
    t_c, s_mean, d_crit = mean = moments[:, 0] / m
    var_c, var_s, var_d = moments[:, 1] / m - mean**2
    t_c_se = math.sqrt(var_c / m)
    c_norm = moments[1, 0] / (moments[1, 0] + moments[0, 0])
    # delta method on f(s, c) = s / (s + c) with independent cycle halves
    denom = (s_mean + t_c) ** 4
    c_norm_se = math.sqrt((t_c**2 * var_s / m + s_mean**2 * var_c / m) / denom)
    d_crit_se = math.sqrt(var_d / m)
    return OracleEstimate(t_c=t_c, t_c_se=t_c_se, c_norm=c_norm, c_norm_se=c_norm_se,
                          d_crit=d_crit, d_crit_se=d_crit_se, rounds=rounds)
