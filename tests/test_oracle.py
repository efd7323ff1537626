"""Vectorized Monte Carlo oracle tests.

The full 10^6-round agreement check lives in the acceptance suite; here the
oracle is validated on closed-form special cases and for determinism.
"""

from __future__ import annotations

import numpy as np
import pytest

from critmac import (
    BadParams,
    ProtocolParams,
    build_normal_matrix,
    channel_utilization,
    contention_time,
    critical_delay,
    estimate_metrics_oracle,
    stationary_distribution,
)
from critmac import oracle

P3 = ProtocolParams(3, 0.1, 0.3397, 0.4896)
P10 = ProtocolParams(10, 0.1, 0.1051, 0.4786)
P10_SLOW = ProtocolParams(10, 0.1, 0.9, 0.98)  # second eigenvalue 0.975: slow mixing


@pytest.fixture(scope="module")
def estimate():
    return estimate_metrics_oracle(P3, 60_000, seed=101)


class TestAgreement:
    def test_t_c(self, estimate):
        assert abs(estimate.t_c - contention_time(P3)) <= 4 * estimate.t_c_se

    def test_c_norm(self, estimate):
        assert abs(estimate.c_norm - channel_utilization(P3)) <= 4 * estimate.c_norm_se

    def test_d_crit(self, estimate):
        assert abs(estimate.d_crit - critical_delay(P3)) <= 4 * estimate.d_crit_se

    def test_se_scale(self, estimate):
        # 60k rounds put the standard errors in the low 1e-3 range
        assert 0 < estimate.t_c_se < 0.02
        assert 0 < estimate.c_norm_se < 0.005
        assert 0 < estimate.d_crit_se < 0.02


def _frequencies_match(counts, probs):
    """Each state's frequency within 5 SE of its probability."""
    freq = np.bincount(counts, minlength=len(probs)) / counts.size
    se = np.sqrt(probs * (1.0 - probs) / counts.size)
    assert len(freq) == len(probs)
    assert np.all(np.abs(freq - probs) <= 5 * se)


@pytest.mark.parametrize("params", [P3, P10, P10_SLOW], ids=["n3", "n10", "n10-slow"])
class TestCountChain:
    def test_one_step_matches_the_normal_matrix(self, params):
        rng = np.random.Generator(np.random.Philox(3))
        rows = build_normal_matrix(params).entries
        for k, row in enumerate(rows):
            _frequencies_match(oracle._count_step(params, np.full(20_000, k), rng), row)

    def test_injected_counts_follow_the_stationary_distribution(self, params):
        rng = np.random.Generator(np.random.Philox(4))
        k = oracle._stationary_counts(params, 10_000, rng)
        _frequencies_match(k, stationary_distribution(build_normal_matrix(params)))


class TestRZeroClosedForm:
    def test_d_crit_matches(self):
        # with r = 0 colliders never retransmit: the hitting times collapse to
        # one slot and D_crit has an elementary closed form
        n, theta, q = 5, 0.2, 0.3
        params = ProtocolParams(n, theta, q, 0.0)
        w = stationary_distribution(build_normal_matrix(params))
        d0w = 1.0 - (1.0 - q) ** (n - 1)
        closed = (n / n) * w[0] * d0w + ((n - 1) / n) * w[1] * (1.0 - theta)
        est = estimate_metrics_oracle(params, 120_000, seed=55)
        assert abs(est.d_crit - closed) <= 4 * est.d_crit_se


class TestDeterminism:
    def test_bit_for_bit(self):
        a = estimate_metrics_oracle(P3, 5_000, seed=9)
        b = estimate_metrics_oracle(P3, 5_000, seed=9)
        assert a == b

    def test_seed_sensitivity(self):
        a = estimate_metrics_oracle(P3, 5_000, seed=9)
        b = estimate_metrics_oracle(P3, 5_000, seed=10)
        assert a != b


class TestValidation:
    def test_rejects_boundary_q(self):
        with pytest.raises(BadParams):
            estimate_metrics_oracle(ProtocolParams(3, 0.1, 0.0, 0.5), 100, seed=1)

    def test_rejects_single_user(self):
        with pytest.raises(BadParams):
            estimate_metrics_oracle(ProtocolParams(1, 0.1, 0.5, 0.5), 100, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(BadParams):
            estimate_metrics_oracle(P3, 100, seed=-1)

    @pytest.mark.parametrize("rounds, seed", [(100.5, 0), (100, 0.5)])
    def test_rejects_non_integer_rounds_or_seed(self, rounds, seed):
        with pytest.raises(BadParams, match=r"^the oracle requires integer rounds and seed, got "):
            estimate_metrics_oracle(P3, rounds, seed)

    def test_rejects_too_many_users(self):
        # the stationary draw needs the normal matrix, whose binomials overflow from N = 1030
        with pytest.raises(BadParams):
            estimate_metrics_oracle(ProtocolParams(1030, 0.1, 0.01, 0.5), 100, seed=1)
