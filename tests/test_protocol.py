"""Decision-rule unit tests and protocol-level properties.

The rules run on one-user (or two-user) `UserArrays`, as the slot engine
runs them on many.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from critmac import BadParams, EnhancementConfig, Observation, ProtocolParams, TrafficType
from critmac.protocol import (
    OBSERVATIONS,
    UserArrays,
    normal_rule_table,
    rule_g,
    transmission_probabilities,
    two_critical_mode_trigger,
)

I, B, S, F = Observation.IDLE, Observation.BUSY, Observation.SUCCESS, Observation.FAILURE
NORMAL, CRITICAL = TrafficType.NORMAL, TrafficType.CRITICAL
BASE = EnhancementConfig()


def params(n=10, theta=0.1, q=0.105, r=0.479):
    return ProtocolParams(n, theta, q, r)


def code(y):
    return OBSERVATIONS.index(y)


def user(**state):
    """One user's state as UserArrays of shape (1,); observations given as members."""
    u = UserArrays.initial((1,))
    for name, value in state.items():
        getattr(u, name)[0] = code(value) if isinstance(value, Observation) else value
    return u


def probability(p, cfg, **state):
    return float(transmission_probabilities(p, cfg, user(**state))[0])


def f(p, y, z):
    """The base rule f(y, z)."""
    return probability(p, BASE, last=y, critical=z is CRITICAL)


def g(y):
    return float(rule_g(np.array([code(y)]))[0])


class TestBaseRule:
    def test_success_normal_is_one_minus_theta(self):
        assert f(params(), S, NORMAL) == pytest.approx(0.9)

    def test_busy_normal_is_zero(self):
        for p in (params(), params(theta=0.7, q=0.9, r=0.2)):
            assert f(p, B, NORMAL) == 0.0

    def test_critical_always_transmits(self):
        for y in Observation:
            assert f(params(), y, CRITICAL) == 1.0

    def test_idle_and_failure_entries(self):
        p = params(q=0.33, r=0.71)
        assert f(p, I, NORMAL) == 0.33
        assert f(p, F, NORMAL) == 0.71
        assert normal_rule_table(p).tolist() == [0.33, 0.0, 0.9, 0.71]

    @given(
        theta=st.floats(0.001, 1.0),
        q=st.floats(0.0, 1.0),
        r=st.floats(0.0, 1.0),
        n=st.integers(2, 80),
    )
    def test_probability_bounds(self, theta, q, r, n):
        p = ProtocolParams(n, theta, q, r)
        for y, z in itertools.product(Observation, TrafficType):
            assert 0.0 <= f(p, y, z) <= 1.0


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_users=0, theta=0.1, q=0.1, r=0.1),
            dict(n_users=3, theta=0.0, q=0.1, r=0.1),
            dict(n_users=3, theta=1.2, q=0.1, r=0.1),
            dict(n_users=3, theta=0.1, q=-0.1, r=0.1),
            dict(n_users=3, theta=0.1, q=0.1, r=1.3),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(BadParams):
            ProtocolParams(**kwargs)

    def test_backoff_bound_minimum(self):
        with pytest.raises(BadParams):
            EnhancementConfig(enabled=True, backoff_bound=1)


class TestEnhancedRule:
    CFG = EnhancementConfig(enabled=True, backoff_bound=5)

    def test_rule1_success_then_failure(self):
        assert probability(params(), self.CFG, prev=S, last=F) == 0.0

    def test_rule2_backoff_bound(self):
        assert probability(params(), self.CFG, last=F, failures=5) == 0.0
        assert probability(params(), self.CFG, last=F, failures=4) == 0.479

    def test_rule3_after_critical(self):
        state = dict(last=S, prev_critical=True)
        assert probability(params(), self.CFG, **state) == 0.0
        no_suppress = EnhancementConfig(enabled=True, backoff_bound=5,
                                        suppress_after_critical=False)
        assert probability(params(), no_suppress, **state) == 0.9

    def test_rule4_fallback(self):
        assert probability(params(), self.CFG, last=I) == 0.105
        crit = dict(last=F, failures=9, critical=True)
        assert probability(params(), self.CFG, **crit) == 1.0

    def test_yield_after_idle(self):
        assert probability(params(), self.CFG, last=I, yield_after_idle=True) == 0.0
        assert probability(params(), self.CFG, last=S, yield_after_idle=True) == 0.9

    def test_rule_g_branch(self):
        for y in Observation:
            state = dict(critical=True, g_mode=True, g_observation=y)
            assert probability(params(), self.CFG, **state) == g(y)

    def test_disabled_config_gives_base_rule(self):
        # every waiting rule's trigger is set, and none of them applies
        for y in Observation:
            state = dict(prev=S, last=y, failures=9, prev_critical=True, yield_after_idle=True)
            assert probability(params(), BASE, **state) == f(params(), y, NORMAL)


class TestRuleG:
    def test_values(self):
        assert g(I) == 1.0
        assert g(B) == 1.0
        assert g(S) == 0.0
        assert g(F) == 0.5

    def test_alternation_after_first_success(self):
        # deterministic sub-chain: once one of two rule-g users succeeds,
        # actions alternate (T, W)/(W, T); successes never collide again
        obs = np.array([code(S), code(B)])
        pattern = []
        for _ in range(30):
            ps = rule_g(obs)
            assert set(ps.tolist()) <= {0.0, 1.0}
            acts = ps == 1.0
            assert acts.sum() == 1
            pattern.append(tuple(acts.tolist()))
            obs = np.where(acts, code(S), code(B))
        for first, second in zip(pattern, pattern[1:]):
            assert first != second


class TestTwoCriticalTrigger:
    """The trigger on a user's memory; when the slot engine calls it, and
    how an arrival clears ``prev_critical``, is tested in test_engine.py."""

    CFG = EnhancementConfig(enabled=True, backoff_bound=5)

    def trigger(self, **state):
        return bool(two_critical_mode_trigger(self.CFG, user(critical=True, **state))[0])

    def test_b_plus_one_collisions(self):
        assert self.trigger(failures=6, last=F, prev_critical=True)

    def test_success_then_failure_in_phase(self):
        assert self.trigger(prev=S, last=F, prev_critical=True)

    def test_few_failures_no_trigger(self):
        assert not self.trigger(failures=3, last=F, prev_critical=True)

    def test_success_while_normal_no_trigger(self):
        assert not self.trigger(prev=S, last=F, prev_critical=False)


class TestNonIntrusiveness:
    """Exhaustive 3-user, 10-slot branching: once a critical user records a
    success, no normal user transmits until its traffic completes."""

    def test_exhaustive_enumeration(self):
        p = params(n=3, theta=0.25, q=0.3, r=0.6)
        packets = 3

        def probs(obs, remaining):
            users = UserArrays.initial((3,))
            users.last[:] = [code(y) for y in obs]
            users.critical[0] = remaining > 0
            return transmission_probabilities(p, BASE, users).tolist()

        # state: (obs triple, remaining packets, critical-succeeded flag)
        states = {((I, I, I), packets, False)}
        for _ in range(10):
            nxt = set()
            for obs, remaining, succeeded in states:
                pr = probs(obs, remaining)
                options = [
                    [a for a in (True, False) if (pr[i] > 0 if a else pr[i] < 1)]
                    for i in range(3)
                ]
                for acts in itertools.product(*options):
                    if succeeded and remaining > 0:
                        assert not any(acts[1:]), (
                            "normal user transmitted during an uninterrupted "
                            "critical transmission"
                        )
                    k = sum(acts)
                    new_obs = tuple(
                        (S if k == 1 else F) if a else (I if k == 0 else B)
                        for a in acts
                    )
                    new_remaining = remaining
                    new_succeeded = succeeded
                    if remaining > 0 and acts[0] and k == 1:
                        new_remaining -= 1
                        new_succeeded = True
                    nxt.add((new_obs, new_remaining, new_succeeded))
            states = nxt
