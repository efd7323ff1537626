"""Decision-rule unit tests and protocol-level properties."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from critmac import (
    BadParams,
    EnhancementConfig,
    Observation,
    ProtocolParams,
    TrafficType,
    UserState,
    rule_g,
    transmission_probability,
    two_critical_mode_trigger,
    user_transmission_probability,
)

I, B, S, F = Observation.IDLE, Observation.BUSY, Observation.SUCCESS, Observation.FAILURE
NORMAL, CRITICAL = TrafficType.NORMAL, TrafficType.CRITICAL


def params(n=10, theta=0.1, q=0.105, r=0.479):
    return ProtocolParams(n, theta, q, r)


class TestBaseRule:
    def test_success_normal_is_one_minus_theta(self):
        assert transmission_probability(params(), S, NORMAL) == pytest.approx(0.9)

    def test_busy_normal_is_zero(self):
        for p in (params(), params(theta=0.7, q=0.9, r=0.2)):
            assert transmission_probability(p, B, NORMAL) == 0.0

    def test_critical_always_transmits(self):
        for y in Observation:
            assert transmission_probability(params(), y, CRITICAL) == 1.0

    def test_idle_and_failure_entries(self):
        p = params(q=0.33, r=0.71)
        assert transmission_probability(p, I, NORMAL) == 0.33
        assert transmission_probability(p, F, NORMAL) == 0.71

    @given(
        theta=st.floats(0.001, 1.0),
        q=st.floats(0.0, 1.0),
        r=st.floats(0.0, 1.0),
        n=st.integers(2, 80),
    )
    def test_probability_bounds(self, theta, q, r, n):
        p = ProtocolParams(n, theta, q, r)
        for y, z in itertools.product(Observation, TrafficType):
            assert 0.0 <= transmission_probability(p, y, z) <= 1.0


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
        state = UserState(prev_observation=S, last_observation=F, traffic=NORMAL)
        assert user_transmission_probability(params(), self.CFG, state) == 0.0

    def test_rule2_backoff_bound(self):
        state = UserState(last_observation=F, consecutive_failures=5, traffic=NORMAL)
        assert user_transmission_probability(params(), self.CFG, state) == 0.0
        state.consecutive_failures = 4
        assert user_transmission_probability(params(), self.CFG, state) == 0.479

    def test_rule3_after_critical(self):
        state = UserState(last_observation=S, traffic=NORMAL, prev_traffic=CRITICAL)
        assert user_transmission_probability(params(), self.CFG, state) == 0.0
        no_suppress = EnhancementConfig(enabled=True, backoff_bound=5,
                                        suppress_after_critical=False)
        assert user_transmission_probability(params(), no_suppress, state) == 0.9

    def test_rule4_fallback(self):
        state = UserState(last_observation=I, traffic=NORMAL)
        assert user_transmission_probability(params(), self.CFG, state) == 0.105
        crit = UserState(last_observation=F, consecutive_failures=9, traffic=CRITICAL)
        assert user_transmission_probability(params(), self.CFG, crit) == 1.0

    def test_yield_after_idle(self):
        state = UserState(last_observation=I, traffic=NORMAL, yield_after_idle=True)
        assert user_transmission_probability(params(), self.CFG, state) == 0.0
        state.last_observation = S
        assert user_transmission_probability(params(), self.CFG, state) == 0.9

    def test_rule_g_branch(self):
        for y in Observation:
            state = UserState(traffic=CRITICAL, two_crit_mode=True, g_observation=y)
            assert user_transmission_probability(params(), self.CFG, state) == rule_g(y)

    def test_disabled_config_gives_base_rule(self):
        # every waiting rule's trigger is set, and none of them applies
        state = UserState(prev_observation=S, last_observation=F, consecutive_failures=9,
                          traffic=NORMAL, prev_traffic=CRITICAL, yield_after_idle=True)
        for y in Observation:
            state.last_observation = y
            assert user_transmission_probability(params(), EnhancementConfig(), state) == (
                transmission_probability(params(), y, NORMAL)
            )


class TestRuleG:
    def test_values(self):
        assert rule_g(I) == 1.0
        assert rule_g(B) == 1.0
        assert rule_g(S) == 0.0
        assert rule_g(F) == 0.5

    def test_alternation_after_first_success(self):
        # deterministic sub-chain: once one of two rule-g users succeeds,
        # actions alternate (T, W)/(W, T); successes never collide again
        obs = [S, B]
        pattern = []
        for _ in range(30):
            ps = [rule_g(o) for o in obs]
            assert set(ps) <= {0.0, 1.0}
            acts = [p == 1.0 for p in ps]
            assert sum(acts) == 1
            pattern.append(tuple(acts))
            obs = [S if a else B for a in acts]
        for first, second in zip(pattern, pattern[1:]):
            assert first != second


class TestTwoCriticalTrigger:
    CFG = EnhancementConfig(enabled=True, backoff_bound=5)

    def test_b_plus_one_collisions(self):
        state = UserState(traffic=CRITICAL, consecutive_failures=6, last_observation=F)
        assert two_critical_mode_trigger(state, self.CFG, [B] + [F] * 6)

    def test_success_then_failure_in_phase(self):
        state = UserState(traffic=CRITICAL, prev_observation=S, last_observation=F)
        assert two_critical_mode_trigger(state, self.CFG, [B, F, S, F])

    def test_pre_arrival_success_does_not_count(self):
        # window[0] is the slot before the arrival; a success there happened
        # while the user was still normal
        state = UserState(traffic=CRITICAL, prev_observation=S, last_observation=F)
        assert not two_critical_mode_trigger(state, self.CFG, [S, F])

    def test_few_failures_no_trigger(self):
        state = UserState(traffic=CRITICAL, consecutive_failures=3, last_observation=F)
        assert not two_critical_mode_trigger(state, self.CFG, [B, F, F, F])

    def test_permanent_once_set(self):
        state = UserState(traffic=CRITICAL, two_crit_mode=True)
        assert two_critical_mode_trigger(state, self.CFG, [])

    def test_rejects_normal_user(self):
        with pytest.raises(BadParams):
            two_critical_mode_trigger(UserState(traffic=NORMAL), self.CFG, [])


class TestNonIntrusiveness:
    """Exhaustive 3-user, 10-slot branching: once a critical user records a
    success, no normal user transmits until its traffic completes."""

    def test_exhaustive_enumeration(self):
        p = params(n=3, theta=0.25, q=0.3, r=0.6)
        packets = 3

        def probs(obs, remaining):
            out = []
            for i, y in enumerate(obs):
                z = CRITICAL if (i == 0 and remaining > 0) else NORMAL
                out.append(transmission_probability(p, y, z))
            return out

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
