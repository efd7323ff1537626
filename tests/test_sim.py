"""Slot-engine and experiment tests: determinism, trace invariants, metrics."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import engine_reference
from engine_reference import round_rng
from critmac import (
    BadParams,
    CriticalTrafficModel,
    EnhancementConfig,
    Observation,
    ProtocolParams,
    Scenario,
    SimConfig,
    TrafficType,
    contention_time,
    critical_delay,
    enhanced_critical_delay,
    run_experiment,
)
from critmac.protocol import (
    BUSY_CODE,
    FAILURE_CODE,
    IDLE_CODE,
    OBSERVATIONS,
    SUCCESS_CODE,
    normal_rule_table,
)
from critmac import sim
from critmac.sim import (
    SlotEngine,
    _mean_se,
    _run_batch,
    run_round,
    write_trace_header,
    write_trace_rows,
)

P10 = ProtocolParams(10, 0.1, 0.1051, 0.4786)
P3 = ProtocolParams(3, 0.5, 0.3397, 0.4896)


def reference_rows(batch, j):
    """Round j's trace rows in the documented format, written slot by slot."""
    lines = []
    for t, cells in enumerate(batch.cells[: batch.slots[j], j].tolist(), 1):
        critical = any(c & 1 for c in cells)  # some user carried critical traffic
        fields = [str(batch.indices[j]), str(t), "critical" if critical else "normal"]
        for c in cells:
            traffic = TrafficType.CRITICAL if c & 1 else TrafficType.NORMAL
            fields += ["T" if c >> 3 else "W", OBSERVATIONS[(c >> 1) & 3].value, traffic.value]
        lines.append(",".join(fields) + "\n")
    return "".join(lines)


# what a batch records of its rounds, besides its trace cells
OUTCOMES = ("flags", "collisions", "slots", "arrived", "entered", "finished")


def small_cfg(**kwargs):
    defaults = dict(params=P3, rounds=50, seed=123)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestDeterminism:
    def test_identical_rounds(self):
        cfg = small_cfg()
        t1, t2 = run_round(cfg, 4), run_round(cfg, 4)
        assert t1.cells.tobytes() == t2.cells.tobytes()
        assert t1.critical_phase.tolist() == t2.critical_phase.tolist()
        for name in OUTCOMES:
            assert getattr(t1, name).tobytes() == getattr(t2, name).tobytes()

    def test_stats_independent_of_tracing(self):
        cfg = small_cfg()
        with_trace = _run_batch(cfg, range(cfg.rounds), keep_trace=True)
        without = _run_batch(cfg, range(cfg.rounds), keep_trace=False)
        for name in OUTCOMES:
            assert getattr(with_trace, name).tobytes() == getattr(without, name).tobytes()

    def test_rounds_reproducible_out_of_order(self):
        cfg = small_cfg()
        later_first = run_round(cfg, 7)
        run_round(cfg, 0)
        again = run_round(cfg, 7)
        for name in ("cells", *OUTCOMES):
            assert getattr(again, name).tobytes() == getattr(later_first, name).tobytes()


def critical_flags(batch):
    """Each slot's traffic per user in a one-round batch as critical flags (a cell's low bit)."""
    return (batch.cells[:, 0] & 1).astype(bool)


class TestTraceInvariants:
    def test_observation_consistency(self):
        cfg = small_cfg(params=P10)
        for idx in range(20):
            batch = run_round(cfg, idx)
            actions = batch.actions[:, 0]
            k = actions.sum(axis=1, keepdims=True)
            expected = np.where(
                actions,
                np.where(k == 1, SUCCESS_CODE, FAILURE_CODE),
                np.where(k == 0, IDLE_CODE, BUSY_CODE),
            )
            assert (batch.observations[:, 0] == expected).all()

    def test_non_intrusive_after_first_success(self):
        # baseline protocol: once the critical user succeeds, it never fails again
        cfg = small_cfg(params=P10, rounds=1)
        for idx in range(60):
            batch = run_round(cfg, idx)
            crit = batch.pairs[0, 0]
            seen_success = False
            for obs in batch.observations[batch.critical_phase[:, 0], 0, crit].tolist():
                if seen_success:
                    assert obs == SUCCESS_CODE
                if obs == SUCCESS_CODE:
                    seen_success = True

    def test_contention_periods_begin_idle(self):
        cfg = small_cfg(params=P10)
        for idx in range(20):
            batch = run_round(cfg, idx)
            for start in engine_reference.batch_stats(batch).contention_starts:
                assert not batch.actions[start - 1].any()  # row start - 1 is slot start

    def test_single_user_never_collides(self):
        cfg = small_cfg(params=ProtocolParams(1, 0.3, 0.4, 0.5), rounds=1)
        batch = run_round(cfg, 0)
        assert batch.collisions[0] == 0
        assert (batch.actions.sum(axis=2) <= 1).all()
        assert (batch.observations != FAILURE_CODE).all()

    def test_normal_phase_length_and_phase_labels(self):
        cfg = small_cfg(normal_phase_slots=37)
        batch = run_round(cfg, 2)
        phase = batch.critical_phase[:, 0]
        assert (~phase).sum() == 37 == batch.flags.shape[1]
        # the critical phase runs from the end of the normal phase to the completion
        assert phase[37:].all() and phase.sum() == batch.finished[0].max() - 37
        assert not critical_flags(batch)[~phase].any()


class TestEnhancedRules:
    ENH = EnhancementConfig(enabled=True, backoff_bound=3)

    def test_hard_delay_bound(self):
        cfg = small_cfg(params=P10, enhancement=self.ENH, rounds=400, seed=5)
        batch = _run_batch(cfg, range(cfg.rounds), keep_trace=False)
        assert batch.collisions.max() <= self.ENH.backoff_bound

    def test_normal_users_never_exceed_backoff_run(self):
        cfg = small_cfg(params=P10, enhancement=self.ENH, rounds=1, seed=8)
        for idx in range(80):
            batch = run_round(cfg, idx)
            n = cfg.params.n_users
            runs = [0] * n
            for critical, obs in zip(critical_flags(batch).tolist(),
                                     batch.observations[:, 0].tolist()):
                for u in range(n):
                    if critical[u]:
                        runs[u] = 0  # the bound concerns normal users only
                    elif obs[u] == FAILURE_CODE:
                        runs[u] += 1
                        assert runs[u] <= self.ENH.backoff_bound
                    else:
                        runs[u] = 0

    def test_engine_matches_rule_functions(self):
        # each slot's actions are the engine's draws compared with the scalar
        # reference rules' probabilities for the users' states before the slot
        rng = np.random.default_rng(77)
        obs = list(Observation)

        def random_state():
            critical = rng.random() < 0.3
            return engine_reference.UserState(
                last_observation=obs[rng.integers(4)],
                prev_observation=obs[rng.integers(4)],
                consecutive_failures=int(rng.integers(0, 7)),
                traffic=TrafficType.CRITICAL if critical else TrafficType.NORMAL,
                prev_traffic=TrafficType.CRITICAL if rng.random() < 0.2 else TrafficType.NORMAL,
                critical_remaining=5 if critical else 0,
                two_crit_mode=bool(critical and rng.random() < 0.5),
                g_observation=obs[rng.integers(4)],
                yield_after_idle=bool(rng.random() < 0.3),
            )

        n, rounds = P10.n_users, 3
        for enh in (EnhancementConfig(enabled=True, backoff_bound=4), EnhancementConfig()):
            # blocks of 7 rows, so the engine also draws past its first block
            engine = SlotEngine(P10, enh, [round_rng(0, i) for i in range(rounds)], 7)
            draws = [round_rng(0, i) for i in range(rounds)]  # the engine's streams
            for _ in range(60):
                states = [[random_state() for _ in range(n)] for _ in range(rounds)]
                engine.users = engine_reference.as_arrays(states)
                expected = []
                for row, stream in zip(states, draws):
                    probs = [engine_reference.probability(P10, enh, u) for u in row]
                    if not enh.enabled:
                        for u, p in zip(row, probs):
                            if u.traffic is TrafficType.NORMAL:
                                code = OBSERVATIONS.index(u.last_observation)
                                assert p == normal_rule_table(P10)[code]
                    expected.append([bool(d < p) for d, p in zip(stream.random(n), probs)])
                assert engine.step()[0].tolist() == expected


class TestPostCriticalHandover:
    def test_first_slot_frequency(self):
        # after a critical phase the finisher transmits w.p. 1 - theta while
        # everyone else waits (baseline rules, no suppression)
        params = ProtocolParams(5, 0.3, 0.2, 0.4)
        rounds = 800
        engine = SlotEngine(
            params, EnhancementConfig(), [round_rng(99, idx) for idx in range(rounds)], 32
        )
        for _ in range(30):
            engine.step()
        crit = np.arange(rounds) % params.n_users
        engine.set_critical(np.arange(rounds), crit, np.full(rounds, 2))
        transmitted = checked = 0
        running = np.ones(rounds, dtype=bool)
        while running.any():
            # rounds whose critical user finished a slot ago
            after = running & ~engine.users.critical[np.arange(rounds), crit]
            actions, observations, _ = engine.step()
            for j in np.flatnonzero(after):
                others = np.delete(actions[j], crit[j])
                assert not others.any()
                assert observations[j, crit[j]] in (SUCCESS_CODE, IDLE_CODE)
                transmitted += bool(actions[j, crit[j]])
                checked += 1
            running &= ~after
        assert checked == rounds
        freq = transmitted / rounds
        se = math.sqrt(0.3 * 0.7 / rounds)
        assert abs(freq - 0.7) <= 3 * se


class TestExperiment:
    def test_metrics_close_to_analysis(self):
        cfg = SimConfig(params=P3, rounds=400, seed=21)
        res = run_experiment(cfg)
        t_c = contention_time(P3)
        assert abs(res.t_s - 2.0) <= 4 * res.t_s_se
        assert abs(res.t_c - t_c) <= 4 * res.t_c_se
        assert abs(res.c_norm - 1 / (0.5 * t_c + 1)) <= 4 * res.c_norm_se
        assert abs(res.d_crit - critical_delay(P3)) <= 4 * res.d_crit_se

    def test_enhanced_reduces_delay(self):
        base = run_experiment(SimConfig(params=P10, rounds=400, seed=3))
        enh = run_experiment(
            SimConfig(
                params=P10,
                enhancement=EnhancementConfig(enabled=True, backoff_bound=5),
                rounds=400,
                seed=3,
            )
        )
        assert enh.d_crit < base.d_crit
        assert enh.max_d_crit <= 5

    def test_enhanced_delay_reference_row(self):
        # reference row at N=10, theta=0.1 with B=5: D ~ 0.918, max = 5
        cfg = SimConfig(
            params=P10,
            enhancement=EnhancementConfig(enabled=True, backoff_bound=5),
            rounds=1000,
            seed=42,
        )
        res = run_experiment(cfg)
        assert abs(res.d_crit - 0.918) <= 3 * (res.d_crit_se + 0.03)
        assert res.max_d_crit == 5
        # the waiting rules beyond the run-owner substitution (backoff
        # truncation) pull the simulated mean slightly below the formula
        formula = enhanced_critical_delay(P10)
        assert abs(res.d_crit - formula) <= 4 * res.d_crit_se + 0.04

    def test_trace_sink_matches_run_round(self):
        cfg = small_cfg(rounds=3)
        sink = io.StringIO()
        run_experiment(cfg, trace_sink=sink)
        direct = io.StringIO()
        write_trace_header(direct, cfg.params.n_users)
        for idx in range(cfg.rounds):
            # the one-round batch that run_round runs
            write_trace_rows(direct, _run_batch(cfg, [idx], keep_trace=True), 1)
        assert sink.getvalue() == direct.getvalue()

    @pytest.mark.parametrize("chunk", [1, 5, 2048])
    @pytest.mark.parametrize("params", [P3, P10], ids=["odd-users", "even-users"])
    def test_batch_writer_matches_rows_written_slot_by_slot(self, params, chunk, monkeypatch):
        # rounds of several lengths, written whole and in part, in chunks
        # that split rounds and chunks that hold them all
        cfg = small_cfg(params=params, rounds=6, traffic_model=CriticalTrafficModel.geometric(5))
        batch = _run_batch(cfg, range(3, 9), keep_trace=True)
        monkeypatch.setattr(sim, "_TRACE_CHUNK_ROWS", chunk)
        for rounds in (6, 3, 0):
            sink = io.StringIO()
            write_trace_rows(sink, batch, rounds)
            expected = [reference_rows(batch, j) for j in range(rounds)]
            assert sink.getvalue() == "".join(expected)

    def test_trace_format(self):
        cfg = small_cfg(rounds=1)
        sink = io.StringIO()
        run_experiment(cfg, trace_sink=sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == (
            "round,slot,phase,action_0,obs_0,traffic_0,action_1,obs_1,traffic_1,"
            "action_2,obs_2,traffic_2"
        )
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1" and first[2] == "normal"
        assert set(first[3::3]) <= {"T", "W"}


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 60).map(float) | st.floats(-1e6, 1e6), min_size=1,
                    max_size=700))
    def test_mean_se_has_the_bits_of_numpy_mean_and_std(self, values):
        # lengths past numpy's pairwise-summation blocks (8 and 128 values)
        arr = np.array(values)
        se = arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else math.inf
        assert repr(_mean_se(arr.copy())) == repr((float(arr.mean()), float(se)))


@pytest.mark.parametrize("scenario", list(Scenario))
def test_critical_overrun_raises(scenario, monkeypatch):
    # the cap is lowered after the config has accepted 20-slot traffic
    cfg = SimConfig(params=P10, enhancement=EnhancementConfig(enabled=True), rounds=5,
                    scenario=scenario)
    monkeypatch.setattr(sim, "_MAX_CRITICAL_SLOTS", 5)
    with pytest.raises(RuntimeError, match="critical phase failed to terminate"):
        _run_batch(cfg, range(5), keep_trace=False)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_critical_overrun_raises_past_the_longest_phase(scenario, monkeypatch):
    # the cap admits a batch whose longest critical phase (first arrival to
    # last completion, both slots counted) fits in it, and no shorter cap does
    cfg = SimConfig(params=P10, enhancement=EnhancementConfig(enabled=True), rounds=5,
                    scenario=scenario)
    batch = _run_batch(cfg, range(5), keep_trace=False)
    first = np.where(batch.arrived > 0, batch.arrived, np.iinfo(batch.arrived.dtype).max)
    longest = int((batch.finished.max(axis=1) - first.min(axis=1) + 1).max())
    monkeypatch.setattr(sim, "_MAX_CRITICAL_SLOTS", longest)
    _run_batch(cfg, range(5), keep_trace=False)
    monkeypatch.setattr(sim, "_MAX_CRITICAL_SLOTS", longest - 1)
    with pytest.raises(RuntimeError, match="critical phase failed to terminate"):
        _run_batch(cfg, range(5), keep_trace=False)


# the base rules, the enhanced ones, and the enhanced ones without the wait
# after a critical phase, in which a finished first user may collide with the
# second; the two-critical scenarios need the enhanced rules
RULES = {"base": EnhancementConfig(), "enhanced": EnhancementConfig(enabled=True),
         "no-wait": EnhancementConfig(enabled=True, suppress_after_critical=False)}
ONE_PHASE_CASES = [(scenario, n, rules) for scenario in Scenario for n in (3, 10) for rules in RULES
                   if rules != "base" or scenario is Scenario.SINGLE_CRITICAL]


@pytest.mark.parametrize("traffic", [CriticalTrafficModel.fixed(20),
                                     CriticalTrafficModel.geometric(8.0)], ids=["fixed", "geometric"])
@pytest.mark.parametrize("scenario, n, rules", ONE_PHASE_CASES)
def test_one_critical_phase(scenario, n, rules, traffic):
    # D_crit counts the first critical user's failures in the slots that the
    # trace marks critical, also after it finished while the second is still
    # critical; a round ends at its last completion, plus the handover tail
    # if its second critical user arrived
    params = {3: P3, 10: P10}[n]
    cfg = SimConfig(params=params, enhancement=RULES[rules], rounds=40, traffic_model=traffic,
                    seed=8, scenario=scenario)
    batch = _run_batch(cfg, range(40), keep_trace=True)
    phase, failed = batch.critical_phase, batch.observations == FAILURE_CODE
    two_crit = scenario is not Scenario.SINGLE_CRITICAL
    for j in range(40):
        first = round_rng(cfg.seed, j).integers(n)  # the first draw of the round's stream
        end = batch.slots[j]
        assert batch.collisions[j] == np.count_nonzero(failed[:end, j, first] & phase[:end, j])
        assert end == batch.finished[j].max() + sim._SCENARIO_TAIL_SLOTS * batch.injected[j]
        second_arrived = two_crit and batch.arrived[j, batch.pairs[j, 1]] > 0
        assert batch.injected[j] == second_arrived
        assert np.count_nonzero(batch.arrived[j]) == 1 + second_arrived
    assert batch.collisions.any()


class TestTrafficModel:
    def test_fixed(self):
        m = CriticalTrafficModel.fixed(7)
        assert m.draw(np.random.default_rng(0)) == 7

    def test_geometric_at_least_one(self):
        m = CriticalTrafficModel.geometric(4.0)
        rng = np.random.default_rng(1)
        draws = [m.draw(rng) for _ in range(500)]
        assert min(draws) >= 1
        assert abs(np.mean(draws) - 4.0) < 0.5

    @pytest.mark.parametrize("bad", [0, -2])
    def test_fixed_validation(self, bad):
        with pytest.raises(BadParams):
            CriticalTrafficModel.fixed(bad)

    def test_fixed_length_must_be_an_integer(self):
        # 2.5 would send int(2.5) = 2 packets a round
        with pytest.raises(BadParams, match=r"^fixed critical-traffic length must be an integer, got 2\.5$"):
            CriticalTrafficModel.fixed(2.5)


class TestConfigValidation:
    def test_rounds_positive(self):
        with pytest.raises(BadParams):
            SimConfig(params=P3, rounds=0)

    def test_seed_non_negative(self):
        with pytest.raises(BadParams):
            SimConfig(params=P3, seed=-1)

    @pytest.mark.parametrize("name", ["rounds", "normal_phase_slots", "seed"])
    def test_counts_must_be_integers(self, name):
        # a float count or seed would fail inside numpy, with a TypeError or AttributeError
        with pytest.raises(BadParams, match=rf"^{name} must be an integer, got 50\.5$"):
            SimConfig(params=P3, **{name: 50.5})

    def test_run_size_bounds(self):
        # a run's records grow with its rounds and normal-phase slots
        SimConfig(params=P3, rounds=10**6)
        SimConfig(params=P3, rounds=10**4, normal_phase_slots=10**4)
        for size in ({"rounds": 10**6 + 1}, {"rounds": 1, "normal_phase_slots": 10**4 + 1},
                     {"rounds": 10**4 + 1, "normal_phase_slots": 10**4}):
            with pytest.raises(BadParams, match="must be at most"):
                SimConfig(params=P3, **size)

    def test_two_critical_needs_two_users(self):
        with pytest.raises(BadParams):
            SimConfig(
                params=ProtocolParams(1, 0.1, 0.3, 0.4),
                scenario=Scenario.TWO_CRITICAL_SIMULTANEOUS,
            )

    def test_r_one_needs_enhanced_rules(self):
        # with r = 1 and no backoff bound, colliding users collide forever
        params = ProtocolParams(3, 0.1, 0.3, 1.0)
        with pytest.raises(BadParams):
            SimConfig(params=params)
        SimConfig(params=params, enhancement=EnhancementConfig(enabled=True))
        SimConfig(params=ProtocolParams(1, 0.1, 0.3, 1.0))
