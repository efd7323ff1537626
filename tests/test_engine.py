"""Properties of the round-batched array slot engine.

The array engine must reproduce the per-user reference engine
(`engine_reference.py`) trace for trace, and a round's outcome must not
depend on which rounds share its batch, on their order, or on the batch
size.  The two-critical inference and its mode are checked on rounds whose
every action is certain, and its silence with one critical user on seeded
enhanced rounds.
"""

from __future__ import annotations

import io
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import engine_reference
from engine_reference import round_rng
from critmac import (
    BadParams,
    CriticalTrafficModel,
    EnhancementConfig,
    ProtocolParams,
    Scenario,
    ScenarioUnsatisfiable,
    SimConfig,
    cli,
    run_experiment,
    simulate_two_critical,
)
from critmac import markov, sim
from critmac.protocol import (
    BUSY_CODE,
    CRITICAL,
    FAILURE_CODE,
    NORMAL,
    OBSERVATIONS,
    SUCCESS_CODE,
)
from critmac.sim import (
    TWO_CRITICAL_SCENARIOS,
    SlotEngine,
    _batch_rounds,
    _run_batch,
    run_round,
)


@st.composite
def configs(draw, scenarios=tuple(Scenario)):
    scenario = draw(st.sampled_from(scenarios))
    two_crit = scenario in TWO_CRITICAL_SCENARIOS
    n = draw(st.integers(2 if two_crit else 1, 60))
    enabled = two_crit or draw(st.booleans())
    params = ProtocolParams(
        n,
        draw(st.floats(0.01, 1.0)),
        draw(st.floats(0.0, 1.0)),
        draw(st.floats(0.0, 0.95)),
    )
    enhancement = EnhancementConfig(
        enabled=enabled,
        backoff_bound=draw(st.integers(2, 6)),
        suppress_after_critical=draw(st.booleans()),
    )
    if draw(st.booleans()):
        traffic = CriticalTrafficModel.fixed(draw(st.integers(1, 25)))
    else:
        traffic = CriticalTrafficModel.geometric(draw(st.floats(1.0, 10.0)))
    try:
        return SimConfig(
            params=params,
            enhancement=enhancement,
            normal_phase_slots=draw(st.integers(1, 60)),
            rounds=draw(st.integers(1, 6)),
            traffic_model=traffic,
            seed=draw(st.integers(0, 2**32)),
            scenario=scenario,
        )
    except ScenarioUnsatisfiable:  # a scenario that can never inject its second arrival
        assume(False)


def decode(batch):
    """A one-round batch as the reference engine's slots."""
    traffic = (NORMAL, CRITICAL)
    return [
        engine_reference.Slot(
            slot=t,
            phase="critical" if crit else "normal",
            actions=tuple(acts),
            observations=tuple(OBSERVATIONS[o] for o in obs),
            traffic=tuple(traffic[c & 1] for c in cells),
        )
        for t, (crit, acts, obs, cells) in enumerate(
            zip(
                batch.critical_phase[:, 0].tolist(),
                batch.actions[:, 0].tolist(),
                batch.observations[:, 0].tolist(),
                batch.cells[:, 0].tolist(),
            ),
            1,
        )
    ]


# a batch's critical milestones, (rounds, users) slot numbers
MILESTONES = ("arrived", "entered", "finished")


def same_round(cfg, index, batch):
    slots, events, ref_stats = engine_reference.run_round(cfg, index)
    assert decode(batch) == slots
    milestones = engine_reference.milestones(events, cfg.params.n_users)
    assert [getattr(batch, name).tolist() for name in MILESTONES] == milestones
    assert engine_reference.batch_stats(batch) == ref_stats


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs(), index=st.integers(0, 10**6))
def test_array_engine_equals_reference_engine(cfg, index):
    same_round(cfg, index, run_round(cfg, index))


# (q, r) at theta = 0.1: a middle point at N = 2, the paper's optima for N = 3, 10 and 50
SINGLE_CRITICAL_POINTS = {2: (0.5, 0.5), 3: (0.3397, 0.4896), 10: (0.1051, 0.4786),
                          50: (0.0213, 0.4754)}


@pytest.mark.parametrize("traffic", [CriticalTrafficModel.fixed(20),
                                     CriticalTrafficModel.geometric(8)],
                         ids=["fixed-20", "geometric-8"])
@pytest.mark.parametrize("suppress", [True, False], ids=["suppress", "no-suppress"])
@pytest.mark.parametrize("b", [2, 5])
@pytest.mark.parametrize("n", sorted(SINGLE_CRITICAL_POINTS))
def test_one_critical_user_never_infers_a_second(n, b, suppress, traffic):
    # the enhanced rules always carry the two-critical trigger, and with one
    # critical user its patterns never occur: no user enters rule g, and each
    # round is the reference engine's, which runs single-critical rounds
    # without the inference
    cfg = SimConfig(
        params=ProtocolParams(n, 0.1, *SINGLE_CRITICAL_POINTS[n]),
        enhancement=EnhancementConfig(enabled=True, backoff_bound=b,
                                      suppress_after_critical=suppress),
        normal_phase_slots=40,
        rounds=12,
        traffic_model=traffic,
        seed=3,
    )
    assert not _run_batch(cfg, range(cfg.rounds), keep_trace=False).entered.any()
    for index in range(cfg.rounds):
        batch = run_round(cfg, index)
        assert not batch.entered.any()
        same_round(cfg, index, batch)


# 48 rounds of geometric critical traffic: they end across several uniform
# blocks, and most rows of the batch have ended while the last ones run
LARGE_BATCH = [
    SimConfig(
        params=ProtocolParams(5, 0.1, 0.5, 0.9),
        enhancement=EnhancementConfig(enabled=enabled),
        normal_phase_slots=20,
        rounds=48,
        traffic_model=CriticalTrafficModel.geometric(10),
        seed=5,
        scenario=scenario,
    )
    for enabled, scenario in (
        (False, Scenario.SINGLE_CRITICAL),
        (True, Scenario.TWO_CRITICAL_DURING_COLLISION),
    )
]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs(), indices=st.lists(st.integers(0, 500), min_size=1, max_size=6, unique=True))
@example(cfg=LARGE_BATCH[0], indices=list(range(95, 0, -2)))
@example(cfg=LARGE_BATCH[1], indices=list(range(95, 0, -2)))
def test_rounds_independent_of_batch_and_order(cfg, indices):
    batch = _run_batch(cfg, indices, keep_trace=True)
    for j, index in enumerate(indices):
        one = run_round(cfg, index)
        end = batch.slots[j]
        assert batch.indices[j] == index == one.indices[0]
        assert end == one.slots[0] == len(one.cells)
        assert batch.cells[:end, j].tobytes() == one.cells[:, 0].tobytes()
        assert batch.critical_phase[:end, j].tolist() == one.critical_phase[:, 0].tolist()
        for name in ("collisions", *MILESTONES):
            assert getattr(batch, name)[j].tolist() == getattr(one, name)[0].tolist()


def experiment_outputs(cfg):
    """The result (or the scenario error) and the trace of a whole run."""
    sink = io.StringIO()
    if cfg.scenario in TWO_CRITICAL_SCENARIOS:
        try:
            result = repr(simulate_two_critical(cfg, trace_sink=sink))
        except ScenarioUnsatisfiable as exc:
            result = str(exc)
    else:
        result = repr(run_experiment(cfg, trace_sink=sink))
    return result, sink.getvalue()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(cfg=configs(), size=st.integers(1, 7), budget=st.integers(1, 4000) | st.just(2**17))
def test_results_independent_of_batch_size(cfg, size, budget, monkeypatch):
    whole = experiment_outputs(cfg)
    with monkeypatch.context() as m:
        # batches of one round, of a few, or of the whole run (at most six
        # rounds), with uniform blocks from one row up to whole rounds
        m.setattr(sim, "_batch_rounds", lambda cfg, keep_trace: size)
        m.setattr(markov, "_STACK_ELEMENTS", budget)
        assert experiment_outputs(cfg) == whole


def test_single_round_batches_match_full_batches(monkeypatch):
    # 200 N = 10 rounds: the default batch holds all of them, traced or
    # not, and gives what batches of one round each give
    cfg = SimConfig(params=ProtocolParams(10, 0.1, 0.1051, 0.4786), rounds=200, seed=17)
    assert _batch_rounds(cfg, keep_trace=False) >= cfg.rounds
    assert _batch_rounds(cfg, keep_trace=True) >= cfg.rounds
    whole = experiment_outputs(cfg)
    monkeypatch.setattr(markov, "_STACK_ELEMENTS", 1)
    assert _batch_rounds(cfg, keep_trace=True) == 1
    assert experiment_outputs(cfg) == whole


def test_block_draws_equal_successive_draws():
    # the engine's premise: a (rows, n) block of a round's stream is rows
    # successive n-draws, also after the round's integer and geometric draws
    for seed in range(5):
        a, b = round_rng(seed, 3), round_rng(seed, 3)
        for g in (a, b):
            g.integers(7)
            g.geometric(0.2)
        block = np.concatenate([a.random((9, 7)), a.random((4, 7))])
        steps = np.stack([b.random(7) for _ in range(13)])
        assert block.tobytes() == steps.tobytes()


def test_batch_keys_are_the_seed_sequence_keys():
    # seeds of 1, 2, 3 and 4 uint32 words; scalar uint32 overflow would warn
    indices = [0, 1, 999_999]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7):
            keys = sim._round_keys(seed, indices)
            expected = [
                np.random.SeedSequence((seed, i)).generate_state(2, np.uint64) for i in indices
            ]
            assert keys.dtype == np.uint64
            assert keys.tolist() == np.array(expected).tolist()
            for i, a in zip(indices, sim._round_rngs(seed, indices)):
                b = round_rng(seed, i)
                assert a.integers(10) == b.integers(10)
                assert a.geometric(0.2) == b.geometric(0.2)
                assert a.random((5, 3)).tobytes() == b.random((5, 3)).tobytes()


# normal users never transmit: q = 0 after an idle slot, 1 - theta = 0 after
# a success and r = 0 after a collision; critical users transmit for certain
QUIET = ProtocolParams(3, 1.0, 0.0, 0.0)


def inference_engine(params=QUIET):
    engine = SlotEngine(
        params, EnhancementConfig(enabled=True, backoff_bound=5), [round_rng(0, 0)], 8
    )

    def arrive(user, packets=5):
        engine.set_critical(np.array([0]), np.array([user]), np.array([packets]))

    return engine, arrive


def test_in_phase_success_then_failure_triggers():
    # user 0 succeeds as a critical user, then user 1 arrives and both
    # transmit: user 0's (success, failure) switches it to rule_g at once
    engine, arrive = inference_engine()
    arrive(0)
    assert engine.step()[1][0].tolist() == [SUCCESS_CODE, BUSY_CODE, BUSY_CODE]
    arrive(1)
    engine.step()
    assert engine.users.g_mode[0].tolist() == [True, False, False]
    assert engine.entered[0].tolist() == [3, 0, 0]


def test_pre_arrival_success_does_not_count():
    # user 0's success in slot 1 completes its one-packet critical traffic;
    # it gets new critical traffic with user 1 in slot 2 and collides: the
    # success came before its arrival, so the pair does not count
    engine, arrive = inference_engine()
    arrive(0, packets=1)
    engine.step()
    assert not engine.users.critical.any()
    arrive(0)
    arrive(1)
    engine.step()
    users = engine.users
    assert (users.prev[0, 0], users.last[0, 0]) == (SUCCESS_CODE, FAILURE_CODE)
    assert not users.g_mode.any()
    assert not engine.entered.any()


def test_normal_success_does_not_count():
    # user 0 wins slot 1 as a normal user (q = 1, and the others heard busy),
    # then it and user 1 get critical traffic and collide in slot 2: the
    # success was not won while critical, so the pair does not count
    engine, arrive = inference_engine(ProtocolParams(3, 1.0, 1.0, 0.0))
    engine.users.last[0, 1:] = BUSY_CODE
    assert engine.step()[1][0].tolist() == [SUCCESS_CODE, BUSY_CODE, BUSY_CODE]
    arrive(0)
    arrive(1)
    engine.step()
    users = engine.users
    assert (users.prev[0, 0], users.last[0, 0]) == (SUCCESS_CODE, FAILURE_CODE)
    assert not users.g_mode.any()
    assert not engine.entered.any()


def test_permanent_once_set():
    # user 0 is in the two-critical mode although neither pattern holds: it
    # waits on its g-observation (success) while user 1 succeeds, then both
    # transmit and collide; the mode stays set throughout, and only user 1,
    # whose (success, failure) is in its phase, enters it
    engine, arrive = inference_engine()
    arrive(0)
    arrive(1)
    engine.users.g_mode[0, 0] = True
    engine.users.g_observation[0, 0] = SUCCESS_CODE
    for expected in ([False, True, False], [True, True, False]):
        assert engine.step()[0][0].tolist() == expected
        assert engine.users.g_mode[0, 0]
    assert engine.entered[0].tolist() == [0, 3, 0]


def test_set_critical_refusals():
    engine, arrive = inference_engine()
    with pytest.raises(BadParams, match="at least one packet"):
        arrive(0, packets=0)
    assert not engine.users.critical.any()
    arrive(0)
    with pytest.raises(BadParams, match="already critical"):
        arrive(0)
    assert engine.users.remaining[0].tolist() == [5, 0, 0]


def test_tracer_counts_the_rule_functions(monkeypatch, capsys):
    # the benchmark's tracer patches protocol.rule_g,
    # protocol.two_critical_mode_trigger and SlotEngine.step by name, so the
    # engine must reach all three through those names
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from bench.tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        code = cli.main([
            "simulate", "--n", "10", "--theta", "0.1", "--q", "0.1051", "--r", "0.4786",
            "--rounds", "3", "--seed", "1", "--enhanced",
            "--scenario", "two-critical-simultaneous",
        ])
    assert code == 0
    assert tracer.counts["protocol.rule_g.calls"] > 0
    assert tracer.counts["protocol.two_critical_mode_trigger.calls"] > 0
    assert any(name == "sim.step" for name, *_ in tracer.spans)
