"""Properties of the round-batched array slot engine.

The array engine must reproduce the per-user reference engine
(`engine_reference.py`) trace for trace, and a round's outcome must not
depend on which rounds share its batch, on their order, or on the batch
size.
"""

from __future__ import annotations

import io

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import engine_reference
from critmac import (
    CriticalTrafficModel,
    EnhancementConfig,
    ProtocolParams,
    Scenario,
    ScenarioUnsatisfiable,
    SimConfig,
    run_experiment,
    run_round,
    simulate_two_critical,
)
from critmac import markov
from critmac.sim import TWO_CRITICAL_SCENARIOS, _batch_rounds, _round_rng, _run_batch


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
    return SimConfig(
        params=params,
        enhancement=enhancement,
        normal_phase_slots=draw(st.integers(1, 60)),
        rounds=draw(st.integers(1, 6)),
        traffic_model=traffic,
        seed=draw(st.integers(0, 2**32)),
        scenario=scenario,
    )


def same_round(cfg, index, trace, stats):
    records, events, ref_stats = engine_reference.run_round(cfg, index)
    assert trace.records == records
    assert trace.events == events
    assert stats == ref_stats


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs(), index=st.integers(0, 10**6))
def test_array_engine_equals_reference_engine(cfg, index):
    trace, stats = run_round(cfg, index)
    same_round(cfg, index, trace, stats)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs(), indices=st.lists(st.integers(0, 500), min_size=1, max_size=6, unique=True))
def test_rounds_independent_of_batch_and_order(cfg, indices):
    batch = _run_batch(cfg, indices, keep_trace=True)
    for j, index in enumerate(indices):
        trace, stats = run_round(cfg, index)
        got = batch.trace(j)
        assert got.round_index == index
        assert got.records == trace.records
        assert got.events == trace.events
        assert batch.collisions[j] == stats.critical_collisions
        assert batch.critical_slots[j] == stats.critical_phase_slots


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
@given(cfg=configs(), budget=st.integers(1, 4000))
def test_results_independent_of_batch_size(cfg, budget, monkeypatch):
    whole = experiment_outputs(cfg)
    with monkeypatch.context() as m:
        # batches of a few rounds, and uniform blocks of a few rows
        m.setattr(markov, "_STACK_ELEMENTS", budget)
        assert experiment_outputs(cfg) == whole


def test_single_round_batches_match_full_batches(monkeypatch):
    # 200 N = 10 rounds in batches of about 90 rounds, or of one round each
    cfg = SimConfig(params=ProtocolParams(10, 0.1, 0.1051, 0.4786), rounds=200, seed=17)
    assert 50 < _batch_rounds(cfg) < 200
    whole = experiment_outputs(cfg)
    monkeypatch.setattr(markov, "_STACK_ELEMENTS", 1)
    assert _batch_rounds(cfg) == 1
    assert experiment_outputs(cfg) == whole


def test_block_draws_equal_successive_draws():
    # the engine's premise: a (rows, n) block of a round's stream is rows
    # successive n-draws, also after the round's integer and geometric draws
    for seed in range(5):
        a, b = _round_rng(seed, 3), _round_rng(seed, 3)
        for g in (a, b):
            g.integers(7)
            g.geometric(0.2)
        block = np.concatenate([a.random((9, 7)), a.random((4, 7))])
        steps = np.stack([b.random(7) for _ in range(13)])
        assert block.tobytes() == steps.tobytes()
