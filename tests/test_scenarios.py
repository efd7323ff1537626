"""Two-critical-user scenario tests.

The per-round verifier in `simulate_two_critical` asserts all deterministic
consequences of the rule set (inference bounds, alternation, handover); the
tests here demand zero violations and exercise the surrounding machinery.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from critmac import (
    BadParams,
    CriticalTrafficModel,
    EnhancementConfig,
    ProtocolParams,
    Scenario,
    ScenarioUnsatisfiable,
    SimConfig,
    simulate_two_critical,
)
from critmac import sim
from critmac.cli import main
from critmac.sim import (
    TWO_CRITICAL_SCENARIOS,
    _rounds_to_try,
    _run_batch,
    _valid_share,
    _verify_rounds,
    run_round,
)

P10 = ProtocolParams(10, 0.1, 0.1051, 0.4786)
ENH = EnhancementConfig(enabled=True, backoff_bound=5)


def scenario_cfg(scenario, **kwargs):
    defaults = dict(params=P10, enhancement=ENH, rounds=150, seed=314, scenario=scenario)
    defaults.update(kwargs)
    return SimConfig(**defaults)


@pytest.mark.parametrize("scenario", TWO_CRITICAL_SCENARIOS)
def test_zero_violations(scenario):
    summary = simulate_two_critical(scenario_cfg(scenario))
    assert len(summary.round_index) == 150
    assert summary.violation_count == 0


def test_simultaneous_inference_exactly_b_plus_one(self=None):
    summary = simulate_two_critical(scenario_cfg(Scenario.TWO_CRITICAL_SIMULTANEOUS))
    # both users of every round enter one slot after their b + 1 collisions
    a2 = summary.arrived[:, 1:]
    assert (summary.entered == a2 + ENH.backoff_bound + 1).all()


def test_inference_bound_all_scenarios():
    for scenario in TWO_CRITICAL_SCENARIOS:
        summary = simulate_two_critical(scenario_cfg(scenario, rounds=100))
        assert (summary.joint > 0).all()
        assert (summary.joint - summary.arrived[:, 1] <= ENH.backoff_bound + 2).all()


def test_completion_handover_fields():
    summary = simulate_two_critical(scenario_cfg(Scenario.TWO_CRITICAL_DURING_SUCCESS))
    assert summary.users.shape == summary.finished.shape == (150, 2)
    assert (summary.users[:, 0] != summary.users[:, 1]).all()
    assert (summary.collisions >= 1).all()
    assert (summary.shared > 0).all()


def test_geometric_lengths_survivor_phase():
    # unequal traffic lengths leave one critical user alone after the other
    # finishes; after the handover success and the idle slot it reverts to
    # plain always-transmit mode, so it transmits in every slot until it
    # finishes (in rule-g mode it would wait after each of its own successes)
    cfg = scenario_cfg(
        Scenario.TWO_CRITICAL_SIMULTANEOUS,
        rounds=120,
        traffic_model=CriticalTrafficModel.geometric(8.0),
        seed=2718,
    )
    summary = simulate_two_critical(cfg)
    assert summary.violation_count == 0
    batch = _run_batch(cfg, range(summary.attempted_rounds), keep_trace=True)
    alone = 0
    for k in np.flatnonzero(summary.joint).tolist():
        done, end = sorted(summary.finished[k].tolist())
        survivor = summary.users[k, summary.finished[k].argmax()]
        # slots done + 3 to end are rows done + 2 to end - 1
        sent = batch.actions[done + 2 : end, summary.round_index[k], survivor]
        assert sent.all(), row_of(vars(summary), k)
        alone += len(sent) >= 2
    assert alone > 0


def test_refuses_a_single_critical_config():
    cfg = SimConfig(params=P10, enhancement=ENH, rounds=5, seed=1)
    with pytest.raises(BadParams, match="not a two-critical scenario"):
        simulate_two_critical(cfg)


def test_requires_enhancement():
    # refused when the config is made, before any round runs or trace opens
    with pytest.raises(ScenarioUnsatisfiable, match="requires the enhanced rules"):
        SimConfig(params=P10, rounds=5, scenario=Scenario.TWO_CRITICAL_SIMULTANEOUS, seed=1)


@pytest.mark.parametrize("scenario,kwargs", [
    # a during-success round needs a packet left after the first success
    (Scenario.TWO_CRITICAL_DURING_SUCCESS, dict(traffic_model=CriticalTrafficModel.fixed(1))),
    (Scenario.TWO_CRITICAL_DURING_SUCCESS, dict(traffic_model=CriticalTrafficModel.geometric(1))),
    # a during-collision round needs a normal user that transmits after the idle start,
    # also at r = 1, where the normal chain gives no share
    (Scenario.TWO_CRITICAL_DURING_COLLISION, dict(params=ProtocolParams(10, 0.1, 0.0, 0.5))),
    (Scenario.TWO_CRITICAL_DURING_COLLISION, dict(params=ProtocolParams(3, 0.1, 0.0, 1.0))),
])
def test_refuses_scenarios_that_never_inject(scenario, kwargs):
    with pytest.raises(ScenarioUnsatisfiable, match="never injects its second arrival"):
        scenario_cfg(scenario, **kwargs)


RARE = [  # expected shares of valid rounds of 0.048 and 0.009
    (Scenario.TWO_CRITICAL_DURING_SUCCESS,
     dict(params=ProtocolParams(3, 0.1, 0.3397, 0.4896),
          traffic_model=CriticalTrafficModel.geometric(1.05))),
    (Scenario.TWO_CRITICAL_DURING_COLLISION,
     dict(params=ProtocolParams(10, 0.1, 0.0001, 0.4786))),
]


@pytest.mark.parametrize("scenario,kwargs", RARE)
def test_refuses_scenarios_too_rare_to_fill_the_rounds(scenario, kwargs):
    # 5 x 10**6 attempted rounds would hold far fewer than 10**6 valid ones:
    # refused when the config is made, not after minutes of rounds
    with pytest.raises(ScenarioUnsatisfiable, match="would not hold 1000000 valid ones"):
        scenario_cfg(scenario, rounds=10**6, **kwargs)


def test_rare_scenario_refused_where_three_deviations_fall_short():
    # at a share of 0.048, 15 rounds hold 0.71 valid ones, and three binomial
    # deviations more 3.19: enough for 3 valid rounds; 20 rounds hold 0.95 + 2.86
    scenario, kwargs = RARE[0]
    cfg = scenario_cfg(scenario, rounds=3, **kwargs)
    assert _valid_share(cfg) == pytest.approx(0.0476, abs=1e-4)
    with pytest.raises(ScenarioUnsatisfiable, match="would not hold 4 valid ones"):
        scenario_cfg(scenario, rounds=4, **kwargs)


@pytest.mark.parametrize("n,q,r,share", [
    (3, 0.3397, 0.4896, 0.5949), (10, 0.1051, 0.4786, 0.7797), (50, 0.0213, 0.4754, 0.8417),
])
def test_during_collision_share_from_the_normal_chain(n, q, r, share):
    # the chance that the first critical user's arrival slot collides
    cfg = scenario_cfg(Scenario.TWO_CRITICAL_DURING_COLLISION,
                       params=ProtocolParams(n, 0.1, q, r), rounds=300, seed=n)
    assert _valid_share(cfg) == pytest.approx(share, abs=1e-4)
    # and the share of valid rounds a run sees, within four binomial deviations
    summary = simulate_two_critical(cfg)
    attempted = summary.attempted_rounds
    seen = len(summary.round_index) / attempted
    assert abs(seen - share) <= 4 * (share * (1 - share) / attempted) ** 0.5


def test_valid_share_of_each_scenario():
    geometric = CriticalTrafficModel.geometric(4.0)
    assert _valid_share(scenario_cfg(Scenario.TWO_CRITICAL_SIMULTANEOUS)) == 1.0
    assert _valid_share(scenario_cfg(Scenario.TWO_CRITICAL_SIMULTANEOUS,
                                      traffic_model=geometric)) == 1.0
    # a during-success round needs a packet left after the first success
    assert _valid_share(scenario_cfg(Scenario.TWO_CRITICAL_DURING_SUCCESS)) == 1.0
    assert _valid_share(scenario_cfg(Scenario.TWO_CRITICAL_DURING_SUCCESS,
                                      traffic_model=geometric)) == 0.75
    # at r = 1 the normal chain has several absorbing states: a share of 1
    boundary = scenario_cfg(Scenario.TWO_CRITICAL_DURING_COLLISION,
                            params=ProtocolParams(3, 0.1, 0.5, 1.0))
    assert _valid_share(boundary) == 1.0


@pytest.mark.parametrize("scenario", TWO_CRITICAL_SCENARIOS)
def test_valid_share_computed_once_per_run(scenario, monkeypatch):
    # the config's refusal and the first batch's size read one estimate
    # (at N = 1000 a during-collision estimate solves the normal chain in 29 ms)
    calls = []
    share = sim._valid_share
    monkeypatch.setattr(sim, "_valid_share", lambda cfg: calls.append(cfg) or share(cfg))
    simulate_two_critical(scenario_cfg(scenario, rounds=20))
    assert len(calls) == 1


def test_shortfall_after_the_attempt_limit_is_refused(monkeypatch):
    # a share of valid rounds overstated to 1.0, where it is 0.009: the config
    # admits the run, and 5 x 20 attempted rounds fall short
    monkeypatch.setattr(sim, "_valid_share", lambda cfg: 1.0)
    scenario, kwargs = RARE[1]
    cfg = scenario_cfg(scenario, rounds=20, seed=0, **kwargs)
    trace = io.StringIO()
    with pytest.raises(ScenarioUnsatisfiable,
                       match=r"^only 1 of 20 rounds admitted the scenario injection$"):
        simulate_two_critical(cfg, trace_sink=trace)
    # every one of the 5 x 20 rounds it may attempt was run and traced
    rounds = {int(row[0]) for row in csv.reader(trace.getvalue().splitlines()[1:])}
    assert rounds == set(range(100))


def test_shortfall_after_the_attempt_limit_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sim, "_valid_share", lambda cfg: 1.0)
    out = tmp_path / "report.json"
    argv = ["simulate", "--n", "10", "--theta", "0.1", "--q", "0.0001", "--r", "0.4786",
            "--rounds", "20", "--enhanced", "--scenario", "two-critical-during-collision",
            "--format", "json", "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: ScenarioUnsatisfiable: only 1 of 20 rounds admitted the scenario injection\n"
    )
    assert not out.exists()


def test_rounds_to_try():
    # every round valid: exactly the rounds missing, within the limit
    assert _rounds_to_try(55, 1.0, 275) == 55
    assert _rounds_to_try(55, 1.0, 40) == 40
    # a share of 0.78: 55 valid rounds and three binomial deviations
    assert _rounds_to_try(55, 0.7797, 275) == 86
    assert _rounds_to_try(55, 0.7797, 80) == 80
    # no batch within the limit is expected to hold the rounds missing
    assert _rounds_to_try(55, 0.2, 275) == 275
    assert _rounds_to_try(55, 0.0, 275) == 275


P10_ARGS = ["--n", "10", "--theta", "0.1", "--q", "0.1051", "--r", "0.4786"]


def batch_sizes(monkeypatch, argv):
    """The rounds of each lockstep batch a CLI run runs."""
    sizes = []
    run_batch = sim._run_batch

    def counted(cfg, indices, keep_trace):
        sizes.append(len(indices))
        return run_batch(cfg, indices, keep_trace)

    monkeypatch.setattr(sim, "_run_batch", counted)
    assert main(argv) == 0
    return sizes


@pytest.mark.parametrize("seed", [3, 4])
def test_during_collision_runs_one_batch(seed, monkeypatch, tmp_path):
    # 55 rounds once took a second batch for the few valid rounds still missing
    argv = ["simulate", *P10_ARGS, "--rounds", "55", "--seed", str(seed), "--enhanced",
            "--scenario", "two-critical-during-collision", "--output", str(tmp_path / "out"),
            "--trace-output", str(tmp_path / "trace")]
    assert len(batch_sizes(monkeypatch, argv)) == 1


@pytest.mark.parametrize("n,q,r,rounds,sizes", [
    ("10", "0.1051", "0.4786", 55, [55]),
    ("50", "0.0213", "0.4754", 130, [59, 59, 12]),  # batches bounded by memory
])
def test_simultaneous_runs_the_rounds_asked_for(n, q, r, rounds, sizes, monkeypatch, tmp_path):
    argv = ["simulate", "--n", n, "--theta", "0.1", "--q", q, "--r", r, "--rounds", str(rounds),
            "--seed", "1", "--enhanced", "--scenario", "two-critical-simultaneous",
            "--output", str(tmp_path / "out"), "--trace-output", str(tmp_path / "trace")]
    assert batch_sizes(monkeypatch, argv) == sizes


@pytest.mark.parametrize("scenario", [Scenario.SINGLE_CRITICAL, *TWO_CRITICAL_SCENARIOS])
def test_batch_pairs_are_the_arrivals(scenario):
    # the critical users a batch reports, against the arrivals it records
    batch = _run_batch(scenario_cfg(scenario), range(60), keep_trace=False)
    for j, slots in enumerate(batch.arrived.tolist()):
        arrived = tuple(u for _, u in sorted((s, u) for u, s in enumerate(slots) if s))
        assert arrived == tuple(batch.pairs[j, : 1 + batch.injected[j]].tolist())
    if scenario is Scenario.SINGLE_CRITICAL:
        assert not batch.injected.any() and (batch.pairs[:, 1] == -1).all()
    elif scenario is Scenario.TWO_CRITICAL_DURING_COLLISION:
        assert 0 < batch.injected.sum() < 60  # valid and invalid rounds both
    else:
        assert batch.injected.all()


def test_guard_overrun_raises(monkeypatch):
    # a round whose normal phase ends in a collision waits for a free boundary
    cfg = scenario_cfg(Scenario.TWO_CRITICAL_SIMULTANEOUS)
    monkeypatch.setattr(sim, "_GUARD_SLOTS", 0)
    with pytest.raises(RuntimeError, match="no collision-free boundary found"):
        _run_batch(cfg, range(60), keep_trace=False)


@pytest.mark.parametrize("scenario", TWO_CRITICAL_SCENARIOS)
def test_no_suppress_after_critical_zero_violations(scenario):
    # without the wait after a critical phase the finisher may take the
    # survivor's slot, so no handover is owed
    enh = replace(ENH, suppress_after_critical=False)
    summary = simulate_two_critical(scenario_cfg(scenario, enhancement=enh))
    assert len(summary.round_index) == 150
    assert summary.violation_count == 0


def test_reports_are_the_verified_rounds(tmp_path):
    # at N = 3 about 40 % of during-collision rounds never admit the second
    # arrival: they count as attempted, get no row and an empty CSV row
    cfg = scenario_cfg(Scenario.TWO_CRITICAL_DURING_COLLISION,
                       params=ProtocolParams(3, 0.1, 0.3397, 0.4896), rounds=60)
    summary = simulate_two_critical(cfg)
    indices = summary.round_index.tolist()
    assert len(indices) == 60 < summary.attempted_rounds
    # strictly increasing, within the rounds attempted
    assert indices == sorted(set(indices)) and 0 <= indices[0] <= indices[-1]
    assert indices[-1] < summary.attempted_rounds
    columns = {name: getattr(summary, name) for name in COLUMNS}
    for k, index in enumerate(indices):
        batch = run_round(cfg, index)
        assert batch.injected[0]
        # the one-round verifier's row is the run's, column by column
        assert vars(verify(cfg, batch)) == row_of(columns, k)
    out = tmp_path / "rounds.csv"
    assert main(["simulate", "--n", "3", "--theta", "0.1", "--q", "0.3397", "--r", "0.4896",
                 "--rounds", "60", "--seed", "314", "--enhanced", "--format", "csv",
                 "--scenario", "two-critical-during-collision", "--output", str(out)]) == 0
    rows = list(csv.reader(out.open()))[1:]
    assert [int(row[0]) for row in rows] == list(range(summary.attempted_rounds))
    for row in rows:
        if int(row[0]) in indices:
            assert row[1] == "true" and row[2] != ""
        else:
            assert row[1:] == ["false", "", "", "0", "", ""]


# the columns of a summary that hold its valid rounds, a row each
COLUMNS = ["round_index", "users", "arrived", "entered", "finished", "joint", "shared",
           "collisions", "violations"]


def row_of(columns, k):
    """Row k of the columns, as plain values: ints, lists of two, a tuple of messages."""
    return {name: column[k] if name == "violations" else column[k].tolist()
            for name, column in columns.items() if name in COLUMNS}


def verify(cfg, batch):
    """The verifier's row of a one-round batch, its columns as attributes."""
    columns = _verify_rounds(cfg, batch, np.array([0]))
    assert sorted(columns) == sorted(COLUMNS)
    assert all(len(column) == 1 for column in columns.values())
    return SimpleNamespace(**row_of(columns, 0))


@functools.cache
def valid_round(scenario):
    """Config, one-round batch, (first, second) critical users and row of a passed round."""
    cfg = scenario_cfg(scenario, rounds=20)
    for index in range(20):
        batch = run_round(cfg, index)
        if batch.injected[0]:
            report = verify(cfg, batch)
            assert report.violations == ()
            return cfg, batch, tuple(batch.pairs[0].tolist()), report
    raise AssertionError(f"no round of {scenario} admitted the injection")


def with_actions(batch, changes):
    """The round with user u's action in slot s set to `on`, for each (s, u, on) of changes."""
    cells = batch.cells.copy()
    for s, u, on in changes:
        cells[s - 1, 0, u] = cells[s - 1, 0, u] & 7 | (8 if on else 0)  # bit 3 is the action
    return replace(batch, cells=cells)


def moved_entry(batch, user, slot):
    """The round with the user's first rule-g entry moved to slot (0: none)."""
    entered = batch.entered.copy()
    entered[0, user] = slot
    return replace(batch, entered=entered)


def edited(check, batch, users, report, b):
    """The valid round with one edit that breaks what `check` verifies."""
    u1, u2 = users
    a2, joint = report.arrived[1], report.joint
    done = min(report.finished)
    finisher, survivor = users if report.finished[0] < report.finished[1] else (u2, u1)
    acts = batch.actions[:, 0]
    if check == "entry":
        return moved_entry(batch, u2, 0)
    if check == "inference-bound":
        return moved_entry(batch, u1, a2 + b + 3)
    if check in ("simultaneous-entry", "run-owner-entry"):
        return moved_entry(batch, u1, report.entered[0] + 1)
    if check == "collision":
        both = [s for s in range(a2, done + 1) if acts[s - 1, u1] and acts[s - 1, u2]]
        return with_actions(batch, [(s, u2, False) for s in both])
    if check == "shared-success":
        return with_actions(batch, [(s, u, False) for s in range(joint, done + 1) for u in users])
    if check == "alternation":
        s = report.shared + 1
        return with_actions(batch, [(s, u1, not acts[s - 1, u1])])
    if check == "handover":
        return with_actions(batch, [(done + 1, survivor, False)])
    if check == "idle-slot":
        return with_actions(batch, [(done + 2, finisher, True)])
    assert check == "finisher-waits"
    return with_actions(batch, [(done + 3, finisher, True)])


BROKEN_CHECKS = [
    ("entry", Scenario.TWO_CRITICAL_DURING_COLLISION, "a critical user never entered rule-g mode"),
    ("inference-bound", Scenario.TWO_CRITICAL_DURING_COLLISION, "rule-g inference took"),
    ("simultaneous-entry", Scenario.TWO_CRITICAL_SIMULTANEOUS,
     "expected one slot after its collision count reached"),
    ("run-owner-entry", Scenario.TWO_CRITICAL_DURING_SUCCESS, "run owner entered rule-g at slot"),
    ("collision", Scenario.TWO_CRITICAL_SIMULTANEOUS, "the two critical users never collided"),
    ("shared-success", Scenario.TWO_CRITICAL_SIMULTANEOUS,
     "no critical success after both entered rule-g"),
    ("alternation", Scenario.TWO_CRITICAL_DURING_SUCCESS, "alternation broken at slot"),
    ("handover", Scenario.TWO_CRITICAL_SIMULTANEOUS,
     "survivor did not take the slot after the first completion"),
    ("idle-slot", Scenario.TWO_CRITICAL_DURING_COLLISION, "no idle slot after the handover success"),
    ("finisher-waits", Scenario.TWO_CRITICAL_SIMULTANEOUS,
     "finished user transmitted in the slot after the idle slot"),
]


@pytest.mark.parametrize("check,scenario,message", BROKEN_CHECKS,
                         ids=[check for check, _, _ in BROKEN_CHECKS])
def test_verifier_reports_each_broken_check(check, scenario, message):
    # every other test demands zero violations; each edit here must be reported
    cfg, batch, users, report = valid_round(scenario)
    bad = edited(check, batch, users, report, cfg.enhancement.backoff_bound)
    violations = verify(cfg, bad).violations
    assert any(message in v for v in violations), violations


def test_violations_stay_with_their_round():
    # a batch verified together: only its edited round holds messages, each
    # other round an empty tuple, whatever the lengths (a ragged list set into
    # an object array whole can be broadcast into the wrong shape)
    cfg = scenario_cfg(Scenario.TWO_CRITICAL_SIMULTANEOUS, rounds=6)
    batch = _run_batch(cfg, range(6), keep_trace=True)
    rows = np.flatnonzero(batch.injected)
    assert len(rows) == 6
    assert _verify_rounds(cfg, batch, rows)["violations"].tolist() == [()] * 6

    def late_entries(rounds):
        """The batch with both users of each of rounds entering rule-g one slot late."""
        entered = batch.entered.copy()
        for j in rounds:
            entered[j, batch.pairs[j]] += 1
        return replace(batch, entered=entered)

    bad = late_entries([2])
    violations = _verify_rounds(cfg, bad, rows)["violations"]
    assert violations.shape == (6,)
    assert [v for j, v in enumerate(violations) if j != 2] == [()] * 5
    assert sum("entered rule-g at slot" in v for v in violations[2]) == 2
    # the round's messages are those it gets when verified alone
    assert violations[2] == _verify_rounds(cfg, bad, rows[2:3])["violations"][0]
    # every round with as many messages: still one tuple a round
    violations = _verify_rounds(cfg, late_entries(range(6)), rows)["violations"]
    assert violations.shape == (6,)
    assert all(isinstance(v, tuple) and len(v) >= 2 for v in violations)



# geometric lengths of mean 2: the first completion often comes before the
# inference bound, so the two never run rule g together
SHORT = CriticalTrafficModel.geometric(2.0)


@pytest.mark.parametrize("scenario", TWO_CRITICAL_SCENARIOS)
def test_short_traffic_zero_violations(scenario):
    summary = simulate_two_critical(scenario_cfg(scenario, traffic_model=SHORT, seed=0))
    assert summary.violation_count == 0
    b = ENH.backoff_bound
    apart = summary.joint == 0
    # no entry was owed: the first completion came before the bound
    assert (summary.finished.min(axis=1) < summary.arrived[:, 1] + b + 2)[apart].all()
    assert (summary.shared[apart] == 0).all()
    assert (summary.collisions[apart] >= 1).all()
    if scenario is Scenario.TWO_CRITICAL_DURING_SUCCESS:
        assert apart.any()


@functools.cache
def early_round():
    """A during-success round whose first completion precedes a joint entry, as in valid_round."""
    cfg = scenario_cfg(Scenario.TWO_CRITICAL_DURING_SUCCESS, rounds=40, traffic_model=SHORT)
    for index in range(40):
        batch = run_round(cfg, index)
        if batch.injected[0]:
            report = verify(cfg, batch)
            if report.joint == 0:
                assert report.violations == ()
                return cfg, batch, tuple(batch.pairs[0].tolist()), report
    raise AssertionError("no round ended before the joint entry")


def moved_completion(batch, slot):
    """The round with its first completion moved to slot, and the second still after it."""
    finished = batch.finished.copy()
    pair = batch.pairs[0][finished[0, batch.pairs[0]].argsort()]  # in completion order
    finished[0, pair] = slot, max(finished[0, pair[1]], slot + 1)
    return replace(batch, finished=finished)


@pytest.mark.parametrize("shift,owed", [(1, False), (2, True)])
def test_entry_owed_when_both_are_critical_at_the_bound(shift, owed):
    cfg, batch, users, report = early_round()
    bound = report.arrived[1] + cfg.enhancement.backoff_bound
    violations = verify(cfg, moved_completion(batch, bound + shift)).violations
    assert ("a critical user never entered rule-g mode" in violations) == owed


@pytest.mark.parametrize("check,reported", [
    ("run-owner-entry", True),
    ("collision", True),
    ("handover", True),
    ("idle-slot", True),
    # the finisher never ran rule g, so it owes no wait after the idle slot
    ("finisher-waits", False),
])
def test_checks_of_a_round_without_joint_entry(check, reported):
    cfg, batch, users, report = early_round()
    bad = edited(check, batch, users, report, cfg.enhancement.backoff_bound)
    assert bad.cells.tobytes() != batch.cells.tobytes() or (bad.entered != batch.entered).any()
    message = next(m for c, _, m in BROKEN_CHECKS if c == check)
    violations = verify(cfg, bad).violations
    assert any(message in v for v in violations) == reported, violations
