"""Each check of the benchmark rejects a deliberately wrong output.

Documents are built from the reference (or copied from the program's
output) and then altered; the two named program faults must come back as
failed operations, not as incorrect outputs.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bench import checks, reference, workloads
from bench.checks import FAULT_EDGE, FAULT_INFINITY, Incorrect

THETA = checks.THETA


# the program's unconstrained optimum at N = 10, theta = 0.1
SOLVER_OPTIMUM = (0.1051, 0.4787)


def solution(n, q, r, eta, status):
    """A design solution row with the reference's values at (q, r)."""
    ref = reference.point(n, THETA, q, r)
    return {
        "eta": eta, "q_opt": q, "r_opt": r, "c_norm": ref["w1"], "d_crit": ref["d_crit"],
        "status": status,
        "eta_star": reference.point(n, THETA, *SOLVER_OPTIMUM)["d_crit"],
    }


def optimize_doc(n, q, r, eta, status):
    """An `optimize --format json` document at epsilon = 0.01."""
    sol = solution(n, q, r, eta, status)
    del sol["eta"]
    return {"n": n, "theta": THETA, "eta": eta, "epsilon": 0.01, **sol}


def eta_sweep(n=10):
    """An eta sweep at N = 10 as the program computes it, with the edge fault fixed."""
    return [
        solution(n, 0.023648407222435344, 0.01, 0.6, "binding-corner"),
        solution(n, 0.0821, 0.0788, 0.8, "binding-interior"),
        solution(n, 0.0961, 0.2336, 1.0, "binding-interior"),
        solution(n, *SOLVER_OPTIMUM, 1.6, "slack-interior"),
    ]


# --- strict JSON ----------------------------------------------------------------


@pytest.mark.parametrize("text", ['{"a": NaN}', '[1, Infinity]', '{"a": -Infinity}', "{'a': 1}"])
def test_non_strict_json_is_rejected(text):
    with pytest.raises(Incorrect):
        checks.strict_json(text)


def test_non_finite_sweep_is_incorrect():
    rows = eta_sweep()
    text = json.dumps(rows).replace(str(rows[1]["c_norm"]), "NaN")
    with pytest.raises(Incorrect, match="strict JSON"):
        checks.check_sweep_eta(text, 10, [row["eta"] for row in rows], 0.01)


# --- design ---------------------------------------------------------------------


def test_good_design_documents_pass():
    doc = optimize_doc(10, 0.0961, 0.2336, 1.0, "binding-interior")
    assert checks.check_optimize(json.dumps(doc), 10, 1.0, 0.01) is None
    rows = eta_sweep()
    assert checks.check_sweep_eta(json.dumps(rows), 10, [r["eta"] for r in rows], 0.01) == [
        None
    ] * 4


def test_c_norm_off_by_1e3_is_incorrect():
    doc = optimize_doc(10, 0.0961, 0.2336, 1.0, "binding-interior")
    doc["c_norm"] += 1e-3
    with pytest.raises(Incorrect, match="C_norm"):
        checks.check_optimize(json.dumps(doc), 10, 1.0, 0.01)


def test_sweep_row_above_eta_is_incorrect():
    rows = eta_sweep()
    rows[2] = solution(10, 0.1051, 0.4786, 1.0, "binding-interior")  # D_crit 1.53 > 1.0
    with pytest.raises(Incorrect, match="above eta"):
        checks.check_sweep_eta(json.dumps(rows), 10, [r["eta"] for r in rows], 0.01)


def test_reversed_status_sequence_is_incorrect():
    rows = eta_sweep()
    etas = [row["eta"] for row in rows]
    reversed_rows = [dict(row, eta=eta) for row, eta in zip(rows[::-1], etas)]
    with pytest.raises(Incorrect):
        checks.check_sweep_eta(json.dumps(reversed_rows), 10, etas, 0.01)
    # the order check alone, on rows that each pass
    with pytest.raises(Incorrect, match="corner -> interior -> slack"):
        checks.check_eta_order(rows[::-1], [None] * len(rows))


def test_falling_c_norm_is_incorrect():
    rows = eta_sweep()
    checks.check_eta_order(rows, [None] * len(rows))
    rows[2] = dict(rows[2], c_norm=rows[1]["c_norm"] - 1e-3)
    with pytest.raises(Incorrect, match="C_norm decreases"):
        checks.check_eta_order(rows, [None] * len(rows))
    # a row that failed with the edge fault is left out of the order
    checks.check_eta_order(rows, [None, None, FAULT_EDGE, None])


def test_optimum_away_from_the_paper_is_incorrect():
    doc = optimize_doc(10, 0.12, 0.4786, math.inf, "slack-interior")
    text = json.dumps(doc)  # writes "eta": Infinity, as the program does
    with pytest.raises(Incorrect, match="not within"):
        checks.check_optimize(text, 10, None, 0.01)


def test_qr_point_off_by_1e3_is_incorrect():
    axis = checks.qr_axis(0.01, 0.99, 0.5)
    ref = reference.metrics(3, THETA, *[a.ravel() for a in _mesh(axis)])
    rows = [
        {"q": float(q), "r": float(r), "c_norm": float(c), "d_crit": float(d), "error": ""}
        for q, r, c, d in zip(*[a.ravel() for a in _mesh(axis)], ref["c_norm"], ref["d_crit"])
    ]
    assert checks.check_sweep_qr(json.dumps(rows), 3, 0.5) == 9
    rows[4]["c_norm"] += 1e-3
    with pytest.raises(Incorrect, match="C_norm"):
        checks.check_sweep_qr(json.dumps(rows), 3, 0.5)


def _mesh(axis):
    return np.meshgrid(axis, axis, indexing="ij")


# --- the two named faults are failed operations -----------------------------------

# `critmac optimize --n 10 --theta 0.1 --format json` as the program prints it
UNCONSTRAINED_OUTPUT = """{
  "n": 10,
  "theta": 0.1,
  "eta": Infinity,
  "epsilon": 0.01,
  "q_opt": 0.10510000000000001,
  "r_opt": 0.4787,
  "c_norm": 0.8040245000966442,
  "d_crit": 1.5301230516880544,
  "eta_star": 1.5301230516880544,
  "status": "slack-interior"
}
"""
# `critmac optimize --n 10 --theta 0.1 --eta 0.65 --format json`
EDGE_OUTPUT = """{
  "n": 10,
  "theta": 0.1,
  "eta": 0.65,
  "epsilon": 0.01,
  "q_opt": 0.07887445698230944,
  "r_opt": 0.01,
  "c_norm": 0.7627631519943069,
  "d_crit": 0.7309949885551668,
  "eta_star": 1.5301230516880544,
  "status": "binding-corner"
}
"""


def test_infinity_fault_is_a_failed_operation():
    assert checks.check_optimize(UNCONSTRAINED_OUTPUT, 10, None, 0.01) == FAULT_INFINITY


@pytest.mark.parametrize("eta", ['null', '"inf"', '"Infinity"', None])
def test_strict_unconstrained_document_passes(eta):
    """A fix of the Infinity fault may write eta as null, a string or not at all."""
    text = UNCONSTRAINED_OUTPUT.replace(
        '  "eta": Infinity,\n', "" if eta is None else f'  "eta": {eta},\n'
    )
    assert checks.strict_json(text)
    assert checks.check_optimize(text, 10, None, 0.01) is None


def test_finite_eta_on_an_unconstrained_problem_is_incorrect():
    text = UNCONSTRAINED_OUTPUT.replace('"eta": Infinity', '"eta": 1e308')
    with pytest.raises(Incorrect, match="wrong problem"):
        checks.check_optimize(text, 10, None, 0.01)
    with pytest.raises(Incorrect, match="wrong problem"):
        checks.check_optimize(EDGE_OUTPUT.replace('"eta": 0.65', '"eta": null'), 10, 0.65, 0.01)


def test_infinity_elsewhere_is_incorrect():
    text = UNCONSTRAINED_OUTPUT.replace('"eta_star": 1.5301230516880544', '"eta_star": NaN')
    with pytest.raises(Incorrect):
        checks.check_optimize(text, 10, None, 0.01)
    constrained = EDGE_OUTPUT.replace('"eta": 0.65', '"eta": Infinity')
    with pytest.raises(Incorrect):
        checks.check_optimize(constrained, 10, 0.65, 0.01)


def test_edge_fault_is_a_failed_operation():
    assert checks.check_optimize(EDGE_OUTPUT, 10, 0.65, 0.01) == FAULT_EDGE


def test_edge_fault_in_a_sweep_row_is_a_failed_operation():
    rows = eta_sweep()
    edge = json.loads(EDGE_OUTPUT)
    row = {k: edge[k] for k in ("q_opt", "r_opt", "c_norm", "d_crit", "status")}
    rows.insert(1, {"eta": 0.7, **row, "eta_star": rows[0]["eta_star"]})
    faults = checks.check_sweep_eta(json.dumps(rows), 10, [r["eta"] for r in rows], 0.01)
    assert faults == [None, FAULT_EDGE, None, None, None]


def test_faults_are_counted_as_failed_not_incorrect(tmp_path):
    class Fixed:
        group, operations = "optimize", 1

        def __init__(self, outcome):
            self.outcome = outcome

        def run(self, ctx, index):
            if isinstance(self.outcome, Exception):
                raise self.outcome
            return self.outcome

    ops = [
        Fixed(workloads.Outcome(1.0, 1, [FAULT_INFINITY])),
        Fixed(workloads.Outcome(1.0, 1, [FAULT_EDGE])),
        Fixed(workloads.Outcome(1.0, 1, [None])),
    ]
    result = workloads.run_round(ops, workloads.Context(0, tmp_path))
    assert (result.attempted, result.failed, result.problems) == (3, 2, [])
    result = workloads.run_round(ops + [Fixed(Incorrect("wrong"))],
                                 workloads.Context(0, tmp_path))
    assert (result.attempted, result.failed, len(result.problems)) == (4, 2, 1)


def test_counts_are_per_round_and_must_agree():
    def done(attempted, failed):
        return workloads.RoundResult(attempted=attempted, failed=failed)

    one_round = [done(26, 4)]
    assert workloads.counts_per_round(one_round) == (26, 4, [])
    assert workloads.counts_per_round(one_round * 3) == (26, 4, [])
    attempted, failed, problems = workloads.counts_per_round([done(26, 4), done(26, 5)])
    assert (attempted, failed) == (26, 4) and "differ" in problems[0]


# --- simulate -------------------------------------------------------------------


def simulate_doc(n, enhanced, se=0.05):
    q, r = checks.OPTIMA[n]
    ref = reference.point(n, THETA, q, r)
    d = ref["d_crit_enhanced"] if enhanced else ref["d_crit"]
    values = {"t_s": 1 / THETA, "t_c": ref["t_c"], "c_norm": ref["c_norm"], "d_crit": d}
    rows = [{"metric": k, "analysis": v, "simulation": v + se, "se": se}
            for k, v in values.items()]
    return rows + [{"metric": "max_d_crit", "analysis": "", "simulation": 5, "se": ""}]


def test_good_simulate_document_passes():
    checks.check_simulate(json.dumps(simulate_doc(50, True)), 50, 0.0213, 0.4754, True)


def test_simulated_delay_far_from_reference_is_incorrect():
    rows = simulate_doc(10, False)
    rows[3]["simulation"] += 10 * rows[3]["se"]
    with pytest.raises(Incorrect, match="SE"):
        checks.check_simulate(json.dumps(rows), 10, 0.1051, 0.4786, False)


def test_enhanced_delay_above_bound_is_incorrect():
    rows = simulate_doc(50, True)
    rows[4]["simulation"] = 6
    with pytest.raises(Incorrect, match="bound"):
        checks.check_simulate(json.dumps(rows), 50, 0.0213, 0.4754, True)


def test_infinite_standard_error_is_incorrect():
    text = json.dumps(simulate_doc(10, False)).replace('"se": 0.05', '"se": Infinity', 1)
    with pytest.raises(Incorrect, match="strict JSON"):
        checks.check_simulate(text, 10, 0.1051, 0.4786, False)


def test_scenario_with_violations_is_incorrect():
    doc = {"scenario": "two-critical-simultaneous", "valid_rounds": 20,
           "attempted_rounds": 20, "mean_slots_to_inference": 6.0,
           "max_slots_to_inference": 6, "violations": 0}
    checks.check_scenario(json.dumps(doc), doc["scenario"], 20)
    with pytest.raises(Incorrect, match="violations"):
        checks.check_scenario(json.dumps(dict(doc, violations=1)), doc["scenario"], 20)
    with pytest.raises(Incorrect, match="valid"):
        checks.check_scenario(json.dumps(dict(doc, valid_rounds=19)), doc["scenario"], 20)


def write_trace(path, rows):
    header = ["round", "slot", "phase"]
    for i in range(3):
        header += [f"action_{i}", f"obs_{i}", f"traffic_{i}"]
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


GOOD_ROWS = [
    ["0", "1", "normal", "W", "idle", "normal", "W", "idle", "normal", "W", "idle", "normal"],
    ["0", "2", "normal", "T", "success", "normal", "W", "busy", "normal", "W", "busy", "normal"],
    ["0", "3", "critical", "T", "failure", "normal", "T", "failure", "critical",
     "W", "busy", "normal"],
    ["1", "1", "normal", "W", "idle", "normal", "W", "idle", "normal", "W", "idle", "normal"],
]


def test_good_trace_passes(tmp_path):
    write_trace(tmp_path / "t.csv", GOOD_ROWS)
    assert checks.check_trace(tmp_path / "t.csv", 3) == 2


def test_trace_row_with_two_successes_is_incorrect(tmp_path):
    bad = ["0", "4", "critical", "T", "success", "normal", "T", "success", "critical",
           "W", "busy", "normal"]
    write_trace(tmp_path / "t.csv", GOOD_ROWS[:3] + [bad])
    with pytest.raises(Incorrect, match="2 transmitter"):
        checks.check_trace(tmp_path / "t.csv", 3)


def test_trace_idle_slot_seen_as_busy_is_incorrect(tmp_path):
    bad = ["0", "4", "normal", "W", "idle", "normal", "W", "busy", "normal",
           "W", "idle", "normal"]
    write_trace(tmp_path / "t.csv", [bad])
    with pytest.raises(Incorrect):
        checks.check_trace(tmp_path / "t.csv", 3)


# --- oracle ---------------------------------------------------------------------


def test_oracle_estimate_off_reference_is_incorrect():
    ref = reference.point(3, THETA, 0.3397, 0.4896)
    est = SimpleNamespace(t_c=ref["t_c"], t_c_se=0.01, c_norm=ref["c_norm"], c_norm_se=1e-4,
                          d_crit=ref["d_crit"], d_crit_se=0.01, rounds=1000)
    checks.check_oracle(est, 3, 0.3397, 0.4896, 1000)
    est.c_norm += 1e-3
    with pytest.raises(Incorrect, match="C_norm"):
        checks.check_oracle(est, 3, 0.3397, 0.4896, 1000)
