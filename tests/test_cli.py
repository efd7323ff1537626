"""End-to-end CLI tests.

Most run `cli.main` in this process (`run_cli`).  A fresh interpreter
(`spawn_cli`) is kept where only a real process shows what is tested: peak
memory, the modules an import loads, the `python -m critmac.cli` entry, and
the exit codes 2, 3 and 4 as a shell sees them.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critmac import (
    BadParams,
    CriticalTrafficModel,
    EnhancementConfig,
    ProtocolParams,
    Scenario,
    ScenarioSummary,
    SimConfig,
    cli,
    design,
    sim,
)

CLI = [sys.executable, "-m", "critmac.cli"]


def strict_json(text):
    """Parse JSON as RFC 8259 defines it: NaN and Infinity are rejected."""

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=reject)


def assert_one_line_error(proc, code):
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def run_cli(*args, check=True):
    """`cli.main(args)` in this process, its output captured, as a finished process.

    argparse's exit becomes the return code; any other exception escapes
    and fails the test, as its traceback would show in a real process.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    proc = subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def spawn_cli(*args, check=True):
    """`python -m critmac.cli args` in a fresh interpreter, for what only a real process shows."""
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


class TestAnalyze:
    def test_table_values(self):
        out = spawn_cli(
            "analyze", "--n", "10", "--theta", "0.1", "--q", "0.1051", "--r", "0.4786"
        ).stdout
        rows = dict(line.split() for line in out.splitlines())
        assert float(rows["t_c"]) == pytest.approx(2.4374, abs=5e-5)
        assert float(rows["c_norm"]) == pytest.approx(0.8040, abs=5e-5)
        assert float(rows["d_crit"]) == pytest.approx(1.5297, abs=1e-3)
        assert float(rows["t_s"]) == 10.0

    def test_enhanced_flag(self):
        out = run_cli(
            "analyze", "--n", "10", "--theta", "0.1", "--q", "0.105", "--r", "0.479",
            "--enhanced", "--format", "json",
        ).stdout
        data = json.loads(out)
        assert data["d_crit_enhanced"] == pytest.approx(0.93, abs=0.005)
        assert data["d_crit"] == pytest.approx(1.53, abs=0.005)

    def test_theta_one(self):
        data = json.loads(
            run_cli(
                "analyze", "--n", "10", "--theta", "1.0", "--q", "0.105", "--r", "0.479",
                "--format", "json",
            ).stdout
        )
        assert data["t_s"] == 1.0
        assert data["f_norm"] == 1.0

    def test_bad_params_exit_code(self):
        proc = spawn_cli(
            "analyze", "--n", "10", "--theta", "2.0", "--q", "0.1", "--r", "0.4",
            check=False,
        )
        assert proc.returncode == 2
        assert "BadParams" in proc.stderr

    def test_singular_exit_code(self):
        proc = spawn_cli(
            "analyze", "--n", "10", "--theta", "0.1", "--q", "0.0", "--r", "0.4",
            check=False,
        )
        assert proc.returncode == 3
        assert "SingularSystem" in proc.stderr


class TestOptimize:
    def test_unconstrained(self):
        data = json.loads(
            run_cli("optimize", "--n", "10", "--theta", "0.1", "--format", "json").stdout
        )
        assert data["q_opt"] == pytest.approx(0.105, abs=0.005)
        assert data["r_opt"] == pytest.approx(0.479, abs=0.005)
        assert data["c_norm"] == pytest.approx(0.804, abs=0.002)
        assert data["status"] == "slack-interior"

    def test_binding(self):
        data = json.loads(
            run_cli(
                "optimize", "--n", "10", "--theta", "0.1", "--eta", "1", "--format", "json"
            ).stdout
        )
        assert data["status"] == "binding-interior"
        assert data["d_crit"] == pytest.approx(1.0, abs=0.005)
        assert data["eta_star"] == pytest.approx(1.531, abs=0.01)

    def test_unconstrained_json_is_strict(self):
        data = strict_json(
            run_cli("optimize", "--n", "3", "--theta", "0.1", "--format", "json").stdout
        )
        assert data["eta"] is None
        assert data["status"] == "slack-interior"

    def test_infeasible_exit_code(self):
        proc = spawn_cli(
            "optimize", "--n", "10", "--theta", "0.1", "--eta", "0.2", check=False
        )
        assert proc.returncode == 4
        assert "infeasible" in proc.stdout


# a scenario that would spin through 5 * 10**6 rounds if it were not refused at once
SPINS = ["--rounds", "1000000", "--enhanced", "--scenario"]


class TestSimulate:
    def test_report_shape(self):
        out = run_cli(
            "simulate", "--n", "3", "--theta", "0.5", "--q", "0.3397", "--r", "0.4896",
            "--rounds", "120", "--seed", "42", "--format", "csv",
        ).stdout
        lines = out.splitlines()
        assert lines[0] == "metric,analysis,simulation,se"
        metrics = [line.split(",")[0] for line in lines[1:]]
        assert metrics == ["t_s", "t_c", "c_norm", "d_crit", "max_d_crit"]

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--n", "3", "--theta", "0.2", "--q", "0.3397", "--r", "0.4896",
            "--rounds", "60", "--seed", "9", "--format", "json",
        ]
        a = run_cli(*args).stdout
        b = run_cli(*args).stdout
        assert a == b

    def test_trace_output_deterministic(self, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "simulate", "--n", "3", "--theta", "0.2", "--q", "0.3397", "--r", "0.4896",
            "--rounds", "5", "--seed", "9",
        ]
        run_cli(*base, "--trace-output", str(t1))
        run_cli(*base, "--trace-output", str(t2))
        assert t1.read_bytes() == t2.read_bytes()
        header = t1.read_text().splitlines()[0]
        assert header.startswith("round,slot,phase,action_0,obs_0,traffic_0")

    def test_enhanced_max_delay_column(self):
        out = run_cli(
            "simulate", "--n", "3", "--theta", "0.1", "--q", "0.3397", "--r", "0.4896",
            "--rounds", "300", "--seed", "4", "--enhanced", "--b", "5", "--format", "csv",
        ).stdout
        row = next(line for line in out.splitlines() if line.startswith("max_d_crit"))
        assert int(row.split(",")[2]) <= 5

    def test_two_critical_scenario_report(self):
        data = json.loads(
            run_cli(
                "simulate", "--n", "10", "--theta", "0.1", "--q", "0.1051", "--r", "0.4786",
                "--rounds", "30", "--seed", "7", "--enhanced",
                "--scenario", "two-critical-simultaneous", "--format", "json",
            ).stdout
        )
        assert data["violations"] == 0
        assert data["valid_rounds"] == 30
        assert data["mean_slots_to_inference"] == 6.0

    def test_scenario_trace_output(self, tmp_path):
        path = tmp_path / "scenario.csv"
        run_cli(
            "simulate", "--n", "5", "--theta", "0.1", "--q", "0.2", "--r", "0.45",
            "--rounds", "4", "--seed", "3", "--enhanced",
            "--scenario", "two-critical-simultaneous", "--trace-output", str(path),
        )
        lines = path.read_text().splitlines()
        assert lines[0].startswith("round,slot,phase")
        assert any(",critical," in line for line in lines[1:])
        assert any("critical" == line.split(",")[5] for line in lines[1:])

    def test_single_round_json_is_strict(self):
        rows = strict_json(
            run_cli(
                "simulate", "--n", "3", "--theta", "0.2", "--q", "0.3397", "--r", "0.4896",
                "--rounds", "1", "--seed", "9", "--format", "json",
            ).stdout
        )
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["c_norm"]["se"] is None  # one round has no standard error
        assert by_metric["d_crit"]["se"] is None

    def test_r_one_needs_enhanced_rules(self):
        proc = run_cli(
            "simulate", "--n", "3", "--theta", "0.1", "--q", "0.3", "--r", "1",
            "--rounds", "2", check=False,
        )
        assert_one_line_error(proc, 2)
        assert "BadParams" in proc.stderr

    def test_negative_seed_is_rejected(self):
        proc = run_cli(
            "simulate", "--n", "3", "--theta", "0.1", "--q", "0.3", "--r", "0.5", "--seed", "-1",
            check=False,
        )
        assert_one_line_error(proc, 2)
        assert "BadParams" in proc.stderr

    def test_two_critical_summary_without_joint_entry(self, monkeypatch, capsys):
        # a valid round in which one user never entered rule-g mode is a
        # violation to report, not a crash of the summary
        violations = np.empty(1, dtype=object)
        violations[0] = ("a critical user never entered rule-g mode",)
        summary = ScenarioSummary(
            Scenario.TWO_CRITICAL_SIMULTANEOUS, 1, round_index=np.array([0]),
            users=np.array([[3, 5]]), arrived=np.array([[101, 101]]),
            entered=np.array([[107, 0]]), finished=np.array([[121, 141]]),
            joint=np.array([0]), shared=np.array([0]), collisions=np.array([0]),
            violations=violations,
        )
        monkeypatch.setattr(cli, "simulate_two_critical", lambda cfg, trace_sink=None: summary)
        code = cli.main([
            "simulate", "--n", "10", "--theta", "0.1", "--q", "0.1051", "--r", "0.4786",
            "--rounds", "1", "--enhanced", "--scenario", "two-critical-simultaneous",
            "--format", "json",
        ])
        assert code == 0
        data = strict_json(capsys.readouterr().out)
        assert data["violations"] == 1
        assert data["mean_slots_to_inference"] is None
        assert data["max_slots_to_inference"] is None

    def test_two_critical_csv_rows_from_the_columns(self, monkeypatch, capsys):
        # attempted rounds 0-3, of which 1 and 3 are valid; round 3 never
        # made its joint entry and failed two checks
        violations = np.empty(2, dtype=object)
        violations[:] = (), ("a critical user never entered rule-g mode", "second")
        summary = ScenarioSummary(
            Scenario.TWO_CRITICAL_DURING_COLLISION, 4, round_index=np.array([1, 3]),
            users=np.array([[0, 2], [1, 0]]), arrived=np.array([[101, 102], [101, 103]]),
            entered=np.array([[106, 108], [0, 0]]), finished=np.array([[150, 131], [121, 141]]),
            joint=np.array([108, 0]), shared=np.array([110, 0]), collisions=np.array([6, 0]),
            violations=violations,
        )
        monkeypatch.setattr(cli, "simulate_two_critical", lambda cfg, trace_sink=None: summary)
        assert cli.main([
            "simulate", "--n", "3", "--theta", "0.1", "--q", "0.3397", "--r", "0.4896",
            "--rounds", "2", "--enhanced", "--scenario", "two-critical-during-collision",
            "--format", "csv",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "round,injected,second_arrival,slots_to_joint_inference,critical_collisions,"
            "first_finisher,violations",
            "0,false,,,0,,",
            "1,true,102,6,6,2,",
            "2,false,,,0,,",
            "3,true,103,,0,1,a critical user never entered rule-g mode;second",
        ]

    @pytest.mark.parametrize("message", [
        "rule-g inference took 9 slots, bound is 7",
        'a "quoted" message, with a comma\nand a line break',
    ], ids=["comma", "quote-and-line-break"])
    def test_two_critical_csv_quotes_a_message_with_a_comma(self, message, monkeypatch, capsys):
        # a violations cell that holds a comma used to add cells to its row
        verify = sim._verify_rounds

        def one_violation(*args):
            columns = verify(*args)
            columns["violations"][:] = [(message,)] * len(columns["violations"])
            return columns

        monkeypatch.setattr(sim, "_verify_rounds", one_violation)
        assert cli.main([
            "simulate", "--n", "3", "--theta", "0.1", "--q", "0.3397", "--r", "0.4896",
            "--rounds", "3", "--seed", "5", "--enhanced",
            "--scenario", "two-critical-during-collision", "--format", "csv",
        ]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(rows) >= 3
        assert all(len(row) == len(header) for row in rows)
        violations = [row[-1] for row in rows if row[1] == "true"]
        assert violations == [message] * 3

    def test_single_user_fails_before_any_round(self, monkeypatch, capsys):
        def no_rounds(*args, **kwargs):
            raise AssertionError("rounds ran before the analysis column was checked")

        monkeypatch.setattr(cli, "run_experiment", no_rounds)
        code = cli.main([
            "simulate", "--n", "1", "--theta", "0.1", "--q", "0.3", "--r", "0.4",
            "--rounds", "100000",
        ])
        assert code == 2
        assert "BadParams" in capsys.readouterr().err

    @pytest.mark.parametrize("traffic", [
        ["--x-fixed", "200000"],
        ["--x-geometric", "1e300"],
        ["--x-geometric", "inf"],
        ["--x-geometric", "nan"],
        ["--x-fixed", "60000", "--enhanced", "--scenario", "two-critical-simultaneous"],
        # base rules: two colliders need about 150 000 slots on average to clear
        ["--r", "0.99999", "--rounds", "3"],
        # b + 1 collisions before the two critical users infer each other
        ["--enhanced", "--b", "100000", "--scenario", "two-critical-simultaneous"],
        # packets at the cap, and collisions on top
        ["--x-fixed", "100000", "--seed", "2"],
        ["--x-fixed", "100000", "--seed", "2", "--enhanced"],
        ["--x-fixed", "50000", "--enhanced", "--scenario", "two-critical-simultaneous"],
        # b + 1 = 99 959 collisions fit beside 40 packets, but not with the rule_g
        # contention and the survivor's b on top: this run spun and then crashed
        ["--q", "0.3397", "--r", "0.4896", "--enhanced", "--b", "99958", "--seed", "1",
         "--scenario", "two-critical-simultaneous"],
        # geometric traffic: the collisions alone exceed the cap
        ["--enhanced", "--b", "99999", "--x-geometric", "2", "--seed", "1",
         "--scenario", "two-critical-simultaneous"],
    ])
    def test_critical_traffic_beyond_the_slot_cap_is_rejected(self, traffic, monkeypatch):
        # a critical phase longer than the 100 000-slot cap can only end in
        # the cap's error, after the whole spin; it is refused before any round
        def no_rounds(*args, **kwargs):
            raise AssertionError("a round ran")

        monkeypatch.setattr(cli, "run_experiment", no_rounds)
        monkeypatch.setattr(cli, "simulate_two_critical", no_rounds)
        argv = ["simulate", "--n", "3", "--theta", "0.1", "--q", "0.3", "--r", "0.4",
                "--rounds", "1", *traffic]
        proc = run_cli(*argv, check=False)
        assert_one_line_error(proc, 2)
        assert "BadParams" in proc.stderr

    def test_optimal_protocol_when_q_and_r_are_omitted(self, tmp_path):
        # without --q and --r a run uses the unconstrained optimum, bit for bit
        sol = design.solve_design_problem(design.DesignProblem(3, 0.1))
        solved = ["--q", repr(sol.q_opt), "--r", repr(sol.r_opt)]
        runs = []
        for name, given in (("omitted", []), ("given", solved)):
            trace = tmp_path / f"{name}.csv"
            proc = run_cli("simulate", "--n", "3", "--theta", "0.1", "--rounds", "40",
                           "--seed", "42", *given, "--format", "json",
                           "--trace-output", str(trace))
            runs.append((proc.stdout, proc.stderr, trace.read_bytes()))
        assert runs[0] == runs[1]

    def test_collisions_at_the_slot_cap_are_accepted(self):
        params = ProtocolParams(3, 0.1, 0.3397, 0.4896)
        # 20 packets each and 2b + 51 = 99 959 collisions: b + 1 before the
        # joint entry, 20 times the mean rule_g contention of 2.5 slots, and b
        # for the survivor
        SimConfig(params=params, enhancement=EnhancementConfig(True, 49_954),
                  scenario=Scenario.TWO_CRITICAL_SIMULTANEOUS)
        with pytest.raises(BadParams):
            SimConfig(params=params, enhancement=EnhancementConfig(True, 49_955),
                      scenario=Scenario.TWO_CRITICAL_SIMULTANEOUS)
        # b = 5 collisions on top of the packets
        SimConfig(params=params, enhancement=EnhancementConfig(True),
                  traffic_model=CriticalTrafficModel.fixed(99_995))

    def test_critical_traffic_at_the_slot_cap_is_accepted(self):
        assert CriticalTrafficModel.fixed(100_000).value == 100_000
        assert CriticalTrafficModel.geometric(5000).value == 5000
        # base rules: nine colliders clear after about 2828 slots on average
        SimConfig(params=ProtocolParams(10, 0.1, 0.3, 0.999))

    @pytest.mark.parametrize("n,q,r,rounds,trace", [
        (3, "0.3397", "0.4896", 20_000, False),
        (3, "0.3397", "0.4896", 20_000, True),
        (50, "0.0213", "0.4754", 2_000, False),
    ], ids=["n3", "n3-traced", "n50"])
    def test_peak_memory_does_not_grow_with_the_rounds(self, n, q, r, rounds, trace, warm_env):
        # a batch's memory is bounded whatever the number of rounds; beyond
        # it a run keeps a few bytes per round and per T_c sample.  The runs
        # read a warm bytecode cache: compiling the sources would raise the
        # small run's peak and hide growth
        def peak(count):
            args = ["simulate", "--n", str(n), "--theta", "0.1", "--q", q, "--r", r,
                    "--rounds", str(count), "--seed", "3"]
            return peak_rss_mb(*args, *(["--trace-output", os.devnull] if trace else []),
                               env=warm_env)

        small, large = at_once(peak, 200, rounds)
        assert large - small < 2, f"{small:.2f} MB at 200 rounds, {large:.2f} MB at {rounds}"

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_scenario_peak_memory_does_not_grow_with_the_rounds(self, fmt, warm_env):
        # a two-critical run keeps its valid rounds as columns of a few
        # bytes each, and spells its CSV rows a block at a time; as
        # test_peak_memory_does_not_grow_with_the_rounds, on a warm cache
        def peak(count):
            return peak_rss_mb("simulate", "--n", "3", "--theta", "0.1", "--q", "0.3397",
                               "--r", "0.4896", "--seed", "3", "--enhanced",
                               "--scenario", "two-critical-simultaneous", "--format", fmt,
                               "--rounds", str(count), env=warm_env)

        small, large = at_once(peak, 200, 20_000)
        assert large - small < 8, f"{small:.2f} MB at 200 rounds, {large:.2f} MB at 20000"

    def test_scenario_requires_enhancement(self):
        proc = run_cli(
            "simulate", "--n", "10", "--theta", "0.1", "--q", "0.1051", "--r", "0.4786",
            "--rounds", "5", "--seed", "7", "--scenario", "two-critical-simultaneous",
            check=False,
        )
        assert proc.returncode == 2
        assert "ScenarioUnsatisfiable" in proc.stderr

    @pytest.mark.parametrize("refusal", [
        ["--scenario", "two-critical-simultaneous"],
        ["--rounds", "100000000000"],
        ["--normal-slots", "10001"],
        ["--normal-slots", "0"],
        ["--rounds", "20000", "--normal-slots", "5001"],
        # scenarios that never inject their second arrival, refused before any round runs
        [*SPINS, "two-critical-during-success", "--x-fixed", "1"],
        [*SPINS, "two-critical-during-success", "--x-geometric", "1"],
        [*SPINS, "two-critical-during-collision", "--q", "0"],
        # and scenarios that inject it in too few rounds: expected shares of 0.048 and
        # 0.009, against the 0.2 that 5 x --rounds rounds need
        [*SPINS, "two-critical-during-success", "--q", "0.3397", "--r", "0.4896",
         "--x-geometric", "1.05"],
        [*SPINS, "two-critical-during-collision", "--n", "10", "--q", "0.0001", "--r", "0.4786"],
    ], ids=["two-critical-without-enhanced", "rounds", "normal-slots", "normal-slots-zero",
        "rounds-times-slots",
            "during-success-x1", "during-success-geometric-mean1", "during-collision-q0",
            "during-success-rare", "during-collision-rare"])
    def test_refused_simulate_leaves_the_output_files(self, refusal, tmp_path):
        out, trace = tmp_path / "kept.csv", tmp_path / "kept-trace.csv"
        out.write_bytes(b"metric,analysis\n")
        trace.write_bytes(b"round,slot\n")
        proc = run_cli("simulate", "--n", "3", "--theta", "0.1", "--q", "0.3", "--r", "0.4",
                       *refusal, "--output", str(out), "--trace-output", str(trace),
                       check=False)
        assert_one_line_error(proc, 2)
        assert out.read_bytes() == b"metric,analysis\n"
        assert trace.read_bytes() == b"round,slot\n"

    @pytest.mark.parametrize("spelling", ["same", "relative"])
    def test_output_and_trace_output_must_differ(self, spelling, tmp_path, monkeypatch):
        # the report would overwrite the trace; refused before any round runs
        def no_rounds(*args, **kwargs):
            raise AssertionError("a round ran")

        monkeypatch.setattr(cli, "run_experiment", no_rounds)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.csv"
        path.write_bytes(b"round,slot\n")
        trace = str(path) if spelling == "same" else "run.csv"
        proc = run_cli("simulate", "--n", "3", "--theta", "0.1", "--q", "0.3", "--r", "0.4",
                       "--rounds", "5", "--output", str(path), "--trace-output", trace,
                       check=False)
        assert_one_line_error(proc, 2)
        assert "--output and --trace-output" in proc.stderr
        assert path.read_bytes() == b"round,slot\n"


class TestSweep:
    def test_qr_csv(self):
        out = run_cli(
            "sweep", "--axis", "qr", "--n", "4", "--theta", "0.1", "--step", "0.2"
        ).stdout
        lines = out.splitlines()
        assert lines[0] == "q,r,c_norm,d_crit,error"
        qs = {line.split(",")[0] for line in lines[1:]}
        assert len(lines) == 1 + len(qs) ** 2
        assert min(map(float, qs)) == 0.01 and max(map(float, qs)) == 0.99

    def test_qr_error_cells_are_null_in_json_and_empty_in_csv(self, capsys):
        args = ["sweep", "--axis", "qr", "--n", "4", "--theta", "0.1",
                "--from", "-0.25", "--to", "1", "--step", "0.25"]
        assert cli.main([*args, "--format", "json"]) == 0
        bad = [row for row in json.loads(capsys.readouterr().out) if row["error"]]
        assert bad and all(row["c_norm"] is None and row["d_crit"] is None for row in bad)
        assert cli.main([*args, "--format", "csv"]) == 0
        cells = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        bad = [row for row in cells if row[4]]
        assert bad and all(row[2:4] == ["", ""] for row in bad)

    def test_eta_sweep_statuses(self):
        out = run_cli(
            "sweep", "--axis", "eta", "--n", "10", "--theta", "0.1",
            "--from", "1.6", "--to", "1.7", "--step", "0.1",
        ).stdout
        assert "slack-interior" in out

    def test_byte_identical_reruns(self):
        args = ["sweep", "--axis", "qr", "--n", "4", "--theta", "0.1", "--step", "0.25"]
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize(
        "axis,step",
        [("qr", "0"), ("qr", "-0.2"), ("n", "0.5"), ("nhat", "0.5"), ("n", "0"),
         ("eta", "0"), ("eta", "-0.1"), ("theta", "0"), ("qr", "inf"), ("theta", "inf"),
         # more than a million rows: a grid of 10^18 would exhaust memory
         ("qr", "1e-9"), ("theta", "1e-300")],
    )
    def test_step_must_be_positive(self, axis, step, capsys):
        code = cli.main([
            "sweep", "--axis", axis, "--n", "3", "--theta", "0.1", "--eta", "1",
            "--from", "0.5" if axis in ("eta", "theta") else "3",
            "--to", "0.52" if axis in ("eta", "theta") else "4",
            "--step", step,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadParams") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "axis,start,stop",
        [("qr", "0.9", "0.1"), ("n", "12", "8"), ("nhat", "12", "8"),
         ("theta", "0.5", "0.2"), ("eta", "1.4", "0.9"),
         ("qr", "nan", "0.5"), ("qr", "0.1", "inf"), ("n", "3", "inf"), ("eta", "nan", "1"),
         ("eta", "-1", "0.5"), ("eta", "0", "0.5"), ("n", "2.5", "3"), ("nhat", "8", "9.5"),
         ("n", "3", "1e7")],
    )
    def test_reversed_or_unbounded_range_is_rejected(self, axis, start, stop, capsys):
        code = cli.main([
            "sweep", "--axis", axis, "--n", "3", "--theta", "0.1", "--eta", "1",
            "--from", start, "--to", stop,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: BadParams") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("axis,n_users,start,stop", [
        pytest.param("n", "3", "1029", "1030", id="n"),
        pytest.param("nhat", "3", "1029", "1030", id="nhat"),
        # the true N of an nhat sweep is read only after each nhat is solved
        pytest.param("nhat", "1030", "3", "4", id="nhat-true-n"),
        # theta = 1.01 is past the last valid theta, and every theta <= 1 takes a solve
        pytest.param("theta", "50", "0.1", "1.5", id="theta"),
    ])
    def test_too_many_users_fails_before_any_solve(
        self, axis, n_users, start, stop, monkeypatch, capsys
    ):
        # N = 1029 alone takes seconds to solve; the range's last point is checked first
        solves = []
        monkeypatch.setattr(design, "solve_design_problem", lambda prob: solves.append(prob))
        code = cli.main([
            "sweep", "--axis", axis, "--n", n_users, "--theta", "0.1",
            "--from", start, "--to", stop,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadParams") and len(err.splitlines()) == 1
        assert solves == []

    def test_reversed_qr_range_against_the_default_stop(self, capsys):
        # --from alone above the default stop 1 - epsilon is reversed too
        code = cli.main(["sweep", "--axis", "qr", "--n", "3", "--theta", "0.1", "--from", "0.995"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: BadParams")


def json_reference(doc) -> str:
    """JSON as `json.dumps(indent=2)` writes it, non-finite floats as null (strict JSON)."""

    def finite(value):
        return None if isinstance(value, float) and not math.isfinite(value) else value

    if isinstance(doc, dict):
        doc = {k: finite(v) for k, v in doc.items()}
    else:
        doc = [{k: finite(v) for k, v in row.items()} for row in doc]
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def csv_cell_reference(value) -> str:
    """A CSV cell at full precision: empty for None, lower-case booleans, repr for floats,
    and a string as the csv module's minimal quoting writes it."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        out = io.StringIO()
        csv.writer(out).writerow([value, ""])  # a lone empty field would be quoted
        return out.getvalue()[: -len(",\r\n")]
    return str(value)


def csv_reference(columns, rows) -> str:
    lines = [",".join(columns)]
    lines += [",".join(csv_cell_reference(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def table_cell_reference(value) -> str:
    """A table cell: empty for None, 4 decimals for floats, str for the rest."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def table_reference(columns, rows) -> str:
    """The aligned table: ljust-padded cells two spaces apart, the header alone for no rows."""
    cells = [[table_cell_reference(row[c]) for c in columns] for row in rows]
    widths = [max([len(c), *(len(r[i]) for r in cells)]) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e22, -1e22, 0.1, 1.0 / 3.0, 1.7976931348623157e308,
               math.nan, math.inf, -math.inf]
CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    # quotes, backslashes, control characters, non-ASCII and astral characters, "%"
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é✓", "\U0001f600", "%s", "%%", ""]),
)
KEYS = st.text(alphabet=st.characters(codec="utf-8"), min_size=1, max_size=6)


class TestEncoding:
    """The one column encoder against `json.dumps`, the csv module's cells and the ljust table."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(KEYS, min_size=1, max_size=5, unique=True).flatmap(
        lambda keys: st.tuples(st.just(keys), st.lists(st.lists(CELLS, min_size=len(keys),
                                                                max_size=len(keys)), max_size=6))))
    def test_rows_match_json_dumps_and_the_csv_join(self, case):
        columns, cells = case
        rows = [dict(zip(columns, row)) for row in cells]
        assert cli._render_rows(columns, rows, "json") == json_reference(rows)
        assert cli._render_rows(columns, rows, "csv") == csv_reference(columns, rows)
        assert cli._render_rows(columns, rows, "table") == table_reference(columns, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(KEYS, CELLS), min_size=1, max_size=6, unique_by=lambda kv: kv[0]))
    def test_pairs_match_json_dumps_and_the_csv_join(self, pairs):
        assert cli._render_pairs(pairs, "json") == json_reference(dict(pairs))
        keys = [k for k, _ in pairs]
        assert cli._render_pairs(pairs, "csv") == csv_reference(keys, [dict(pairs)])

    @pytest.mark.parametrize("fmt,text", [("json", "[]\n"), ("csv", "q,r\n"), ("table", "q  r\n")])
    def test_no_rows(self, fmt, text):
        assert cli._render_rows(["q", "r"], [], fmt) == text
        if fmt == "json":
            assert text == json_reference([])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), max_size=12))
    def test_float_grid_reads_nan_as_missing(self, values):
        # a grid block is spelled as its cells with NaN as None
        grid = np.array(values, dtype=float).reshape(-1, 1 if len(values) % 2 else 2)
        cells = [None if math.isnan(v) else v for v in values]
        for fmt in ("json", "csv", "table"):
            assert cli._spell(grid, fmt) == cli._spell(cells, fmt)


def at_once(fn, *values) -> list:
    """[fn(value) for value in values], the calls made at once; each waits on its own process."""
    with ThreadPoolExecutor(len(values)) as pool:
        return list(pool.map(fn, values))


@pytest.fixture(scope="module")
def warm_env(tmp_path_factory):
    """An environment with a bytecode cache of its own, warmed by a traced run.

    That run loads every module the simulate runs load, numpy.random and
    numpy.linalg included, so no measured run compiles.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path_factory.mktemp("pycache"))
    simulate = ["simulate", "--n", "3", "--theta", "0.1", "--q", "0.3397", "--r", "0.4896"]
    subprocess.run([*CLI, *simulate, "--rounds", "1", "--trace-output", os.devnull],
                   check=True, stdout=subprocess.DEVNULL, env=env)
    return env


def peak_rss_mb(*args, env=None) -> float:
    """Peak RSS of one CLI run, read in a fresh interpreter that runs the CLI as its only child."""
    probe = ("import resource, subprocess, sys; "
             "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = subprocess.run([sys.executable, "-c", probe, *CLI, *args],
                          capture_output=True, text=True, check=True, env=env)
    return int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux


class _Writes:
    """A stdout stand-in that keeps each write."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass


class TestStreaming:
    QR = ["sweep", "--axis", "qr", "--n", "4", "--theta", "0.1",
          "--from", "-0.25", "--to", "1.2", "--step", "0.05"]  # 30 x 30, error cells included

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_blocks_write_the_bytes_of_one_block(self, fmt, monkeypatch):
        side = 30
        written = {}
        for name, cells in (("one", 10**9), ("rows", 1), ("pairs", 2 * side)):
            monkeypatch.setattr(cli, "_BLOCK_CELLS", cells)
            monkeypatch.setattr(sys, "stdout", _Writes())
            assert cli.main([*self.QR, "--format", fmt]) == 0
            written[name] = sys.stdout.chunks
        monkeypatch.undo()
        whole = "".join(written["one"])
        assert whole.count("\n") > side * side
        for name, per_block in (("rows", 1), ("pairs", 2)):
            assert "".join(written[name]) == whole
            # no write holds more rows than one block of q rows
            rows = [chunk.count('"q": ') if fmt == "json" else chunk.count("\n")
                    for chunk in written[name]]
            assert max(rows) <= per_block * side + (fmt != "json")  # the CSV or table header
            assert len(rows) >= side // per_block

    def test_streamed_json_holds_the_cells_of_qr_grid(self, capsys):
        assert cli.main([*self.QR, "--format", "json"]) == 0
        grid = design.qr_grid(design.DesignProblem(4, 0.1), start=-0.25, stop=1.2, step=0.05)
        pts = grid.pts.tolist()
        rows = [
            {"q": q, "r": r, "c_norm": None if math.isnan(c) else c,
             "d_crit": None if math.isnan(d) else d, "error": error}
            for q, c_row, d_row, e_row in zip(pts, grid.c_norm.tolist(), grid.d_crit.tolist(),
                                              grid.errors.tolist())
            for r, c, d, error in zip(pts, c_row, d_row, e_row)
        ]
        assert any(row["error"] for row in rows)
        assert strict_json(capsys.readouterr().out) == rows

    @pytest.mark.parametrize("argv", [
        ["--axis", "qr", "--step", "1e-9", "--format", "json"],
        ["--axis", "qr", "--step", "0", "--format", "csv"],
        ["--axis", "qr", "--n", "1030", "--step", "0.2", "--format", "csv"],
        ["--axis", "qr", "--from", "0.9", "--to", "0.1", "--format", "table"],
        ["--axis", "eta", "--from", "-1", "--to", "0.5", "--format", "json"],
        ["--axis", "n", "--from", "3", "--to", "1030", "--format", "csv"],
    ])
    def test_refused_sweep_leaves_the_output_file(self, argv, tmp_path, capsys):
        out = tmp_path / "kept.csv"
        out.write_bytes(b"q,r\n0.5,0.5\n")
        if "--n" not in argv:
            argv = ["--n", "3", *argv]
        assert cli.main(["sweep", "--theta", "0.1", *argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: BadParams")
        assert out.read_bytes() == b"q,r\n0.5,0.5\n"

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_peak_memory_does_not_grow_with_the_grid(self, fmt, tmp_path):
        def peak(side):
            step = repr(0.98 / (side - 1))  # side points from 0.01 to 0.99
            return peak_rss_mb("sweep", "--axis", "qr", "--n", "3", "--theta", "0.1",
                               "--step", step, "--format", fmt,
                               "--output", str(tmp_path / f"{side}.{fmt}"))

        small, large = at_once(peak, 10, 300)
        assert (tmp_path / f"300.{fmt}").read_text().count("0.99") > 300
        assert large - small < 30, f"{fmt}: {small:.1f} MB at 10 x 10, {large:.1f} MB at 300 x 300"


@pytest.mark.parametrize("argv", [
    [*command, "--n", n]
    for n in ("1030", "100000")
    for command in (
        ["analyze", "--q", "0.001", "--r", "0.5"],
        ["simulate", "--q", "0.001", "--r", "0.5"],
        ["optimize"],
        ["sweep", "--axis", "qr", "--step", "0.2"],
    )
])
def test_too_many_users_for_the_binomial_table(argv):
    # C(1030, 515) overflows a float, so the analysis has no finite chain;
    # at N = 100 000 the (N + 1)^2 table would take 80 GB, so it is refused first
    proc = run_cli(*argv, "--theta", "0.1", check=False)
    assert_one_line_error(proc, 2)
    assert "BadParams" in proc.stderr


class TestConfigFile:
    def test_config_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("n=10\ntheta=0.1\nq=0.1051\nr=0.4786\nformat=json\n")
        data = json.loads(run_cli("analyze", "--config", str(cfg)).stdout)
        assert data["t_c"] == pytest.approx(2.4374, abs=5e-5)
        # explicit flag overrides the file value
        data = json.loads(
            run_cli("analyze", "--config", str(cfg), "--theta", "0.5").stdout
        )
        assert data["t_s"] == 2.0

    def test_config_before_subcommand(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("n=3\ntheta=0.1\nq=0.3\nr=0.4\nformat=json\n")
        after = strict_json(run_cli("analyze", "--config", str(cfg)).stdout)
        assert strict_json(run_cli("--config", str(cfg), "analyze").stdout) == after
        data = strict_json(run_cli("--config", str(cfg), "analyze", "--theta", "0.5").stdout)
        assert data["t_s"] == 2.0

    def test_config_with_equals_sign(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("n=3\ntheta=0.1\nq=0.3\nr=0.4\nformat=json\n")
        separate = strict_json(run_cli("analyze", "--config", str(cfg)).stdout)
        # the format= line takes effect: the output is JSON, not a table
        assert strict_json(run_cli("analyze", f"--config={cfg}").stdout) == separate
        assert strict_json(run_cli(f"--config={cfg}", "analyze").stdout) == separate
        data = strict_json(run_cli("analyze", f"--config={cfg}", "--theta", "0.5").stdout)
        assert data["t_s"] == 2.0

    @pytest.mark.parametrize("spelling", [["--config="], ["--config"]])
    def test_config_without_path(self, spelling):
        proc = run_cli("analyze", *spelling, check=False)
        assert_one_line_error(proc, 2)

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("analyze", "--config", str(tmp_path / "absent.conf"), check=False)
        assert_one_line_error(proc, 2)

    def test_unreadable_config_file(self, tmp_path):
        proc = run_cli("analyze", "--config", str(tmp_path), check=False)  # a directory
        assert_one_line_error(proc, 2)

    @pytest.mark.parametrize("value", ["true", "false", "TRUE", "False"])
    def test_config_comments_blank_lines_and_switches(self, value, tmp_path):
        # comment and blank lines are skipped; true sets a switch, false leaves it off
        cfg = tmp_path / "run.conf"
        cfg.write_text("# the paper's N = 10 optimum\n\nn=10\ntheta=0.1\n  # q, then r\n"
                       f"q=0.1051\nr=0.4786\n\nenhanced = {value}\n")
        switch = ["--enhanced"] if value.lower() == "true" else []
        explicit = run_cli("analyze", "--n", "10", "--theta", "0.1", "--q", "0.1051",
                           "--r", "0.4786", *switch).stdout
        assert ("d_crit_enhanced" in explicit) == bool(switch)
        assert run_cli("analyze", "--config", str(cfg)).stdout == explicit

    def test_config_line_without_equals_sign_is_refused(self, tmp_path, monkeypatch):
        # such a line used to become the tokens --enhanced and "", which
        # argparse refused as "unrecognized arguments: " naming nothing
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.conf"
        cfg.write_text("n=3\ntheta=0.1\nq=0.3\n# a comment\nr=0.4\n  enhanced \n")
        out = tmp_path / "kept.txt"
        out.write_text("kept\n")
        proc = run_cli("analyze", "--config", str(cfg), "--output", str(out), check=False)
        assert_one_line_error(proc, 2)
        assert proc.stderr == (f"error: cannot read config file {cfg}: "
                               "line 6 is not key=value: enhanced\n")
        assert proc.stdout == ""
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command,flag,in_file", [
        ("analyze", "--output", False),
        ("analyze", "--output", True),
        ("simulate", "--output", False),
        ("simulate", "--trace-output", False),
    ], ids=["analyze-output", "analyze-output-in-file", "simulate-output", "simulate-trace-output"])
    def test_config_and_an_output_must_differ(self, command, flag, in_file, tmp_path, monkeypatch):
        # the result would overwrite the config; refused before any file is written
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.conf"
        text = "n=3\ntheta=0.1\nq=0.3\nr=0.4\n" + ("rounds=2\n" if command == "simulate" else "")
        text += f"{flag[2:]}=run.conf\n" if in_file else ""
        cfg.write_text(text)
        proc = run_cli(command, "--config", str(cfg), *([] if in_file else [flag, "run.conf"]),
                       check=False)
        assert_one_line_error(proc, 2)
        assert f"--config and {flag} name the same file" in proc.stderr
        assert cfg.read_text() == text

    @pytest.mark.parametrize("where", ["command-line", "config-file", "abbreviated"])
    def test_unread_config_is_refused(self, where, tmp_path):
        # a second or abbreviated --config used to be ignored without a word
        cfg, other = tmp_path / "run.conf", tmp_path / "absent.conf"
        cfg.write_text("n=3\ntheta=0.1\nq=0.3\nr=0.4\n"
                       + (f"config={other}\n" if where == "config-file" else ""))
        argv = {"command-line": ["--config", str(cfg), "--config", str(other)],
                "config-file": ["--config", str(cfg)],
                "abbreviated": ["--n", "3", "--theta", "0.1", "--q", "0.3", "--r", "0.4",
                                "--conf", str(other)]}[where]
        proc = run_cli("analyze", *argv, check=False)
        assert_one_line_error(proc, 2)
        assert f"only one --config is read, spelled in full: not {other}" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "--n", "3", "--theta", "0.1", "--q", "0.3", "--r", "0.4", "--output"],
            ["simulate", "--n", "3", "--theta", "0.1", "--q", "0.3", "--r", "0.4",
             "--rounds", "2", "--trace-output"],
        ],
        ids=["output", "trace-output"],
    )
    def test_output_path_in_missing_directory(self, tmp_path, args):
        proc = run_cli(*args, str(tmp_path / "missing" / "x.out"), check=False)
        assert_one_line_error(proc, 2)

    def test_output_file(self, tmp_path):
        out_path = tmp_path / "result.json"
        run_cli(
            "analyze", "--n", "3", "--theta", "0.2", "--q", "0.3", "--r", "0.4",
            "--format", "json", "--output", str(out_path),
        )
        assert json.loads(out_path.read_text())["t_s"] == 5.0


class TestWriteFailures:
    """An output that cannot be written ends in exit 2 and one line, as one that cannot be opened."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "args",
        [
            # a few hundred bytes: they fail at the flush or the close
            ["optimize", "--n", "10", "--theta", "0.1", "--output"],
            # 9801 rows: they fail at a write
            ["sweep", "--axis", "qr", "--n", "10", "--theta", "0.1", "--output"],
            ["simulate", "--n", "10", "--theta", "0.1", "--q", "0.1051", "--r", "0.4786",
             "--rounds", "50", "--trace-output"],
        ],
        ids=["optimize", "sweep-qr", "simulate-trace"],
    )
    def test_full_device(self, args):
        proc = run_cli(*args, "/dev/full", check=False)
        assert_one_line_error(proc, 2)
        assert proc.stdout == ""
        reason = os.strerror(errno.ENOSPC)
        assert proc.stderr == f"error: BadParams: cannot write {args[-1]} /dev/full: {reason}\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args",
        [
            ["optimize", "--n", "10", "--theta", "0.1"],
            ["sweep", "--axis", "qr", "--n", "10", "--theta", "0.1", "--step", "0.002"],
        ],
        ids=["optimize", "sweep-qr"],
    )
    def test_closed_stdout(self, args, unbuffered):
        # a reader that closed at once; buffered, the optimize report fails only
        # at the final flush, and nothing may fail again at interpreter exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(CLI + args, stdout=write, stderr=subprocess.PIPE, text=True,
                                  env=env)
        finally:
            os.close(write)
        assert_one_line_error(proc, 2)
        assert proc.stderr == f"error: BadParams: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


def test_reused_parser_gives_the_bytes_of_fresh_ones(capsys):
    # main builds its parser once; a parse leaves nothing behind for the
    # next one, also when it ends in exit 2
    simulate = ["simulate", "--n", "3", "--theta", "0.1", "--q", "0.3"]
    calls = [
        [*simulate, "--r", "0.4", "--rounds", "4", "--format", "json"],
        ["sweep", "--axis", "qr", "--n", "4", "--theta", "0.1", "--step", "0.3"],
        [*simulate, "--r", "0.4", "--rounds", "3", "--seed", "5", "--enhanced", "--b", "3",
         "--x-geometric", "4", "--format", "csv"],
        simulate,  # BadParams: --q without --r
        ["simulate", "--n", "three", "--theta", "0.1"],  # argparse refuses it
        [*simulate, "--r", "0.4", "--rounds", "4", "--format", "json"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 2, 0]


def test_cli_import_leaves_scipy_out():
    code = (
        "import sys, critmac.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_random_out():
    # the simulator loads numpy.random on a batch's first run, not at import
    code = (
        "import sys, critmac.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
