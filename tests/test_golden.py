"""Golden outputs: SHA-256 digests of seeded CLI runs written with --output.

Each case runs `critmac.cli.main` in-process and hashes every file it
writes (the report and, where asked, the per-slot trace).  The digests pin
the simulator's traces and reports and the design solver's answers byte
for byte, so a refactor that changes any output byte fails here.  The
design cases sit at N = 3, theta = 0.1 with one eta per regime
(infeasible, binding-corner, binding-interior, slack-interior), plus an
unconstrained N = 50 solve, the N = 10 eta = 0.65 solve whose optimum sits
past the D_crit peak along r = eps, eta sweeps through the corner and
interior regimes at N = 10, 20 (whose first row is infeasible and reports
the dip along r = eps, not the corner) and 50, N, theta and nhat sweeps
under a binding eta (each row a constrained solve), and a (q, r) grid that
mixes interior points, boundary points (SingularSystem) and out-of-range
points (BadParams), as CSV and as JSON (null cells), and a 101 x 101 grid whose
error cells fall in several of the blocks a qr sweep is written in, as
CSV and as JSON.  The table cases pin the aligned layout: both qr grids,
the eta sweep, a single- and a two-critical simulate report and a binding
optimize.  The simulate cases cover the baseline and enhanced rules at
N = 10 and 50, a 200-round run that spans several batches of rounds, a
normal phase shorter than the T_c start margin, the enhanced rules without
post-critical suppression, a traced N = 3 run of 600 rounds (two batches,
each written in several trace chunks), and all three two-critical
scenarios, among them during-collision runs whose invalid rounds once took
a second batch (N = 10, 55 rounds) and that span several batches (N = 50,
130 rounds).  Two runs take seeds of two and three uint32 words, whose
round streams hash more entropy words than any seed below 2**32.  The CLI
writes only some fields of a two-critical round's report, so a digest
pins every field of every report over a grid of 54 configs.  A last digest
pins the estimates of the vectorized oracle (`estimate_metrics_oracle`).
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from critmac import (
    CriticalTrafficModel,
    EnhancementConfig,
    ProtocolParams,
    SimConfig,
    estimate_metrics_oracle,
    simulate_two_critical,
)
from critmac.cli import main
from critmac.oracle import _BATCH
from critmac.sim import TWO_CRITICAL_SCENARIOS

P10 = ["--n", "10", "--theta", "0.1", "--q", "0.1051", "--r", "0.4786"]
P50 = ["--n", "50", "--theta", "0.1", "--q", "0.0213", "--r", "0.4754"]
P3 = ["--n", "3", "--theta", "0.1", "--q", "0.3397", "--r", "0.4896"]

# case id -> (argv without --output/--trace-output, traced, exit code)
CASES = {
    "simulate-baseline": (["simulate", *P10, "--rounds", "30", "--seed", "5",
                           "--format", "json"], True, 0),
    "simulate-enhanced-b3": (["simulate", *P10, "--rounds", "30", "--seed", "5",
                              "--enhanced", "--b", "3", "--format", "json"], True, 0),
    "scenario-during-success": (["simulate", *P10, "--rounds", "12", "--seed", "3",
                                 "--enhanced", "--scenario", "two-critical-during-success",
                                 "--format", "csv"], True, 0),
    "scenario-simultaneous-geometric": (["simulate", *P10, "--rounds", "12", "--seed", "8",
                                         "--enhanced", "--scenario",
                                         "two-critical-simultaneous", "--x-geometric", "8",
                                         "--format", "csv"], True, 0),
    "optimize-infeasible": (["optimize", "--n", "3", "--theta", "0.1", "--eta", "0.1",
                             "--format", "csv"], False, 4),
    "optimize-corner": (["optimize", "--n", "3", "--theta", "0.1", "--eta", "0.3",
                         "--format", "csv"], False, 0),
    "optimize-interior": (["optimize", "--n", "3", "--theta", "0.1", "--eta", "1.0",
                           "--format", "csv"], False, 0),
    "optimize-slack": (["optimize", "--n", "3", "--theta", "0.1", "--eta", "1.5",
                        "--format", "csv"], False, 0),
    "sweep-eta": (["sweep", "--axis", "eta", "--n", "3", "--theta", "0.1",
                   "--from", "0.5", "--to", "1.3", "--step", "0.4", "--format", "csv"],
                  False, 0),
    "optimize-n10-eta065": (["optimize", "--n", "10", "--theta", "0.1", "--eta", "0.65",
                             "--format", "csv"], False, 0),
    "optimize-n50": (["optimize", "--n", "50", "--theta", "0.1", "--format", "csv"], False, 0),
    "sweep-eta-n10": (["sweep", "--axis", "eta", "--n", "10", "--theta", "0.1",
                       "--from", "0.45", "--to", "1.7", "--step", "0.05", "--format", "csv"],
                      False, 0),
    "sweep-eta-n20": (["sweep", "--axis", "eta", "--n", "20", "--theta", "0.05",
                       "--from", "0.6", "--to", "1.7", "--step", "0.05", "--format", "csv"],
                      False, 0),
    "sweep-eta-n50": (["sweep", "--axis", "eta", "--n", "50", "--theta", "0.5",
                       "--from", "0.3", "--to", "1.2", "--step", "0.05", "--format", "csv"],
                      False, 0),
    "sweep-qr-boundary": (["sweep", "--axis", "qr", "--n", "4", "--theta", "0.1",
                           "--from", "-0.25", "--to", "1", "--step", "0.25", "--format", "csv"],
                          False, 0),
    "sweep-n-eta07": (["sweep", "--axis", "n", "--n", "10", "--theta", "0.1", "--eta", "0.7",
                       "--from", "3", "--to", "40", "--format", "csv"], False, 0),
    "sweep-theta-eta1": (["sweep", "--axis", "theta", "--n", "10", "--theta", "0.1",
                          "--eta", "1.0", "--from", "0.1", "--to", "1.0", "--step", "0.1",
                          "--format", "csv"], False, 0),
    "sweep-nhat-eta065": (["sweep", "--axis", "nhat", "--n", "10", "--theta", "0.1",
                           "--eta", "0.65", "--from", "5", "--to", "20", "--format", "csv"],
                          False, 0),
    "sweep-qr-boundary-json": (["sweep", "--axis", "qr", "--n", "4", "--theta", "0.1",
                                "--from", "-0.25", "--to", "1", "--step", "0.25",
                                "--format", "json"], False, 0),
    "sweep-qr-blocks-csv": (["sweep", "--axis", "qr", "--n", "3", "--theta", "0.1",
                             "--from", "0", "--to", "1", "--step", "0.01", "--format", "csv"],
                            False, 0),
    "sweep-qr-blocks-json": (["sweep", "--axis", "qr", "--n", "3", "--theta", "0.1",
                              "--from", "0", "--to", "1", "--step", "0.01", "--format", "json"],
                             False, 0),
    "simulate-n50-enhanced": (["simulate", *P50, "--rounds", "10", "--seed", "11",
                               "--enhanced", "--format", "json"], True, 0),
    "simulate-baseline-200": (["simulate", *P10, "--rounds", "200", "--seed", "17",
                               "--format", "json"], True, 0),
    "simulate-short-phase-geometric": (["simulate", *P10, "--rounds", "30", "--seed", "23",
                                        "--x-geometric", "5", "--normal-slots", "20",
                                        "--format", "json"], True, 0),
    "simulate-no-suppress": (["simulate", *P10, "--rounds", "30", "--seed", "29",
                              "--enhanced", "--no-suppress-after-critical",
                              "--format", "json"], True, 0),
    "scenario-during-collision": (["simulate", *P10, "--rounds", "12", "--seed", "31",
                                   "--enhanced", "--scenario", "two-critical-during-collision",
                                   "--format", "csv"], True, 0),
    "scenario-simultaneous-json": (["simulate", *P10, "--rounds", "12", "--seed", "37",
                                    "--enhanced", "--scenario", "two-critical-simultaneous",
                                    "--format", "json"], True, 0),
    "simulate-baseline-table": (["simulate", *P10, "--rounds", "30", "--seed", "5",
                                 "--format", "table"], False, 0),
    "scenario-during-success-table": (["simulate", *P10, "--rounds", "12", "--seed", "3",
                                       "--enhanced", "--scenario",
                                       "two-critical-during-success", "--format", "table"],
                                      False, 0),
    "optimize-interior-table": (["optimize", "--n", "3", "--theta", "0.1", "--eta", "1.0",
                                 "--format", "table"], False, 0),
    "sweep-eta-table": (["sweep", "--axis", "eta", "--n", "3", "--theta", "0.1",
                         "--from", "0.5", "--to", "1.3", "--step", "0.4", "--format", "table"],
                        False, 0),
    "sweep-qr-boundary-table": (["sweep", "--axis", "qr", "--n", "4", "--theta", "0.1",
                                 "--from", "-0.25", "--to", "1", "--step", "0.25",
                                 "--format", "table"], False, 0),
    "sweep-qr-blocks-table": (["sweep", "--axis", "qr", "--n", "3", "--theta", "0.1",
                               "--from", "0", "--to", "1", "--step", "0.01",
                               "--format", "table"], False, 0),
    "scenario-during-collision-n10-55": (["simulate", *P10, "--rounds", "55", "--seed", "4",
                                          "--enhanced", "--scenario",
                                          "two-critical-during-collision", "--format", "json"],
                                         True, 0),
    "scenario-during-collision-n50-130": (["simulate", *P50, "--rounds", "130", "--seed", "9",
                                           "--enhanced", "--scenario",
                                           "two-critical-during-collision", "--format", "csv"],
                                          True, 0),
    "simulate-n3-600": (["simulate", *P3, "--rounds", "600", "--seed", "43", "--format", "json"],
                        True, 0),
    # seeds of two and three uint32 words: 2**32 + 7 and 2**70 + 1
    "simulate-seed-two-words": (["simulate", *P10, "--rounds", "30", "--seed", "4294967303",
                                 "--format", "json"], True, 0),
    "scenario-during-collision-seed-three-words": (
        ["simulate", *P10, "--rounds", "12", "--seed", "1180591620717411303425", "--enhanced",
         "--scenario", "two-critical-during-collision", "--format", "csv"], True, 0),
}

# case id -> (report digest, trace digest or None)
GOLDEN = {
    "optimize-corner": (
        "2acd5fee1bbdcb8fcc17a2abf73c1f3395547a4325269e53cd80535cadfa5fb8", None),
    "optimize-infeasible": (
        "e3590a8f4acf6ebbf1de7f8e1c6e1b0147259c45d4bfe74b95a8c7f239aa3f73", None),
    "optimize-interior": (
        "b5ee790ce7f1084105e9ea0c3fb9bdff18774fbfafcd49ab41e327d5d7e651c6", None),
    "optimize-interior-table": (
        "38febf06cf45bef6fdee41e83becee97eac64b54f0a533bd90fe4db9f15c55f4", None),
    "optimize-n10-eta065": (
        "cc8cbbd2ed76e82a3dedc2ea276f397140ee59010c73bc7b2aadafd25fd048e9", None),
    "optimize-n50": (
        "d12ebf387b85a683146786f196b095b22df5b350142d42b22ebd17dcc366a290", None),
    "optimize-slack": (
        "11d9732eee5f3a69d4ed7ce733573cd9e821248d5c85ba12de8ae8cce33ee95b", None),
    "scenario-during-collision": (
        "4f0cd2ffd0a7529ce5f21ef4a4fe97aefe2ed9e087f09e19ea02ad32e3f2f6ed",
        "fea595f55d7891c7c7b9bd3540b15cda96a91337713d1ba89cfcfedb574b9490"),
    "scenario-during-collision-n10-55": (
        "bda47a654b03613620285bef716b7579c3d713872794ac065073ea550aa45341",
        "f45ca42b62036098a7e9b56a7f84caee86754e56b7b56eeb068e25e7954d6fc4"),
    "scenario-during-collision-n50-130": (
        "b8c22fbcf31d38fb19c05dcc12a03a82945da92ea6d592980d9d8e1d9dd394bd",
        "a9a59ca5036d304a362ac3027627330fbe1e8f4ccea683fd56a7d44e16796e1a"),
    "scenario-during-collision-seed-three-words": (
        "8bb87ae238e95ffb1cddf27c2a36cf34d33357a402c8e9882b17cb89fc0157c5",
        "423c9990c770bb243bceffa99d6947baeba94f814684b55609fe9eaba0e304ed"),
    "scenario-during-success": (
        "1f03fcae55665ee714490aa93b0baedba44d4b4ff7a78d88a5eb596c786ca58a",
        "173a900d5ffc5212f735dcdd2dd425e8c794c42a6e11865a364a67e04d04a317"),
    "scenario-during-success-table": (
        "9f4978586db35fed38e8fc2bbcd45a9d669d140106316089ee3f5574a8b4683d", None),
    "scenario-simultaneous-geometric": (
        "dd351399c59bc3d16fe79431a83224863be964fc7e9b2664d0794e23e1670386",
        "a239bb720276b3f47de7faf5a8afb44ea5045ae81544ffad21d66559dd85bde6"),
    "scenario-simultaneous-json": (
        "9a1f61bb03ac98ea7aa615124d7f3f71427b74f6e63e673b38ed1db3f21ab240",
        "d1767556161caeb03c2e260093ba2135952230999e921920900293a8e903de82"),
    "simulate-baseline": (
        "29189b4027c65c5ec407f0cd90c36299ba70f5f0a767363a1fd3ce9184722235",
        "db2415f40a92bdd7afa7f7d49e1ea734f4c30898d4bdd3ef6479bca74b76312f"),
    "simulate-baseline-200": (
        "108f256c27cf449624b9cbebd9dff48f774d4ae794d4cf3fa5188b3bc162113b",
        "32527df387805dbeb0cab710fea8331fd28417af1042e37ff1a514901788e453"),
    "simulate-baseline-table": (
        "c9b08c5286264bb0104b570c01a1a149d448371213ef76f8583d0d16dc0ac318", None),
    "simulate-enhanced-b3": (
        "e409e541fcc735b052d04be05ab419fdd2dd1540fa9865b9761664c6bdbd52fb",
        "c0416a3ef4eb098977973d6fbc50285e0e8e44f2f3e0142aca722772dc7b8ce4"),
    "simulate-n50-enhanced": (
        "61df3c706cd67b8a509b35d81a09a317054b6a210980c5bbf8b1b1d2c8e6f5a1",
        "3e4a756134ff62b0ab47218200c2299a62353a5e5d7dc77a973734f2b3874183"),
    "simulate-n3-600": (
        "2ebb3e998f059a21e90bf5d03aaf88672bc0fa93ad61530d7bc5b55c82a13b7c",
        "b81765a7ed754b07726ae9ba7f7eb3c5321044acfc598fc34203f474e47e5684"),
    "simulate-no-suppress": (
        "c1528a4925875c2639458cb39efd26f9f84a297865db97997457c5fbdc84aa3b",
        "3f9fbe762397a189295589260858e826ab505e9df4fb44e097f18c29d9390add"),
    "simulate-seed-two-words": (
        "a78a8dfd0c0858bbc341610a8b39df14a831f335fefd9e998fd5321944795f2f",
        "def1d517a527d950edd2ab281a9f70d2e9b21c49b35dd1e7e07748eb38b96be8"),
    "simulate-short-phase-geometric": (
        "b21da4bcf3f9edb167b93778a6a60c57234a35db98d6517f10eee9f3b3cd8f58",
        "8e16e6a3c9f6f87dafc42c040f16d9b27132d0d781826aa8e5453876aff8544d"),
    "sweep-eta": (
        "59ead1ecba5e46a21e87187dc4df8e4dc9b591d088d372940a14bb24388fd974", None),
    "sweep-eta-n10": (
        "b0e8a57f1969a5b9ffb897e0c1e403ff6a28e3a01ee9b699015a9e9362dd05c9", None),
    "sweep-eta-n20": (
        "c6f6676ae531fde16e6012c2b0c8a7da5d4988817afd6fc735f553e90d33935d", None),
    "sweep-eta-n50": (
        "da13e96a7919f3959237cc39ec0fcb9a54ee24901e68f114bbf4059ff868fce1", None),
    "sweep-eta-table": (
        "0e8a49315bcfc946bdd418bdd4d0feac948253e4839ce09756cf7d2d3c786de4", None),
    "sweep-n-eta07": (
        "9f74ab9502359cf7f6c54207aa4a5cab2ff18f04561e9aab116750891c967372", None),
    "sweep-nhat-eta065": (
        "beee2e7c8cdeacc59ee5a1d99d74ef4db2d7ec7a5713b12184d16d55ac1f10d8", None),
    "sweep-qr-blocks-csv": (
        "804482ca01cfb5d5e8f02463342594b43a5cd17138043287a6d4ee24cc73d454", None),
    "sweep-qr-blocks-json": (
        "12303412a2225c70516b69e6a77d4dd6682cc581ec4d2f7ebeb31e7c3070f65f", None),
    "sweep-qr-blocks-table": (
        "b690924d63f0c6f1e173632dd5fc0f40f474bd24c0c8c1480cea66caa8647a9b", None),
    "sweep-qr-boundary": (
        "800a14d9000b71e1a44c934916dd27f341a0b5c0ce132267dde2aaf9f4952e78", None),
    "sweep-qr-boundary-json": (
        "b49a1e8e64c6ef4b7aed38eed0f50cc47c16997a264d16b7573fb77f181929d8", None),
    "sweep-qr-boundary-table": (
        "1934243e031b2380ea077c5bfb50d88f4bac31ba4f20cd0c6d7949fc350cc5b1", None),
    "sweep-theta-eta1": (
        "007be86e56ac48e347d97a7861e5c4d63b3df21ad148ed0fa2ec122207dfe5b9", None),
}


def run_case(case: str, directory) -> tuple[str, str | None]:
    """Run one case into `directory`; returns the digests of its report and trace."""
    argv, traced, code = CASES[case]
    report = directory / f"{case}.out"
    trace = directory / f"{case}.trace.csv"
    extra = ["--output", str(report)]
    if traced:
        extra += ["--trace-output", str(trace)]
    assert main(argv + extra) == code

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    return digest(report), digest(trace) if traced else None


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[case]


# every field of every report of two-critical runs: 60 rounds, seed 11, at
# the paper's optimum for each N, across the scenarios, three traffic models
# and both settings of suppress_after_critical (the CLI writes only some fields)
REPORT_GRID = [
    SimConfig(
        params=ProtocolParams(n, 0.1, q, r),
        enhancement=EnhancementConfig(enabled=True, suppress_after_critical=suppress),
        rounds=60,
        traffic_model=traffic,
        seed=11,
        scenario=scenario,
    )
    for n, q, r in ((3, 0.3397, 0.4896), (10, 0.1051, 0.4786), (50, 0.0213, 0.4754))
    for scenario in TWO_CRITICAL_SCENARIOS
    for traffic in (CriticalTrafficModel.fixed(20), CriticalTrafficModel.geometric(8.0),
                    CriticalTrafficModel.fixed(2))
    for suppress in (True, False)
]
REPORT_DIGEST = "568ea4189052cc6672d2728592d3b097f34215bfee92d71ae7b391396f0f3ecb"


def test_report_field_digest():
    digest = hashlib.sha256()
    for cfg in REPORT_GRID:
        summary = simulate_two_critical(cfg)
        digest.update(repr(summary.attempted_rounds).encode())
        # each valid round's fields as a per-round report listed them, rebuilt from the columns
        for k, index in enumerate(summary.round_index.tolist()):
            pair, arrival = summary.users[k].tolist(), summary.arrived[k].tolist()
            entry, ends = summary.entered[k].tolist(), summary.finished[k].tolist()
            fields = [
                index,
                tuple(arrival),
                sorted((u, e) for u, e in zip(pair, entry) if e),  # rule-g entries by user
                int(summary.joint[k]) or None,
                int(summary.shared[k]) or None,
                int(summary.collisions[k]),
                pair if ends[0] < ends[1] else pair[::-1],  # completion order
                sorted(ends),
                list(summary.violations[k]),
            ]
            digest.update(repr(fields).encode())
    assert digest.hexdigest() == REPORT_DIGEST


# the oracle at the paper's optima for N = 3 and 50, three seeds each, and
# an N = 3 run of one batch and three rounds more: (params, rounds, seed)
ORACLE_RUNS = [
    *((ProtocolParams(3, 0.1, 0.3397, 0.4896), 2000, seed) for seed in (1, 2, 3)),
    *((ProtocolParams(50, 0.1, 0.0213, 0.4754), 2000, seed) for seed in (1, 2, 3)),
    (ProtocolParams(3, 0.1, 0.3397, 0.4896), _BATCH + 3, 4),
]
ORACLE_DIGEST = "6cc165712cfc61677e72a2d1defd1ba96729d370a5cdafdff825c986f802dd92"


def test_oracle_digest():
    digest = hashlib.sha256()
    for params, rounds, seed in ORACLE_RUNS:
        estimate = estimate_metrics_oracle(params, rounds, seed)
        digest.update(repr(dataclasses.astuple(estimate)).encode())
    assert digest.hexdigest() == ORACLE_DIGEST
