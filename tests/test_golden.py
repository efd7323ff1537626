"""Golden outputs: SHA-256 digests of seeded CLI runs written with --output.

Each case runs `critmac.cli.main` in-process and hashes every file it
writes (the report and, where asked, the per-slot trace).  The digests pin
the simulator's traces and reports and the design solver's answers byte
for byte, so a refactor that changes any output byte fails here.  The
design cases sit at N = 3, theta = 0.1 with one eta per regime
(infeasible, binding-corner, binding-interior, slack-interior), plus an
unconstrained N = 50 solve, the N = 10 eta = 0.65 solve whose optimum sits
past the D_crit peak along r = eps, and a (q, r) grid that mixes interior
points, boundary points (SingularSystem) and out-of-range points
(BadParams).  The simulate cases cover the baseline and enhanced rules at
N = 10 and 50, a 200-round run that spans several batches of rounds, a
normal phase shorter than the T_c start margin, the enhanced rules without
post-critical suppression, and all three two-critical scenarios.
"""

from __future__ import annotations

import hashlib

import pytest

from critmac.cli import main

P10 = ["--n", "10", "--theta", "0.1", "--q", "0.1051", "--r", "0.4786"]
P50 = ["--n", "50", "--theta", "0.1", "--q", "0.0213", "--r", "0.4754"]

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
    "sweep-qr-boundary": (["sweep", "--axis", "qr", "--n", "4", "--theta", "0.1",
                           "--from", "-0.25", "--to", "1", "--step", "0.25", "--format", "csv"],
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
}

# case id -> (report digest, trace digest or None)
GOLDEN = {
    "optimize-corner": (
        "3f167715d0348dd7f857dc323fdab7974defd41f49c9929d5ca909f344ecf588", None),
    "optimize-infeasible": (
        "68b6d98259eea6c9397ea9788c1e3c3e9493503e205d4666e55aff4403a25cf3", None),
    "optimize-interior": (
        "614943dfab8f0f7931f13c849b0e9c5607437cb483e173feca93954c6b119301", None),
    "optimize-n10-eta065": (
        "e37382b5f979b932232c2ebbdbe6b98aca2c31528d0616d2e1f55660a60cf008", None),
    "optimize-n50": (
        "40a3ae6cd0e4c1ebcbe923d7d5e3416df2a8ebe007d2c55c063ab5235d871339", None),
    "optimize-slack": (
        "bbd7456e30262ee5afb02fe4f47c104fbeb060655df2fb7d0c702ee8c0f9fdec", None),
    "scenario-during-collision": (
        "4f0cd2ffd0a7529ce5f21ef4a4fe97aefe2ed9e087f09e19ea02ad32e3f2f6ed",
        "fea595f55d7891c7c7b9bd3540b15cda96a91337713d1ba89cfcfedb574b9490"),
    "scenario-during-success": (
        "1f03fcae55665ee714490aa93b0baedba44d4b4ff7a78d88a5eb596c786ca58a",
        "173a900d5ffc5212f735dcdd2dd425e8c794c42a6e11865a364a67e04d04a317"),
    "scenario-simultaneous-geometric": (
        "dd351399c59bc3d16fe79431a83224863be964fc7e9b2664d0794e23e1670386",
        "a239bb720276b3f47de7faf5a8afb44ea5045ae81544ffad21d66559dd85bde6"),
    "scenario-simultaneous-json": (
        "9a1f61bb03ac98ea7aa615124d7f3f71427b74f6e63e673b38ed1db3f21ab240",
        "d1767556161caeb03c2e260093ba2135952230999e921920900293a8e903de82"),
    "simulate-baseline": (
        "eb5c7caffdc8eebe94dfeb47d447d8c1352f44ede6e537ffadb827e80e14872c",
        "db2415f40a92bdd7afa7f7d49e1ea734f4c30898d4bdd3ef6479bca74b76312f"),
    "simulate-baseline-200": (
        "f4cedcad9b1baa5b4c2386b41fe3ee2efbcde293bae79f39090b0badf539ff79",
        "32527df387805dbeb0cab710fea8331fd28417af1042e37ff1a514901788e453"),
    "simulate-enhanced-b3": (
        "10c900270d8ece1db14dbd2c6eebe50ca1a7512d768369ebdf101de108e609b2",
        "c0416a3ef4eb098977973d6fbc50285e0e8e44f2f3e0142aca722772dc7b8ce4"),
    "simulate-n50-enhanced": (
        "1493095661894a51ce0f7c83e77d9349d588de34aa066be908847bd1300b24f6",
        "3e4a756134ff62b0ab47218200c2299a62353a5e5d7dc77a973734f2b3874183"),
    "simulate-no-suppress": (
        "67d319a2638f61f98c54a5bff5935535596deaec7901783e3570fe0b74d84479",
        "3f9fbe762397a189295589260858e826ab505e9df4fb44e097f18c29d9390add"),
    "simulate-short-phase-geometric": (
        "3335f46a21be38afc3df5338bec43986a6c38cd162e1f6e80da62a1feed7665b",
        "8e16e6a3c9f6f87dafc42c040f16d9b27132d0d781826aa8e5453876aff8544d"),
    "sweep-eta": (
        "4d21d584d40435ce372a590f302aad4b7b42a60e572e12b0c1863214301eb0d2", None),
    "sweep-qr-boundary": (
        "23b4b6a78770a514460bf8d43cd985834ae1874d98b3e20489ec43e4a9b9460d", None),
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
