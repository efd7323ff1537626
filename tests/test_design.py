"""Design-problem solver tests: targets, regimes, invariants, sweeps."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import critmac.design as design
import critmac.markov as markov
from critmac import (
    BadParams,
    DesignProblem,
    ProtocolParams,
    SingularSystem,
    SolutionStatus,
    SweepAxis,
    channel_utilization,
    critical_delay,
    maximize_utilization,
    solve_design_problem,
    sweep,
)

OPTIMA = {3: (0.3397, 0.4896), 10: (0.1051, 0.4786), 50: (0.0213, 0.4754)}


@pytest.fixture(scope="module")
def sol_n10():
    return maximize_utilization(DesignProblem(10, 0.1))


class TestMaximize:
    def test_published_optimum_n10(self, sol_n10):
        assert sol_n10.q_opt == pytest.approx(0.105, abs=0.005)
        assert sol_n10.r_opt == pytest.approx(0.479, abs=0.005)
        assert sol_n10.c_norm == pytest.approx(0.804, abs=0.002)
        assert sol_n10.status is SolutionStatus.SLACK_INTERIOR

    def test_published_optimum_n3(self):
        sol = maximize_utilization(DesignProblem(3, 0.3))
        assert sol.q_opt == pytest.approx(0.3397, abs=0.005)
        assert sol.r_opt == pytest.approx(0.4896, abs=0.005)

    def test_theta_invariant_bit_for_bit(self, sol_n10):
        other = maximize_utilization(DesignProblem(10, 0.5))
        assert (other.q_opt, other.r_opt) == (sol_n10.q_opt, sol_n10.r_opt)

    def test_solution_inside_box(self, sol_n10):
        eps = 0.01
        assert eps <= sol_n10.q_opt <= 1 - eps
        assert eps <= sol_n10.r_opt <= 1 - eps

    def test_refinement_consistency(self, sol_n10, monkeypatch):
        # one extra 10x refinement pass moves the optimum by less than the
        # reported +-0.001 coordinate tolerance
        monkeypatch.setattr(design, "_REFINE_PASSES", 3)
        finer = maximize_utilization(DesignProblem(10, 0.1))
        assert abs(finer.q_opt - sol_n10.q_opt) < 0.001
        assert abs(finer.r_opt - sol_n10.r_opt) < 0.001


class TestCriticalEta:
    @pytest.mark.parametrize(
        "n,expected", [(3, 1.1786), (10, 1.531), (50, 1.6468)]
    )
    def test_published_values(self, n, expected):
        eta_star = maximize_utilization(DesignProblem(n, 0.1)).d_crit
        assert eta_star == pytest.approx(expected, abs=0.01)


class TestConstrainedSolve:
    def test_infinite_eta_equals_maximize(self, sol_n10):
        sol = solve_design_problem(DesignProblem(10, 0.1, eta=math.inf))
        assert sol == sol_n10

    def test_slack_regime(self, sol_n10):
        sol = solve_design_problem(DesignProblem(10, 0.1, eta=2.0))
        assert sol.status is SolutionStatus.SLACK_INTERIOR
        assert (sol.q_opt, sol.r_opt) == (sol_n10.q_opt, sol_n10.r_opt)

    def test_binding_interior_regime(self):
        sol = solve_design_problem(DesignProblem(10, 0.1, eta=1.0))
        assert sol.status is SolutionStatus.BINDING_INTERIOR
        assert sol.d_crit == pytest.approx(1.0, abs=0.005)
        assert sol.c_norm >= 0.76

    def test_corner_regime(self):
        sol = solve_design_problem(DesignProblem(10, 0.1, eta=0.5))
        assert sol.status is SolutionStatus.BINDING_CORNER
        assert sol.r_opt == 0.01

    def test_infeasible_regime(self):
        # D_crit is minimized at (eps, eps); below that level nothing fits
        sol = solve_design_problem(DesignProblem(10, 0.1, eta=0.2))
        assert sol.status is SolutionStatus.INFEASIBLE
        assert (sol.q_opt, sol.r_opt) == (0.01, 0.01)

    def test_delay_floor_at_epsilon_corner(self):
        # the feasibility floor: even the most conservative in-box protocol
        # collides with an ongoing success run w.p. ~(1-theta)*w(1), so
        # eta = 0.3 is below min D_crit ~= 0.4355 at N=10, theta=0.1
        floor = critical_delay(ProtocolParams(10, 0.1, 0.01, 0.01))
        assert floor == pytest.approx(0.4355, abs=5e-4)
        sol = solve_design_problem(DesignProblem(10, 0.1, eta=0.3))
        assert sol.status is SolutionStatus.INFEASIBLE
        assert sol.d_crit == pytest.approx(floor, abs=1e-12)

    def test_feasibility_of_solutions(self):
        # 0.65 and 0.7 sit where D_crit along r = eps falls again after a peak
        for eta in (0.6, 0.65, 0.7, 0.9, 1.2):
            sol = solve_design_problem(DesignProblem(10, 0.1, eta=eta))
            assert sol.d_crit <= eta + 0.005
            assert 0.01 <= sol.q_opt <= 0.99 and 0.01 <= sol.r_opt <= 0.99

    def test_eta_monotonicity(self):
        cs = [
            solve_design_problem(DesignProblem(10, 0.1, eta=eta)).c_norm
            for eta in (0.5, 0.8, 1.1, 1.4, 2.0)
        ]
        assert all(a <= b + 5e-4 for a, b in zip(cs, cs[1:]))

    def test_feasible_edge_beyond_the_corner(self):
        # at N=20, theta=0.05 the corner (eps, eps) has D_crit 0.738, but
        # D_crit(q, eps) dips to 0.694 near q = 0.28: eta = 0.72 is feasible
        prob = DesignProblem(20, 0.05, eta=0.72)
        assert critical_delay(ProtocolParams(20, 0.05, 0.01, 0.01)) > prob.eta
        sol = solve_design_problem(prob)
        assert sol.status is SolutionStatus.BINDING_CORNER
        assert sol.d_crit == pytest.approx(0.72, abs=0.005)
        assert sol.d_crit <= 0.72 + 0.005

    def test_infeasible_reports_least_delay_scanned(self):
        # below that dip nothing fits; the reported point is the scanned one
        # with the least D_crit, which here is not the corner
        sol = solve_design_problem(DesignProblem(20, 0.05, eta=0.6))
        assert sol.status is SolutionStatus.INFEASIBLE
        corner = critical_delay(ProtocolParams(20, 0.05, 0.01, 0.01))
        assert sol.d_crit < corner - 0.04
        assert sol.d_crit == critical_delay(ProtocolParams(20, 0.05, sol.q_opt, sol.r_opt))

    def test_corner_exhaustion_oracle(self):
        # brute-force cross-check of the eta = 0.5 corner solution: dense scan
        # of the feasible box (coarse) plus the r = eps edge (fine)
        eta, eps = 0.5, 0.01
        sol = solve_design_problem(DesignProblem(10, 0.1, eta=eta))

        def metrics(q, r):
            p = ProtocolParams(10, 0.1, q, r)
            return channel_utilization(p), critical_delay(p)

        best = 0.0
        for q in np.arange(eps, 0.991, 0.01):
            for r in np.arange(eps, 0.991, 0.01):
                c, d = metrics(float(q), float(r))
                if d <= eta:
                    best = max(best, c)
        for q in np.arange(eps, 0.1, 0.0005):
            c, d = metrics(float(q), eps)
            if d <= eta:
                best = max(best, c)
        assert sol.c_norm >= best - 1e-6

    @pytest.mark.parametrize("n,theta,eta", [(30, 0.1, 1.59), (40, 0.1, 1.57), (30, 0.5, 1.17)])
    def test_binding_solution_beats_every_feasible_coarse_cell(self, n, theta, eta):
        # here the scans stop short of a steep constraint curve; the answer must
        # still be feasible and at least as good as the 0.01 grid over the square
        sol = solve_design_problem(DesignProblem(n, theta, eta=eta))
        axis = 0.01 + 0.01 * np.arange(99)
        tc = markov.contention_times(n, theta, axis, axis)
        d = markov.critical_delays(n, theta, axis, axis)
        best = np.max(np.where(d <= eta, 1.0 / (theta * tc + 1.0), 0.0))
        assert sol.d_crit <= eta
        assert sol.c_norm >= best - 1e-9

    def test_status_follows_the_reported_point(self):
        # the r = eps edge wins the candidate pick here, but the final answer lies off it
        sol = solve_design_problem(DesignProblem(50, 0.5, eta=0.5))
        assert (sol.status is SolutionStatus.BINDING_CORNER) == (sol.r_opt == 0.01)

    @pytest.mark.parametrize("eta,most", [(0.65, 2), (1.0, 2)])
    def test_constrained_solve_searches_one_edge(self, eta, most, monkeypatch):
        # only the r = eps edge is bisected, on tables solved once, and the square's
        # scan covers q = eps: the one-point D_crit is read at the unconstrained
        # optimum and at the answer alone
        calls = []
        one_point = design.critical_delay
        monkeypatch.setattr(design, "critical_delay",
                            lambda params: calls.append(params) or one_point(params))
        solve_design_problem(DesignProblem(10, 0.1, eta=eta))
        assert len(calls) <= most

    @pytest.mark.parametrize("n,theta,eta", [(50, 1.0, 0.41), (50, 1.0, 0.40), (30, 0.5, 0.54)])
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the coarse scan misses a thin feasible sliver at small q "
        "(brute force 0.25031, 0.24865, 0.40138)",
    )
    def test_binding_answer_matches_windowed_brute_force(self, n, theta, eta):
        # a 0.001 grid over q in [0.01, 0.05] x r in [0.01, 0.99], where each sliver lies
        sol = solve_design_problem(DesignProblem(n, theta, eta=eta))
        qs, rs = 0.01 + 0.001 * np.arange(41), 0.01 + 0.001 * np.arange(981)
        tc = markov.contention_times(n, theta, qs, rs)
        d = markov.critical_delays(n, theta, qs, rs)
        best = np.max(np.where(d <= eta, 1.0 / (theta * tc + 1.0), 0.0))
        assert sol.d_crit <= eta
        assert sol.c_norm >= best - 1e-3


ETAS_N3 = [0.15, 0.55, 0.95, 1.35]  # infeasible, corner, interior, slack


@pytest.fixture(scope="module")
def eta_sweep_n3():
    """The N=3 eta sweep, and the solve of the design problem at each of its etas."""
    rows = sweep(DesignProblem(3, 0.1), SweepAxis.ETA_RANGE, start=0.15, stop=1.35, step=0.4)
    return rows, [solve_design_problem(DesignProblem(3, 0.1, eta=row["eta"])) for row in rows]


COARSE_AXIS = design._axis(0.01, 0.99, 0.01)


@pytest.fixture
def coarse_scans(monkeypatch):
    """Counts of design's grid calls on the square's coarse axes, by metric, as they happen."""
    counts = {"contention_times": 0, "critical_delays": 0}

    def counted(name):
        grid = getattr(design, name)

        def wrapper(n_users, theta, qs, rs):
            if np.array_equal(qs, COARSE_AXIS) and np.array_equal(rs, COARSE_AXIS):
                counts[name] += 1
            return grid(n_users, theta, qs, rs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(design, name, counted(name))
    return counts


class TestKeptGrids:
    def test_eta_sweep_scans_the_square_once(self, coarse_scans):
        rows = sweep(DesignProblem(10, 0.1), SweepAxis.ETA_RANGE, start=0.6, stop=1.7, step=0.1)
        assert len(rows) == 12 and {r["status"] for r in rows} > {"slack-interior"}
        assert coarse_scans == {"contention_times": 1, "critical_delays": 1}

    def test_constrained_solve_scans_the_square_once(self, coarse_scans):
        sol = solve_design_problem(DesignProblem(10, 0.1, eta=0.65))
        assert sol.status is SolutionStatus.BINDING_CORNER
        assert coarse_scans == {"contention_times": 1, "critical_delays": 1}

    def test_no_grid_is_kept_across_calls(self, coarse_scans):
        first = solve_design_problem(DesignProblem(10, 0.1, eta=1.0))
        assert solve_design_problem(DesignProblem(10, 0.1, eta=1.0)) == first
        assert coarse_scans == {"contention_times": 2, "critical_delays": 2}

    def test_kept_grids_do_not_grow_with_the_etas(self, coarse_scans, monkeypatch):
        made = []

        class Recorded(design._Grids):
            def __init__(self, prob):
                super().__init__(prob)
                made.append(self)

        monkeypatch.setattr(design, "_Grids", Recorded)
        rows = sweep(DesignProblem(10, 0.1), SweepAxis.ETA_RANGE, start=0.3, stop=2.29, step=0.01)
        assert len(rows) == 200
        assert len(made) == 1 and len(made[0].kept) <= 4
        assert coarse_scans == {"contention_times": 1, "critical_delays": 1}

    def test_kept_grids_are_read_only(self):
        grids = design._Grids(DesignProblem(10, 0.1))
        design._maximize(grids)
        (kept,) = grids.kept.values()
        with pytest.raises(ValueError):
            kept[0, 0] = 0.0


class TestSharedEvaluator:
    def test_sweep_rows_equal_solves(self, eta_sweep_n3):
        rows, solves = eta_sweep_n3
        assert [row["eta"] for row in rows] == pytest.approx(ETAS_N3)
        assert [row["status"] for row in rows] == [
            "infeasible", "binding-corner", "binding-interior", "slack-interior"
        ]
        for row, sol in zip(rows, solves):
            assert row == {"eta": sol.eta, **design._solution_row(sol)}
            assert all(type(row[k]) is float for k in ("q_opt", "r_opt", "c_norm", "d_crit"))


def walk(qs, rs, t, feasible, incumbent):
    """The grid scan as a walk over the points: the reference for design._scan_pick."""
    best = incumbent
    for i, q in enumerate(qs.tolist()):
        for j, r in enumerate(rs.tolist()):
            if not feasible[i, j]:
                continue
            if best is None or t[i, j] < best[2] - 1e-9:
                best = (q, r, float(t[i, j]))
    return best


# T_c values 4e-10 apart, so that some differences are within the 1e-9 tie
# tolerance and some are not, and values far apart
T_VALUES = st.one_of(st.integers(-8, 8).map(lambda k: 2.0 + 4e-10 * k), st.floats(1.0, 3.0))


class TestScanPick:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_scan_equals_the_walk(self, data):
        nq, nr = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        cells = st.lists(T_VALUES, min_size=nq * nr, max_size=nq * nr)
        t = np.array(data.draw(cells)).reshape(nq, nr)
        feasible = np.array(data.draw(st.lists(st.booleans(), min_size=nq * nr,
                                               max_size=nq * nr))).reshape(nq, nr)
        incumbent = data.draw(st.none() | st.tuples(st.just(0.5), st.just(0.5), T_VALUES))
        qs, rs = 0.01 + 0.1 * np.arange(nq), 0.02 + 0.1 * np.arange(nr)
        got = design._scan_pick(qs, rs, np.where(feasible, t, np.inf), incumbent)
        assert got == walk(qs, rs, t, feasible, incumbent)
        if incumbent is None and not feasible.any():
            assert got is None

    def test_nan_cell_raises_the_first_one_point_error(self, monkeypatch):
        # the first NaN cell in row-major order raises its one-point error
        grid = design.critical_delays

        def with_nans(n_users, theta, qs, rs):
            d = grid(n_users, theta, qs, rs)
            d[5, 1] = d[3, 4] = np.nan
            return d

        def raising(params):
            raise SingularSystem(f"at {params.q}, {params.r}")

        prob = DesignProblem(10, 0.1)
        qs, rs = design._axis(0.01, 0.99, 0.1), design._axis(0.01, 0.99, 0.1)
        monkeypatch.setattr(design, "critical_delays", with_nans)
        monkeypatch.setattr(design, "critical_delay", raising)
        with pytest.raises(SingularSystem, match=f"at {qs[3]}, {rs[4]}$"):
            design._argmin_tc(design._Grids(prob), qs, rs, 1.0, None)


def pick_reference(candidates):
    """The candidate pick as an explicit comparison: the reference for design._pick_candidate.

    A later candidate wins with a T_c lower by more than 1e-9, or within
    1e-9 and with a smaller (q, r).
    """
    best = None
    for cand in candidates:
        if cand is None:
            continue
        q, r, t = cand
        if best is None or t < best[2] - 1e-9 or (
            abs(t - best[2]) <= 1e-9 and (q, r) < (best[0], best[1])
        ):
            best = (q, r, t)
    return best[0], best[1]


class TestPickCandidate:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_walk_equals_the_explicit_comparison(self, data):
        # square and edge candidates in either order, one of them possibly
        # missing; few coordinates, so that equal q (and equal (q, r)) occur
        coordinate = st.sampled_from([0.01, 0.1, 0.35])
        candidate = st.tuples(coordinate, coordinate, T_VALUES)
        pair = data.draw(st.lists(st.none() | candidate, min_size=2, max_size=2)
                         .filter(lambda cands: any(c is not None for c in cands)))
        assert design._pick_candidate(pair) == pick_reference(pair)


class TestSweeps:
    def test_qr_grid_contains_optimum(self):
        grid = design.qr_grid(DesignProblem(10, 0.1), step=0.05)
        assert not grid.errors.any()
        i, j = np.unravel_index(np.argmax(grid.c_norm), grid.c_norm.shape)
        assert grid.c_norm[i, j] == pytest.approx(0.804, abs=0.002)
        assert grid.pts[i] == pytest.approx(0.11, abs=0.05)
        assert grid.pts[j] == pytest.approx(0.46, abs=0.05)

    def test_qr_grid_contour_resolution(self):
        # the 0.01-step grid used for contour plots peaks at the optimum
        grid = design.qr_grid(DesignProblem(10, 0.1), step=0.01)
        i, j = np.unravel_index(np.argmax(grid.c_norm), grid.c_norm.shape)
        assert grid.c_norm[i, j] == pytest.approx(0.804, abs=0.002)
        assert grid.pts[i] == pytest.approx(0.105, abs=0.01)
        assert grid.pts[j] == pytest.approx(0.479, abs=0.01)

    def test_qr_grid_error_markers_at_boundary(self):
        grid = design.qr_grid(DesignProblem(4, 0.1), start=0.0, stop=1.0, step=0.5)
        marked = grid.errors != ""
        assert marked.any() and set(grid.errors[marked]) == {"SingularSystem"}
        assert np.isnan(grid.c_norm[marked]).all()
        assert grid.pts.tolist() == [0.0, 0.5, 1.0] and grid.errors[1, 1] == ""

    def test_qr_axis_is_refused_as_rows(self):
        with pytest.raises(BadParams, match="qr_grid"):
            sweep(DesignProblem(4, 0.1), SweepAxis.QR_GRID, step=0.5)

    def test_n_range_endpoints(self):
        rows = sweep(DesignProblem(3, 0.1), SweepAxis.N_RANGE, start=3, stop=50, step=47)
        first, last = rows[0], rows[-1]
        assert first["n"] == 3 and last["n"] == 50
        assert first["q_opt"] == pytest.approx(0.34, abs=0.005)
        assert last["q_opt"] == pytest.approx(0.02, abs=0.005)
        assert first["d_crit"] == pytest.approx(1.18, abs=0.01)
        assert last["d_crit"] == pytest.approx(1.65, abs=0.01)
        assert first["c_norm"] == pytest.approx(0.82, abs=0.005)
        assert last["c_norm"] == pytest.approx(0.80, abs=0.005)

    def test_theta_range_optima_constant_when_slack(self):
        rows = sweep(DesignProblem(10, 0.2), SweepAxis.THETA_RANGE, start=0.2, stop=0.8, step=0.3)
        qs = {r["q_opt"] for r in rows}
        rs = {r["r_opt"] for r in rows}
        assert len(qs) == 1 and len(rs) == 1

    def test_theta_range_checks_its_last_point_not_its_stop(self):
        prob = DesignProblem(3, 0.1)
        rows = sweep(prob, SweepAxis.THETA_RANGE, start=0.99, stop=1.004, step=0.01)
        assert [r["theta"] for r in rows] == [0.99, 1.0]
        with pytest.raises(BadParams, match="got 1.006"):
            sweep(prob, SweepAxis.THETA_RANGE, start=0.99, stop=1.006, step=0.01)

    def test_eta_range_slack_constant(self):
        rows = sweep(DesignProblem(10, 0.1), SweepAxis.ETA_RANGE, start=1.6, stop=1.8, step=0.1)
        assert all(r["status"] == "slack-interior" for r in rows)
        assert len({r["q_opt"] for r in rows}) == 1

    def test_nhat_peak_at_true_n_when_slack(self):
        rows = sweep(DesignProblem(10, 0.1), SweepAxis.NHAT_RANGE, start=8, stop=12)
        best = max(rows, key=lambda r: r["c_norm"])
        assert best["nhat"] == 10

    def test_nhat_constraint_violated_on_underestimate(self):
        rows = sweep(DesignProblem(10, 0.1, eta=1.0), SweepAxis.NHAT_RANGE, start=8, stop=12)
        by_nhat = {r["nhat"]: r for r in rows}
        assert not by_nhat[8]["constraint_satisfied"]
        assert not by_nhat[9]["constraint_satisfied"]
        assert by_nhat[10]["constraint_satisfied"]
        assert by_nhat[11]["constraint_satisfied"]

    def test_range_requires_bounds(self):
        with pytest.raises(BadParams):
            sweep(DesignProblem(10, 0.1), SweepAxis.N_RANGE)


class TestProblemValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_users=1, theta=0.1),
            dict(n_users=10, theta=0.0),
            dict(n_users=10, theta=0.1, eta=-1.0),
            dict(n_users=10, theta=0.1, epsilon=0.6),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(BadParams):
            DesignProblem(**kwargs)
