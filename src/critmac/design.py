"""Protocol design: maximize utilization subject to a delay constraint.

The design problem is max C_norm over (q, r) in [eps, 1-eps]^2 subject to
D_crit <= eta.  Since C_norm = 1/(theta*T_c + 1), maximizing C_norm is the
same as minimizing T_c, which does not depend on theta; the optimizer uses
T_c as its internal objective so unconstrained solutions are bit-identical
across fairness levels.

Every search is one routine, `_search`: a grid scan of a box followed by two
local refinement passes (step divided by 10 each) around the incumbent.  It
serves the whole square (coarse step 0.01) and the edge r = eps, as a box
with its r side pinned to eps; the square's first row is the edge q = eps.
Each scan reads T_c on its whole grid as an array
(`markov.contention_times`), and D_crit too when a constraint applies
(`markov.critical_delays`); it masks the infeasible cells and takes the
smallest-T_c cell by the walk's strict-improvement rule (the least-D_crit
cell with argmin when none is feasible), so grid search beats gradient
machinery here.  Each refinement pass, `_refine`, follows its pick while it
lands on an inner side of the scanned window, so it can track a steep
constraint curve.  A binding solution more than 0.005 from D_crit = eta
gets one more `_refine` over the whole square at the finest step.  The
candidate pick and the reported values read one point at a time; the edge
bisection reads D_crit one q at a time from r = eps tables it solves once.
Ties within 1e-9 break toward smaller q, then smaller r: one walk (`_walk`)
takes a value only when it is more than 1e-9 below the best so far, over a
scan's grid in row-major order and over the two candidates (square and
edge) in (q, r) order.

An eta sweep solves the unconstrained problem once and each eta from it.
Every top-level solve (`solve_design_problem`, an eta sweep, each row of an
N, theta or nhat sweep) keeps the grids that no eta changes in a `_Grids`
of its own: the square's coarse T_c and D_crit, and those of the r = eps
edge over the whole q range.  Each is computed at most once per solve and
read by every eta after it; nothing is kept from one call to the next.

The constraint is slack above eta* = D_crit(q*, r*), binding with an
interior tangency in a middle band, and binding at the corner r = eps for
small eta.  D_crit is not monotone in q: along r = eps at N = 10,
theta = 0.1 it is 0.436, 0.739 and 0.607 at q = 0.01, 0.15 and 0.50.  So
feasibility is tested at every scanned point, and a problem is infeasible
only when no scanned point is feasible.

Each scan picks as a walk of its grid in row-major order would, so results
do not depend on the order in which the metrics are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import BadParams, SingularSystem
from .markov import (
    binomial_pmf,
    channel_utilization,
    contention_time,
    contention_times,
    critical_delay,
    critical_delay_along_q,
    critical_delays,
)
from .protocol import ProtocolParams

_COARSE_STEP = 0.01
_REFINE_PASSES = 2
_TIE_TOL = 1e-9
_BINDING_TOL = 0.005
_FINAL_STEP = _COARSE_STEP / 10 ** _REFINE_PASSES
# at 1000 x 1000 rows (N = 3) a qr sweep, which the CLI writes a block at a time in every
# format, peaks at 62 MB RSS as CSV, JSON or a table (a subprocess, RUSAGE_CHILDREN)
_MAX_SWEEP_ROWS = 10**6
# a scanned cell: (q, r, T_c), or (q, r, D_crit) where no cell is feasible
_Point = tuple[float, float, float]


class SolutionStatus(Enum):
    SLACK_INTERIOR = "slack-interior"
    BINDING_INTERIOR = "binding-interior"
    BINDING_CORNER = "binding-corner"
    INFEASIBLE = "infeasible"


class SweepAxis(Enum):
    QR_GRID = "qr"
    N_RANGE = "n"
    THETA_RANGE = "theta"
    ETA_RANGE = "eta"
    NHAT_RANGE = "nhat"


@dataclass(frozen=True)
class DesignProblem:
    """Inputs of the design problem; eta = inf means unconstrained."""

    n_users: int
    theta: float
    eta: float = math.inf
    epsilon: float = 0.01

    def __post_init__(self) -> None:
        if not isinstance(self.n_users, int) or self.n_users < 2:
            raise BadParams(f"n_users must be an integer >= 2, got {self.n_users!r}")
        if not 0.0 < self.theta <= 1.0:
            raise BadParams(f"theta must lie in (0, 1], got {self.theta!r}")
        if not self.eta > 0.0:
            raise BadParams(f"eta must be positive, got {self.eta!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise BadParams(f"epsilon must lie in (0, 0.5), got {self.epsilon!r}")


@dataclass(frozen=True)
class DesignSolution:
    """Optimizer output; eta_star is D_crit at the unconstrained optimum."""

    q_opt: float
    r_opt: float
    c_norm: float
    d_crit: float
    status: SolutionStatus
    eta: float
    eta_star: float


@dataclass
class _Grids:
    """One solve's problem, and the grids of it that no eta changes, kept for that solve.

    A scan whose q axis runs the whole range [eps, 1 - eps] reads the same
    grid at every eta: the square's coarse scan, and the r = eps edge scan
    when no bisection cut it.  Its T_c and D_crit are kept, keyed by the
    exact axes, so every eta of the solve reuses them bit for bit: at most
    four arrays.  Refine windows (at most 0.02 wide in q) and a bisected
    edge move with eta and are computed each time.  (From eps = 0.49 on the
    range is no wider than a refine window, so whole-range windows are kept
    too: a few more arrays, still not one per eta.)
    """

    prob: DesignProblem
    kept: dict = field(default_factory=dict)

    def read(self, grid: Callable, qs: np.ndarray, rs: np.ndarray) -> np.ndarray:
        """grid(N, theta, qs, rs), from the kept grids when qs runs the whole q range."""
        prob = self.prob
        if not (qs[0] == prob.epsilon and qs[-1] == 1.0 - prob.epsilon):
            return grid(prob.n_users, prob.theta, qs, rs)
        key = (grid, qs.tobytes(), rs.tobytes())
        if key not in self.kept:
            self.kept[key] = grid(prob.n_users, prob.theta, qs, rs)
            self.kept[key].flags.writeable = False
        return self.kept[key]


def _at(prob: DesignProblem, q: float, r: float) -> ProtocolParams:
    return ProtocolParams(prob.n_users, prob.theta, q, r)


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(round((hi - lo) / step))
    pts = lo + step * np.arange(count + 1)
    return np.clip(pts, lo, hi)


def _walk(values: np.ndarray, best: float) -> tuple[int | None, float]:
    """Where a walk of values in order ends that takes each value below best - _TIE_TOL.

    Returns the index and value of the last one taken (None and best if
    none is).  Only a strict drop of the running minimum can be taken, so
    the walk visits those alone; inf values never count.
    """
    low = np.minimum.accumulate(values)
    drops = np.flatnonzero(np.r_[True, low[1:] < low[:-1]])
    pick = None
    for i, value in zip(drops.tolist(), low[drops].tolist()):
        if value < best - _TIE_TOL:
            pick, best = i, value
    return pick, best


def _scan_pick(
    qs: np.ndarray,
    rs: np.ndarray,
    t: np.ndarray,
    incumbent: _Point | None,
) -> _Point | None:
    """Where a row-major `_walk` of t over qs x rs ends, from the incumbent's T_c."""
    pick, best = _walk(t.ravel(), math.inf if incumbent is None else incumbent[2])
    if pick is None:
        return incumbent
    i, j = divmod(pick, len(rs))
    return float(qs[i]), float(rs[j]), best


def _argmin_tc(
    grids: _Grids,
    qs: np.ndarray,
    rs: np.ndarray,
    eta: float,
    incumbent: _Point | None,
) -> _Point | None:
    """Smallest-T_c cell of the grid qs x rs with D_crit <= eta (any cell when eta is inf).

    At the first cell in scan order whose value it reads as NaN, the
    one-point error is raised, D_crit's before T_c's.
    """
    t = grids.read(contention_times, qs, rs)
    bad = np.isnan(t)
    constrained = eta < math.inf
    if constrained:
        d = grids.read(critical_delays, qs, rs)
        ok = d <= eta
        bad = np.isnan(d) | (ok & bad)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        params = _at(grids.prob, float(qs[i]), float(rs[j]))
        # the grids are NaN exactly where the one-point functions raise
        if constrained:
            critical_delay(params)
        contention_time(params)
    if constrained:
        t = np.where(ok, t, math.inf)
    return _scan_pick(qs, rs, t, incumbent)


def _refine(
    grids: _Grids,
    best: _Point,
    q_box: tuple[float, float],
    r_box: tuple[float, float],
    span: float,
    eta: float,
) -> _Point:
    """Rescan the +-span window around best (clipped to the box) at span/10, then follow the pick.

    While the pick lands on a side of its window that is not a side of the
    box, the window is centred on it and scanned again; each such move
    lowers T_c by more than _TIE_TOL, so the loop ends.
    """
    step = span / 10.0
    while True:
        q0, r0, _ = best
        qs = _axis(max(q_box[0], q0 - span), min(q_box[1], q0 + span), step)
        rs = _axis(max(r_box[0], r0 - span), min(r_box[1], r0 + span), step)
        pick = _argmin_tc(grids, qs, rs, eta, best)
        q, r, _ = pick
        inner_q = q in (qs[0], qs[-1]) and q not in q_box
        inner_r = r in (rs[0], rs[-1]) and r not in r_box
        if pick is best or not (inner_q or inner_r):
            return pick
        best = pick


def _search(
    grids: _Grids,
    q_box: tuple[float, float],
    r_box: tuple[float, float],
    step: float,
    eta: float,
) -> tuple[_Point | None, _Point | None]:
    """Smallest-T_c feasible point of a box and its T_c: a grid scan, then local refinement.

    Each of the _REFINE_PASSES passes is one `_refine` of the incumbent at a
    tenth of the previous step.  A box side with equal ends pins that
    coordinate.  Returns (point, None), or, when no scanned point is
    feasible, (None, (q, r, D_crit)) at the scan's first least-D_crit cell.
    """
    qs, rs = _axis(*q_box, step), _axis(*r_box, step)
    best = _argmin_tc(grids, qs, rs, eta, None)
    if best is None:
        d = grids.read(critical_delays, qs, rs)  # the grid just scanned
        i, j = np.unravel_index(np.argmin(d), d.shape)
        return None, (float(qs[i]), float(rs[j]), float(d[i, j]))
    for _ in range(_REFINE_PASSES):
        best = _refine(grids, best, q_box, r_box, step, eta)
        step /= 10.0
    return best, None


def _bisect(inside: Callable[[float], bool], lo: float, hi: float) -> tuple[float, float]:
    """60 halvings of [lo, hi] that keep inside(lo) and not inside(hi); the last (lo, hi)."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _edge_search(grids: _Grids, eta: float) -> tuple[_Point | None, _Point | None]:
    """Best feasible point on the r = eps edge, where small-eta optima sit.

    They lie inside a feasible sliver thinner than the coarse grid step, so
    the edge gets a search of its own: a box with r pinned to eps, scanned
    100 steps across q.  When the corner (eps, eps) is feasible and q = 1 - eps
    is not, the scan stops at a crossing D_crit = eta found by bisection,
    which solves the r = eps tables once and contracts each q it tests with
    them (`critical_delay_along_q`, the one-point D_crit bit for bit); an
    edge scan over the whole q range is computed once per solve (`_Grids`).
    D_crit need not be monotone along the edge (at N = 10, theta = 0.1 it
    rises to 0.74 near q = 0.12, then falls to 0.61 near q = 0.5), so the
    crossing only bounds the scanned range: every scanned point is tested
    for feasibility.  The q = eps edge needs no search of its own: it is the
    first row of the square's scan, and `_refine` follows a pick along it.
    Returns what `_search` returns.
    """
    prob = grids.prob
    eps = prob.epsilon
    d_at = critical_delay_along_q(prob.n_users, prob.theta, eps)

    def feasible(q: float) -> bool:
        return d_at(q) <= eta

    lo, q_max = eps, 1.0 - eps
    if feasible(lo) and not feasible(q_max):
        q_max, _ = _bisect(feasible, lo, q_max)
    step = max((q_max - lo) / 100.0, 1e-6)
    return _search(grids, (lo, q_max), (eps, eps), step, eta)


def _pick_candidate(candidates: list[_Point | None]) -> tuple[float, float]:
    """Lowest-T_c (q, r, T_c) candidate, a tie within _TIE_TOL to the smaller (q, r): a `_walk`."""
    found = sorted((cand for cand in candidates if cand is not None), key=lambda c: c[:2])
    pick, _ = _walk(np.array([t for _, _, t in found]), math.inf)
    return found[pick][:2]


def _solve(grids: _Grids, eta: float, unconstrained: DesignSolution) -> DesignSolution:
    """Design solution at one eta, from the unconstrained optimum of the same (N, theta).

    When that optimum is infeasible, the search over the square and the
    r = eps edge search test feasibility at every point they scan.  When
    neither finds a feasible point the problem is infeasible, and the scanned
    point with the least D_crit is reported (the square's on a tie).  Only
    the two coarse scans run then, both on grids kept in `_Grids`.
    """
    if unconstrained.d_crit <= eta:
        return replace(unconstrained, eta=eta)
    prob = grids.prob
    eps, eta_star = prob.epsilon, unconstrained.eta_star
    box = (eps, 1.0 - eps)
    square, square_low = _search(grids, box, box, _COARSE_STEP, eta)
    edge, edge_low = _edge_search(grids, eta)
    if square is None and edge is None:
        q, r, d = min(square_low, edge_low, key=lambda low: low[2])  # the first least
        return DesignSolution(q, r, channel_utilization(_at(prob, q, r)), d,
                              SolutionStatus.INFEASIBLE, eta, eta_star)
    q, r = _pick_candidate([square, edge])
    if r <= eps + 1.5 * _FINAL_STEP:
        r = eps
    d = critical_delay(_at(prob, q, r))
    if abs(d - eta) > _BINDING_TOL:
        # the scans can stop short of the constraint curve; follow it over the whole square
        start = (q, r, contention_time(_at(prob, q, r)))
        q, r, _ = _refine(grids, start, box, box, 10 * _FINAL_STEP, eta)
        d = critical_delay(_at(prob, q, r))
    status = SolutionStatus.BINDING_CORNER if r == eps else SolutionStatus.BINDING_INTERIOR
    return DesignSolution(q, r, channel_utilization(_at(prob, q, r)), d, status, eta, eta_star)


def maximize_utilization(prob: DesignProblem) -> DesignSolution:
    """Unconstrained maximizer of C_norm over the restricted square."""
    return _maximize(_Grids(prob))


def _maximize(grids: _Grids) -> DesignSolution:
    """maximize_utilization, its square's T_c kept in grids for the constrained solves after it."""
    prob = grids.prob
    box = (prob.epsilon, 1.0 - prob.epsilon)
    (q, r, _), _ = _search(grids, box, box, _COARSE_STEP, math.inf)
    d = critical_delay(_at(prob, q, r))
    return DesignSolution(
        q_opt=q,
        r_opt=r,
        c_norm=channel_utilization(_at(prob, q, r)),
        d_crit=d,
        status=SolutionStatus.SLACK_INTERIOR,
        eta=prob.eta,
        eta_star=d,
    )


def solve_design_problem(prob: DesignProblem) -> DesignSolution:
    """Solve the constrained design problem; Infeasible is a status, not an error."""
    grids = _Grids(prob)
    return _solve(grids, prob.eta, _maximize(grids))


def _solution_row(sol: DesignSolution) -> dict:
    return {
        "q_opt": sol.q_opt,
        "r_opt": sol.r_opt,
        "c_norm": sol.c_norm,
        "d_crit": sol.d_crit,
        "status": sol.status.value,
        "eta_star": sol.eta_star,
    }


def _sweep_eta(prob: DesignProblem, etas: Iterable[float]) -> list[dict]:
    """The design solution at each eta, all from one unconstrained solve and one `_Grids`."""
    grids = _Grids(prob)
    unconstrained = _maximize(grids)
    return [{"eta": eta, **_solution_row(_solve(grids, eta, unconstrained))} for eta in etas]


def _error_name(prob: DesignProblem, q: float, r: float) -> str:
    """Name of the error the one-point T_c, then D_crit, raises at (q, r), as a qr-sweep marker."""
    try:
        params = _at(prob, q, r)
        contention_time(params)
        critical_delay(params)
    except (SingularSystem, BadParams) as exc:
        return type(exc).__name__
    return ""


def _sweep_range(
    prob: DesignProblem,
    axis: SweepAxis,
    start: float | None,
    stop: float | None,
    step: float | None,
) -> tuple[float, float, float]:
    """A sweep's checked (start, stop, step), defaults filled in; see `sweep` and `qr_grid`."""
    counts_users = axis in (SweepAxis.N_RANGE, SweepAxis.NHAT_RANGE)
    if step is None:
        step = 1 if counts_users else 0.01
    elif not 0 < step < math.inf or (counts_users and not float(step).is_integer()):
        kind = "a positive whole number" if counts_users else "finite and positive"
        raise BadParams(f"{axis.value} sweep step must be {kind}, got {step!r}")

    if axis is SweepAxis.QR_GRID:
        start = start if start is not None else prob.epsilon
        stop = stop if stop is not None else 1.0 - prob.epsilon
    elif start is None or stop is None:
        raise BadParams(f"{axis.value} sweep requires start and stop")
    if not (math.isfinite(start) and math.isfinite(stop) and start <= stop):
        raise BadParams(f"{axis.value} sweep needs finite start <= stop, got {start!r} and {stop!r}")
    if counts_users and not (float(start).is_integer() and float(stop).is_integer()):
        raise BadParams(f"{axis.value} sweep needs whole start and stop, got {start!r} and {stop!r}")
    if axis is SweepAxis.ETA_RANGE:
        replace(prob, eta=start)  # the smallest eta; DesignProblem rejects eta <= 0
    # counted before any row is allocated (a float span can be too large for round)
    span = (stop - start) // step if counts_users else (stop - start) / step
    side = round(span) + 1 if span < _MAX_SWEEP_ROWS else math.inf
    if (side * side if axis is SweepAxis.QR_GRID else side) > _MAX_SWEEP_ROWS:
        raise BadParams(f"{axis.value} sweep would have more than {_MAX_SWEEP_ROWS} rows")
    if axis is SweepAxis.THETA_RANGE:  # the largest theta, before any solve (stop may lie past it)
        replace(prob, theta=float(_axis(start, stop, step)[-1]))
    if counts_users:  # the largest N, before any solve; markov rejects N whose binomials overflow
        binomial_pmf(int(start + span * step), 0.5)
    if axis is SweepAxis.NHAT_RANGE:  # and the true N each nhat solution is evaluated at
        binomial_pmf(prob.n_users, 0.5)
    return start, stop, step


class QRGrid(NamedTuple):
    """C_norm and D_crit over pts x pts (q by row, r by column), as a qr sweep tabulates them.

    A cell that fails to evaluate is NaN in d_crit (and in c_norm when T_c
    fails too), and errors holds the name of the one-point error there;
    errors is "" at every other cell.
    """

    pts: np.ndarray
    c_norm: np.ndarray
    d_crit: np.ndarray
    errors: np.ndarray


def qr_grid(
    prob: DesignProblem,
    *,
    start: float | None = None,
    stop: float | None = None,
    step: float | None = None,
) -> QRGrid:
    """C_norm and D_crit over pts x pts for contour plotting: the library's qr sweep.

    pts runs from start to stop (eps and 1 - eps when omitted, and then
    finite with start <= stop) by step (0.01 when omitted, else finite and
    positive), and the grid has at most _MAX_SWEEP_ROWS cells.  Points that
    fail to evaluate are kept, NaN with the name of their error (see QRGrid).
    """
    start, stop, step = _sweep_range(prob, SweepAxis.QR_GRID, start, stop, step)
    pts = _axis(start, stop, step)
    tc = contention_times(prob.n_users, prob.theta, pts, pts)
    d = critical_delays(prob.n_users, prob.theta, pts, pts)
    d[np.isnan(tc)] = np.nan  # D_crit is read only where T_c is
    c = 1.0 / (prob.theta * tc + 1.0)
    errors = np.full(d.shape, "", dtype=object)
    for i, j in zip(*np.nonzero(np.isnan(d))):
        errors[i, j] = _error_name(prob, float(pts[i]), float(pts[j]))
    return QRGrid(pts, c, d, errors)


def sweep(
    prob: DesignProblem,
    axis: SweepAxis,
    *,
    start: float | None = None,
    stop: float | None = None,
    step: float | None = None,
) -> list[dict]:
    """Tabulate optimal protocols along one axis, one dict row per point.

    N_RANGE, THETA_RANGE and ETA_RANGE re-solve the design problem along
    the respective axis.  NHAT_RANGE solves the problem for an estimated
    user count nhat and evaluates the resulting protocol with the true
    n_users, flagging delay-constraint violations.  A (q, r) grid is no row
    sweep: QR_GRID raises BadParams, and `qr_grid` computes it.

    A given step must be finite and positive, and a whole number on the
    N_RANGE and NHAT_RANGE axes; omitted, it is 0.01 (1 on those two axes).
    start and stop must be finite with start <= stop, whole numbers on those
    two axes, and each eta of ETA_RANGE positive, each theta of THETA_RANGE
    in (0, 1], and the largest N of N_RANGE and NHAT_RANGE one the analysis
    accepts.  A sweep has at most _MAX_SWEEP_ROWS rows.
    """
    if axis is SweepAxis.QR_GRID:
        raise BadParams("a qr sweep is a grid, not rows: call qr_grid")
    start, stop, step = _sweep_range(prob, axis, start, stop, step)

    if axis in (SweepAxis.N_RANGE, SweepAxis.THETA_RANGE):
        if axis is SweepAxis.N_RANGE:
            key, field, pts = "n", "n_users", range(int(start), int(stop) + 1, int(step))
        else:
            key, field, pts = "theta", "theta", [float(t) for t in _axis(start, stop, step)]
        return [{key: x, **_solution_row(solve_design_problem(replace(prob, **{field: x})))}
                for x in pts]

    if axis is SweepAxis.ETA_RANGE:
        etas = [float(e) for e in _axis(start, stop, step)]
        return _sweep_eta(prob, etas)

    if axis is SweepAxis.NHAT_RANGE:
        rows = []
        for nhat in range(int(start), int(stop) + 1, int(step)):
            sol = solve_design_problem(replace(prob, n_users=nhat))
            true_params = ProtocolParams(prob.n_users, prob.theta, sol.q_opt, sol.r_opt)
            c = channel_utilization(true_params)
            d = critical_delay(true_params)
            row = {
                "nhat": nhat,
                "q_opt": sol.q_opt,
                "r_opt": sol.r_opt,
                "c_norm": c,
                "d_crit": d,
                "constraint_satisfied": bool(d <= prob.eta + _BINDING_TOL),
            }
            rows.append(row)
        return rows

    raise BadParams(f"unknown sweep axis {axis!r}")
