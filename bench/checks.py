"""Checks of the program's outputs against the reference and the method's properties.

Each check either returns normally, raises `Incorrect` (the output is wrong:
the run is reported with ``"correct": false``), or reports a `KnownFault`
id: the operation failed because of one of the two program faults the
benchmark counts as failed operations (see README.md):

* ``FAULT_INFINITY``: an unconstrained ``optimize --format json`` prints
  ``"eta": Infinity``, which a strict JSON parser rejects;
* ``FAULT_EDGE``: a constrained solve returns a point on the r = epsilon
  edge whose D_crit exceeds eta (``design._edge_candidate`` assumes D_crit
  rises with q along that edge, which it does not).

Any other departure is `Incorrect`.  Monte Carlo estimates are compared
with the reference within `Z_SE` standard errors; see README.md for why
that band is wider than the acceptance suite's 3 SE.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache

import numpy as np

from bench import reference

THETA = 0.1
# the paper's optima (q*, r*) at theta = 0.1, as in tests/test_acceptance.py
OPTIMA = {3: (0.3397, 0.4896), 10: (0.1051, 0.4786), 50: (0.0213, 0.4754)}
OPTIMUM_TOL = 0.005    # |(q, r) - (q*, r*)| per coordinate
ETA_STAR_TOL = 0.01    # |eta* - D_crit(q*, r*)| / D_crit(q*, r*)
BINDING_TOL = 0.005    # |D_crit - eta| on a binding solution
REL_TOL = 1e-9         # analytic values against the reference
Z_SE = 5.0             # Monte Carlo estimates against the reference
BACKOFF_BOUND = 5      # the CLI's default --b

FAULT_INFINITY = "optimize-json-infinity"
FAULT_EDGE = "edge-candidate-infeasible"

_STATUS_ORDER = {"binding-corner": 0, "binding-interior": 1, "slack-interior": 2}


class Incorrect(Exception):
    """The program's output is wrong."""


class _NonFinite(ValueError):
    pass


def _reject_constant(name: str):
    raise _NonFinite(name)


def strict_json(text: str):
    """Parse JSON as RFC 8259 defines it: NaN and +-Infinity are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except _NonFinite as exc:
        raise Incorrect(f"output is not strict JSON: it contains {exc}") from None
    except json.JSONDecodeError as exc:
        raise Incorrect(f"output is not JSON: {exc}") from None


def _close(got, want: float, what: str, rel: float = REL_TOL) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise Incorrect(f"{what}: expected a number, got {got!r}")
    if not abs(got - want) <= rel * max(1.0, abs(want)):
        raise Incorrect(f"{what}: {got!r} differs from the reference {want!r}")


def _within_se(got, se, want: float, what: str) -> None:
    if not (isinstance(se, (int, float)) and math.isfinite(se) and se > 0):
        raise Incorrect(f"{what}: standard error {se!r} is not a positive number")
    if not abs(got - want) <= Z_SE * se:
        raise Incorrect(
            f"{what}: estimate {got!r} is {(got - want) / se:+.2f} SE from the reference {want!r}"
        )


@lru_cache(maxsize=None)
def coarse_grid_min_tc(n: int, epsilon: float) -> float:
    """Smallest reference T_c on a 21 x 21 grid over [eps, 1 - eps]^2."""
    axis = np.linspace(epsilon, 1.0 - epsilon, 21)
    q, r = np.meshgrid(axis, axis, indexing="ij")
    return float(reference.metrics(n, THETA, q.ravel(), r.ravel())["t_c"].min())


# --- design ------------------------------------------------------------------


def check_solution(sol: dict, n: int, eta: float, epsilon: float) -> str | None:
    """Check one design solution; returns FAULT_EDGE or None, or raises Incorrect."""
    q, r, status = sol.get("q_opt"), sol.get("r_opt"), sol.get("status")
    for name, v in (("q_opt", q), ("r_opt", r)):
        if not (isinstance(v, float) and epsilon - 1e-12 <= v <= 1.0 - epsilon + 1e-12):
            raise Incorrect(f"{name} = {v!r} is outside [{epsilon}, {1 - epsilon}]")
    ref = reference.point(n, THETA, q, r)
    _close(sol.get("c_norm"), ref["w1"], f"C_norm at (q, r) = ({q}, {r}) against w(1)")
    _close(sol.get("d_crit"), ref["d_crit"], f"D_crit at (q, r) = ({q}, {r})")
    d, eta_star = ref["d_crit"], sol.get("eta_star")
    q_ref, r_ref = OPTIMA[n]
    _close(eta_star, reference.point(n, THETA, q_ref, r_ref)["d_crit"], "eta_star", ETA_STAR_TOL)

    if status == "slack-interior":
        if abs(q - q_ref) > OPTIMUM_TOL or abs(r - r_ref) > OPTIMUM_TOL:
            raise Incorrect(f"optimum ({q}, {r}) is not within {OPTIMUM_TOL} of ({q_ref}, {r_ref})")
        if d > eta:
            raise Incorrect(f"slack solution has D_crit {d} above eta = {eta}")
        if math.isinf(eta) and ref["t_c"] > coarse_grid_min_tc(n, epsilon) + 1e-9:
            raise Incorrect(f"a coarse grid point has a smaller T_c than the optimum ({q}, {r})")
        _close(sol["d_crit"], eta_star, "D_crit of the unconstrained optimum against eta_star")
        return None
    if status not in ("binding-corner", "binding-interior"):
        raise Incorrect(f"unexpected status {status!r} at eta = {eta}")
    on_edge = r == epsilon
    if d > eta + BINDING_TOL:
        if status == "binding-corner" and on_edge:
            return FAULT_EDGE
        raise Incorrect(f"solution ({q}, {r}) has D_crit {d} above eta = {eta}")
    if d < eta - BINDING_TOL:
        raise Incorrect(f"binding solution ({q}, {r}) has D_crit {d} well below eta = {eta}")
    if (status == "binding-corner") != on_edge:
        raise Incorrect(f"status {status} does not match r_opt = {r} (epsilon {epsilon})")
    if eta >= eta_star + BINDING_TOL:
        raise Incorrect(f"binding status at eta = {eta} above eta* = {eta_star}")
    return None


def check_optimize(text: str, n: int, eta: float | None, epsilon: float) -> str | None:
    """Check an `optimize --format json` document; returns a fault id or None.

    Strict JSON cannot write infinity, so for an unconstrained problem any
    non-numeric or absent ``eta`` (null, a string such as "inf") is the
    right echo; only the non-strict ``Infinity`` is the counted fault.
    """
    fault = None
    try:
        doc = strict_json(text)
    except Incorrect:
        doc = json.loads(text)  # a lenient parse, to tell the named fault apart
        rest_finite = all(
            not isinstance(v, float) or math.isfinite(v) for k, v in doc.items() if k != "eta"
        )
        if eta is None and doc.get("eta") == math.inf and rest_finite:
            fault = FAULT_INFINITY
        else:
            raise
    echoed = doc.get("eta")
    numeric = isinstance(echoed, (int, float)) and not isinstance(echoed, bool)
    if eta is None:
        eta_ok = fault is not None or not numeric
    else:
        eta_ok = numeric and echoed == eta
    if not eta_ok or (doc.get("n"), doc.get("theta"), doc.get("epsilon")) != (n, THETA, epsilon):
        raise Incorrect(f"optimize echoed the wrong problem: {doc}")
    return check_solution(doc, n, math.inf if eta is None else eta, epsilon) or fault


def check_sweep_eta(text: str, n: int, etas: list[float], epsilon: float) -> list[str | None]:
    """Check an eta-sweep document; one fault id (or None) per row."""
    rows = strict_json(text)
    if [row.get("eta") for row in rows] != etas:
        raise Incorrect(f"eta sweep rows {[row.get('eta') for row in rows]} != {etas}")
    faults = [check_solution(row, n, row["eta"], epsilon) for row in rows]
    check_eta_order(rows, faults)
    return faults


def check_eta_order(rows: list[dict], faults: list[str | None]) -> None:
    """Statuses run corner -> interior -> slack and C_norm never falls as eta grows.

    Rows that failed with a named fault are left out of the C_norm order.
    """
    ranks = [_STATUS_ORDER[row["status"]] for row in rows]
    if ranks != sorted(ranks):
        raise Incorrect(
            "statuses do not run corner -> interior -> slack as eta grows: "
            + ", ".join(row["status"] for row in rows)
        )
    kept = [row["c_norm"] for row, fault in zip(rows, faults) if fault is None]
    if any(b < a - 1e-12 for a, b in zip(kept, kept[1:])):
        raise Incorrect(f"C_norm decreases as eta grows: {kept}")
    if len({row["eta_star"] for row in rows}) != 1:
        raise Incorrect("eta_star differs between rows of one sweep")


def qr_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """The grid axis the qr sweep documents: lo, lo + step, ..., hi."""
    count = int(round((hi - lo) / step))
    return np.clip(lo + step * np.arange(count + 1), lo, hi)


def check_sweep_qr(text: str, n: int, step: float, epsilon: float = 0.01) -> int:
    """Check a qr-sweep document point by point; returns the number of points."""
    rows = strict_json(text)
    axis = qr_axis(epsilon, 1.0 - epsilon, step)
    q_want, r_want = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    if len(rows) != len(q_want):
        raise Incorrect(f"qr sweep has {len(rows)} points, expected {len(q_want)}")
    ref = reference.metrics(n, THETA, q_want, r_want)
    for i, row in enumerate(rows):
        if row.get("error") != "":
            raise Incorrect(f"qr point {i} reports error {row.get('error')!r}")
        if abs(row["q"] - q_want[i]) > 1e-12 or abs(row["r"] - r_want[i]) > 1e-12:
            raise Incorrect(f"qr point {i} is ({row['q']}, {row['r']}), expected "
                            f"({q_want[i]}, {r_want[i]})")
        where = f"qr point ({row['q']}, {row['r']})"
        _close(row["c_norm"], float(ref["c_norm"][i]), f"C_norm at {where}")
        _close(row["d_crit"], float(ref["d_crit"][i]), f"D_crit at {where}")
    return len(rows)


# --- simulate ----------------------------------------------------------------


def check_simulate(text: str, n: int, q: float, r: float, enhanced: bool) -> None:
    """Check a single-critical `simulate --format json` table."""
    rows = {row.get("metric"): row for row in strict_json(text)}
    if sorted(rows) != sorted(["t_s", "t_c", "c_norm", "d_crit", "max_d_crit"]):
        raise Incorrect(f"simulate reported metrics {sorted(rows)}")
    ref = reference.point(n, THETA, q, r)
    ref_d = ref["d_crit_enhanced"] if enhanced else ref["d_crit"]
    analysis = {"t_s": 1.0 / THETA, "t_c": ref["t_c"], "c_norm": ref["c_norm"], "d_crit": ref_d}
    for metric, want in analysis.items():
        row = rows[metric]
        _close(row["analysis"], want, f"analysis {metric}")
        if not (isinstance(row["se"], float) and math.isfinite(row["se"])):
            raise Incorrect(f"{metric}: standard error {row['se']!r} is not finite")
        # C_norm at theta = 0.1 carries the documented start-up bias of the
        # 100-slot all-idle phase start, so like the acceptance suite it is
        # not compared with the steady-state value.
        if metric != "c_norm":
            _within_se(row["simulation"], row["se"], want, f"simulated {metric}")
    worst = rows["max_d_crit"]["simulation"]
    if not (isinstance(worst, int) and worst >= 0):
        raise Incorrect(f"max_d_crit {worst!r} is not a count")
    if enhanced and worst > BACKOFF_BOUND:
        raise Incorrect(f"max_d_crit {worst} exceeds the bound B = {BACKOFF_BOUND}")


def check_scenario(text: str, scenario: str, rounds: int) -> dict:
    """Check a two-critical `simulate --format json` summary; returns it."""
    doc = strict_json(text)
    if doc.get("scenario") != scenario:
        raise Incorrect(f"scenario {doc.get('scenario')!r} != {scenario!r}")
    if doc.get("violations") != 0:
        raise Incorrect(f"{scenario}: {doc.get('violations')} violations")
    if doc.get("valid_rounds") != rounds or not doc.get("attempted_rounds", -1) >= rounds:
        raise Incorrect(f"{scenario}: {doc.get('valid_rounds')} valid of "
                        f"{doc.get('attempted_rounds')} attempted, requested {rounds}")
    mean, worst = doc.get("mean_slots_to_inference"), doc.get("max_slots_to_inference")
    if not (1 <= mean <= worst <= BACKOFF_BOUND + 2):
        raise Incorrect(f"{scenario}: slots to inference mean {mean}, max {worst}")
    if scenario == "two-critical-simultaneous" and not mean == worst == BACKOFF_BOUND + 1:
        raise Incorrect(f"{scenario}: inference should take exactly B + 1 slots, got "
                        f"mean {mean}, max {worst}")
    return doc


def check_trace(path, n_users: int) -> int:
    """Check every trace row against collision-channel feedback; returns the rounds seen.

    0 transmitters: everyone observes idle.  1: the transmitter observes
    success and the others busy.  2 or more: the transmitters observe
    failure and the others busy.
    """
    rounds: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        want = ["round", "slot", "phase"]
        for i in range(n_users):
            want += [f"action_{i}", f"obs_{i}", f"traffic_{i}"]
        if header != want:
            raise Incorrect(f"trace header {header} != {want}")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(want) or row[2] not in ("normal", "critical"):
                raise Incorrect(f"trace line {line} is malformed: {row}")
            actions, obs = row[3::3], row[4::3]
            if any(a not in ("T", "W") for a in actions):
                raise Incorrect(f"trace line {line} has an unknown action: {row}")
            if any(z not in ("normal", "critical") for z in row[5::3]):
                raise Incorrect(f"trace line {line} has an unknown traffic type: {row}")
            k = actions.count("T")
            sent = "idle" if k == 0 else "success" if k == 1 else "failure"
            heard = "idle" if k == 0 else "busy"
            for a, o in zip(actions, obs):
                if o != (sent if a == "T" else heard):
                    raise Incorrect(
                        f"trace line {line}: {k} transmitter(s) but observations {obs}"
                    )
            index = int(row[0])
            if not rounds or rounds[-1] != index:
                if rounds and index < rounds[-1]:
                    raise Incorrect(f"trace line {line}: round {index} after {rounds[-1]}")
                rounds.append(index)
    return len(rounds)


# --- oracle ------------------------------------------------------------------


def check_oracle(est, n: int, q: float, r: float, rounds: int) -> None:
    """Check an OracleEstimate against the reference within Z_SE standard errors."""
    if est.rounds != rounds:
        raise Incorrect(f"oracle ran {est.rounds} rounds, requested {rounds}")
    ref = reference.point(n, THETA, q, r)
    _within_se(est.t_c, est.t_c_se, ref["t_c"], f"oracle T_c at N={n}")
    _within_se(est.c_norm, est.c_norm_se, ref["c_norm"], f"oracle C_norm at N={n}")
    _within_se(est.d_crit, est.d_crit_se, ref["d_crit"], f"oracle D_crit at N={n}")
