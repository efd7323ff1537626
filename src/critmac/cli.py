"""Command-line front end: analyze, optimize, simulate, sweep.

The CLI only orchestrates library calls and formats their results; every
number it emits comes from a library operation.  Output formats: an aligned
table with 4 decimal places, JSON at full precision, or CSV (the default
for sweeps); a qr sweep of any format is written from its grids a block of
rows at a time, after every check has passed.  Exit codes: 0 success, 2
bad arguments (an output file or stdout that cannot be opened, written or
closed, a second --config, and two of --config, --output and
--trace-output naming one file included), 3 boundary parameters, which the
analysis refuses, 4 infeasible design problem.

A config file (one --config, before or after the subcommand) may supply
defaults as flat key=value lines whose keys mirror the flag names; explicit
flags override it.  Blank lines and lines starting with # are skipped, and
a value true or false (any case) sets or omits a switch such as enhanced.
Any other line without = is refused.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .design import (
    DesignProblem,
    QRGrid,
    SolutionStatus,
    SweepAxis,
    qr_grid,
    solve_design_problem,
    sweep,
)
from .errors import BadParams, ScenarioUnsatisfiable, SingularSystem
from .markov import enhanced_critical_delay, evaluate_metrics
from .protocol import EnhancementConfig, ProtocolParams
from .sim import (
    CriticalTrafficModel,
    Scenario,
    ScenarioSummary,
    SimConfig,
    run_experiment,
    simulate_two_critical,
)

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4
# cells of a qr sweep spelled and written at a time (whole q rows, at least one)
_BLOCK_CELLS = 4096


def _fmt_cell(value) -> str:
    """A table cell; None (a qr-sweep cell that failed to evaluate) is empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _fmt_full(value) -> str:
    """A CSV cell at full precision; None is empty, as in a table (JSON writes null).

    A string that holds a comma, a double quote or a line break is quoted as
    RFC 4180 does (the csv module's minimal quoting); other cells never are.
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def _json_cell(value) -> str:
    """A JSON cell as json.dumps spells it; strict JSON has no inf or nan, so those are null."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise TypeError(f"no JSON spelling for {type(value).__name__}")


_CELLS = {"json": _json_cell, "csv": _fmt_full, "table": _fmt_cell}


def _spell(column, fmt: str) -> list[str]:
    """The cells of one column spelled for fmt ("json", "csv" or "table").

    A float array (a block of a qr grid) reads NaN as a missing value.
    """
    cell = _CELLS[fmt]
    if not isinstance(column, np.ndarray):
        return list(map(cell, column))
    flat = column.ravel()
    cells = list(map("%.4f".__mod__ if fmt == "table" else float.__repr__, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        value = float(flat[i])
        cells[i] = cell(None if math.isnan(value) else value)
    return cells


def _json_object(keys: list[str], indent: int) -> str:
    """%-template of a JSON object with these keys, as json.dumps(indent=2) lays one out.

    indent is the object's own indentation: 0 for a document, 2 for a row of a list.
    """
    pad = " " * indent
    names = [encode_basestring_ascii(k).replace("%", "%%") for k in keys]
    items = ",\n".join(f"{pad}  {name}: %s" for name in names)
    return f"{pad}{{\n{items}\n{pad}}}"


def _encode_rows(columns: list[str], blocks: Callable[[], Iterable], fmt: str) -> Iterator[str]:
    """Text of rows, one chunk per block of blocks(); a block holds each column's spelled cells."""
    if fmt == "json":
        row, sep = _json_object(columns, 2), ",\n"
        head, tail, empty = "[\n", "\n]\n", "[]\n"
    else:  # the header is a row of the column names
        row = ",".join(["%s"] * len(columns)) + "\n"
        if fmt == "table":  # a first read of the blocks for the widths; %-ws pads as ljust(w)
            widths = [len(c) for c in columns]
            for block in blocks():
                widths = [max([w, *map(len, cells)]) for w, cells in zip(widths, block)]
            row = "  ".join(f"%-{w}s" for w in widths) + "\n"
        sep, tail = "", ""
        head = empty = row % tuple(columns)
    lead = head
    for block in blocks():
        text = sep.join(map(row.__mod__, zip(*block)))
        if text:
            yield lead + text
            lead = sep
    yield empty if lead is head else tail


def _render_pairs(pairs: list[tuple[str, object]], fmt: str) -> str:
    keys = [k for k, _ in pairs]
    if fmt == "json":
        return _json_object(keys, 0) % tuple(_spell([v for _, v in pairs], fmt)) + "\n"
    if fmt == "csv":
        return _render_rows(keys, [dict(pairs)], fmt)
    width = max(len(k) for k in keys)
    return "".join(f"{k:<{width}}  {_fmt_cell(v)}\n" for k, v in pairs)


def _render_rows(columns: list[str], rows: list[dict], fmt: str) -> str:
    block = [_spell([row[c] for row in rows], fmt) for c in columns]
    return "".join(_encode_rows(columns, lambda: [block], fmt))


def _qr_blocks(grid: QRGrid, fmt: str) -> Iterator[list[list[str]]]:
    """The columns of a qr sweep (q, r, c_norm, d_crit, error), spelled q rows at a time."""
    side = len(grid.pts)
    per_block = max(1, _BLOCK_CELLS // side)
    pts = _spell(grid.pts, fmt)
    cell = _CELLS[fmt]
    blank = cell("")
    for i in range(0, side, per_block):
        q_rows = slice(i, i + per_block)
        count = len(pts[q_rows])
        errors, names = [blank] * (count * side), grid.errors[q_rows].ravel()
        for k in np.flatnonzero(np.isnan(grid.d_crit[q_rows])).tolist():  # the rare failed cells
            errors[k] = cell(names[k])
        yield [
            [q for q in pts[q_rows] for _ in range(side)],
            pts * count,
            _spell(grid.c_norm[q_rows], fmt),
            _spell(grid.d_crit[q_rows], fmt),
            errors,
        ]


@contextlib.contextmanager
def _open_output(path: str | None, flag: str) -> Iterator:
    """The file at path opened for writing, or stdout if path is None, flushed at the end.

    An output that cannot be opened, written, flushed or closed is a bad
    argument.  stdout that cannot be written is closed, so that what is left
    in its buffer is not written again, and fails again, at interpreter exit.
    """
    try:
        with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
            yield fh
            fh.flush()
    except OSError as exc:
        if not path:
            with contextlib.suppress(OSError):
                sys.stdout.close()
        where = f"{flag} {path}" if path else "stdout"
        raise BadParams(f"cannot write {where}: {exc.strerror}") from None


def _emit(output: str | None, chunks: Iterable[str]) -> None:
    """Write the chunks in order to the --output file (opened only now), or to stdout."""
    with _open_output(output, "--output") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _params_from(args) -> ProtocolParams:
    return ProtocolParams(args.n, args.theta, args.q, args.r)


def _cmd_analyze(args) -> int:
    params = _params_from(args)
    metrics = evaluate_metrics(params)
    pairs: list[tuple[str, object]] = [
        ("t_s", metrics.t_s),
        ("t_c", metrics.t_c),
        ("c_norm", metrics.c_norm),
        ("d_crit", metrics.d_crit),
    ]
    if args.enhanced:
        pairs.append(("d_crit_enhanced", enhanced_critical_delay(params)))
    pairs.append(("f_norm", metrics.f_norm))
    _emit(args.output, [_render_pairs(pairs, args.format)])
    return EXIT_OK


def _cmd_optimize(args) -> int:
    prob = DesignProblem(args.n, args.theta, eta=args.eta, epsilon=args.epsilon)
    sol = solve_design_problem(prob)
    pairs: list[tuple[str, object]] = [
        ("n", prob.n_users),
        ("theta", prob.theta),
        ("eta", prob.eta),
        ("epsilon", prob.epsilon),
        ("q_opt", sol.q_opt),
        ("r_opt", sol.r_opt),
        ("c_norm", sol.c_norm),
        ("d_crit", sol.d_crit),
        ("eta_star", sol.eta_star),
        ("status", sol.status.value),
    ]
    _emit(args.output, [_render_pairs(pairs, args.format)])
    return EXIT_INFEASIBLE if sol.status is SolutionStatus.INFEASIBLE else EXIT_OK


def _sim_config(args) -> SimConfig:
    if (args.q is None) != (args.r is None):
        raise BadParams("--q and --r must be given together")
    if args.q is None:
        sol = solve_design_problem(DesignProblem(args.n, args.theta))
        q, r = sol.q_opt, sol.r_opt
    else:
        q, r = args.q, args.r
    params = ProtocolParams(args.n, args.theta, q, r)
    enhancement = EnhancementConfig(
        enabled=args.enhanced,
        backoff_bound=args.b,
        suppress_after_critical=not args.no_suppress_after_critical,
    )
    if args.x_geometric is not None:
        model = CriticalTrafficModel.geometric(args.x_geometric)
    else:
        model = CriticalTrafficModel.fixed(args.x_fixed)
    return SimConfig(
        params=params,
        enhancement=enhancement,
        normal_phase_slots=args.normal_slots,
        rounds=args.rounds,
        traffic_model=model,
        seed=args.seed,
        scenario=Scenario(args.scenario),
    )


def _trace_sink(path: str | None):
    """The --trace-output file opened for writing, or None (as a context manager)."""
    return _open_output(path, "--trace-output") if path else contextlib.nullcontext()


def _cmd_simulate(args) -> int:
    cfg = _sim_config(args)
    if cfg.scenario is Scenario.SINGLE_CRITICAL:
        # the analysis column first: parameters it rejects fail before any round runs
        analysis = evaluate_metrics(cfg.params, enhanced=cfg.enhancement.enabled)
        with _trace_sink(args.trace_output) as sink:
            res = run_experiment(cfg, trace_sink=sink)
        columns = ["metric", "analysis", "simulation", "se"]
        rows = [(m, getattr(analysis, m), getattr(res, m), getattr(res, f"{m}_se"))
                for m in ("t_s", "t_c", "c_norm", "d_crit")]
        rows.append(("max_d_crit", "", res.max_d_crit, ""))
        rows = [dict(zip(columns, row)) for row in rows]
        _emit(args.output, [_render_rows(columns, rows, args.format)])
        return EXIT_OK

    with _trace_sink(args.trace_output) as sink:
        summary = simulate_two_critical(cfg, trace_sink=sink)
    if args.format == "csv":
        blocks = functools.partial(_scenario_blocks, summary)
        _emit(args.output, _encode_rows(["round", *_NOT_INJECTED], blocks, "csv"))
        return EXIT_OK
    inference = (summary.joint - summary.arrived[:, 1])[summary.joint > 0]
    count = inference.size
    pairs: list[tuple[str, object]] = [
        ("scenario", cfg.scenario.value),
        ("valid_rounds", len(summary.round_index)),
        ("attempted_rounds", summary.attempted_rounds),
        ("mean_slots_to_inference", int(inference.sum()) / count if count else math.nan),
        ("max_slots_to_inference", int(inference.max()) if count else math.nan),
        ("violations", summary.violation_count),
    ]
    _emit(args.output, [_render_pairs(pairs, args.format)])
    return EXIT_OK


# the CSV cells of an attempted round that admitted no second arrival
_NOT_INJECTED = {"injected": False, "second_arrival": "", "slots_to_joint_inference": "",
                 "critical_collisions": 0, "first_finisher": "", "violations": ""}


def _scenario_blocks(s: ScenarioSummary) -> Iterator[list[list[str]]]:
    """The CSV columns of a two-critical run, spelled a block of attempted rounds at a time."""
    finisher = np.where(s.finished[:, 0] < s.finished[:, 1], s.users[:, 0], s.users[:, 1])
    for start in range(0, s.attempted_rounds, _BLOCK_CELLS):
        stop = min(start + _BLOCK_CELLS, s.attempted_rounds)
        valid = slice(*np.searchsorted(s.round_index, (start, stop)).tolist())
        second, joint = s.arrived[valid, 1].tolist(), s.joint[valid].tolist()
        values = [[True] * len(second), second, [j - a if j else "" for j, a in zip(joint, second)],
                  s.collisions[valid].tolist(), finisher[valid].tolist(),
                  [";".join(v) for v in s.violations[valid]]]
        block = [_spell(range(start, stop), "csv")]
        for blank, cells in zip(_NOT_INJECTED.values(), values):
            column = np.full(stop - start, _fmt_full(blank), dtype=object)
            column[s.round_index[valid] - start] = _spell(cells, "csv")
            block.append(column.tolist())
        yield block


def _cmd_sweep(args) -> int:
    axis = SweepAxis(args.axis)
    prob = DesignProblem(args.n, args.theta, eta=args.eta, epsilon=args.epsilon)
    span = {"start": args.sweep_from, "stop": args.sweep_to, "step": args.step}
    if axis is SweepAxis.QR_GRID:
        # the grids whole (8 bytes a cell), then the text a block of q rows at a time
        blocks = functools.partial(_qr_blocks, qr_grid(prob, **span), args.format)
        _emit(args.output, _encode_rows(["q", "r", "c_norm", "d_crit", "error"], blocks, args.format))
    else:
        rows = sweep(prob, axis, **span)  # never empty: start <= stop
        _emit(args.output, [_render_rows(list(rows[0]), rows, args.format)])
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, default_format: str = "table") -> None:
    p.add_argument("--format", choices=["table", "json", "csv"], default=default_format)
    p.add_argument("--output", default=None, help="write the result to this file")
    p.add_argument("--config", default=None, help="key=value file with flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critmac",
        description="Analyze, optimize, and simulate adaptive MAC protocols "
        "with critical-traffic priority.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form metrics for one parameter point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--enhanced", action="store_true",
                   help="also report the enhanced-protocol critical delay")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize", help="solve the protocol design problem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--eta", type=float, default=math.inf,
                   help="delay constraint; omit for the unconstrained problem")
    p.add_argument("--epsilon", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo rounds, Table-style report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--q", type=float, default=None,
                   help="omit with --r to use the optimal protocol")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--enhanced", action="store_true")
    p.add_argument("--b", type=int, default=5, help="backoff bound of the enhanced rules")
    p.add_argument("--no-suppress-after-critical", action="store_true")
    p.add_argument("--normal-slots", type=int, default=100)
    p.add_argument("--x-fixed", type=int, default=20,
                   help="fixed critical-traffic length in slots")
    p.add_argument("--x-geometric", type=float, default=None,
                   help="geometric critical-traffic mean (overrides --x-fixed)")
    p.add_argument("--scenario", choices=[s.value for s in Scenario],
                   default=Scenario.SINGLE_CRITICAL.value)
    p.add_argument("--trace-output", default=None,
                   help="write per-slot trace records (CSV) to this file")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="tabulate metrics/optima along one axis")
    p.add_argument("--axis", choices=[a.value for a in SweepAxis], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--eta", type=float, default=math.inf)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--from", dest="sweep_from", type=float, default=None)
    p.add_argument("--to", dest="sweep_to", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    _add_common(p, default_format="csv")
    p.set_defaults(func=_cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call; a parse leaves no state in it."""
    return build_parser()


def _config_tokens(path: str) -> list[str]:
    tokens = []
    for number, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"line {number} is not key=value: {line}")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(f"--{key}")
        else:
            tokens += [f"--{key}", value]
    return tokens


def _check_paths(args, cfg_path: str | None) -> None:
    """Refuse an unread --config, and two of --config, --output and --trace-output naming one file.

    Run before any output is opened, so a refused command leaves every file as it was.
    """
    if args.config is not None:  # a second --config (on the line or in the file), or abbreviated
        raise BadParams(f"only one --config is read, spelled in full: not {args.config}")
    named: dict[Path, tuple[str, str]] = {}
    for flag, path in (("--config", cfg_path), ("--output", args.output),
                       ("--trace-output", getattr(args, "trace_output", None))):
        if path:
            first, first_path = named.setdefault(Path(path).resolve(), (flag, path))
            if first != flag:
                raise BadParams(f"{first} and {flag} name the same file {first_path}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    cfg_path = None
    i = next((i for i, tok in enumerate(argv) if tok.partition("=")[0] == "--config"), None)
    if i is not None:
        # spelled --config PATH (two tokens) or --config=PATH (one)
        _, eq, cfg_path = argv[i].partition("=")
        end = i + 1
        if not eq and i + 1 < len(argv):
            cfg_path, end = argv[i + 1], i + 2
        if not cfg_path:
            print("error: --config needs a path", file=sys.stderr)
            return EXIT_BAD_ARGS
        try:
            tokens = _config_tokens(cfg_path)
        except (OSError, ValueError) as exc:  # ValueError: undecodable, or a line without =
            print(f"error: cannot read config file {cfg_path}: {exc}", file=sys.stderr)
            return EXIT_BAD_ARGS
        # with --config and its path taken out, the subcommand name comes first
        # (wherever --config stood); the file's flags go right after it, so
        # explicit flags, parsed later, override them
        argv = argv[:i] + argv[end:]
        argv = argv[:1] + tokens + argv[1:]
    args = _parser().parse_args(argv)
    try:
        _check_paths(args, cfg_path)
        return args.func(args)
    except (BadParams, ScenarioUnsatisfiable, SingularSystem) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, SingularSystem) else EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
