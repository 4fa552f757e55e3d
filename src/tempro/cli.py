"""Command-line front end.

Subcommands: ``project`` (theory + basic facts -> per-cell curves as CSV),
``query`` (combined probability of a fact at a time, from a projection CSV),
``acquire`` (fold completed-stay observations into a persistence state file),
``simulate`` (sample a scenario into facts/observations plus a convergence
report).

Exit codes: 0 success, 1 usage, 2 parse/validation errors in input files,
3 cyclic open tokens during refinement, 4 I/O errors.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings

from .acquisition import (
    load_state,
    observe_lifetime,
    parse_observations,
    save_state_file,
)
from .core import GridError, TimeGrid, auto_mesh_factor
from .projection import project
from .refinement import CyclicOpenTokens, refine
from .simulator import generate, parse_scenario, run_convergence
from .theory import (
    ParseError,
    Pattern,
    parse_pattern_text,
    parse_theory,
    statements,
    unify,
)
from .tokens import TokenStore, load_basic_facts, parse_basic_facts

USAGE_ERROR = 1
PARSE_ERROR = 2
CYCLE_ERROR = 3
IO_ERROR = 4

_SNAP = 1e-9

# The most cells a refined grid may have, --omega times the mesh factor.
# Every curve takes 8 bytes per cell, so one curve of this many takes 80 MB.
MAX_CELLS = 10_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on bad flags, not argparse's 2
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _read(path: str) -> str:
    with open(path, "r") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None


def _undecodable(path: str, exc: UnicodeDecodeError) -> ParseError:
    """A parse error naming ``path`` at the line and column of the first byte
    that its encoding cannot decode.  ``exc`` may come from a chunk of the
    file, so the file is decoded again as a whole to place the byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        exc = whole
    head = exc.object[: exc.start].decode(exc.encoding)
    head = head.replace("\r\n", "\n").replace("\r", "\n")
    return ParseError(
        f"{path} is not {exc.encoding} text: byte 0x{exc.object[exc.start]:02x}, {exc.reason}",
        head.count("\n") + 1,
        len(head) - head.rfind("\n"),
    )


def _resolve_mesh(delta: float, mesh: str, window_widths: list[float]) -> int:
    if mesh == "auto":
        try:
            return auto_mesh_factor(delta, window_widths)
        except GridError as exc:
            raise _UsageError(f"--mesh auto: {exc}") from None
    try:
        value = float(mesh)
    except ValueError:
        raise _UsageError(f"--mesh must be 'auto' or a number, got {mesh!r}")
    if not (0 < value <= delta * (1 + _SNAP)):
        raise _UsageError(f"--mesh must lie in (0, delta]; got {value} with delta {delta}")
    ratio = delta / value
    if math.isinf(ratio):
        raise _UsageError(f"--mesh {value} is too fine to divide delta {delta}")
    factor = round(ratio)
    if factor < 1 or abs(ratio - factor) > _SNAP * factor:
        raise _UsageError(f"--mesh {value} does not evenly divide delta {delta}")
    return factor


def _csv_field(text: str) -> str:
    """``text`` as a field of a ``csv.writer`` row of several fields, with
    ``lineterminator="\\n"``: quoted, with each ``"`` doubled, when it holds
    the delimiter, the quote character or the line terminator."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_projection_csv(
    handle, store: TokenStore, grid: TimeGrid, metadata: dict[str, object]
) -> None:
    """Write the projection CSV to ``handle``, one token at a time.

    A token's rows run from its first written cell to its last, where a
    written cell holds any value but ``+0.0``; a token with no written cell
    keeps its cell-1 row, so its type stays in the file.  Every row left
    out has the value ``0``.  Each row is the token's head,
    ``token_id,type,kind,``, then its cell's template, ``cell,time,%.12g``
    and a newline.  The templates are built once per grid and the head once
    per token, with the type quoted as ``csv.writer`` quotes it (once per
    distinct type) and each ``%`` doubled; one ``%`` over the values of a
    token's span then formats all of its rows.  ``%.12g`` gives the same
    text as ``format(v, ".12g")``.
    """
    for key, value in metadata.items():
        handle.write(f"# {key}={value}\n")
    handle.write("token_id,type,kind,cell,time,value\n")
    cells = [f"{i},{_fmt(grid.cell_start(i))},%.12g\n" for i in range(1, grid.omega + 1)]
    curves = [(e.tid, str(e.event_type), "density", e.density.values) for e in store.events]
    curves += [(f.tid, str(f.fact_type), "mass", f.mass.values) for f in store.facts]
    quoted: dict[str, str] = {}
    for tid, token_type, kind, values in curves:
        # +0.0 is the one float whose bits are all zero, so the written cells
        # run from the cell of the first non-zero byte to that of the last.
        live = values.tobytes().rstrip(b"\0")
        first = (len(live) - len(live.lstrip(b"\0"))) // 8
        stop = (len(live) + 7) // 8 or 1
        field = quoted.get(token_type)
        if field is None:
            field = quoted[token_type] = _csv_field(token_type).replace("%", "%%")
        head = f"{tid},{field},{kind},"
        handle.write((head + head.join(cells[first:stop])) % tuple(values[first:stop]))


def _write_plot_script(path: str, csv_path: str, store: TokenStore) -> None:
    plotted = [(f.tid, str(f.fact_type), "mass") for f in store.facts]
    if not plotted:
        plotted = [(e.tid, str(e.event_type), "density") for e in store.events]
    lines = [
        "set datafile separator ','",
        "set xlabel 'time'",
        "set ylabel 'probability'",
        "set key outside right",
        "set grid",
    ]
    plots = [
        f"'{os.path.basename(csv_path)}' every ::1 "
        f"using 5:($1=={tid} && strcol(3) eq '{kind}' ? $6 : 1/0) "
        f"with steps title '{label} #{tid}'"
        for tid, label, kind in plotted
    ]
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def cmd_project(args: argparse.Namespace) -> int:
    try:
        coarse = TimeGrid(args.origin, args.delta, args.omega)
    except GridError as exc:
        raise _UsageError(str(exc)) from None
    if not args.epsilon >= 0:  # also rejects nan
        raise _UsageError(f"epsilon must be >= 0, got {args.epsilon!r}")
    theory = parse_theory(_read(args.theory))
    specs = parse_basic_facts(_read(args.facts))
    factor = _resolve_mesh(args.delta, args.mesh, [s.lst - s.est for s in specs])
    cells = args.omega * factor
    if cells > MAX_CELLS:
        count = str(cells) if cells < 10**15 else f"about 10^{math.floor(math.log10(cells))}"
        raise _UsageError(
            f"--omega {args.omega} at --mesh {args.mesh} makes {count} cells, "
            f"more than the {MAX_CELLS} a grid may hold"
        )
    grid = coarse.refined(factor)
    store = TokenStore()
    load_basic_facts(store, specs, grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        project(theory, store, grid)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    refine(store, theory, grid, args.epsilon)
    metadata = {
        "generator": "tempro project",
        "theory": args.theory,
        "facts": args.facts,
        "origin": _fmt(args.origin),
        "delta": _fmt(args.delta),
        "omega": args.omega,
        "mesh": _fmt(grid.delta),
        "cells": grid.omega,
        "epsilon": _fmt(args.epsilon),
    }
    with open(args.out, "w") as handle:
        _write_projection_csv(handle, store, grid, metadata)
    if args.plot:
        _write_plot_script(args.out + ".gp", args.out, store)
    return 0


class _CsvRows:
    """The data rows of a projection CSV, less the header, with the file
    line number of each.  Iterating parses them with ``csv.reader``."""

    def __init__(self, lines: list[str], runs: list[tuple[int, int]], end: int) -> None:
        # ``lines`` are the file's lines that are neither blank nor ``#``
        # lines; the first is the header.  ``runs`` holds ``(index, file
        # line)`` where each stretch of consecutive file lines begins, and
        # ``end`` is the file's last line number.
        self.header = next(csv.reader(lines[:1]), None)
        self._kept = len(lines)
        self._runs = runs
        self._end = end
        del lines[:1]
        self._rows = lines

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return csv.reader(self._rows)

    def line_of(self, row: int) -> int:
        """File line number of data row ``row`` (1-based; 0 is the header)."""
        if row < self._kept:
            for index, line in reversed(self._runs):
                if index <= row:
                    return line + row - index
        return self._end

    def column(self, name: str) -> int:
        """Index of the header column ``name``."""
        if self.header is None:
            raise ParseError("projection CSV has no header line", 1, 1)
        try:
            return self.header.index(name)
        except ValueError:
            raise ParseError(
                f"projection CSV header lacks the {name!r} column", self.line_of(0), 1
            ) from None


def _load_projection_csv(path: str) -> tuple[dict[str, str], _CsvRows]:
    """The ``# key=value`` metadata and the data rows of a projection CSV,
    read in one pass."""
    metadata: dict[str, str] = {}
    lines: list[str] = []
    runs: list[tuple[int, int]] = []
    after = 0  # the file line just after the last line kept
    lineno = 0
    with open(path, "r") as handle:
        try:
            for lineno, line in enumerate(handle, 1):
                if line[0] == "#":
                    key, eq, value = line[1:].partition("=")
                    if eq:
                        metadata[key.strip()] = value.strip()
                elif not line.isspace():
                    if lineno != after:
                        runs.append((len(lines), lineno))
                    lines.append(line)
                    after = lineno + 1
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
    return metadata, _CsvRows(lines, runs, lineno)


def _masses_at(rows: _CsvRows, pattern: Pattern, cell: int) -> dict[str, list[float]]:
    """The mass values at ``cell`` of every type matching ``pattern``, by
    type text in row order.  A type with a mass row at any cell is listed,
    with no values where it has no row at ``cell``, which reads as mass 0.
    Each distinct cell and type text is parsed once."""
    kind_at, cell_at, type_at, value_at = (
        rows.column(name) for name in ("kind", "cell", "type", "value")
    )
    at_cell: dict[str, bool] = {}
    matches: dict[str, bool] = {}
    masses: dict[str, list[float]] = {}
    reader = iter(rows)
    try:
        for row in reader:
            if row[kind_at] != "mass":
                continue
            cell_text = row[cell_at]
            in_cell = at_cell.get(cell_text)
            if in_cell is None:
                in_cell = at_cell[cell_text] = int(cell_text) == cell
            type_text = row[type_at]
            matched = matches.get(type_text)
            if matched is None:
                ground = parse_pattern_text(type_text)
                matched = matches[type_text] = unify(pattern, ground) is not None
                if matched:
                    masses[type_text] = []
            if matched and in_cell:
                masses[type_text].append(float(row[value_at]))
    except ParseError:
        raise
    except (IndexError, ValueError, csv.Error) as exc:
        problem = "too few fields" if isinstance(exc, IndexError) else str(exc)
        raise ParseError(
            f"bad projection CSV row: {problem}", rows.line_of(reader.line_num), 1
        ) from None
    return masses


def cmd_query(args: argparse.Namespace) -> int:
    metadata, rows = _load_projection_csv(args.csv)
    try:
        grid = TimeGrid(
            float(metadata["origin"]), float(metadata["mesh"]), int(metadata["cells"])
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"projection CSV lacks grid metadata ({exc})", 1, 1) from exc
    if not (grid.origin <= args.time < grid.end):
        raise _UsageError(
            f"time {args.time} outside the horizon [{grid.origin}, {grid.end})"
        )
    cell = grid.time_to_cell(args.time)
    pattern = parse_pattern_text(args.fact)
    masses = _masses_at(rows, pattern, cell)
    if not masses:
        print(f"warning: no fact matching {pattern} in {args.csv}", file=sys.stderr)
        if pattern.is_ground:
            print(_fmt(0.0))
        return 0
    for type_text in sorted(masses):
        survived = 1.0
        for m in masses[type_text]:
            survived *= 1.0 - m
        combined = 1.0 - survived
        if pattern.is_ground:
            print(_fmt(combined))
        else:
            print(f"{type_text} {_fmt(combined)}")
    return 0


def cmd_acquire(args: argparse.Namespace) -> int:
    store = load_state(_read(args.state))
    observations = parse_observations(_read(args.observations))
    for obs in observations:
        try:
            observe_lifetime(store, obs.key, obs.arrival, obs.departure)
        except ValueError as exc:  # an unknown class, or a stay or sum that overflows
            raise ParseError(str(exc), obs.line, 1) from exc
    save_state_file(store, args.state)
    print(f"folded {len(observations)} observations into {len(store.classes)} classes")
    return 0


def _seed(text: str) -> int:
    """``--seed`` read as a scenario file reads its ``seed``: ``1e3`` is 1000,
    and a fraction, ``inf`` or a negative number is refused (``random.Random``
    would seed -5 as 5)."""
    try:
        (cur,) = statements(text)
        seed = cur.take_count("seed", "a seed")
        cur.expect_end()
    except ValueError:  # also ParseError, and no token or more than one line
        raise _UsageError(
            f"--seed must be an integer in [0, {sys.float_info.max!r}], got {text!r}"
        ) from None
    return seed


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = None if args.seed is None else _seed(args.seed)
    scenario = parse_scenario(_read(args.scenario))
    if seed is not None:
        scenario.seed = seed
    output = generate(scenario)
    rows = run_convergence(scenario, args.family)
    os.makedirs(args.outdir, exist_ok=True)
    with open(os.path.join(args.outdir, "facts.txt"), "w") as handle:
        handle.write(output.facts_text)
    with open(os.path.join(args.outdir, "observations.txt"), "w") as handle:
        handle.write(output.observations_text)
    with open(os.path.join(args.outdir, "convergence.csv"), "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["class", "n", "acquired_lambda", "reference_lambda", "relative_error"])
        for row in rows:
            writer.writerow(
                [row.class_key, row.n, _fmt(row.acquired),
                 _fmt(row.reference), _fmt(row.relative_error)]
            )
    for row in rows:
        print(
            f"{row.class_key} n={row.n} acquired={_fmt(row.acquired)} "
            f"reference={_fmt(row.reference)} rel_error={_fmt(row.relative_error)}"
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tempro", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_project = sub.add_parser("project", help="project a theory over basic facts")
    p_project.add_argument("--theory", required=True, help="rule file")
    p_project.add_argument("--facts", required=True, help="basic-facts file")
    p_project.add_argument("--delta", type=float, required=True, help="cell width")
    p_project.add_argument("--omega", type=int, required=True, help="number of cells")
    p_project.add_argument("--origin", type=float, default=0.0, help="grid start time")
    p_project.add_argument("--epsilon", type=float, default=1e-4, help="closure threshold")
    p_project.add_argument(
        "--mesh",
        default="auto",
        help="working cell width: 'auto' (half the smallest event window) or a divisor of delta",
    )
    p_project.add_argument("--plot", action="store_true", help="also write a gnuplot script")
    p_project.add_argument("--out", required=True, help="output CSV path")
    p_project.set_defaults(func=cmd_project)

    p_query = sub.add_parser("query", help="combined fact probability at a time")
    p_query.add_argument("--csv", required=True, help="projection CSV from 'project'")
    p_query.add_argument("--fact", required=True, help="fact pattern, e.g. 'ATDOCK(TRUCK14)'")
    p_query.add_argument("--time", type=float, required=True)
    p_query.set_defaults(func=cmd_query)

    p_acquire = sub.add_parser("acquire", help="update persistence state from observations")
    p_acquire.add_argument("--state", required=True, help="state file (updated in place)")
    p_acquire.add_argument("--observations", required=True, help="completed-stay file")
    p_acquire.set_defaults(func=cmd_acquire)

    p_simulate = sub.add_parser("simulate", help="sample a scenario and report convergence")
    p_simulate.add_argument("--scenario", required=True)
    p_simulate.add_argument("--outdir", required=True)
    p_simulate.add_argument("--seed", default=None, help="override the scenario seed")
    p_simulate.add_argument(
        "--family", choices=("exponential", "linear"), default="exponential"
    )
    p_simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except CyclicOpenTokens as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CYCLE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
