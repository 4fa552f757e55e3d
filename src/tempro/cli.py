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
import re
import sys
import warnings
from collections.abc import Callable
from itertools import chain

from .core import SNAP_REL, GridError, TimeGrid, auto_mesh_factor
from .theory import (
    ParseError,
    Pattern,
    parse_pattern_text,
    parse_theory,
    statements,
    unify,
)

# The names each command loads when it runs, by the module that defines
# them.  ``theory`` and ``core`` serve every command and load with this one;
# the rest load on first read, through ``__getattr__``, so ``query`` does
# not pay for the projector nor ``acquire`` for the refiner.
_LAYERS = {
    "TokenStore": "tokens",
    "load_basic_facts": "tokens",
    "parse_basic_facts": "tokens",
    "project": "projection",
    "CyclicOpenTokens": "refinement",
    "refine": "refinement",
    "load_state": "acquisition",
    "parse_observations": "acquisition",
    "save_state_file": "acquisition",
    "generate": "simulator",
    "parse_scenario": "simulator",
    "run_convergence": "simulator",
}


def __getattr__(name: str):
    """Load ``name``'s layer and bind ``name`` here (PEP 562)."""
    module = _LAYERS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from .<module> import <name>``, which ``-X importtime`` reports.
    value = globals()[name] = getattr(__import__(module, globals(), None, [name], 1), name)
    return value


def _load(*layers: str) -> None:
    """Bind here each name of ``_LAYERS`` that ``layers`` define, before a
    command calls it.  A name already bound, such as a wrapper set on this
    module, stays as it is, so the command calls what the module holds."""
    module = sys.modules[__name__]
    for name, layer in _LAYERS.items():
        if layer in layers:
            getattr(module, name)


USAGE_ERROR = 1
PARSE_ERROR = 2
CYCLE_ERROR = 3
IO_ERROR = 4

# The most cells a refined grid may have, --omega times the mesh factor.
# A curve takes 8 bytes per cell of its span, so one spanning this many takes 80 MB.
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
    if not (0 < value <= delta * (1 + SNAP_REL)):
        raise _UsageError(f"--mesh must lie in (0, delta]; got {value} with delta {delta}")
    ratio = delta / value
    if math.isinf(ratio):
        raise _UsageError(f"--mesh {value} is too fine to divide delta {delta}")
    factor = round(ratio)
    if factor < 1 or abs(ratio - factor) > SNAP_REL * factor:
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
    curves = [(e.tid, str(e.event_type), "density", e.density) for e in store.events]
    curves += [(f.tid, str(f.fact_type), "mass", f.mass) for f in store.facts]
    quoted: dict[str, str] = {}
    for tid, token_type, kind, curve in curves:
        # +0.0 is the one float whose bits are all zero, so the written cells
        # run from the cell of the span's first non-zero byte to that of its
        # last; with none, the cell-1 row holds 0.
        live = curve.values.tobytes().rstrip(b"\0")
        skip = (len(live) - len(live.lstrip(b"\0"))) // 8
        start = curve.first - 1 + skip if live else 0
        span = curve.values[skip : (len(live) + 7) // 8] or (0.0,)
        field = quoted.get(token_type)
        if field is None:
            field = quoted[token_type] = _csv_field(token_type).replace("%", "%%")
        head = f"{tid},{field},{kind},"
        handle.write((head + head.join(cells[start : start + len(span)])) % tuple(span))


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
    _load("tokens", "projection", "refinement")
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
    try:
        refine(store, theory, grid, args.epsilon)
    except CyclicOpenTokens as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CYCLE_ERROR
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


# The metadata keys that give a projection CSV's grid, as the file writes
# them, with how each value is read, what ``TimeGrid`` requires of it and the
# largest value accepted: a grid has at most the cells ``project`` writes.
_GRID_KEYS = {
    "origin": (float, math.isfinite, "a finite number", math.inf),
    "mesh": (float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0", math.inf),
    "cells": (int, lambda v: v >= 1, "an integer >= 1", MAX_CELLS),
}


def _metadata_grid(metadata: dict[str, tuple[str, int]]) -> TimeGrid:
    """The grid that a projection CSV's metadata gives.  A missing key and a
    bad value are parse errors that name the key, a bad value at its line."""
    values = []
    for key, (read, valid, wanted, most) in _GRID_KEYS.items():
        if key not in metadata:
            raise ParseError(f"projection CSV has no grid metadata line '# {key}=...'", 1, 1)
        text, line = metadata[key]
        try:
            value = read(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise ParseError(f"grid metadata {key} must be {wanted}, got {text!r}", line, 1)
        if value > most:
            raise ParseError(f"grid metadata {key} must be at most {most}, got {text!r}", line, 1)
        values.append(value)
    return TimeGrid(*values)


# A type text in the canonical ground form that ``str(Pattern)`` writes,
# ``NAME`` or ``NAME(C1,...,Cn)``.  Each group is a whole token of the
# statement reader, so a text it matches reads to the same pattern there.
# ``re`` compiles it on first use, so importing this module does not.
_GROUND_TYPE = r"([A-Z][A-Z0-9_]*)(?:\(([A-Z][A-Z0-9_]*(?:,[A-Z][A-Z0-9_]*)*)\))?"


def _type_pattern(text: str) -> Pattern:
    """``parse_pattern_text(text)``.  A text in canonical ground form is read
    from one regex match; any other goes to ``parse_pattern_text``, which
    reads it or raises its error."""
    match = re.fullmatch(_GROUND_TYPE, text)
    if match is None:
        return parse_pattern_text(text)
    name, args = match.groups()
    return Pattern(name, tuple(args.split(",")) if args else ())


def _load_projection_csv(
    path: str, locate: Callable[[TimeGrid], tuple[Pattern, int]]
) -> tuple[TimeGrid, dict[str, list[float]]]:
    """Read the projection CSV at ``path`` once, line by line: its grid, and
    the mass values at the queried cell of every type that matches, by the
    type's canonical text (``str`` of the parsed type) in row order, so
    spellings of one type such as ``F(X)`` and ``F( X )`` are one type.

    At the first data row, or at the end of a file that has none, the grid
    is built from the ``# origin=``, ``# mesh=`` and ``# cells=`` lines read
    so far, and ``locate(grid)`` gives the pattern and the cell to read.
    Such a line after the first data row is a parse error at its line.  A
    type with a mass row at any cell is listed, with no values where it has
    no row at the cell, which reads as mass 0.  Each value kept must be a
    number in [0, 1]; anything else is a bad row.  Only those lines and
    values are kept; each distinct cell and type text is parsed once.  One
    U+FEFF at the very start of the file, the byte-order mark a spreadsheet
    writes, is skipped; anywhere else it is a character of its field.

    A data row on one line that is ASCII, holds no ``"`` and is no longer
    than the CSV field limit is split at its commas, which gives the fields
    that ``csv.reader`` gives.  Every other line goes to ``csv.reader``,
    which also reads a quoted field that runs over several lines.  The
    fields of both go to the same checks.
    """
    grid_lines: dict[str, tuple[str, int]] = {}
    at = 0  # the file line of the last data line read
    started = False  # whether the first data row has been read

    def kept(numbered):
        """The lines of ``numbered``, pairs of line number and line, that
        are neither blank nor ``#`` lines."""
        nonlocal at
        for lineno, line in numbered:
            if not line.isascii():
                try:  # an undecodable byte reads as a lone surrogate, whose byte fails again
                    line.encode(handle.encoding, "surrogateescape").decode(handle.encoding)
                except UnicodeDecodeError as exc:
                    raise _undecodable(path, exc) from None
            if line[0] == "#":
                key, eq, value = line[1:].partition("=")
                key = key.strip()
                if eq and key in _GRID_KEYS:
                    if started:
                        raise ParseError(
                            f"grid metadata line '# {key}=...' after the first data row", lineno, 1
                        )
                    grid_lines[key] = (value.strip(), lineno)
            elif not line.isspace():
                at = lineno
                yield line

    at_cell: dict[str, bool] = {}
    matches: dict[str, str] = {}  # type text -> canonical text if it matches, else ""
    masses: dict[str, list[float]] = {}
    limit = csv.field_size_limit()
    with open(path, "r", errors="surrogateescape") as handle:
        if handle.read(1) != "\ufeff":  # the byte-order mark of a file saved as "CSV UTF-8"
            handle.seek(0)
        numbered = enumerate(handle, 1)
        lines = kept(numbered)
        try:
            header = next(lines, None)
            names = next(csv.reader((header,))) if header else None
            header_at = at
            first = next(lines, None)
            started = True
            grid = _metadata_grid(grid_lines)
            pattern, cell = locate(grid)
            if names is None:
                raise ParseError("projection CSV has no header line", 1, 1)
            columns = []
            for name in ("kind", "cell", "type", "value"):
                if name not in names:
                    raise ParseError(
                        f"projection CSV header lacks the {name!r} column", header_at, 1
                    )
                if names.count(name) > 1:
                    raise ParseError(
                        f"projection CSV header has more than one {name!r} column", header_at, 1
                    )
                columns.append(names.index(name))
            kind_at, cell_at, type_at, value_at = columns
            numbered = chain(((at, first),), numbered) if first else ()
            for at, line in numbered:
                if (line.isascii() and '"' not in line and line[0] != "#"
                        and len(line) <= limit and not line.isspace()):
                    row = line.rstrip("\n").split(",")
                else:  # the reader pulls the lines of a quoted field that runs on
                    row = next(csv.reader(kept(chain(((at, line),), numbered))), None)
                    if row is None:
                        break
                if row[kind_at] != "mass":
                    continue
                cell_text = row[cell_at]
                in_cell = at_cell.get(cell_text)
                if in_cell is None:
                    in_cell = at_cell[cell_text] = int(cell_text) == cell
                type_text = row[type_at]
                canonical = matches.get(type_text)
                if canonical is None:
                    try:
                        ground = _type_pattern(type_text)
                    except ParseError as exc:  # placed in the type text, not in the file
                        raise ValueError(exc.message) from None
                    matched = unify(pattern, ground) is not None
                    canonical = matches[type_text] = str(ground) if matched else ""
                    if matched:
                        masses.setdefault(canonical, [])
                if canonical and in_cell:
                    mass = float(row[value_at])
                    if not 0.0 <= mass <= 1.0:  # also refuses nan
                        raise ValueError(f"mass must be a number in [0, 1], got {row[value_at]!r}")
                    masses[canonical].append(mass)
        except ParseError:
            raise
        except (IndexError, ValueError, csv.Error) as exc:
            problem = "too few fields" if isinstance(exc, IndexError) else str(exc)
            raise ParseError(f"bad projection CSV row: {problem}", at, 1) from None
    return grid, masses


def cmd_query(args: argparse.Namespace) -> int:
    pattern = None

    def locate(grid: TimeGrid) -> tuple[Pattern, int]:
        """Check ``--time`` against ``grid``'s horizon by the cell it snaps
        to, then parse ``--fact``."""
        nonlocal pattern
        cell = 0 if math.isnan(args.time) else grid.time_to_cell(args.time)
        if not grid.contains_cell(cell):
            raise _UsageError(
                f"time {args.time} outside the horizon [{grid.origin}, {grid.end})"
            )
        pattern = parse_pattern_text(args.fact)
        return pattern, cell

    _, masses = _load_projection_csv(args.csv, locate)
    if not masses:
        print(f"warning: no fact matching {pattern} in {args.csv}", file=sys.stderr)
        if pattern.is_ground:
            print(_fmt(0.0))
        return 0
    for type_text in sorted(masses):
        combined = 0.0
        for m in masses[type_text]:
            combined += m * (1.0 - combined)
        if pattern.is_ground:
            print(_fmt(combined))
        else:
            print(f"{type_text} {_fmt(combined)}")
    return 0


def cmd_acquire(args: argparse.Namespace) -> int:
    _load("acquisition")
    store = load_state(_read(args.state))
    observations = parse_observations(_read(args.observations))
    for obs in observations:
        try:
            store.observe(obs.key, obs.departure - obs.arrival)
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
    _load("simulator")
    seed = None if args.seed is None else _seed(args.seed)
    text = _read(args.scenario)
    scenario = parse_scenario(text)
    if seed is not None:
        scenario.seed = seed
    output = generate(scenario)
    try:
        rows = run_convergence(scenario, args.family)
    except ValueError as exc:  # a class whose completed stays sum past the largest float
        (statement,) = statements(text)
        raise ParseError(str(exc), statement.lineno, 1) from exc
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
