"""Command-line interface: subcommands, file formats, and exit codes."""
from __future__ import annotations

import collections.abc
import csv
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from tempro import (
    Exponential,
    Pattern,
    StepSeries,
    TimeGrid,
    TokenStore,
    UserSupplied,
    add_basic_event,
    load_basic_facts,
    load_state,
    parse_pattern_text,
    parse_scenario,
    parse_theory,
    project,
    rate,
    refine,
    run_convergence,
    save_state,
    unify,
)
from tempro import cli
from tempro.acquisition import _observation
from tempro.cli import _write_projection_csv, main
from tempro.theory import ParseError, statements


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_csv(path):
    with open(path) as handle:
        return _csv_rows(handle)


def _csv_rows(lines):
    """The ``# key=value`` metadata and the ``DictReader`` rows of ``lines``."""
    metadata, data = {}, []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata[key.strip()] = value.strip()
        else:
            data.append(line)
    return metadata, list(csv.DictReader(data))


def _fmt(x):
    return format(x, ".12g")


def _expand_csv(text):
    """A projection CSV with every token given a row at every cell: the
    written rows keep their bytes, and each absent row reads ``0``.  Tokens
    keep the order of their first rows; the grid comes from the metadata."""
    lines = text.splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    header, *data = [line for line in lines if not line.startswith("#")]
    metadata, _ = _csv_rows(comments)
    grid = TimeGrid(float(metadata["origin"]), float(metadata["mesh"]), int(metadata["cells"]))
    tokens = {}
    for line, row in zip(data, csv.reader(data)):
        tokens.setdefault(tuple(row[:3]), {})[int(row[3])] = line
    out = io.StringIO()
    out.write("".join(comments) + header)
    writer = csv.writer(out, lineterminator="\n")
    for token, written in tokens.items():
        for cell in range(1, grid.omega + 1):
            if cell in written:
                out.write(written[cell])
            else:
                writer.writerow([*token, cell, _fmt(grid.cell_start(cell)), "0"])
    return out.getvalue()


def _read_dense_csv(path):
    """``_read_csv`` of the projection CSV at ``path`` expanded back to one
    row per token and cell, an absent row reading ``0``."""
    with open(path) as handle:
        return _csv_rows(_expand_csv(handle.read()).splitlines(keepends=True))


@pytest.fixture()
def dock_csv(tmp_path, data_dir, capsys):
    out = tmp_path / "dock.csv"
    code, _, err = _run(
        capsys,
        "project",
        "--theory", str(data_dir / "dock.rules"),
        "--facts", str(data_dir / "dock.facts"),
        "--delta", "1", "--omega", "200",
        "--out", str(out),
    )
    assert code == 0, err
    return out


class TestProject:
    def test_writes_csv_with_metadata(self, dock_csv):
        metadata, rows = _read_dense_csv(dock_csv)
        assert metadata["delta"] == "1"
        assert metadata["omega"] == "200"
        assert metadata["mesh"] == "1"
        assert metadata["cells"] == "200"
        assert set(rows[0]) == {"token_id", "type", "kind", "cell", "time", "value"}
        kinds = {r["kind"] for r in rows}
        assert kinds == {"density", "mass"}
        # ARRIVE density + ATDOCK onset density + ALWAYS + ATDOCK fact masses
        assert len(rows) == 4 * 200

    def test_csv_matches_library_pipeline(self, dock_csv, dock_rules_text):
        _, rows = _read_dense_csv(dock_csv)
        theory = parse_theory(dock_rules_text)
        grid = TimeGrid(0.0, 1.0, 200)
        store = TokenStore()
        add_basic_event(store, Pattern("ARRIVE", ("TRUCK14",)), 0.0, 10.0, 1.0, grid)
        project(theory, store, grid)
        refine(store, theory, grid, 1e-4)
        (dock,) = store.facts_of_type(("ATDOCK", 1))
        got = [
            float(r["value"])
            for r in rows
            if r["type"] == "ATDOCK(TRUCK14)" and r["kind"] == "mass"
        ]
        assert len(got) == 200
        assert np.allclose(got, dock.mass.window(1, grid.omega), rtol=1e-10, atol=1e-12)

    def test_deterministic_output(self, tmp_path, data_dir, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = _run(
                capsys, "project",
                "--theory", str(data_dir / "dock.rules"),
                "--facts", str(data_dir / "dock.facts"),
                "--delta", "2", "--omega", "100",
                "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_explicit_mesh_refines_grid(self, tmp_path, data_dir, capsys):
        out = tmp_path / "fine.csv"
        code, _, _ = _run(
            capsys, "project",
            "--theory", str(data_dir / "dock.rules"),
            "--facts", str(data_dir / "dock.facts"),
            "--delta", "2", "--omega", "100", "--mesh", "0.5",
            "--out", str(out),
        )
        assert code == 0
        metadata, rows = _read_dense_csv(out)
        assert metadata["mesh"] == "0.5"
        assert metadata["cells"] == "400"
        assert len([r for r in rows if r["kind"] == "mass"]) == 2 * 400

    def test_auto_mesh_subdivides_for_narrow_windows(self, tmp_path, capsys):
        theory = tmp_path / "t.rules"
        theory.write_text(
            "persist F(?x) exp 0.1\nproject ALWAYS, E(?x) => F(?x) @ 1.0\n"
        )
        facts = tmp_path / "f.facts"
        facts.write_text("event E(X) est 0 lst 2 kappa 1.0\n")
        out = tmp_path / "out.csv"
        code, _, _ = _run(
            capsys, "project",
            "--theory", str(theory), "--facts", str(facts),
            "--delta", "4", "--omega", "25", "--mesh", "auto",
            "--out", str(out),
        )
        assert code == 0
        metadata, _ = _read_csv(out)
        # narrowest window is 2, so cells must shrink to at most 1: factor 4
        assert metadata["mesh"] == "1"
        assert metadata["cells"] == "100"

    def test_mesh_must_divide_delta(self, tmp_path, data_dir, capsys):
        code, _, err = _run(
            capsys, "project",
            "--theory", str(data_dir / "dock.rules"),
            "--facts", str(data_dir / "dock.facts"),
            "--delta", "2", "--omega", "100", "--mesh", "0.3",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "mesh" in err

    def test_tiny_linear_slope_projects_like_slope_zero(self, tmp_path, data_dir, capsys):
        # slope * delta underflows to 0 at 5e-324; 1 / (slope * delta) overflows at 1e-310
        rows = {}
        for slope in ["0", "5e-324", "1e-310"]:
            rules, out = tmp_path / f"{slope}.rules", tmp_path / f"{slope}.csv"
            rules.write_text(
                f"persist ATDOCK(?t) lin {slope}\n"
                "project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0\n"
            )
            code, _, err = _run(
                capsys, "project", "--theory", str(rules),
                "--facts", str(data_dir / "dock.facts"),
                "--delta", "0.25", "--omega", "100", "--out", str(out),
            )
            assert (code, err) == (0, "")
            rows[slope] = [line for line in out.read_text().splitlines() if line[:1] != "#"]
        assert rows["5e-324"] == rows["0"] == rows["1e-310"]

    def test_missing_persistence_warns_once_per_type(self, tmp_path, capsys):
        facts = tmp_path / "three.facts"
        facts.write_text(
            "".join(f"event ARRIVE(T{k}) est {k} lst {k + 2} kappa 1.0\n" for k in range(3))
        )
        errs, rows = [], []
        for persist in ["", "persist ATDOCK(?t) exp 0\n"]:
            rules, out = tmp_path / "t.rules", tmp_path / "t.csv"
            rules.write_text(persist + "project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0\n")
            code, _, err = _run(
                capsys, "project", "--theory", str(rules), "--facts", str(facts),
                "--delta", "1", "--omega", "20", "--out", str(out),
            )
            assert code == 0, err
            errs.append(err)
            rows.append([line for line in out.read_text().splitlines() if line[:1] != "#"])
        assert errs[0] == (
            "warning: no persistence rule matches some ATDOCK/1 facts; "
            "assuming they never decay\n"
        )
        assert errs[1] == ""
        assert rows[0] == rows[1]

    def test_plot_is_not_an_option(self, tmp_path, data_dir, capsys):
        out = tmp_path / "dock.csv"
        code, stdout, err = _run(
            capsys, "project",
            "--theory", str(data_dir / "dock.rules"),
            "--facts", str(data_dir / "dock.facts"),
            "--delta", "2", "--omega", "100", "--plot",
            "--out", str(out),
        )
        assert (code, stdout, err) == (1, "", "error: unrecognized arguments: --plot\n")
        assert list(tmp_path.iterdir()) == []

    def test_line_breaks_in_paths_stay_on_their_metadata_lines(self, tmp_path, data_dir, capsys):
        rules, facts = tmp_path / "d\nock.rules", tmp_path / "d\rock.facts"
        rules.write_bytes((data_dir / "dock.rules").read_bytes())
        facts.write_bytes((data_dir / "dock.facts").read_bytes())
        texts = {}
        for name, theory, basic in [("plain", data_dir / "dock.rules", data_dir / "dock.facts"),
                                    ("broken", rules, facts)]:
            out = tmp_path / f"{name}.csv"
            code, _, err = _run(
                capsys, "project", "--theory", str(theory), "--facts", str(basic),
                "--delta", "2", "--omega", "100", "--out", str(out),
            )
            assert (code, err) == (0, "")
            texts[name] = out.read_text()
            code, stdout, err = _run(
                capsys, "query", "--csv", str(out), "--fact", "ATDOCK(TRUCK14)", "--time", "60"
            )
            assert (code, err) == (0, "")
            texts[name + " query"] = stdout
        assert texts["broken query"] == texts["plain query"]
        plain, broken = texts["plain"].split("\n"), texts["broken"].split("\n")
        assert broken[1] == "# theory=" + str(rules).replace("\n", "\\n")
        assert broken[2] == "# facts=" + str(facts).replace("\r", "\\r")
        assert broken[:1] + broken[3:] == plain[:1] + plain[3:]


    def test_undecodable_bytes_in_paths_are_written_as_escapes(self, tmp_path, data_dir, capsys):
        # sys.argv carries each byte that does not decode as a lone
        # surrogate, which no metadata line may hold as it is.
        rules = tmp_path / os.fsdecode(b"d\xff.rules")
        facts = tmp_path / os.fsdecode(b"d\xc3\x28.facts")
        rules.write_bytes((data_dir / "dock.rules").read_bytes())
        facts.write_bytes((data_dir / "dock.facts").read_bytes())
        texts = {}
        for name, theory, basic in [("plain", data_dir / "dock.rules", data_dir / "dock.facts"),
                                    ("undecodable", rules, facts)]:
            out = tmp_path / f"{name}.csv"
            code, _, err = _run(
                capsys, "project", "--theory", str(theory), "--facts", str(basic),
                "--delta", "2", "--omega", "100", "--out", str(out),
            )
            assert (code, err) == (0, "")
            texts[name] = out.read_text()
            code, stdout, err = _run(
                capsys, "query", "--csv", str(out), "--fact", "ATDOCK(TRUCK14)", "--time", "60"
            )
            assert (code, err) == (0, "")
            texts[name + " query"] = stdout
        assert texts["undecodable query"] == texts["plain query"]
        plain, escaped = texts["plain"].split("\n"), texts["undecodable"].split("\n")
        assert escaped[1] == f"# theory={tmp_path}/d\\xff.rules"
        assert escaped[2] == f"# facts={tmp_path}/d\\xc3(.facts"
        assert escaped[:1] + escaped[3:] == plain[:1] + plain[3:]


_BYTE_JOIN_THEORY = """\
persist ATDOCK(?t) exp 0.0034195529591700387
persist LOADED(?t) lin 0.004
project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0
project ATDOCK(?t), LOAD(?t) => LOADED(?t) @ 0.9
"""


def _byte_join_facts(seed, count):
    """``count`` dock arrivals and loads, as the basic-facts text."""
    rng = random.Random(seed)
    lines = []
    for k in range(count):
        a = rng.uniform(0.0, 800.0)
        b = a + rng.uniform(5.0, 30.0)
        lines.append(f"event ARRIVE(T{k}) est {a!r} lst {a + 40.0!r} kappa 1.0")
        lines.append(f"event LOAD(T{k}) est {b!r} lst {b + 40.0!r} kappa 0.8")
    return "\n".join(lines) + "\n"


class TestProjectBytes:
    """The bytes of ``project``'s CSV, pinned by their sha256: a change that
    should leave every curve as it is must leave these sums as they are."""

    @pytest.mark.parametrize(
        "name,delta,omega,digest",
        [
            ("dock", "2", "1440", "52d4732de28c5c123b597be618c11e020aa14825e381445766c72e007264f120"),
            ("join", "20", "50", "a54b11f8b52d73d7d04ca092d4a8aad16d257e5828bd5e97a5ae7b4380fd5201"),
        ],
    )
    def test_csv_sha256(self, tmp_path, data_dir, capsys, monkeypatch, name, delta, omega, digest):
        if name == "dock":
            theory = (data_dir / "dock.rules").read_text()
            facts = (data_dir / "dock.facts").read_text()
        else:
            theory, facts = _BYTE_JOIN_THEORY, _byte_join_facts(7, 300)
        (tmp_path / f"{name}.rules").write_text(theory)
        (tmp_path / f"{name}.facts").write_text(facts)
        monkeypatch.chdir(tmp_path)  # the metadata lines hold the paths as given
        code, out, err = _run(
            capsys, "project", "--theory", f"{name}.rules", "--facts", f"{name}.facts",
            "--delta", delta, "--omega", omega, "--out", f"{name}.csv",
        )
        assert (code, out, err) == (0, "", "")
        assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == digest


def test_project_peak_memory_per_token_on_a_join(tmp_path, capsys):
    # 1000 arrivals and loads make 6001 tokens.  The peak holds the tokens
    # and their curves while the CSV is written, about 570 B a token.  The
    # parsed basic events kept to the end, or a quoted text kept per type
    # until the write ends, each add 35-40 B a token.
    (tmp_path / "join.rules").write_text(_BYTE_JOIN_THEORY)
    (tmp_path / "join.facts").write_text(_byte_join_facts(11, 1000))
    argv = [
        "project", "--theory", str(tmp_path / "join.rules"), "--facts", str(tmp_path / "join.facts"),
        "--delta", "20", "--omega", "50", "--out", str(tmp_path / "join.csv"),
    ]
    assert main(argv) == 0  # warm: imports, argparse and the regex caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", "")
    assert peak / 6001 < 600, peak / 6001


class TestQuery:
    def test_ground_fact_value(self, dock_csv, capsys):
        code, out, _ = _run(
            capsys, "query", "--csv", str(dock_csv),
            "--fact", "ATDOCK(TRUCK14)", "--time", "30",
        )
        assert code == 0
        value = float(out.strip())
        # cell values are end-of-cell: t=30 falls in [30, 31), whose mass is
        # the peak (~0.983 at the end of the arrival window, on this 1-minute
        # mesh) decayed for a further 21 minutes
        assert value == pytest.approx(
            0.9830640455165579 * math.exp(-(-math.log(0.95) / 15) * 21.0), rel=1e-9
        )

    def test_pattern_lists_matching_types(self, dock_csv, capsys):
        code, out, _ = _run(
            capsys, "query", "--csv", str(dock_csv),
            "--fact", "ATDOCK(?t)", "--time", "30",
        )
        assert code == 0
        assert out.startswith("ATDOCK(TRUCK14) ")

    def test_independent_tokens_combine(self, tmp_path, capsys):
        # two tokens for the same ground fact with masses 0.5 and 0.5:
        # combined probability 1 - 0.25 = 0.75
        csv_path = tmp_path / "hand.csv"
        csv_path.write_text(
            "# origin=0\n# mesh=1\n# cells=2\n"
            "token_id,type,kind,cell,time,value\n"
            "0,F(X),mass,1,0,0.5\n"
            "1,F(X),mass,1,0,0.5\n"
            "2,F(X),mass,2,1,0.1\n"
        )
        code, out, _ = _run(
            capsys, "query", "--csv", str(csv_path), "--fact", "F(X)", "--time", "0.5",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "masses,want",
        [
            (["0.5", "0.5"], "0.75"),
            (["1e-20", "1e-20"], "2e-20"),
            (["1e-300"], "1e-300"),
            (["1", "0.3"], "1"),
            (["0.3", "1"], "1"),
            (["-0", "0.25"], "0.25"),
        ],
    )
    def test_combination_keeps_small_masses(self, tmp_path, capsys, masses, want):
        # c += m * (1 - c): the same noisy-OR as 1 - prod(1 - m), exact for
        # one mass and 1 once any mass is 1.
        csv_path = tmp_path / "hand.csv"
        csv_path.write_text(
            "# origin=0\n# mesh=1\n# cells=1\ntoken_id,type,kind,cell,time,value\n"
            + "".join(f"{k},F(X),mass,1,0,{m}\n" for k, m in enumerate(masses))
        )
        code, out, _ = _run(capsys, "query", "--csv", str(csv_path), "--fact", "F(X)", "--time", "0")
        assert (code, out) == (0, want + "\n")

    def test_small_projected_mass_is_queried_as_written(self, tmp_path, data_dir, capsys):
        facts = tmp_path / "faint.facts"
        facts.write_text("event ARRIVE(TRUCK14) est 0 lst 10 kappa 1e-20\n")
        out = tmp_path / "faint.csv"
        code, _, err = _run(
            capsys, "project", "--theory", str(data_dir / "dock.rules"), "--facts", str(facts),
            "--delta", "2", "--omega", "100", "--epsilon", "0", "--out", str(out),
        )
        assert code == 0, err
        assert "3,ATDOCK(TRUCK14),mass,10,18,9.50018633009e-21\n" in out.read_text()
        code, got, _ = _run(
            capsys, "query", "--csv", str(out), "--fact", "ATDOCK(TRUCK14)", "--time", "19"
        )
        assert (code, got) == (0, "9.50018633009e-21\n")

    def test_spellings_of_one_type_are_one_type(self, tmp_path, capsys):
        # F(X), F( X ) and " F (X)" parse to one type: their tokens combine,
        # and a pattern query lists the type once, by its canonical text.
        path = tmp_path / "spelled.csv"
        path.write_text(
            "# origin=0\n# mesh=1\n# cells=2\ntoken_id,type,kind,cell,time,value\n"
            '0,F(X),mass,1,0,0.5\n1,F( X ),mass,1,0,0.5\n2," F (X)",mass,2,1,0.25\n'
        )
        for fact, out in [("F(X)", "0.75\n"), ("F(?x)", "F(X) 0.75\n")]:
            got = _run(capsys, "query", "--csv", str(path), "--fact", fact, "--time", "0")
            assert got == (0, out, "")
            assert out == _oracle_query(path, fact, 0.0)

    def test_unmatched_ground_fact_reports_zero(self, dock_csv, capsys):
        code, out, err = _run(
            capsys, "query", "--csv", str(dock_csv),
            "--fact", "ATDOCK(TRUCK99)", "--time", "30",
        )
        assert code == 0
        assert float(out.strip()) == 0.0
        assert "no fact matching" in err

    def test_time_outside_horizon(self, dock_csv, capsys):
        code, _, err = _run(
            capsys, "query", "--csv", str(dock_csv),
            "--fact", "ATDOCK(TRUCK14)", "--time", "5000",
        )
        assert code == 1
        assert "horizon" in err

    @pytest.mark.parametrize(
        "time,code,out",
        [
            ("0", 0, "0.5\n"),
            ("2.5", 0, "0.5\n"),
            ("-1e-12", 0, "0.5\n"),  # snaps onto the origin, in cell 1
            ("2.9999999999", 1, ""),  # snaps onto the end, past cell 3
            ("3", 1, ""),
            ("-0.5", 1, ""),
            ("nan", 1, ""),
        ],
    )
    def test_horizon_is_decided_by_the_snapped_cell(self, tmp_path, capsys, time, code, out):
        path = tmp_path / "hand.csv"
        path.write_text(
            "# origin=0\n# mesh=1\n# cells=3\ntoken_id,type,kind,cell,time,value\n"
            + "".join(f"0,F(X),mass,{cell},{cell - 1},0.5\n" for cell in (1, 2, 3))
        )
        got = _run(capsys, "query", "--csv", str(path), "--fact", "F(X)", f"--time={time}")
        outside = f"error: time {float(time)} outside the horizon [0.0, 3.0)\n"
        assert got == (code, out, outside if code else "")

    def test_memory_does_not_grow_with_the_rows(self, tmp_path, capsys):
        # The same types and cells with ten times the tokens: a ground query
        # keeps the grid and the masses of one type at one cell, not the rows.
        def peak(tokens):
            path = tmp_path / f"{tokens}.csv"
            with open(path, "w") as handle:
                handle.write(
                    "# origin=0\n# mesh=1\n# cells=20\ntoken_id,type,kind,cell,time,value\n"
                )
                for tid in range(tokens):
                    head = f"{tid},F(T{tid % 10}),mass,"
                    handle.write("".join(f"{head}{c},{c - 1},0.25\n" for c in range(1, 21)))
            argv = ["query", "--csv", str(path), "--fact", "F(T3)", "--time", "7"]
            main(argv)  # warm: imports, argparse and the pattern caches
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(300), peak(3000)
        capsys.readouterr()
        assert large - small < 64 * 1024, (small, large)

    def test_malformed_pattern(self, dock_csv, capsys):
        code, _, _ = _run(
            capsys, "query", "--csv", str(dock_csv),
            "--fact", "ATDOCK(TRUCK14) nonsense", "--time", "30",
        )
        assert code == 2

    def test_csv_without_metadata(self, tmp_path, capsys):
        bad = tmp_path / "bare.csv"
        bad.write_text("token_id,type,kind,cell,time,value\n")
        code, _, _ = _run(
            capsys, "query", "--csv", str(bad), "--fact", "F(X)", "--time", "0",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "cells,code,err",
        [
            ("10000000", 1, "time -5.0 outside the horizon [0.0, 10000000.0)"),
            ("10000001", 2, "line 3, column 1: grid metadata cells must be at most 10000000, "
                            "got '10000001'"),
            ("1" + "0" * 400, 2, "line 3, column 1: grid metadata cells must be at most "
                                 f"10000000, got '1{'0' * 400}'"),
        ],
        ids=["max", "max-plus-one", "past-float-range"],
    )
    def test_grid_of_more_cells_than_project_writes_is_parse_error(
        self, tmp_path, capsys, cells, code, err
    ):
        """``# cells=`` is bounded by ``MAX_CELLS``, the most cells ``project``
        writes, so a value past float range ends with one line at its
        metadata line, not with an ``OverflowError`` from the horizon check."""
        path = tmp_path / "big.csv"
        path.write_text(
            f"# origin=0\n# mesh=1\n# cells={cells}\ntoken_id,type,kind,cell,time,value\n"
            "1,F(X),mass,1,0,0.5\n"
        )
        got = _run(capsys, "query", "--csv", str(path), "--fact", "F(X)", "--time=-5")
        assert got == (code, "", f"error: {err}\n")

    def test_grid_metadata_reads_back_as_projected(self, tmp_path, data_dir, capsys):
        """An origin that ``%.12g`` would round is written in full, so
        ``query`` rebuilds ``project``'s grid and reads the cell that grid
        puts the time in (82 here; the rounded origin gives 83)."""
        facts = tmp_path / "truck.facts"
        facts.write_text("event ARRIVE(TRUCK14) est 2675 lst 2685 kappa 1.0\n")
        out = tmp_path / "truck.csv"
        origin, time = 2674.6502189125513, 2682.850218902551
        code, _, err = _run(
            capsys, "project", "--theory", str(data_dir / "dock.rules"), "--facts", str(facts),
            "--origin", repr(origin), "--delta", "0.1", "--omega", "4969", "--mesh", "0.1",
            "--out", str(out),
        )
        assert code == 0, err
        metadata, rows = _read_csv(out)
        assert (metadata["origin"], metadata["mesh"]) == (repr(origin), "0.1")
        cell = TimeGrid(origin, 0.1, 4969).time_to_cell(time)
        (mass,) = [
            row["value"] for row in rows
            if (row["type"], row["kind"], row["cell"]) == ("ATDOCK(TRUCK14)", "mass", str(cell))
        ]
        got = _run(capsys, "query", "--csv", str(out), "--fact", "ATDOCK(TRUCK14)", "--time", repr(time))
        assert (cell, got) == (82, (0, mass + "\n", ""))

    def test_only_the_first_block_takes_the_line_checks(
        self, tmp_path, data_dir, capsys, monkeypatch
    ):
        """Every block of ``project``'s CSV after the first, which holds the
        ``#`` lines, is read on the clean path; a block read line by line is
        one ``io.StringIO``."""
        out = tmp_path / "dock.csv"
        code, _, err = _run(
            capsys, "project", "--theory", str(data_dir / "dock.rules"),
            "--facts", str(data_dir / "dock.facts"), "--delta", "2", "--omega", "1440",
            "--out", str(out),
        )
        assert code == 0, err
        assert out.stat().st_size > 4 * cli._BLOCK
        checked = []

        def string_io(block):
            checked.append(block)
            return io.StringIO(block)

        monkeypatch.setattr(cli, "io", types.SimpleNamespace(StringIO=string_io))
        code, answer, err = _run(
            capsys, "query", "--csv", str(out), "--fact", "ATDOCK(TRUCK14)", "--time", "30"
        )
        assert (code, err) == (0, "")
        assert float(answer) > 0.0
        assert len(checked) == 1 and checked[0].startswith("# ")


def _oracle_csv(store, grid, metadata):
    """The projection CSV written row by row through ``csv.writer``."""
    handle = io.StringIO()
    for key, value in metadata.items():
        handle.write(f"# {key}={value}\n")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["token_id", "type", "kind", "cell", "time", "value"])
    curves = [(e.tid, e.event_type, "density", e.density) for e in store.events]
    curves += [(f.tid, f.fact_type, "mass", f.mass) for f in store.facts]
    for tid, token_type, kind, curve in curves:
        values = curve.window(1, grid.omega)
        for i in range(grid.omega):
            writer.writerow(
                [tid, str(token_type), kind, i + 1, _fmt(grid.cell_start(i + 1)), _fmt(values[i])]
            )
    return handle.getvalue()


def _oracle_query(path, fact, time):
    """Standard output of ``query``, from a ``DictReader`` scan of every row.
    A matching type with a mass row at any cell is listed, under the text of
    its parsed pattern, so every spelling of one type is one type; where it
    has no row at the queried cell, its mass there is 0."""
    metadata, rows = _read_csv(path)
    grid = TimeGrid(float(metadata["origin"]), float(metadata["mesh"]), int(metadata["cells"]))
    cell = grid.time_to_cell(time)
    pattern = parse_pattern_text(fact)
    masses = {}
    for row in rows:
        if row["kind"] != "mass":
            continue
        ground = parse_pattern_text(row["type"])
        if unify(pattern, ground) is None:
            continue
        values = masses.setdefault(str(ground), [])  # listed once it has any mass row
        if int(row["cell"]) == cell:
            values.append(float(row["value"]))
    if not masses:
        return _fmt(0.0) + "\n" if pattern.is_ground else ""
    out = []
    for type_text in sorted(masses):
        combined = 0.0
        for m in masses[type_text]:
            combined += m * (1.0 - combined)
        out.append(_fmt(combined) if pattern.is_ground else f"{type_text} {_fmt(combined)}")
    return "".join(line + "\n" for line in out)


YARD_RULES = (
    "persist AT(?t,?d) exp 0.3\n"
    "persist LOADED(?t) lin 0.05\n"
    "project ALWAYS, ARRIVE(?t,?d) => AT(?t,?d) @ 0.9\n"
    "project AT(?t,?d), LOAD(?t) => LOADED(?t) @ 0.8\n"
)


# F is derived with kappa -0 and G closes mid-grid; E(B) and E(C) occur
# with kappa 0 and -0, so every curve they lead to is zero.
LIVE_RULES = (
    "persist F(?x) exp 0.5\n"
    "persist G(?x) lin 0.2\n"
    "project ALWAYS, E(?x) => F(?x) @ -0\n"
    "project ALWAYS, E(?x) => G(?x) @ 0.7\n"
)
LIVE_FACTS = (
    "event E(A) est 1 lst 3 kappa 1.0\n"
    "event E(B) est 2 lst 2 kappa 0\n"
    "event E(C) est 0 lst 1 kappa -0\n"
)


def _yard_facts(seed, count):
    """Arrivals with two-argument types, loads, point events and ``kappa -0``."""
    rng = random.Random(seed)
    lines = []
    for k in range(count):
        est = rng.choice([0, 1.5, 4, rng.uniform(0, 20)])
        width = rng.choice([0, 0.5, 3, rng.uniform(0.1, 8)])
        kappa = rng.choice(["1.0", "0.5", "-0", "0", repr(rng.random())])
        lines.append(f"event ARRIVE(T{k},D{k % 3}) est {est!r} lst {est + width!r} kappa {kappa}")
        if rng.random() < 0.5:
            load = est + rng.uniform(0, 10)
            lines.append(f"event LOAD(T{k}) est {load!r} lst {load + 2.0!r} kappa 0.7")
    lines.append("event ARRIVE(T0,D0) est 2 lst 6 kappa -0")
    return "\n".join(lines) + "\n"


def _yard_store(seed, grid, epsilon=1e-3, count=12):
    theory = parse_theory(YARD_RULES)
    store = TokenStore()
    load_basic_facts(store, _yard_facts(seed, count), grid)
    project(theory, store, grid)
    refine(store, theory, grid, epsilon)
    return store


# Names and arguments the parsers reject but a Pattern holds: CSV and
# %-format specials and the empty text.  A line break, which the writer
# refuses, is tested on its own.
_LIBRARY_TEXT = st.text(st.sampled_from(['%', '"', ',', 'A', '(', ' ', 'é']), max_size=5)


_COLUMNS = ["token_id", "type", "kind", "cell", "time", "value"]
# ``F( X )`` and `` H`` are spellings of ``F(X)`` and ``H``; ``F(A, B)`` of ``F(A,B)``.
_HAND_TYPES = ["F(X)", "F(Y)", "F(A,B)", "G(X)", "H", "F( X )", "F(A, B)", " H"]
_HAND_FACTS = ["F(X)", "F(A,B)", "H", "G(Z)", "F(?x)", "F(?x,?y)", "F(A,?y)", "G(?x)", "H(?x)"]


@st.composite
def _hand_csv(draw):
    """A projection CSV laid out by hand, a time near one of its cells, and
    a CSV field limit to read it with (None for the default).

    The grid lines come in any order, some before the header and the rest
    between it and the first row; the columns are permuted, the rows
    shuffled, some tokens given a zero row at every unwritten cell (the
    dense form), some rows written with every field quoted, with CRLF line
    ends, with a NUL in the token id or with fields past the header's, and
    comments and blank lines put between the rows.  A limit of 16 sends
    most rows to ``csv.reader``, by their length alone; a long extra field
    is over either limit."""
    grid = TimeGrid(
        draw(st.sampled_from([0.0, -2.5, 10.0])),
        draw(st.sampled_from([1.0, 0.5, 0.25])),
        draw(st.integers(1, 5)),
    )
    rows = []
    for tid in range(draw(st.integers(0, 6))):
        token_type = draw(st.sampled_from(_HAND_TYPES))
        kind = draw(st.sampled_from(["mass", "mass", "density"]))
        written = draw(st.sets(st.integers(1, grid.omega), min_size=1))
        dense = draw(st.booleans())
        token_id = draw(st.sampled_from([str(tid), str(tid), f"{tid}\0"]))
        for cell in range(1, grid.omega + 1):
            if cell in written or dense:
                value = draw(st.sampled_from(["0", "-0", "0.5", "0.25", "1", "1e-20", "0.3"]))
                rows.append([token_id, token_type, kind, cell, _fmt(grid.cell_start(cell)),
                             value if cell in written else "0"])
    metadata = [("origin", _fmt(grid.origin)), ("mesh", _fmt(grid.delta)),
                ("cells", grid.omega), ("generator", "hand")]
    metadata = draw(st.permutations(metadata))
    before = draw(st.integers(0, len(metadata)))
    out = io.StringIO()
    out.writelines(f"# {key}={value}\n" for key, value in metadata[:before])
    columns = draw(st.permutations(_COLUMNS))
    csv.writer(out, lineterminator="\n").writerow(columns)
    out.writelines(f"# {key}={value}\n" for key, value in metadata[before:])
    for row in draw(st.permutations(rows)):
        end = draw(st.sampled_from(["\n", "\r\n"]))
        out.write(draw(st.sampled_from(["", "", end, "# remark" + end, "# note=1\n", "#\n"])))
        quoting = csv.QUOTE_ALL if draw(st.booleans()) else csv.QUOTE_MINIMAL
        extra = draw(st.sampled_from([[], [], [""], ["x", "\0"], ["9" * 41]]))
        csv.writer(out, lineterminator=end, quoting=quoting).writerow(
            [row[_COLUMNS.index(c)] for c in columns] + extra
        )
    limit = draw(st.sampled_from([None, None, 16, 40]))
    cell = draw(st.integers(1, grid.omega))
    # a time just below a cell's start snaps onto it, so -1e-12 reads ``cell``
    # and 1 - 1e-12 the cell after it
    offset = draw(st.sampled_from([0.0, 0.5, 0.75, -1e-12, 1 - 1e-12]))
    time = grid.cell_start(cell) + offset * grid.delta
    return out.getvalue(), time, limit


# Every addition to ``_hand_csv`` in one file: a spelling with spaces on the
# split path, a quoted twin, a NUL, extra fields, CRLF line ends, a quoted
# type with a comma, and on line 9 a field of 41 characters.
_HAND_EXAMPLE = (
    "# origin=0\r\n# mesh=1\n# cells=2\ntoken_id,type,kind,cell,time,value\r\n"
    "0,F( X ),mass,1,0,0.5\r\n"
    '"1","F(X)","mass","1","0","0.5"\n'
    "2\0,F(X),mass,1,0,0.25,extra,\0\n"
    '3,"F(A, B)",mass,2,1,0.5\n'
    "4,H,mass,1,0,1," + "9" * 41 + "\n"
)


def _first_line_over(text, limit):
    """The file line of the first row of ``text`` with a field longer than
    ``limit``, or None."""
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), 1):
        if line[:1] not in ("#", "") and max(map(len, next(csv.reader([line])))) > limit:
            return lineno
    return None


def _line_at_a_time_load(path, locate):
    """``cli._load_projection_csv`` as it read the file before it read in
    blocks: every line on its own, through every check.  The oracle of the
    block reader."""
    grid_lines = {}
    names = None
    header_at = 0
    grid = None
    at_cell = {}
    matches = {}
    masses = {}
    limit = csv.field_size_limit()
    with open(path, "r", errors="surrogateescape") as handle:
        if handle.read(1) != "\ufeff":
            handle.seek(0)
        try:
            for at, line in enumerate(handle, 1):
                if not line.isascii():
                    try:
                        line.encode(handle.encoding, "surrogateescape").decode(handle.encoding)
                    except UnicodeDecodeError as exc:
                        raise cli._undecodable(path, exc) from None
                if line[0] == "#":
                    key, eq, value = line[1:].partition("=")
                    key = key.strip()
                    if eq and key in cli._GRID_KEYS:
                        if grid is not None or key in grid_lines:
                            problem = "given twice" if grid is None else "after the first data row"
                            raise ParseError(f"grid metadata line '# {key}=...' {problem}", at, 1)
                        grid_lines[key] = (value.strip(), at)
                    continue
                if line.isspace():
                    continue
                if grid is None and names is not None:
                    grid = cli._metadata_grid(grid_lines)
                    pattern, cell = locate(grid)
                    kind_at, cell_at, type_at, value_at = cli._header_columns(names, header_at)
                if '"' not in line and len(line) <= limit:
                    row = line.rstrip("\n").split(",")
                else:
                    row = next(csv.reader((line,), strict=True))
                if grid is None:
                    names, header_at = row, at
                    continue
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
                        ground = parse_pattern_text(type_text)
                    except ParseError as exc:
                        raise ValueError(exc.message) from None
                    matched = unify(pattern, ground) is not None
                    canonical = matches[type_text] = str(ground) if matched else ""
                    if matched:
                        masses.setdefault(canonical, [])
                if canonical and in_cell:
                    mass = float(row[value_at])
                    if not 0.0 <= mass <= 1.0:
                        raise ValueError(f"mass must be a number in [0, 1], got {row[value_at]!r}")
                    masses[canonical].append(mass)
        except ParseError:
            raise
        except (IndexError, ValueError, csv.Error) as exc:
            problem = "too few fields" if isinstance(exc, IndexError) else str(exc)
            raise ParseError(f"bad projection CSV row: {problem}", at, 1) from None
    if grid is None:
        grid = cli._metadata_grid(grid_lines)
        locate(grid)
        cli._header_columns(names, header_at)
    return grid, masses


_BLOCK_ROWS = st.builds(
    "{},{},{},{},0,{}".format,
    st.integers(0, 99),
    st.sampled_from(["F(X)", "F(Y)", "G(X)", "H", "F( X )"]),
    st.sampled_from(["mass", "mass", "density"]),
    st.integers(1, 3),
    st.sampled_from(["0.5", "0.25", "-0", "1", "1e-20"]),
)
# Lines that end a clean block, each a fault, an odd layout or a line the
# block reader must leave to the line checks.  "\udcff" is written as the
# undecodable byte 0xff.
_BLOCK_ODD_LINES = st.sampled_from([
    "# remark",
    "# note=1",
    "# cells=3",
    "",
    " \t",
    "\x0c",
    '"7","F(A,B)","mass","1","0","0.25"',
    '8,"F(X)",mass,2,1,0.5',
    '9,"F(X),mass,2,1,0.5',
    "é,F(X),mass,1,0,0.5",
    "\ufeff10,F(X),mass,1,0,0.5",
    "\udcff,F(X),mass,1,0,0.5",
    "11,H,density,1,0," + "9" * 50,
    "12,F(X),mass,x,0,0.5",
    "13,F(X),mass",
    "14,f(x),mass,1,0,0.5",
    "15,F(X),mass,1,0,nan",
])


@st.composite
def _block_csv(draw):
    """The bytes of a projection CSV laid out by hand, for the block reader:
    grid lines and header, then plain rows mixed with the lines of
    ``_BLOCK_ODD_LINES``, each line ended by LF, CRLF or CR, a byte-order
    mark or not before the first, and the last maybe with no line end."""
    head = [*draw(st.permutations(["# origin=0", "# mesh=1", "# cells=3"])),
            "token_id,type,kind,cell,time,value"]
    body = draw(st.lists(st.one_of(_BLOCK_ROWS, _BLOCK_ROWS, _BLOCK_ROWS, _BLOCK_ODD_LINES),
                         max_size=30))
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in head + body)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8", "surrogateescape")


class TestCsvBlocks:
    """``query`` reading its CSV a block at a time against the reader of
    every line on its own, with blocks of 1 to 64 characters and of the
    command's own ``_BLOCK``, which reads each of these files as one block."""

    @given(
        _block_csv(),
        st.integers(1, 64) | st.just(cli._BLOCK),
        st.sampled_from([None, None, 40]),
        st.sampled_from(["F(X)", "F(?x)", "H", "G(?x)", "F(A,B)"]),
        st.integers(0, 2),
    )
    @example(b"# origin=0\n# mesh=1\n# cells=3\ntoken_id,type,kind,cell,time,value\n"
             b"1,F(X),mass,1,0,0.5\r\n2,F(X),mass,1,0,0.25\r3,F( X ),mass,1,0,0.5\n\n"
             b"# remark\n4,F(X),mass,1,0,0.5", 7, None, "F(X)", 0)
    @example(b"\xef\xbb\xbf# origin=0\n# mesh=1\n# cells=3\ntoken_id,type,kind,cell,time,value\n"
             b"1,F(X),mass,1,0,0.5\n\xff,F(X),mass,1,0,0.5\n", 1, None, "F(X)", 0)
    @example(b"# origin=0\n# mesh=1\n# cells=3\ntoken_id,type,kind,cell,time,value\n"
             b"1,F(X),mass,1,0,0.5\n11,H,density,1,0," + b"9" * 50 + b"\n# cells=3\n",
             64, 40, "F(?x)", 0)
    @example(b"# origin=0\n# mesh=1\n# cells=3\ntoken_id,type,kind,cell,time,value\n"
             b"0,F(X),mass,1,0,0.5\n1,F(X),mass,1,0,0.5\n\n2,F(X),mass,1,0,0.5\n \t\n"
             b"12,F(X),mass,x,0,0.5\n", 1, None, "F(X)", 0)
    def test_answers_and_errors_match_the_line_at_a_time_reader(
        self, data, block, limit, fact, time
    ):
        default = csv.field_size_limit()
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            path = os.path.join(directory, "blocks.csv")
            with open(path, "wb") as handle:
                handle.write(data)
            patch.setattr(cli, "_BLOCK", block)
            if limit is not None:
                csv.field_size_limit(limit)
            try:
                got = []
                for load in (cli._load_projection_csv, _line_at_a_time_load):
                    patch.setattr(cli, "_load_projection_csv", load)
                    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                        code = main(["query", "--csv", path, "--fact", fact, "--time", str(time)])
                    got.append((code, out.getvalue(), err.getvalue()))
            finally:
                csv.field_size_limit(default)
        assert got[0] == got[1]


class TestCsvOracles:
    """The projection CSV and ``query`` against the row-at-a-time forms."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("grid", [TimeGrid(0.0, 0.5, 80), TimeGrid(-1.0, 0.1, 300)])
    def test_csv_bytes_match_csv_writer(self, seed, grid):
        store = _yard_store(seed, grid)
        metadata = {
            "generator": "tempro project", "origin": _fmt(grid.origin),
            "mesh": _fmt(grid.delta), "cells": grid.omega,
        }
        expected = _oracle_csv(store, grid, metadata)
        handle = io.StringIO()
        _write_projection_csv(handle, store, grid, metadata)
        assert _expand_csv(handle.getvalue()) == expected
        # the cases this store is built to cover
        assert '"AT(T1,D1)",mass,' in expected  # quoted multi-argument type
        assert ",ALWAYS,mass,1," in expected
        assert ",-0\n" in expected  # kappa -0 densities
        assert any(f.close_cell is not None for f in store.facts)

    def test_live_rows_expand_to_the_dense_oracle(self):
        grid = TimeGrid(0.0, 0.5, 40)
        theory = parse_theory(LIVE_RULES)
        store = TokenStore()
        load_basic_facts(store, LIVE_FACTS, grid)
        project(theory, store, grid)
        refine(store, theory, grid, 1e-4)
        metadata = {"origin": "0", "mesh": "0.5", "cells": 40}
        handle = io.StringIO()
        _write_projection_csv(handle, store, grid, metadata)
        written = handle.getvalue()
        assert _expand_csv(written) == _oracle_csv(store, grid, metadata)
        spans = {}
        for row in csv.DictReader(line for line in written.splitlines() if line[:1] != "#"):
            spans.setdefault((row["type"], row["kind"]), []).append((int(row["cell"]), row["value"]))
        for token, cells in spans.items():
            numbers = [cell for cell, _ in cells]
            assert numbers == list(range(numbers[0], numbers[-1] + 1)), token
            if cells != [(1, "0")]:  # an all-zero curve keeps only its cell-1 row
                assert cells[0][1] != "0" and cells[-1][1] != "0", token
        # the cases the theory is built to cover
        assert {v for _, v in spans["F(A)", "density"]} == {"-0"}  # the kappa -0 rule
        assert spans["F(A)", "mass"] == [(1, "0")]
        assert spans["E(B)", "density"] == [(1, "0")]  # an event of kappa 0
        closing = next(f for f in store.facts if str(f.fact_type) == "G(A)")
        assert closing.close_cell is not None and spans["G(A)", "mass"][-1][0] <= closing.close_cell < 40

    @given(
        st.integers(1, 12).flatmap(
            lambda omega: st.lists(
                st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), min_size=omega, max_size=omega),
                max_size=5,
            )
        )
    )
    def test_spans_of_explicit_densities(self, curves):
        # Every store also holds a curve with +0.0 inside its span and
        # +0.0 and -0.0 at both edges.
        curves = [[0.0, -0.0, 1.0, 0.0, 5e-324, -0.0, 0.0]] + curves
        omega = max(len(values) for values in curves)
        grid = TimeGrid(0.0, 0.5, omega)
        store = TokenStore()
        for k, values in enumerate(curves):
            density = StepSeries(grid, np.array(values + [0.0] * (omega - len(values))))
            store.add_event(Pattern("E", (f"X{k}",)), 0.0, 1.0, 1.0, UserSupplied(), density)
        metadata = {"origin": "0", "mesh": "0.5", "cells": omega}
        handle = io.StringIO()
        _write_projection_csv(handle, store, grid, metadata)
        written = handle.getvalue()
        assert _expand_csv(written) == _oracle_csv(store, grid, metadata)
        spans = {}
        for row in csv.DictReader(line for line in written.splitlines() if line[:1] != "#"):
            spans.setdefault(row["token_id"], []).append(row["value"])
        for event in store.events:
            span = spans[str(event.tid)]
            if np.asarray(event.density.values).view(np.int64).any():
                assert span[0] != "0" and span[-1] != "0", event.tid
            else:  # all +0.0: only the cell-1 row
                assert span == ["0"], event.tid
        assert spans["0"] == ["-0", "1", "0", "4.94065645841e-324", "-0"]

    @pytest.mark.parametrize(
        "values,first,rows",
        [
            ([0.0, 0.0, 1.0, 0.0, 2.0, 0.0], 2, [(4, "1"), (5, "0"), (6, "2")]),
            ([-0.0, 0.0, 1.0, -0.0, 0.0], 3, [(3, "-0"), (4, "0"), (5, "1"), (6, "-0")]),
            ([0.0, -0.0, 0.0], 4, [(5, "-0")]),
            ([1.0, 0.0, 0.0], 6, [(6, "1")]),
            ([5e-324], 8, [(8, "4.94065645841e-324")]),
            ([0.0, 0.0], 5, [(1, "0")]),  # no written cell: the cell-1 row
            ([], 1, [(1, "0")]),
        ],
    )
    def test_span_writes_the_rows_of_its_whole_curve(self, values, first, rows):
        # +0.0 at a span's edges is trimmed, -0.0 is written, and a span
        # writes the rows of the same curve stored over all omega cells.
        grid = TimeGrid(0.0, 0.5, 8)
        metadata = {"origin": "0", "mesh": "0.5", "cells": 8}
        span = StepSeries(grid, values, first)
        written = []
        for density in (span, StepSeries(grid, span.window(1, 8))):
            store = TokenStore()
            store.add_event(Pattern("E", ("X",)), 0.0, 1.0, 1.0, UserSupplied(), density)
            handle = io.StringIO()
            _write_projection_csv(handle, store, grid, metadata)
            written.append(handle.getvalue())
        assert written[0] == written[1]
        assert _expand_csv(written[0]) == _oracle_csv(store, grid, metadata)
        assert written[0].splitlines()[4:] == [
            f"0,E(X),density,{cell},{_fmt(grid.cell_start(cell))},{value}" for cell, value in rows
        ]

    @given(
        st.lists(
            st.tuples(_LIBRARY_TEXT, st.lists(_LIBRARY_TEXT, max_size=2).map(tuple)),
            max_size=4,
        )
    )
    @example([("", ()), ("%d%%", ("%s",)), ('say "hi"', ()), ("A", ("a,b",))])
    def test_type_texts_only_the_library_builds(self, types):
        # The parsers never make these texts; every value is non-zero, so
        # every row is written and the text must equal the oracle's as is.
        grid = TimeGrid(0.0, 0.5, 3)
        store = TokenStore()
        for k, (name, args) in enumerate(types):
            values = [0.5, 5e-324, 1.0 + k]
            event = store.add_event(
                Pattern(name, args), 0.0, 1.0, 1.0, UserSupplied(), StepSeries(grid, values)
            )
            fact = store.add_fact(Pattern(name, args), event.tid, Exponential(1.0), 0.0, UserSupplied())
            fact.mass = StepSeries(grid, values[::-1])
        metadata = {"origin": "0", "mesh": "0.5", "cells": 3}
        handle = io.StringIO()
        _write_projection_csv(handle, store, grid, metadata)
        assert handle.getvalue() == _oracle_csv(store, grid, metadata)

    @pytest.mark.parametrize("name, args", [("a\nb", ()), ("a\rb", ()), ("E", ("\r\n",))])
    def test_type_with_a_line_break_is_refused(self, name, args):
        # ``query`` reads each row from one line, so no row may span two.
        grid = TimeGrid(0.0, 0.5, 3)
        store = TokenStore()
        store.add_event(Pattern(name, args), 0.0, 1.0, 1.0, UserSupplied(), StepSeries(grid, [0.5]))
        with pytest.raises(ValueError) as caught:
            _write_projection_csv(io.StringIO(), store, grid, {"cells": 3})
        assert str(caught.value) == (
            f"type {str(Pattern(name, args))!r} holds a line break, which no CSV row of one line can"
        )

    @given(st.floats())
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(1.7976931348623157e308)
    def test_percent_format_matches_format(self, v):
        assert "%.12g" % v == format(v, ".12g")

    def test_pattern_query_lists_a_type_without_a_row_at_the_cell(self, tmp_path, capsys):
        rules, facts = tmp_path / "live.rules", tmp_path / "live.facts"
        rules.write_text(LIVE_RULES)
        facts.write_text(LIVE_FACTS)
        out, dense = tmp_path / "live.csv", tmp_path / "dense.csv"
        code, _, err = _run(
            capsys, "project", "--theory", str(rules), "--facts", str(facts),
            "--delta", "0.5", "--omega", "40", "--out", str(out),
        )
        assert code == 0, err
        dense.write_text(_expand_csv(out.read_text()))
        assert ",G(A),mass,39," not in out.read_text()
        for path in (out, dense):
            code, got, err = _run(
                capsys, "query", "--csv", str(path), "--fact", "G(?x)", "--time", "19"
            )
            assert (code, err) == (0, "")
            assert got == "G(A) 0\nG(B) 0\nG(C) 0\n"
        code, got, err = _run(capsys, "query", "--csv", str(out), "--fact", "G(A)", "--time", "19")
        assert (code, got, err) == (0, "0\n", "")

    def test_query_matches_dict_reader_scan(self, tmp_path, capsys):
        rules = tmp_path / "yard.rules"
        rules.write_text(YARD_RULES)
        facts = tmp_path / "yard.facts"
        facts.write_text(_yard_facts(7, 15))
        out = tmp_path / "yard.csv"
        code, _, err = _run(
            capsys, "project", "--theory", str(rules), "--facts", str(facts),
            "--delta", "0.5", "--omega", "60", "--epsilon", "1e-3", "--out", str(out),
        )
        assert code == 0, err
        facts_asked = ["AT(T1,D1)", "AT(?t,?d)", "AT(?t,D1)", "LOADED(?x)", "LOADED(T3)",
                       "ALWAYS", "AT(T0,D0)", "AT(T99,D1)", "ARRIVE(?t,?d)"]
        for fact in facts_asked:
            for time in [0.0, 0.25, 1.5, 3.0, 7.75, 12.5, 29.9]:
                code, got, _ = _run(
                    capsys, "query", "--csv", str(out), "--fact", fact, "--time", repr(time)
                )
                assert code == 0
                assert got == _oracle_query(out, fact, time), (fact, time)

    def test_reordered_columns_and_comment_after_header(self, tmp_path, capsys):
        path = tmp_path / "hand.csv"
        path.write_text(
            "# origin=0\n# mesh=1\n"
            "value,cell,type,time,kind,token_id\n"
            "# cells=3\n"
            '0.5,1,"F(A,B)",0,mass,0\n'
            "0.25,1,F(X),0,mass,1\n"
            "\n"
            "# a remark between rows\n"
            "0.5,01,F(X),0,mass,2\n"
            "0.9,1,F(X),0,density,3\n"
            "-0,2,F(X),1,mass,1\n"
            '0.125,2,"F(A,B)",1,mass,0\n'
        )
        for fact in ["F(X)", "F(A,B)", "F(?x)", "F(?x,?y)", "F(A,?y)", "G(X)"]:
            for time in [0.0, 1.5, 2.0]:
                code, got, _ = _run(
                    capsys, "query", "--csv", str(path), "--fact", fact, "--time", repr(time)
                )
                assert code == 0
                assert got == _oracle_query(path, fact, time), (fact, time)
        code, got, _ = _run(capsys, "query", "--csv", str(path), "--fact", "F(X)", "--time", "0")
        assert float(got) == pytest.approx(1 - 0.75 * 0.5)

    @given(_hand_csv())
    @example((_HAND_EXAMPLE, 0.0, None))
    @example((_HAND_EXAMPLE, 1.0, 40))
    def test_hand_laid_out_csv_matches_dict_reader_scan(self, case):
        # Rows quoted or longer than the field limit are read by csv.reader,
        # the others split at their commas; both must read as DictReader does.
        # A field over the limit is a bad row at the line of the first one.
        text, time, limit = case
        over = None if limit is None else _first_line_over(text, limit)
        default = csv.field_size_limit()
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "hand.csv")
            with open(path, "w") as handle:
                handle.write(text)
            metadata, _ = _read_csv(path)
            grid = TimeGrid(
                float(metadata["origin"]), float(metadata["mesh"]), int(metadata["cells"])
            )
            assume(grid.contains_cell(grid.time_to_cell(time)))
            if limit is not None:
                csv.field_size_limit(limit)
            try:
                for fact in _HAND_FACTS:
                    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                        code = main(["query", "--csv", path, "--fact", fact, f"--time={time!r}"])
                    if over is None:
                        assert (code, out.getvalue()) == (0, _oracle_query(path, fact, time)), fact
                        continue
                    with pytest.raises(csv.Error):
                        _oracle_query(path, fact, time)
                    assert (code, out.getvalue(), err.getvalue()) == (
                        2, "", f"error: line {over}, column 1: bad projection CSV row: "
                               f"field larger than field limit ({limit})\n"
                    ), fact
            finally:
                csv.field_size_limit(default)

    def test_writer_rows_of_single_argument_types_skip_the_csv_reader(
        self, tmp_path, capsys, monkeypatch
    ):
        """Every line that ``project`` writes for types of at most one
        argument, the header, ``ALWAYS`` and ``-0`` values included, is split
        at its commas: ``csv.reader``, as ``cli`` sees it, reads only the
        lines that hold a ``"``.  The writer quotes a type with a comma, such
        as ``"AT(T1,D1)"``, and those rows stay on the reader path.  That is
        deliberate: no benchmark workload has a multi-argument type."""
        seen = []
        reader = csv.reader

        def recording(lines, *args, **kwargs):
            def record():
                for line in lines:
                    seen.append(line)
                    yield line
            return reader(record(), *args, **kwargs)

        for name, rules, facts, asked in [
            ("live", LIVE_RULES, LIVE_FACTS, ["G(A)", "G(?x)", "F(A)", "ALWAYS", "E(?x)"]),
            ("yard", YARD_RULES, _yard_facts(7, 15), ["AT(T1,D1)", "AT(?t,?d)", "LOADED(?x)"]),
        ]:
            (tmp_path / "t.rules").write_text(rules)
            (tmp_path / "t.facts").write_text(facts)
            out = tmp_path / f"{name}.csv"
            code, _, err = _run(
                capsys, "project", "--theory", str(tmp_path / "t.rules"),
                "--facts", str(tmp_path / "t.facts"),
                "--delta", "0.5", "--omega", "60", "--epsilon", "1e-3", "--out", str(out),
            )
            assert code == 0, err
            lines = out.read_text().splitlines(keepends=True)
            quoted = [line for line in lines if '"' in line]
            if name == "live":
                assert ",ALWAYS,mass,1," in "".join(lines) and any(
                    line.endswith(",-0\n") for line in lines
                )
                assert quoted == []
            else:
                assert any(line.startswith(tuple("0123456789")) for line in quoted)
            answers = [_oracle_query(out, fact, 7.5) for fact in asked]
            with monkeypatch.context() as patch:
                patch.setattr(cli.csv, "reader", recording)
                for fact, answer in zip(asked, answers):
                    seen.clear()
                    got = _run(capsys, "query", "--csv", str(out), "--fact", fact, "--time", "7.5")
                    assert got[:2] == (0, answer), fact
                    assert seen == quoted, fact

    @given(
        st.lists(
            st.sampled_from(
                ["F", "AB_1", "X", "?x", " ", ",", "(", ")", "f", "aB", "é", "Ä", "1", "_", "\t"]
            ),
            max_size=8,
        ).map("".join)
    )
    @example("F(X,Y)")
    @example("ALWAYS")
    @example("F( X )")
    @example("F(?x)")
    @example("F()")
    @example("F(X,)")
    @example("F(X")
    def test_type_regex_reads_as_parse_pattern_text(self, text):
        # A text in canonical ground form is read from the regex match alone,
        # to what parse_pattern_text reads, and is its own key; every other
        # text goes to it.  Either way the key is str of the parsed type if
        # the pattern unifies with it, else "", and a bad text is its error.
        def outcome(read):
            try:
                return read()
            except ParseError as exc:
                return str(exc)

        ground = outcome(lambda: parse_pattern_text(text))
        patterns = [Pattern("F", ("?x",)), Pattern("F", ("X", "?y")), Pattern("ALWAYS")]
        if isinstance(ground, Pattern):
            variables = tuple(f"?v{i}" for i in range(len(ground.args)))
            patterns += [ground, Pattern(ground.name, variables)]
        ground_key = re.compile(cli._GROUND_KEY).fullmatch
        canonical = ground_key(text) is not None
        calls = []

        def recording(argument):
            calls.append(argument)
            return parse_pattern_text(argument)

        original = cli.parse_pattern_text
        cli.parse_pattern_text = recording
        try:
            for pattern in patterns:
                calls.clear()
                got = outcome(lambda: cli._type_key(pattern, text, ground_key))
                if isinstance(ground, str):
                    assert got == ground
                else:
                    assert got == (str(ground) if unify(pattern, ground) is not None else "")
                assert calls == ([] if canonical else [text])
        finally:
            cli.parse_pattern_text = original
        if canonical:
            assert str(ground) == text

    @given(
        st.tuples(
            st.sampled_from(["F", "G", "AB_1"]),
            st.lists(st.sampled_from(["A", "B", "?x", "?y"]), max_size=3),
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["F", "G", "AB_1"]),
                st.lists(st.sampled_from(["A", "B", "C"]), max_size=3),
                st.sampled_from(["", " "]),
            ),
            max_size=12,
        ),
    )
    @example(("F", ["?x", "?x"]), [("F", ["A", "A"], ""), ("F", ["A", "B"], ""), ("F", [], "")])
    @example(("G", []), [("G", [], ""), ("G", [], " "), ("G", ["A"], "")])
    def test_type_keys_are_the_unify_and_str_results(self, asked, types):
        # The types a pattern matches and their keys, for canonical and
        # spaced spellings of types of every name and arity, are those that
        # unify and str of the parsed type give.
        pattern = Pattern(asked[0], tuple(asked[1]))
        texts = [
            f"{name}{gap}({gap}{f'{gap},{gap}'.join(args)}{gap})" if args else f"{gap}{name}{gap}"
            for name, args, gap in types
        ]
        ground_key = re.compile(cli._GROUND_KEY).fullmatch
        keys = {text: cli._type_key(pattern, text, ground_key) for text in texts}
        grounds = {text: parse_pattern_text(text) for text in texts}
        assert {text for text in texts if keys[text]} == {
            text for text in texts if unify(pattern, grounds[text]) is not None
        }
        assert {text: key for text, key in keys.items() if key} == {
            text: str(ground)
            for text, ground in grounds.items()
            if unify(pattern, ground) is not None
        }

    def test_rows_exclude_header_and_comment_lines(self, tmp_path, capsys):
        # Grid lines before and after the header and a blank line between
        # the rows: the two data rows are read, each at its own cell.
        path = tmp_path / "hand.csv"
        path.write_text(
            "# origin=0\ntoken_id,type,kind,cell,time,value\n# mesh=1\n# cells=2\n"
            "0,F(X),mass,1,0,0.5\n\n0,F(X),mass,2,1,0.25\n"
        )
        got = [
            _run(capsys, "query", "--csv", str(path), "--fact", "F(?x)", "--time", time)
            for time in ("0", "1")
        ]
        assert got == [(0, "F(X) 0.5\n", ""), (0, "F(X) 0.25\n", "")]


class TestBadInput:
    @pytest.mark.parametrize(
        "flag,value,word",
        [
            ("--delta", "0", "delta"),
            ("--omega", "0", "omega"),
            ("--epsilon", "-1", "epsilon"),
            ("--delta", "nan", "delta"),
            ("--origin", "inf", "origin"),
        ],
    )
    def test_bad_grid_argument_is_usage_error(self, tmp_path, data_dir, capsys, flag, value, word):
        argv = {"--delta": "1", "--omega": "10", "--epsilon": "1e-4"}
        argv[flag] = value
        code, _, err = _run(
            capsys, "project",
            "--theory", str(data_dir / "dock.rules"),
            "--facts", str(data_dir / "dock.facts"),
            *[item for pair in argv.items() for item in pair],
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert word in err
        assert not (tmp_path / "x.csv").exists()

    def _query(self, capsys, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return _run(capsys, "query", "--csv", str(path), "--fact", "F(X)", "--time", "0")

    def test_header_without_kind_is_parse_error(self, tmp_path, capsys):
        code, _, err = self._query(
            capsys, tmp_path,
            "# origin=0\n# mesh=1\n# cells=2\n"
            "token_id,type,cell,time,value\n0,F(X),1,0,0.5\n",
        )
        assert code == 2
        assert err == "error: line 4, column 1: projection CSV header lacks the 'kind' column\n"

    @pytest.mark.parametrize("row", ['0,"F(X)', "0,F(X),mass,1,0,0.5,x"], ids=["open", "over"])
    def test_header_is_checked_before_the_first_data_row_is_read(self, tmp_path, capsys, row):
        # The first data row's fault, a quote left open or a field over the
        # limit, is on a later line than the header's.
        limit = csv.field_size_limit(1)
        try:
            code, out, err = self._query(
                capsys, tmp_path, f"# origin=0\n# mesh=1\n# cells=2\na,b\n{row}\n"
            )
        finally:
            csv.field_size_limit(limit)
        assert (code, out) == (2, "")
        assert err == "error: line 4, column 1: projection CSV header lacks the 'kind' column\n"

    @pytest.mark.parametrize("name", ["kind", "cell", "type", "value"])
    def test_header_naming_a_needed_column_twice_is_parse_error(self, tmp_path, capsys, name):
        # Which of the two columns to read would be a guess.
        code, out, err = self._query(
            capsys, tmp_path,
            "# origin=0\n# mesh=1\n# cells=2\n"
            f"token_id,type,kind,cell,time,value,{name}\n0,F(X),mass,1,0,0.5,0.5\n",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: line 4, column 1: projection CSV header has more than one {name!r} column\n"
        )

    def test_missing_header_is_parse_error(self, tmp_path, capsys):
        code, _, err = self._query(capsys, tmp_path, "# origin=0\n# mesh=1\n# cells=2\n")
        assert code == 2
        assert "no header" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "row,problem",
        [
            ("1,F(X)", "too few fields"),
            ("1,F(X),mass,1,0,high", "could not convert string to float: 'high'"),
            ("1,F(X),mass,one,0,0.5", "invalid literal for int() with base 10: 'one'"),
            ("1,f(x),mass,1,0,0.5", "pattern name 'f' must be upper-case"),
            ("1,F(X),mass,1,0,3", "mass must be a number in [0, 1], got '3'"),
            ("1,F(X),mass,1,0,-5", "mass must be a number in [0, 1], got '-5'"),
            ("1,F(X),mass,1,0,1.0000001", "mass must be a number in [0, 1], got '1.0000001'"),
            ("1,F(X),mass,1,0,nan", "mass must be a number in [0, 1], got 'nan'"),
            ("1,F(X),mass,1,0,inf", "mass must be a number in [0, 1], got 'inf'"),
            ("1,F(X),mass,1,0,-inf", "mass must be a number in [0, 1], got '-inf'"),
        ],
    )
    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_bad_row_is_parse_error_at_its_line(self, tmp_path, capsys, row, problem, quoted):
        # A row with every field quoted is read by csv.reader; most of the
        # plain rows are split at their commas.  Both give the same error.
        if quoted:
            text = io.StringIO()
            csv.writer(text, lineterminator="", quoting=csv.QUOTE_ALL).writerow(
                next(csv.reader([row]))
            )
            row = text.getvalue()
        code, _, err = self._query(
            capsys, tmp_path,
            "# origin=0\n# mesh=1\n# cells=2\n"
            f"token_id,type,kind,cell,time,value\n0,F(X),mass,1,0,0.5\n# note\n{row}\n",
        )
        assert code == 2
        assert err == f"error: line 7, column 1: bad projection CSV row: {problem}\n"

    @pytest.mark.parametrize(
        "tail,message",
        [
            ("1,F(X),mass,1,0,high\n# caf\xe9 \udcff\n",
             "line 5, column 1: bad projection CSV row: "
             "could not convert string to float: 'high'"),
            ("# caf\xe9 \udcff\n1,F(X),mass,1,0,high\n",
             "line 5, column 8: {path} is not utf-8 text: byte 0xff, invalid start byte"),
        ],
        ids=["row-first", "byte-first"],
    )
    def test_first_fault_in_the_file_is_reported(self, tmp_path, capsys, tail, message):
        # The file is read once, so of a bad row and an undecodable byte the
        # one on the earlier line is reported.
        path = tmp_path / "bad.csv"
        path.write_bytes(
            ("# origin=0\n# mesh=1\n# cells=2\ntoken_id,type,kind,cell,time,value\n" + tail)
            .encode("utf-8", "surrogateescape")
        )
        got = _run(capsys, "query", "--csv", str(path), "--fact", "F(X)", "--time", "0")
        assert got == (2, "", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize(
        "lines,line",
        [
            ('token_id,type,kind,cell,time,value\n0,"F(X)\n# inner\n\nG",mass,1,0,0.5\n', 5),
            ('token_id,type,kind,cell,time,value\n0,"F(X)\n# inner\n', 5),
            ('token_id,type,kind,cell,time,value\n0,"F(X)\nG(Y)",mass,1,0,0.5\n', 5),
            ('token_id,"type\n# inner\n",kind,cell,time,value\n0,F(X),mass,1,0,0.5\n', 4),
        ],
        ids=["over-skipped-lines", "at-end", "two-lines", "header"],
    )
    def test_quoted_field_open_at_the_end_of_its_line_is_a_bad_row_there(
        self, tmp_path, capsys, lines, line
    ):
        # Every row is one line, so a field whose closing quote is on a
        # later line is cut at the end of the line that opens it; the lines
        # after it are never read as part of the row.
        code, out, err = self._query(capsys, tmp_path, "# origin=0\n# mesh=1\n# cells=2\n" + lines)
        assert (code, out) == (2, "")
        assert err == (
            f"error: line {line}, column 1: bad projection CSV row: unexpected end of data\n"
        )

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_undecodable_byte_in_a_field_never_read_is_parse_error_at_its_line(
        self, tmp_path, capsys, quoted
    ):
        # The byte is in the time field of another type's row, so only the
        # line's own check can see it, on either path.
        row = '"1","G(X)","mass","1","0\udcff","0.5"' if quoted else "1,G(X),mass,1,0\udcff,0.5"
        path = tmp_path / "bad.csv"
        path.write_bytes(
            ("# origin=0\n# mesh=1\n# cells=2\ntoken_id,type,kind,cell,time,value\n"
             f"0,F(X),mass,1,0,0.5\n{row}\n").encode("utf-8", "surrogateescape")
        )
        got = _run(capsys, "query", "--csv", str(path), "--fact", "F(X)", "--time", "0")
        column = row.index("\udcff") + 1
        assert got == (
            2, "", f"error: line 6, column {column}: {path} is not utf-8 text: "
                   "byte 0xff, invalid start byte\n"
        )

    def test_byte_order_mark_before_the_first_line_is_ignored(self, tmp_path, capsys):
        # A spreadsheet saves a CSV as "CSV UTF-8" with the mark first.
        path = tmp_path / "bom.csv"
        path.write_bytes(
            b"\xef\xbb\xbf# origin=0\n# mesh=1\n# cells=2\n"
            b"token_id,type,kind,cell,time,value\n0,F(X),mass,1,0,0.5\n"
        )
        got = _run(capsys, "query", "--csv", str(path), "--fact", "F(X)", "--time", "0.5")
        assert got == (0, "0.5\n", "")

    @pytest.mark.parametrize(
        "text,line,problem",
        [
            ("\ufeff\ufeff# origin=0\n# mesh=1\n# cells=2\ntoken_id,type,kind,cell,time,value\n"
             "0,F(X),mass,1,0,0.5\n",
             1, "projection CSV has no grid metadata line '# origin=...'"),
            ("# origin=0\n# mesh=1\n# cells=2\ntoken_id,type,\ufeffkind,cell,time,value\n"
             "0,F(X),mass,1,0,0.5\n",
             4, "projection CSV header lacks the 'kind' column"),
            ("# origin=0\n# mesh=1\n# cells=2\ntoken_id,type,kind,cell,time,value\n0,F(X),mass,\ufeff1,0,0.5\n",
             5, "bad projection CSV row: invalid literal for int() with base 10: '\\ufeff1'"),
            ("# origin=0\n# mesh=1\n# cells=2\ntoken_id,type,kind,cell,time,value\n0,F(X),mass,1,0,0.5\ufeff\n",
             5, "bad projection CSV row: could not convert string to float: '0.5\\ufeff'"),
        ],
        ids=["second-on-line-1", "header", "cell", "value"],
    )
    def test_byte_order_mark_elsewhere_is_parse_error_at_its_line(
        self, tmp_path, capsys, text, line, problem
    ):
        code, out, err = self._query(capsys, tmp_path, text)
        assert (code, out) == (2, "")
        assert err == f"error: line {line}, column 1: {problem}\n"

    def test_byte_order_mark_before_a_facts_line_is_unexpected_character(
        self, tmp_path, data_dir, capsys
    ):
        facts = tmp_path / "facts.txt"
        facts.write_bytes(b"\xef\xbb\xbfevent ARRIVE(TRUCK14) est 0 lst 10 kappa 1.0\n")
        got = _run(
            capsys, "project",
            "--theory", str(data_dir / "dock.rules"), "--facts", str(facts),
            "--delta", "2", "--omega", "100", "--out", str(tmp_path / "x.csv"),
        )
        assert got == (2, "", "error: line 1, column 1: unexpected character '\\ufeff'\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key", ["origin", "mesh", "cells"])
    def test_grid_line_after_the_first_data_row_is_parse_error_at_its_line(
        self, tmp_path, capsys, key
    ):
        code, out, err = self._query(
            capsys, tmp_path,
            "# origin=0\n# mesh=1\ntoken_id,type,kind,cell,time,value\n# cells=2\n"
            f"0,F(X),mass,1,0,0.5\n# note=1\n# {key} = 3\n0,F(X),mass,2,1,0.5\n",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: line 7, column 1: grid metadata line '# {key}=...' after the first data row\n"
        )

    @pytest.mark.parametrize("key", ["origin", "mesh", "cells"])
    @pytest.mark.parametrize("after_header", [False, True], ids=["before-header", "after-header"])
    def test_grid_line_given_twice_is_parse_error_at_the_repeat(
        self, tmp_path, capsys, key, after_header
    ):
        # The repeat names another grid, so the file has none to read.
        header, repeat = "token_id,type,kind,cell,time,value\n", f"# {key} = 5\n"
        middle = header + "# remark\n" + repeat if after_header else repeat + header
        code, out, err = self._query(
            capsys, tmp_path,
            "# origin=0\n# mesh=1\n# cells=2\n# note=1\n" + middle + "0,F(X),mass,1,0,0.5\n",
        )
        line = 7 if after_header else 5
        assert (code, out) == (2, "")
        assert err == f"error: line {line}, column 1: grid metadata line '# {key}=...' given twice\n"

    @pytest.mark.parametrize("line", [4, 7], ids=["header", "row"])
    def test_field_over_the_csv_module_limit_is_parse_error_at_its_line(
        self, tmp_path, capsys, line
    ):
        limit = csv.field_size_limit()
        lines = [
            "# origin=0", "# mesh=1", "# cells=2", "token_id,type,kind,cell,time,value",
            "0,F(X),mass,1,0,0.5", "", "1,F(X),mass,1,0,0.5",
        ]
        lines[line - 1] += "," + "9" * (limit + 1)
        code, _, err = self._query(capsys, tmp_path, "\n".join(lines) + "\n")
        assert code == 2
        assert err == (
            f"error: line {line}, column 1: bad projection CSV row: "
            f"field larger than field limit ({limit})\n"
        )

    def test_window_outside_horizon_is_parse_error_at_its_line(self, tmp_path, data_dir, capsys):
        facts = tmp_path / "facts.txt"
        facts.write_text("event A(X) est 0 lst 1 kappa 1.0\nevent B(Y) est 90 lst 99 kappa 1.0\n")
        code, _, err = _run(
            capsys, "project",
            "--theory", str(data_dir / "dock.rules"), "--facts", str(facts),
            "--delta", "1", "--omega", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err.startswith("error: line 2, column 1: window [90.0, 99.0] lies entirely")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "facts,delta,time",
        [
            (None, "1e-320", "0"),
            ("event ARRIVE(TRUCK14) est 0 lst 1e300 kappa 1.0\n", "1e-10", "5e-10"),
        ],
        ids=["delta-1e-320", "lst-1e300"],
    )
    def test_cell_quotient_past_float_range_projects(
        self, tmp_path, data_dir, capsys, facts, delta, time
    ):
        path = data_dir / "dock.facts"
        if facts is not None:
            path = tmp_path / "wide.facts"
            path.write_text(facts)
        out = tmp_path / "x.csv"
        code, _, err = _run(
            capsys, "project", "--theory", str(data_dir / "dock.rules"), "--facts", str(path),
            "--delta", delta, "--omega", "10", "--out", str(out),
        )
        assert (code, err) == (0, "")
        for fact, answer in [("ATDOCK(TRUCK14)", "0\n"), ("ATDOCK(?t)", "ATDOCK(TRUCK14) 0\n")]:
            code, got, err = _run(capsys, "query", "--csv", str(out), "--fact", fact, "--time", time)
            assert (code, got, err) == (0, answer, "")

    @pytest.mark.parametrize(
        "facts,mesh,message",
        [
            (None, "1e-320", "error: --mesh 1e-320 is too fine to divide delta 2.0\n"),
            ("event ARRIVE(TRUCK14) est 0 lst 1e-320 kappa 1.0\n", "auto",
             "error: --mesh auto: the narrowest event window (1e-320) is too narrow "
             "to divide delta 2.0\n"),
        ],
        ids=["mesh-1e-320", "window-1e-320"],
    )
    def test_mesh_past_float_range_is_usage_error(
        self, tmp_path, data_dir, capsys, facts, mesh, message
    ):
        path = data_dir / "dock.facts"
        if facts is not None:
            path = tmp_path / "narrow.facts"
            path.write_text(facts)
        code, _, err = _run(
            capsys, "project", "--theory", str(data_dir / "dock.rules"), "--facts", str(path),
            "--delta", "2", "--omega", "10", "--mesh", mesh, "--out", str(tmp_path / "x.csv"),
        )
        assert (code, err) == (1, message)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "omega,mesh,count",
        [
            ("10", "1e-300", "about 10^301"),
            (str(10**30), "2", "about 10^30"),
            (str(cli.MAX_CELLS + 1), "2", str(cli.MAX_CELLS + 1)),
            (str(cli.MAX_CELLS // 2 + 1), "1", str(cli.MAX_CELLS + 2)),
        ],
        ids=["mesh-1e-300", "omega-1e30", "one-cell-over", "refined-over"],
    )
    def test_grid_past_max_cells_is_usage_error(
        self, tmp_path, data_dir, capsys, monkeypatch, omega, mesh, count
    ):
        def no_curves(*args):
            raise AssertionError("a curve was built")

        monkeypatch.setattr(cli, "load_basic_facts", no_curves)
        code, _, err = _run(
            capsys, "project", "--theory", str(data_dir / "dock.rules"),
            "--facts", str(data_dir / "dock.facts"), "--delta", "2", "--omega", omega,
            "--mesh", mesh, "--out", str(tmp_path / "x.csv"),
        )
        assert (code, err) == (
            1,
            f"error: --omega {omega} at --mesh {mesh} makes {count} cells, "
            f"more than the {cli.MAX_CELLS} a grid may hold\n",
        )
        assert not (tmp_path / "x.csv").exists()

    def test_grid_of_max_cells_passes_the_check(self, tmp_path, data_dir, capsys, monkeypatch):
        def stop(store, specs, grid):
            raise RuntimeError(f"load {grid.omega}")

        monkeypatch.setattr(cli, "load_basic_facts", stop)
        with pytest.raises(RuntimeError, match=f"^load {cli.MAX_CELLS}$"):
            main(["project", "--theory", str(data_dir / "dock.rules"),
                  "--facts", str(data_dir / "dock.facts"), "--delta", "2",
                  "--omega", str(cli.MAX_CELLS // 2), "--mesh", "1",
                  "--out", str(tmp_path / "x.csv")])

    def test_always_consequent_is_parse_error(self, tmp_path, capsys):
        # A derived ALWAYS fact would be a second ALWAYS that no antecedent
        # ever joins with, so the rule is refused before anything is written.
        theory = tmp_path / "t.rules"
        theory.write_text(
            "persist A(?x) exp 0.1\n"
            "project E(?x) => ALWAYS @ 0.5\n"
            "project ALWAYS, F(?x) => A(?x) @ 1.0\n"
        )
        facts = tmp_path / "t.facts"
        facts.write_text("event E(X) est 1 lst 1 kappa 1.0\nevent F(Y) est 5 lst 5 kappa 1.0\n")
        out = tmp_path / "x.csv"
        code, _, err = _run(
            capsys, "project", "--theory", str(theory), "--facts", str(facts),
            "--delta", "1", "--omega", "10", "--out", str(out),
        )
        assert code == 2
        assert err == "error: line 2, column 18: ALWAYS is built in and cannot be a consequent\n"
        assert not out.exists()

    STATE = "class T(?x) exponential insts 0 sum 0.0 lambda inf\n"
    STAY = "observe T(A) arrival 0 departure 5\n"

    @pytest.mark.parametrize(
        "state,observations,message",
        [
            (STATE, "observe T(A) arrival 10 departure 5\n",
             "line 1, column 35: invalid stay [10.0, 5.0]"),
            (STATE, "observe T(A) arrival 0 departure inf\n",
             "line 1, column 34: invalid stay [0.0, inf]"),
            (STATE, "observe T(A) arrival nan departure 5\n",
             "line 1, column 22: expected an arrival time, got 'nan'"),
            ("class T(?x) exponential insts -3 sum 0.0 lambda inf\n", STAY,
             "line 1, column 31: insts must be a non-negative integer, got -3.0"),
            ("class T(?x) exponential insts 0 sum nan lambda inf\n", STAY,
             "line 1, column 37: expected a duration sum, got 'nan'"),
            (STATE, "observe T(A) arrival -1.7e308 departure 1.7e308\n",
             "line 1, column 1: duration must be finite and >= 0, got inf"),
            (STATE, "observe T(A) arrival 0 departure 1e308\n"
                    "observe T(B) arrival 0 departure 1.7e308\n",
             "line 2, column 1: sum of T(?x) durations overflows: 1e+308 + 1.7e+308"),
        ],
    )
    def test_bad_acquire_input_is_parse_error(
        self, tmp_path, capsys, state, observations, message
    ):
        state_path, obs_path = tmp_path / "s.state", tmp_path / "o.txt"
        state_path.write_text(state)
        obs_path.write_text(observations)
        code, out, err = _run(
            capsys, "acquire", "--state", str(state_path), "--observations", str(obs_path),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert state_path.read_text() == state

    @pytest.mark.parametrize(
        "arrivals,lifetime,message",
        [
            ("poisson 0", "exp 0.2", "line 1, column 54: arrival rate must be finite and > 0, got 0.0"),
            ("poisson 1", "exp -1", "line 1, column 33: rate must be finite and > 0, got -1.0"),
        ],
    )
    def test_bad_scenario_is_parse_error(self, tmp_path, capsys, arrivals, lifetime, message):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(
            f"scenario seed 5 class T(?x) {lifetime} arrivals {arrivals} count 20 horizon 100\n"
        )
        outdir = tmp_path / "sim"
        code, out, err = _run(
            capsys, "simulate", "--scenario", str(scenario), "--outdir", str(outdir),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("acquire", "class T(?x) exponential insts inf sum 0.0 lambda inf\n",
             "line 1, column 31: insts must be a non-negative integer, got inf"),
            ("simulate", "scenario seed inf class T(?x) exp 0.2 arrivals poisson 1 count 20 horizon 100\n",
             "line 1, column 15: seed must be a non-negative integer, got inf"),
            ("simulate", "scenario seed 5 class T(?x) exp 0.2 arrivals poisson 1 count inf horizon 100\n",
             "line 1, column 62: count must be a non-negative integer, got inf"),
        ],
        ids=["insts", "seed", "count"],
    )
    def test_infinite_integer_field_is_parse_error(self, tmp_path, capsys, command, text, message):
        given, outdir = tmp_path / "input.txt", tmp_path / "sim"
        given.write_text(text)
        if command == "acquire":
            obs = tmp_path / "o.txt"
            obs.write_text(self.STAY)
            argv = ["acquire", "--state", str(given), "--observations", str(obs)]
        else:
            argv = ["simulate", "--scenario", str(given), "--outdir", str(outdir)]
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert given.read_text() == text
        assert not outdir.exists()

    SCENARIO = "scenario seed 5 class T(?x) exp 0.2 arrivals poisson 1 count 20 horizon 100\n"

    @pytest.mark.parametrize(
        "command,bad",
        [
            ("project", "theory"),
            ("project", "facts"),
            ("query", "csv"),
            ("acquire", "state"),
            ("acquire", "observations"),
            ("simulate", "scenario"),
        ],
    )
    def test_undecodable_input_is_parse_error_naming_the_file(
        self, tmp_path, data_dir, dock_csv, capsys, command, bad
    ):
        texts = {
            "theory": (data_dir / "dock.rules").read_bytes(),
            "facts": (data_dir / "dock.facts").read_bytes(),
            "csv": dock_csv.read_bytes(),
            "state": self.STATE.encode(),
            "observations": self.STAY.encode(),
            "scenario": self.SCENARIO.encode(),
        }
        paths = {name: tmp_path / f"input.{name}" for name in texts}
        for name, data in texts.items():
            paths[name].write_bytes(data + "# café ".encode() + b"\xff\n" if name == bad else data)
        argv = {
            "project": ["--theory", paths["theory"], "--facts", paths["facts"],
                        "--delta", "1", "--omega", "200", "--out", tmp_path / "x.csv"],
            "query": ["--csv", paths["csv"], "--fact", "ATDOCK(TRUCK14)", "--time", "1"],
            "acquire": ["--state", paths["state"], "--observations", paths["observations"]],
            "simulate": ["--scenario", paths["scenario"], "--outdir", tmp_path / "sim"],
        }[command]
        code, out, err = _run(capsys, command, *map(str, argv))
        line = texts[bad].count(b"\n") + 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: line {line}, column 8: {paths[bad]} is not utf-8 text: "
            "byte 0xff, invalid start byte\n"
        )
        assert paths["state"].read_bytes().startswith(texts["state"])
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "sim").exists()

    @pytest.mark.parametrize(
        "seed", ["-5", "9" * 400, "2.5", "inf"],
        ids=["negative", "beyond-float", "fraction", "infinite"],
    )
    def test_simulate_seed_outside_what_a_scenario_accepts_is_usage_error(
        self, tmp_path, data_dir, capsys, seed
    ):
        # random.Random would seed -5 as 5; a scenario file rejects all four.
        outdir = tmp_path / "sim"
        code, out, err = _run(
            capsys, "simulate", "--scenario", str(data_dir / "trucks.scenario"),
            "--outdir", str(outdir), "--seed", seed,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: --seed must be an integer in [0, ") and err.count("\n") == 1
        assert not outdir.exists()

    HUGE = "arrivals poisson 1.0 count {} horizon 1.7976931348623157e308\n"

    def test_simulate_uniform_lifetime_near_the_largest_float(self, tmp_path, capsys):
        # lo + hi overflows, yet the mean and so the reference rate stay finite and positive
        scenario = tmp_path / "s.scenario"
        scenario.write_text("scenario seed 1 class T(?x) uniform 1e308 1.7e308 " + self.HUGE.format(1))
        outdir = tmp_path / "sim"
        code, out, err = _run(capsys, "simulate", "--scenario", str(scenario), "--outdir", str(outdir))
        assert (code, err) == (0, "")
        reference = rate("exponential", 1.35e308)
        assert 0.0 < reference and f"reference={_fmt(reference)} " in out
        assert out.count("\n") == 1

    def test_simulate_stays_summing_past_the_largest_float_is_parse_error(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("scenario seed 1 class T(?x) fixed 1e308 " + self.HUGE.format(20))
        outdir = tmp_path / "sim"
        code, out, err = _run(capsys, "simulate", "--scenario", str(scenario), "--outdir", str(outdir))
        assert (code, out) == (2, "")
        assert err == "error: line 1, column 1: sum of T(?x) durations overflows: 1e+308 + 1e+308\n"
        assert not outdir.exists()

    def test_simulate_outdir_naming_a_file_is_io_error(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(
            "scenario seed 5 class T(?x) exp 0.2 arrivals poisson 1 count 20 horizon 1000\n"
        )
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = _run(
            capsys, "simulate", "--scenario", str(scenario), "--outdir", str(taken),
        )
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1
        assert taken.read_text() == ""


class TestAcquire:
    def test_updates_state_in_place(self, tmp_path, capsys):
        state = tmp_path / "trucks.state"
        state.write_text("class TRUCKAT(?d) exponential insts 0 sum 0.0 lambda inf\n")
        obs = tmp_path / "obs.txt"
        obs.write_text("observe TRUCKAT(DOCK1) arrival 0 departure 10\n")
        code, out, _ = _run(
            capsys, "acquire", "--state", str(state), "--observations", str(obs),
        )
        assert code == 0
        assert "folded 1 observations" in out
        store = load_state(state.read_text())
        assert store.classes[0].insts == 1
        assert store.classes[0].lam == rate("exponential", 10.0)

    def test_repeated_acquire_accumulates(self, tmp_path, capsys):
        state = tmp_path / "trucks.state"
        state.write_text("class TRUCKAT(?d) exponential insts 0 sum 0.0 lambda inf\n")
        obs = tmp_path / "obs.txt"
        obs.write_text("observe TRUCKAT(DOCK1) arrival 0 departure 10\n")
        _run(capsys, "acquire", "--state", str(state), "--observations", str(obs))
        obs.write_text("observe TRUCKAT(DOCK2) arrival 5 departure 25\n")
        _run(capsys, "acquire", "--state", str(state), "--observations", str(obs))
        store = load_state(state.read_text())
        assert store.classes[0].insts == 2
        assert store.classes[0].mean == 15.0

    def test_empty_observations_round_trips_state(self, tmp_path, capsys):
        state = tmp_path / "trucks.state"
        original = "class TRUCKAT(?d) exponential insts 3 sum 42.5 lambda 0.04892803627481967\n"
        state.write_text(original)
        obs = tmp_path / "obs.txt"
        obs.write_text("# nothing today\n")
        code, _, _ = _run(
            capsys, "acquire", "--state", str(state), "--observations", str(obs),
        )
        assert code == 0
        assert state.read_text() == original

    def test_unknown_class_fails_without_touching_state(self, tmp_path, capsys):
        state = tmp_path / "trucks.state"
        original = "class TRUCKAT(?d) exponential insts 0 sum 0.0 lambda inf\n"
        state.write_text(original)
        obs = tmp_path / "obs.txt"
        obs.write_text(
            "observe TRUCKAT(DOCK1) arrival 0 departure 10\n"
            "observe SHIPAT(PIER1) arrival 0 departure 4\n"
        )
        code, _, err = _run(
            capsys, "acquire", "--state", str(state), "--observations", str(obs),
        )
        assert code == 2
        assert "SHIPAT" in err
        assert state.read_text() == original

    def test_parse_error_on_a_later_line_beats_an_unknown_class(self, tmp_path, capsys):
        """Every line is parsed before any stay is folded, so a parse error
        is reported even when an earlier line's key matches no class."""
        state = tmp_path / "trucks.state"
        original = "class TRUCKAT(?d) exponential insts 0 sum 0.0 lambda inf\n"
        state.write_text(original)
        obs = tmp_path / "obs.txt"
        obs.write_text(
            "observe SHIPAT(PIER1) arrival 0 departure 4\n"
            "observe TRUCKAT(DOCK1) arrival 10 departure 5\n"
        )
        got = _run(capsys, "acquire", "--state", str(state), "--observations", str(obs))
        assert got == (2, "", "error: line 2, column 45: invalid stay [10.0, 5.0]\n")
        assert state.read_text() == original

    def test_two_classes_fold_as_the_statement_reader_reads(self, tmp_path, capsys):
        """``acquire`` on a simulated fleet of two round-robin classes writes
        the state that folding the statement reader's observations gives."""
        scenario = tmp_path / "two.scenario"
        scenario.write_text(
            "scenario seed 11 class TRUCKAT(?d) exp 0.1 class SHIPAT(?p) uniform 2 30 "
            "arrivals poisson 0.5 count 400 horizon 1e9\n"
        )
        _run(capsys, "simulate", "--scenario", str(scenario), "--outdir", str(tmp_path / "sim"))
        text = (tmp_path / "sim" / "observations.txt").read_text()
        initial = (
            "class TRUCKAT(?d) exponential insts 0 sum 0.0 lambda inf\n"
            "class SHIPAT(?p) linear insts 2 sum 7.5 lambda 0.06666666666666667\n"
        )
        store = load_state(initial)
        for cur in statements(text):
            obs = _observation(cur)
            store.observe(obs.key, obs.departure - obs.arrival)
        assert [cls.insts for cls in store.classes] == [200, 202]
        state = tmp_path / "two.state"
        state.write_text(initial)
        got = _run(
            capsys, "acquire", "--state", str(state),
            "--observations", str(tmp_path / "sim" / "observations.txt"),
        )
        assert got == (0, "folded 400 observations into 2 classes\n", "")
        assert state.read_text() == save_state(store)

    @pytest.mark.parametrize("departure,code", [("10", 0), ("inf", 2)], ids=["folded", "refused"])
    def test_keeps_the_state_file_mode(self, tmp_path, capsys, data_dir, departure, code):
        state = tmp_path / "trucks.state"
        original = (data_dir / "trucks.state").read_text()
        state.write_text(original)
        state.chmod(0o644)
        obs = tmp_path / "obs.txt"
        obs.write_text(f"observe TRUCKAT(DOCK1) arrival 0 departure {departure}\n")
        assert _run(capsys, "acquire", "--state", str(state), "--observations", str(obs))[0] == code
        assert oct(state.stat().st_mode & 0o777) == oct(0o644)
        assert (state.read_text() == original) == (code != 0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.txt", "trucks.state"]

    def test_fold_matches_left_to_right_sum(self, tmp_path, capsys, data_dir):
        """``acquire`` against an independent fold of a simulated fleet: the
        count is the line count and the sum is the exact left-to-right sum
        of ``departure - arrival``, read with ``str.split``."""
        outdir = tmp_path / "sim"
        _run(capsys, "simulate", "--scenario", str(data_dir / "trucks.scenario"),
             "--outdir", str(outdir))
        observations = outdir / "observations.txt"
        state = tmp_path / "trucks.state"
        state.write_text((data_dir / "trucks.state").read_text())
        code, _, _ = _run(
            capsys, "acquire", "--state", str(state), "--observations", str(observations),
        )
        assert code == 0
        lines = observations.read_text().splitlines()
        total = 0.0
        for line in lines:
            _, _, _, arrival, _, departure = line.split()
            total += float(departure) - float(arrival)
        (cls,) = load_state(state.read_text()).classes
        assert cls.insts == len(lines) == 10000
        assert cls.total == total


class TestTracedAcquireEntryPoint:
    """What ``bench/traced.py`` relies on in ``acquire``: it wraps
    ``cli.parse_observations`` by name and counts the observations with
    ``len()`` of what the wrapped call returns."""

    def test_returns_a_sized_sequence_of_one_entry_per_observation_line(self):
        text = (
            "# stays\n\nobserve T(A) arrival 0 departure 1\n"
            "observe T(B) arrival 1 departure 1 # same time\n"
            "\x0cobserve T(C) arrival 2 departure 3\n"
        )
        result = cli.parse_observations(text)
        assert isinstance(result, collections.abc.Sequence)
        assert len(result) == 3

    def test_acquire_calls_it_through_the_cli_namespace(
        self, tmp_path, capsys, data_dir, monkeypatch
    ):
        parse, results = cli.parse_observations, []

        def recorded(text):
            results.append(parse(text))
            return results[-1]

        monkeypatch.setattr(cli, "parse_observations", recorded)
        state = tmp_path / "t.state"
        state.write_text((data_dir / "trucks.state").read_text())
        obs = tmp_path / "obs.txt"
        obs.write_text(
            "observe TRUCKAT(A) arrival 0 departure 1\nobserve TRUCKAT(B) arrival 0 departure 2\n"
        )
        got = _run(capsys, "acquire", "--state", str(state), "--observations", str(obs))
        assert got == (0, "folded 2 observations into 1 classes\n", "")
        assert [len(result) for result in results] == [2]


class TestTracedQueryEntryPoint:
    """What ``bench/traced.py`` relies on in ``query``: it wraps
    ``cli._load_projection_csv`` by name, ``query`` calls it with the path
    and ``locate``, and the types' masses are ``result[1]``."""

    CSV = (
        "# origin=0\n# mesh=1\n# cells=3\ntoken_id,type,kind,cell,time,value\n"
        "0,F(X),mass,1,0,0.5\n0,F(X),mass,2,1,0.25\n1,G(X),mass,1,0,1\n"
    )

    def test_takes_path_and_locate_and_returns_grid_and_masses(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(self.CSV)
        result = cli._load_projection_csv(
            path=str(path), locate=lambda grid: (Pattern("F", ("?x",)), 2)
        )
        assert isinstance(result, tuple) and len(result) == 2
        grid, masses = result
        assert isinstance(grid, TimeGrid) and grid == TimeGrid(0.0, 1.0, 3)
        assert type(masses) is dict and masses == {"F(X)": [0.25]}

    def test_query_calls_it_through_the_cli_namespace(self, tmp_path, capsys, monkeypatch):
        load, results = cli._load_projection_csv, []

        def recorded(path, locate):
            results.append(load(path, locate))
            return results[-1]

        monkeypatch.setattr(cli, "_load_projection_csv", recorded)
        path = tmp_path / "p.csv"
        path.write_text(self.CSV)
        got = _run(capsys, "query", "--csv", str(path), "--fact", "F(?x)", "--time", "0")
        assert got == (0, "F(X) 0.5\n", "")
        assert [result[1] for result in results] == [{"F(X)": [0.5]}]


class TestAcquireThroughSymlink:
    @pytest.mark.parametrize("departure,code", [("10", 0), ("inf", 2)], ids=["folded", "refused"])
    def test_replaces_the_target_and_keeps_the_link(
        self, tmp_path, capsys, data_dir, departure, code
    ):
        real = tmp_path / "real"
        real.mkdir()
        target = real / "t.state"
        original = (data_dir / "trucks.state").read_text()
        target.write_text(original)
        target.chmod(0o644)
        link = tmp_path / "link.state"
        link.symlink_to(target)
        obs = tmp_path / "obs.txt"
        obs.write_text(f"observe TRUCKAT(DOCK1) arrival 0 departure {departure}\n")
        assert _run(capsys, "acquire", "--state", str(link), "--observations", str(obs))[0] == code
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        if code == 0:
            assert load_state(target.read_text()).classes[0].insts == 1
        else:
            assert target.read_text() == original
        assert oct(target.stat().st_mode & 0o777) == oct(0o644)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.state", "obs.txt", "real"]
        assert sorted(p.name for p in real.iterdir()) == ["t.state"]


class TestSimulateAgreesWithAcquire:
    @pytest.mark.parametrize("family", ["exponential", "linear"])
    def test_same_lambda(self, tmp_path, capsys, data_dir, family):
        """``acquire`` on the stays ``simulate`` writes learns exactly the
        decay parameter that ``simulate``'s own report ends on."""
        scenario = data_dir / "trucks.scenario"
        outdir = tmp_path / "sim"
        assert _run(capsys, "simulate", "--scenario", str(scenario), "--outdir", str(outdir),
                    "--family", family)[0] == 0
        state = tmp_path / "trucks.state"
        state.write_text(f"class TRUCKAT(?d) {family} insts 0 sum 0.0 lambda inf\n")
        assert _run(capsys, "acquire", "--state", str(state),
                    "--observations", str(outdir / "observations.txt"))[0] == 0
        (cls,) = load_state(state.read_text()).classes
        last = run_convergence(parse_scenario(scenario.read_text()), family)[-1]
        assert last.n == cls.insts
        assert last.acquired == cls.lam


class TestSimulate:
    def test_writes_three_files(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(
            "scenario seed 5 class T(?x) exp 0.2 arrivals poisson 1 "
            "count 200 horizon 10000\n"
        )
        outdir = tmp_path / "sim"
        code, out, _ = _run(
            capsys, "simulate", "--scenario", str(scenario), "--outdir", str(outdir),
        )
        assert code == 0
        facts = (outdir / "facts.txt").read_text()
        assert facts.count("event ARRIVE(") == 200
        observations = (outdir / "observations.txt").read_text()
        assert observations.startswith("observe T(E1)")
        table = (outdir / "convergence.csv").read_text().splitlines()
        assert table[0] == "class,n,acquired_lambda,reference_lambda,relative_error"
        assert len(table) == 1 + 2  # checkpoints 10 and 100 fit in 200 stays
        assert "n=10 " in out

    def test_seed_override_changes_sample(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(
            "scenario seed 5 class T(?x) exp 0.2 arrivals poisson 1 "
            "count 50 horizon 10000\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        _run(capsys, "simulate", "--scenario", str(scenario), "--outdir", str(a))
        _run(capsys, "simulate", "--scenario", str(scenario), "--outdir", str(b),
             "--seed", "99")
        assert (a / "facts.txt").read_text() != (b / "facts.txt").read_text()

    def test_seed_in_exponent_form_reads_as_in_a_scenario(self, tmp_path, capsys):
        # ``seed 1e3`` in a scenario file means 1000, and so does ``--seed 1e3``
        text = "scenario seed {} class T(?x) exp 0.2 arrivals poisson 1 count 50 horizon 10000\n"
        runs = {}
        for name, seed, flags in [
            ("file", "1e3", []),
            ("flag", "5", ["--seed", "1e3"]),
            ("int", "5", ["--seed", "1000"]),
            ("none", "5", []),
        ]:
            scenario = tmp_path / f"{name}.scenario"
            scenario.write_text(text.format(seed))
            code, out, err = _run(
                capsys, "simulate", "--scenario", str(scenario),
                "--outdir", str(tmp_path / name), *flags,
            )
            assert (code, err) == (0, "")
            runs[name] = (out, (tmp_path / name / "facts.txt").read_text())
        assert runs["file"] == runs["flag"] == runs["int"] != runs["none"]


class TestExitCodes:
    def test_usage_error_no_arguments(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_usage_error_unknown_flag(self, capsys):
        assert main(["project", "--bogus"]) == 1
        capsys.readouterr()

    def test_parse_error_in_theory(self, tmp_path, data_dir, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("persist ATDOCK(?t) exp minus\n")
        code, _, err = _run(
            capsys, "project", "--theory", str(bad),
            "--facts", str(data_dir / "dock.facts"),
            "--delta", "1", "--omega", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "line 1" in err

    def test_cycle_error(self, tmp_path, capsys):
        rules = tmp_path / "cyclic.rules"
        rules.write_text(
            "persist A(?x) exp 0.1\npersist B(?x) exp 0.1\n"
            "project B(?x), EA(?x) => A(?x) @ 1.0\n"
            "project A(?x), EB(?x) => B(?x) @ 1.0\n"
            "project ALWAYS, E0(?x) => A(?x) @ 1.0\n"
        )
        facts = tmp_path / "cyclic.facts"
        facts.write_text(
            "event E0(X) est 0 lst 1 kappa 1.0\nevent EB(X) est 2 lst 3 kappa 1.0\n"
        )
        code, _, err = _run(
            capsys, "project", "--theory", str(rules), "--facts", str(facts),
            "--delta", "1", "--omega", "20", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "cycle" in err

    def test_cycle_message_does_not_depend_on_hash_seed(self, tmp_path):
        # Two cycles through A are open at cell 3; string hashing used to
        # decide which one was named (seeds 0 and 2 named different ones).
        rules = tmp_path / "two-cycles.rules"
        rules.write_text(
            "persist A(?x) exp 0.1\npersist B(?x) exp 0.1\npersist C(?x) exp 0.1\n"
            "project ALWAYS, E0(?x) => A(?x) @ 1.0\n"
            "project A(?x), E1(?x) => B(?x) @ 1.0\n"
            "project A(?x), E2(?x) => C(?x) @ 1.0\n"
            "project B(?x), E3(?x) => A(?x) @ 1.0\n"
            "project C(?x), E4(?x) => A(?x) @ 1.0\n"
        )
        facts = tmp_path / "two-cycles.facts"
        facts.write_text(
            "event E0(X) est 0 lst 0 kappa 1.0\n"
            "event E1(X) est 2 lst 2 kappa 1.0\nevent E2(X) est 2 lst 2 kappa 1.0\n"
        )
        argv = [
            sys.executable, "-m", "tempro", "project", "--theory", str(rules),
            "--facts", str(facts), "--delta", "1", "--omega", "10",
            "--out", str(tmp_path / "x.csv"),
        ]
        runs = {
            seed: subprocess.run(
                argv, capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            for seed in ("0", "2")
        }
        assert {(run.returncode, run.stderr) for run in runs.values()} == {
            (3, "error: open tokens at cell 3 form a dependency cycle: A/1 -> B/1 -> A/1\n")
        }

    def test_io_error_missing_file(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "project", "--theory", str(tmp_path / "missing.rules"),
            "--facts", str(tmp_path / "missing.facts"),
            "--delta", "1", "--omega", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 4
        assert "missing.rules" in err

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "tempro", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "project" in proc.stdout


class TestCollector:
    """``main`` runs a command with the cyclic garbage collector off and
    leaves it as it found it; what the commands build holds no cycles."""

    @staticmethod
    def _argv(path, tmp_path):
        state = tmp_path / "trucks.state"
        state.write_text("class TRUCKAT(?d) exponential insts 0 sum 0.0 lambda inf\n")
        obs = tmp_path / "obs.txt"
        obs.write_text("observe TRUCKAT(DOCK1) arrival 0 departure 10\n")
        if path == "ok":
            return 0, ["acquire", "--state", str(state), "--observations", str(obs)]
        if path == "usage":
            return 1, ["project", "--bogus"]
        if path == "parse":
            obs.write_text("observe TRUCKAT(DOCK1) arrival 10 departure 0\n")
            return 2, ["acquire", "--state", str(state), "--observations", str(obs)]
        if path == "cycle":
            rules = tmp_path / "cyclic.rules"
            rules.write_text(
                "persist A(?x) exp 0.1\npersist B(?x) exp 0.1\n"
                "project B(?x), EA(?x) => A(?x) @ 1.0\n"
                "project A(?x), EB(?x) => B(?x) @ 1.0\n"
                "project ALWAYS, E0(?x) => A(?x) @ 1.0\n"
            )
            facts = tmp_path / "cyclic.facts"
            facts.write_text(
                "event E0(X) est 0 lst 1 kappa 1.0\nevent EB(X) est 2 lst 3 kappa 1.0\n"
            )
            return 3, ["project", "--theory", str(rules), "--facts", str(facts),
                       "--delta", "1", "--omega", "20", "--out", str(tmp_path / "x.csv")]
        if path == "help":  # argparse prints the usage and raises SystemExit
            return None, ["--help"]
        assert path == "io"
        return 4, ["acquire", "--state", str(tmp_path / "missing.state"),
                   "--observations", str(obs)]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("path", ["ok", "usage", "parse", "cycle", "io", "help"])
    def test_leaves_the_collector_as_it_found_it(self, path, enabled, tmp_path, capsys):
        code, argv = self._argv(path, tmp_path)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if code is None:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    def test_collector_is_off_while_the_command_runs(self, tmp_path, monkeypatch, capsys):
        _, argv = self._argv("ok", tmp_path)
        seen = []
        real = cli.cmd_acquire
        monkeypatch.setattr(cli, "cmd_acquire", lambda args: seen.append(gc.isenabled()) or real(args))
        assert main(argv) == 0
        assert seen == [False]
        capsys.readouterr()

    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path, capsys):
        """The cycles ``project`` and ``acquire`` leave (the parser's own) are
        the same at two input sizes, so the tokens and stays hold none."""

        def garbage(count):
            work = tmp_path / str(count)
            work.mkdir()
            rules, facts = work / "join.rules", work / "join.facts"
            rules.write_text(_BYTE_JOIN_THEORY)
            facts.write_text(_byte_join_facts(count, count))
            state, obs = work / "state", work / "obs.txt"
            state.write_text("class ATDOCK(?t) exponential insts 0 sum 0.0 lambda inf\n")
            obs.write_text("".join(
                f"observe ATDOCK(T{k}) arrival {k} departure {2 * k + 1}\n" for k in range(count)
            ))
            gc.collect()
            assert main(["project", "--theory", str(rules), "--facts", str(facts),
                         "--delta", "5", "--omega", "200", "--out", str(work / "out.csv")]) == 0
            assert main(["acquire", "--state", str(state), "--observations", str(obs)]) == 0
            return gc.collect()

        was = gc.isenabled()
        gc.disable()
        try:
            garbage(5)  # imports the layers
            small, large = garbage(20), garbage(200)
        finally:
            if was:
                gc.enable()
        capsys.readouterr()
        assert small == large


class TestStartup:
    """Each command imports the package's modules and no more, and none
    imports numpy: curves are ``array('d')``, and only the test oracles in
    ``refinement`` and ``core`` use numpy.  None imports ``dataclasses`` or
    ``inspect`` either: the package's records are plain slotted classes.  Nor
    does any import ``logging``, since nothing logs.  (That no module imports
    ``typing`` is checked in ``tests/test_imports.py``, since ``site`` may
    import it before any command runs.)"""

    COMMANDS = ["help", "project", "query", "query-pattern", "simulate", "acquire"]
    MODULES = {
        "tempro", "tempro.cli", "tempro.core", "tempro.theory", "tempro.tokens",
        "tempro.projection", "tempro.refinement", "tempro.acquisition", "tempro.simulator",
    }

    @pytest.fixture(scope="class")
    def imported(self, tmp_path_factory, data_dir) -> dict[str, list[str]]:
        """The modules that ``python -m tempro ARGV`` imports, by command,
        in the order ``-X importtime`` lists them."""
        tmp = tmp_path_factory.mktemp("startup")
        projection, sim, state = tmp / "dock.csv", tmp / "sim", tmp / "t.state"
        state.write_bytes((data_dir / "trucks.state").read_bytes())
        runs = {
            "help": ["--help"],
            "project": ["project", "--theory", data_dir / "dock.rules",
                        "--facts", data_dir / "dock.facts",
                        "--delta", "2", "--omega", "100", "--out", projection],
            "query": ["query", "--csv", projection, "--fact", "ATDOCK(TRUCK14)", "--time", "60"],
            "query-pattern": ["query", "--csv", projection, "--fact", "ATDOCK(?t)", "--time", "60"],
            "simulate": ["simulate", "--scenario", data_dir / "trucks.scenario", "--outdir", sim],
            "acquire": ["acquire", "--state", state, "--observations", sim / "observations.txt"],
        }
        imported = {}
        for command, argv in runs.items():  # in order: query reads what project wrote
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "tempro", *map(str, argv)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, (command, proc.stderr)
            imported[command] = [
                line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")
            ]
        return imported

    def test_no_command_imports_numpy(self, imported):
        for command, modules in imported.items():
            assert [m for m in modules if m == "numpy" or m.startswith("numpy.")] == [], command

    def test_no_command_imports_dataclasses_or_inspect(self, imported):
        for command, modules in imported.items():
            assert [m for m in modules if m in ("dataclasses", "inspect")] == [], command

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_imports_only_its_layers(self, imported, command):
        found = {m for m in imported[command] if m == "tempro" or m.startswith("tempro.")}
        assert found == self.MODULES

    def test_no_command_imports_logging(self, imported):
        for command, modules in imported.items():
            assert "logging" not in modules, command


# Run in a fresh interpreter: set a wrapper on ``cli`` for each name in
# argv[1], a JSON list, each wrapping what ``cli`` held, as
# ``bench/traced.py`` does; run the commands in argv[2] (a JSON list of argv
# lists), and print what the wrappers saw as JSON.
_PATCH_SCRIPT = """
import json, sys
from tempro import cli

names, runs = json.loads(sys.argv[1]), json.loads(sys.argv[2])
called = []

def wrap(name):
    original = getattr(cli, name)
    def wrapper(*args, **kwargs):
        called.append(name)
        return original(*args, **kwargs)
    return wrapper

for name in names:
    setattr(cli, name, wrap(name))
codes = [cli.main(argv) for argv in runs]
print(json.dumps({"called": called, "codes": codes}))
"""


class TestPatchedLayers:
    """A wrapper set on ``cli`` for a layer entry point is the one its
    command calls, as ``bench/traced.py`` and ``monkeypatch.setattr(cli,
    ...)`` rely on."""

    LAYERS = [
        "parse_basic_facts", "load_basic_facts", "project", "refine", "load_state",
        "parse_observations", "save_state_file", "parse_scenario", "generate", "run_convergence",
    ]

    # The names ``bench/traced.py`` wraps on ``cli`` that another module
    # defines, by that module, and those ``cli`` defines.
    TRACED = {
        "unify": "theory", "parse_theory": "theory", "parse_basic_facts": "tokens",
        "load_basic_facts": "tokens", "project": "projection", "refine": "refinement",
        "load_state": "acquisition", "parse_observations": "acquisition",
        "save_state_file": "acquisition",
    }
    OWN = {"cmd_project", "cmd_query", "cmd_acquire", "_load_projection_csv"}

    def test_cli_names_are_the_home_modules_objects(self, data_dir):
        spec = importlib.util.spec_from_file_location(
            "traced", data_dir.parent / "bench" / "traced.py"
        )
        traced = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(traced)
        read = set()

        class Recorder:  # records each name ``install`` reads off ``cli``
            def __getattr__(self, name):
                read.add(name)
                return getattr(cli, name)

        traced.install(Recorder(), traced.Tracer())
        assert read == set(self.TRACED) | self.OWN
        for name, home in self.TRACED.items():
            assert getattr(cli, name) is getattr(importlib.import_module(f"tempro.{home}"), name)

    def test_wrapper_set_on_cli_is_called(self, tmp_path, data_dir):
        state = tmp_path / "t.state"
        state.write_bytes((data_dir / "trucks.state").read_bytes())
        runs = [
            ["project", "--theory", str(data_dir / "dock.rules"),
             "--facts", str(data_dir / "dock.facts"), "--delta", "2", "--omega", "100",
             "--out", str(tmp_path / "dock.csv")],
            ["simulate", "--scenario", str(data_dir / "trucks.scenario"),
             "--outdir", str(tmp_path / "sim")],
            ["acquire", "--state", str(state),
             "--observations", str(tmp_path / "sim" / "observations.txt")],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _PATCH_SCRIPT, json.dumps(self.LAYERS), json.dumps(runs)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["codes"] == [0, 0, 0]
        assert sorted(seen["called"]) == sorted(self.LAYERS)
