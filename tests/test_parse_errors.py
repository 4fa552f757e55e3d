"""Golden table of parse errors: one single-fault line per error site.

Every line-oriented format (rules, basic facts, acquisition state,
observations, scenario), the single-pattern reader and the grid metadata of
a projection CSV must report each fault with exactly this message, line and
column.  The reader's tokens are
also checked against the match-loop tokenizer it replaced.
"""
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempro import (
    ParseError,
    TimeGrid,
    TokenStore,
    load_basic_facts,
    load_state,
    parse_basic_facts,
    parse_observations,
    parse_pattern_text,
    parse_scenario,
    parse_theory,
)
from tempro.cli import main
from tempro.theory import _kind, split_lines, statements


def _facts_on_grid(text):
    return load_basic_facts(TokenStore(), text, TimeGrid(0.0, 1.0, 10))


PARSERS = {
    "theory": parse_theory,
    "facts": parse_basic_facts,
    "facts_on_grid": _facts_on_grid,
    "state": load_state,
    "observations": parse_observations,
    "scenario": parse_scenario,
    "pattern": parse_pattern_text,
}

_S = "scenario seed 1 class T(?x) exp 1 arrivals poisson 1 count 5 horizon 10"

CASES = [
    # Lexer and cursor forms shared by every format.
    ("unexpected-character", "theory", "persist A exp 0.1 $", "unexpected character '$'", 1, 19),
    ("trailing-input", "theory", "persist A exp 0.1 B", "unexpected trailing input 'B'", 1, 19),
    ("unterminated-after-paren", "theory", "persist A(", "unterminated argument list", 1, 11),
    ("unterminated-after-comma", "theory", "persist A(X,", "unterminated argument list", 1, 13),
    ("bad-constant", "theory", "persist A(x) exp 0.1", "constant 'x' must be upper-case", 1, 11),
    ("keyword-as-constant", "theory", "persist A(X, exp 1", "constant 'exp' must be upper-case", 1, 14),
    ("expected-argument", "theory", "persist A(,) exp 1",
     "expected a constant or ?variable, got ','", 1, 11),
    ("expected-rparen", "theory", "persist A(X exp 1", "expected ')', got 'exp'", 1, 13),
    ("lower-case-name", "theory", "persist a exp 1", "pattern name 'a' must be upper-case", 1, 9),
    ("expected-pattern-name", "theory", "persist 1 exp 1", "expected a pattern name, got '1'", 1, 9),
    ("pattern-name-at-end", "theory", "persist", "expected a pattern name", 1, 8),
    ("expected-keyword", "facts", "event A est 0 lstx 1 kappa 1", "expected 'lst', got 'lstx'", 1, 15),
    ("keyword-at-end", "facts", "event A est 0", "expected 'lst'", 1, 14),
    ("expected-number", "facts", "event A est x lst 1 kappa 1",
     "expected the earliest start time, got 'x'", 1, 13),
    ("number-at-end", "theory", "persist A exp", "expected a decay parameter", 1, 14),
    # Rules.
    ("theory-head", "theory", "foo A", "expected 'persist' or 'project'", 1, 1),
    ("theory-head-not-a-name", "theory", "=> A", "expected 'persist' or 'project'", 1, 1),
    ("theory-family", "theory", "persist A log 1", "expected 'exp' or 'lin'", 1, 11),
    ("theory-family-at-end", "theory", "persist A", "expected 'exp' or 'lin'", 1, 10),
    ("theory-decay", "theory", "persist A exp -1", "decay parameter must be >= 0, got -1.0", 1, 15),
    ("theory-duplicate", "theory", "persist A(?x) exp 1\n\npersist A(?y) lin 2",
     "duplicate persistence rule for A(?y) (first given on line 1)", 3, 1),
    ("theory-arrow", "theory", "project A, B @ 1", "expected '=>', got '@'", 1, 14),
    ("theory-at", "theory", "project A => B 1", "expected '@', got '1'", 1, 16),
    ("theory-kappa", "theory", "project A => B @ 1.5", "kappa must lie in [0, 1], got 1.5", 1, 18),
    ("theory-kappa-not-a-number", "theory", "project A => B @ x",
     "expected a probability, got 'x'", 1, 18),
    ("theory-unsafe-variable", "theory", "project A(?x) => B(?y) @ 1",
     "consequent variable ?y appears in neither the trigger nor any antecedent", 1, 24),
    ("theory-always-consequent", "theory", "project E(?x) => ALWAYS @ 0.5",
     "ALWAYS is built in and cannot be a consequent", 1, 18),
    # Basic facts.
    ("facts-head", "facts", "evnt A est 0 lst 1 kappa 1", "expected 'event', got 'evnt'", 1, 1),
    ("facts-ground", "facts", "event A(?x) est 0 lst 1 kappa 1",
     "basic event A(?x) must be ground", 1, 7),
    ("facts-window", "facts", "# note\nevent A est 5 lst 1 kappa 1",
     "window [5.0, 1.0] is invalid", 2, 19),
    ("facts-window-infinite", "facts", "event A est inf lst 1 kappa 1",
     "window [inf, 1.0] is invalid", 1, 21),
    ("facts-kappa", "facts", "event A est 0 lst 1 kappa 2", "kappa must lie in [0, 1], got 2.0", 1, 27),
    ("facts-trailing", "facts", "event A est 0 lst 1 kappa 1 B", "unexpected trailing input 'B'", 1, 29),
    ("facts-outside-horizon", "facts_on_grid",
     "event A est 0 lst 1 kappa 1\nevent B est 20 lst 30 kappa 1",
     "window [20.0, 30.0] lies entirely outside the horizon [0.0, 10.0)", 2, 1),
    # Acquisition state.
    ("state-head", "state", "klass T(?x) exponential insts 0 sum 0 lambda inf",
     "expected 'class', got 'klass'", 1, 1),
    ("state-family", "state", "class T(?x) exponentail insts 0 sum 0 lambda inf",
     "expected 'linear' or 'exponential'", 1, 13),
    ("state-insts-negative", "state", "class T(?x) exponential insts -3 sum 0 lambda inf",
     "insts must be a non-negative integer, got -3.0", 1, 31),
    ("state-insts-fraction", "state", "class T(?x) exponential insts 1.5 sum 0 lambda inf",
     "insts must be a non-negative integer, got 1.5", 1, 31),
    ("state-sum-infinite", "state", "class T(?x) exponential insts 0 sum inf lambda inf",
     "sum must be finite and >= 0, got inf", 1, 37),
    ("state-sum-negative", "state", "class T(?x) exponential insts 0 sum -1 lambda inf",
     "sum must be finite and >= 0, got -1.0", 1, 37),
    ("state-sum-without-insts", "state", "class T(?x) exponential insts 0 sum 5.0 lambda inf",
     "sum must be 0 when insts is 0, got 5.0", 1, 37),
    ("state-lambda", "state", "class T(?x) exponential insts 0 sum 0 lambda x",
     "expected a decay parameter, got 'x'", 1, 46),
    # Observations.
    ("observations-head", "observations", "obsrve T(A) arrival 0 departure 1",
     "expected 'observe', got 'obsrve'", 1, 1),
    ("observations-ground", "observations", "observe T(?x) arrival 0 departure 1",
     "observation key T(?x) must be ground", 1, 9),
    ("observations-backwards", "observations", "observe T(A) arrival 10 departure 5",
     "invalid stay [10.0, 5.0]", 1, 35),
    ("observations-infinite-arrival", "observations", "observe T(A) arrival inf departure 5",
     "invalid stay [inf, 5.0]", 1, 36),
    ("observations-infinite-departure", "observations", "observe T(A) arrival 0 departure inf",
     "invalid stay [0.0, inf]", 1, 34),
    ("observations-nan", "observations", "observe T(A) arrival nan departure 5",
     "expected an arrival time, got 'nan'", 1, 22),
    ("observations-second-line", "observations",
     "observe T(A) arrival 0 departure 1 # c\nobserve T(A) arrival 0 leave 1",
     "expected 'departure', got 'leave'", 2, 24),
    # Scenario.
    ("scenario-twice", "scenario", _S + "\n" + _S, "expected a single scenario statement", 2, 1),
    ("scenario-seed-fraction", "scenario", _S.replace("seed 1", "seed 1.5"),
     "seed must be a non-negative integer, got 1.5", 1, 15),
    ("scenario-seed-negative", "scenario", _S.replace("seed 1", "seed -1"),
     "seed must be a non-negative integer, got -1.0", 1, 15),
    ("scenario-lifetime-not-a-name", "scenario", _S.replace("exp 1", "5"),
     "expected 'exp', 'uniform' or 'fixed'", 1, 29),
    ("scenario-lifetime-unknown", "scenario", _S.replace("exp 1", "gamma 1"),
     "unknown lifetime distribution 'gamma'", 1, 29),
    ("scenario-rate", "scenario", _S.replace("exp 1", "exp inf"),
     "rate must be finite and > 0, got inf", 1, 33),
    ("scenario-uniform-reversed", "scenario", _S.replace("exp 1", "uniform 5 1"),
     "bounds must satisfy 0 <= lo <= hi, got [5.0, 1.0]", 1, 39),
    ("scenario-uniform-infinite", "scenario", _S.replace("exp 1", "uniform 1 inf"),
     "bounds must satisfy 0 <= lo <= hi, got [1.0, inf]", 1, 39),
    ("scenario-fixed", "scenario", _S.replace("exp 1", "fixed inf"),
     "duration must be finite and >= 0, got inf", 1, 35),
    ("scenario-no-class", "scenario", _S.replace("class T(?x) exp 1 ", ""),
     "expected at least one 'class' clause", 1, 17),
    ("scenario-arrivals-not-a-name", "scenario", _S.replace("poisson 1", "5"),
     "expected 'poisson' or 'at'", 1, 44),
    ("scenario-arrivals-unknown", "scenario", _S.replace("poisson 1", "uniform 1"),
     "unknown arrival process 'uniform'", 1, 44),
    ("scenario-arrival-rate", "scenario", _S.replace("poisson 1", "poisson 0"),
     "arrival rate must be finite and > 0, got 0.0", 1, 52),
    ("scenario-arrival-times", "scenario", _S.replace("poisson 1 count 5", "at 1, inf count 2"),
     "arrival times must be finite and >= 0", 1, 44),
    ("scenario-count", "scenario", _S.replace("count 5", "count 2.5"),
     "count must be a non-negative integer, got 2.5", 1, 60),
    ("scenario-horizon", "scenario", _S.replace("horizon 10", "horizon inf"),
     "horizon must be finite and >= 0, got inf", 1, 70),
    ("scenario-schedule-length", "scenario", _S.replace("poisson 1 count 5", "at 1, 2 count 3"),
     "schedule lists 2 arrivals but count is 3", 1, 58),
    ("scenario-empty", "scenario", "", "no scenario statement found", 1, 1),
    ("scenario-only-comments", "scenario", "# only a comment\n\n", "no scenario statement found", 2, 1),
    # A single pattern, as given to ``query --fact``.
    ("pattern-two-lines", "pattern", "A\nB", "expected a single pattern", 1, 1),
    ("pattern-empty", "pattern", "", "expected a single pattern", 1, 1),
    ("pattern-blank", "pattern", " ", "expected a pattern name", 1, 2),
    ("pattern-lower-case", "pattern", "a", "pattern name 'a' must be upper-case", 1, 1),
    ("pattern-trailing", "pattern", "A(X) B", "unexpected trailing input 'B'", 1, 6),
    ("pattern-unclosed", "pattern", "A(X", "expected ')'", 1, 4),
]


@pytest.mark.parametrize(
    "parser,text,message,line,col",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
def test_error_message_line_and_column(parser, text, message, line, col):
    with pytest.raises(ParseError) as info:
        PARSERS[parser](text)
    assert str(info.value) == f"line {line}, column {col}: {message}"
    assert (info.value.line, info.value.col) == (line, col)


@pytest.mark.parametrize(
    "parser,text,message,col",
    [
        pytest.param("state", "class T(?x) exponential insts inf sum 0 lambda inf",
                     "insts must be a non-negative integer, got inf", 31, id="insts"),
        pytest.param("scenario", _S.replace("seed 1", "seed inf"),
                     "seed must be a non-negative integer, got inf", 15, id="seed"),
        pytest.param("scenario", _S.replace("count 5", "count inf"),
                     "count must be a non-negative integer, got inf", 60, id="count"),
    ],
)
def test_infinite_integer_field_is_rejected(parser, text, message, col):
    with pytest.raises(ParseError) as info:
        PARSERS[parser](text)
    assert str(info.value) == f"line 1, column {col}: {message}"


_BEYOND_FLOAT = "9" * 400  # float() of this literal is inf


@pytest.mark.parametrize(
    "parser,text,message,col",
    [
        pytest.param("state", f"class T(?x) exponential insts {_BEYOND_FLOAT} sum 0 lambda inf",
                     "insts must be at most 1.7976931348623157e+308", 31, id="insts"),
        pytest.param("scenario", _S.replace("seed 1", f"seed {_BEYOND_FLOAT}"),
                     "seed must be at most 1.7976931348623157e+308", 15, id="seed"),
        pytest.param("scenario", _S.replace("count 5", f"count {_BEYOND_FLOAT}"),
                     "count must be at most 1.7976931348623157e+308", 60, id="count"),
        pytest.param("scenario", _S.replace("seed 1", f"seed -{_BEYOND_FLOAT}"),
                     "seed must be at most 1.7976931348623157e+308", 15, id="seed-negative"),
        pytest.param("scenario", _S.replace("seed 1", "seed 1e400"),
                     "seed must be at most 1.7976931348623157e+308", 15, id="seed-exponent"),
        pytest.param("scenario", _S.replace("seed 1", f"seed {int(sys.float_info.max) + 1}"),
                     "seed must be at most 1.7976931348623157e+308", 15, id="seed-just-above"),
    ],
)
def test_integer_field_beyond_the_largest_float_is_rejected(parser, text, message, col):
    with pytest.raises(ParseError) as info:
        PARSERS[parser](text)
    assert str(info.value) == f"line 1, column {col}: {message}"


def test_integer_field_at_the_largest_float_is_read_exactly():
    largest = int(sys.float_info.max)
    assert parse_scenario(_S.replace("seed 1", f"seed {largest}")).seed == largest


_HEADER = "token_id,type,kind,cell,time,value\n"


@pytest.mark.parametrize(
    "metadata,message,line",
    [
        pytest.param("# origin=0\n# mesh=nan\n# cells=10\n",
                     "grid metadata mesh must be a finite number > 0, got 'nan'", 2, id="mesh-nan"),
        pytest.param("# origin=0\n# mesh=1\n# cells=abc\n",
                     "grid metadata cells must be an integer >= 1, got 'abc'", 3, id="cells-abc"),
        pytest.param("# generator=x\n# origin=inf\n# mesh=1\n# cells=1\n",
                     "grid metadata origin must be a finite number, got 'inf'", 2, id="origin-inf"),
        pytest.param("# origin=0\n# mesh=1\n# cells=0\n",
                     "grid metadata cells must be an integer >= 1, got '0'", 3, id="cells-zero"),
        pytest.param("# origin=0\n# mesh=1\n# cells=10000001\n",
                     "grid metadata cells must be at most 10000000, got '10000001'", 3,
                     id="cells-above-max"),
        pytest.param("# origin=0\n# cells=10\n",
                     "projection CSV has no grid metadata line '# mesh=...'", 1, id="mesh-missing"),
        pytest.param("# mesh=1\n# cells=10\n",
                     "projection CSV has no grid metadata line '# origin=...'", 1,
                     id="origin-missing"),
    ],
)
def test_projection_csv_grid_metadata(tmp_path, capsys, metadata, message, line):
    # A missing key and a bad value are two faults; a bad value is named as
    # the file writes it, at its own line.
    path = tmp_path / "p.csv"
    path.write_text(metadata + _HEADER)
    code = main(["query", "--csv", str(path), "--fact", "F(X)", "--time", "0"])
    assert (code, capsys.readouterr().err) == (2, f"error: line {line}, column 1: {message}\n")


@pytest.mark.parametrize(
    "window,grid,message",
    [
        pytest.param("est -9e307 lst 9e307", ["--delta", "1", "--omega", "10"],
                     "window [-9e+307, 9e+307] has no Gaussian density in floats: "
                     "midpoint 0.0, standard deviation inf", id="width-overflows"),
        pytest.param("est 0 lst 5e-324", ["--delta", "1", "--omega", "10", "--mesh", "1"],
                     "window [0.0, 5e-324] has no Gaussian density in floats: "
                     "midpoint 0.0, standard deviation 0.0", id="sigma-underflows"),
        pytest.param("est 1e308 lst 1.7e308",
                     ["--delta", "1e307", "--omega", "17", "--mesh", "1e307"],
                     "window [1e+308, 1.7e+308] has no Gaussian density in floats: "
                     "midpoint inf, standard deviation 1.1666666666666665e+307",
                     id="midpoint-overflows"),
    ],
)
def test_window_without_a_float_gaussian(tmp_path, capsys, window, grid, message):
    # Each window is valid as written, but its Gaussian's midpoint or
    # standard deviation is not a finite positive float: the fact's line
    # reports it, with the usual exit and one line, and nothing is written.
    (tmp_path / "t.rules").write_text("persist A exp 0.1\nproject ALWAYS, E => A @ 1\n")
    (tmp_path / "f.txt").write_text(f"# observed\nevent E {window} kappa 0.5\n")
    out = tmp_path / "out.csv"
    code = main(["project", "--theory", str(tmp_path / "t.rules"), "--facts",
                 str(tmp_path / "f.txt"), *grid, "--out", str(out)])
    assert (code, capsys.readouterr().err) == (2, f"error: line 2, column 1: {message}\n")
    assert not out.exists()


# A line is checked left to right, so of two faults the left one is reported:
# a bad value comes before anything wrong after it on the same line.
@pytest.mark.parametrize(
    "parser,text,message,col",
    [
        pytest.param("facts", "event A est 5 lst 1 kappa 1 B",
                     "window [5.0, 1.0] is invalid", 19, id="window-then-trailing"),
        pytest.param("facts", "event A est 5 lst 1",
                     "window [5.0, 1.0] is invalid", 19, id="window-then-missing-kappa"),
        pytest.param("facts", "event A est 5 lst 1 kappa 2",
                     "window [5.0, 1.0] is invalid", 19, id="window-then-kappa"),
        pytest.param("facts", "event A est 0 lst 1 kappa 2 B",
                     "kappa must lie in [0, 1], got 2.0", 27, id="kappa-then-trailing"),
        pytest.param("theory", "project E => ALWAYS @ 2",
                     "ALWAYS is built in and cannot be a consequent", 14, id="always-then-kappa"),
        pytest.param("observations", "observe T(A) arrival 10 departure 5 X",
                     "invalid stay [10.0, 5.0]", 35, id="stay-then-trailing"),
        pytest.param("scenario", _S.replace("poisson 1 count 5", "at 1, 2 count 3") + " X",
                     "schedule lists 2 arrivals but count is 3", 58,
                     id="schedule-then-trailing"),
        pytest.param("scenario",
                     _S.replace("poisson 1 count 5 horizon 10", "at 1, 2 count 3 horizon inf"),
                     "schedule lists 2 arrivals but count is 3", 58, id="schedule-then-horizon"),
    ],
)
def test_leftmost_of_two_faults_is_reported(parser, text, message, col):
    with pytest.raises(ParseError) as info:
        PARSERS[parser](text)
    assert str(info.value) == f"line 1, column {col}: {message}"


@pytest.mark.parametrize(
    "parser,text,message,col",
    [
        pytest.param("theory", "persist A exp 1 B\npersist A lin 2",
                     "unexpected trailing input 'B'", 17, id="duplicate"),
        pytest.param("theory", "project A(?x) => B(?y) @ 2",
                     "kappa must lie in [0, 1], got 2.0", 26, id="unsafe-variable"),
    ],
)
def test_statement_checks_run_after_the_line_is_read(parser, text, message, col):
    with pytest.raises(ParseError) as info:
        PARSERS[parser](text)
    assert str(info.value) == f"line 1, column {col}: {message}"


# The characters that ``str.splitlines`` treats as line breaks but that
# ``open()`` leaves inside a line.  Inside a line they are whitespace.
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SEPARATOR_IDS = [f"U+{ord(c):04X}" for c in SEPARATORS]


@pytest.mark.parametrize(
    "parser,text,message,line,col",
    [
        pytest.param("theory", "persist A exp 0.1{sep}\npersist B exp -1\n",
                     "decay parameter must be >= 0, got -1.0", 2, 15, id="ending-a-line"),
        pytest.param("facts", "event A(X) est 0 lst 1 {sep} kappa 1\nevent B(X) est 2 lst 1\n",
                     "window [2.0, 1.0] is invalid", 2, 22, id="inside-a-line"),
        pytest.param("observations", "# first{sep}comment\n\nobserve T(A) arrival 1 departure 0\n",
                     "invalid stay [1.0, 0.0]", 3, 34, id="in-a-comment"),
        pytest.param("scenario", "# no statement{sep}\n",
                     "no scenario statement found", 1, 1, id="no-scenario"),
        pytest.param("pattern", "F(X){sep}G",
                     "unexpected trailing input 'G'", 1, 6, id="pattern"),
    ],
)
@pytest.mark.parametrize("sep", SEPARATORS, ids=_SEPARATOR_IDS)
def test_only_newlines_break_lines(sep, parser, text, message, line, col):
    with pytest.raises(ParseError) as info:
        PARSERS[parser](text.format(sep=sep))
    assert str(info.value) == f"line {line}, column {col}: {message}"


@pytest.mark.parametrize("sep", SEPARATORS, ids=_SEPARATOR_IDS)
def test_separator_after_a_pattern_is_whitespace(sep):
    assert str(parse_pattern_text(f"F(X){sep}")) == "F(X)"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_newlines_break_lines(newline):
    with pytest.raises(ParseError) as info:
        parse_theory(f"persist A exp 0.1{newline}{newline}persist B exp -1{newline}")
    assert (info.value.line, info.value.col) == (3, 15)


# The tokenizer that the one-``findall`` reader replaced: one ``match`` per
# token, whitespace included.  It is the reference for the reader's tokens.
_ORACLE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#.*)
      | (?P<arrow>=>)
      | (?P<at>@)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _oracle_tokens(text):
    """``(line, [(kind, text, column), ...])`` for each line with a token."""
    out = []
    for lineno, line in enumerate(split_lines(text), start=1):
        tokens = []
        pos = 0
        while pos < len(line):
            m = _ORACLE_TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            kind = m.lastgroup or ""
            if kind == "comment":
                break
            if kind != "ws":
                tokens.append((kind, m.group(), m.start() + 1))
            pos = m.end()
        if tokens:
            out.append((lineno, tokens))
    return out


def _reader_tokens(text):
    return [
        (cur.lineno, [(_kind(t), t, cur.col(i)) for i, t in enumerate(cur.texts)])
        for cur in statements(text)
    ]


_FRAGMENTS = [
    "A", "TRUCK14", "x", "_y", "inf", "e", "E",               # names
    "0", "12", ".5", "1e-3", "+7", "-2.", "3E+2", "\u0663",  # numbers (U+0663 is a digit)
    "?x", "?_t1",                                             # variables
    "=>", "@", "(", ")", ",", "# note", "#",                  # punctuation, comments
    "=", "?", "+", "-", ".", ">", "$",                        # lone characters
    "\u00e9", "\u03a9", "\u00b2",                             # letters, superscript two
    " ", "\t", "\x0c", "\u00a0", "\u2028",                    # whitespace
]


@settings(max_examples=500)  # about 60% of drawn texts hold a lone character
@given(
    st.lists(
        st.lists(st.sampled_from(_FRAGMENTS), max_size=10).map("".join),
        min_size=1, max_size=3,
    ).map("\n".join)
)
def test_reader_tokens_match_the_match_loop(text):
    try:
        expected = _oracle_tokens(text)
    except ParseError as oracle:
        with pytest.raises(ParseError) as info:
            _reader_tokens(text)
        assert (str(info.value), info.value.line, info.value.col) == (
            str(oracle), oracle.line, oracle.col)
    else:
        assert _reader_tokens(text) == expected
