"""Causal theories: projection rules, persistence rules, and their text format.

A theory is a set of statements, one per line::

    # comments run to end of line
    persist ATDOCK(?t) exp 0.00342          # exponential survivor, rate per time unit
    persist CRANE_FREE lin 0.01             # linear survivor, slope per time unit
    project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0

A ``project`` statement lists one or more patterns before ``=>``; the last
one is the triggering event pattern, the preceding ones (if any) are fact
antecedents that must already hold.  The consequent fact after ``=>`` becomes
true with probability ``kappa`` (after ``@``) when the trigger occurs while
all antecedents hold.  ``ALWAYS`` is the built-in, timelessly true fact: an
antecedent may name it, and no rule may derive it.

Patterns are ``NAME`` or ``NAME(arg, ...)`` with upper-case names and
constants; variables are written ``?x``.
"""
from __future__ import annotations

import math
import re
import sys
import warnings
from collections.abc import Callable, Iterator
from itertools import islice

from . import _FrozenRecord, _Record

TypeKey = tuple[str, int]  # (name, arity): a fact or event type ignoring bindings
GroundKey = tuple[str, tuple[str, ...]]  # fully instantiated type


def is_variable(term: str) -> bool:
    return term.startswith("?")


class Pattern(_FrozenRecord):
    """A possibly-variable fact or event type, e.g. ``ATDOCK(?t)``.

    The same shape describes fact types and event types; which one a pattern
    is follows from its position in a rule.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)

    @property
    def key(self) -> TypeKey:
        return (self.name, len(self.args))

    @property
    def is_ground(self) -> bool:
        return not any(is_variable(a) for a in self.args)

    def variables(self) -> set[str]:
        return {a for a in self.args if is_variable(a)}

    def substitute(self, binding: dict[str, str]) -> "Pattern":
        return Pattern(self.name, tuple(binding.get(a, a) for a in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(self.args)})"


ALWAYS = Pattern("ALWAYS")


def unify(pattern: Pattern, ground: Pattern, binding: dict[str, str] | None = None) -> dict[str, str] | None:
    """Match ``pattern`` against a ground instance, extending ``binding``.

    Returns the extended binding, or None when the two cannot match.
    """
    if pattern.name != ground.name or len(pattern.args) != len(ground.args):
        return None
    out = dict(binding) if binding else {}
    for p, g in zip(pattern.args, ground.args):
        if is_variable(p):
            bound = out.get(p)
            if bound is None:
                out[p] = g
            elif bound != g:
                return None
        elif p != g:
            return None
    return out


class Exponential(_FrozenRecord):
    """Survivor ``exp(-rate * elapsed)``; ``rate = ln(2) / half_life``."""

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        object.__setattr__(self, "rate", rate)


class Linear(_FrozenRecord):
    """Survivor ``max(0, 1 - slope * elapsed)``."""

    __slots__ = ("slope",)

    def __init__(self, slope: float) -> None:
        object.__setattr__(self, "slope", slope)


Survivor = Exponential | Linear

#: Fact types without a persistence rule never decay.
DEFAULT_SURVIVOR = Exponential(0.0)


class PersistenceRule(_FrozenRecord):
    __slots__ = ("subject", "survivor")

    def __init__(self, subject: Pattern, survivor: Survivor) -> None:
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "survivor", survivor)


class ProjectionRule(_FrozenRecord):
    __slots__ = ("antecedents", "trigger", "consequent", "kappa")

    def __init__(
        self, antecedents: tuple[Pattern, ...], trigger: Pattern, consequent: Pattern, kappa: float
    ) -> None:
        object.__setattr__(self, "antecedents", antecedents)
        object.__setattr__(self, "trigger", trigger)
        object.__setattr__(self, "consequent", consequent)
        object.__setattr__(self, "kappa", kappa)


class CausalTheory(_Record):
    __slots__ = ("projection_rules", "persistence_rules")

    def __init__(
        self,
        projection_rules: tuple[ProjectionRule, ...] = (),
        persistence_rules: tuple[PersistenceRule, ...] = (),
    ) -> None:
        self.projection_rules = tuple(projection_rules)
        self.persistence_rules = tuple(persistence_rules)

    def persistence_for(self, fact: Pattern) -> Survivor:
        """Survivor for a ground fact: first matching rule, else no decay.

        When several rule subjects could match, the first one in file order
        wins; a fact matching no rule gets :data:`DEFAULT_SURVIVOR` and a
        warning, since an undeclared persistence usually means a typo.  The
        warning names the fact's type, not the fact, so that Python's
        once-per-message filter shows it once per type.
        """
        for rule in self.persistence_rules:
            if unify(rule.subject, fact) is not None:
                return rule.survivor
        name, arity = fact.key
        warnings.warn(
            f"no persistence rule matches some {name}/{arity} facts; assuming they never decay",
            stacklevel=2,
        )
        return DEFAULT_SURVIVOR

    def pretty(self) -> str:
        """Canonical text form; ``parse_theory`` round-trips it."""
        lines = []
        for p in self.persistence_rules:
            kind, value = (
                ("exp", p.survivor.rate)
                if isinstance(p.survivor, Exponential)
                else ("lin", p.survivor.slope)
            )
            lines.append(f"persist {p.subject} {kind} {value!r}")
        for r in self.projection_rules:
            head = ", ".join(str(p) for p in (*r.antecedents, r.trigger))
            lines.append(f"project {head} => {r.consequent} @ {r.kappa!r}")
        return "\n".join(lines) + "\n" if lines else ""


class ParseError(ValueError):
    """Syntax or validation error in one of the line-oriented text formats."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# Each token kind has its own first characters, so a token's first character
# gives its kind.  ``findall`` skips exactly the characters that no
# alternative matches, those of ``\s``.  The last alternative takes any
# other character alone; of those, only ``@ ( ) ,`` are tokens.
_TOKEN_RE = re.compile(
    r"""[A-Za-z_][A-Za-z0-9_]*                      # name
      | [-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?   # number
      | \?[A-Za-z_][A-Za-z0-9_]*                    # ?variable
      | =>
      | \#.*                                        # comment, to the end of the line
      | \S
    """,
    re.VERBOSE,
)

# Pieces of the one-regex fast paths for the layouts that the package
# itself writes: an upper-case name or constant, and a number in ASCII
# digits.  Each matches a whole token of ``_TOKEN_RE`` when blanks, ``(``,
# ``,`` or ``)`` follow it.
_NAME = r"[A-Z][A-Z0-9_]*"
_NUMBER = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
_KINDS = {
    **dict.fromkeys(_LETTERS, "name"),
    **dict.fromkeys("0123456789+-.", "number"),
    "?": "var", "=": "arrow", "@": "at", "(": "lparen", ")": "rparen", ",": "comma",
}
#: The characters that are a token on their own.
_SINGLES = frozenset(_LETTERS + "0123456789@(),")

_UPPER_RE = re.compile(r"[A-Z][A-Z0-9_]*$")


def _kind(text: str) -> str:
    """The kind of a token that :func:`statements` accepted: ``name``,
    ``number``, ``var``, ``arrow``, ``at``, ``lparen``, ``rparen`` or
    ``comma``.  The only first characters outside ``_KINDS`` are the
    non-ASCII ``\\d`` digits that start a number."""
    return _KINDS.get(text[0], "number")


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, broken only at ``\\n``, ``\\r\\n`` and ``\\r``,
    the breaks that ``open()`` reads as newlines; a break that ends the text
    starts no further line.  (``str.splitlines`` also breaks at form feeds
    and other separators, which would put errors on the wrong line.)"""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def statements(text: str) -> Iterator["TokenCursor"]:
    """One cursor per line that holds a token, in line order.

    This is the line loop of every format: ``#`` starts a comment that runs
    to the end of the line, and blank or comment-only lines yield nothing.
    """
    for lineno, line in enumerate(split_lines(text), start=1):
        cur = line_cursor(line, lineno)
        if cur is not None:
            yield cur


def line_cursor(line: str, lineno: int) -> "TokenCursor | None":
    """A cursor over the tokens of ``line``, file line ``lineno``, or None
    when it holds only blanks and a comment.  A character that starts no
    token is reported before the line is read."""
    texts = _TOKEN_RE.findall(line)
    if texts and texts[-1][0] == "#":
        texts.pop()
    if not texts:
        return None
    cur = TokenCursor(texts, lineno, line)
    for tok in texts:
        if len(tok) == 1 and tok not in _SINGLES and not tok.isdecimal():
            col = cur.col(texts.index(tok))  # this is the first time ``tok`` occurs
            raise ParseError(f"unexpected character {tok!r}", lineno, col)
    return cur


class TokenCursor:
    """Sequential reader over the token texts of one line, with positioned
    errors.

    Each ``take*`` method either consumes what it asks for or raises a
    :class:`ParseError` at the token it stopped on, so a line's faults are
    reported left to right.  A column is worked out only when it is asked
    for, by tokenizing the line again.
    """

    __slots__ = ("texts", "pos", "lineno", "line")

    def __init__(self, texts: list[str], lineno: int, line: str):
        self.texts = texts
        self.pos = 0
        self.lineno = lineno
        self.line = line

    def peek(self) -> str | None:
        return self.texts[self.pos] if self.pos < len(self.texts) else None

    def col(self, index: int) -> int:
        """The 1-based column of token ``index``; past the last token, the
        column just past the end of the line."""
        if index >= len(self.texts):
            return len(self.line) + 1
        return next(islice(_TOKEN_RE.finditer(self.line), index, None)).start() + 1

    def error(self, message: str, back: int = 0) -> ParseError:
        """``message`` at the token ``back`` places before the next one; with
        ``back=0``, at the next token or just past the end of the line."""
        return ParseError(message, self.lineno, self.col(self.pos - back))

    def expected(self, what: str) -> ParseError:
        """``expected <what>, got <next token>`` at the next token."""
        got = self.peek()
        return self.error(f"expected {what}" + (f", got {got!r}" if got is not None else ""))

    def accept(self, text: str) -> bool:
        """Consume the next token if it is ``text``; say whether it was."""
        pos = self.pos
        if pos < len(self.texts) and self.texts[pos] == text:
            self.pos = pos + 1
            return True
        return False

    def take(self, text: str) -> None:
        """Consume the token ``text``, a keyword or a punctuation mark."""
        pos = self.pos
        if pos < len(self.texts) and self.texts[pos] == text:
            self.pos = pos + 1
        else:
            raise self.expected(repr(text))

    def take_word(self, choices: tuple[str, ...], unknown: str | None = None) -> str:
        """One of the words ``choices``.  Another word is reported as
        ``unknown <unknown> 'word'`` when ``unknown`` is given; anything else
        as ``expected 'a', 'b' or 'c'``."""
        word = self.peek()
        if word in choices:
            self.pos += 1
            return word
        if unknown is not None and word is not None and _kind(word) == "name":
            raise self.error(f"unknown {unknown} {word!r}")
        quoted = [repr(c) for c in choices]
        raise self.error(f"expected {', '.join(quoted[:-1])} or {quoted[-1]}")

    def take_number(
        self,
        what: str,
        rule: str = "",
        ok: Callable[[float], bool] | None = None,
    ) -> float:
        """A number, or ``inf``.  When ``ok`` rejects it, raises
        ``<rule>, got <value>`` at the number's own token."""
        text = self.peek()
        if text is not None and _kind(text) == "number":
            value = float(text)
        elif text is not None and text.lower() == "inf":
            value = math.inf
        else:
            raise self.expected(what)
        if ok is not None and not ok(value):
            raise self.error(f"{rule}, got {value}")
        self.pos += 1
        return value

    def take_count(self, field: str, what: str) -> int:
        """A non-negative integer such as an observation count or a seed;
        ``inf`` and fractions are rejected like negative numbers.  An integer
        literal is read exactly, also above 2**53, where floats have gaps; a
        literal beyond the largest float is rejected with that limit."""
        text = self.peek()
        exact = text is not None and text.lstrip("+-").isdecimal()
        if text is not None and _kind(text) == "number" and (
            math.isinf(float(text)) or exact and abs(int(text)) > sys.float_info.max
        ):
            raise self.error(f"{field} must be at most {sys.float_info.max!r}")
        rule = f"{field} must be a non-negative integer"
        value = self.take_number(what, rule, lambda v: v >= 0 and v.is_integer())
        return int(text) if exact else int(value)

    def expect_end(self) -> None:
        text = self.peek()
        if text is not None:
            raise self.error(f"unexpected trailing input {text!r}")


def parse_pattern(cur: TokenCursor) -> Pattern:
    texts, pos, end = cur.texts, cur.pos, len(cur.texts)
    name = texts[pos] if pos < end else None
    if name is None or not _UPPER_RE.match(name):
        if name is not None and _kind(name) == "name":
            raise cur.error(f"pattern name {name!r} must be upper-case")
        raise cur.expected("a pattern name")
    args: list[str] = []
    pos += 1
    if pos < end and texts[pos] == "(":
        while True:
            pos += 1
            if pos == end or not (texts[pos][0] == "?" or _UPPER_RE.match(texts[pos])):
                cur.pos = pos
                raise _argument_error(cur)
            args.append(texts[pos])
            pos += 1
            if pos == end or texts[pos] != ",":
                break
        cur.pos = pos
        cur.take(")")
    else:
        cur.pos = pos
    return Pattern(name, tuple(args))


def _argument_error(cur: TokenCursor) -> ParseError:
    arg = cur.peek()
    if arg is None:
        return cur.error("unterminated argument list")
    if _kind(arg) == "name":
        return cur.error(f"constant {arg!r} must be upper-case")
    return cur.error(f"expected a constant or ?variable, got {arg!r}")


def parse_ground_pattern(cur: TokenCursor, what: str) -> Pattern:
    """A pattern without ``?variables``, such as an observed event; a
    variable is reported as ``<what> P must be ground`` at the pattern."""
    start = cur.pos
    pattern = parse_pattern(cur)
    if not pattern.is_ground:
        raise cur.error(f"{what} {pattern} must be ground", back=cur.pos - start)
    return pattern


def parse_pattern_text(text: str) -> Pattern:
    """Parse a single pattern given on its own, e.g. a CLI query argument."""
    lines = split_lines(text)
    if len(lines) != 1:
        raise ParseError("expected a single pattern", 1, 1)
    for cur in statements(text):
        pattern = parse_pattern(cur)
        cur.expect_end()
        return pattern
    raise ParseError("expected a pattern name", 1, len(lines[0]) + 1)


def _starts_pattern(text: str | None) -> bool:
    return text is not None and _kind(text) == "name"


def _canonical_subject(pattern: Pattern) -> tuple:
    """Subject pattern with variables renamed by first appearance."""
    names: dict[str, str] = {}
    args = []
    for a in pattern.args:
        if is_variable(a):
            args.append(names.setdefault(a, f"?{len(names)}"))
        else:
            args.append(a)
    return (pattern.name, tuple(args))


def parse_theory(text: str) -> CausalTheory:
    """Parse the rule language; raises :class:`ParseError` with line/column."""
    projection_rules: list[ProjectionRule] = []
    persistence_rules: list[PersistenceRule] = []
    seen_subjects: dict[tuple, int] = {}
    for cur in statements(text):
        if cur.take_word(("persist", "project")) == "persist":
            subject = parse_pattern(cur)
            family = cur.take_word(("exp", "lin"))
            value = cur.take_number(
                "a decay parameter", "decay parameter must be >= 0", lambda v: v >= 0
            )
            cur.expect_end()
            canon = _canonical_subject(subject)
            if canon in seen_subjects:
                raise ParseError(
                    f"duplicate persistence rule for {subject} "
                    f"(first given on line {seen_subjects[canon]})",
                    cur.lineno,
                    cur.col(0),
                )
            seen_subjects[canon] = cur.lineno
            survivor: Survivor = Exponential(value) if family == "exp" else Linear(value)
            persistence_rules.append(PersistenceRule(subject, survivor))
        else:
            patterns = [parse_pattern(cur)]
            while cur.accept(",") or _starts_pattern(cur.peek()):
                patterns.append(parse_pattern(cur))
            cur.take("=>")
            start = cur.pos
            consequent = parse_pattern(cur)
            if consequent == ALWAYS:
                raise ParseError(
                    "ALWAYS is built in and cannot be a consequent", cur.lineno, cur.col(start)
                )
            at = cur.pos
            cur.take("@")
            kappa = cur.take_number(
                "a probability", "kappa must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0
            )
            cur.expect_end()
            trigger = patterns[-1]
            antecedents = tuple(patterns[:-1])
            allowed = trigger.variables().union(*(p.variables() for p in antecedents)) \
                if antecedents else trigger.variables()
            unsafe = consequent.variables() - allowed
            if unsafe:
                raise ParseError(
                    f"consequent variable {sorted(unsafe)[0]} appears in neither "
                    "the trigger nor any antecedent",
                    cur.lineno,
                    cur.col(at),
                )
            projection_rules.append(
                ProjectionRule(antecedents, trigger, consequent, kappa)
            )
    return CausalTheory(tuple(projection_rules), tuple(persistence_rules))


class DependencyGraph(_Record):
    """Fact-type dependency relation: arc Q -> R when some rule can make Q's
    truth a precondition for deriving R (binding-insensitive)."""

    __slots__ = ("vertices", "arcs")

    def __init__(
        self,
        vertices: set[TypeKey] | None = None,
        arcs: set[tuple[TypeKey, TypeKey]] | None = None,
    ) -> None:
        self.vertices = set() if vertices is None else vertices
        self.arcs = set() if arcs is None else arcs

    def find_cycle(self, within: set[TypeKey] | None = None) -> list[TypeKey] | None:
        """A cycle among ``within`` (default: all vertices), or None.

        Returned as the list of vertices along the cycle, start repeated last.
        Vertices and arcs are visited in sorted order, so the same graph
        reports the same cycle in every run.
        """
        from graphlib import CycleError, TopologicalSorter

        nodes = self.vertices if within is None else (self.vertices & within)
        sorter: TopologicalSorter[TypeKey] = TopologicalSorter()
        for v in sorted(nodes):
            sorter.add(v)
        for q, r in sorted(self.arcs):
            if q in nodes and r in nodes:
                sorter.add(r, q)
        try:
            sorter.prepare()
        except CycleError as exc:
            return list(exc.args[1])
        return None


def dependency_graph(theory: CausalTheory) -> DependencyGraph:
    """Antecedent-to-consequent reachability over the projection rules."""
    graph = DependencyGraph()
    for rule in theory.projection_rules:
        graph.vertices.add(rule.consequent.key)
        for antecedent in rule.antecedents:
            graph.vertices.add(antecedent.key)
            graph.arcs.add((antecedent.key, rule.consequent.key))
    return graph
