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
all antecedents hold.  ``ALWAYS`` is the built-in, timelessly true fact.

Patterns are ``NAME`` or ``NAME(arg, ...)`` with upper-case names and
constants; variables are written ``?x``.
"""
from __future__ import annotations

import math
import re
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

TypeKey = tuple[str, int]  # (name, arity): a fact or event type ignoring bindings
GroundKey = tuple[str, tuple[str, ...]]  # fully instantiated type


def is_variable(term: str) -> bool:
    return term.startswith("?")


@dataclass(frozen=True)
class Pattern:
    """A possibly-variable fact or event type, e.g. ``ATDOCK(?t)``.

    The same shape describes fact types and event types; which one a pattern
    is follows from its position in a rule.
    """

    name: str
    args: tuple[str, ...] = ()

    @property
    def key(self) -> TypeKey:
        return (self.name, len(self.args))

    @property
    def is_ground(self) -> bool:
        return not any(is_variable(a) for a in self.args)

    @property
    def ground_key(self) -> GroundKey:
        if not self.is_ground:
            raise ValueError(f"pattern {self} is not ground")
        return (self.name, self.args)

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


@dataclass(frozen=True)
class Exponential:
    """Survivor ``exp(-rate * elapsed)``; ``rate = ln(2) / half_life``."""

    rate: float


@dataclass(frozen=True)
class Linear:
    """Survivor ``max(0, 1 - slope * elapsed)``."""

    slope: float


Survivor = Exponential | Linear

#: Fact types without a persistence rule never decay.
DEFAULT_SURVIVOR = Exponential(0.0)


@dataclass(frozen=True)
class PersistenceRule:
    subject: Pattern
    survivor: Survivor


@dataclass(frozen=True)
class ProjectionRule:
    antecedents: tuple[Pattern, ...]
    trigger: Pattern
    consequent: Pattern
    kappa: float


@dataclass
class CausalTheory:
    projection_rules: tuple[ProjectionRule, ...] = ()
    persistence_rules: tuple[PersistenceRule, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "projection_rules", tuple(self.projection_rules))
        object.__setattr__(self, "persistence_rules", tuple(self.persistence_rules))

    def persistence_for(self, fact: Pattern) -> Survivor:
        """Survivor for a ground fact: first matching rule, else no decay.

        When several rule subjects could match, the first one in file order
        wins; a fact matching no rule gets :data:`DEFAULT_SURVIVOR` and a
        warning, since an undeclared persistence usually means a typo.
        """
        for rule in self.persistence_rules:
            if unify(rule.subject, fact) is not None:
                return rule.survivor
        warnings.warn(
            f"no persistence rule matches {fact}; assuming it never decays",
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
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
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

_UPPER_RE = re.compile(r"[A-Z][A-Z0-9_]*$")


@dataclass
class Token:
    kind: str
    text: str
    col: int


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
        tokens: list[Token] = []
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            kind = m.lastgroup or ""
            if kind == "comment":
                break
            if kind != "ws":
                tokens.append(Token(kind, m.group(), m.start() + 1))
            pos = m.end()
        if tokens:
            yield TokenCursor(tokens, lineno, len(line))


class TokenCursor:
    """Sequential reader over one line's tokens with positioned errors.

    Each ``take_*`` method either consumes what it asks for or raises a
    :class:`ParseError` at the token it stopped on, so a line's faults are
    reported left to right.
    """

    def __init__(self, tokens: list[Token], lineno: int, line_len: int):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.line_len = line_len

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, message: str, back: int = 0) -> ParseError:
        """``message`` at the token ``back`` places before the next one; with
        ``back=0``, at the next token or just past the end of the line."""
        index = self.pos - back
        col = self.tokens[index].col if index < len(self.tokens) else self.line_len + 1
        return ParseError(message, self.lineno, col)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        """Consume and return the next token if it has ``kind`` (and
        ``text``, when given); otherwise consume nothing and return None."""
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            if tok.kind == kind and (text is None or tok.text == text):
                self.pos += 1
                return tok
        return None

    def take(self, kind: str, what: str | None = None, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            got = self.peek()
            raise self.error(f"expected {what or kind}" + (f", got {got.text!r}" if got else ""))
        return tok

    def take_keyword(self, word: str) -> Token:
        return self.take("name", repr(word), word)

    def take_word(self, choices: tuple[str, ...], unknown: str | None = None) -> Token:
        """One of the words ``choices``.  Another word is reported as
        ``unknown <unknown> 'word'`` when ``unknown`` is given; anything else
        as ``expected 'a', 'b' or 'c'``."""
        tok = self.peek()
        if tok is not None and tok.kind == "name":
            if tok.text in choices:
                self.pos += 1
                return tok
            if unknown is not None:
                raise self.error(f"unknown {unknown} {tok.text!r}")
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
        tok = self.peek()
        if tok is not None and tok.kind == "number":
            value = float(tok.text)
        elif tok is not None and tok.kind == "name" and tok.text.lower() == "inf":
            value = math.inf
        else:
            raise self.error(f"expected {what}" + (f", got {tok.text!r}" if tok else ""))
        if ok is not None and not ok(value):
            raise self.error(f"{rule}, got {value}")
        self.pos += 1
        return value

    def take_count(self, field: str, what: str) -> int:
        """A non-negative integer such as an observation count or a seed;
        ``inf`` and fractions are rejected like negative numbers."""
        rule = f"{field} must be a non-negative integer"
        return int(self.take_number(what, rule, lambda v: v >= 0 and v.is_integer()))

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(f"unexpected trailing input {tok.text!r}")


def parse_pattern(cur: TokenCursor) -> Pattern:
    name = cur.take("name", "a pattern name")
    if not _UPPER_RE.match(name.text):
        raise cur.error(f"pattern name {name.text!r} must be upper-case", back=1)
    args: list[str] = []
    if cur.accept("lparen"):
        while True:
            tok = cur.peek()
            if tok is None:
                raise cur.error("unterminated argument list")
            if tok.kind == "name" and not _UPPER_RE.match(tok.text):
                raise cur.error(f"constant {tok.text!r} must be upper-case")
            if tok.kind not in ("var", "name"):
                raise cur.error(f"expected a constant or ?variable, got {tok.text!r}")
            args.append(cur.take(tok.kind).text)
            if not cur.accept("comma"):
                break
        cur.take("rparen", "')'")
    return Pattern(name.text, tuple(args))


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


def _starts_pattern(tok: Token | None) -> bool:
    return tok is not None and tok.kind == "name"


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
        head = cur.take_word(("persist", "project"))
        if head.text == "persist":
            subject = parse_pattern(cur)
            family = cur.take_word(("exp", "lin")).text
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
                    head.col,
                )
            seen_subjects[canon] = cur.lineno
            survivor: Survivor = Exponential(value) if family == "exp" else Linear(value)
            persistence_rules.append(PersistenceRule(subject, survivor))
        else:
            patterns = [parse_pattern(cur)]
            while cur.accept("comma") or _starts_pattern(cur.peek()):
                patterns.append(parse_pattern(cur))
            cur.take("arrow", "'=>'")
            consequent = parse_pattern(cur)
            at_tok = cur.take("at", "'@'")
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
                    at_tok.col,
                )
            projection_rules.append(
                ProjectionRule(antecedents, trigger, consequent, kappa)
            )
    return CausalTheory(tuple(projection_rules), tuple(persistence_rules))


@dataclass
class DependencyGraph:
    """Fact-type dependency relation: arc Q -> R when some rule can make Q's
    truth a precondition for deriving R (binding-insensitive)."""

    vertices: set[TypeKey] = field(default_factory=set)
    arcs: set[tuple[TypeKey, TypeKey]] = field(default_factory=set)

    def find_cycle(self, within: set[TypeKey] | None = None) -> list[TypeKey] | None:
        """A cycle among ``within`` (default: all vertices), or None.

        Returned as the list of vertices along the cycle, start repeated last.
        """
        nodes = self.vertices if within is None else (self.vertices & within)
        adjacency = {v: [r for (q, r) in self.arcs if q == v and r in nodes] for v in nodes}
        WHITE, GREY, BLACK = 0, 1, 2
        color = {v: WHITE for v in nodes}
        parent: dict[TypeKey, TypeKey] = {}
        for root in sorted(nodes):
            if color[root] != WHITE:
                continue
            stack = [(root, iter(adjacency[root]))]
            color[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        parent[nxt] = node
                        stack.append((nxt, iter(adjacency[nxt])))
                        advanced = True
                        break
                    if color[nxt] == GREY:
                        cycle = [nxt]
                        cursor = node
                        while cursor != nxt:
                            cycle.append(cursor)
                            cursor = parent[cursor]
                        cycle.append(nxt)
                        cycle[1:-1] = cycle[-2:0:-1]
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
            # fall through: this component is acyclic
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
