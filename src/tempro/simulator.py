"""Synthetic arrival/departure scenarios for exercising acquisition.

A scenario describes entities of one or more classes arriving over time and
staying for a random lifetime.  ``generate`` turns it into (a) a basic-facts
file of arrival events and (b) the completed-stay observations that
:meth:`tempro.acquisition.AcquisitionStore.observe` would receive.  Stays
still in progress at the horizon are censored: they emit no observation,
matching the acquisition sampling rule.

Randomness comes from :class:`random.Random` (Mersenne Twister, stable
across platforms and Python versions) seeded from the scenario, with all
variates drawn by inverse CDF from ``random()``; generated files are
byte-identical for a fixed scenario.

Scenario file format, a single statement plus optional comments::

    scenario seed 42 class TRUCK(?c) exp 0.1 arrivals poisson 1.0 count 10000 horizon 20000

Lifetime distributions: ``exp <rate>`` (mean ``1/rate``), ``uniform <lo> <hi>``
(mean ``(lo+hi)/2``), ``fixed <d>``.  Arrivals: ``poisson <rate>`` or an
explicit schedule ``at t1, t2, ...`` whose length must equal ``count``.
With several ``class`` clauses, entities are assigned round-robin.
"""
from __future__ import annotations

import math
import random
from collections.abc import Iterator

from . import _FrozenRecord, _Record
from .acquisition import AcquisitionClass, rate
from .theory import ParseError, Pattern, parse_pattern, split_lines, statements


class ExponentialLifetime(_FrozenRecord):
    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        object.__setattr__(self, "rate", rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: random.Random) -> float:
        return -math.log(1.0 - rng.random()) / self.rate


class UniformLifetime(_FrozenRecord):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def mean(self) -> float:
        total = self.lo + self.hi
        return 0.5 * total if total < math.inf else 0.5 * self.lo + 0.5 * self.hi

    def sample(self, rng: random.Random) -> float:
        return self.lo + (self.hi - self.lo) * rng.random()


class FixedLifetime(_FrozenRecord):
    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        object.__setattr__(self, "duration", duration)

    @property
    def mean(self) -> float:
        return self.duration

    def sample(self, rng: random.Random) -> float:
        return self.duration


Lifetime = ExponentialLifetime | UniformLifetime | FixedLifetime


class PoissonArrivals(_FrozenRecord):
    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        object.__setattr__(self, "rate", rate)


class ScheduledArrivals(_FrozenRecord):
    __slots__ = ("times",)

    def __init__(self, times: tuple[float, ...]) -> None:
        object.__setattr__(self, "times", times)


class Scenario(_Record):
    __slots__ = ("seed", "classes", "arrivals", "count", "horizon")

    def __init__(
        self,
        seed: int,
        classes: list[tuple[Pattern, Lifetime]],
        arrivals: PoissonArrivals | ScheduledArrivals,
        count: int,
        horizon: float,
    ) -> None:
        self.seed = seed
        self.classes = classes
        self.arrivals = arrivals
        self.count = count
        self.horizon = horizon


class SimulationOutput(_Record):
    __slots__ = ("facts_text", "observations", "observations_text")

    def __init__(
        self,
        facts_text: str,
        observations: list[tuple[Pattern, float, float]],  # (class instance key, arrival, departure)
        observations_text: str,
    ) -> None:
        self.facts_text = facts_text
        self.observations = observations
        self.observations_text = observations_text


def _stays(scenario: Scenario) -> Iterator[tuple[int, int, Pattern, float, float]]:
    """Sample every entity in order as ``(k, class index, key, arrival,
    departure)``; entity ``k`` (1-based) belongs to class ``(k-1) mod n``."""
    rng = random.Random(scenario.seed)
    if isinstance(scenario.arrivals, ScheduledArrivals):
        if len(scenario.arrivals.times) != scenario.count:
            raise ValueError(
                f"schedule lists {len(scenario.arrivals.times)} arrivals "
                f"but count is {scenario.count}"
            )
    clock = 0.0
    for k in range(1, scenario.count + 1):
        if isinstance(scenario.arrivals, ScheduledArrivals):
            arrival = scenario.arrivals.times[k - 1]
        else:
            clock += -math.log(1.0 - rng.random()) / scenario.arrivals.rate
            arrival = clock
        index = (k - 1) % len(scenario.classes)
        pattern, lifetime = scenario.classes[index]
        departure = arrival + lifetime.sample(rng)
        key = pattern.substitute({v: f"E{k}" for v in pattern.variables()})
        yield k, index, key, arrival, departure


def generate(scenario: Scenario) -> SimulationOutput:
    """Sample the scenario into a basic-facts file and completed stays.

    Entity ``k`` (1-based) arrives at its scheduled or Poisson-process time,
    becomes the ground instance ``E<k>`` of its class pattern, and emits

    * an ``ARRIVE(E<k>)`` point event if it arrives before the horizon, and
    * an ``observe`` record if its stay completes by the horizon.
    """
    fact_lines: list[str] = []
    observation_lines: list[str] = []
    observations: list[tuple[Pattern, float, float]] = []
    for k, _, key, arrival, departure in _stays(scenario):
        if arrival < scenario.horizon:
            fact_lines.append(f"event ARRIVE(E{k}) est {arrival!r} lst {arrival!r} kappa 1.0")
        if departure <= scenario.horizon:
            observations.append((key, arrival, departure))
            observation_lines.append(f"observe {key} arrival {arrival!r} departure {departure!r}")
    facts_text = "\n".join(fact_lines) + "\n" if fact_lines else ""
    observations_text = "\n".join(observation_lines) + "\n" if observation_lines else ""
    return SimulationOutput(facts_text, observations, observations_text)


class ConvergenceRow(_FrozenRecord):
    __slots__ = ("class_key", "n", "acquired", "reference", "relative_error")

    def __init__(
        self, class_key: str, n: int, acquired: float, reference: float, relative_error: float
    ) -> None:
        object.__setattr__(self, "class_key", class_key)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "acquired", acquired)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "relative_error", relative_error)


_CHECKPOINTS = (10, 100, 1000, 10000)


def run_convergence(scenario: Scenario, family: str) -> list[ConvergenceRow]:
    """Feed generated lifetimes through acquisition and report the error curve.

    For each class, the acquired decay parameter after n = 10, 100, 1000,
    10000 observations (checkpoints beyond the available count are dropped;
    when fewer than 10 are available, the final count is reported) is
    compared against ``rate(family, true mean)`` of the generating
    distribution.
    """
    durations_by_class: list[list[float]] = [[] for _ in scenario.classes]
    for _, index, _, arrival, departure in _stays(scenario):
        if departure <= scenario.horizon:
            durations_by_class[index].append(departure - arrival)
    rows: list[ConvergenceRow] = []
    for (pattern, lifetime), durations in zip(scenario.classes, durations_by_class):
        reference = rate(family, lifetime.mean)
        checkpoints = [c for c in _CHECKPOINTS if c <= len(durations)]
        if not checkpoints and durations:
            checkpoints = [len(durations)]
        cls = AcquisitionClass(pattern, family)
        for index, duration in enumerate(durations, start=1):
            cls.observe(duration)
            if index in checkpoints:
                if reference in (0.0, math.inf):
                    error = 0.0 if cls.lam == reference else math.inf
                else:
                    error = abs(cls.lam - reference) / reference
                rows.append(ConvergenceRow(str(pattern), index, cls.lam, reference, error))
    return rows


def _finite_positive(value: float) -> bool:
    return 0 < value < math.inf


def _finite_nonneg(value: float) -> bool:
    return 0 <= value < math.inf


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario file; exactly one ``scenario`` statement allowed."""
    scenario: Scenario | None = None
    for cur in statements(text):
        if scenario is not None:
            raise cur.error("expected a single scenario statement")
        cur.take("scenario")
        cur.take("seed")
        seed = cur.take_count("seed", "a seed")
        classes: list[tuple[Pattern, Lifetime]] = []
        while cur.accept("class"):
            pattern = parse_pattern(cur)
            dist = cur.take_word(("exp", "uniform", "fixed"), "lifetime distribution")
            if dist == "exp":
                value = cur.take_number("a rate", "rate must be finite and > 0", _finite_positive)
                lifetime: Lifetime = ExponentialLifetime(value)
            elif dist == "uniform":
                lo = cur.take_number("a lower bound")
                hi = cur.take_number("an upper bound")
                if not (0 <= lo <= hi and math.isfinite(hi)):
                    raise cur.error(f"bounds must satisfy 0 <= lo <= hi, got [{lo}, {hi}]", back=1)
                lifetime = UniformLifetime(lo, hi)
            else:
                d = cur.take_number("a duration", "duration must be finite and >= 0", _finite_nonneg)
                lifetime = FixedLifetime(d)
            classes.append((pattern, lifetime))
        if not classes:
            raise cur.error("expected at least one 'class' clause")
        cur.take("arrivals")
        process_at = cur.pos
        process = cur.take_word(("poisson", "at"), "arrival process")
        if process == "poisson":
            value = cur.take_number(
                "an arrival rate", "arrival rate must be finite and > 0", _finite_positive
            )
            arrivals: PoissonArrivals | ScheduledArrivals = PoissonArrivals(value)
        else:
            times = [cur.take_number("an arrival time")]
            while cur.accept(","):
                times.append(cur.take_number("an arrival time"))
            if any(t < 0 or not math.isfinite(t) for t in times):
                raise ParseError(
                    "arrival times must be finite and >= 0", cur.lineno, cur.col(process_at)
                )
            arrivals = ScheduledArrivals(tuple(times))
        cur.take("count")
        count = cur.take_count("count", "an entity count")
        if isinstance(arrivals, ScheduledArrivals) and len(arrivals.times) != count:
            raise cur.error(
                f"schedule lists {len(arrivals.times)} arrivals but count is {count}", back=1
            )
        cur.take("horizon")
        horizon = cur.take_number("a horizon", "horizon must be finite and >= 0", _finite_nonneg)
        cur.expect_end()
        scenario = Scenario(seed, classes, arrivals, count, horizon)
    if scenario is None:
        raise ParseError("no scenario statement found", max(1, len(split_lines(text))), 1)
    return scenario

