"""Finite unions of intervals on the extended real line.

Sets are kept normalized: components sorted, pairwise disjoint, not touching,
each with nonempty interior.  Endpoints are floats with ``±inf`` sentinels and
exact open/closed flags; flags matter for lattice counting, so endpoints are
merged only on exact equality (no epsilon snapping).  Values are immutable and
safe to share between threads.

Here a set becomes numbers: each set holds read-only endpoint and flag arrays,
which the Gaussian masses, the rate searches and the simulator read, and
`lattice_ends` is the one rule that turns them into integer site ranges.
`IntervalSet.contains` shares no code with them, so tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Component",
    "IntervalSet",
    "ParseError",
    "parse_set",
    "lattice_ends",
    "EMPTY",
    "REALS",
]

INF = math.inf


class ParseError(ValueError):
    """Malformed set notation; records the offending position."""

    def __init__(self, text: str, pos: int, reason: str):
        self.text = text
        self.pos = pos
        self.reason = reason
        super().__init__(f"{reason} at position {pos} in {text!r}")


@dataclass(frozen=True)
class Component:
    """A single interval with nonempty interior.

    Infinite endpoints are coerced open; degenerate intervals (lower == upper)
    are rejected outright.
    """

    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("NaN endpoint")
        if not lo < hi:
            raise ValueError(f"interval needs nonempty interior, got ({lo}, {hi})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if math.isinf(lo):
            object.__setattr__(self, "lower_closed", False)
        if math.isinf(hi):
            object.__setattr__(self, "upper_closed", False)

    def contains(self, t: float) -> bool:
        if t < self.lower or t > self.upper:
            return False
        if t == self.lower:
            return self.lower_closed
        if t == self.upper:
            return self.upper_closed
        return True

    def __str__(self) -> str:
        lb = "[" if self.lower_closed else "("
        rb = "]" if self.upper_closed else ")"
        return f"{lb}{_fmt(self.lower)},{_fmt(self.upper)}{rb}"


def _fmt(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _merge(parts: Iterable[Component]) -> tuple[Component, ...]:
    ordered = sorted(parts, key=lambda c: (c.lower, not c.lower_closed))
    out: list[Component] = []
    for c in ordered:
        if not out:
            out.append(c)
            continue
        prev = out[-1]
        touching = c.lower == prev.upper and (prev.upper_closed or c.lower_closed)
        if c.lower < prev.upper or touching:
            if c.upper > prev.upper:
                hi, hic = c.upper, c.upper_closed
            elif c.upper < prev.upper:
                hi, hic = prev.upper, prev.upper_closed
            else:
                hi, hic = prev.upper, prev.upper_closed or c.upper_closed
            out[-1] = Component(prev.lower, hi, prev.lower_closed, hic)
        else:
            out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class IntervalSet:
    """Normalized finite union of intervals; the empty union is the empty set.

    ``lo``, ``hi``, ``lo_closed`` and ``hi_closed`` are read-only arrays of the
    components' endpoints and flags, built on first use, so sets read only
    through their components (parsed terms, partial unions) never build them.
    """

    components: tuple[Component, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", _merge(self.components))

    def _array(self, field: str, dtype) -> np.ndarray:
        array = np.array([getattr(c, field) for c in self.components], dtype=dtype)
        array.flags.writeable = False   # shared by every reader of the set
        return array

    @cached_property
    def lo(self) -> np.ndarray:
        return self._array("lower", float)

    @cached_property
    def hi(self) -> np.ndarray:
        return self._array("upper", float)

    @cached_property
    def lo_closed(self) -> np.ndarray:
        return self._array("lower_closed", bool)

    @cached_property
    def hi_closed(self) -> np.ndarray:
        return self._array("upper_closed", bool)

    def __reduce__(self):
        # rebuild from the components, so a copy's arrays are read-only too
        return IntervalSet, (self.components,)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def reals() -> "IntervalSet":
        return IntervalSet((Component(-INF, INF, False, False),))

    @staticmethod
    def interval(lower: float, upper: float, lower_closed: bool = True,
                 upper_closed: bool = True) -> "IntervalSet":
        return IntervalSet((Component(lower, upper, lower_closed, upper_closed),))

    @staticmethod
    def closed(lower: float, upper: float) -> "IntervalSet":
        return IntervalSet.interval(lower, upper, True, True)

    @staticmethod
    def open(lower: float, upper: float) -> "IntervalSet":
        return IntervalSet.interval(lower, upper, False, False)

    @staticmethod
    def below(x: float, closed: bool = True) -> "IntervalSet":
        """The half-line up to ``x``."""
        return IntervalSet.interval(-INF, x, False, closed)

    @staticmethod
    def above(x: float, closed: bool = False) -> "IntervalSet":
        """The half-line from ``x`` on."""
        return IntervalSet.interval(x, INF, closed, False)

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def is_reals(self) -> bool:
        return (len(self.components) == 1
                and self.components[0].lower == -INF
                and self.components[0].upper == INF)

    def contains(self, t: float) -> bool:
        return any(c.contains(t) for c in self.components)

    def site_ranges(self, scale=1.0) -> tuple[np.ndarray, np.ndarray]:
        """`lattice_ends` of ``scale`` times the set, without building it;
        ``scale`` may be a column of factors, giving one row of ranges each."""
        return lattice_ends(self.lo * scale, self.lo_closed,
                            self.hi * scale, self.hi_closed)

    def is_bounded(self) -> bool:
        return bool(np.isfinite(self.lo).all() and np.isfinite(self.hi).all())

    def has_half_line(self) -> bool:
        if self.is_empty:
            return False
        return self.components[0].lower == -INF or self.components[-1].upper == INF

    def finite_endpoint_bound(self) -> float:
        """Largest |endpoint| over finite endpoints (0 for the empty set or R)."""
        ends = np.abs(np.concatenate((self.lo, self.hi)))
        return float(ends[np.isfinite(ends)].max(initial=0.0))

    def hull(self) -> tuple[float, float]:
        """Smallest enclosing interval as an endpoint pair; raises when empty."""
        if self.is_empty:
            raise ValueError("hull of the empty set")
        return self.components[0].lower, self.components[-1].upper

    def __iter__(self) -> Iterator[Component]:
        return iter(self.components)

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        if self.is_reals:
            return "R"
        return " U ".join(str(c) for c in self.components)

    # -- operations --------------------------------------------------------

    def shift(self, x: float) -> "IntervalSet":
        """Translate every component by ``x``."""
        if not math.isfinite(x):
            raise ValueError("shift amount must be finite")
        if x == 0.0:
            return self
        return IntervalSet(tuple(
            Component(c.lower + x, c.upper + x, c.lower_closed, c.upper_closed)
            for c in self.components))

    def scale(self, c: float) -> "IntervalSet":
        """Multiply every point by ``c`` (strictly positive)."""
        if not c > 0.0 or not math.isfinite(c):
            raise ValueError(f"scale factor must be positive and finite, got {c}")
        if c == 1.0:
            return self
        return IntervalSet(tuple(
            Component(p.lower * c, p.upper * c, p.lower_closed, p.upper_closed)
            for p in self.components))

    def complement(self) -> "IntervalSet":
        if self.is_empty:
            return IntervalSet.reals()
        parts: list[Component] = []
        first = self.components[0]
        if first.lower != -INF:
            parts.append(Component(-INF, first.lower, False, not first.lower_closed))
        for left, right in zip(self.components, self.components[1:]):
            parts.append(Component(left.upper, right.lower,
                                   not left.upper_closed, not right.lower_closed))
        last = self.components[-1]
        if last.upper != INF:
            parts.append(Component(last.upper, INF, not last.upper_closed, False))
        return IntervalSet(tuple(parts))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.components + other.components)


EMPTY = IntervalSet.empty()
REALS = IntervalSet.reals()


def lattice_ends(lo, lo_closed, hi, hi_closed) -> tuple[np.ndarray, np.ndarray]:
    """First and last integer site of each component, as floats (or +-inf).

    Arguments are broadcastable arrays, one entry per component, such as a
    set's ``lo``, ``lo_closed``, ``hi`` and ``hi_closed`` or images of its
    endpoints.  A site on an open endpoint is excluded, on a closed one
    included; a component without sites gets first > last.
    """
    first = np.ceil(lo)
    first += (first == lo) & ~lo_closed
    last = np.floor(hi)
    last -= (last == hi) & ~hi_closed
    return first, last


# -- textual notation ------------------------------------------------------
#
# Grammar:  set   := "R" | "empty" | term ("U" term)*
#           term  := ("(" | "[") endpoint "," endpoint (")" | "]")
#           endpoint := float | [+-]? "inf"
# Whitespace is ignored everywhere.

def parse_set(text: str) -> IntervalSet:
    """Parse set notation such as ``"(-inf,0] U [1,2)"``, ``"R"``, ``"empty"``."""
    parser = _SetParser(text)
    return parser.parse()


class _SetParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, reason: str) -> ParseError:
        return ParseError(self.text, self.pos, reason)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> IntervalSet:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("empty input")
        result = self.parse_term()
        self.skip_ws()
        while self.pos < len(self.text):
            ch = self.peek()
            if ch in ("U", "u", "∪"):
                self.pos += 1
                self.skip_ws()
                result = result.union(self.parse_term())
                self.skip_ws()
            else:
                raise self.error(f"expected 'U' or end of input, found {ch!r}")
        return result

    def parse_term(self) -> IntervalSet:
        self.skip_ws()
        rest = self.text[self.pos:]
        for word, value in (("R", REALS), ("empty", EMPTY), ("{}", EMPTY)):
            if rest.startswith(word):
                self.pos += len(word)
                return value
        ch = self.peek()
        if ch not in "([":
            raise self.error(f"expected interval or 'R', found {ch!r}")
        lower_closed = ch == "["
        self.pos += 1
        lower = self.parse_endpoint()
        self.skip_ws()
        if self.peek() != ",":
            raise self.error("expected ','")
        self.pos += 1
        upper = self.parse_endpoint()
        self.skip_ws()
        ch = self.peek()
        if ch not in ")]":
            raise self.error(f"expected ')' or ']', found {ch!r}")
        upper_closed = ch == "]"
        self.pos += 1
        try:
            return IntervalSet.interval(lower, upper, lower_closed, upper_closed)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def parse_endpoint(self) -> float:
        self.skip_ws()
        start = self.pos
        n = len(self.text)
        if self.pos < n and self.text[self.pos] in "+-":
            self.pos += 1
        if self.text[self.pos:self.pos + 3] == "inf":
            self.pos += 3
            return -INF if self.text[start] == "-" else INF
        while self.pos < n and (self.text[self.pos].isdigit()
                                or self.text[self.pos] in ".eE"
                                or (self.text[self.pos] in "+-"
                                    and self.text[self.pos - 1] in "eE")):
            self.pos += 1
        token = self.text[start:self.pos]
        if not token:
            raise self.error("expected a number or 'inf'")
        try:
            return float(token)
        except ValueError:
            self.pos = start
            raise self.error(f"bad number {token!r}") from None
