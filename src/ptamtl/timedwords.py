"""Finite timed words with exact rational timestamps.

All time values in this package are ``fractions.Fraction`` instances, never
floats: the constructions downstream hinge on exact timestamp equalities
(copies exactly two time units apart, guards of the form x = p), which
floating point would silently break.  ``Fraction``s remain the API.  A word
is a frozen dataclass; its :attr:`TimedWord.ticks`, the same times as
integers on one scale, is a view cached on first use, for readers that
compare and subtract times in bulk.
The view is exact, so it decides every equality as the ``Fraction``s do.
One tick rule, :func:`tick_range`, serves MTL windows and the search's guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from numbers import Rational
from typing import Iterator, Optional, Union

from .errors import ConcatOrderError

RationalLike = Union[int, str, Fraction]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, ``p/q`` string, or Fraction into an exact rational.

    Floats are rejected on purpose.
    """
    if isinstance(value, float):
        raise TypeError("floating point time values are not allowed; use Fraction or 'p/q'")
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def tick_range(
    lower: Rational, lower_closed: bool, upper: Optional[Rational], upper_closed: bool, rate: Rational
) -> tuple[int, Optional[int]]:
    """The inclusive range lo..hi (hi None if unbounded, lo > hi if empty) of
    the whole tick counts d with d / rate between ``lower`` and ``upper``
    (None: unbounded), ``rate`` ticks to a time unit: > b is >= b + 1 and
    < b is <= b - 1, by exact ``divmod`` on numerators and denominators."""
    q, r = divmod(lower.numerator * rate.numerator, lower.denominator * rate.denominator)
    lo = q + (r > 0 or not lower_closed)
    if upper is None:
        return lo, None
    q, r = divmod(upper.numerator * rate.numerator, upper.denominator * rate.denominator)
    return lo, q - (r == 0 and not upper_closed)


@dataclass(frozen=True)
class TimedWord:
    """A non-empty finite sequence of (symbol, timestamp) events.

    Built from any iterable of (symbol, time) pairs, with times as :func:`rat`
    takes them; timestamps are non-negative and non-decreasing along the word.
    Instances are immutable and hashable; equality, hash and repr read the
    events only, never the cached :attr:`ticks` view.
    """

    events: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        normalized = tuple((str(symbol), rat(time)) for symbol, time in self.events)
        if not normalized:
            raise ValueError("a timed word must contain at least one event")
        previous = None
        for symbol, time in normalized:
            if time < 0:
                raise ValueError(f"negative timestamp {time} for symbol {symbol!r}")
            if previous is not None and time < previous:
                raise ValueError("timestamps must be non-decreasing")
            previous = time
        object.__setattr__(self, "events", normalized)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[tuple[str, Fraction]]:
        return iter(self.events)

    def __getitem__(self, index: int) -> tuple[str, Fraction]:
        return self.events[index]

    def __repr__(self) -> str:
        inside = " ".join(f"({s},{t})" for s, t in self.events)
        return f"TimedWord[{inside}]"

    @cached_property
    def ticks(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, ticks)``, with ``scale`` the lcm of the timestamps'
        denominators and ``Fraction(ticks[i], scale)`` the i-th timestamp
        (0-based): computed on first use and kept on the word."""
        scale = lcm(*[time.denominator for _, time in self.events])
        return scale, tuple(time.numerator * (scale // time.denominator) for _, time in self.events)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.events)

    @property
    def times(self) -> tuple[Fraction, ...]:
        return tuple(t for _, t in self.events)

    def symbol_at(self, position: int) -> str:
        """Symbol at a 1-based position."""
        return self.events[position - 1][0]

    def time_at(self, position: int) -> Fraction:
        """Timestamp at a 1-based position."""
        return self.events[position - 1][1]


def concat(first: TimedWord, second: TimedWord) -> TimedWord:
    """Concatenate two timed words.

    Defined only when the last timestamp of ``first`` is at most the first
    timestamp of ``second``; boundary equality is allowed.
    """
    if first.events[-1][1] > second.events[0][1]:
        raise ConcatOrderError(
            f"cannot concatenate: {first.events[-1]} ends after {second.events[0]} starts"
        )
    return TimedWord(first.events + second.events)


def is_strictly_monotonic(word: TimedWord) -> bool:
    """True iff every adjacent timestamp pair is strictly increasing."""
    times = word.times
    return all(earlier < later for earlier, later in zip(times, times[1:]))
