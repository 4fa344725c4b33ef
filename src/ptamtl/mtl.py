"""Metric temporal logic over finite timed words, pointwise semantics.

The until modality is strict: a witness position lies strictly after the
current one, and only positions strictly in between are constrained.  The
next modality is derivable from until precisely because of this strictness.

Formulas are immutable ASTs.  The core grammar is atoms, true, negation,
conjunction, and interval-constrained until; disjunction, implication,
false, next, eventually, and globally are kept as first-class nodes for
display.  :func:`desugar` compiles a formula into a program of core ops only.

One engine evaluates them.  :func:`compile_formula` hash-conses a formula
into a post-order op array, keyed on integer child ids, so equal subformulas
share one op.  :func:`eval_at` decides a closed word at a position, and
:func:`satisfies` is its answer at the first one.  One evaluator computes a
row of truth values per op over a word whose timestamps are scaled to
integers by their common denominator, each interval modality reading its
windows by binary search and prefix counts; the connectives at the top of
the formula are evaluated at the position alone.  Results are checked
against a naive evaluator in the tests.

A search that extends prefixes one event at a time uses formula
progression instead (Bacchus & Kabanza, AIJ 2000; Thati & Rosu, RV 2004).
A :class:`Progression` reads a word of integer grid ticks, holding every
time on one integer scale fixed for the whole search, and rewrites the
formula after each event into its residual: a boolean combination of
pending until and release obligations, each with its interval shifted to
the last event.  Residuals are hash-consed ids and each step is memoized,
so the engine is a lazily built automaton whose states can key a memo of
search subtrees.  A residual is constant exactly when the three-valued
(Kleene) evaluation of the prefix, with every pending obligation unknown,
is decided.  Pruning on a false residual is sound because a decided value
keeps it on every extension by events at or after the last timestamp.
With its pending obligations closed, a residual is the verdict of a word
that ends there, so the batch evaluator stays off the search path as the
independent checker.  The tests hold progression to a Kleene evaluation
of prefixes, and the batch evaluator to the same evaluation of closed
words, on random formulas and words.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import lcm
from operator import and_, or_
from typing import Iterable, NamedTuple, Optional, Union

from .timedwords import RationalLike, TimedWord, rat


@dataclass(frozen=True)
class Interval:
    """An interval with endpoints in the naturals plus infinity.

    ``upper is None`` encodes an unbounded (and therefore right-open)
    interval.  Intervals must be non-empty.
    """

    lower: int
    upper: Optional[int]
    lower_closed: bool
    upper_closed: bool

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("interval endpoints must be non-negative")
        if self.upper is None:
            if self.upper_closed:
                raise ValueError("an unbounded interval must be right-open")
            return
        if self.upper < self.lower:
            raise ValueError("empty interval: upper endpoint below lower")
        if self.upper == self.lower and not (self.lower_closed and self.upper_closed):
            raise ValueError("empty interval: point interval must be closed on both ends")

    @classmethod
    def point(cls, value: int) -> "Interval":
        return cls(value, value, True, True)

    def contains(self, value: Fraction) -> bool:
        if self.lower_closed:
            if value < self.lower:
                return False
        elif value <= self.lower:
            return False
        if self.upper is None:
            return True
        if self.upper_closed:
            return value <= self.upper
        return value < self.upper

    @property
    def is_full(self) -> bool:
        return self.lower == 0 and self.lower_closed and self.upper is None


FULL = Interval(0, None, True, False)
POSITIVE = Interval(0, None, False, False)


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class FalseConst(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    interval: Interval
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    interval: Interval
    operand: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    interval: Interval
    operand: Formula


@dataclass(frozen=True)
class Globally(Formula):
    interval: Interval
    operand: Formula


TRUE = TrueConst()
FALSE = FalseConst()


def and_all(parts: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; TRUE for the empty sequence."""
    parts = list(parts)
    if not parts:
        return TRUE
    return reduce(And, parts)


def or_all(parts: Iterable[Formula]) -> Formula:
    """Left-folded disjunction; FALSE for the empty sequence."""
    parts = list(parts)
    if not parts:
        return FALSE
    return reduce(Or, parts)


# -- the compiled engine -------------------------------------------------------
#
# An op is (kind, first child or atom name, second child, interval index), -1
# where absent; children precede their parent.  Kinds _NOT.._IMPLIES are the
# boolean connectives, kinds from _NEXT on carry an interval.

_ATOM, _TRUE, _FALSE, _NOT, _AND, _OR, _IMPLIES, _NEXT, _EVENTUALLY, _GLOBALLY, _UNTIL = range(11)
_KINDS = {
    Atom: _ATOM, TrueConst: _TRUE, FalseConst: _FALSE, Not: _NOT, And: _AND, Or: _OR,
    Implies: _IMPLIES, Next: _NEXT, Eventually: _EVENTUALLY, Globally: _GLOBALLY, Until: _UNTIL,
}  # fmt: skip
_UNARY = (_NOT, _NEXT, _EVENTUALLY, _GLOBALLY)


class Program(NamedTuple):
    """A formula compiled by :func:`compile_formula`; ``ops[root]`` is the whole formula."""

    ops: tuple
    intervals: tuple[Interval, ...]
    root: int


def compile_formula(formula: Union[Formula, Program]) -> Program:
    """Compile a formula iteratively; equal subformulas get one op.  A
    program is returned as it is."""
    if isinstance(formula, Program):
        return formula
    op_ids: dict[tuple, int] = {}
    interval_ids: dict[Interval, int] = {}
    compiled: dict[int, int] = {}  # id(node) -> op id; ``formula`` keeps the nodes alive
    stack = [formula]
    while stack:
        node = stack.pop()
        if id(node) in compiled:
            continue
        kind = _KINDS.get(type(node))
        if kind is None:
            raise TypeError(f"unknown formula node {node!r}")
        if kind == _ATOM:
            key = (kind, node.name, -1, -1)
        elif kind < _NOT:
            key = (kind, -1, -1, -1)
        else:
            if kind in _UNARY:
                left, right, b = node.operand, None, -1
            else:
                left, right = node.left, node.right
                b = compiled.get(id(right))
            a = compiled.get(id(left))
            if a is None or b is None:  # operands first
                stack.append(node)
                if a is None:
                    stack.append(left)
                if b is None:
                    stack.append(right)
                continue
            iv = -1 if kind < _NEXT else interval_ids.setdefault(node.interval, len(interval_ids))
            key = (kind, a, b, iv)
        compiled[id(node)] = op_ids.setdefault(key, len(op_ids))
    return Program(tuple(op_ids), tuple(interval_ids), compiled[id(formula)])


def desugar(formula: Union[Formula, Program]) -> Program:
    """The formula compiled into the core grammar: a hash-consed program of
    atom, true, not, and, and until ops only.

    One pass over the ops of :func:`compile_formula`, children first, maps
    each op to its core form.
    """
    program = compile_formula(formula)
    op_ids: dict[tuple, int] = {}

    def op(kind: int, a, b: int = -1, iv: int = -1) -> int:
        return op_ids.setdefault((kind, a, b, iv), len(op_ids))

    def neg(x: int) -> int:
        return op(_NOT, x)

    def disj(x: int, y: int) -> int:
        return neg(op(_AND, neg(x), neg(y)))

    def true() -> int:
        return op(_TRUE, -1)

    core: list[int] = []  # core[k]: the core op of op k
    for kind, a, b, iv in program.ops:
        x = core[a] if kind >= _NOT else -1
        y = core[b] if b >= 0 else -1
        if kind == _ATOM:
            k = op(_ATOM, a)
        elif kind == _TRUE:
            k = true()
        elif kind == _FALSE:
            k = neg(true())
        elif kind == _NOT:
            k = neg(x)
        elif kind == _AND:
            k = op(_AND, x, y)
        elif kind == _OR:
            k = disj(x, y)
        elif kind == _IMPLIES:
            k = disj(neg(x), y)
        elif kind == _NEXT:
            k = op(_UNTIL, neg(true()), x, iv)
        elif kind == _EVENTUALLY:
            k = op(_UNTIL, true(), x, iv)
        elif kind == _GLOBALLY:
            k = neg(op(_UNTIL, true(), neg(x), iv))
        else:
            k = op(_UNTIL, x, y, iv)
        core.append(k)
    return Program(tuple(op_ids), program.intervals, core[program.root])


def _order(ops: tuple, k: int, rows: list) -> tuple[int, ...]:
    """Op k and every op its row depends on whose row is still missing,
    children before parents: the order in which their rows are filled."""
    needed, stack = set(), [k]
    while stack:
        j = stack.pop()
        if j not in needed and rows[j] is None:
            needed.add(j)
            kind, a, b, _ = ops[j]
            if kind >= _NOT:
                stack.append(a)
                if b >= 0:
                    stack.append(b)
    return tuple(sorted(needed))


def _evaluator(word: TimedWord, program: Program):
    """Return ``row(k)``, the truth of op k at every position of the word."""
    ops = program.ops
    events = word.events
    n = len(events)
    symbols = [symbol for symbol, _ in events]
    # exact integer times: scale by the common denominator of the timestamps
    scale = lcm(*[time.denominator for _, time in events])
    times = [time.numerator * (scale // time.denominator) for _, time in events]
    rows: list = [None] * len(ops)
    windows: list = [None] * len(program.intervals)
    every = list(range(n + 1))

    def window(iv: int) -> tuple[list[int], list[int]]:
        """lo[i]:hi[i] are the positions j > i with t_j - t_i in the interval."""
        if windows[iv] is None:
            interval = program.intervals[iv]
            low = interval.lower * scale
            start = bisect_left if interval.lower_closed else bisect_right
            lo = [max(i + 1, start(times, t + low)) for i, t in enumerate(times)]
            if interval.upper is None:
                hi = [n] * n
            else:
                high = interval.upper * scale
                end = bisect_right if interval.upper_closed else bisect_left
                hi = [end(times, t + high) for t in times]
            windows[iv] = (lo, hi)
        return windows[iv]

    def until(fail: list[int], right: list[bool], iv: int) -> list[bool]:
        """Some j in i's window has ``right`` true and ``left`` true strictly
        between i and j.  fail[k] is the first position >= k where ``left``
        is false (n if none), so j lies in [lo[i], min(hi[i], fail[i + 1] + 1))."""
        lo, hi = window(iv)
        count = list(accumulate(right, initial=0))  # count[k]: right true before k
        return [count[b if b <= f else f + 1] > count[a] for a, b, f in zip(lo, hi, fail[1:])]

    def compute(k: int) -> list[bool]:
        kind, a, b, iv = ops[k]
        if kind == _ATOM:
            return [symbol == a for symbol in symbols]
        if kind < _NOT:
            return [kind == _TRUE] * n
        x = rows[a]
        if kind == _NOT:
            return [not v for v in x]
        if kind == _AND:
            return list(map(and_, x, rows[b]))
        if kind == _OR:
            return list(map(or_, x, rows[b]))
        if kind == _IMPLIES:
            return [not v or w for v, w in zip(x, rows[b])]
        if kind == _UNTIL:
            fail = [n] * (n + 1)
            for j in range(n - 1, -1, -1):
                fail[j] = fail[j + 1] if x[j] else j
            return until(fail, rows[b], iv)
        if kind == _NEXT:  # false U phi
            return until(every, x, iv)
        # F x: some position in the window has x; G x: none has not x
        lo, hi = window(iv)
        hit = kind == _EVENTUALLY
        count = list(accumulate((v == hit for v in x), initial=0))
        return [(count[b] > count[a]) == hit for a, b in zip(lo, hi)]

    def row(k: int) -> list[bool]:
        if rows[k] is None:
            for j in _order(ops, k, rows):
                rows[j] = compute(j)
        return rows[k]

    return row


def _value(program: Program, row, i: int) -> bool:
    """Truth at the position with index i (0-based), reading the rows of the
    temporal operators and atoms from ``row(k)``.  The connectives above them
    are evaluated at that position alone, left operand first, skipping the
    right operand once the left decides the result."""
    ops = program.ops
    stack = [(program.root, False)]  # (op, its first operand done)
    value = False
    while stack:
        k, after = stack.pop()
        kind, a, b, _ = ops[k]
        if not after:
            if _NOT <= kind <= _IMPLIES:
                stack.append((k, True))
                stack.append((a, False))
            else:
                value = row(k)[i]
        elif kind == _NOT:
            value = not value
        else:
            if kind == _IMPLIES:
                value = not value  # a -> b is !a | b
            if value == (kind == _AND):  # the left operand does not decide: b is the result
                stack.append((b, False))
    return value


# -- formula progression ---------------------------------------------------------
#
# A residual is an id of a hash-consed node: 0 is false, 1 true, 2 the formula
# before the first event.  Others are ("&", ids) or ("|", ids), flattened,
# deduplicated and sorted, or an obligation (k, negated, lower, lower closed,
# upper or None, upper closed): op k or its negation from the last event, its
# interval shifted to that event.  Only constants are absorbed, which keeps a
# residual constant exactly when the Kleene value of the prefix is decided.

_START = 2


class Progression:
    """Formula progression over words of integer ticks, an event's time
    being ``tick * unit``.  The residual of a prefix is what the events after
    it must satisfy for the whole word to satisfy the formula at its first
    position.  ``step(residual, symbol, ticks)`` is the residual after one
    more event, ``ticks`` ticks after the previous one; ``start`` is the
    residual of the empty word.  ``accepts(residual)`` is whether a word
    that ends there satisfies the formula, as :func:`satisfies` would say.

    A residual is false (0) or true (1) exactly when the Kleene evaluation
    of the prefix, every pending obligation unknown, is; no extension of a
    prefix with a false residual satisfies the formula.  Equal residuals are one id, and :meth:`now` and :meth:`step`
    are memoized, so the engine builds the automaton of the formula's
    residuals lazily, as a search visits it.
    """

    start = _START

    def __init__(self, formula: Union[Formula, Program], unit: RationalLike):
        unit = rat(unit)
        if unit <= 0:
            raise ValueError("the time unit must be positive")
        self.program = program = compile_formula(formula)
        self._factor = unit.numerator
        scale = unit.denominator  # a time t is t * scale on the integer scale
        self._windows = [
            (iv.lower * scale, iv.lower_closed, None if iv.upper is None else iv.upper * scale, iv.upper_closed)
            for iv in program.intervals
        ]
        self._nodes: list[tuple] = [("false",), ("true",), ("start",)]
        self._accepts: list[bool] = [False, True, False]  # the empty word has no first position
        self._ids: dict[tuple, int] = {}
        self._now: dict[tuple, int] = {}  # (op, negated, symbol) -> residual
        self._steps: dict[tuple, int] = {}  # (residual, symbol, ticks) -> residual

    def _intern(self, node: tuple) -> int:
        ident = self._ids.get(node)
        if ident is None:
            ident = self._ids[node] = len(self._nodes)
            self._nodes.append(node)
            if type(node[0]) is str:  # its operands were interned before it
                self._accepts.append((all if node[0] == "&" else any)(self._accepts[r] for r in node[1]))
            else:  # no witness is left: a pending until is false, a negated one true
                self._accepts.append(node[1] != (self.program.ops[node[0]][0] == _GLOBALLY))
        return ident

    def accepts(self, residual: int) -> bool:
        """Whether a word whose last residual this is satisfies the formula."""
        return self._accepts[residual]

    def _join(self, conj: bool, parts) -> int:
        """The conjunction (``conj``) or disjunction of the residuals."""
        tag, unit, zero = ("&", 1, 0) if conj else ("|", 0, 1)
        flat = set()
        for r in parts:
            if r == zero:
                return zero
            if r != unit:
                node = self._nodes[r]
                if node[0] == tag:
                    flat.update(node[1])
                else:
                    flat.add(r)
        if len(flat) < 2:
            return flat.pop() if flat else unit
        return self._intern((tag, tuple(sorted(flat))))

    def now(self, k: int, negated: bool, symbol: str) -> int:
        """The residual of op k, or of its negation, at an event reading
        ``symbol``, before any later event."""
        memo = self._now
        result = memo.get((k, negated, symbol))
        if result is not None:
            return result
        ops = self.program.ops
        stack = [(k, negated, symbol)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            j, neg, _ = key
            kind, a, b, iv = ops[j]
            if kind == _ATOM:
                result = int((a == symbol) != neg)
            elif kind < _NOT:
                result = int((kind == _TRUE) != neg)
            elif kind >= _NEXT:
                result = self._intern((j, neg, *self._windows[iv]))
            else:  # a -> b is !a | b; a negated connective is its dual
                left = (a, neg != (kind == _NOT or kind == _IMPLIES), symbol)
                x = memo.get(left)
                if x is None:
                    stack.append(left)
                    continue
                conj = (kind == _AND) != neg
                if kind == _NOT or x == (0 if conj else 1):  # no right operand, or it cannot matter
                    result = x
                else:
                    right = (b, neg, symbol)
                    y = memo.get(right)
                    if y is None:
                        stack.append(right)
                        continue
                    result = self._join(conj, (x, y))
            memo[key] = result
            stack.pop()
        return memo[k, negated, symbol]

    def step(self, residual: int, symbol: str, ticks: int) -> int:
        """The residual after one more event, reading ``symbol`` ``ticks``
        ticks after the previous event."""
        memo = self._steps
        result = memo.get((residual, symbol, ticks))
        if result is not None:
            return result
        if ticks < 0:
            raise ValueError("timestamps must be non-decreasing")
        nodes = self._nodes
        stack = [residual]
        while stack:
            r = stack[-1]
            if (r, symbol, ticks) in memo:
                stack.pop()
                continue
            node = nodes[r]
            if r < _START:
                result = r
            elif r == _START:
                result = self.now(self.program.root, False, symbol)
            elif type(node[0]) is str:  # operands in order, up to one that decides
                conj = node[0] == "&"
                zero = 0 if conj else 1
                values = []
                for c in node[1]:
                    result = memo.get((c, symbol, ticks))
                    if result is None or result == zero:
                        break
                    values.append(result)
                if result is None:
                    stack.append(c)
                    continue
                if result != zero:
                    result = self._join(conj, values)
            else:
                result = self._advance(node, symbol, ticks * self._factor)
            memo[r, symbol, ticks] = result
            stack.pop()
        return memo[residual, symbol, ticks]

    def _advance(self, node: tuple, symbol: str, delay: int) -> int:
        """An obligation after an event ``delay`` later on the integer scale:
        ``a U b`` is (the event is in the window and b holds there) or (a holds
        there and ``a U b``, its window shifted, holds from there).  F, X and G
        are ``true U``, ``false U`` and ``!(true U !x)``; a negation is the dual."""
        k, negated, lo, lo_closed, hi, hi_closed = node
        kind, a, b, _ = self.program.ops[k]
        flip = negated != (kind == _GLOBALLY)  # the until is negated
        inside = (delay > lo or (delay == lo and lo_closed)) and (
            hi is None or delay < hi or (delay == hi and hi_closed)
        )
        witness = self.now(b if kind == _UNTIL else a, negated, symbol) if inside else int(flip)
        if hi is not None and (delay > hi or (delay == hi and not hi_closed)):
            later = int(flip)  # the window has passed
        else:  # a lower bound below 0 is [0, as later events come no earlier
            shifted = (max(lo - delay, 0), lo_closed or delay > lo, None if hi is None else hi - delay, hi_closed)
            later = self._intern((k, negated, *shifted))
        between = self.now(a, flip, symbol) if kind == _UNTIL else int((kind != _NEXT) != flip)
        return self._join(flip, [witness, self._join(not flip, [between, later])])


def eval_at(word: TimedWord, position: int, formula: Union[Formula, Program]) -> bool:
    """Truth of ``formula`` at a 1-based position of ``word``."""
    if not 1 <= position <= len(word):
        raise IndexError(f"position {position} out of range 1..{len(word)}")
    program = compile_formula(formula)
    return _value(program, _evaluator(word, program), position - 1)


def satisfies(word: TimedWord, formula: Union[Formula, Program]) -> bool:
    """Whether the word satisfies the formula (evaluation at position 1)."""
    return eval_at(word, 1, formula)
