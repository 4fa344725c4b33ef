"""Metric temporal logic over finite timed words, pointwise semantics.

The until modality is strict: a witness position lies strictly after the
current one, and only positions strictly in between are constrained.  The
next modality is derivable from until precisely because of this strictness.

Formulas are immutable ASTs.  The core grammar is atoms, true, negation,
conjunction, and interval-constrained until; false, disjunction,
implication, next, eventually, and globally are abbreviations, kept as
first-class nodes for display.  :class:`ProgramBuilder` is the one place
that expands them: it hash-conses a formula, one node at a time and
operands first, into a post-order array of atom, true, and, and until ops
whose children are signed references (2k is op k, 2k + 1 its negation), so
equal subformulas share one reference whichever operators spell them.
:attr:`Formula.program` feeds it the nodes of an AST, left operand first,
and :func:`formats.parse_program` the nodes of a formula's text as it
reads them, so both number the ops of one formula alike.  A formula
compiles once: its program is cached on the formula object and freed with
it, and :func:`compile_formula` reads it from there.

:func:`eval_at` decides a closed word at a position, and :func:`satisfies`
is its answer at the first one.  One evaluator computes a row of truth
values per op over a word whose timestamps are scaled to integers by their
common denominator, each until reading its windows by binary search and
prefix counts; a negation is a flag on a row, never a computed row, and the
conjunctions at the top of the formula are evaluated at the position alone.
Results are checked against a naive evaluator of the ASTs in the tests.

A search that extends prefixes one event at a time uses formula
progression instead (Bacchus & Kabanza, AIJ 2000; Thati & Rosu, RV 2004).
A :class:`Progression` reads a word of integer grid ticks, holding every
time on one integer scale fixed for the whole search, and rewrites the
formula after each event into its residual: negated and plain conjunctions
of pending until obligations, each with its interval shifted to the last
event.  A residual is a signed reference to a hash-consed node, as a
program child is one, so a negation costs no node and each step is memoized
once for a residual and its negation.  A step looks up each operand of a
conjunction once, resuming its scan after stepping a missing operand, and
builds an obligation's shifted window only when the result depends on it,
so a node costs work linear in its width.  The engine is a lazily built
automaton whose states can key a memo of search subtrees.  A residual is
constant exactly when the three-valued (Kleene) evaluation of the prefix,
with every pending obligation unknown, is decided.  Pruning on a false
residual is sound because a decided value keeps it on every extension by
events at or after the last timestamp.
With its pending obligations closed, a residual is the verdict of a word
that ends there, so the batch evaluator stays off the search path as the
independent checker.  The tests hold progression to a Kleene evaluation
of prefixes, and the batch evaluator to the same evaluation of closed
words, on random formulas and words.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from math import lcm
from operator import and_, gt, lt, or_
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

    @property
    def is_full(self) -> bool:
        return self.lower == 0 and self.lower_closed and self.upper is None


FULL = Interval(0, None, True, False)
POSITIVE = Interval(0, None, False, False)


class Formula:
    """Base class for formula nodes.  The nodes are frozen dataclasses whose
    equality, hash and repr read their fields only, so the program cached on
    a node leaves them as they are."""

    __slots__ = ()

    @cached_property
    def program(self) -> Program:
        """The formula compiled on first use and kept on this object, built
        iteratively, in post-order with the left operand first, so that the
        ops are numbered as :func:`formats.parse_program` numbers them reading
        the formula's text."""
        builder = ProgramBuilder()
        refs: dict[int, int] = {}  # id(node) -> reference; ``self`` keeps the nodes alive
        stack = [(self, None)]  # (node, its operands once they are pushed)
        while stack:
            node, operands = stack.pop()
            if id(node) in refs:
                continue
            if operands is None:  # a node's fields are set in declaration order
                operands = [v for v in vars(node).values() if isinstance(v, Formula)]
                stack.append((node, operands))
                stack.extend((operand, None) for operand in reversed(operands))
            elif type(node) is Atom:
                refs[id(node)] = builder.build(Atom, None, node.name)
            else:
                interval = getattr(node, "interval", None)
                refs[id(node)] = builder.build(type(node), interval, *(refs[id(o)] for o in operands))
        return builder.program(refs[id(self)])


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
# A program holds four kinds of op: atom, true, and, until.  An op is (kind,
# first child or atom name, second child, interval index), -1 where absent;
# children precede their parent.  A child is a reference: 2k is op k and
# 2k + 1 its negation, so negation costs no op and ``!!f`` is ``f``.  Op 0 is
# true, so reference 0 is true and 1 is false.

_ATOM, _TRUE, _AND, _UNTIL = range(4)

# The derived operators, defined here once: a node becomes (kind, negate its
# left operand, negate its right operand, negate the result).  A unary
# modality's left operand is true.
_CORE = {
    And: (_AND, 0, 0, 0),
    Or: (_AND, 1, 1, 1),  # !(!a & !b)
    Implies: (_AND, 0, 1, 1),  # !(a & !b)
    Until: (_UNTIL, 0, 0, 0),
    Next: (_UNTIL, 1, 0, 0),  # false U a
    Eventually: (_UNTIL, 0, 0, 0),  # true U a
    Globally: (_UNTIL, 0, 1, 1),  # !(true U !a)
}


class Program(NamedTuple):
    """A formula compiled by a :class:`ProgramBuilder`, from an AST by
    :func:`compile_formula` or from text by :func:`formats.parse_program`.
    ``root`` is the reference of the whole formula: op ``root >> 1``,
    negated if ``root`` is odd."""

    ops: tuple
    intervals: tuple[Interval, ...]
    root: int


class ProgramBuilder:
    """Builds a program one node at a time, operands first: the one place
    where a formula's operators become ops.  ``build(cls, interval, x, y)``
    takes a node's class, its interval (None for a node without one) and its
    operands: an atom's name, the reference of a unary node's operand, or
    the references of a binary node's left and right operands, each built
    before it.  Negation flips the reference, true and false are references
    0 and 1, and an atom or any other operator is interned by the rule in
    ``_CORE``, so equal subformulas, also when spelled with different
    operators, get one reference.  Ops and intervals are numbered in the
    order they are first built."""

    __slots__ = ("_ops", "_intervals")

    def __init__(self):
        self._ops: dict[tuple, int] = {(_TRUE, -1, -1, -1): 0}
        self._intervals: dict[Interval, int] = {}

    def build(self, cls: type, interval: Optional[Interval], x=None, y=None) -> int:
        rule = _CORE.get(cls)
        if rule is not None:
            kind, flip_x, flip_y, flip = rule
            if y is None:  # a unary modality: its left operand is true
                x, y = 0, x
            ops = self._ops
            iv = -1 if kind == _AND else self._intervals.setdefault(interval, len(self._intervals))
            return 2 * ops.setdefault((kind, x ^ flip_x, y ^ flip_y, iv), len(ops)) ^ flip
        if cls is Not:
            return x ^ 1
        if cls is Atom:
            ops = self._ops
            return 2 * ops.setdefault((_ATOM, x, -1, -1), len(ops))
        if cls is TrueConst or cls is FalseConst:
            return int(cls is FalseConst)
        raise TypeError(f"unknown formula node class {cls.__name__}")

    def program(self, root: int) -> Program:
        """The program of the ops built so far, with ``root`` as its root."""
        return Program(tuple(self._ops), tuple(self._intervals), root)


def compile_formula(formula: Union[Formula, Program]) -> Program:
    """The program of a formula: ``formula.program``, compiled on first use
    and kept on the formula object, so a formula compiles once however many
    words it is evaluated on.  A program is returned as it is."""
    return formula if isinstance(formula, Program) else formula.program


# (p, q) -> (operator, flip): the row of a & b from the rows of a and b, each
# negated if its flip is 1; !a & !b is stored as the flipped row of a | b
_CONJUNCTIONS = {(0, 0): (and_, 0), (1, 0): (lt, 0), (0, 1): (gt, 0), (1, 1): (or_, 1)}


def _evaluator(word: TimedWord, program: Program):
    """Return ``row(r)``, the truth of reference r at every position of the
    word as ``(values, flip)``: r holds at position i iff ``values[i] != flip``.
    Negations are read from the flips and never computed."""
    ops = program.ops
    events = word.events
    n = len(events)
    symbols = [symbol for symbol, _ in events]
    # exact integer times: scale by the common denominator of the timestamps
    scale = lcm(*[time.denominator for _, time in events])
    times = [time.numerator * (scale // time.denominator) for _, time in events]
    rows: list = [None] * len(ops)  # rows[k]: op k's (values, flip)
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

    def compute(k: int) -> tuple[list[bool], int]:
        kind, a, b, iv = ops[k]
        if kind == _ATOM:
            return [symbol == a for symbol in symbols], 0
        if kind == _TRUE:
            return [True] * n, 0
        y, q = rows[b >> 1]  # children are filled first
        q ^= b & 1
        if kind == _AND:
            x, p = rows[a >> 1]
            operator, flip = _CONJUNCTIONS[p ^ (a & 1), q]
            return list(map(operator, x, y)), flip
        # a U b: some j in i's window has b true and a true strictly between
        # i and j.  fail[k] is the first position >= k where a is false (n if
        # none), so j lies in [lo[i], min(hi[i], fail[i + 1] + 1)).
        lo, hi = window(iv)
        count = list(accumulate((not v for v in y) if q else y, initial=0))  # count[k]: b true before k
        if a == 0:  # true U b: every witness in the window counts
            return [count[h] > count[l] for l, h in zip(lo, hi)], 0
        if a == 1:  # false U b: only the next position
            fail = every
        else:
            x, p = rows[a >> 1]
            p ^= a & 1
            fail = [n] * (n + 1)
            for j in range(n - 1, -1, -1):
                fail[j] = j if x[j] == p else fail[j + 1]
        return [count[h if h <= f else f + 1] > count[l] for l, h, f in zip(lo, hi, fail[1:])], 0

    def row(r: int) -> tuple[list[bool], int]:
        k = r >> 1
        if rows[k] is None:
            # post-order: an op is computed once its children's rows are filled
            stack = [k]
            while stack:
                j = stack[-1]
                kind, a, b, _ = ops[j]
                if kind >= _AND:
                    if rows[a >> 1] is None:
                        stack.append(a >> 1)
                        continue
                    if rows[b >> 1] is None:
                        stack.append(b >> 1)
                        continue
                rows[j] = compute(j)
                stack.pop()
        values, flip = rows[k]
        return values, flip ^ (r & 1)

    return row


def _value(program: Program, row, i: int) -> bool:
    """Truth at the position with index i (0-based), reading the rows of the
    untils and atoms from ``row(r)``.  The conjunctions above them are
    evaluated at that position alone, left operand first, skipping the right
    operand once the left decides the result."""
    ops = program.ops
    stack = [(program.root, 0)]  # (reference, operands done)
    value = False
    while stack:
        r, done = stack.pop()
        kind, a, b, _ = ops[r >> 1]
        if kind != _AND:
            values, flip = row(r)
            value = values[i] != flip
        elif done == 0:
            stack.append((r, 1))
            stack.append((a, 0))
        elif done == 1 and value:  # the left operand does not decide: b is the result
            stack.append((r, 2))
            stack.append((b, 0))
        else:
            value = value != (r & 1)
    return value


# -- formula progression ---------------------------------------------------------
#
# A residual is a signed reference to a hash-consed node, as a program child
# is one: 2k is node k and 2k + 1 its negation.  Node 0 is false, so 0 is false
# and 1 true, and node 1 is the formula before the first event, so 2 is the
# start.  Every other node is a conjunction (_AND, references), flattened,
# deduplicated and sorted, or an obligation (_UNTIL, k, lower, lower closed,
# upper or None, upper closed): the until of op k from the last event, its
# interval shifted to that event.  A disjunction is the negated conjunction of
# the negated operands.  Only constants are absorbed, which keeps a residual
# constant exactly when the Kleene value of the prefix is decided.

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
    prefix with a false residual satisfies the formula.  Equal residuals are
    one id, and ``r ^ 1`` is the negation of residual r, as it is of a
    program reference: :meth:`now`, :meth:`step` and :meth:`accepts` flip
    with it.  :meth:`now` is memoized per op and :meth:`step` per node, so
    the engine builds the automaton of the formula's residuals lazily, as a
    search visits it.  A step looks up each operand of a node once, and
    builds the shifted until obligation only when the result depends on it:
    when the left operand holds at the event and no witness decides.
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
        self._nodes: list = [None, None]  # false and the start have no operands
        self._accepts: list[bool] = [False, False]  # the empty word has no first position
        self._ids: dict[tuple, int] = {}
        self._now: dict[tuple, int] = {}  # (op, symbol) -> residual
        self._steps: dict[tuple, int] = {}  # (node, symbol, ticks) -> residual

    def _intern(self, node: tuple) -> int:
        k = self._ids.get(node)
        if k is None:
            k = self._ids[node] = len(self._nodes)
            self._nodes.append(node)
            # a conjunction's operands were interned before it; an obligation
            # with no witness left is false
            self._accepts.append(node[0] == _AND and all(map(self.accepts, node[1])))
        return 2 * k

    def accepts(self, residual: int) -> bool:
        """Whether a word whose last residual this is satisfies the formula."""
        return self._accepts[residual >> 1] != (residual & 1)

    def _and(self, parts) -> int:
        """The conjunction of the residuals."""
        nodes = self._nodes
        flat = set()
        for r in parts:
            if r == 0:
                return 0
            if r & 1 == 0 and nodes[r >> 1][0] == _AND:
                flat.update(nodes[r >> 1][1])
            elif r != 1:
                flat.add(r)
        if len(flat) < 2:
            return flat.pop() if flat else 1
        return self._intern((_AND, tuple(sorted(flat))))

    def now(self, r: int, symbol: str) -> int:
        """The residual of reference r at an event reading ``symbol``, before
        any later event."""
        memo = self._now
        result = memo.get((r >> 1, symbol))
        if result is None:
            ops = self.program.ops
            stack = [r >> 1]
            while stack:
                k = stack[-1]
                kind, a, b, iv = ops[k]
                if kind == _ATOM:
                    result = int(a == symbol)
                elif kind == _TRUE:
                    result = 1
                elif kind == _UNTIL:
                    result = self._intern((_UNTIL, k, *self._windows[iv]))
                else:
                    x = memo.get((a >> 1, symbol))
                    if x is None:
                        stack.append(a >> 1)
                        continue
                    result = x ^ (a & 1)
                    if result:  # the left operand does not decide
                        y = memo.get((b >> 1, symbol))
                        if y is None:
                            stack.append(b >> 1)
                            continue
                        result = self._and((result, y ^ (b & 1)))
                memo[k, symbol] = result
                stack.pop()
        return result ^ (r & 1)

    def step(self, residual: int, symbol: str, ticks: int) -> int:
        """The residual after one more event, reading ``symbol`` ``ticks``
        ticks after the previous event."""
        memo = self._steps
        result = memo.get((residual >> 1, symbol, ticks))
        if result is None:
            if ticks < 0:
                raise ValueError("timestamps must be non-decreasing")
            nodes = self._nodes
            # a frame is a node and the steps of its operands so far, so a
            # conjunction's scan resumes at operand len(values)
            stack = [(residual >> 1, [])]
            while stack:
                k, values = stack[-1]
                if k == 0:
                    result = 0
                elif k == 1:
                    result = self.now(self.program.root, symbol)
                elif nodes[k][0] == _AND:  # operands in order, up to a false one
                    parts = nodes[k][1]
                    for i in range(len(values), len(parts)):
                        value = memo.get((parts[i] >> 1, symbol, ticks))
                        if value is None:
                            break
                        value ^= parts[i] & 1
                        values.append(value)
                        if not value:
                            break
                    if value is None:
                        stack.append((parts[i] >> 1, []))
                        continue
                    result = self._and(values) if value else 0
                else:
                    result = self._advance(nodes[k], symbol, ticks * self._factor)
                memo[k, symbol, ticks] = result
                stack.pop()
        return result ^ (residual & 1)

    def _advance(self, node: tuple, symbol: str, delay: int) -> int:
        """An obligation after an event ``delay`` later on the integer scale:
        ``a U b`` is (the event is in the window and b holds there) or (a holds
        there and ``a U b``, its window shifted, holds from there)."""
        _, k, lo, lo_closed, hi, hi_closed = node
        if hi is not None and (delay > hi or (delay == hi and not hi_closed)):
            return 0  # the window has passed
        _, a, b, _ = self.program.ops[k]
        witness = self.now(b, symbol) if delay > lo or (delay == lo and lo_closed) else 0
        if witness == 1:
            return 1
        left = self.now(a, symbol)
        if left == 0:
            return witness
        # a lower bound below 0 is [0, as later events come no earlier
        shifted = (max(lo - delay, 0), lo_closed or delay > lo, None if hi is None else hi - delay, hi_closed)
        between = self._and((left, self._intern((_UNTIL, k, *shifted))))
        return between if witness == 0 else self._and((witness ^ 1, between ^ 1)) ^ 1  # witness | between


def eval_at(word: TimedWord, position: int, formula: Union[Formula, Program]) -> bool:
    """Truth of ``formula`` at a 1-based position of ``word``."""
    if not 1 <= position <= len(word):
        raise IndexError(f"position {position} out of range 1..{len(word)}")
    program = compile_formula(formula)
    return _value(program, _evaluator(word, program), position - 1)


def satisfies(word: TimedWord, formula: Union[Formula, Program]) -> bool:
    """Whether the word satisfies the formula (evaluation at position 1)."""
    return eval_at(word, 1, formula)
