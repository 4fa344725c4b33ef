"""Metric temporal logic over finite timed words, pointwise semantics.

The until modality is strict: a witness position lies strictly after the
current one, and only positions strictly in between are constrained.  The
next modality is derivable from until precisely because of this strictness.

Formulas are immutable ASTs.  The core grammar is atoms, negation,
conjunction, and interval-constrained until; disjunction, implication, the
constants, next, eventually, and globally are kept as first-class nodes for
display and are eliminated by :func:`desugar`.

One engine evaluates them.  :func:`compile_formula` hash-conses a formula
into a post-order op array, keyed on integer child ids, so equal subformulas
share one op.  One evaluator computes a row of Kleene values per op over a
word whose timestamps are scaled to integers by their common denominator;
each interval modality reads its windows by binary search and prefix counts.
A closed word is a prefix with no future: :func:`satisfies` and the sound
pruning monitor :func:`prefix_may_satisfy` are the same evaluation, closed
or open-ended.  Results are checked against a naive evaluator in the tests.

A depth-first search asks about a prefix right after asking about its parent,
which differs by one event.  A :class:`Monitor` answers such calls
incrementally, on words of integer grid ticks.  Its :class:`MonitorState`
per prefix keeps the symbols, the times as integers on one scale fixed for
the whole search (so nothing is ever rescaled) and one row per op, built
lazily in an order computed once per op and monitor.  :func:`extend` makes
the child state: an atom gets one new entry, a boolean connective is
recomputed from its operands' rows, and a temporal op copies the parent's
row and re-evaluates only the entries that were unknown (1) there and the new
last position.  That rests on one invariant, which the tests check: an entry
the open-ended evaluation decides (0 or 2) on a prefix keeps its value on
every extension by events at or after the last timestamp, and in the closed
evaluation of the whole word.  It is the invariant that makes pruning sound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

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


def desugar(formula: Formula, alphabet: Iterable[str]) -> Formula:
    """Expand every derived connective into the core grammar.

    The result contains only Atom, Not, And, and Until nodes.  The constant
    ``true`` expands to ``p | !p`` where p is the lexicographically first
    alphabet symbol; any choice is semantically equal.
    """
    symbols = sorted(set(alphabet))
    if not symbols:
        raise ValueError("desugaring needs a non-empty alphabet")
    pivot = Atom(symbols[0])
    true_core = Not(And(Not(pivot), Not(Not(pivot))))  # p | !p, expanded
    false_core = Not(true_core)

    def expand(node: Formula, x: Formula, y: Formula) -> Formula:
        """The core form of ``node`` given the core forms of its operands."""
        cls = type(node)
        if cls is Atom:
            return node
        if cls is TrueConst:
            return true_core
        if cls is FalseConst:
            return false_core
        if cls is Not:
            return Not(x)
        if cls is Next:
            return Until(node.interval, false_core, x)
        if cls is Eventually:
            return Until(node.interval, true_core, x)
        if cls is Globally:
            return Not(Until(node.interval, true_core, Not(x)))
        if cls is And:
            return And(x, y)
        if cls is Or:
            return Not(And(Not(x), Not(y)))
        if cls is Implies:  # !x | y
            return Not(And(Not(Not(x)), Not(y)))
        return Until(node.interval, x, y)

    # Iterative post-order, so deep formulas do not exhaust the stack.  Equal
    # subformulas are expanded once, which keeps the result small to compile.
    done: dict[int, Formula] = {}  # id(node) -> core form; ``formula`` keeps the nodes alive
    made: dict[tuple, Formula] = {}  # (class, name or interval, operand core ids) -> core form
    stack = [formula]
    while stack:
        node = stack.pop()
        if id(node) in done:
            continue
        cls = type(node)
        x = y = None
        if cls is Atom:
            key = (cls, node.name)
        elif cls is TrueConst or cls is FalseConst:
            key = (cls,)
        elif cls in (Not, Next, Eventually, Globally):
            x = done.get(id(node.operand))
            if x is None:  # operand first
                stack += (node, node.operand)
                continue
            key = (cls, id(x)) if cls is Not else (cls, node.interval, id(x))
        elif cls in (And, Or, Implies, Until):
            x, y = done.get(id(node.left)), done.get(id(node.right))
            if x is None or y is None:  # operands first
                stack.append(node)
                if x is None:
                    stack.append(node.left)
                if y is None:
                    stack.append(node.right)
                continue
            key = (cls, node.interval, id(x), id(y)) if cls is Until else (cls, id(x), id(y))
        else:
            raise TypeError(f"unknown formula node {node!r}")
        result = made.get(key)
        if result is None:
            result = made[key] = expand(node, x, y)
        done[id(node)] = result
    return done[id(formula)]


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


def negate(program: Program) -> Program:
    """The program of the negated formula: ``compile_formula(Not(f))`` from
    ``compile_formula(f)`` without compiling ``f`` again.  The new root is
    larger than every subformula of ``f``, so its op is always new."""
    return Program(program.ops + ((_NOT, program.root, -1, -1),), program.intervals, len(program.ops))


# Values are 0 (false), 1 (unknown) and 2 (true): not = 2 - v, and = min,
# or = max.  On a prefix (``closed=False``) a modality whose window is still
# open at the last event is unknown unless the events present decide it, as
# events of any symbol may follow at or after the last timestamp.


def _connective(op: tuple, rows: list, symbols: list[str]) -> list[int]:
    """The row of an atom, a constant or a boolean connective, from the rows
    of its operands: one step for a whole word and for a monitor state (which
    extends an atom's row by one entry instead)."""
    kind, a, b, _ = op
    if kind == _ATOM:
        return [2 if symbol == a else 0 for symbol in symbols]
    if kind < _NOT:
        return [2 if kind == _TRUE else 0] * len(symbols)
    x = rows[a]
    if kind == _NOT:
        return [2 - v for v in x]
    if kind == _AND:
        return list(map(min, x, rows[b]))
    if kind == _OR:
        return list(map(max, x, rows[b]))
    return list(map(max, [2 - v for v in x], rows[b]))  # implies


def _order(ops: tuple, k: int, rows: Optional[list] = None) -> tuple[int, ...]:
    """Op k and every op its row depends on, children before parents: the
    order in which their rows are filled.  Given ``rows``, ops whose row is
    already there are left out, and so are their descendants."""
    needed, stack = set(), [k]
    while stack:
        j = stack.pop()
        if j not in needed and (rows is None or rows[j] is None):
            needed.add(j)
            kind, a, b, _ = ops[j]
            if kind >= _NOT:
                stack.append(a)
                if b >= 0:
                    stack.append(b)
    return tuple(sorted(needed))


def _fill(order: tuple[int, ...], rows: list, compute) -> list[int]:
    """The row of the last op in ``order`` (see :func:`_order`), computing
    first, with ``compute(j)``, every missing row it depends on."""
    for j in order:
        if rows[j] is None:
            rows[j] = compute(j)
    return rows[order[-1]]


def _evaluator(word: TimedWord, program: Program, closed: bool):
    """Return ``row(k)``, the values of op k at every position of the word."""
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
        """lo[i]:hi[i] are the positions j > i with t_j - t_i in the interval;
        hi[i] == n means the window is still open at the end of the word."""
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

    def until(weak: list[int], strict: list[int], right: list[int], iv: int) -> list[int]:
        """Some j in i's window has ``right`` true and ``left`` true strictly
        between i and j.  weak[k] / strict[k] is the first position >= k where
        ``left`` is not true / is false (n if none)."""
        lo, hi = window(iv)  # sure[k] / maybe[k]: right values true / not false before k
        sure = list(accumulate((v == 2 for v in right), initial=0))
        maybe = list(accumulate((v != 0 for v in right), initial=0))
        result = []
        for i in range(n):
            a, b = lo[i], hi[i]
            clear = weak[i + 1] + 1  # witnesses before ``clear`` have left true in between
            e = b if b < clear else clear
            if sure[e] > sure[a]:
                result.append(2)
            elif maybe[e] > maybe[a]:
                result.append(1)
            else:
                s = a if a > clear else clear
                f = strict[i + 1]
                e = b if b <= f else f + 1  # witnesses from ``s`` to ``e`` have no false in between
                open_future = not closed and b == n and f == n
                result.append(1 if open_future or (s < e and maybe[e] > maybe[s]) else 0)
        return result

    def reach(inner: list[int], iv: int, hit: int, miss: int) -> list[int]:
        """Eventually (hit 2, miss 0) or globally (hit 0, miss 2) over i's window."""
        lo, hi = window(iv)
        decided = list(accumulate((v == hit for v in inner), initial=0))
        doubtful = list(accumulate((v != miss for v in inner), initial=0))
        return [
            hit if decided[b] > decided[a]
            else 1 if doubtful[b] > doubtful[a] or (not closed and b == n)
            else miss
            for a, b in zip(lo, hi)
        ]  # fmt: skip

    def compute(k: int) -> list[int]:
        kind, a, b, iv = op = ops[k]
        if kind < _NEXT:
            return _connective(op, rows, symbols)
        x = rows[a]
        if kind == _UNTIL:
            weak, strict = [n] * (n + 1), [n] * (n + 1)
            for j in range(n - 1, -1, -1):
                weak[j] = j if x[j] != 2 else weak[j + 1]
                strict[j] = j if x[j] == 0 else strict[j + 1]
            return until(weak, strict, rows[b], iv)
        if kind == _NEXT:  # false U phi
            return until(every, every, x, iv)
        if kind == _EVENTUALLY:
            return reach(x, iv, 2, 0)
        return reach(x, iv, 0, 2)

    return lambda k: rows[k] if rows[k] is not None else _fill(_order(ops, k, rows), rows, compute)


def _value(program: Program, row) -> int:
    """Value at position 1, reading the rows of the temporal operators and
    atoms from ``row(k)``.  The connectives above them are evaluated at that
    position alone, left operand first, skipping the right operand once the
    left decides the result."""
    ops = program.ops
    stack = [(program.root, 0, 0)]  # (op, phase, left value)
    value = 0
    while stack:
        k, phase, left = stack.pop()
        kind, a, b, _ = ops[k]
        if phase == 0:
            if _NOT <= kind <= _IMPLIES:
                stack.append((k, 1, 0))
                stack.append((a, 0, 0))
            else:
                value = row(k)[0]
        elif kind == _NOT:
            value = 2 - value
        elif phase == 1:
            if kind == _IMPLIES:
                value = 2 - value  # a -> b is !a | b
            if value != (0 if kind == _AND else 2):
                stack.append((k, 2, value))
                stack.append((b, 0, 0))
        else:
            value = min(left, value) if kind == _AND else max(left, value)
    return value


# -- the incremental monitor ----------------------------------------------------


def _first(row: list[int], value: int, start: int) -> int:
    """The first position from ``start`` holding ``value``, or len(row)."""
    try:
        return row.index(value, start)
    except ValueError:
        return len(row)


class MonitorState:
    """The open-ended evaluation of a program on one prefix.

    Holds the prefix's symbols, its timestamps as integers over the fixed
    ``scale`` (the time ``t`` is ``t / scale``), and one row per op, equal
    to the from-scratch open-ended row.  Rows are built on demand from the
    parent prefix's row of the same op (see :func:`extend`).
    ``MonitorState(program, scale=s)`` is the empty word, whose rows are all
    empty; its extensions share its scale and its fill orders.
    """

    __slots__ = ("program", "scale", "orders", "parent", "symbols", "times", "rows")

    def __init__(
        self,
        program: Program,
        parent: Optional["MonitorState"] = None,
        symbols: Sequence[str] = (),
        times: Sequence[int] = (),
        scale: int = 1,
    ):
        self.program = program
        self.parent = parent
        self.symbols = symbols
        self.times = times
        root = parent is None
        self.scale = scale if root else parent.scale
        self.orders: list = [None] * len(program.ops) if root else parent.orders  # op k -> _order(ops, k)
        self.rows: list = [[] if root else None] * len(program.ops)

    def row(self, k: int) -> list[int]:
        """The values of op k at every position of the prefix."""
        if self.rows[k] is None:
            order = self.orders[k]
            if order is None:
                order = self.orders[k] = _order(self.program.ops, k)
            # ancestors missing this row get it first, top down, so each
            # state extends a parent row (the empty word has every row)
            chain, state = [], self
            while state.rows[k] is None:
                chain.append(state)
                state = state.parent
            for state in reversed(chain):
                _fill(order, state.rows, state._step)
        return self.rows[k]

    def _step(self, k: int) -> list[int]:
        """Row k from the parent's row k and this state's rows of op k's
        operands.  A temporal op re-evaluates only the parent's unknown
        entries and the new last position: a decided entry never changes
        when events are appended at or after the last timestamp."""
        kind, a, b, iv = op = self.program.ops[k]
        before = self.parent.rows[k]
        if kind == _ATOM:
            return before + [2 if self.symbols[-1] == a else 0]
        if kind < _NEXT:
            return _connective(op, self.rows, self.symbols)
        times = self.times
        n = len(times)
        interval = self.program.intervals[iv]
        low = interval.lower * self.scale
        start = bisect_left if interval.lower_closed else bisect_right
        high = None if interval.upper is None else interval.upper * self.scale
        end = bisect_right if interval.upper_closed else bisect_left
        x = self.rows[a]
        y = x if b < 0 else self.rows[b]  # the witness row of U and X
        row = before + [1]
        i = -1
        while i < n - 1:
            i = row.index(1, i + 1)  # the next unknown; the new last entry is one
            t = times[i]
            lo = start(times, t + low, i + 1)  # i's window is lo:hi, as in _evaluator
            hi = n if high is None else end(times, t + high, i + 1)
            if kind == _EVENTUALLY or kind == _GLOBALLY:
                inside = x[lo:hi]
                hit = 2 if kind == _EVENTUALLY else 0
                row[i] = hit if hit in inside else 1 if hi == n or 1 in inside else 2 - hit
                continue
            if kind == _NEXT:  # false U phi
                weak = strict = i + 1
            else:  # the first position after i where the left operand is not true / is false
                strict = _first(x, 0, i + 1)
                weak = min(strict, _first(x, 1, i + 1))
            if 2 in y[lo:min(hi, weak + 1)]:
                row[i] = 2
            elif (hi == n and strict == n) or any(y[lo:min(hi, strict + 1)]):
                row[i] = 1
            else:
                row[i] = 0
        return row


def extend(state: MonitorState, symbol: str, time: int) -> MonitorState:
    """The state of ``state``'s prefix followed by ``(symbol, time)``, with
    ``time`` an integer over the state's scale, at least the last one."""
    times = state.times
    if times and time < times[-1]:
        raise ValueError("timestamps must be non-decreasing")
    return MonitorState(state.program, state, [*state.symbols, symbol], [*times, time])


class Monitor:
    """The prefix monitor of one formula, incremental along a depth-first
    search.  A word is a sequence of ``(symbol, tick)`` pairs, an event's
    time being ``tick * unit``, held as ``tick * unit.numerator`` over the
    fixed scale ``unit.denominator``.  It keeps the states of every prefix
    of the last word it was given.  A word that extends one of them by one
    event extends that state and drops the deeper ones; any other word is
    evaluated again from the empty word, so answers never depend on the
    order of the calls."""

    def __init__(self, formula: Union[Formula, Program], unit: RationalLike):
        unit = rat(unit)
        if unit <= 0:
            raise ValueError("the monitor's time unit must be positive")
        self.program = compile_formula(formula)
        self._factor = unit.numerator
        self._word: tuple = ()  # the last word seen; _states[d] holds its first d events
        self._states = [MonitorState(self.program, scale=unit.denominator)]

    def state(self, word: Sequence[tuple[str, int]]) -> MonitorState:
        """The state of ``word``, built from the stored state of its parent
        prefix when there is one."""
        keep = len(word) - 1
        states = self._states
        # the search shares pairs between a word and its extensions, so this
        # comparison is by identity, element by element
        if keep >= len(states) or word[:keep] != self._word[:keep]:
            keep = 0
        del states[keep + 1 :]
        factor = self._factor
        for symbol, tick in word[keep:]:
            states.append(extend(states[-1], symbol, tick * factor))
        self._word = word
        return states[-1]


def eval_at(word: TimedWord, position: int, formula: Union[Formula, Program]) -> bool:
    """Truth of ``formula`` at a 1-based position of ``word``."""
    if not 1 <= position <= len(word):
        raise IndexError(f"position {position} out of range 1..{len(word)}")
    program = compile_formula(formula)
    return _evaluator(word, program, True)(program.root)[position - 1] == 2


def satisfies(word: TimedWord, formula: Union[Formula, Program]) -> bool:
    """Whether the word satisfies the formula (evaluation at position 1)."""
    program = compile_formula(formula)
    return _value(program, _evaluator(word, program, True)) == 2


def prefix_may_satisfy(word: Union[TimedWord, Sequence], formula: Union[Formula, Program, Monitor]) -> bool:
    """False only when no extension of the word can satisfy the formula.

    Extensions append events at timestamps at or after the word's last
    timestamp (lengths and horizons are not modelled, which only widens the
    future and keeps the answer sound for any bounded search).  A
    :class:`Monitor` gives the same answer incrementally, on a word of
    ``(symbol, tick)`` pairs on its unit; a formula or a program is
    evaluated from scratch on a :class:`TimedWord`, and is the reference.
    """
    if isinstance(formula, Monitor):
        return _value(formula.program, formula.state(word).row) != 0
    program = compile_formula(formula)
    return _value(program, _evaluator(word, program, False)) != 0
