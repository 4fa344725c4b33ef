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
is its answer at the first one.  One evaluator computes a row per op over
the word's exact integer view (:attr:`TimedWord.ticks`): an int whose bit i
is the truth at the position with index i, so a conjunction is one ``&``, a
negation one xor with the row of every position, and a next one shift and
mask.  An until's window is the tick range of :meth:`Interval.ticks` on the
word's scale.  Its ends come from endpoint lists shared by the intervals:
the first position at or past each time plus a shift, found once per word
and shift by one pointer moving forward over the sorted ticks.  An until
walks the set bits of its right operand (Maler & Nickovic, FORMATS/FTRTFT
2004): each witness marks the earlier positions whose window holds it and
from which the left operand holds up to it.  Rows fill in op index order,
and a position's verdict is its bit of the root's row.  Results are
checked against a naive evaluator of the ASTs in the tests.

A search that extends prefixes one event at a time uses formula
progression instead (Bacchus & Kabanza, AIJ 2000; Thati & Rosu, RV 2004).
A :class:`Progression` reads a word of the search's grid ticks, counts its
windows in those ticks, and rewrites the formula after each event into its
residual: negated and plain conjunctions of pending until obligations, each
with its tick range shifted to the last event.  A residual is a signed
reference to a hash-consed node, as a program child is one, so a negation
costs no node and each step is memoized once for a residual and its
negation.  A step settles before it builds.  It scans a conjunction's
operands, looking each up once: an obligation is settled by the event
alone (its window has passed, its witness holds, or its left operand is
false) or marked pending, and the scan stops at the first false operand
having built nothing.  A conjunction's scan starts at the operand that
falsified its last falsified step and wraps round, as sibling steps of one
residual are mostly falsified by one obligation (the last-conflict
heuristic of Lecoutre, Sais, Tabary & Vidal, ECAI 2006); a step's value,
and the marks of a scan that finds no false operand, do not depend on
where it starts.  Only a step that no operand falsifies builds the shifted
windows of its pending obligations and its conjunction, so a pruned child
costs no node and a node costs work linear in its width.  A delay
that passes every bounded window and reaches into every unbounded one steps
every node alike, so the step tables are keyed by the delay capped at the
shortest such delay.  The engine is a lazily built automaton whose states
can key a memo of search subtrees.  A residual is constant exactly when the
three-valued (Kleene) evaluation of the prefix, with every pending
obligation unknown, is decided.  Pruning on a false residual is sound because a decided value
keeps it on every extension by events at or after the last timestamp.
With its pending obligations closed, a residual is the verdict of a word
that ends there, so the batch evaluator stays off the search path as the
independent checker.  The tests hold progression to a Kleene evaluation
of prefixes, and the batch evaluator to the same evaluation of closed
words, on random formulas and words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable, NamedTuple, Optional, Union

from .timedwords import RationalLike, TimedWord, rat, tick_range


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

    def ticks(self, rate: Union[int, Fraction]) -> tuple[int, Optional[int]]:
        """The interval's inclusive tick range, by :func:`timedwords.tick_range`."""
        return tick_range(self.lower, self.lower_closed, self.upper, self.upper_closed, rate)


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
    negated if ``root`` is odd.  Every op's operands have lower indices than
    the op, so filling rows in index order meets each operand first."""

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
    order they are first built, so an op's operands, built before it, have
    lower indices."""

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


def _evaluator(word: TimedWord, program: Program):
    """Return ``row(r)``, the truth of reference r at every position of the
    word as an int whose bit i is set iff r holds at the position with index
    i.  Rows fill in op index order up to the op asked for, so every
    operand's row is there before its op's.  A conjunction's row is one
    ``&`` of its operands' rows, a negation's is its operand's row xor
    ``full`` (every bit set), the row of a U b where a holds nowhere (a
    next) is b's row shifted down one bit and masked by the positions whose
    successor lies in the window, and any other until's is the union of the
    positions that each of b's positions marks."""
    ops = program.ops
    events = word.events
    n = len(events)
    full = (1 << n) - 1
    flips = (0, full)  # xor a row with flips[r & 1] to read reference r
    scale, times = word.ticks  # exact integer times
    masks: dict[str, int] = {}  # symbol -> the row of its atom
    for i, (symbol, _) in enumerate(events):
        masks[symbol] = masks.get(symbol, 0) | 1 << i
    rows = [full]  # rows[k]: op k's row, filled in index order; op 0 is true
    windows: list = [None] * len(program.intervals)
    ends: dict[int, list[int]] = {}  # shift -> its endpoint list, shared by the intervals
    nexts: dict[int, int] = {}  # interval -> the positions whose successor is in their window

    def end(shift: int) -> list[int]:
        """The first position j with t_j >= t_i + shift for every i: bisect_left
        of each time plus the shift, found by one pointer moving forward over
        the sorted ticks."""
        if shift not in ends:
            padded = times + (times[-1] + shift,)  # a sentinel at or past every bound
            found = []
            j = 0
            for t in times:
                bound = t + shift
                while padded[j] < bound:
                    j += 1
                found.append(j)
            ends[shift] = found
        return ends[shift]

    def window(iv: int) -> tuple[list[int], list[int]]:
        """first[j]:stop[j] are the positions i < j with t_j - t_i in lo..hi:
        those whose window holds j.  Both never decrease with j."""
        lo, hi = program.intervals[iv].ticks(scale)
        first = [0] * n if hi is None else end(-hi)
        stop = end(1 - lo) if lo > 0 else range(n)
        windows[iv] = (first, stop)
        return windows[iv]

    def until(x: int, y: int, iv: int) -> int:
        """The row of a U b from the rows x of a and y of b: the union, over
        b's positions j, of the positions i whose window holds j and from
        which a holds strictly between i and j."""
        if y == 0:
            return 0
        first, stop = windows[iv] or window(iv)
        if x == 0:  # only the next position can be the witness
            if iv not in nexts:  # bit j - 1: position j - 1's window holds j
                nexts[iv] = sum([1 << j - 1 for j in range(1, n) if first[j] < j <= stop[j]])
            return y >> 1 & nexts[iv]
        if x == full and first[-1] == 0:  # every window reaches back to the start
            return (1 << stop[y.bit_length() - 1]) - 1
        gaps = x ^ full  # the positions where a is false
        marked = 0
        while y:
            low = y & -y
            y ^= low
            j = low.bit_length() - 1
            # i must not lie below the last gap before j
            i = max(first[j], (gaps & (low - 1)).bit_length() - 1) if gaps else first[j]
            if i < stop[j]:
                marked |= (1 << stop[j]) - (1 << i)
        return marked

    def row(r: int) -> int:
        k = r >> 1
        for kind, a, b, iv in ops[len(rows) : k + 1]:
            if kind == _ATOM:
                rows.append(masks.get(a, 0))
            else:
                x = rows[a >> 1] ^ flips[a & 1]
                y = rows[b >> 1] ^ flips[b & 1]
                rows.append(x & y if kind == _AND else until(x, y, iv))
        return rows[k] ^ flips[r & 1]

    return row


# -- formula progression ---------------------------------------------------------
#
# A residual is a signed reference to a hash-consed node, as a program child
# is one: 2k is node k and 2k + 1 its negation.  Node 0 is false, so 0 is false
# and 1 true, and node 1 is the formula before the first event, so 2 is the
# start.  Every other node is a conjunction (_AND, references), flattened,
# deduplicated and sorted, or an obligation (_UNTIL, k, lo, hi): the until of
# op k from the last event, whose witness lies lo to hi grid ticks (hi None if
# unbounded) after that event.  A disjunction is the negated conjunction of
# the negated operands.  Only constants are absorbed, which keeps a residual
# constant exactly when the Kleene value of the prefix is decided.
#
# A step settles before it builds.  An obligation is settled when the event
# alone gives its residual: its window has passed (false), its witness holds
# (true), or its left operand is false (the witness).  Otherwise it is
# pending: the until goes on, so its residual is no constant, and only its
# shifted window and a conjunction are left to build.  A conjunction is
# pending when no operand is false and some operand is undecided.  A step
# table holds _PENDING for a pending node until a step that needs its
# residual builds it; a step never returns the mark.

_START = 2
_PENDING = -1


class Progression:
    """Formula progression over words of integer ticks, an event's time
    being ``tick * unit``, with windows counted in those ticks by
    :meth:`Interval.ticks`.  The residual of a prefix is what the events
    after it must satisfy for the whole word to satisfy the formula at its
    first position.  ``step(residual, symbol, ticks)`` is the residual after
    one more event, ``ticks`` ticks after the previous one; ``start`` is the
    residual of the empty word.  ``accepts(residual)`` is whether a word
    that ends there satisfies the formula, as :func:`satisfies` would say.

    A residual is false (0) or true (1) exactly when the Kleene evaluation
    of the prefix, every pending obligation unknown, is; no extension of a
    prefix with a false residual satisfies the formula.  Equal residuals are
    one id, and ``r ^ 1`` is the negation of residual r, as it is of a
    program reference: :meth:`now`, :meth:`step` and :meth:`accepts` flip
    with it.  :meth:`now` is memoized per op and :meth:`step` per node, so
    the engine builds the automaton of the formula's residuals lazily, as a
    search visits it.

    The memos are split by what a call holds fixed: ``_now`` maps a symbol
    to a table ``{op: residual}`` and ``_steps`` maps ``(symbol, ticks)`` to
    a table ``{node: residual}``, so a call fetches its table once and keys
    every lookup in it, its operands' included, by an int.  A shift never
    widens a window, so every delay of at least ``_cap`` (the largest, over
    the windows, of a bounded window's last tick plus one and an unbounded
    window's first tick) steps every node as ``_cap`` does: ``step`` caps
    ``ticks`` there before it looks its table up.  The memos' size is the
    number of inner entries, one per (op, symbol) and per (node, symbol,
    capped ticks) reached.  A step table entry may also be the pending mark
    ``_PENDING``: :meth:`_decide` settles a node's operands without
    building, from the operand that falsified the node's last falsified
    step (``_falsifier``) round to the one before it, and marks each
    undecided one, and :meth:`_build` turns the marks that a result needs,
    in operand order, into residuals.  A mark is a cache entry like
    any other: later steps in the table read it instead of settling again,
    and a cap on the tables may drop it, to be settled again when needed.
    """

    start = _START

    def __init__(self, formula: Union[Formula, Program], unit: RationalLike):
        unit = rat(unit)
        if unit <= 0:
            raise ValueError("the time unit must be positive")
        self.program = program = compile_formula(formula)
        self._windows = [iv.ticks(1 / unit) for iv in program.intervals]  # in grid ticks
        # a delay of _cap ticks passes every bounded window and reaches into
        # every unbounded one, as any longer delay does
        self._cap = max((lo if hi is None else hi + 1 for lo, hi in self._windows), default=0)
        self._nodes: list = [None, None]  # false and the start have no operands
        self._accepts: list[bool] = [False, False]  # the empty word has no first position
        self._ids: dict[tuple, int] = {}
        self._now: dict[str, dict[int, int]] = {}  # symbol -> {op: residual}
        self._steps: dict[tuple, dict[int, int]] = {}  # (symbol, ticks) -> {node: residual or mark}
        self._falsifier: dict[int, int] = {}  # conjunction -> the operand that falsified its last falsified step

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
        memo = self._now.get(symbol)
        if memo is None:
            memo = self._now[symbol] = {}
        result = memo.get(r >> 1)
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
                    x = memo.get(a >> 1)
                    if x is None:
                        stack.append(a >> 1)
                        continue
                    result = x ^ (a & 1)
                    if result:  # the left operand does not decide
                        y = memo.get(b >> 1)
                        if y is None:
                            stack.append(b >> 1)
                            continue
                        result = self._and((result, y ^ (b & 1)))
                memo[k] = result
                stack.pop()
        return result ^ (r & 1)

    def step(self, residual: int, symbol: str, ticks: int) -> int:
        """The residual after one more event, reading ``symbol`` ``ticks``
        ticks after the previous event."""
        ticks = min(ticks, self._cap)  # every longer delay steps every node alike
        memo = self._steps.get((symbol, ticks))
        if memo is None:
            if ticks < 0:
                raise ValueError("timestamps must be non-decreasing")
            memo = self._steps[symbol, ticks] = {}
        k = residual >> 1
        result = memo.get(k)
        if result is None or result == _PENDING:
            if k < 2:  # false, or the start
                result = memo[k] = self.now(self.program.root, symbol) if k else 0
            elif self._nodes[k][0] == _UNTIL:  # settled and built at once
                result = memo[k] = self._advance(self._nodes[k], symbol, ticks)
            else:
                if result is None:
                    result = self._decide(k, memo, symbol, ticks)
                if result == _PENDING:
                    result = self._build(k, memo, symbol, ticks)
        return result ^ (residual & 1)

    def _decide(self, k: int, memo: dict, symbol: str, ticks: int) -> int:
        """Conjunction k's step if the event decides it, else ``_PENDING``,
        settling operands up to a false one and building nothing; every node
        it visits gets its value or mark in ``memo``.  A conjunction's scan
        starts at the operand that falsified its last falsified step and
        wraps round, as sibling steps are mostly falsified by one operand."""
        nodes = self._nodes
        falsifier = self._falsifier
        # a frame is a node, its next operand and whether an earlier operand
        # is undecided, so a conjunction's scan resumes where it stopped;
        # operand i is parts[i - n], so i runs from the node's falsifier h to h + n
        stack = [(k, falsifier.get(k, 0), False)]
        while stack:
            k, i, undecided = stack.pop()
            parts = nodes[k][1]
            n = len(parts)
            result = _PENDING if undecided else 1
            for i in range(i, falsifier.get(k, 0) + n):
                r = parts[i - n]
                j = r >> 1
                value = memo.get(j)
                if value is None:
                    if nodes[j][0] == _AND:
                        break
                    value = memo[j] = self._settle(nodes[j], symbol, ticks)
                if value != _PENDING:
                    value ^= r & 1
                    if value == 0:
                        result = 0
                        falsifier[k] = i % n
                        break
                    if value == 1:
                        continue
                result = _PENDING  # an undecided operand
            if value is None:
                stack += ((k, i, result == _PENDING), (j, falsifier.get(j, 0), False))
                continue
            memo[k] = result
        return result

    def _build(self, k: int, memo: dict, symbol: str, ticks: int) -> int:
        """Conjunction k's step once :meth:`_decide` has marked it pending:
        its pending operands are built in order, operands first."""
        nodes = self._nodes
        stack = [(k, [])]  # a node and the steps of its operands so far
        while stack:
            k, values = stack[-1]
            parts = nodes[k][1]
            for i in range(len(values), len(parts)):
                j = parts[i] >> 1
                value = memo[j]
                if value == _PENDING:
                    if nodes[j][0] == _AND:
                        break
                    value = memo[j] = self._advance(nodes[j], symbol, ticks)
                values.append(value ^ (parts[i] & 1))
            if len(values) < len(parts):
                stack.append((j, []))
                continue
            result = memo[k] = self._and(values)
            stack.pop()
        return result

    def _settle(self, node: tuple, symbol: str, delay: int) -> int:
        """An obligation's residual after an event ``delay`` ticks later if
        the event decides it without building, else ``_PENDING``: the
        window has passed (false), the witness holds (true), or the left
        operand is false (the witness).  This is :meth:`_advance` up to
        where it builds, so a pending obligation's residual is no constant."""
        _, k, lo, hi = node
        if hi is not None and delay > hi:
            return 0
        _, a, b, _ = self.program.ops[k]
        witness = self.now(b, symbol) if delay >= lo else 0
        # a constant left operand, true (F, G) or false (X), needs no lookup
        if witness == 1 or a == 1 or a > 1 and self.now(a, symbol) == 0:
            return witness
        return _PENDING

    def _advance(self, node: tuple, symbol: str, delay: int) -> int:
        """An obligation after an event ``delay`` ticks later: ``a U b`` is
        (the delay is in lo..hi and b holds there) or (a holds there and
        ``a U b``, its window shifted by the delay, holds from there)."""
        _, k, lo, hi = node
        if hi is not None and delay > hi:
            return 0  # the window has passed
        _, a, b, _ = self.program.ops[k]
        witness = self.now(b, symbol) if delay >= lo else 0
        if witness == 1:
            return 1
        left = a ^ 1 if a < 2 else self.now(a, symbol)
        if left == 0:
            return witness
        # a lower bound below 0 is 0, as later events come no earlier
        shifted = (_UNTIL, k, max(lo - delay, 0), None if hi is None else hi - delay)
        between = self._and((left, self._intern(shifted)))
        return between if witness == 0 else self._and((witness ^ 1, between ^ 1)) ^ 1  # witness | between


def eval_at(word: TimedWord, position: int, formula: Union[Formula, Program]) -> bool:
    """Truth of ``formula`` at a 1-based position of ``word``: that
    position's bit of the root's row."""
    if not 1 <= position <= len(word):
        raise IndexError(f"position {position} out of range 1..{len(word)}")
    program = compile_formula(formula)
    return _evaluator(word, program)(program.root) >> position - 1 & 1 == 1


def satisfies(word: TimedWord, formula: Union[Formula, Program]) -> bool:
    """Whether the word satisfies the formula (evaluation at position 1)."""
    return eval_at(word, 1, formula)
