"""Parametric timed automata with exact rational semantics.

Guards compare a single clock against a natural constant or a parameter.
A parameter valuation fixes the semantics; membership of a timed word is
decided by carrying a frontier of (location, per-clock last reset time)
pairs along the word (:func:`membership_trace`): at an event at time t a
clock reset at r holds t - r, so the frontier is a finite, exact stand-in
for every run on that prefix.  :func:`membership` evaluates every guard on
exact rationals and is the reference.

The grid-word search :func:`iter_accepted` counts time in integer ticks of
the grid instead: on a grid every clock value is a whole number of ticks,
so each guard reduces to an integer range check on elapsed ticks
(Henzinger, Manna & Pnueli, "What good are digital clocks?", ICALP 1992).
Its frontier states hold each clock's age (ticks since its reset) capped
above the largest guard bound, the classic max-constant extrapolation: every
age from the cap on passes the same guards.  A formula residual along each
prefix prunes it, decides each accepted word (plain enumeration is the search
for ``true``) and, with that frontier as it is, keys a memo of subtrees that
yielded nothing.  Open subtrees sit on an explicit stack, so a word may be
longer than the recursion limit.  The search shares no guard code with
:func:`membership`, which re-checks the words it finds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor
from operator import eq, ge, gt, le, lt
from typing import Iterator, Mapping, Optional, Union

from .mtl import TRUE, Progression
from .timedwords import TimedWord, rat

Bound = Union[int, str]  # a natural constant or a parameter name

_RELATIONS = {"<": lt, "<=": le, "=": eq, ">=": ge, ">": gt}


@dataclass(frozen=True)
class ConstraintAtom:
    """A single comparison ``clock ~ bound``."""

    clock: str
    relation: str
    bound: Bound

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if isinstance(self.bound, int) and self.bound < 0:
            raise ValueError("constant bounds must be natural numbers")


@dataclass(frozen=True)
class ClockConstraint:
    """A conjunction of comparisons; the empty conjunction is true."""

    atoms: tuple[ConstraintAtom, ...] = ()

    @classmethod
    def of(cls, *triples: tuple[str, str, Bound]) -> "ClockConstraint":
        return cls(tuple(ConstraintAtom(c, r, b) for c, r, b in triples))

    def clocks(self) -> frozenset[str]:
        return frozenset(a.clock for a in self.atoms)

    def parameters(self) -> frozenset[str]:
        return frozenset(a.bound for a in self.atoms if isinstance(a.bound, str))


TRUE_GUARD = ClockConstraint()


@dataclass(frozen=True)
class Edge:
    source: str
    symbol: str
    guard: ClockConstraint
    resets: frozenset[str]
    target: str


@dataclass(frozen=True)
class Pta:
    """A parametric timed automaton."""

    alphabet: tuple[str, ...]
    locations: tuple[str, ...]
    initial: frozenset[str]
    clocks: tuple[str, ...]
    parameters: tuple[str, ...]
    edges: tuple[Edge, ...]
    final: frozenset[str]

    def __post_init__(self):
        locations = set(self.locations)
        alphabet = set(self.alphabet)
        clocks = set(self.clocks)
        parameters = set(self.parameters)
        if not self.initial <= locations:
            raise ValueError("initial locations must be declared locations")
        if not self.final <= locations:
            raise ValueError("final locations must be declared locations")
        for edge in self.edges:
            if edge.source not in locations or edge.target not in locations:
                raise ValueError(f"edge endpoints undeclared: {edge}")
            if edge.symbol not in alphabet:
                raise ValueError(f"edge symbol undeclared: {edge}")
            if not edge.resets <= clocks:
                raise ValueError(f"edge resets undeclared clocks: {edge}")
            for atom in edge.guard.atoms:
                if atom.clock not in clocks:
                    raise ValueError(f"guard uses undeclared clock {atom.clock!r}")
                if isinstance(atom.bound, str) and atom.bound not in parameters:
                    raise ValueError(f"guard uses undeclared parameter {atom.bound!r}")

    @cached_property
    def edge_index(self) -> dict[tuple[str, str], tuple[Edge, ...]]:
        """The edges grouped by (source, symbol), each group in declaration order."""
        index: dict[tuple[str, str], list[Edge]] = {}
        for edge in self.edges:
            index.setdefault((edge.source, edge.symbol), []).append(edge)
        return {key: tuple(group) for key, group in index.items()}


def constraint_sat(
    valuation: Mapping[str, Fraction],
    parameters: Mapping[str, Fraction],
    constraint: ClockConstraint,
) -> bool:
    """Whether the clock and parameter valuations satisfy the constraint.

    Raises KeyError when the constraint mentions an undeclared clock or
    parameter.
    """
    for atom in constraint.atoms:
        if atom.clock not in valuation:
            raise KeyError(f"undeclared clock {atom.clock!r}")
        value = valuation[atom.clock]
        if isinstance(atom.bound, str):
            if atom.bound not in parameters:
                raise KeyError(f"undeclared parameter {atom.bound!r}")
            bound = parameters[atom.bound]
        else:
            bound = Fraction(atom.bound)
        if not _RELATIONS[atom.relation](value, bound):
            return False
    return True


def _frontier_successors(
    automaton: Pta,
    parameters: Mapping[str, Fraction],
    frontier: frozenset[tuple[str, tuple[Fraction, ...]]],
    symbol: str,
    now: Fraction,
) -> frozenset[tuple[str, tuple[Fraction, ...]]]:
    clocks = automaton.clocks
    found = set()
    for location, resets in frontier:
        values = {clock: now - reset_at for clock, reset_at in zip(clocks, resets)}
        for edge in automaton.edge_index.get((location, symbol), ()):
            if constraint_sat(values, parameters, edge.guard):
                updated = tuple(
                    now if clock in edge.resets else reset_at
                    for clock, reset_at in zip(clocks, resets)
                )
                found.add((edge.target, updated))
    return frozenset(found)


def membership_trace(
    automaton: Pta,
    parameters: Mapping[str, Fraction],
    word: TimedWord,
) -> list[frozenset[tuple[str, tuple[Fraction, ...]]]]:
    """Reachable-state frontiers after each event of the word.

    Entry 0 is the initial frontier (all clocks reset at time 0); entry i is
    the frontier after the i-th event.
    """
    for symbol in word.symbols:
        if symbol not in automaton.alphabet:
            raise ValueError(f"symbol {symbol!r} not in the automaton's alphabet")
    zero = tuple(Fraction(0) for _ in automaton.clocks)
    frontier = frozenset((loc, zero) for loc in automaton.initial)
    trace = [frontier]
    for symbol, time in word:
        frontier = _frontier_successors(automaton, parameters, frontier, symbol, time)
        trace.append(frontier)
        if not frontier:
            break
    return trace


def membership(
    automaton: Pta,
    parameters: Mapping[str, Fraction],
    word: TimedWord,
) -> bool:
    """Whether some successful run of the automaton is associated with the word."""
    trace = membership_trace(automaton, parameters, word)
    if len(trace) != len(word) + 1:
        return False
    return any(location in automaton.final for location, _ in trace[-1])


def constraint_feasible(constraint: ClockConstraint) -> bool:
    """Whether some non-negative clock/parameter valuation satisfies the constraint.

    Decided exactly as a difference-constraint system over the variables
    (clocks, parameters, and a zero node) with strict/non-strict bookkeeping:
    the system is infeasible iff the constraint graph has a cycle of total
    weight below zero, or exactly zero containing a strict edge.  Strictness
    is folded into the weights lexicographically (each strict edge costs an
    infinitesimal), so both cycle kinds, and only they, keep the
    Bellman-Ford relaxation changing a distance in every round.  Guards
    define rational polyhedra, so feasibility over the rationals coincides
    with feasibility over the reals.
    """
    ZERO = object()
    nodes: set = {ZERO}
    # an edge (u, v, c, strict) encodes  v - u <= c  (or < c when strict)
    edges: list[tuple[object, object, Fraction, bool]] = []

    def add(u, v, c: int | Fraction, strict: bool):
        edges.append((u, v, Fraction(c), strict))

    # variables are unified by name: the same identifier on the clock side
    # and the bound side denotes one variable
    for atom in constraint.atoms:
        x = atom.clock
        nodes.add(x)
        if isinstance(atom.bound, str):
            p = atom.bound
            nodes.add(p)
            rel = atom.relation
            if rel in ("<", "<="):
                add(p, x, 0, rel == "<")  # x - p <= 0
            elif rel in (">", ">="):
                add(x, p, 0, rel == ">")  # p - x <= 0
            else:
                add(p, x, 0, False)
                add(x, p, 0, False)
        else:
            c = atom.bound
            rel = atom.relation
            if rel in ("<", "<="):
                add(ZERO, x, c, rel == "<")  # x - 0 <= c
            elif rel in (">", ">="):
                add(x, ZERO, -c, rel == ">")  # 0 - x <= -c
            else:
                add(ZERO, x, c, False)
                add(x, ZERO, -c, False)
    for node in nodes:
        if node is not ZERO:
            add(node, ZERO, 0, False)  # non-negativity: 0 - v <= 0

    # Bellman-Ford from an implicit super-source; a strict edge contributes
    # (c, -1), a non-strict one (c, 0), compared lexicographically.
    dist: dict = {node: (Fraction(0), 0) for node in nodes}
    weighted = [(u, v, (c, -1 if strict else 0)) for u, v, c, strict in edges]

    for _ in range(len(nodes)):
        changed = False
        for u, v, (c, eps) in weighted:
            du = dist[u]
            candidate = (du[0] + c, du[1] + eps)
            if candidate < dist[v]:
                dist[v] = candidate
                changed = True
        if not changed:
            return True
    return False  # relaxed in every one of len(nodes) rounds: a negative (or zero-strict) cycle


def is_deterministic(automaton: Pta) -> bool:
    """Single initial location, and no two same-source same-label edges with
    jointly satisfiable guards under any valuation."""
    if len(automaton.initial) != 1:
        return False
    for group in automaton.edge_index.values():
        for i, first in enumerate(group):
            for second in group[i + 1 :]:
                if constraint_feasible(ClockConstraint(first.guard.atoms + second.guard.atoms)):
                    return False
    return True


def _min_events_to_final(automaton: Pta) -> dict[str, int]:
    """Lower bound on events needed to reach a final location, ignoring guards.

    Safe for pruning: ignoring guards can only underestimate.
    """
    INF = len(automaton.locations) + 1
    bound = {loc: (0 if loc in automaton.final else INF) for loc in automaton.locations}
    queue = deque(sorted(automaton.final))
    while queue:
        location = queue.popleft()
        for edge in automaton.edges:
            if edge.target == location and bound[edge.source] > bound[location] + 1:
                bound[edge.source] = bound[location] + 1
                queue.append(edge.source)
    return bound


# A grid move out of a location: (symbol, target, checks, reset flags).  Each
# check (clock index, lo, hi) bounds a clock's age in ticks, hi None when
# unbounded; reset flags say which clocks the edge resets.
_Move = tuple[str, str, tuple[tuple[int, int, Optional[int]], ...], tuple[bool, ...]]


def _grid_move(
    edge: Edge,
    clocks: tuple[str, ...],
    parameters: Mapping[str, Fraction],
    grid: Fraction,
) -> Optional[_Move]:
    """The edge with its guard compiled to tick ranges on the grid, or None
    when an equality pins a clock between two grid points.

    A clock that has run d ticks holds the value d * grid, so with
    q = bound / grid the atom ``clock ~ bound`` holds iff ``d ~ q``, which
    for an integer d is: ``<`` d <= ceil(q) - 1, ``<=`` d <= floor(q),
    ``>=`` d >= ceil(q), ``>`` d >= floor(q) + 1, and ``=`` d == q when q is
    an integer, never otherwise.  Elapsed ticks are never negative, so lo
    starts at 0.
    """
    ranges: dict[int, tuple[int, Optional[int]]] = {}
    for atom in edge.guard.atoms:
        if isinstance(atom.bound, str):
            if atom.bound not in parameters:
                raise KeyError(f"undeclared parameter {atom.bound!r}")
            q = rat(parameters[atom.bound]) / grid
        else:
            q = atom.bound / grid
        lo, hi = 0, None
        if atom.relation == "<":
            hi = ceil(q) - 1
        elif atom.relation == "<=":
            hi = floor(q)
        elif atom.relation == ">=":
            lo = ceil(q)
        elif atom.relation == ">":
            lo = floor(q) + 1
        elif q.denominator == 1:
            lo = hi = q.numerator
        else:
            return None
        index = clocks.index(atom.clock)
        if index in ranges:
            old_lo, old_hi = ranges[index]
            lo = max(lo, old_lo)
            if old_hi is not None:
                hi = old_hi if hi is None else min(hi, old_hi)
        ranges[index] = (lo, hi)
    checks = tuple(
        (index, lo, hi)
        for index, (lo, hi) in sorted(ranges.items())
        if lo > 0 or hi is not None
    )
    return edge.symbol, edge.target, checks, tuple(clock in edge.resets for clock in clocks)


@dataclass
class SearchStats:
    """What one :func:`iter_accepted` walk did: the accepted words reached,
    yielded or not, memo hits included; the prefixes (the empty one too)
    whose extensions were generated; and the prefixes a memo hit skipped."""

    words: int = 0
    nodes_expanded: int = 0
    memo_hits: int = 0


def iter_accepted(
    automaton: Pta,
    parameters: Mapping[str, Fraction],
    grid: Fraction,
    horizon: Fraction,
    max_events: int,
    strict: bool = False,
    monitor=None,
    stats: Optional[SearchStats] = None,
) -> Iterator[TimedWord]:
    """Lazily yield every word that the automaton and the monitor accept,
    with timestamps on multiples of ``grid`` up to ``horizon`` and at most
    ``max_events`` events.

    Deterministic depth-first order: events are extended by (time, symbol)
    ascending.  With ``strict`` the search is limited to strictly monotonic
    words (repeated timestamps are skipped).  The ``monitor`` carries a
    state along each prefix: ``monitor.start`` for the empty word, and
    ``monitor.step(state, symbol, ticks)`` for the prefix extended by an
    event ``ticks`` ticks after the previous one (or time 0).  A false state
    skips the prefix and its subtree, and ``monitor.accepts(state)`` decides
    an accepted word.  The default is :class:`ptamtl.mtl.Progression` of
    ``true``, which accepts every word.

    A subtree that yielded nothing is memoized under the monitor state, the
    tick, the depth and the frontier; when the key comes up again, its words
    are counted in ``stats.words`` and skipped.  This is sound whatever the
    caller does: a state must fix the steps and the verdicts of every
    extension, as a residual does.

    Time is counted in integer ticks of ``grid``: each guard is compiled
    once per call into integer ranges on a clock's age in ticks (see
    :func:`_grid_move`), so no guard check here uses rational arithmetic,
    and a :class:`TimedWord` is built only for a yielded word.  A frontier
    state is a location with each clock's age capped at one above the
    largest finite guard bound, so the memo key holds the frontier as it
    is.  A state is dropped once it cannot reach a final location, ignoring
    guards, within the events left.  :func:`membership` stays the exact
    reference.
    """
    grid = rat(grid)
    horizon = rat(horizon)
    if grid <= 0:
        raise ValueError("grid must be positive")
    if monitor is None:
        monitor = Progression(TRUE, grid)
    if stats is None:
        stats = SearchStats()
    if max_events < 1:
        return
    min_left = _min_events_to_final(automaton)
    finals = automaton.final
    clocks = automaton.clocks
    last_tick = horizon // grid
    moves: dict[str, list[_Move]] = {}
    for edge in automaton.edges:
        move = _grid_move(edge, clocks, parameters, grid)
        if move is not None:
            moves.setdefault(edge.source, []).append(move)
    bounds = [b for group in moves.values() for _, _, checks, _ in group for _, lo, hi in checks for b in (lo, hi)]
    cap = max((b for b in bounds if b is not None), default=0) + 1  # all ages from cap on pass the same guards
    table: dict = {}

    def successors(frontier, delay, remaining):
        # the frontier's successors ``delay`` ticks later, grouped by symbol;
        # a state needing more events than remain is dropped: its successors
        # need at most one fewer, so they would be dropped a level down
        found: dict[str, set] = {}
        for location, ages in frontier:
            for symbol, target, checks, flags in moves.get(location, ()):
                if min_left[target] > remaining:
                    continue
                for clock, lo, hi in checks:
                    age = ages[clock] + delay
                    if age < lo or (hi is not None and age > hi):
                        break
                else:
                    aged = tuple(0 if f else min(a + delay, cap) for f, a in zip(flags, ages))
                    found.setdefault(symbol, set()).add((target, aged))
        return found

    def children(prefix: tuple, frontier: frozenset, state, tick: int):
        # the subtrees below a prefix, (tick, symbol) ascending, skipping those
        # whose residual is false
        depth = len(prefix)
        if depth == max_events:
            return
        stats.nodes_expanded += 1
        remaining = max_events - depth - 1
        for t in range(tick + 1 if strict and depth else tick, last_tick + 1):
            found = successors(frontier, t - tick, remaining)
            for symbol in sorted(found):
                child = monitor.step(state, symbol, t - tick)
                if child:
                    yield prefix + ((symbol, t),), frozenset(found[symbol]), child

    # The open subtrees, root first, each with its memo key, the words
    # reached and yielded before it and its children: an explicit stack, so
    # that a word's length costs no Python recursion.
    stack: list[tuple] = []
    yielded = 0
    entering = ((), frozenset((loc, (0,) * len(clocks)) for loc in automaton.initial), monitor.start)
    while True:
        if entering is not None:
            prefix, frontier, state = entering
            depth = len(prefix)
            tick = prefix[-1][1] if depth else 0
            key = (frontier, tick, depth, state)
            known = table.get(key)
            if known is not None:
                stats.memo_hits += 1
                stats.words += known
            else:
                stack.append((key, stats.words, yielded, children(prefix, frontier, state, tick)))
                if depth and any(loc in finals for loc, _ in frontier):
                    stats.words += 1
                    if monitor.accepts(state):
                        yielded += 1
                        yield TimedWord([(symbol, t * grid) for symbol, t in prefix])
        if not stack:
            return
        entering = next(stack[-1][3], None)
        if entering is None:  # the subtree is done; memoize it if it yielded nothing
            key, words_before, yielded_before, _ = stack.pop()
            if yielded == yielded_before:
                table[key] = stats.words - words_before


def enumerate_accepted(
    automaton: Pta,
    parameters: Mapping[str, Fraction],
    grid: Fraction,
    horizon: Fraction,
    max_events: int,
    strict: bool = False,
) -> frozenset[TimedWord]:
    """Exhaustively collect the accepted words within the given bounds."""
    return frozenset(iter_accepted(automaton, parameters, grid, horizon, max_events, strict))
