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
(Henzinger, Manna & Pnueli, "What good are digital clocks?", ICALP 1992)
by the tick rule that MTL windows use, :func:`timedwords.tick_range`.
Its frontier states hold each clock's age (ticks since its reset) capped
above the largest guard bound, the classic max-constant extrapolation: every
age from the cap on passes the same guards, so a delay past the cap moves a
frontier as the cap does, and each walk works out a frontier's successors
once per (frontier, capped delay, events left).  A formula residual along
each prefix prunes it, decides each accepted word (plain enumeration is the
search for ``true``) and, with that frontier as it is, keys a memo of
subtrees that yielded nothing.  A subtree that reached no word also covers
its later, deeper copies: the same frontier and residual with no more time
and no more events left reach no word either (the antichains of De Wulf,
Doyen, Henzinger & Raskin, CAV 2006).  Open subtrees sit on an explicit
stack, so a word may be longer than the recursion limit.  The search shares
no guard code with :func:`membership`, which re-checks the words it finds.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import eq, ge, gt, le, lt
from typing import Iterator, Mapping, Optional, Union

from .mtl import TRUE, Progression
from .timedwords import TimedWord, rat, tick_range

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
        for field, names, distinct in (
            ("alphabet", self.alphabet, alphabet),
            ("locations", self.locations, locations),
            ("clocks", self.clocks, clocks),
            ("parameters", self.parameters, parameters),
        ):
            if len(distinct) != len(names):
                twice = sorted({name for name in names if names.count(name) > 1})
                raise ValueError(f"declared twice in {field}: {', '.join(twice)}")
        if clocks & parameters:  # constraint_feasible unifies variables by name
            raise ValueError(f"declared both as clock and parameter: {', '.join(sorted(clocks & parameters))}")
        if not self.initial <= locations:
            raise ValueError("initial locations must be declared locations")
        if not self.final <= locations:
            raise ValueError("final locations must be declared locations")
        for edge in self.edges:
            # named by its source, symbol and target, and the names listed
            # sorted, so that no message follows the hash seed
            name = f"edge {edge.source} {edge.symbol} {edge.target}"
            if edge.source not in locations or edge.target not in locations:
                undeclared = {edge.source, edge.target} - locations
                raise ValueError(f"{name}: endpoints undeclared: {', '.join(sorted(undeclared))}")
            if edge.symbol not in alphabet:
                raise ValueError(f"{name}: symbol undeclared: {edge.symbol}")
            if not edge.resets <= clocks:
                raise ValueError(f"{name}: resets undeclared clocks: {', '.join(sorted(edge.resets - clocks))}")
            for atom in edge.guard.atoms:
                if atom.clock not in clocks:
                    raise ValueError(f"{name}: guard uses undeclared clock {atom.clock!r}")
                if isinstance(atom.bound, str) and atom.bound not in parameters:
                    raise ValueError(f"{name}: guard uses undeclared parameter {atom.bound!r}")

    @cached_property
    def edge_index(self) -> dict[tuple[str, str], tuple[Edge, ...]]:
        """The edges grouped by (source, symbol), each group in declaration order."""
        index: dict[tuple[str, str], list[Edge]] = {}
        for edge in self.edges:
            index.setdefault((edge.source, edge.symbol), []).append(edge)
        return {key: tuple(group) for key, group in index.items()}

    @cached_property
    def guard_index(self) -> dict[ClockConstraint, tuple[tuple[str, str, str, tuple[int, ...]], ...]]:
        """Each distinct guard once, in order of first use, with the edges
        that carry it in declaration order as (source, symbol, target, the
        indices of the clocks reset): :func:`iter_accepted` compiles each
        key once per walk.  An edge into a location that reaches no final
        one is left out, as no search takes it; its guard stays a key."""
        live = self.min_events_to_final
        index: dict[ClockConstraint, list] = {}
        for edge in self.edges:
            group = index.setdefault(edge.guard, [])
            if edge.target in live:
                resets = tuple(i for i, clock in enumerate(self.clocks) if clock in edge.resets)
                group.append((edge.source, edge.symbol, edge.target, resets))
        return {guard: tuple(group) for guard, group in index.items()}

    @cached_property
    def min_events_to_final(self) -> dict[str, int]:
        """The fewest events from each location to a final one, ignoring
        guards, so a lower bound that is safe for pruning; a location that
        reaches no final one is absent.  Breadth first from the final
        locations over the edges reversed."""
        sources: dict[str, list[str]] = {}
        for edge in self.edges:
            sources.setdefault(edge.target, []).append(edge.source)
        queue = deque(sorted(self.final))
        bound = dict.fromkeys(queue, 0)
        while queue:
            location = queue.popleft()
            for source in sources.get(location, ()):
                if source not in bound:
                    bound[source] = bound[location] + 1
                    queue.append(source)
        return bound


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
        x, rel = atom.clock, atom.relation
        nodes.add(x)
        if isinstance(atom.bound, str):  # x ~ p is x - p ~ 0
            y, c = atom.bound, 0
            nodes.add(y)
        else:  # x ~ c is x - 0 ~ c
            y, c = ZERO, atom.bound
        if rel in ("<", "<=", "="):
            add(y, x, c, rel == "<")  # x - y <= c
        if rel in (">", ">=", "="):
            add(x, y, -c, rel == ">")  # y - x <= -c
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


# A guard compiled to ticks: checks (clock index, lo, hi), each bounding a
# clock's age in ticks, hi None when unbounded.
_Checks = tuple[tuple[int, int, Optional[int]], ...]


def _compile_guard(
    guard: ClockConstraint,
    clocks: tuple[str, ...],
    parameters: Mapping[str, Fraction],
    rate: Fraction,
) -> Optional[_Checks]:
    """The guard compiled to tick ranges at ``rate`` ticks to a time unit,
    or None when a clock's range holds no tick (an equality that pins it
    between two grid points, say).  An atom ``clock ~ bound`` allows the
    ages from 0 (``<``, ``<=``) or the bound up to the bound or, for ``>=``
    and ``>``, unbounded; only a strict relation opens its end."""
    ranges: dict[int, tuple[int, Optional[int]]] = {}
    for atom in guard.atoms:
        if isinstance(atom.bound, str):
            if atom.bound not in parameters:
                raise KeyError(f"undeclared parameter {atom.bound!r}")
            bound = rat(parameters[atom.bound])
        else:
            bound = atom.bound
        relation = atom.relation
        lo, hi = tick_range(
            0 if "<" in relation else bound, relation != ">",  # from 0, or from the bound
            None if ">" in relation else bound, relation != "<",  # up to the bound, or unbounded
            rate,
        )
        index = clocks.index(atom.clock)
        old_lo, old_hi = ranges.get(index, (0, None))
        lo = max(lo, old_lo)
        if old_hi is not None:
            hi = old_hi if hi is None else min(hi, old_hi)
        if hi is not None and lo > hi:
            return None
        ranges[index] = (lo, hi)
    return tuple(
        (index, lo, hi)
        for index, (lo, hi) in sorted(ranges.items())
        if lo > 0 or hi is not None
    )


@dataclass
class SearchStats:
    """What one :func:`iter_accepted` walk did, as ``mc-bounded --json``
    reports it: the accepted words reached, yielded or not, memo hits
    included; the prefixes (the empty one too) whose extensions were
    generated; and the prefixes a memo hit skipped, covered ones included."""

    words_checked: int = 0
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

    A subtree that yielded nothing is memoized under the frontier, the tick,
    the depth and the monitor state; when the key comes up again, its words
    are counted in ``stats.words_checked`` and the child is not entered.  A
    subtree that reached no word at all is kept instead as a minimal (tick,
    depth) pair of its (frontier, state), and covers every child with that
    frontier and state at a tick and a depth no smaller: such a child has
    a subset of its delay sequences (strictness only narrows them), so it
    reaches no word either and is skipped as a memo hit that adds none.
    This is sound whatever the caller does: a state must fix the steps and
    the verdicts of every extension, as a residual does.

    Time is counted in integer ticks of ``grid``: each distinct guard is
    compiled once per walk into integer ranges on a clock's age in ticks
    (see :func:`_compile_guard`), so no guard check here uses rational
    arithmetic, and a :class:`TimedWord` is built only for a yielded word.
    A frontier state is a location with each clock's age capped at one
    above the largest finite guard bound, so the memo key holds the
    frontier as it is.  A delay of cap ticks or more ages every state to
    the cap or resets it, so a table keyed by (frontier, delay capped at
    cap, events left) holds each frontier's successors, by symbol, for the
    rest of the walk; every child with the same key gets the same frontier
    object, whose hash and final flag are computed once.  A state is
    dropped once it cannot reach a final location, ignoring guards, within
    the events left, and no move leads into a location that reaches no
    final one at all.  :func:`membership` stays the exact reference.
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
    min_left = automaton.min_events_to_final
    finals = automaton.final
    clocks = automaton.clocks
    last_tick = horizon // grid
    rate = 1 / grid  # ticks to a time unit
    # a location's moves, (symbol, target, checks, the indices of the clocks
    # reset): each distinct guard is compiled once, and a location that
    # reaches no final one gets no move into it
    moves: dict[str, list] = {}
    cap = 1  # one above the largest finite bound of a move: all ages from cap on pass the same guards
    for guard, group in automaton.guard_index.items():
        checks = _compile_guard(guard, clocks, parameters, rate)
        if checks is None or not group:
            continue
        cap = max([cap] + [b + 1 for _, lo, hi in checks for b in (lo, hi) if b is not None])
        for source, symbol, target, resets in group:
            moves.setdefault(source, []).append((symbol, target, checks, resets))
    table: dict = {}  # (frontier, tick, depth, state) -> the words of a subtree that yielded none
    covers: dict = {}  # (frontier, state) -> the minimal (tick, depth) pairs of subtrees that reached no word
    steps: dict = {}  # the successor table: (frontier, capped delay, events left) -> successors

    def successors(frontier, delay, remaining):
        # the frontier's successors ``delay`` ticks later, as (symbol, frontier,
        # whether it holds a final location) triples sorted by symbol; a state
        # needing more events than remain is dropped: its successors need at
        # most one fewer, so they would be dropped a level down
        found: defaultdict[str, set] = defaultdict(set)
        final = set()  # the symbols with a move into a final location
        for location, ages in frontier:
            aged = tuple([min(age + delay, cap) for age in ages])
            for symbol, target, checks, resets in moves.get(location, ()):
                if min_left[target] > remaining:
                    continue
                for clock, lo, hi in checks:
                    age = ages[clock] + delay
                    if age < lo or (hi is not None and age > hi):
                        break
                else:
                    state = aged
                    if resets:
                        state = list(aged)
                        for clock in resets:
                            state[clock] = 0
                        state = tuple(state)
                    found[symbol].add((target, state))
                    if target in finals:
                        final.add(symbol)
        return tuple([(symbol, frozenset(found[symbol]), symbol in final) for symbol in sorted(found)])

    def children(prefix: tuple, key: tuple):
        # the subtrees below a prefix, (tick, symbol) ascending, each with its
        # memo key, skipping those whose residual is false and counting those
        # the memo holds or a word-free subtree covers
        frontier, tick, depth, state = key
        if depth == max_events:
            return
        stats.nodes_expanded += 1
        depth += 1  # the children's
        remaining = max_events - depth
        for t in range(tick + 1 if strict and depth > 1 else tick, last_tick + 1):
            delay = t - tick
            step = (frontier, min(delay, cap), remaining)  # all delays from cap on age every state alike
            found = steps.get(step)
            if found is None:
                found = steps[step] = successors(frontier, step[1], remaining)
            for symbol, targets, final in found:
                child = monitor.step(state, symbol, delay)
                if child:
                    below = (targets, t, depth, child)
                    known = table.get(below)
                    if known is not None:
                        stats.memo_hits += 1
                        stats.words_checked += known
                        continue
                    for u, d in covers.get((targets, child), ()):
                        if t >= u and depth >= d:  # a copy no later and no deeper reached no word
                            stats.memo_hits += 1
                            break
                    else:
                        yield prefix + ((symbol, t),), below, final

    # The open subtrees, root first, each with its memo key, the words
    # reached and yielded before it and its children: an explicit stack, so
    # that a word's length costs no Python recursion.
    root = (frozenset((loc, (0,) * len(clocks)) for loc in automaton.initial), 0, 0, monitor.start)
    stack: list[tuple] = [(root, stats.words_checked, 0, children((), root))]
    yielded = 0
    while stack:
        entering = next(stack[-1][3], None)
        if entering is None:  # the subtree is done; memoize it if it yielded nothing
            key, words_before, yielded_before, _ = stack.pop()
            if stats.words_checked > words_before:
                if yielded == yielded_before:
                    table[key] = stats.words_checked - words_before
            else:  # it covers every later, deeper copy, and drops the copies it covers
                frontier, tick, depth, state = key
                pairs = covers.setdefault((frontier, state), [])
                pairs[:] = [(u, d) for u, d in pairs if u < tick or d < depth]
                pairs.append((tick, depth))
            continue
        prefix, key, final = entering
        stack.append((key, stats.words_checked, yielded, children(prefix, key)))
        if final:
            stats.words_checked += 1
            if monitor.accepts(key[3]):
                yielded += 1
                yield TimedWord([(symbol, t * grid) for symbol, t in prefix])


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
