"""Independent oracles and generators used across the test suite.

The oracles here deliberately re-derive semantics from first principles and
share no code with the production paths they check.  The one exception is
the Kleene evaluator, the three-valued reference for prefixes: it reads the
library's compiled programs but evaluates them with its own code.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Union

from ptamtl.channel import ChannelMachine, Configuration, label_kind, subword
from ptamtl.mtl import (
    _AND,
    _ATOM,
    _TRUE,
    And,
    Atom,
    Eventually,
    FalseConst,
    Formula,
    Globally,
    Implies,
    Interval,
    Next,
    Not,
    Or,
    Program,
    TrueConst,
    Until,
    compile_formula,
)
from ptamtl.pta import ClockConstraint, ConstraintAtom, Edge, Pta, constraint_sat
from ptamtl.timedwords import TimedWord


# -- naive MTL reference evaluator --------------------------------------------


def interval_contains(interval: Interval, value: Fraction) -> bool:
    """Whether a time distance lies in the interval, read off its endpoints."""
    if interval.lower_closed:
        if value < interval.lower:
            return False
    elif value <= interval.lower:
        return False
    if interval.upper is None:
        return True
    if interval.upper_closed:
        return value <= interval.upper
    return value < interval.upper


def naive_eval(word: TimedWord, position: int, formula: Formula) -> bool:
    """Direct recursion over the satisfaction relation, no tables, no reuse.

    Positions are 1-based.  Derived connectives are evaluated through their
    defining expansions, spelled out independently of the production code.
    """
    n = len(word)
    i = position

    def t(j: int) -> Fraction:
        return word.time_at(j)

    if isinstance(formula, Atom):
        return word.symbol_at(i) == formula.name
    if isinstance(formula, TrueConst):
        return True
    if isinstance(formula, FalseConst):
        return False
    if isinstance(formula, Not):
        return not naive_eval(word, i, formula.operand)
    if isinstance(formula, And):
        return naive_eval(word, i, formula.left) and naive_eval(word, i, formula.right)
    if isinstance(formula, Or):
        return naive_eval(word, i, formula.left) or naive_eval(word, i, formula.right)
    if isinstance(formula, Implies):
        return (not naive_eval(word, i, formula.left)) or naive_eval(word, i, formula.right)
    if isinstance(formula, Until):
        for j in range(i + 1, n + 1):
            if interval_contains(formula.interval, t(j) - t(i)) and naive_eval(word, j, formula.right):
                if all(naive_eval(word, k, formula.left) for k in range(i + 1, j)):
                    return True
        return False
    if isinstance(formula, Next):
        # false U_I phi: the witness must be the immediate successor
        return (
            i + 1 <= n
            and interval_contains(formula.interval, t(i + 1) - t(i))
            and naive_eval(word, i + 1, formula.operand)
        )
    if isinstance(formula, Eventually):
        return any(
            interval_contains(formula.interval, t(j) - t(i)) and naive_eval(word, j, formula.operand)
            for j in range(i + 1, n + 1)
        )
    if isinstance(formula, Globally):
        return all(
            naive_eval(word, j, formula.operand)
            for j in range(i + 1, n + 1)
            if interval_contains(formula.interval, t(j) - t(i))
        )
    raise TypeError(f"unknown node {formula!r}")


# -- Kleene (three-valued) reference evaluator -------------------------------
#
# The library's batch evaluator decides closed words only; this one also
# evaluates prefixes.  It reads programs from compile_formula and is the
# reference for formula progression (a residual is 0 or 1 exactly when the
# open value is 0 or 2) and, on closed words, for the batch evaluator (a
# closed row holds no 1, and 2 is true).
#
# Values are 0 (false), 1 (unknown) and 2 (true): not = 2 - v, and = min,
# or = max.  On a prefix (``closed=False``) a modality whose window is still
# open at the last event is unknown unless the events present decide it, as
# events of any symbol may follow at or after the last timestamp.


def _order(ops: tuple, k: int, rows: list) -> tuple[int, ...]:
    """Op k and every op its row depends on whose row is still missing,
    children before parents: the order in which their rows are filled."""
    needed, stack = set(), [k]
    while stack:
        j = stack.pop()
        if j not in needed and rows[j] is None:
            needed.add(j)
            kind, a, b, _ = ops[j]
            if kind >= _AND:
                stack.append(a >> 1)
                stack.append(b >> 1)
    return tuple(sorted(needed))


def kleene_evaluator(word: TimedWord, program: Program, closed: bool):
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

    def until(x: list[int], right: list[int], iv: int) -> list[int]:
        """Some j in i's window has ``right`` true and ``x`` true strictly
        between i and j."""
        weak, strict = [n] * (n + 1), [n] * (n + 1)  # the first position >= k where x is not true / is false
        for j in range(n - 1, -1, -1):
            weak[j] = j if x[j] != 2 else weak[j + 1]
            strict[j] = j if x[j] == 0 else strict[j + 1]
        lo, hi = window(iv)  # sure[k] / maybe[k]: right values true / not false before k
        sure = list(accumulate((v == 2 for v in right), initial=0))
        maybe = list(accumulate((v != 0 for v in right), initial=0))
        result = []
        for i in range(n):
            a, b = lo[i], hi[i]
            clear = weak[i + 1] + 1  # witnesses before ``clear`` have x true in between
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

    def ref(r: int) -> list[int]:
        """The values of reference r: op r >> 1, negated if r is odd."""
        values = rows[r >> 1]
        return [2 - v for v in values] if r & 1 else values

    def compute(k: int) -> list[int]:
        kind, a, b, iv = ops[k]
        if kind == _ATOM:
            return [2 if symbol == a else 0 for symbol in symbols]
        if kind == _TRUE:
            return [2] * n
        if kind == _AND:
            return list(map(min, ref(a), ref(b)))
        return until(ref(a), ref(b), iv)

    def row(k: int) -> list[int]:
        if rows[k] is None:
            for j in _order(ops, k, rows):
                rows[j] = compute(j)
        return rows[k]

    return row


def kleene_value(program: Program, row) -> int:
    """Value at position 1, reading the rows of the untils and atoms from
    ``row(k)``.  The conjunctions above them are evaluated at that position
    alone, left operand first, skipping the right operand once the left
    decides the result."""
    ops = program.ops
    stack = [(program.root, 0, 0)]  # (reference, phase, left value)
    value = 0
    while stack:
        r, phase, left = stack.pop()
        kind, a, b, _ = ops[r >> 1]
        if kind != _AND:
            value = row(r >> 1)[0]
        elif phase == 0:
            stack.append((r, 1, 0))
            stack.append((a, 0, 0))
            continue
        elif phase == 1:
            if value != 0:
                stack.append((r, 2, value))
                stack.append((b, 0, 0))
                continue
        else:
            value = min(left, value)
        if r & 1:
            value = 2 - value
    return value


def prefix_may_satisfy(word: TimedWord, formula: Union[Formula, Program]) -> bool:
    """False only when no extension of the word can satisfy the formula.

    Extensions append events at timestamps at or after the word's last
    timestamp (lengths and horizons are not modelled, which only widens the
    future and keeps the answer sound for any bounded search).  It is
    evaluated from scratch and is the reference for :class:`Progression`,
    which gives the same answer one event at a time.
    """
    program = compile_formula(formula)
    return kleene_value(program, kleene_evaluator(word, program, False)) != 0


# -- brute-force oracle for the faulty channel step ---------------------------


def all_strings(messages, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(messages, repeat=length)


def insertion_step_oracle(
    machine: ChannelMachine,
    before: Configuration,
    label: str,
    after: Configuration,
    witness_len: int,
) -> bool:
    """Existential definition of the faulty step: some exact step between a
    channel superword of ``before`` and a subword of ``after``.

    ``witness_len`` bounds the enumerated witness channels; a bound of
    max(len(before), len(after)) + 1 is exhaustive for all three label kinds.
    """
    kind, message = label_kind(label)
    for source, lab, target in machine.transitions:
        if source != before.state or lab != label or target != after.state:
            continue
        for x in all_strings(machine.messages, witness_len):
            if kind == "send":
                x_prime = x + (message,)
            elif kind == "recv":
                if not x or x[0] != message:
                    continue
                x_prime = x[1:]
            else:
                if x != ():
                    continue
                x_prime = ()
            if subword(before.channel, x) and subword(x_prime, after.channel):
                return True
    return False


# -- grid oracle for guard feasibility ----------------------------------------


def grid_values(max_denominator: int, box: int) -> list[Fraction]:
    values = set()
    for den in range(1, max_denominator + 1):
        for num in range(0, box * den + 1):
            values.add(Fraction(num, den))
    return sorted(values)


def feasible_on_grid(constraint: ClockConstraint, max_denominator: int, box: int) -> bool:
    """Exhaustively search valuations with bounded denominators in [0, box]."""
    clocks = sorted(constraint.clocks())
    params = sorted(constraint.parameters())
    values = grid_values(max_denominator, box)
    for assignment in itertools.product(values, repeat=len(clocks) + len(params)):
        clock_vals = dict(zip(clocks, assignment[: len(clocks)]))
        param_vals = dict(zip(params, assignment[len(clocks) :]))
        if constraint_sat(clock_vals, param_vals, constraint):
            return True
    return False


# -- brute-force oracle for the grid-word search -------------------------------


def _run_states(automaton: Pta, parameters, events) -> set:
    """(location, clock values) pairs reachable along the events, clocks
    advanced by each delay, every edge scanned and every guard checked with
    constraint_sat."""
    clocks = automaton.clocks
    states = {(loc, tuple(Fraction(0) for _ in clocks)) for loc in automaton.initial}
    now = Fraction(0)
    for symbol, time in events:
        delay, now = time - now, time
        successors = set()
        for location, values in states:
            elapsed = {clock: value + delay for clock, value in zip(clocks, values)}
            for edge in automaton.edges:
                if edge.source != location or edge.symbol != symbol:
                    continue
                if constraint_sat(elapsed, parameters, edge.guard):
                    after = tuple(Fraction(0) if c in edge.resets else elapsed[c] for c in clocks)
                    successors.add((edge.target, after))
        states = successors
    return states


def _hops_to_final(automaton: Pta) -> dict:
    """Fewest edges from each location to a final one, ignoring guards
    (absent when unreachable), by repeated relaxation."""
    hops = {loc: 0 for loc in automaton.final}
    changed = True
    while changed:
        changed = False
        for edge in automaton.edges:
            if edge.target in hops and hops[edge.target] + 1 < hops.get(edge.source, len(automaton.locations) + 1):
                hops[edge.source] = hops[edge.target] + 1
                changed = True
    return hops


def brute_accepted(automaton: Pta, parameters, grid, horizon, max_events: int, strict=False, prefix_filter=None):
    """(accepted words, offered prefixes) of the grid-word search, both in
    depth-first (time, symbol) order.

    Every grid sequence extending an offered prefix that passed
    ``prefix_filter`` is simulated from scratch.  It is offered when its run
    has a location that can reach a final one, ignoring guards, within the
    events left; it is accepted when it is offered, passes the filter and
    its run can end in a final location.
    """
    times = []
    t = Fraction(0)
    while t <= horizon:
        times.append(t)
        t += grid
    symbols = sorted(automaton.alphabet)
    hops = _hops_to_final(automaton)
    accepted, offered = [], []

    def visit(events):
        states = _run_states(automaton, parameters, events)
        left = max_events - len(events)
        if not any(hops.get(loc, left + 1) <= left for loc, _ in states):
            return
        word = TimedWord(events)
        offered.append(word)
        if prefix_filter is not None and not prefix_filter(word):
            return
        if any(loc in automaton.final for loc, _ in states):
            accepted.append(word)
        for t in times:
            if left and (t > events[-1][1] or (t == events[-1][1] and not strict)):
                for symbol in symbols:
                    visit(events + ((symbol, t),))

    for t in times:
        for symbol in symbols:
            visit(((symbol, t),))
    return accepted, offered


def random_pta(rng: random.Random) -> Pta:
    """A small automaton over {a, b} with one or two clocks and parameter p:
    a path 0 -> 1 -> 2 to the final location 2 plus random edges, guards of
    0-2 atoms drawn from all five relations, and random resets."""
    clocks = ("x",) if rng.random() < 0.5 else ("x", "y")
    locations = ("0", "1", "2")
    relations = ["<", "<=", "=", ">=", ">"]

    def edge(source, target):
        atoms = tuple(
            ConstraintAtom(rng.choice(clocks), rng.choice(relations), rng.choice([0, 1, 2, "p", "p", "p"]))
            for _ in range(rng.choice([0, 1, 1, 2]))
        )
        resets = frozenset(c for c in clocks if rng.random() < 0.4)
        return Edge(source, rng.choice("ab"), ClockConstraint(atoms), resets, target)

    edges = [edge("0", "1"), edge("1", "2")]
    edges += [edge(rng.choice(locations), rng.choice(locations)) for _ in range(rng.randint(1, 4))]
    initial = frozenset({"0"}) if rng.random() < 0.7 else frozenset({"0", "1"})
    final = frozenset({"2"}) if rng.random() < 0.7 else frozenset({"1", "2"})
    return Pta(("a", "b"), locations, initial, clocks, ("p",), tuple(edges), final)


def random_machine(rng: random.Random) -> ChannelMachine:
    """A small channel machine over s0.. and m0..: 2-4 states, 1-2
    messages and 1-8 transitions in random order, repeats included; the
    target is its last state."""
    states = tuple(f"s{i}" for i in range(rng.randint(2, 4)))
    messages = tuple(f"m{i}" for i in range(rng.randint(1, 2)))
    labels = ChannelMachine(states, states[0], messages, ()).labels()
    transitions = tuple((rng.choice(states), rng.choice(labels), rng.choice(states)) for _ in range(rng.randint(1, 8)))
    return ChannelMachine(states, states[0], messages, transitions)


# -- random value generators (seeded, deterministic) ---------------------------

_INTERVALS = [
    Interval(0, None, True, False),
    Interval(0, None, False, False),
    Interval(0, 1, False, False),
    Interval(0, 1, True, False),
    Interval(1, 2, True, True),
    Interval(1, 2, False, False),
    Interval(1, 1, True, True),
    Interval(2, 2, True, True),
    Interval(0, 2, True, False),
    Interval(1, None, True, False),
]


def random_formula(rng: random.Random, alphabet, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.7:
            return Atom(rng.choice(alphabet))
        return TrueConst() if roll < 0.85 else FalseConst()
    kind = rng.choice(["not", "and", "or", "implies", "until", "next", "ev", "glob"])
    sub = depth - 1
    if kind == "not":
        return Not(random_formula(rng, alphabet, sub))
    interval = rng.choice(_INTERVALS)
    if kind == "and":
        return And(random_formula(rng, alphabet, sub), random_formula(rng, alphabet, sub))
    if kind == "or":
        return Or(random_formula(rng, alphabet, sub), random_formula(rng, alphabet, sub))
    if kind == "implies":
        return Implies(random_formula(rng, alphabet, sub), random_formula(rng, alphabet, sub))
    if kind == "until":
        return Until(interval, random_formula(rng, alphabet, sub), random_formula(rng, alphabet, sub))
    if kind == "next":
        return Next(interval, random_formula(rng, alphabet, sub))
    if kind == "ev":
        return Eventually(interval, random_formula(rng, alphabet, sub))
    return Globally(interval, random_formula(rng, alphabet, sub))


def random_word(rng: random.Random, alphabet, max_len: int) -> TimedWord:
    length = rng.randint(1, max_len)
    time = Fraction(0)
    events = []
    for _ in range(length):
        time += Fraction(rng.randint(0, 6), 4)  # zero steps allowed
        events.append((rng.choice(alphabet), time))
    return TimedWord(events)


# -- Fraction reference for the encoding checker's block decomposition -------


def fraction_decompose(word: TimedWord, machine: ChannelMachine):
    """The blocks of ``encoding.decompose``, or the DecodeStructureError it
    raises, found by comparing and subtracting the word's ``Fraction``
    timestamps directly; only the finished blocks turn their offsets into
    ticks, on a scale this reference computes from the denominators itself."""
    from ptamtl.encoding import HASH, STAR, ConfigBlock
    from ptamtl.errors import DecodeStructureError

    states = set(machine.states)
    display = set(machine.messages) | {HASH}
    labels = set(machine.labels())
    events = word.events

    def fail(index: int, reason: str):
        symbol, time = events[index]
        raise DecodeStructureError(f"event {index + 1} ({symbol}@{time}): {reason}")

    scale = lcm(*[time.denominator for _, time in events])

    def block(state, start, symbols, trailer):
        ticks = tuple((s, int(offset * scale)) for s, offset in symbols)
        return ConfigBlock(state, start, ticks, trailer, scale)

    blocks = []
    i = 0
    while True:
        symbol, start = events[i]
        if symbol not in states:
            fail(i, "expected a control-state symbol")
        close = start + 1
        i += 1
        symbols = []
        previous = Fraction(0)
        while i < len(events) and events[i][1] < close:
            s, t = events[i]
            offset = t - start
            if s not in display:
                fail(i, "only message or hash symbols may appear inside a block")
            if offset <= 0:
                fail(i, "display symbols must come strictly after the state symbol")
            if offset <= previous:
                fail(i, "display offsets must be strictly increasing")
            previous = offset
            symbols.append((s, offset))
            i += 1
        if i == len(events):
            fail(i - 1, "block is not closed by a label or the end marker")
        trailer, t = events[i]
        if t != close:
            fail(i, "expected the label or end marker exactly one unit after the state")
        if trailer == STAR:
            if i + 1 != len(events):
                fail(i + 1, "no event may follow the end marker")
            blocks.append(block(symbol, start, symbols, STAR))
            return blocks
        if trailer not in labels:
            fail(i, "expected a transition label or the end marker")
        blocks.append(block(symbol, start, symbols, trailer))
        i += 1
        if i == len(events):
            fail(i - 1, "a label must be followed by the next state symbol")
        if events[i][1] != close + 1:
            fail(i, "expected the next state symbol exactly two units after the previous")
        if events[i][0] not in states:
            fail(i, "expected a control-state symbol two units after the previous")


# -- differential corpus: encodings, insertion mutants, broken mutations -------


def build_corpus(machine, target, step_bound=8, channel_bound=3, seed=21, mutations_per_word=10):
    """Words for the formula/checker differential gate.

    Valid encodings of every bounded error-free computation (three layouts),
    injected-insertion mutants, and single-event mutations: timestamp
    perturbations, symbol swaps, and deletions.  Mutations that cannot form
    a timed word (order violations) are skipped.
    """
    from ptamtl.channel import enumerate_error_free, max_channel
    from ptamtl.encoding import EncodingLayout, decompose, default_layout, encode
    from ptamtl.reduction import insertion_mutants, machine_alphabet

    rng = random.Random(seed)
    corpus: list[TimedWord] = []
    encodings: list[TimedWord] = []
    for gamma in enumerate_error_free(machine, target, step_bound, channel_bound):
        width = max_channel(gamma)
        encodings.append(encode(machine, target, gamma, default_layout(width)))
        skewed = EncodingLayout(
            Fraction(1, 3),
            tuple(Fraction(2 * i + 1, 2 * width + 3) for i in range(width)),
        )
        encodings.append(encode(machine, target, gamma, skewed))
        crowded = EncodingLayout(
            Fraction(0),
            tuple(Fraction(3 * i + 2, 3 * width + 4) for i in range(width)),
        )
        encodings.append(encode(machine, target, gamma, crowded))
    corpus.extend(encodings)

    mutant_count = 0
    for word in encodings:
        if len(decompose(word, machine)) >= 2:
            mutants = insertion_mutants(word, machine, count=3)
            corpus.extend(mutants)
            mutant_count += len(mutants)

    alphabet = machine_alphabet(machine)
    shifts = [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 20), Fraction(-1, 20), Fraction(1)]
    for word in encodings:
        events = list(word.events)
        for _ in range(mutations_per_word):
            index = rng.randrange(len(events))
            kind = rng.choice(["time", "symbol", "delete"])
            if kind == "time":
                symbol, time = events[index]
                moved = time + rng.choice(shifts)
                lower = events[index - 1][1] if index > 0 else Fraction(0)
                upper = events[index + 1][1] if index + 1 < len(events) else None
                if moved < lower or (upper is not None and moved > upper) or moved < 0:
                    continue
                mutated = events[:index] + [(symbol, moved)] + events[index + 1 :]
            elif kind == "symbol":
                symbol, time = events[index]
                replacement = rng.choice([s for s in alphabet if s != symbol])
                mutated = events[:index] + [(replacement, time)] + events[index + 1 :]
            else:
                if len(events) == 1:
                    continue
                mutated = events[:index] + events[index + 1 :]
            corpus.append(TimedWord(mutated))
    return corpus, mutant_count
