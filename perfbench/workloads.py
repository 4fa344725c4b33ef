"""Seeded inputs, ops and answer checks for the workloads.

Each workload builds a pool of instances from the workload seed during
set-up, using the library itself (reduce, build_formula,
enumerate_error_free, encode).  One op runs one instance.  Every instance
carries an expected answer taken from a source that does not share the code
path under test, and ``check`` names the first disagreement.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

# Machine structures, computations and word mutations come from a fixed
# catalogue seed, and the workload seed renames every state and message
# while keeping their sort order.  The search enumerates symbols in sorted
# order and the formula lists conjuncts in sorted transition order, so an op
# does the same work under every workload seed and the figures stay
# comparable from seed to seed, while every input the library sees changes.
# Fresh names sort after "eps" like the generic s0.., m0.. names do.
CATALOGUE_SEED = 2014
NAMES = [c + d for c in "hjknqrvwyz" for d in "0123456789"]


COUNTEREXAMPLE = "counterexample-found"
NO_COUNTEREXAMPLE = "no-counterexample-within-bounds"


class Instance:
    """One input: ``op()`` is the timed call, ``check(answer)`` returns None
    or the reason the answer is wrong, ``summary(answer)`` feeds the digest."""

    def __init__(self, ident: str, op, check, summary, formula=None):
        self.ident = ident
        self.op = op
        self.check = check
        self.summary = summary
        self.formula = formula  # the reduction formula the op evaluates, if any


def generic_machine(lib, rng: random.Random, states: int, messages: int, transitions: int):
    """A random machine over the names s0.., m0..; the last state is the target."""
    state_names = tuple(f"s{i}" for i in range(states))
    message_names = tuple(f"m{i}" for i in range(messages))
    labels = [m + "!" for m in message_names] + [m + "?" for m in message_names] + ["eps"]
    chosen = set()
    while len(chosen) < transitions:
        chosen.add((rng.choice(state_names), rng.choice(labels), rng.choice(state_names)))
    machine = lib.channel.ChannelMachine(
        state_names, state_names[0], message_names, tuple(sorted(chosen))
    )
    return machine, state_names[-1]


def renamer(rng: random.Random, machine):
    """An order-preserving map from the machine's state and message names to
    fresh names drawn from ``rng``; labels follow their message, and the
    hash, the end marker and eps stay."""
    names = sorted(machine.states + machine.messages)
    mapping = dict(zip(names, sorted(rng.sample(NAMES, len(names)))))

    def symbol(name: str) -> str:
        if name in mapping:
            return mapping[name]
        if name[-1:] in ("!", "?") and name[:-1] in mapping:
            return mapping[name[:-1]] + name[-1]
        return name

    return symbol


def rename(lib, machine, target, symbol):
    renamed = lib.channel.ChannelMachine(
        tuple(map(symbol, machine.states)),
        symbol(machine.initial),
        tuple(map(symbol, machine.messages)),
        tuple(sorted(tuple(map(symbol, t)) for t in machine.transitions)),
    )
    return renamed, symbol(target)


def _on_grid(value: Fraction, grid: Fraction) -> bool:
    return (value / grid).denominator == 1


def _run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _mc_argv(pta_path, formula, k, grid, horizon, max_events):
    return [
        "mc-bounded", str(pta_path), formula, "--k", str(k), "--grid", str(grid),
        "--horizon", str(horizon), "--max-events", str(max_events), "--strict-only", "--json",
    ]  # fmt: skip


def _mc_summary(answer) -> str:
    code, out, _ = answer
    if code != 0:
        return f"exit {code}"
    payload = json.loads(out)
    words = [c["counterexample"] for c in payload["candidates"]]
    return json.dumps([payload["outcome"], words])


def _mc_check(answer, expected, recheck):
    """Compare an mc-bounded --json answer with the expected refutation of
    each candidate 1/1 .. 1/k; ``recheck(w, word_text)`` vets a reported
    counterexample for candidate p = 1/(w+1)."""
    code, out, err = answer
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    payload = json.loads(out)
    candidates = payload["candidates"]
    if len(candidates) != len(expected):
        return f"{len(candidates)} candidates reported, {len(expected)} expected"
    want = COUNTEREXAMPLE if any(expected) else NO_COUNTEREXAMPLE
    if payload["outcome"] != want:
        return f"outcome {payload['outcome']}, expected {want}"
    for w, (entry, refuted) in enumerate(zip(candidates, expected)):
        word = entry["counterexample"]
        if (word is not None) != refuted:
            return f"candidate {entry['valuation']}: refuted={word is not None}, expected {refuted}"
        if word is not None:
            problem = recheck(w, word)
            if problem:
                return f"candidate {entry['valuation']}: {problem}"
    return None


# -- mc-reduction -------------------------------------------------------------
#
# The negated reduction formula on the reduction automaton: the search looks
# for an encoding of an error-free computation, so a counterexample for
# p = 1/(w+1) exists iff some computation with channel <= w has a width-w
# encoding that fits the bounds.  The encoding puts states at even times,
# display slots at i/(w+1) past them and trailers at odd times, and has
# (steps+1)(w+1) + steps + 1 events; padding a shorter channel with hashes
# keeps that layout, and where the channel is exactly w the words that
# encoding.encode builds are checked against it.  A grid of 1 keeps one op
# to tens or hundreds of monitor calls on a 200-300 node formula.

RED_GRID = Fraction(1)
RED_K = 2


def _encoding_fits(steps: int, w: int, grid, horizon, max_events) -> bool:
    return (
        steps >= 1
        and _on_grid(Fraction(1), grid)
        and (w == 0 or _on_grid(Fraction(1, w + 1), grid))
        and 2 * steps + 1 <= horizon
        and (steps + 1) * (w + 1) + steps + 1 <= max_events
    )


def _word_fits(word, grid, horizon, max_events) -> bool:
    times = word.times
    return len(word) <= max_events and times[-1] <= horizon and all(_on_grid(t, grid) for t in times)


def reduction_pool(lib, rng: random.Random, workdir: Path, size: int) -> list[Instance]:
    formats, channel, encoding = lib.formats, lib.channel, lib.encoding
    shapes = random.Random(CATALOGUE_SEED)
    pool = []
    while len(pool) < size:
        generic, generic_target = generic_machine(
            lib, shapes, shapes.randint(2, 4), shapes.randint(1, 2), shapes.randint(2, 5)
        )
        computations = channel.enumerate_error_free(generic, generic_target, 3, 2)
        if not computations:
            continue
        shortest = min(len(c.steps) for c in computations)
        if shortest > 1 and not any(
            len(c.steps) == shortest and channel.max_channel(c) == 0 for c in computations
        ):
            continue
        # one event of slack beyond the shortest width-0 encoding deepens the
        # search enough for the monitor to take over 90% of an op
        horizon, max_events = 2 * shortest + 1, 2 * shortest + 3
        machine, target = rename(lib, generic, generic_target, renamer(rng, generic))
        expected = []
        for w in range(RED_K):
            refuted = False
            for c in channel.enumerate_error_free(machine, target, (horizon - 1) // 2, w):
                fits = _encoding_fits(len(c.steps), w, RED_GRID, horizon, max_events)
                if channel.max_channel(c) == w:
                    word = encoding.encode(machine, target, c, encoding.default_layout(w))
                    if fits != _word_fits(word, RED_GRID, horizon, max_events):
                        raise AssertionError("encode lays words out differently than assumed")
                refuted = refuted or fits
            expected.append(refuted)
        bundle = lib.reduction.build_bundle(machine, target)
        ident = f"red{len(pool):03d}"
        pta_path = workdir / f"{ident}.pta"
        formula_path = workdir / f"{ident}.mtl"
        pta_path.write_text(formats.serialize_pta(bundle.automaton))
        formula_path.write_text("!(" + formats.serialize_formula(bundle.formula) + ")")
        argv = _mc_argv(pta_path, "@" + str(formula_path), RED_K, RED_GRID, horizon, max_events)
        pool.append(
            Instance(
                ident,
                lambda argv=argv: _run_cli(lib, argv),
                _reduction_checker(lib, machine, target, bundle.automaton, expected),
                _mc_summary,
                bundle.formula,
            )
        )
    return pool


def _reduction_checker(lib, machine, target, automaton, expected):
    def recheck(w, text):
        word = lib.formats.parse_timed_word(text)
        if not lib.encoding.check_membership(word, machine, target, w):
            return "counterexample is not a width-w encoding"
        computation = lib.encoding.decode(word, machine, target)
        if computation.final.state != target or lib.channel.max_channel(computation) > w:
            return "counterexample decodes to a wrong computation"
        if not lib.channel.is_error_free(machine, computation):
            return "counterexample decodes to a faulty computation"
        if not lib.pta.membership(automaton, {"p": Fraction(1, w + 1)}, word):
            return "automaton rejects the counterexample"
        return None

    return lambda answer: _mc_check(answer, expected, recheck)


# -- mc-property ----------------------------------------------------------------
#
# Small properties on the same reduction automata, whose structure fixes
# their truth: every accepted word reads the initial state, a label p after
# it, later the target, and the end marker p after that, with nothing after
# the marker.  The properties that hold make the search walk the whole
# bounded space under a cheap monitor, so the pta search takes a large share
# of an op; those that fail stop at the first accepted word.  The shortest
# accepted strictly monotonic word is (0, p, p+g, 2p+g) on grid g, so a
# failing property has a counterexample for p iff p is on the grid and
# 2p + g fits the horizon.  Properties are in this file's own syntax tree
# (atom "T" stands for the target), which the naive evaluator below reads.

PROP_GRID = Fraction(1, 2)
PROP_K = 2
PROPERTIES = [  # (text, tree, holds on every accepted word)
    ("F *", ("F", ("atom", "*")), True),
    ("F T", ("F", ("atom", "T")), True),
    ("G (T -> F *)", ("G", ("->", ("atom", "T"), ("F", ("atom", "*")))), True),
    ("G !T", ("G", ("!", ("atom", "T"))), False),
    ("!F *", ("!", ("F", ("atom", "*"))), False),
]
PROP_SHAPES = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)]  # (states, messages)


def _prop_bounds(messages: int, holds: bool, tree) -> tuple[Fraction, int]:
    """(horizon, max_events): whole-space walks are kept to 0.1-0.5 s an op."""
    if not holds:
        return Fraction(3), 6
    if messages == 2 or tree[0] == "G":
        return Fraction(5, 2), 5
    return Fraction(5, 2), 6


def naive_holds(tree, symbols, target, i=0) -> bool:
    """The property at position i, straight from the strict-future semantics
    with untimed operators."""
    op = tree[0]
    if op == "atom":
        return symbols[i] == (target if tree[1] == "T" else tree[1])
    if op == "!":
        return not naive_holds(tree[1], symbols, target, i)
    if op == "->":
        return not naive_holds(tree[1], symbols, target, i) or naive_holds(tree[2], symbols, target, i)
    later = (naive_holds(tree[1], symbols, target, j) for j in range(i + 1, len(symbols)))
    return any(later) if op == "F" else all(later)


def property_pool(lib, rng: random.Random, workdir: Path, rounds: int) -> list[Instance]:
    formats = lib.formats
    shapes = random.Random(CATALOGUE_SEED)
    pool = []
    for _ in range(rounds):
        for states, messages in PROP_SHAPES:
            generic, generic_target = generic_machine(lib, shapes, states, messages, 3)
            machine, target = rename(lib, generic, generic_target, renamer(rng, generic))
            automaton = lib.reduction.build_automaton(machine, target)
            ident = f"prop{len(pool) // len(PROPERTIES):02d}"
            pta_path = workdir / f"{ident}.pta"
            pta_path.write_text(formats.serialize_pta(automaton))
            for index, (text, tree, holds) in enumerate(PROPERTIES):
                horizon, max_events = _prop_bounds(messages, holds, tree)
                expected = [
                    not holds and _on_grid(p, PROP_GRID) and 2 * p + PROP_GRID <= horizon
                    for p in (Fraction(1, w + 1) for w in range(PROP_K))
                ]
                argv = _mc_argv(pta_path, text.replace("T", target), PROP_K, PROP_GRID, horizon, max_events)
                pool.append(
                    Instance(
                        f"{ident}.{index}",
                        lambda argv=argv: _run_cli(lib, argv),
                        _property_checker(lib, automaton, target, tree, expected),
                        _mc_summary,
                    )
                )
    return pool


def _property_checker(lib, automaton, target, tree, expected):
    def recheck(w, text):
        word = lib.formats.parse_timed_word(text)
        if naive_holds(tree, word.symbols, target):
            return "counterexample satisfies the property"
        if not lib.pta.membership(automaton, {"p": Fraction(1, w + 1)}, word):
            return "automaton rejects the counterexample"
        return None

    return lambda answer: _mc_check(answer, expected, recheck)


# -- check-words ----------------------------------------------------------------
#
# The criterion-5 differential: the reduction formula and the encoding
# checker must agree on every word.  Words come from random machines in
# bands of encoding length, so the mix of short and long words (up to more
# than 50 events, where the quadratic until/eventually loops show) is the
# same for every seed: valid encodings under three layouts, injected
# insertions and single-event mutations.

WORD_BANDS = [(8, 20, 3), (20, 35, 3), (35, 50, 2), (50, 80, 2)]  # (min, max, encodings)
MUTATIONS_PER_ENCODING = 3


def _layouts(lib, width):
    layout = lib.encoding.EncodingLayout
    return [
        lib.encoding.default_layout(width),
        layout(Fraction(1, 3), tuple(Fraction(2 * i + 1, 2 * width + 3) for i in range(width))),
        layout(Fraction(0), tuple(Fraction(3 * i + 2, 3 * width + 4) for i in range(width))),
    ]


def _mutations(lib, rng, word, machine, count):
    alphabet = lib.reduction.machine_alphabet(machine)
    shifts = [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 20), Fraction(-1, 20), Fraction(1)]
    events = list(word.events)
    out = []
    while len(out) < count:
        index = rng.randrange(len(events))
        kind = rng.choice(["time", "symbol", "delete"])
        symbol, time = events[index]
        if kind == "time":
            moved = time + rng.choice(shifts)
            lower = events[index - 1][1] if index > 0 else Fraction(0)
            upper = events[index + 1][1] if index + 1 < len(events) else None
            if moved < lower or (upper is not None and moved > upper):
                continue
            mutated = events[:index] + [(symbol, moved)] + events[index + 1 :]
        elif kind == "symbol":
            replacement = rng.choice([s for s in alphabet if s != symbol])
            mutated = events[:index] + [(replacement, time)] + events[index + 1 :]
        else:
            mutated = events[:index] + events[index + 1 :]
        out.append(lib.timedwords.TimedWord(mutated))
    return out


def words_pool(lib, rng: random.Random, workdir: Path, rounds: int) -> list[Instance]:
    channel, encoding = lib.channel, lib.encoding
    shapes = random.Random(CATALOGUE_SEED)
    pool = []
    for _ in range(rounds):
        for low, high, wanted in WORD_BANDS:
            taken = 0
            while taken < wanted:
                generic, generic_target = generic_machine(
                    lib, shapes, shapes.randint(3, 4), 2, shapes.randint(4, 6)
                )
                computations = [
                    c
                    for c in channel.enumerate_error_free(generic, generic_target, 9, 3)
                    if low <= (len(c.steps) + 1) * (channel.max_channel(c) + 1) + len(c.steps) + 1 < high
                ]
                if not computations:
                    continue
                computation = computations[shapes.randrange(len(computations))]
                symbol = renamer(rng, generic)
                machine, target = rename(lib, generic, generic_target, symbol)
                formula = lib.reduction.build_formula(machine, target)
                width = channel.max_channel(computation)
                for layout in _layouts(lib, width):
                    valid = encoding.encode(generic, generic_target, computation, layout)
                    words = [(w, True) for w in [valid] + lib.reduction.insertion_mutants(valid, generic, 1)]
                    words += [(w, None) for w in _mutations(lib, shapes, valid, generic, MUTATIONS_PER_ENCODING)]
                    for generic_word, known in words:
                        word = lib.timedwords.TimedWord((symbol(a), t) for a, t in generic_word)
                        ident = f"word{len(pool):04d}"
                        pool.append(_word_instance(lib, ident, word, machine, target, formula, known))
                taken += 1
    shapes.shuffle(pool)
    return pool


def _word_instance(lib, ident, word, machine, target, formula, known):
    def op():
        by_formula = lib.mtl.satisfies(word, formula)
        by_checker = lib.encoding.check_membership(
            word, machine, target, lib.encoding.n_prefix(word)
        )
        return by_formula, by_checker

    def check(answer):
        by_formula, by_checker = answer
        if by_formula != by_checker:
            return f"formula says {by_formula}, checker says {by_checker} on {len(word)} events"
        if known is not None and by_checker != known:
            return f"an encoding in the language was judged {by_checker}"
        return None

    return Instance(ident, op, check, lambda answer: json.dumps(list(answer)), formula)
