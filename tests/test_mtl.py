import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import pytest

from ptamtl import formats
from ptamtl.mtl import (
    FULL,
    And,
    Atom,
    Eventually,
    FalseConst,
    Globally,
    Interval,
    Next,
    Not,
    Or,
    Progression,
    TrueConst,
    Until,
    and_all,
    compile_formula,
    _AND,
    _ATOM,
    _PENDING,
    _TRUE,
    _UNTIL,
    _evaluator,
    eval_at,
    satisfies,
)
from ptamtl.timedwords import TimedWord, tick_range

from util import _INTERVALS, interval_contains, kleene_evaluator, kleene_value, naive_eval, prefix_may_satisfy, random_formula, random_word


def W(*pairs):
    return TimedWord(pairs)


def positions(bits, n):
    """The truth values of an evaluator row, one per position."""
    return [bits >> i & 1 == 1 for i in range(n)]


class TestInterval:
    def test_contains(self):
        assert interval_contains(Interval(1, 2, False, False), Fraction(3, 2))
        assert not interval_contains(Interval(1, 2, False, False), Fraction(1))
        assert interval_contains(Interval.point(2), Fraction(2))
        assert interval_contains(Interval(0, None, True, False), Fraction(1000))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(2, 1, True, True)
        with pytest.raises(ValueError):
            Interval(1, 1, True, False)
        with pytest.raises(ValueError):
            Interval(0, None, True, True)

    RATES = (1, 2, 6, Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(4, 3))

    def test_ticks_are_the_tick_counts_in_the_interval(self):
        # d ticks at ``rate`` ticks a unit are d / rate units: lo..hi must hold
        # exactly the d whose time the endpoint reading puts in the interval
        intervals = list(dict.fromkeys(SHARED + UNBOUNDED + BOUNDED + _INTERVALS))
        for interval in intervals:
            for rate in self.RATES:
                lo, hi = interval.ticks(rate)
                assert type(lo) is int and (hi is None) == (interval.upper is None), (interval, rate)
                for d in range(31):
                    inside = lo <= d and (hi is None or d <= hi)
                    assert inside == interval_contains(interval, Fraction(d) / rate), (interval, rate, d)
        # the same rule on rational bounds, as a guard atom on the grid has them
        bounds = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))
        for lower, upper in itertools.product((0,) + bounds, bounds + (None,)):
            for lower_closed, upper_closed in itertools.product((True, False), repeat=2):
                for rate in self.RATES:
                    lo, hi = tick_range(lower, lower_closed, upper, upper_closed, rate)
                    for d in range(31):
                        time = Fraction(d) / rate
                        above = time >= lower if lower_closed else time > lower
                        below = upper is None or (time <= upper if upper_closed else time < upper)
                        inside = lo <= d and (hi is None or d <= hi)
                        assert inside == (above and below), (lower, lower_closed, upper, upper_closed, rate, d)

    def test_a_window_can_hold_no_tick(self):
        # at 3/2 ticks a unit, 1 falls between ticks 1 (2/3) and 2 (4/3)
        assert Interval.point(1).ticks(Fraction(3, 2)) == (2, 1)
        assert Interval(1, 2, False, False).ticks(1) == (2, 1)


class TestCompiler:
    @pytest.mark.parametrize(
        "spelled, defined",
        [
            (lambda f, i: Not(Not(f)), lambda f, i: f),
            (lambda f, i: Eventually(i, f), lambda f, i: Until(i, TrueConst(), f)),
            (lambda f, i: Next(i, f), lambda f, i: Until(i, FalseConst(), f)),
            (lambda f, i: Globally(i, f), lambda f, i: Not(Until(i, TrueConst(), Not(f)))),
        ],
        ids=["not-not", "eventually", "next", "globally"],
    )
    def test_four_kinds_and_one_reference_per_meaning(self, spelled, defined):
        rng = random.Random(11)
        for _ in range(200):
            f = random_formula(rng, ["a", "b"], 3)
            interval = rng.choice((FULL, Interval(1, 2, True, False), Interval.point(1)))
            program = compile_formula(And(spelled(f, interval), defined(f, interval)))
            for k, (kind, a, b, iv) in enumerate(program.ops):
                assert kind in (_ATOM, _TRUE, _AND, _UNTIL)
                if kind in (_AND, _UNTIL):  # children come before their parent
                    assert 0 <= a >> 1 < k and 0 <= b >> 1 < k
                else:
                    assert b == -1
                assert (iv >= 0) == (kind == _UNTIL)
            kind, a, b, _ = program.ops[program.root >> 1]
            assert program.root % 2 == 0 and kind == _AND
            assert a == b, f

    def test_ops_are_numbered_left_operand_first(self):
        # in post-order with the left operand first, the order in which a
        # parser reading the formula's text meets them
        window = Interval(1, 2, True, True)
        program = compile_formula(Or(Until(window, Atom("b"), Atom("a")), Not(Eventually(FULL, Atom("c")))))
        assert program.ops == (
            (_TRUE, -1, -1, -1),
            (_ATOM, "b", -1, -1),
            (_ATOM, "a", -1, -1),
            (_UNTIL, 2, 4, 0),
            (_ATOM, "c", -1, -1),
            (_UNTIL, 0, 8, 1),
            (_AND, 7, 10, -1),  # !(!(b U a) & F c)
        )
        assert program.intervals == (window, FULL)
        assert program.root == 13

    def test_a_formula_compiles_once_on_the_object(self):
        formula = Or(Until(Interval(1, 2, True, True), Atom("b"), Atom("a")), Not(Eventually(FULL, Atom("c"))))
        program = compile_formula(formula)
        assert compile_formula(formula) is program and formula.program is program
        assert compile_formula(program) is program

    def test_an_equal_formula_gets_an_equal_program_of_its_own(self):
        def spell():
            return And(Eventually(FULL, Atom("a")), Globally(Interval(0, 2, True, True), Not(Atom("b"))))

        first, second = spell(), spell()
        assert first == second and first is not second
        program = compile_formula(first)
        assert compile_formula(second) == program and compile_formula(second) is not program

    def test_equality_hash_and_repr_ignore_the_cached_program(self):
        rng = random.Random(13)
        for _ in range(50):
            formula = random_formula(rng, ["a", "b"], 4)
            twin = dataclasses.replace(formula)
            before = (formula == twin, hash(formula), repr(formula))
            compile_formula(formula)
            assert "program" in vars(formula) and "program" not in vars(twin)
            assert (formula == twin, hash(formula), repr(formula)) == before == (True, hash(twin), repr(twin))

    def test_deep_formulas_compile_twice_to_one_object(self):
        from ptamtl.formats import parse_formula

        for formula in (and_all([Eventually(FULL, Atom("b"))] * 3000), parse_formula("X " * 1000 + "a")):
            program = compile_formula(formula)
            assert compile_formula(formula) is program

    def test_a_subformula_compiled_after_its_parent_has_its_own_root(self):
        child = Until(Interval(0, 3, True, False), Atom("a"), Eventually(FULL, Atom("b")))
        parent = Or(Atom("c"), child)
        before = compile_formula(parent)
        program = compile_formula(child)
        assert program is not before and program == compile_formula(Until(child.interval, child.left, child.right))
        kind, a, b, _ = program.ops[program.root >> 1]
        assert program.root % 2 == 0 and kind == _UNTIL and program.ops[a >> 1] == (_ATOM, "a", -1, -1)
        assert compile_formula(parent) is before

    def test_satisfies_on_many_words_builds_one_program(self, monkeypatch):
        from ptamtl import mtl

        built = []

        class CountingBuilder(mtl.ProgramBuilder):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(mtl, "ProgramBuilder", CountingBuilder)
        rng = random.Random(14)
        formula = Until(Interval(0, 2, True, True), Not(Atom("b")), And(Atom("a"), Next(FULL, Atom("b"))))
        for _ in range(50):
            word = random_word(rng, ["a", "b"], 6)
            assert satisfies(word, formula) == naive_eval(word, 1, formula)
        assert len(built) == 1

    def test_first_and_repeated_calls_agree_with_the_naive_reference(self):
        rng = random.Random(15)
        alphabet = ["a", "b", "c"]
        for _ in range(100):
            formula = random_formula(rng, alphabet, 4)
            words = [random_word(rng, alphabet, 6) for _ in range(3)]
            first = [satisfies(word, formula) for word in words]
            repeated = [satisfies(word, formula) for word in words]
            assert first == repeated == [naive_eval(word, 1, formula) for word in words], formula


class TestDesugar:
    def test_eventually(self):
        program = compile_formula(Eventually(Interval(1, 2, True, True), Atom("b")))
        kind, left, right, iv = program.ops[program.root >> 1]
        assert program.root % 2 == 0 and kind == _UNTIL
        assert left == 0  # true
        assert program.intervals[iv] == Interval(1, 2, True, True)
        assert right % 2 == 0 and program.ops[right >> 1] == (_ATOM, "b", -1, -1)


class TestEvalAt:
    def test_atom(self):
        assert eval_at(W(("a", 0)), 1, Atom("a"))

    def test_next_needs_successor(self):
        assert not eval_at(W(("a", 0)), 1, Next(FULL, TrueConst()))

    def test_eventually_open_window(self):
        word = W(("a", 0), ("b", "3/2"))
        assert eval_at(word, 1, Eventually(Interval(1, 2, False, False), Atom("b")))

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            eval_at(W(("a", 0)), 2, Atom("a"))

    def test_until_strictness(self):
        # the witness must lie strictly after the current position
        word = W(("b", 0), ("a", 1))
        assert eval_at(word, 1, Until(FULL, TrueConst(), Atom("a")))
        assert not eval_at(word, 1, Until(FULL, TrueConst(), Atom("b")))

    def test_rows_deeper_than_the_recursion_limit_fill_on_a_stack(self):
        # one until at the root, 2,000 nested untils (F and X, each negated)
        # under it: the root's row fills every row below it
        formula = Atom("a")
        for depth in range(2000):
            modality = Eventually(Interval(0, 1, True, True), formula) if depth % 2 else Next(FULL, formula)
            formula = Not(modality) if depth % 3 else modality
        formula = Eventually(FULL, formula)
        program = compile_formula(formula)
        assert sum(op[0] == _UNTIL for op in program.ops) == 2001 > sys.getrecursionlimit()
        rng = random.Random(16)
        verdicts = set()
        for _ in range(40):
            word = random_word(rng, ["a", "b"], 6)
            bits = _evaluator(word, program)(program.root)
            assert 0 <= bits < 1 << len(word)
            for i, value in enumerate(positions(bits, len(word))):
                verdicts.add(value)
                assert value == naive_eval(word, i + 1, formula), (word, i)
        assert verdicts == {False, True}

    def test_a_position_is_judged_on_its_suffix_alone(self):
        # every operator looks only forward, so bit i - 1 of the root's row
        # is the verdict of the word that starts at position i
        rng = random.Random(31)
        alphabet = ["a", "b", "c"]
        for _ in range(500):
            formula = random_formula(rng, alphabet, 4)
            word = random_word(rng, alphabet, 8)
            for i in range(1, len(word) + 1):
                assert eval_at(word, i, formula) == satisfies(TimedWord(word.events[i - 1 :]), formula), (formula, word, i)


class TestSatisfies:
    def test_globally_all_a(self):
        assert satisfies(W(("a", 0), ("a", 1)), Globally(FULL, Atom("a")))

    def test_globally_fails_on_b(self):
        assert not satisfies(W(("a", 0), ("b", 1)), Globally(FULL, Atom("a")))

    def test_exact_distance_conjunction(self):
        word = W(("a", 0), ("b", 1), ("b", 2))
        formula = And(Atom("a"), Eventually(Interval.point(2), Atom("b")))
        assert satisfies(word, formula)
        assert naive_eval(word, 1, formula)


class TestProperties:
    def test_negation_involution(self):
        rng = random.Random(5)
        for _ in range(60):
            formula = random_formula(rng, ["a", "b"], 3)
            word = random_word(rng, ["a", "b"], 5)
            for position in range(1, len(word) + 1):
                assert eval_at(word, position, Not(formula)) != eval_at(
                    word, position, formula
                )

    def test_next_true_fails_at_last_position(self):
        rng = random.Random(6)
        for _ in range(30):
            word = random_word(rng, ["a", "b"], 6)
            assert not eval_at(word, len(word), Next(FULL, TrueConst()))

    def test_table_evaluator_matches_naive_reference(self):
        rng = random.Random(8)
        alphabet = ["a", "b", "c"]
        for _ in range(200):
            formula = random_formula(rng, alphabet, 4)
            word = random_word(rng, alphabet, 6)
            for position in range(1, len(word) + 1):
                assert eval_at(word, position, formula) == naive_eval(
                    word, position, formula
                ), (formula, word, position)


class TestPrefixMonitor:
    def test_never_rejects_a_satisfiable_extension(self):
        # soundness: if a word satisfies the formula, every prefix must be
        # reported as possibly satisfying
        rng = random.Random(9)
        alphabet = ["a", "b"]
        for _ in range(300):
            formula = random_formula(rng, alphabet, 3)
            word = random_word(rng, alphabet, 5)
            if not satisfies(word, formula):
                continue
            for cut in range(1, len(word) + 1):
                prefix = TimedWord(word.events[:cut])
                assert prefix_may_satisfy(prefix, formula), (formula, word, cut)

    def test_definitive_failure_detected(self):
        formula = And(Atom("a"), Globally(FULL, Atom("a")))
        assert not prefix_may_satisfy(W(("b", 0)), formula)
        assert not prefix_may_satisfy(W(("a", 0), ("b", 1)), formula)
        assert prefix_may_satisfy(W(("a", 0), ("a", 1)), formula)


def mixed_word(rng, alphabet, max_len):
    """Timestamps step by quarters and thirds, so the common denominator
    grows along the word."""
    time, events = Fraction(0), []
    for _ in range(rng.randint(1, max_len)):
        time += Fraction(rng.randint(0, 4), rng.choice((3, 4)))
        events.append((rng.choice(alphabet), time))
    return TimedWord(events)


UNIT = Fraction(1, 12)  # one tick; quarters and thirds are whole numbers of it


def ticks(word):
    """The (symbol, tick) path of a timed word whose times are on UNIT."""
    path = tuple((symbol, time / UNIT) for symbol, time in word)
    assert all(tick.denominator == 1 for _, tick in path)
    return tuple((symbol, int(tick)) for symbol, tick in path)


def open_rows(word, program):
    row = kleene_evaluator(word, program, False)
    return [row(k) for k in range(len(program.ops))]


UNITS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2))


def residual(engine, path):
    """The residual of a path of (symbol, tick) pairs, stepped from the start."""
    r, last = engine.start, 0
    for symbol, tick in path:
        r, last = engine.step(r, symbol, tick - last), tick
    return r


def assert_matches_open_value(r, word, program):
    """A residual is false iff the Kleene open value is 0, true iff it is 2."""
    value = kleene_value(program, kleene_evaluator(word, program, False))
    assert (r == 0) == (value == 0) and (r == 1) == (value == 2), (program, word, r, value)


class TestClosedRows:
    def test_rows_are_the_verdicts_of_the_kleene_closed_rows(self):
        # on a closed word the three-valued evaluation decides every entry;
        # the two-valued rows, and satisfies, must be its verdicts
        rng = random.Random(36)
        alphabet = ["a", "b", "c"]
        for _ in range(300):
            program = compile_formula(random_formula(rng, alphabet, 5))
            word = mixed_word(rng, alphabet, 7)
            row, oracle = _evaluator(word, program), kleene_evaluator(word, program, True)
            n = len(word)
            for k in range(len(program.ops)):
                assert 1 not in oracle(k), (program, word, k)
                bits = row(2 * k)
                assert 0 <= bits < 1 << n, (program, word, k)
                assert positions(bits, n) == [v == 2 for v in oracle(k)], (program, word, k)
                assert row(2 * k + 1) == bits ^ (1 << n) - 1
            assert satisfies(word, program) == (kleene_value(program, oracle) == 2), (program, word)


def as_formula(program, r):
    """The AST of reference r of a program, in the core grammar."""
    kind, a, b, iv = program.ops[r >> 1]
    if kind == _ATOM:
        node = Atom(a)
    elif kind == _TRUE:
        node = TrueConst()
    elif kind == _AND:
        node = And(as_formula(program, a), as_formula(program, b))
    else:
        node = Until(program.intervals[iv], as_formula(program, a), as_formula(program, b))
    return Not(node) if r & 1 else node


# intervals sharing each bound on different sides: the lower 1 of [1,1] and
# [1,2) is found by bisect_left, that of (1,2) by bisect_right, which is also
# how the upper 1 of [1,1] is found and the upper 1 of (0,1) is not
SHARED = [
    Interval.point(1),
    Interval(0, 1, False, False),
    Interval(1, 2, True, False),
    Interval(1, 2, False, False),
    Interval.point(2),
    FULL,
    Interval(0, None, False, False),
]


class TestSharedEndpoints:
    def shared_program(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        parts = []
        for k, interval in enumerate(SHARED):
            inner = SHARED[(k + 3) % len(SHARED)]
            parts += [
                Until(interval, a, b),
                Eventually(interval, Or(c, Globally(inner, a))),
                Globally(interval, Until(inner, Not(b), c)),
            ]
        return compile_formula(and_all(parts))

    def test_program_shares_its_endpoints(self):
        program = self.shared_program()
        assert set(program.intervals) == set(SHARED)
        assert sum(op[0] == _UNTIL for op in program.ops) >= 3 * len(SHARED)

    def test_every_row_matches_the_naive_reference(self):
        program = self.shared_program()
        formulas = [as_formula(program, 2 * k) for k in range(len(program.ops))]
        rng = random.Random(51)
        for trial in range(120):
            make = random_word if trial % 2 else mixed_word
            word = make(rng, ["a", "b", "c"], 9)
            row = _evaluator(word, program)
            for k, formula in enumerate(formulas):
                bits = row(2 * k)
                expected = [naive_eval(word, i, formula) for i in range(1, len(word) + 1)]
                assert positions(bits, len(word)) == expected, (formula, word)
            assert satisfies(word, program) == naive_eval(word, 1, as_formula(program, program.root))


# unbounded intervals with a closed, an open and a positive lower bound, and
# bounded ones of each shape
UNBOUNDED = [FULL, Interval(0, None, False, False), Interval(1, None, True, False), Interval(1, None, False, False)]
BOUNDED = [Interval(1, 2, True, False), Interval(0, 1, False, True), Interval.point(1)]


class TestRowsAcrossTheWordBoundary:
    """A row holds one bit per position, so words of 63, 64, 65 and 130
    events put rows on both sides of a 64-bit machine word."""

    def formulas(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")  # c occurs nowhere
        parts = []
        for interval in UNBOUNDED:  # the next mask and the unbounded F
            parts += [Next(interval, b), Next(interval, Not(a))]
            parts += [Eventually(interval, b), Eventually(interval, Not(a))]
        for interval in BOUNDED + UNBOUNDED[:2]:  # bounded F and the general until
            parts += [Eventually(interval, b), Until(interval, a, b), Globally(interval, a)]
        # rows of 0, and a left operand that holds nowhere, which makes a next
        parts += [Eventually(FULL, c), Next(FULL, c), Globally(FULL, c), Until(BOUNDED[0], c, b)]
        return parts + [Until(FULL, Not(b), a)]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_every_row_and_its_negation_match_the_naive_reference(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        found = set()
        for _ in range(2):
            time, events = Fraction(0), []
            for _ in range(n):
                time += Fraction(rng.randint(0, 2), 2)  # repeated times, and windows of 0 to many events
                events.append((rng.choice("aab"), time))
            word = TimedWord(events)
            for formula in self.formulas():
                program = compile_formula(formula)
                row = _evaluator(word, program)
                for k in range(len(program.ops)):
                    bits = row(2 * k)
                    assert 0 <= bits <= full
                    assert row(2 * k + 1) == bits ^ full
                    expected = [naive_eval(word, i, as_formula(program, 2 * k)) for i in range(1, n + 1)]
                    assert positions(bits, n) == expected, (as_formula(program, 2 * k), word)
                    assert positions(row(2 * k + 1), n) == [not v for v in expected]
                    found.add("zero" if bits == 0 else "top" if bits >> n - 1 else "other")
        assert {"zero", "top"} <= found


# operands of every density on the words below: none, one position, every
# other position, all but one, and all
DENSITIES = [Atom("z"), Atom("o"), Atom("e"), Not(Atom("o")), TrueConst()]
# punctual windows that meet repeated times, a window that holds no whole
# tick, and bounded and unbounded windows
WITNESS_WINDOWS = [
    Interval.point(0),
    Interval.point(1),
    Interval(0, 1, False, False),
    Interval(1, 2, True, False),
    Interval(0, 2, False, True),
    FULL,
    Interval(1, None, False, False),
]


def density_word(n, rng, step):
    """n events: o at one odd position (0 if n is 1), e at the other even
    positions and d at the rest, so e is every other position; times step by
    0 to 2 units of ``step``, so times repeat."""
    pivot = min(n // 2 | 1, n - 1)
    time, events = Fraction(0), []
    for i in range(n):
        events.append(("o" if i == pivot else "e" if i % 2 == 0 else "d", time))
        time += step * rng.randint(0, 2)
    return TimedWord(events)


class TestWitnessDrivenUntil:
    """An until's row is the union, over its right operand's positions, of
    the positions that see each one; it must match the naive reference for
    operands of every density and every window shape."""

    def program(self):
        return compile_formula(
            and_all(Until(iv, x, y) for iv in WITNESS_WINDOWS for x in DENSITIES for y in DENSITIES)
        )

    @pytest.mark.parametrize("n", [1, 64, 65, 130])
    def test_every_row_and_its_negation_match_the_naive_reference(self, n):
        program = self.program()
        rng = random.Random(29 + n)
        full = (1 << n) - 1
        densities = set()
        for step in (Fraction(1), Fraction(1, 2)):  # whole units: (0,1) holds no tick
            word = density_word(n, rng, step)
            row = _evaluator(word, program)
            for k, (kind, a, b, iv) in enumerate(program.ops):
                if kind == _AND:  # the conjunction chain is checked at its root below
                    continue
                bits = row(2 * k)
                formula = as_formula(program, 2 * k)
                expected = [naive_eval(word, i, formula) for i in range(1, n + 1)]
                assert positions(bits, n) == expected, (formula, word)
                assert row(2 * k + 1) == bits ^ full
                if kind == _UNTIL:
                    densities.add((row(a), row(b)))
            assert satisfies(word, program) == naive_eval(word, 1, as_formula(program, program.root))
        if n > 2:
            counts = {bin(x).count("1") for pair in densities for x in pair}
            assert {0, 1, (n + 1) // 2, n - 1, n} <= counts

    def test_rows_asked_in_any_order_are_the_same(self):
        program = self.program()
        ops = range(len(program.ops))
        rng = random.Random(30)
        for n in (1, 64, 65):
            word = density_word(n, rng, Fraction(1, 2))
            ascending = _evaluator(word, program)
            expected = [ascending(2 * k) for k in ops]
            for order in (ops[::-1], [len(ops) - 1, *ops], [len(ops) // 2, *ops[::-1]]):
                row = _evaluator(word, program)
                assert {k: row(2 * k + 1) for k in order} == {k: expected[k] ^ (1 << n) - 1 for k in ops}


def assert_operands_first(program):
    """Every op's operand references point to lower op indices."""
    for k, (kind, a, b, _) in enumerate(program.ops):
        if kind in (_AND, _UNTIL):
            assert a >> 1 < k and b >> 1 < k, (program, k)
    assert program.root >> 1 < len(program.ops)


class TestOperandsComeFirst:
    """The evaluator fills rows in op index order, so an op's operands must
    have lower indices, whichever front end built it."""

    def test_compiled_formulas(self):
        rng = random.Random(31)
        for _ in range(300):
            assert_operands_first(compile_formula(random_formula(rng, ["a", "b", "c"], 5)))

    def test_parsed_texts(self):
        rng = random.Random(27)
        texts = [" & ".join(f"a{i % 7}" for i in range(3000)), "X " * 1000 + "a"]
        for _ in range(100):
            t = formats.serialize_formula(random_formula(rng, ["a", "b", "m!", "#"], 4))
            texts += [f"({t}) & G ({t})", f"(({t}) & a) & (({t}) & b)", f"X ({t}) U[0,1] (({t}) -> a) & (({t}) -> b)"]
        for text in texts:
            assert_operands_first(formats.parse_program(text))


class TestIncrementalMonitor:
    """Formula progression against the Kleene oracle's open-ended evaluation."""

    def test_agrees_with_the_batch_evaluation_in_depth_first_order(self):
        rng = random.Random(31)
        alphabet = ["a", "b", "c"]
        prefixes = decided = 0
        for case in range(160):
            program = compile_formula(random_formula(rng, alphabet, 5))
            unit = UNITS[case % len(UNITS)]
            engine = Progression(program, unit)
            # a random tree of tick paths, visited depth first as the search
            # does, each residual stepped from its parent's; a word that ends
            # at a residual gets the verdict of the batch closed evaluation
            stack = [((), engine.start)]
            while stack:
                path, r = stack.pop()
                if path:
                    word = TimedWord([(s, t * unit) for s, t in path])
                    assert_matches_open_value(r, word, program)
                    assert engine.accepts(r) == satisfies(word, program), (program, path)
                    prefixes += 1
                    decided += r < 2
                if len(path) < 6:
                    last = path[-1][1] if path else 0
                    for _ in range(rng.randint(1, 2)):
                        symbol, delay = rng.choice(alphabet), rng.randint(0, 4)
                        stack.append((path + ((symbol, last + delay),), engine.step(r, symbol, delay)))
        assert prefixes > 3000 and decided > 1000, (prefixes, decided)

    def test_delays_far_past_the_cap_step_as_the_cap_does(self):
        # the depth-first tree of tick paths again, with delays up to three
        # times the cap, past which the step tables are keyed by the cap
        rng = random.Random(39)
        alphabet = ["a", "b", "c"]
        prefixes = capped = 0
        for case in range(120):
            program = compile_formula(random_formula(rng, alphabet, 5))
            unit = UNITS[case % len(UNITS)]
            engine = Progression(program, unit)
            stack = [((), engine.start)]
            while stack:
                path, r = stack.pop()
                if path:
                    word = TimedWord([(s, t * unit) for s, t in path])
                    assert_matches_open_value(r, word, program)
                    assert engine.accepts(r) == satisfies(word, program), (program, path)
                    prefixes += 1
                if len(path) < 5:
                    last = path[-1][1] if path else 0
                    for _ in range(rng.randint(1, 2)):
                        symbol, delay = rng.choice(alphabet), rng.randint(0, 3 * engine._cap)
                        capped += delay > engine._cap
                        stack.append((path + ((symbol, last + delay),), engine.step(r, symbol, delay)))
            assert all(ticks <= engine._cap for _, ticks in engine._steps), program
        assert prefixes > 2000 and capped > 500, (prefixes, capped)

    def test_any_call_order_gives_the_same_verdicts(self):
        # the memo tables fill in call order; residuals must not depend on it
        rng = random.Random(32)
        alphabet = ["a", "b"]
        for _ in range(150):
            program = compile_formula(random_formula(rng, alphabet, 5))
            engine = Progression(program, UNIT)
            words = [mixed_word(rng, alphabet, 6) for _ in range(3)]
            prefixes = [TimedWord(w.events[:cut]) for w in words for cut in range(1, len(w) + 1)]
            first = [residual(engine, ticks(prefix)) for prefix in prefixes]
            order = list(range(len(prefixes)))
            rng.shuffle(order)
            again = Progression(program, UNIT)
            for i in order:
                assert residual(engine, ticks(prefixes[i])) == first[i]
                r = residual(again, ticks(prefixes[i]))
                assert_matches_open_value(r, prefixes[i], program)
                assert (r == 0, r == 1) == (first[i] == 0, first[i] == 1)

    def test_negation_is_a_flip_on_residuals(self):
        # r ^ 1 negates a residual as it negates a program reference
        rng = random.Random(37)
        alphabet = ["a", "b", "c"]
        for _ in range(150):
            program = compile_formula(random_formula(rng, alphabet, 5))
            engine = Progression(program, UNIT)
            for r in range(2 * len(program.ops)):
                for symbol in alphabet:
                    assert engine.now(r ^ 1, symbol) == engine.now(r, symbol) ^ 1, (program, r, symbol)
            for _ in range(3):
                x, last = engine.start, 0
                for symbol, tick in ticks(mixed_word(rng, alphabet, 6)):
                    assert engine.accepts(x ^ 1) == (not engine.accepts(x)), (program, x)
                    y = engine.step(x, symbol, tick - last)
                    assert engine.step(x ^ 1, symbol, tick - last) == y ^ 1, (program, x, symbol)
                    x, last = y, tick
                assert engine.accepts(x ^ 1) == (not engine.accepts(x)), (program, x)

    def test_ticks_are_read_on_the_unit(self):
        # a tick stands for tick * unit also when the unit's numerator is not 1
        rng = random.Random(35)
        for _ in range(200):
            program = compile_formula(random_formula(rng, ["a", "b"], 4))
            unit = rng.choice((Fraction(3, 4), Fraction(2, 3), Fraction(3, 2), Fraction(2)))
            path, tick = (), 0
            for _ in range(rng.randint(1, 5)):
                tick += rng.randint(0, 2)
                path += ((rng.choice("ab"), tick),)
            word = TimedWord([(symbol, tick * unit) for symbol, tick in path])
            assert_matches_open_value(residual(Progression(program, unit), path), word, program)

    def test_grid_windows_round_toward_the_interval(self):
        # units that put an endpoint of each interval between grid points, so
        # the window's first or last tick rounds inward: the obligation after
        # the first event carries the window, and every path of up to three
        # events is held to the batch verdict and the Kleene value
        a, b = Atom("a"), Atom("b")
        cases = [
            (Eventually(Interval(1, 2, False, True), a), Fraction(2, 3), (2, 3)),  # 4/3 and 2
            (Eventually(Interval(1, 2, False, True), a), Fraction(3, 2), (1, 1)),  # 3/2
            (Until(Interval.point(1), a, b), Fraction(2, 3), (2, 1)),  # no grid point on 1
            (Until(Interval.point(1), a, b), Fraction(3, 2), (1, 0)),
            (Globally(Interval(0, 1, True, False), a), Fraction(2, 3), (0, 1)),  # 0 and 2/3
            (Globally(Interval(0, 1, True, False), a), Fraction(3, 2), (0, 0)),
        ]
        for formula, unit, window in cases:
            program = compile_formula(formula)
            engine = Progression(program, unit)
            first = engine.step(engine.start, "c", 0)
            assert engine._nodes[first >> 1][2:] == window, (formula, unit)
            stack = [((), engine.start)]
            while stack:
                path, r = stack.pop()
                if path:
                    word = TimedWord([(symbol, tick * unit) for symbol, tick in path])
                    assert_matches_open_value(r, word, program)
                    assert engine.accepts(r) == satisfies(word, program), (formula, unit, path)
                    if window[0] > window[1]:
                        assert not satisfies(word, program)
                if len(path) < 3:
                    last = path[-1][1] if path else 0
                    for symbol in "ab":
                        for delay in range(4):
                            stack.append((path + ((symbol, last + delay),), engine.step(r, symbol, delay)))

    def test_step_rejects_a_negative_delay(self):
        engine = Progression(Eventually(FULL, Atom("a")), 1)
        r = engine.step(engine.start, "b", 0)
        with pytest.raises(ValueError):
            engine.step(r, "a", -1)
        with pytest.raises(ValueError):
            Progression(Atom("a"), 0)

    def test_equal_residuals_are_one_id(self):
        # windows shift to the last event and their lower bounds clamp at
        # [0, so obligations anchored at different times can meet
        engine = Progression(Globally(FULL, Eventually(Interval(1, None, True, False), Atom("a"))), 1)
        one = residual(engine, (("b", 0), ("b", 1), ("b", 4)))
        two = residual(engine, (("b", 0), ("b", 2), ("b", 4)))
        assert one == two > 2
        assert residual(engine, (("b", 0), ("b", 4), ("b", 4))) not in (0, 1, one)
        # a window that has passed is a constant
        engine = Progression(Eventually(Interval(0, 2, True, True), Atom("a")), 1)
        assert residual(engine, (("b", 0), ("b", 2))) > 2
        assert residual(engine, (("b", 0), ("b", 3))) == 0

    def test_deep_formulas_step_without_recursion(self):
        conjunction = and_all([Eventually(FULL, Atom("b"))] * 3000)
        nested = Eventually(FULL, Atom("b"))
        for _ in range(1000):
            nested = Not(nested)
        for formula, after_b in ((conjunction, 1), (nested, 1), (Not(nested), 0)):
            engine = Progression(formula, 1)
            r = engine.step(engine.start, "a", 0)
            assert r > 2
            assert engine.step(r, "b", 1) == after_b
            assert engine.step(r, "a", 1) == r

    def test_a_wide_conjunction_steps_in_linear_lookups(self):
        # distinct conjuncts, so the residual after the first event is one
        # node with 400 operands, none of them stepped yet
        width = 400
        formula = and_all(Eventually(Interval(0, i, True, True), Atom(f"a{i}")) for i in range(width))
        program = compile_formula(formula)
        engine = Progression(program, 1)

        class CountingDict(dict):
            gets = 0

            def get(self, key, default=None):
                CountingDict.gets += 1
                return super().get(key, default)

        def entries():
            return sum(map(len, engine._steps.values()))

        first = engine.step(engine.start, "b", 0)
        assert len(engine._nodes[first >> 1][1]) == width
        for symbol, delay in (("a7", 0), ("a7", 3), ("b", 2), ("a399", 500)):
            # a step reads and fills only the table of its (symbol, ticks),
            # ticks capped, so a counting table put there sees every lookup
            key = (symbol, min(delay, engine._cap))
            assert key not in engine._steps
            table = engine._steps[key] = CountingDict()
            CountingDict.gets, before = 0, entries()
            r = engine.step(first, symbol, delay)
            stepped = entries() - before
            assert stepped == len(table) > 0
            assert CountingDict.gets <= 3 * stepped, (symbol, delay, CountingDict.gets, stepped)
            word = W(("b", 0), (symbol, delay))
            assert engine.accepts(r) == satisfies(word, program)
            for after, tick in (("a0", delay), ("a399", delay + 1)):
                extended = TimedWord(word.events + ((after, tick),))
                assert engine.accepts(engine.step(r, after, tick - delay)) == satisfies(extended, program)

    def test_the_shifted_obligation_is_built_only_when_used(self):
        engine = Progression(Until(Interval(0, 5, True, True), Atom("a"), Atom("b")), 1)
        pending = engine.step(engine.start, "c", 0)
        assert pending > 2
        nodes = len(engine._nodes)
        # a false at the event, a witness in the window or a passed window decides
        assert engine.step(pending, "c", 1) == 0
        assert engine.step(pending, "b", 2) == 1
        assert engine.step(pending, "a", 6) == 0  # the window has passed
        assert len(engine._nodes) == nodes
        # a holds and no witness: the obligation with its window shifted
        shifted = engine.step(pending, "a", 1)
        assert len(engine._nodes) == nodes + 1
        assert engine._nodes[shifted >> 1][2:] == (0, 4)

    def test_settled_steps_are_the_advanced_ones_and_marks_never_build_to_false(self):
        rng = random.Random(38)
        alphabet = ["a", "b", "c"]
        settled = marked = 0
        for case in range(500):
            program = compile_formula(random_formula(rng, alphabet, 5))
            engine = Progression(program, UNITS[case % len(UNITS)])
            for _ in range(10):
                x = engine.start
                for _ in range(rng.randint(1, 6)):
                    x = engine.step(x, rng.choice(alphabet), rng.randint(0, 4))
            for (symbol, delay), table in list(engine._steps.items()):
                for k, value in list(table.items()):
                    node = engine._nodes[k]
                    if value == _PENDING:
                        # an undecided node builds to a residual that is not a constant
                        built = engine.step(2 * k, symbol, delay)
                        assert built > 1 and table[k] == built, (program, node, symbol, delay)
                        marked += 1
                    elif k > 1 and node[0] == _UNTIL:
                        assert value == engine._advance(node, symbol, delay), (program, node, symbol, delay)
                        settled += 1
            # every obligation, on every event, settles to what advancing it gives
            for node in [node for node in engine._nodes[2:] if node[0] == _UNTIL]:
                for symbol in alphabet:
                    for delay in range(5):
                        value = engine._settle(node, symbol, delay)
                        advanced = engine._advance(node, symbol, delay)
                        assert value == advanced if value != _PENDING else advanced > 1, (program, node, symbol, delay)
        assert settled > 3000 and marked > 100, (settled, marked)

    def test_a_false_operand_decides_a_step_before_anything_is_built(self):
        # 400 obligations that the event leaves undecided, then a newest one
        # that it falsifies: the step is false and interns no node
        width = 400
        obligations = and_all(Eventually(Interval(0, 5 + i, True, True), Atom(f"a{i}")) for i in range(width))
        engine = Progression(And(obligations, Next(FULL, Atom("d"))), 1)
        first = engine.step(engine.start, "b", 0)
        parts = engine._nodes[first >> 1][1]
        assert len(parts) == width + 1 and engine._nodes[parts[-1] >> 1][2:] == (0, None)
        nodes = len(engine._nodes)
        assert engine.step(first, "e", 1) == 0
        assert len(engine._nodes) == nodes
        assert list(engine._steps["e", 1].values()).count(_PENDING) == width

    def test_siblings_that_falsify_a_residual_in_turn(self):
        # each conjunction's scan starts at the operand that falsified its last
        # falsified step; siblings that falsify one residual through different
        # operands move that hint back and forth, and no step may depend on it
        rng = random.Random(40)
        alphabet = ["a", "b", "c"]
        steps = moves = 0
        for case in range(150):
            modalities = [rng.choice((Globally, Eventually)) for _ in range(rng.randint(3, 6))]
            formula = and_all(m(rng.choice(_INTERVALS), random_formula(rng, alphabet, 2)) for m in modalities)
            program = compile_formula(Globally(FULL, formula) if case % 2 else formula)
            unit = UNITS[case % len(UNITS)]
            engine = Progression(program, unit)
            path = ((rng.choice(alphabet), 0),)
            r = residual(engine, path)
            if r < 2 or engine._nodes[r >> 1][0] != _AND:
                continue
            for _ in range(30):
                symbol, delay = rng.choice(alphabet), rng.randint(0, 4)
                hints = dict(engine._falsifier)
                child = engine.step(r, symbol, delay)
                moves += engine._falsifier != hints
                word = TimedWord([(s, t * unit) for s, t in path] + [(symbol, delay * unit)])
                assert_matches_open_value(child, word, program)
                assert engine.accepts(child) == satisfies(word, program), (program, word)
                steps += 1
                if child > 1:  # one more event below the sibling
                    after, later = rng.choice(alphabet), rng.randint(0, 4)
                    extended = TimedWord(word.events + ((after, (delay + later) * unit),))
                    grandchild = engine.step(child, after, later)
                    assert_matches_open_value(grandchild, extended, program)
                    assert engine.accepts(grandchild) == satisfies(extended, program), (program, extended)
        assert steps > 2000 and moves > 120, (steps, moves)

    def test_a_sibling_falsified_by_the_last_falsifier_settles_it_first(self):
        width = 400
        formula = and_all(Globally(Interval(0, i, True, True), Not(Atom(f"a{i}"))) for i in range(width))
        engine = Progression(formula, 1)
        first = engine.step(engine.start, "b", 0)
        assert len(engine._nodes[first >> 1][1]) == width
        # the scan from operand 0 settles operands 0 to 300, 300 being false
        assert engine.step(first, "a300", 0) == 0
        assert len(engine._steps["a300", 0]) == 302
        # a sibling starts at operand 300: one operand and the conjunction
        assert engine.step(first, "a300", 1) == 0
        assert len(engine._steps["a300", 1]) <= 2
        for symbol, delay in (("a300", 1), ("a7", 2), ("b", 3)):
            word = W(("b", 0), (symbol, delay))
            assert engine.accepts(engine.step(first, symbol, delay)) == satisfies(word, formula)

    def test_a_residual_marked_by_a_sibling_steps_as_on_a_fresh_engine(self):
        # a conjunction's false operand leaves its undecided siblings marked
        # in the table; stepping one of them alone builds it
        a, b, d = Atom("a"), Atom("b"), Atom("d")
        window = Interval(0, 5, True, True)
        for sibling in (Eventually(window, a), Or(Eventually(window, a), Until(window, b, a))):
            formula = And(sibling, Next(FULL, d))
            marked, fresh = Progression(formula, 1), Progression(formula, 1)
            first = marked.step(marked.start, "c", 0)
            assert fresh.step(fresh.start, "c", 0) == first
            operand = marked._nodes[first >> 1][1][0]
            assert marked.step(first, "b", 1) == 0
            assert marked._steps["b", 1][operand >> 1] == _PENDING
            stepped = marked.step(operand, "b", 1)
            assert stepped == fresh.step(operand, "b", 1) > 1
            assert marked._nodes == fresh._nodes
            assert marked.step(operand ^ 1, "b", 1) == stepped ^ 1

    def test_decided_entries_never_change_on_extension(self):
        # the invariant that progression's constant residuals and the search's
        # pruning rely on: a decided Kleene value stays decided
        rng = random.Random(34)
        alphabet = ["a", "b"]
        for _ in range(300):
            program = compile_formula(random_formula(rng, alphabet, 5))
            word = mixed_word(rng, alphabet, 6)
            rows = [open_rows(TimedWord(word.events[:cut]), program) for cut in range(1, len(word) + 1)]
            closed = kleene_evaluator(word, program, True)
            rows.append([closed(k) for k in range(len(program.ops))])
            for cut, before in enumerate(rows[:-1]):
                for k, row in enumerate(before):
                    for i, value in enumerate(row):
                        if value != 1:
                            assert all(later[k][i] == value for later in rows[cut + 1 :]), (program, word, k, i)


class TestCompiledEngine:
    def test_equal_subtrees_share_one_op(self):
        window = Interval(1, 2, True, False)
        left = Eventually(window, And(Atom("a"), Not(Atom("b"))))
        right = Eventually(window, And(Atom("a"), Not(Atom("b"))))
        assert left is not right
        program = compile_formula(Or(left, right))
        _, first, second, _ = program.ops[program.root >> 1]
        assert first == second
        assert len(program.ops) == 6  # true, a, b, a & !b, F, the conjunction of the negations

    def test_desugar_builds_equal_subformulas_once(self):
        # F a and true U a are spelled differently and share one op
        for other in (Eventually(FULL, Atom("a")), Until(FULL, TrueConst(), Atom("a"))):
            program = compile_formula(Or(Eventually(FULL, Atom("a")), other))
            kind, left, right, _ = program.ops[program.root >> 1]
            assert program.root % 2 == 1 and kind == _AND  # !(!F a & !F a)
            assert left % 2 == 1 and left == right
            assert len(program.ops) == 4  # true, a, F a, the conjunction

    def test_compiled_program_gives_the_same_answers(self):
        # one program serves many words, so it must carry no state between them
        rng = random.Random(12)
        alphabet = ["a", "b"]
        for _ in range(100):
            formula = random_formula(rng, alphabet, 4)
            program = compile_formula(formula)
            for _ in range(3):
                word = random_word(rng, alphabet, 6)
                assert satisfies(word, program) == satisfies(word, formula)
                for cut in range(1, len(word) + 1):
                    prefix = TimedWord(word.events[:cut])
                    assert prefix_may_satisfy(prefix, program) == prefix_may_satisfy(prefix, formula)
                    assert eval_at(word, cut, program) == eval_at(word, cut, formula)

    def test_deep_conjunction(self):
        formula = and_all([Atom("a")] * 3000)
        program = compile_formula(formula)
        assert len(program.ops) == 3001  # true, the atom and 2999 conjunctions
        good = W(("a", 0), ("a", 1))
        bad = W(("a", 0), ("b", 1))
        for target in (formula, program):
            assert satisfies(good, target)
            assert prefix_may_satisfy(good, target)
            assert eval_at(good, 2, target)
            assert not eval_at(bad, 2, target)
            assert not satisfies(W(("b", 0)), target)
            assert not prefix_may_satisfy(W(("b", 0)), target)
        deep_temporal = and_all([Eventually(FULL, Atom("b"))] * 3000)
        assert satisfies(bad, deep_temporal)
        assert not satisfies(good, deep_temporal)
        assert prefix_may_satisfy(good, deep_temporal)
