import random
import sys
from fractions import Fraction

from ptamtl.modelcheck import bounded_modelcheck
from ptamtl.mtl import FULL, Atom, Globally, Interval, Not, compile_formula, satisfies
from ptamtl.pta import ClockConstraint, Edge, Pta

from util import brute_accepted, prefix_may_satisfy, random_formula, random_pta

F = Fraction


def check_against_brute_force(automaton, formula, rho, grid, horizon, events, strict):
    """Compare bounded_modelcheck with the brute-force oracle on one case;
    returns the candidate's result and the index of the first failing word
    (None when every word satisfies the formula)."""
    violation = compile_formula(Not(formula))
    verdict = bounded_modelcheck(automaton, formula, [rho], grid, horizon, events, strict)
    # the formula compiled beforehand gives the same verdict
    assert bounded_modelcheck(automaton, compile_formula(formula), [rho], grid, horizon, events, strict) == verdict

    def viable(word):
        return prefix_may_satisfy(word, violation)

    words, _ = brute_accepted(automaton, rho, grid, horizon, events, strict, viable)
    failing = [i for i, word in enumerate(words) if not satisfies(word, formula)]
    (result,) = verdict.candidates
    context = (automaton, formula, rho, grid, horizon, events, strict)
    if failing:
        assert result.counterexample == words[failing[0]], context
        assert result.stats.words_checked == failing[0] + 1, context
        assert verdict.outcome == "counterexample-found"
    else:
        assert result.counterexample is None, context
        assert result.stats.words_checked == len(words), context
        assert verdict.outcome == "no-counterexample-within-bounds"
    return result, failing[0] if failing else None, len(words)


WINDOWS = (FULL, Interval(0, 1, True, True), Interval(1, 2, True, False))


class TestAgainstBruteForce:
    """bounded_modelcheck (tick search pruned and memoized by formula
    progression) against the brute-force grid enumeration pruned by the
    Kleene oracle on timed words: two paths that share neither the search
    nor the formula engine."""

    def test_first_failing_word_and_words_checked(self):
        rng = random.Random(43)
        refuted = unrefuted = later = 0
        for _ in range(200):
            automaton = random_pta(rng)
            formula = random_formula(rng, ["a", "b"], 3)
            if rng.random() < 0.5:
                # an open G window keeps a violation undecided until the word
                # ends, so accepted words that satisfy the formula come first
                formula = Globally(rng.choice(WINDOWS), formula)
            rho = {"p": rng.choice((F(1, 3), F(1, 2), F(1)))}
            grid = rng.choice((F(1, 2), F(1, 3)))
            horizon = rng.choice((F(3, 2), F(2)))
            strict = rng.random() < 0.5
            events = rng.choice((3, 4))
            _, first, words = check_against_brute_force(automaton, formula, rho, grid, horizon, events, strict)
            refuted += first is not None
            unrefuted += first is None and words > 0
            later += bool(first)
        assert refuted >= 50 and unrefuted >= 30 and later >= 15, (refuted, unrefuted, later)

    def test_memo_hits_change_no_answer(self):
        # longer words, so that prefixes with the same residual, frontier,
        # tick and depth recur and their subtrees are skipped
        rng = random.Random(44)
        hits = refuted_after_hits = unrefuted_with_hits = 0
        for _ in range(60):
            automaton = random_pta(rng)
            formula = Globally(rng.choice(WINDOWS), random_formula(rng, ["a", "b"], 3))
            rho = {"p": rng.choice((F(1, 2), F(1)))}
            strict = rng.random() < 0.5
            result, first, words = check_against_brute_force(automaton, formula, rho, F(1, 2), F(5, 2), 6, strict)
            hits += result.stats.memo_hits
            refuted_after_hits += first is not None and result.stats.memo_hits > 0
            unrefuted_with_hits += first is None and words > 0 and result.stats.memo_hits > 0
        assert hits >= 100 and refuted_after_hits >= 3 and unrefuted_with_hits >= 8, (
            hits, refuted_after_hits, unrefuted_with_hits,
        )  # fmt: skip


def test_words_longer_than_the_recursion_limit():
    # one location reading a forever, so there is one accepted word per
    # length, all at time 0, and the search runs 1,200 events deep
    loop = Edge("l0", "a", ClockConstraint(), frozenset(), "l0")
    automaton = Pta(("a",), ("l0",), frozenset({"l0"}), (), (), (loop,), frozenset({"l0"}))
    assert sys.getrecursionlimit() < 1200
    verdict = bounded_modelcheck(automaton, Globally(FULL, Atom("a")), [{}], F(1), F(0), 1200)
    (result,) = verdict.candidates
    assert result.counterexample is None
    assert result.stats.words_checked == 1200
