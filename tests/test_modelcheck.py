import random
from fractions import Fraction

from ptamtl.modelcheck import bounded_modelcheck
from ptamtl.mtl import FULL, Globally, Interval, compile_formula, negate, prefix_may_satisfy, satisfies

from util import brute_accepted, random_formula, random_pta

F = Fraction


class TestAgainstBruteForce:
    """bounded_modelcheck (tick search + incremental monitor) against the
    brute-force grid enumeration pruned by the batch evaluator on timed
    words: two paths that share neither the search nor the monitor."""

    def test_first_failing_word_and_words_checked(self):
        windows = (FULL, Interval(0, 1, True, True), Interval(1, 2, True, False))
        rng = random.Random(43)
        refuted = unrefuted = later = 0
        for _ in range(200):
            automaton = random_pta(rng)
            formula = random_formula(rng, ["a", "b"], 3)
            if rng.random() < 0.5:
                # an open G window keeps a violation undecided until the word
                # ends, so accepted words that satisfy the formula come first
                formula = Globally(rng.choice(windows), formula)
            violation = negate(compile_formula(formula))
            rho = {"p": rng.choice((F(1, 3), F(1, 2), F(1)))}
            grid = rng.choice((F(1, 2), F(1, 3)))
            horizon = rng.choice((F(3, 2), F(2)))
            strict = rng.random() < 0.5
            events = rng.choice((3, 4))
            verdict = bounded_modelcheck(automaton, formula, [rho], grid, horizon, events, strict)
            def viable(word):
                return prefix_may_satisfy(word, violation)

            words, _ = brute_accepted(automaton, rho, grid, horizon, events, strict, viable)
            failing = [i for i, word in enumerate(words) if not satisfies(word, formula)]
            (result,) = verdict.candidates
            context = (automaton, formula, rho, grid, horizon, events, strict)
            if failing:
                assert result.counterexample == words[failing[0]], context
                assert result.words_checked == failing[0] + 1, context
                assert verdict.outcome == "counterexample-found"
                refuted += 1
                later += failing[0] > 0
            else:
                assert result.counterexample is None, context
                assert result.words_checked == len(words), context
                assert verdict.outcome == "no-counterexample-within-bounds"
                unrefuted += len(words) > 0
        assert refuted >= 50 and unrefuted >= 30 and later >= 15, (refuted, unrefuted, later)
