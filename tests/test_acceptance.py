"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ptamtl.channel import (
    ChannelMachine,
    Configuration,
    enumerate_error_free,
    max_channel,
    step_insertion,
)
from ptamtl.encoding import (
    check_membership,
    decode,
    decompose,
    default_layout,
    encode,
    frac_alignment,
    n_prefix,
)
from ptamtl.formats import parse_program, serialize_formula
from ptamtl.modelcheck import bounded_modelcheck
from ptamtl.mtl import Not, compile_formula, eval_at, satisfies
from ptamtl.pta import (
    ClockConstraint,
    constraint_feasible,
    enumerate_accepted,
    is_deterministic,
    membership,
)
from ptamtl.reduction import (
    build_automaton,
    build_formula,
    check_theorem,
    insertion_mutants,
)
from ptamtl.timedwords import TimedWord

from conftest import (
    random_machine,
    send_receive_machine,
    two_message_machine,
    two_phase_automaton,
)
from util import (
    build_corpus,
    feasible_on_grid,
    insertion_step_oracle,
    naive_eval,
    random_formula,
    random_word,
)

F = Fraction


class _Clock:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def check(self):
        assert self.elapsed < self.budget, f"runtime {self.elapsed:.1f}s over budget"


def _report(number: int, clock: _Clock, message: str):
    print(f"criterion {number}: PASS ({clock.elapsed:.1f}s) - {message}")


def test_criterion_1_cadence_language_reproduction():
    clock = _Clock(5.0)
    automaton = two_phase_automaton()
    for n in (1, 2, 3):
        rho = {"p": F(1, n)}
        expected = TimedWord(
            [("a", F(i, n)) for i in range(1, n + 1)]
            + [("b", F(n + i, n)) for i in range(1, n + 1)]
        )
        words = enumerate_accepted(automaton, rho, F(1, 2 * n), F(2), 2 * n)
        assert words == frozenset({expected}), f"n={n}"
    for rho in (F(2, 3), F(3, 4)):
        words = enumerate_accepted(automaton, {"p": rho}, F(1, 12), F(2), 6)
        assert words == frozenset(), f"p={rho}"
    clock.check()
    _report(1, clock, "unique cadence words for p=1/n, empty otherwise")


def test_criterion_2_determinism_triple():
    clock = _Clock(30.0)
    assert not is_deterministic(two_phase_automaton())
    assert is_deterministic(two_phase_automaton(guarded_loops=True))
    c1 = send_receive_machine()
    assert is_deterministic(build_automaton(c1, "s2"))
    machine = random_machine(seed=7, states=4, messages=2)
    assert is_deterministic(build_automaton(machine, machine.states[-1]))
    clock.check()
    _report(2, clock, "nondeterministic base, deterministic variant and reductions")


def test_criterion_3_round_trip_with_derived_valuation():
    clock = _Clock(30.0)
    checked = 0
    for machine, target in (
        (send_receive_machine(), "s2"),
        (two_message_machine(), "q3"),
    ):
        formula = build_formula(machine, target)
        automaton = build_automaton(machine, target)
        for gamma in enumerate_error_free(machine, target, 8, 3):
            width = max_channel(gamma)
            word = encode(machine, target, gamma, default_layout(width))
            rho = {"p": F(1, width + 1)}
            assert check_membership(word, machine, target, width)
            assert satisfies(word, formula)
            if gamma.steps:
                assert membership(automaton, rho, word)
            assert decode(word, machine, target) == gamma
            checked += 1
    assert checked >= 5
    clock.check()
    _report(3, clock, f"{checked} computations encoded, verified, and decoded back")


def test_criterion_4_insertion_mutants_excluded_by_the_automaton():
    clock = _Clock(30.0)
    total = 0
    for machine, target in (
        (send_receive_machine(), "s2"),
        (two_message_machine(), "q3"),
    ):
        formula = build_formula(machine, target)
        automaton = build_automaton(machine, target)
        for gamma in enumerate_error_free(machine, target, 6, 2):
            if not gamma.steps:
                continue
            width = max_channel(gamma)
            word = encode(machine, target, gamma, default_layout(width))
            for mutant in insertion_mutants(word, machine, count=4):
                assert satisfies(mutant, formula), "formula must tolerate insertions"
                for k in range(1, width + 4):
                    assert not membership(
                        automaton, {"p": F(1, k)}, mutant
                    ), f"automaton must reject mutant at p=1/{k}"
                total += 1
    assert total >= 20
    clock.check()
    _report(4, clock, f"{total} mutants kept by the formula, all rejected by the automaton")


def test_criterion_5_formula_checker_differential_gate():
    clock = _Clock(120.0)
    total = 0
    for machine, target in (
        (send_receive_machine(), "s2"),
        (two_message_machine(), "q3"),
    ):
        corpus, _ = build_corpus(machine, target, step_bound=6, channel_bound=3)
        formula = build_formula(machine, target)
        # the formula as reduce writes it and mc-bounded reads it back
        program = parse_program(serialize_formula(formula))
        assert program == compile_formula(formula)
        for word in corpus:
            by_formula = satisfies(word, program)
            by_checker = check_membership(word, machine, target, n_prefix(word))
            assert by_formula == by_checker, (word, by_formula, by_checker)
            total += 1
    assert total >= 100
    _report(5, clock, f"{total} corpus words, 100% formula/checker agreement")


def test_criterion_6_offset_survival_on_accepted_words():
    clock = _Clock(60.0)
    accepted = 0
    for machine, target in (
        (send_receive_machine(), "s2"),
        (two_message_machine(), "q3"),
    ):
        corpus, _ = build_corpus(machine, target, step_bound=6, channel_bound=3)
        for word in corpus:
            if not check_membership(word, machine, target, n_prefix(word)):
                continue
            accepted += 1
            maps = frac_alignment(word, machine)
            blocks = decompose(word, machine)
            widths = [b.width for b in blocks]
            assert widths == sorted(widths), "widths must never shrink"
            for index, image in enumerate(maps):
                assert list(image) == sorted(set(image)), "maps must strictly increase"
                source = blocks[index]
                targets = blocks[index + 1]
                for j, position in enumerate(image):
                    assert source.offsets[j] == targets.offsets[position - 1]
    assert accepted >= 20
    _report(6, clock, f"offset-survival witnesses on all {accepted} accepted words")


def test_criterion_7_oracle_equivalences():
    clock = _Clock(60.0)

    # (a) closed-form faulty step vs existential oracle, exhaustive
    machine = ChannelMachine(
        ("u", "v"),
        "u",
        ("a", "b"),
        tuple(("u", label, "v") for label in ("a!", "b!", "a?", "b?", "eps")),
    )
    strings = [tuple(s) for k in range(5) for s in itertools.product("ab", repeat=k)]
    pairs = 0
    for label in machine.labels():
        for x1 in strings:
            for x2 in strings:
                closed = step_insertion(machine, Configuration("u", x1), label, Configuration("v", x2))
                oracle = insertion_step_oracle(
                    machine, Configuration("u", x1), label, Configuration("v", x2), witness_len=5
                )
                assert closed == oracle, (label, x1, x2)
                pairs += 1

    # (b) guard feasibility vs bounded grid oracle
    rng = random.Random(13)
    relations = ["<", "<=", "=", ">=", ">"]
    for _ in range(50):
        atoms = []
        for _ in range(rng.randint(1, 4)):
            atoms.append(
                (rng.choice(["x", "y"]), rng.choice(relations), rng.choice([0, 1, 2, 3, "p"]))
            )
        guard = ClockConstraint.of(*atoms)
        verdict = constraint_feasible(guard)
        oracle = feasible_on_grid(guard, max_denominator=4, box=3)
        assert verdict or not oracle, "oracle witness contradicts infeasibility"
        assert not oracle or verdict, "oracle witness requires feasible verdict"

    # (c) table evaluator vs naive recursive reference
    rng = random.Random(8)
    alphabet = ["a", "b", "c"]
    for _ in range(200):
        formula = random_formula(rng, alphabet, 4)
        word = random_word(rng, alphabet, 6)
        for position in range(1, len(word) + 1):
            assert eval_at(word, position, formula) == naive_eval(word, position, formula)

    clock.check()
    _report(7, clock, f"{pairs} faulty-step pairs, 50 guards, 200 formula/word pairs")


def test_criterion_8_counterexample_wiring():
    clock = _Clock(30.0)
    c1 = send_receive_machine()
    bounds = dict(grid=F(1, 2), horizon=F(5), max_events=9, strict_only=True)
    candidates = [{"p": F(1, 2)}]

    automaton = build_automaton(c1, "s2")
    formula = build_formula(c1, "s2")
    verdict = bounded_modelcheck(automaton, Not(formula), candidates, **bounds)
    assert verdict.outcome == "counterexample-found"
    # the search counts repeat only while residual classes stay as they are
    c1_result = verdict.candidates[0]
    assert (c1_result.stats.words_checked, c1_result.stats.nodes_expanded, c1_result.stats.memo_hits) == (1, 18, 4)
    witness = verdict.counterexample
    assert membership(automaton, dict(verdict.valuation), witness)
    assert not satisfies(witness, Not(formula))
    gamma = next(iter(enumerate_error_free(c1, "s2", 8, 3)))
    assert witness == encode(c1, "s2", gamma, default_layout(1))

    # m2 at the Baseline bounds: the first accepted word the monitor lets
    # through is already a counterexample
    m2 = two_message_machine()
    m2_automaton = build_automaton(m2, "q3")
    m2_violation = Not(build_formula(m2, "q3"))
    m2_verdict = bounded_modelcheck(
        m2_automaton, m2_violation, [{"p": F(1, 3)}],
        grid=F(1, 3), horizon=F(7), max_events=16, strict_only=True,
    )  # fmt: skip
    assert m2_verdict.outcome == "counterexample-found"
    assert m2_verdict.candidates[0].stats.words_checked == 1
    m2_result = m2_verdict.candidates[0]
    assert (m2_result.stats.nodes_expanded, m2_result.stats.memo_hits) == (116, 58)
    assert membership(m2_automaton, dict(m2_verdict.valuation), m2_verdict.counterexample)
    assert not satisfies(m2_verdict.counterexample, m2_violation)

    stripped = ChannelMachine(c1.states, c1.initial, c1.messages, (("s0", "m!", "s1"),))
    report = check_theorem(stripped, "s2", 6, 3)
    assert report.outcome == "no-witness"
    stripped_automaton = build_automaton(stripped, "s2")
    stripped_formula = build_formula(stripped, "s2")
    verdict2 = bounded_modelcheck(
        stripped_automaton, Not(stripped_formula), candidates, **bounds
    )
    assert verdict2.outcome == "no-counterexample-within-bounds"
    clock.check()
    _report(8, clock, "c1 and m2 witnesses re-verify; stripped machine inconclusive, no counterexample")
