import hashlib
import random
from fractions import Fraction

import pytest

from ptamtl import formats, reduction
from ptamtl.channel import (
    ChannelMachine,
    Computation,
    Configuration,
    enumerate_error_free,
    max_channel,
    search_error_free,
)
from ptamtl.encoding import check_membership, decode, default_layout, encode, n_prefix
from ptamtl.errors import DecodeInsertionError
from ptamtl.formats import parse_program, serialize_formula
from ptamtl.mtl import compile_formula, satisfies
from ptamtl.pta import is_deterministic, membership
from ptamtl.reduction import (
    Assertion,
    build_automaton,
    build_bundle,
    build_formula,
    check_theorem,
    insertion_mutants,
    machine_alphabet,
    verify_backward,
    verify_forward,
)
from ptamtl.timedwords import TimedWord

import util
from conftest import random_machine
from util import build_corpus

F = Fraction


@pytest.fixture
def gamma_c1(c1):
    return search_error_free(c1, "s2", 4, 2).computation


@pytest.fixture
def w_c1(c1, gamma_c1):
    return encode(c1, "s2", gamma_c1, default_layout(1))


class TestBuildAutomaton:
    def test_shape(self, c1):
        automaton = build_automaton(c1, "s2")
        assert len(automaton.locations) == 5
        assert len(automaton.edges) == 17  # 1 + 1 + |L| + |Sigma|-1 + 1 + |M|+1 + 1
        assert automaton.clocks == ("x",)
        assert automaton.parameters == ("p",)
        assert automaton.initial == frozenset({"1"})
        assert automaton.final == frozenset({"5"})

    def test_deterministic(self, c1, m2):
        assert is_deterministic(build_automaton(c1, "s2"))
        assert is_deterministic(build_automaton(m2, "q3"))
        machine = random_machine(seed=7)
        assert is_deterministic(build_automaton(machine, machine.states[-1]))

    def test_accepts_uniform_encoding(self, c1, w_c1):
        automaton = build_automaton(c1, "s2")
        assert membership(automaton, {"p": F(1, 2)}, w_c1)
        assert not membership(automaton, {"p": F(1, 3)}, w_c1)

    @pytest.mark.parametrize(
        "name", ["true", "false", "inf", "U", "X", "F", "G", "q-0", "q.1", "0", "1a", "\u00e9", "a\u0663"]
    )
    def test_rejects_colliding_names(self, name):
        with pytest.raises(ValueError):
            ChannelMachine(("eps", "b"), "eps", ("m",), ())
        # states and messages become formula atoms, so a formula keyword or a
        # name that is not an identifier is rejected when building the
        # bundle or checking the theorem, as state and as message name
        as_state = ChannelMachine((name, "b"), name, ("m",), ((name, "m!", "b"),))
        as_message = ChannelMachine(("a", "b"), "a", (name,), (("a", f"{name}!", "b"),))
        for machine in (as_state, as_message):
            for build in (build_automaton, build_formula, build_bundle, lambda m, t: check_theorem(m, t, 4, 2)):
                with pytest.raises(ValueError, match="collides with a reserved spelling|is not an identifier"):
                    build(machine, "b")


class TestBuildFormula:
    def test_valid_encoding_satisfies(self, c1, w_c1):
        assert satisfies(w_c1, build_formula(c1, "s2"))

    def test_non_monotonic_word_fails(self, c1):
        word = TimedWord([("s0", 0), ("m!", 0)])
        assert not satisfies(word, build_formula(c1, "s2"))

    def test_insertions_are_invisible_to_the_formula(self, c1, w_c1):
        from ptamtl.encoding import inject_insertion

        mutated = inject_insertion(w_c1, c1, 2, F(17, 20))
        assert satisfies(mutated, build_formula(c1, "s2"))

    def test_atoms_stay_inside_the_alphabet(self, m2):
        from ptamtl.mtl import Atom

        formula = build_formula(m2, "q3")
        alphabet = set(machine_alphabet(m2))
        stack = [formula]
        while stack:
            node = stack.pop()
            if isinstance(node, Atom):
                assert node.name in alphabet
            else:
                stack.extend(
                    getattr(node, field)
                    for field in ("operand", "left", "right")
                    if hasattr(node, field)
                )


class TestFormulaCheckerAgreement:
    """The differential gate: the formula and the membership checker must
    agree on every corpus word, width read off the word's own prefix."""

    @pytest.mark.parametrize("which", ["c1", "m2"])
    def test_corpus_agreement(self, which, c1, m2):
        machine, target = (c1, "s2") if which == "c1" else (m2, "q3")
        corpus, _ = build_corpus(machine, target, step_bound=6, channel_bound=3)
        assert len(corpus) >= (35 if which == "c1" else 100)
        formula = build_formula(machine, target)
        # the formula as reduce writes it and mc-bounded reads it back
        program = parse_program(serialize_formula(formula))
        assert program == compile_formula(formula)
        for word in corpus:
            by_formula = satisfies(word, program)
            by_checker = check_membership(word, machine, target, n_prefix(word))
            assert by_formula == by_checker, (
                f"disagreement on {word!r}: formula={by_formula} checker={by_checker}"
            )


class TestFormulaCheckerBoundaryFuzz:
    """Stacked random mutations of valid encodings probe the accept/reject
    boundary harder than single mutations; the two sides must still agree."""

    def test_stacked_mutations_agree(self, c1, m2):
        import random

        from ptamtl.channel import enumerate_error_free, max_channel
        from ptamtl.encoding import default_layout, encode

        rng = random.Random(1234)
        shifts = [F(1, 4), F(-1, 4), F(1, 20), F(-1, 20), F(1), F(2), F(-2)]
        accepted = 0
        for machine, target in ((c1, "s2"), (m2, "q3")):
            formula = build_formula(machine, target)
            alphabet = machine_alphabet(machine)
            bases = [
                encode(machine, target, gamma, default_layout(max_channel(gamma)))
                for gamma in enumerate_error_free(machine, target, 5, 2)
            ]
            for base in bases:
                for _ in range(60):
                    events = list(base.events)
                    for _ in range(rng.randint(1, 3)):
                        roll = rng.random()
                        index = rng.randrange(len(events))
                        if roll < 0.4:
                            symbol, time = events[index]
                            moved = time + rng.choice(shifts)
                            if moved < 0:
                                continue
                            events[index] = (symbol, moved)
                            events.sort(key=lambda e: e[1])
                        elif roll < 0.7:
                            _, time = events[index]
                            events[index] = (rng.choice(alphabet), time)
                        elif roll < 0.85 and len(events) > 1:
                            del events[index]
                        else:
                            symbol = rng.choice(alphabet)
                            time = F(rng.randint(0, 24), 4)
                            position = 0
                            while position < len(events) and events[position][1] < time:
                                position += 1
                            events.insert(position, (symbol, time))
                    word = TimedWord(events)
                    by_formula = satisfies(word, formula)
                    by_checker = check_membership(word, machine, target, n_prefix(word))
                    assert by_formula == by_checker, word
                    accepted += by_formula
        assert accepted > 0, "fuzz should reach the accept side of the boundary"


class TestVerifyForward:
    def test_send_receive_witness(self, c1, gamma_c1):
        report = verify_forward(build_bundle(c1, "s2"), gamma_c1)
        assert report.ok
        assert report.valuation == {"p": F(1, 2)}
        assert all(a.holds for a in report.assertions)

    def test_two_message_witness_with_thirds(self, m2):
        gamma = next(
            g
            for g in enumerate_error_free(m2, "q3", 8, 3)
            if len(g.steps) == 4 and max_channel(g) == 2
        )
        report = verify_forward(build_bundle(m2, "q3"), gamma)
        assert report.ok
        assert report.valuation == {"p": F(1, 3)}

    def test_faulty_computation_rejected(self, c1):
        faulty = Computation(
            Configuration("s0"),
            (("m!", Configuration("s1", ("m", "m"))), ("m?", Configuration("s2", ("m",)))),
        )
        with pytest.raises(Exception):
            verify_forward(build_bundle(c1, "s2"), faulty)

    def test_channel_free_computation_forces_unit_cadence(self):
        # a zero-width display leaves no room between state and label, so the
        # cadence parameter is pinned to one
        machine = ChannelMachine(("t0", "t1"), "t0", ("m",), (("t0", "eps", "t1"),))
        gamma = search_error_free(machine, "t1", 2, 1).computation
        report = verify_forward(build_bundle(machine, "t1"), gamma)
        assert report.ok
        assert report.valuation == {"p": F(1)}
        assert report.word.symbols == ("t0", "eps", "t1", "*")


class TestVerifyBackward:
    def test_witness_decodes(self, c1, gamma_c1, w_c1):
        report = verify_backward(build_bundle(c1, "s2"), w_c1, 1, {"p": F(1, 2)})
        assert report.applicable and report.ok
        assert report.computation == gamma_c1

    def test_insertion_mutant_is_inapplicable(self, c1, w_c1):
        from ptamtl.encoding import inject_insertion

        mutated = inject_insertion(w_c1, c1, 2, F(17, 20))
        report = verify_backward(build_bundle(c1, "s2"), mutated, 1, {"p": F(1, 2)})
        assert not report.applicable
        assert "automaton rejects" in report.reason

    def test_wrong_valuation_is_inapplicable(self, c1, w_c1):
        report = verify_backward(build_bundle(c1, "s2"), w_c1, 1, {"p": F(1, 3)})
        assert not report.applicable

    def test_refused_decoding_is_a_false_assertion(self, monkeypatch, c1, w_c1):
        def refuse(word, machine, target):
            raise DecodeInsertionError("refused")

        monkeypatch.setattr(reduction, "decode", refuse)
        report = verify_backward(build_bundle(c1, "s2"), w_c1, 1, {"p": F(1, 2)})
        assert report.applicable and not report.ok
        assert Assertion("decodes-error-free", False, "refused") in report.assertions

    def test_a_decoder_defect_propagates(self, monkeypatch, c1, w_c1):
        def broken(word, machine, target):
            raise RuntimeError("bug in decode")

        monkeypatch.setattr(reduction, "decode", broken)
        with pytest.raises(RuntimeError, match="^bug in decode$"):
            verify_backward(build_bundle(c1, "s2"), w_c1, 1, {"p": F(1, 2)})


class TestInsertionExclusion:
    """Insertion mutants satisfy the formula but no candidate valuation makes
    the automaton accept them."""

    def test_battery(self, c1, m2):
        total = 0
        for machine, target in ((c1, "s2"), (m2, "q3")):
            formula = build_formula(machine, target)
            automaton = build_automaton(machine, target)
            for gamma in enumerate_error_free(machine, target, 6, 2):
                width = max_channel(gamma)
                word = encode(machine, target, gamma, default_layout(width))
                if len(gamma.steps) < 1:
                    continue
                for mutant in insertion_mutants(word, machine, count=4):
                    total += 1
                    assert satisfies(mutant, formula)
                    for k in range(1, width + 4):
                        assert not membership(automaton, {"p": F(1, k)}, mutant)
        assert total >= 20

    def test_the_source_word_is_decomposed_once(self, m2, monkeypatch):
        from ptamtl import encoding
        from ptamtl.encoding import decompose, inject_insertion

        gamma = max(enumerate_error_free(m2, "q3", 8, 3), key=lambda g: len(g.steps))
        word = encode(m2, "q3", gamma, default_layout(max_channel(gamma)))
        blocks = decompose(word, m2)
        assert (len(word), len(blocks)) == (36, 9)
        # the documented rotation over blocks 2.. and fresh offsets above every slot
        top = max(max(b.offsets) for b in blocks if b.symbols)
        expected = [
            inject_insertion(word, m2, 2 + (rank - 1) % (len(blocks) - 1), top + (1 - top) * F(rank, 6))
            for rank in range(1, 6)
        ]
        calls = []

        def counting(w, machine):
            calls.append(w)
            return decompose(w, machine)

        monkeypatch.setattr(encoding, "decompose", counting)
        assert insertion_mutants(word, m2, count=5) == expected
        # the source word once, then each mutant once, by its membership check
        assert calls == [word, *expected]


class TestCheckTheorem:
    def test_pass_on_send_receive(self, c1):
        report = check_theorem(c1, "s2", 6, 3)
        assert report.outcome == "pass"
        assert report.search_complete
        assert report.mutants_total == 5
        assert report.mutants_formula_kept == 5
        assert report.mutants_automaton_rejected == 5

    def test_builds_and_compiles_once(self, c1, monkeypatch):
        # the witness and every mutant are checked against one bundle and
        # one compiled formula: one program builder for the whole check
        from ptamtl import mtl

        calls = {"build_automaton": 0, "build_formula": 0, "ProgramBuilder": 0}

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        for name in ("build_automaton", "build_formula"):
            monkeypatch.setattr(reduction, name, counting(name, getattr(reduction, name)))
        monkeypatch.setattr(mtl.ProgramBuilder, "__init__", counting("ProgramBuilder", mtl.ProgramBuilder.__init__))
        report = check_theorem(c1, "s2", 6, 3)
        assert report.outcome == "pass" and report.mutants_total == 5
        assert calls == {"build_automaton": 1, "build_formula": 1, "ProgramBuilder": 1}

    def test_no_witness_when_receive_removed(self, c1):
        stripped = ChannelMachine(
            c1.states, c1.initial, c1.messages, (("s0", "m!", "s1"),)
        )
        report = check_theorem(stripped, "s2", 6, 3)
        assert report.outcome == "no-witness"

    def test_degenerate_zero_step_witness(self):
        machine = ChannelMachine(("s0", "s1"), "s0", ("m",), (("s0", "m!", "s1"),))
        report = check_theorem(machine, "s0", 4, 2)
        assert report.outcome == "pass"
        assert report.computation.steps == ()
        assert any("zero-step" in note for note in report.notes)


class TestBundle:
    def test_round_trips_through_text_formats(self, c1):
        bundle = build_bundle(c1, "s2")
        assert formats.parse_pta(formats.serialize_pta(bundle.automaton)) == bundle.automaton
        assert (
            formats.parse_formula(formats.serialize_formula(bundle.formula))
            == bundle.formula
        )

    def test_the_reduce_output_is_pinned_byte_for_byte(self, c1, m2):
        # the automaton, formula and alphabet texts that reduce writes, over
        # c1, m2 and 20 random machines, each with its last state as target
        rng = random.Random(32)
        cases = [(c1, "s2"), (m2, "q3")] + [(m, m.states[-1]) for m in (util.random_machine(rng) for _ in range(20))]
        digest = hashlib.sha256()
        for machine, target in cases:
            bundle = build_bundle(machine, target)
            text = formats.serialize_pta(bundle.automaton) + serialize_formula(bundle.formula) + " ".join(bundle.alphabet)
            digest.update(text.encode())
        assert digest.hexdigest() == "1c8b16a9f86a7286899a9f633af94ae70966355f411b02481a7f92c3fc5c3ca0"
