import itertools
import random

import pytest

from ptamtl import channel
from ptamtl.channel import (
    ChannelMachine,
    Computation,
    Configuration,
    enumerate_error_free,
    is_error_free,
    label_kind,
    max_channel,
    search_error_free,
    step_exact,
    step_insertion,
    subword,
)
from ptamtl.errors import ComputationValidationError

from util import insertion_step_oracle, random_machine


def C(state, *channel):
    return Configuration(state, tuple(channel))


class TestSubword:
    def test_empty_embeds(self):
        assert subword((), ("m",))

    def test_gap_embedding(self):
        assert subword(("m1", "m2"), ("m1", "m3", "m2"))

    def test_order_matters(self):
        assert not subword(("m2", "m1"), ("m1", "m2"))

    def test_reflexive_transitive_length(self):
        strings = [
            tuple(s) for k in range(4) for s in itertools.product("ab", repeat=k)
        ]
        for x in strings:
            assert subword(x, x)
        for x in strings:
            for y in strings:
                if subword(x, y):
                    assert len(x) <= len(y)
                    for z in strings:
                        if subword(y, z):
                            assert subword(x, z)


class TestStepExact:
    def test_send_appends(self, c1):
        assert step_exact(c1, C("s0"), "m!") == frozenset({C("s1", "m")})

    def test_receive_consumes_head(self, c1):
        assert step_exact(c1, C("s1", "m"), "m?") == frozenset({C("s2")})

    def test_receive_needs_head(self, c1):
        assert step_exact(c1, C("s1"), "m?") == frozenset()

    def test_a_label_no_transition_carries_has_no_successor(self, c1):
        # a malformed label included: only the machine's own labels are classified
        assert step_exact(c1, C("s0"), "foo") == frozenset()

    def test_empty_test(self, m2):
        assert step_exact(m2, C("q0"), "eps") == frozenset({C("q0")})
        assert step_exact(m2, C("q0", "m1"), "eps") == frozenset()


class TestStepInsertion:
    def test_exact_steps_are_included(self, c1):
        assert step_insertion(c1, C("s0"), "m!", C("s1", "m"))

    def test_receive_from_displayed_empty(self, c1):
        assert step_insertion(c1, C("s1"), "m?", C("s2"))

    def test_send_cannot_lose_content(self, c1):
        assert not step_insertion(c1, C("s0", "m"), "m!", C("s1"))

    def test_closed_forms_match_existential_oracle_exhaustively(self):
        # every channel pair of length <= 4 over two messages, every label
        machine = ChannelMachine(
            states=("u", "v"),
            initial="u",
            messages=("a", "b"),
            transitions=tuple(
                ("u", label, "v") for label in ("a!", "b!", "a?", "b?", "eps")
            ),
        )
        strings = [
            tuple(s) for k in range(5) for s in itertools.product("ab", repeat=k)
        ]
        for label in machine.labels():
            for x1 in strings:
                for x2 in strings:
                    closed = step_insertion(machine, C("u", *x1), label, C("v", *x2))
                    oracle = insertion_step_oracle(
                        machine, C("u", *x1), label, C("v", *x2), witness_len=5
                    )
                    assert closed == oracle, (label, x1, x2)

    def test_exact_subset_of_faulty(self, m2):
        configs = [C("q0"), C("q0", "m1"), C("q1", "m1"), C("q2", "m1", "m2")]
        for config in configs:
            for label in m2.labels():
                for nxt in step_exact(m2, config, label):
                    assert step_insertion(m2, config, label, nxt)


class TestComputations:
    def test_error_free_round(self, c1):
        gamma = Computation(
            C("s0"), (("m!", C("s1", "m")), ("m?", C("s2")))
        )
        assert is_error_free(c1, gamma)

    def test_inserted_message_detected(self, c1):
        gamma = Computation(
            C("s0"), (("m!", C("s1", "m", "m")), ("m?", C("s2", "m")))
        )
        assert not is_error_free(c1, gamma)

    def test_empty_computation_is_error_free(self, c1):
        assert is_error_free(c1, Computation(C("s0")))

    def test_invalid_chaining_rejected(self, c1):
        broken = Computation(C("s0"), (("m?", C("s2")),))
        with pytest.raises(ComputationValidationError):
            is_error_free(c1, broken)

    def test_max_channel(self, c1):
        gamma = Computation(C("s0"), (("m!", C("s1", "m")), ("m?", C("s2"))))
        assert max_channel(gamma) == 1
        assert max_channel(Computation(C("s0"))) == 0
        two = Computation(
            C("s0"), (("m!", C("s1", "m")), ("m!", C("s1", "m", "m")))
        )
        assert max_channel(two) == 2


class TestSearch:
    def test_shortest_witness(self, c1):
        result = search_error_free(c1, "s2", 4, 2)
        assert result.computation is not None and not result.truncated
        assert result.computation.labels == ("m!", "m?")
        assert is_error_free(c1, result.computation)
        assert result.computation.final.state == "s2"

    def test_initial_state_trivial(self, c1):
        result = search_error_free(c1, "s0", 3, 3)
        assert result.computation is not None
        assert result.computation.steps == ()

    def test_no_transitions(self):
        machine = ChannelMachine(("a0", "a1"), "a0", ("m",), ())
        result = search_error_free(machine, "a1", 5, 5)
        assert result.computation is None
        assert not result.truncated  # space fully explored, genuinely unreachable

    def test_bound_exhaustion_is_flagged(self):
        # only reachable by growing the channel past the bound
        machine = ChannelMachine(
            ("b0", "b1"),
            "b0",
            ("m",),
            (("b0", "m!", "b0"),),
        )
        result = search_error_free(machine, "b1", 10, 2)
        assert result.computation is None
        assert result.truncated

    @pytest.mark.parametrize(
        "transitions, max_steps, found, truncated",
        [
            # a0 and a1 swap forever: the cut at a1 meets only a0, already seen
            ((("a0", "eps", "a1"), ("a1", "eps", "a0")), 1, False, False),
            ((("a0", "eps", "a1"), ("a1", "eps", "a2")), 1, False, True),
            ((("a0", "eps", "a1"), ("a1", "eps", "a2")), 2, True, False),
        ],
        ids=["cut-meets-seen", "cut-hides-target", "within-bound"],
    )
    def test_step_bound_cuts_only_an_unexplored_successor(
        self, transitions, max_steps, found, truncated
    ):
        machine = ChannelMachine(("a0", "a1", "a2"), "a0", ("m",), transitions)
        result = search_error_free(machine, "a2", max_steps, 2)
        assert (result.computation is not None) == found
        assert result.truncated == truncated

    def test_enumeration_matches_expectations(self, m2):
        found = enumerate_error_free(m2, "q3", 8, 3)
        assert found, "expected witnesses"
        for gamma in found:
            assert is_error_free(m2, gamma)
            assert gamma.final.state == "q3"
            assert all(c.state != "q3" for c in gamma.configurations[:-1])
        labels = {gamma.labels for gamma in found}
        assert ("m1!", "m2!", "m1?") in labels
        assert ("eps", "m1!", "m2!", "m1?") in labels

    def test_enumeration_is_depth_first_without_recursion(self, m2):
        # the order is the depth-first one, which the benchmark pools are built from
        found = enumerate_error_free(m2, "q3", 6, 3)
        assert [" ".join(gamma.labels) for gamma in found] == [
            "m1! m2! m1?",
            "eps m1! m2! m1?",
            "eps eps m1! m2! m1?",
            "eps eps eps m1! m2! m1?",
        ]
        # a chain s0 eps s1 eps ... s1200 is walked in one computation of 1,200 steps
        states = tuple(f"s{i}" for i in range(1201))
        chain = ChannelMachine(states, "s0", ("m",), tuple((a, "eps", b) for a, b in zip(states, states[1:])))
        assert [gamma.labels for gamma in enumerate_error_free(chain, "s1200", 1200, 1)] == [("eps",) * 1200]
        assert enumerate_error_free(chain, "s1200", 1199, 1) == []


def minimal_faulty_steps(machine, config):
    """The exact steps out of a configuration, read off the faulty relation
    instead: for each label in machine order, the step_insertion successors
    that insert nothing (the channel grows by one on a send, shrinks by one
    on a receive and is empty after an empty test), by (state, channel)."""
    k = len(config.channel)
    for label in machine.labels():
        length = {"send": k + 1, "recv": k - 1, "empty": 0}[label_kind(label)[0]]
        channels = list(itertools.product(machine.messages, repeat=length)) if length >= 0 else []
        after = [Configuration(state, c) for state in machine.states for c in channels]
        for nxt in sorted(after, key=lambda c: (c.state, c.channel)):
            if step_insertion(machine, config, label, nxt):
                yield label, nxt


class TestSuccessorIndex:
    """The searches read each state's transitions from the machine's index;
    the steps they see must be the faulty relation's minimal ones, in its
    label-by-label order."""

    def machines(self, c1, m2):
        rng = random.Random(29)
        return [c1, m2] + [random_machine(rng) for _ in range(60)]

    def test_indexed_successors_are_the_exact_steps(self, c1, m2):
        repeats = 0
        for machine in self.machines(c1, m2):
            repeats += len(set(machine.transitions)) < len(machine.transitions)
            channels = [c for k in range(3) for c in itertools.product(machine.messages, repeat=k)]
            for state in machine.states:
                for content in channels:
                    config = Configuration(state, content)
                    expected = list(minimal_faulty_steps(machine, config))
                    assert list(channel._successors(machine, config)) == expected, (machine, config)
        assert repeats  # a repeated transition is one step

    def test_searches_are_those_of_the_label_by_label_steps(self, c1, m2, monkeypatch):
        cases = [(c1, "s2"), (m2, "q3")] + [(m, m.states[-1]) for m in self.machines(c1, m2)[2:]]
        indexed = [(enumerate_error_free(m, t, 6, 2), search_error_free(m, t, 6, 2)) for m, t in cases]
        monkeypatch.setattr(channel, "_successors", minimal_faulty_steps)
        assert indexed == [(enumerate_error_free(m, t, 6, 2), search_error_free(m, t, 6, 2)) for m, t in cases]
        assert sum(bool(found) for found, _ in indexed) > 10
