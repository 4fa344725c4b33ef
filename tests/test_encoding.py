from collections import Counter
from fractions import Fraction

import pytest

from ptamtl import encoding
from ptamtl.channel import (
    ChannelMachine,
    Computation,
    Configuration,
    enumerate_error_free,
    max_channel,
    search_error_free,
)
from ptamtl.encoding import (
    HASH,
    ConfigBlock,
    EncodingLayout,
    check_membership,
    decode,
    decompose,
    default_layout,
    encode,
    explain_membership,
    frac_alignment,
    inject_insertion,
    insertion_mutants,
    max_width,
    n_prefix,
)
from ptamtl.errors import (
    AlignmentViolationError,
    DecodeInsertionError,
    DecodeStructureError,
    EncodingPreconditionError,
    InjectionError,
)
from ptamtl.timedwords import TimedWord

from conftest import random_machine
from util import build_corpus, fraction_decompose

F = Fraction


def W(*pairs):
    return TimedWord(pairs)


@pytest.fixture
def gamma_c1(c1):
    return search_error_free(c1, "s2", 4, 2).computation


@pytest.fixture
def w_c1(c1, gamma_c1):
    return encode(c1, "s2", gamma_c1, default_layout(1))


def chain_machine(prefix: str, labels: list[str], messages=("m1", "m2")) -> ChannelMachine:
    """A linear machine executing exactly the given label sequence."""
    states = tuple(f"{prefix}{i}" for i in range(len(labels) + 1))
    transitions = tuple(
        (states[i], label, states[i + 1]) for i, label in enumerate(labels)
    )
    return ChannelMachine(states, states[0], messages, transitions)


def block_word(machine: ChannelMachine, displays: list[list[tuple[str, str]]], labels: list[str]):
    """Assemble a word from per-block displays [(symbol, offset-string), ...]."""
    states = [machine.initial]
    for label, (src, lab, dst) in zip(labels, machine.transitions):
        assert label == lab
        states.append(dst)
    events = []
    for index, display in enumerate(displays):
        base = 2 * index
        events.append((states[index], F(base)))
        for symbol, offset in display:
            events.append((symbol, base + F(offset)))
        trailer = labels[index] if index < len(labels) else "*"
        events.append((trailer, F(base + 1)))
    return TimedWord(events)


class TestDecompose:
    def test_w_c1_blocks(self, c1, w_c1):
        blocks = decompose(w_c1, c1)
        assert [b.state for b in blocks] == ["s0", "s1", "s2"]
        assert [b.width for b in blocks] == [1, 1, 1]
        assert [b.trailer for b in blocks] == ["m!", "m?", "*"]

    def test_marker_must_come_one_unit_after_state(self, c1):
        with pytest.raises(DecodeStructureError):
            decompose(W(("s0", 0), ("*", "1/2")), c1)

    def test_trailing_junk_rejected(self, c1):
        with pytest.raises(DecodeStructureError):
            decompose(W(("s0", 0), ("*", 1), ("m", 2)), c1)

    def test_error_names_first_offending_event(self, c1):
        with pytest.raises(DecodeStructureError) as err:
            decompose(W(("s0", 0), ("m", "3/2")), c1)
        assert "event 2" in str(err.value)

    def test_three_slot_block(self):
        machine = chain_machine("u", ["m1!", "m2!", "m1!"])
        word = block_word(
            machine,
            [
                [("#", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("m2", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("m2", "7/10"), ("m1", "4/5")],
            ],
            ["m1!", "m2!", "m1!"],
        )
        blocks = decompose(word, machine)
        assert [b.width for b in blocks] == [3, 3, 3, 3]
        assert blocks[2].messages() == ("m1", "m2")

    def test_blocks_carry_their_offsets_as_ticks(self, c1):
        # the checker compares offsets by these integers; ``offsets`` renders
        # them as rationals on the word's scale
        word = TimedWord(THIRDS)
        scale, _ = word.ticks
        for block in decompose(word, c1):
            ticks = tuple(t for _, t in block.symbols)
            assert block.scale == scale
            assert ticks == tuple(int(offset * scale) for offset in block.offsets)
            assert all(type(t) is int for t in ticks)
            by_hand = ConfigBlock(block.state, block.start, block.symbols, block.trailer, scale)
            assert by_hand == block and hash(by_hand) == hash(block) and repr(by_hand) == repr(block)


# c1's encoding timed in thirds and halves: base offset 1/3, one slot at 1/2
THIRDS = [
    ("s0", "1/3"), ("#", "5/6"), ("m!", "4/3"),
    ("s1", "7/3"), ("m", "17/6"), ("m?", "10/3"),
    ("s2", "13/3"), ("#", "29/6"), ("*", "16/3"),
]  # fmt: skip

# one broken word per structure reason, with the message decompose raises
STRUCTURE_ERRORS = [
    ([("m", "1/3")] + THIRDS[1:], "event 1 (m@1/3): expected a control-state symbol"),
    (
        THIRDS[:4] + [("m?", "17/6")],
        "event 5 (m?@17/6): only message or hash symbols may appear inside a block",
    ),
    (
        THIRDS[:6] + [("s2", "13/3"), ("#", "13/3")],
        "event 8 (#@13/3): display symbols must come strictly after the state symbol",
    ),
    (
        THIRDS[:4] + [("m", "8/3"), ("#", "8/3")],
        "event 6 (#@8/3): display offsets must be strictly increasing",
    ),
    (THIRDS[:8], "event 8 (#@29/6): block is not closed by a label or the end marker"),
    (
        THIRDS[:5] + [("m?", "7/2")],
        "event 6 (m?@7/2): expected the label or end marker exactly one unit after the state",
    ),
    (THIRDS + [("#", "16/3")], "event 10 (#@16/3): no event may follow the end marker"),
    (
        THIRDS[:5] + [("s0", "10/3")],
        "event 6 (s0@10/3): expected a transition label or the end marker",
    ),
    (THIRDS[:6], "event 6 (m?@10/3): a label must be followed by the next state symbol"),
    (
        THIRDS[:6] + [("s2", "9/2")],
        "event 7 (s2@9/2): expected the next state symbol exactly two units after the previous",
    ),
    (
        THIRDS[:3] + [("#", "7/3")],
        "event 4 (#@7/3): expected a control-state symbol two units after the previous",
    ),
]


def outcomes(word, machine, target):
    """What decode, explain_membership and insertion_mutants make of a word."""

    def attempt(call):
        try:
            return call()
        except Exception as error:
            return type(error).__name__, str(error)

    return (
        attempt(lambda: decode(word, machine, target)),
        explain_membership(word, machine, target, n_prefix(word)),
        attempt(lambda: insertion_mutants(word, machine, 2)),
    )


class TestDecomposeOnTicks:
    def test_thirds_word_is_a_member(self, c1):
        word = TimedWord(THIRDS)
        assert word.ticks[0] == 6
        assert check_membership(word, c1, "s2", 1)
        assert [b.offsets for b in decompose(word, c1)] == [(F(1, 2),)] * 3

    @pytest.mark.parametrize("events, message", STRUCTURE_ERRORS)
    def test_structure_message(self, c1, events, message):
        word = TimedWord(events)
        assert word.ticks[0] == 6
        with pytest.raises(DecodeStructureError) as caught:
            decompose(word, c1)
        assert str(caught.value) == message
        assert explain_membership(word, c1, "s2", 1) == f"structure: {message}"
        with pytest.raises(DecodeStructureError) as caught:
            fraction_decompose(word, c1)
        assert str(caught.value) == message

    def test_every_reason_is_covered(self):
        reasons = {message.split(": ", 1)[1] for _, message in STRUCTURE_ERRORS}
        assert len(reasons) == len(STRUCTURE_ERRORS) == 11

    @pytest.mark.parametrize("machine, target", [("c1", "s2"), ("m2", "q3")])
    def test_offsets_are_fractions_from_the_block_start(self, request, machine, target):
        machine = request.getfixturevalue(machine)
        corpus, _ = build_corpus(machine, target, step_bound=8, channel_bound=3)
        for word in corpus:
            try:
                blocks = decompose(word, machine)
            except DecodeStructureError:
                continue
            events = iter(word.events)
            for block in blocks:
                assert next(events) == (block.state, block.start)
                for (symbol, _), offset in zip(block.symbols, block.offsets):
                    s, t = next(events)
                    assert type(offset) is Fraction
                    assert (symbol, offset) == (s, t - block.start)
                assert next(events) == (block.trailer, block.start + 1)

    @pytest.mark.parametrize("machine, target", [("c1", "s2"), ("m2", "q3")])
    def test_results_match_the_fraction_reference(self, request, monkeypatch, machine, target):
        # the corpus holds encodings under layouts with denominators 2w + 3
        # and 3w + 4, their insertion mutants and single-event mutations
        machine = request.getfixturevalue(machine)
        corpus, mutants = build_corpus(machine, target, step_bound=8, channel_bound=3)
        assert mutants > 0
        assert any(word.ticks[0] > 1 for word in corpus)
        for word in corpus:
            try:
                blocks = decompose(word, machine)
            except DecodeStructureError:
                continue
            assert fraction_decompose(word, machine) == blocks
        by_ticks = [outcomes(word, machine, target) for word in corpus]
        monkeypatch.setattr(encoding, "decompose", fraction_decompose)
        by_fractions = [outcomes(word, machine, target) for word in corpus]
        assert by_ticks == by_fractions
        assert any(result[1] is None for result in by_ticks)
        assert any((result[1] or "").startswith("structure: ") for result in by_ticks)


class TestCheckMembership:
    def test_w_c1_at_declared_width(self, c1, w_c1):
        assert check_membership(w_c1, c1, "s2", 1)

    def test_wrong_declared_width(self, c1, w_c1):
        assert not check_membership(w_c1, c1, "s2", 2)

    def test_missing_copy_detected(self, c1, w_c1):
        moved = [
            (s, F(13, 5) if (s, t) == ("m", F(5, 2)) else t) for s, t in w_c1
        ]
        assert not check_membership(TimedWord(moved), c1, "s2", 1)

    def test_write_replaces_first_hash(self):
        machine = chain_machine("u", ["m1!", "m2!", "m1!"])
        word = block_word(
            machine,
            [
                [("#", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("m2", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("m2", "7/10"), ("m1", "4/5")],
            ],
            ["m1!", "m2!", "m1!"],
        )
        assert check_membership(word, machine, "u3", 3)

    def test_write_overflow_appends_at_fresh_offset(self):
        machine = chain_machine("v", ["m1!", "m2!", "m1!", "m1!"])
        word = block_word(
            machine,
            [
                [("#", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("m2", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("m2", "7/10"), ("m1", "4/5")],
                [
                    ("m1", "1/5"),
                    ("m2", "7/10"),
                    ("m1", "4/5"),
                    ("m1", "9/10"),
                ],
            ],
            ["m1!", "m2!", "m1!", "m1!"],
        )
        assert check_membership(word, machine, "v4", 3)
        assert max_width(word, machine) == 4

    def test_matching_read_shifts_display_left(self):
        machine = chain_machine("w", ["m1!", "m2!", "m1?"])
        word = block_word(
            machine,
            [
                [("#", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("m2", "7/10"), ("#", "4/5")],
                [("m2", "1/5"), ("#", "7/10"), ("#", "4/5")],
            ],
            ["m1!", "m2!", "m1?"],
        )
        assert check_membership(word, machine, "w3", 3)

    def test_mismatched_read_appends_hash(self):
        machine = chain_machine("z", ["m2!", "m1?"])
        word = block_word(
            machine,
            [
                [("#", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m2", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [
                    ("m2", "1/5"),
                    ("#", "7/10"),
                    ("#", "4/5"),
                    ("#", "9/10"),
                ],
            ],
            ["m2!", "m1?"],
        )
        assert check_membership(word, machine, "z2", 3)
        assert max_width(word, machine) == 4

    def test_write_from_empty_display_needs_the_message(self):
        machine = chain_machine("e", ["m1!"])
        good = W(("e0", 0), ("m1!", 1), ("e1", 2), ("m1", "5/2"), ("*", 3))
        bad = W(("e0", 0), ("m1!", 1), ("e1", 2), ("*", 3))
        assert check_membership(good, machine, "e1", 0)
        assert not check_membership(bad, machine, "e1", 0)

    def test_read_from_empty_display_is_an_insertion(self):
        machine = chain_machine("r", ["m1?"])
        word = W(("r0", 0), ("m1?", 1), ("r1", 2), ("#", "5/2"), ("*", 3))
        assert check_membership(word, machine, "r1", 0)
        assert max_width(word, machine) == 1

    def test_diagnostics_name_the_condition(self, c1, w_c1):
        assert explain_membership(w_c1, c1, "s2", 1) is None
        reason = explain_membership(w_c1, c1, "s2", 2)
        assert "declared width" in reason

    @pytest.mark.parametrize(
        "labels, displays, width, expected, renamed",
        [
            (
                ["m1!"],
                [[("#", "0")], [("m1", "0")]],
                1,
                "structure: event 2 (#@0): display symbols must come strictly after "
                "the state symbol",
                {},
            ),
            (
                ["m1!"],
                [[("m1", "1/2")], [("m1", "1/2")]],
                1,
                "the initial display must consist of hash symbols only",
                {},
            ),
            (
                ["m1!", "m2!"],
                [[("#", "1/4"), ("#", "1/2")], [("m1", "1/4"), ("#", "1/2")]],
                2,
                "word ends in x1, not the target state",
                {},
            ),
            (
                ["m1!"],
                [[("#", "1/2")], [("#", "1/4"), ("m1", "1/2")]],
                1,
                "block 2: hash symbols may only follow message symbols",
                {},
            ),
            (
                ["eps", "eps"],
                [[], [("m1", "1/2")], []],
                0,
                "block 2: empty test over a non-empty display",
                {},
            ),
            (
                ["m1!", "m2!"],
                [[("#", "1/2")], [("m1", "1/2")], [("m2", "3/4")]],
                1,
                "block 2: symbol at offset 1/2 is not copied forward",
                {},
            ),
            (
                ["m1!", "m2?"],
                [[("#", "1/2")], [("m1", "1/2")], [("#", "3/4")]],
                1,
                "block 2: symbol at offset 1/2 is not copied forward",
                {},
            ),
            # the cases below are timed in sixths and twelfths, so a tick
            # count or an unreduced fraction in a message would show
            (
                ["m1!", "m2!", "m1?"],
                [
                    [("#", "1/6"), ("#", "3/4")],
                    [("m1", "1/6"), ("#", "3/4")],
                    [("m1", "1/6"), ("m2", "3/4")],
                    [("m1", "1/6"), ("#", "3/4")],
                ],
                2,
                "block 3: symbol at offset 3/4 must shift to offset 1/6 two units later",
                {},
            ),
            (
                ["m1!", "m2!"],
                [[("#", "1/6"), ("#", "3/4")], [("m1", "1/6"), ("#", "3/4")], [("m1", "1/6"), ("#", "3/4")]],
                2,
                "block 2: first hash (offset 3/4) must become 'm2' two units later",
                {},
            ),
            (
                ["m1!", "m1?"],
                [[("#", "1/6"), ("#", "3/4")], [("m1", "1/6"), ("#", "3/4")], [("#", "1/6")]],
                2,
                "block 2: a hash must appear in the freed last slot",
                {},
            ),
            (
                ["m1!", "m2?"],
                [[("#", "5/12")], [("m1", "5/12")], [("m1", "5/12"), ("m2", "11/12")]],
                1,
                "block 2: the appended '#' must be the only display symbol after the copied ones",
                {},
            ),
            (
                ["m1!", "m2!"],
                [[("#", "5/12")], [("m1", "5/12")], [("m2", "3/4")]],
                1,
                AlignmentViolationError("offset 5/12 of block 2 has no counterpart in block 3"),
                {},
            ),
            (
                ["m1!", "m2!"],
                [[("#", "1/6")], [("m1", "1/6")], [("m1", "1/6"), ("m2", "3/4")]],
                1,
                "block 1: no transition (x0, m1!, x2)",
                {"x1": "x2"},
            ),
            (
                ["eps", "eps"],
                [[("#", "1/6")], [("#", "1/6")], [("#", "1/6")]],
                1,
                "block 2: target state must be closed by the end marker",
                {"x2": "x1"},
            ),
            (
                ["m1!"],
                [[("#", "1/6")], [("m1", "1/6")]],
                1,
                "word starts with x1, not the initial state",
                {"x0": "x1"},
            ),
            (
                ["m1!"],
                [[("#", "1/6"), ("#", "3/4")], [("m1", "1/6"), ("#", "3/4")]],
                1,
                "initial display has 2 symbols, declared width is 1",
                {},
            ),
        ],
        ids=[
            "display-at-state-time",
            "initial-display-not-hashes",
            "ends-outside-target",
            "hash-before-message",
            "empty-test-non-empty-display",
            "full-send-uncopied",
            "mismatched-receive-uncopied",
            "matching-receive-unshifted",
            "send-first-hash-unreplaced",
            "matching-receive-freed-slot-empty",
            "mismatched-receive-append-not-alone",
            "offset-without-counterpart",
            "step-off-the-machine",
            "target-before-the-end",
            "starts-outside-initial",
            "initial-width-mismatch",
        ],
    )
    def test_each_outcome_has_its_message(self, labels, displays, width, expected, renamed):
        # ``renamed`` replaces state names in the word and the target, so a
        # word can leave the chain machine's path; an AlignmentViolationError
        # is what frac_alignment raises, a text what explain_membership returns
        machine = chain_machine("x", labels)
        word = block_word(machine, displays, labels[: len(displays) - 1])
        word = TimedWord([(renamed.get(s, s), t) for s, t in word])
        target = f"x{len(labels)}"
        if isinstance(expected, AlignmentViolationError):
            with pytest.raises(AlignmentViolationError) as caught:
                frac_alignment(word, machine)
            assert str(caught.value) == str(expected)
        else:
            assert explain_membership(word, machine, renamed.get(target, target), width) == expected


class TestEncode:
    def test_send_receive_round(self, c1, gamma_c1, w_c1):
        assert w_c1 == W(
            ("s0", 0),
            ("#", "1/2"),
            ("m!", 1),
            ("s1", 2),
            ("m", "5/2"),
            ("m?", 3),
            ("s2", 4),
            ("#", "9/2"),
            ("*", 5),
        )

    def test_layout_width_must_match(self, c1, gamma_c1):
        with pytest.raises(EncodingPreconditionError):
            encode(c1, "s2", gamma_c1, default_layout(2))

    def test_rejects_faulty_computation(self, c1):
        faulty = Computation(
            Configuration("s0"),
            (("m!", Configuration("s1", ("m", "m"))), ("m?", Configuration("s2", ("m",)))),
        )
        with pytest.raises(EncodingPreconditionError):
            encode(c1, "s2", faulty, default_layout(2))

    def test_malformed_label_is_a_precondition(self, c1):
        gamma = Computation(Configuration("s0"), (("zz", Configuration("s1")),))
        with pytest.raises(EncodingPreconditionError, match="^malformed label 'zz'$"):
            encode(c1, "s1", gamma, default_layout(0))

    def test_a_checker_defect_propagates(self, monkeypatch, c1, gamma_c1):
        def broken(machine, computation):
            raise RuntimeError("bug")

        monkeypatch.setattr(encoding, "is_error_free", broken)
        with pytest.raises(RuntimeError, match="^bug$"):
            encode(c1, "s2", gamma_c1, default_layout(1))

    def test_base_offset_shifts_everything(self, c1, gamma_c1):
        layout = EncodingLayout(F(1, 3), (F(1, 2),))
        word = encode(c1, "s2", gamma_c1, layout)
        assert word.times[0] == F(1, 3)
        assert check_membership(word, c1, "s2", 1)

    def test_every_encoding_passes_the_checker(self, m2):
        for gamma in enumerate_error_free(m2, "q3", 8, 3):
            width = max_channel(gamma)
            word = encode(m2, "q3", gamma, default_layout(width))
            assert check_membership(word, m2, "q3", width)
            assert max_width(word, m2) == width
            assert len(decompose(word, m2)) == len(gamma.steps) + 1


class TestDecode:
    def test_inverse_of_encode(self, c1, gamma_c1, w_c1):
        assert decode(w_c1, c1, "s2") == gamma_c1

    def test_round_trip_for_all_searched_computations(self, c1, m2):
        for machine, target in ((c1, "s2"), (m2, "q3")):
            for gamma in enumerate_error_free(machine, target, 8, 3):
                word = encode(machine, target, gamma, default_layout(max_channel(gamma)))
                assert decode(word, machine, target) == gamma

    def test_insertion_raises(self, c1, w_c1):
        mutated = inject_insertion(w_c1, c1, 2, F(17, 20))
        with pytest.raises(DecodeInsertionError):
            decode(mutated, c1, "s2")

    def test_non_member_raises_structure_error(self, c1):
        with pytest.raises(DecodeStructureError) as caught:
            decode(W(("s0", 0), ("m!", "1/2")), c1, "s2")
        assert str(caught.value) == (
            "structure: event 2 (m!@1/2): only message or hash symbols may appear "
            "inside a block"
        )


class TestMaxWidth:
    def test_send_receive_word(self, c1, w_c1):
        assert max_width(w_c1, c1) == 1

    def test_zero_width_block(self):
        machine = chain_machine("e", ["m1!"])
        assert max_width(W(("e0", 0), ("m1!", 1), ("e1", 2), ("m1", "5/2"), ("*", 3)), machine) == 1
        assert max_width(W(("e0", 0), ("*", 1)), machine) == 0


class TestFracAlignment:
    def test_identity_on_uniform_word(self, c1, w_c1):
        assert frac_alignment(w_c1, c1) == [(1,), (1,)]

    def test_shifted_read_keeps_offsets(self):
        machine = chain_machine("w", ["m1!", "m2!", "m1?"])
        word = block_word(
            machine,
            [
                [("#", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m1", "1/5"), ("m2", "7/10"), ("#", "4/5")],
                [("m2", "1/5"), ("#", "7/10"), ("#", "4/5")],
            ],
            ["m1!", "m2!", "m1?"],
        )
        assert frac_alignment(word, machine) == [(1, 2, 3)] * 3

    def test_growing_word_embeds(self):
        machine = chain_machine("z", ["m2!", "m1?"])
        word = block_word(
            machine,
            [
                [("#", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m2", "1/5"), ("#", "7/10"), ("#", "4/5")],
                [("m2", "1/5"), ("#", "7/10"), ("#", "4/5"), ("#", "9/10")],
            ],
            ["m2!", "m1?"],
        )
        assert frac_alignment(word, machine) == [(1, 2, 3), (1, 2, 3)]


class TestInjectInsertion:
    def test_stays_in_language_and_grows_width(self, c1, w_c1):
        mutated = inject_insertion(w_c1, c1, 2, F(17, 20))
        assert check_membership(mutated, c1, "s2", 1)
        assert max_width(mutated, c1) == max_width(w_c1, c1) + 1
        assert n_prefix(mutated) == 1

    def test_collision_rejected(self, c1, w_c1):
        with pytest.raises(InjectionError):
            inject_insertion(w_c1, c1, 2, F(1, 2))

    def test_alignment_tolerates_insertions(self, c1, w_c1):
        mutated = inject_insertion(w_c1, c1, 2, F(17, 20))
        maps = frac_alignment(mutated, c1)
        for image in maps:
            assert list(image) == sorted(image)

    def test_block_one_is_off_limits(self, c1, w_c1):
        with pytest.raises(InjectionError):
            inject_insertion(w_c1, c1, 1, F(17, 20))

    def test_double_injection(self, c1, w_c1):
        once = inject_insertion(w_c1, c1, 2, F(17, 20))
        twice = inject_insertion(once, c1, 3, F(19, 20))
        assert check_membership(twice, c1, "s2", 1)
        assert max_width(twice, c1) == 3

    @pytest.mark.parametrize(
        "machine_name, block_index, offset, rule",
        [
            # on block 2's slot at 1/2
            ("c1", 2, F(1, 2), "display offsets must be strictly increasing"),
            # below block 2's message at 1/2
            ("c1", 2, F(1, 4), "block 2: hash symbols may only follow message symbols"),
            # below the hash at 2/3 that the send out of block 2 replaces by
            # m2, so the copy lands before m2 in block 3
            ("m2", 2, F(1, 2), "block 3: hash symbols may only follow message symbols"),
        ],
    )
    def test_refusal_names_the_violated_rule(self, c1, m2, machine_name, block_index, offset, rule):
        machine, target = {"c1": (c1, "s2"), "m2": (m2, "q3")}[machine_name]
        gamma = search_error_free(machine, target, 8, 3).computation
        word = encode(machine, target, gamma, default_layout(max_channel(gamma)))
        with pytest.raises(InjectionError, match=rule):
            inject_insertion(word, machine, block_index, offset)

    def test_valid_exactly_when_the_checker_accepts_the_mutant(self, c1, m2):
        """Every block from 2 on, at offsets k/24 and at every slot offset:
        an injection succeeds exactly when the plain mutant is a member at
        the word's declared width, and then it is that mutant."""
        cases = [(c1, "s2"), (m2, "q3")]
        cases += [(random_machine(seed), target) for seed, target in ((2, "r1"), (4, "r2"), (5, "r3"), (11, "r1"))]
        tally = Counter()
        for machine, target in cases:
            for gamma in enumerate_error_free(machine, target, 6, 2):
                word = encode(machine, target, gamma, default_layout(max_channel(gamma)))
                blocks = decompose(word, machine)
                offsets = {F(k, 24) for k in range(1, 24)} | {o for block in blocks for o in block.offsets}
                for block_index in range(2, len(blocks) + 1):
                    for offset in sorted(offsets):
                        hashes = tuple((HASH, block.start + offset) for block in blocks[block_index - 1 :])
                        mutant = TimedWord(sorted(word.events + hashes, key=lambda event: event[1]))
                        member = check_membership(mutant, machine, target, n_prefix(word))
                        try:
                            injected = inject_insertion(word, machine, block_index, offset)
                        except InjectionError as error:
                            assert not member, (word, block_index, offset)
                            tally[str(error).rsplit(": ", 1)[-1]] += 1
                        else:
                            assert member and injected == mutant, (word, block_index, offset)
                            tally["accepted"] += 1
        # slot collisions and hashes before a message both occur
        assert tally["accepted"] > 0, tally
        assert tally["display offsets must be strictly increasing"] > 0, tally
        assert tally["hash symbols may only follow message symbols"] > 0, tally


class TestWidthMonotonicity:
    def test_widths_never_shrink_on_members(self, c1, m2):
        for machine, target in ((c1, "s2"), (m2, "q3")):
            for gamma in enumerate_error_free(machine, target, 6, 2):
                width = max_channel(gamma)
                word = encode(machine, target, gamma, default_layout(width))
                for mutated in (word, inject_insertion(word, machine, 2, F(39, 40)) if len(decompose(word, machine)) >= 2 else word):
                    widths = [b.width for b in decompose(mutated, machine)]
                    assert widths == sorted(widths)
