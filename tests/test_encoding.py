from fractions import Fraction

import pytest

from ptamtl.channel import (
    ChannelMachine,
    Computation,
    Configuration,
    enumerate_error_free,
    max_channel,
    search_error_free,
)
from ptamtl.encoding import (
    EncodingLayout,
    check_membership,
    decode,
    decompose,
    default_layout,
    encode,
    explain_membership,
    frac_alignment,
    inject_insertion,
    max_width,
    n_prefix,
)
from ptamtl.errors import (
    DecodeInsertionError,
    DecodeStructureError,
    EncodingPreconditionError,
    InjectionError,
)
from ptamtl.timedwords import TimedWord

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
        "labels, displays, width, expected",
        [
            (
                ["m1!"],
                [[("#", "0")], [("m1", "0")]],
                1,
                "structure: event 2 (#@0): display symbols must come strictly after "
                "the state symbol",
            ),
            (
                ["m1!"],
                [[("m1", "1/2")], [("m1", "1/2")]],
                1,
                "the initial display must consist of hash symbols only",
            ),
            (
                ["m1!", "m2!"],
                [[("#", "1/4"), ("#", "1/2")], [("m1", "1/4"), ("#", "1/2")]],
                2,
                "word ends in x1, not the target state",
            ),
            (
                ["m1!"],
                [[("#", "1/2")], [("#", "1/4"), ("m1", "1/2")]],
                1,
                "block 2: hash symbols may only follow message symbols",
            ),
            (
                ["eps", "eps"],
                [[], [("m1", "1/2")], []],
                0,
                "block 2: empty test over a non-empty display",
            ),
            (
                ["m1!", "m2!"],
                [[("#", "1/2")], [("m1", "1/2")], [("m2", "3/4")]],
                1,
                "block 2: symbol at offset 1/2 is not copied forward",
            ),
            (
                ["m1!", "m2?"],
                [[("#", "1/2")], [("m1", "1/2")], [("#", "3/4")]],
                1,
                "block 2: symbol at offset 1/2 is not copied forward",
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
        ],
    )
    def test_each_outcome_has_its_message(self, labels, displays, width, expected):
        machine = chain_machine("x", labels)
        word = block_word(machine, displays, labels[: len(displays) - 1])
        assert explain_membership(word, machine, f"x{len(labels)}", width) == expected


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


class TestWidthMonotonicity:
    def test_widths_never_shrink_on_members(self, c1, m2):
        for machine, target in ((c1, "s2"), (m2, "q3")):
            for gamma in enumerate_error_free(machine, target, 6, 2):
                width = max_channel(gamma)
                word = encode(machine, target, gamma, default_layout(width))
                for mutated in (word, inject_insertion(word, machine, 2, F(39, 40)) if len(decompose(word, machine)) >= 2 else word):
                    widths = [b.width for b in decompose(mutated, machine)]
                    assert widths == sorted(widths)
