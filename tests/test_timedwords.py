import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ptamtl.errors import ConcatOrderError
from ptamtl.formats import parse_timed_word, serialize_timed_word
from ptamtl.timedwords import TimedWord, concat, is_strictly_monotonic, rat


def W(*pairs):
    return TimedWord(pairs)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimedWord([])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            W(("a", 1), ("b", 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            W(("a", "-1/2"))

    def test_allows_equal_timestamps(self):
        word = W(("a", 1), ("b", 1))
        assert len(word) == 2

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            W(("a", 0.5))

    def test_one_based_accessors(self):
        word = W(("a", 0), ("b", "3/2"))
        assert word.symbol_at(2) == "b"
        assert word.time_at(2) == Fraction(3, 2)


class TestConcat:
    def test_disjoint_times(self):
        assert concat(W(("a", 0)), W(("b", 1))) == W(("a", 0), ("b", 1))

    def test_boundary_equality_allowed(self):
        left = W(("a", 0), ("b", 1))
        assert concat(left, W(("c", 1))) == W(("a", 0), ("b", 1), ("c", 1))

    def test_order_violation(self):
        with pytest.raises(ConcatOrderError):
            concat(W(("a", 0), ("b", 2)), W(("c", 1)))


class TestStrictMonotonicity:
    def test_strict(self):
        assert is_strictly_monotonic(W(("a", 0), ("b", "1/2")))

    def test_equal_timestamps(self):
        assert not is_strictly_monotonic(W(("a", 0), ("b", 0)))

    def test_singleton(self):
        assert is_strictly_monotonic(W(("a", 1)))


def tick_words(count=40, seed=7):
    """Random words timed in halves, thirds, fifths and sevenths, each with
    at least one repeated timestamp."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dens = rng.sample([2, 3, 5, 7], rng.randint(1, 4))
        times = sorted(Fraction(rng.randint(0, 12 * d), d) for d in dens for _ in range(rng.randint(1, 3)))
        repeat = rng.randrange(len(times))
        times.insert(repeat, times[repeat])
        out.append(TimedWord((rng.choice("ab#"), t) for t in times))
    return out


class TestTickView:
    @pytest.mark.parametrize("word", tick_words())
    def test_ticks_are_exact(self, word):
        scale, ticks = word.ticks
        assert len(ticks) == len(word)
        for i, tick in enumerate(ticks):
            assert type(tick) is int
            assert Fraction(tick, scale) == word.time_at(i + 1)
        # the lcm of the denominators: the least scale making every time whole
        assert scale == next(s for s in range(1, 211) if all((t * s).denominator == 1 for t in word.times))

    def test_view_is_computed_once(self):
        word = W(("a", "1/2"), ("b", "1/2"), ("c", "5/3"))
        assert word.ticks is word.ticks
        assert word.ticks == (6, (3, 3, 10))

    def test_whole_times_have_scale_one(self):
        assert W(("a", 0), ("b", 0), ("c", 4)).ticks == (1, (0, 0, 4))

    def test_view_is_invisible_to_equality_hash_and_repr(self):
        for word in tick_words(count=10, seed=11):
            twin = TimedWord(word.events)
            text, digest = repr(word), hash(word)
            word.ticks
            assert word == twin and twin == word
            assert hash(word) == hash(twin) == digest
            assert repr(word) == repr(twin) == text
            assert len({word, twin}) == 1

    @pytest.mark.parametrize("name", ["events", "ticks", "_ticks", "other"])
    def test_still_immutable(self, name):
        word = W(("a", "2/7"), ("b", "1/3"), ("c", "1/3"))
        with pytest.raises(AttributeError):
            setattr(word, name, None)
        view = word.ticks
        with pytest.raises(AttributeError):
            setattr(word, name, (1, (0, 0, 0)))
        assert word.ticks is view
        assert word.ticks == (21, (6, 7, 7))
        assert word.times == (Fraction(2, 7), Fraction(1, 3), Fraction(1, 3))


words = st.builds(
    TimedWord,
    st.lists(
        st.tuples(
            st.sampled_from("abc"),
            st.integers(min_value=0, max_value=16),
        ),
        min_size=1,
        max_size=8,
    ).map(lambda items: [(s, Fraction(t, 4)) for s, t in sorted(items, key=lambda e: e[1])]),
)


@given(words, words, words)
def test_concat_associative(w1, w2, w3):
    if w1.times[-1] > w2.times[0] or w2.times[-1] > w3.times[0]:
        return
    assert concat(concat(w1, w2), w3) == concat(w1, concat(w2, w3))


@given(words, words)
def test_strictness_splits(w1, w2):
    if w1.times[-1] > w2.times[0]:
        return
    joined = concat(w1, w2)
    if is_strictly_monotonic(joined):
        assert is_strictly_monotonic(w1) and is_strictly_monotonic(w2)


@given(words)
def test_text_round_trip(word):
    assert parse_timed_word(serialize_timed_word(word)) == word


def test_rational_round_trip():
    for text in ["0", "7", "1/2", "22/7", "3"]:
        value = rat(text)
        rendered = (
            str(value.numerator)
            if value.denominator == 1
            else f"{value.numerator}/{value.denominator}"
        )
        assert rat(rendered) == value
