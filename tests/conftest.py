import random
from fractions import Fraction

import pytest

from ptamtl.channel import ChannelMachine
from ptamtl.pta import ClockConstraint, Edge, Pta


def send_receive_machine() -> ChannelMachine:
    """One message written then read: s0 --m!--> s1 --m?--> s2."""
    return ChannelMachine(
        states=("s0", "s1", "s2"),
        initial="s0",
        messages=("m",),
        transitions=(("s0", "m!", "s1"), ("s1", "m?", "s2")),
    )


def two_message_machine() -> ChannelMachine:
    """Four states, two messages, an initial empty test, writes then reads."""
    return ChannelMachine(
        states=("q0", "q1", "q2", "q3"),
        initial="q0",
        messages=("m1", "m2"),
        transitions=(
            ("q0", "eps", "q0"),
            ("q0", "m1!", "q1"),
            ("q1", "m2!", "q2"),
            ("q2", "m1?", "q3"),
            ("q3", "m2?", "q3"),
        ),
    )


def random_machine(seed: int = 7, states: int = 4, messages: int = 2) -> ChannelMachine:
    rng = random.Random(seed)
    state_names = tuple(f"r{i}" for i in range(states))
    message_names = tuple(f"w{i}" for i in range(messages))
    labels = [f"{m}!" for m in message_names] + [f"{m}?" for m in message_names] + ["eps"]
    transitions = set()
    while len(transitions) < states + 2:
        transitions.add(
            (rng.choice(state_names), rng.choice(labels), rng.choice(state_names))
        )
    return ChannelMachine(state_names, state_names[0], message_names, tuple(sorted(transitions)))


def two_phase_automaton(guarded_loops: bool = False) -> Pta:
    """Parametric cadence automaton: a-events every p, switching phase at
    y = 1, then b-events every p until y = 1 again.

    With ``guarded_loops`` the loops additionally require y < 1, which makes
    the automaton deterministic.
    """
    g = ClockConstraint.of
    loop1 = g(("x", "=", "p"), ("y", "<", 1)) if guarded_loops else g(("x", "=", "p"))
    loop2 = g(("x", "=", "p"), ("y", "<", 1)) if guarded_loops else g(("x", "=", "p"))
    edges = (
        Edge("1", "a", loop1, frozenset({"x"}), "1"),
        Edge("1", "a", g(("x", "=", "p"), ("y", "=", 1)), frozenset({"x", "y"}), "2"),
        Edge("2", "b", loop2, frozenset({"x"}), "2"),
        Edge("2", "b", g(("x", "=", "p"), ("y", "=", 1)), frozenset(), "3"),
    )
    return Pta(
        alphabet=("a", "b"),
        locations=("1", "2", "3"),
        initial=frozenset({"1"}),
        clocks=("x", "y"),
        parameters=("p",),
        edges=edges,
        final=frozenset({"3"}),
    )


# p names both a clock and a parameter; guards unify their variables by
# name, so "p < p" would read the clock against the parameter and the two
# edges would both fire at p = 1, though det-check would call them exclusive
SHARED_NAME_PTA = """alphabet: a
clocks: p
params: p
locations: l0 l1 l2
init: l0
final: l1 l2
edge: l0 a "p < p" {} l1
edge: l0 a "p < 5" {} l2
"""


@pytest.fixture
def c1():
    return send_receive_machine()


@pytest.fixture
def m2():
    return two_message_machine()


@pytest.fixture
def cadence_automaton():
    return two_phase_automaton()


@pytest.fixture
def half() -> Fraction:
    return Fraction(1, 2)
