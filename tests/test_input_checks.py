"""The library's input checks and empty cases, one row each: a check raises
its exception type with its text, and an empty case returns its pinned
result."""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from ptamtl.channel import ChannelMachine, Computation, Configuration, enumerate_error_free, search_error_free
from ptamtl.encoding import EncodingLayout, default_layout, encode, explain_membership, inject_insertion, insertion_mutants
from ptamtl.errors import EncodingPreconditionError, InjectionError
from ptamtl.modelcheck import bounded_modelcheck
from ptamtl.mtl import TRUE, Atom, Interval, and_all
from ptamtl.pta import ClockConstraint, ConstraintAtom, Pta, constraint_sat, iter_accepted, membership_trace
from ptamtl.reduction import BackwardReport, build_automaton, build_bundle, validate_symbols, verify_backward
from ptamtl.timedwords import TimedWord

from conftest import send_receive_machine

F = Fraction
C1 = send_receive_machine()
W_C1 = encode(C1, "s2", search_error_free(C1, "s2", 4, 2).computation, default_layout(1))
CADENCE = build_automaton(C1, "s2")
# s1 loops on the empty test, so a computation can reach s1 and stay there
LOOP = ChannelMachine(("s0", "s1"), "s0", ("m",), (("s0", "eps", "s1"), ("s1", "eps", "s1")))
S0, S1 = Configuration("s0"), Configuration("s1")


@dataclass(frozen=True)
class Raises:
    """The expected outcome of a check: its exception type and text."""

    kind: type
    text: str


def machine(states=("s0", "s1"), initial="s0", messages=("m",), transitions=()):
    return ChannelMachine(states, initial, messages, transitions)


def pta(initial="l0", final="l1"):
    return Pta(("a",), ("l0", "l1"), frozenset({initial}), (), (), (), frozenset({final}))


CASES = [
    # ChannelMachine
    (lambda: machine(initial="s9"), Raises(ValueError, "initial state must be a declared state")),
    (lambda: machine(messages=("s1",)), Raises(ValueError, "state and message names must be distinct")),
    (
        lambda: machine(transitions=(("s0", "m!", "s9"),)),
        Raises(ValueError, "transition endpoints undeclared: ('s0', 'm!', 's9')"),
    ),
    (lambda: machine(transitions=(("s0", "n!", "s1"),)), Raises(ValueError, "transition label undeclared: 'n!'")),
    # the target check
    (lambda: search_error_free(C1, "nope", 4, 2), Raises(ValueError, "target state 'nope' undeclared")),
    (lambda: enumerate_error_free(C1, "nope", 4, 2), Raises(ValueError, "target state 'nope' undeclared")),
    (lambda: explain_membership(W_C1, C1, "nope", 1), Raises(ValueError, "target state 'nope' undeclared")),
    (lambda: validate_symbols(C1, "nope"), Raises(ValueError, "target state 'nope' undeclared")),
    # layouts and encode's preconditions
    (lambda: EncodingLayout(F(-1), ()), Raises(ValueError, "base offset must be non-negative")),
    (
        lambda: encode(LOOP, "s1", Computation(S1), default_layout(0)),
        Raises(EncodingPreconditionError, "computation must start at the initial state with an empty channel"),
    ),
    (
        lambda: encode(LOOP, "s0", Computation(S0, (("eps", S1),)), default_layout(0)),
        Raises(EncodingPreconditionError, "computation does not end in the target state"),
    ),
    (
        lambda: encode(LOOP, "s1", Computation(S0, (("eps", S1), ("eps", S1))), default_layout(0)),
        Raises(EncodingPreconditionError, "target state reached before the final configuration"),
    ),
    (lambda: inject_insertion(W_C1, C1, 2, F(1)), Raises(InjectionError, "offset must lie strictly between 0 and 1")),
    # intervals, constraints and automata
    (lambda: Interval(-1, 1, True, True), Raises(ValueError, "interval endpoints must be non-negative")),
    (lambda: ConstraintAtom("x", "!=", 1), Raises(ValueError, "unknown relation '!='")),
    (lambda: ConstraintAtom("x", "<", -1), Raises(ValueError, "constant bounds must be natural numbers")),
    (lambda: pta(initial="l9"), Raises(ValueError, "initial locations must be declared locations")),
    (lambda: pta(final="l9"), Raises(ValueError, "final locations must be declared locations")),
    (
        lambda: constraint_sat({"x": F(0)}, {}, ClockConstraint.of(("x", "=", "p"))),
        Raises(KeyError, "undeclared parameter 'p'"),
    ),
    (
        lambda: membership_trace(CADENCE, {"p": F(1, 2)}, TimedWord([("z", 0)])),
        Raises(ValueError, "symbol 'z' not in the automaton's alphabet"),
    ),
    (lambda: next(iter_accepted(pta(), {}, F(0), F(1), 1)), Raises(ValueError, "grid must be positive")),
    (
        lambda: bounded_modelcheck(pta(), Atom("a"), [], F(1), F(1), 1),
        Raises(ValueError, "need at least one candidate valuation"),
    ),
    # empty cases
    pytest.param(lambda: enumerate_error_free(C1, "s0", 4, 2), [Computation(S0)], id="the start is the target"),
    pytest.param(
        lambda: insertion_mutants(encode(C1, "s0", Computation(S0), default_layout(0)), C1, 3), [], id="one block"
    ),
    pytest.param(lambda: list(iter_accepted(CADENCE, {"p": F(1, 2)}, F(1, 2), F(5), 0)), [], id="no events"),
    pytest.param(lambda: and_all([]), TRUE, id="the empty conjunction"),
    pytest.param(
        lambda: verify_backward(build_bundle(C1, "s2"), W_C1, 2, {"p": F(1, 3)}),
        BackwardReport(False, "word outside the encoding language: initial display has 1 symbols, declared width is 2"),
        id="a word too narrow for its width",
    ),
]


@pytest.mark.parametrize("call, expected", CASES, ids=[case[1].text if type(case) is tuple else None for case in CASES])
def test_each_check_raises_its_text_and_each_empty_case_its_result(call, expected):
    if isinstance(expected, Raises):
        with pytest.raises(expected.kind) as caught:
            call()
        assert type(caught.value) is expected.kind and caught.value.args == (expected.text,)
    else:
        assert call() == expected
