"""From a channel machine to a parametric timed automaton and an MTL formula.

The formula characterizes the timed words that encode computations of the
machine reaching a chosen target state, insertion errors included: MTL can
force every display symbol to recur two time units later, but it cannot
forbid extra symbols from appearing.  The automaton closes that gap.  It has
one clock and one parameter and simply meters the first and last blocks: the
initial hash display and the final display must tick at an exact cadence
x = p, which pins p to 1/(width+1) and forbids the final block from holding
more symbols than the first.  Since display widths never shrink along a
word, a word accepted by both the formula and the automaton encodes an
error-free computation, and conversely.

A :class:`ReductionBundle` is the reduction of one machine and target: the
two are built once, and the formula is compiled on first use.
:func:`check_theorem` checks a witness, its decoding and its insertion
mutants against one bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .channel import (
    ChannelMachine,
    Computation,
    EPS,
    label_kind,
    max_channel,
    recv_label,
    search_error_free,
    send_label,
)
from .encoding import (
    HASH,
    STAR,
    check_membership,
    decode,
    decompose,
    default_layout,
    encode,
    explain_membership,
    inject_insertion,
    max_width,
)
from .formats import IDENTIFIER, KEYWORDS
from .mtl import (
    FULL,
    POSITIVE,
    TRUE,
    And,
    Atom,
    Eventually,
    Formula,
    Globally,
    Implies,
    Interval,
    Next,
    Not,
    Or,
    Program,
    Until,
    and_all,
    or_all,
    satisfies,
)
from .pta import ClockConstraint, Edge, Pta, membership
from .timedwords import TimedWord


def machine_alphabet(machine: ChannelMachine) -> tuple[str, ...]:
    """The encoding alphabet: states, messages, labels, hash, end marker."""
    return (
        tuple(machine.states)
        + tuple(machine.messages)
        + tuple(machine.labels())
        + (HASH, STAR)
    )


def validate_symbols(machine: ChannelMachine, target: str) -> None:
    """The target is a state, and every state and message is an identifier
    the formula syntax does not reserve, so that the formula reads back as
    written.  ChannelMachine itself keeps names distinct and apart from
    labels, hash, end marker and eps."""
    if target not in machine.states:
        raise ValueError(f"target state {target!r} undeclared")
    for name in (*machine.states, *machine.messages):
        if not IDENTIFIER.fullmatch(name):
            raise ValueError(f"symbol {name!r} is not an identifier: ASCII letters, digits and _, no leading digit")
        if name in KEYWORDS:
            raise ValueError(f"symbol {name!r} collides with a reserved spelling")


def build_automaton(machine: ChannelMachine, target: str) -> Pta:
    """The five-location cadence automaton over the encoding alphabet.

    Location 1 consumes the initial state symbol (resetting the clock x);
    location 2 loops over hashes under x = p and exits to 3 on any label
    under x = p; location 3 loops freely over everything except the target
    state; the target state moves to location 4, whose loop re-checks the
    x = p cadence over the final display; the end marker closes at x = p.
    """
    validate_symbols(machine, target)
    alphabet = machine_alphabet(machine)
    cadence = ClockConstraint.of(("x", "=", "p"))
    reset = frozenset({"x"})
    keep = frozenset()
    edges = [Edge("1", machine.initial, ClockConstraint(), reset, "2")]
    edges.append(Edge("2", HASH, cadence, reset, "2"))
    for label in machine.labels():
        edges.append(Edge("2", label, cadence, keep, "3"))
    for symbol in alphabet:
        if symbol != target:
            edges.append(Edge("3", symbol, ClockConstraint(), keep, "3"))
    edges.append(Edge("3", target, ClockConstraint(), reset, "4"))
    for symbol in tuple(machine.messages) + (HASH,):
        edges.append(Edge("4", symbol, cadence, reset, "4"))
    edges.append(Edge("4", STAR, cadence, keep, "5"))
    return Pta(
        alphabet=alphabet,
        locations=("1", "2", "3", "4", "5"),
        initial=frozenset({"1"}),
        clocks=("x",),
        parameters=("p",),
        edges=tuple(edges),
        final=frozenset({"5"}),
    )


def _exactly(units: int, phi: Formula) -> Formula:
    return Eventually(Interval.point(units), phi)


def _everywhere(body: Formula) -> Formula:
    """The body at every position including the first.

    The until modality is strict, so a bare G only constrains positions
    after the current one; global conditions therefore need body & G body.
    """
    return And(body, Globally(FULL, body))


_WITHIN_UNIT = Interval(0, 1, True, False)  # [0,1)
_OPEN_UNIT = Interval(0, 1, False, False)  # (0,1)
_SECOND_UNIT = Interval(1, 2, False, False)  # (1,2)
_FIRST_TWO = Interval(0, 2, True, False)  # [0,2)
_CLOSED_OPEN_12 = Interval(1, 2, True, False)  # [1,2)


def _appended(label: Formula, symbol: Formula, trailer: Formula) -> tuple[Formula, Formula]:
    """The symbol appended right after the copied display, as the checker's
    ``appended_tail`` reads it, in a block whose state is the current
    position: two units after the last display slot (the event before the
    label), its copy is followed by the symbol and then a trailer; with an
    empty display, the symbol and a trailer follow the next state symbol."""
    after_last_slot = Globally(
        _WITHIN_UNIT,
        Implies(Next(FULL, label), _exactly(2, And(Next(FULL, symbol), Next(FULL, Next(FULL, trailer))))),
    )
    after_state = Implies(Next(FULL, label), _exactly(2, Next(FULL, And(symbol, Next(FULL, trailer)))))
    return after_last_slot, after_state


def build_formula(machine: ChannelMachine, target: str) -> Formula:
    """The conjunction characterizing encodings of computations reaching the
    target, insertion errors permitted.

    A word satisfies this formula iff it passes the encoding checker for the
    display width read off its own prefix; the two are kept in lock step by a
    differential test over valid encodings, insertion mutants, and broken
    mutations.
    """
    validate_symbols(machine, target)
    states = list(machine.states)
    messages = list(machine.messages)
    hash_ = Atom(HASH)
    star = Atom(STAR)
    any_state = or_all(Atom(s) for s in states)
    any_message = or_all(Atom(m) for m in messages)
    any_label = or_all(Atom(l) for l in machine.labels())
    trailer = Or(any_label, star)
    display = Or(any_message, hash_)
    copy_messages = Globally(
        _OPEN_UNIT,
        and_all(Implies(Atom(m), _exactly(2, Atom(m))) for m in messages),
    )
    copy_hashes = Globally(_OPEN_UNIT, Implies(hash_, _exactly(2, hash_)))

    conjuncts: list[Formula] = []

    # timestamps strictly increase
    conjuncts.append(_everywhere(Or(Next(POSITIVE, TRUE), Not(Next(FULL, TRUE)))))

    # the word opens with the initial state and an all-hash display
    openings: list[Formula] = []
    for source, label, nxt in sorted(set(machine.transitions)):
        if source == machine.initial:
            openings.append(Until(FULL, hash_, And(Atom(label), Next(FULL, Atom(nxt)))))
    if machine.initial == target:
        openings.append(Until(FULL, hash_, star))
    conjuncts.append(And(Atom(machine.initial), or_all(openings)))

    # the end marker closes the word
    conjuncts.append(_everywhere(Implies(star, Not(Next(FULL, TRUE)))))

    # control-state succession follows the transition relation
    succession: list[Formula] = []
    for state in states:
        if state == target:
            continue
        options = [
            And(_exactly(1, Atom(label)), _exactly(2, Atom(nxt)))
            for source, label, nxt in sorted(set(machine.transitions))
            if source == state
        ]
        succession.append(Implies(Atom(state), or_all(options)))
    succession.append(Implies(Atom(target), _exactly(1, star)))
    conjuncts.append(_everywhere(and_all(succession)))

    # spacing windows after every state symbol
    conjuncts.append(
        _everywhere(
            Implies(
                any_state,
                and_all(
                    [
                        Globally(_FIRST_TWO, Not(any_state)),
                        Globally(_OPEN_UNIT, Not(any_label)),
                        Globally(_SECOND_UNIT, Not(any_label)),
                    ]
                ),
            )
        )
    )
    conjuncts.append(
        _everywhere(
            Implies(
                any_state,
                And(
                    Globally(_OPEN_UNIT, display),
                    Globally(_CLOSED_OPEN_12, Not(display)),
                ),
            )
        )
    )

    # hashes never precede a message inside a display
    conjuncts.append(_everywhere(Not(And(hash_, Next(FULL, any_message)))))

    conjuncts.append(Or(Atom(target), Eventually(FULL, Atom(target))))

    transitions = sorted(set(machine.transitions))
    empty_sources = sorted({s for s, l, _ in transitions if l == EPS and s != target})
    send_pairs = sorted(
        {(s, label_kind(l)[1]) for s, l, _ in transitions if l.endswith("!") and s != target}
    )
    recv_pairs = sorted(
        {(s, label_kind(l)[1]) for s, l, _ in transitions if l.endswith("?") and s != target}
    )

    # empty tests: an all-hash display, copied forward
    for state in empty_sources:
        conjuncts.append(
            _everywhere(
                Implies(
                    And(Atom(state), _exactly(1, Atom(EPS))),
                    And(Globally(_OPEN_UNIT, Not(any_message)), copy_hashes),
                )
            )
        )

    # sends: the first hash becomes the message, everything else is copied;
    # with no free hash, the message is appended right after the copies
    for state, message in send_pairs:
        label = Atom(send_label(message))
        msg = Atom(message)
        replace_here = And(Next(FULL, _exactly(2, msg)), Next(FULL, copy_hashes))
        first_slot_hash = Implies(Next(FULL, hash_), replace_here)
        later_hash = Implies(
            And(Eventually(_WITHIN_UNIT, hash_), Not(Next(FULL, hash_))),
            Globally(
                _WITHIN_UNIT,
                Implies(And(Not(hash_), Next(FULL, hash_)), replace_here),
            ),
        )
        after_last_slot, empty_display = _appended(label, msg, trailer)
        no_hash = Implies(Not(Eventually(_WITHIN_UNIT, hash_)), after_last_slot)
        conjuncts.append(
            _everywhere(
                Implies(
                    And(Atom(state), _exactly(1, label)),
                    and_all([copy_messages, first_slot_hash, later_hash, no_hash, empty_display]),
                )
            )
        )

    # receives: a matching head shifts the display one slot left and frees a
    # hash at the end; a mismatch (an insertion error) copies the display and
    # appends a hash right after the copies
    for state, message in recv_pairs:
        label = Atom(recv_label(message))
        msg = Atom(message)
        shift = and_all(
            [Implies(Next(FULL, Atom(m)), _exactly(2, Atom(m))) for m in messages]
            + [
                Implies(Next(FULL, hash_), _exactly(2, hash_)),
                Implies(Next(FULL, label), _exactly(2, hash_)),
            ]
        )
        head_matches = Implies(Next(FULL, msg), Until(FULL, shift, label))
        head_differs = Implies(
            Next(FULL, Not(msg)),
            and_all([copy_messages, copy_hashes, *_appended(label, hash_, trailer)]),
        )
        conjuncts.append(
            _everywhere(
                Implies(
                    And(Atom(state), _exactly(1, label)),
                    And(head_matches, head_differs),
                )
            )
        )

    return and_all(conjuncts)


@dataclass(frozen=True)
class ReductionBundle:
    """The reduction of a machine and its target state: the cadence automaton
    and the formula, both over the automaton's (encoding) alphabet."""

    machine: ChannelMachine
    target: str
    automaton: Pta
    formula: Formula

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.automaton.alphabet

    @property
    def program(self) -> Program:
        """The formula's program, compiled once, on the formula."""
        return self.formula.program


def build_bundle(machine: ChannelMachine, target: str) -> ReductionBundle:
    return ReductionBundle(machine, target, build_automaton(machine, target), build_formula(machine, target))


@dataclass(frozen=True)
class Assertion:
    name: str
    holds: Optional[bool]  # None when not applicable
    detail: str = ""


@dataclass(frozen=True)
class ForwardReport:
    """Result of driving one error-free computation through the encoding, the
    formula, and the automaton with the derived parameter value."""

    width: int
    valuation: Mapping[str, Fraction]
    word: TimedWord
    assertions: tuple[Assertion, ...]

    @property
    def ok(self) -> bool:
        return all(a.holds is not False for a in self.assertions)


def verify_forward(bundle: ReductionBundle, computation: Computation) -> ForwardReport:
    """Encode the computation with uniform slots i/(width+1) and p = 1/(width+1),
    then check language membership, formula satisfaction, and automaton
    acceptance of the encoding."""
    machine, target = bundle.machine, bundle.target
    width = max_channel(computation)
    valuation = {"p": Fraction(1, width + 1)}
    word = encode(machine, target, computation, default_layout(width))
    if computation.steps:
        accepts = Assertion("automaton-accepts", membership(bundle.automaton, valuation, word))
    else:
        accepts = Assertion("automaton-accepts", None, "zero-step computation: the accepting path needs a label event")
    checks = (
        Assertion("encoding-in-language", check_membership(word, machine, target, width)),
        Assertion("formula-satisfied", satisfies(word, bundle.program)),
        accepts,
    )
    return ForwardReport(width, valuation, word, checks)


@dataclass(frozen=True)
class BackwardReport:
    """Result of decoding a word accepted by both sides of the reduction."""

    applicable: bool
    reason: str
    assertions: tuple[Assertion, ...] = ()
    computation: Optional[Computation] = None

    @property
    def ok(self) -> bool:
        return self.applicable and all(a.holds is not False for a in self.assertions)


def verify_backward(
    bundle: ReductionBundle, word: TimedWord, width: int, valuation: Mapping[str, Fraction]
) -> BackwardReport:
    """Check the consequences of joint acceptance: the parameter value is
    pinned to 1/(width+1), no insertions are present, and the decoded
    computation is error-free and reaches the target."""
    machine, target = bundle.machine, bundle.target
    reason = explain_membership(word, machine, target, width)
    if reason is not None:
        return BackwardReport(False, f"word outside the encoding language: {reason}")
    if not membership(bundle.automaton, valuation, word):
        return BackwardReport(False, "automaton rejects the word under this valuation")
    checks = [
        Assertion(
            "valuation-pinned",
            valuation["p"] == Fraction(1, width + 1),
            f"p = {valuation['p']}",
        )
    ]
    widest = max_width(word, machine)
    checks.append(Assertion("no-insertions", widest == width, f"max width {widest}"))
    computation = None
    try:
        computation = decode(word, machine, target)
        checks.append(Assertion("decodes-error-free", computation.final.state == target))
        checks.append(Assertion("channel-bounded", max_channel(computation) <= width))
    except Exception as error:  # decoding refused
        checks.append(Assertion("decodes-error-free", False, str(error)))
    return BackwardReport(True, "", tuple(checks), computation)


def insertion_mutants(
    word: TimedWord, machine: ChannelMachine, count: int
) -> list[TimedWord]:
    """Deterministic injected-insertion variants of an encoded word.

    Injections rotate over the blocks; fresh offsets sit above every existing
    slot so each injection stays valid in all blocks it propagates through.
    """
    blocks = decompose(word, machine)
    if len(blocks) < 2:
        return []
    top = max((max(b.offsets) for b in blocks if b.symbols), default=Fraction(0))
    mutants = []
    for rank in range(1, count + 1):
        block_index = 2 + (rank - 1) % (len(blocks) - 1)
        offset = top + (1 - top) * Fraction(rank, count + 1)
        mutants.append(inject_insertion(word, machine, block_index, offset))
    return mutants


@dataclass(frozen=True)
class TheoremReport:
    """Aggregate outcome of the bounded end-to-end reduction check."""

    outcome: str  # "pass", "fail", or "no-witness"
    search_complete: bool
    computation: Optional[Computation] = None
    forward: Optional[ForwardReport] = None
    backward: Optional[BackwardReport] = None
    mutants_total: int = 0
    mutants_formula_kept: int = 0
    mutants_automaton_rejected: int = 0
    notes: tuple[str, ...] = ()


def check_theorem(machine: ChannelMachine, target: str, step_bound: int, channel_bound: int) -> TheoremReport:
    """Search for an error-free witness; if found, run the forward check, the
    backward check on its encoding, and an injected-insertion battery that the
    automaton must reject under every candidate parameter value.  One bundle,
    built before the search (its builders validate the symbols), serves every
    check, and its formula is compiled once."""
    bundle = build_bundle(machine, target)
    result = search_error_free(machine, target, step_bound, channel_bound)
    if result.computation is None:
        return TheoremReport(
            outcome="no-witness",
            search_complete=not result.truncated,
            notes=("no error-free computation within bounds",),
        )
    computation = result.computation
    forward = verify_forward(bundle, computation)
    width = forward.width
    backward = None
    mutants: list[TimedWord] = []
    kept = rejected = 0
    notes = []
    if computation.steps:
        backward = verify_backward(bundle, forward.word, width, forward.valuation)
        candidates = [Fraction(1, k) for k in range(1, width + 4)]
        mutants = insertion_mutants(forward.word, machine, count=5)
        for mutant in mutants:
            if satisfies(mutant, bundle.program):
                kept += 1
            if all(not membership(bundle.automaton, {"p": value}, mutant) for value in candidates):
                rejected += 1
    else:
        notes.append("degenerate zero-step witness: automaton-side checks not applicable")
    ok = (
        forward.ok
        and (backward is None or backward.ok)
        and kept == len(mutants)
        and rejected == len(mutants)
    )
    return TheoremReport(
        outcome="pass" if ok else "fail",
        search_complete=not result.truncated,
        computation=computation,
        forward=forward,
        backward=backward,
        mutants_total=len(mutants),
        mutants_formula_kept=kept,
        mutants_automaton_rejected=rejected,
        notes=tuple(notes),
    )
