"""Text formats: timed words, MTL formulas, channel machines, automata.

Parsing and serialization round-trip: parse(serialize(v)) == v for every
value, formula ASTs included, and serialize(parse(t)) is the canonical
spelling of t.  A formula text is also read straight into a compiled
program by :func:`parse_program`, with no AST in between; it is the program
``compile_formula(parse_formula(t))``, ops and intervals numbered alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Optional

from .channel import ChannelMachine, Computation, Configuration, step_exact
from .errors import ParseError
from .mtl import (
    FULL,
    And,
    Atom,
    Eventually,
    FalseConst,
    Formula,
    Globally,
    Implies,
    Interval,
    Next,
    Not,
    Or,
    Program,
    ProgramBuilder,
    TrueConst,
    Until,
)
from .pta import ClockConstraint, ConstraintAtom, Edge, Pta
from .timedwords import TimedWord


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """An integer or ``p/q`` in ASCII digits, optionally negative."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise ParseError(f"bad rational {text!r}: expected an integer or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError as error:
        raise ParseError(f"bad rational {text!r}: {error}") from error


# -- timed words: whitespace-separated symbol@rational tokens ----------------


def parse_timed_word(text: str) -> TimedWord:
    events = []
    for token in text.split():
        if "@" not in token:
            raise ParseError(f"bad event token {token!r}: expected symbol@time")
        symbol, _, time = token.rpartition("@")
        if not symbol:
            raise ParseError(f"bad event token {token!r}: empty symbol")
        events.append((symbol, parse_rational(time)))
    if not events:
        raise ParseError("a timed word needs at least one event")
    try:
        return TimedWord(events)
    except ValueError as error:
        raise ParseError(str(error)) from error


def serialize_timed_word(word: TimedWord) -> str:
    return " ".join(f"{symbol}@{format_rational(time)}" for symbol, time in word)


# -- MTL formulas -------------------------------------------------------------
#
# Atoms are identifiers, optionally with an immediately attached ! or ?
# (transition labels), plus the literal tokens # and *.  Operators: ! & | ->
# U X F G; `true` and `false`; parentheses for grouping.  X, F, G and U take
# an optional interval suffix like [1,2], (0,1), [0,inf) or [=2], which is one
# token: a malformed interval such as [2,1] is a parse error quoting it as
# written.  Precedence: unary > & > | > -> > U.  One precedence loop reads
# the text for parse_formula, which builds AST nodes, and for parse_program,
# which hands each node, as it completes, to mtl.ProgramBuilder.

# an identifier: ASCII letters, digits and underscores, not leading with a digit
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(
    rf"\s*(?:(?P<ident>{IDENTIFIER.pattern}[!?]?)"
    r"|(?P<interval>\[\s*=\s*(?P<point>[0-9]+)\s*\]"
    r"|(?P<open>[\[(])\s*(?P<lower>[0-9]+)\s*,\s*(?P<upper>[0-9]+|inf)\s*(?P<close>[\])]))"
    r"|(?P<op>->|[()&|!#*])|(?P<bad>\S))"
)
# identifiers the syntax reserves: none of them can be read back as an atom
KEYWORDS = frozenset({"true", "false", "U", "X", "F", "G", "inf"})


def _scan(text: str) -> list[tuple[str, str, Optional[Interval]]]:
    """The tokens of a formula as (kind, text, interval), the interval set for
    interval tokens only, closed by an ``end`` token."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        interval = None
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", column=match.start(kind) + 1)
        if kind == "interval":
            try:
                if match["point"] is not None:
                    interval = Interval.point(int(match["point"]))
                else:
                    upper = None if match["upper"] == "inf" else int(match["upper"])
                    interval = Interval(int(match["lower"]), upper, match["open"] == "[", match["close"] == "]")
            except ValueError as error:
                raise ParseError(f"bad interval {value!r}: {error}", column=match.start(kind) + 1) from None
        tokens.append((kind, value, interval))
    tokens.append(("end", "end of input", None))
    return tokens


_PREFIXES = {Not: "!", Next: "X", Eventually: "F", Globally: "G"}  # the unary operators
# operators by token: (precedence, class); the unary ones bind tightest, & and
# | associate to the left, -> and U to the right
_OPERATORS = {("op" if cls is Not else "ident", op): (4, cls) for cls, op in _PREFIXES.items()} | {
    ("op", "&"): (3, And), ("op", "|"): (2, Or), ("op", "->"): (1, Implies), ("ident", "U"): (0, Until),
}  # fmt: skip


def _node(cls: type, interval: Optional[Interval], *operands) -> Formula:
    """The formula node of class ``cls``: the AST parser's reduce action."""
    return cls(*operands) if interval is None else cls(interval, *operands)


def _reduce(operands: list, operator: tuple[int, type, Optional[Interval]], make) -> None:
    """Replace the last operand, or the last two, by ``operator`` applied to them."""
    level, cls, interval = operator
    if level == 4:
        operands.append(make(cls, interval, operands.pop()))
    else:
        right = operands.pop()
        operands[-1] = make(cls, interval, operands[-1], right)


def _parse(text: str, make):
    """Parse a formula, calling ``make(cls, interval, *operands)`` for each
    node, operands first and the left one first, and return the root's value:
    ``make`` builds a formula node or an op."""
    # Operator precedence parsing with explicit stacks, so deep nesting does
    # not recurse.  ``pending`` holds the operators still waiting for their
    # last operand, as (precedence, class, interval) tuples, and None for each
    # open parenthesis.
    tokens = _scan(text)
    operands: list = []
    pending: list = []
    i, operand_due = 0, True
    while True:
        kind, value, _ = tokens[i]
        i += 1
        operator = _OPERATORS.get((kind, value))
        # a unary operator where an operand is due, a binary one after an operand
        if operator is not None and (operator[0] == 4) == operand_due:
            level, cls = operator
            while pending and pending[-1] is not None and (
                pending[-1][0] > level or (pending[-1][0] == level and cls in (And, Or))
            ):
                _reduce(operands, pending.pop(), make)
            interval = None
            if cls in (Next, Eventually, Globally, Until):  # its interval, if it has one
                interval = FULL
                if tokens[i][0] == "interval":
                    interval = tokens[i][2]
                    i += 1
            pending.append((level, cls, interval))
            operand_due = True
        elif operand_due:
            if kind == "op" and value == "(":
                pending.append(None)
                continue
            if kind == "ident" and value not in KEYWORDS or kind == "op" and value in ("#", "*"):
                operands.append(make(Atom, None, value))
            elif kind == "ident" and value in ("true", "false"):
                operands.append(make(TrueConst if value == "true" else FalseConst, None))
            elif kind == "end":
                raise ParseError("unexpected end of formula")
            elif value == "U":
                raise ParseError("'U' is an operator, not an atom")
            elif value == "inf":
                raise ParseError("'inf' is reserved for interval endpoints")
            else:
                raise ParseError(f"unexpected token {value!r}")
            operand_due = False
        else:  # the group or the text ends here
            while pending and pending[-1] is not None:
                _reduce(operands, pending.pop(), make)
            if not pending:
                if kind != "end":
                    raise ParseError(f"trailing input starting at {value!r}")
                return operands[0]
            if kind != "op" or value != ")":
                raise ParseError(f"expected ')', found {value!r}")
            pending.pop()


def parse_formula(text: str) -> Formula:
    """The formula of a text, as an AST."""
    return _parse(text, _node)


def parse_program(text: str) -> Program:
    """The program of a formula text, built while parsing, with no AST:
    equal to ``compile_formula(parse_formula(text))``, ops and intervals
    numbered alike, and raising the same errors."""
    builder = ProgramBuilder()
    return builder.program(_parse(text, builder.build))


def serialize_interval(interval: Interval) -> str:
    if interval.is_full:
        return ""
    if interval.upper is not None and interval.lower == interval.upper:
        return f"[={interval.lower}]"
    left = "[" if interval.lower_closed else "("
    right = "]" if interval.upper_closed else ")"
    upper = "inf" if interval.upper is None else str(interval.upper)
    return f"{left}{interval.lower},{upper}{right}"


def serialize_formula(formula: Formula) -> str:
    """The formula's text, with the fewest brackets that parse back to it.

    Walked with an explicit stack of pending items, each either literal text
    or a node with the precedence of its context (unary 4 > & 3 > | 2 > -> 1
    > U 0), so no depth of nesting exhausts the call stack.
    """
    out: list[str] = []
    stack: list = [(formula, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, parent = item
        kind = type(node)
        if kind is Atom:
            out.append(node.name)
        elif kind is TrueConst or kind is FalseConst:
            out.append("true" if kind is TrueConst else "false")
        elif kind in _PREFIXES:
            # the operand of a unary operator renders at level 4, so no link
            # of a unary chain is bracketed
            op = _PREFIXES[kind]
            out.append(op if kind is Not else f"{op}{serialize_interval(node.interval)} ")
            stack.append((node.operand, 4))
        else:
            if kind is And or kind is Or:
                # left-associative: an inner link of the left chain renders
                # unbracketed, as parent == level
                level, joiner = (3, " & ") if kind is And else (2, " | ")
                rights = []
                while type(node) is kind:
                    rights.append(node.right)
                    node = node.left
                items: list = [(node, level)]
                for right in reversed(rights):
                    items += (joiner, (right, level + 1))
            elif kind is Implies or kind is Until:
                # right-associative: walk the right spine
                level, items = (1, []) if kind is Implies else (0, [])
                while type(node) is kind:
                    joiner = " -> " if kind is Implies else f" U{serialize_interval(node.interval)} "
                    items += ((node.left, level + 1), joiner)
                    node = node.right
                items.append((node, level))
            else:
                raise TypeError(f"unknown formula node {node!r}")
            if parent > level:
                items = ["(", *items, ")"]
            stack.extend(reversed(items))
    return "".join(out)


# -- channel machines ---------------------------------------------------------


def _key_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """The line number, key and values of each ``key: values`` line of a
    machine or automaton file, skipping blank lines and ``//`` comments."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: values', got {line!r}", line=number)
        key, _, rest = line.partition(":")
        yield number, key.strip(), rest


def parse_machine(text: str) -> tuple[ChannelMachine, Optional[str]]:
    """Parse a machine description; returns the machine and the optional
    target state from a ``final:`` line."""
    states: list[str] = []
    initial: Optional[str] = None
    messages: list[str] = []
    transitions: list[tuple[str, str, str]] = []
    final: Optional[str] = None
    for number, key, rest in _key_lines(text):
        fields = rest.split()
        if key == "states":
            states.extend(fields)
        elif key == "init":
            if len(fields) != 1:
                raise ParseError("init needs exactly one state", line=number)
            initial = fields[0]
        elif key == "messages":
            messages.extend(fields)
        elif key == "trans":
            if len(fields) != 3:
                raise ParseError("trans needs 'source label target'", line=number)
            transitions.append((fields[0], fields[1], fields[2]))
        elif key == "final":
            if len(fields) != 1:
                raise ParseError("final needs exactly one state", line=number)
            final = fields[0]
        else:
            raise ParseError(f"unknown key {key!r}", line=number)
    if initial is None:
        raise ParseError("missing init: line")
    try:
        machine = ChannelMachine(tuple(states), initial, tuple(messages), tuple(transitions))
    except ValueError as error:
        raise ParseError(str(error)) from error
    return machine, final


def serialize_machine(machine: ChannelMachine, final: Optional[str] = None) -> str:
    lines = [
        "states: " + " ".join(machine.states),
        f"init: {machine.initial}",
        "messages: " + " ".join(machine.messages),
    ]
    lines.extend(f"trans: {s} {l} {t}" for s, l, t in machine.transitions)
    if final is not None:
        lines.append(f"final: {final}")
    return "\n".join(lines) + "\n"


# -- clock constraints and automata -------------------------------------------

_GUARD_ATOM = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|=|<|>)\s*([A-Za-z0-9_]+)\s*$")


def parse_guard(text: str) -> ClockConstraint:
    text = text.strip()
    if not text:
        return ClockConstraint()
    atoms = []
    for part in text.split("&"):
        match = _GUARD_ATOM.match(part)
        if match is None:
            raise ParseError(f"bad guard atom {part.strip()!r}")
        clock, relation, bound = match.groups()
        atoms.append(
            ConstraintAtom(clock, relation, int(bound) if bound.isdigit() else bound)
        )
    return ClockConstraint(tuple(atoms))


def serialize_guard(guard: ClockConstraint) -> str:
    return " & ".join(f"{a.clock}{a.relation}{a.bound}" for a in guard.atoms)


_EDGE_LINE = re.compile(
    r"^(\S+)\s+(\S+)\s+\"([^\"]*)\"\s+\{([^}]*)\}\s+(\S+)$"
)


def parse_pta(text: str) -> Pta:
    header: dict[str, list[str]] = {}
    edges: list[Edge] = []
    for number, key, rest in _key_lines(text):
        if key == "edge":
            match = _EDGE_LINE.match(rest.strip())
            if match is None:
                raise ParseError(
                    'edge needs: <src> <symbol> "<guard>" {<resets>} <dst>', line=number
                )
            source, symbol, guard_text, resets_text, target = match.groups()
            resets = frozenset(
                token for token in re.split(r"[,\s]+", resets_text.strip()) if token
            )
            edges.append(Edge(source, symbol, parse_guard(guard_text), resets, target))
        elif key in ("alphabet", "clocks", "params", "locations", "init", "final"):
            header.setdefault(key, []).extend(rest.split())
        else:
            raise ParseError(f"unknown key {key!r}", line=number)
    for required in ("alphabet", "locations", "init", "final"):
        if required not in header:
            raise ParseError(f"missing {required}: line")
    try:
        return Pta(
            alphabet=tuple(header["alphabet"]),
            locations=tuple(header["locations"]),
            initial=frozenset(header["init"]),
            clocks=tuple(header.get("clocks", [])),
            parameters=tuple(header.get("params", [])),
            edges=tuple(edges),
            final=frozenset(header["final"]),
        )
    except ValueError as error:
        raise ParseError(str(error)) from error


def serialize_pta(automaton: Pta) -> str:
    lines = [
        "alphabet: " + " ".join(automaton.alphabet),
        "clocks: " + " ".join(automaton.clocks),
        "params: " + " ".join(automaton.parameters),
        "locations: " + " ".join(automaton.locations),
        "init: " + " ".join(sorted(automaton.initial)),
        "final: " + " ".join(sorted(automaton.final)),
    ]
    for edge in automaton.edges:
        resets = ",".join(sorted(edge.resets))
        lines.append(
            f'edge: {edge.source} {edge.symbol} "{serialize_guard(edge.guard)}" '
            f"{{{resets}}} {edge.target}"
        )
    return "\n".join(lines) + "\n"


# -- parameter valuations and computations ------------------------------------


def parse_valuation(text: str) -> dict[str, Fraction]:
    """Parse ``p=1/2`` (comma-separated for several parameters); an empty
    text is the empty valuation of a parameter-free automaton."""
    values: dict[str, Fraction] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"bad assignment {part!r}: expected name=value")
        name, _, value = part.partition("=")
        name = name.strip()
        if name in values:
            raise ParseError(f"parameter {name!r} set twice")
        values[name] = parse_rational(value)
    return values


def serialize_valuation(values) -> str:
    items = sorted(values.items()) if isinstance(values, dict) else sorted(values)
    return ",".join(f"{name}={format_rational(value)}" for name, value in items)


def parse_computation(machine: ChannelMachine, text: str):
    """Parse an alternating 'state label state ... state' sequence and replay
    it under the exact step relation."""
    tokens = text.split()
    if len(tokens) % 2 == 0 or not tokens:
        raise ParseError("computation must alternate state label state ... state")
    states = tokens[0::2]
    labels = tokens[1::2]
    if states[0] != machine.initial:
        raise ParseError(f"computation must start at {machine.initial!r}")
    current = Configuration(machine.initial, ())
    steps = []
    for label, nxt_state in zip(labels, states[1:]):
        successors = [c for c in step_exact(machine, current, label) if c.state == nxt_state]
        if not successors:
            raise ParseError(
                f"no exact step ({current.state}, {label}, {nxt_state}) "
                f"with channel {''.join(current.channel) or 'empty'}"
            )
        current = successors[0]
        steps.append((label, current))
    return Computation(Configuration(machine.initial, ()), tuple(steps))


def serialize_computation(computation) -> str:
    parts = [computation.initial.state]
    for label, config in computation.steps:
        parts.append(label)
        parts.append(config.state)
    return " ".join(parts)
