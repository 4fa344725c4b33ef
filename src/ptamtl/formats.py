"""Text formats: timed words, MTL formulas, channel machines, automata.

Parsing and serialization round-trip: parse(serialize(v)) == v for every
value, formula ASTs included, and serialize(parse(t)) is the canonical
spelling of t.  A formula text is also read straight into a compiled
program by :func:`parse_program`, with no AST in between; it is the program
``compile_formula(parse_formula(t))``, ops and intervals numbered alike.
Both read a formula as one split of its text into plain token strings and
the gaps between them; the first scan error in the text, a character
outside the syntax or a malformed interval, is reported with its column.
"""

from __future__ import annotations

import re
import string
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
        if token.count("@") != 1:
            raise ParseError(f"bad event token {token!r}: expected symbol@time")
        symbol, _, time = token.partition("@")
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
# written.  Precedence: unary > & > | > -> > U.  The scanner splits the text
# once on the token pattern, so the tokens, as plain strings, alternate with
# the gaps between them.  A text is clean when every gap is whitespace and
# every distinct interval token is well formed; any other text is walked
# again, in text order, for its first error, which wins over any syntax
# error.  One precedence loop then reads the tokens for parse_formula, which
# builds AST nodes, and for parse_program, which hands each node, as it
# completes, to mtl.ProgramBuilder.  A parenthesised group is read once: a
# "(" whose tokens, up to and with the ")", repeat the last group closed
# with the same first token takes that group's value and skips past it, so
# each rule that a reduction formula writes twice (p & G p) is read once.

# an identifier: ASCII letters, digits and underscores, not leading with a digit
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a token: an identifier with an optional ! or ?, an interval, -> or a
# one-character operator; its one group makes split keep the tokens
_TOKEN = re.compile(
    rf"({IDENTIFIER.pattern}[!?]?"
    r"|\[\s*=\s*[0-9]+\s*\]|[\[(]\s*[0-9]+\s*,\s*(?:[0-9]+|inf)\s*[\])]"
    r"|->|[()&|!#*])"
)
# identifiers the syntax reserves: none of them can be read back as an atom
KEYWORDS = frozenset({"true", "false", "U", "X", "F", "G", "inf"})
# the first characters of an atom's token: an identifier's, # and *
_ATOM_START = frozenset(string.ascii_letters + "_#*")


def _is_interval(token: str) -> bool:
    return len(token) > 1 and token[0] in "[("


def _interval(token: str) -> Interval:
    """The interval an interval token spells; ValueError if it is empty."""
    spelled = "".join(token.split())  # [=2], [1,2), (0,inf) and the like
    if spelled[1] == "=":
        return Interval.point(int(spelled[2:-1]))
    lower, upper = spelled[1:-1].split(",")
    return Interval(int(lower), None if upper == "inf" else int(upper), spelled[0] == "[", spelled[-1] == "]")


def _scan(text: str) -> tuple[list[Optional[str]], dict[str, Interval]]:
    """The tokens of a formula, closed by None for its end, and the interval
    of each distinct interval token."""
    pieces = _TOKEN.split(text)  # gap, token, gap, ..., token, gap
    tokens: list = pieces[1::2]
    if not "".join(pieces[::2]).strip():
        try:
            intervals = {token: _interval(token) for token in set(tokens) if _is_interval(token)}
        except ValueError:
            pass
        else:
            tokens.append(None)
            return tokens, intervals
    raise _first_error(pieces)


def _first_error(pieces: list[str]) -> ParseError:
    """The first scan error of a text split into gaps and tokens, in text
    order: a character outside the syntax or a malformed interval."""
    column = 1
    for i, piece in enumerate(pieces):
        if i % 2 == 0:
            for j, character in enumerate(piece):
                if not character.isspace():
                    return ParseError(f"unexpected character {character!r}", column=column + j)
        elif _is_interval(piece):
            try:
                _interval(piece)
            except ValueError as error:
                return ParseError(f"bad interval {piece!r}: {error}", column=column)
        column += len(piece)
    raise AssertionError("a text with a scan error has a first one")


_PREFIXES = {Not: "!", Next: "X", Eventually: "F", Globally: "G"}  # the unary operators
# operators by token: (precedence, class); the unary ones bind tightest, & and
# | associate to the left, -> and U to the right
_OPERATORS = {op: (4, cls) for cls, op in _PREFIXES.items()} | {
    "&": (3, And), "|": (2, Or), "->": (1, Implies), "U": (0, Until),
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
    # open parenthesis.  ``opens`` holds the index of each open group's first
    # token, and ``groups`` the last group closed under its first token,
    # until a group that starts alike fails to repeat it: a token run parses
    # to one value wherever it stands, so a group that repeats it up to its
    # ")" gets that value without being read again.
    tokens, intervals = _scan(text)
    operands: list = []
    pending: list = []
    opens: list = []
    groups: dict = {}  # its first token -> (start, end past the ")", value)
    i, operand_due = 0, True
    while True:
        token = tokens[i]
        i += 1
        operator = _OPERATORS.get(token)
        # a unary operator where an operand is due, a binary one after an operand
        if operator is not None and (operator[0] == 4) == operand_due:
            level, cls = operator
            while pending and pending[-1] is not None and (
                pending[-1][0] > level or (pending[-1][0] == level and cls in (And, Or))
            ):
                _reduce(operands, pending.pop(), make)
            interval = None
            if cls in (Next, Eventually, Globally, Until):  # its interval, if it has one
                interval = intervals.get(tokens[i])
                if interval is None:
                    interval = FULL
                else:
                    i += 1
            pending.append((level, cls, interval))
            operand_due = True
        elif operand_due:
            if token == "(":
                if groups:  # a group read before: its value, and on past it
                    group = groups.get(tokens[i])
                    if group is not None:
                        start, end, value = group
                        if tokens[i : i + end - start] == tokens[start:end]:
                            operands.append(value)
                            i += end - start
                            operand_due = False
                            continue
                        del groups[tokens[i]]  # so a chain of "(" that start alike compares it once
                pending.append(None)
                opens.append(i)
                continue
            if token is None:
                raise ParseError("unexpected end of formula")
            if token[0] in _ATOM_START and token not in KEYWORDS:
                operands.append(make(Atom, None, token))
            elif token == "true" or token == "false":
                operands.append(make(TrueConst if token == "true" else FalseConst, None))
            elif token == "U":
                raise ParseError("'U' is an operator, not an atom")
            elif token == "inf":
                raise ParseError("'inf' is reserved for interval endpoints")
            else:
                raise ParseError(f"unexpected token {token!r}")
            operand_due = False
        else:  # the group or the text ends here
            while pending and pending[-1] is not None:
                _reduce(operands, pending.pop(), make)
            if not pending:
                if token is not None:
                    raise ParseError(f"trailing input starting at {token!r}")
                return operands[0]
            if token != ")":
                raise ParseError(f"expected ')', found {'end of input' if token is None else token!r}")
            pending.pop()
            start = opens.pop()
            groups[tokens[start]] = (start, i, operands[-1])


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
            if initial is not None:
                raise ParseError("init set twice", line=number)
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
            if final is not None:
                raise ParseError("final set twice", line=number)
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
    # each distinct guard and resets text is read once, so edges with equal
    # guards share one constraint; a bad text fails at its first line
    guards: dict[str, ClockConstraint] = {}
    resets: dict[str, frozenset[str]] = {}
    for number, key, rest in _key_lines(text):
        if key == "edge":
            match = _EDGE_LINE.match(rest.strip())
            if match is None:
                raise ParseError(
                    'edge needs: <src> <symbol> "<guard>" {<resets>} <dst>', line=number
                )
            source, symbol, guard_text, resets_text, target = match.groups()
            guard = guards.get(guard_text)
            if guard is None:
                try:
                    guard = guards[guard_text] = parse_guard(guard_text)
                except ParseError as error:
                    raise ParseError(str(error), line=number) from None
            reset = resets.get(resets_text)
            if reset is None:
                reset = resets[resets_text] = frozenset(
                    token for token in re.split(r"[,\s]+", resets_text.strip()) if token
                )
            edges.append(Edge(source, symbol, guard, reset, target))
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
                f"with channel {' '.join(current.channel) or 'empty'}"
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
