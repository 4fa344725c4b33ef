"""Timed-word encodings of channel-machine computations.

A computation is laid out as a sequence of blocks, one configuration per two
time units.  A block holds the control-state symbol, then the channel display
(message symbols padded with hash symbols) at fractional offsets strictly
inside the following unit interval, then the step label exactly one time unit
after the state symbol.  The final block carries the target state and is
closed by the end marker ``*`` instead of a label.

The block-to-block rules mirror the machine's steps: an empty test requires
an all-hash display copied forward two time units; a send replaces the first
hash with the sent message (or, when the display is already full, appends the
message right after the copied display); a receive whose head matches shifts
the remaining display one slot to the left and appends a hash.  A receive
whose head does not match copies the display and appends a hash: that is an
insertion error, and so is any extra display symbol not mandated by the
rules.  Extra symbols are tolerated by the language (and from their first
occurrence on they are subject to the same copy discipline), which is exactly
why a separate automaton is needed to rule them out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .channel import (
    ChannelMachine,
    Computation,
    Configuration,
    EPS,
    is_error_free,
    label_kind,
    max_channel,
)
from .errors import (
    AlignmentViolationError,
    DecodeInsertionError,
    DecodeStructureError,
    EncodingPreconditionError,
    InjectionError,
)
from .timedwords import TimedWord, rat

HASH = "#"
STAR = "*"


@dataclass(frozen=True)
class EncodingLayout:
    """Base offset of the first block plus the display slot offsets.

    Slot offsets are strictly increasing rationals in the open unit interval;
    every block of an encoded word uses the same slots.
    """

    delta: Fraction
    slots: tuple[Fraction, ...]

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("base offset must be non-negative")
        previous = Fraction(0)
        for offset in self.slots:
            if not previous < offset:
                raise ValueError("slot offsets must be strictly increasing")
            previous = offset
        if self.slots and self.slots[-1] >= 1:
            raise ValueError("slot offsets must lie strictly below 1")


def default_layout(width: int, delta: Fraction = Fraction(0)) -> EncodingLayout:
    """Uniform slots i/(width+1); the layout the verification harness uses."""
    return EncodingLayout(rat(delta), tuple(Fraction(i, width + 1) for i in range(1, width + 1)))


@dataclass(frozen=True)
class ConfigBlock:
    """One decoded block: state symbol, display symbols with offsets, trailer."""

    state: str
    start: Fraction
    symbols: tuple[tuple[str, Fraction], ...]  # (symbol, offset in (0,1))
    trailer: str  # a label, or the end marker for the final block

    @property
    def width(self) -> int:
        return len(self.symbols)

    @property
    def offsets(self) -> tuple[Fraction, ...]:
        return tuple(o for _, o in self.symbols)

    def messages(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.symbols if s != HASH)


def decompose(word: TimedWord, machine: ChannelMachine) -> list[ConfigBlock]:
    """Parse a timed word into blocks, or raise DecodeStructureError naming
    the first offending event.

    Structural requirements only: a state symbol opens each block, display
    symbols sit at strictly increasing offsets strictly inside the unit
    interval, a label follows exactly one unit after the state (then the next
    state exactly two units after it), and the end marker closes the word one
    unit after the final state symbol.
    """
    states = frozenset(machine.states)
    display = frozenset(machine.messages) | {HASH}
    labels = frozenset(machine.labels())
    events = word.events

    def fail(index: int, reason: str):
        symbol, time = events[index]
        raise DecodeStructureError(f"event {index + 1} ({symbol}@{time}): {reason}")

    blocks: list[ConfigBlock] = []
    i = 0
    while True:
        symbol, start = events[i]
        if symbol not in states:
            fail(i, "expected a control-state symbol")
        close = start + 1
        i += 1
        symbols: list[tuple[str, Fraction]] = []
        previous = Fraction(0)
        while i < len(events) and events[i][1] < close:
            s, t = events[i]
            offset = t - start
            if s not in display:
                fail(i, "only message or hash symbols may appear inside a block")
            if offset <= 0:
                fail(i, "display symbols must come strictly after the state symbol")
            if offset <= previous:
                fail(i, "display offsets must be strictly increasing")
            previous = offset
            symbols.append((s, offset))
            i += 1
        if i == len(events):
            fail(i - 1, "block is not closed by a label or the end marker")
        trailer, t = events[i]
        if t != close:
            fail(i, "expected the label or end marker exactly one unit after the state")
        if trailer == STAR:
            if i + 1 != len(events):
                fail(i + 1, "no event may follow the end marker")
            blocks.append(ConfigBlock(symbol, start, tuple(symbols), STAR))
            return blocks
        if trailer not in labels:
            fail(i, "expected a transition label or the end marker")
        blocks.append(ConfigBlock(symbol, start, tuple(symbols), trailer))
        i += 1
        if i == len(events):
            fail(i - 1, "a label must be followed by the next state symbol")
        nxt_symbol, nxt_time = events[i]
        if nxt_time != close + 1:
            fail(i, "expected the next state symbol exactly two units after the previous")
        if nxt_symbol not in states:
            fail(i, "expected a control-state symbol two units after the previous")


def n_prefix(word: TimedWord) -> int:
    """Number of consecutive hash symbols starting at the second event."""
    count = 0
    for symbol in word.symbols[1:]:
        if symbol != HASH:
            break
        count += 1
    return count


def explain_membership(
    word: TimedWord, machine: ChannelMachine, target: str, width: int
) -> Optional[str]:
    """None when the word belongs to the encoding language with the given
    declared display width; otherwise the first violated condition."""
    if target not in machine.states:
        raise ValueError(f"target state {target!r} undeclared")
    if width < 0:
        raise ValueError("declared width must be non-negative")
    try:
        blocks = decompose(word, machine)
    except DecodeStructureError as error:
        return f"structure: {error}"
    return _violation(blocks, machine, target, width)


def _violation(
    blocks: list[ConfigBlock], machine: ChannelMachine, target: str, width: int
) -> Optional[str]:
    """The first condition of the encoding language that a decomposed word
    violates, or None."""
    # initial display: the right state, all hashes, exactly the declared width
    first = blocks[0]
    if first.state != machine.initial:
        return f"word starts with {first.state}, not the initial state"
    if any(s != HASH for s, _ in first.symbols):
        return "the initial display must consist of hash symbols only"
    if first.width != width:
        return f"initial display has {first.width} symbols, declared width is {width}"

    transitions = set(machine.transitions)
    for index, block in enumerate(blocks[:-1]):
        if block.state == target:
            return f"block {index + 1}: target state must be closed by the end marker"
        nxt = blocks[index + 1]
        if (block.state, block.trailer, nxt.state) not in transitions:
            return (
                f"block {index + 1}: no transition "
                f"({block.state}, {block.trailer}, {nxt.state})"
            )
    if blocks[-1].state != target:
        return f"word ends in {blocks[-1].state}, not the target state"

    for index, block in enumerate(blocks):
        seen_hash = False
        for symbol, _ in block.symbols:
            if symbol == HASH:
                seen_hash = True
            elif seen_hash:
                return f"block {index + 1}: hash symbols may only follow message symbols"

    for index, block in enumerate(blocks[:-1]):
        problem = _check_step(block, blocks[index + 1], index + 1)
        if problem is not None:
            return problem
    return None


def _check_step(block: ConfigBlock, nxt: ConfigBlock, number: int) -> Optional[str]:
    """Copy/replace/append discipline between two adjacent blocks."""
    kind, message = label_kind(block.trailer)
    landing = {offset: symbol for symbol, offset in nxt.symbols}
    symbols = block.symbols
    replaced = None  # the offset of the hash a send replaces
    if kind == "empty":
        if any(s != HASH for s, _ in symbols):
            return f"block {number}: empty test over a non-empty display"
    elif kind == "send":
        replaced = next((o for s, o in symbols if s == HASH), None)
        if replaced is not None and landing.get(replaced) != message:
            return (
                f"block {number}: first hash (offset {replaced}) must become "
                f"{message!r} two units later"
            )
    elif symbols and symbols[0][0] == message:
        # receive, head matches: shift left one slot, append a hash in the last slot
        offsets = block.offsets
        for j in range(1, block.width):
            if landing.get(offsets[j - 1]) != symbols[j][0]:
                return (
                    f"block {number}: symbol at offset {offsets[j]} must shift to "
                    f"offset {offsets[j - 1]} two units later"
                )
        if landing.get(offsets[-1]) != HASH:
            return f"block {number}: a hash must appear in the freed last slot"
        return None

    for symbol, offset in symbols:
        if offset != replaced and landing.get(offset) != symbol:
            noun = "hash" if kind == "empty" else "symbol"
            return f"block {number}: {noun} at offset {offset} is not copied forward"
    if kind == "empty" or replaced is not None:
        return None
    # a send on a full display appends its message right after the copied
    # display; a receive whose head does not match (or an empty display) is an
    # insertion error and appends a hash there
    expected = message if kind == "send" else HASH
    anchor = symbols[-1][1] if symbols else Fraction(0)
    tail = [(s, o) for s, o in nxt.symbols if o > anchor]
    if len(tail) != 1 or tail[0][0] != expected:
        return (
            f"block {number}: the appended {expected!r} must be the only display "
            "symbol after the copied ones"
        )
    return None


def check_membership(
    word: TimedWord, machine: ChannelMachine, target: str, width: int
) -> bool:
    """Whether the word encodes a (possibly faulty) computation reaching the
    target, with an initial display of exactly ``width`` hash slots."""
    return explain_membership(word, machine, target, width) is None


def max_width(word: TimedWord, machine: ChannelMachine) -> int:
    """Largest display width over all blocks; structure errors propagate."""
    return max(block.width for block in decompose(word, machine))


def encode(
    machine: ChannelMachine,
    target: str,
    computation: Computation,
    layout: EncodingLayout,
) -> TimedWord:
    """Encode an error-free computation reaching the target as a timed word.

    The layout must provide exactly as many slots as the computation's
    maximum channel length; every block then shows the channel content padded
    with hashes in those fixed slots, and no symbol is ever inserted beyond
    what the step rules mandate.
    """
    try:
        error_free = is_error_free(machine, computation)
    except Exception as error:
        raise EncodingPreconditionError(str(error)) from error
    if not error_free:
        raise EncodingPreconditionError("computation contains insertion errors")
    if computation.initial != Configuration(machine.initial, ()):
        raise EncodingPreconditionError("computation must start at the initial state with an empty channel")
    if computation.final.state != target:
        raise EncodingPreconditionError("computation does not end in the target state")
    if any(c.state == target for c in computation.configurations[:-1]):
        raise EncodingPreconditionError("target state reached before the final configuration")
    width = max_channel(computation)
    if len(layout.slots) != width:
        raise EncodingPreconditionError(
            f"layout has {len(layout.slots)} slots, computation needs {width}"
        )
    events: list[tuple[str, Fraction]] = []
    configurations = computation.configurations
    labels = computation.labels
    for index, config in enumerate(configurations):
        base = layout.delta + 2 * index
        events.append((config.state, base))
        for j, offset in enumerate(layout.slots):
            symbol = config.channel[j] if j < len(config.channel) else HASH
            events.append((symbol, base + offset))
        trailer = labels[index] if index < len(labels) else STAR
        events.append((trailer, base + 1))
    return TimedWord(events)


def decode(word: TimedWord, machine: ChannelMachine, target: str) -> Computation:
    """Recover the error-free computation from an encoding without insertions.

    The declared width is read off the prefix; the word must belong to the
    encoding language at that width and must not contain inserted symbols
    (i.e. its maximal display width must equal the declared width).
    """
    width = n_prefix(word)
    if target not in machine.states:
        raise ValueError(f"target state {target!r} undeclared")
    try:
        blocks = decompose(word, machine)
    except DecodeStructureError as error:
        raise DecodeStructureError(f"structure: {error}") from error
    reason = _violation(blocks, machine, target, width)
    if reason is not None:
        raise DecodeStructureError(reason)
    widest = max(block.width for block in blocks)
    if widest > width:
        raise DecodeInsertionError(
            f"insertion errors present: widest block has {widest} symbols, "
            f"declared width is {width}"
        )
    configurations = [Configuration(b.state, b.messages()) for b in blocks]
    steps = tuple(
        (block.trailer, configurations[i + 1]) for i, block in enumerate(blocks[:-1])
    )
    computation = Computation(configurations[0], steps)
    if not is_error_free(machine, computation):
        raise DecodeStructureError("decoded computation is not error-free (checker bug)")
    return computation


def frac_alignment(
    word: TimedWord, machine: ChannelMachine
) -> list[tuple[int, ...]]:
    """For each adjacent block pair, the strictly increasing 1-based index map
    showing that every display offset survives into the next block.

    On language members this always succeeds; failure raises
    AlignmentViolationError and signals malformed input or a checker defect.
    """
    blocks = decompose(word, machine)
    maps: list[tuple[int, ...]] = []
    for index, block in enumerate(blocks[:-1]):
        nxt_offsets = blocks[index + 1].offsets
        positions = {offset: j + 1 for j, offset in enumerate(nxt_offsets)}
        image = []
        for offset in block.offsets:
            if offset not in positions:
                raise AlignmentViolationError(
                    f"offset {offset} of block {index + 1} has no counterpart in "
                    f"block {index + 2}"
                )
            image.append(positions[offset])
        maps.append(tuple(image))
    return maps


def inject_insertion(
    word: TimedWord,
    machine: ChannelMachine,
    block_index: int,
    offset: Fraction,
) -> TimedWord:
    """Insert a fresh hash into the given block (1-based, at least 2) and
    propagate the mandated copies through all later blocks.

    The offset must be fresh in every affected block, must come after each
    block's message symbols, and must stay clear of the slot a send step
    replaces.  The result remains in the encoding language at the original
    declared width, with the maximal display width increased by one.
    """
    offset = rat(offset)
    blocks = decompose(word, machine)
    if not 2 <= block_index <= len(blocks):
        raise InjectionError(
            f"block index must be between 2 and {len(blocks)}, got {block_index}"
        )
    if not 0 < offset < 1:
        raise InjectionError("offset must lie strictly between 0 and 1")
    for number, block in enumerate(blocks[block_index - 1 :], start=block_index):
        if offset in block.offsets:
            raise InjectionError(f"offset {offset} collides with a slot of block {number}")
        message_offsets = [o for s, o in block.symbols if s != HASH]
        if message_offsets and offset < message_offsets[-1]:
            raise InjectionError(
                f"offset {offset} would place a hash before a message in block {number}"
            )
        if block.trailer != STAR:
            kind, _ = label_kind(block.trailer)
            if kind == "send":
                hash_offsets = [o for s, o in block.symbols if s == HASH]
                if hash_offsets and offset < hash_offsets[0]:
                    raise InjectionError(
                        f"offset {offset} would displace the slot replaced by the send "
                        f"out of block {number}"
                    )
    # each new time is fresh in its block, so the sort is unambiguous
    hashes = tuple((HASH, block.start + offset) for block in blocks[block_index - 1 :])
    mutated = TimedWord(sorted(word.events + hashes, key=lambda event: event[1]))
    declared = n_prefix(word)
    reason = explain_membership(mutated, machine, blocks[-1].state, declared)
    if reason is not None:
        raise InjectionError(f"injection would leave the encoding language: {reason}")
    return mutated
