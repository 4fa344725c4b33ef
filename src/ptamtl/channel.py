"""Channel machines: finite control over an unbounded fifo channel.

Labels are ``m!`` (append m to the tail), ``m?`` (consume m from the head),
and ``eps`` (test the channel for emptiness).  The exact step rule is stated
once, in ``_successors``, which reads each state's transitions from the
machine's own index, ``ChannelMachine.moves``; ``step_exact`` is its steps
filtered by label.  Besides the exact step relation there is a faulty
superset in which extra messages may appear on the channel around a step
(insertion errors).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import ComputationValidationError

EPS = "eps"


def send_label(message: str) -> str:
    return message + "!"


def recv_label(message: str) -> str:
    return message + "?"


def label_kind(label: str) -> tuple[str, Optional[str]]:
    """Classify a label as ('send', m), ('recv', m), or ('empty', None)."""
    if label == EPS:
        return ("empty", None)
    if label.endswith("!"):
        return ("send", label[:-1])
    if label.endswith("?"):
        return ("recv", label[:-1])
    raise ValueError(f"malformed label {label!r}")


@dataclass(frozen=True)
class ChannelMachine:
    states: tuple[str, ...]
    initial: str
    messages: tuple[str, ...]
    transitions: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        states = set(self.states)
        if self.initial not in states:
            raise ValueError("initial state must be a declared state")
        # encodings classify events by symbol, so names must keep the symbol
        # classes apart
        names = list(self.states) + list(self.messages)
        if len(set(names)) != len(names):
            raise ValueError("state and message names must be distinct")
        for name in names:
            if name.split() != [name]:  # the text format splits on whitespace
                raise ValueError(f"name {name!r} is not one whitespace-free token")
            if name in ("#", "*", EPS) or name.endswith(("!", "?")):
                raise ValueError(f"name {name!r} collides with a reserved spelling")
        valid = self.labels()
        for source, label, target in self.transitions:
            if source not in states or target not in states:
                raise ValueError(f"transition endpoints undeclared: {(source, label, target)}")
            if label not in valid:
                raise ValueError(f"transition label undeclared: {label!r}")

    def labels(self) -> tuple[str, ...]:
        out = []
        for m in self.messages:
            out.append(send_label(m))
            out.append(recv_label(m))
        out.append(EPS)
        return tuple(out)

    @cached_property
    def moves(self) -> dict[str, tuple[tuple[str, str, Optional[str], str], ...]]:
        """Each state's distinct transitions as (label, kind, message, target),
        labels in machine order, then targets in sorted order."""
        order = self.labels().index
        moves: dict[str, list] = {}
        for source, label, target in sorted(set(self.transitions), key=lambda t: (order(t[1]), t[2])):
            moves.setdefault(source, []).append((label, *label_kind(label), target))
        return {source: tuple(group) for source, group in moves.items()}


@dataclass(frozen=True)
class Configuration:
    state: str
    channel: tuple[str, ...] = ()


@dataclass(frozen=True)
class Computation:
    """An initial configuration followed by labelled steps."""

    initial: Configuration
    steps: tuple[tuple[str, Configuration], ...] = ()

    @property
    def configurations(self) -> tuple[Configuration, ...]:
        return (self.initial,) + tuple(c for _, c in self.steps)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.steps)

    @property
    def final(self) -> Configuration:
        return self.steps[-1][1] if self.steps else self.initial


def subword(shorter: Sequence[str], longer: Sequence[str]) -> bool:
    """Whether ``shorter`` embeds into ``longer`` by a strictly increasing
    symbol-preserving index map."""
    position = 0
    for symbol in shorter:
        while position < len(longer) and longer[position] != symbol:
            position += 1
        if position == len(longer):
            return False
        position += 1
    return True


def step_exact(
    machine: ChannelMachine, config: Configuration, label: str
) -> frozenset[Configuration]:
    """Successors under the exact step relation; empty when nothing applies."""
    return frozenset(nxt for lab, nxt in _successors(machine, config) if lab == label)


def step_insertion(
    machine: ChannelMachine,
    before: Configuration,
    label: str,
    after: Configuration,
) -> bool:
    """Whether (before, label, after) is a step of the faulty relation.

    Uses closed forms equivalent to the existential definition (some exact
    step between a superword of ``before`` and a subword of ``after``):

      send m:  before.channel + m  embeds into  after.channel
      recv m:  before.channel      embeds into  m + after.channel
      empty:   before.channel is empty (after unconstrained)

    The equivalence is checked against a brute-force oracle in the test
    suite.
    """
    kind, message = label_kind(label)
    if (label, kind, message, after.state) not in machine.moves.get(before.state, ()):
        return False
    if kind == "send":
        return subword(before.channel + (message,), after.channel)
    if kind == "recv":
        return subword(before.channel, (message,) + after.channel)
    return before.channel == ()


def is_valid_computation(machine: ChannelMachine, computation: Computation) -> bool:
    """Every step lies in the faulty step relation."""
    steps = zip(computation.configurations, computation.steps)
    return all(step_insertion(machine, current, label, nxt) for current, (label, nxt) in steps)


def is_error_free(machine: ChannelMachine, computation: Computation) -> bool:
    """Whether every step is exact.  Raises on invalid computations."""
    if not is_valid_computation(machine, computation):
        raise ComputationValidationError("not a computation of the machine")
    steps = zip(computation.configurations, computation.steps)
    return all(nxt in step_exact(machine, current, label) for current, (label, nxt) in steps)


def max_channel(computation: Computation) -> int:
    """Maximum channel length over all configurations."""
    return max(len(c.channel) for c in computation.configurations)


@dataclass(frozen=True)
class SearchResult:
    computation: Optional[Computation]
    truncated: bool  # True when some branch was cut by the bounds


def _successors(machine: ChannelMachine, config: Configuration):
    """The exact steps out of a configuration, as (label, successor) pairs:
    labels in machine order, then successors by (state, channel).  This is
    the one statement of the exact step rule."""
    channel = config.channel
    for label, kind, message, target in machine.moves.get(config.state, ()):
        if kind == "send":
            yield label, Configuration(target, channel + (message,))
        elif channel[:1] == ((message,) if kind == "recv" else ()):  # the head read, or an empty channel
            yield label, Configuration(target, channel[1:])


def search_error_free(
    machine: ChannelMachine,
    target: str,
    max_steps: int,
    max_channel_len: int,
) -> SearchResult:
    """Breadth-first search for a shortest error-free computation from the
    initial configuration to the target control state.

    When no computation is found, ``truncated`` distinguishes a search cut
    off by the bounds from one that exhausted the whole reachable space.
    """
    if target not in machine.states:
        raise ValueError(f"target state {target!r} undeclared")
    start = Configuration(machine.initial, ())
    if start.state == target:
        return SearchResult(Computation(start), truncated=False)
    parents: dict[Configuration, tuple[Configuration, str]] = {}
    seen = {start}
    queue = deque([(start, 0)])
    truncated = False
    while queue:
        config, depth = queue.popleft()
        if depth == max_steps:
            # only a genuine cut if an unexplored successor exists
            if any(nxt not in seen for _, nxt in _successors(machine, config)):
                truncated = True
            continue
        for label, nxt in _successors(machine, config):
            if nxt in seen:
                continue
            if len(nxt.channel) > max_channel_len:
                truncated = True
                continue
            seen.add(nxt)
            parents[nxt] = (config, label)
            if nxt.state == target:
                steps = []
                node = nxt
                while node != start:
                    previous, lab = parents[node]
                    steps.append((lab, node))
                    node = previous
                steps.reverse()
                return SearchResult(Computation(start, tuple(steps)), truncated=False)
            queue.append((nxt, depth + 1))
    return SearchResult(None, truncated=truncated)


def enumerate_error_free(
    machine: ChannelMachine,
    target: str,
    max_steps: int,
    max_channel_len: int,
) -> list[Computation]:
    """All error-free computations from the initial configuration whose last
    configuration is the first visit to the target state, within the bounds.

    Computations stop at the target (a visit to the target ends the
    computation); this matches what the timed-word encoding can express.
    """
    if target not in machine.states:
        raise ValueError(f"target state {target!r} undeclared")
    start = Configuration(machine.initial, ())
    if start.state == target:
        return [Computation(start)]
    results: list[Computation] = []
    steps: list[tuple[str, Configuration]] = []
    # depth first with an explicit stack: pending[d] yields the steps out of
    # the configuration after d steps, so steps[:d] leads to it
    pending = [_successors(machine, start)] if max_steps > 0 else []
    while pending:
        step = next(pending[-1], None)
        if step is None:
            pending.pop()
            if steps:
                steps.pop()
            continue
        label, nxt = step
        if len(nxt.channel) > max_channel_len:
            continue
        steps.append(step)
        if nxt.state == target:
            results.append(Computation(start, tuple(steps)))
        elif len(steps) < max_steps:
            pending.append(_successors(machine, nxt))
            continue
        steps.pop()
    return results
