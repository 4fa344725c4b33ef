"""Bounded search for counterexamples to an MTL property over a PTA.

The underlying question (is there a parameter valuation under which every
accepted word satisfies the formula?) has no decision procedure, so this
driver semi-decides it over a finite candidate list and a finite word space:
timestamps on a rational grid, bounded horizon, bounded length.  Reported
counterexamples are exact and re-verified; absence claims hold only within
the explored bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .mtl import Formula, Monitor, Program, compile_formula, desugar, negate, prefix_may_satisfy, satisfies
from .pta import Pta, iter_accepted, membership
from .timedwords import TimedWord

COUNTEREXAMPLE_FOUND = "counterexample-found"
NO_COUNTEREXAMPLE = "no-counterexample-within-bounds"


@dataclass(frozen=True)
class CandidateResult:
    valuation: tuple[tuple[str, Fraction], ...]
    counterexample: Optional[TimedWord]
    words_checked: int

    @property
    def refuted(self) -> bool:
        return self.counterexample is not None


@dataclass(frozen=True)
class McVerdict:
    """Outcome of a bounded model-checking run.

    ``counterexample-found`` carries the first refuted candidate's valuation
    and witness word (deterministic candidate order, deterministic word
    enumeration order); when no candidate is refuted the verdict is
    ``no-counterexample-within-bounds``.  ``all_candidates_refuted`` flags
    the case where every candidate had a counterexample.
    """

    outcome: str
    candidates: tuple[CandidateResult, ...]
    grid: Fraction
    horizon: Fraction
    max_events: int
    strict_only: bool
    valuation: Optional[tuple[tuple[str, Fraction], ...]] = None
    counterexample: Optional[TimedWord] = None

    @property
    def all_candidates_refuted(self) -> bool:
        return bool(self.candidates) and all(c.refuted for c in self.candidates)


def bounded_modelcheck(
    automaton: Pta,
    formula: Formula,
    candidates: Sequence[Mapping[str, Fraction]],
    grid: Fraction,
    horizon: Fraction,
    max_events: int,
    strict_only: bool = False,
) -> McVerdict:
    """Scan each candidate valuation for an accepted word violating the formula.

    With ``strict_only`` the word space is restricted to strictly monotonic
    timed words.  That restriction is exact whenever every non-strict word
    trivially satisfies the formula (as with the negated encoding formulas
    produced by the reduction, whose violations are strictly monotonic by
    construction); otherwise it weakens absence claims accordingly.
    """
    if not candidates:
        raise ValueError("need at least one candidate valuation")
    # A subtree can be skipped once no extension of its prefix can violate
    # the property: the prefix monitor is sound, so absence claims stay
    # exact relative to the bounds.  The search offers each prefix as
    # (symbol, tick) pairs right after its parent, so the monitor, counting
    # time in ticks of the same grid, extends the parent's state by one event.
    program = compile_formula(formula)
    monitor = Monitor(negate(program), grid)
    # Counterexamples are re-checked on the core-only expansion of the
    # formula, a different op array run through other engine branches, and
    # against the automaton by exact membership.  Compiled on first use.
    core: Optional[Program] = None

    results: list[CandidateResult] = []
    for valuation in candidates:
        counterexample = None
        checked = 0
        for word in iter_accepted(
            automaton,
            valuation,
            grid,
            horizon,
            max_events,
            strict=strict_only,
            prefix_filter=lambda prefix: prefix_may_satisfy(prefix, monitor),
        ):
            checked += 1
            if not satisfies(word, program):
                if core is None:
                    core = compile_formula(desugar(formula, automaton.alphabet))
                if not membership(automaton, valuation, word) or satisfies(word, core):
                    raise AssertionError("counterexample failed exact re-verification")
                counterexample = word
                break
        results.append(CandidateResult(tuple(sorted(valuation.items())), counterexample, checked))
    hit = next((result for result in results if result.refuted), None)
    return McVerdict(
        outcome=NO_COUNTEREXAMPLE if hit is None else COUNTEREXAMPLE_FOUND,
        candidates=tuple(results),
        grid=Fraction(grid),
        horizon=Fraction(horizon),
        max_events=max_events,
        strict_only=strict_only,
        valuation=None if hit is None else hit.valuation,
        counterexample=None if hit is None else hit.counterexample,
    )
