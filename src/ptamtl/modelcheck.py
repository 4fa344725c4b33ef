"""Bounded search for counterexamples to an MTL property over a PTA.

The underlying question (is there a parameter valuation under which every
accepted word satisfies the formula?) has no decision procedure, so this
driver semi-decides it over a finite candidate list and a finite word space:
timestamps on a rational grid, bounded horizon, bounded length.  Reported
counterexamples are exact and re-verified; absence claims hold only within
the explored bounds.

The word search runs formula progression of the negated property, whose
residual prunes each prefix, decides each accepted word and, with the
automaton's frontier, the tick and the depth, keys a memo of the subtrees
without a counterexample; a subtree that reached no word also covers every
later, deeper copy of its (frontier, residual), which is skipped.  The
first word the search yields is the counterexample.  Each candidate carries
the :class:`SearchStats` of its walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .mtl import Formula, Program, Progression, compile_formula, satisfies
from .pta import Pta, SearchStats, iter_accepted, membership
from .timedwords import TimedWord

COUNTEREXAMPLE_FOUND = "counterexample-found"
NO_COUNTEREXAMPLE = "no-counterexample-within-bounds"


@dataclass(frozen=True)
class CandidateResult:
    """A valuation, its first counterexample if any, and its walk's :class:`SearchStats`."""

    valuation: tuple[tuple[str, Fraction], ...]
    counterexample: Optional[TimedWord]
    stats: SearchStats

    @property
    def refuted(self) -> bool:
        return self.counterexample is not None


@dataclass(frozen=True)
class McVerdict:
    """Outcome of a bounded model-checking run: one result per candidate.

    ``counterexample-found`` names the first refuted candidate's valuation
    and witness word (deterministic candidate order, deterministic word
    enumeration order); when no candidate is refuted the verdict is
    ``no-counterexample-within-bounds``.  ``all_candidates_refuted`` flags
    the case where every candidate had a counterexample.
    """

    candidates: tuple[CandidateResult, ...]

    @property
    def outcome(self) -> str:
        return NO_COUNTEREXAMPLE if self.counterexample is None else COUNTEREXAMPLE_FOUND

    @property
    def valuation(self) -> Optional[tuple[tuple[str, Fraction], ...]]:
        return next((c.valuation for c in self.candidates if c.refuted), None)

    @property
    def counterexample(self) -> Optional[TimedWord]:
        return next((c.counterexample for c in self.candidates if c.refuted), None)

    @property
    def all_candidates_refuted(self) -> bool:
        return bool(self.candidates) and all(c.refuted for c in self.candidates)


def bounded_modelcheck(
    automaton: Pta,
    formula: Union[Formula, Program],
    candidates: Sequence[Mapping[str, Fraction]],
    grid: Fraction,
    horizon: Fraction,
    max_events: int,
    strict_only: bool = False,
) -> McVerdict:
    """Scan each candidate valuation for an accepted word violating the formula,
    given as an AST or as a program.

    With ``strict_only`` the word space is restricted to strictly monotonic
    timed words.  That restriction is exact whenever every non-strict word
    trivially satisfies the formula (as with the negated encoding formulas
    produced by the reduction, whose violations are strictly monotonic by
    construction); otherwise it weakens absence claims accordingly.
    """
    if not candidates:
        raise ValueError("need at least one candidate valuation")
    # A subtree is skipped once the residual of the negated formula is false,
    # as no extension can violate the property: absence claims stay exact
    # relative to the bounds.  Residuals are valuation-free, shared by the
    # candidates.
    program = compile_formula(formula)
    negated = program._replace(root=program.root ^ 1)
    violation = Progression(negated, grid)
    results: list[CandidateResult] = []
    for valuation in candidates:
        stats = SearchStats()
        search = iter_accepted(automaton, valuation, grid, horizon, max_events, strict_only, violation, stats)
        counterexample = next(search, None)
        # a counterexample is re-checked by the batch evaluator on the program
        # of the negated formula, and against the automaton by exact
        # membership: neither runs the progression that found it
        if counterexample is not None:
            if not membership(automaton, valuation, counterexample) or not satisfies(counterexample, negated):
                raise AssertionError("counterexample failed exact re-verification")
        results.append(CandidateResult(tuple(sorted(valuation.items())), counterexample, stats))
    return McVerdict(tuple(results))
