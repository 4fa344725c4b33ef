"""The full pipeline: machine in, automaton + formula out, checks all round.

The formula characterizes encodings of computations reaching the target,
insertion errors included; the one-clock one-parameter automaton meters the
first and last display at an exact cadence x = p, which forces p = 1/(n+1)
and equal widths, squeezing the insertions back out.  A word accepted by
both therefore witnesses error-free reachability, and the bounded model
checker can hunt for exactly such words.
"""

from fractions import Fraction

from ptamtl import (
    bounded_modelcheck,
    build_bundle,
    check_theorem,
    insertion_mutants,
    is_deterministic,
    membership,
    satisfies,
    search_error_free,
    verify_forward,
)
from ptamtl.channel import ChannelMachine
from ptamtl.encoding import default_layout, encode
from ptamtl.formats import serialize_formula, serialize_timed_word
from ptamtl.mtl import Not

machine = ChannelMachine(
    states=("s0", "s1", "s2"),
    initial="s0",
    messages=("m",),
    transitions=(("s0", "m!", "s1"), ("s1", "m?", "s2")),
)
bundle = build_bundle(machine, "s2")
print("automaton: 5 locations,", len(bundle.automaton.edges), "edges,",
      "deterministic:", is_deterministic(bundle.automaton))
print("formula size:", len(serialize_formula(bundle.formula)), "characters\n")

# forward: encode a found computation and drive it through everything
gamma = search_error_free(machine, "s2", 6, 3).computation
report = verify_forward(bundle, gamma)
print("forward checks at p =", report.valuation["p"])
for assertion in report.assertions:
    print(f"  {assertion.name}: {assertion.holds}")

# insertion mutants satisfy the formula yet no candidate cadence accepts them
word = encode(machine, "s2", gamma, default_layout(1))
for mutant in insertion_mutants(word, machine, count=2):
    kept = satisfies(mutant, bundle.program)
    rejected = all(
        not membership(bundle.automaton, {"p": Fraction(1, k)}, mutant) for k in (1, 2, 3, 4)
    )
    print("mutant kept by formula:", kept, "| rejected by automaton:", rejected)

# the bounded model checker finds the encoding as a counterexample to the
# negated formula
verdict = bounded_modelcheck(
    bundle.automaton,
    Not(bundle.formula),
    candidates=[{"p": Fraction(1, 2)}],
    grid=Fraction(1, 2),
    horizon=Fraction(5),
    max_events=9,
    strict_only=True,
)
print("\nmodel-checking verdict:", verdict.outcome)
print("counterexample:", serialize_timed_word(verdict.counterexample))

# and the end-to-end report aggregates all of it
summary = check_theorem(machine, "s2", step_bound=6, channel_bound=3)
print("\nend-to-end:", summary.outcome,
      f"({summary.mutants_automaton_rejected}/{summary.mutants_total} mutants rejected)")

# removing the read leaves the target unreachable: no witness, no counterexample
stripped = ChannelMachine(machine.states, machine.initial, machine.messages,
                          (("s0", "m!", "s1"),))
print("stripped machine:", check_theorem(stripped, "s2", 6, 3).outcome)
