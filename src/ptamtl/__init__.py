"""Exact-arithmetic toolkit for parametric timed automata, MTL over finite
timed words, channel machines, and the timed-word encoding connecting them."""

from .channel import (
    ChannelMachine,
    Computation,
    Configuration,
    SearchResult,
    enumerate_error_free,
    is_error_free,
    is_valid_computation,
    max_channel,
    search_error_free,
    step_exact,
    step_insertion,
    subword,
)
from .encoding import (
    ConfigBlock,
    EncodingLayout,
    check_membership,
    decode,
    decompose,
    default_layout,
    encode,
    explain_membership,
    frac_alignment,
    inject_insertion,
    insertion_mutants,
    max_width,
    n_prefix,
)
from .modelcheck import McVerdict, bounded_modelcheck
from .mtl import (
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
    TrueConst,
    Until,
    eval_at,
    satisfies,
)
from .pta import (
    ClockConstraint,
    ConstraintAtom,
    Edge,
    Pta,
    constraint_feasible,
    constraint_sat,
    enumerate_accepted,
    is_deterministic,
    iter_accepted,
    membership,
    membership_trace,
)
from .reduction import (
    ReductionBundle,
    build_automaton,
    build_bundle,
    build_formula,
    check_theorem,
    machine_alphabet,
    verify_backward,
    verify_forward,
)
from .timedwords import TimedWord, concat, is_strictly_monotonic, rat

__all__ = [name for name in dir() if not name.startswith("_")]
