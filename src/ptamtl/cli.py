"""Command-line front end.

Exit codes: 0 when a verdict was produced, 1 on usage or parse errors and
on files that cannot be read (or, for ``reduce``, written), 2 on internal
invariant violations.  Arguments holding a formula, word, or
computation may be given inline or as ``@path`` to read from a file.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import formats
from .channel import max_channel, search_error_free
from .errors import ToolkitError
from .encoding import EncodingLayout, decode, default_layout, encode, explain_membership
from .modelcheck import bounded_modelcheck
from .mtl import eval_at, satisfies
from .pta import is_deterministic, membership
from .reduction import build_bundle, check_theorem, validate_symbols


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _maybe_file(value: str) -> str:
    return _read(value[1:]) if value.startswith("@") else value


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:  # missing, a directory, not UTF-8
        raise ToolkitError(error) from None


def _machine_and_final(path: str, final: str):
    machine, file_final = formats.parse_machine(_read(path))
    final = final or file_final
    if final is None:
        raise UsageError("no target state: give one or add a 'final:' line to the machine")
    if final not in machine.states:
        raise UsageError(f"target state {final!r} undeclared")
    return machine, final


def _reduction_input(args):
    """The machine and target of a reduction, whose states and messages
    become formula atoms."""
    machine, final = _machine_and_final(args.machine, args.final)
    try:
        validate_symbols(machine, final)
    except ValueError as error:
        raise UsageError(str(error)) from None
    return machine, final


def _valuation(automaton, text: str) -> dict[str, Fraction]:
    """A parameter valuation that sets exactly the automaton's parameters,
    each to a non-negative rational."""
    valuation = formats.parse_valuation(text)
    if set(valuation) != set(automaton.parameters):
        names = ", ".join(automaton.parameters) or "none"
        raise UsageError(
            f"valuation {formats.serialize_valuation(valuation)!r} must set exactly the automaton's parameters ({names})"
        )
    for name, value in valuation.items():
        if value < 0:
            raise UsageError(f"parameter {name!r} must not be negative")
    return valuation


def _search_bounds(args) -> None:
    if args.steps < 0:
        raise UsageError("--steps must not be negative")
    if args.chan < 0:
        raise UsageError("--chan must not be negative")


def _cmd_eval(args) -> int:
    program = formats.parse_program(_maybe_file(args.formula))
    word = formats.parse_timed_word(_maybe_file(args.word))
    if args.at is not None and not 1 <= args.at <= len(word):
        raise UsageError(f"--at must lie in 1..{len(word)}")
    verdict = satisfies(word, program) if args.at is None else eval_at(word, args.at, program)
    print("true" if verdict else "false")
    return 0


def _cmd_member(args) -> int:
    automaton = formats.parse_pta(_read(args.pta))
    valuation = _valuation(automaton, args.valuation)
    word = formats.parse_timed_word(_maybe_file(args.word))
    unknown = [symbol for symbol in word.symbols if symbol not in automaton.alphabet]
    if unknown:
        raise UsageError(f"symbol {unknown[0]!r} not in the automaton's alphabet")
    print("true" if membership(automaton, valuation, word) else "false")
    return 0


def _cmd_det_check(args) -> int:
    automaton = formats.parse_pta(_read(args.pta))
    print("deterministic" if is_deterministic(automaton) else "nondeterministic")
    return 0


def _write_all(texts: dict[Path, str]) -> None:
    """Write each text to its path, all of them or none: each goes to a
    temporary file beside its path, and the temporary files are renamed into
    place once all are written and no path is a directory."""
    temps = [path.with_name(f".{path.name}.tmp") for path in texts]
    try:
        for temp, text in zip(temps, texts.values()):
            temp.write_text(text)
        for path in texts:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for temp, path in zip(temps, texts):
            temp.replace(path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _cmd_reduce(args) -> int:
    machine, final = _reduction_input(args)
    bundle = build_bundle(machine, final)
    base = Path(args.out) if args.out else Path(args.machine).with_suffix("")
    # each extension is appended, so a dotted basename keeps all its parts
    pta_path = base.with_name(base.name + ".pta")
    mtl_path = base.with_name(base.name + ".mtl")
    alphabet_path = base.with_name(base.name + ".alphabet")
    texts = {
        pta_path: formats.serialize_pta(bundle.automaton),
        mtl_path: formats.serialize_formula(bundle.formula) + "\n",
        alphabet_path: " ".join(bundle.alphabet) + "\n",
    }
    try:
        _write_all(texts)
    except OSError as error:
        raise ToolkitError(error) from None
    for path in (pta_path, mtl_path, alphabet_path):
        print(path)
    return 0


def _cmd_encode(args) -> int:
    machine, final = _machine_and_final(args.machine, args.final)
    computation = formats.parse_computation(machine, _maybe_file(args.computation))
    width = max_channel(computation)
    delta = formats.parse_rational(args.delta)
    try:
        if args.slots is None:
            layout = default_layout(width, delta)
        else:
            texts = args.slots.split(",") if args.slots else []  # an empty text gives no slots
            layout = EncodingLayout(delta, tuple(formats.parse_rational(s) for s in texts))
    except ValueError as error:
        raise UsageError(f"bad layout: {error}") from None
    word = encode(machine, final, computation, layout)
    print(formats.serialize_timed_word(word))
    return 0


def _cmd_check_lcn(args) -> int:
    if args.n < 0:
        raise UsageError("n must not be negative")
    machine, final = _machine_and_final(args.machine, args.final)
    word = formats.parse_timed_word(_maybe_file(args.word))
    reason = explain_membership(word, machine, final, args.n)
    if reason is None:
        print("true")
    else:
        print("false")
        if args.explain:
            print(reason, file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    machine, final = _machine_and_final(args.machine, args.final)
    word = formats.parse_timed_word(_maybe_file(args.word))
    computation = decode(word, machine, final)
    print(formats.serialize_computation(computation))
    return 0


def _cmd_search(args) -> int:
    _search_bounds(args)
    machine, final = _machine_and_final(args.machine, args.final)
    result = search_error_free(machine, final, args.steps, args.chan)
    if result.computation is not None:
        print(formats.serialize_computation(result.computation))
    else:
        scope = "bounds exhausted" if result.truncated else "explored space exhausted"
        print(f"unreachable within bounds ({scope})")
    return 0


def _cmd_mc_bounded(args) -> int:
    if args.k is not None and args.k < 1:
        raise UsageError("--k must be at least 1")
    if args.max_events < 1:
        raise UsageError("--max-events must be at least 1")
    grid = formats.parse_rational(args.grid)
    if grid <= 0:
        raise UsageError("--grid must be positive")
    horizon = formats.parse_rational(args.horizon)
    if horizon < 0:
        raise UsageError("--horizon must not be negative")
    automaton = formats.parse_pta(_read(args.pta))
    program = formats.parse_program(_maybe_file(args.formula))
    if args.candidates is not None:
        candidates = [_valuation(automaton, part) for part in args.candidates.split(";")]
        for k, valuation in enumerate(candidates):
            if valuation in candidates[:k]:
                raise UsageError(f"valuation {formats.serialize_valuation(valuation)!r} is repeated in --candidates")
    elif args.k is None and not automaton.parameters:
        candidates = [{}]
    else:
        k = 4 if args.k is None else args.k
        if len(automaton.parameters) != 1:
            raise UsageError("--k shorthand needs exactly one parameter")
        name = automaton.parameters[0]
        candidates = [{name: Fraction(1, i)} for i in range(1, k + 1)]
    verdict = bounded_modelcheck(
        automaton,
        program,
        candidates,
        grid,
        horizon,
        args.max_events,
        strict_only=args.strict_only,
    )
    payload = {
        "outcome": verdict.outcome,
        "all_candidates_refuted": verdict.all_candidates_refuted,
        "candidates": [
            {
                "valuation": formats.serialize_valuation(dict(c.valuation)),
                "counterexample": (
                    formats.serialize_timed_word(c.counterexample)
                    if c.counterexample
                    else None
                ),
                **vars(c.stats),
            }
            for c in verdict.candidates
        ],
    }
    if verdict.counterexample is not None:
        payload["valuation"] = formats.serialize_valuation(dict(verdict.valuation))
        payload["counterexample"] = formats.serialize_timed_word(verdict.counterexample)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"outcome: {verdict.outcome}")
        if verdict.counterexample is not None:
            print(f"valuation: {payload['valuation']}")
            print(f"counterexample: {payload['counterexample']}")
        for entry in payload["candidates"]:
            mark = "refuted" if entry["counterexample"] else "no counterexample within bounds"
            print(f"  {entry['valuation']}: {mark} ({entry['words_checked']} words checked)")
    return 0


def _cmd_verify_reduction(args) -> int:
    _search_bounds(args)
    machine, final = _reduction_input(args)
    report = check_theorem(machine, final, args.steps, args.chan)
    payload = {
        "outcome": report.outcome,
        "search_complete": report.search_complete,
        "mutants_total": report.mutants_total,
        "mutants_formula_kept": report.mutants_formula_kept,
        "mutants_automaton_rejected": report.mutants_automaton_rejected,
    }
    if report.computation is not None:
        payload["witness"] = formats.serialize_computation(report.computation)
    if report.forward is not None:
        payload["forward"] = {
            a.name: ("n/a" if a.holds is None else a.holds) for a in report.forward.assertions
        }
        payload["valuation"] = formats.serialize_valuation(report.forward.valuation)
    if report.backward is not None:
        payload["backward"] = (
            {a.name: a.holds for a in report.backward.assertions}
            if report.backward.applicable
            else f"inapplicable: {report.backward.reason}"
        )
    if report.notes:
        payload["notes"] = list(report.notes)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if report.outcome == "no-witness":
            scope = "exploration complete" if report.search_complete else "bounds exhausted"
            print(f"outcome: inconclusive (no witness within bounds; {scope})")
        else:
            print(f"outcome: {report.outcome}")
        for key, value in payload.items():
            if key != "outcome":
                print(f"{key}: {value}")
    return 0


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ptamtl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an MTL formula on a timed word")
    p.add_argument("formula")
    p.add_argument("word")
    p.add_argument("--at", type=int, default=None, help="evaluate at a 1-based position")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("member", help="timed-word membership under a valuation")
    p.add_argument("pta")
    p.add_argument("valuation")
    p.add_argument("word")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("det-check", help="check automaton determinism")
    p.add_argument("pta")
    p.set_defaults(func=_cmd_det_check)

    p = sub.add_parser("reduce", help="emit the automaton/formula pair for a machine")
    p.add_argument("machine")
    p.add_argument("final", nargs="?", default=None)
    p.add_argument("--out", default=None, help="output basename")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("encode", help="encode an error-free computation as a timed word")
    p.add_argument("machine")
    p.add_argument("final", nargs="?", default=None)
    p.add_argument("computation", help="'state label state ...' or @file")
    p.add_argument("--delta", default="0")
    p.add_argument("--slots", default=None, help="comma-separated slot offsets")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("check-lcn", help="check encoding-language membership at width n")
    p.add_argument("machine")
    p.add_argument("final", nargs="?", default=None)
    p.add_argument("n", type=int)
    p.add_argument("word")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=_cmd_check_lcn)

    p = sub.add_parser("decode", help="decode a timed word back into a computation")
    p.add_argument("machine")
    p.add_argument("final", nargs="?", default=None)
    p.add_argument("word")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("search", help="bounded error-free reachability search")
    p.add_argument("machine")
    p.add_argument("final", nargs="?", default=None)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--chan", type=int, required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("mc-bounded", help="bounded counterexample search")
    p.add_argument("pta")
    p.add_argument("formula")
    chosen = p.add_mutually_exclusive_group()
    chosen.add_argument("--candidates", default=None, help="semicolon-separated valuations")
    chosen.add_argument("--k", type=int, default=None, help="candidates 1/1 .. 1/K")
    p.add_argument("--grid", required=True)
    p.add_argument("--horizon", required=True)
    p.add_argument("--max-events", type=int, required=True)
    p.add_argument("--strict-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mc_bounded)

    p = sub.add_parser("verify-reduction", help="end-to-end bounded reduction check")
    p.add_argument("machine")
    p.add_argument("final", nargs="?", default=None)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--chan", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_reduction)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 1
    except ToolkitError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except AssertionError as error:
        print(f"internal invariant violation: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # noqa: BLE001
        print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
