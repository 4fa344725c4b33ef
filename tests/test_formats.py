import random
import re
from fractions import Fraction

import pytest

from ptamtl import formats
from ptamtl.channel import ChannelMachine
from ptamtl.errors import ParseError
from ptamtl.mtl import FULL, And, Atom, Globally, Implies, Interval, Next, Not, Or, Until, and_all, compile_formula, or_all
from ptamtl.pta import ClockConstraint, Edge, Pta
from ptamtl.reduction import build_formula
from ptamtl.timedwords import TimedWord

from conftest import SHARED_NAME_PTA, send_receive_machine, two_message_machine, two_phase_automaton
from util import random_formula, random_word

F = Fraction


class TestWordFormat:
    def test_example_tokens(self):
        word = formats.parse_timed_word("s0@0 #@1/2 m!@1")
        assert word == TimedWord([("s0", 0), ("#", F(1, 2)), ("m!", 1)])

    def test_bad_token(self):
        # a token holds exactly one @: "a@0,b@1" is no event with symbol "a@0,b"
        for text in ("a0 b@1", "a@0,b@1"):
            with pytest.raises(ParseError, match="expected symbol@time"):
                formats.parse_timed_word(text)

    @pytest.mark.parametrize("time", ["\u0663", "1e1", "1_0", "1.5", "+1", "0x1", "1/-2", "\uff11"])
    def test_times_outside_the_rational_syntax(self, time):
        # only ASCII -?[0-9]+(/[0-9]+)? is a rational, so 3 in Arabic-Indic
        # digits, exponents, underscores and decimals are no time
        with pytest.raises(ParseError, match="bad rational"):
            formats.parse_timed_word(f"a@{time}")
        with pytest.raises(ParseError, match="bad rational"):
            formats.parse_rational(time)

    def test_rational_spellings(self):
        assert formats.parse_rational(" 3/4 ") == F(3, 4)
        assert formats.parse_rational("-2") == -2
        with pytest.raises(ParseError, match="negative timestamp -1"):
            formats.parse_timed_word("a@-1")

    def test_round_trip_random(self):
        rng = random.Random(3)
        alphabet = ["a", "b", "m!", "m?", "#", "*", "s0"]
        for _ in range(120):
            word = random_word(rng, alphabet, 8)
            assert formats.parse_timed_word(formats.serialize_timed_word(word)) == word


class TestFormulaFormat:
    def test_example(self):
        formula = formats.parse_formula("a U[1,2) (b & !c)")
        assert formula == Until(
            Interval(1, 2, True, False), Atom("a"), And(Atom("b"), Not(Atom("c")))
        )

    def test_label_atoms_and_markers(self):
        formula = formats.parse_formula("m! & !m? & # & *")
        rendered = formats.serialize_formula(formula)
        assert formats.parse_formula(rendered) == formula

    def test_point_interval(self):
        formula = formats.parse_formula("F[=2] b")
        assert formula.interval == Interval.point(2)

    def test_unbounded_interval(self):
        formula = formats.parse_formula("G[0,inf) a")
        assert formula.interval == Interval(0, None, True, False)

    def test_precedence(self):
        # unary > & > | > -> > U
        formula = formats.parse_formula("a U b -> c | d & !e")
        assert isinstance(formula, Until)
        implies = formula.right
        assert implies.__class__.__name__ == "Implies"

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            formats.parse_formula("a U U b")

    def test_round_trip_random(self):
        rng = random.Random(4)
        alphabet = ["a", "b", "m!", "m?", "#", "*"]
        for _ in range(150):
            formula = random_formula(rng, alphabet, 4)
            rendered = formats.serialize_formula(formula)
            assert formats.parse_formula(rendered) == formula, rendered

    def test_long_conjunction_chain_round_trips(self):
        # left-folded, as and_all builds it; compare text, since == and hash
        # on the chain recurse as deep as it goes
        formula = and_all([Atom(f"a{i % 7}") for i in range(3000)])
        rendered = formats.serialize_formula(formula)
        assert rendered == " & ".join(f"a{i % 7}" for i in range(3000))
        assert formats.serialize_formula(formats.parse_formula(rendered)) == rendered

    def test_long_disjunction_chain_keeps_its_brackets(self):
        formula = And(or_all([Atom("a"), Not(Atom("b"))] * 1500), Atom("c"))
        rendered = formats.serialize_formula(formula)
        assert rendered == "(" + " | ".join(["a", "!b"] * 1500) + ") & c"
        assert formats.serialize_formula(formats.parse_formula(rendered)) == rendered

    @pytest.mark.parametrize(
        "text",
        [
            "X " * 1000 + "a",
            "!" * 1000 + "a",
            "F[1,2] !G(0,1) " * 500 + "a",
            "a -> " * 1000 + "a",
            "a U[1,2] " * 1000 + "a",
        ],
        ids=["next", "not", "mixed-unary", "implies", "until"],
    )
    def test_deep_chains_round_trip(self, text):
        # compare text: == and hash on the parsed formula recurse as deep as it goes
        assert formats.serialize_formula(formats.parse_formula(text)) == text

    @pytest.mark.parametrize(
        "text, rendered",
        [
            ("(" * 1000 + "a" + ")" * 1000, "a"),
            ("!(" * 1000 + "a" + ")" * 1000, "!" * 1000 + "a"),
            ("(" * 1000 + "a" + ") & b" * 1000, "a" + " & b" * 1000),
            ("(" * 1000 + "a U b" + ") | c" * 1000, "(a U b)" + " | c" * 1000),
            ("(a & " * 1000 + "a" + ")" * 1000, "a & " + "(a & " * 999 + "a" + ")" * 999),
            ("(a | (b -> " * 500 + "c" + "))" * 500, "a | (b -> " * 500 + "c" + ")" * 500),
            ("(a U[0,1] (b & " * 500 + "c" + "))" * 500, "a U[0,1] b & (" * 499 + "a U[0,1] b & c" + ")" * 499),
        ],
        ids=["bare", "negated", "left-conjunction", "left-disjunction", "right-conjunction", "right-implies", "right-until"],
    )
    def test_deep_parentheses_round_trip(self, text, rendered):
        assert formats.serialize_formula(formats.parse_formula(text)) == rendered
        assert formats.serialize_formula(formats.parse_formula(rendered)) == rendered

    def test_deep_negation_serializes(self):
        formula = Atom("a")
        for _ in range(1000):
            formula = Not(formula)
        assert formats.serialize_formula(formula) == "!" * 1000 + "a"

    def test_right_associative_chains(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        assert formats.parse_formula("a -> b -> c") == Implies(a, Implies(b, c))
        window = Interval(1, 2, True, True)
        assert formats.parse_formula("a U[1,2] b U c") == Until(window, a, Until(FULL, b, c))
        assert formats.parse_formula("(a U b) U c") == Until(FULL, Until(FULL, a, b), c)

    def test_unexpected_character_names_its_column(self):
        for text, column in [("a $", 3), ("a$", 2)]:
            with pytest.raises(ParseError, match="unexpected character") as caught:
                formats.parse_formula(text)
            assert caught.value.column == column

    @pytest.mark.parametrize(
        "text, interval",
        [("F[2,1] a", "[2,1]"), ("F[1,1) a", "[1,1)"), ("G[0,inf] a", "[0,inf]"), ("a U[3,2] b", "[3,2]")],
    )
    def test_malformed_interval_is_a_parse_error(self, text, interval):
        with pytest.raises(ParseError, match="bad interval") as caught:
            formats.parse_formula(text)
        assert repr(interval) in str(caught.value)

    @pytest.mark.parametrize("text", ["X(=2] a", "F[\u0663,4] a", "F[1,\u0662] a"])
    def test_interval_spellings_outside_the_syntax(self, text):
        # a point interval opens with [ only, and bounds are ASCII digits
        with pytest.raises(ParseError):
            formats.parse_formula(text)


class TestParseErrors:
    """Every kind of formula error, with its exact message and column (None
    where the error has no column), from both entry points.  A scan error,
    a character outside the syntax or a malformed interval, is the first one
    in the text, and it wins over any syntax error."""

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("a $", "unexpected character '$'", 3),
            ("a$", "unexpected character '$'", 2),
            ("a & \u00e9", "unexpected character '\u00e9'", 5),
            ("\t\ta | \u0663", "unexpected character '\u0663'", 7),
            ("a\n\n& ]", "unexpected character ']'", 6),
            ("F[1,2 a", "unexpected character '['", 2),
            ("X(=2] a", "unexpected character '='", 3),
            ("a ,\tb", "unexpected character ','", 3),
            ("a \u3000$", "unexpected character '$'", 4),
            ("$ F[2,1] a", "unexpected character '$'", 1),
            # after a syntax error: the scan error still wins
            ("a U U b $", "unexpected character '$'", 9),
            ("(a b\n,", "unexpected character ','", 6),
            ("a & ) \u00e9", "unexpected character '\u00e9'", 7),
            ("F[2,1] a", "bad interval '[2,1]': empty interval: upper endpoint below lower", 2),
            ("a U(3,3] b", "bad interval '(3,3]': empty interval: point interval must be closed on both ends", 4),
            ("a U[0,inf] b $", "bad interval '[0,inf]': an unbounded interval must be right-open", 4),
            ("a & b U\t[2, 1] c", "bad interval '[2, 1]': empty interval: upper endpoint below lower", 9),
            ("F[1,2] a U[3,2] $", "bad interval '[3,2]': empty interval: upper endpoint below lower", 11),
            ("G G[0,inf] a $", "bad interval '[0,inf]': an unbounded interval must be right-open", 4),
            ("a &", "unexpected end of formula", None),
            ("", "unexpected end of formula", None),
            ("  \n", "unexpected end of formula", None),
            ("!", "unexpected end of formula", None),
            ("(a", "expected ')', found 'end of input'", None),
            ("((a)", "expected ')', found 'end of input'", None),
            ("(a b", "expected ')', found 'b'", None),
            ("(a U[1,2] b [1,2]", "expected ')', found '[1,2]'", None),
            ("a b", "trailing input starting at 'b'", None),
            ("a)", "trailing input starting at ')'", None),
            ("true false", "trailing input starting at 'false'", None),
            (")", "unexpected token ')'", None),
            ("a -> -> b", "unexpected token '->'", None),
            ("a & [0,1]", "unexpected token '[0,1]'", None),
            ("U", "'U' is an operator, not an atom", None),
            ("a & U", "'U' is an operator, not an atom", None),
            ("inf", "'inf' is reserved for interval endpoints", None),
            ("F inf", "'inf' is reserved for interval endpoints", None),
        ],
    )
    def test_message_and_column(self, text, message, column):
        for parse in (formats.parse_formula, formats.parse_program):
            with pytest.raises(ParseError) as caught:
                parse(text)
            assert (str(caught.value), caught.value.column) == (message, column)


def _outcome(parse, text):
    """What parsing the text gives: the value, or the error's message and column."""
    try:
        return parse(text)
    except ParseError as error:
        return str(error), error.column


def _via_ast(text):
    return compile_formula(formats.parse_formula(text))


class TestProgramParity:
    """parse_program reads text straight into ops; it must give exactly the
    program compile_formula makes of the parsed AST, ops and intervals
    numbered alike, and fail with the same error on every malformed text."""

    def test_random_formulas(self):
        rng = random.Random(15)
        alphabet = ["a", "b", "m!", "m?", "#", "*"]
        for _ in range(400):
            formula = random_formula(rng, alphabet, 5)
            text = formats.serialize_formula(formula)
            assert formats.parse_program(text) == _via_ast(text) == compile_formula(formula), text

    @pytest.mark.parametrize(
        "text",
        [
            "X " * 1000 + "a",
            "!" * 1000 + "a",
            "F[1,2] !G(0,1) " * 500 + "a",
            "a -> " * 1000 + "a",
            "a U[1,2] " * 1000 + "a",
            " & ".join(f"a{i % 7}" for i in range(3000)),
            "(" + " | ".join(["a", "!b"] * 1500) + ") & c",
            "(a U[0,1] (b & " * 500 + "c" + "))" * 500,
        ],
        ids=["next", "not", "mixed-unary", "implies", "until", "conjunction", "disjunction", "right-until"],
    )
    def test_deep_chains(self, text):
        assert formats.parse_program(text) == _via_ast(text)

    @pytest.mark.parametrize(
        "machine, target", [(send_receive_machine(), "s2"), (two_message_machine(), "q3")], ids=["c1", "m2"]
    )
    def test_reduction_formulas(self, machine, target):
        # the text reduce writes, and its negation as mc-bounded reads it
        formula = build_formula(machine, target)
        text = formats.serialize_formula(formula)
        program = formats.parse_program(text)
        assert program == _via_ast(text) == compile_formula(formula)
        negated = formats.parse_program(f"!({text})")
        assert negated == _via_ast(f"!({text})") == program._replace(root=program.root ^ 1)

    def test_one_character_mutations_fail_alike(self):
        rng = random.Random(16)
        valid = [
            "a U[1,2) (b & !c)",
            "F[=2] b | G[0,inf) !a",
            "m! & !m? & # & * -> X(0,3] true",
            "(a | false) U (b -> c U[2,2] a)",
        ] + [formats.serialize_formula(random_formula(rng, ["a", "b", "m!", "#"], 4)) for _ in range(60)]
        characters = " ()[],=!&|-><UXFGab01inf#*?_$"
        errors = 0
        for text in valid:
            for _ in range(40):
                i = rng.randrange(len(text) + 1)
                edit = rng.randrange(3)
                if edit == 0:
                    mutant = text[:i] + text[i + 1 :]
                else:
                    mutant = text[:i] + rng.choice(characters) + text[i + (edit == 2) :]
                outcome = _outcome(formats.parse_program, mutant)
                assert outcome == _outcome(_via_ast, mutant), mutant
                errors += type(outcome) is tuple
        assert 1000 < errors < len(valid) * 40 - 500  # most mutants are malformed, many are not


class TestRepeatedGroups:
    """A group whose tokens repeat a group already closed is read once: its
    value is pushed and the parse goes on past it.  The value and the errors
    are those of reading it again."""

    def test_repeated_and_near_repeated_groups(self):
        rng = random.Random(27)
        alphabet = ["a", "b", "m!", "m?", "#", "*"]
        a, b = Atom("a"), Atom("b")
        for _ in range(200):
            f = random_formula(rng, alphabet, 4)
            t = formats.serialize_formula(f)
            cases = [
                (formats.serialize_formula(And(f, Globally(FULL, f))), And(f, Globally(FULL, f))),
                (f"({t}) | ({t})", Or(f, f)),
                # groups that share their first tokens and differ later
                (f"(({t}) & a) & (({t}) & b)", And(And(f, a), And(f, b))),
                (f"({t}) & (({t}) | b)", And(f, Or(f, b))),
                (f"X ({t}) U[0,1] (({t}) -> a) & (({t}) -> b)",
                 Until(Interval(0, 1, True, True), Next(FULL, f), And(Implies(f, a), Implies(f, b)))),
            ]  # fmt: skip
            for text, formula in cases:
                assert formats.parse_formula(text) == formula, text
                assert formats.parse_program(text) == compile_formula(formula), text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(a & b) & (a & b", "expected ')', found 'end of input'"),
            ("(a & b) & (a & b))", "trailing input starting at ')'"),
            ("(a & b) & (a & b c)", "expected ')', found 'c'"),
            ("(a & b) & (a & b) c", "trailing input starting at 'c'"),
        ],
    )
    def test_a_repeat_fails_as_reading_it_again_would(self, text, message):
        for parse in (formats.parse_formula, formats.parse_program):
            with pytest.raises(ParseError, match=re.escape(message)):
                parse(text)


class TestMachineFormat:
    def test_example(self, c1):
        text = formats.serialize_machine(c1, final="s2")
        machine, final = formats.parse_machine(text)
        assert machine == c1
        assert final == "s2"

    def test_transition_line(self):
        machine, _ = formats.parse_machine(
            "states: s0 s1\ninit: s0\nmessages: m\ntrans: s0 m! s1\n"
        )
        assert machine.transitions == (("s0", "m!", "s1"),)

    def test_round_trip_random(self):
        rng = random.Random(5)
        for seed in range(100):
            states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
            messages = tuple(f"m{i}" for i in range(rng.randint(1, 3)))
            labels = [f"{m}!" for m in messages] + [f"{m}?" for m in messages] + ["eps"]
            transitions = tuple(
                (rng.choice(states), rng.choice(labels), rng.choice(states))
                for _ in range(rng.randint(0, 5))
            )
            machine = ChannelMachine(states, states[0], messages, transitions)
            text = formats.serialize_machine(machine)
            parsed, _ = formats.parse_machine(text)
            assert parsed == machine

    @pytest.mark.parametrize(
        "states, messages, transitions, name",
        [
            (("s", "t"), ("a b",), (("s", "a b!", "t"),), "'a b'"),
            (("s", "t"), ("",), (("s", "!", "t"),), "''"),
            (("s", "t\n"), ("m",), (("s", "m!", "t\n"),), "'t\\n'"),
        ],
        ids=["space", "empty", "newline"],
    )
    def test_a_name_the_text_format_cannot_hold_is_refused(self, states, messages, transitions, name):
        # such a machine would serialize to text that parses to another machine, or to none
        with pytest.raises(ValueError, match=f"name {re.escape(name)} is not one whitespace-free token"):
            ChannelMachine(states, states[0], messages, transitions)


class TestPtaFormat:
    def test_round_trip_cadence_automaton(self):
        automaton = two_phase_automaton()
        text = formats.serialize_pta(automaton)
        assert formats.parse_pta(text) == automaton

    def test_a_name_cannot_be_clock_and_parameter(self):
        with pytest.raises(ParseError, match="declared both as clock and parameter: p"):
            formats.parse_pta(SHARED_NAME_PTA)

    def test_guard_spellings(self):
        guard = formats.parse_guard("x=p & y<1")
        assert guard == ClockConstraint.of(("x", "=", "p"), ("y", "<", 1))
        assert formats.parse_guard("") == ClockConstraint()

    def test_round_trip_random(self):
        rng = random.Random(6)
        relations = ["<", "<=", "=", ">=", ">"]
        for _ in range(100):
            locations = tuple(f"l{i}" for i in range(rng.randint(1, 3)))
            alphabet = tuple("ab"[: rng.randint(1, 2)])
            clocks = ("x", "y")[: rng.randint(1, 2)]
            params = ("p",) if rng.random() < 0.7 else ()
            edges = []
            for _ in range(rng.randint(0, 4)):
                atoms = []
                for _ in range(rng.randint(0, 2)):
                    bound = "p" if params and rng.random() < 0.5 else rng.randint(0, 3)
                    atoms.append((rng.choice(clocks), rng.choice(relations), bound))
                edges.append(
                    Edge(
                        rng.choice(locations),
                        rng.choice(alphabet),
                        ClockConstraint.of(*atoms),
                        frozenset(c for c in clocks if rng.random() < 0.4),
                        rng.choice(locations),
                    )
                )
            automaton = Pta(
                alphabet,
                locations,
                frozenset({locations[0]}),
                clocks,
                params,
                tuple(edges),
                frozenset({locations[-1]}),
            )
            assert formats.parse_pta(formats.serialize_pta(automaton)) == automaton


class TestValuationFormat:
    def test_single(self):
        assert formats.parse_valuation("p=1/2") == {"p": F(1, 2)}

    def test_multi(self):
        assert formats.parse_valuation("p=1/2, q=3") == {"p": F(1, 2), "q": F(3)}

    def test_empty_text_is_the_empty_valuation(self):
        assert formats.parse_valuation("") == {}

    @pytest.mark.parametrize("text", ["p=1,p=2", "p=1, p =1", "q=1,p=1/2,q=1"])
    def test_a_repeated_parameter_is_an_error(self, text):
        name = text[0]
        with pytest.raises(ParseError, match=f"parameter '{name}' set twice"):
            formats.parse_valuation(text)

    def test_round_trip(self):
        values = {"p": F(2, 7), "q": F(5)}
        assert formats.parse_valuation(formats.serialize_valuation(values)) == values


class TestComputationFormat:
    def test_replay(self, c1):
        computation = formats.parse_computation(c1, "s0 m! s1 m? s2")
        assert computation.labels == ("m!", "m?")
        assert computation.final.state == "s2"
        assert formats.serialize_computation(computation) == "s0 m! s1 m? s2"

    def test_rejects_impossible_step(self, c1):
        with pytest.raises(ParseError):
            formats.parse_computation(c1, "s0 m? s2")
