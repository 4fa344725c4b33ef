import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ptamtl import cli, formats
from ptamtl.cli import main
from ptamtl.modelcheck import bounded_modelcheck
from ptamtl.mtl import Not
from ptamtl.reduction import build_automaton, build_formula

from conftest import send_receive_machine, two_phase_automaton

F = Fraction


@pytest.fixture
def machine_file(tmp_path, c1):
    path = tmp_path / "c1.cm"
    path.write_text(formats.serialize_machine(c1, final="s2"))
    return path


@pytest.fixture
def reduction_file(tmp_path, c1):
    path = tmp_path / "c1.pta"
    path.write_text(formats.serialize_pta(build_automaton(c1, "s2")))
    return path


# a property that holds on every accepted word of the c1 reduction
# automaton, so the search walks the whole bounded space
PROPERTY_ARGS = ["G (s2 -> F *)", "--k", "2", "--grid", "1/2", "--horizon", "5/2", "--max-events", "6",
                 "--strict-only", "--json"]  # fmt: skip


@pytest.fixture
def cadence_file(tmp_path):
    path = tmp_path / "cadence.pta"
    path.write_text(formats.serialize_pta(two_phase_automaton()))
    return path


# an automaton with no parameters: a's at most 1 apart, then b 2 after the last a
FREE_PTA = """alphabet: a b
clocks: x
locations: 1 2
init: 1
final: 2
edge: 1 a "x<=1" {x} 1
edge: 1 b "x=2" {} 2
"""


@pytest.fixture
def free_file(tmp_path):
    path = tmp_path / "free.pta"
    path.write_text(FREE_PTA)
    return path


W_C1_TEXT = "s0@0 #@1/2 m!@1 s1@2 m@5/2 m?@3 s2@4 #@9/2 *@5"

# two equally short witnesses, through a and through b, with equal channels
FORK_MACHINE = """states: s0 a b t
init: s0
messages: m
trans: s0 m! a
trans: s0 m! b
trans: a m? t
trans: b m? t
"""
SRC = Path(__file__).resolve().parent.parent / "src"


class TestBasicCommands:
    def test_eval(self, capsys):
        assert main(["eval", "G a", "a@0 a@1"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_eval_at_position(self, capsys):
        assert main(["eval", "--at", "2", "b", "a@0 b@1"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_member(self, capsys, cadence_file):
        code = main(["member", str(cadence_file), "p=1/2", "a@1/2 a@1 b@3/2 b@2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_member_without_parameters(self, capsys, free_file):
        assert main(["member", str(free_file), "", "a@1/2 b@5/2"]) == 0
        assert main(["member", str(free_file), "", "a@1/2 b@2"]) == 0
        assert capsys.readouterr().out.split() == ["true", "false"]

    def test_det_check(self, capsys, cadence_file):
        assert main(["det-check", str(cadence_file)]) == 0
        assert capsys.readouterr().out.strip() == "nondeterministic"

    def test_parse_error_exit_code(self, capsys):
        assert main(["eval", "a U U b", "a@0"]) == 1
        assert main(["eval", "F[2,1] a", "a@0"]) == 1
        assert "error: bad interval '[2,1]'" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["eval"]) == 1

    def test_missing_file_exit_code(self, capsys, tmp_path):
        assert main(["det-check", str(tmp_path / "nope.pta")]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "@DIR", "a@0"], "Is a directory"),
            (["det-check", "DIR"], "Is a directory"),
            (["eval", "@BYTES", "a@0"], "can't decode byte 0xff"),
            (["reduce", "MACHINE", "--out", "DIR/out"], "Is a directory"),  # DIR/out.pta is a directory
            (["reduce", "MACHINE", "--out", "DIR/partial"], "Is a directory"),  # DIR/partial.mtl is a directory
        ],
    )
    def test_unreadable_input_is_an_error(self, capsys, tmp_path, machine_file, argv, message):
        directory = tmp_path / "dir"
        (directory / "out.pta").mkdir(parents=True)
        (directory / "partial.mtl").mkdir()
        bad_bytes = tmp_path / "bytes.mtl"
        bad_bytes.write_bytes(b"G \xff")
        for name, path in (("MACHINE", machine_file), ("DIR", directory), ("BYTES", bad_bytes)):
            argv = [arg.replace(name, str(path)) for arg in argv]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and message in err, err
        # a failed reduce writes none of its three files
        assert sorted(p.name for p in directory.iterdir()) == ["out.pta", "partial.mtl"]

    def test_reused_parser_keeps_no_state_between_calls(self, capsys):
        # the parser is built once per process: an option given in one call
        # must not carry over into the next
        assert main(["eval", "--at", "2", "b", "a@0 b@1"]) == 0
        assert main(["eval", "b", "a@0 b@1"]) == 0
        assert main(["eval"]) == 1
        assert main(["eval", "--at", "2", "b", "a@0 b@1"]) == 0
        assert capsys.readouterr().out.split() == ["true", "false", "true"]
        assert cli._build_parser() is cli._build_parser()


class TestPipelineCommands:
    def test_search(self, capsys, machine_file):
        assert main(["search", str(machine_file), "s2", "--steps", "6", "--chan", "3"]) == 0
        assert capsys.readouterr().out.strip() == "s0 m! s1 m? s2"

    def test_search_unreachable(self, capsys, tmp_path):
        path = tmp_path / "noread.cm"
        path.write_text("states: s0 s1 s2\ninit: s0\nmessages: m\ntrans: s0 m! s1\n")
        assert main(["search", str(path), "s2", "--steps", "6", "--chan", "3"]) == 0
        assert "unreachable within bounds" in capsys.readouterr().out

    def test_encode(self, capsys, machine_file):
        assert main(["encode", str(machine_file), "s2", "s0 m! s1 m? s2"]) == 0
        assert capsys.readouterr().out.strip() == W_C1_TEXT

    def test_check_lcn(self, capsys, machine_file):
        assert main(["check-lcn", str(machine_file), "s2", "1", W_C1_TEXT]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["check-lcn", str(machine_file), "s2", "2", W_C1_TEXT]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_decode(self, capsys, machine_file):
        assert main(["decode", str(machine_file), "s2", W_C1_TEXT]) == 0
        assert capsys.readouterr().out.strip() == "s0 m! s1 m? s2"

    def test_reduce_emits_three_files(self, capsys, machine_file, tmp_path):
        out = tmp_path / "bundle"
        assert main(["reduce", str(machine_file), "s2", "--out", str(out)]) == 0
        automaton = formats.parse_pta((tmp_path / "bundle.pta").read_text())
        formula = formats.parse_formula((tmp_path / "bundle.mtl").read_text())
        alphabet = (tmp_path / "bundle.alphabet").read_text().split()
        assert automaton == build_automaton(send_receive_machine(), "s2")
        assert formula == build_formula(send_receive_machine(), "s2")
        assert set(alphabet) == {"s0", "s1", "s2", "m", "m!", "m?", "eps", "#", "*"}

    def test_verify_reduction(self, capsys, machine_file):
        code = main(
            ["verify-reduction", str(machine_file), "s2", "--steps", "6", "--chan", "3", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "pass"
        assert report["mutants_total"] == 5
        assert report["mutants_automaton_rejected"] == 5

    @pytest.mark.parametrize(
        "steps, expected",
        [
            (
                "6",
                [
                    "outcome: pass",
                    "search_complete: True",
                    "mutants_total: 5",
                    "mutants_formula_kept: 5",
                    "mutants_automaton_rejected: 5",
                    "witness: s0 m! s1 m? s2",
                    "forward: {'encoding-in-language': True, 'formula-satisfied': True, "
                    "'automaton-accepts': True}",
                    "valuation: p=1/2",
                    "backward: {'valuation-pinned': True, 'no-insertions': True, "
                    "'decodes-error-free': True, 'channel-bounded': True}",
                ],
            ),
            (
                "1",
                [
                    "outcome: inconclusive (no witness within bounds; bounds exhausted)",
                    "search_complete: False",
                    "mutants_total: 0",
                    "mutants_formula_kept: 0",
                    "mutants_automaton_rejected: 0",
                    "notes: ['no error-free computation within bounds']",
                ],
            ),
        ],
        ids=["pass", "no-witness"],
    )
    def test_verify_reduction_text(self, capsys, machine_file, steps, expected):
        code = main(["verify-reduction", str(machine_file), "s2", "--steps", steps, "--chan", "3"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_target_defaults_to_the_final_line(self, capsys, tmp_path, m2):
        path = tmp_path / "m2.machine"
        path.write_text(formats.serialize_machine(m2, final="q3"))
        bounds = ["--steps", "8", "--chan", "3", "--json"]
        assert main(["verify-reduction", str(path), *bounds]) == 0
        implicit = capsys.readouterr().out
        assert main(["verify-reduction", str(path), "q3", *bounds]) == 0
        assert capsys.readouterr().out == implicit
        assert json.loads(implicit)["outcome"] == "pass"

    def test_positionals_bind_without_a_target(self, capsys, machine_file):
        # the file's final: line names s2; n, the computation and the word
        # still bind to their own positionals
        assert main(["encode", str(machine_file), "s0 m! s1 m? s2"]) == 0
        assert main(["check-lcn", str(machine_file), "1", W_C1_TEXT]) == 0
        assert main(["check-lcn", str(machine_file), "2", W_C1_TEXT]) == 0
        assert main(["decode", str(machine_file), W_C1_TEXT]) == 0
        assert main(["search", str(machine_file), "--steps", "6", "--chan", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [W_C1_TEXT, "true", "false", "s0 m! s1 m? s2", "s0 m! s1 m? s2"]

    def test_an_explicit_target_overrides_the_final_line(self, capsys, machine_file):
        assert main(["encode", str(machine_file), "s1", "s0 m! s1"]) == 0
        assert main(["check-lcn", str(machine_file), "s1", "1", W_C1_TEXT]) == 0
        assert main(["search", str(machine_file), "s1", "--steps", "6", "--chan", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["s0@0 #@1/2 m!@1 s1@2 m@5/2 *@3", "false", "s0 m! s1"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reduce", "BARE"], "no target state"),
            (["reduce", "MACHINE", "nope"], "target state 'nope' undeclared"),
            (["encode", "MACHINE", "nope", "s0 m! s1 m? s2"], "target state 'nope' undeclared"),
            (["check-lcn", "MACHINE", "nope", "1", W_C1_TEXT], "target state 'nope' undeclared"),
            (["decode", "MACHINE", "nope", W_C1_TEXT], "target state 'nope' undeclared"),
            (["search", "MACHINE", "nope", "--steps", "6", "--chan", "3"], "target state 'nope' undeclared"),
            (["verify-reduction", "MACHINE", "nope", "--steps", "6", "--chan", "3"], "'nope' undeclared"),
            (["eval", "--at", "0", "b", "a@0 b@1"], "--at must lie in 1..2"),
            (["eval", "--at", "3", "b", "a@0 b@1"], "--at must lie in 1..2"),
            (["check-lcn", "MACHINE", "s2", "-1", W_C1_TEXT], "n must not be negative"),
            (["encode", "MACHINE", "s2", "s0 m! s1 m? s2", "--slots", "1/2,1/3"], "strictly increasing"),
            (["encode", "MACHINE", "s2", "s0 m! s1 m? s2", "--slots", "1"], "strictly below 1"),
            (["search", "MACHINE", "s2", "--steps", "-3", "--chan", "3"], "--steps must not be negative"),
            (["search", "MACHINE", "s2", "--steps", "6", "--chan", "-1"], "--chan must not be negative"),
            (["verify-reduction", "MACHINE", "s2", "--steps", "-1", "--chan", "3"], "--steps must not be negative"),
            (["verify-reduction", "MACHINE", "s2", "--steps", "6", "--chan", "-1"], "--chan must not be negative"),
            (["member", "CADENCE", "q=1/2", "a@1/2"], "must set exactly the automaton's parameters (p)"),
            (["member", "CADENCE", "p=1/2,q=1", "a@1/2"], "must set exactly the automaton's parameters (p)"),
            (["member", "CADENCE", "p=1/2", "a@1/2 c@1"], "symbol 'c' not in the automaton's alphabet"),
            (["member", "CADENCE", "", "a@1/2"], "valuation '' must set exactly the automaton's parameters (p)"),
            # a bundle's states and messages are formula atoms, so each must read back as one
            (["reduce", "S1=q-0"], "symbol 'q-0' is not an identifier"),
            (["reduce", "S1=q.1"], "symbol 'q.1' is not an identifier"),
            (["reduce", "S1=0"], "symbol '0' is not an identifier"),
            (["reduce", "S1=U"], "symbol 'U' collides with a reserved spelling"),
            (["verify-reduction", "S1=q-0", "s2", "--steps", "6", "--chan", "3"], "symbol 'q-0' is not an identifier"),
            (["verify-reduction", "S1=U", "s2", "--steps", "6", "--chan", "3"], "symbol 'U' collides"),
            # no target given, and no final: line in the machine file
            (["encode", "BARE", "s0 m! s1 m? s2"], "no target state"),
            (["check-lcn", "BARE", "1", W_C1_TEXT], "no target state"),
            (["decode", "BARE", W_C1_TEXT], "no target state"),
            (["search", "BARE", "--steps", "6", "--chan", "3"], "no target state"),
            (["verify-reduction", "BARE", "--steps", "6", "--chan", "3"], "no target state"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, capsys, machine_file, cadence_file, tmp_path, c1, argv, message):
        bare = tmp_path / "bare.cm"
        bare.write_text(formats.serialize_machine(c1))
        files = {"MACHINE": str(machine_file), "BARE": str(bare), "CADENCE": str(cadence_file)}
        for arg in argv:
            if arg.startswith("S1="):  # c1 with its state s1 renamed
                renamed = tmp_path / "renamed.cm"
                renamed.write_text(formats.serialize_machine(c1, final="s2").replace("s1", arg[3:]))
                files[arg] = str(renamed)
        before = set(tmp_path.iterdir())
        assert main([files.get(arg, arg) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error:") and message in err
        assert set(tmp_path.iterdir()) == before  # no files written


class TestMcBounded:
    @pytest.fixture
    def negated_encoding_args(self, capsys, machine_file, tmp_path):
        """mc-bounded arguments: the c1 reduction automaton against its own
        formula negated, so the encoded witness is a counterexample."""
        out = tmp_path / "bundle"
        main(["reduce", str(machine_file), "s2", "--out", str(out)])
        capsys.readouterr()
        negated = "!(" + (tmp_path / "bundle.mtl").read_text().strip() + ")"
        formula_file = tmp_path / "negated.mtl"
        formula_file.write_text(negated)
        return [
            "mc-bounded",
            str(tmp_path / "bundle.pta"),
            "@" + str(formula_file),
            "--candidates",
            "p=1/2",
            "--grid",
            "1/2",
            "--horizon",
            "5",
            "--max-events",
            "9",
            "--strict-only",
        ]

    def test_counterexample_on_negated_encoding_formula(self, capsys, negated_encoding_args):
        code = main([*negated_encoding_args, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "counterexample-found"
        assert report["counterexample"] == W_C1_TEXT

    def test_counterexample_text(self, capsys, negated_encoding_args):
        assert main(negated_encoding_args) == 0
        assert capsys.readouterr().out.splitlines() == [
            "outcome: counterexample-found",
            "valuation: p=1/2",
            f"counterexample: {W_C1_TEXT}",
            "  p=1/2: refuted (1 words checked)",
        ]

    def test_no_counterexample_when_property_holds(self, capsys, cadence_file):
        code = main(
            [
                "mc-bounded",
                str(cadence_file),
                "G (a | b)",
                "--candidates",
                "p=1/2",
                "--grid",
                "1/2",
                "--horizon",
                "2",
                "--max-events",
                "4",
            ]
        )
        assert code == 0
        assert "no-counterexample-within-bounds" in capsys.readouterr().out

    def test_json_reports_the_search(self, capsys, reduction_file, c1):
        assert main(["mc-bounded", str(reduction_file), *PROPERTY_ARGS]) == 0
        candidates = json.loads(capsys.readouterr().out)["candidates"]
        verdict = bounded_modelcheck(
            build_automaton(c1, "s2"), formats.parse_formula(PROPERTY_ARGS[0]),
            [{"p": F(1)}, {"p": F(1, 2)}], F(1, 2), F(5, 2), 6, strict_only=True,
        )  # fmt: skip
        assert [c["words_checked"] for c in candidates] == [3, 426]
        for entry, result in zip(candidates, verdict.candidates):
            assert entry["words_checked"] == result.words_checked
            assert entry["nodes_expanded"] == result.nodes_expanded > 0
            assert entry["memo_hits"] == result.memo_hits > 0

    def test_parameter_free_automaton_runs_the_empty_valuation(self, capsys, free_file):
        bounds = ["--grid", "1/2", "--horizon", "3", "--max-events", "2", "--json"]
        assert main(["mc-bounded", str(free_file), "G !b", *bounds]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "counterexample-found"
        assert [c["valuation"] for c in report["candidates"]] == [""]
        assert report["valuation"] == "" and report["counterexample"] == "a@0 b@2"
        assert main(["mc-bounded", str(free_file), "G !b", "--candidates", "", *bounds]) == 0
        assert json.loads(capsys.readouterr().out) == report

    def test_words_longer_than_the_recursion_limit(self, capsys, tmp_path):
        loop = tmp_path / "loop.pta"
        loop.write_text('alphabet: a\nlocations: l0\ninit: l0\nfinal: l0\nedge: l0 a "" {} l0\n')
        argv = ["mc-bounded", str(loop), "G a", "--grid", "1", "--horizon", "0", "--max-events", "1200", "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "no-counterexample-within-bounds"
        assert [c["words_checked"] for c in report["candidates"]] == [1200]

    def test_k_on_a_parameter_free_automaton_is_a_usage_error(self, capsys, free_file):
        argv = ["mc-bounded", str(free_file), "G !b", "--k", "2", "--grid", "1/2", "--horizon", "3", "--max-events", "2"]
        assert main(argv) == 1
        assert "--k shorthand needs exactly one parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_a_usage_error(self, capsys, cadence_file, k):
        code = main(
            [
                "mc-bounded",
                str(cadence_file),
                "G (a | b)",
                "--k",
                k,
                "--grid",
                "1/2",
                "--horizon",
                "2",
                "--max-events",
                "4",
            ]
        )
        assert code == 1
        assert "--k must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--grid", "0", "--grid must be positive"),
            ("--grid", "-1/2", "--grid must be positive"),
            ("--max-events", "0", "--max-events must be at least 1"),
            ("--max-events", "-3", "--max-events must be at least 1"),
            ("--horizon", "-1", "--horizon must not be negative"),
            ("--horizon", "-1/2", "--horizon must not be negative"),
            ("--candidates", "q=1", "must set exactly the automaton's parameters (p)"),
            ("--candidates", "p=1/2;p=1,q=1", "must set exactly the automaton's parameters (p)"),
            ("--candidates", "p=1,p=2", "parameter 'p' set twice"),
            ("--grid", "1e1", "bad rational '1e1'"),
        ],
    )
    def test_bad_bounds_are_usage_errors(self, capsys, cadence_file, option, value, message):
        bounds = {"--grid": "1/2", "--horizon": "2", "--max-events": "4", option: value}
        code = main(["mc-bounded", str(cadence_file), "G (a | b)", *(f"{k}={v}" for k, v in bounds.items())])
        assert code == 1
        assert message in capsys.readouterr().err


class TestDeterminism:
    def test_search_output_independent_of_hash_seed(self, tmp_path):
        path = tmp_path / "fork.cm"
        path.write_text(FORK_MACHINE)
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        outputs = set()
        for seed in range(1, 5):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath)
            done = subprocess.run(
                [sys.executable, "-m", "ptamtl.cli", "search", str(path), "t", "--steps", "4", "--chan", "2"],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(done.stdout)
        assert outputs == {"s0 m! a m? t\n"}

    def test_mc_bounded_output_independent_of_hash_seed(self, reduction_file):
        # memo keys hold frozensets of frontier states
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        outputs = set()
        for seed in range(1, 5):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath)
            done = subprocess.run(
                [sys.executable, "-m", "ptamtl.cli", "mc-bounded", str(reduction_file), *PROPERTY_ARGS],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(done.stdout)
        (output,) = outputs
        assert all(c["memo_hits"] > 0 for c in json.loads(output)["candidates"])

    def test_mc_bounded_on_the_reduction_formula_independent_of_hash_seed(self, tmp_path, reduction_file, c1):
        # the negated reduction formula, read from its file into a program as
        # the perfbench mc-reduction ops read it
        formula_file = tmp_path / "c1.mtl"
        formula_file.write_text("!(" + formats.serialize_formula(build_formula(c1, "s2")) + ")")
        argv = ["mc-bounded", str(reduction_file), f"@{formula_file}", "--k", "2", "--grid", "1/2",
                "--horizon", "5", "--max-events", "9", "--strict-only", "--json"]  # fmt: skip
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        outputs = set()
        for seed in range(1, 5):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath)
            done = subprocess.run(
                [sys.executable, "-m", "ptamtl.cli", *argv], env=env, capture_output=True, text=True, check=True
            )
            outputs.add(done.stdout)
        (output,) = outputs
        assert json.loads(output)["counterexample"] == W_C1_TEXT


class TestVerdictShapes:
    def test_empty_language_is_vacuously_unrefuted(self):
        from ptamtl.mtl import Atom
        from ptamtl.pta import Pta

        automaton = Pta(("a",), ("1", "2"), frozenset({"1"}), (), ("p",), (), frozenset({"2"}))
        verdict = bounded_modelcheck(
            automaton, Atom("a"), [{"p": F(1, 2)}, {"p": F(1, 3)}], F(1), F(2), 3
        )
        assert verdict.outcome == "no-counterexample-within-bounds"
        assert all(not c.refuted for c in verdict.candidates)
        assert not verdict.all_candidates_refuted


class TestVerdictReverification:
    def test_counterexamples_reverify(self, c1):
        automaton = build_automaton(c1, "s2")
        formula = Not(build_formula(c1, "s2"))
        verdict = bounded_modelcheck(
            automaton, formula, [{"p": F(1, 2)}], F(1, 2), F(5), 9, strict_only=True
        )
        from ptamtl.mtl import satisfies
        from ptamtl.pta import membership

        assert verdict.outcome == "counterexample-found"
        assert membership(automaton, dict(verdict.valuation), verdict.counterexample)
        assert not satisfies(verdict.counterexample, formula)

    @staticmethod
    def one_a_automaton():
        """Accepts exactly the one-event words reading a, at any time."""
        from ptamtl.pta import TRUE_GUARD, Edge, Pta

        return Pta(
            ("a", "b"), ("1", "2"), frozenset({"1"}), (), (),
            (Edge("1", "a", TRUE_GUARD, frozenset(), "2"),), frozenset({"2"}),
        )  # fmt: skip

    def test_deep_formula_counterexample_reverifies(self):
        from ptamtl.mtl import FULL, Atom, Eventually, and_all
        from ptamtl.timedwords import TimedWord

        automaton = self.one_a_automaton()
        formula = and_all([Eventually(FULL, Atom("b"))] * 3000)
        verdict = bounded_modelcheck(automaton, formula, [{}], F(1), F(1), 1)
        assert verdict.counterexample == TimedWord([("a", 0)])

    def test_a_wrong_engine_verdict_is_caught(self, monkeypatch):
        from ptamtl import modelcheck
        from ptamtl.mtl import Atom, Or

        automaton = self.one_a_automaton()
        formula = Or(Atom("a"), Atom("b"))  # holds on every accepted word

        class Lying:
            """A progression that never prunes and calls every word a
            violation."""

            start = 2

            def __init__(self, formula, unit):
                pass

            def step(self, residual, symbol, ticks):
                return 2

            def accepts(self, residual):
                return True

        monkeypatch.setattr(modelcheck, "Progression", Lying)
        with pytest.raises(AssertionError, match="re-verification"):
            bounded_modelcheck(automaton, formula, [{}], F(1), F(1), 1)
