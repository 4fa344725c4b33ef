import dataclasses
import itertools
import random
from fractions import Fraction
from math import ceil

import pytest

from ptamtl import pta
from ptamtl.formats import parse_formula
from ptamtl.modelcheck import bounded_modelcheck
from ptamtl.pta import (
    ClockConstraint,
    ConstraintAtom,
    Edge,
    Pta,
    SearchStats,
    _compile_guard,
    constraint_feasible,
    constraint_sat,
    enumerate_accepted,
    is_deterministic,
    iter_accepted,
    membership,
    membership_trace,
)
from ptamtl.mtl import Progression
from ptamtl.reduction import build_automaton, build_formula
from ptamtl.timedwords import TimedWord

from conftest import send_receive_machine, two_message_machine, two_phase_automaton
from util import _hops_to_final, brute_accepted, feasible_on_grid, random_pta

F = Fraction


def W(*pairs):
    return TimedWord(pairs)


class Constant:
    """A monitor that never prunes, never changes state and accepts no word,
    so a memo key is the capped frontier, the tick and the depth alone, and
    every subtree is memoized."""

    start = 1

    def step(self, state, symbol, ticks):
        return 1

    def accepts(self, state):
        return False


def memo_search(automaton, rho, grid, horizon, events, strict):
    """The search's stats; it yields no word."""
    stats = SearchStats()
    assert list(iter_accepted(automaton, rho, grid, horizon, events, strict, Constant(), stats)) == []
    return stats


class TestConstraintSat:
    def test_parameter_equality(self):
        guard = ClockConstraint.of(("x", "=", "p"))
        assert constraint_sat({"x": F(1, 2)}, {"p": F(1, 2)}, guard)

    def test_strict_bound(self):
        guard = ClockConstraint.of(("x", ">", 0))
        assert not constraint_sat({"x": F(0)}, {}, guard)

    def test_conjunction(self):
        guard = ClockConstraint.of(("x", "=", "p"), ("y", "=", 1))
        assert constraint_sat({"x": F(1, 2), "y": F(1)}, {"p": F(1, 2)}, guard)

    def test_undeclared_clock(self):
        with pytest.raises(KeyError):
            constraint_sat({}, {}, ClockConstraint.of(("x", "=", 1)))


class TestDeclarations:
    def test_a_name_cannot_be_clock_and_parameter(self):
        with pytest.raises(ValueError, match="declared both as clock and parameter: p, q"):
            Pta(("a",), ("1",), frozenset({"1"}), ("q", "x", "p"), ("p", "q"), (), frozenset())
        # apart, the same names make a valid automaton
        Pta(("a",), ("1",), frozenset({"1"}), ("x",), ("p", "q"), (), frozenset())


class TestCompileGuard:
    """Guards compiled to tick ranges against the rational rule, at every age."""

    PARAMETERS = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2))
    GRIDS = (F(1), F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(3, 2))

    @staticmethod
    def compiled(guard, p, grid):
        # the guard's checks, compared with constraint_sat at every age:
        # checks of None must stand for a guard that no age satisfies
        guard = ClockConstraint(guard)
        checks = _compile_guard(guard, ("x",), {"p": p}, 1 / grid)
        cap = ceil(4 / grid) + 1  # above every bound in ticks
        for age in range(3 * cap + 1):
            holds = constraint_sat({"x": age * grid}, {"p": p}, guard)
            if checks is None:
                assert not holds, (guard, p, grid, age)
            else:
                fits = all(lo <= age and (hi is None or age <= hi) for _, lo, hi in checks)
                assert fits == holds, (guard, p, grid, age)
        return checks

    def test_matches_constraint_sat(self):
        atoms = [ConstraintAtom("x", r, b) for r in ("<", "<=", "=", ">=", ">") for b in (0, 1, 2, 3, 4, "p")]
        guards = [(a,) for a in atoms] + list(itertools.combinations(atoms, 2))
        never = 0
        for p in self.PARAMETERS:
            for grid in self.GRIDS:
                for guard in guards:
                    never += self.compiled(guard, p, grid) is None
        assert never > 0
        # an equality between two grid points, and two atoms whose ranges on x do not meet
        assert self.compiled((ConstraintAtom("x", "=", "p"),), F(1, 3), F(1, 2)) is None
        assert self.compiled((ConstraintAtom("x", ">", 2), ConstraintAtom("x", "<", 1)), F(0), F(1)) is None


class TestStep:
    """One event's successors, read off the frontier trace: each frontier
    state is (location, (reset time of x, reset time of y))."""

    def test_loop_fires(self, cadence_automaton, half):
        trace = membership_trace(cadence_automaton, {"p": half}, W(("a", half)))
        assert trace[1] == {("1", (half, F(0)))}

    def test_wrong_delay(self, cadence_automaton, half):
        trace = membership_trace(cadence_automaton, {"p": half}, W(("a", F(1, 4))))
        assert trace[-1] == frozenset()

    def test_nondeterministic_branching(self, cadence_automaton):
        trace = membership_trace(cadence_automaton, {"p": F(1)}, W(("a", 1)))
        assert trace[1] == {("1", (F(1), F(0))), ("2", (F(1), F(1)))}

    def test_removing_an_edge_never_adds_successors(self, cadence_automaton):
        rng = random.Random(3)
        rho = {"p": F(1, 2)}
        live = 0
        for _ in range(20):
            # mostly on the p = 1/2 cadence, so that many frontiers are non-empty
            time, events = F(0), []
            for _ in range(rng.randint(1, 5)):
                time += rng.choice([F(1, 2), F(1, 2), F(1, 2), F(1, 4)])
                events.append((rng.choice("aaab" if time <= 1 else "abbb"), time))
            word = TimedWord(events)
            full = membership_trace(cadence_automaton, rho, word)
            live += sum(1 for frontier in full[1:] if frontier)
            for drop in range(len(cadence_automaton.edges)):
                pruned = Pta(
                    cadence_automaton.alphabet,
                    cadence_automaton.locations,
                    cadence_automaton.initial,
                    cadence_automaton.clocks,
                    cadence_automaton.parameters,
                    cadence_automaton.edges[:drop] + cadence_automaton.edges[drop + 1 :],
                    cadence_automaton.final,
                )
                trace = membership_trace(pruned, rho, word)
                assert len(trace) <= len(full)
                for smaller, larger in zip(trace, full):
                    assert smaller <= larger
        assert live >= 10


class TestRunWord:
    def test_accepting_run_of_the_cadence_automaton(self, cadence_automaton, half):
        rho = {"p": half}
        word = W(("a", "1/2"), ("a", 1), ("b", "3/2"), ("b", 2))
        assert membership_trace(cadence_automaton, rho, word) == [
            {("1", (F(0), F(0)))},
            {("1", (half, F(0)))},
            {("1", (F(1), F(0))), ("2", (F(1), F(1)))},
            {("2", (F(3, 2), F(1)))},
            {("2", (F(2), F(1))), ("3", (F(3, 2), F(1)))},
        ]
        assert membership(cadence_automaton, rho, word)


class TestMembership:
    def test_unique_word_accepted(self, cadence_automaton, half):
        word = W(("a", "1/2"), ("a", 1), ("b", "3/2"), ("b", 2))
        assert membership(cadence_automaton, {"p": half}, word)

    def test_prefix_rejected(self, cadence_automaton, half):
        word = W(("a", "1/2"), ("a", 1), ("b", "3/2"))
        assert not membership(cadence_automaton, {"p": half}, word)

    def test_inconsistent_valuation(self, cadence_automaton):
        word = W(("a", "2/3"), ("a", "4/3"), ("b", 2), ("b", "8/3"))
        assert not membership(cadence_automaton, {"p": F(2, 3)}, word)

    def test_deterministic_frontier_stays_small(self, c1):
        from ptamtl.reduction import build_automaton
        from ptamtl.encoding import default_layout, encode
        from ptamtl.channel import search_error_free

        automaton = build_automaton(c1, "s2")
        gamma = search_error_free(c1, "s2", 4, 2).computation
        word = encode(c1, "s2", gamma, default_layout(1))
        trace = membership_trace(automaton, {"p": F(1, 2)}, word)
        assert all(len(frontier) <= len(automaton.locations) for frontier in trace)


class TestFeasibility:
    def test_trivial_equalities(self):
        assert constraint_feasible(ClockConstraint.of(("x", "=", "p"), ("x", "=", "p")))

    def test_disjoint_bounds(self):
        assert not constraint_feasible(ClockConstraint.of(("x", "<", 1), ("x", ">", 2)))

    def test_parameter_chain(self):
        guard = ClockConstraint.of(("x", "=", "p"), ("x", ">=", 3), ("p", "<", 2))
        assert not constraint_feasible(guard)

    def test_zero_weight_strict_cycle(self):
        assert not constraint_feasible(ClockConstraint.of(("y", "<", 1), ("y", "=", 1)))

    def test_against_grid_oracle(self):
        rng = random.Random(13)
        relations = ["<", "<=", "=", ">=", ">"]
        for _ in range(50):
            atoms = []
            for _ in range(rng.randint(1, 4)):
                clock = rng.choice(["x", "y"])
                bound = rng.choice([0, 1, 2, 3, "p"])
                atoms.append((clock, rng.choice(relations), bound))
            guard = ClockConstraint.of(*atoms)
            verdict = constraint_feasible(guard)
            oracle = feasible_on_grid(guard, max_denominator=4, box=3)
            if oracle:
                assert verdict, (guard, "oracle found a witness")
            if not verdict:
                assert not oracle, (guard, "claimed infeasible but oracle disagrees")


class TestDeterminism:
    def test_cadence_automaton_is_not(self, cadence_automaton):
        assert not is_deterministic(cadence_automaton)

    def test_guarded_variant_is(self):
        assert is_deterministic(two_phase_automaton(guarded_loops=True))

    def test_multiple_initials_are_not(self):
        automaton = Pta(
            ("a",), ("1", "2"), frozenset({"1", "2"}), (), (), (), frozenset({"2"})
        )
        assert not is_deterministic(automaton)


class TestEventsToFinal:
    def test_matches_a_fixpoint_over_the_edges(self):
        rng = random.Random(27)
        for _ in range(200):
            automaton = random_pta(rng)
            # with location 0 final, 1 and 2 may reach no final location
            for final in (automaton.final, frozenset({"0"})):
                automaton = dataclasses.replace(automaton, final=final)
                assert automaton.min_events_to_final == _hops_to_final(automaton)

    def test_a_location_that_reaches_no_final_one(self, cadence_automaton):
        automaton = dataclasses.replace(cadence_automaton, edges=())
        assert automaton.min_events_to_final == dict.fromkeys(automaton.final, 0)

    def test_the_search_enters_no_location_that_reaches_no_final_one(self):
        # a -x-> f is the only way to the final location; a -y-> s leads into
        # a sink that loops on x and y, which no bound on the events reaches past
        free = ClockConstraint()
        edges = (
            Edge("a", "x", free, frozenset(), "f"),
            Edge("a", "y", free, frozenset(), "s"),
            Edge("s", "x", free, frozenset(), "s"),
            Edge("s", "y", free, frozenset(), "s"),
        )
        automaton = Pta(("x", "y"), ("a", "f", "s"), frozenset({"a"}), (), (), edges, frozenset({"f"}))
        expected = [W(("x", t)) for t in range(7)]
        for max_events in (4, 8, 12, 16):
            stats = SearchStats()
            words = list(iter_accepted(automaton, {}, F(1), F(6), max_events, stats=stats))
            assert words == expected
            assert vars(stats) == {"words_checked": 7, "nodes_expanded": 8, "memo_hits": 0}


class TestEnumeration:
    def test_unique_word(self, cadence_automaton, half):
        words = enumerate_accepted(cadence_automaton, {"p": half}, half, F(2), 4)
        assert words == frozenset({W(("a", "1/2"), ("a", 1), ("b", "3/2"), ("b", 2))})

    def test_empty_for_inconsistent_valuation(self, cadence_automaton):
        words = enumerate_accepted(
            cadence_automaton, {"p": F(2, 3)}, F(1, 3), F(4), 6
        )
        assert words == frozenset()

    def test_no_edges_no_words(self):
        automaton = Pta(("a",), ("1", "2"), frozenset({"1"}), (), (), (), frozenset({"2"}))
        assert enumerate_accepted(automaton, {}, F(1), F(3), 3) == frozenset()

    def test_all_enumerated_words_pass_membership(self, cadence_automaton, half):
        for word in enumerate_accepted(cadence_automaton, {"p": half}, F(1, 4), F(2), 4):
            assert membership(cadence_automaton, {"p": half}, word)


class TestGridSearch:
    """iter_accepted against a brute-force enumeration of every grid word."""

    PARAMETERS = (F(1, 3), F(1, 2), F(2, 3), F(1))
    GRIDS = (F(1, 2), F(1, 3))
    HORIZONS = (F(3, 2), F(5, 3), F(2))

    def cases(self):
        rng = random.Random(29)
        for seed in range(12):
            automaton = random_pta(rng)
            horizon = self.HORIZONS[seed % len(self.HORIZONS)]
            for p in self.PARAMETERS:
                for grid in self.GRIDS:
                    yield automaton, {"p": p}, grid, horizon

    # guard values that edges share; x=p is off the grid for p = 1/3 on grid
    # 1/2 and p = 1/2 on grid 1/3, so it never fires there
    SHARED_GUARDS = ((), (("x", "=", "p"),), (("y", "=", "p"),), (("y", "<=", 1), ("x", ">=", "p")))

    def shared_guard_cases(self):
        # one- and two-clock automata whose edges draw their guards from two
        # to four values, each edge its own equal copy, with their own resets,
        # symbols and targets: what the search compiles once per guard must
        # not carry one edge's resets, or a guard that never fires, to another
        rng = random.Random(31)
        for clocks in (("x",), ("x", "y")):
            guards = [g for g in self.SHARED_GUARDS if all(c in clocks for c, _, _ in g)]
            for _ in range(4):
                edges = [
                    Edge(source, rng.choice("ab"), ClockConstraint.of(*rng.choice(guards)),
                         frozenset(c for c in clocks if rng.random() < 0.5), target)
                    for source, target in [("0", "1"), ("1", "2")] + [
                        (rng.choice("012"), rng.choice("012")) for _ in range(rng.randint(3, 6))
                    ]
                ]  # fmt: skip
                automaton = Pta(("a", "b"), ("0", "1", "2"), frozenset({"0"}), clocks, ("p",), tuple(edges), frozenset({"2"}))
                assert len(automaton.guard_index) < len(edges)
                for p in self.PARAMETERS:
                    for grid in self.GRIDS:
                        yield automaton, {"p": p}, grid, F(2)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("rejecting", [False, True])
    def test_matches_brute_force(self, strict, rejecting):
        def rule(word):
            # skip every subtree below a b-event at an even position; the
            # search's monitor sees (symbol, tick) pairs, the oracle a TimedWord
            return not (rejecting and len(word) % 2 == 0 and word[-1][0] == "b")

        total = 0
        for automaton, rho, grid, horizon in itertools.chain(self.cases(), self.shared_guard_cases()):
            offered = []

            class Recording:
                """A monitor whose state is the prefix itself, as tick pairs."""

                start = ()

                def step(self, prefix, symbol, ticks):
                    assert type(ticks) is int and ticks >= 0
                    longer = prefix + ((symbol, (prefix[-1][1] if prefix else 0) + ticks),)
                    offered.append(longer)
                    return longer if rule(longer) else None

                def accepts(self, prefix):
                    return True

            words = list(iter_accepted(automaton, rho, grid, horizon, 3, strict, Recording()))
            expected, viable = brute_accepted(automaton, rho, grid, horizon, 3, strict, rule)
            assert words == expected, (automaton, rho, grid, horizon)
            if not rejecting:  # the default monitor, whose memo skips subtrees without words
                assert list(iter_accepted(automaton, rho, grid, horizon, 3, strict)) == expected
            assert [W(*((s, t * grid) for s, t in prefix)) for prefix in offered] == viable, (
                automaton, rho, grid, horizon,
            )  # fmt: skip
            assert len(set(offered)) == len(offered)
            total += len(words)
        assert total > 0

    @pytest.mark.parametrize("machine, target, edges", [(send_receive_machine(), "s2", 17), (two_message_machine(), "q3", 24)])
    def test_each_distinct_guard_is_compiled_once_per_walk(self, monkeypatch, machine, target, edges):
        # a reduction automaton has many edges but two guards, x=p and the
        # empty one, so each candidate's walk compiles two
        compile_guard = pta._compile_guard
        compiled = []

        def counting(guard, *args):
            compiled.append(guard)
            return compile_guard(guard, *args)

        monkeypatch.setattr(pta, "_compile_guard", counting)
        automaton = build_automaton(machine, target)
        assert (len(automaton.edges), len(automaton.guard_index)) == (edges, 2)
        candidates = [{"p": F(1)}, {"p": F(1, 2)}, {"p": F(1, 3)}]
        bounded_modelcheck(automaton, parse_formula("G (T -> F *)".replace("T", target)), candidates, F(1, 2), F(5, 2), 5, True)
        assert len(compiled) == len(candidates) * 2
        assert set(compiled) == set(automaton.guard_index)

    def test_memo_counts_every_word(self):
        hits = 0
        for automaton, rho, grid, horizon in self.cases():
            for strict in (False, True):
                stats = memo_search(automaton, rho, grid, horizon, 4, strict)
                expected, _ = brute_accepted(automaton, rho, grid, horizon, 4, strict)
                assert stats.words_checked == len(expected), (automaton, rho, grid, horizon, strict)
                hits += stats.memo_hits
        assert hits > 1000

    def test_a_clock_idle_past_the_age_cap(self):
        # x <= 2 is the largest guard bound, so ages from 3 on are one class:
        # a@0 a@3 (age 3, no b can follow) and a@1 a@3 (age 2, b@3 accepted)
        # must get different keys, while a@0 a@4 and a@1 a@4 (ages 4 and 3)
        # share one, so the second is a memo hit and is not expanded
        automaton = Pta(
            ("a", "b"), ("0", "1", "2"), frozenset({"0"}), ("x",), (),
            (
                Edge("0", "a", ClockConstraint(), frozenset({"x"}), "1"),
                Edge("1", "a", ClockConstraint(), frozenset(), "1"),
                Edge("1", "b", ClockConstraint.of(("x", "<=", 2)), frozenset(), "2"),
            ),
            frozenset({"2"}),
        )  # fmt: skip
        for strict in (False, True):
            stats = memo_search(automaton, {}, F(1), F(5), 4, strict)
            expected, _ = brute_accepted(automaton, {}, F(1), F(5), 4, strict)
            assert stats.words_checked == len(expected)
            assert stats.memo_hits > 0

            events = []

            class Ticks(Constant):
                """Its state, the depth and the tick, is in the memo key anyway."""

                start = (0, 0)

                def step(self, state, symbol, ticks):
                    state = (state[0] + 1, state[1] + ticks)
                    events.append((state[0], symbol, state[1]))
                    return state

            assert list(iter_accepted(automaton, {}, F(1), F(5), 4, strict, Ticks())) == []
            expanded, path = set(), []
            for depth, symbol, tick in events:  # offered in depth-first order
                path[depth - 1 :] = [(symbol, tick)]
                expanded.add(tuple(path[:-1]))
            assert (("a", 0), ("a", 3)) in expanded and (("a", 1), ("a", 3)) in expanded
            assert (("a", 0), ("a", 4)) in expanded and (("a", 1), ("a", 4)) not in expanded

    @pytest.mark.parametrize("strict", [False, True])
    def test_delays_far_past_the_age_cap(self, strict):
        # every bound is at most 2, so on grid 1 ages from 3 on pass the same
        # guards, and a 12-tick horizon has delays up to 4x that age cap
        grid, horizon = F(1), F(12)
        for automaton, rho, case_grid, _ in self.cases():
            if case_grid != self.GRIDS[0]:
                continue  # one run per automaton and parameter
            expected, _ = brute_accepted(automaton, rho, grid, horizon, 3, strict)
            assert list(iter_accepted(automaton, rho, grid, horizon, 3, strict)) == expected
            assert memo_search(automaton, rho, grid, horizon, 3, strict).words_checked == len(expected)

    @pytest.mark.parametrize(
        "text, counts",
        [
            ("F *", [(0, 12, 54), (0, 12, 94)]),
            ("G (s2 -> F *)", [(3, 16, 79), (426, 38, 222)]),
            ("G !s2", [(1, 12, 34), (1, 6, 0)]),
        ],
    )
    def test_whole_space_counts_on_a_reduction_automaton(self, c1, text, counts):
        # (words checked, prefixes expanded, memo hits) for p = 1 and p = 1/2
        automaton, candidates = build_automaton(c1, "s2"), [{"p": F(1)}, {"p": F(1, 2)}]
        verdict = bounded_modelcheck(automaton, parse_formula(text), candidates, F(1, 2), F(5, 2), 6, True)
        assert [(c.stats.words_checked, c.stats.nodes_expanded, c.stats.memo_hits) for c in verdict.candidates] == counts

    def test_a_word_free_subtree_covers_its_later_deeper_copies(self):
        # x is never reset and b needs x < 1, so a at time 1 or later reaches
        # no word; c (x >= 1) loops on the initial location.  Without
        # strictness a@1 covers c@1 a@1, one event deeper at the same time,
        # whose exact key no earlier prefix had; ages cap at 3 ticks, so
        # a@3/2 covers a@2 and c@3/2 a@2 in both modes
        automaton = Pta(
            ("a", "b", "c"), ("0", "1", "2"), frozenset({"0"}), ("x",), (),
            (
                Edge("0", "a", ClockConstraint(), frozenset(), "1"),
                Edge("0", "c", ClockConstraint.of(("x", ">=", 1)), frozenset(), "0"),
                Edge("1", "b", ClockConstraint.of(("x", "<", 1)), frozenset(), "2"),
            ),
            frozenset({"2"}),
        )  # fmt: skip
        for strict, counts in ((False, (3, 10, 7)), (True, (1, 9, 4))):
            stats = memo_search(automaton, {}, F(1, 2), F(2), 3, strict)
            expected, _ = brute_accepted(automaton, {}, F(1, 2), F(2), 3, strict)
            assert stats.words_checked == len(expected)
            assert (stats.words_checked, stats.nodes_expanded, stats.memo_hits) == counts

    def test_the_m2_walk_at_grid_one_third_counts(self):
        # m2's encoding formula at p = 1 has no word within 9 time units and
        # 20 events; word-free subtrees cover their later, deeper copies, and
        # the step tables are keyed by the capped delay; a falsified step
        # scans from its conjunction's last falsifier, so it settles, and
        # fills, fewer entries than a scan from operand 0 would
        m2 = two_message_machine()
        grid, stats = F(1, 3), SearchStats()
        engine = Progression(build_formula(m2, "q3"), grid)
        search = iter_accepted(build_automaton(m2, "q3"), {"p": F(1)}, grid, F(9), 20, True, engine, stats)
        assert list(search) == []
        assert (stats.words_checked, stats.nodes_expanded, stats.memo_hits) == (0, 933, 633)
        assert sum(map(len, engine._steps.values())) == 43446

    def test_equality_with_an_off_grid_parameter_never_fires(self):
        automaton = Pta(
            ("a",), ("1", "2"), frozenset({"1"}), ("x",), ("p",),
            (Edge("1", "a", ClockConstraint.of(("x", "=", "p")), frozenset(), "2"),),
            frozenset({"2"}),
        )  # fmt: skip
        assert list(iter_accepted(automaton, {"p": F(1, 3)}, F(1, 2), F(2), 2)) == []
        assert list(iter_accepted(automaton, {"p": F(1)}, F(1, 2), F(2), 2)) == [W(("a", 1))]

    def test_undeclared_parameter(self, cadence_automaton, half):
        with pytest.raises(KeyError):
            list(iter_accepted(cadence_automaton, {}, half, F(2), 4))
