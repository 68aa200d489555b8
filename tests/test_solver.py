"""Solver: propagation behaviour, search outcomes, ambiguity, brute force."""

import dataclasses
import gc
import random
import re
import subprocess
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicforge.bench import load_dataset, puzzle
from logicforge.bench.puzzle import AT_POSITION, POSITION_FIELD, Clue, generate_puzzle
from logicforge.bench.render import render_dsl
from logicforge.errors import BudgetExceeded, CapExceeded, SemanticError
from logicforge.frontend import check
from logicforge.frontend.ast import IntRange
from logicforge.model import decode, lower, validate_model
from logicforge.model.constraints import (
    CAbs,
    CBin,
    CBool,
    CCmp,
    CElem,
    CLit,
    CVar,
    ConstraintModel,
    InstanceLayout,
    SelectorVar,
    Var,
)
from logicforge.solver import engine
from logicforge.solver import (
    Budget,
    Status,
    brute_force,
    find_second,
    solve,
    verify,
)

from conftest import DATA_DIR, compile_source, lines_executed
from model_tools import cut, dump_model, orders_rows, propagate_domains, reference_scope
from strategies import programs, scalar_programs

TAUTOLOGY = '    anyone = nondet(s.items)\n    assume(anyone.f == anyone.f)\n'


def flat_model(domains: list[tuple[int, int]], groups=(), constraints=()) -> ConstraintModel:
    """Hand-built model: one instance, one int field per var, [lo, hi) domains."""
    vars_ = [Var(i, f"f{i}", IntRange(lo, hi)) for i, (lo, hi) in enumerate(domains)]
    layout = InstanceLayout(
        ({f"f{i}": i for i in range(len(vars_))},),
        tuple(f"f{i}" for i in range(len(vars_))),
        None,
    )
    scopes = [reference_scope(c) for c in constraints]
    model = ConstraintModel(vars_, [], [tuple(g) for g in groups], list(constraints), scopes, layout)
    validate_model(model)
    return model


class TestPropagate:
    def test_alldiff_removes_assigned_value_from_peers(self):
        model = flat_model([(1, 4)] * 3, groups=[(0, 1, 2)])
        doms = propagate_domains(model, {0: [1]})
        assert doms[0] == [1]
        assert doms[1] == [2, 3]
        assert doms[2] == [2, 3]

    def test_alldiff_hall_interval_prunes_outside_vars(self):
        # vars 0 and 1 fill {1, 2} between them, so vars 2 and 3 take 3 and 4
        model = flat_model([(1, 5)] * 4, groups=[(0, 1, 2, 3)])
        doms = propagate_domains(model, {0: [1, 2], 1: [1, 2]})
        assert doms[2] == doms[3] == [3, 4]
        # vars 0 to 2 fill {1, 2, 3}, so var 3 takes 4
        assert propagate_domains(model, {0: [1, 2, 3], 1: [1, 2, 3], 2: [1, 2, 3]})[3] == [4]
        # three vars cannot share two values
        assert propagate_domains(model, {0: [1, 2], 1: [1, 2], 2: [1, 2]}) is None

    def test_bounds_consistency_on_less_than(self):
        # a < b with a in 3..6, b in 1..4 pins a=3, b=4
        model = flat_model(
            [(3, 7), (1, 5)], constraints=[CCmp("<", CVar(0), CVar(1))]
        )
        doms = propagate_domains(model)
        assert doms[0] == [3]
        assert doms[1] == [4]

    def test_selector_fixed_when_one_instance_remains(self):
        # three houses; only house 1 can still be "Bob", so the selector and
        # consequently Bob's phone follow by propagation alone
        _, model = compile_source(
            'class House:\n'
            '    name: Unique[Domain[str, "Alice", "Bob", "Carol"]]\n'
            '    phone: Unique[Domain[str, "iphone 13", "xiaomi mi 11", "oneplus 9"]]\n'
            'class PuzzleSolution:\n'
            '    houses: list[House, 3]\n'
            'def validate(solution: PuzzleSolution) -> None:\n'
            '    bob = nondet(solution.houses)\n'
            '    assume(bob.name == "Bob")\n'
            '    assert bob.phone == "xiaomi mi 11"\n'
        )
        # name vars are 0, 2, 4; exclude Bob (code 1) from houses 0 and 2
        doms = propagate_domains(model, {0: [0, 2], 4: [0, 2]})
        sel = model.selectors[0].id
        assert doms[sel] == [1]
        assert doms[2] == [1]  # house 1 must be Bob
        assert doms[3] == [1]  # and hold the xiaomi (code 1)

        # propagation on the unrestricted model is sound against enumeration:
        # every value reachable in some solution survives propagation
        solutions = brute_force(model)
        full = propagate_domains(model)
        for v in model.vars:
            reachable = {s[v.id] for s in solutions}
            assert reachable <= set(full[v.id])

    @pytest.mark.parametrize(
        "body,phone",
        [
            # a.name is bob, so a.phone must be x, whichever operand reads it
            ('assume(a.name == "bob")\n    assert a.phone == "x" or a.name == "al"', 0),
            ('assume(a.name == "bob")\n    assert a.name == "al" or a.phone == "x"', 0),
            # one constraint prunes the vars of both tables
            ('assert a.name == "bob" and a.phone == "y"', 1),
        ],
    )
    def test_generic_pass_tests_every_table_of_a_fixed_selector(self, body, phone):
        # one row fixes the selector (id 2) at the root; name is var 0, phone 1
        _, model = compile_source(
            'class H:\n    name: Domain[str, "bob", "al"]\n    phone: Domain[str, "x", "y"]\n'
            "class S:\n    hs: list[H, 1]\n"
            f"def v(s: S) -> None:\n    a = nondet(s.hs)\n    {body}\n"
        )
        assert propagate_domains(model) == {0: [0], 1: [phone], 2: [0]}
        assert solve(model).stats.decisions == 0

    def test_contradiction_is_reported_not_raised(self):
        model = flat_model(
            [(1, 3)],
            constraints=[
                CCmp("==", CVar(0), _lit(1)),
                CCmp("==", CVar(0), _lit(2)),
            ],
        )
        assert propagate_domains(model) is None

    def test_given_values_outside_the_declared_domain_are_ignored(self, zebra_model):
        # var 0 is a position in 1..4: -5 and 9 narrow nothing and are not returned
        assert propagate_domains(zebra_model, {0: [-5, 2, 9]}) == propagate_domains(zebra_model, {0: [2]})
        assert propagate_domains(zebra_model, {0: [-5]}) is None


def _lit(value: int):
    from logicforge.model.constraints import CLit

    return CLit(value)


class TestSolve:
    def test_worked_example_solves_to_expected_table(self, zebra_model):
        outcome = solve(zebra_model)
        assert outcome.is_sat
        table = decode(zebra_model, outcome.assignment)
        assert [r["name"] for r in table.rows] == ["Alice", "Peter", "Eric", "Arnold"]
        assert verify(zebra_model, outcome.assignment)

    def test_verify_rejects_values_outside_the_declared_domain(self, zebra_model):
        assignment = solve(zebra_model).assignment
        assert verify(zebra_model, assignment)
        # var 0 is a position in 1..4
        for bad in (0, 5, -1, None):
            assert not verify(zebra_model, {**assignment, 0: bad})
        missing = dict(assignment)
        del missing[0]
        assert not verify(zebra_model, missing)

    def test_direct_contradiction_is_unsat(self):
        model = flat_model(
            [(1, 3)],
            constraints=[CCmp("==", CVar(0), _lit(1)), CCmp("==", CVar(0), _lit(2))],
        )
        assert solve(model).status is Status.UNSAT

    def test_pigeonhole_is_unsat(self):
        model = flat_model([(0, 2)] * 3, groups=[(0, 1, 2)])
        assert solve(model).status is Status.UNSAT

    def test_assignment_includes_selector_values(self):
        src = (
            'class E:\n    f: Domain[str, "p", "q"]\n'
            "class S:\n    items: list[E, 2]\n"
            "def v(s: S) -> None:\n"
            "    a = nondet(s.items)\n"
            '    assume(a.f == "q")\n'
        )
        _, model = compile_source(src)
        outcome = solve(model)
        assert outcome.is_sat
        sel = model.selectors[0]
        assert sel.id in outcome.assignment
        chosen = outcome.assignment[sel.id]
        # the chosen instance really holds "q" (code 1)
        field_var = model.layout.rows[chosen]["f"]
        assert outcome.assignment[field_var] == 1

    def test_determinism(self, zebra_model):
        a, b = solve(zebra_model), solve(zebra_model)
        assert a.assignment == b.assignment
        assert a.stats.decisions == b.stats.decisions
        assert a.stats.propagations == b.stats.propagations

    def test_budget_exceeded_is_distinct_from_unsat(self):
        # the row order pins a lone unique field at the root, so a second
        # one keeps the search from ending in one decision
        src = (
            "class E:\n    f: Unique[Domain[int, range(0, 6)]]\n"
            "    g: Unique[Domain[int, range(0, 6)]]\n"
            "class S:\n    items: list[E, 6]\n"
            "def v(s: S) -> None:\n" + TAUTOLOGY
        )
        _, model = compile_source(src)
        with pytest.raises(BudgetExceeded):
            solve(model, Budget(max_decisions=1))

    def test_time_budget(self):
        src = (
            "class E:\n    f: Unique[Domain[int, range(0, 6)]]\n"
            "    g: Unique[Domain[int, range(0, 6)]]\n"
            "class S:\n    items: list[E, 6]\n"
            "def v(s: S) -> None:\n"
            "    a = nondet(s.items)\n"
            "    b = nondet(s.items)\n"
            "    assume(a.f * b.g - a.g * b.f == 17)\n"
        )
        _, model = compile_source(src)
        with pytest.raises(BudgetExceeded):
            solve(model, Budget(max_time=0.0))


class TestFindSecond:
    def test_worked_example_is_unique(self, zebra_model):
        outcome = solve(zebra_model)
        report = find_second(zebra_model, decode(zebra_model, outcome.assignment))
        assert not report.ambiguous

    def test_underconstrained_two_var_model(self):
        model = flat_model([(1, 3), (1, 3)])
        first = decode(model, solve(model).assignment)
        report = find_second(model, first)
        assert report.ambiguous
        assert report.second in {decode(model, a) for a in brute_force(model)} - {first}

    def test_row_permutations_do_not_count_as_ambiguity(self):
        # positions + one unique feature, fully constrained by clue symmetry:
        # the only freedom is which slot stores which house
        src = (
            "class E:\n"
            "    p: Unique[Domain[int, range(1, 3)]]\n"
            '    n: Unique[Domain[str, "a", "b"]]\n'
            "class S:\n    items: list[E, 2]\n"
            "def v(s: S) -> None:\n"
            "    x = nondet(s.items)\n"
            '    assume(x.n == "a")\n'
            "    assert x.p == 1\n"
        )
        _, model = compile_source(src)
        outcome = solve(model)
        report = find_second(model, decode(model, outcome.assignment))
        assert not report.ambiguous

    def test_removing_a_clue_matches_brute_force(self, zebra_instance):
        from logicforge.bench.render import render_dsl
        from logicforge.frontend import parse

        for drop in (2, 7):  # clue indices to remove (0-based)
            clues = tuple(c for i, c in enumerate(zebra_instance.clues) if i != drop)
            weakened = dataclasses.replace(zebra_instance, clues=clues)
            model = lower(check(parse(render_dsl(weakened))))
            outcome = solve(model)
            assert outcome.is_sat
            first = decode(model, outcome.assignment)
            tables = {decode(model, a) for a in brute_force(model)}
            report = find_second(model, first)
            assert report.ambiguous == (len(tables) >= 2)
            if report.ambiguous:
                assert report.second in tables - {first}

    def test_selector_choices_are_not_enumerated(self):
        # one table; the selector stays free, and its second value would only
        # repeat the same regular assignment, so the search never tries it
        src = (
            "class E:\n    f: Unique[Domain[int, range(1, 3)]]\n"
            "class S:\n    items: list[E, 2]\n"
            "def v(s: S) -> None:\n" + TAUTOLOGY
        )
        model = _model(src)
        report = find_second(model, decode(model, solve(model).assignment))
        assert not report.ambiguous
        assert report.stats.decisions == 1

    def test_unreferenced_selector_is_not_branched(self):
        # a nondet that no assume or assert uses changes no solution, so the
        # search does not branch it: the zebra program's counts stay as they are
        from conftest import DATA_DIR

        text = (DATA_DIR / "zebra_4x4.lpy").read_text(encoding="utf-8")
        model = _model(text + "    unused = nondet(solution.houses)\n")
        assert len(model.selectors) == len(_model(text).selectors) + 1
        outcome = solve(model)
        assert outcome.stats.decisions == 3
        report = find_second(model, decode(model, outcome.assignment))
        assert not report.ambiguous
        assert report.stats.decisions == 3

    @pytest.mark.parametrize("n", [5, 6])
    def test_slack_position_domain_is_unique_within_one_budget(self, n):
        # an AT_POSITION clue for every cell and one more position than rows:
        # one table, but n! encodings of it unless the rows are ordered
        puzzle = generate_puzzle(1, n, 3)
        clues = tuple(
            Clue(AT_POSITION, f.name, puzzle.truth.rows[i][f.name], pos=i + 1)
            for f in puzzle.features
            for i in range(n)
        )
        text = render_dsl(dataclasses.replace(puzzle, clues=clues)).text
        model = _model(_off_by_one(text, n))
        assert model.vars[model.layout.rows[0][POSITION_FIELD]].values() == range(1, n + 2)
        first = decode(model, solve(model).assignment)
        assert not find_second(model, first, Budget(max_time=1.0)).ambiguous


class TestBruteForce:
    def test_worked_example_unique_table(self, zebra_model):
        solutions = brute_force(zebra_model)
        assert len(solutions) == 1
        table = decode(zebra_model, solutions[0])
        assert table == decode(zebra_model, solve(zebra_model).assignment)

    def test_two_instance_permutations(self):
        src = (
            'class E:\n    s: Unique[Domain[str, "a", "b"]]\n'
            "class S:\n    items: list[E, 2]\n"
            "def v(s: S) -> None:\n"
            "    x = nondet(s.items)\n"
            '    assume(x.s == "a" or x.s != "a")\n'
        )
        _, model = compile_source(src)
        assert len(brute_force(model)) == 2

    def test_pigeonhole_empty(self):
        model = flat_model([(0, 2)] * 3, groups=[(0, 1, 2)])
        assert brute_force(model) == []

    def test_cap_exceeded(self):
        model = flat_model([(0, 100)] * 4)
        with pytest.raises(CapExceeded):
            brute_force(model, cap=1_000_000)

    def test_slack_position_domain_enumerates_combinations(self):
        # 4 rows over 5 positions: 5 ordered position choices, not 5P4 = 120,
        # so 5 * 24**3 tables stay under a cap that the permutations pass
        n = 4
        puzzle = generate_puzzle(1, n, 3)
        clues = tuple(
            Clue(AT_POSITION, f.name, puzzle.truth.rows[i][f.name], pos=i + 1)
            for f in puzzle.features
            for i in range(n)
        )
        text = render_dsl(dataclasses.replace(puzzle, clues=clues)).text
        model = _model(_off_by_one(text, n))
        assert orders_rows(model)
        solutions = brute_force(model, cap=100_000)
        assert len(solutions) == 1
        assert decode(model, solutions[0]) == decode(model, solve(model).assignment)

    def test_products_past_32_bits_are_exact(self):
        # 40000 * 70000 is 2.8e9: a 32-bit product wraps below zero
        _, model = compile_source(
            "class C:\n    a: Domain[int, range(40000, 40003)]\n"
            "def v(x: C) -> None:\n    assume(x.a * 70000 < 0)\n"
        )
        assert solve(model).status is Status.UNSAT
        assert brute_force(model) == []

    def test_literals_past_32_bits_are_exact(self):
        _, model = compile_source(
            "class C:\n    a: Domain[int, range(0, 3)]\n"
            "def v(x: C) -> None:\n    assume(x.a < 3000000000)\n"
        )
        assert brute_force(model) == [{0: 0}, {0: 1}, {0: 2}]

    def test_runs_on_the_standard_library_alone(self):
        # -S leaves site-packages off the path, so only src and the
        # standard library can be imported
        code = (
            "import sys\n"
            "import logicforge, logicforge.cli, logicforge.agent, logicforge.bench\n"
            "from logicforge.frontend import SourceText, check, parse\n"
            "from logicforge.model import lower\n"
            "from logicforge.solver import brute_force\n"
            "text = open(sys.argv[1], encoding='utf-8').read()\n"
            "model = lower(check(parse(SourceText(text, sys.argv[1]))))\n"
            "print(len(brute_force(model)))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, str(DATA_DIR / "zebra_4x4.lpy")],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "1\n"


class TestOracleAgreement:
    """solve / find_second / brute_force agree on random small programs."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(programs(max_entities=3, max_fields=3, max_domain=4), scalar_programs()))
    def test_agreement(self, program):
        try:
            checked = check(program)
        except SemanticError:
            return
        model = lower(checked)
        try:
            solutions = brute_force(model, cap=200_000)
        except CapExceeded:
            return
        tables = {decode(model, a).key() for a in solutions}
        try:
            outcome = solve(model, Budget(max_decisions=200_000, max_time=10.0))
        except BudgetExceeded:
            pytest.fail("solver exceeded budget on a desk-scale model")
        if outcome.status is Status.UNSAT:
            assert not tables
            return
        assert tables, "solver found a solution brute force missed"
        assert verify(model, outcome.assignment)
        assert decode(model, outcome.assignment).key() in tables
        report = find_second(model, decode(model, outcome.assignment))
        assert report.ambiguous == (len(tables) >= 2)

    @settings(max_examples=40, deadline=None)
    @given(programs(max_entities=3, max_fields=2, max_domain=3))
    def test_propagation_never_removes_solution_values(self, program):
        try:
            checked = check(program)
        except SemanticError:
            return
        model = lower(checked)
        try:
            solutions = brute_force(model, cap=100_000)
        except CapExceeded:
            return
        doms = propagate_domains(model)
        if doms is None:
            assert not solutions
            return
        for v in model.vars:
            reachable = {s[v.id] for s in solutions}
            assert reachable <= set(doms[v.id])


# --- dedicated propagators -----------------------------------------------------


def _outcome(compiled, solver, propagator, doms):
    """Domains, dirty ids and propagation count after one propagator call,
    or the propagation count at which it raised Contradiction."""
    masks = [compiled.mask(i, d) for i, d in enumerate(doms)]
    dirty: set[int] = set()
    before = solver.stats.propagations
    function, args = propagator
    try:
        function(solver, masks, dirty, *args)
    except engine.Contradiction:
        return "contradiction", solver.stats.propagations - before
    return [compiled.values(i, m) for i, m in enumerate(masks)], sorted(dirty), solver.stats.propagations - before


def _sub_domains(compiled, rng: random.Random) -> list[list[int]]:
    """A random non-empty sub-domain per id: the full domain, a single
    value or a random subset, with equal odds."""
    doms = []
    for dom in map(compiled.values, range(compiled.n_ids), compiled.initial_state()):
        kind = rng.randrange(3)
        if kind == 0 or len(dom) == 1:
            doms.append(list(dom))
        elif kind == 1:
            doms.append([rng.choice(dom)])
        else:
            doms.append(sorted(rng.sample(dom, rng.randint(1, len(dom)))))
    return doms


def assert_matches_generic(model, rng: random.Random, trials: int = 8) -> int:
    """Every constraint's propagator agrees with the generic evaluator from
    random sub-domains. Returns how many constraints got a dedicated one.
    ``model`` is a ConstraintModel or a CompiledModel."""
    compiled = model if isinstance(model, engine.CompiledModel) else engine.CompiledModel(model)
    solver = engine._Search(compiled.view(()), Budget())
    dedicated = 0
    # the all-different groups' propagators come first in the work list,
    # then the constraints', then the row order's
    constraint_propagators = compiled.propagators[compiled.n_groups :]
    pos = compiled.position_vars or []
    row_order = [CCmp("<", CVar(a), CVar(b)) for a, b in zip(pos, pos[1:])]
    model = compiled.model
    items = [*zip(model.constraints, model.scopes), *((c, reference_scope(c)) for c in row_order)]
    assert len(items) == len(constraint_propagators)
    for (expr, scope), propagator in zip(items, constraint_propagators):
        generic = (engine._Search._propagate_generic, (expr, scope))
        dedicated += propagator[0] is not engine._Search._propagate_generic
        for _ in range(trials):
            doms = _sub_domains(compiled, rng)
            assert _outcome(compiled, solver, propagator, doms) == _outcome(
                compiled, solver, generic, doms
            ), expr
    return dedicated


def _is_generic(model: ConstraintModel) -> list[bool]:
    """Per lowered constraint, whether the generic evaluator serves it."""
    compiled = engine.CompiledModel(model)
    constraint_propagators = compiled.propagators[compiled.n_groups :][: len(model.constraints)]
    return [function is engine._Search._propagate_generic for function, _ in constraint_propagators]


def _model(text: str) -> ConstraintModel:
    return compile_source(text)[1]


def _off_by_one(text: str, n: int) -> str:
    """The position domain one value too wide, one more position than rows."""
    return text.replace(f"range(1, {n + 1})", f"range(1, {n + 2})", 1)


def selector_model(domains, tables, constraints) -> ConstraintModel:
    """Hand-built model: int vars with [lo, hi) domains, one selector per
    table of var ids (repeats allowed), one row holding every var."""
    model = flat_model(domains)
    n = len(domains)
    selectors = [SelectorVar(n + i, len(t), "C", f"choice{i}") for i, t in enumerate(tables)]
    scopes = [reference_scope(c) for c in constraints]
    model = ConstraintModel(model.vars, selectors, [], list(constraints), scopes, model.layout)
    validate_model(model)
    return model


class TestDedicatedPropagators:
    """A dedicated propagator removes exactly the values the generic
    singleton tests remove, in the same order, and fails in the same states."""

    @settings(max_examples=60, deadline=None)
    @given(programs(max_entities=3, max_fields=3, max_domain=4), st.randoms(use_true_random=False))
    def test_hypothesis_models_match_generic(self, program, rng):
        try:
            checked = check(program)
        except SemanticError:
            return
        assert_matches_generic(lower(checked), rng)

    @pytest.mark.parametrize("seed,n,f", [(1, 3, 3), (2, 3, 4), (3, 4, 4)])
    def test_generated_puzzles_match_generic(self, seed, n, f):
        text = render_dsl(generate_puzzle(seed, n, f)).text
        rng = random.Random(seed)
        # the last source moves the position domain below zero, so domain
        # masks start at a negative offset
        below_zero = text.replace(f"range(1, {n + 1})", f"range({-n}, 0)", 1)
        for source in (text, _off_by_one(text, n), below_zero):
            model = _model(source)
            # the propagators an ordered search runs: every lowered constraint
            # and each of the n - 1 row-order constraints has a dedicated one
            compiled = engine.CompiledModel(model)
            assert compiled.orders_rows(tuple(range(len(model.constraints))))
            items = len(compiled.propagators) - compiled.n_groups
            assert items == len(model.constraints) + n - 1
            assert assert_matches_generic(compiled, rng) == items

    def test_repeated_table_ids_match_generic(self):
        # tables name a var twice, and both sides of a pair share vars
        e = CElem(4, (0, 1, 0))
        f = CElem(5, (1, 2, 1))
        g = CElem(6, (3, 3))
        model = selector_model(
            [(0, 4), (0, 4), (1, 5), (0, 3)],
            [(0, 1, 0), (1, 2, 1), (3, 3)],
            [
                CCmp("==", e, CLit(2)),
                CCmp("!=", g, CLit(1)),
                CCmp("<", e, f),
                CCmp("==", f, CBin("-", e, CLit(1))),
                CCmp("==", CAbs(CBin("-", e, g)), CLit(1)),
                CCmp("==", CAbs(CBin("-", g, f)), CLit(-1)),
                # the same two relation families, spelled otherwise
                CCmp("<", e, CLit(2)),
                CCmp("<=", CLit(1), g),
                CCmp("==", CBin("+", f, CLit(1)), CLit(3)),
                CBool("or", (CCmp("==", e, CLit(0)), CCmp("<", CLit(2), e))),
                CBool(
                    "or", (CCmp("==", CBin("-", e, g), CLit(1)), CCmp("==", CBin("-", g, e), CLit(2)))
                ),
                CCmp("<=", e, f),
                CCmp("==", CBin("-", g, f), CLit(1)),
                CCmp("==", CAbs(CBin("+", CBin("-", e, g), CLit(1))), CLit(2)),
            ],
        )
        # and again with g's mask base at 2, so that a pair's shifts are offset
        shifted = selector_model(
            [(0, 4), (0, 4), (1, 5), (2, 5)], [(0, 1, 0), (1, 2, 1), (3, 3)], model.constraints
        )
        rng = random.Random(7)
        for m in (model, shifted):
            assert not any(_is_generic(m))
            assert_matches_generic(m, rng, trials=300)

    @pytest.mark.parametrize(
        "clue",
        [
            "assume(x.p < x.p)",
            "assume(x.p == x.p - 1)",
            "assume(abs(x.p - x.q) == 1)",
        ],
    )
    def test_same_selector_on_both_sides_stays_generic(self, clue):
        model = _model(
            "class E:\n    p: Unique[Domain[int, range(1, 4)]]\n    q: Domain[int, range(0, 3)]\n"
            "class S:\n    items: list[E, 3]\n"
            "def v(s: S) -> None:\n    x = nondet(s.items)\n    " + clue + "\n"
        )
        assert _is_generic(model) == [True]
        assert_matches_generic(model, random.Random(3))
        if clue == "assume(x.p < x.p)":
            assert solve(model).status is Status.UNSAT

    @pytest.mark.parametrize(
        "clue,generic",
        [
            ("assume(abs(a.p - b.p) == 1)", True),
            ("assume(a.p == b.p - 1)", False),  # one side's set of 40 stays exact
            ("assume(a.p < b.p)", False),  # bounds only: no set arithmetic
            ("assume(a.p - b.p == 1 or b.p - a.p == 1)", True),
        ],
    )
    def test_wide_domains_keep_the_generic_range_collapse(self, clue, generic):
        # 40 x 40 candidate differences exceed _SET_CAP, where the generic
        # evaluator widens a difference set to its range
        src = (
            "class E:\n    p: Domain[int, range(0, 40)]\n"
            "class S:\n    items: list[E, 2]\n"
            "def v(s: S) -> None:\n    a = nondet(s.items)\n    b = nondet(s.items)\n"
            "    " + clue + "\n"
        )
        model = _model(src)
        assert _is_generic(model) == [generic]
        assert_matches_generic(model, random.Random(5))
        # even values only: no two differ by 1, but 20 x 20 = 400 pairs stay
        # within the cap and the generic proves it; over range(0, 80), 40 x 40
        # do not, so the range collapse keeps the domains
        evens = list(range(0, 40, 2))
        if generic:
            assert propagate_domains(model, {0: evens, 1: evens}) is None
            wide = _model(src.replace("range(0, 40)", "range(0, 80)"))
            evens = list(range(0, 80, 2))
            assert propagate_domains(wide, {0: evens, 1: evens}) is not None


# Each rendered clue line, rewritten into another spelling with the same
# meaning (Akgün, Gent, Jefferson, Miguel and Nightingale, "Metamorphic testing
# of constraint solvers", CP 2018), as an LLM might write it.
_REWRITES = (
    (re.compile(r'assume\((\S+) == ("[^"]*")\)$'), r"assume(not (\2 != \1))"),
    (re.compile(r'assert (\S+) == ("[^"]*")$'), r"assert not (\1 != \2)"),
    (re.compile(r"assert (\S+) == (\d+)$"), r"assert \2 == \1"),
    (re.compile(r"assert (\S+) != (\d+)$"), r"assert not (\1 == \2)"),
    (re.compile(r"assert (\S+) < (\S+)$"), r"assert \2 > \1"),
    (re.compile(r"assert (\S+) == (\S+ - 1)$"), r"assert not (\1 != \2)"),
    (re.compile(r"assert (abs\(.*\)) == 1$"), r"assert not (1 != \1)"),
)


# Each rendered clue line restated as another relation with the same
# meaning, in the spellings the prompt invites: the lowered trees differ
# from the rendered ones, but each states the relation a dedicated
# propagator serves.
_RESTATEMENTS = (
    (re.compile(r"assert abs\((\S+) - (\S+)\) == 1$"), r"assert \1 - \2 == 1 or \2 - \1 == 1"),
    (re.compile(r"assert (\S+) == (\S+) - 1$"), r"assert \2 == \1 + 1"),
    (re.compile(r"assert (\S+) < (\S+)$"), r"assert \2 >= \1 + 1"),
    (re.compile(r"assert (\S+) != (\d+)$"), r"assert \1 < \2 or \1 > \2"),
    # grouping parentheses, and a condition split over lines
    (re.compile(r"assume\((\S+) == (.+)\)$"), r"assume((\1) == (\2))"),
    (re.compile(r"assert (\S+) == (.+)$"), r"assert (\1\n            == \2)"),
)


def _rewritten(text: str, rewrites=_REWRITES) -> str:
    """``text`` with every assume and assert line of a rendered puzzle
    rewritten by the first of ``rewrites`` that matches it."""
    lines = []
    for line in text.splitlines():
        indent, stmt = line[: len(line) - len(line.lstrip())], line.strip()
        if stmt.startswith(("assume", "assert")):
            pattern, replacement = next((p, r) for p, r in rewrites if p.match(stmt))
            stmt = pattern.sub(replacement, stmt)
        lines.append(indent + stmt)
    return "\n".join(lines) + "\n"


def _search_record(model: ConstraintModel) -> tuple:
    """The table ``solve`` finds, then the decisions and propagations of
    ``solve`` and of ``find_second``, and whether a second table exists."""
    first = solve(model)
    table = decode(model, first.assignment)
    report = find_second(model, table)
    counts = (first.stats.decisions, first.stats.propagations)
    return table.key(), counts, (report.stats.decisions, report.stats.propagations), report.ambiguous


class TestMetamorphicRewrites:
    """A clue written with ``not``, ``>`` or a literal on the left lowers to
    the model of the clue as the generator writes it, so it reaches the same
    dedicated propagators and searches alike. A clue restated as another
    spelling of the same relation lowers to another tree, but reaches the
    same propagator, so it searches alike too."""

    @pytest.mark.parametrize("seed,n,f", [(1, 4, 4), (2, 4, 4), (3, 5, 5), (4, 5, 5), (5, 6, 6)])
    def test_generated_puzzles(self, seed, n, f):
        text = render_dsl(generate_puzzle(seed, n, f)).text
        model, model_rewritten = _model(text), _model(_rewritten(text))
        assert dump_model(model_rewritten) == dump_model(model)
        assert not any(_is_generic(model_rewritten))
        first, second = solve(model), solve(model_rewritten)
        assert first.assignment == second.assignment
        assert (first.stats.decisions, first.stats.propagations) == (
            second.stats.decisions,
            second.stats.propagations,
        )
        report = find_second(model, decode(model, first.assignment))
        report_rewritten = find_second(model_rewritten, decode(model_rewritten, second.assignment))
        assert not report.ambiguous and not report_rewritten.ambiguous
        assert (report.stats.decisions, report.stats.propagations) == (
            report_rewritten.stats.decisions,
            report_rewritten.stats.propagations,
        )

    @pytest.mark.parametrize("seed,n,f", [(1, 4, 4), (2, 4, 4), (3, 5, 5), (4, 5, 5), (5, 6, 6)])
    def test_restated_clues(self, seed, n, f):
        text = render_dsl(generate_puzzle(seed, n, f)).text
        restated = _rewritten(text, _RESTATEMENTS)
        model, model_restated = _model(text), _model(restated)
        assert dump_model(model_restated) != dump_model(model)
        assert not any(_is_generic(model_restated))
        assert _search_record(model_restated) == _search_record(model)

    def test_restated_zebra(self):
        model = _model((DATA_DIR / "zebra_4x4.lpy").read_text(encoding="utf-8"))
        restated = _model((DATA_DIR / "zebra_4x4_restated.lpy").read_text(encoding="utf-8"))
        assert not any(_is_generic(restated))
        assert _search_record(restated) == _search_record(model)

    def test_folding_an_assume_into_the_assert_changes_the_puzzle(self):
        # ``assume(p)`` then ``assert q`` is not ``assert not p or q``: the
        # selector is existential, so the fold lets it pick a house where p
        # fails, and the Eric clue no longer says anything
        text = (DATA_DIR / "zebra_4x4.lpy").read_text(encoding="utf-8")
        clue = '    assume(eric.name == "Eric")\n    assert eric.occupation == "teacher"\n'
        folded = '    assert not eric.name == "Eric" or eric.occupation == "teacher"\n'
        assert text.count(clue) == 1
        model = _model(text.replace(clue, folded))
        assert not _search_record(_model(text))[3]
        assert _search_record(model)[3]


class TestMaskBases:
    """A domain mask starts at its variable's lowest declared value, so its
    width follows the domain's size, not the size of its values."""

    def test_shifted_domain_searches_alike(self, zebra_source):
        # house numbers 1990..1993 instead of 1..4, with the two position
        # literals moved along: the masks stay 4 bits wide, and both searches
        # take the same steps to the same table
        text = zebra_source.text
        shifted = text.replace("range(1, 5)", "range(1990, 1994)")
        for op in ("==", "!="):
            assert shifted.count(f"house_number {op} 2\n") == 1
            shifted = shifted.replace(f"house_number {op} 2\n", f"house_number {op} 1991\n")
        model, moved = _model(text), _model(shifted)
        assert max(m.bit_length() for m in engine.CompiledModel(moved).declared) == 4
        first, second = solve(model), solve(moved)
        assert first.stats.decisions == second.stats.decisions
        assert first.stats.propagations == second.stats.propagations
        positions = {row[POSITION_FIELD] for row in model.layout.rows}
        assert second.assignment == {
            i: v + 1989 if i in positions else v for i, v in first.assignment.items()
        }
        report = find_second(model, decode(model, first.assignment))
        moved_report = find_second(moved, decode(moved, second.assignment))
        assert not report.ambiguous and not moved_report.ambiguous
        assert report.stats.decisions == moved_report.stats.decisions
        assert report.stats.propagations == moved_report.stats.propagations

    @pytest.mark.parametrize(
        "clue,generic",
        [
            ("engineer.house_number == 1000000000000", False),
            ("engineer.house_number == -1000000000000", False),
            ("abs(engineer.house_number - galaxy_owner.house_number) == 1000000000000", False),
            ("engineer.house_number == galaxy_owner.house_number - 1000000000000", False),
            ("engineer.house_number == galaxy_owner.house_number - -1000000000000", False),
        ],
    )
    def test_literals_beyond_every_mask_are_unsat(self, zebra_source, clue, generic):
        # no mask is shifted by such a literal: E == L gets an empty literal
        # mask, and a pair's difference set drops each shift that meets no
        # bit, so these are left with none
        model = _model(zebra_source.text + "    assert " + clue + "\n")
        assert _is_generic(model)[-1] is generic
        assert solve(model).status is Status.UNSAT
        assert_matches_generic(model, random.Random(11))


class _CheckedSearch(engine._Search):
    """A search whose every propagation (a child's, or an ordered root's
    from its parent's cached fixpoint) also runs in full on a copy: every
    item that is on runs, and none is inert but the items that are off.
    Both must return the same verdict, leave the same domains and count the
    same propagations, and no item may be inert that the full pass leaves
    stale. ``nodes`` counts the calls compared, ``failed`` those that end
    in a contradiction."""

    nodes = failed = 0

    def propagate(self, doms, inert, stale):
        full = list(doms)
        before = self.stats.propagations
        # the full pass gets its own inert mask, so its entailments stay out
        # of the incremental run
        full_inert = super().propagate(full, self.off, self.on)
        full_count = self.stats.propagations - before
        self.stats.propagations = before
        result = super().propagate(doms, inert, stale)
        assert (result is None, doms, self.stats.propagations - before) == (
            full_inert is None,
            full,
            full_count,
        )
        if result is not None:
            assert not result & ~full_inert
        _CheckedSearch.nodes += 1
        _CheckedSearch.failed += result is None
        return result


def checked_searches(model, budget: Budget | None = None) -> tuple[int, int]:
    """Run solve and, when it finds a solution, find_second on ``model`` (a
    ConstraintModel or a ModelView) with every child propagation checked
    against the full one. Returns how many children were compared and how
    many of them ended in a contradiction."""
    _CheckedSearch.nodes = _CheckedSearch.failed = 0
    with mock.patch.object(engine, "_Search", _CheckedSearch):
        outcome = solve(model, budget)
        if outcome.is_sat:
            plain = model.compiled.model if isinstance(model, engine.ModelView) else model
            find_second(model, decode(plain, outcome.assignment), budget)
    return _CheckedSearch.nodes, _CheckedSearch.failed


def _false_clue(instance) -> Clue:
    """The first feature's value of house 1 put in the last house."""
    feature = instance.features[0].name
    return Clue(AT_POSITION, feature, instance.truth.rows[0][feature], pos=instance.n_entities)


class TestEventDrivenPropagation:
    """A child propagation that starts from the watchers of the decided id
    and skips the items its parent found entailed equals the full
    propagation of the child with no item inert: the same verdict, domains
    and propagation count, also at a contradiction."""

    @pytest.mark.parametrize("name", ["zebra_4x4.lpy", "example_6house.lpy"])
    def test_data_programs(self, name):
        from conftest import DATA_DIR

        text = (DATA_DIR / name).read_text(encoding="utf-8")
        nodes, _ = checked_searches(_model(text))
        assert nodes > 0

    @settings(max_examples=60, deadline=None)
    @given(programs(max_entities=3, max_fields=3, max_domain=4))
    def test_hypothesis_models(self, program):
        try:
            checked = check(program)
        except SemanticError:
            return
        try:
            checked_searches(lower(checked), Budget(max_decisions=5_000, max_time=10.0))
        except BudgetExceeded:
            pass

    @pytest.mark.parametrize("seed,n,f", [(1, 3, 3), (2, 3, 4), (3, 4, 4), (4, 4, 3)])
    def test_generated_puzzles(self, seed, n, f):
        instance = generate_puzzle(seed, n, f)
        text = render_dsl(instance).text
        false_clue = dataclasses.replace(instance, clues=instance.clues + (_false_clue(instance),))
        model = _model(text)
        unsat = _model(render_dsl(false_clue).text)
        assert solve(unsat).status is Status.UNSAT
        # every other constraint on: a view, as the generator checks subsets
        half = engine.CompiledModel(model).view(range(0, len(model.constraints), 2))
        counts = [checked_searches(m) for m in (model, _model(_off_by_one(text, n)), unsat, half)]
        assert all(nodes > 0 for nodes, _ in counts)
        assert sum(failed for _, failed in counts) > 0


def _ordered_roots(view) -> tuple[tuple, tuple]:
    """The root of an ordered search over ``view`` as the search starts it,
    from its parent's cached root fixpoint, and the root propagated in full
    from the declared domains: each as (domains or None where it fails,
    propagation count)."""
    search = engine._Search(view, Budget())
    assert search.ordered
    root = search.root(view)
    full = engine._Search(view, Budget())
    doms = view.compiled.initial_state()
    ok = full.propagate(doms, full.off, full.on) is not None
    return (root and root[0], search.stats.propagations), (doms if ok else None, full.stats.propagations)


class TestCachedOrderedRoot:
    """An ordered search over a plain view starts from the cached fixpoint
    of its parent, the empty view: the groups and the row order, where only
    the active constraints are stale. Its root has the domains and the
    propagation count of a root propagated from the declared domains, and
    so has a root that fails."""

    @settings(max_examples=60, deadline=None)
    @given(programs(max_entities=3, max_fields=3, max_domain=4))
    def test_hypothesis_models(self, program):
        try:
            checked = check(program)
        except SemanticError:
            return
        model = lower(checked)
        compiled = engine.CompiledModel(model)
        free = [i for i in range(len(model.constraints)) if i not in compiled.row_tied]
        for active in (free, free[::2], free[1::2]):
            if compiled.orders_rows(tuple(active)):
                cached, declared = _ordered_roots(compiled.view(active))
                assert cached == declared

    @pytest.mark.parametrize("seed,n,f", [(1, 3, 3), (2, 3, 4), (3, 4, 4), (4, 4, 3)])
    def test_generated_puzzles(self, seed, n, f):
        instance = generate_puzzle(seed, n, f)
        text = render_dsl(instance).text
        feature = instance.features[0].name
        # a house number outside the position domain: its constraint fails
        # before the row order runs in a full pass, after it from the cache
        beyond = Clue(AT_POSITION, feature, instance.truth.rows[0][feature], pos=n + 1)
        failing = [
            _model(render_dsl(dataclasses.replace(instance, clues=instance.clues + (clue,))).text)
            for clue in (_false_clue(instance), beyond)
        ]
        failed = 0
        for model in (_model(text), _model(_off_by_one(text, n)), *failing):
            compiled = engine.CompiledModel(model)
            every = range(len(model.constraints))
            for view in (compiled.view(every), compiled.view(every[::2]), compiled.view(every[1::2])):
                cached, declared = _ordered_roots(view)
                assert cached == declared
                failed += cached[0] is None
        assert failed >= 2
        # find_second over each unsat model, with the truth as a made-up
        # first solution: where the root fails, it is counted as in the full
        # pass (the beyond clue's root always fails)
        for model in failing:
            view = engine.compile_model(model)
            _, (doms, count) = _ordered_roots(view)
            report = find_second(view, instance.truth)
            assert report.second is None
            if doms is None:
                assert (report.stats.decisions, report.stats.propagations) == (0, count)


def _nested(rng: random.Random, clues: int, depth: int) -> list[list[int]]:
    """``depth`` random clue index lists, each a strict subset of the next
    and the last not always every clue."""
    order = rng.sample(range(clues), clues)
    cuts = sorted(rng.sample(range(clues + 1), depth))
    return [sorted(order[:cut]) for cut in cuts]


def _searches(view, truth) -> list[tuple]:
    """The uniqueness search from the root against ``truth``, then ``solve``
    and the uniqueness search it leaves suspended: what each found (a second
    table, an assignment) and its counters."""
    first = find_second(view, truth)
    outcome = solve(view)
    runs = [(first.second, first.stats), (outcome.assignment, outcome.stats)]
    if outcome.is_sat:
        second = find_second(view, decode(view.compiled.model, outcome.assignment))
        runs.append((second.second, second.stats))
    return [(found, stats.decisions, stats.propagations) for found, stats in runs]


class TestDerivedViews:
    """A view derived with ``plus`` searches from its parent's cached root
    fixpoint, propagating only the constraints it adds. It solves, finds
    second tables and counts exactly as the plain view of the same
    constraints on a model built afresh, and a budget that runs out while a
    parent's fixpoint is built leaves nothing cached."""

    @staticmethod
    def _compiled(instance, extra=()):
        clues = list(instance.clues) + list(extra)
        return puzzle._compile_candidates(instance.features, clues, instance.n_entities)

    @staticmethod
    def _constraints(slices, clues) -> list[int]:
        return [i for k in clues for i in slices[k]]

    @pytest.mark.parametrize("n,f", [(3, 3), (4, 3), (4, 4), (5, 5), (6, 6)])
    def test_nested_subsets_search_like_plain_views(self, n, f):
        rng = random.Random(f"derived:{n}x{f}")
        for seed in range(2):
            instance = generate_puzzle(seed, n, f)
            compiled, slices = self._compiled(instance)
            clues = len(slices)
            for _ in range(3):
                chain = _nested(rng, clues, 3)
                view = compiled.view(self._constraints(slices, chain[0]))
                for smaller, larger in zip(chain, chain[1:]):
                    added = sorted(set(larger) - set(smaller))
                    view = view.plus(self._constraints(slices, added))
                    fresh, fresh_slices = self._compiled(instance)
                    plain = fresh.view(self._constraints(fresh_slices, larger))
                    assert view.active == plain.active
                    cached, declared = _ordered_roots(view)
                    assert cached == declared
                    assert _searches(view, instance.truth) == _searches(plain, instance.truth)
                    # brute force takes seconds on a 4x4 with few clues
                    if n * f <= 12 or n == 4 and 4 * len(larger) >= 3 * clues:
                        self._agrees_with_brute_force(view, instance.truth)

    @staticmethod
    def _agrees_with_brute_force(view, truth):
        model = cut(view.compiled.model, view.active)
        tables = {decode(model, a) for a in brute_force(model)}
        assert truth in tables
        report = find_second(view, truth)
        if report.second is None:
            assert tables == {truth}
        else:
            assert report.second in tables - {truth}

    @pytest.mark.parametrize("seed,n,f", [(1, 3, 3), (2, 4, 4), (3, 5, 4)])
    def test_a_derived_root_that_fails_counts_as_a_full_pass(self, seed, n, f):
        instance = generate_puzzle(seed, n, f)
        feature = instance.features[0].name
        # a house number outside the position domain fails at the root
        beyond = Clue(AT_POSITION, feature, instance.truth.rows[0][feature], pos=n + 1)
        false = (_false_clue(instance), beyond)
        compiled, slices = self._compiled(instance, false)
        clues = len(instance.clues)
        failed = 0
        for half in (range(0, clues, 2), range(clues)):
            base = compiled.view(self._constraints(slices, half))
            for k in (clues, clues + 1):
                view = base.plus(slices[k])
                cached, declared = _ordered_roots(view)
                assert cached == declared
                failed += cached[0] is None
                fresh, fresh_slices = self._compiled(instance, false)
                plain = fresh.view(self._constraints(fresh_slices, [*half, k]))
                assert _searches(view, instance.truth) == _searches(plain, instance.truth)
        assert failed >= 2

    def test_a_budget_spent_building_a_parent_fixpoint_caches_nothing(self):
        instance = generate_puzzle(2, 4, 4)
        clues = len(instance.clues)
        compiled, slices = self._compiled(instance)
        half = self._constraints(slices, range(0, clues, 2))
        rest = self._constraints(slices, range(1, clues, 2))
        derived = compiled.view(half).plus(rest[:2]).plus(rest[2:])
        spent = Budget(max_time=0.0)
        # the deadline is read after every item run, so the first one stops it
        with mock.patch.object(engine, "_CLOCK_EVERY", 1):
            with pytest.raises(BudgetExceeded):
                solve(derived, spent)
            assert compiled.roots == {}
            # with the empty view's fixpoint cached, the next parent's is cut short
            solve(compiled.view(half))
            assert set(compiled.roots) == {()}
            with pytest.raises(BudgetExceeded):
                find_second(derived, instance.truth, spent)
            assert set(compiled.roots) == {()}
        fresh, fresh_slices = self._compiled(instance)
        plain = fresh.view(half + rest)
        assert _searches(derived, instance.truth) == _searches(plain, instance.truth)
        assert set(compiled.roots) == {(), tuple(half), tuple(sorted(half + rest[:2]))}


class TestGoldenCounters:
    """Decision and propagation counts of solve (rows ordered by position)
    and of the uniqueness search in find_second, each call compiling its own
    model; a solver with every constraint on the generic propagator counts
    the same."""

    @staticmethod
    def counters(model: ConstraintModel) -> tuple[int, int, int, int, bool]:
        outcome = solve(model)
        report = find_second(model, decode(model, outcome.assignment))
        return (
            outcome.stats.decisions,
            outcome.stats.propagations,
            report.stats.decisions,
            report.stats.propagations,
            report.ambiguous,
        )

    def assert_counts(self, model: ConstraintModel, expected: tuple) -> None:
        assert self.counters(model) == expected

        def generic(compiled, expr, scope):
            return engine._Search._propagate_generic, (expr, scope)

        with mock.patch.object(engine.CompiledModel, "_propagator", generic):
            assert self.counters(model) == expected

    @pytest.mark.parametrize(
        "name,expected",
        [("zebra_4x4.lpy", (3, 110, 3, 110, False)), ("example_6house.lpy", (21, 141, 22, 142, True))],
    )
    def test_data_programs(self, name, expected):
        from conftest import DATA_DIR

        self.assert_counts(_model((DATA_DIR / name).read_text(encoding="utf-8")), expected)

    @pytest.mark.parametrize(
        "seed,n,f,off_by_one,expected",
        [
            (1, 3, 3, False, (2, 51, 3, 54, False)),
            (2, 3, 4, False, (2, 56, 2, 56, False)),
            (3, 4, 4, False, (3, 151, 7, 229, False)),
            (4, 4, 3, False, (3, 103, 21, 544, False)),
            # one more position than rows
            (2, 3, 4, True, (3, 58, 4, 66, False)),
        ],
    )
    def test_generated_puzzles(self, seed, n, f, off_by_one, expected):
        text = render_dsl(generate_puzzle(seed, n, f)).text
        if off_by_one:
            text = _off_by_one(text, n)
        self.assert_counts(_model(text), expected)


def _resumed_against_fresh(
    model: ConstraintModel, active, budget: Budget | None = None, others=()
):
    """solve, then find_second, over one view of ``model`` with the
    constraints at ``active`` on, checked against find_second over a fresh
    compile of the same view, for solve's table as the first table and for
    each table of ``others``: the resumed search gives the same verdict and
    second table, and solve's counts plus its own are the fresh search's.
    Returns solve's outcome and the resumed report for solve's table, None
    where solve finds no solution."""
    reports = []
    for other in (None, *others):
        view = engine.CompiledModel(model).view(active)
        outcome = solve(view, budget)
        if not outcome.is_sat:
            assert not view.compiled.suspended
            return outcome, None
        assert list(view.compiled.suspended) == [view.active]
        first = other or decode(model, outcome.assignment)
        resumed = find_second(view, first, budget)
        assert not view.compiled.suspended
        fresh = find_second(engine.CompiledModel(model).view(active), first, budget)
        assert (resumed.ambiguous, resumed.second) == (fresh.ambiguous, fresh.second)
        assert (
            outcome.stats.decisions + resumed.stats.decisions,
            outcome.stats.propagations + resumed.stats.propagations,
        ) == (fresh.stats.decisions, fresh.stats.propagations)
        reports.append(resumed)
    return outcome, reports[0]


def _oracle_tables(model: ConstraintModel, active) -> list:
    """The tables brute force finds for the constraints at ``active``, in
    the order it first meets them."""
    model = cut(model, active)
    return list(dict.fromkeys(decode(model, a) for a in brute_force(model, cap=2_000_000)))


def _assert_agrees_with_brute_force(model: ConstraintModel, tables: list, outcome, report) -> None:
    """solve is SAT iff brute force finds a table, its table is one of
    ``tables``, and find_second calls it ambiguous iff there are two tables
    or more, and then gives one of the others."""
    assert outcome.is_sat == bool(tables)
    if outcome.is_sat:
        first = decode(model, outcome.assignment)
        assert first in tables
        assert report.ambiguous == (len(tables) >= 2)
        if report.ambiguous:
            assert report.second in tables and report.second != first


def _one_swap(table):
    """``table`` with the last column's values of its first two rows traded."""
    column = table.columns[-1]
    rows = [dict(row) for row in table.rows]
    rows[0][column], rows[1][column] = rows[1][column], rows[0][column]
    return dataclasses.replace(table, rows=tuple(rows))


class TestResumedSearch:
    """solve orders the rows like find_second and leaves its first solution
    and its search suspended on the compiled model; find_second over the
    same constraints walks that solution and then the rest of the search,
    whatever first table it is given. Both agree with brute force, and the
    resumed search answers as a fresh one on a fresh compile, with solve's
    counts and its own adding up to the fresh search's."""

    @settings(max_examples=60, deadline=None)
    @given(programs(max_entities=3, max_fields=3, max_domain=4))
    def test_hypothesis_models(self, program):
        try:
            checked = check(program)
        except SemanticError:
            return
        model = lower(checked)
        every = range(len(model.constraints))
        for active in (every, every[::2]):
            try:
                tables = _oracle_tables(model, active)
                # the first and last oracle tables as first tables too
                budget = Budget(max_decisions=5_000, max_time=10.0)
                outcome, report = _resumed_against_fresh(model, active, budget, tables[:1] + tables[-1:])
                _assert_agrees_with_brute_force(model, tables, outcome, report)
            except (BudgetExceeded, CapExceeded):
                pass

    @pytest.mark.parametrize("seed,n,f", [(1, 3, 3), (2, 3, 4), (3, 4, 4), (4, 4, 3)])
    def test_generated_puzzles(self, seed, n, f):
        instance = generate_puzzle(seed, n, f)
        text = render_dsl(instance).text
        false_clue = dataclasses.replace(instance, clues=instance.clues + (_false_clue(instance),))
        # the truth, and a single swap of it, as first tables too
        others = (instance.truth, _one_swap(instance.truth))
        verdicts = set()
        for source in (text, _off_by_one(text, n), render_dsl(false_clue).text):
            model = _model(source)
            every = range(len(model.constraints))
            # every other clue on: a view, as the generator checks subsets
            for active in (every, every[::2]):
                _, report = _resumed_against_fresh(model, active, others=others)
                verdicts.add(report and report.ambiguous)
        assert verdicts == {None, False, True}  # unsat, unique and ambiguous views

    @pytest.mark.parametrize(
        "seed,n,f,slack",
        [(1, 3, 3, False), (1, 3, 3, True), (2, 3, 4, False), (2, 3, 4, True),
         (3, 4, 4, False), (3, 4, 4, True), (4, 4, 3, False), (4, 4, 3, True)],
    )
    def test_generated_puzzles_match_brute_force(self, seed, n, f, slack):
        instance = generate_puzzle(seed, n, f)
        false_clue = dataclasses.replace(instance, clues=instance.clues + (_false_clue(instance),))
        for source in (render_dsl(instance).text, render_dsl(false_clue).text):
            model = _model(_off_by_one(source, n) if slack else source)
            every = range(len(model.constraints))
            # brute force lists every solution of a view with half the clues
            # off: within a test's time only for 3 rows or 3 features
            for active in (every, every[::2]) if 3 in (n, f) else (every,):
                tables = _oracle_tables(model, active)
                outcome, report = _resumed_against_fresh(model, active, others=tables[-1:])
                _assert_agrees_with_brute_force(model, tables, outcome, report)

    def test_a_model_keeping_a_suspended_search_is_freed_when_dropped(self, zebra_model):
        # the search holds the model's lists, not the model: no reference
        # cycle, so no collector run is needed to free either
        view = engine.compile_model(zebra_model)
        assert solve(view).is_sat and view.compiled.suspended
        compiled = weakref.ref(view.compiled)
        gc.disable()
        try:
            del view
            assert compiled() is None
        finally:
            gc.enable()

    def test_another_view_searches_from_the_root_and_another_first_resumes(self, zebra_model):
        compiled = engine.CompiledModel(zebra_model)
        every = range(len(zebra_model.constraints))
        full, half = compiled.view(every), compiled.view(every[::2])
        outcome = solve(full)
        first = decode(zebra_model, outcome.assignment)
        other = _one_swap(first)

        def answer(report):
            stats = report.stats
            return report.ambiguous, report.second, stats.decisions, stats.propagations

        fresh_half = engine.CompiledModel(zebra_model).view(every[::2])
        assert answer(find_second(half, first)) == answer(find_second(fresh_half, first))
        assert list(compiled.suspended) == [full.active]  # still there for its own view
        # another first table resumes solve's search: solve's own solution
        # is a second table to it, met before any decision of its own
        resumed = find_second(full, other)
        assert not compiled.suspended
        fresh = find_second(engine.compile_model(zebra_model), other)
        assert answer(resumed) == (True, first, 0, 0)
        assert answer(fresh) == (True, first, outcome.stats.decisions, outcome.stats.propagations)


def _group_run(compiled, masks) -> tuple:
    """One run of the model's first all-different group from the declared
    domains with the group's vars set to ``masks``, in group order: the
    group's masks, the sorted positions within the group of the dirty ids,
    the propagations counted and the entailed flag (None at a
    contradiction)."""
    group = compiled.model.alldiff_groups[0]
    doms = compiled.initial_state()
    for v, mask in zip(group, masks):
        doms[v] = mask
    search = engine._Search(compiled.view(()), Budget())
    dirty: set[int] = set()
    function, args = compiled.propagators[0]
    try:
        entailed = function(search, doms, dirty, *args)
    except engine.Contradiction:
        entailed = None
    positions = sorted(group.index(v) for v in dirty)
    return [doms[v] for v in group], positions, search.stats.propagations, entailed


def _answers(text: str) -> tuple:
    """solve's (status, decisions, propagations, assignment) and, where it
    finds one, find_second's (ambiguous, decisions, propagations, second),
    both on one compiled model."""
    view = engine.compile_model(_model(text))
    outcome = solve(view)
    answers = (outcome.status, outcome.stats.decisions, outcome.stats.propagations, outcome.assignment)
    if outcome.is_sat:
        report = find_second(view, decode(view.compiled.model, outcome.assignment))
        answers += (report.ambiguous, report.stats.decisions, report.stats.propagations, report.second)
    return answers


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "corpus.jsonl"


def _corpus_programs() -> list[str]:
    """The programs of the benchmark corpus, one per task: 3x3 to 6x6."""
    tasks, _ = load_dataset(CORPUS)
    return [render_dsl(task.instance).text for task in tasks]


@pytest.fixture
def empty_group_table():
    """The process-wide table of group runs, emptied before and after."""
    engine._GROUP_TABLE.clear()
    yield engine._GROUP_TABLE
    engine._GROUP_TABLE.clear()


class TestGroupTable:
    """One table per process holds the runs of every all-different group,
    keyed by the group's masks alone. A hit replays the run it recorded: the
    same masks, dirty ids, propagation count, failure and entailed flag as
    running the group, also at a contradiction, in any model."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 255), min_size=2, max_size=6))
    def test_hit_replays_the_run(self, masks):
        engine._GROUP_TABLE.clear()
        compiled = engine.CompiledModel(flat_model([(0, 8)] * len(masks), groups=[range(len(masks))]))
        cold = _group_run(compiled, masks)
        assert len(engine._GROUP_TABLE) == 1
        assert _group_run(compiled, masks) == cold
        assert len(engine._GROUP_TABLE) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 255), min_size=2, max_size=6), st.integers(-20, 20))
    def test_a_run_in_another_model_is_a_hit(self, masks, low):
        # the second model has one more var first, lists the group's vars in
        # descending id order and gives them another base
        g = len(masks)
        first = engine.CompiledModel(flat_model([(0, 8)] * g, groups=[range(g)]))
        second = engine.CompiledModel(
            flat_model([(0, 3)] + [(low, low + 8)] * g, groups=[range(g, 0, -1)])
        )
        engine._GROUP_TABLE.clear()
        cold = _group_run(second, masks)
        engine._GROUP_TABLE.clear()
        _group_run(first, masks)
        assert _group_run(second, masks) == cold
        assert len(engine._GROUP_TABLE) == 1

    @pytest.mark.parametrize("seed,n,f", [(1, 3, 3), (3, 4, 4), (5, 5, 3)])
    def test_shared_model_checks_match_fresh_ones(self, seed, n, f, empty_group_table):
        # every uniqueness check of the generator, on its one compiled model,
        # and again on a model compiled for that check alone, from an empty
        # table
        from logicforge.bench import puzzle

        checks = []

        def recording(view, first, budget=None):
            report = find_second(view, first, budget)
            checks.append((view, first, report))
            return report

        with mock.patch.object(puzzle, "find_second", recording):
            generate_puzzle(seed, n, f)
        assert len(checks) > 1
        shared = checks[0][0].compiled
        assert all(view.compiled is shared for view, _, _ in checks)
        shared_entries = len(empty_group_table)
        fresh_entries = 0
        for view, first, report in checks:
            empty_group_table.clear()
            fresh = engine.CompiledModel(shared.model)
            again = find_second(fresh.view(view.active), first)
            assert (again.ambiguous, again.stats.decisions, again.stats.propagations, again.second) == (
                report.ambiguous,
                report.stats.decisions,
                report.stats.propagations,
                report.second,
            )
            fresh_entries += len(empty_group_table)
        # later checks hit what earlier ones recorded
        assert shared_entries < fresh_entries

    @pytest.mark.parametrize("source", ["generated", "corpus"])
    def test_a_warm_table_answers_as_an_empty_one(self, source, empty_group_table):
        if source == "generated":
            shapes = [(1, 3, 3), (3, 4, 4), (5, 5, 3)]
            texts = [render_dsl(generate_puzzle(seed, n, f)).text for seed, n, f in shapes]
            texts.append(_off_by_one(texts[0], 3))
            others = [render_dsl(generate_puzzle(seed, 4, 4)).text for seed in (11, 12)]
        else:
            programs = _corpus_programs()
            texts, others = programs[::10], programs[5::10]
        cold = []
        for text in texts:
            empty_group_table.clear()
            cold.append(_answers(text))
        empty_group_table.clear()
        for text in others:
            _answers(text)
        assert empty_group_table
        assert [_answers(text) for text in texts] == cold

    def test_threads_share_the_table(self, empty_group_table):
        texts = _corpus_programs()[::15]
        serial = [_answers(text) for text in texts]
        empty_group_table.clear()

        def answer_all(start: int) -> list[tuple]:
            # each thread solves every task, from a task of its own
            order = [(start + i) % len(texts) for i in range(len(texts))]
            return [(k, _answers(texts[k])) for k in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(answer_all, start) for start in range(8)]
                results = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert sorted(k for k, _ in result) == list(range(len(texts)))
            for k, answers in result:
                assert answers == serial[k]

    def test_a_group_that_names_a_var_twice_is_not_tabled(self, empty_group_table):
        # alldiff(x, y, z) from these masks removes x's value from y and
        # fails; alldiff(x, x, y) fails with no removal
        masks = [1, 1, 6]
        distinct = engine.CompiledModel(flat_model([(0, 3)] * 3, groups=[range(3)]))
        twice = engine.CompiledModel(flat_model([(0, 3)] * 2, groups=[(0, 0, 1)]))
        assert _group_run(distinct, masks)[2:] == (1, None)
        assert _group_run(twice, masks)[2:] == (0, None)

    def test_a_wide_group_stores_nothing(self, empty_group_table):
        assert solve(_model(_wide_program(1000))).is_sat
        assert not empty_group_table

    def test_the_table_stays_within_its_cap(self, empty_group_table):
        # every solution of 6 vars taking 6 distinct values: 720 of them
        model = flat_model([(0, 6)] * 6, groups=[range(6)])

        def enumerate_all():
            view = engine.compile_model(model)
            search = engine._Search(view, Budget())
            solutions = list(search.solutions(*search.root(view)))
            return len(solutions), search.stats.decisions, search.stats.propagations

        full = enumerate_all()
        assert full[0] == 720
        assert 16 < len(empty_group_table) <= engine._GROUP_TABLE_CAP

        class Sizes(dict):
            largest = stored = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.stored += 1
                self.largest = max(self.largest, len(self))

        table = Sizes()
        with mock.patch.object(engine, "_GROUP_TABLE", table):
            with mock.patch.object(engine, "_GROUP_TABLE_CAP", 16):
                counts = enumerate_all()
        assert table.largest == 16 < table.stored
        assert counts == full


def _wide_program(n: int) -> str:
    """Three rows, each a distinct value of range(0, n), one of them 1."""
    return (
        f"class E:\n    v: Unique[Domain[int, range(0, {n})]]\n"
        "class S:\n    items: list[E, 3]\n"
        "def f(s: S) -> None:\n    a = nondet(s.items)\n    assert a.v == 1\n"
    )


def _mask_loop_group_pass(search, doms: list[int], dirty: set[int], group: tuple[int, ...]) -> bool:
    """``_group_pass`` as it tested each var against a Hall interval by a
    mask (``doms[v] & ~interval``): the reference for its bit tests."""
    for v in group:
        val = doms[v]
        if not val & (val - 1):
            for w in group:
                if w != v and doms[w] & val:
                    search._remove(doms, w, val, dirty)
    union = 0
    for v in group:
        union |= doms[v]
    bits = engine._bits(union)
    if len(bits) < len(group):
        raise engine.Contradiction()
    for ai, low in enumerate(bits):
        below = (1 << low) - 1
        for bi in range(ai, min(ai + len(group) - 1, len(bits))):
            interval = ((2 << bits[bi]) - 1) ^ below
            beyond = ~interval
            outside = [v for v in group if doms[v] & beyond]
            capacity = bi - ai + 1
            inside = len(group) - len(outside)
            if inside > capacity:
                raise engine.Contradiction()
            if inside == capacity:
                for v in outside:
                    hit = doms[v] & interval
                    if hit:
                        search._remove(doms, v, hit, dirty)
    for v in group:
        if doms[v] & (doms[v] - 1):
            return False
    return True


def _shift_loop_bits(mask: int) -> list[int]:
    """``_bits`` as it walked the mask one byte at a time by shifting it,
    quadratic in the mask width: the reference for its positions."""
    out: list[int] = []
    base = 0
    while mask:
        out += [base + i for i in engine._BYTE_BITS[mask & 255]]
        mask >>= 8
        base += 8
    return out


def _sparse_masks(width: int):
    """Masks of 1-4 bits below ``width``, or any non-empty mask below it."""
    positions = st.sets(st.integers(0, width - 1), min_size=1, max_size=4)
    sparse = positions.map(lambda bits: sum(1 << b for b in bits))
    return st.one_of(sparse, st.integers(1, 2**width - 1))


class TestWideDomains:
    """A budget holds on wide domains: the Hall-interval pass of a group
    visits only intervals of fewer values than the group has vars and tests
    each var by its lowest and highest value, so its cost does not grow with
    the width of the masks, and the deadline is read inside propagation and
    inside a group pass as well as at decisions."""

    SLACK = 1.0  # seconds a solve may overrun its time budget

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5, 10**6])
    def test_solve_returns_within_the_budget(self, n):
        model = _model(_wide_program(n))
        budget = Budget(max_time=2.0)
        start = time.perf_counter()
        try:
            outcome = solve(model, budget)
        except BudgetExceeded:
            outcome = None
        assert time.perf_counter() - start <= budget.max_time + self.SLACK
        if n < 10**5 or outcome is not None:  # the widest may run out of time
            assert outcome is not None and outcome.is_sat
            assert 1 in [outcome.assignment[v.id] for v in model.vars]

    @pytest.mark.parametrize("n", [10**3, 10**6])
    def test_find_second_returns_within_the_budget(self, n):
        # a search that starts from the empty view's root fixpoint computes
        # it under its own deadline: the groups' pass over the declared
        # domains included
        model = _model(_wide_program(n))
        first = decode(model, dict(enumerate([1, 2, 3, 0])))  # v = 1, 2, 3
        budget = Budget(max_time=2.0)
        start = time.perf_counter()
        try:
            report = find_second(model, first, budget)
        except BudgetExceeded:
            report = None
        assert time.perf_counter() - start <= budget.max_time + self.SLACK
        if n == 10**3:
            assert report is not None and report.ambiguous

    def test_a_wide_domain_compiles_without_listing_its_values(self, zebra_model):
        # compilation runs before any budget starts, so it must not grow
        # with the number of values: each declared mask is one run of bits
        model = _model(_wide_program(10**6))
        start = time.perf_counter()
        compiled = engine.CompiledModel(model)
        assert time.perf_counter() - start < self.SLACK
        assert compiled.declared == [(1 << 10**6) - 1] * 3 + [0b111]
        for model in (zebra_model, _model(_wide_program(1000))):
            compiled = engine.CompiledModel(model)
            assert compiled.declared == [compiled.mask(i, model.domain_of(i)) for i in range(model.n_ids)]

    def test_verify_does_not_list_a_wide_domain(self):
        # verify runs after the solve clock stops, so testing each value
        # against its declared domain must not list the domain's values
        model = _model(_wide_program(10**6))
        assignment = dict(enumerate([1, 2, 3, 0]))
        start = time.perf_counter()
        assert verify(model, assignment)
        del assignment[0]
        assert not verify(model, assignment)
        assert time.perf_counter() - start < 0.02

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(0, 2**64), st.integers(0, 2**4000)))
    @example(1 << 3000)
    def test_bits_match_the_shift_loop(self, mask):
        assert list(engine._bits(mask)) == _shift_loop_bits(mask)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(1, 8), st.integers(9, 80)).flatmap(
            lambda w: st.lists(_sparse_masks(w), min_size=1, max_size=6)
        )
    )
    @example([3, 1, 10, 12])  # a var pruned at one interval start, tested at the next
    def test_bit_tests_match_the_mask_loop(self, masks):
        group = tuple(range(len(masks)))
        search = engine._Search(engine.compile_model(flat_model([(0, 1)])), Budget())
        outcomes = []
        for group_pass in (engine._Search._group_pass, _mask_loop_group_pass):
            doms, dirty = list(masks), set()
            before = search.stats.propagations
            try:
                entailed = group_pass(search, doms, dirty, group)
            except engine.Contradiction:
                entailed = None
            outcomes.append((doms, sorted(dirty), search.stats.propagations - before, entailed))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("hi", [8, 1000])
    def test_the_deadline_is_read_inside_a_group_pass(self, hi, empty_group_table):
        # one group is the only item: with the deadline read only between
        # items, a spent budget would let its one pass run to the end
        compiled = engine.CompiledModel(flat_model([(0, hi)] * 3, groups=[range(3)]))
        with mock.patch.object(engine, "_CLOCK_EVERY", 2):
            search = engine._Search(compiled.view(()), Budget(max_time=0.0))
            with pytest.raises(BudgetExceeded):
                search.propagate(compiled.initial_state(), search.off, search.on)
        assert not empty_group_table  # a run cut short is not recorded

    def test_solve_grows_linearly_in_the_range(self):
        lines = [lines_executed(solve, _model(_wide_program(n)))[0] for n in (250, 500, 1000)]
        assert lines[0] < lines[1] < lines[2]
        assert lines[2] - lines[1] <= 2.2 * (lines[1] - lines[0]), lines

    def test_the_deadline_is_read_inside_propagation(self, zebra_model):
        # the root propagation runs more items than one: with the deadline
        # read after each, a spent budget stops it before any decision
        with mock.patch.object(engine, "_CLOCK_EVERY", 1):
            with pytest.raises(BudgetExceeded) as raised:
                solve(zebra_model, Budget(max_time=0.0))
        assert raised.value.decisions == 0
