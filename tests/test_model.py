"""Lowering, model validation, dumping, and decoding."""

import dataclasses
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicforge.agent import check_solution
from logicforge.bench.dataset import load_dataset
from logicforge.bench.render import render_constraints, render_data_structure, render_dsl
from logicforge.errors import CapExceeded, DecodeError, InternalError, SemanticError
from logicforge.frontend import check
from logicforge.frontend.ast import Assert, Assign, Assume
from logicforge.model import (
    CBool,
    CCmp,
    CElem,
    CLit,
    CVar,
    decode,
    dump_model,
    encode,
    lower,
    validate_model,
)
from logicforge.model.constraints import IntRange
from logicforge.solver import brute_force

from conftest import compile_source
from strategies import programs

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "corpus.jsonl"
CORPUS_LOWERED_SHA256 = "f603bdcdec8128f037244f10173b52ad4a5475de1c438766c38e7994b91ed048"
CORPUS_RENDERED_SHA256 = "c83b0094a6658d0c75fd71fa39f0f3c6c9da4fd11ed780fadf2eb2b21f56888e"

MINIMAL_SOURCE = (
    "class C:\n    f: Domain[int, range(1, 2)]\n"
    "def v(x: C) -> None:\n    assume(x.f == 1)\n"
)

CLUE1_SOURCE = (
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


class TestLower:
    def test_worked_example_var_and_group_counts(self, zebra_model):
        # 4 instances x 5 scalar fields
        assert len(zebra_model.vars) == 20
        # one alldiff group per Unique field, each spanning the 4 instances
        assert len(zebra_model.alldiff_groups) == 5
        assert all(len(g) == 4 for g in zebra_model.alldiff_groups)
        # one selector per nondet call site
        assert len(zebra_model.selectors) == 12
        validate_model(zebra_model)

    def test_nondet_assume_assert_lowering(self):
        _, model = compile_source(CLUE1_SOURCE)
        assert len(model.selectors) == 1
        sel = model.selectors[0]
        assert sel.list_len == 3
        assert sel.element_class == "House"
        assert len(model.constraints) == 2
        name_cmp, phone_cmp = model.constraints
        # both constraints select through the same selector
        for cmp_, field_idx, code in ((name_cmp, 0, 1), (phone_cmp, 1, 1)):
            assert isinstance(cmp_, CCmp) and cmp_.op == "=="
            assert isinstance(cmp_.left, CElem)
            assert cmp_.left.selector == sel.id
            assert cmp_.right == CLit(code)  # "Bob" and "xiaomi mi 11" both code 1

    def test_minimal_model(self):
        from logicforge.model import CVar

        _, model = compile_source(MINIMAL_SOURCE)
        assert len(model.vars) == 1
        assert model.vars[0].domain == IntRange(1, 2)
        assert model.constraints == [CCmp("==", CVar(0), CLit(1))]

    def test_var_names_follow_paths(self, zebra_model):
        assert zebra_model.vars[0].name == "houses[0].house_number"
        assert zebra_model.vars[6].name == "houses[1].name"

    def test_lowering_is_deterministic(self, zebra_program):
        a, b = lower(zebra_program), lower(zebra_program)
        assert a.constraints == b.constraints
        assert a.vars == b.vars
        assert a.alldiff_groups == b.alldiff_groups

    def test_oversized_alldiff_group_lowers_cleanly(self):
        # group of 3 over a 2-value domain: lowering succeeds, solver says unsat
        src = (
            "class E:\n    f: Unique[Domain[int, range(0, 2)]]\n"
            "class S:\n    items: list[E, 3]\n"
            "def v(s: S) -> None:\n    assume(s.items[0].f == 0)\n"
        )
        _, model = compile_source(src)
        validate_model(model)
        assert len(model.alldiff_groups[0]) == 3


_FORM_SOURCE = (
    'class C:\n    a: Domain[int, range(0, 3)]\n    b: Domain[int, range(0, 3)]\n'
    '    c: Domain[str, "p", "q"]\n'
    "def v(x: C) -> None:\n"
)


class TestComparisonForm:
    """Every condition lowers to ``and``/``or`` over ``==``, ``!=``, ``<`` and
    ``<=``, with a lone literal of ``==`` and ``!=`` on the right."""

    @pytest.mark.parametrize(
        "written,lowered",
        [
            ("x.a > x.b", "(< v1 v0)"),
            ("x.a >= 2", "(<= 2 v0)"),
            ("2 < x.a", "(< 2 v0)"),
            ("2 == x.a", "(== v0 2)"),
            ("2 != x.a + 1", "(!= (+ v0 1) 2)"),
            ("1 == 1", "(== 1 1)"),
            ("not x.a < x.b", "(<= v1 v0)"),
            ("not x.a <= 2", "(< 2 v0)"),
            ("not x.a > x.b", "(<= v0 v1)"),
            ("not x.a >= 2", "(< v0 2)"),
            ("not not x.a == 1", "(== v0 1)"),
            ('not x.c != "q"', "(== v2 1)"),
            ('not "q" == x.c', "(!= v2 1)"),
            ("not (x.a == 1 and x.b != 2)", "(or (!= v0 1) (== v1 2))"),
            ("not (x.a > 1 or not x.b >= 1)", "(and (<= v0 1) (<= 1 v1))"),
        ],
    )
    def test_condition_lowers_to_one_form(self, written, lowered):
        _, model = compile_source(_FORM_SOURCE + f"    assume({written})\n")
        assert dump_model(model).splitlines()[-1] == "constraint " + lowered

    def test_not_on_a_bound_local_negates_its_expression(self):
        _, model = compile_source(
            _FORM_SOURCE
            + "    p = x.a < x.b\n    assume(not p)\n"
            + '    q = not (p or x.c == "p")\n    assert not q\n'
        )
        assert dump_model(model).splitlines()[-2:] == [
            "constraint (<= v1 v0)",
            "constraint (or (< v0 v1) (== v2 0))",
        ]

    @pytest.mark.parametrize("op", [">", ">=", "<>"])
    def test_validation_rejects_other_operators(self, op):
        _, model = compile_source(MINIMAL_SOURCE)
        model.constraints = [CBool("or", (CCmp(op, CVar(0), CLit(1)),))]
        with pytest.raises(InternalError, match="comparison operator"):
            validate_model(model)


class TestAssertAssume:
    @settings(max_examples=30, deadline=None)
    @given(programs())
    def test_assert_and_assume_lower_alike(self, program):
        # turning every assert into an assume, or every assume into an
        # assert, leaves the model as it was
        fn = program.functions[0]
        original = dump_model(lower(check(program)))
        for old, new in ((Assert, Assume), (Assume, Assert)):
            body = tuple(new(s.expr, s.pos) if isinstance(s, old) else s for s in fn.body)
            swapped = dataclasses.replace(program, functions=(dataclasses.replace(fn, body=body),))
            assert dump_model(lower(check(swapped))) == original

    def test_one_constraint_per_statement_in_program_order(self):
        # an assert and an assume each add one constraint where they stand;
        # a repeated condition is kept, and an assignment adds none
        src = (
            "class C:\n    f: Domain[int, range(1, 4)]\n"
            "def v(x: C) -> None:\n"
            "    assert x.f != 3\n"
            "    y = x.f\n"
            "    assume(y == 1)\n"
            "    assert x.f != 3\n"
        )
        _, model = compile_source(src)
        assert model.constraints == [
            CCmp("!=", CVar(0), CLit(3)),
            CCmp("==", CVar(0), CLit(1)),
            CCmp("!=", CVar(0), CLit(3)),
        ]


class TestDecode:
    def test_rows_ordered_by_position_field(self, zebra_model):
        # hand-build an assignment with instances stored right-to-left
        assignment = {}
        layout = zebra_model.layout
        perm = [3, 2, 1, 0]  # slot i holds house perm[i]+1
        truth_by_pos = {
            1: ("Alice", "engineer", "romance", "google pixel 6"),
            2: ("Peter", "artist", "fantasy", "samsung galaxy s21"),
            3: ("Eric", "teacher", "science fiction", "iphone 13"),
            4: ("Arnold", "doctor", "mystery", "oneplus 9"),
        }
        for slot, row in enumerate(layout.rows):
            pos = perm[slot] + 1
            name, occupation, book, phone = truth_by_pos[pos]
            values = {
                "house_number": pos,
                "name": name,
                "occupation": occupation,
                "book": book,
                "phone": phone,
            }
            for col, vid in row.fields.items():
                value = values[col]
                domain = zebra_model.vars[vid].domain
                assignment[vid] = (
                    value if isinstance(value, int) else domain.values.index(value)
                )
        table = decode(zebra_model, assignment)
        assert [r["house_number"] for r in table.rows] == [1, 2, 3, 4]
        assert table.rows[0]["name"] == "Alice"
        assert table.rows[3]["phone"] == "oneplus 9"

    def test_single_var_decode(self):
        _, model = compile_source(MINIMAL_SOURCE)
        table = decode(model, {0: 1})
        assert len(table.rows) == 1
        assert table.rows[0] == {"f": 1}

    def test_missing_var_raises(self):
        _, model = compile_source(MINIMAL_SOURCE)
        with pytest.raises(DecodeError):
            decode(model, {})

    def test_encode_round_trip_on_worked_example(self, zebra_model):
        from logicforge.solver import solve

        table = decode(zebra_model, solve(zebra_model).assignment)
        assert decode(zebra_model, encode(zebra_model, table)) == table

    @settings(max_examples=30, deadline=None)
    @given(programs(), st.randoms(use_true_random=False))
    def test_decode_encode_bijection(self, program, rnd):
        from logicforge.errors import SemanticError

        try:
            checked = check(program)
        except SemanticError:
            return
        model = lower(checked)
        validate_model(model)
        # random canonical-slot-order assignment
        assignment = {v.id: rnd.choice(list(v.values())) for v in model.vars}
        table = decode(model, assignment)
        if model.layout.position_field is None:
            # no sorting: decode is a bijection on raw assignments
            assert encode(model, table) == assignment
        else:
            # sorting loses slot order; the canonical form round-trips
            canonical = encode(model, table)
            assert decode(model, canonical) == table


class TestDump:
    def test_golden_dump(self):
        _, model = compile_source(CLUE1_SOURCE)
        expected = (
            "var 0 houses[0].name : {Alice, Bob, Carol}\n"
            "var 1 houses[0].phone : {iphone 13, xiaomi mi 11, oneplus 9}\n"
            "var 2 houses[1].name : {Alice, Bob, Carol}\n"
            "var 3 houses[1].phone : {iphone 13, xiaomi mi 11, oneplus 9}\n"
            "var 4 houses[2].name : {Alice, Bob, Carol}\n"
            "var 5 houses[2].phone : {iphone 13, xiaomi mi 11, oneplus 9}\n"
            "selector 6 choice0 : index[0, 3) of House\n"
            "alldiff 0 2 4\n"
            "alldiff 1 3 5\n"
            "constraint (== (elem s6 [v0 v2 v4]) 1)\n"
            "constraint (== (elem s6 [v1 v3 v5]) 1)\n"
        )
        assert dump_model(model) == expected

    def test_corpus_lowers_to_the_golden_digest(self):
        # pins lowering byte for byte over the benchmark corpus, 3x3 to 6x6;
        # a change that alters lowering on purpose restates the digest
        tasks, _ = load_dataset(CORPUS)
        dumps = "".join(
            dump_model(compile_source(render_dsl(task.instance).text)[1]) for task in tasks
        )
        assert len(tasks) == 106
        assert hashlib.sha256(dumps.encode()).hexdigest() == CORPUS_LOWERED_SHA256

    def test_corpus_renders_to_the_golden_digest(self):
        # pins the oracle formalizer's DSL text and origins byte for byte over
        # the benchmark corpus, with the program of no clues
        tasks, _ = load_dataset(CORPUS)
        sources = [render_constraints(())]
        for task in tasks:
            inst = task.instance
            sources.append(render_dsl(inst))
            sources.append(render_data_structure(inst.features, inst.n_entities))
            sources.append(render_constraints(inst.clues))
        digest = hashlib.sha256()
        for source in sources:
            digest.update(f"{source.origin}\n{source.text}\0".encode())
        assert len(tasks) == 106
        assert digest.hexdigest() == CORPUS_RENDERED_SHA256


class TestFuzzLowering:
    @settings(max_examples=60, deadline=None)
    @given(programs())
    def test_checked_programs_lower_cleanly(self, program):
        from logicforge.errors import SemanticError

        try:
            checked = check(program)
        except SemanticError:
            return  # rejected inputs are out of scope here
        model = lower(checked)
        validate_model(model)
        scalar_fields = len(program.classes[0].fields)
        instances = program.classes[1].fields[0].list_len
        assert len(model.vars) == scalar_fields * instances
        n_nondet = sum(
            1
            for stmt in program.functions[0].body
            if isinstance(stmt, Assign) and type(stmt.value).__name__ == "Nondet"
        )
        assert len(model.selectors) == n_nondet

    @settings(max_examples=60, deadline=None)
    @given(programs(max_entities=3, max_fields=2, max_domain=3))
    def test_the_model_holds_what_the_source_accepts(self, program):
        # the source interpreter reads the program as written, the oracle
        # reads the lowered model: over every table the domains and groups
        # allow, they accept the same ones. Rows stay in slot order, since a
        # program may index them.
        try:
            checked = check(program)
        except SemanticError:
            return
        model = lower(checked)
        slots = dataclasses.replace(model.layout, position_field=None)
        held_model = dataclasses.replace(model, layout=slots)
        try:
            tables = brute_force(dataclasses.replace(held_model, constraints=[]), cap=20_000)
            held = {tuple(sorted(a.items())) for a in brute_force(held_model, cap=20_000)}
        except CapExceeded:
            return
        for assignment in tables:
            table = decode(held_model, assignment)
            assert check_solution(checked, table) == (tuple(sorted(assignment.items())) in held)
