"""Value semantics of the IR node classes, and no stage mutating the IR.

The DSL AST (``frontend.ast``), the checker's type terms and
``CheckedProgram`` (``frontend.check``) and the model IR's value classes
(``model.constraints``) are slotted dataclasses. They are hashable, compare
by content with ``pos`` left out of equality, hash and repr, and are never
mutated after construction. Nothing enforces the last at run time, so
``TestNoStageMutates`` checks it on every stage that reads the IR.
"""

import copy
import dataclasses
import importlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicforge.agent import check_solution
from logicforge.bench import render
from logicforge.bench.puzzle import generate_puzzle
from logicforge.cemit import emit
from logicforge.errors import SemanticError
from logicforge.frontend import SourceText, check, parse, pretty
from logicforge.frontend.ast import (
    INT,
    STR,
    Abs,
    Assert,
    Assign,
    Assume,
    Binary,
    BoolOp,
    ClassDecl,
    Compare,
    DslProgram,
    EnumValues,
    FieldAccess,
    FieldDecl,
    FuncDecl,
    Index,
    IntLit,
    IntRange,
    LocalRef,
    Nondet,
    Not,
    Pos,
    StrLit,
)
from logicforge.frontend.check import (
    CheckedProgram,
    TBool,
    TInt,
    TList,
    TObj,
    TStrField,
    TStrLit,
)
from logicforge.model import decode, lower
from logicforge.model.constraints import (
    CAbs,
    CBin,
    CBool,
    CCmp,
    CElem,
    CLit,
    ConstraintModel,
    CVar,
    InstanceLayout,
    Scope,
    SelectorVar,
    Var,
)
from logicforge.solver.engine import Budget, compile_model, find_second, solve

from strategies import programs, scalar_programs


def positions(node) -> list[tuple[str, object]]:
    """Every ``pos`` under ``node``, depth first: the part of a tree that
    equality does not see."""
    found = []

    def visit(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                visit(item)
        elif isinstance(value, dict):
            for item in value.values():
                visit(item)
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                child = getattr(value, f.name)
                if f.name == "pos":
                    found.append((type(value).__name__, child))
                else:
                    visit(child)

    visit(node)
    return found


def _row(pos: Pos) -> FieldAccess:
    return FieldAccess(LocalRef("s", pos), "f", pos)


def _program(pos: Pos) -> DslProgram:
    field = FieldDecl("f", INT, False, IntRange(1, 3), None, pos)
    body = (Assume(Compare(">=", _row(pos), IntLit(1, pos), pos), pos),)
    return DslProgram((ClassDecl("S", (field,), pos),), (FuncDecl("v", "s", "S", body, pos),))


_ELEM = CElem(2, (0, 1))

# one value of each class, built with every ``pos`` set to the argument
SAMPLES = {
    Pos: lambda pos: Pos(3, 5),
    IntRange: lambda pos: IntRange(1, 5),
    EnumValues: lambda pos: EnumValues(("red", "green")),
    FieldDecl: lambda pos: FieldDecl("f", STR, True, EnumValues(("a", "b")), None, pos),
    ClassDecl: lambda pos: _program(pos).classes[0],
    IntLit: lambda pos: IntLit(1, pos),
    StrLit: lambda pos: StrLit("a", pos),
    LocalRef: lambda pos: LocalRef("s", pos),
    FieldAccess: _row,
    Index: lambda pos: Index(FieldAccess(LocalRef("s", pos), "items", pos), 0, pos),
    Nondet: lambda pos: Nondet(FieldAccess(LocalRef("s", pos), "items", pos), pos),
    Abs: lambda pos: Abs(_row(pos), pos),
    Binary: lambda pos: Binary("-", _row(pos), IntLit(1, pos), pos),
    Compare: lambda pos: Compare("==", _row(pos), IntLit(2, pos), pos),
    BoolOp: lambda pos: BoolOp("or", (_row(pos), Not(_row(pos), pos)), pos),
    Not: lambda pos: Not(_row(pos), pos),
    Assign: lambda pos: Assign("x", Nondet(LocalRef("s", pos), pos), pos),
    Assume: lambda pos: Assume(Compare("<", _row(pos), IntLit(3, pos), pos), pos),
    Assert: lambda pos: Assert(Compare("!=", _row(pos), IntLit(3, pos), pos), pos),
    FuncDecl: lambda pos: _program(pos).functions[0],
    DslProgram: _program,
    TInt: lambda pos: TInt(),
    TBool: lambda pos: TBool(),
    TStrField: lambda pos: TStrField("S", "f"),
    TStrLit: lambda pos: TStrLit("a"),
    TObj: lambda pos: TObj("S"),
    TList: lambda pos: TList("S", 3),
    CheckedProgram: lambda pos: check(_program(pos)),
    Var: lambda pos: Var(0, "houses[0].f", EnumValues(("a", "b"))),
    SelectorVar: lambda pos: SelectorVar(2, 2, "House", "x"),
    CLit: lambda pos: CLit(1),
    CVar: lambda pos: CVar(0),
    CElem: lambda pos: _ELEM,
    CBin: lambda pos: CBin("-", _ELEM, CLit(1)),
    CAbs: lambda pos: CAbs(CBin("-", CVar(0), CVar(1))),
    CCmp: lambda pos: CCmp("==", _ELEM, CLit(1)),
    CBool: lambda pos: CBool("or", (CCmp("<", CVar(0), CVar(1)), CCmp("==", _ELEM, CLit(0)))),
    Scope: lambda pos: Scope(((2, (0, 1)),), (0,)),
    InstanceLayout: lambda pos: InstanceLayout(({"f": 0}, {"f": 1}), ("f",), None),
}

# their fields hold dicts, so hashing one raises TypeError
UNHASHABLE = (CheckedProgram, InstanceLayout)


def _round_trips():
    yield "copy", copy.copy
    yield "deepcopy", copy.deepcopy
    yield "replace", dataclasses.replace
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle{protocol}", lambda v, p=protocol: pickle.loads(pickle.dumps(v, p))


class TestValueSemantics:
    def test_every_value_class_is_sampled(self):
        # ConstraintModel is the one mutable class: its lists are built once
        # per model, not once per node. The module ``frontend.check`` is
        # looked up by name, as the function ``check`` shadows it.
        names = ("frontend.ast", "frontend.check", "model.constraints")
        modules = [importlib.import_module(f"logicforge.{name}") for name in names]
        value_classes = {
            cls
            for module in modules
            for cls in vars(module).values()
            if isinstance(cls, type)
            and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__
            and cls is not ConstraintModel
        }
        assert value_classes == set(SAMPLES)

    @pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
    def test_value_semantics(self, cls):
        a, b = SAMPLES[cls](Pos(1, 4)), SAMPLES[cls](Pos(7, 2))
        assert type(a) is cls
        assert "__slots__" in vars(cls) and not hasattr(a, "__dict__")
        if positions(a):
            assert positions(a) != positions(b)
        # equality ignores pos
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
            assert {a: "a"}[b] == "a"
        assert "pos=" not in repr(a)
        assert repr(a) == repr(b)
        for name, round_trip in _round_trips():
            copied = round_trip(a)
            assert type(copied) is cls, name
            assert copied == a, name
            assert positions(copied) == positions(a), name


BUDGET = Budget(max_decisions=200_000, max_time=10.0)


def _assert_unmutated(source: SourceText) -> None:
    """Snapshot the IR of ``source`` at each stage that builds it, run every
    stage that reads it, and compare."""
    program = parse(source)
    before, where = copy.deepcopy(program), positions(program)
    checked = check(program, source.origin)
    checked_before, checked_where = copy.deepcopy(checked), positions(checked)
    model = lower(checked)
    model_before = copy.deepcopy(model)
    view = compile_model(model)
    outcome = solve(view, BUDGET)
    if outcome.is_sat:
        table = decode(model, outcome.assignment)
        find_second(view, table, BUDGET.after(outcome.stats))
        assert check_solution(checked, table)
    pretty(program)
    emit(checked)
    assert program == before
    assert positions(program) == where
    assert checked == checked_before
    assert positions(checked) == checked_where
    assert model == model_before


class TestNoStageMutates:
    def test_worked_example(self, zebra_source):
        _assert_unmutated(zebra_source)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(programs(), scalar_programs()))
    def test_random_programs(self, program):
        # printed and parsed again, so that every node carries a real position
        try:
            check(program)
        except SemanticError:
            return
        _assert_unmutated(SourceText(pretty(program), "<sample>"))

    def test_generator_leaves_its_shared_subtrees_alone(self):
        shared = (render._ANY_ROW, render._ONE)
        before, where = copy.deepcopy(shared), positions(shared)
        generate_puzzle(5, 3, 3)
        assert shared == before
        assert positions(shared) == where
