"""Value semantics of the record classes, and no stage mutating the IR.

Every value class of the package is a ``logicforge.records.Record``: it
compares equal only to a record of its own class with equal fields, hashes
as the tuple of those fields, and prints as ``Name(field=value, ...)``, all
over the parameters of its ``__init__``. ``pos``, ``DslProgram.text`` and
``ModelView.parent`` are left out of equality, hash and repr. The DSL AST
(``frontend.ast``), the checker's type terms and ``CheckedProgram``
(``frontend.check``) and the model IR's value classes (``model.constraints``)
are slotted and never mutated after construction. Nothing enforces the last
at run time, so ``TestNoStageMutates`` checks it on every stage that reads
the IR. ``TestValueSemantics`` pins each class's repr to the one
``tests/data/record_reprs.json`` holds, as ``dataclasses`` printed it.
"""

import copy
import importlib
import json
import pickle
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logicforge
from logicforge.agent import check_solution
from logicforge.agent.llm import LlmClientConfig, Prompts
from logicforge.agent.pipeline import ExpectedFormat, PipelineConfig, PipelineResult, PipelineStatus
from logicforge.bench import render
from logicforge.bench.dataset import PuzzleTask
from logicforge.bench.puzzle import Clue, Feature, PuzzleInstance, generate_puzzle
from logicforge.bench.runner import GenSpec
from logicforge.bench.score import EvalReport, SplitScore, TaskResult
from logicforge.cemit import emit
from logicforge.cemit.emitter import CHarness
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
    Node,
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
from logicforge.model.decode import SolutionTable
from logicforge.model.lower import _SelObj
from logicforge.records import Frozen, Record
from logicforge.solver.engine import (
    AmbiguityReport,
    Budget,
    ModelView,
    SolveOutcome,
    SolveStats,
    Status,
    compile_model,
    find_second,
    solve,
)

from conftest import DATA_DIR
from record_tools import replace
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
        elif isinstance(value, Record):
            for name in value._fields:
                child = getattr(value, name)
                if name == "pos" and isinstance(value, Node):
                    found.append((type(value).__name__, child))
                else:
                    visit(child)

    visit(node)
    return found


def _row(pos: int) -> FieldAccess:
    return FieldAccess(LocalRef("s", pos), "f", pos)


def _program(pos: int) -> DslProgram:
    field = FieldDecl("f", INT, False, IntRange(1, 3), None, pos)
    body = (Assume(Compare(">=", _row(pos), IntLit(1, pos), pos), pos),)
    classes, functions = (ClassDecl("S", (field,), pos),), (FuncDecl("v", "s", "S", body, pos),)
    return DslProgram(classes, functions, f"# parsed at {pos}\n")


_ELEM = CElem(2, (0, 1))
_TABLE = SolutionTable(("house", "name"), ({"house": 1, "name": "alice"},), "house")
_FORMAT = ExpectedFormat(("house", "name"), "house")
_CLUE = Clue("same_person", "name", "alice", "book", "mystery")
_RESULT = TaskResult("t1", "1x1", "Solved", _TABLE, _TABLE, 1, 0.5, (("solve", "sat"),))

# one value of each class, built with every ``pos`` set to the argument (and
# a ``ModelView``'s parent and a ``DslProgram``'s text that vary with it)
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
    ConstraintModel: lambda pos: ConstraintModel(
        [Var(0, "x.a", IntRange(1, 3))],
        [],
        [(0,)],
        [CCmp("==", CVar(0), CLit(2))],
        [Scope((), (0,))],
        InstanceLayout(({"a": 0},), ("a",), None),
    ),
    _SelObj: lambda pos: _SelObj(2, ({"f": 0}, {"f": 1})),
    SourceText: lambda pos: SourceText("x = 1\n", "<sample>"),
    LlmClientConfig: lambda pos: LlmClientConfig("http://localhost:1/v1", "m", "k", 5.0),
    Prompts: lambda pos: Prompts("guide", "structure", "constraints"),
    ExpectedFormat: lambda pos: _FORMAT,
    PipelineConfig: lambda pos: PipelineConfig(3, Budget(10, 1.0), True),
    PipelineResult: lambda pos: PipelineResult(
        PipelineStatus.SOLVED, 1, _TABLE, {"rows": []}, [("solve", "sat")]
    ),
    Budget: lambda pos: Budget(10, 1.0),
    SolveStats: lambda pos: SolveStats(2, 5, 0.5),
    SolveOutcome: lambda pos: SolveOutcome(Status.SAT, {0: 1}, SolveStats(1, 2, 0.25)),
    AmbiguityReport: lambda pos: AmbiguityReport(None, SolveStats()),
    ModelView: lambda pos: ModelView("compiled", (0, 2), ModelView("compiled", (pos,))),
    SolutionTable: lambda pos: _TABLE,
    CHarness: lambda pos: CHarness("int x;\n", {"main": (0, 7)}),
    PuzzleTask: lambda pos: PuzzleTask("t1", "1x1", "text", _FORMAT, _TABLE),
    Clue: lambda pos: _CLUE,
    Feature: lambda pos: Feature("name", ("alice",)),
    PuzzleInstance: lambda pos: PuzzleInstance(
        "p1", 1, 1, (Feature("name", ("alice",)),), (_CLUE,), "text", _TABLE
    ),
    TaskResult: lambda pos: _RESULT,
    SplitScore: lambda pos: SplitScore(2, 1, 5, 8),
    EvalReport: lambda pos: EvalReport(
        [_RESULT], SplitScore(1, 1, 1, 1), SplitScore(1, 1, 1, 1), SplitScore(), {"Solved": 1}, 1.5
    ),
    GenSpec: lambda pos: GenSpec(7, (("2x2", 1),)),
}

# the reprs ``dataclasses`` printed for ``SAMPLES[cls](4)``, by class name
REPRS = json.loads((DATA_DIR / "record_reprs.json").read_text(encoding="utf-8"))

# mutable, so not hashable at all
MUTABLE = (ConstraintModel, PipelineResult, SolveStats, SplitScore, EvalReport)

# their fields hold dicts or mutable records, so hashing one raises TypeError
UNHASHABLE = (
    *MUTABLE,
    CheckedProgram,
    InstanceLayout,
    _SelObj,
    SolveOutcome,
    AmbiguityReport,
    CHarness,
)

# a field of one of these refuses assignment
FROZEN = (
    _SelObj,
    SourceText,
    LlmClientConfig,
    Prompts,
    ExpectedFormat,
    PipelineConfig,
    Budget,
    SolveOutcome,
    AmbiguityReport,
    ModelView,
    SolutionTable,
    CHarness,
    PuzzleTask,
    Clue,
    Feature,
    PuzzleInstance,
    TaskResult,
    GenSpec,
)

# the IR modules, whose classes but ``ConstraintModel`` are slotted
IR_MODULES = (
    "logicforge.frontend.ast",
    "logicforge.frontend.check",
    "logicforge.model.constraints",
)

# the field each class leaves out of equality, hash and repr
_HIDDEN = ((DslProgram, "text"), (ModelView, "parent"), (Node, "pos"))


def _compared(value: Record) -> tuple:
    """The fields of ``value`` that equality sees, in order."""
    hidden = next((name for cls, name in _HIDDEN if isinstance(value, cls)), None)
    return tuple(getattr(value, name) for name in value._fields if name != hidden)


def _round_trips():
    yield "copy", copy.copy
    yield "deepcopy", copy.deepcopy
    yield "replace", replace
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle{protocol}", lambda v, p=protocol: pickle.loads(pickle.dumps(v, p))


def _record_classes() -> set[type]:
    """Every record class of the package, found through the base once every
    module of the package is imported."""
    for module in pkgutil.walk_packages(logicforge.__path__, "logicforge."):
        importlib.import_module(module.name)
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("logicforge.") and cls not in (Node, Frozen):
                found.add(cls)
    return found


class TestValueSemantics:
    def test_every_value_class_is_sampled(self):
        assert _record_classes() == set(SAMPLES)
        assert set(REPRS) == {cls.__name__ for cls in SAMPLES}

    @pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
    def test_value_semantics(self, cls):
        a, b = SAMPLES[cls](4), SAMPLES[cls](72)  # offsets, as parsed nodes hold
        assert type(a) is cls
        if cls.__module__ in IR_MODULES and cls is not ConstraintModel:
            assert "__slots__" in vars(cls) and not hasattr(a, "__dict__")
        if positions(a):
            assert positions(a) != positions(b)
        # equality ignores pos, a program's text and a view's parent
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
            assert {a: "a"}[b] == "a"
            if cls is not SolutionTable:  # which keeps its own equality
                assert hash(a) == hash(_compared(a))
        assert (cls.__hash__ is None) == (cls in MUTABLE)
        assert repr(a) == REPRS[cls.__name__]
        assert repr(a) == repr(b)
        for name, round_trip in _round_trips():
            copied = round_trip(a)
            assert type(copied) is cls, name
            assert copied == a, name
            assert positions(copied) == positions(a), name

    # a SolutionTable's equality reads the table's cells alone
    @pytest.mark.parametrize(
        "cls", [cls for cls in SAMPLES if cls is not SolutionTable], ids=lambda cls: cls.__name__
    )
    def test_a_subclass_with_equal_fields_is_not_equal(self, cls):
        a = SAMPLES[cls](4)
        slots = {"__slots__": ()} if "__slots__" in vars(cls) else {}
        twin = type(cls.__name__, (cls,), slots)(**{name: getattr(a, name) for name in cls._fields})
        assert _compared(twin) == _compared(a)
        assert a != twin and twin != a

    def test_sibling_classes_with_equal_fields_are_not_equal(self):
        assert TInt() != TBool() and Assume(IntLit(1)) != Assert(IntLit(1))
        assert Nondet(LocalRef("s")) != Abs(LocalRef("s")) and TStrLit("a") != StrLit("a")
        assert CLit(1) != IntLit(1) and TObj("S") != LocalRef("S")

    @pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
    def test_frozen_fields_refuse_assignment(self, cls):
        a = SAMPLES[cls](4)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == SAMPLES[cls](4)


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
