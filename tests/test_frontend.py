"""Lexer, parser, pretty-printer, and semantic checker."""

import re
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicforge.bench import load_dataset
from logicforge.bench.puzzle import AT_POSITION, Clue, generate_puzzle
from logicforge.bench.render import render_constraints, render_data_structure, render_dsl
from logicforge.cemit import emit
from logicforge.errors import DslSyntaxError, InternalError, LogicForgeError, SemanticError
from logicforge.frontend import SourceText, check, parse, pretty
from logicforge.frontend.ast import (
    Assert,
    Assign,
    Assume,
    ClassDecl,
    DslProgram,
    EnumValues,
    FieldAccess,
    FieldDecl,
    FuncDecl,
    IntLit,
    IntRange,
    LocalRef,
    Nondet,
    locate,
)
from logicforge.frontend.parser import MAX_NESTING
from logicforge.model import decode, lower
from logicforge.records import Record
from logicforge.solver import Budget, find_second, solve

from conftest import DATA_DIR, chained_condition, lines_executed, nested_condition
from reference import reference_parse
from record_tools import replace
from strategies import programs

FIG_STYLE_SOURCE = """\
class House:
  house_number: Unique[
    Domain[int, range(1, 7)]
  ]
  name: Unique[
    Domain[str, "Alice", "Eric"]
  ]
  # a comment inside the class body

class PuzzleSolution:
  houses: list[House, 6]
"""


class TestParse:
    def test_multiline_annotations_and_comments(self):
        program = parse(FIG_STYLE_SOURCE)
        assert len(program.classes) == 2
        assert len(program.functions) == 0
        house = program.classes[0]
        assert house.name == "House"
        number = house.fields[0]
        assert number == FieldDecl("house_number", "int", True, IntRange(1, 7))
        name = house.fields[1]
        assert name.unique and name.domain == EnumValues(("Alice", "Eric"))
        solution = program.classes[1]
        assert solution.fields[0].base == "House"
        assert solution.fields[0].list_len == 6

    def test_empty_source_parses(self):
        program = parse("")
        assert program == DslProgram((), ())

    def test_missing_trailing_newline_and_crlf(self):
        unix = "class C:\n    f: Domain[int, range(1, 3)]"
        dos = "class C:\r\n    f: Domain[int, range(1, 3)]\r\n"
        assert parse(unix) == parse(dos)
        assert len(parse(unix).classes) == 1

    def test_unbalanced_paren_is_syntax_error(self):
        src = 'def validate(s: C) -> None:\n    assume(s.name == "Bob"\n'
        with pytest.raises(DslSyntaxError) as info:
            parse(src)
        assert info.value.line == 2

    def test_validator_statements(self):
        src = (
            "def validate(solution: PuzzleSolution) -> None:\n"
            "    bob = nondet(solution.houses)\n"
            '    assume(bob.name == "Bob")\n'
            '    assert bob.phone == "xiaomi mi 11"\n'
        )
        fn = parse(src).functions[0]
        assert fn.param_name == "solution"
        assert fn.param_type == "PuzzleSolution"
        assert isinstance(fn.body[0], Assign)
        assert isinstance(fn.body[0].value, Nondet)
        assert isinstance(fn.body[1], Assume)

    @pytest.mark.parametrize(
        "src",
        [
            "import os\n",
            "def f(x: C) -> None:\n    for i in x:\n        assume(i)\n",
            "def f(x: C) -> None:\n    print(x)\n",
            "def f(x: C) -> None:\n    assert 1 < 2 < 3\n",
            "def f(x: C) -> None:\n    assume(x.a == 1, 2)\n",
            "def f(x: C) -> None:\n\tassume(x.a == 1)\n",
            "class C:\n    f: Unique[Unique[Domain[int, range(0, 1)]]]\n",
            "def nondet(x: C) -> None:\n    assume(x.a == 1)\n",
        ],
    )
    def test_unsupported_syntax_rejected(self, src):
        with pytest.raises(DslSyntaxError):
            parse(src)

    def test_positions_within_input(self):
        bad_sources = [
            "class C\n    f: int\n",
            "def f(x C) -> None:\n    assert x\n",
            "class C:\n   f: Domain[int, range(1, ]\n",
            "?",
        ]
        for src in bad_sources:
            with pytest.raises(DslSyntaxError) as info:
                parse(src)
            err = info.value
            lines = src.split("\n")
            assert 1 <= err.line <= len(lines) + 1
            assert err.col >= 1
            assert str(err).startswith("<string>:")

    def test_diagnostic_format(self):
        with pytest.raises(DslSyntaxError) as info:
            parse(SourceText("def f(x: C) -> None:\n    assert 1 < 2 < 3\n", "puzzle.lpy"))
        assert info.value.diagnostic() == (
            "puzzle.lpy:2:18: syntax: chained comparisons are not supported"
        )

    @pytest.mark.parametrize("condition", [nested_condition, chained_condition])
    def test_nesting_limit_covers_every_later_stage(self, zebra_source, condition):
        # at the limit, every stage that recurses on the expression tree
        # passes under the default recursion limit; one level more is a
        # syntax error, whether the parser recurses (parentheses, not) or
        # loops (a chain of + operators)
        text = zebra_source.text + "    assert " + condition("engineer", MAX_NESTING) + "\n"
        program = check(parse(text))
        model = lower(program)
        outcome = solve(model)
        assert outcome.is_sat
        assert not find_second(model, decode(model, outcome.assignment)).ambiguous
        assert emit(program).text
        deeper = zebra_source.text + "    assert " + condition("engineer", MAX_NESTING + 1) + "\n"
        with pytest.raises(DslSyntaxError, match="nested too deeply"):
            parse(deeper)

    def test_concurrent_parses_each_get_their_own_result(self, zebra_source):
        # the parser keeps all its state in one object per call, so threads
        # that parse at once each get their own program or error
        texts = [
            zebra_source.text + "    assert " + nested_condition("engineer", MAX_NESTING) + "\n",
            "def v(x: C) -> None:\n    assert " + "not " * 1000 + "x.a == 1\n",
            zebra_source.text,
            zebra_source.text.replace(") -> None:", ") -> None", 1),
            FIG_STYLE_SOURCE,
            "class C:\n    a: Domain[int, range(1, 3)]\ndef v(x: C) -> None:\n    assume(x.a ==\n",
            FIG_STYLE_SOURCE.replace("]", ")", 1),
            zebra_source.text + "    assert (abs(x.a -\n        1) == 2)\n",
        ]

        def outcome(text):
            try:
                return parse(text)
            except DslSyntaxError as exc:
                return exc.diagnostic()

        expected = [outcome(text) for text in texts]
        assert sum(isinstance(e, str) for e in expected) == 4
        start = threading.Barrier(len(texts), timeout=30)
        results = []

        def run(index):
            start.wait()
            for _ in range(20):
                results.append((index, outcome(texts[index])))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(texts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 20 * len(texts)
        for index, result in results:
            assert result == expected[index], index

    @pytest.mark.parametrize("value", ["1and x", '"\\d"'])
    def test_parsing_ignores_the_warning_filter(self, value, capfd):
        # Python's parser warns about these, and under an "error" filter
        # fails; the DSL's parser reads them the same under every filter
        text = _stmt("z = " + value)
        outcomes = []
        for action in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                with pytest.raises(DslSyntaxError) as info:
                    parse(text)
            outcomes.append(info.value.diagnostic())
        assert outcomes[0] == outcomes[1]
        assert capfd.readouterr() == ("", "")


class TestPretty:
    def test_round_trip_on_worked_example(self, zebra_source):
        program = parse(zebra_source)
        assert parse(pretty(program)) == program

    def test_round_trip_on_fig_style_source(self):
        program = parse(FIG_STYLE_SOURCE)
        assert parse(pretty(program)) == program

    def test_round_trip_precedence(self):
        src = (
            "def f(x: C) -> None:\n"
            "    assume(not (x.a == 1 or x.a == 2) and x.b * (x.c + 2) - 1 <= 4 * 3)\n"
            '    assert abs(x.a - x.b) == 1 or x.q != "m"\n'
            "    z = 1 .a\n"
        )
        program = parse(src)
        assert parse(pretty(program)) == program

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        entities=st.integers(2, 4),
        features=st.integers(2, 4),
    )
    def test_round_trip_generated_programs(self, seed, entities, features):
        source = render_dsl(generate_puzzle(seed, entities, features))
        program = parse(source)
        assert parse(pretty(program)) == program


# Pieces of the programs in ``TestCheck.test_semantic_diagnostics``: a class
# with an int and a str field, its entry function, a row class, a list of two
# such rows with its entry function, and a last line that holds.
_HEAD = 'class C:\n    a: Domain[int, range(1, 3)]\n    name: Domain[str, "x", "y"]\n'
_ENTRY = "def v(x: C) -> None:\n"
_ROW = "class E:\n    p: Domain[int, range(1, 3)]\n"
_ROWS = _ROW + "class S:\n    items: list[E, 2]\ndef v(s: S) -> None:\n"
_TRUE = "    assume(1 == 1)\n"


class TestCheck:
    def test_worked_example_checks(self, zebra_program):
        assert zebra_program.entry.name == "validate"
        assert set(zebra_program.classes) == {"House", "PuzzleSolution"}

    def test_entry_name_not_required_to_be_validate(self):
        src = (
            "class C:\n    f: Domain[int, range(1, 3)]\n"
            "def any_name(x: C) -> None:\n    assume(x.f == 1)\n"
        )
        assert check(parse(src)).entry.name == "any_name"

    def test_no_entry_function(self):
        with pytest.raises(SemanticError) as info:
            check(parse("class C:\n    f: Domain[int, range(1, 3)]\n"))
        assert info.value.category == "NoEntryFunction"

    def test_multiple_entry_functions(self):
        src = (
            "class C:\n    f: Domain[int, range(1, 3)]\n"
            "def a(x: C) -> None:\n    assume(x.f == 1)\n"
            "def b(x: C) -> None:\n    assume(x.f == 2)\n"
        )
        with pytest.raises(SemanticError) as info:
            check(parse(src))
        assert info.value.category == "MultipleEntryFunctions"

    def test_value_outside_domain(self):
        src = (
            'class House:\n    phone: Unique[Domain[str, "google pixel 6", "iphone 13", '
            '"oneplus 9", "samsung galaxy s21"]]\n'
            "class S:\n    houses: list[House, 4]\n"
            "def validate(s: S) -> None:\n"
            "    bob = nondet(s.houses)\n"
            '    assume(bob.phone == "nokia 3310")\n'
        )
        with pytest.raises(SemanticError) as info:
            check(parse(src))
        assert info.value.category == "ValueOutsideDomain"

    @pytest.mark.parametrize(
        "src,category",
        [
            # unknown local name
            (
                "class C:\n    f: Domain[int, range(1, 3)]\n"
                "def v(x: C) -> None:\n    assume(y.f == 1)\n",
                "UnknownName",
            ),
            # unknown field
            (
                "class C:\n    f: Domain[int, range(1, 3)]\n"
                "def v(x: C) -> None:\n    assume(x.g == 1)\n",
                "UnknownName",
            ),
            # unique without a domain
            (
                "class C:\n    f: Unique[int]\n"
                "def v(x: C) -> None:\n    assume(x.f == 1)\n",
                "UniqueWithoutDomain",
            ),
            # scalar field without a domain
            (
                "class C:\n    f: int\n"
                "def v(x: C) -> None:\n    assume(x.f == 1)\n",
                "TypeMismatch",
            ),
            # nondet of a non-list
            (
                "class C:\n    f: Domain[int, range(1, 3)]\n"
                "def v(x: C) -> None:\n    y = nondet(x.f)\n    assume(y == 1)\n",
                "BadNondetTarget",
            ),
            # string compared with order operator
            (
                'class H:\n    s: Domain[str, "a", "b"]\n'
                "class C:\n    hs: list[H, 2]\n"
                'def v(x: C) -> None:\n    h = nondet(x.hs)\n    assume(h.s < "b")\n',
                "TypeMismatch",
            ),
            # string field against string field
            (
                'class H:\n    s: Domain[str, "a", "b"]\n    t: Domain[str, "a", "b"]\n'
                "class C:\n    hs: list[H, 2]\n"
                "def v(x: C) -> None:\n    h = nondet(x.hs)\n    assume(h.s == h.t)\n",
                "TypeMismatch",
            ),
            # int compared against string
            (
                'class H:\n    n: Domain[int, range(1, 3)]\n    s: Domain[str, "a", "b"]\n'
                "class C:\n    hs: list[H, 2]\n"
                'def v(x: C) -> None:\n    h = nondet(x.hs)\n    assume(h.n == "a")\n',
                "TypeMismatch",
            ),
            # out-of-bounds index
            (
                "class H:\n    n: Domain[int, range(1, 3)]\n"
                "class C:\n    hs: list[H, 2]\n"
                "def v(x: C) -> None:\n    assume(x.hs[2].n == 1)\n",
                "TypeMismatch",
            ),
            # assume of a non-boolean
            (
                "class C:\n    f: Domain[int, range(1, 3)]\n"
                "def v(x: C) -> None:\n    assume(x.f + 1)\n",
                "TypeMismatch",
            ),
            # empty integer range
            (
                "class C:\n    f: Domain[int, range(3, 3)]\n"
                "def v(x: C) -> None:\n    assume(x.f == 3)\n",
                "TypeMismatch",
            ),
            # rebinding a local to a string
            (
                'class H:\n    s: Domain[str, "a"]\n'
                "class C:\n    hs: list[H, 2]\n"
                'def v(x: C) -> None:\n    y = "a"\n    assume(y == y)\n',
                "TypeMismatch",
            ),
        ],
    )
    def test_semantic_error_categories(self, src, category):
        with pytest.raises(SemanticError) as info:
            check(parse(src))
        assert info.value.category == category

    @pytest.mark.parametrize(
        "src,diagnostic",
        [
            pytest.param(
                _HEAD + "class C:\n    b: Domain[int, range(1, 3)]\n" + _ENTRY + _TRUE,
                "f:4:1: TypeMismatch: duplicate class 'C'",
                id="duplicate-class",
            ),
            pytest.param(
                "class C:\n    xs: list[int, 3]\n" + _ENTRY + _TRUE,
                "f:2:5: TypeMismatch: scalar lists are not supported; list element must be a class",
                id="scalar-list",
            ),
            pytest.param(
                "class C:\n    cs: list[C, 2]\n" + _ENTRY + _TRUE,
                "f:2:5: TypeMismatch: a class cannot contain a list of itself",
                id="list-of-itself",
            ),
            pytest.param(
                _ROW + "class G:\n    es: list[E, 2]\n"
                "class C:\n    gs: list[G, 2]\n" + _ENTRY + _TRUE,
                "f:6:5: TypeMismatch: list element class 'G' must hold only scalar fields",
                id="list-in-element",
            ),
            pytest.param(
                _ROW + "class C:\n    e: Unique[E]\n" + _ENTRY + _TRUE,
                "f:4:5: UniqueWithoutDomain: 'Unique' requires a finite domain, not a class",
                id="unique-class",
            ),
            pytest.param(
                _ROW + "class C:\n    e: E\n" + _ENTRY + _TRUE,
                "f:4:5: TypeMismatch: class-typed fields must be fixed-size lists (use list[C, n])",
                id="class-field",
            ),
            pytest.param(
                'class C:\n    s: Domain[str, "a", "a"]\n' + _ENTRY + _TRUE,
                "f:2:5: TypeMismatch: duplicate value in string domain",
                id="duplicate-value",
            ),
            pytest.param(
                _HEAD + "def v(x: D) -> None:\n" + _TRUE,
                "f:4:1: UnknownName: unknown parameter type 'D'",
                id="unknown-parameter-type",
            ),
            pytest.param(
                _HEAD + _ENTRY + "    x = 1\n" + _TRUE,
                "f:5:5: TypeMismatch: cannot rebind parameter 'x'",
                id="rebound-parameter",
            ),
            pytest.param(
                _ROWS + "    x = s.items\n" + _TRUE,
                "f:6:5: TypeMismatch: lists cannot be bound to locals",
                id="list-local",
            ),
            pytest.param(
                _ROWS.replace("list[E, 2]\n", "list[E, 2]\n    more: list[E, 2]\n") + _TRUE,
                "f:6:1: TypeMismatch: result class 'S' may declare at most one list field",
                id="two-lists",
            ),
            pytest.param(
                _ROWS.replace("list[E, 2]\n", "list[E, 2]\n    n: Domain[int, range(1, 3)]\n")
                + _TRUE,
                "f:6:1: TypeMismatch: result class 'S' cannot mix list and scalar fields",
                id="list-and-scalar",
            ),
            pytest.param(
                _HEAD + _ENTRY + "    assume(x.a.b == 1)\n",
                "f:5:15: TypeMismatch: field access on a non-object value",
                id="field-of-int",
            ),
            pytest.param(
                _HEAD + _ENTRY + "    assume(x.a[0] == 1)\n",
                "f:5:15: TypeMismatch: indexing a non-list value",
                id="index-of-int",
            ),
            pytest.param(
                _HEAD + _ENTRY + "    assume(abs(x.name) == 1)\n",
                "f:5:12: TypeMismatch: abs requires an integer",
                id="abs-of-string",
            ),
            pytest.param(
                _HEAD + _ENTRY + "    assume(x.name + 1 == 2)\n",
                "f:5:19: TypeMismatch: operator '+' requires integers",
                id="string-plus-int",
            ),
            pytest.param(
                _HEAD + _ENTRY + "    assume(1 and 2)\n",
                "f:5:12: TypeMismatch: 'and' requires boolean operands",
                id="and-of-ints",
            ),
            pytest.param(
                _HEAD + _ENTRY + "    assume(not 1)\n",
                "f:5:12: TypeMismatch: 'not' requires a boolean operand",
                id="not-of-int",
            ),
        ],
    )
    def test_semantic_diagnostics(self, src, diagnostic):
        # each program parses, and check rejects it with this one diagnostic
        with pytest.raises(SemanticError) as info:
            check(parse(SourceText(src, "f")), "f")
        assert info.value.diagnostic() == diagnostic

    def test_empty_body_rejected_for_constructed_ast(self):
        cls = ClassDecl("C", (FieldDecl("f", "int", False, IntRange(1, 3)),))
        fn = FuncDecl("v", "x", "C", ())
        with pytest.raises(SemanticError) as info:
            check(DslProgram((cls,), (fn,)))
        assert "empty body" in info.value.message

    @pytest.mark.parametrize(
        "change,category,message",
        [
            ({"list_len": 0}, "TypeMismatch", "list size must be positive"),
            ({"list_len": -2}, "TypeMismatch", "list size must be positive"),
            ({"unique": True}, "UniqueWithoutDomain", "'Unique' cannot wrap a list"),
        ],
        ids=("size_0", "size_minus_2", "unique"),
    )
    def test_list_field_rejected_for_constructed_ast(self, zebra_source, change, category, message):
        # the parser rejects each of these in text; a program built as a
        # syntax tree meets them first in check
        program = parse(zebra_source)
        house, solution = program.classes
        houses = replace(solution.fields[0], **change)
        solution = replace(solution, fields=(houses,))
        with pytest.raises(SemanticError) as info:
            check(replace(program, classes=(house, solution)))
        assert (info.value.category, info.value.message) == (category, message)

    def test_check_is_deterministic_and_pure(self, zebra_source):
        program = parse(zebra_source)
        first = check(program)
        second = check(program)
        assert first.program == second.program == program
        assert first.entry == second.entry

    def test_local_rebinding_allowed(self):
        src = (
            "class H:\n    n: Domain[int, range(1, 3)]\n"
            "class C:\n    hs: list[H, 2]\n"
            "def v(x: C) -> None:\n"
            "    h = nondet(x.hs)\n"
            "    h = nondet(x.hs)\n"
            "    assume(h.n == 1)\n"
        )
        check(parse(src))

    def test_diagnostic_line_format(self):
        src = "class C:\n    f: Domain[int, range(1, 3)]\n"
        with pytest.raises(SemanticError) as info:
            check(parse(SourceText(src, "prog.lpy")), "prog.lpy")
        assert info.value.diagnostic() == (
            "prog.lpy:1:1: NoEntryFunction: no validation function defined"
        )


_HEAD_C = "class C:\n    a: Domain[int, range(1, 3)]\ndef v(x: C) -> None:\n"
_CRLF = (_HEAD_C + "    assert (x.a == 1 or\n            x.b == 2)\n").replace("\n", "\r\n")
_NO_FIELD = "UnknownName: class 'C' has no field 'b'"
_BUILT = DslProgram(
    (ClassDecl("C", (FieldDecl("a", "int", False, IntRange(1, 3)),)),),
    (FuncDecl("v", "x", "C", (Assert(FieldAccess(LocalRef("x"), "b")),)),),
)
CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "corpus.jsonl"


class TestPositions:
    """Nodes carry offsets into the parsed text; a diagnostic resolves its
    own to a line and column."""

    @pytest.mark.parametrize(
        "source,diagnostic",
        [
            pytest.param(_CRLF, f"f:5:14: {_NO_FIELD}", id="crlf-in-brackets"),
            pytest.param(
                (_HEAD_C + "    assert x.b == 1\n").replace("\n", "\r"),
                f"f:4:13: {_NO_FIELD}",
                id="lone-cr",
            ),
            pytest.param(
                _HEAD_C.replace("int, range(1, 3)", 'str, "\u00e9", "b"') + "    assert x.b == 1\n",
                f"f:4:13: {_NO_FIELD}",
                id="non-ascii",
            ),
            pytest.param(
                'class C:\n    a: Domain[str, "x\\q"]\n',
                "f:2:22: syntax: invalid escape sequence '\\q'",
                id="bad-escape",
            ),
            pytest.param(
                "class C:\n    a: Domain[int, range(1, 3)]\n",
                "f:1:1: NoEntryFunction: no validation function defined",
                id="no-function",
            ),
            pytest.param(_BUILT, f"f:0:0: {_NO_FIELD}", id="built-with-no-text"),
        ],
    )
    def test_diagnostic_positions(self, source, diagnostic):
        with pytest.raises((DslSyntaxError, SemanticError)) as info:
            program = parse(SourceText(source, "f")) if isinstance(source, str) else source
            check(program, "f")
        assert info.value.diagnostic() == diagnostic

    def test_parsed_nodes_hold_offsets(self):
        tasks, _ = load_dataset(CORPUS)
        texts = [path.read_text(encoding="utf-8") for path in sorted(DATA_DIR.glob("*.lpy"))]
        texts += [render_dsl(task.instance).text for task in tasks[:: len(tasks) // 20][:20]]
        for text in texts:
            positions = _positions(parse(text))
            assert positions and all(type(pos) is int for pos in positions)


# --- mutated source text --------------------------------------------------------

_TOKEN = re.compile(r'"[^"\n]*"|\w+|\s+|.')
_NESTINGS = (("(", ")"), ("abs(", ")"), ("not (", ")"), ("[", "]"), ("nondet(", ")"))


@st.composite
def mutated_sources(draw) -> str:
    """A printed random program after one to three token edits: delete,
    duplicate or nest a token span, or repeat a body line up to 30 times."""
    tokens = _TOKEN.findall(pretty(draw(programs(max_entities=3, max_fields=3, max_domain=4))))
    for _ in range(draw(st.integers(1, 3))):
        words = [i for i, t in enumerate(tokens) if not t.isspace()]
        kind = draw(st.sampled_from(("delete", "duplicate", "nest", "repeat")))
        i = draw(st.sampled_from(words))
        if kind == "delete":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "nest":
            j = draw(st.sampled_from([w for w in words if w >= i]))
            opener, closer = draw(st.sampled_from(_NESTINGS))
            tokens[i : j + 1] = [opener, *tokens[i : j + 1], closer]
        else:
            lines = "".join(tokens).split("\n")
            body = [k for k, line in enumerate(lines) if line.startswith("    ")] or [len(lines) - 1]
            k = draw(st.sampled_from(body))
            lines[k:k] = [lines[k]] * draw(st.integers(1, 29))
            tokens = _TOKEN.findall("\n".join(lines))
    return "".join(tokens)


class TestMutatedSource:
    """Every stage either returns or raises a typed LogicForgeError on
    mangled source; an InternalError would be a bug, so it fails too."""

    @settings(max_examples=150, deadline=None)
    @given(mutated_sources())
    def test_every_stage_returns_or_raises_a_typed_error(self, text):
        budget = Budget(max_decisions=500, max_time=1.0)
        try:
            model = lower(check(parse(text)))
            outcome = solve(model, budget)
            if outcome.is_sat:
                find_second(model, decode(model, outcome.assignment), budget)
        except InternalError:
            raise
        except LogicForgeError:
            pass


def _repeated_validator(text: str, copies: int) -> str:
    """``text`` with its validator body repeated ``copies`` times, each copy's
    locals renamed apart."""
    head, body = text.split("def validate(solution: PuzzleSolution) -> None:\n")
    names = sorted(set(re.findall(r"^\s+(\w+) = nondet\(", body, re.MULTILINE)))
    local = re.compile(r"\b(" + "|".join(names) + r")\b")
    bodies = [local.sub(rf"\1_{k}", body) for k in range(copies)]
    return head + "def validate(solution: PuzzleSolution) -> None:\n" + "\n".join(bodies)


class TestGrowth:
    """Doubling the clauses of a program about doubles the work of parse,
    check and lower: no stage grows quadratically with the clause count."""

    def test_each_stage_grows_linearly_in_the_clauses(self):
        plain = (DATA_DIR / "example_6house.lpy").read_text(encoding="utf-8")
        # each assert's condition in parentheses, broken over two lines
        grouped = re.sub(
            r"^(    assert )(\S+) (\S+) (.*)$", r"\1(\2 \3\n        \4)", plain, flags=re.MULTILINE
        )
        assert grouped.count("\n") == plain.count("\n") + 3
        assert parse(grouped) == parse(plain)
        for text in (plain, grouped):
            work = []  # (parse, check, lower) lines per copy count
            for copies in (1, 2, 4):
                source = SourceText(_repeated_validator(text, copies), "<growth>")
                parse_lines, tree = lines_executed(parse, source)
                check_lines, program = lines_executed(check, tree)
                lower_lines, model = lines_executed(lower, program)
                assert len(model.constraints) == 7 * copies  # 3 asserts, 4 assumes
                work.append((parse_lines, check_lines, lower_lines))
            for stage, (one, two, four) in zip(("parse", "check", "lower"), zip(*work)):
                assert two > one, stage
                assert four - two <= 2.2 * (two - one), (stage, one, two, four)


# --- the parser against the reference ---------------------------------------------


def _positions(node) -> list:
    """The pos of every node in ``node``, depth first: ``==`` leaves them out."""
    if isinstance(node, tuple):
        return [pos for item in node for pos in _positions(item)]
    found = []
    if isinstance(node, Record):
        for name in node._fields:
            value = getattr(node, name)
            found += [value] if name == "pos" else _positions(value)
    return found


def parsers_agree(text: str) -> bool:
    """Whether the parser accepts ``text``. It must accept exactly when the
    reference does, and then return an equal program, node positions
    included."""
    try:
        program = parse(text)
    except DslSyntaxError:
        program = None
    try:
        reference = reference_parse(text)
    except DslSyntaxError as exc:
        reference = None
        why = exc.diagnostic()
    assert (program is None) == (reference is None), why if reference is None else "parser rejects"
    if program is not None:
        assert program == reference
        # the reference's nodes hold a line and column, the parser's an offset
        resolved = [locate(program.text, offset) for offset in _positions(program)]
        assert resolved == _positions(reference)
    return program is not None


def _attempts(seed: int, entities: int, features: int) -> dict[str, str]:
    """A generated puzzle's program as the pipeline joins its two parts, and
    the faulty programs the recover benchmark replays before it."""
    instance = generate_puzzle(seed, entities, features)
    n = instance.n_entities
    ds = render_data_structure(instance.features, n).text
    cs = render_constraints(instance.clues).text
    feature = instance.features[0].name
    false_clue = Clue(AT_POSITION, feature, instance.truth.rows[0][feature], pos=n)
    intruder = '    intruder = nondet(solution.houses)\n    assert intruder.colour == "red"\n'
    return {
        "correct": ds + "\n" + cs,
        "syntax": ds + "\n" + cs.replace(") -> None:", ") -> None", 1),
        "semantic": ds + "\n" + cs + intruder,
        "unsat": ds + "\n" + render_constraints(instance.clues + (false_clue,)).text,
        "off_by_one": ds.replace(f"range(1, {n + 1})", f"range(1, {n + 2})", 1) + "\n" + cs,
    }


_SHAPES = [(e, f) for e in range(3, 7) for f in range(3, 7)]

# 1-3-character edits: operators, quotes, brackets, whitespace, digits and
# keyword fragments
_EDIT_ALPHABET = tuple("()[].,:=<>!+-*/#\"' \t\n\\0179x_") + (
    "==", "<=", "->", "  ", "01", "1.", "0x", "not", "and", "or", "in", "abs", "def", "Non", "r\""
)
_EDIT_BASES = (
    _attempts(0, 3, 3)["correct"],
    (DATA_DIR / "zebra_4x4.lpy").read_text(encoding="utf-8"),
    (DATA_DIR / "example_6house.lpy").read_text(encoding="utf-8"),
)


@st.composite
def edited_sources(draw) -> str:
    """A well-formed program after one to three edits, each deleting up to
    three characters and inserting up to three from the alphabet."""
    text = draw(st.sampled_from(_EDIT_BASES))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        insert = "".join(draw(st.lists(st.sampled_from(_EDIT_ALPHABET), max_size=3)))[:3]
        text = text[:at] + insert + text[at + cut :]
    return text


_HEAD = "class C:\n    a: Domain[int, range(1, 3)]\ndef v(x: C) -> None:\n"


def _stmt(*lines: str) -> str:
    """A program whose validator holds ``lines``."""
    return _HEAD + "".join(f"    {line}\n" for line in lines)


# Texts outside the grammar and their exact diagnostics: the parser's own
# messages, the same on every Python version.
_DIAGNOSTICS = [
    ("int-touching-keyword", _stmt("z = 1and x"), "4:9: invalid integer literal"),
    ("hex", _stmt("z = 0x1"), "4:9: invalid integer literal"),
    ("leading-zero", _stmt("z = 01"), "4:9: invalid integer literal"),
    ("underscore", _stmt("z = 1_0"), "4:9: invalid integer literal"),
    ("float", _stmt("z = 1.5"), "4:9: invalid integer literal"),
    ("string-prefix", _stmt('z = r"a"'), "4:10: expected the end of the line"),
    ("adjacent-strings", _stmt('z = "a" "b"'), "4:13: expected the end of the line"),
    ("escape", _stmt('z = "\\d"'), "4:10: invalid escape sequence '\\d'"),
    ("control", _stmt('z = "a\x01"'), "4:9: control character in string literal"),
    ("unterminated", _stmt('z = "a'), "4:9: unterminated string literal"),
    ("keyword-field", _stmt("z = x.class"), "4:11: expected a field name"),
    ("none", _stmt("z = None"), "4:9: expected an expression"),
    ("nondet-as-name", _stmt("z = nondet"), "4:9: 'nondet' is reserved"),
    ("negated-field-access", _stmt("z = -1 .a"), "4:12: expected the end of the line"),
    ("negated-parentheses", _stmt("z = -(1)"), "4:10: expected an integer literal"),
    ("index-parentheses", _stmt("z = x.hs[(0)]"), "4:14: expected an integer literal"),
    ("target-parentheses", _stmt("(z) = 1"),
     "4:5: expected an assignment, 'assume(...)' or 'assert' statement"),
    ("trailing-comma", _stmt("assume(x.a == 1,)"), "4:20: expected ')'"),
    ("two-arguments", _stmt("z = nondet(x, y)"),
     "4:9: only 'nondet' and 'abs' may be called, with one argument"),
    ("call", _stmt("z = print(x)"),
     "4:14: only 'nondet' and 'abs' may be called, with one argument"),
    ("division", _stmt("z = x.a / 2"), "4:13: unsupported operator '/'"),
    ("not-under-comparison", _stmt("assert x.a == not x.a"), "4:19: expected an expression"),
    ("chained-comparison", _stmt("assert x.a < 1 < 2"),
     "4:20: chained comparisons are not supported"),
    ("assert-message", _stmt("assert x.a, 'm'"), "4:15: assert messages are not supported"),
    ("backslash-continuation", _stmt("assert x.a == \\", "    1"),
     "4:19: invalid character '\\\\'"),
    ("line-break-outside-brackets", _stmt("assert x.a ==", "    1"),
     "4:18: expected an expression"),
    ("never-closed", _stmt("assume(x.a == 1"), "4:11: '(' was never closed"),
    ("semicolon", _stmt("z = x.a; y = 1"), "4:12: invalid character ';'"),
    ("non-ascii-name", _stmt("z = caf\u00e9"), "4:12: invalid character U+00E9"),
    ("form-feed", _stmt("z = x.a\x0c"), "4:12: invalid character U+000C"),
    ("surrogate", _stmt("z = 1  # \ud800"), "4:14: invalid character U+D800"),
    ("nul", _stmt('z = "\x00"'), "4:10: invalid character U+0000"),
    ("tab-indentation", _HEAD + "\tassume(x.a == 1)\n", "4:1: tab character in indentation"),
    ("deeper-indent", _stmt("assert x.a == 1", "  assert x.a == 1"),
     "5:7: indentation does not match the block"),
    ("empty-class", _stmt("assert x.a == 1") + "class D:\n", "6:1: expected an indented block"),
    ("indented-class", "  class C:\n    a: int\n", "1:3: unexpected indentation"),
    ("one-line-body", "class C: a: int\n", "1:10: expected the end of the line"),
    ("class-parentheses", "class C():\n    a: int\n", "1:8: expected ':'"),
    ("top-level-statement", "x = 1\n", "1:1: expected a class or function definition"),
    ("unique-unique", "class C:\n    a: Unique[Unique[int]]\n", "2:15: 'Unique' cannot be nested"),
    ("list-size", "class C:\n    a: list[C, 0]\n", "2:16: list size must be positive"),
    ("annotation-parentheses", "class C:\n    a: (int)\n", "2:8: expected a type annotation"),
    ("annotation-trailing-comma", 'class C:\n    a: Domain[str, "a",]\n',
     "2:24: expected a string literal"),
    ("field-value", "class C:\n    a = 1\n", "2:5: expected a field declaration 'name: type'"),
    ("return-annotation", "def v(x: C) -> int:\n    z = 1\n",
     "1:16: the return annotation must be None"),
    ("missing-colon", _HEAD.replace(") -> None:", ") -> None") + "    assert x.a == 1\n",
     "3:20: expected ':'"),
    ("parentheses-times-300", _stmt("assert " + "(" * 300 + "x.a == 1" + ")" * 300),
     "4:62: parentheses nested too deeply (more than 50 levels)"),
    ("parentheses-times-1e5", _stmt("assert " + "(" * 10**5 + "x.a == 1" + ")" * 10**5),
     "4:62: parentheses nested too deeply (more than 50 levels)"),
    ("not-times-1e5", _stmt("assert " + "not " * 10**5 + "x.a == 1"),
     "4:216: expression nested too deeply (more than 50 levels)"),
    ("literal-of-5000-digits", _stmt("assert x.a == " + "1" * 5000),
     "4:19: integer literal too long"),
]

# Texts in the grammar, each beside a plainer text of the same program.
_ACCEPTED = [
    ("grouping-parentheses", _stmt("assert (x.a == 1)"), _stmt("assert x.a == 1")),
    ("implicit-continuation", _stmt("assume(x.a ==", "    1)"), _stmt("assume(x.a == 1)")),
    ("comments-inside-brackets", _stmt("assert ((x.a) ==  # one", "", "  # two", "\t(1))"),
     _stmt("assert x.a == 1")),
    ("continued-field", _HEAD.replace("(1, 3)", "(\n    1, 3)") + "    assume(x.a == 1)\n",
     _stmt("assume(x.a == 1)")),
    ("continued-header", "def v(\n  x: C\n) -> None:  # c\n    assume(x.a == 1)\n",
     "def v(x: C) -> None:\n    assume(x.a == 1)\n"),
    ("crlf-blank-line-comment", _stmt("", "# c", "assume(x.a == 1)").replace("\n", "\r\n"),
     _stmt("assume(x.a == 1)")),
    ("tab-between-tokens", _stmt("assume(x.a ==\t1)"), _stmt("assume(x.a == 1)")),
    ("both-quote-marks", _stmt("z = 'say \"hi\"'"), _stmt('z = "say \\"hi\\""')),
    ("negative-index", _stmt("z = x.hs[-1]"), _stmt("z = x.hs[- 1]")),
]


def _diagnostic(text: str) -> str:
    with pytest.raises(DslSyntaxError) as info:
        parse(text)
    return info.value.diagnostic()


class TestAgainstReference:
    """The parser accepts a text exactly when the reference (Python's parser,
    the converter and the check for the forms the grammar leaves out) does,
    and then returns an equal program with an equal position on every node;
    anything else the parser raises fails the test."""

    @pytest.mark.parametrize("entities,features", _SHAPES)
    def test_generated_programs_and_their_faults(self, entities, features):
        for seed in range(2):
            for fault, text in _attempts(seed, entities, features).items():
                assert parsers_agree(text) == (fault != "syntax"), fault

    @pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.lpy")), ids=lambda p: p.name)
    def test_data_files(self, path):
        assert parsers_agree(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "text,plain", [pytest.param(text, plain, id=name) for name, text, plain in _ACCEPTED]
    )
    def test_accepted(self, text, plain):
        assert parse(text) == parse(plain)
        assert parsers_agree(text)

    @pytest.mark.parametrize(
        "value,expected",
        [
            pytest.param('"a\\"b\'c\\\\"', "a\"b'c\\", id="escapes"),
            pytest.param('"caf\u00e9 \u6771\u4eac"', "caf\u00e9 \u6771\u4eac", id="non-ascii"),
            pytest.param('"a\tb"', "a\tb", id="tab"),
        ],
    )
    def test_string_values(self, value, expected):
        (stmt,) = parse(_HEAD + "    z = " + value + "  # \u00e9\n").functions[0].body
        assert stmt.value.value == expected

    @pytest.mark.parametrize(
        "text,diagnostic", [pytest.param(text, d, id=name) for name, text, d in _DIAGNOSTICS]
    )
    def test_diagnostics(self, text, diagnostic):
        # the table leaves out the origin and the category, which all share
        position, message = diagnostic.split(": ", 1)
        assert _diagnostic(text) == f"<string>:{position}: syntax: {message}"
        assert not parsers_agree(text)

    @settings(max_examples=100, deadline=None)
    @given(programs(max_entities=3, max_fields=3, max_domain=4))
    def test_printed_random_programs(self, program):
        assert parsers_agree(pretty(program))

    @settings(max_examples=300, deadline=None)
    @given(edited_sources())
    def test_small_edits(self, text):
        parsers_agree(text)

    @settings(max_examples=150, deadline=None)
    @given(mutated_sources())
    def test_token_edits(self, text):
        parsers_agree(text)
