"""Lexer, parser, pretty-printer, and semantic checker."""

import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicforge.bench.puzzle import generate_puzzle
from logicforge.bench.render import render_dsl
from logicforge.cemit import emit
from logicforge.errors import DslSyntaxError, InternalError, LogicForgeError, SemanticError
from logicforge.frontend import SourceText, check, parse, pretty
from logicforge.frontend.ast import (
    Assign,
    Assume,
    ClassDecl,
    DslProgram,
    EnumValues,
    FieldDecl,
    FuncDecl,
    IntLit,
    IntRange,
    LocalRef,
    Nondet,
)
from logicforge.frontend.parser import MAX_NESTING
from logicforge.model import lower
from logicforge.solver import Budget, find_second, solve

from conftest import chained_condition, lines_executed, nested_condition
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
        assert not find_second(model, outcome.assignment).ambiguous
        assert emit(program).text
        deeper = zebra_source.text + "    assert " + condition("engineer", MAX_NESTING + 1) + "\n"
        with pytest.raises(DslSyntaxError, match="nested too deeply"):
            parse(deeper)

    def test_concurrent_parses_each_get_their_own_result(self, zebra_source):
        # CPython 3.11 keeps one recursion counter for all threads building
        # Python syntax trees. A collection inside one build can run a
        # finalizer, hand the GIL to another thread's build, and end the
        # first in "SystemError: AST constructor recursion depth mismatch".
        at_limit = zebra_source.text + "    assert " + nested_condition("engineer", MAX_NESTING) + "\n"
        hostile = "def v(x: C) -> None:\n    assert " + "not " * 10**5 + "x.a == 1\n"
        expected = parse(at_limit)
        start = threading.Barrier(8, timeout=30)
        results = []

        class Cycle:
            def __init__(self):
                self.me = self

            def __del__(self):
                sum(range(50))

        def run(index):
            start.wait()
            for _ in range(10):
                garbage = [Cycle() for _ in range(10)]
                del garbage
                try:
                    results.append((index, parse(hostile if index % 2 else at_limit)))
                except Exception as exc:
                    results.append((index, exc))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
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
        assert len(results) == 80
        for index, result in results:
            if index % 2:
                assert isinstance(result, DslSyntaxError), result
            else:
                assert result == expected, result


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

    def test_empty_body_rejected_for_constructed_ast(self):
        cls = ClassDecl("C", (FieldDecl("f", "int", False, IntRange(1, 3)),))
        fn = FuncDecl("v", "x", "C", ())
        with pytest.raises(SemanticError) as info:
            check(DslProgram((cls,), (fn,)))
        assert "empty body" in info.value.message

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
                find_second(model, outcome.assignment, budget)
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
        from conftest import DATA_DIR

        text = (DATA_DIR / "example_6house.lpy").read_text(encoding="utf-8")
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
