"""Pipeline orchestration, the table oracle, formatting, and replay."""

import json

import pytest

from logicforge.agent import (
    ExpectedFormat,
    PipelineConfig,
    PipelineStatus,
    ReplayFormalizer,
    check_solution,
    format_output,
    run_pipeline,
)
from logicforge.agent import pipeline
from logicforge.agent.llm import RecordingFormalizer, TranscriptWriter
from logicforge.bench.puzzle import LEFT_OF, Clue
from logicforge.bench.render import OracleFormalizer, render_dsl
from logicforge.errors import FormatError, LogicForgeError, ShapeError
from logicforge.frontend import check, parse
from logicforge.frontend.parser import SourceText
from logicforge.model import decode, lower
from logicforge.model.decode import SolutionTable
from logicforge.solver import Budget, engine, find_second, solve

from record_tools import replace


ZEBRA_FORMAT = ExpectedFormat(
    ("house", "name", "occupation", "book", "phone"), position="house"
)


class BrokenFormalizer:
    """Always emits unparseable text."""

    def gen_data_structure(self, puzzle_text, expected_format):
        return SourceText("this is not a program @@@", "broken")

    def gen_constraints(self, data_structure_source, puzzle_text):
        return SourceText("neither is this", "broken")


class FaultInjectingFormalizer:
    """Delegates to an inner formalizer after failing the first k attempts."""

    def __init__(self, inner, failures: int):
        self.inner = inner
        self.remaining = failures

    def gen_data_structure(self, puzzle_text, expected_format):
        if self.remaining > 0:
            self.remaining -= 1
            return SourceText("def broken(:", "fault")
        return self.inner.gen_data_structure(puzzle_text, expected_format)

    def gen_constraints(self, data_structure_source, puzzle_text):
        return self.inner.gen_constraints(data_structure_source, puzzle_text)


class FixedFormalizer:
    """Emits the same program at every attempt."""

    def __init__(self, text: str):
        self.text = text

    def gen_data_structure(self, puzzle_text, expected_format):
        return SourceText(self.text, "fixed")

    def gen_constraints(self, data_structure_source, puzzle_text):
        return SourceText("", "fixed")


_ONE_ROW = "class C:\n    a: Domain[int, range(1, 3)]\ndef v(x: C) -> None:\n"


class TestPipeline:
    def test_oracle_solves_worked_example_in_one_attempt(self, zebra_instance):
        result = run_pipeline(
            zebra_instance.text, ZEBRA_FORMAT, OracleFormalizer(zebra_instance)
        )
        assert result.status is PipelineStatus.SOLVED
        assert result.attempts == 1
        assert result.solution == zebra_instance.truth
        assert result.log == [("solved", "")]

    def test_unparseable_formalizer_exhausts_attempts(self, zebra_instance):
        config = PipelineConfig(max_attempts=3)
        result = run_pipeline(zebra_instance.text, ZEBRA_FORMAT, BrokenFormalizer(), config)
        assert result.status is PipelineStatus.FAILED_SYNTAX
        assert result.attempts == 3
        assert result.solution is None
        assert [stage for stage, _ in result.log] == ["parse", "parse", "parse"]

    def test_fault_then_correct_solves_on_second_attempt(self, zebra_instance):
        formalizer = FaultInjectingFormalizer(OracleFormalizer(zebra_instance), failures=1)
        result = run_pipeline(zebra_instance.text, ZEBRA_FORMAT, formalizer)
        assert result.status is PipelineStatus.SOLVED
        assert result.attempts == 2
        assert [stage for stage, _ in result.log] == ["parse", "solved"]

    def test_contradictory_clues_fail_unsat(self, zebra_instance):
        # mutate one clue into a direct self-contradiction: the fantasy lover
        # strictly left of themselves
        clues = list(zebra_instance.clues)
        clues[1] = Clue(LEFT_OF, "book", "fantasy", "book", "fantasy")
        broken = replace(zebra_instance, clues=tuple(clues))
        result = run_pipeline(broken.text, ZEBRA_FORMAT, OracleFormalizer(broken))
        assert result.status is PipelineStatus.FAILED_UNSAT
        assert result.attempts == 5  # default max_attempts
        assert all(stage == "solve" for stage, _ in result.log)

    def test_ambiguity_check_flags_underconstrained_puzzle(self, zebra_instance):
        # dropping the "fantasy in house 2" pin admits a second table
        clues = tuple(c for i, c in enumerate(zebra_instance.clues) if i != 1)
        loose = replace(zebra_instance, clues=clues)
        config = PipelineConfig(max_attempts=2, ambiguity_check=True)
        result = run_pipeline(loose.text, ZEBRA_FORMAT, OracleFormalizer(loose), config)
        assert result.status is PipelineStatus.FAILED_AMBIGUOUS
        assert result.attempts == 2
        assert all(stage == "ambiguity" for stage, _ in result.log)

    def test_ambiguity_search_gets_what_solve_left_of_the_budget(self, zebra_instance):
        # dropping the "fantasy in house 2" pin admits a second table, which
        # the ambiguity search, resuming solve's, finds after decisions of its own
        clues = tuple(c for i, c in enumerate(zebra_instance.clues) if i != 1)
        loose = replace(zebra_instance, clues=clues)
        model = lower(check(parse(render_dsl(loose))))
        view = engine.compile_model(model)
        outcome = solve(view)
        report = find_second(view, decode(model, outcome.assignment))
        assert report.ambiguous
        spent, needed = outcome.stats.decisions, report.stats.decisions
        assert (spent, needed) == (2, 3)

        def run(instance, max_decisions: int):
            config = PipelineConfig(
                max_attempts=1, budget=Budget(max_decisions=max_decisions), ambiguity_check=True
            )
            result = run_pipeline(instance.text, ZEBRA_FORMAT, OracleFormalizer(instance), config)
            return result.status, [stage for stage, _ in result.log]

        # the budget runs out after the first solution: in the ambiguity search
        assert run(loose, spent + needed - 1) == (PipelineStatus.FAILED_BUDGET, ["ambiguity"])
        assert run(loose, spent + needed) == (PipelineStatus.FAILED_AMBIGUOUS, ["ambiguity"])
        # the unique puzzle's first solution ends its search: solve's
        # decisions are the whole budget it needs, and one fewer fails in solve
        spent = solve(lower(check(parse(render_dsl(zebra_instance))))).stats.decisions
        assert run(zebra_instance, spent) == (PipelineStatus.SOLVED, ["solved"])
        assert run(zebra_instance, spent - 1) == (PipelineStatus.FAILED_BUDGET, ["solve"])

    def test_one_solver_build_per_attempt(self, zebra_instance, monkeypatch):
        # an ambiguous program, then the correct one: each attempt runs solve
        # and find_second over one compiled model, one search
        clues = tuple(c for i, c in enumerate(zebra_instance.clues) if i != 1)
        loose = replace(zebra_instance, clues=clues)
        sources = []
        for instance in (loose, zebra_instance):
            oracle = OracleFormalizer(instance)
            ds = oracle.gen_data_structure(instance.text, ZEBRA_FORMAT)
            sources.append((ds, oracle.gen_constraints(ds, instance.text)))

        def counters(outcome, report):
            return (outcome.assignment, outcome.stats.decisions, outcome.stats.propagations,
                    report.second, report.stats.decisions, report.stats.propagations)

        # each call compiling its own model: find_second then searches from
        # the root, and the pipeline's resumes solve's search, so it counts
        # the difference
        expected = []
        for ds, cs in sources:
            model = lower(check(parse(SourceText(ds.text + "\n" + cs.text, "<test>"))))
            outcome = solve(model)
            report = find_second(model, decode(model, outcome.assignment))
            resumed = replace(
                report.stats,
                decisions=report.stats.decisions - outcome.stats.decisions,
                propagations=report.stats.propagations - outcome.stats.propagations,
            )
            expected.append(counters(outcome, replace(report, stats=resumed)))

        builds, searches = [], []
        original_init = engine.CompiledModel.__init__

        def counting_init(self, model):
            builds.append(model)
            original_init(self, model)

        def recording(function):
            def wrapped(view, *args):
                result = function(view, *args)
                searches.append((view, result))
                return result

            return wrapped

        class Scripted:
            steps = iter([text for pair in sources for text in pair])

            def gen_data_structure(self, puzzle_text, expected_format):
                return next(self.steps)

            def gen_constraints(self, data_structure_source, puzzle_text):
                return next(self.steps)

        monkeypatch.setattr(engine.CompiledModel, "__init__", counting_init)
        monkeypatch.setattr(pipeline, "solve", recording(solve))
        monkeypatch.setattr(pipeline, "find_second", recording(find_second))
        config = PipelineConfig(max_attempts=2, ambiguity_check=True)
        result = run_pipeline(zebra_instance.text, ZEBRA_FORMAT, Scripted(), config)
        assert [stage for stage, _ in result.log] == ["ambiguity", "solved"]
        assert result.solution == zebra_instance.truth
        assert len(builds) == 2 and len(searches) == 4
        for attempt in range(2):
            (view, outcome), (same_view, report) = searches[2 * attempt : 2 * attempt + 2]
            assert view is same_view and view.compiled.model is builds[attempt]
            assert counters(outcome, report) == expected[attempt]

    def test_a_program_that_fails_check_fails_semantic(self):
        formalizer = FixedFormalizer(_ONE_ROW + "    assume(x.b == 1)\n")
        config = PipelineConfig(max_attempts=2)
        result = run_pipeline("one row", ExpectedFormat(("a",)), formalizer, config)
        assert result.status is PipelineStatus.FAILED_SEMANTIC
        diagnostic = "formalizer attempt #{}:4:13: UnknownName: class 'C' has no field 'b'"
        assert result.log == [("check", diagnostic.format(1)), ("check", diagnostic.format(2))]

    def test_a_format_column_the_rows_lack_fails_semantic(self):
        # the program solves, but the expected format names a column that
        # is no field of the row class
        formalizer = FixedFormalizer(_ONE_ROW + "    assume(x.a == 2)\n")
        config = PipelineConfig(max_attempts=1)
        result = run_pipeline("one row", ExpectedFormat(("a", "color")), formalizer, config)
        assert result.status is PipelineStatus.FAILED_SEMANTIC
        assert result.solution is None
        assert [stage for stage, _ in result.log] == ["format"]
        assert run_pipeline("one row", ExpectedFormat(("a",)), formalizer, config).formatted == {
            "rows": [{"a": 2}]
        }

    def test_ambiguity_check_off_by_default(self, zebra_instance):
        clues = tuple(c for i, c in enumerate(zebra_instance.clues) if i != 1)
        loose = replace(zebra_instance, clues=clues)
        result = run_pipeline(loose.text, ZEBRA_FORMAT, OracleFormalizer(loose))
        assert result.status is PipelineStatus.SOLVED

    def test_solved_table_passes_check_solution(self, zebra_instance):
        result = run_pipeline(
            zebra_instance.text, ZEBRA_FORMAT, OracleFormalizer(zebra_instance)
        )
        program = check(parse(render_dsl(zebra_instance)))
        assert check_solution(program, result.solution)

    def test_empty_puzzle_text_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline("  ", ZEBRA_FORMAT, BrokenFormalizer())

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_fewer_than_one_attempt_is_rejected(self, max_attempts):
        # no attempt would run, and the result would read as a syntax failure
        with pytest.raises(LogicForgeError, match="max_attempts"):
            PipelineConfig(max_attempts=max_attempts)


class TestFormatOutput:
    def test_worked_example_rows(self, zebra_instance):
        table = zebra_instance.truth
        doc = format_output(table, ZEBRA_FORMAT)
        assert doc["rows"][0] == {
            "house": 1,
            "name": "alice",
            "occupation": "engineer",
            "book": "romance",
            "phone": "google pixel 6",
        }
        assert [r["house"] for r in doc["rows"]] == [1, 2, 3, 4]

    def test_single_row_table(self):
        table = SolutionTable(("f",), ({"f": 7},))
        assert format_output(table, ExpectedFormat(("f",))) == {"rows": [{"f": 7}]}

    def test_missing_column_raises(self, zebra_instance):
        with pytest.raises(FormatError):
            format_output(
                zebra_instance.truth,
                ExpectedFormat(("house", "color"), position="house"),
            )


@pytest.fixture(scope="module")
def zebra_dsl_program(zebra_instance):
    from logicforge.bench.render import render_dsl
    from logicforge.frontend import check, parse

    return check(parse(render_dsl(zebra_instance)))


class TestCheckSolution:
    def test_truth_passes(self, zebra_dsl_program, zebra_instance):
        assert check_solution(zebra_dsl_program, zebra_instance.truth)

    def test_swapping_two_people_fails(self, zebra_dsl_program, zebra_instance):
        rows = [dict(r) for r in zebra_instance.truth.rows]
        # swap alice and peter: violates "alice is not in house 2"
        rows[0]["name"], rows[1]["name"] = rows[1]["name"], rows[0]["name"]
        candidate = SolutionTable(zebra_instance.truth.columns, tuple(rows), "house_number")
        assert not check_solution(zebra_dsl_program, candidate)

    def test_duplicate_unique_value_fails(self, zebra_dsl_program, zebra_instance):
        rows = [dict(r) for r in zebra_instance.truth.rows]
        rows[0]["phone"] = rows[1]["phone"]
        candidate = SolutionTable(zebra_instance.truth.columns, tuple(rows), "house_number")
        assert not check_solution(zebra_dsl_program, candidate)

    def test_out_of_domain_value_fails(self, zebra_dsl_program, zebra_instance):
        rows = [dict(r) for r in zebra_instance.truth.rows]
        rows[0]["phone"] = "nokia 3310"
        candidate = SolutionTable(zebra_instance.truth.columns, tuple(rows), "house_number")
        assert not check_solution(zebra_dsl_program, candidate)

    def test_empty_validator_accepts_distinct_tables(self):
        from conftest import compile_source

        program, _ = compile_source(
            'class E:\n    p: Unique[Domain[int, range(1, 3)]]\n'
            "class S:\n    items: list[E, 2]\n"
            "def v(s: S) -> None:\n"
            "    x = nondet(s.items)\n"
            "    assume(x.p >= 1)\n"
        )
        table = SolutionTable(("p",), ({"p": 1}, {"p": 2}), "p")
        assert check_solution(program, table)

    def test_a_program_that_indexes_its_rows_passes_its_solved_table(self):
        # decode stores rows by position, not by slot: here the solution puts
        # g = 1 in slot 0 at position 1, and the table lists position 0 first
        from conftest import compile_source

        program, model = compile_source(
            "class E:\n    p: Unique[Domain[int, range(0, 2)]]\n"
            "    g: Domain[int, range(0, 3)]\n"
            "class S:\n    items: list[E, 2]\n"
            "def v(s: S) -> None:\n"
            "    x = s.items[0]\n"
            "    assume(x.p == 1)\n"
            "    assume(x.g == 1)\n"
        )
        outcome = solve(model)
        table = decode(model, outcome.assignment)
        assert table.rows[0]["p"] == 0 and table.rows[1]["g"] == 1
        assert check_solution(program, table)
        # the same table in either row order, and no order passes without g = 1
        flipped = SolutionTable(table.columns, table.rows[::-1], "p")
        assert flipped == table and check_solution(program, flipped)
        rows = ({"p": 0, "g": 1}, {"p": 1, "g": 2})
        assert not check_solution(program, SolutionTable(table.columns, rows, "p"))

    def test_shape_mismatch_raises(self, zebra_dsl_program):
        with pytest.raises(ShapeError):
            check_solution(
                zebra_dsl_program, SolutionTable(("wrong",), ({"wrong": 1},))
            )

    def test_wrong_row_count_raises(self):
        from conftest import compile_source

        program, _ = compile_source(
            "class R:\n    n: Unique[Domain[int, range(1, 3)]]\n"
            "class S:\n    rows: list[R, 2]\n"
            "def v(x: S) -> None:\n"
            "    assume(x.rows[0].n >= 1)\n"
        )
        for rows in (({"n": 1},), ({"n": 1}, {"n": 2}, {"n": 2})):
            with pytest.raises(ShapeError, match=f"table has {len(rows)} rows, expected 2"):
                check_solution(program, SolutionTable(("n",), rows, "n"))

    def test_a_nondet_inside_an_assume_tries_every_pick(self):
        # the first pick makes the assume false, so the search goes on to
        # the next; a table where every pick does fails
        from conftest import compile_source

        program, _ = compile_source(
            "class E:\n    p: Unique[Domain[int, range(1, 3)]]\n"
            "    g: Domain[int, range(0, 3)]\n"
            "class S:\n    items: list[E, 2]\n"
            "def v(s: S) -> None:\n"
            "    assume(nondet(s.items).g == 2)\n"
        )
        passing = ({"p": 1, "g": 1}, {"p": 2, "g": 2})
        assert check_solution(program, SolutionTable(("p", "g"), passing, "p"))
        failing = ({"p": 1, "g": 1}, {"p": 2, "g": 0})
        assert not check_solution(program, SolutionTable(("p", "g"), failing, "p"))

    def test_row_missing_a_column_raises(self):
        from conftest import compile_source

        program, _ = compile_source(
            "class R:\n    n: Unique[Domain[int, range(1, 3)]]\n"
            '    s: Domain[str, "a", "b"]\n'
            "class S:\n    rows: list[R, 2]\n"
            "def v(x: S) -> None:\n"
            "    assume(x.rows[0].n >= 1)\n"
        )
        table = SolutionTable(("n", "s"), ({"n": 1, "s": "a"}, {"n": 2}))
        with pytest.raises(ShapeError, match="row 1"):
            check_solution(program, table)


class TestReplay:
    def test_recorded_oracle_run_replays_bit_for_bit(self, zebra_instance, tmp_path):
        transcript_path = tmp_path / "transcript.jsonl"
        recorder = RecordingFormalizer(
            OracleFormalizer(zebra_instance), TranscriptWriter(transcript_path)
        )
        original = run_pipeline(zebra_instance.text, ZEBRA_FORMAT, recorder)
        assert original.status is PipelineStatus.SOLVED

        replayed = run_pipeline(
            zebra_instance.text, ZEBRA_FORMAT, ReplayFormalizer(transcript_path)
        )
        assert replayed.to_json_dict() == original.to_json_dict()
        assert json.dumps(replayed.to_json_dict(), sort_keys=True) == json.dumps(
            original.to_json_dict(), sort_keys=True
        )

    def test_canned_transcript_reproduces_stored_result(self):
        from conftest import DATA_DIR

        result = run_pipeline(
            "puzzle text (ignored by the replay)",
            ZEBRA_FORMAT,
            ReplayFormalizer(DATA_DIR / "zebra_transcript.jsonl"),
        )
        expected = json.loads((DATA_DIR / "zebra_expected_result.json").read_text())
        assert result.to_json_dict() == expected
