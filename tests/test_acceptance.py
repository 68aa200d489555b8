"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (run with ``pytest -s`` to see them
as the suite progresses). Criterion 8 documents what a desk-scale run cannot
reproduce and verifies the recorded-transcript replay contract instead.
"""

import dataclasses
import json
import time

import pytest

from logicforge.agent import (
    ExpectedFormat,
    PipelineConfig,
    PipelineStatus,
    ReplayFormalizer,
    run_pipeline,
)
from logicforge.bench import (
    GenSpec,
    OracleFormalizer,
    generate_tasks,
    oracle_formalizer_factory,
    render_dsl,
    run_bench,
    score,
)
from logicforge.bench.puzzle import LEFT_OF, Clue, generate_puzzle
from logicforge.bench.score import TaskResult
from logicforge.cemit import emit
from logicforge.frontend import SourceText, check, parse
from logicforge.frontend.ast import Assert, Assume, DslProgram, FuncDecl
from logicforge.model import decode, lower
from logicforge.model.decode import SolutionTable
from logicforge.solver import Status, brute_force, find_second, solve, verify

from conftest import DATA_DIR
from test_agent import BrokenFormalizer, FaultInjectingFormalizer

EXPECTED_4X4 = {
    1: ("Alice", "engineer", "romance", "google pixel 6"),
    2: ("Peter", "artist", "fantasy", "samsung galaxy s21"),
    3: ("Eric", "teacher", "science fiction", "iphone 13"),
    4: ("Arnold", "doctor", "mystery", "oneplus 9"),
}

# 200 puzzles spanning the brute-forceable shapes
EQUIVALENCE_SHAPES = (
    ("2x3", 40),
    ("2x4", 40),
    ("3x3", 40),
    ("3x4", 35),
    ("4x3", 30),
    ("4x4", 15),
)


def _passed(n: int, text: str) -> None:
    print(f"\nCRITERION {n} PASS: {text}")


def _solve_route(program):
    model = lower(program)
    outcome = solve(model)
    assert outcome.is_sat
    report = find_second(model, outcome.assignment)
    return decode(model, outcome.assignment), report


# b is in house 1 and the first slot holds a: a and c take houses 2 and 3
# in either order, unless a pin puts the first slot in house 3
DIRECT_INDEX = (
    "class H:\n"
    "    p: Unique[Domain[int, range(1, 4)]]\n"
    '    n: Unique[Domain[str, "a", "b", "c"]]\n'
    "class S:\n"
    "    items: list[H, 3]\n"
    "def v(s: S) -> None:\n"
    '    assert s.items[0].n == "a"\n'
    "    x = nondet(s.items)\n"
    '    assume(x.n == "b")\n'
    "    assert x.p == 1\n"
)


def _assert_find_second_agrees(model) -> bool:
    """find_second's verdict matches the oracle's table count, and a second
    assignment is valid and decodes to a different table. Returns the verdict."""
    outcome = solve(model)
    tables = {decode(model, a).key() for a in brute_force(model)}
    assert outcome.is_sat == bool(tables)
    report = find_second(model, outcome.assignment)
    assert report.ambiguous == (len(tables) >= 2)
    if report.ambiguous:
        assert verify(model, report.second)
        assert decode(model, report.second) != decode(model, report.first)
    return report.ambiguous


class TestCriterion1WorkedExample:
    def test_worked_example_end_to_end(self, zebra_instance):
        start = time.perf_counter()

        # route 1: the checked-in hand-written source file
        path = DATA_DIR / "zebra_4x4.lpy"
        program = check(parse(SourceText(path.read_text(encoding="utf-8"), str(path))))
        table, report = _solve_route(program)
        for row in table.rows:
            name, occupation, book, phone = EXPECTED_4X4[row["house_number"]]
            assert row["name"] == name
            assert row["occupation"] == occupation
            assert row["book"] == book
            assert row["phone"] == phone
        assert not report.ambiguous

        # route 2: the same puzzle as a structured instance through the
        # oracle formalizer (values lowercase by its convention)
        program2 = check(parse(render_dsl(zebra_instance)))
        table2, report2 = _solve_route(program2)
        assert table2 == zebra_instance.truth
        assert not report2.ambiguous

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"worked example took {elapsed:.2f}s"
        _passed(1, f"4x4 worked example solved and unique in {elapsed * 1000:.0f} ms")


class TestCriterion2OracleEquivalence:
    def test_solver_matches_brute_force_on_200_puzzles(self):
        start = time.perf_counter()
        tasks = generate_tasks(GenSpec(seed=20_250, shapes=EQUIVALENCE_SHAPES))
        assert len(tasks) == 200
        checked = 0
        for task in tasks:
            model = lower(check(parse(render_dsl(task.instance))))
            solutions = brute_force(model)  # raises CapExceeded if out of range
            tables = {decode(model, a).key() for a in solutions}
            outcome = solve(model)
            assert outcome.status is Status.SAT, f"{task.id}: solver disagrees on sat"
            assert tables, f"{task.id}: brute force found no solution"
            assert decode(model, outcome.assignment).key() in tables, (
                f"{task.id}: solver table not in brute-force solution set"
            )
            assert len(tables) == 1, f"{task.id}: generated puzzle not unique"
            report = find_second(model, outcome.assignment)
            assert not report.ambiguous, f"{task.id}: ambiguity disagreement"
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 200
        assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
        _passed(2, f"200 puzzles (2x3..4x4): solve == brute force, in {elapsed:.1f}s")

    def test_disagreement_cases_also_agree(self, zebra_instance):
        # unsat and ambiguous variants must agree with the oracle as well
        clues = list(zebra_instance.clues)
        clues[0] = Clue(LEFT_OF, "name", "alice", "name", "alice")
        unsat = dataclasses.replace(zebra_instance, clues=tuple(clues))
        model = lower(check(parse(render_dsl(unsat))))
        assert solve(model).status is Status.UNSAT
        assert brute_force(model) == []

        loose = dataclasses.replace(zebra_instance, clues=zebra_instance.clues[1:])
        _assert_find_second_agrees(lower(check(parse(render_dsl(loose)))))

        # one more position than rows (rows ordered by position), and rows
        # indexed directly (not interchangeable, so searched unordered); each
        # pair has an ambiguous and a unique program
        verdicts = []
        for seed, n, f in ((1, 3, 3), (2, 3, 4)):
            text = render_dsl(generate_puzzle(seed, n, f)).text
            text = text.replace(f"range(1, {n + 1})", f"range(1, {n + 2})", 1)
            verdicts.append(_assert_find_second_agrees(lower(check(parse(SourceText(text, "off-by-one"))))))
        for pin in ("", "    assert s.items[0].p == 3\n"):
            model = lower(check(parse(SourceText(DIRECT_INDEX + pin, "direct-index"))))
            assert model.layout.position_field == "p" and not model.slot_symmetric()
            verdicts.append(_assert_find_second_agrees(model))
        assert verdicts == [True, False, True, False]


class TestCriterion3RecoveryEdges:
    FMT = ExpectedFormat(("house_number", "name", "occupation", "book", "phone"))

    def test_a_contradiction_unsat_and_fault_then_correct(self, zebra_instance):
        clues = list(zebra_instance.clues)
        clues[1] = Clue(LEFT_OF, "book", "fantasy", "book", "fantasy")
        broken = dataclasses.replace(zebra_instance, clues=tuple(clues))
        model = lower(check(parse(render_dsl(broken))))
        assert solve(model).status is Status.UNSAT

        formalizer = FaultInjectingFormalizer(OracleFormalizer(zebra_instance), failures=1)
        result = run_pipeline(zebra_instance.text, self.FMT, formalizer)
        assert result.status is PipelineStatus.SOLVED
        assert result.attempts == 2
        _passed(3, "(a) contradiction is Unsat; fault-then-correct solves on attempt 2")

    def test_b_unparseable_formalizer(self, zebra_instance):
        config = PipelineConfig(max_attempts=5)
        result = run_pipeline(zebra_instance.text, self.FMT, BrokenFormalizer(), config)
        assert result.status is PipelineStatus.FAILED_SYNTAX
        assert result.attempts == config.max_attempts
        _passed(3, "(b) unparseable output fails FailedSyntax after max attempts")

    def test_c_ambiguity_detected_when_enabled(self, zebra_instance):
        loose = dataclasses.replace(zebra_instance, clues=tuple(zebra_instance.clues[1:]))
        config = PipelineConfig(max_attempts=2, ambiguity_check=True)
        result = run_pipeline(loose.text, self.FMT, OracleFormalizer(loose), config)
        assert result.status is PipelineStatus.FAILED_AMBIGUOUS
        _passed(3, "(c) removing a uniqueness-critical clue yields FailedAmbiguous")


class TestCriterion4AssertAssumeInterchangeable:
    @staticmethod
    def _flip(program: DslProgram, to_assert: bool) -> DslProgram:
        fn = program.functions[0]
        body = tuple(
            (Assert(s.expr, s.pos) if to_assert else Assume(s.expr, s.pos))
            if isinstance(s, (Assume, Assert))
            else s
            for s in fn.body
        )
        flipped = FuncDecl(fn.name, fn.param_name, fn.param_type, body, fn.pos)
        return DslProgram(program.classes, (flipped,))

    def test_flipping_statements_changes_nothing(self):
        tasks = generate_tasks(GenSpec(seed=808, shapes=(("3x3", 10), ("3x4", 10), ("4x4", 5))))
        for task in tasks:
            program = parse(render_dsl(task.instance))
            outcomes = []
            for variant in (program, self._flip(program, False), self._flip(program, True)):
                model = lower(check(variant))
                outcome = solve(model)
                outcomes.append(
                    (outcome.status, decode(model, outcome.assignment).key(), outcome.stats.decisions)
                )
            assert outcomes[0] == outcomes[1] == outcomes[2], task.id
        _passed(4, "assert<->assume flips leave status, table, and decisions identical (25 programs)")


class TestCriterion5EmitterGoldens:
    def test_goldens(self):
        path = DATA_DIR / "example_6house.lpy"
        program = check(parse(SourceText(path.read_text(encoding="utf-8"), path.name)))
        harness = emit(program)
        assert harness.text == (DATA_DIR / "example_6house.expected.c").read_text(encoding="utf-8")
        structs = harness.section_text("structs")
        assert structs.count("struct House {") == 1
        assert structs.count("struct PuzzleSolution {") == 1
        unique_fields = sum(
            1 for cls in program.program.classes for f in cls.fields if f.unique
        )
        assert harness.section_text("init_helpers").count("__CPROVER_unique_domain(") == unique_fields == 6
        stmt_count = sum(
            1 for s in program.entry.body if isinstance(s, (Assume, Assert))
        )
        assert harness.section_text("validate").count("__CPROVER_assume") == stmt_count == 7
        main = harness.section_text("main").rstrip()
        assert main.splitlines()[-2].strip() == '__CPROVER_assert(false, "");'
        assert harness.text.count('__CPROVER_assert(false, "");') == 1
        assert emit(program).text == harness.text  # byte-stable
        _passed(5, "C harness matches the golden byte-for-byte with the required structure")


class TestCriterion6Metrics:
    def test_metric_fixtures(self):
        def table(tag, wrong_cells=0):
            rows = []
            for pos in range(1, 5):
                row = {"house_number": pos}
                for k in range(4):
                    correct = f"{tag}-{k}-{(pos + k) % 4}"
                    row[f"f{k}"] = "wrong" if (pos - 1) * 4 + k < wrong_cells else correct
                rows.append(row)
            return SolutionTable(
                ("house_number", "f0", "f1", "f2", "f3"), tuple(rows), "house_number"
            )

        truth_a, truth_b = table("a"), table("b")
        fixture = [
            TaskResult("t1", "4x4", "Solved", truth_a, table("a")),
            TaskResult("t2", "4x4", "Solved", truth_b, table("b", wrong_cells=4)),
        ]
        report = score(fixture)
        assert report.puzzle_accuracy == 0.5
        assert report.cell_accuracy == 0.875

        all_correct = score(
            [
                TaskResult("t1", "4x4", "Solved", truth_a, table("a")),
                TaskResult("t2", "4x4", "Solved", truth_b, table("b")),
            ]
        )
        assert (all_correct.puzzle_accuracy, all_correct.cell_accuracy) == (1.0, 1.0)

        all_missing = score(
            [
                TaskResult("t1", "4x4", "FailedSyntax", truth_a, None),
                TaskResult("t2", "4x4", "FailedUnsat", truth_b, None),
            ]
        )
        assert (all_missing.puzzle_accuracy, all_missing.cell_accuracy) == (0.0, 0.0)
        _passed(6, "metrics: 0.5/0.875 on the 2-task fixture, 1.0/1.0 and 0.0/0.0 on the edges")


class TestCriterion7BenchHarness:
    def test_100_puzzles_oracle_concurrency(self, tmp_path):
        start = time.perf_counter()
        spec = GenSpec(
            seed=31_337, shapes=(("3x3", 40), ("3x4", 25), ("4x3", 20), ("4x4", 15))
        )
        tasks = generate_tasks(spec)
        assert len(tasks) == 100
        report8 = run_bench(
            tasks, oracle_formalizer_factory, concurrency=8, out_path=tmp_path / "report.json"
        )
        elapsed = time.perf_counter() - start
        assert report8.puzzle_accuracy == 1.0
        assert elapsed < 120.0, f"bench harness took {elapsed:.1f}s"

        report1 = run_bench(tasks, oracle_formalizer_factory, concurrency=1)
        assert report1.to_json_dict(include_wall_clock=False) == report8.to_json_dict(
            include_wall_clock=False
        )
        _passed(
            7,
            f"100 puzzles, oracle formalizer: accuracy 1.0 in {elapsed:.1f}s; "
            "concurrency 1 and 8 reports identical",
        )


class TestCriterion8ReplayContract:
    """The upstream leaderboard numbers (91.4% puzzle accuracy, 92.98% cell
    accuracy) need a specific hosted 70B model and a private benchmark
    dataset; neither is reproducible at desk scale, so criteria 1-7 stand in
    for them. The LLM path itself is accepted through transcript replay."""

    def test_replay_reproduces_stored_result(self):
        result = run_pipeline(
            "puzzle text (ignored by the replay)",
            ExpectedFormat(("house", "name", "occupation", "book", "phone"), position="house"),
            ReplayFormalizer(DATA_DIR / "zebra_transcript.jsonl"),
        )
        expected = json.loads((DATA_DIR / "zebra_expected_result.json").read_text())
        assert result.to_json_dict() == expected
        _passed(
            8,
            "canned transcript replays to the stored result bit-for-bit "
            "(leaderboard numbers are out of desk-scale scope by design)",
        )
