"""Puzzle generation, rendering, dataset files, metrics, and the runner."""

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicforge.bench import (
    GenSpec,
    OracleFormalizer,
    classify_shape,
    clue_holds,
    generate_puzzle,
    generate_tasks,
    load_dataset,
    oracle_formalizer_factory,
    render_dsl,
    run_bench,
    save_dataset,
    score,
    task_from_instance,
)
from logicforge.bench import puzzle, render
from logicforge.bench.puzzle import DIRECTLY_LEFT, NEXT_TO, NOT_AT_POSITION, Clue
from logicforge.bench.render import (
    clue_text,
    render_constraints,
    render_instance_dsl,
)
from logicforge.bench.score import EmptyInput, TaskResult
from logicforge.errors import BudgetExceeded, DatasetError, GenerationError, InternalError
from logicforge.frontend import SourceText, check, parse
from logicforge.model import decode, lower
from logicforge.model.decode import SolutionTable, encode
from logicforge.solver import Budget, brute_force, find_second, solve

from conftest import chained_condition, nested_condition


def make_table(cells_by_house: dict[int, dict[str, str]]) -> SolutionTable:
    features = sorted(next(iter(cells_by_house.values())))
    columns = ("house_number",) + tuple(features)
    rows = tuple(
        {"house_number": pos, **cells_by_house[pos]} for pos in sorted(cells_by_house)
    )
    return SolutionTable(columns, rows, "house_number")


def four_by_four_truth(tag: str) -> SolutionTable:
    return make_table(
        {
            pos: {f"f{k}": f"{tag}-{k}-{(pos + k) % 4}" for k in range(4)}
            for pos in range(1, 5)
        }
    )


class TestGenerator:
    def test_seed_42_4x4_is_unique_and_solvable(self):
        instance = generate_puzzle(42, 4, 4)
        model = lower(check(parse(render_dsl(instance))))
        outcome = solve(model)
        assert outcome.is_sat
        assert decode(model, outcome.assignment) == instance.truth
        assert not find_second(model, outcome.assignment).ambiguous
        # certified against the exhaustive oracle as well
        solutions = brute_force(model)
        assert len(solutions) == 1
        assert decode(model, solutions[0]) == instance.truth

    def test_same_seed_is_byte_identical(self):
        a = generate_puzzle(7, 3, 4)
        b = generate_puzzle(7, 3, 4)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_different_seeds_differ(self):
        assert generate_puzzle(1, 3, 3).truth != generate_puzzle(2, 3, 3).truth

    def test_out_of_range_shape_rejected(self):
        with pytest.raises(GenerationError):
            generate_puzzle(1, 1, 3)
        with pytest.raises(GenerationError):
            generate_puzzle(1, 3, 7)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        entities=st.integers(2, 4),
        features=st.integers(2, 4),
    )
    def test_instance_invariants(self, seed, entities, features):
        instance = generate_puzzle(seed, entities, features)
        assert instance.n_entities == entities and instance.n_features == features
        assert len(instance.features) == features
        for f in instance.features:
            assert len(f.values) == entities
            assert len(set(f.values)) == entities
        truth = {
            f.name: tuple(row[f.name] for row in instance.truth.rows)
            for f in instance.features
        }
        assert all(clue_holds(c, truth, entities) for c in instance.clues)
        assert instance.text.startswith(f"There are {entities} houses")
        for i in range(len(instance.clues)):
            assert f"{i + 1}." in instance.text
        # the truth table passes the rendered program's own validator
        from logicforge.agent import check_solution

        program = check(parse(render_dsl(instance)))
        assert check_solution(program, instance.truth)


def truth_columns(instance) -> dict[str, tuple[str, ...]]:
    return {
        f.name: tuple(row[f.name] for row in instance.truth.rows) for f in instance.features
    }


# Names slot 0's position var directly: a program with it does not let rows
# trade places, so find_second must not order them.
ROW_CLUE = "    assert solution.houses[0].house_number == 1\n"


def lowered_subset(features, clues, n, row_clue=False):
    """The model of the program rendered from ``clues`` alone, plus ROW_CLUE."""
    text = render_instance_dsl(features, clues, n).text + (ROW_CLUE if row_clue else "")
    return lower(check(parse(text)))


def compile_with_row_clue(monkeypatch, features, candidates, n):
    """The generator's compiled candidates with ROW_CLUE as one more clue,
    the last."""
    rendered = render.render_instance_dsl

    def plus_row_clue(features, clues, n):
        source = rendered(features, clues[:-1], n)
        return dataclasses.replace(source, text=source.text + ROW_CLUE)

    with monkeypatch.context() as patch:
        patch.setattr(render, "render_instance_dsl", plus_row_clue)
        return puzzle._compile_candidates(features, candidates + [None], n)


def shuffled_candidates(n, seed):
    instance = generate_puzzle(42, n, n)
    rng = random.Random(seed)
    candidates = puzzle._sample_candidates(rng, instance.features, truth_columns(instance), n)
    rng.shuffle(candidates)
    return instance, candidates, rng


def search_counts(view, first, budget=None) -> tuple:
    """Verdict and counters of find_second and of solve over a view."""
    report = find_second(view, first, budget)
    outcome = solve(view, budget)
    stats = (report.stats.decisions, report.stats.propagations)
    return report.ambiguous, stats, (outcome.stats.decisions, outcome.stats.propagations)


def assert_searches_alike(view, first, model, model_first) -> tuple[int, int]:
    """find_second and solve take the same steps to the same tables over the
    view as over ``model``, the lowered program of its clues alone. Returns
    the uniqueness search's (decisions, propagations)."""
    ours, theirs = find_second(view, first), find_second(model, model_first)
    assert ours.ambiguous == theirs.ambiguous
    assert (ours.stats.decisions, ours.stats.propagations) == (
        theirs.stats.decisions,
        theirs.stats.propagations,
    )
    if ours.ambiguous:
        assert decode(view.compiled.model, ours.second) == decode(model, theirs.second)
    solved, reference = solve(view), solve(model)
    assert (solved.stats.decisions, solved.stats.propagations) == (
        reference.stats.decisions,
        reference.stats.propagations,
    )
    assert decode(view.compiled.model, solved.assignment) == decode(model, reference.assignment)
    return ours.stats.decisions, ours.stats.propagations


class TestCompiledCandidates:
    """The generator lowers its candidate program and builds its solver
    model once; each uniqueness check switches per-clue constraint slices on."""

    @pytest.mark.parametrize("n,golden", [(4, (33, 2707)), (5, (112, 4507))], ids=["4", "5"])
    def test_view_searches_like_the_rendered_subset(self, n, golden):
        instance, candidates, rng = shuffled_candidates(n, 3)
        features = instance.features
        compiled, slices = puzzle._compile_candidates(features, candidates, n)
        first = encode(compiled.model, instance.truth)
        total = (0, 0)
        for _ in range(20):
            subset = sorted(rng.sample(range(len(candidates)), rng.randint(1, len(candidates))))
            model = lowered_subset(features, [candidates[i] for i in subset], n)
            view = puzzle._view(compiled, slices, subset)
            counts = assert_searches_alike(view, first, model, encode(model, instance.truth))
            total = (total[0] + counts[0], total[1] + counts[1])
        # summed uniqueness counters as the per-check solver build gave them,
        # which a fault that hits views and plain models alike still moves
        assert total == golden

    def test_a_clue_naming_a_row_var_switches_the_row_order_off(self, monkeypatch):
        n = 4
        instance, candidates, rng = shuffled_candidates(n, 5)
        features = instance.features
        compiled, slices = compile_with_row_clue(monkeypatch, features, candidates, n)
        first = encode(compiled.model, instance.truth)
        row_clue = len(candidates)
        differ = 0
        for k in range(12):
            subset = sorted(rng.sample(range(len(candidates)), rng.randint(1, len(candidates))))
            counts = []
            for on in (True, False):
                view = puzzle._view(compiled, slices, subset + [row_clue] * on)
                model = lowered_subset(features, [candidates[i] for i in subset], n, row_clue=on)
                assert compiled.orders_rows(view.active) is model.rows_orderable() is not on
                counts.append(assert_searches_alike(view, first, model, encode(model, instance.truth)))
            differ += counts[0] != counts[1]
        # the two orders search differently, so the comparisons above tell them apart
        assert differ

    def test_a_compiled_model_searches_each_view_like_a_fresh_build(self, monkeypatch):
        n = 4
        instance, candidates, rng = shuffled_candidates(n, 7)
        features = instance.features
        compiled, slices = compile_with_row_clue(monkeypatch, features, candidates, n)
        first = encode(compiled.model, instance.truth)
        row_clue = len(candidates)
        few = sorted(rng.sample(range(len(candidates)), 3))
        many = sorted(rng.sample(range(len(candidates)), len(candidates) // 2))
        subsets = [few, few + [row_clue], many, many + [row_clue]]

        def fresh(subset, truth=first):
            rebuilt, rebuilt_slices = compile_with_row_clue(monkeypatch, features, candidates, n)
            return search_counts(puzzle._view(rebuilt, rebuilt_slices, subset), truth)

        expected = [fresh(subset) for subset in subsets]
        views = [puzzle._view(compiled, slices, subset) for subset in subsets]
        # row order off first, then built, then off again; each view twice
        for i in (1, 1, 0, 3, 2, 1, 0, 2, 3):
            assert search_counts(views[i], first) == expected[i]
        # a check cut short by its budget leaves nothing behind for the next
        decisions = expected[0][1][0]
        assert decisions > 1
        with pytest.raises(BudgetExceeded):
            find_second(views[0], first, Budget(max_decisions=decisions - 1))
        for i in (0, 2, 1):
            assert search_counts(views[i], first) == expected[i]
        # a check against another first table compares with that table
        other = find_second(views[0], first).second
        assert other is not None
        assert search_counts(views[2], other) == fresh(subsets[2], other)
        assert search_counts(views[2], first) == expected[2]

    @pytest.mark.parametrize(
        "n,golden", [(4, (32, 47, 4318)), (5, (60, 164, 16531))], ids=["4", "5"]
    )
    def test_generator_checks_count_as_a_build_per_check_did(self, monkeypatch, n, golden):
        # (checks, decisions, propagations) summed over one puzzle's
        # uniqueness checks, as a solver built per check counted them
        reports = []

        def recording(*args):
            reports.append(find_second(*args))
            return reports[-1]

        monkeypatch.setattr(puzzle, "find_second", recording)
        generate_puzzle(42, n, n)
        decisions = sum(r.stats.decisions for r in reports)
        assert (len(reports), decisions, sum(r.stats.propagations for r in reports)) == golden

    def test_slice_count_must_match_clue_count(self, monkeypatch):
        rendered = render.render_instance_dsl

        def one_assert_too_many(features, clues, n):
            source = rendered(features, clues, n)
            extra = "    assert solution.houses[0].house_number >= 1\n"
            return dataclasses.replace(source, text=source.text + extra)

        monkeypatch.setattr(render, "render_instance_dsl", one_assert_too_many)
        with pytest.raises(InternalError, match="assert slices"):
            generate_puzzle(1, 3, 3)

    def test_one_compile_one_search_per_check(self, monkeypatch):
        names = ("parse", "check", "lower", "CompiledModel", "_view", "solve", "find_second")
        calls: dict[str, list] = {name: [] for name in names}

        def counting(name):
            fn = getattr(puzzle, name)

            def wrapper(*args):
                result = fn(*args)
                calls[name].append((args, result))
                return result

            return wrapper

        for name in calls:
            monkeypatch.setattr(puzzle, name, counting(name))
        budget = Budget(max_time=20.0)
        generate_puzzle(42, 4, 4, budget=budget)
        once = ("parse", "check", "lower", "CompiledModel", "solve")
        assert [len(calls[name]) for name in once] == [1] * len(once)
        # one view per check, plus the final solve's
        assert len(calls["find_second"]) == len(calls["_view"]) - 1 > 1
        ((_, compiled),) = calls["CompiledModel"]
        searched = calls["solve"] + calls["find_second"]
        assert all(args[0].compiled is compiled for args, _ in searched)
        assert all(args[-1] is budget for args, _ in searched)

    def test_clues_that_reject_the_truth_are_refused(self, monkeypatch):
        # the first person's name is in no house: no table satisfies the clues
        def contradictory(rng, features, truth, n):
            name = truth["name"][0]
            return [Clue(NOT_AT_POSITION, "name", name, pos=p) for p in range(1, n + 1)]

        monkeypatch.setattr(puzzle, "_sample_candidates", contradictory)
        with pytest.raises(GenerationError, match="rejected their own truth table"):
            generate_puzzle(5, 3, 3)


class TestRenderDsl:
    def test_directly_left_uses_position_minus_one(self):
        source = render_constraints([Clue(DIRECTLY_LEFT, "name", "alice", "book", "fantasy")])
        assert "assert name_1.house_number == book_2.house_number - 1" in source.text

    def test_next_to_uses_abs_difference(self):
        source = render_constraints([Clue(NEXT_TO, "name", "alice", "book", "fantasy")])
        assert "assert abs(name_1.house_number - book_2.house_number) == 1" in source.text

    def test_zero_clue_instance_renders_and_is_ambiguous(self, zebra_instance):
        bare = dataclasses.replace(zebra_instance, clues=())
        model = lower(check(parse(render_dsl(bare))))
        outcome = solve(model)
        assert outcome.is_sat
        assert find_second(model, outcome.assignment).ambiguous

    def test_values_lowercased(self):
        from logicforge.bench.puzzle import Feature
        from logicforge.bench.render import render_data_structure

        source = render_data_structure((Feature("name", ("Alice", "Bob")),), 2)
        assert '"alice", "bob"' in source.text

    def test_clue_text_templates(self):
        assert clue_text(Clue("at_position", "name", "alice", pos=2)) == "Alice is in house 2."
        assert (
            clue_text(Clue("left_of", "book", "fantasy", "name", "bob"))
            == "the person whose book is fantasy is somewhere to the left of Bob."
        )


class TestScore:
    def test_half_and_partial(self):
        truth_a, truth_b = four_by_four_truth("a"), four_by_four_truth("b")
        # 12 of 16 cells correct: change one feature column entirely
        predicted_b = make_table(
            {
                pos: {
                    **{col: truth_b.rows[pos - 1][col] for col in truth_b.columns if col != "house_number"},
                    "f0": f"wrong-{pos}",
                }
                for pos in range(1, 5)
            }
        )
        results = [
            TaskResult("a", "4x4", "Solved", truth_a, truth_a),
            TaskResult("b", "4x4", "Solved", truth_b, predicted_b),
        ]
        report = score(results)
        assert report.puzzle_accuracy == 0.5
        assert report.cell_accuracy == 28 / 32 == 0.875

    def test_all_correct(self):
        truth = four_by_four_truth("a")
        report = score([TaskResult("t", "4x4", "Solved", truth, truth)] * 3)
        assert report.puzzle_accuracy == 1.0 and report.cell_accuracy == 1.0

    def test_all_missing(self):
        truth = four_by_four_truth("a")
        report = score([TaskResult("t", "4x4", "FailedSyntax", truth, None)] * 3)
        assert report.puzzle_accuracy == 0.0 and report.cell_accuracy == 0.0

    def test_row_order_does_not_penalise(self):
        truth = four_by_four_truth("a")
        shuffled = SolutionTable(truth.columns, tuple(reversed(truth.rows)), "house_number")
        report = score([TaskResult("t", "4x4", "Solved", truth, shuffled)])
        assert report.puzzle_accuracy == 1.0 and report.cell_accuracy == 1.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            score([])

    def test_splits_follow_shape_lists(self):
        assert classify_shape(3, 3) == "easy"
        assert classify_shape(3, 2) == "easy"
        assert classify_shape(2, 6) == "easy"
        assert classify_shape(3, 4) == "hard"
        assert classify_shape(4, 4) == "hard"
        assert classify_shape(6, 6) == "hard"
        truth_easy, truth_hard = four_by_four_truth("e"), four_by_four_truth("h")
        report = score(
            [
                TaskResult("e", "3x3", "Solved", truth_easy, truth_easy),
                TaskResult("h", "4x4", "Solved", truth_hard, None),
            ]
        )
        assert report.easy.count == 1 and report.easy.puzzle_accuracy == 1.0
        assert report.hard.count == 1 and report.hard.puzzle_accuracy == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_permutation_invariance(self, order):
        truths = [four_by_four_truth(f"t{i}") for i in range(6)]
        results = [
            TaskResult(f"t{i}", "4x4", "Solved", truths[i], truths[i] if i % 2 else None)
            for i in range(6)
        ]
        base = score(results).to_json_dict()
        shuffled = score([results[i] for i in order]).to_json_dict()
        del base["wall_clock"], shuffled["wall_clock"]
        assert base == shuffled

    def test_counts_reconcile(self):
        truth = four_by_four_truth("a")
        results = [
            TaskResult("a", "4x4", "Solved", truth, truth),
            TaskResult("b", "4x4", "FailedUnsat", truth, None),
            TaskResult("c", "4x4", "FailedSyntax", truth, None),
        ]
        report = score(results)
        assert sum(report.status_counts.values()) == len(results)


class TestDataset:
    def test_round_trip(self, tmp_path, zebra_instance):
        tasks = [task_from_instance(zebra_instance)]
        path = tmp_path / "d.jsonl"
        save_dataset(tasks, path)
        loaded, errors = load_dataset(path)
        assert not errors
        assert len(loaded) == 1
        assert loaded[0].id == tasks[0].id
        assert loaded[0].truth == tasks[0].truth
        assert loaded[0].instance.to_json_dict() == zebra_instance.to_json_dict()

    def test_malformed_line_collected(self, tmp_path, zebra_instance):
        path = tmp_path / "d.jsonl"
        good = json.dumps(task_from_instance(zebra_instance).to_json_dict())
        path.write_text(good + "\n" + '{"id": "x"}' + "\n" + good + "\n")
        tasks, errors = load_dataset(path)
        assert len(tasks) == 2
        assert len(errors) == 1
        assert errors[0].line_no == 2

    @pytest.mark.parametrize("size", ["9", "4x", "4x4x4", "fourxfour"])
    def test_size_not_of_the_form_nxm_is_a_schema_error(self, tmp_path, zebra_instance, size):
        path = tmp_path / "d.jsonl"
        good = task_from_instance(zebra_instance).to_json_dict()
        path.write_text("\n".join(json.dumps(d) for d in (good, {**good, "size": size}, good)) + "\n")
        tasks, errors = load_dataset(path)
        assert len(tasks) == 2
        assert [e.line_no for e in errors] == [2]
        assert "NxM" in str(errors[0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        assert load_dataset(path) == ([], [])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "nope.jsonl")

    def test_all_lines_bad_is_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("not json\n{}\n")
        with pytest.raises(DatasetError):
            load_dataset(path)


@pytest.fixture(scope="module")
def small_tasks():
    return generate_tasks(GenSpec(seed=5, shapes=(("2x3", 3), ("3x3", 3))))


class TestRunner:
    def test_oracle_run_is_perfect(self, small_tasks, tmp_path):
        out = tmp_path / "report.json"
        report = run_bench(small_tasks, oracle_formalizer_factory, concurrency=4, out_path=out)
        assert report.puzzle_accuracy == 1.0
        assert report.cell_accuracy == 1.0
        assert out.exists()
        results_path = out.with_suffix(".results.jsonl")
        lines = results_path.read_text().splitlines()
        assert len(lines) == len(small_tasks)
        # final results are in task order regardless of completion order
        assert [json.loads(l)["task_id"] for l in lines] == [t.id for t in small_tasks]

    def test_concurrency_does_not_change_the_report(self, small_tasks):
        serial = run_bench(small_tasks, oracle_formalizer_factory, concurrency=1)
        parallel = run_bench(small_tasks, oracle_formalizer_factory, concurrency=8)
        a = serial.to_json_dict(include_wall_clock=False)
        b = parallel.to_json_dict(include_wall_clock=False)
        assert a == b
        for x, y in zip(serial.results, parallel.results):
            assert x.to_json_dict() | {"elapsed": 0} == y.to_json_dict() | {"elapsed": 0}

    def test_gen_spec_tasks_are_deterministic(self):
        spec = GenSpec(seed=9, shapes=(("2x3", 2),))
        a = [t.to_json_dict() for t in generate_tasks(spec)]
        b = [t.to_json_dict() for t in generate_tasks(spec)]
        assert a == b

    def test_generated_tasks_match_their_golden_digest(self, small_tasks, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset(small_tasks, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "4df276c2570339b43c0199d59d086db35c2160b51c4e8ca1d7a2e2d477f7db9d"

    def test_duplicate_task_ids_rejected(self, small_tasks):
        from logicforge.errors import LogicForgeError

        with pytest.raises(LogicForgeError):
            run_bench([small_tasks[0], small_tasks[0]], oracle_formalizer_factory)

    @pytest.mark.parametrize(
        "clue,status",
        [
            # 150 levels of nesting overflow the stack of a parser without a
            # depth limit; the RecursionError would then abort the whole run
            (nested_condition("a", 150), "FailedSyntax"),
            # a 1000-term sum parses in a loop, but every later stage recurses
            # on its 1000-deep tree
            (chained_condition("a", 1000), "FailedSyntax"),
            # Python's own parser gives up on these: its C stack guard on
            # 10^5 nested `not`, its limit of 200 on the parentheses
            ("not " * 10**5 + "a.house_number > 0", "FailedSyntax"),
            ("(" * 300 + "a.house_number > 0" + ")" * 300, "FailedSyntax"),
            # literals far outside every domain: no domain mask may be
            # shifted by them
            ("a.house_number == 1000000000000", "FailedUnsat"),
            ("abs(a.house_number - b.house_number) == 1000000000000", "FailedUnsat"),
            ("a.house_number == b.house_number - -1000000000000", "FailedUnsat"),
            # more digits than Python converts to an int
            ("a.house_number == " + "1" * 5000, "FailedSyntax"),
        ],
        ids=[
            "nested", "chained", "deep-not", "parentheses",
            "huge-equals", "huge-abs", "huge-minus", "long-literal",
        ],
    )
    def test_hostile_program_fails_only_its_own_task(self, small_tasks, tmp_path, clue, status):
        hostile = small_tasks[0].id

        class HostileFormalizer(OracleFormalizer):
            def gen_constraints(self, data_structure_source, puzzle_text):
                text = super().gen_constraints(data_structure_source, puzzle_text).text
                extra = (
                    "    a = nondet(solution.houses)\n"
                    "    b = nondet(solution.houses)\n"
                    "    assert " + clue + "\n"
                )
                return SourceText(text + "\n" + extra)

        def factory(task):
            if task.id == hostile:
                return HostileFormalizer(task.instance)
            return oracle_formalizer_factory(task)

        out = tmp_path / "report.json"
        report = run_bench(small_tasks, factory, concurrency=2, out_path=out)
        statuses = {r.task_id: r.status for r in report.results}
        assert statuses.pop(hostile) == status
        assert set(statuses.values()) == {"Solved"}
        assert report.status_counts == {status: 1, "Solved": len(small_tasks) - 1}
        assert out.exists()

    def test_partial_results_survive_an_aborted_run(self, small_tasks, tmp_path):
        out = tmp_path / "report.json"
        boom = len(small_tasks) - 1

        def factory(task):
            if task.id == small_tasks[boom].id:
                raise RuntimeError("injected crash")
            return oracle_formalizer_factory(task)

        with pytest.raises(RuntimeError):
            run_bench(small_tasks, factory, concurrency=1, out_path=out)
        partial = out.with_suffix(".partial.jsonl")
        assert partial.exists()
        flushed = [json.loads(line) for line in partial.read_text().splitlines()]
        assert len(flushed) == boom  # everything completed before the crash
        assert not out.exists()  # no final report for an aborted run
