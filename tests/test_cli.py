"""The logic-forge command line entry points."""

import json

import pytest

from logicforge.bench import GenSpec, generate_tasks, render_dsl, save_dataset
from logicforge.cli import main

from conftest import DATA_DIR

ZEBRA = str(DATA_DIR / "zebra_4x4.lpy")
SIX_HOUSE = str(DATA_DIR / "example_6house.lpy")


class TestSolve:
    def test_solve_prints_table_and_stats(self, capsys):
        assert main(["solve", ZEBRA]) == 0
        out = capsys.readouterr().out
        assert "Alice" in out and "oneplus 9" in out
        assert "decisions=" in out

    def test_unsat_exit_code(self, tmp_path, capsys):
        path = tmp_path / "unsat.lpy"
        path.write_text(
            "class C:\n    f: Domain[int, range(1, 3)]\n"
            "def v(x: C) -> None:\n    assume(x.f == 1)\n    assume(x.f == 2)\n"
        )
        assert main(["solve", str(path)]) == 1
        assert "unsat" in capsys.readouterr().out

    def test_syntax_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.lpy"
        path.write_text("class C\n")
        assert main(["solve", str(path)]) == 2
        assert "syntax" in capsys.readouterr().err

    def test_trace_streams_decision_events(self, capsys):
        assert main(["solve", ZEBRA, "--trace"]) == 0
        err = capsys.readouterr().err
        assert "trace: decide" in err


class TestEmitC:
    def test_emit_to_file(self, tmp_path, capsys):
        out = tmp_path / "harness.c"
        assert main(["emit-c", SIX_HOUSE, "-o", str(out)]) == 0
        text = out.read_text()
        assert text == (DATA_DIR / "example_6house.expected.c").read_text()

    def test_emit_to_stdout(self, capsys):
        assert main(["emit-c", SIX_HOUSE]) == 0
        assert '__CPROVER_assert(false, "");' in capsys.readouterr().out


class TestCheckAmbiguity:
    def test_unique_program(self, capsys):
        assert main(["check-ambiguity", ZEBRA]) == 0
        assert "unique" in capsys.readouterr().out

    def test_ambiguous_program(self, tmp_path, capsys):
        path = tmp_path / "ambiguous.lpy"
        path.write_text(
            "class C:\n    a: Domain[int, range(1, 3)]\n"
            "def v(x: C) -> None:\n    assume(x.a >= 1)\n"
        )
        assert main(["check-ambiguity", str(path)]) == 2
        assert "ambiguous" in capsys.readouterr().out

    def test_find_second_gets_what_solve_left_of_the_budget(self, capsys):
        # solve takes 6 decisions and find_second 3: one budget of 8 runs out
        assert main(["check-ambiguity", ZEBRA, "--max-decisions", "8"]) == 2
        assert "decision budget exhausted" in capsys.readouterr().err
        assert main(["check-ambiguity", ZEBRA, "--max-decisions", "9"]) == 0
        assert "unique" in capsys.readouterr().out


class TestGenAndBench:
    def test_gen_writes_dataset_and_sources(self, tmp_path, capsys):
        out_dir = tmp_path / "puzzles"
        assert main(["gen", "--seed", "3", "--size", "3x3", "-n", "2", "-o", str(out_dir)]) == 0
        dataset = out_dir / "dataset.jsonl"
        assert dataset.exists()
        lines = dataset.read_text().splitlines()
        assert len(lines) == 2
        assert len(list(out_dir.glob("*.lpy"))) == 2

    def test_gen_writes_what_generate_tasks_returns(self, tmp_path, capsys):
        out_dir = tmp_path / "puzzles"
        assert main(["gen", "--seed", "3", "--size", "2x3", "-n", "2", "-o", str(out_dir)]) == 0
        tasks = generate_tasks(GenSpec(3, (("2x3", 2),)))
        save_dataset(tasks, tmp_path / "expected.jsonl")
        assert (out_dir / "dataset.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        for task in tasks:
            expected = render_dsl(task.instance).text.encode("utf-8")
            assert (out_dir / f"{task.id}.lpy").read_bytes() == expected

    def test_bench_on_generated_dataset(self, tmp_path, capsys):
        out_dir = tmp_path / "puzzles"
        main(["gen", "--seed", "3", "--size", "3x3", "-n", "2", "-o", str(out_dir)])
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "bench",
                "--dataset",
                str(out_dir / "dataset.jsonl"),
                "--formalizer",
                "oracle",
                "--concurrency",
                "2",
                "--out",
                str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["puzzle_accuracy"] == 1.0
        assert report_path.with_suffix(".results.jsonl").exists()

    def test_bench_skips_a_dataset_line_whose_size_is_not_of_the_form_nxm(self, tmp_path, capsys):
        out_dir = tmp_path / "puzzles"
        main(["gen", "--seed", "3", "--size", "3x3", "-n", "2", "-o", str(out_dir)])
        dataset = out_dir / "dataset.jsonl"
        first, second = dataset.read_text().splitlines()
        dataset.write_text(first + "\n" + json.dumps({**json.loads(second), "size": "9"}) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["bench", "--dataset", str(dataset), "--out", str(report_path)]) == 0
        err = capsys.readouterr().err
        assert "line 2" in err and "NxM" in err
        assert json.loads(report_path.read_text())["tasks"] == 1

    def test_bench_with_gen_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 4, "shapes": [{"size": "2x3", "count": 2}]}))
        assert main(["bench", "--gen-spec", str(spec_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tasks"] == 2

    @pytest.mark.parametrize("size", ["9", "4x", "x4", "4x4x4", "fourxfour"])
    def test_gen_rejects_a_size_not_of_the_form_nxm(self, tmp_path, capsys, size):
        out_dir = tmp_path / "puzzles"
        assert main(["gen", "--seed", "1", "--size", size, "-o", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NxM" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_bench_rejects_a_gen_spec_size_not_of_the_form_nxm(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 4, "shapes": [{"size": "3", "count": 1}]}))
        assert main(["bench", "--gen-spec", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "NxM" in captured.err
        assert captured.out == ""

    def test_bench_requires_exactly_one_source(self, capsys):
        assert main(["bench"]) == 2

    def test_bench_rejects_fewer_than_one_attempt(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 4, "shapes": [{"size": "2x3", "count": 2}]}))
        assert main(["bench", "--gen-spec", str(spec_path), "--max-attempts", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "max_attempts" in captured.err
        assert captured.out == ""

    def test_missing_dataset_fails_before_any_output(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["bench", "--dataset", str(tmp_path / "absent.jsonl"), "--out", str(report)]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not report.exists()
        assert not report.with_suffix(".partial.jsonl").exists()
