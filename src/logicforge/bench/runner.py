"""Benchmark runner: a bounded worker pool over independent pipeline tasks.

Results stream to a partial JSONL file as tasks finish (so an interrupted run
keeps what it completed), then the final per-task JSONL and aggregate report
are written in task order, which makes reports independent of scheduling and
of the concurrency level.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from ..agent.pipeline import PipelineConfig, PipelineStatus, run_pipeline
from ..errors import LogicForgeError
from ..records import Frozen
from .dataset import PuzzleTask, task_from_instance
from .puzzle import check_shape, generate_puzzle
from .render import OracleFormalizer
from .score import EvalReport, TaskResult, parse_size, score

FormalizerFactory = Callable[[PuzzleTask], object]


class GenSpec(Frozen):
    """Generate tasks on the fly from an int ``seed``: ``shapes`` maps size
    strings, each ``NxM`` of a shape the generator makes, to counts, each an
    int of at least 0. A bad shape or count fails here, before any puzzle is
    generated."""

    def __init__(self, seed: int, shapes: tuple[tuple[str, int], ...]):
        # a bool is an int, and a JSON true is no seed
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise LogicForgeError(f"seed must be an integer, not {seed!r}")
        for size, count in shapes:
            check_shape(*parse_size(size))
            # a bool is an int, and a JSON true is no count
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise LogicForgeError(
                    f"shape {size}: count must be an integer of at least 0, not {count!r}"
                )
        vars(self).update(seed=seed, shapes=shapes)

    @staticmethod
    def from_json_dict(d: dict) -> "GenSpec":
        try:
            shapes = tuple((s["size"], s["count"]) for s in d["shapes"])
            return GenSpec(d["seed"], shapes)
        except (KeyError, TypeError, ValueError) as exc:
            raise LogicForgeError(
                'gen spec is not {"seed": N, "shapes": [{"size": "NxM", "count": N}, ...]}: '
                f"{type(exc).__name__} {exc}"
            ) from None


def generate_tasks(spec: GenSpec) -> list[PuzzleTask]:
    tasks = []
    index = 0
    for size, count in spec.shapes:
        entities, feats = parse_size(size)
        for _ in range(count):
            instance = generate_puzzle(
                spec.seed + index, entities, feats, puzzle_id=f"{size}-{spec.seed}-{index:04d}"
            )
            tasks.append(task_from_instance(instance))
            index += 1
    return tasks


def oracle_formalizer_factory(task: PuzzleTask) -> OracleFormalizer:
    if task.instance is None:
        raise LogicForgeError(
            f"task {task.id} has no structured instance; the oracle formalizer needs one"
        )
    return OracleFormalizer(task.instance)


def check_out_path(out_path: str | Path) -> None:
    """Refuse a report path whose directory does not exist, before any task
    runs."""
    parent = Path(out_path).parent
    if not parent.is_dir():
        raise LogicForgeError(f"cannot write {out_path}: {parent} is not a directory")


def run_bench(
    tasks: list[PuzzleTask],
    formalizer_factory: FormalizerFactory,
    concurrency: int = 8,
    out_path: str | Path | None = None,
    config: PipelineConfig | None = None,
) -> EvalReport:
    """Run the pipeline over every task and aggregate accuracies."""
    # imported on the first run, not with the module: it loads logging too
    from concurrent.futures import ThreadPoolExecutor, as_completed

    if not tasks:
        raise LogicForgeError("no tasks to run")
    if concurrency < 1:
        raise LogicForgeError("concurrency must be >= 1")
    ids = [t.id for t in tasks]
    if len(set(ids)) != len(ids):
        raise LogicForgeError("task ids must be unique")
    if out_path:
        check_out_path(out_path)
    config = config or PipelineConfig()
    out_path = Path(out_path) if out_path else None
    partial_path = out_path.with_suffix(".partial.jsonl") if out_path else None
    if partial_path and partial_path.exists():
        partial_path.unlink()

    started = time.perf_counter()
    results: dict[str, TaskResult] = {}

    def run_one(task: PuzzleTask) -> TaskResult:
        t0 = time.perf_counter()
        result = run_pipeline(task.text, task.fmt, formalizer_factory(task), config)
        return TaskResult(
            task_id=task.id,
            size=task.size,
            status=result.status.value,
            truth=task.truth,
            predicted=result.solution if result.status is PipelineStatus.SOLVED else None,
            attempts=result.attempts,
            elapsed=time.perf_counter() - t0,
            log=tuple(result.log),
        )

    failure: BaseException | None = None
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        futures = [pool.submit(run_one, task) for task in tasks]
        for fut in as_completed(futures):
            try:
                result = fut.result()
            except Exception as exc:
                # keep draining so every completed task still gets flushed
                failure = failure or exc
                continue
            results[result.task_id] = result
            if partial_path:
                with open(partial_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(result.to_json_dict(), sort_keys=True) + "\n")
                    fh.flush()
    if failure is not None:
        raise failure

    ordered = [results[task.id] for task in tasks]
    report = score(ordered)
    report.wall_clock = time.perf_counter() - started

    if out_path:
        results_path = out_path.with_suffix(".results.jsonl")
        with open(results_path, "w", encoding="utf-8") as fh:
            for r in ordered:
                fh.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if partial_path and partial_path.exists():
            partial_path.unlink()
    return report
