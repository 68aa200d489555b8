"""Puzzle generation, the oracle formalizer, metrics, and the bench runner."""

from .dataset import PuzzleTask, load_dataset, save_dataset, task_from_instance
from .puzzle import Clue, Feature, PuzzleInstance, clue_holds, generate_puzzle
from .render import OracleFormalizer, render_dsl, render_text
from .runner import GenSpec, generate_tasks, oracle_formalizer_factory, run_bench
from .score import (
    EASY_SHAPES,
    EmptyInput,
    EvalReport,
    TaskResult,
    classify_shape,
    score,
)

__all__ = [
    "EASY_SHAPES",
    "Clue",
    "EmptyInput",
    "EvalReport",
    "Feature",
    "GenSpec",
    "OracleFormalizer",
    "PuzzleInstance",
    "PuzzleTask",
    "TaskResult",
    "classify_shape",
    "clue_holds",
    "generate_puzzle",
    "generate_tasks",
    "load_dataset",
    "oracle_formalizer_factory",
    "render_dsl",
    "render_text",
    "run_bench",
    "save_dataset",
    "score",
    "task_from_instance",
]
