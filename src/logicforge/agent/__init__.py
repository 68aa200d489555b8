"""Agent pipeline: pluggable formalizers, retries, and output formatting."""

from .llm import (
    LlmClientConfig,
    LlmFormalizer,
    Prompts,
    RecordingFormalizer,
    ReplayFormalizer,
    TranscriptWriter,
    extract_code_block,
)
from .pipeline import (
    ExpectedFormat,
    Formalizer,
    PipelineConfig,
    PipelineResult,
    PipelineStatus,
    format_output,
    run_pipeline,
)
from .validate import check_solution

__all__ = [
    "ExpectedFormat",
    "Formalizer",
    "LlmClientConfig",
    "LlmFormalizer",
    "PipelineConfig",
    "PipelineResult",
    "PipelineStatus",
    "Prompts",
    "RecordingFormalizer",
    "ReplayFormalizer",
    "TranscriptWriter",
    "check_solution",
    "extract_code_block",
    "format_output",
    "run_pipeline",
]
