"""Command line interface: solve, emit-c, gen, bench, check-ambiguity."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .agent.pipeline import PipelineConfig
from .bench.dataset import load_dataset, save_dataset
from .bench.render import render_dsl
from .bench.runner import GenSpec, generate_tasks, oracle_formalizer_factory, run_bench
from .cemit import emit
from .errors import LogicForgeError
from .frontend import SourceText, check, parse
from .model import decode, lower
from .solver.engine import Budget, compile_model, find_second, solve


def _load_program(path: str):
    text = Path(path).read_text(encoding="utf-8")
    source = SourceText(text, path)
    return check(parse(source), path)


def _print_table(table) -> None:
    widths = {c: max(len(c), *(len(str(r[c])) for r in table.rows)) for c in table.columns}
    header = " | ".join(c.ljust(widths[c]) for c in table.columns)
    print(header)
    print("-+-".join("-" * widths[c] for c in table.columns))
    for row in table.rows:
        print(" | ".join(str(row[c]).ljust(widths[c]) for c in table.columns))


def cmd_solve(args) -> int:
    program = _load_program(args.file)
    model = lower(program)
    trace = (lambda line: print(f"trace: {line}", file=sys.stderr)) if args.trace else None
    outcome = solve(model, Budget(args.max_decisions, args.max_time), trace=trace)
    if not outcome.is_sat:
        print("unsat")
        return 1
    table = decode(model, outcome.assignment)
    _print_table(table)
    print(
        f"decisions={outcome.stats.decisions} propagations={outcome.stats.propagations} "
        f"elapsed={outcome.stats.elapsed:.3f}s"
    )
    return 0


def cmd_emit_c(args) -> int:
    program = _load_program(args.file)
    harness = emit(program)
    if args.output:
        Path(args.output).write_text(harness.text, encoding="utf-8")
        print(f"wrote {args.output} ({len(harness.text)} bytes)")
    else:
        sys.stdout.write(harness.text)
    return 0


def cmd_check_ambiguity(args) -> int:
    program = _load_program(args.file)
    model = lower(program)
    view = compile_model(model)  # one solver build for solve and find_second
    budget = Budget(args.max_decisions, args.max_time)
    outcome = solve(view, budget)
    if not outcome.is_sat:
        print("unsat")
        return 1
    report = find_second(view, outcome.assignment, budget.after(outcome.stats))
    if report.ambiguous:
        print("ambiguous: a second solution table exists")
        print("--- first ---")
        _print_table(decode(model, report.first))
        print("--- second ---")
        _print_table(decode(model, report.second))
        return 2
    print("unique")
    _print_table(decode(model, outcome.assignment))
    return 0


def cmd_gen(args) -> int:
    tasks = generate_tasks(GenSpec(args.seed, ((args.size, args.count),)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for task in tasks:
        (out_dir / f"{task.id}.lpy").write_text(render_dsl(task.instance).text, encoding="utf-8")
    dataset_path = out_dir / "dataset.jsonl"
    save_dataset(tasks, dataset_path)
    print(f"wrote {len(tasks)} puzzles to {dataset_path}")
    return 0


def cmd_bench(args) -> int:
    if bool(args.dataset) == bool(args.gen_spec):
        print("error: pass exactly one of --dataset or --gen-spec", file=sys.stderr)
        return 2
    if args.dataset:
        tasks, errors = load_dataset(args.dataset)
        for err in errors:
            print(f"warning: {args.dataset}: {err}", file=sys.stderr)
    else:
        spec = GenSpec.from_json_dict(json.loads(Path(args.gen_spec).read_text()))
        tasks = generate_tasks(spec)
    if args.formalizer == "oracle":
        factory = oracle_formalizer_factory
    else:
        from .agent.llm import LlmClientConfig, LlmFormalizer, TranscriptWriter

        config = LlmClientConfig.from_env()
        transcript = TranscriptWriter(args.transcript) if args.transcript else None
        shared = LlmFormalizer(config, transcript=transcript)
        factory = lambda task: shared  # noqa: E731 - one shared client
    pipeline_config = PipelineConfig(
        max_attempts=args.max_attempts, ambiguity_check=args.ambiguity_check
    )
    report = run_bench(
        tasks, factory, concurrency=args.concurrency, out_path=args.out, config=pipeline_config
    )
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logic-forge",
        description="Compile and solve finite-domain search programs; "
        "generate and benchmark logic grid puzzles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a program and print the solution table")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="stream decision events to stderr")
    p.add_argument("--max-decisions", type=int, default=Budget.max_decisions)
    p.add_argument("--max-time", type=float, default=Budget.max_time)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("emit-c", help="emit the CPROVER-style C harness for a program")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_emit_c)

    p = sub.add_parser("check-ambiguity", help="report whether a program's solution is unique")
    p.add_argument("file")
    p.add_argument("--max-decisions", type=int, default=Budget.max_decisions)
    p.add_argument("--max-time", type=float, default=Budget.max_time)
    p.set_defaults(func=cmd_check_ambiguity)

    p = sub.add_parser("gen", help="generate puzzles with certified-unique solutions")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True, help="entities x features, e.g. 4x4")
    p.add_argument("-n", "--count", type=int, default=1)
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run the pipeline over a dataset and score it")
    p.add_argument("--dataset", help="JSONL task file")
    p.add_argument("--gen-spec", help="JSON spec: {seed, shapes: [{size, count}]}")
    p.add_argument("--formalizer", choices=("oracle", "llm"), default="oracle")
    p.add_argument("--concurrency", type=int, default=8)
    p.add_argument("--max-attempts", type=int, default=5)
    p.add_argument("--ambiguity-check", action="store_true")
    p.add_argument("--transcript", help="record formalizer exchanges to this JSONL file")
    p.add_argument("--out", help="write report JSON (and .results.jsonl) here")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LogicForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
