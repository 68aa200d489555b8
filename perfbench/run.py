"""Seeded end-to-end and per-layer benchmark of logicforge.

    python3 perfbench/run.py --workload {generate,solve,recover} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository: the program is imported from the
``src`` directory next to this one. One thread drives a closed loop: the next
task or puzzle starts when the previous call returns. Outputs are checked
after the timed region; a wrong answer makes the exit code 1.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics. With ``--trace 1`` each item runs untraced and then
again with every layer function wrapped, and the run reports per-layer
metrics and the tracing overhead. Counts (calls, decisions, ...) are per
item over the first pass, so they repeat exactly; times are per item over
all traced calls. End-to-end times are given at a reference speed of the
host (see ``REFERENCE_MS``). Full results go to ``perfbench/.work/results`` and spans to ``perfbench/.work/spans``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5

# The speed of a shared host drifts: identical work took up to twice its
# idle time, in spells that last whole runs, so even each item's best time
# moved by a quarter between runs. A fixed kernel of plain Python runs
# between timed calls, for REFERENCE_SHARE of the last call's time and at
# least once, and meets the same slowdown. Each call's time is scaled by
# REFERENCE_MS over the kernel's mean time around it: end-to-end times read
# as if the kernel took REFERENCE_MS, about its time on an idle 2-core
# 2.0 GHz Xeon VM with Python 3.11.7. A change to the program moves the call
# and not the kernel. Set-up steps are scaled the same way, by the median of
# REFERENCE_RUNS kernel runs before and after each step.
REFERENCE_MS = 0.7
REFERENCE_SHARE = 0.05
REFERENCE_RUNS = 9


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def reference_seconds() -> float:
    """Time of one run of the reference kernel: objects, tuples, dicts and
    lists, the kind of work the interpreter does in the program."""
    t0 = perf_counter()
    counts: dict[tuple, int] = {}
    kept = []
    for i in range(1500):
        p = _Point(i, i % 7)
        key = (p.b, i % 13)
        counts[key] = counts.get(key, 0) + p.a
        if p.b in (1, 3):
            kept.append(key)
    return perf_counter() - t0


def reference_mean(call_seconds: float) -> float:
    """Mean time of the reference kernel, run for ``REFERENCE_SHARE`` of
    ``call_seconds`` and at least once."""
    total, runs = 0.0, 0
    while runs == 0 or total < REFERENCE_SHARE * call_seconds:
        total += reference_seconds()
        runs += 1
    return total / runs


def at_reference_speed(measure) -> float:
    """The seconds ``measure()`` returns, scaled to reference speed."""
    before = statistics.median(reference_seconds() for _ in range(REFERENCE_RUNS))
    seconds = measure()
    after = statistics.median(reference_seconds() for _ in range(REFERENCE_RUNS))
    return seconds * REFERENCE_MS / 1000 / ((before + after) / 2)


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("generate", "solve", "recover"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the benchmark and the
    program at reference speed, over ``SETUP_REPEATS`` interpreters."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
        "print(time.perf_counter() - t)"
    )

    def child() -> float:
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        return float(run.stdout)

    return statistics.median(at_reference_speed(child) for _ in range(SETUP_REPEATS))


def import_program():
    """Import the benchmark's modules against the checkout's own sources."""
    if not (SRC / "logicforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no logicforge sources in {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import logicforge
    import workloads

    if Path(logicforge.__file__).resolve().parent != SRC / "logicforge":
        raise SystemExit(f"error: imported logicforge from {logicforge.__file__}, not {SRC}")
    return workloads


@dataclass
class Record:
    """One timed call: ``key`` digests its output, ``failure`` says why the
    item failed (empty when it did not), ``reference`` is the mean time of
    the reference kernel run just before and just after the call."""

    item: str
    seconds: float
    key: str
    failure: str = ""
    reference: float = 0.0


def output_key(output) -> str:
    return hashlib.sha256(json.dumps(output.to_json_dict(), sort_keys=True).encode()).hexdigest()


class Run:
    """The records of a timed loop plus one output per distinct (item, output)."""

    def __init__(self) -> None:
        self.records = []
        self.outputs = {}
        self.wall = 0.0

    def item_ms(self) -> dict[str, float]:
        """Each item's median time at reference speed, in ms."""
        scaled: dict[str, list[float]] = {}
        for r in self.records:
            scaled.setdefault(r.item, []).append(r.seconds * REFERENCE_MS / r.reference)
        return {item: statistics.median(times) for item, times in scaled.items()}

    def window_outputs(self, w: int) -> list:
        return [self.outputs[(r.item, r.key)] for r in self.records[:w] if not r.key.startswith("error:")]


def timed_call(workload, item, run: Run, tracer=None) -> None:
    from logicforge.errors import LogicForgeError

    t0 = perf_counter()
    try:
        if tracer is None:
            output = workload.run(item, None)
        else:
            with tracer.item_span(workload.item_kind, f"{len(run.records)}/{item.id}"):
                output = workload.run(item, tracer)
    except LogicForgeError as exc:
        seconds = perf_counter() - t0
        error = f"{type(exc).__name__}: {exc}"
        run.records.append(Record(item.id, seconds, f"error:{error}", error))
    else:
        seconds = perf_counter() - t0
        key = output_key(output)
        run.outputs.setdefault((item.id, key), output)
        run.records.append(Record(item.id, seconds, key, workload.failed(output)))


def measure(workload, seconds: float, min_items: int, tracer=None) -> tuple[Run, Run]:
    """Run the workload's stream until ``seconds`` have passed and at least
    ``min_items`` items ran. With a tracer, each item runs untraced and then
    traced, so that both calls meet the same load on the host."""
    plain, traced = Run(), Run()
    start = perf_counter()
    before = reference_seconds()
    for item in workload.stream():
        timed_call(workload, item, plain)
        after = reference_mean(plain.records[-1].seconds)
        plain.records[-1].reference = (before + after) / 2
        before = after
        if tracer is not None:
            with tracer.installed():
                timed_call(workload, item, traced, tracer)
            after = reference_mean(traced.records[-1].seconds)
            traced.records[-1].reference = (before + after) / 2
            before = after
        if perf_counter() - start >= seconds and len(plain.records) >= min_items:
            break
    plain.wall = perf_counter() - start
    return plain, traced


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    times = list(run.item_ms().values())
    return {
        "tasks_per_s": len(times) * 1000 / sum(times),
        "task_p50_ms": statistics.median(times),
        "task_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, tracer, traced: Run, untraced: Run, gate) -> dict:
    """Per-item layer metrics: times over every traced item, counts over the
    window of the first ``workload.window`` items."""
    n, w = len(traced.records), workload.window
    window_keys = {f"{i}/{r.item}" for i, r in enumerate(traced.records[:w])}
    times = tracer.layer_totals()
    counts = tracer.layer_totals(window_keys)
    observed: dict[str, float] = {}
    for key in window_keys:
        for name, value in tracer.counts.get(key, {}).items():
            observed[name] = observed.get(name, 0) + value

    def ms(name):
        return times.get(name, {}).get("self_s", 0.0) * 1000 / n

    def calls(name, field="calls"):
        return counts.get(name, {}).get(field, 0) / w

    lowered = max(counts.get("model.lower", {}).get("calls", 0), 1)
    fast, slow = untraced.item_ms(), traced.item_ms()
    untraced_ms = sum(fast.values()) / len(fast)
    records = traced.records + untraced.records
    brute = gate.brute_force_s
    return {
        "frontend.parse.calls": calls("frontend.parse"),
        "frontend.parse.ms": ms("frontend.parse"),
        "frontend.parse.failed": calls("frontend.parse", "failed"),
        "frontend.check.calls": calls("frontend.check"),
        "frontend.check.ms": ms("frontend.check"),
        "frontend.check.failed": calls("frontend.check", "failed"),
        "model.lower.ms": ms("model.lower"),
        "model.ids": observed.get("model.ids", 0) / lowered,
        "model.constraints": observed.get("model.constraints", 0) / lowered,
        "model.decode.ms": ms("model.decode"),
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.ms": ms("solver.solve"),
        "solver.decisions": observed.get("solver.decisions", 0) / w,
        "solver.propagations": observed.get("solver.propagations", 0) / w,
        "solver.unsat": observed.get("solver.unsat", 0) / w,
        "solver.budget_exceeded": tracer.errors("BudgetExceeded", window_keys) / w,
        "solver.find_second.calls": calls("solver.find_second"),
        "solver.find_second.ms": ms("solver.find_second"),
        "solver.brute_force.ms": sum(brute) * 1000 / len(brute) if brute else 0.0,
        **workload.agent_counts(traced.window_outputs(w)),
        "agent.formalize.ms": ms("agent.formalize"),
        "agent.format.ms": ms("agent.format"),
        "bench.generate_puzzle.ms": ms("bench.generate_puzzle"),
        "bench.uniqueness_checks": tracer.count_children(
            "solver.find_second", "bench.generate_puzzle", window_keys
        ) / w,
        "bench.render.ms": ms("bench.render"),
        "bench.clues": observed.get("bench.clues", 0) / w,
        "unattributed.ms": ms(workload.item_kind),
        "trace.untraced_ms": untraced_ms,
        "trace.overhead_ms": sum(slow[i] - fast[i] for i in slow) / len(slow),
        "failed_share": sum(bool(r.failure) for r in records) / len(records),
    }


def check_fingerprint(key: str, fingerprint: dict, store: Path) -> str:
    """Compare with the fingerprint an earlier run of this seed recorded."""
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != fingerprint:
        return f"determinism fingerprint differs from an earlier run: {known[key]} != {fingerprint}"
    known[key] = fingerprint
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    tmp.replace(store)
    return ""


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    import_s = import_seconds()
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)

    def setup() -> float:
        t0 = perf_counter()
        workload.setup()
        return perf_counter() - t0

    setups = [at_reference_speed(setup) for _ in range(SETUP_REPEATS)]
    setup_s = import_s + statistics.median(setups)

    w = workload.window
    tracer = Tracer() if args.trace else None
    untraced, traced = measure(workload, args.seconds, w, tracer)
    runs = (untraced, traced) if args.trace else (untraced,)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gate = workloads.Gate()
    t0 = perf_counter()
    keys_by_item: dict[str, set[str]] = {}
    for run in runs:
        for (item, key), output in run.outputs.items():
            keys_by_item.setdefault(item, set()).add(key)
            workload.certify(item, output, gate)
    gate_s = perf_counter() - t0
    for item, keys in keys_by_item.items():
        if len(keys) > 1:
            gate.errors.append(f"{item}: {len(keys)} different outputs for the same input")

    def window_digest(run):
        return hashlib.sha256(json.dumps([(r.item, r.key) for r in run.records[:w]]).encode()).hexdigest()

    fingerprint = {**workload.fingerprint(), "outputs_sha256": window_digest(untraced)}
    if args.trace:
        if window_digest(traced) != fingerprint["outputs_sha256"]:
            gate.errors.append("traced and untraced runs of the same items differ")
        metrics = per_layer(workload, tracer, traced, untraced, gate)
        for name in ("solver.decisions", "solver.propagations", "bench.uniqueness_checks"):
            fingerprint[name] = metrics[name]
        tracer.write(workloads.WORK_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(untraced, setup_s, peak_rss_mb)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    mismatch = check_fingerprint(
        f"{args.workload}:seed{args.seed}:trace{args.trace}",
        fingerprint,
        workloads.WORK_DIR / "fingerprints.json",
    )
    if mismatch:
        gate.errors.append(mismatch)

    records = [r for run in runs for r in run.records]
    failed = [r for r in records if r.failure]
    raw = [r.seconds * 1000 for r in untraced.records]
    env = environment(args)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    print(f"# items {len(records)} failed {len(failed)} setup runs {[round(s, 4) for s in setups]}"
          f" import {import_s:.3f}s gate {gate_s:.1f}s brute-forced {len(gate.brute_force_s)}")
    rate = "" if args.trace else f", {len(raw) / untraced.wall:.4g} calls/s"
    ref = statistics.median(r.reference for r in untraced.records) * 1000
    print(f"# reference kernel: median {ref:.4g} ms, scaled to {REFERENCE_MS} ms")
    print(f"# every call by wall clock, unscaled: {len(raw)} calls, p50 {statistics.median(raw):.4g} ms,"
          f" p90 {statistics.quantiles(raw, n=10)[8]:.4g} ms{rate}")
    for r in failed[:5]:
        print(f"# failed {r.item}: {r.failure}")
    for e in gate.errors[:20]:
        print(f"# WRONG {e}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")

    result = {
        "correct": not gate.errors,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    out = workloads.WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    detail = {"env": env, "fingerprint": fingerprint, "import_s": import_s, "setups_s": setups,
              "gate_s": gate_s, "brute_forced": len(gate.brute_force_s), "errors": gate.errors,
              **result}
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
