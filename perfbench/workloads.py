"""The three workloads: their inputs, the timed call into logicforge, and
the correctness checks that run after the timed region.

Each workload has a fixed set of items and streams them in passes, each pass
in a new order drawn from the seed. ``run`` is the call that is timed;
``certify`` checks an output afterwards against the generator's ground truth
and two checkers independent of the solver's search
(``agent.validate.check_solution`` and the numpy ``brute_force``).
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from logicforge.agent import PipelineConfig, PipelineStatus, ReplayFormalizer
from logicforge.agent import TranscriptWriter, check_solution, run_pipeline
from logicforge.bench import (
    GenSpec,
    OracleFormalizer,
    PuzzleTask,
    generate_tasks,
    load_dataset,
    render_dsl,
    save_dataset,
)
from logicforge.bench.puzzle import AT_POSITION, Clue, clue_holds
from logicforge.bench.render import render_constraints, render_data_structure
from logicforge.frontend import SourceText, check, parse
from logicforge.model import decode, lower
from logicforge.solver import brute_force

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"
CORPUS_DIR = HERE / "corpus"

# The acceptance spec of the test suite (100 tasks, 3x3 to 4x4) plus a few
# large puzzles that set the tail. Generating it takes about a minute, so it
# is stored; set-up regenerates it only when this spec changes.
CORPUS_SPEC = {
    "seed": 31337,
    "shapes": [["3x3", 40], ["3x4", 25], ["4x3", 20], ["4x4", 15], ["5x5", 4], ["6x6", 2]],
}

# brute_force enumerates every table; beyond 4 rows or 4 features it is too slow.
BRUTE_FORCE_MAX = 4

FAULTS = ("syntax", "semantic", "unsat", "off_by_one")
FAULT_STAGE = {"syntax": "parse", "semantic": "check", "unsat": "solve", "off_by_one": "ambiguity"}

# Pipeline log stage -> the status that attempt would end the task with.
_STAGE_STATUS = {
    "formalize": "FailedSyntax",
    "parse": "FailedSyntax",
    "check": "FailedSemantic",
    "solve": "FailedUnsat",
    "ambiguity": "FailedAmbiguous",
    "format": "FailedSemantic",
}
FAILED_STATUSES = ("FailedSyntax", "FailedSemantic", "FailedUnsat", "FailedBudget", "FailedAmbiguous")


def load_corpus() -> tuple[list[PuzzleTask], str]:
    """The stored corpus and its sha256, regenerated if the spec changed."""
    corpus, spec_path = CORPUS_DIR / "corpus.jsonl", CORPUS_DIR / "spec.json"
    stored = json.loads(spec_path.read_text()) if spec_path.exists() else None
    if stored != CORPUS_SPEC or not corpus.exists():
        spec = GenSpec(CORPUS_SPEC["seed"], tuple((s, c) for s, c in CORPUS_SPEC["shapes"]))
        CORPUS_DIR.mkdir(exist_ok=True)
        save_dataset(generate_tasks(spec), corpus)
        spec_path.write_text(json.dumps(CORPUS_SPEC) + "\n")
    tasks, errors = load_dataset(corpus)
    if errors:
        raise ValueError(f"{corpus}: {len(errors)} malformed lines")
    return tasks, hashlib.sha256(corpus.read_bytes()).hexdigest()


def fenced(source: SourceText) -> str:
    return f"```\n{source.text}\n```"


def attempt_status(stage: str, summary: str) -> str:
    if stage == "solve" and summary != "constraints are unsatisfiable":
        return "FailedBudget"
    if stage == "ambiguity" and summary != "a second solution table exists":
        return "FailedBudget"
    return _STAGE_STATUS[stage]


class _TracedFormalizer:
    def __init__(self, inner, tracer):
        self.gen_data_structure = tracer.wrap("agent.formalize", inner.gen_data_structure)
        self.gen_constraints = tracer.wrap("agent.formalize", inner.gen_constraints)


def passes(items: list, name: str, seed: int):
    """The items over and over, each pass in a new seeded order."""
    rng = random.Random(f"perfbench:{name}:{seed}")
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _brute_forceable(task: PuzzleTask) -> bool:
    return max(task.instance.n_entities, task.instance.n_features) <= BRUTE_FORCE_MAX


class Gate:
    """Checks outputs once per distinct (item, output) and times brute_force."""

    def __init__(self) -> None:
        self.seen: set[tuple] = set()
        self.brute_force_s: list[float] = []
        self.errors: list[str] = []

    def certify(self, item: str, task: PuzzleTask, table) -> None:
        """``table`` must be the task's truth, satisfy the validator, and be
        the only table brute force finds on shapes up to 4x4."""
        if table != task.truth:
            self.errors.append(f"{item}: table differs from the ground truth")
            return
        key = (item, table.key())
        if key in self.seen:
            return
        self.seen.add(key)
        program = check(parse(render_dsl(task.instance)))
        if not check_solution(program, table):
            self.errors.append(f"{item}: check_solution rejects the table")
        if _brute_forceable(task):
            model = lower(program)
            t0 = perf_counter()
            tables = {decode(model, a) for a in brute_force(model)}
            self.brute_force_s.append(perf_counter() - t0)
            if tables != {task.truth}:
                self.errors.append(f"{item}: brute force finds {len(tables)} tables")


class Solve:
    """``run_pipeline`` per corpus task, oracle formalizer, no ambiguity check."""

    name = "solve"
    item_kind = "task"
    config = PipelineConfig()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.tasks, self.corpus_digest = load_corpus()
        self.by_id = {t.id: t for t in self.tasks}
        self.window = len(self.tasks)
        self.warm_up()

    def warm_up(self) -> None:
        for task in self.tasks[:: len(self.tasks) // 4][:4]:
            self.run(task, None)

    def stream(self):
        return passes(self.tasks, self.name, self.seed)

    def formalizer(self, task: PuzzleTask):
        return OracleFormalizer(task.instance)

    def run(self, task: PuzzleTask, tracer):
        formalizer = self.formalizer(task)
        if tracer is not None:
            formalizer = _TracedFormalizer(formalizer, tracer)
        return run_pipeline(task.text, task.fmt, formalizer, self.config)

    def failed(self, output) -> str:
        return "" if output.status is PipelineStatus.SOLVED else output.status.value

    def certify(self, item: str, output, gate: Gate) -> None:
        gate.certify(item, self.by_id[item], output.solution)

    def fingerprint(self) -> dict:
        return {"corpus_sha256": self.corpus_digest}

    def agent_counts(self, outputs: list) -> dict[str, float]:
        attempts = solved = 0
        failed = dict.fromkeys(FAILED_STATUSES, 0)
        for output in outputs:
            attempts += output.attempts
            solved += output.status is PipelineStatus.SOLVED
            for stage, summary in output.log:
                if stage != "solved":
                    failed[attempt_status(stage, summary)] += 1
        n = len(outputs)
        counts = {"agent.attempts": attempts / n, "agent.attempt_yield": solved / max(attempts, 1)}
        counts.update({f"agent.failed.{s}": c / n for s, c in failed.items()})
        return counts


class Recover(Solve):
    """``run_pipeline`` with the ambiguity check, replaying per-task
    transcripts in which scripted faulty programs precede the correct one."""

    name = "recover"
    config = PipelineConfig(ambiguity_check=True)

    def setup(self) -> None:
        # Every other corpus task up to 4x4, so that a pass takes about 2.5 s
        # and each task runs about eight times in a run: with fewer runs
        # per task, slow spells of the host moved its time. One 5x5
        # unsat proof alone took 2.8 s.
        tasks, self.corpus_digest = load_corpus()
        self.tasks = [t for t in tasks if _brute_forceable(t)][::2]
        self.by_id = {t.id: t for t in self.tasks}
        self.window = len(self.tasks)
        self.scripts = {t.id: self.fault_script(t) for t in self.tasks}
        directory = WORK_DIR / "transcripts"
        directory.mkdir(parents=True, exist_ok=True)
        self.replays = {}
        digest = hashlib.sha256()
        for task in self.tasks:
            path = directory / f"{task.id}.jsonl"
            path.unlink(missing_ok=True)
            writer = TranscriptWriter(path)
            for fault in self.scripts[task.id] + ("correct",):
                ds, cs = self.program(task, fault)
                writer.record("data_structure", None, fenced(ds))
                writer.record("constraints", None, fenced(cs))
            self.replays[task.id] = ReplayFormalizer(path)
            digest.update(path.read_bytes())
        self.transcripts_digest = digest.hexdigest()
        self.warm_up()

    @staticmethod
    def fault_script(task: PuzzleTask) -> tuple[str, ...]:
        # Every task gets every fault. A seeded subset made a pass's time
        # depend on whether one 5x5 unsat proof (2.8 s) was drawn, so the
        # throughput swung by half between seeds. The off-by-one program is
        # left off puzzles of 4+ rows, where one ambiguity verdict can take
        # from 14 s to minutes (README.md).
        return tuple(f for f in FAULTS if f != "off_by_one" or task.instance.n_entities == 3)

    def program(self, task: PuzzleTask, fault: str) -> tuple[SourceText, SourceText]:
        inst = task.instance
        n = inst.n_entities
        ds = render_data_structure(inst.features, n)
        cs = render_constraints(inst.clues)
        if fault == "syntax":
            cs = SourceText(cs.text.replace(") -> None:", ") -> None", 1), cs.origin)
        elif fault == "semantic":
            extra = '    intruder = nondet(solution.houses)\n    assert intruder.colour == "red"\n'
            cs = SourceText(cs.text + extra, cs.origin)
        elif fault == "unsat":
            cs = render_constraints(inst.clues + (Recover.false_clue(task),))
        elif fault == "off_by_one":
            ds = SourceText(ds.text.replace(f"range(1, {n + 1})", f"range(1, {n + 2})", 1), ds.origin)
        return ds, cs

    @staticmethod
    def false_clue(task: PuzzleTask) -> Clue:
        """Puts the first feature's value of house 1 in the last house.

        A fixed rule: the cost of the unsat proof depends on the clue (0.3 to
        6.7 s on one 6x6 task), so a seeded clue would swamp the run."""
        inst = task.instance
        feature = inst.features[0].name
        clue = Clue(AT_POSITION, feature, task.truth.rows[0][feature], pos=inst.n_entities)
        truth = {f.name: tuple(r[f.name] for r in task.truth.rows) for f in inst.features}
        if clue_holds(clue, truth, inst.n_entities):
            raise ValueError(f"{task.id}: the false clue holds")
        return clue

    def formalizer(self, task: PuzzleTask):
        return copy.copy(self.replays[task.id])  # an unread replay of the transcript

    def certify(self, item: str, output, gate: Gate) -> None:
        super().certify(item, output, gate)
        self.check_script(item, [stage for stage, _ in output.log], gate)

    def check_script(self, item: str, stages: list[str], gate: Gate) -> None:
        """Each faulty attempt fails at its own stage. An off-by-one program
        whose clues still pin every house may solve; the table is then
        certified like any other."""
        expected = [FAULT_STAGE[f] for f in self.scripts[item]] + ["solved"]
        if "off_by_one" in self.scripts[item]:
            cut = self.scripts[item].index("off_by_one")
            if stages == expected[:cut] + ["solved"]:
                return
        if stages != expected:
            gate.errors.append(f"{item}: attempt stages {stages}, script expects {expected}")

    def fingerprint(self) -> dict:
        return {**super().fingerprint(), "transcripts_sha256": self.transcripts_digest}


@dataclass(frozen=True)
class GenItem:
    id: str
    spec: GenSpec


class Generate:
    """``bench.generate_tasks`` on the puzzles of ``SPEC``, one puzzle per
    call, in a seeded order that changes every pass."""

    name = "generate"
    item_kind = "puzzle"
    # Fixed like the solve corpus, since generation time varies 0.3-1.8 s
    # between 4x4 puzzles and 1.5-14 s between 5x5 ones. The shapes of the
    # acceptance spec, few and small, so that each puzzle is generated about
    # a dozen times in a run: with fewer runs per puzzle, slow spells of the
    # host moved its time.
    SPEC = GenSpec(31337, (("3x3", 2), ("3x4", 2), ("4x3", 1), ("4x4", 1)))
    window = sum(count for _, count in SPEC.shapes)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        generate_tasks(GenSpec(self.SPEC.seed, (("3x3", 1),)))  # warm-up
        self.items = []
        for size, count in self.SPEC.shapes:
            for _ in range(count):
                seed = self.SPEC.seed + len(self.items)
                self.items.append(GenItem(f"{size}-{seed}", GenSpec(seed, ((size, 1),))))

    def stream(self):
        return passes(self.items, self.name, self.seed)

    def run(self, item: GenItem, tracer) -> PuzzleTask:
        (task,) = generate_tasks(item.spec)
        return task

    def failed(self, output) -> str:
        return ""

    def certify(self, item: str, output: PuzzleTask, gate: Gate) -> None:
        gate.certify(item, output, output.truth)

    def fingerprint(self) -> dict:
        return {}

    def agent_counts(self, outputs: list) -> dict[str, float]:
        counts = {"agent.attempts": 0.0, "agent.attempt_yield": 0.0}
        counts.update({f"agent.failed.{s}": 0.0 for s in FAILED_STATUSES})
        return counts


WORKLOADS = {w.name: w for w in (Generate, Solve, Recover)}
