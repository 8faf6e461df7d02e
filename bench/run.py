#!/usr/bin/env python3
"""Seeded, self-checking benchmark for the sentimatch command line.

Usage (from the repository root):

    python3 bench/run.py --workload profile-mixed --seed 1 --seconds 40 --trace 0

Workloads: ``profile-mixed``, ``annotate`` and ``recommend-sweep`` (see
README.md in this directory). Each run generates its inputs from ``--seed``,
then runs whole rounds of the same operations until ``--seconds`` have
passed. With ``--trace 0`` every operation is a cold ``python -m
sentimatch.cli`` child process (the in-process ``recommend`` sweep aside),
its time is scaled to a fixed machine speed by a reference timed around it
(see Clock), and the end-to-end metrics are printed. With ``--trace 1`` the same operations
run in this process, alternating rounds with and without spans, and the
per-layer metrics are printed. ``--small`` shrinks every input so that a run
with all checks takes a few seconds. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "sentimatch" / "data"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
from oracle import CheckFailed, expect  # noqa: E402

MIN_ROUNDS = 2  # the second round checks that sampling repeats itself
RUN_LIMIT_S = 150  # no round starts that would end after this, so a run ends within 180 s
CHILD_TIMEOUT_S = 60
OVERSIZED_CHARS = 140_000  # above the csv module's default 131,072-character field limit
REFERENCE_REPS = 3  # reference timings between two operations
NOMINAL_REFERENCE_S = 0.020  # the reference's time at the speed metrics are scaled to


@dataclass(frozen=True)
class Sizes:
    profile_docs: int
    profile_shards: int
    sample_rows: int
    retain_rows: int
    retain_n: int
    eval_labels: int
    agree_items: int
    raters: int
    recommend_cli: int
    sweep_calls: int


@dataclass(frozen=True)
class Workload:
    sizes: Sizes
    setup_ops: tuple[str, ...]  # operations whose wall times give setup_s
    primary: tuple[str, ...]  # commands whose child peak RSS gives peak_rss_mb
    heavy: tuple[str, ...] = ()  # operations on the large inputs, run once a round
    light_repeats: int = 1  # runs a round of every other operation
    oversized: bool = False


# Sizes of the operations a workload does not stress.
LIGHT_INPUTS = dict(profile_docs=60, sample_rows=2000, retain_rows=2000, retain_n=200,
                    eval_labels=2000, agree_items=2000, raters=5)
SWEEP_BATCH = 72  # sweep cases repeat their make-up every 72 (see answer_case)

# Each workload runs every operation, so every run reports every metric; the
# workload decides which operations get the large inputs.
WORKLOADS = {
    "profile-mixed": Workload(
        Sizes(**{**LIGHT_INPUTS, "profile_docs": 8000}, profile_shards=4, recommend_cli=1,
              sweep_calls=6 * SWEEP_BATCH),
        setup_ops=("profile.one-jsonl", "profile.one-csv"),
        primary=("profile",),
        heavy=("profile.pooled", "profile.oversized"),
        light_repeats=2,
        oversized=True,
    ),
    "annotate": Workload(
        Sizes(**{**LIGHT_INPUTS, "sample_rows": 100000, "retain_rows": 50000, "retain_n": 300,
                 "eval_labels": 100000, "agree_items": 100000},
              profile_shards=2, recommend_cli=1, sweep_calls=6 * SWEEP_BATCH),
        setup_ops=("sample.one", "evaluate.one", "agreement.one"),
        primary=("sample", "evaluate", "agreement"),
        heavy=("sample.labelmap", "sample.retain", "evaluate.main", "agreement.main"),
        light_repeats=2,
    ),
    "recommend-sweep": Workload(
        Sizes(**LIGHT_INPUTS, profile_shards=2, recommend_cli=4, sweep_calls=10 * SWEEP_BATCH),
        setup_ops=("recommend.cli",),
        primary=("recommend",),
    ),
}

SMALL = Sizes(profile_docs=40, profile_shards=2, sample_rows=300, retain_rows=300, retain_n=50,
              eval_labels=300, agree_items=300, raters=4, recommend_cli=2, sweep_calls=SWEEP_BATCH)


@dataclass
class Op:
    """One CLI invocation and the check of its output."""

    name: str  # "<command>.<variant>"
    argv: list[str]
    check: Callable[[str], None]
    expect_fail: bool = False


@dataclass
class Plan:
    ops: list[Op]
    sweep: list[tuple[object, object]]  # (QuestionnaireAnswers, UserStatistics | None)
    sweep_want: list[dict]
    work: dict[str, int] = field(default_factory=dict)  # throughput bases
    sweep_checked: list[str | None] = field(default_factory=list)


# ------------------------------------------------------------------ checks


def parse_json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not one JSON document: {exc}") from None


def profile_check(docs: list[gen.Doc]) -> Callable[[str], None]:
    want = {
        "documents": len(docs),
        "class_distribution": gen.class_counts(d.label for d in docs),
        "min_sample_size": oracle.cochran(len(docs)),
        "statistics": gen.expected_profile(docs),
    }

    def check(stdout: str) -> None:
        got = parse_json(stdout)
        wrong = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
        expect(not wrong, f"profile differs from the generator's counts (got, want): {wrong}")

    return check


class Repeats:
    """Checks that an output is the same in every round (same seed)."""

    def __init__(self, what: str):
        self.what, self.first = what, None

    def __call__(self, output: str) -> None:
        if self.first is None:
            self.first = output
        expect(output == self.first, f"{self.what}: a second run with the same seed differs")


def sample_check(records: list[tuple[str, str, str]], n: int, retained: str | None,
                 read_output: Callable[[str], list[tuple[str, str, str]]]) -> Callable[[str], None]:
    """``records`` are the kept input records (id, text, polarity) in input order."""
    position = {r[0]: i for i, r in enumerate(records)}
    counts = {c: 0 for c in oracle.POLARITIES}
    for _, _, label in records:
        counts[label] += 1
    want = oracle.largest_remainder(counts, n)
    if retained:
        want[retained] = counts[retained]
    repeats = Repeats("sample")

    def check(stdout: str) -> None:
        rows = read_output(stdout)
        got = {c: 0 for c in oracle.POLARITIES}
        previous = -1
        for row in rows:
            index = position.get(row[0])
            expect(index is not None, f"sampled id {row[0]!r} is no kept input record")
            expect(row == records[index], f"sampled record {row[0]!r} differs from its input")
            expect(index > previous, "sample does not keep input order")
            previous = index
            got[row[2]] += 1
        expect(got == want, f"class counts {got} != largest-remainder allocation {want}")
        repeats(stdout if retained is None else json.dumps(rows))

    return check


def read_csv_rows(stdout: str) -> list[tuple[str, str, str]]:
    rows = list(csv.reader(io.StringIO(stdout, newline="")))
    expect(bool(rows) and rows[0] == ["id", "text", "label"], "sample CSV header is wrong")
    expect(all(len(r) == 3 for r in rows[1:]), "sample CSV row with a wrong field count")
    return [tuple(r) for r in rows[1:]]


def read_jsonl_file(path: Path) -> Callable[[str], list[tuple[str, str, str]]]:
    def read(_stdout: str) -> list[tuple[str, str, str]]:
        rows = []
        for line in path.read_text(encoding="utf-8").split("\n")[:-1]:
            obj = parse_json(line)
            rows.append((obj.get("id"), obj.get("text"), obj.get("label")))
        return rows

    return read


def evaluate_check(matrix: list[list[int]]) -> Callable[[str], None]:
    want = oracle.classification_expectation(matrix)
    n = sum(map(sum, matrix))

    def check(stdout: str) -> None:
        got = parse_json(stdout)
        expect(got.get("documents") == n, f"evaluate documents {got.get('documents')} != {n}")
        per_class = got.get("per_class", {})
        expect(list(per_class) == list(want["per_class"]), f"evaluate classes {list(per_class)}")
        for label, ref in want["per_class"].items():
            for key, value in ref.items():
                ok = per_class[label].get(key) == value if key == "support" else \
                    oracle.close(per_class[label].get(key), value)
                expect(ok, f"evaluate {label} {key} {per_class[label].get(key)} != {float(value)}")
        for key in ("micro_f1", "macro_f1", "overall_score"):
            expect(oracle.close(got.get(key), want[key]), f"evaluate {key} {got.get(key)} != {float(want[key])}")

    return check


def agreement_check(rows: list[list[str]]) -> Callable[[str], None]:
    kappa, raw = oracle.fleiss(rows)

    def check(stdout: str) -> None:
        got = parse_json(stdout)
        expect(got.get("items") == len(rows) and got.get("raters") == len(rows[0]),
               f"agreement shape {got.get('items')}x{got.get('raters')}")
        if kappa is None:
            expect(got.get("kappa") is None, f"kappa {got.get('kappa')} should be undefined")
        else:
            expect(oracle.close(got.get("kappa"), kappa), f"kappa {got.get('kappa')} != {float(kappa)}")
        expect(oracle.close(got.get("raw_agreement"), raw), f"raw agreement {got.get('raw_agreement')}")
        expect(got.get("interpretation") == oracle.landis_koch(kappa),
               f"band {got.get('interpretation')} != {oracle.landis_koch(kappa)}")

    return check


def recommend_check(scorer: oracle.Scorer, want: dict) -> Callable[[str], None]:
    return lambda stdout: scorer.check(parse_json(stdout), want)


# ------------------------------------------------------------------ inputs


def answer_case(rng: random.Random, scorer: oracle.Scorer, index: int) -> tuple[dict, dict]:
    """Answers near one platform's profile, some perturbed or left unspecified
    (sometimes more than the ambiguity threshold), and statistics that are a
    platform's value, the exact midpoint of two (a tie) or a value nearby.
    How many answers are unspecified and how many statistics are given cycle
    with ``index``, so that every seed has the same make-up of cases."""
    answers = scorer.answers_like(rng.choice(oracle.PLATFORMS))
    for feature in rng.sample(oracle.FEATURES, rng.randint(0, 5)):
        answers[feature] = rng.choice(oracle.OPTIONS)
    for feature in rng.sample(oracle.FEATURES, (0, 0, 1, 2, 3, 6, 7, 9)[index % 8]):
        answers[feature] = "not_specified"
    stats = {}
    for name in rng.sample(gen.STAT_FIELDS, index % 9):
        values = scorer.stat_values[name]
        mode = rng.random()
        if mode < 0.2:
            stats[name] = float(rng.choice(values))
        elif mode < 0.4:
            a, b = rng.sample(values, 2)
            stats[name] = float((a + b) / 2)
        else:
            stats[name] = round(float(rng.choice(values)) * rng.uniform(0.7, 1.3), 2)
    return answers, stats


def prepare(spec: Workload, sizes: Sizes, seed: int, work: Path) -> Plan:
    """Generate every input file of one run, with the check of each operation."""
    from sentimatch.recommender import QuestionnaireAnswers, UserStatistics

    vocab = gen.Vocabulary(DATA)
    scorer = oracle.Scorer(DATA / "knowledge_base.json")
    label_map = work / "label-map.json"
    label_map.write_text(json.dumps(gen.RAW_EMOTIONS), encoding="utf-8")
    emotions = dict.fromkeys(gen.RAW_EMOTIONS, 1)

    def rng_for(part: str) -> random.Random:
        return random.Random(f"{seed}:{part}")

    def profile_op(name: str, paths: list[Path], docs: list[gen.Doc], **kwargs) -> Op:
        return Op(f"profile.{name}", ["profile", *map(str, paths)], profile_check(docs), **kwargs)

    def sample_op(name: str, raw: list[tuple[str, str, str]]) -> Op:
        """``sample`` with a label map that drops one class, ``--n auto``, to stdout."""
        path = work / f"sample-{name}.csv"
        gen.write_csv(path, ("id", "text", "label"), raw)
        kept = [(i, t, gen.RAW_EMOTIONS[label]) for i, t, label in raw
                if gen.RAW_EMOTIONS[label] != "drop"]
        return Op(f"sample.{name}", ["sample", str(path), "--label-map", str(label_map),
                                     "--n", "auto", "--seed", str(seed)],
                  sample_check(kept, oracle.cochran(len(kept)), None, read_csv_rows))

    def evaluate_op(name: str, matrix: list[list[int]], labels: list[tuple[str, str]],
                    rng: random.Random) -> Op:
        """Gold labels in JSONL, predictions in CSV in another order."""
        ids = [f"g{i:06d}" for i in range(len(labels))]
        gold_path, pred_path = work / f"gold-{name}.jsonl", work / f"pred-{name}.csv"
        gen.write_jsonl_labels(gold_path, zip(ids, (g for g, _ in labels)))
        order = list(range(len(labels)))
        rng.shuffle(order)
        gen.write_csv(pred_path, ("id", "label"), ((ids[i], labels[i][1]) for i in order))
        return Op(f"evaluate.{name}", ["evaluate", "--gold", str(gold_path), "--pred",
                                       str(pred_path)], evaluate_check(matrix))

    def agreement_op(name: str, rows: list[list[str]]) -> Op:
        path = work / f"ratings-{name}.csv"
        gen.write_csv(path, ("item", *(f"rater{j}" for j in range(len(rows[0])))),
                      ([f"i{i:06d}", *row] for i, row in enumerate(rows)))
        return Op(f"agreement.{name}", ["agreement", str(path)], agreement_check(rows))

    ops: list[Op] = []
    plan = Plan(ops, [], [], {})

    # profile: pooled JSONL shards of mixed review-like and issue-like documents
    docs = gen.TextGenerator(vocab, rng_for("profile")).mixed(sizes.profile_docs)
    shards = [docs[k::sizes.profile_shards] for k in range(sizes.profile_shards)]
    paths = [work / f"shard-{k}.jsonl" for k in range(sizes.profile_shards)]
    plan.work["profile_bytes"] = sum(
        gen.write_jsonl(path, ((f"s{k}-{i:05d}", d.text, d.label) for i, d in enumerate(shard)))
        for k, (path, shard) in enumerate(zip(paths, shards)))
    ops.append(profile_op("pooled", paths, [d for shard in shards for d in shard]))

    if spec.oversized:
        # Seed-independent, so that its failure is the same in every run.
        text_gen = gen.TextGenerator(vocab, random.Random("oversized"))
        docs = text_gen.mixed(20)
        docs.insert(10, text_gen.log_document(OVERSIZED_CHARS))
        path = work / "pasted-log.csv"
        gen.write_csv(path, ("id", "text", "label"),
                      ((f"p{i:02d}", d.text, d.label or "") for i, d in enumerate(docs)))
        ops.append(profile_op("oversized", [path], docs, expect_fail=True))

    rng = rng_for("sample")
    raw = gen.plain_records(vocab, rng, sizes.sample_rows, emotions)
    ops.append(sample_op("labelmap", [(f"d{i:06d}", t, label) for i, (t, label) in enumerate(raw)]))
    # sample --retain-class negative --output, on a JSONL corpus without ids
    pairs = gen.plain_records(vocab, rng, sizes.retain_rows,
                              {"negative": 1, "neutral": 2, "positive": 2})
    path, out = work / "retain.jsonl", work / "retain-sample.jsonl"
    gen.write_jsonl(path, ((None, t, label) for t, label in pairs))
    width = len(str(len(pairs) - 1))
    records = [(f"{i:0{width}d}", t, label) for i, (t, label) in enumerate(pairs)]
    ops.append(Op("sample.retain", ["sample", str(path), "--n", str(sizes.retain_n), "--seed",
                                    str(seed), "--retain-class", "negative", "--output", str(out)],
                  sample_check(records, sizes.retain_n, "negative", read_jsonl_file(out))))
    plan.work["sample_records"] = sizes.sample_rows + sizes.retain_rows

    rng = rng_for("evaluate")
    ops.append(evaluate_op("main", *gen.confusion_pairs(rng, sizes.eval_labels), rng))
    plan.work["eval_labels"] = sizes.eval_labels
    rows = gen.rating_rows(rng_for("agreement"), sizes.agree_items, sizes.raters)
    ops.append(agreement_op("main", rows))
    plan.work["agree_items"] = sizes.agree_items

    # recommend: cold CLI runs, and the cases of the in-process sweep
    rng = rng_for("recommend")
    for k in range(sizes.recommend_cli):
        answers, stats = answer_case(rng, scorer, 8 - k)
        a_path, s_path = work / f"answers-{k}.json", work / f"stats-{k}.json"
        a_path.write_text(json.dumps(answers), encoding="utf-8")
        s_path.write_text(json.dumps(stats), encoding="utf-8")
        ops.append(Op("recommend.cli", ["recommend", "--answers", str(a_path), "--stats",
                                        str(s_path)], recommend_check(scorer, scorer.score(answers, stats))))
    for k in range(sizes.sweep_calls):
        answers, stats = answer_case(rng, scorer, k)
        plan.sweep.append((QuestionnaireAnswers.from_dict(answers),
                           UserStatistics(values=stats) if stats else None))
        plan.sweep_want.append(scorer.score(answers, stats))
    plan.sweep_checked = [None] * sizes.sweep_calls

    # one-record inputs: the set-up time of the workload's own commands
    rng = rng_for("one")
    setup: list[Op] = []
    if "profile.one-jsonl" in spec.setup_ops:
        docs = gen.TextGenerator(vocab, rng).mixed(1)
        path = work / "one.jsonl"
        gen.write_jsonl(path, [("only", docs[0].text, docs[0].label)])
        setup.append(profile_op("one-jsonl", [path], docs))
        path = work / "one.csv"
        gen.write_csv(path, ("id", "text", "label"), [("only", docs[0].text, docs[0].label or "")])
        setup.append(profile_op("one-csv", [path], docs))
    if "sample.one" in spec.setup_ops:
        kept_emotions = {e: 1 for e in emotions if gen.RAW_EMOTIONS[e] != "drop"}
        text, label = gen.plain_records(vocab, rng, 1, kept_emotions)[0]
        setup.append(sample_op("one", [("d000000", text, label)]))
        gold, pred = rng.choice(oracle.POLARITIES), rng.choice(oracle.POLARITIES)
        matrix = [[int(g == gold and p == pred) for p in oracle.POLARITIES] for g in oracle.POLARITIES]
        setup.append(evaluate_op("one", matrix, [(gold, pred)], rng))
        setup.append(agreement_op("one", gen.rating_rows(rng, 1, sizes.raters)))
    # Repeating the light operations gives their metrics as many samples as a
    # heavy operation's; the same share of operations fails in every round.
    plan.ops = [op for op in setup + ops for _ in range(1 if op.name in spec.heavy else spec.light_repeats)]
    return plan


# ----------------------------------------------------------------- running


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float = 0.0
    ok: bool = True  # false once the operation has failed; its figures are then left out
    scale: float = 1.0  # turns ``wall`` into seconds at the nominal speed (see Clock)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SENTIMATCH_KB"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Spawner:
    """Runs cold ``python -m sentimatch.cli`` processes through ``spawn.py``,
    which times them and takes each one's own peak RSS (see there why they
    are not started from this process). Use as a context manager: leaving it
    ends the helper and waits for it."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], cwd=ROOT,
                                     env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __call__(self, argv: list[str]) -> Result:
        out, err = self.work / "stdout", self.work / "stderr"
        self.proc.stdin.write(json.dumps([[sys.executable, "-m", "sentimatch.cli", *argv],
                                          str(out), str(err), CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawn.py ended early with exit code {self.proc.wait()}")
        code, wall, rss_mb = json.loads(reply)
        return Result(code, out.read_bytes().decode("utf-8", "replace"),
                      err.read_bytes().decode("utf-8", "replace"), wall, rss_mb)


def run_inprocess(argv: list[str]) -> Result:
    """``sentimatch.cli.main`` in this process, looked up at call time so that
    the traced run's wrapper is the one called."""
    import sentimatch.cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = sentimatch.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return Result(code, out.getvalue(), err.getvalue(), perf_counter() - start)


_REFERENCE_RNG = random.Random("reference")
_REFERENCE_LINES = [" ".join("".join(_REFERENCE_RNG.choice("abcdefghijklmnopqrstuvwxyz")
                                     for _ in range(_REFERENCE_RNG.randint(2, 9)))
                             for _ in range(12)) + " :) X!" for _ in range(1000)]
_REFERENCE_WORD = re.compile(r"[a-z]+")


def reference_work() -> float:
    """The wall time of a fixed piece of pure-Python text work (tokenising,
    counting in a dict, JSON) that does not depend on the program."""
    start = perf_counter()
    counts: dict[str, int] = {}
    for line in _REFERENCE_LINES:
        for word in _REFERENCE_WORD.findall(line.lower()):
            counts[word] = counts.get(word, 0) + 1
        sum(1 for ch in line if ch.isupper() or ord(ch) > 127)
    json.dumps(counts)
    return perf_counter() - start


class Clock:
    """Scales each operation's wall time to a nominal machine speed.

    The machine's speed moves by tens of percent over seconds to minutes with
    the load of other tenants. Between every two operations the reference work
    is timed ``REFERENCE_REPS`` times; an operation's scale is
    ``NOMINAL_REFERENCE_S`` over the median of the reference times just before
    and just after it. A scaled time is the time the operation would take at
    the speed at which the reference takes ``NOMINAL_REFERENCE_S``.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = self._probe()

    def _probe(self) -> list[float]:
        times = [reference_work() for _ in range(REFERENCE_REPS)]
        self.samples += times
        return times

    def scale(self, result: Result) -> Result:
        """Call as soon as ``result``'s operation has ended."""
        before, self._last = self._last, self._probe()
        result.scale = NOMINAL_REFERENCE_S / statistics.median(before + self._last)
        return result


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op_name: str, result: Result, check: Callable[[str], None],
               expect_fail: bool = False) -> None:
        """Count one operation and check its output. A failed operation is
        marked so that no metric takes its time or memory, and any failure but
        the known one sets ``correct`` to false: a command that crashes at once
        must not pass for a faster one."""
        self.attempted += 1
        if result.code != 0 or "Traceback (most recent call last)" in result.stderr:
            result.ok = False
            self.failed += 1
            if not expect_fail:
                self.correct = False
                tail = result.stderr.strip().splitlines()[-1:] or [""]
                print(f"FAILED {op_name}: exit {result.code}: {tail[0]}", file=sys.stderr)
            return
        try:
            check(result.stdout)
        except CheckFailed as exc:
            result.ok = False
            self.failed += 1
            self.correct = False
            print(f"WRONG {op_name}: {str(exc)[:2000]}", file=sys.stderr)


def sweep(plan: Plan, tally: Tally, scorer: oracle.Scorer, kb, tracer=None,
          clock: Clock | None = None) -> list[Result]:
    """In-process recommendations, each serialised as the CLI prints it, timed
    in batches of ``SWEEP_BATCH``. Outputs are checked after the timing: in
    full the first time, by comparison with the checked output after that."""
    from sentimatch import recommender

    outputs: list[str | None] = []
    batches: list[Result] = []
    for first in range(0, len(plan.sweep), SWEEP_BATCH):
        start = perf_counter()
        for answers, stats in plan.sweep[first:first + SWEEP_BATCH]:
            if tracer is not None:
                tracer.begin_op("recommend.sweep")
            try:
                document = recommender.recommend(answers, kb, stats).to_dict()
                outputs.append(json.dumps(document, indent=2, ensure_ascii=False))
            except Exception:  # counted as a failed operation below
                traceback.print_exc()
                outputs.append(None)
        batches.append(Result(0, "", "", perf_counter() - start))
        if clock is not None:
            clock.scale(batches[-1])
    for index, (text, want) in enumerate(zip(outputs, plan.sweep_want)):
        def check(out: str, index=index, want=want) -> None:
            if out != plan.sweep_checked[index]:
                scorer.check(json.loads(out), want)
                plan.sweep_checked[index] = out

        call = Result(1 if text is None else 0, text or "", "", 0.0)
        tally.record("recommend.sweep", call, check)
        if not call.ok:
            batches[index // SWEEP_BATCH].ok = False
    return batches


def run_round(plan: Plan, tally: Tally, runner, scorer, kb, tracer=None,
              clock: Clock | None = None) -> dict[str, list[Result]]:
    results: dict[str, list[Result]] = {}
    for op in plan.ops:
        if tracer is not None:
            tracer.begin_op(op.name)
        result = runner(op.argv)
        if clock is not None:
            clock.scale(result)
        results.setdefault(op.name, []).append(result)
        tally.record(op.name, result, op.check, op.expect_fail)
    results["recommend.sweep"] = sweep(plan, tally, scorer, kb, tracer, clock)
    return results


def end_to_end(spec: Workload, plan: Plan, rounds: list[dict[str, list[Result]]],
               scaled: bool = True) -> dict:
    """Throughputs divide the work of one round by the sum of the median times
    of the operations that do it: scaled times (see Clock), or wall-clock
    times with ``scaled`` false. Failed operations count in no metric; a metric
    none of whose operations succeeded reads 0 (``correct`` is then false
    already)."""
    def walls(*names: str) -> list[float]:
        return [r.wall * (r.scale if scaled else 1.0) for rnd in rounds for n in names
                for r in rnd[n] if r.ok]

    def rate(work: float, *names: str) -> float:
        if not all(walls(n) for n in names):
            return 0.0
        return work / sum(statistics.median(walls(n)) for n in names)

    setup = walls(*spec.setup_ops)
    rss = [r.rss_mb for rnd in rounds for name, results in rnd.items()
           if name.split(".")[0] in spec.primary for r in results if r.ok]
    w = plan.work
    return {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "peak_rss_mb": (max(rss, default=0.0), "MB"),
        "profile_mb_per_s": (rate(w["profile_bytes"] / 1e6, "profile.pooled"), "MB/s"),
        "sample_docs_per_s": (rate(w["sample_records"], "sample.labelmap", "sample.retain"), "docs/s"),
        "evaluate_labels_per_s": (rate(w["eval_labels"], "evaluate.main"), "labels/s"),
        "agreement_items_per_s": (rate(w["agree_items"], "agreement.main"), "items/s"),
        "recommend_per_s": (rate(SWEEP_BATCH, "recommend.sweep"), "calls/s"),
    }


def measure(spec: Workload, plan: Plan, seconds: float, work: Path, started: float):
    import sentimatch.profiles

    scorer = oracle.Scorer(DATA / "knowledge_base.json")
    kb = sentimatch.profiles.load_knowledge_base()
    tally = Tally()
    rounds = []
    with Spawner(work) as spawner:
        deadline = perf_counter() + seconds
        clock = Clock()
        last = 0.0
        while len(rounds) < MIN_ROUNDS or room_for(last, deadline, started):
            start = perf_counter()
            rounds.append(run_round(plan, tally, spawner, scorer, kb, clock=clock))
            last = perf_counter() - start
    print(f"reference work: median {statistics.median(clock.samples) * 1e3:.2f} ms of "
          f"{len(clock.samples)} timings; wall-clock figures:")
    for name, (value, unit) in end_to_end(spec, plan, rounds, scaled=False).items():
        print(f"  {name:34} {value:14.6g} {unit}")
    return tally, len(rounds), end_to_end(spec, plan, rounds)


def room_for(round_s: float, deadline: float, started: float) -> bool:
    """Whether a round as long as the last one still ends by the deadline, so
    that a run takes about ``--seconds`` whatever the length of its rounds."""
    end = perf_counter() + round_s
    return end <= deadline and end - started < RUN_LIMIT_S


def measure_traced(plan: Plan, seconds: float, started: float, spans_path: Path):
    """Rounds in this process: one warm-up, then traced and untraced in turn.
    The overhead is the traced rounds' median time against the untraced ones'.
    Prints the layer table and writes the spans out."""
    import sentimatch
    import sentimatch.cli  # noqa: F401  (registers the submodule on the package)
    import spans

    scorer = oracle.Scorer(DATA / "knowledge_base.json")
    kb = sentimatch.profiles.load_knowledge_base()
    tally = Tally()
    tracer = spans.Tracer()
    targets = spans.targets(sentimatch)
    times = {False: [], True: []}

    def one_round(traced: bool) -> float:
        if traced:
            tracer.install(targets)
        try:
            results = run_round(plan, tally, run_inprocess, scorer, kb, tracer if traced else None)
        finally:
            tracer.uninstall()
        return sum(r.wall for rs in results.values() for r in rs)

    deadline = perf_counter() + seconds
    one_round(False)  # warm-up: the word list and lexicon load once per process
    traced = True
    while not (times[True] and times[False]) or room_for(max(times[True]), deadline, started):
        times[traced].append(one_round(traced))
        traced = not traced
    untraced = statistics.median(times[False])
    overhead = 100 * (statistics.median(times[True]) - untraced) / untraced
    tracer.write(spans_path)

    rounds = len(times[True])
    print(f"traced rounds: {rounds}; the layer table and the per-layer metrics are per traced round")
    print(f"{'layer':12} {'calls':>9} {'busy s':>10} {'self s':>10}")
    for layer, row in tracer.layer_table().items():
        print(f"{layer:12} {row['calls'] // rounds:>9} {row['busy_s'] / rounds:>10.4f} "
              f"{row['self_s'] / rounds:>10.4f}")
    print("work: " + ", ".join(f"{k} {v // rounds}" for k, v in sorted(tracer.counts.items())))
    print(f"spans: {spans_path.relative_to(ROOT)}")
    return tally, 1 + len(times[True]) + len(times[False]), \
        spans.per_layer_metrics(tracer, rounds, overhead)


def pin_to_one_cpu() -> None:
    """Keeps this process and its children on one CPU, so that the reference
    work meets the same contention as the operations it is timed between."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    started = perf_counter()
    if not (SRC / "sentimatch" / "cli.py").is_file():
        print(f"error: no sentimatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SENTIMATCH_KB", None)
    pin_to_one_cpu()
    compileall.compile_dir(str(SRC / "sentimatch"), quiet=1)

    spec = WORKLOADS[args.workload]
    sizes = SMALL if args.small else spec.sizes
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        plan = prepare(spec, sizes, args.seed, work)
        print(f"inputs generated in {perf_counter() - started:.2f} s")
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tally, rounds, metrics = measure_traced(plan, args.seconds, started, spans_path)
        else:
            tally, rounds, metrics = measure(spec, plan, args.seconds, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"rounds run: {rounds}, run time {perf_counter() - started:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:14.6g} {unit}")
    print(f"attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
