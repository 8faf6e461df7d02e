"""Tests of the benchmark itself: small-size runs of every workload with every
check on, the generator's counts, and the checks' power to reject.

Run from the repository root: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_checks_out(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
                 "--small")
    assert proc.returncode == 0, proc.stderr
    assert "FAILED" not in proc.stderr and "WRONG" not in proc.stderr, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the oversized-field profile is the only failing operation, once a round
    rounds = int(re.search(r"^rounds run: (\d+)", proc.stdout, re.M).group(1))
    assert result["failed"] == (rounds if workload == "profile-mixed" else 0)


def test_generator_counts_match_the_program_per_document():
    from sentimatch.textstats import doc_counts

    text_gen = gen.TextGenerator(gen.Vocabulary(run.DATA), random.Random(3))
    docs = text_gen.mixed(300) + [text_gen.log_document(20_000)]
    for doc in docs:
        got = doc_counts(doc.text)
        assert (got.chars, got.words, got.alpha_chars, got.capitalized_words, got.spelling_mistakes,
                got.emoticons, got.question_marks, got.exclamation_marks) == \
            (doc.chars, doc.words, doc.alpha, doc.caps, doc.mistakes, doc.emoticons,
             doc.questions, doc.exclamations), doc.text


def test_mixed_corpus_stays_within_the_measured_profiles():
    """The pooled averages of a mixed corpus lie inside the range the knowledge
    base's statistic_profiles give for the five datasets."""
    profiles = json.loads((run.DATA / "knowledge_base.json").read_text(encoding="utf-8"))
    profiles = profiles["statistic_profiles"].values()
    docs = gen.TextGenerator(gen.Vocabulary(run.DATA), random.Random(2)).mixed(3000)
    for name, value in gen.expected_profile(docs).items():
        low, high = min(p[name] for p in profiles), max(p[name] for p in profiles)
        assert low <= value <= high, (name, value, low, high)


def test_a_crashing_command_fails_the_run_and_counts_in_no_metric(tmp_path):
    """A command that raises at once must not pass for a faster one."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "sentimatch" / "metrics.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef classification_report(*args, **kwargs):\n    raise RuntimeError('broken')\n")
    proc = bench("--workload", "annotate", "--seed", "7", "--seconds", "0", "--trace", "0",
                 "--small", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "FAILED evaluate.main" in proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["evaluate_labels_per_s"]["value"] == 0
    assert result["metrics"]["agreement_items_per_s"]["value"] > 0


def test_failed_results_are_left_out_of_the_metrics():
    fast, slow = run.Result(1, "", "", 0.001, 500.0), run.Result(0, "", "", 1.0, 50.0)
    tally = run.Tally()
    tally.record("evaluate.main", fast, lambda out: None)
    tally.record("evaluate.main", slow, lambda out: None)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)
    names = ("profile.pooled", "sample.labelmap", "sample.retain", "agreement.main",
             "recommend.sweep", "evaluate.one")
    rounds = [{"evaluate.main": [fast, slow], **{n: [run.Result(0, "", "", 1.0)] for n in names}}]
    plan = run.Plan([], [], [], {"profile_bytes": 1, "sample_records": 1, "eval_labels": 100,
                                 "agree_items": 1})
    spec = run.Workload(run.SMALL, setup_ops=("evaluate.one",), primary=("evaluate",))
    metrics = run.end_to_end(spec, plan, rounds)
    assert metrics["evaluate_labels_per_s"][0] == 100
    assert metrics["peak_rss_mb"][0] == 50


def test_times_are_scaled_by_the_reference_around_them():
    clock = run.Clock()
    result = clock.scale(run.Result(0, "", "", 2.0))
    assert len(clock.samples) == 2 * run.REFERENCE_REPS
    assert result.scale == run.NOMINAL_REFERENCE_S / statistics.median(clock.samples)
    names = ("profile.pooled", "sample.labelmap", "sample.retain", "evaluate.main",
             "agreement.main", "recommend.sweep")
    rounds = [{n: [run.Result(0, "", "", 1.0, scale=0.5)] for n in names}]
    plan = run.Plan([], [], [], {"profile_bytes": 1, "sample_records": 1, "eval_labels": 100,
                                 "agree_items": 1})
    spec = run.Workload(run.SMALL, setup_ops=("profile.pooled",), primary=("profile",))
    assert run.end_to_end(spec, plan, rounds)["evaluate_labels_per_s"][0] == 200
    assert run.end_to_end(spec, plan, rounds, scaled=False)["evaluate_labels_per_s"][0] == 100
    assert run.end_to_end(spec, plan, rounds)["setup_s"][0] == 0.5


def test_peak_rss_is_the_commands_own(tmp_path):
    """A command forked from a large process would report that process's size."""
    ballast = b"x" * 80_000_000
    with run.Spawner(tmp_path) as spawner:
        result = spawner(["--help"])
    assert len(ballast) and result.code == 0 and "recommend" in result.stdout
    assert 5 < result.rss_mb < 50, result.rss_mb


def test_inputs_repeat_for_a_seed(tmp_path):
    spec = run.WORKLOADS["annotate"]
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        run.prepare(spec, run.SMALL, 5, tmp_path / name)
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes(), path.name


def test_checks_reject_wrong_outputs():
    docs = gen.TextGenerator(gen.Vocabulary(run.DATA), random.Random(1)).mixed(5)
    check = run.profile_check(docs)
    good = {"documents": 5, "class_distribution": gen.class_counts(d.label for d in docs),
            "min_sample_size": 5, "statistics": gen.expected_profile(docs)}
    check(json.dumps(good))
    good["statistics"]["avg_emoticons"] += 1e-12
    with pytest.raises(oracle.CheckFailed):
        check(json.dumps(good))

    records = [(f"d{i}", "text", "negative" if i % 3 else "positive") for i in range(30)]
    check = run.sample_check(records, 10, None, run.read_csv_rows)
    rows = ["id,text,label"] + [",".join(r) for r in reversed(records[:10])]
    with pytest.raises(oracle.CheckFailed, match="input order"):
        check("\n".join(rows) + "\n")

    assert oracle.landis_koch(oracle.fleiss([["a", "a"], ["b", "b"]])[0]) == "almost perfect"
    assert oracle.largest_remainder({"negative": 1, "neutral": 1, "positive": 1}, 2) == \
        {"negative": 1, "neutral": 1, "positive": 0}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "annotate", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
