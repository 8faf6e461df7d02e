"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

from sentimatch import (
    QuestionnaireAnswers,
    RatingMatrix,
    UserStatistics,
    classification_report,
    derive_mapping,
    fleiss_kappa,
    load_knowledge_base,
    min_sample_size,
    recommend,
    sample_with_minority_retention,
    score_linguistic,
    score_statistics,
    stratified_sample,
)
from sentimatch.profiles import FEATURE_ORDER, PLATFORM_ORDER, bundled_kb_path
from conftest import NEG, NEU, POS, labeled_corpus
from _oracles import fleiss_kappa_rows_oracle, report_oracle

LABELS = (NEG, NEU, POS)


def _stopwatch():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def test_criterion_1_bundled_answers_reproduction(kb, example_answers):
    """Bundled answers fixture scores (1, 7, 9, 6, 7; ambiguous 4) and recommends GitHub."""
    elapsed = _stopwatch()
    board = score_linguistic(example_answers, kb.mapping)
    points = {p.value: board.points[p] for p in PLATFORM_ORDER}
    assert points == {
        "AppReviews": 1,
        "CodeReviews": 7,
        "GitHub": 9,
        "Jira": 6,
        "StackOverflow": 7,
    }
    assert board.ambiguous == 4
    recommendation = recommend(example_answers, kb)
    assert not recommendation.ambiguous
    assert [p.value for p in recommendation.platforms] == ["GitHub"]
    assert elapsed() < 1.0
    print("criterion 1 (bundled answers reproduction): PASS")


def test_criterion_2_interval_mapping_reproduction(kb):
    """Interval bucketing of the linguistic profiles equals the embedded
    expected mapping in all 65 cells."""
    elapsed = _stopwatch()
    raw = json.loads(bundled_kb_path().read_text(encoding="utf-8"))
    expected = raw["expected_interval_mapping"]
    derived = derive_mapping(kb.linguistic)
    cells_checked = 0
    for feature in FEATURE_ORDER:
        expected_by_platform = {}
        for option, platforms in expected[feature.value].items():
            for platform in platforms:
                expected_by_platform[platform] = option
        for platform in PLATFORM_ORDER:
            assert (
                derived.options[feature][platform].value
                == expected_by_platform[platform.value]
            ), f"{feature.value}/{platform.value}"
            cells_checked += 1
    assert cells_checked == 65
    assert elapsed() < 1.0
    print("criterion 2 (interval mapping, 65 cells): PASS")


def test_criterion_3_sample_sizes(kb):
    """Minimum sample sizes reproduce the published pool values exactly; the
    App pool is asserted as 181 plus neutral retention (total 193)."""
    elapsed = _stopwatch()
    for population, expected in ((1600, 310), (10669, 371), (8095, 367), (10705, 371)):
        assert min_sample_size(population) == expected
    assert min_sample_size(341) == 181
    app_pool = labeled_corpus(130, 25, 186)
    sample = sample_with_minority_retention(app_pool, 181, NEU, seed=20)
    labels = [doc.label for doc in sample]
    assert labels.count(NEU) == 25
    assert len(sample) == 193
    assert elapsed() < 1.0
    print("criterion 3 (sample sizes + retention): PASS")


def test_criterion_4_performance_table_consistency(kb):
    """Every embedded performance cell satisfies |printed - (micro+macro)/2|
    <= 0.01 except the documented anomalies, which the integrity check flags
    exactly; the SentiSW / SO 2 cell is among them."""
    elapsed = _stopwatch()
    tolerance = Fraction(1, 100)
    flagged = set()
    for record in kb.performance:
        diff = abs(Fraction(str(record.overall)) - record.overall_exact)
        if diff > tolerance:
            flagged.add((record.tool, record.dataset))
    assert flagged == set(kb.known_anomalies)
    assert flagged == set(kb.integrity.flagged)
    assert ("SentiSW", "SO 2") in flagged
    datasets = {record.dataset for record in kb.performance}
    tools = {record.tool for record in kb.performance}
    assert len(datasets) == 10
    assert len(kb.performance) == len(datasets) * len(tools)
    assert elapsed() < 1.0
    print(f"criterion 4 (performance-table consistency, flags {sorted(flagged)}): PASS")


def test_criterion_5_classification_report_oracle_equivalence():
    """1000 randomized 3-class instances (lengths 1..200): report matches the
    brute-force confusion-matrix oracle within 1e-12 and micro F1 equals
    accuracy exactly."""
    rng = random.Random(1234)
    for _ in range(1000):
        size = rng.randint(1, 200)
        gold = [rng.choice(LABELS) for _ in range(size)]
        predicted = [rng.choice(LABELS) for _ in range(size)]
        report = classification_report(gold, predicted)
        oracle = report_oracle(gold, predicted)
        assert abs(report.micro_f1 - float(oracle["micro_f1"])) <= 1e-12
        assert abs(report.macro_f1 - float(oracle["macro_f1"])) <= 1e-12
        assert abs(report.overall_score - float(oracle["overall"])) <= 1e-12
        for label, metrics in report.per_class.items():
            assert abs(metrics.precision - float(oracle["per_class"][label]["precision"])) <= 1e-12
            assert abs(metrics.recall - float(oracle["per_class"][label]["recall"])) <= 1e-12
            assert abs(metrics.f1 - float(oracle["per_class"][label]["f1"])) <= 1e-12
        accuracy = sum(1 for g, p in zip(gold, predicted) if g == p) / size
        assert report.micro_f1 == accuracy
    print("criterion 5 (classification report vs oracle, 1000 cases): PASS")


def test_criterion_6_fleiss_kappa_oracle_equivalence():
    """100 randomized rating matrices (items <= 50, raters <= 5, categories
    <= 4) equal an exact oracle that sums Fractions over every item; unanimity
    gives kappa = 1; a single used category yields the undefined signal."""
    rng = random.Random(4321)
    checked = 0
    while checked < 100:
        raters = rng.randint(2, 5)
        categories = rng.randint(2, 4)
        items = rng.randint(1, 50)
        counts = []
        for _ in range(items):
            row = [0] * categories
            for _ in range(raters):
                row[rng.randrange(categories)] += 1
            counts.append(tuple(row))
        matrix = RatingMatrix(counts=tuple(counts), raters=raters)
        assert fleiss_kappa(matrix) == fleiss_kappa_rows_oracle(counts, raters)
        checked += 1

    unanimous = RatingMatrix(counts=((4, 0, 0), (0, 4, 0), (0, 0, 4)), raters=4)
    assert fleiss_kappa(unanimous) == 1.0
    degenerate = RatingMatrix(counts=((3, 0), (3, 0), (3, 0)), raters=3)
    assert fleiss_kappa(degenerate) is None
    print("criterion 6 (Fleiss kappa vs oracle, 100 matrices): PASS")


def test_criterion_7_statistics_matching_all_platforms(kb):
    """A statistics vector equal to any platform's profile awards that
    platform all 8 points, for all five platforms."""
    for platform in PLATFORM_ORDER:
        stats = UserStatistics(values=dict(kb.statistics[platform].values))
        board = score_statistics(stats, kb.statistics)
        assert board.points[platform] == 8, platform.value
        assert sum(board.points.values()) == 8, platform.value
    print("criterion 7 (statistics matching, all five platforms): PASS")


def test_criterion_8_questionnaire_self_consistency(kb):
    """Answering with a platform's own derived intervals puts that platform in
    the argmax set, for all five platforms."""
    for platform in PLATFORM_ORDER:
        answers = QuestionnaireAnswers(answers=kb.mapping.answers_for(platform))
        board = score_linguistic(answers, kb.mapping)
        top = max(board.points.values())
        assert board.points[platform] == top, platform.value
        recommendation = recommend(answers, kb)
        assert platform in recommendation.platforms, platform.value
    print("criterion 8 (self-consistency, all five platforms): PASS")


def test_criterion_9_determinism(kb, example_answers):
    """Stratified sampling and the full recommendation pipeline are
    bit-identical across runs with the same seed and inputs."""
    corpus = labeled_corpus(398, 1202, 0)
    first = stratified_sample(corpus, 310, seed=77)
    second = stratified_sample(corpus, 310, seed=77)
    assert tuple(doc.id for doc in first) == tuple(doc.id for doc in second)
    assert first == second

    def run_pipeline() -> str:
        fresh_kb = load_knowledge_base()
        stats = UserStatistics(values={"avg_chars_per_doc": 104.21, "avg_emoticons": 0.18})
        recommendation = recommend(example_answers, fresh_kb, stats)
        return json.dumps(recommendation.to_dict(), sort_keys=True)

    assert run_pipeline() == run_pipeline()
    print("criterion 9 (determinism): PASS")
