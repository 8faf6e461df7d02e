from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimatch import (
    EvaluationError,
    RatingMatrix,
    classification_report,
    evaluate_agreement,
    fleiss_kappa,
    landis_koch,
    raw_agreement,
)
from conftest import NEG, NEU, POS
from _oracles import (
    fleiss_kappa_rows_oracle,
    label_rows_oracle,
    rating_counts_oracle,
    raw_agreement_oracle,
    report_oracle,
)

LABELS = (NEG, NEU, POS)


def test_perfect_prediction_scores_one():
    gold = [NEG, NEU, POS, POS, NEG]
    report = classification_report(gold, list(gold))
    assert report.micro_f1 == 1.0
    assert report.macro_f1 == 1.0
    assert report.overall_score == 1.0
    for metrics in report.per_class.values():
        assert metrics.precision == metrics.recall == metrics.f1 == 1.0


def test_hand_built_confusion_matrix_example():
    gold = [NEG, NEG, POS, POS, NEU, NEU]
    pred = [NEG, POS, POS, POS, NEU, NEG]
    report = classification_report(gold, pred)
    # frozen from the rational confusion-matrix oracle:
    # neg P=1/2 R=1/2 F1=1/2; pos P=2/3 R=1 F1=4/5; neu P=1 R=1/2 F1=2/3
    assert report.per_class[NEG].f1 == pytest.approx(0.5, abs=1e-12)
    assert report.per_class[POS].f1 == pytest.approx(0.8, abs=1e-12)
    assert report.per_class[NEU].f1 == pytest.approx(2 / 3, abs=1e-12)
    assert report.micro_f1 == pytest.approx(2 / 3, abs=1e-12)          # 4 of 6 correct
    assert report.macro_f1 == pytest.approx(float(Fraction(59, 90)), abs=1e-12)
    assert report.overall_score == pytest.approx(float(Fraction(119, 180)), abs=1e-12)
    assert report.per_class[NEG].support == 2
    oracle = report_oracle(gold, pred)
    assert report.micro_f1 == pytest.approx(float(oracle["micro_f1"]), abs=1e-15)
    assert report.macro_f1 == pytest.approx(float(oracle["macro_f1"]), abs=1e-15)


def test_overall_is_exact_mean_of_micro_and_macro():
    gold = [NEG, POS, POS, NEU]
    pred = [POS, POS, NEG, NEU]
    report = classification_report(gold, pred)
    assert report.overall_score == (report.micro_f1 + report.macro_f1) / 2


def test_micro_equals_accuracy_on_random_instances():
    rng = random.Random(17)
    for _ in range(300):
        size = rng.randint(1, 200)
        gold = [rng.choice(LABELS) for _ in range(size)]
        pred = [rng.choice(LABELS) for _ in range(size)]
        report = classification_report(gold, pred)
        accuracy = sum(1 for g, p in zip(gold, pred) if g == p) / size
        assert report.micro_f1 == accuracy
        oracle = report_oracle(gold, pred)
        assert abs(report.macro_f1 - float(oracle["macro_f1"])) <= 1e-12
        assert abs(report.overall_score - float(oracle["overall"])) <= 1e-12


def test_report_invariant_under_joint_permutation():
    rng = random.Random(29)
    gold = [rng.choice(LABELS) for _ in range(60)]
    pred = [rng.choice(LABELS) for _ in range(60)]
    base = classification_report(gold, pred)
    order = list(range(60))
    rng.shuffle(order)
    shuffled = classification_report([gold[i] for i in order], [pred[i] for i in order])
    assert shuffled == base


def test_zero_division_yields_zero():
    gold = [NEG, NEG]
    pred = [POS, POS]
    report = classification_report(gold, pred)
    assert report.per_class[NEG].recall == 0.0
    assert report.per_class[NEG].precision == 0.0  # never predicted
    assert report.per_class[NEG].f1 == 0.0
    assert report.per_class[POS].precision == 0.0  # no gold positives
    assert report.micro_f1 == 0.0
    assert report.macro_f1 == 0.0


def test_macro_averages_only_classes_present_in_gold():
    # two effective gold classes; a spurious positive prediction must not
    # shrink the macro average to a third class
    gold = [NEG, NEG, NEU, NEU]
    pred = [NEG, POS, NEU, NEU]
    report = classification_report(gold, pred)
    expected_macro = (report.per_class[NEG].f1 + report.per_class[NEU].f1) / 2
    assert report.macro_f1 == expected_macro
    assert report.per_class[POS].support == 0  # present in the table, not the average


def test_report_accepts_plain_strings():
    report = classification_report(["positive"], ["positive"])
    assert report.micro_f1 == 1.0
    with pytest.raises(EvaluationError, match="not a polarity label"):
        classification_report(["positive"], ["meh"])


def test_report_input_validation():
    with pytest.raises(EvaluationError, match="lengths differ"):
        classification_report([NEG], [NEG, POS])
    with pytest.raises(EvaluationError, match="empty"):
        classification_report([], [])


def test_fleiss_kappa_unanimous_is_exactly_one():
    matrix = RatingMatrix(counts=((3, 0), (0, 3), (3, 0)), raters=3)
    assert fleiss_kappa(matrix) == 1.0


def test_rating_matrix_counts_its_rows_once():
    """Each distinct count row is kept with its multiplicity; the tally is
    derived, so it takes no part in equality, hashing or the repr."""
    matrix = RatingMatrix(counts=((3, 0), (0, 3), (3, 0)), raters=3)
    assert matrix.patterns == (((3, 0), 2), ((0, 3), 1))
    assert matrix == RatingMatrix(counts=[[3, 0], [0, 3], [3, 0]], raters=3)
    assert hash(matrix) == hash(RatingMatrix(counts=matrix.counts, raters=3))
    assert "patterns" not in repr(matrix)
    with pytest.raises(TypeError):
        RatingMatrix(counts=((3, 0),), raters=3, patterns=())


def test_fleiss_kappa_single_category_is_undefined():
    matrix = RatingMatrix(counts=((3, 0), (3, 0)), raters=3)
    assert fleiss_kappa(matrix) is None
    result = evaluate_agreement(matrix)
    assert result.kappa is None
    assert result.interpretation == "undefined"
    assert result.raw_agreement == 1.0


def test_fleiss_kappa_hand_matrix_against_definitional_oracle():
    counts = (
        (2, 1, 0),
        (0, 3, 0),
        (1, 1, 1),
        (0, 0, 3),
        (2, 0, 1),
        (1, 2, 0),
        (0, 3, 0),
        (3, 0, 0),
        (0, 1, 2),
        (1, 1, 1),
    )
    matrix = RatingMatrix(counts=counts, raters=3)
    assert fleiss_kappa(matrix) == fleiss_kappa_rows_oracle(counts, 3)


def test_fleiss_kappa_invariant_under_item_and_category_permutation():
    rng = random.Random(37)
    counts = [
        tuple(row)
        for row in (
            (2, 1, 0),
            (0, 1, 2),
            (1, 1, 1),
            (3, 0, 0),
            (0, 2, 1),
        )
    ]
    base = fleiss_kappa(RatingMatrix(counts=tuple(counts), raters=3))
    for _ in range(10):
        rows = list(counts)
        rng.shuffle(rows)
        column_order = [0, 1, 2]
        rng.shuffle(column_order)
        permuted = tuple(tuple(row[j] for j in column_order) for row in rows)
        assert fleiss_kappa(RatingMatrix(counts=permuted, raters=3)) == base


def test_rating_matrix_validation():
    with pytest.raises(ValueError, match="sums to"):
        RatingMatrix(counts=((2, 0), (1, 1), (3, 0)), raters=2)
    with pytest.raises(ValueError, match="raters"):
        RatingMatrix(counts=((1, 0),), raters=1)
    with pytest.raises(ValueError, match="categories"):
        RatingMatrix(counts=((2,),), raters=2)
    with pytest.raises(ValueError, match="item"):
        RatingMatrix(counts=(), raters=2)
    with pytest.raises(ValueError, match="negative"):
        RatingMatrix(counts=((3, -1),), raters=2)


def test_rating_matrix_from_label_rows():
    matrix = RatingMatrix.from_label_rows([["a", "b", "a"], ["b", "b", "b"]])
    assert matrix.counts == ((2, 1), (0, 3))
    assert matrix.raters == 3
    # degenerate single category gets a placeholder column
    degenerate = RatingMatrix.from_label_rows([["x", "x"], ["x", "x"]])
    assert degenerate.categories == 2
    assert fleiss_kappa(degenerate) is None


def test_raw_agreement_counts_unanimous_items():
    counts = tuple(
        (3, 0) if unanimous else (2, 1)
        for unanimous in [True] * 6 + [False] * 4
    )
    matrix = RatingMatrix(counts=counts, raters=3)
    assert raw_agreement(matrix) == 0.60
    assert raw_agreement(RatingMatrix(counts=((0, 3), (3, 0)), raters=3)) == 1.0
    assert raw_agreement(RatingMatrix(counts=((1, 2), (2, 1)), raters=3)) == 0.0


@pytest.mark.parametrize(
    "kappa,band",
    [
        (0.84, "almost perfect"),
        (0.80, "substantial"),
        (-0.1, "poor"),
        (-1.0, "poor"),
        (0.0, "slight"),
        (0.20, "slight"),
        (0.21, "fair"),
        (0.40, "fair"),
        (0.60, "moderate"),
        (0.601, "substantial"),
        (1.0, "almost perfect"),
    ],
)
def test_landis_koch_bands(kappa, band):
    assert landis_koch(kappa) == band


def test_landis_koch_rejects_out_of_range():
    with pytest.raises(ValueError):
        landis_koch(1.01)
    with pytest.raises(ValueError):
        landis_koch(-1.01)


def test_kappa_one_implies_full_raw_agreement():
    rng = random.Random(41)
    for _ in range(50):
        raters = rng.randint(2, 4)
        items = rng.randint(2, 12)
        categories = rng.randint(2, 3)
        counts = []
        for _ in range(items):
            row = [0] * categories
            for _ in range(raters):
                row[rng.randrange(categories)] += 1
            counts.append(tuple(row))
        matrix = RatingMatrix(counts=tuple(counts), raters=raters)
        if fleiss_kappa(matrix) == 1.0:
            assert raw_agreement(matrix) == 1.0


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)), min_size=1, max_size=60),
    st.booleans(),
)
def test_report_equals_oracle(pairs, as_strings):
    if as_strings:
        pairs = [(g.value, p.value) for g, p in pairs]
    gold, predicted = [g for g, _ in pairs], [p for _, p in pairs]
    report = classification_report(gold, predicted)
    oracle = report_oracle(gold, predicted)
    assert report.micro_f1 == pytest.approx(float(oracle["micro_f1"]), abs=1e-12)
    assert report.macro_f1 == pytest.approx(float(oracle["macro_f1"]), abs=1e-12)
    assert report.overall_score == pytest.approx(float(oracle["overall"]), abs=1e-12)
    assert list(report.per_class) == sorted(oracle["per_class"], key=LABELS.index)
    for label, metrics in report.per_class.items():
        want = oracle["per_class"][label]
        assert metrics.support == want["support"]
        for key in ("precision", "recall", "f1"):
            assert getattr(metrics, key) == pytest.approx(float(want[key]), abs=1e-12)


@st.composite
def rating_matrices(draw) -> RatingMatrix:
    raters = draw(st.integers(2, 6))
    categories = draw(st.integers(2, 5))
    choices = st.lists(st.integers(0, categories - 1), min_size=raters, max_size=raters)
    counts = [
        tuple(picks.count(j) for j in range(categories))
        for picks in draw(st.lists(choices, min_size=1, max_size=50))
    ]
    return RatingMatrix(counts=tuple(counts), raters=raters)


@settings(max_examples=300)
@given(rating_matrices())
def test_fleiss_kappa_equals_oracle_and_lies_in_range(matrix):
    kappa = fleiss_kappa(matrix)
    assert kappa == fleiss_kappa_rows_oracle(matrix.counts, matrix.raters)
    if kappa is not None:
        assert -1.0 <= kappa <= 1.0


# ----------------------------------------- the rating matrix against its oracle


def matrix_outcome(build, *args, **kwargs):
    """``(counts, raters, kappa, raw agreement)`` of the matrix built, or the
    error's type and message."""
    try:
        matrix = build(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    if isinstance(matrix, RatingMatrix):
        return (matrix.counts, matrix.raters, fleiss_kappa(matrix), raw_agreement(matrix))
    counts, raters = matrix
    return (
        counts, raters, fleiss_kappa_rows_oracle(counts, raters), raw_agreement_oracle(counts, raters)
    )


_RATING_LABELS = ["pos", "neg", "neu", "x", 1, None]


@st.composite
def label_grids(draw) -> list[list]:
    """Label rows, most of one width, with a few of another at random places."""
    labels = draw(st.lists(st.sampled_from(_RATING_LABELS), min_size=1, max_size=4, unique=True))
    raters = draw(st.integers(0, 5))
    rows = draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=raters, max_size=raters), max_size=40
    ))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        position = draw(st.integers(0, len(rows) - 1))
        rows[position] = draw(st.lists(st.sampled_from(labels), max_size=6))
    return rows


@settings(max_examples=500)
@given(label_grids())
def test_from_label_rows_equals_oracle(rows):
    expected = matrix_outcome(label_rows_oracle, rows, None)
    assert matrix_outcome(RatingMatrix.from_label_rows, rows) == expected
    # a one-shot generator of tuple rows gives the same
    once = (tuple(row) for row in rows)
    assert matrix_outcome(RatingMatrix.from_label_rows, once) == expected


@st.composite
def count_grids(draw) -> tuple[list[tuple[int, ...]], int]:
    """A valid count matrix, mostly, with rows made negative, too wide or too
    narrow, or summing wrong at random places, and a rater count that may be
    below 2."""
    raters = draw(st.integers(0, 6))
    categories = draw(st.integers(1, 4))
    picks = st.lists(st.integers(0, categories - 1), min_size=raters, max_size=raters)
    counts = [
        tuple(chosen.count(j) for j in range(categories))
        for chosen in draw(st.lists(picks, max_size=40))
    ]
    for _ in range(draw(st.integers(0, 3)) if counts else 0):
        position = draw(st.integers(0, len(counts) - 1))
        row = list(counts[position])
        fault = draw(st.sampled_from(["negative", "wide", "narrow", "sum"])) if row else "wide"
        if fault == "negative":
            j = draw(st.integers(0, len(row) - 1))
            row[j] -= draw(st.integers(1, 3))
            row[(j + 1) % len(row)] += draw(st.sampled_from([0, raters + 3]))
        elif fault == "wide":
            row.append(draw(st.integers(0, 2)))
        elif fault == "narrow":
            row = row[: draw(st.integers(0, len(row)))]
        else:
            row[0] += draw(st.sampled_from([-1, 1, 2]))
        counts[position] = tuple(row)
    return counts, raters


@settings(max_examples=500)
@given(count_grids(), st.booleans())
def test_rating_matrix_checks_equal_oracle(grid, as_lists):
    counts, raters = grid
    given_counts = [list(row) for row in counts] if as_lists else tuple(counts)
    expected = matrix_outcome(rating_counts_oracle, counts, raters)
    assert matrix_outcome(RatingMatrix, counts=given_counts, raters=raters) == expected


def test_rating_matrix_keeps_fields_equality_and_repr():
    matrix = RatingMatrix(counts=[[2, 1], (0, 3)], raters=3)
    assert matrix.counts == ((2, 1), (0, 3))
    assert matrix == RatingMatrix(counts=((2, 1), (0, 3)), raters=3)
    assert repr(matrix) == "RatingMatrix(counts=((2, 1), (0, 3)), raters=3)"


def test_from_label_rows_takes_a_generator():
    matrix = RatingMatrix.from_label_rows(row for row in [["a", "b"], ["b", "b"], ["a", "b"]])
    assert matrix.counts == ((1, 1), (0, 2), (1, 1))
    assert matrix.counts[0] is matrix.counts[2]  # one tuple per distinct label row
    with pytest.raises(ValueError, match="^no rating rows given$"):
        RatingMatrix.from_label_rows(row for row in [])
