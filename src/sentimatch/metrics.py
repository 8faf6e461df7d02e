"""Evaluation machinery: classification reports, Fleiss' kappa, raw agreement
and Landis-Koch interpretation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from .corpus import _POLARITY, CLASS_ORDER, PolarityLabel
from .errors import EvaluationError


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int

    def to_dict(self) -> dict[str, float | int]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": self.support,
        }


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class precision/recall/F1 plus micro, macro and overall scores.

    ``micro_f1`` equals accuracy for single-label multi-class input;
    ``macro_f1`` is the unweighted mean of per-class F1 over the classes
    present in the gold labels; ``overall_score`` is exactly their average.
    Zero denominators yield 0 throughout.
    """

    per_class: Mapping[PolarityLabel, ClassMetrics]
    micro_f1: float
    macro_f1: float
    overall_score: float

    def to_dict(self) -> dict:
        return {
            "per_class": {label.value: m.to_dict() for label, m in self.per_class.items()},
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "overall_score": self.overall_score,
        }


def _coerce_labels(values: Sequence, side: str) -> list[PolarityLabel]:
    labels = []
    for index, value in enumerate(values):
        try:
            labels.append(_POLARITY[value])
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise EvaluationError(
                f"{side}[{index}] is {value!r}, not a polarity label"
            ) from None
    return labels


def classification_report(
    gold: Sequence[PolarityLabel | str], predicted: Sequence[PolarityLabel | str]
) -> ClassificationReport:
    """Score predictions against gold labels.

    Labels are polarity members or their string values. Each distinct
    (gold, predicted) pair is counted, then coerced to members once; when a
    pair holds a label that is not a polarity, every gold label and then every
    predicted label is coerced in order, so the error names the first bad
    ``gold[i]`` before any ``predicted[i]``.

    Raises EvaluationError on empty input, length mismatch or a label that
    is not a polarity.
    """
    if len(gold) != len(predicted):
        raise EvaluationError(
            f"gold and predicted lengths differ: {len(gold)} vs {len(predicted)}"
        )
    if not gold:
        raise EvaluationError("cannot evaluate empty label lists")
    try:
        pairs = [((_POLARITY[g], _POLARITY[p]), n) for (g, p), n in Counter(zip(gold, predicted)).items()]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        pairs = Counter(zip(_coerce_labels(gold, "gold"), _coerce_labels(predicted, "predicted"))).items()
    gold_counts: Counter = Counter()
    pred_counts: Counter = Counter()
    tp: Counter = Counter()
    for (g, p), n in pairs:
        gold_counts[g] += n
        pred_counts[p] += n
        if g == p:
            tp[g] += n

    per_class: dict[PolarityLabel, ClassMetrics] = {}
    observed = [c for c in CLASS_ORDER if gold_counts[c] or pred_counts[c]]
    for label in observed:
        hits = tp[label]
        precision = hits / pred_counts[label] if pred_counts[label] else 0.0
        recall = hits / gold_counts[label] if gold_counts[label] else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = ClassMetrics(precision, recall, f1, gold_counts[label])

    correct = sum(tp.values())
    micro_f1 = correct / len(gold)  # = global-count F1 for single-label input
    in_gold = [c for c in CLASS_ORDER if gold_counts[c]]
    macro_f1 = sum(per_class[c].f1 for c in in_gold) / len(in_gold)
    return ClassificationReport(
        per_class=per_class,
        micro_f1=micro_f1,
        macro_f1=macro_f1,
        overall_score=(micro_f1 + macro_f1) / 2,
    )


@dataclass(frozen=True)
class RatingMatrix:
    """Items x categories table of rater counts, a fixed ``raters`` per item."""

    counts: tuple[tuple[int, ...], ...]
    raters: int
    #: Each distinct count row with its multiplicity, in order of first appearance.
    patterns: tuple[tuple[tuple[int, ...], int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # tuple() hands back a row that is already a tuple, so rows shared
        # between items stay shared.
        object.__setattr__(self, "counts", tuple(map(tuple, self.counts)))
        if self.raters < 2:
            raise ValueError("a rating matrix needs at least 2 raters")
        if not self.counts:
            raise ValueError("a rating matrix needs at least 1 item")
        categories = len(self.counts[0])
        if categories < 2:
            raise ValueError("a rating matrix needs at least 2 categories")
        try:
            patterns = tuple(Counter(self.counts).items())
            valid = not any(_row_fault(row, categories, self.raters) for row, _ in patterns)
        except TypeError:  # an unhashable or incomparable count: the walk below meets it in order
            valid = False
        if not valid:  # name the first faulty row
            for index, row in enumerate(self.counts):
                fault = _row_fault(row, categories, self.raters)
                if fault:
                    raise ValueError(f"row {index} {fault}")
            patterns = tuple(Counter(self.counts).items())  # an unhashable row no fault names raises here
        object.__setattr__(self, "patterns", patterns)

    @property
    def items(self) -> int:
        return len(self.counts)

    @property
    def categories(self) -> int:
        return len(self.counts[0])

    @classmethod
    def from_label_rows(cls, rows: Iterable[Sequence[Hashable]]) -> "RatingMatrix":
        """Aggregate per-item rater labels into a count matrix.

        Category columns follow the sorted distinct labels. A single observed
        category is padded with one unused column so the degenerate all-agree
        matrix stays representable (kappa is undefined there regardless).
        """
        distinct: dict[tuple, tuple] = {}  # each label row once, in order of first appearance
        shared = distinct.setdefault
        keys = [shared(key, key) for key in map(tuple, rows)]
        if not keys:
            raise ValueError("no rating rows given")
        raters = len(keys[0])
        cats = sorted({label for key in distinct for label in key}, key=repr)
        if len(cats) == 1:
            cats.append(None)  # placeholder column, never used by a rater
        column = {category: index for index, category in enumerate(cats)}
        # A faulty label row fails where it first appears, so checking the
        # distinct rows in order names the same item as checking every row.
        for key in distinct:
            if len(key) != raters:
                raise ValueError(f"item {keys.index(key)} has {len(key)} ratings, expected {raters}")
            tally = [0] * len(cats)
            for label in key:
                tally[column[label]] += 1
            distinct[key] = tuple(tally)
        return cls(counts=tuple(map(distinct.__getitem__, keys)), raters=raters)


def _row_fault(row: tuple, categories: int, raters: int) -> str | None:
    """What is wrong with one count row, or None."""
    if len(row) != categories:
        return f"has {len(row)} categories, expected {categories}"
    if any(c < 0 for c in row):
        return "contains a negative count"
    if sum(row) != raters:
        return f"sums to {sum(row)}, expected {raters} raters"
    return None


def fleiss_kappa(matrix: RatingMatrix) -> float | None:
    """Fleiss' kappa for the matrix, or None when chance agreement is exactly 1.

    kappa = (P_observed - P_expected) / (1 - P_expected), with the observed
    term averaged over items and the expected term from squared category
    margins. Internally exact (rational arithmetic), returned as float.
    """
    r = matrix.raters
    n_items = matrix.items
    observed_sum = sum(n * (sum(c * c for c in row) - r) for row, n in matrix.patterns)
    p_observed = Fraction(observed_sum, n_items * r * (r - 1))
    column_totals = [sum(n * row[j] for row, n in matrix.patterns) for j in range(matrix.categories)]
    p_expected = sum(Fraction(t, n_items * r) ** 2 for t in column_totals)
    if p_expected == 1:
        return None  # all mass in one category: kappa is undefined
    return float((p_observed - p_expected) / (1 - p_expected))


def raw_agreement(matrix: RatingMatrix) -> float:
    """Proportion of items on which all raters chose the same category."""
    unanimous = sum(n for row, n in matrix.patterns if max(row) == matrix.raters)
    return unanimous / matrix.items


#: Landis-Koch bands for kappa >= 0, lower-exclusive / upper-inclusive.
_LANDIS_KOCH_BANDS: tuple[tuple[float, str], ...] = (
    (0.20, "slight"),
    (0.40, "fair"),
    (0.60, "moderate"),
    (0.80, "substantial"),
    (1.0, "almost perfect"),
)


def landis_koch(kappa: float) -> str:
    """Qualitative band for a kappa in [-1, 1]."""
    if not -1.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must be in [-1, 1], got {kappa}")
    if kappa < 0.0:
        return "poor"
    for upper, band in _LANDIS_KOCH_BANDS:
        if kappa <= upper:
            return band
    return "almost perfect"  # unreachable; kappa <= 1 handled above


@dataclass(frozen=True)
class AgreementResult:
    """Kappa with its raw-agreement companion and Landis-Koch interpretation."""

    kappa: float | None
    raw_agreement: float
    interpretation: str

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "raw_agreement": self.raw_agreement,
            "interpretation": self.interpretation,
        }


def evaluate_agreement(matrix: RatingMatrix) -> AgreementResult:
    kappa = fleiss_kappa(matrix)
    interpretation = "undefined" if kappa is None else landis_koch(kappa)
    return AgreementResult(
        kappa=kappa, raw_agreement=raw_agreement(matrix), interpretation=interpretation
    )
