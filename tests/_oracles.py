"""Independent reference implementations used to cross-check the package.

Each function has one oracle, save the classification report (see the
end), and each oracle takes a different computational route than the
library:

* classification metrics: exact-rational confusion-matrix arithmetic
  (``report_oracle``), and the original classification report, every label
  coerced in order before the pairs are counted; the original join of
  ``evaluate`` compares the two id sets, then reorders the predictions;
* agreement: the original rating matrix, every label row tallied and every
  count row checked one by one; the original reader of ``agreement``'s item
  rows, every row checked for an empty rating as it is read; Fleiss' kappa in
  Fractions summed over every item, and raw agreement item by item;
* best tools: scores parsed as Decimal strings from the raw knowledge-base
  records, for the original recommender, which also scans the interval
  mapping and measures statistic distances in Fractions; the original JSON
  form of a recommendation, every name read through the members' ``.value``;
* sampling: every allocation's largest remainders, the original class-count
  and draw loops of stratified sampling, and the original ``SampleSpec``'s
  sample size (z from the confidence level on every call);
* text statistics: the original tokenizer (every text masked, words found
  with their offsets), per-character loops for the per-document counts (emoji
  by a range scan of every code point, handles told by the character before
  the token) and one ``Fraction`` per document for the corpus averages;
* files: the original corpus loaders (a ``json.loads`` call per JSONL line,
  every document built and checked by ``Document`` itself, every id walked
  for a repeat), their record readers (a list of ``(row, id, text, label)``
  tuples, each record's label string its own), a label-file reader that
  reads CSV with ``csv.DictReader``, and the original ``load_labels``, which
  walks the package's records one by one.

Classification metrics keep two oracles because they check different
things: ``report_oracle`` is the exact-rational definition, compared within
1e-12, and ``classification_report_oracle`` is compared exactly, its errors
and their order included.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist
from typing import Hashable, Iterable, Iterator, Sequence

from sentimatch import cli
from sentimatch.corpus import (
    _POLARITY,
    _SURROGATE_RE,
    CLASS_ORDER,
    DROP,
    Corpus,
    Document,
    IngestOptions,
    PolarityLabel,
    _corpus_format,
    _read_records,
    _record_ids,
    _strip_markup,
    open_input,
)
from sentimatch.errors import (
    CorpusFormatError,
    EvaluationError,
    LabelMappingError,
    SamplingError,
)
from sentimatch.metrics import ClassificationReport, ClassMetrics
from sentimatch.profiles import FEATURE_ORDER, PLATFORM_ORDER, AnswerOption
from sentimatch.recommender import (
    FeatureAward,
    Recommendation,
    ScoreBoard,
    StatisticAward,
)
from sentimatch.sampling import apportion
from sentimatch.textstats import (
    _CODE_SPAN_RE,
    _EMOJI_RANGES,
    _URL_RE,
    _WORD_RE,
    STAT_FIELDS,
    DocCounts,
    TextStatistics,
)


def report_oracle(gold: Sequence[Hashable], predicted: Sequence[Hashable]) -> dict:
    """Brute-force confusion-matrix metrics with exact rational arithmetic.

    Macro averages over classes present in gold; zero denominators yield 0.
    """
    assert len(gold) == len(predicted) and gold
    classes = sorted({*gold, *predicted}, key=str)
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for g, p in zip(gold, predicted):
        if g == p:
            tp[g] += 1
        else:
            fp[p] += 1
            fn[g] += 1

    def safe_div(a: int, b: int) -> Fraction:
        return Fraction(a, b) if b else Fraction(0)

    per_class = {}
    for c in classes:
        precision = safe_div(tp[c], tp[c] + fp[c])
        recall = safe_div(tp[c], tp[c] + fn[c])
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else Fraction(0)
        per_class[c] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": tp[c] + fn[c],
        }

    micro_tp = sum(tp.values())
    micro_fp = sum(fp.values())
    micro_fn = sum(fn.values())
    micro_precision = safe_div(micro_tp, micro_tp + micro_fp)
    micro_recall = safe_div(micro_tp, micro_tp + micro_fn)
    micro_f1 = (
        2 * micro_precision * micro_recall / (micro_precision + micro_recall)
        if micro_precision + micro_recall
        else Fraction(0)
    )
    gold_classes = [c for c in classes if any(g == c for g in gold)]
    macro_f1 = sum(per_class[c]["f1"] for c in gold_classes) / len(gold_classes)
    accuracy = Fraction(sum(1 for g, p in zip(gold, predicted) if g == p), len(gold))
    return {
        "per_class": per_class,
        "micro_f1": micro_f1,
        "macro_f1": macro_f1,
        "overall": (micro_f1 + macro_f1) / 2,
        "accuracy": accuracy,
    }


def classification_report_oracle(gold: Sequence, predicted: Sequence) -> ClassificationReport:
    """The original ``classification_report``: every gold label, then every
    predicted label, coerced to a polarity member in order, then the pairs
    counted."""
    if len(gold) != len(predicted):
        raise EvaluationError(f"gold and predicted lengths differ: {len(gold)} vs {len(predicted)}")
    if not gold:
        raise EvaluationError("cannot evaluate empty label lists")
    coerced = []
    for side, values in (("gold", gold), ("predicted", predicted)):
        labels = []
        for index, value in enumerate(values):
            try:
                labels.append(_POLARITY[value])
            except (KeyError, TypeError):
                raise EvaluationError(f"{side}[{index}] is {value!r}, not a polarity label") from None
        coerced.append(labels)
    pairs = Counter(zip(*coerced))
    gold_counts: Counter = Counter()
    pred_counts: Counter = Counter()
    tp: Counter = Counter()
    for (g, p), n in pairs.items():
        gold_counts[g] += n
        pred_counts[p] += n
        if g == p:
            tp[g] += n
    per_class = {}
    for label in [c for c in CLASS_ORDER if gold_counts[c] or pred_counts[c]]:
        hits = tp[label]
        precision = hits / pred_counts[label] if pred_counts[label] else 0.0
        recall = hits / gold_counts[label] if gold_counts[label] else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = ClassMetrics(precision, recall, f1, gold_counts[label])
    micro_f1 = sum(tp.values()) / len(gold)
    in_gold = [c for c in CLASS_ORDER if gold_counts[c]]
    macro_f1 = sum(per_class[c].f1 for c in in_gold) / len(in_gold)
    return ClassificationReport(
        per_class=per_class, micro_f1=micro_f1, macro_f1=macro_f1, overall_score=(micro_f1 + macro_f1) / 2
    )


def evaluate_join_oracle(gold_by_id: dict, pred_by_id: dict) -> tuple[list, list]:
    """The original join of ``evaluate``: the two id sets compared, then the
    predictions reordered to gold file order."""
    if gold_by_id.keys() != pred_by_id.keys():
        missing_pred = sorted(gold_by_id.keys() - pred_by_id.keys())
        missing_gold = sorted(pred_by_id.keys() - gold_by_id.keys())
        raise EvaluationError(
            f"id mismatch between gold and predictions: "
            f"missing from predictions {missing_pred[:5]}, missing from gold {missing_gold[:5]}"
        )
    return list(gold_by_id.values()), [pred_by_id[doc_id] for doc_id in gold_by_id]


def evaluate_command_oracle(args) -> int:
    """The original ``evaluate`` command: the package's label reader and
    output, the original join and classification report."""
    gold_by_id = cli.load_labels(args.gold, args.corpus_format)
    pred_by_id = cli.load_labels(args.pred, args.corpus_format)
    report = classification_report_oracle(*evaluate_join_oracle(gold_by_id, pred_by_id))
    cli._emit({"documents": len(gold_by_id), **report.to_dict()}, args, cli._render_report)
    return 0


def rating_counts_oracle(
    counts: Sequence[Sequence[int]], raters: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The original ``RatingMatrix`` check: every count row, in order."""
    counts = tuple(tuple(row) for row in counts)
    if raters < 2:
        raise ValueError("a rating matrix needs at least 2 raters")
    if not counts:
        raise ValueError("a rating matrix needs at least 1 item")
    categories = len(counts[0])
    if categories < 2:
        raise ValueError("a rating matrix needs at least 2 categories")
    for index, row in enumerate(counts):
        if len(row) != categories:
            raise ValueError(f"row {index} has {len(row)} categories, expected {categories}")
        if any(c < 0 for c in row):
            raise ValueError(f"row {index} contains a negative count")
        if sum(row) != raters:
            raise ValueError(f"row {index} sums to {sum(row)}, expected {raters} raters")
    return counts, raters


def label_rows_oracle(
    rows, categories: Sequence[Hashable] | None = None
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The original ``RatingMatrix.from_label_rows``: each row tallied label by
    label; returns the checked ``(counts, raters)``."""
    rows = [list(row) for row in rows]
    if not rows:
        raise ValueError("no rating rows given")
    raters = len(rows[0])
    if categories is None:
        seen = {label for row in rows for label in row}
        cats = sorted(seen, key=repr)
        if len(cats) == 1:
            cats.append(None)
    else:
        cats = list(categories)
    column = {category: index for index, category in enumerate(cats)}
    counts = []
    for index, row in enumerate(rows):
        if len(row) != raters:
            raise ValueError(f"item {index} has {len(row)} ratings, expected {raters}")
        tally = [0] * len(cats)
        for label in row:
            if label not in column:
                raise ValueError(f"item {index}: label {label!r} not in category list")
            tally[column[label]] += 1
        counts.append(tuple(tally))
    return rating_counts_oracle(counts, raters)


def ratings_oracle(rows: Iterable[Sequence]) -> Iterator[Sequence]:
    """The original reader of ``agreement``'s item rows: each row's ratings,
    checked one by one for an empty rating, which fails once every row is read."""
    empty = None
    for item, row in enumerate(rows):
        if "" in (ratings := row[1:]) and empty is None:
            empty = item
        yield ratings
    if empty is not None:
        raise ValueError(f"item {empty} has an empty rating")


def fleiss_kappa_rows_oracle(counts: Sequence[Sequence[int]], raters: int) -> float | None:
    """The original exact Fleiss' kappa: Fractions summed over every item."""
    r, n_items = raters, len(counts)
    observed_sum = sum(sum(c * c for c in row) - r for row in counts)
    p_observed = Fraction(observed_sum, n_items * r * (r - 1))
    column_totals = [sum(row[j] for row in counts) for j in range(len(counts[0]))]
    p_expected = sum(Fraction(t, n_items * r) ** 2 for t in column_totals)
    if p_expected == 1:
        return None
    return float((p_observed - p_expected) / (1 - p_expected))


def raw_agreement_oracle(counts: Sequence[Sequence[int]], raters: int) -> float:
    """The share of items whose raters all chose one category, item by item."""
    return sum(1 for row in counts if max(row) == raters) / len(counts)


def best_tools_oracle(kb_raw: dict) -> dict[str, list[str]]:
    """Exhaustive best-tool enumeration from the raw knowledge-base JSON,
    parsing scores as Decimal strings (independent of the library's parsing)."""
    per_platform: dict[str, dict[str, list[Fraction]]] = {}
    for record in kb_raw["tool_performance"]:
        overall = (
            Fraction(Decimal(str(record["micro_f1"]))) + Fraction(Decimal(str(record["macro_f1"])))
        ) / 2
        per_platform.setdefault(record["platform"], {}).setdefault(record["tool"], []).append(overall)
    result = {}
    for platform, tools in per_platform.items():
        means = {tool: sum(scores) / len(scores) for tool, scores in tools.items()}
        top = max(means.values())
        result[platform] = sorted(t for t, m in means.items() if m == top)
    return result


def held_out_regret_oracle(kb_raw: dict) -> dict[str, tuple]:
    """For each dataset of a platform with more than one, held out: the tools
    picked by best mean overall over the platform's other datasets, with their
    regret, then the same over every other dataset. Regret is the held-out
    dataset's best overall minus the picked tools' mean overall on it. Scores
    are read from the raw knowledge-base JSON as the decimals they print as."""
    overall: dict[str, dict[str, Fraction]] = {}  # dataset -> tool -> overall
    platform_of: dict[str, str] = {}
    for record in kb_raw["tool_performance"]:
        micro, macro = (Fraction(Decimal(repr(record[key]))) for key in ("micro_f1", "macro_f1"))
        overall.setdefault(record["dataset"], {})[record["tool"]] = (micro + macro) / 2
        platform_of[record["dataset"]] = record["platform"]

    def picked(datasets: list[str]) -> tuple[str, ...]:
        means = {tool: sum(overall[d][tool] for d in datasets) / len(datasets) for tool in overall[datasets[0]]}
        return tuple(sorted(tool for tool, mean in means.items() if mean == max(means.values())))

    def regret(held: str, tools: tuple[str, ...]) -> Fraction:
        return max(overall[held].values()) - sum(overall[held][tool] for tool in tools) / len(tools)

    table = {}
    for held, platform in platform_of.items():
        siblings = [d for d, p in platform_of.items() if p == platform and d != held]
        if siblings:
            by_platform = picked(siblings)
            by_all = picked([d for d in platform_of if d != held])
            table[held] = (by_platform, regret(held, by_platform), by_all, regret(held, by_all))
    return table


def largest_remainder_oracle(counts: dict, n: int) -> dict:
    """Enumerate every feasible allocation and pick the largest-remainder one:
    floor quotas, then remaining seats by descending fractional remainder with
    ties in the order the counts dict lists its keys."""
    total = sum(counts.values())
    keys = list(counts)
    quotas = {k: Fraction(n * counts[k], total) for k in keys}
    floors = {k: quotas[k].numerator // quotas[k].denominator for k in keys}
    seats = n - sum(floors.values())
    ranked = sorted(keys, key=lambda k: (-(quotas[k] - floors[k]), keys.index(k)))
    allocation = dict(floors)
    for k in ranked[:seats]:
        allocation[k] += 1
    return allocation


def min_sample_size_oracle(population_size: int) -> int:
    """The original ``min_sample_size(SampleSpec(population_size=N))``: its
    default confidence 0.95, margin of error 0.05 and expected proportion 0.5,
    with z worked out from the confidence level."""
    confidence, margin_of_error, expected_proportion = 0.95, 0.05, 0.5
    if population_size < 1:
        raise ValueError("population_size must be >= 1")
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    n0 = (z**2) * expected_proportion * (1.0 - expected_proportion) / (margin_of_error**2)
    corrected = n0 / (1.0 + (n0 - 1.0) / population_size)
    return min(math.ceil(corrected), population_size)


def _is_emoji_oracle(ch: str) -> bool:
    point = ord(ch)
    return any(lo <= point <= hi for lo, hi in _EMOJI_RANGES)


def emoticon_count_oracle(emoticons: frozenset[str], text: str) -> int:
    """Lexicon chunks plus a range scan of every code point."""
    hits = sum(1 for chunk in text.split() if chunk in emoticons)
    hits += sum(1 for ch in text if _is_emoji_oracle(ch))
    return hits


def word_spans_oracle(text: str) -> list[tuple[int, str]]:
    """``(start, token)`` of every word: code spans, then URLs, blanked in
    every text, and words found one match object at a time."""

    def blank(match) -> str:
        return " " * (match.end() - match.start())

    text = _URL_RE.sub(blank, _CODE_SPAN_RE.sub(blank, text))
    return [(m.start(), m.group()) for m in _WORD_RE.finditer(text)]


def doc_counts_oracle(text: str, dictionary, lexicon) -> DocCounts:
    """Per-document counts with every character of every token tested and
    handles told by the character before the token in the raw text."""
    spans = word_spans_oracle(text)

    alpha_chars = 0
    capitalized = 0
    mistakes = 0
    for start, token in spans:
        alpha_chars += sum(1 for ch in token if ch.isalpha())
        if len(token) >= 2 and token.isalpha() and token.isupper():
            capitalized += 1
        # spell candidacy: purely alphabetic and not an @handle/#tag
        if token.isalpha() and (start == 0 or text[start - 1] not in "@#"):
            if token not in dictionary:
                mistakes += 1

    return DocCounts(
        chars=len(text),
        words=len(spans),
        alpha_chars=alpha_chars,
        capitalized_words=capitalized,
        spelling_mistakes=mistakes,
        emoticons=emoticon_count_oracle(lexicon.emoticons, text),
        question_marks=text.count("?"),
        exclamation_marks=text.count("!"),
    )


def corpus_statistics_oracle(corpus: Corpus, dictionary, lexicon) -> TextStatistics:
    """The eight averages with one ``Fraction(alpha_chars, words)`` added per
    document, in corpus order."""
    counts = [doc_counts_oracle(doc.text, dictionary, lexicon) for doc in corpus]
    ratio_total = Fraction(0)
    for c in counts:
        if c.words:
            ratio_total += Fraction(c.alpha_chars, c.words)
    n = len(counts)
    return TextStatistics(
        avg_chars_per_doc=sum(c.chars for c in counts) / n,
        avg_chars_per_word=float(ratio_total / n),
        avg_words_per_doc=sum(c.words for c in counts) / n,
        avg_capitalized_words=sum(c.capitalized_words for c in counts) / n,
        avg_spelling_mistakes=sum(c.spelling_mistakes for c in counts) / n,
        avg_emoticons=sum(c.emoticons for c in counts) / n,
        avg_question_marks=sum(c.question_marks for c in counts) / n,
        avg_exclamation_marks=sum(c.exclamation_marks for c in counts) / n,
    )


def mask_oracle(text: str) -> str:
    """The whole text with its code spans, then its URLs, blanked."""

    def blank(match) -> str:
        return " " * (match.end() - match.start())

    if "`" in text:
        text = _CODE_SPAN_RE.sub(blank, text)
    if "://" in text or "www." in text.lower():
        text = _URL_RE.sub(blank, text)
    return text


def read_label_file_oracle(path, fmt: str | None = None) -> dict[str, PolarityLabel]:
    """An id -> polarity mapping, CSV rows read with ``csv.DictReader`` and JSONL
    lines with ``read_jsonl_records_oracle``, one ``PolarityLabel`` call per
    record: only ``label`` is required, ``id`` defaults to the zero-padded
    record index."""
    if (fmt or _corpus_format(path, None)) == "csv":
        records = []
        with open_input(path, CorpusFormatError, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is not None and "label" not in reader.fieldnames:
                raise CorpusFormatError(f"{path}: CSV header must contain a 'label' column")
            for row_number, row in enumerate(reader, start=2):
                records.append((row_number, row.get("id") or None, None, row.get("label") or None))
    else:
        records = read_jsonl_records_oracle(path, "labels")
    labels: dict[str, PolarityLabel] = {}
    for doc_id, (row, _, _, raw_label) in zip(_record_ids_oracle(records), records):
        if raw_label is None:
            raise CorpusFormatError(f"{path}: row {row}: document has no polarity label")
        try:
            label = PolarityLabel(raw_label)
        except ValueError:
            raise CorpusFormatError(f"{path}: row {row}: {raw_label!r} is not a polarity label") from None
        if doc_id in labels:
            raise CorpusFormatError(f"{path}: row {row}: duplicate document id {doc_id!r}")
        labels[doc_id] = label
    if not labels:
        raise CorpusFormatError(f"{path}: no labeled records found")
    return labels


def load_labels_walk_oracle(path, fmt: str | None = None) -> dict[str, PolarityLabel]:
    """The original ``load_labels``: the package's records walked one by one,
    each label looked up and each id checked for a repeat as it comes."""
    path = Path(path)
    records = _read_records(path, fmt, "labels")
    labels: dict[str, PolarityLabel] = {}
    for index, (doc_id, raw_label) in enumerate(zip(_record_ids(records), records.labels)):
        try:
            label = _POLARITY[raw_label]
        except (KeyError, TypeError):
            row = records.rows[index]
            if raw_label is None:
                raise CorpusFormatError(f"{path}: row {row}: document has no polarity label") from None
            raise CorpusFormatError(f"{path}: row {row}: {raw_label!r} is not a polarity label") from None
        if doc_id in labels:
            raise CorpusFormatError(f"{path}: row {records.rows[index]}: duplicate document id {doc_id!r}")
        labels[doc_id] = label
    if not labels:
        raise CorpusFormatError(f"{path}: no labeled records found")
    return labels


def read_csv_records_oracle(path, kind: str = "corpus") -> list:
    """The original CSV record reader: a ``(row, id, text, label)`` tuple per
    record, a ``text`` column required of ``"corpus"`` and ``"texts"``, a
    ``label`` column of ``"labels"``."""
    required = "label" if kind == "labels" else "text"
    records = []
    with open_input(path, CorpusFormatError, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return records
        if required not in header:
            raise CorpusFormatError(f"{path}: CSV header must contain a '{required}' column")
        width = len(header)
        column = {name: index for index, name in enumerate(header)}
        id_at, label_at = column.get("id", width), column.get("label", width)
        text_at = column["text"] if required == "text" else width
        pad = [None] * (width + 1)
        for row_number, row in enumerate(filter(None, reader), start=2):
            if len(row) == width:
                row.append(None)
            elif len(row) > width and required == "text":
                raise CorpusFormatError(f"{path}: row {row_number}: more fields than header columns")
            else:
                row = (row[:width] + pad)[: width + 1]
            text = row[text_at]
            if text is None and required == "text":
                raise CorpusFormatError(f"{path}: row {row_number}: missing 'text' field")
            records.append((row_number, row[id_at] or None, text, row[label_at] or None))
    return records


def read_jsonl_records_oracle(path, kind: str = "corpus") -> list:
    """The original JSONL record reader: ``json.loads`` on every line; a
    ``text`` required of ``"corpus"`` and ``"texts"``, and a string or null
    label of ``"corpus"``."""
    records = []
    with open_input(path, CorpusFormatError) as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {line_number}: invalid JSON: {exc}") from exc
            except (ValueError, RecursionError) as exc:
                raise CorpusFormatError(f"{path}: line {line_number}: {exc}") from exc
            if not isinstance(obj, dict):
                raise CorpusFormatError(f"{path}: line {line_number}: expected a JSON object")
            raw_label = obj.get("label")
            text = None
            if kind != "labels":
                if "text" not in obj:
                    raise CorpusFormatError(f"{path}: line {line_number}: missing 'text' key")
                text = obj["text"]
                if not isinstance(text, str):
                    raise CorpusFormatError(f"{path}: line {line_number}: 'text' must be a string")
                if kind == "corpus" and raw_label is not None and not isinstance(raw_label, str):
                    raise CorpusFormatError(f"{path}: line {line_number}: 'label' must be a string or null")
            raw_id = obj.get("id")
            doc_id = str(raw_id) if raw_id not in (None, "") else None
            if "\\u" in line:
                for key, value in (("id", doc_id), ("text", text)):
                    if value and _SURROGATE_RE.search(value):
                        raise CorpusFormatError(
                            f"{path}: line {line_number}: {key!r} holds a lone surrogate, "
                            "which UTF-8 cannot encode"
                        )
            records.append((line_number, doc_id, text, raw_label or None))
    return records


def _records_oracle(path, fmt: str | None) -> list:
    fmt = fmt or _corpus_format(path, None)
    if fmt not in ("csv", "jsonl"):
        raise CorpusFormatError(f"unknown corpus format {fmt!r}; expected 'csv' or 'jsonl'")
    if fmt == "csv":
        return read_csv_records_oracle(path)
    return read_jsonl_records_oracle(path)


def _record_ids_oracle(records) -> list[str]:
    width = max(1, len(str(max(len(records) - 1, 0))))
    return [
        raw_id if raw_id is not None else f"{index:0{width}d}"
        for index, (_, raw_id, _, _) in enumerate(records)
    ]


def _checked_corpus_oracle(path, documents: list) -> Corpus:
    seen: set[str] = set()
    for doc in documents:
        if doc.id in seen:
            raise CorpusFormatError(f"{path}: duplicate document id: {doc.id!r}")
        seen.add(doc.id)
    return Corpus(documents=tuple(documents))


def load_corpus_oracle(path, fmt: str | None = None, options: IngestOptions | None = None) -> Corpus:
    """The original ``load_corpus``."""
    options = options or IngestOptions()
    records = _records_oracle(path, fmt)
    labels = _POLARITY if options.label_mapping is None else options.label_mapping.rules
    documents = []
    unmapped: dict[str, int] = {}
    for doc_id, (row, _, text, raw_label) in zip(_record_ids_oracle(records), records):
        label = None
        if raw_label is not None:
            label = labels.get(raw_label)
            if label is None:
                unmapped.setdefault(raw_label, row)
                continue
            if label is DROP:
                continue
        if options.strip_markup:
            text = _strip_markup(text)
        if not text and not options.allow_empty_text:
            raise CorpusFormatError(f"{path}: row {row}: empty text (pass allow_empty_text to permit)")
        documents.append(Document(id=doc_id, text=text, label=label))
    if unmapped:
        offenders = ", ".join(f"{label!r} (first at row {row})" for label, row in sorted(unmapped.items()))
        raise LabelMappingError(f"{path}: unmapped raw labels: {offenders}", unmapped=tuple(sorted(unmapped)))
    return _checked_corpus_oracle(path, documents)


def load_texts_oracle(path, fmt: str | None = None) -> Corpus:
    """The original ``load_texts``, which took a JSONL label that is not a
    string or null for an error."""
    records = _records_oracle(path, fmt)
    documents = [
        Document(id=doc_id, text=text) for doc_id, (_, _, text, _) in zip(_record_ids_oracle(records), records)
    ]
    return _checked_corpus_oracle(path, documents)


def stratified_sample_oracle(
    corpus: Corpus, n: int, seed: int, retained_class: PolarityLabel | None = None
) -> Corpus:
    """Count the classes in one pass, collect each class's positions in a
    second, shuffle-take-first-k per class, then keep every document whose
    position was chosen, in corpus order."""
    counts = {label: 0 for label in CLASS_ORDER}
    for doc in corpus:
        if doc.label is None:
            raise SamplingError(
                f"document {doc.id!r} has no polarity label; stratified sampling needs a fully labeled corpus"
            )
        counts[doc.label] += 1
    alloc = apportion(counts, n)
    if retained_class is not None:
        alloc[retained_class] = counts[retained_class]
    rng = random.Random(seed)
    indices_by_class = {label: [] for label in CLASS_ORDER}
    for index, doc in enumerate(corpus):
        indices_by_class[doc.label].append(index)
    chosen: set[int] = set()
    for label in CLASS_ORDER:
        k = alloc.get(label, 0)
        pool = indices_by_class[label]
        if k == 0:
            continue
        if k >= len(pool):
            chosen.update(pool)
            continue
        shuffled = list(pool)
        rng.shuffle(shuffled)
        chosen.update(shuffled[:k])
    return Corpus(documents=tuple(doc for index, doc in enumerate(corpus) if index in chosen))


def _exact_oracle(value: float) -> Fraction:
    return Fraction(str(value))


def _score_linguistic_oracle(answers, mapping) -> ScoreBoard:
    """Each feature's platforms found by scanning the mapping's options."""
    points = {p: 0 for p in PLATFORM_ORDER}
    ambiguous = 0
    awards = []
    for feature in FEATURE_ORDER:
        answer = answers.answers[feature]
        matched = ()
        if answer is not AnswerOption.NOT_SPECIFIED:
            per_platform = mapping.options[feature]
            matched = tuple(p for p in PLATFORM_ORDER if per_platform[p] == answer)
        if matched:
            for platform in matched:
                points[platform] += 1
        else:
            ambiguous += 1
        awards.append(FeatureAward(feature=feature, answer=answer, platforms=matched))
    return ScoreBoard(points=points, ambiguous=ambiguous, feature_awards=tuple(awards))


def score_statistics_oracle(user, profiles) -> ScoreBoard:
    """Distances as Fractions of each value's str(), rebuilt for every statistic."""
    if not user.values:
        raise ValueError("no statistics provided")
    points = {p: 0 for p in PLATFORM_ORDER}
    awards = []
    for name in STAT_FIELDS:
        if name not in user.values:
            continue
        value = user.values[name]
        distances = {
            platform: abs(_exact_oracle(value) - _exact_oracle(profiles[platform].values[name]))
            for platform in PLATFORM_ORDER
        }
        closest = min(distances.values())
        winners = tuple(p for p in PLATFORM_ORDER if distances[p] == closest)
        for platform in winners:
            points[platform] += 1
        awards.append(
            StatisticAward(
                statistic=name,
                value=value,
                distances={p: float(d) for p, d in distances.items()},
                platforms=winners,
            )
        )
    return ScoreBoard(points=points, statistic_awards=tuple(awards))


def recommend_oracle(
    answers, kb, best_tools: dict[str, list[str]], user_stats=None,
    max_not_specified: int = len(FEATURE_ORDER) // 2,
) -> Recommendation:
    """The recommender as first written, with the tools of ``best_tools``: the
    ``best_tools_oracle`` table of ``kb``'s records, which the caller builds."""
    board = _score_linguistic_oracle(answers, kb.mapping)
    if user_stats is not None and user_stats.values:
        board = board.combine(score_statistics_oracle(user_stats, kb.statistics))

    not_specified = answers.not_specified_count
    reason = None
    if not_specified > max_not_specified:
        reason = (
            f"{not_specified} of {len(FEATURE_ORDER)} answers are not specified "
            f"(threshold {max_not_specified})"
        )
    elif board.ambiguous > board.max_score():
        reason = (
            f"ambiguous points ({board.ambiguous}) exceed every platform's "
            f"pooled score (max {board.max_score()})"
        )
    if reason is not None:
        return Recommendation(
            ambiguous=True,
            reason=reason,
            platforms=(),
            tools={},
            fallback_tools=kb.fallback_tools,
            scoreboard=board,
        )

    leaders = board.leaders()
    tools = {platform: tuple(best_tools[platform]) for platform in leaders}
    if len(leaders) == 1:
        reason = f"highest pooled score {board.max_score()}"
    else:
        names = ", ".join(p.value for p in leaders)
        reason = f"tie at pooled score {board.max_score()} between {names}"
    return Recommendation(
        ambiguous=False,
        reason=reason,
        platforms=leaders,
        tools=tools,
        fallback_tools=(),
        scoreboard=board,
    )


def recommendation_to_dict_oracle(rec: Recommendation) -> dict:
    """``Recommendation.to_dict`` as first written, the scoreboard and its
    awards serialised inline."""
    board = rec.scoreboard
    merged = {tool for tools in rec.tools.values() for tool in tools}
    return {
        "ambiguous": rec.ambiguous,
        "reason": rec.reason,
        "platforms": [p.value for p in rec.platforms],
        "tools": {p.value: list(rec.tools[p]) for p in rec.platforms},
        "fallback_tools": list(rec.fallback_tools),
        "recommended_tools": list(rec.fallback_tools if rec.ambiguous else sorted(merged)),
        "scoreboard": {
            "points": {p.value: board.points[p] for p in PLATFORM_ORDER},
            "ambiguous_points": board.ambiguous,
            "linguistic": [
                {
                    "feature": award.feature.value,
                    "answer": award.answer.value,
                    "platforms": [p.value for p in award.platforms],
                    "ambiguous": not award.platforms,
                }
                for award in board.feature_awards
            ],
            "statistics": [
                {
                    "statistic": award.statistic,
                    "value": award.value,
                    "distances": {p.value: award.distances[p] for p in PLATFORM_ORDER},
                    "platforms": [p.value for p in award.platforms],
                }
                for award in board.statistic_awards
            ],
        },
    }
