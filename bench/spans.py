"""Span recorder for the benchmark's traced run.

While installed, the recorder replaces the functions each layer (module) of
the package exposes to its callers with wrappers that record one span per
call: name, start, end, parent span and operation id. The wrappers sit in the
callers' namespaces, so each layer is timed from outside; nothing in the
package changes. Spans stay in memory and are written out when the run ends.

A span's exclusive time is its duration minus that of its direct children;
a layer's self time is the sum of the exclusive times of its spans, and its
busy time the sum of the durations of its outermost spans.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "corpus", "textstats", "sampling", "metrics", "profiles", "recommender")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.ops: dict[int, str] = {}  # op id -> op name
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def begin_op(self, name: str) -> int:
        self._op = len(self.ops)
        self.ops[self._op] = name
        return self._op

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self._op])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap ``(owner, attribute, span name, counter)`` targets."""
        for owner, attr, name, count in targets:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "op_name": self.ops.get(op)}) + "\n")

    # ------------------------------------------------------------- analysis

    def exclusive(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, list[float]]:
        durations = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            durations[name].append(end - start)
        return durations

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy time and self time, in seconds."""
        own = self.exclusive()
        table = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            row = table[layer]
            row["calls"] += 1
            row["self_s"] += own[index]
            if parent < 0 or self.spans[parent][0].split(".", 1)[0] != layer:
                row["busy_s"] += end - start
        return table


# ------------------------------------------------------------- work counters


def count_load(counts: Counter, args, corpus) -> None:
    counts["corpus.bytes"] += os.path.getsize(args[0])
    counts["corpus.records_kept"] += len(corpus)


def count_read(counts: Counter, args, records) -> None:
    counts["corpus.records_read"] += len(records)


def count_tokens(counts: Counter, args, spans) -> None:
    counts["textstats.tokens"] += len(spans)


def count_text(counts: Counter, args, stats) -> None:
    counts["textstats.bytes"] += sum(len(doc.text.encode("utf-8")) for doc in args[0])


def targets(sentimatch) -> list[tuple]:
    """The public calls each layer exposes, wrapped where their callers look
    them up. ``_word_spans`` is where ``tokenize``'s work happens: the
    per-document counter calls it directly. The two record readers are
    wrapped so that records read can be set against records kept."""
    cli, corpus, textstats = sentimatch.cli, sentimatch.corpus, sentimatch.textstats
    recommender = sentimatch.recommender
    return [
        (cli, "main", "cli.main", None),
        (cli, "_emit", "cli.json_emit", None),
        (cli, "load_corpus", "corpus.load_corpus", count_load),
        (corpus, "_read_csv_records", "corpus.read_records", count_read),
        (corpus, "_read_jsonl_records", "corpus.read_records", count_read),
        (cli, "merge_corpora", "corpus.merge_corpora", None),
        (cli, "save_corpus", "corpus.save_corpus", None),
        (cli, "class_distribution", "corpus.class_distribution", None),
        (cli, "corpus_statistics", "textstats.corpus_statistics", count_text),
        (textstats, "doc_counts", "textstats.doc_counts", None),
        (textstats, "_word_spans", "textstats.tokenize", count_tokens),
        (textstats.EmoticonLexicon, "count", "textstats.emoticon_count", None),
        (cli, "stratified_sample", "sampling.stratified_sample", None),
        (cli, "sample_with_minority_retention", "sampling.retention_sample", None),
        (cli, "classification_report", "metrics.classification_report", None),
        (sentimatch.metrics.RatingMatrix, "from_label_rows", "metrics.rating_matrix", None),
        (cli, "evaluate_agreement", "metrics.evaluate_agreement", None),
        (cli, "load_knowledge_base", "profiles.load_knowledge_base", None),
        (cli, "recommend", "recommender.recommend", None),
        (recommender, "recommend", "recommender.recommend", None),
        (recommender, "score_linguistic", "recommender.score_linguistic", None),
        (recommender, "score_statistics", "recommender.score_statistics", None),
    ]


def per_layer_metrics(tracer: Tracer, rounds: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: ``_s`` figures are seconds per traced round,
    ``_ms`` and ``_us`` figures medians per call."""
    spans, own, counts = tracer.spans, tracer.exclusive(), tracer.counts
    durations = tracer.by_name()

    def total(name: str) -> float:
        return sum(durations[name]) / rounds

    def own_total(name: str) -> float:
        return sum(own[i] for i, s in enumerate(spans) if s[0] == name) / rounds

    def median(name: str, scale: float) -> float:
        return statistics.median(durations[name]) * scale

    def command(span: list) -> str:
        return tracer.ops[span[4]].split(".")[0]

    def cli_self(name: str) -> float:
        return sum(own[i] for i, s in enumerate(spans)
                   if s[0].startswith("cli.") and command(s) == name) / rounds

    recommend_us = [d * 1e6 for d in durations["recommender.recommend"]]
    emit_us = [(s[2] - s[1]) * 1e6 for s in spans
               if s[0] == "cli.json_emit" and command(s) == "recommend"]
    read = counts["corpus.records_read"]
    metrics = {
        "corpus.load_corpus_s": (total("corpus.load_corpus"), "s"),
        "corpus.load_corpus_mb_per_s":
            (counts["corpus.bytes"] / 1e6 / sum(durations["corpus.load_corpus"]), "MB/s"),
        "corpus.merge_corpora_s": (total("corpus.merge_corpora"), "s"),
        "corpus.save_corpus_s": (total("corpus.save_corpus"), "s"),
        "corpus.class_distribution_s": (total("corpus.class_distribution"), "s"),
        "corpus.kept_ratio": (counts["corpus.records_kept"] / read, "ratio"),
        "corpus.records_read": (read / rounds, "count"),
        "textstats.tokenize_s": (total("textstats.tokenize"), "s"),
        "textstats.emoticon_count_s": (total("textstats.emoticon_count"), "s"),
        "textstats.doc_counts_s": (own_total("textstats.doc_counts"), "s"),
        "textstats.aggregate_s": (own_total("textstats.corpus_statistics"), "s"),
        "textstats.corpus_statistics_mb_per_s":
            (counts["textstats.bytes"] / 1e6 / sum(durations["textstats.corpus_statistics"]), "MB/s"),
        "textstats.tokens": (counts["textstats.tokens"] / rounds, "count"),
        "sampling.stratified_sample_s": (total("sampling.stratified_sample"), "s"),
        "sampling.retention_sample_s": (total("sampling.retention_sample"), "s"),
        "metrics.classification_report_s": (total("metrics.classification_report"), "s"),
        "metrics.rating_matrix_s": (total("metrics.rating_matrix"), "s"),
        "metrics.evaluate_agreement_s": (total("metrics.evaluate_agreement"), "s"),
        "profiles.load_knowledge_base_ms": (median("profiles.load_knowledge_base", 1e3), "ms"),
        "recommender.score_linguistic_us": (median("recommender.score_linguistic", 1e6), "us"),
        "recommender.score_statistics_us": (median("recommender.score_statistics", 1e6), "us"),
        "recommender.recommend_p50_us": (statistics.median(recommend_us), "us"),
        "recommender.recommend_p99_us": (statistics.quantiles(recommend_us, n=100)[98], "us"),
        "cli.json_emit_us": (statistics.median(emit_us), "us"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for name in ("profile", "sample", "evaluate", "agreement", "recommend"):
        metrics[f"cli.{name}.self_s"] = (cli_self(name), "s")
    return metrics
