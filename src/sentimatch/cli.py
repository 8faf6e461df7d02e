"""Command-line interface.

Subcommands: ``profile`` (corpus statistics), ``sample`` (stratified
sampling), ``evaluate`` (gold vs. predictions), ``agreement`` (inter-rater
kappa), ``recommend`` (questionnaire scoring, interactive wizard on a TTY) and
``kb`` (knowledge-base inspection). Every reporting subcommand has a JSON mode
(default, exactly one document on stdout) and a text mode; diagnostics go to
stderr. Exit codes: 0 success; 1 with one ``error:`` line for a domain error or
a file that cannot be read or written, or silently when stdout closes early;
2 usage error. Any other exception is a bug and shows its traceback.

``main(argv)`` is the in-process API. A command-line process enters through
``run``: collector off, ``main``, flush stdout and stderr, ``os._exit``, so
it pays for no collector pass and no interpreter teardown.
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import json
import os
import sys
from pathlib import Path
from typing import IO, Iterable, Iterator, NoReturn, Sequence

from .corpus import (
    Corpus,
    Document,
    IngestOptions,
    LabelMapping,
    PolarityLabel,
    _infer_format,
    class_distribution,
    data_path,
    load_corpus,
    load_labels,
    load_texts,
    merge_corpora,
    open_input,
    read_json,
    save_corpus,
)
from .errors import EmptyCorpusError, EvaluationError, LabelMappingError, SamplingError, SentimatchError
from .metrics import RatingMatrix, classification_report, evaluate_agreement
from .profiles import FEATURE_ORDER, AnswerOption, KnowledgeBase, JsonObject, load_knowledge_base
from .recommender import QuestionnaireAnswers, UserStatistics, recommend
from .sampling import min_sample_size, sample_with_minority_retention, stratified_sample
from .textstats import Dictionary, EmoticonLexicon, TextStatistics, corpus_statistics

#: Environment variable overriding the bundled knowledge-base path.
KB_ENV_VAR = "SENTIMATCH_KB"

_OPTION_LABELS: tuple[tuple[AnswerOption, str], ...] = (
    (AnswerOption.TRUE, "Fully true"),
    (AnswerOption.LIKELY, "More likely to be true"),
    (AnswerOption.UNLIKELY, "More unlikely to be true"),
    (AnswerOption.UNTRUE, "Not true at all"),
    (AnswerOption.NOT_SPECIFIED, "Not specified"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentimatch",
        description=(
            "Profile software-communication corpora and recommend the sentiment "
            "analysis tool that fits them best."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser("profile", help="compute corpus statistics and class distribution")
    profile.add_argument("corpus", nargs="+", help="corpus file(s), pooled in argument order")
    _add_corpus_flags(profile)
    _add_textstats_flags(profile)
    _add_format_flag(profile)

    sample = sub.add_parser("sample", help="draw a stratified random sample")
    sample.add_argument("corpus", nargs="+", help="corpus file(s), pooled in argument order")
    sample.add_argument(
        "--n",
        required=True,
        help="sample size, or 'auto' for the minimum representative size (95%% confidence, 5%% error)",
    )
    sample.add_argument("--seed", type=int, required=True, help="random seed (required, for reproducibility)")
    sample.add_argument(
        "--retain-class",
        choices=[label.value for label in PolarityLabel],
        help="keep every document of this class in addition to the proportional sample",
    )
    sample.add_argument("--output", help="output file (defaults to stdout, input format)")
    _add_corpus_flags(sample)

    evaluate = sub.add_parser("evaluate", help="score predictions against gold labels")
    evaluate.add_argument("--gold", required=True, help="gold corpus (id + label)")
    evaluate.add_argument("--pred", required=True, help="predictions corpus (id + label)")
    evaluate.add_argument("--corpus-format", choices=["csv", "jsonl"], help="force input format")
    _add_format_flag(evaluate)

    agreement = sub.add_parser("agreement", help="Fleiss' kappa over a ratings grid")
    agreement.add_argument(
        "ratings",
        help="CSV with a header row; first column is the item id, remaining columns one per rater",
    )
    _add_format_flag(agreement)

    rec = sub.add_parser("recommend", help="recommend platform and tools from questionnaire answers")
    rec.add_argument("--answers", help="answers JSON (L1..L13; optional 'statistics' object)")
    statistics = rec.add_mutually_exclusive_group()
    statistics.add_argument("--stats", help="statistics JSON (overrides statistics embedded in --answers)")
    statistics.add_argument("--corpus", help="corpus file to auto-compute statistics from")
    rec.add_argument("--corpus-format", choices=["csv", "jsonl"], help="force corpus format")
    _add_textstats_flags(rec)
    rec.add_argument(
        "--max-not-specified",
        type=_non_negative_int,
        default=len(FEATURE_ORDER) // 2,
        help="answers beyond this many 'not specified' make the result ambiguous (default 6)",
    )
    rec.add_argument("--kb", help=f"knowledge-base file (default: ${KB_ENV_VAR} or bundled)")
    _add_format_flag(rec)
    rec.set_defaults(usage_error=rec.error)

    kb = sub.add_parser("kb", help="inspect the knowledge base")
    kb.add_argument("action", choices=["dump", "check"], help="dump derivations or run integrity checks")
    kb.add_argument("--kb", help=f"knowledge-base file (default: ${KB_ENV_VAR} or bundled)")
    _add_format_flag(kb)

    return parser


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus-format", choices=["csv", "jsonl"], help="force input format")
    parser.add_argument("--label-map", help="JSON file mapping raw label strings to polarity or 'drop'")
    parser.add_argument("--allow-empty-text", action="store_true", help="permit documents with empty text")
    parser.add_argument("--strip-markup", action="store_true", help="strip HTML tags and unescape entities")


def _add_textstats_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dictionary", help="word list for the spellchecker (default: bundled)")
    parser.add_argument("--emoticons", help="emoticon lexicon (default: bundled)")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["json", "text"], default="json", help="output mode")


def _load_each(paths: Sequence[str], args: argparse.Namespace) -> list[Corpus]:
    """Load every corpus under the ingest flags, each in its own format unless
    --corpus-format is given."""
    mapping = None
    if args.label_map:
        raw = JsonObject(read_json(args.label_map, SentimatchError), f"{args.label_map}: label map")
        try:
            mapping = LabelMapping.from_dict(raw)
        except LabelMappingError as exc:
            raise LabelMappingError(f"{args.label_map}: {exc}") from None
    options = IngestOptions(
        allow_empty_text=args.allow_empty_text, strip_markup=args.strip_markup, label_mapping=mapping
    )
    return [load_corpus(path, format=args.corpus_format, options=options) for path in paths]


def _statistics(
    documents: Corpus | Sequence[Document], paths: Sequence[str], args: argparse.Namespace
) -> TextStatistics:
    """Statistics of the documents read from ``paths`` under the --dictionary
    and --emoticons flags."""
    dictionary = Dictionary.from_file(args.dictionary) if args.dictionary else None
    lexicon = EmoticonLexicon.from_file(args.emoticons) if args.emoticons else None
    try:
        return corpus_statistics(documents, dictionary, lexicon)
    except EmptyCorpusError as exc:
        raise EmptyCorpusError(f"{', '.join(paths)}: {exc}") from None


def _resolve_kb(args: argparse.Namespace) -> KnowledgeBase:
    path = args.kb or os.environ.get(KB_ENV_VAR) or None
    return load_knowledge_base(path)


def _emit(document: dict, args: argparse.Namespace, render_text) -> None:
    if args.format == "json":
        print(json.dumps(document, indent=2, ensure_ascii=False))
    else:
        print(render_text(document))


def _cmd_profile(args: argparse.Namespace) -> int:
    # Pooled ids are never looked at: the documents are joined as they are.
    documents = [*itertools.chain.from_iterable(_load_each(args.corpus, args))]
    stats = _statistics(documents, args.corpus, args)
    distribution = class_distribution(documents)
    document = {
        "documents": len(documents),
        "class_distribution": distribution.to_dict(),
        "min_sample_size": min_sample_size(len(documents)),
        "statistics": stats.to_dict(),
    }
    _emit(document, args, _render_profile)
    return 0


def _render_profile(doc: dict) -> str:
    lines = [f"documents: {doc['documents']}"]
    dist = doc["class_distribution"]
    lines.append(
        "classes: "
        + ", ".join(f"{k} {dist[k]}" for k in ("negative", "neutral", "positive", "unlabeled"))
    )
    lines.append(f"min sample size (95%/5%): {doc['min_sample_size']}")
    for name, value in doc["statistics"].items():
        lines.append(f"{name}: {value:.4f}")
    return "\n".join(lines)


def _cmd_sample(args: argparse.Namespace) -> int:
    corpus = merge_corpora(_load_each(args.corpus, args))  # ids prefixed per file
    pool = ", ".join(args.corpus)
    if not corpus:
        raise EmptyCorpusError(f"{pool}: cannot sample an empty corpus")
    if args.n == "auto":
        n = min_sample_size(len(corpus))
    else:
        try:
            n = int(args.n)
        except ValueError:
            raise SentimatchError(f"--n must be an integer or 'auto', got {args.n!r}") from None
    try:
        if args.retain_class:
            sampled = sample_with_minority_retention(corpus, n, args.retain_class, args.seed)
        else:
            sampled = stratified_sample(corpus, n, args.seed)
    except SamplingError as exc:
        raise SamplingError(f"{pool}: {exc}") from None
    fmt = args.corpus_format or _infer_format(Path(args.corpus[0]))  # the first file's format
    if args.output:
        save_corpus(sampled, args.output, format=fmt)
        print(f"wrote {len(sampled)} documents to {args.output}", file=sys.stderr)
    else:
        save_corpus(sampled, sys.stdout, format=fmt)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    gold_by_id = load_labels(args.gold, args.corpus_format)
    pred_by_id = load_labels(args.pred, args.corpus_format)
    # Both id sets hold unique keys, so they are equal when they are the same
    # size and every gold id finds a prediction; labels are never None.
    predicted = [*map(pred_by_id.get, gold_by_id)]  # in gold file order
    if len(gold_by_id) != len(pred_by_id) or None in predicted:
        missing_pred = sorted(gold_by_id.keys() - pred_by_id.keys())
        missing_gold = sorted(pred_by_id.keys() - gold_by_id.keys())
        raise EvaluationError(
            f"id mismatch between gold and predictions: "
            f"missing from predictions {missing_pred[:5]}, missing from gold {missing_gold[:5]}"
        )
    report = classification_report(list(gold_by_id.values()), predicted)
    document = {"documents": len(gold_by_id), **report.to_dict()}
    _emit(document, args, _render_report)
    return 0


def _render_report(doc: dict) -> str:
    lines = [f"documents: {doc['documents']}"]
    for label, metrics in doc["per_class"].items():
        lines.append(
            f"{label}: precision {metrics['precision']:.4f}, recall {metrics['recall']:.4f}, "
            f"f1 {metrics['f1']:.4f} (support {metrics['support']})"
        )
    lines.append(f"micro f1: {doc['micro_f1']:.4f}")
    lines.append(f"macro f1: {doc['macro_f1']:.4f}")
    lines.append(f"overall score: {doc['overall_score']:.4f}")
    return "\n".join(lines)


def _cmd_agreement(args: argparse.Namespace) -> int:
    # The except sits outside the block: open_input must first turn a bad
    # byte's UnicodeDecodeError, itself a ValueError, into its own error.
    try:
        with open_input(args.ratings, EvaluationError, newline="") as handle:
            rows = filter(None, csv.reader(handle))  # blank lines are skipped
            header, first = next(rows, None), next(rows, None)
            if first is None:
                raise EvaluationError(f"{args.ratings}: need a header row and at least one item row")
            if len(header) < 3:
                for _ in rows:  # a bad byte or CSV error further on is reported first
                    pass
                raise EvaluationError(f"{args.ratings}: need at least 2 rater columns after the item column")
            matrix = RatingMatrix.from_label_rows(_ratings(itertools.chain([first], rows)))
    except ValueError as exc:
        raise EvaluationError(f"{args.ratings}: {exc}") from exc
    if matrix.raters != len(header) - 1:
        raise EvaluationError(
            f"{args.ratings}: rows have {matrix.raters} ratings, the header names {len(header) - 1} raters"
        )
    result = evaluate_agreement(matrix)
    document = {
        "items": matrix.items,
        "raters": matrix.raters,
        **result.to_dict(),
    }
    _emit(document, args, _render_agreement)
    return 0


def _ratings(rows: Iterable[list[str]]) -> Iterator[list[str]]:
    """Each item row's ratings; an empty one fails once every row is read."""
    empty = None
    for item, row in enumerate(rows):
        if "" in (ratings := row[1:]) and empty is None:
            empty = item
        yield ratings
    if empty is not None:
        raise ValueError(f"item {empty} has an empty rating")


def _render_agreement(doc: dict) -> str:
    kappa = "undefined" if doc["kappa"] is None else f"{doc['kappa']:.4f}"
    return (
        f"items: {doc['items']}\nraters: {doc['raters']}\nkappa: {kappa}\n"
        f"raw agreement: {doc['raw_agreement']:.4f}\ninterpretation: {doc['interpretation']}"
    )


def _load_answers_file(path: str) -> tuple[QuestionnaireAnswers, UserStatistics | None]:
    raw = JsonObject(read_json(path, SentimatchError), f"{path}: answers file")
    embedded = "statistics" in raw  # null there is an error, not "no statistics"
    stats_raw = raw.pop("statistics", None)
    try:
        answers = QuestionnaireAnswers.from_dict(raw)
    except ValueError as exc:
        raise SentimatchError(f"{path}: {exc}") from None
    return answers, _user_statistics(stats_raw, f"{path}: 'statistics'") if embedded else None


def _user_statistics(raw: object, where: str) -> UserStatistics:
    """Statistics from parsed JSON: an object whose values are all finite numbers."""
    values = JsonObject(raw, where)
    try:
        return UserStatistics(values=values)
    except ValueError as exc:
        raise SentimatchError(f"{where}: {exc}") from None


def _cmd_recommend(args: argparse.Namespace) -> int:
    stats: UserStatistics | None = None
    if args.answers:
        answers, stats = _load_answers_file(args.answers)
    else:
        if not sys.stdin.isatty():
            args.usage_error("recommend needs --answers when not run on an interactive terminal")
        result = wizard()
        if result is None:
            print("aborted", file=sys.stderr)
            return 2
        answers = result
    if args.stats:
        stats = _user_statistics(read_json(args.stats, SentimatchError), args.stats)
    elif args.corpus:
        corpus = load_texts(args.corpus, format=args.corpus_format)
        stats = UserStatistics(values=_statistics(corpus, [args.corpus], args).to_dict())
    kb = _resolve_kb(args)
    recommendation = recommend(answers, kb, stats, max_not_specified=args.max_not_specified)
    _emit(recommendation.to_dict(), args, _render_recommendation)
    return 0


def _render_recommendation(doc: dict) -> str:
    lines = []
    points = doc["scoreboard"]["points"]
    lines.append("scores: " + ", ".join(f"{name} {points[name]}" for name in points))
    lines.append(f"ambiguous points: {doc['scoreboard']['ambiguous_points']}")
    if doc["ambiguous"]:
        lines.append(f"result: ambiguous ({doc['reason']})")
        lines.append("recommended tools: " + ", ".join(doc["fallback_tools"]))
    else:
        lines.append(f"result: {', '.join(doc['platforms'])} ({doc['reason']})")
        for platform in doc["platforms"]:
            lines.append(f"tools for {platform}: " + ", ".join(doc["tools"][platform]))
    return "\n".join(lines)


def _cmd_kb(args: argparse.Namespace) -> int:
    kb = _resolve_kb(args)
    if args.action == "check":
        document = {
            "schema_version": kb.schema_version,
            "performance_records": len(kb.performance),
            "integrity": kb.integrity.to_dict(),
            "ok": True,
        }
        _emit(document, args, _render_kb_check)
        return 0
    document = {
        "schema_version": kb.schema_version,
        "features": {
            f.value: {"name": info.name, "description": info.description}
            for f, info in kb.features.items()
        },
        "interval_mapping": kb.mapping.to_dict(),
        "best_tools": {p.value: list(tools) for p, tools in kb.best_tools.items()},
        "fallback_tools": list(kb.fallback_tools),
        "known_anomalies": [
            {"tool": tool, "dataset": dataset} for tool, dataset in sorted(kb.known_anomalies)
        ],
    }
    _emit(document, args, _render_kb_dump)
    return 0


def _render_kb_check(doc: dict) -> str:
    lines = [
        f"schema version: {doc['schema_version']}",
        f"performance records: {doc['performance_records']}",
        "checks run: " + ", ".join(doc["integrity"]["checks_run"]),
    ]
    flagged = doc["integrity"]["flagged_cells"]
    if flagged:
        lines.append("documented inconsistent cells:")
        lines.extend(f"  {cell['tool']} / {cell['dataset']}" for cell in flagged)
    lines.append("ok")
    return "\n".join(lines)


def _render_kb_dump(doc: dict) -> str:
    lines = [f"schema version: {doc['schema_version']}", "", "interval mapping:"]
    for fid, row in doc["interval_mapping"].items():
        cells = "; ".join(f"{option}: {', '.join(platforms)}" for option, platforms in row.items())
        lines.append(f"  {fid}: {cells}")
    lines.append("")
    lines.append("best tools per platform:")
    lines.extend(f"  {platform}: {', '.join(tools)}" for platform, tools in doc["best_tools"].items())
    lines.append("fallback tools: " + ", ".join(doc["fallback_tools"]))
    return "\n".join(lines)


def wizard(
    input_stream: IO[str] | None = None, output: IO[str] | None = None
) -> QuestionnaireAnswers | None:
    """Interactive questionnaire: thirteen questions, five options each, then a review.

    'b' steps back one screen, from the review too, and 'y' at the review
    submits; returns None on abort ('q', Ctrl-C or end of input). Prompts are written
    to ``output`` (stderr by default) so stdout stays reserved for the final
    JSON document.
    """
    stream = input_stream if input_stream is not None else sys.stdin
    out = output if output is not None else sys.stderr

    def say(text: str = "", end: str = "\n") -> None:
        print(text, end=end, file=out, flush=True)

    questions = read_json(data_path("questions.json"), SentimatchError)
    labels = dict(_OPTION_LABELS)
    answers: dict[str, AnswerOption] = {}
    say("Answer 13 statements about your dataset.")
    say("Reply with a number, 'b' to go back, or 'q' to abort.")
    screen = 0  # L1..L13 are screens 0-12, the review is screen 13
    while True:
        say()
        if screen < len(FEATURE_ORDER):
            say(f"[{screen + 1}/13] {questions[FEATURE_ORDER[screen].value]}")
            for number, (_, label) in enumerate(_OPTION_LABELS, start=1):
                say(f"  {number}) {label}")
            say("> ", end="")
        else:
            say("Your answers:")
            for feature in FEATURE_ORDER:
                say(f"  {feature.value}: {labels[answers[feature.value]]}")
            say("Submit? (y = submit, b = back to the last question, q = abort) ", end="")
        try:
            line = stream.readline()
        except KeyboardInterrupt:  # Ctrl-C aborts too
            say()
            return None
        reply = line.strip().lower()
        if not line or reply == "q":  # end of input aborts too
            return None
        if reply == "b":
            screen = max(0, screen - 1)
        elif screen < len(FEATURE_ORDER) and reply in {"1", "2", "3", "4", "5"}:
            answers[FEATURE_ORDER[screen].value] = _OPTION_LABELS[int(reply) - 1][0]
            screen += 1
        elif screen < len(FEATURE_ORDER):
            say("Please answer 1-5, 'b' or 'q'.")
        elif reply == "y":
            return QuestionnaireAnswers.from_dict(answers)


_COMMANDS = {
    "profile": _cmd_profile,
    "sample": _cmd_sample,
    "evaluate": _cmd_evaluate,
    "agreement": _cmd_agreement,
    "recommend": _cmd_recommend,
    "kb": _cmd_kb,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here rather than at exit
        return status
    except BrokenPipeError:
        # Whoever read stdout has gone (``sentimatch profile x | head -3``).
        # Point stdout at devnull so that the flush at exit does not raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SentimatchError, OSError, UnicodeEncodeError) as exc:  # a bug shows its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """``main`` with the collector off and no teardown; exceptions propagate."""
    gc.disable()
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
