"""``classification_report`` and the ``evaluate`` command against their
original implementations in ``_oracles``: the same report, or the same
error text, exit code and output."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import classification_report_oracle, evaluate_command_oracle
from sentimatch import EvaluationError, PolarityLabel, classification_report, cli

# ----------------------------------------------------- classification_report

_GOOD = [*PolarityLabel, *(label.value for label in PolarityLabel)]
_BAD = ["Positive", "joy", "", 0, 1, True, False, None, [], ["positive"]]


def report_outcome(report, gold, predicted):
    try:
        return report(gold, predicted).to_dict()
    except EvaluationError as exc:
        return ("error", str(exc))


@st.composite
def label_sequences(draw) -> tuple[list, list]:
    """Two label sequences, mostly of one length; each holds a bad label
    now and then, a few of them, or none."""
    n = draw(st.integers(0, 30))
    sides = []
    for _ in range(2):
        values = draw(st.lists(st.sampled_from(_GOOD), min_size=n, max_size=n))
        if values and draw(st.booleans()):
            for _ in range(draw(st.integers(1, 3))):
                values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_BAD))
        sides.append(values)
    if draw(st.integers(0, 9)) == 0:
        sides[draw(st.integers(0, 1))].append(draw(st.sampled_from(_GOOD)))
    return sides[0], sides[1]


@settings(max_examples=300)
@given(label_sequences())
def test_report_equals_the_original_report(sequences):
    gold, predicted = sequences
    got = report_outcome(classification_report, gold, predicted)
    assert got == report_outcome(classification_report_oracle, gold, predicted)


# ------------------------------------------------------- evaluate, end to end

_POLARITIES = [label.value for label in PolarityLabel]
_IDS = [f"d{i}" for i in range(8)]
_CASES = ["equal", "equal", "missing", "extra", "other ids", "duplicate", "bad label"]


def _write_labels(path: Path, records: list[tuple[str | None, object]]) -> None:
    if path.suffix == ".csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["id", "label"])
        writer.writerows(records)
        path.write_text(buffer.getvalue(), encoding="utf-8")
    else:
        path.write_text("".join(json.dumps({"id": i, "label": label}) + "\n" for i, label in records),
                        encoding="utf-8")


@st.composite
def label_file_pairs(draw) -> tuple[str, list, str, list]:
    """Gold and prediction records in CSV or JSONL, with one fault of the
    join or of the files, or none."""
    n = draw(st.integers(1, len(_IDS)))
    labels = st.sampled_from(_POLARITIES)
    gold = [(doc_id, draw(labels)) for doc_id in draw(st.permutations(_IDS))[:n]]
    pred = [(doc_id, draw(labels)) for doc_id, _ in draw(st.permutations(gold))]
    suffixes = st.sampled_from([".csv", ".jsonl"])
    gold_suffix, pred_suffix = draw(suffixes), draw(suffixes)
    case = draw(st.sampled_from(_CASES))
    if case == "missing":
        del pred[draw(st.integers(0, n - 1))]
    elif case == "extra":
        pred.insert(draw(st.integers(0, n)), ("x", draw(labels)))
    elif case == "other ids":
        pred[draw(st.integers(0, n - 1))] = ("x", draw(labels))
    elif case == "duplicate":
        records = draw(st.sampled_from([gold, pred]))
        records.insert(draw(st.integers(0, n)), (draw(st.sampled_from(records))[0], draw(labels)))
    elif case == "bad label":
        records, suffix = draw(st.sampled_from([(gold, gold_suffix), (pred, pred_suffix)]))
        bad = ["Positive", "joy", ""] + ([5, None, ["positive"]] if suffix == ".jsonl" else [])
        index = draw(st.integers(0, n - 1))
        records[index] = (records[index][0], draw(st.sampled_from(bad)))
    return gold_suffix, gold, pred_suffix, pred


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(label_file_pairs(), st.sampled_from(["json", "text"]))
def test_evaluate_prints_what_the_original_join_prints(files, fmt):
    gold_suffix, gold, pred_suffix, pred = files
    with tempfile.TemporaryDirectory() as tmp:
        gold_path, pred_path = Path(tmp) / f"gold{gold_suffix}", Path(tmp) / f"pred{pred_suffix}"
        _write_labels(gold_path, gold)
        _write_labels(pred_path, pred)
        argv = ["evaluate", "--gold", str(gold_path), "--pred", str(pred_path), "--format", fmt]
        got = run_cli(argv)
        with mock.patch.dict(cli._COMMANDS, evaluate=evaluate_command_oracle):
            expected = run_cli(argv)
    assert got == expected
