"""``load_labels`` against the command line's original label-file reader."""

from __future__ import annotations

import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import read_label_file_oracle
from sentimatch import PolarityLabel, load_labels
from sentimatch.errors import SentimatchError


def outcome(read, path: Path):
    """The mapping as (id, label) pairs in file order, or the error message."""
    try:
        return list(read(path).items())
    except SentimatchError as exc:
        return ("error", str(exc))


def assert_same_as_oracle(name: str, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        got = outcome(load_labels, path)
        assert got == outcome(read_label_file_oracle, path)
        return got


# Half the files are sound: polarity labels, ids that are distinct or
# missing, blank lines and (in CSV) extra fields. They load, so they test the
# ids and labels read. The other half draw from a small id set, bad labels,
# short rows and bad lines, so that every error turns up.
_POLARITIES = ["positive", "negative", "neutral"]
_BAD_LABELS = ["Positive", "joy", "", " "]
_FEW_IDS = ["a", "b", "0", "1", "01", "10", ""]
_TEXTS = ["x", "", 'say "hi", ok', "two\nlines", "crlf\r\nline", "café \U0001f600", "a,b"]


def _ids(sound: bool) -> st.SearchStrategy[str]:
    if sound:
        return st.one_of(st.just(""), st.integers(0, 10**6).map("x{}".format))
    return st.sampled_from(_FEW_IDS)


@st.composite
def csv_files(draw) -> bytes:
    if draw(st.integers(0, 19)) == 0:
        return b""  # no header at all
    sound = draw(st.booleans())
    columns = draw(st.lists(st.sampled_from(["id", "text", "extra", ""]), max_size=3))
    if sound or draw(st.integers(0, 4)):
        columns.insert(draw(st.integers(0, len(columns))), "label")
    values = {
        "id": _ids(sound),
        "label": st.sampled_from(_POLARITIES if sound else _POLARITIES * 3 + _BAD_LABELS),
    }
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(values.get(name, st.sampled_from(_TEXTS))) for name in columns]
        shape = draw(st.integers(0, 9))
        if shape == 0:
            row = []  # a blank line
        elif shape == 1:
            row += draw(st.lists(st.sampled_from(_TEXTS), min_size=1, max_size=2))  # extra fields
        elif shape == 2 and not sound:
            row = row[: draw(st.integers(0, len(row)))]  # a short row
        rows.append(row)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
    writer.writerow(columns)
    writer.writerows(rows)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + buffer.getvalue()).encode("utf-8")


@settings(max_examples=300)
@given(csv_files())
def test_csv_label_files_read_as_the_oracle_reads_them(data):
    assert_same_as_oracle("labels.csv", data)


_BAD_LINES = st.sampled_from([
    "{", "nope", '{"id": "a",}', '{"label": "positive"} x',  # invalid JSON
    "[1, 2]", "3", "null", '"positive"', "true",  # not an object
])
_BLANK_LINES = st.sampled_from(["", "   ", "\t"])


@st.composite
def jsonl_files(draw) -> bytes:
    sound = draw(st.booleans())
    ids = st.one_of(_ids(sound), st.sampled_from([None, 1, 3, True, 1.5] if not sound else [None]))
    labels = st.sampled_from(_POLARITIES)
    if not sound:
        labels = st.one_of(
            labels, labels,
            st.sampled_from(_BAD_LABELS + [None, 0, 2, True, False, [1], {"label": "positive"}]),
        )
    texts = st.one_of(st.sampled_from(_TEXTS), st.integers())
    labeled = st.fixed_dictionaries({"label": labels}, optional={"id": ids, "text": texts})
    unlabeled = st.fixed_dictionaries({}, optional={"id": ids, "text": texts})
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(_BLANK_LINES))
        elif kind <= 2 and not sound:
            lines.append(draw(_BAD_LINES if kind == 1 else unlabeled.map(json.dumps)))
        else:
            lines.append(json.dumps(draw(labeled)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    trailing = draw(st.sampled_from(["", newline]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + newline.join(lines) + trailing).encode("utf-8")


@settings(max_examples=300)
@given(jsonl_files())
def test_jsonl_label_files_read_as_the_oracle_reads_them(data):
    assert_same_as_oracle("labels.jsonl", data)


# ------------------------------------------------------- each case by name


@pytest.mark.parametrize(
    "name, text, expected",
    [
        ("labels.csv", "id,label\nb,positive\n\n,negative\nb2,neutral\n",
         [("b", "positive"), ("1", "negative"), ("b2", "neutral")]),
        ("labels.csv", "label\npositive\nnegative\n", [("0", "positive"), ("1", "negative")]),
        ("labels.csv", "id,text,label,label\na,x,joy,positive\nb,y,neutral\n",
         "row 3: document has no polarity label"),
        ("labels.csv", "id,label\na,positive,extra,fields\n", [("a", "positive")]),
        ("labels.csv", "id,text\na,x\n", "CSV header must contain a 'label' column"),
        ("labels.csv", "id,label\na,Positive\n", "row 2: 'Positive' is not a polarity label"),
        ("labels.csv", "id,label\na,positive\na,negative\n", "row 3: duplicate document id 'a'"),
        ("labels.csv", "id,label\n1,positive\n,negative\n", "row 3: duplicate document id '1'"),
        ("labels.csv", "", "no labeled records found"),
        ("labels.jsonl", '{"label": "positive"}\n\n  \n{"id": 7, "label": "neutral"}\n',
         [("0", "positive"), ("7", "neutral")]),
        ("labels.jsonl", '{"id": "", "label": "negative"}\n', [("0", "negative")]),
        ("labels.jsonl", '\ufeff{"id": "a", "label": "negative"}\n', [("a", "negative")]),
        ("labels.jsonl", '{"id": "a", "label": 1}\n', "row 1: 1 is not a polarity label"),
        ("labels.jsonl", '{"id": "a", "label": ["positive"]}\n',
         "row 1: ['positive'] is not a polarity label"),
        ("labels.jsonl", '{"id": "a", "label": false}\n', "row 1: document has no polarity label"),
        ("labels.jsonl", '{"id": "a", "label": "positive"}\n[1]\n', "line 2: expected a JSON object"),
        ("labels.jsonl", '{"id": "a"}\n{"id": \n', "line 2: invalid JSON"),
        ("labels.jsonl", '{"id": 1, "label": "positive"}\n{"id": "1", "label": "positive"}\n',
         "row 2: duplicate document id '1'"),
    ],
)
def test_label_file_cases(name, text, expected):
    got = assert_same_as_oracle(name, text.encode("utf-8"))
    if isinstance(expected, str):
        assert got[0] == "error" and expected in got[1]
    else:
        assert got == [(doc_id, PolarityLabel(label)) for doc_id, label in expected]


def test_explicit_format_overrides_the_suffix(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text('{"id": "a", "label": "neutral"}\n', encoding="utf-8")
    assert load_labels(path, format="jsonl") == {"a": PolarityLabel.NEUTRAL}
    with pytest.raises(SentimatchError, match="--corpus-format"):
        load_labels(path)
