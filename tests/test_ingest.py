"""The corpus and label-file loaders against their oracles in ``_oracles``.

Each test writes a file, reads it through the package and through the
oracle, and requires the same records, or an error of the same class with
the same text.
"""

from __future__ import annotations

import csv
import io
import json
import random
import tempfile
import tracemalloc
from itertools import cycle, repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    load_corpus_oracle,
    load_labels_walk_oracle,
    load_texts_oracle,
    read_csv_records_oracle,
    read_jsonl_records_oracle,
    read_label_file_oracle,
)
from sentimatch import Corpus, IngestOptions, LabelMapping, PolarityLabel, load_corpus, load_labels
from sentimatch.corpus import _read_csv_records, _read_jsonl_records, _record_ids, load_texts
from sentimatch.errors import SentimatchError


def outcome(read, *args, **kwargs):
    """What a reader gives: records, documents with their label types, or
    (mapping) items; or the error's class and text."""
    try:
        result = read(*args, **kwargs)
    except SentimatchError as exc:
        return ("error", type(exc), str(exc))
    if isinstance(result, Corpus):
        return [(doc.id, doc.text, doc.label, type(doc.label)) for doc in result]
    if isinstance(result, dict):
        return list(result.items())
    return result


_READERS = {
    "csv": (_read_csv_records, read_csv_records_oracle),
    "jsonl": (_read_jsonl_records, read_jsonl_records_oracle),
}


def assert_readers_match_oracles(path: Path, fmt: str):
    """For every kind, the package's record reader gives the oracle's
    ``(row, id, text, label)`` records, or the same error."""
    read, oracle = _READERS[fmt]
    for kind in ("corpus", "texts", "labels"):
        got = outcome(read, path, kind)
        if not isinstance(got, tuple):
            got = list(zip(got.rows, got.ids, got.texts or repeat(None), got.labels))
        assert got == outcome(oracle, path, kind), kind


# ----------------------------------------------------------- JSONL lines

_HUGE = "1" * 4301  # one digit beyond the int-from-string limit
_VALUES = [
    '"ok"', '"a b"', '""', '"positive"', '"negative"', '"Joy"', "null", "5", "1.5", "true",
    "NaN", "Infinity", "-Infinity", _HUGE, "[1]", '{"a": 1}', "[" * 50 + "]" * 50,
    "[" * 10_000 + "]" * 10_000, '"\\ud800"', '"x\\udfff"', '"\\ud83d\\ude00"', '"caf\\u00e9"',
]
# JSON whitespace and the other characters str.isspace takes for white space
_SPACE = st.text(st.sampled_from(["\t", "\r", "\x0b", "\x0c", "\xa0", " "]), max_size=2)


@st.composite
def jsonl_lines(draw) -> str:
    shape = draw(st.integers(0, 9))
    if shape == 0:
        body = draw(st.sampled_from(["{} {}", "null", "[]", '"x"', "{", '{"text": "a"', "", "x"]))
    else:  # an object; a key may repeat
        keys = draw(st.lists(st.sampled_from(["id", "text", "label", "text", "other"]), max_size=4))
        body = "{" + ", ".join(f'"{key}": {draw(st.sampled_from(_VALUES))}' for key in keys) + "}"
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return bom + draw(_SPACE) + body + draw(_SPACE)


def _write(tmp: str, name: str, text: str) -> Path:
    path = Path(tmp) / name
    path.write_bytes(text.encode("utf-8"))
    return path


@settings(max_examples=300)
@given(st.lists(jsonl_lines(), min_size=1, max_size=4), st.booleans())
def test_jsonl_lines_read_as_json_loads_reads_them(lines, final_newline):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "c.jsonl", "\n".join(lines) + ("\n" if final_newline else ""))
        assert_readers_match_oracles(path, "jsonl")
        assert outcome(load_corpus, path) == outcome(load_corpus_oracle, path)
        assert outcome(load_labels, path) == outcome(read_label_file_oracle, path)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"text": "a b"}\x0c', "Extra data: line 1 column 16 (char 15)"),
        ('{"text": "a b"}\xa0', "Extra data: line 1 column 16 (char 15)"),
        ('\x0b{"text": "a b"}', "Expecting value: line 1 column 1 (char 0)"),
        ('\t{"text": "a b"} \r', None),
    ],
)
def test_only_json_whitespace_may_surround_a_jsonl_object(tmp_path, line, message):
    path = tmp_path / "c.jsonl"
    path.write_bytes(line.encode("utf-8"))
    got = outcome(load_corpus, path)
    assert got == outcome(load_corpus_oracle, path)
    if message is None:
        assert got == [("0", "a b", None, type(None))]
    else:
        assert got[2] == f"{path}: line 1: invalid JSON: {message}"


# ------------------------------------------------------------ whole corpora

_TEXTS = ["ok", "", "<b>bold</b> &amp; more", "a,b", 'say "hi"', "two\nlines", "café \U0001f600"]
_RAW_LABELS = [None, "positive", "negative", "neutral", "Joy", "Anger", "Meh", "Sarcasm"]
_NOT_STRINGS = [5, True, ["positive"], {"a": 1}]  # JSONL only
_TARGETS = ["positive", "negative", "neutral", "drop"]


@st.composite
def corpus_files(draw) -> tuple[str, list[dict]]:
    """A format and its records, with or without ids (a few, so that they
    repeat), some with labels no mapping covers."""
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    with_ids = draw(st.booleans())
    labels = _RAW_LABELS + (_NOT_STRINGS if fmt == "jsonl" and draw(st.booleans()) else [])
    records = []
    for _ in range(draw(st.integers(0, 12))):
        record = {"text": draw(st.sampled_from(_TEXTS))}
        if with_ids and draw(st.integers(0, 3)):
            record["id"] = draw(st.sampled_from(["a", "b", "0", "01", "10", "x/y", ""]))
        label = draw(st.sampled_from(labels))
        if label is not None or draw(st.booleans()):
            record["label"] = label
        records.append(record)
    return fmt, records


def _write_corpus(tmp: str, fmt: str, records: list[dict], with_labels=True) -> Path:
    """The records as a file; without labels, a label that is not a string
    is written as null."""
    def label(record):
        value = record.get("label")
        return value if with_labels or isinstance(value, str) else None

    if fmt == "jsonl":
        text = "".join(
            json.dumps({**record, **({"label": label(record)} if "label" in record else {})}) + "\n"
            for record in records
        )
    else:
        rows = [("id", "text", "label")] + [(r.get("id", ""), r["text"], label(r) or "") for r in records]
        text = "".join(
            ",".join('"' + str(value).replace('"', '""') + '"' for value in row) + "\r\n" for row in rows
        )
    return _write(tmp, f"c.{fmt}", text)


_OPTIONS = st.builds(
    IngestOptions,
    allow_empty_text=st.booleans(),
    strip_markup=st.booleans(),
    label_mapping=st.one_of(
        st.none(),
        st.dictionaries(st.sampled_from(_RAW_LABELS[1:]), st.sampled_from(_TARGETS)).map(LabelMapping.from_dict),
    ),
)


@settings(max_examples=300)
@given(corpus_files(), _OPTIONS)
def test_loaders_match_the_original_loaders(corpus_file, options):
    fmt, records = corpus_file
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_corpus(tmp, fmt, records)
        assert_readers_match_oracles(path, fmt)
        assert outcome(load_corpus, path, options=options) == outcome(load_corpus_oracle, path, options=options)
        assert outcome(load_labels, path) == outcome(read_label_file_oracle, path)
        # load_texts ignores labels: any label reads as no label did before
        texts = outcome(load_texts, path)
        _write_corpus(tmp, fmt, records, with_labels=False)
        assert texts == outcome(load_texts_oracle, path)


# ------------------------------------------------------------- label files


def assert_same_as_oracle(name: str, data: bytes):
    """``load_labels`` of the file against ``read_label_file_oracle``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        assert_readers_match_oracles(path, path.suffix[1:])
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
_LABEL_FILE_TEXTS = ["x", "", 'say "hi", ok', "two\nlines", "crlf\r\nline", "café \U0001f600", "a,b"]


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
        row = [draw(values.get(name, st.sampled_from(_LABEL_FILE_TEXTS))) for name in columns]
        shape = draw(st.integers(0, 9))
        if shape == 0:
            row = []  # a blank line
        elif shape == 1:
            row += draw(st.lists(st.sampled_from(_LABEL_FILE_TEXTS), min_size=1, max_size=2))  # extra fields
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
    texts = st.one_of(st.sampled_from(_LABEL_FILE_TEXTS), st.integers())
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


# Long sound label files, all ids given or some left to their index, with a
# bad label or a repeated id at random places: load_labels builds its dict
# in one pass and walks the records only when that pass fails, so the walk
# must still name the first fault.
_WALK_FAULTS = ["joy", "", "Positive", None, 1, True, [1]]


@st.composite
def faulty_label_files(draw) -> tuple[str, bytes]:
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    count = draw(st.integers(0, 60))
    ids = [draw(st.sampled_from(["", "", f"x{index}"])) for index in range(count)]
    labels = [draw(st.sampled_from(_POLARITIES)) for _ in range(count)]
    for _ in range(draw(st.integers(0, 2)) if count else 0):
        position = draw(st.integers(0, count - 1))
        if draw(st.booleans()):
            faults = _WALK_FAULTS if fmt == "jsonl" else _WALK_FAULTS[:3]
            labels[position] = draw(st.sampled_from(faults))
        else:  # an id given twice, or one that a missing id is given as its index
            other = draw(st.integers(0, count - 1))
            ids[position] = ids[other] or str(other).zfill(len(str(count - 1)))
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows([["id", "label"], *zip(ids, labels)])
        return "labels.csv", buffer.getvalue().encode("utf-8")
    lines = (json.dumps({"id": doc_id, "label": label}) for doc_id, label in zip(ids, labels))
    return "labels.jsonl", "".join(line + "\n" for line in lines).encode("utf-8")


@settings(max_examples=300)
@given(faulty_label_files())
def test_load_labels_in_one_pass_equals_the_walk(label_file):
    name, data = label_file
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, name, data.decode("utf-8"))
        got = outcome(load_labels, path)
        assert got == outcome(load_labels_walk_oracle, path)
        assert got == outcome(read_label_file_oracle, path)


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
        assert got[0] == "error" and expected in got[2]
    else:
        assert got == [(doc_id, PolarityLabel(label)) for doc_id, label in expected]


def test_explicit_format_overrides_the_suffix(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text('{"id": "a", "label": "neutral"}\n', encoding="utf-8")
    assert load_labels(path, format="jsonl") == {"a": PolarityLabel.NEUTRAL}
    with pytest.raises(SentimatchError, match="--corpus-format"):
        load_labels(path)


# ------------------------------------------------------ how records are held

_EIGHT_LABELS = ["positive", "negative", "neutral", "Joy", "Anger", "Fear", "Love", "Sarcasm"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_records_are_held_by_column(tmp_path, fmt):
    """A file's records keep no row number of their own while no row was
    skipped, each distinct label string once, and ``_record_ids`` fills the
    missing ids into the reader's own ids list and hands that list on."""
    records = [{"id": f"d{i}", "text": f"text {i}", "label": _EIGHT_LABELS[i % 8]} for i in range(20_000)]
    for record in records[1::2]:
        del record["id"]
    path = _write_corpus(str(tmp_path), fmt, records)
    read = _READERS[fmt][0]
    for kind in ("corpus", "texts", "labels"):
        got = read(path, kind)
        assert len(got) == len(records)
        assert isinstance(got.rows, range) and got.rows[0] == (2 if fmt == "csv" else 1)
        assert len({id(label) for label in got.labels}) <= 8
        assert _record_ids(got) is got.ids
        assert got.ids[:2] == ["d0", "00001"]
        assert (got.texts is None) == (kind == "labels")


def test_a_load_peaks_near_the_corpus_it_keeps(tmp_path):
    """The file's columns, and the records its label map drops, are released
    before the documents are built, and the ids are checked before then."""
    rng = random.Random(27)
    words = [f"w{i}" for i in range(2000)]
    records = [
        {"id": f"d{i:05d}", "text": " ".join(rng.choices(words, k=rng.randint(4, 24))), "label": mood}
        for i, mood in zip(range(20_000), cycle(("Joy", "Anger", "Calm", "Sarcasm")))
    ]
    path = _write_corpus(str(tmp_path), "csv", records)
    moods = LabelMapping.from_dict({"Joy": "positive", "Anger": "negative", "Calm": "neutral", "Sarcasm": "drop"})
    tracemalloc.start()
    try:
        corpus = load_corpus(path, options=IngestOptions(label_mapping=moods))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 15_000
    assert peak <= 1.35 * kept


def test_jsonl_errors_name_the_line_after_blank_lines(tmp_path):
    lines = ['{"text": "a", "label": "positive"}', "", "  ", '{"id": "b", "text": "", "label": "positive"}',
             "", '{"id": "b", "text": "c", "label": "Joy"}']
    path = _write(str(tmp_path), "c.jsonl", "\n".join(lines) + "\n")
    assert _read_jsonl_records(path).rows == [1, 4, 6]
    drop_joy = LabelMapping.from_dict({"Joy": "drop", "positive": "positive"})
    with pytest.raises(SentimatchError, match=r": row 4: empty text"):
        load_corpus(path, options=IngestOptions(label_mapping=drop_joy))
    with pytest.raises(SentimatchError, match=r"'Joy' \(first at row 6\)"):
        load_corpus(path, options=IngestOptions(allow_empty_text=True))
    with pytest.raises(SentimatchError, match=r": row 6: 'Joy' is not a polarity label"):
        load_labels(path, format="jsonl")


def test_the_csv_field_limit_fits_a_c_long_on_every_platform():
    # A C long is 32 bits on Windows: a limit above 2**31 - 1 would fail there on import.
    assert csv.field_size_limit() == 2**31 - 1
