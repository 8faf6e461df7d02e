from __future__ import annotations

import ast
import dataclasses
import io
import json
import pickle
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sentimatch
from sentimatch import (
    DROP,
    Corpus,
    CorpusFormatError,
    Document,
    IngestOptions,
    LabelMapping,
    LabelMappingError,
    PolarityLabel,
    class_distribution,
    load_corpus,
    merge_corpora,
    save_corpus,
)
from sentimatch.corpus import _parse_json_line, load_texts
from conftest import NEG, NEU, POS, make_corpus, write_csv, write_jsonl


def test_load_jsonl_three_labeled_records(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"id": "a", "text": "great stuff", "label": "positive"},
            {"id": "b", "text": "meh", "label": "neutral"},
            {"id": "c", "text": "broken again", "label": "negative"},
        ],
    )
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert [doc.label for doc in corpus] == [POS, NEU, NEG]
    assert [doc.id for doc in corpus] == ["a", "b", "c"]


def test_load_empty_file_gives_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert len(load_corpus(path)) == 0
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("")
    assert len(load_corpus(csv_path)) == 0


def test_load_csv_with_emotion_mapping(tmp_path):
    path = write_csv(
        tmp_path / "c.csv",
        [["1", "this rocks", "Excited"]],
        header=["id", "text", "label"],
    )
    options = IngestOptions(label_mapping=LabelMapping.from_dict({"Excited": "positive"}))
    corpus = load_corpus(path, options=options)
    assert corpus.documents[0].label is POS


def test_load_unknown_label_without_mapping_lists_offenders(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"text": "x", "label": "Excited"},
            {"text": "y", "label": "positive"},
            {"text": "z", "label": "Stress"},
        ],
    )
    with pytest.raises(LabelMappingError) as excinfo:
        load_corpus(path)
    assert excinfo.value.unmapped == ("Excited", "Stress")


_MOODS = IngestOptions(label_mapping=LabelMapping.from_dict({"Excited": "positive", "Sarcasm": "drop"}))


@pytest.mark.parametrize(
    "load, records, error, message",
    [
        pytest.param(
            load_corpus, [{"id": "same", "text": "x"}, {"id": "same", "text": "y"}],
            CorpusFormatError, "duplicate document id: 'same'", id="kept-repeat",
        ),
        # only kept records' ids must be unique
        pytest.param(
            lambda path: load_corpus(path, options=_MOODS),
            [{"id": "same", "text": "x", "label": "Sarcasm"}, {"id": "same", "text": "y", "label": "Excited"}],
            None, None, id="dropped-repeat-loads",
        ),
        # the whole file's labels are checked before its ids
        pytest.param(
            lambda path: load_corpus(path, options=_MOODS),
            [{"id": "same", "text": "x"}, {"id": "same", "text": "y"}, {"id": "z", "text": "z", "label": "Stress"}],
            LabelMappingError, "unmapped raw labels: 'Stress' (first at row 3)", id="repeat-then-unmapped",
        ),
        pytest.param(
            load_corpus, [{"id": "same", "text": "x"}, {"id": "same", "text": "y"}, {"id": "e", "text": ""}],
            CorpusFormatError, "row 3: empty text", id="repeat-then-empty-text",
        ),
        pytest.param(
            load_texts, [{"id": "same", "text": "x"}, {"id": "same", "text": "y", "label": 5}],
            CorpusFormatError, "duplicate document id: 'same'", id="load-texts-repeat",
        ),
    ],
)
def test_load_duplicate_explicit_id_rejected(tmp_path, load, records, error, message):
    path = write_jsonl(tmp_path / "c.jsonl", records)
    if error is None:
        assert [(doc.id, doc.text, doc.label) for doc in load(path)] == [("same", "y", POS)]
        return
    with pytest.raises(error, match=re.escape(f"{path}: {message}")):
        load(path)


def test_load_malformed_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "fine"}\nnot json at all\n')
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def test_load_csv_malformed_row_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,text,label\n1,fine,positive\n2,too,many,fields,here\n")
    with pytest.raises(CorpusFormatError, match="row 3"):
        load_corpus(path)


def test_load_csv_requires_text_column(tmp_path):
    path = write_csv(tmp_path / "c.csv", [["1", "positive"]], header=["id", "label"])
    with pytest.raises(CorpusFormatError, match="'text' column"):
        load_corpus(path)


def test_load_empty_text_rejected_unless_allowed(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"text": ""}])
    with pytest.raises(CorpusFormatError, match="row 1"):
        load_corpus(path)
    corpus = load_corpus(path, options=IngestOptions(allow_empty_text=True))
    assert corpus.documents[0].text == ""


def test_auto_ids_are_zero_padded_record_indices(tmp_path):
    records = [{"text": f"doc {i}"} for i in range(12)]
    path = write_jsonl(tmp_path / "c.jsonl", records)
    corpus = load_corpus(path)
    assert [doc.id for doc in corpus][:3] == ["00", "01", "02"]
    assert corpus.documents[-1].id == "11"


def test_reload_is_identical(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [{"id": "a", "text": "x", "label": "positive"}, {"text": "y"}],
    )
    assert load_corpus(path) == load_corpus(path)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_round_trip_preserves_ids_texts_labels(tmp_path, fmt):
    documents = (
        Document(id="a", text='line one\nline "two", with commas', label=NEG),
        Document(id="b", text="unicode éü✓ and emoji \U0001f600", label=None),
        Document(id="c", text="  leading/trailing spaces  ", label=POS),
    )
    corpus = Corpus(documents=documents)
    path = tmp_path / f"c.{fmt}"
    save_corpus(corpus, path, format=fmt)
    reloaded = load_corpus(path, format=fmt, options=IngestOptions(allow_empty_text=True))
    assert reloaded.documents == corpus.documents
    # a second cycle is byte-stable
    path2 = tmp_path / f"c2.{fmt}"
    save_corpus(reloaded, path2, format=fmt)
    assert path2.read_bytes() == path.read_bytes()


def test_strip_markup_option(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"text": "<b>bold</b> &amp; more"}])
    plain = load_corpus(path)
    assert plain.documents[0].text == "<b>bold</b> &amp; more"
    stripped = load_corpus(path, options=IngestOptions(strip_markup=True))
    assert stripped.documents[0].text == " bold  & more"


def test_only_stripping_markup_imports_html():
    src = Path(sentimatch.__file__).parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import sentimatch.cli; print('html' in sys.modules)"
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


@pytest.mark.parametrize("build", [LabelMapping, LabelMapping.from_dict], ids=["constructor", "from_dict"])
def test_mapping_target_validation(build):
    with pytest.raises(LabelMappingError, match="Excited"):
        build({"Excited": "happy"})


def test_constructed_mapping_gives_polarity_members(tmp_path):
    path = write_csv(
        tmp_path / "c.csv",
        [["1", "this rocks", "Excited"], ["2", "so tired", "Stress"], ["3", "sure", "Sarcasm"]],
        header=["id", "text", "label"],
    )
    mapping = LabelMapping({"Excited": "positive", "Stress": PolarityLabel.NEGATIVE, "Sarcasm": DROP})
    assert mapping == LabelMapping.from_dict({"Excited": "positive", "Stress": "negative", "Sarcasm": "drop"})
    corpus = load_corpus(path, options=IngestOptions(label_mapping=mapping))
    assert [type(doc.label) for doc in corpus] == [PolarityLabel, PolarityLabel]
    dist = class_distribution(corpus)
    assert (dist.negative, dist.neutral, dist.positive, dist.total) == (1, 0, 1, 2)
    save_corpus(corpus, tmp_path / "saved.csv")
    assert load_corpus(tmp_path / "saved.csv") == corpus


# Targets of every kind: polarity values and members, both spellings of
# DROP, and junk (wrong case, None, numbers, containers).
_TARGETS = st.one_of(
    st.sampled_from([*PolarityLabel, *(label.value for label in PolarityLabel), "drop", DROP]),
    st.sampled_from(["Positive", "DROP", "Drop", "", "happy"]),
    st.none(), st.integers(), st.floats(), st.lists(st.text(max_size=2), max_size=2),
)


@settings(max_examples=300)
@given(st.dictionaries(st.text(max_size=6), _TARGETS, max_size=5))
def test_mapping_constructor_and_from_dict_agree(raw):
    outcomes = []
    for build in (LabelMapping, LabelMapping.from_dict):
        try:
            mapping = build(dict(raw))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        assert all(target is DROP or type(target) is PolarityLabel for target in mapping.rules.values())
        outcomes.append(mapping)
    assert outcomes[0] == outcomes[1]


def test_class_distribution_counts_and_total():
    corpus = make_corpus([NEG, NEG, NEU, POS, None, NEU])
    dist = class_distribution(corpus)
    assert (dist.negative, dist.neutral, dist.positive, dist.unlabeled) == (2, 2, 1, 1)
    assert dist.total == len(corpus)


def test_class_distribution_pooled_github_counts():
    # pooled class counts of the three GitHub sets: 2561 / 5409 / 2699 of 10669
    corpus = make_corpus([NEG] * 2561 + [NEU] * 5409 + [POS] * 2699)
    dist = class_distribution(corpus)
    assert (dist.negative, dist.neutral, dist.positive) == (2561, 5409, 2699)
    assert dist.total == 10669


def test_class_distribution_empty_and_unlabeled():
    assert class_distribution(Corpus(documents=())).to_dict() == {
        "negative": 0,
        "neutral": 0,
        "positive": 0,
        "unlabeled": 0,
        "total": 0,
    }
    dist = class_distribution(make_corpus([None] * 4))
    assert dist.unlabeled == 4 and dist.total == 4


def test_class_distribution_is_permutation_invariant():
    rng = random.Random(11)
    labels = [rng.choice([NEG, NEU, POS, None]) for _ in range(200)]
    base = class_distribution(make_corpus(labels))
    for _ in range(10):
        rng.shuffle(labels)
        assert class_distribution(make_corpus(labels)) == base


def test_corpus_rejects_duplicate_ids():
    docs = (Document(id="x", text="a"), Document(id="x", text="b"))
    with pytest.raises(ValueError, match="duplicate"):
        Corpus(documents=docs)


def test_document_requires_nonempty_id():
    for doc_id, text in (("", "x"), (5, "x"), (None, "x"), (b"a", "x"), ("a", None), ("a", 5), ("a", b"x")):
        with pytest.raises(ValueError):
            Document(id=doc_id, text=text)


def test_document_label_is_a_polarity_or_none():
    assert Document(id="a", text="x", label="positive").label is POS
    assert Document(id="a", text="x").label is None
    for label in ("Excited", 5, ["positive"]):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            Document(id="a", text="x", label=label)


def test_document_is_a_frozen_slotted_value(tmp_path):
    doc = Document(id="a", text="x", label="positive")
    assert not hasattr(doc, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.text = "y"
    # Python 3.10 and 3.11 raise TypeError for a name that is not a field
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        doc.extra = 1
    with pytest.raises(AttributeError):
        object.__setattr__(doc, "extra", 1)  # no slot to hold it
    assert doc == Document("a", "x", POS) and doc != Document("a", "x") and doc != ("a", "x", POS)
    assert hash(doc) == hash(("a", "x", POS))
    assert dataclasses.replace(doc, text="y") == Document("a", "y", POS)
    with pytest.raises(ValueError):
        dataclasses.replace(doc, id="")
    with pytest.raises(ValueError, match="'Excited'"):
        dataclasses.replace(doc, label="Excited")
    assert pickle.loads(pickle.dumps(doc)) == doc
    # a loaded document is the same value as one built by hand
    loaded = load_corpus(write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "text": "x", "label": "positive"}]))
    assert loaded.documents == (doc,) and hash(loaded.documents[0]) == hash(doc)
    assert type(loaded.documents[0].label) is PolarityLabel


def test_merge_corpora_prefixes_ids_and_preserves_order():
    first = make_corpus([NEG, POS], prefix="a")
    second = make_corpus([NEU], prefix="a")  # same ids as first
    merged = merge_corpora([first, second])
    assert [doc.id for doc in merged] == ["0/a0", "0/a1", "1/a0"]
    assert [(doc.text, doc.label) for doc in merged] == [(doc.text, doc.label) for doc in (*first, *second)]
    single = merge_corpora([first])
    assert single == first


def test_merge_corpora_pools_shared_ids_into_unique_ones():
    # Every corpus holds "x", and corpus 1 also holds "2/x" and "1x". Without
    # its "/", the prefix would make "11x" of both "1x" in corpus 1 and "x" in corpus 11.
    corpora = [Corpus((Document("x", f"text {i}", POS),)) for i in range(12)]
    corpora[1] = Corpus(tuple(Document(doc_id, doc_id, NEG) for doc_id in ("x", "2/x", "1x")))
    merged = merge_corpora(corpora)
    ids = [doc.id for doc in merged]
    assert ids == [f"{i}/{doc.id}" for i, corpus in enumerate(corpora) for doc in corpus]
    assert {"1/2/x", "1/1x", "11/x"} <= set(ids)
    assert Corpus(merged.documents).documents == merged.documents  # the full id check accepts them


# Texts mix quotes, commas, every line ending, tabs and non-ASCII text. Left
# out: lone surrogates, which UTF-8 cannot encode, and NUL, which the csv
# module of Python 3.10 rejects.
_ROUND_TRIP_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(['"', ",", "'", "\n", "\r\n", "\r", "\t", " ", "\ufeff", "\u2028", "\x85"]),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    min_size=1,
    max_size=30,
).map("".join)
_ROUND_TRIP_LABELS = st.one_of(st.none(), st.sampled_from(list(PolarityLabel)))


@settings(max_examples=200)
@given(
    st.lists(st.tuples(_ROUND_TRIP_TEXTS, _ROUND_TRIP_LABELS), max_size=12),
    st.sampled_from(["csv", "jsonl"]),
)
def test_save_then_load_round_trips(records, fmt):
    corpus = Corpus(
        documents=tuple(
            Document(id=f"d{i}", text=text, label=label) for i, (text, label) in enumerate(records)
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"corpus.{fmt}"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        written = path.read_bytes().decode("utf-8")
    assert loaded == corpus
    # a stream gets the same text as the file
    stream = io.StringIO(newline="")
    save_corpus(corpus, stream, format=fmt)
    assert stream.getvalue() == written


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_every_corpus_that_builds_round_trips(tmp_path, fmt):
    """A document refuses an id or text that is not a string: 5 and "5" would
    be two ids in a corpus and one in its file, and a text of None would be
    written as no text."""
    documents = []
    for doc_id, text in ((5, "a"), ("5", "b"), ("6", None), ("7", "c")):
        try:
            documents.append(Document(id=doc_id, text=text))
        except ValueError:
            pass
    corpus = Corpus(documents=tuple(documents))
    path = tmp_path / f"corpus.{fmt}"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus
    assert [doc.id for doc in corpus] == ["5", "7"]


# Any character, lone surrogates included: a stream takes them, even though
# a UTF-8 file cannot.
_ANY_TEXT = st.text(st.one_of(st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "\u2028"]),
                              st.characters(blacklist_categories=())), max_size=12)


@settings(max_examples=100)
@given(st.lists(st.tuples(_ANY_TEXT, _ANY_TEXT, _ROUND_TRIP_LABELS), max_size=6))
@example([("", "t", None), ("\\", "", PolarityLabel.POSITIVE)])
def test_jsonl_lines_are_those_json_dumps_writes(records):
    documents = [Document(id=f"d{i}{doc_id}", text=text, label=label)
                 for i, (doc_id, text, label) in enumerate(records)]
    stream = io.StringIO(newline="")
    save_corpus(Corpus(documents=tuple(documents)), stream, format="jsonl")
    expected = ""
    for doc in documents:
        obj = {"id": doc.id, "text": doc.text}
        if doc.label is not None:
            obj["label"] = doc.label.value
        expected += json.dumps(obj, ensure_ascii=False) + "\n"
    assert stream.getvalue() == expected


# A JSONL id of any JSON type is read through str(): 5 and "5" are one id,
# true reads as "True" and [5] as "[5]"; null and "" take the auto id, as a
# record without the key (written for ``...``) does.
_JSONL_IDS = [("a", "a"), (5, "5"), (True, "True"), ([5], "[5]"), (1.5, "1.5"), ({"a": 1}, "{'a': 1}"),
              (None, "06"), ("", "07"), (..., "08"), *((f"x{i}", f"x{i}") for i in range(2))]


@pytest.mark.parametrize("kind", ["corpus", "labels"])
def test_jsonl_ids_of_any_json_type_read_through_str(tmp_path, kind):
    records = [{"text": "t", "label": "neutral", **({} if raw is ... else {"id": raw})}
               for raw, _ in _JSONL_IDS]
    path = write_jsonl(tmp_path / "c.jsonl", records)
    expected = [doc_id for _, doc_id in _JSONL_IDS]
    if kind == "corpus":
        assert [doc.id for doc in load_corpus(path)] == expected
    else:
        assert list(sentimatch.load_labels(path)) == expected


@pytest.mark.parametrize("kind", ["corpus", "labels"])
def test_a_jsonl_number_id_and_its_string_collide(tmp_path, kind):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": 5, "text": "a", "label": "neutral"},
                                               {"id": "5", "text": "b", "label": "neutral"}])
    if kind == "corpus":
        with pytest.raises(CorpusFormatError, match=r"duplicate document id: '5'$"):
            load_corpus(path)
    else:
        with pytest.raises(CorpusFormatError, match=r"row 2: duplicate document id '5'$"):
            sentimatch.load_labels(path)


_LINE_VALUES = ['{"text": "a"}', "{}", "[1, 2]", '"x"', "5", "null", "1" * 4301, "[" * 10_000 + "]" * 10_000,
                "{", '{"a": }', "x", "", '{"a": 1} {}', "NaN"]


@settings(max_examples=300)
@given(st.text(st.sampled_from([" ", "\t", "\r", "\x0c", "\xa0"]), max_size=2), st.sampled_from(_LINE_VALUES),
       st.text(st.sampled_from([" ", "\t", "\r", "\x0c", "x"]), max_size=2), st.sampled_from(["", "\n"]))
def test_a_jsonl_line_parses_as_json_loads_parses_it(before, value, after, end):
    line = before + value + after + end

    def parse(read):
        try:
            return ("value", read(line))
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            return (type(exc), str(exc))

    assert parse(_parse_json_line) == parse(json.loads)


def test_save_to_a_stream_needs_a_format():
    with pytest.raises(CorpusFormatError, match="needs format"):
        save_corpus(make_corpus([POS]), io.StringIO())


def test_save_to_a_stream_with_an_empty_format_needs_a_format():
    stream = io.StringIO()  # an empty format is no format: the stream is not taken for a path
    with pytest.raises(CorpusFormatError, match=r"^writing a corpus to a stream needs format='csv' or 'jsonl'$"):
        save_corpus(make_corpus([POS]), stream, format="")
    assert stream.getvalue() == ""


def test_save_unknown_format_creates_no_file(tmp_path):
    path = tmp_path / "c.csv"
    with pytest.raises(CorpusFormatError, match="unknown corpus format"):
        save_corpus(make_corpus([POS]), path, format="xml")
    assert not path.exists()


def test_load_unknown_format_is_format_error(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"text": "a"}])
    with pytest.raises(CorpusFormatError, match=r"^unknown corpus format 'xml'; expected 'csv' or 'jsonl'$"):
        load_corpus(path, format="xml")


# The only functions of the package that may touch a file themselves: every
# other reader goes through open_input, so that all inputs share one policy.
_FILE_FUNCTIONS = {"open_input", "data_path", "save_corpus"}


def _touches_a_file(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value.id if isinstance(func.value, ast.Name) else None
    return (
        func.attr in ("read_text", "read_bytes")
        or (func.attr == "open" and owner != "os")  # os.open: a raw descriptor, not a text reader
        or (func.attr == "files" and owner == "resources")
    )


def _file_calls(node: ast.AST, function: str | None = None):
    """(enclosing function or None, line) of each call under ``node`` that touches a file."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _file_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and _touches_a_file(child):
            yield function, child.lineno
        yield from _file_calls(child, function)


def test_only_the_input_helpers_touch_files():
    calls = [
        (function, f"{path.name}:{line}")
        for path in sorted(Path(sentimatch.__file__).parent.glob("*.py"))
        for function, line in _file_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert {function for function, _ in calls} >= {"open_input", "data_path"}
    assert [(f, where) for f, where in calls if f not in _FILE_FUNCTIONS] == []


# Build a Document or a Corpus without its checks, from values corpus.py has checked.
_TRUSTED = ("_trusted_document", "_trusted_corpus")


def test_only_corpus_builds_trusted_documents():
    package = Path(sentimatch.__file__).parent
    assert all(callable(getattr(sentimatch.corpus, name, None)) for name in _TRUSTED)
    users = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in sorted([*package.glob("*.py"), *Path(__file__).parent.glob("*.py")])
        if path != package / "corpus.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in _TRUSTED)
        or (isinstance(node, ast.Attribute) and node.attr in _TRUSTED)
        or (isinstance(node, ast.alias) and node.name in _TRUSTED)
    ]
    assert users == []
