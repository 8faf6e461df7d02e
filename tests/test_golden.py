"""Golden outputs: ``kb``, ``recommend``, ``profile``, ``sample``,
``evaluate`` and ``agreement`` print byte for byte what
``tests/data/golden_outputs.json`` holds.

The ``kb`` and ``recommend`` outputs were captured from the command line
before the knowledge-base loader and the recommender were refactored, the
``profile`` and ``sample`` outputs before the file readers were, and the
``evaluate`` and ``agreement`` outputs before the ratings reader and the
kappa arithmetic were; a refactor that changes any of these outputs fails
here. Each case is an argument list in which ``{data}`` stands for
``tests/data`` and ``{tmp}`` for a directory holding the input files of
``INPUTS``: a JSON document, the exact text of a corpus, label, ratings, word
list or lexicon file, or the exact bytes of a file that is not UTF-8. An
error case holds what stderr shows, with ``{tmp}`` in place of that
directory; its stdout is empty and its exit code 1.
"""

from __future__ import annotations

import json

import pytest

from sentimatch.cli import main
from sentimatch.profiles import FEATURE_ORDER
from conftest import DATA_DIR

EXAMPLE = "{data}/example_answers.json"

# Each value lies exactly halfway between two platforms' values, so they share
# its point: AppReviews and CodeReviews on chars per document, StackOverflow
# and one of Jira (emoticons) or GitHub (question marks, capitalized words).
MIDPOINT_STATS = {
    "avg_chars_per_doc": 171.05,
    "avg_emoticons": 0.16,
    "avg_question_marks": 0.23,
    "avg_capitalized_words": 0.47,
}

INPUTS = {
    # Jira and StackOverflow both score 11.
    "tie.json": {f.value: "untrue" for f in FEATURE_ORDER},
    # Seven "not specified" answers exceed the default threshold of six.
    "seven_not_specified.json": {
        f.value: "untrue" if i < 6 else "not_specified" for i, f in enumerate(FEATURE_ORDER)
    },
    # No platform lies in the "true" interval, so every point is ambiguous.
    "all_true.json": {f.value: "true" for f in FEATURE_ORDER},
    "midpoint_stats.json": MIDPOINT_STATS,
    "example_with_stats.json": {
        **json.loads((DATA_DIR / "example_answers.json").read_text(encoding="utf-8")),
        "statistics": MIDPOINT_STATS,
    },
    # Reviews with quoted commas and a line break, emoticons, emoji (one with a
    # skin tone, one a flag), shouting, misspellings and punctuation runs.
    "reviews.csv": (
        "id,text,label\r\n"
        "r01,Love this app :) works GREAT!!,positive\r\n"
        "r02,\"Crashes on startup, every time. FIX IT\",negative\r\n"
        "r03,Does the dark mode sync across devices?,neutral\r\n"
        "r04,Thnx for the updte 👍🏽 realy nice,positive\r\n"
        "r05,\"Two lines:\nfirst line\nsecond line :(\",negative\r\n"
        "r06,meh. it is ok I guess,neutral\r\n"
        "r07,Best app EVER 🎉🎉 :D,positive\r\n"
        "r08,Why does it need my location??? Uninstalled.,negative\r\n"
        "r09,Works on my phone 🇩🇪 but not on the tablet,neutral\r\n"
        "r10,\"Great, great, great! 10/10\",positive\r\n"
        "r11,Ads everywhere :-( so annoying,negative\r\n"
        "r12,Version 2.3 changed the icons,neutral\r\n"
        "r13,I LOVE the new widgets xD,positive\r\n"
        "r14,\"Battery drain is awful, 40% in an hour!!!\",negative\r\n"
        "r15,Is there a web version?,neutral\r\n"
        "r16,naïve café résumé – still the best,positive\r\n"
    ),
    # Tracker comments with URLs, code spans, handles, tags and contractions;
    # two records have no id and one has an empty one.
    "comments.jsonl": "".join(
        json.dumps(record, ensure_ascii=False) + "\n"
        for record in [
            {"id": "i1", "text": "See https://example.com/docs for the `parse_args()` API.", "label": "neutral"},
            {"id": "i2", "text": "@alice this breaks #1234 again, can't reproduce locally", "label": "negative"},
            {"id": "i3", "text": "Thanks @bob! The fix in `src/main.py` works perfectly :)", "label": "positive"},
            {"text": "NullPointerException in www.example.org/trace — unbelievable", "label": "negative"},
            {"id": "i5", "text": "Merged. Closing as resolved.", "label": "neutral"},
            {"id": "", "text": "Well-written patch, the re-design is much cleaner 🚀", "label": "positive"},
            {"id": "i7", "text": "Why is `x = y ** 2` slower than `x = y * y`?", "label": "neutral"},
            {"id": "i8", "text": "This is WRONG and the docs are WRONG too!!", "label": "negative"},
            {"id": "i9", "text": "Übersetzung für straße hinzugefügt ✅", "label": "positive"},
            {"text": "LGTM, ship it", "label": "positive"},
        ]
    ),
    # Unlabeled messages, for the unlabeled bucket of a mixed pool.
    "chat.jsonl": "".join(
        json.dumps(record, ensure_ascii=False) + "\n"
        for record in [
            {"id": "c1", "text": "anyone around? build is red :-/"},
            {"id": "c2", "text": "brb, coffee ☕", "label": None},
            {"id": "c3", "text": "OK OK I'll look at it tmrw"},
        ]
    ),
    # Raw emotion labels for --label-map; the "surprise" rows are dropped.
    "emotions.csv": (
        "id,text,label\r\n"
        "e1,So happy with this release!,joy\r\n"
        "e2,This is infuriating,anger\r\n"
        "e3,Wait what? It just works now,surprise\r\n"
        "e4,I am worried the migration will fail,fear\r\n"
        "e5,The docs are fine,neutral\r\n"
        "e6,Really love the new API,joy\r\n"
        "e7,Another regression. Sad.,sadness\r\n"
        "e8,Oh! Nobody expected that,surprise\r\n"
    ),
    "emotion_map.json": {
        "joy": "positive",
        "anger": "negative",
        "fear": "negative",
        "sadness": "negative",
        "neutral": "neutral",
        "surprise": "drop",
    },
    # Predictions for reviews.csv, in another order, four of them wrong.
    "reviews_pred.csv": (
        "id,label\r\n"
        "r16,positive\r\nr15,neutral\r\nr14,negative\r\nr13,neutral\r\n"
        "r12,neutral\r\nr11,negative\r\nr10,positive\r\nr09,positive\r\n"
        "r08,negative\r\nr07,positive\r\nr06,negative\r\nr05,negative\r\n"
        "r04,positive\r\nr03,positive\r\nr02,negative\r\nr01,positive\r\n"
    ),
    # Predictions for comments.jsonl, whose records 3, 5 and 9 get auto ids;
    # no negative is predicted, so its precision is 0.
    "comments_pred.jsonl": "".join(
        json.dumps({"id": doc_id, "label": label}) + "\n"
        for doc_id, label in [
            ("i1", "neutral"), ("i2", "neutral"), ("i3", "positive"), ("3", "positive"),
            ("i5", "neutral"), ("5", "positive"), ("i7", "positive"), ("i8", "neutral"),
            ("i9", "positive"), ("9", "positive"),
        ]
    ),
    "stray_pred.csv": "id,label\r\nr01,positive\r\nr99,negative\r\n",
    # Five raters, three categories, twelve items.
    "ratings.csv": (
        "item,a,b,c,d,e\r\n"
        "t1,pos,pos,pos,pos,pos\r\nt2,pos,pos,neu,pos,pos\r\nt3,neg,neg,neg,neu,neg\r\n"
        "t4,neu,neu,neu,neu,neu\r\nt5,pos,neg,neu,pos,neg\r\nt6,neg,neg,neg,neg,neg\r\n"
        "t7,pos,pos,pos,pos,pos\r\nt8,neu,pos,neu,neu,neu\r\nt9,neg,neu,neg,pos,neg\r\n"
        "t10,pos,pos,pos,pos,neu\r\nt11,neu,neu,neg,neu,neu\r\nt12,neg,neg,neg,neg,neg\r\n"
    ),
    # A BOM, blank lines between and after the rows, and a quoted label.
    "ratings_bom_blank.csv": (
        "\ufeffitem,r1,r2,r3\n\nx1,yes,yes,no\n\n\nx2,\"no\",no,no\nx3,yes,yes,yes\n\n"
    ),
    "ratings_one_category.csv": "item,r1,r2\r\ni1,pos,pos\r\ni2,pos,pos\r\ni3,pos,pos\r\n",
    "ratings_empty.csv": "",
    "ratings_header_only.csv": "item,r1,r2\r\n\r\n",
    "ratings_one_rater.csv": "item,r1\r\ni1,pos\r\ni2,neg\r\n",
    "ratings_one_rating_a_row.csv": "item,r1,r2\r\ni1,pos\r\ni2,neg\r\n",
    # Item 2 has two ratings, and item 4 four; the first is named.
    "ratings_ragged.csv": (
        "item,r1,r2,r3\r\ni0,pos,pos,neg\r\ni1,neg,neg,neg\r\ni2,pos,neg\r\n"
        "i3,pos,pos,pos\r\ni4,pos,pos,pos,pos\r\n"
    ),
    "ratings_not_utf8.csv": b"item,r1,r2\r\ni1,pos,neg\r\ni2,pos,\xff\r\n",
    # A bad byte anywhere in the file outranks a bad grid, even one that shows
    # in the first rows, before the file's later chunks are decoded.
    "ratings_one_rater_not_utf8.csv": b"item,r1\r\n" + b"i1,pos\r\n" * 3000 + b"i2,\xffneg\r\n",
    "ratings_ragged_not_utf8.csv": (
        b"item,r1,r2\r\ni1,pos\r\n" + b"i2,pos,neg\r\n" * 3000 + b"i3,\xff,neg\r\n"
    ),
    "words.txt": "the\nis\nit\nthis\napp\nworks\ngreat\nlove\nbest\n",
    "emoticons.txt": ":)\n:(\nxD\n:-/\n",
}

_BASE_CASES = {
    "kb-dump": ["kb", "dump"],
    "kb-check": ["kb", "check"],
    "recommend-example": ["recommend", "--answers", EXAMPLE],
    "recommend-example-midpoint-stats": [
        "recommend", "--answers", EXAMPLE, "--stats", "{tmp}/midpoint_stats.json"
    ],
    "recommend-example-embedded-stats": [
        "recommend", "--answers", "{tmp}/example_with_stats.json"
    ],
    "recommend-tie": ["recommend", "--answers", "{tmp}/tie.json"],
    "recommend-tie-midpoint-stats": [
        "recommend", "--answers", "{tmp}/tie.json", "--stats", "{tmp}/midpoint_stats.json"
    ],
    "recommend-seven-not-specified": [
        "recommend", "--answers", "{tmp}/seven_not_specified.json"
    ],
    "recommend-all-true": ["recommend", "--answers", "{tmp}/all_true.json"],
    "recommend-all-true-midpoint-stats": [
        "recommend", "--answers", "{tmp}/all_true.json", "--stats", "{tmp}/midpoint_stats.json"
    ],
}

_BASE_CASES.update({
    "profile-csv": ["profile", "{tmp}/reviews.csv"],
    "profile-jsonl": ["profile", "{tmp}/comments.jsonl"],
    "profile-mixed-pool": ["profile", "{tmp}/reviews.csv", "{tmp}/comments.jsonl", "{tmp}/chat.jsonl"],
    "profile-label-map": [
        "profile", "{tmp}/emotions.csv", "--label-map", "{tmp}/emotion_map.json"
    ],
    "profile-own-word-lists": [
        "profile", "{tmp}/reviews.csv", "{tmp}/chat.jsonl",
        "--dictionary", "{tmp}/words.txt", "--emoticons", "{tmp}/emoticons.txt",
    ],
})

_BASE_CASES.update({
    "evaluate-csv": ["evaluate", "--gold", "{tmp}/reviews.csv", "--pred", "{tmp}/reviews_pred.csv"],
    "evaluate-jsonl": [
        "evaluate", "--gold", "{tmp}/comments.jsonl", "--pred", "{tmp}/comments_pred.jsonl"
    ],
    "agreement-five-raters": ["agreement", "{tmp}/ratings.csv"],
    "agreement-bom-blank-lines": ["agreement", "{tmp}/ratings_bom_blank.csv"],
    "agreement-one-category": ["agreement", "{tmp}/ratings_one_category.csv"],
})

# ``sample`` has no --format: it writes a corpus in the first input's format.
_SAMPLE_CASES = {
    "sample-csv": ["sample", "{tmp}/reviews.csv", "--n", "8", "--seed", "3"],
    "sample-jsonl-auto": ["sample", "{tmp}/comments.jsonl", "--n", "auto", "--seed", "5"],
    "sample-mixed-pool-jsonl": [
        "sample", "{tmp}/comments.jsonl", "{tmp}/reviews.csv", "--n", "10", "--seed", "7"
    ],
    "sample-mixed-pool-csv": [
        "sample", "{tmp}/reviews.csv", "{tmp}/comments.jsonl", "--n", "10", "--seed", "7"
    ],
    "sample-retain-class": [
        "sample", "{tmp}/reviews.csv", "--n", "6", "--seed", "11", "--retain-class", "negative"
    ],
    "sample-label-map": [
        "sample", "{tmp}/emotions.csv", "--label-map", "{tmp}/emotion_map.json",
        "--n", "4", "--seed", "2",
    ],
}

ERROR_CASES = {
    "evaluate-id-mismatch": [
        "evaluate", "--gold", "{tmp}/reviews.csv", "--pred", "{tmp}/stray_pred.csv"
    ],
    **{
        f"agreement-{name}": ["agreement", f"{{tmp}}/ratings_{name.replace('-', '_')}.csv"]
        for name in (
            "empty",
            "header-only",
            "one-rater",
            "one-rating-a-row",
            "ragged",
            "not-utf8",
            "one-rater-not-utf8",
            "ragged-not-utf8",
        )
    },
}

CASES = {
    **{
        f"{name}-{fmt}": [*argv, "--format", fmt]
        for name, argv in _BASE_CASES.items()
        for fmt in ("json", "text")
    },
    **_SAMPLE_CASES,
}


def write_inputs(directory) -> None:
    for name, content in INPUTS.items():
        if isinstance(content, bytes):
            (directory / name).write_bytes(content)
            continue
        text = content if isinstance(content, str) else json.dumps(content)
        (directory / name).write_bytes(text.encode("utf-8"))


def expand(argv: list[str], tmp) -> list[str]:
    return [arg.format(data=DATA_DIR, tmp=tmp) for arg in argv]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads((DATA_DIR / "golden_outputs.json").read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted({**CASES, **ERROR_CASES})


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, golden, capsys, tmp_path):
    write_inputs(tmp_path)
    assert main(expand(CASES[case], tmp_path)) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == golden[case].encode("utf-8")


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_is_byte_identical(case, golden, capsys, tmp_path):
    write_inputs(tmp_path)
    assert main(expand(ERROR_CASES[case], tmp_path)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.replace(str(tmp_path), "{tmp}") == golden[case]
