"""Golden outputs: ``kb`` and ``recommend`` print byte for byte what
``tests/data/golden_outputs.json`` holds.

The file was captured from the command line before the knowledge-base loader
and the recommender were refactored; a refactor that changes any of these
outputs fails here. Each case is an argument list in which ``{data}`` stands
for ``tests/data`` and ``{tmp}`` for a directory holding the input files of
``INPUTS``.
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

CASES = {
    f"{name}-{fmt}": [*argv, "--format", fmt]
    for name, argv in _BASE_CASES.items()
    for fmt in ("json", "text")
}


def write_inputs(directory) -> None:
    for name, content in INPUTS.items():
        (directory / name).write_text(json.dumps(content), encoding="utf-8")


def expand(argv: list[str], tmp) -> list[str]:
    return [arg.format(data=DATA_DIR, tmp=tmp) for arg in argv]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads((DATA_DIR / "golden_outputs.json").read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, golden, capsys, tmp_path):
    write_inputs(tmp_path)
    assert main(expand(CASES[case], tmp_path)) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == golden[case].encode("utf-8")
