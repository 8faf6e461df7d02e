from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sentimatch
from sentimatch import load_corpus
from sentimatch.cli import main, wizard
from sentimatch.profiles import bundled_kb_path
from conftest import write_csv, write_jsonl


@pytest.fixture()
def labeled_jsonl(tmp_path):
    return write_jsonl(
        tmp_path / "corpus.jsonl",
        [
            {"id": "a", "text": "works great, thanks!", "label": "positive"},
            {"id": "b", "text": "crashes on startup :(", "label": "negative"},
            {"id": "c", "text": "see the docs", "label": "neutral"},
            {"id": "d", "text": "still broken?", "label": "negative"},
            {"id": "e", "text": "nice work", "label": "positive"},
            {"id": "f", "text": "ok", "label": "neutral"},
        ],
    )


def run_json(capsys, argv: list[str]) -> dict:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_profile_json_schema(capsys, labeled_jsonl):
    doc = run_json(capsys, ["profile", str(labeled_jsonl)])
    assert doc["documents"] == 6
    assert doc["class_distribution"] == {
        "negative": 2,
        "neutral": 2,
        "positive": 2,
        "unlabeled": 0,
        "total": 6,
    }
    assert doc["min_sample_size"] == 6
    assert set(doc["statistics"]) == {
        "avg_chars_per_doc",
        "avg_chars_per_word",
        "avg_words_per_doc",
        "avg_capitalized_words",
        "avg_spelling_mistakes",
        "avg_emoticons",
        "avg_question_marks",
        "avg_exclamation_marks",
    }
    assert doc["statistics"]["avg_emoticons"] == pytest.approx(1 / 6)


def test_profile_text_mode(capsys, labeled_jsonl):
    assert main(["profile", str(labeled_jsonl), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "documents: 6" in out
    assert "avg_words_per_doc" in out


def test_profile_pools_multiple_files(capsys, tmp_path, labeled_jsonl):
    other = write_jsonl(tmp_path / "more.jsonl", [{"id": "z", "text": "hello"}])
    doc = run_json(capsys, ["profile", str(labeled_jsonl), str(other)])
    assert doc["documents"] == 7
    assert doc["class_distribution"]["unlabeled"] == 1


def test_profile_reads_a_jsonl_corpus_with_a_bom(capsys, tmp_path, labeled_jsonl):
    with_bom = tmp_path / "bom.jsonl"
    with_bom.write_bytes(b"\xef\xbb\xbf" + labeled_jsonl.read_bytes())
    assert run_json(capsys, ["profile", str(with_bom)]) == run_json(capsys, ["profile", str(labeled_jsonl)])


def test_sample_is_deterministic_and_labels_preserved(capsys, labeled_jsonl):
    argv = ["sample", str(labeled_jsonl), "--n", "3", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = [json.loads(line) for line in first.strip().splitlines()]
    assert len(lines) == 3
    labels = [line["label"] for line in lines]
    assert labels.count("negative") == 1
    assert labels.count("neutral") == 1
    assert labels.count("positive") == 1


def test_sample_does_not_mutate_input(capsys, labeled_jsonl):
    before = labeled_jsonl.read_bytes()
    main(["sample", str(labeled_jsonl), "--n", "2", "--seed", "1"])
    capsys.readouterr()
    assert labeled_jsonl.read_bytes() == before


def test_sample_output_file_in_input_format(capsys, tmp_path):
    csv_in = write_csv(
        tmp_path / "c.csv",
        [
            ["1", "good", "positive"],
            ["2", "bad", "negative"],
            ["3", "meh", "neutral"],
            ["4", "fine", "positive"],
        ],
        header=["id", "text", "label"],
    )
    out_path = tmp_path / "sampled.csv"
    assert main(
        ["sample", str(csv_in), "--n", "2", "--seed", "3", "--output", str(out_path)]
    ) == 0
    content = out_path.read_text()
    assert content.splitlines()[0] == "id,text,label"
    assert len(content.strip().splitlines()) == 3  # header + 2 docs


def test_sample_auto_n(capsys, labeled_jsonl):
    assert main(["sample", str(labeled_jsonl), "--n", "auto", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 6  # min sample size clamps to population


def test_sample_retain_class(capsys, tmp_path):
    records = (
        [{"id": f"n{i}", "text": "bad", "label": "negative"} for i in range(13)]
        + [{"id": f"u{i}", "text": "meh", "label": "neutral"} for i in range(3)]
        + [{"id": f"p{i}", "text": "good", "label": "positive"} for i in range(19)]
    )
    path = write_jsonl(tmp_path / "c.jsonl", records)
    assert main(
        ["sample", str(path), "--n", "18", "--seed", "5", "--retain-class", "neutral"]
    ) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    neutrals = [line for line in lines if line["label"] == "neutral"]
    assert len(neutrals) == 3


def test_sample_oversized_n_is_domain_error(capsys, labeled_jsonl):
    assert main(["sample", str(labeled_jsonl), "--n", "99", "--seed", "1"]) == 1
    assert "exceeds population" in capsys.readouterr().err


def test_sample_bad_n_value(capsys, labeled_jsonl):
    assert main(["sample", str(labeled_jsonl), "--n", "many", "--seed", "1"]) == 1
    assert "integer or 'auto'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pool, n, message",
    [
        ("dropped", "auto", "cannot sample an empty corpus"),
        ("dropped", "1", "cannot sample an empty corpus"),
        ("unlabeled", "1", "document '1/0' has no polarity label; stratified sampling needs a fully labeled corpus"),
        ("labeled", "7", "sample size 7 exceeds population 6"),
        ("labeled", "-1", "sample size must be non-negative"),
    ],
    ids=["auto-on-empty", "n-on-empty", "unlabeled", "n-too-large", "n-negative"],
)
def test_sample_errors_name_the_pooled_files(capsys, tmp_path, labeled_jsonl, pool, n, message):
    argv = ["sample", "--n", n, "--seed", "1"]
    if pool == "dropped":  # the label map drops every document
        files = [write_jsonl(tmp_path / "x.jsonl", [{"text": "hi", "label": "x"}])]
        (tmp_path / "map.json").write_text('{"x": "drop"}')
        argv += ["--label-map", str(tmp_path / "map.json")]
    elif pool == "unlabeled":
        files = [labeled_jsonl, write_jsonl(tmp_path / "plain.jsonl", [{"text": "no label"}])]
    else:
        files = [labeled_jsonl]
    assert main([*argv, *map(str, files)]) == 1
    assert capsys.readouterr().err == f"error: {', '.join(map(str, files))}: {message}\n"


def test_evaluate_identical_files_scores_one(capsys, labeled_jsonl):
    doc = run_json(
        capsys, ["evaluate", "--gold", str(labeled_jsonl), "--pred", str(labeled_jsonl)]
    )
    assert doc["micro_f1"] == 1.0
    assert doc["macro_f1"] == 1.0
    assert doc["overall_score"] == 1.0
    assert doc["documents"] == 6
    assert doc["per_class"]["negative"]["support"] == 2


def test_evaluate_joins_on_id_not_order(capsys, tmp_path):
    gold = write_jsonl(
        tmp_path / "gold.jsonl",
        [
            {"id": "a", "text": "x", "label": "positive"},
            {"id": "b", "text": "y", "label": "negative"},
        ],
    )
    pred = write_jsonl(
        tmp_path / "pred.jsonl",
        [
            {"id": "b", "text": "y", "label": "negative"},
            {"id": "a", "text": "x", "label": "positive"},
        ],
    )
    doc = run_json(capsys, ["evaluate", "--gold", str(gold), "--pred", str(pred)])
    assert doc["micro_f1"] == 1.0


def test_evaluate_accepts_files_without_text(capsys, tmp_path):
    gold = write_csv(
        tmp_path / "gold.csv",
        [["a", "positive"], ["b", "negative"], ["c", "neutral"]],
        header=["id", "label"],
    )
    pred = write_jsonl(
        tmp_path / "pred.jsonl",
        [
            {"id": "a", "label": "positive"},
            {"id": "b", "label": "positive"},
            {"id": "c", "label": "neutral"},
        ],
    )
    doc = run_json(capsys, ["evaluate", "--gold", str(gold), "--pred", str(pred)])
    assert doc["documents"] == 3
    assert doc["micro_f1"] == pytest.approx(2 / 3)


def test_evaluate_missing_label_column_is_domain_error(capsys, tmp_path):
    gold = write_csv(tmp_path / "gold.csv", [["a", "x"]], header=["id", "text"])
    pred = write_csv(tmp_path / "pred.csv", [["a", "positive"]], header=["id", "label"])
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert "'label' column" in capsys.readouterr().err


def test_evaluate_id_mismatch_is_domain_error(capsys, tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", [{"id": "a", "text": "x", "label": "positive"}])
    pred = write_jsonl(tmp_path / "pred.jsonl", [{"id": "z", "text": "x", "label": "positive"}])
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert "id mismatch" in capsys.readouterr().err


def test_evaluate_unlabeled_document_is_domain_error(capsys, tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", [{"id": "a", "text": "x", "label": "positive"}])
    pred = write_jsonl(tmp_path / "pred.jsonl", [{"id": "a", "text": "x"}])
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert "no polarity label" in capsys.readouterr().err


def test_agreement_grid(capsys, tmp_path):
    rows = [["item", "r1", "r2", "r3"]]
    for i in range(6):
        rows.append([f"i{i}", "pos", "pos", "pos"])  # unanimous
    rows.append(["i6", "pos", "neg", "neg"])
    rows.append(["i7", "neu", "pos", "neg"])
    rows.append(["i8", "neg", "neg", "neg"])
    rows.append(["i9", "neu", "neu", "pos"])
    path = write_csv(tmp_path / "ratings.csv", rows[1:], header=rows[0])
    doc = run_json(capsys, ["agreement", str(path)])
    assert doc["items"] == 10
    assert doc["raters"] == 3
    assert doc["raw_agreement"] == 0.7
    assert doc["interpretation"] in {
        "poor", "slight", "fair", "moderate", "substantial", "almost perfect",
    }


def test_agreement_degenerate_single_category(capsys, tmp_path):
    path = write_csv(
        tmp_path / "ratings.csv",
        [["i0", "pos", "pos"], ["i1", "pos", "pos"]],
        header=["item", "r1", "r2"],
    )
    doc = run_json(capsys, ["agreement", str(path)])
    assert doc["kappa"] is None
    assert doc["interpretation"] == "undefined"
    assert doc["raw_agreement"] == 1.0


def test_agreement_needs_two_rater_columns(capsys, tmp_path):
    path = write_csv(tmp_path / "r.csv", [["i0", "pos"]], header=["item", "r1"])
    assert main(["agreement", str(path)]) == 1
    assert "rater columns" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, rows, message",
    [
        (
            ["item", "r1", "r2", "r3"],
            [["i0", "pos", "neg"], ["i1", "pos", "pos"]],
            "rows have 2 ratings, the header names 3 raters",
        ),
        (
            ["item", "r1", "r2"],
            [["i0", "pos", "neg", "neg"], ["i1", "pos", "pos", "pos"]],
            "rows have 3 ratings, the header names 2 raters",
        ),
    ],
    ids=["fewer-ratings-than-raters", "more-ratings-than-raters"],
)
def test_agreement_rows_must_match_the_header(capsys, tmp_path, header, rows, message):
    path = write_csv(tmp_path / "r.csv", rows, header=header)
    assert main(["agreement", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        ("id,r1,r2\n1,positive,\n2,,\n", "item 0 has an empty rating"),
        # blank lines are not items; a quoted empty cell is empty too
        ("id,r1,r2\n1,pos,neg\n\n2,pos,\"\"\n", "item 1 has an empty rating"),
        # an empty rating is reported before a ragged row, as both need every row read
        ("id,r1,r2\n1,pos,neg\n2,pos\n3,,neg\n", "item 2 has an empty rating"),
        # but after a bad byte anywhere, as a ragged row is
        (
            b"id,r1,r2\n1,,neg\n" + b"2,pos,neg\n" * 3000 + b"3,\xff,neg\n",
            "'utf-8' codec can't decode byte 0xff in position 30018: invalid start byte",
        ),
    ],
    ids=["trailing", "quoted-after-blank-line", "before-a-ragged-row", "after-a-bad-byte"],
)
def test_agreement_rejects_an_empty_rating(capsys, tmp_path, content, message):
    path = tmp_path / "r.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    assert main(["agreement", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_agreement_takes_an_empty_item_id(capsys, tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("id,r1,r2\n,pos,pos\nx,pos,neg\n", encoding="utf-8")
    assert run_json(capsys, ["agreement", str(path)])["items"] == 2


def test_recommend_answers_file(capsys, example_answers_path):
    doc = run_json(capsys, ["recommend", "--answers", str(example_answers_path)])
    assert doc["platforms"] == ["GitHub"]
    assert doc["scoreboard"]["points"] == {
        "AppReviews": 1,
        "CodeReviews": 7,
        "GitHub": 9,
        "Jira": 6,
        "StackOverflow": 7,
    }
    assert doc["scoreboard"]["ambiguous_points"] == 4
    assert doc["tools"] == {"GitHub": ["SetFit"]}


def test_recommend_all_not_specified(capsys, tmp_path):
    answers = {f"L{i}": "not_specified" for i in range(1, 14)}
    path = tmp_path / "answers.json"
    path.write_text(json.dumps(answers))
    doc = run_json(capsys, ["recommend", "--answers", str(path)])
    assert doc["ambiguous"] is True
    assert doc["fallback_tools"] == ["SetFit", "SentiStrength-SE"]
    assert doc["platforms"] == []


def test_recommend_with_stats_file(capsys, tmp_path, example_answers_path, kb):
    stats_path = tmp_path / "stats.json"
    stats_path.write_text(json.dumps({"avg_chars_per_doc": 104.21}))
    doc = run_json(
        capsys, ["recommend", "--answers", str(example_answers_path), "--stats", str(stats_path)]
    )
    assert doc["scoreboard"]["points"]["Jira"] == 7  # 6 linguistic + 1 statistic


def test_recommend_statistics_embedded_in_answers(capsys, tmp_path, example_answers_path):
    answers = json.loads(example_answers_path.read_text())
    answers["statistics"] = {"avg_chars_per_doc": 104.21}
    path = tmp_path / "answers.json"
    path.write_text(json.dumps(answers))
    doc = run_json(capsys, ["recommend", "--answers", str(path)])
    assert doc["scoreboard"]["points"]["Jira"] == 7


def test_recommend_with_corpus_auto_stats(capsys, tmp_path, example_answers_path, labeled_jsonl):
    doc = run_json(
        capsys, ["recommend", "--answers", str(example_answers_path), "--corpus", str(labeled_jsonl)]
    )
    assert len(doc["scoreboard"]["statistics"]) == 8


def test_recommend_stats_with_corpus_is_usage_error(capsys, tmp_path, example_answers_path):
    """Statistics come from a file or from a corpus, not from both."""
    stats_path = tmp_path / "stats.json"
    stats_path.write_text(json.dumps({"avg_chars_per_doc": 104.21}))
    argv = ["recommend", "--answers", str(example_answers_path), "--stats", str(stats_path),
            "--corpus", str(tmp_path / "missing.jsonl")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "argument --corpus: not allowed with argument --stats" in capsys.readouterr().err


def test_recommend_without_answers_non_tty_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    with pytest.raises(SystemExit) as excinfo:
        main(["recommend"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err  # reported as every other recommend usage error is
    assert err.startswith("usage: sentimatch recommend [-h]")
    assert err.endswith(
        "sentimatch recommend: error: recommend needs --answers when not run on an interactive terminal\n"
    )


def test_negative_max_not_specified_is_usage_error(capsys, example_answers_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["recommend", "--answers", str(example_answers_path), "--max-not-specified", "-1"])
    assert excinfo.value.code == 2
    assert "--max-not-specified: must be >= 0, got -1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["recommend", "--answers", str(example_answers_path), "--max-not-specified", "abc"])
    assert excinfo.value.code == 2
    assert "--max-not-specified: invalid int value: 'abc'" in capsys.readouterr().err
    run_json(capsys, ["recommend", "--answers", str(example_answers_path), "--max-not-specified", "0"])


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["recommend", "--bogus"])
    assert excinfo.value.code == 2


def test_kb_env_var_override(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "kb.json"
    bad.write_text("{}")
    monkeypatch.setenv("SENTIMATCH_KB", str(bad))
    assert main(["kb", "check"]) == 1
    assert capsys.readouterr().err == f"error: {bad}: malformed entry: missing key 'features' in knowledge base\n"


def test_kb_flag_beats_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SENTIMATCH_KB", str(tmp_path / "absent.json"))
    doc = run_json(capsys, ["kb", "check", "--kb", str(bundled_kb_path())])
    assert doc["ok"] is True


def test_kb_check_reports_documented_flags(capsys):
    doc = run_json(capsys, ["kb", "check"])
    assert doc["performance_records"] == 130
    flagged = {(c["tool"], c["dataset"]) for c in doc["integrity"]["flagged_cells"]}
    assert flagged == {
        ("SentiSW", "SO 2"),
        ("SentiStrength-SE", "GH 2"),
        ("SEnti-Analyzer", "SO 3"),
    }


def test_kb_dump_schema(capsys, kb):
    doc = run_json(capsys, ["kb", "dump"])
    assert doc["best_tools"] == {
        "AppReviews": ["SetFit"],
        "CodeReviews": ["SetFit"],
        "GitHub": ["SetFit"],
        "Jira": ["ELECTRA", "RoBERTa"],
        "StackOverflow": ["RoBERTa", "SetFit"],
    }
    assert doc["interval_mapping"] == kb.mapping.to_dict()
    assert doc["fallback_tools"] == ["SetFit", "SentiStrength-SE"]
    assert doc["features"]["L6"]["name"] == "Gratitude"


def test_wizard_matches_file_mode(capsys, example_answers_path):
    # the bundled example answers as option numbers:
    # untrue=4, unlikely=3, not_specified=5
    keys = "4 4 3 4 3 3 4 3 4 5 4 5 3".split()
    script = "\n".join(keys + ["y"]) + "\n"
    answers = wizard(input_stream=io.StringIO(script), output=io.StringIO())
    assert answers is not None
    assert answers.to_dict() == json.loads(example_answers_path.read_text())


def test_wizard_back_navigation_and_review():
    # answer q1, go back, change it, then everything else; at review go back
    # once more and change the last answer before submitting
    keys = ["1", "b", "4"] + ["4"] * 12 + ["b", "3", "y"]
    script = "\n".join(keys) + "\n"
    answers = wizard(input_stream=io.StringIO(script), output=io.StringIO())
    assert answers is not None
    assert answers.to_dict()["L1"] == "untrue"
    assert answers.to_dict()["L13"] == "unlikely"


def test_wizard_back_from_the_review_steps_back_one_screen():
    # from the review, 'b' goes to L13 and a second 'b' to L12; both are answered again
    keys = ["4"] * 13 + ["b", "b", "2", "1", "y"]
    answers = wizard(input_stream=io.StringIO("\n".join(keys) + "\n"), output=io.StringIO())
    assert answers is not None
    assert answers.to_dict()["L12"] == "likely"
    assert answers.to_dict()["L13"] == "true"


def test_wizard_stray_reply_at_the_review_shows_it_again():
    out = io.StringIO()
    answers = wizard(input_stream=io.StringIO("4\n" * 13 + "x\ny\n"), output=out)
    assert answers is not None
    assert out.getvalue().count("Your answers:") == 2
    assert "Please answer" not in out.getvalue()


def test_wizard_abort_returns_none():
    assert wizard(input_stream=io.StringIO("4\nq\n"), output=io.StringIO()) is None
    assert wizard(input_stream=io.StringIO(""), output=io.StringIO()) is None  # EOF


def test_wizard_rejects_garbage_then_accepts():
    keys = ["7", "zzz", "4"] + ["4"] * 12 + ["y"]
    script = "\n".join(keys) + "\n"
    answers = wizard(input_stream=io.StringIO(script), output=io.StringIO())
    assert answers is not None


def test_cli_wizard_mode_equals_file_mode(capsys, monkeypatch, example_answers_path):
    class FakeStdin(io.StringIO):
        def isatty(self):
            return True

    keys = "4 4 3 4 3 3 4 3 4 5 4 5 3".split()
    monkeypatch.setattr("sys.stdin", FakeStdin("\n".join(keys + ["y"]) + "\n"))
    assert main(["recommend"]) == 0
    wizard_doc = json.loads(capsys.readouterr().out)
    file_doc = run_json(capsys, ["recommend", "--answers", str(example_answers_path)])
    assert wizard_doc == file_doc


def test_cli_wizard_abort_exits_two(capsys, monkeypatch):
    class FakeStdin(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.setattr("sys.stdin", FakeStdin("q\n"))
    assert main(["recommend"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no document on stdout


def test_cli_wizard_ctrl_c_aborts_without_a_traceback(capsys, monkeypatch):
    class FakeStdin(io.StringIO):
        """A terminal whose user answers L1 and presses Ctrl-C at L2."""

        def isatty(self):
            return True

        def readline(self, *args):
            line = super().readline(*args)
            if not line:
                raise KeyboardInterrupt
            return line

    monkeypatch.setattr("sys.stdin", FakeStdin("4\n"))
    try:
        code = main(["recommend"])
    except KeyboardInterrupt:
        pytest.fail("Ctrl-C at a wizard prompt escaped main")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "[2/13]" in captured.err and captured.err.endswith("> \naborted\n")  # the prompt's line ends
    assert "Traceback" not in captured.err


def test_missing_file_is_domain_error(capsys):
    assert main(["profile", "/does/not/exist.jsonl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_label_map_flag(capsys, tmp_path):
    corpus = write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"text": "yay", "label": "Excited"},
            {"text": "ugh", "label": "Stress"},
            {"text": "hmm", "label": "Sarcasm"},
        ],
    )
    mapping = tmp_path / "map.json"
    mapping.write_text(
        json.dumps({"Excited": "positive", "Stress": "negative", "Sarcasm": "drop"})
    )
    doc = run_json(capsys, ["profile", str(corpus), "--label-map", str(mapping)])
    assert doc["documents"] == 2
    assert doc["class_distribution"]["positive"] == 1
    assert doc["class_distribution"]["negative"] == 1


def test_profile_csv_field_longer_than_csv_default_limit(capsys, tmp_path):
    text = "word " * 40_000  # 200,000 characters, above the csv module's 131,072
    corpus = write_csv(tmp_path / "log.csv", [["a", text]], header=["id", "text"])
    doc = run_json(capsys, ["profile", str(corpus)])
    assert doc["documents"] == 1
    assert doc["statistics"]["avg_chars_per_doc"] == 200_000
    assert doc["statistics"]["avg_words_per_doc"] == 40_000
    assert doc["statistics"]["avg_chars_per_word"] == 4


def test_malformed_csv_is_domain_error(capsys, tmp_path):
    """A csv.Error from either CSV reader is one error line naming the file."""
    import csv

    path = write_csv(tmp_path / "c.csv", [["a", "x" * 20, "positive"]], header=["id", "text", "label"])
    previous = csv.field_size_limit(10)  # any csv.Error from the reader will do
    try:
        for command in ("profile", "agreement"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err == f"error: {path}: field larger than field limit (10)\n"
    finally:
        csv.field_size_limit(previous)


def test_evaluate_non_object_jsonl_line_is_domain_error(capsys, tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", [{"id": "a", "text": "x", "label": "positive"}])
    pred = tmp_path / "pred.jsonl"
    pred.write_text("[1, 2]\n")
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert "expected a JSON object" in capsys.readouterr().err


def test_label_map_holding_a_list_is_domain_error(capsys, tmp_path, labeled_jsonl):
    mapping = tmp_path / "map.json"
    mapping.write_text('["positive", "negative"]')
    argv = ["sample", str(labeled_jsonl), "--n", "2", "--seed", "1", "--label-map", str(mapping)]
    assert main(argv) == 1
    assert "label map must be a JSON object" in capsys.readouterr().err


def test_profile_pools_files_of_mixed_format(capsys, tmp_path, labeled_jsonl):
    other = write_csv(tmp_path / "more.csv", [["z", "hello, world"]], header=["id", "text"])
    doc = run_json(capsys, ["profile", str(labeled_jsonl), str(other)])
    assert doc["documents"] == 7
    assert doc["class_distribution"]["unlabeled"] == 1


def test_sample_of_mixed_pool_writes_first_files_format(capsys, tmp_path, labeled_jsonl):
    other = write_csv(tmp_path / "more.csv", [["z", "hello", "neutral"]], header=["id", "text", "label"])
    assert main(["sample", str(other), str(labeled_jsonl), "--n", "7", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id,text,label"
    assert len(lines) == 8


def test_unknown_suffix_error_names_the_format_flag(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text('{"id": "a", "text": "x"}\n')
    assert main(["profile", str(path)]) == 1
    assert "--corpus-format" in capsys.readouterr().err
    assert main(["profile", str(path), "--corpus-format", "jsonl"]) == 0


@pytest.mark.parametrize(
    "stats, message",
    [
        ([1], "must be a JSON object"),
        ({"avg_emoticons": [1]}, "'avg_emoticons' must be a number, got [1]"),
        ({"avg_emoticons": True}, "'avg_emoticons' must be a number, got true"),
        ({"avg_emoticons": "0.5"}, "'avg_emoticons' must be a number, got \"0.5\""),
        ({"avg_emoticons": float("nan")}, "'avg_emoticons' must be a number, got NaN"),
        ({"avg_emoticons": float("inf")}, "'avg_emoticons' must be a number, got Infinity"),
        ({"avg_emoticons": 10**400}, "'avg_emoticons' must be a number, got 1000"),
    ],
)
def test_recommend_stats_file_must_hold_numbers(capsys, tmp_path, example_answers_path, stats, message):
    stats_path = tmp_path / "stats.json"
    stats_path.write_text(json.dumps(stats))
    argv = ["recommend", "--answers", str(example_answers_path), "--stats", str(stats_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stats_path}") and message in err
    assert "Traceback" not in err


def test_recommend_embedded_statistics_must_hold_numbers(capsys, tmp_path, example_answers_path):
    answers = json.loads(example_answers_path.read_text())
    answers["statistics"] = {"avg_emoticons": [1]}
    path = tmp_path / "answers.json"
    path.write_text(json.dumps(answers))
    assert main(["recommend", "--answers", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'statistics': 'avg_emoticons' must be a number" in err


@pytest.mark.parametrize("stats, shown", [(None, "null"), ([], "[]"), (5, "5")], ids=["null", "list", "number"])
def test_recommend_embedded_statistics_must_be_an_object(capsys, tmp_path, example_answers_path, stats, shown):
    answers = json.loads(example_answers_path.read_text())
    answers["statistics"] = stats
    path = tmp_path / "answers.json"
    path.write_text(json.dumps(answers))
    assert main(["recommend", "--answers", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: 'statistics' must be a JSON object, got {shown}\n"
    del answers["L13"]  # an answer error is reported first
    path.write_text(json.dumps(answers))
    assert main(["recommend", "--answers", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: answers missing features: ['L13']\n"


def test_recommend_statistic_too_large_for_a_float_is_domain_error(capsys, tmp_path, example_answers_path):
    stats_path = tmp_path / "stats.json"
    stats_path.write_text('{"avg_emoticons": 1' + "0" * 400 + "}")
    argv = ["recommend", "--answers", str(example_answers_path), "--stats", str(stats_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


_SAMPLE_RECORDS = [
    {"id": "a", "text": "old\rmac", "label": "positive"},
    {"id": "b", "text": 'a "quote", a comma\r\nand a second line', "label": "negative"},
    {"id": "c", "text": "plain", "label": "neutral"},
]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_sample_stdout_is_byte_identical_to_output_file(capsys, tmp_path, fmt):
    path = tmp_path / f"corpus.{fmt}"
    if fmt == "csv":
        rows = [[r["id"], r["text"], r["label"]] for r in _SAMPLE_RECORDS]
        write_csv(path, rows, header=["id", "text", "label"])
    else:
        write_jsonl(path, _SAMPLE_RECORDS)
    argv = ["sample", str(path), "--n", str(len(_SAMPLE_RECORDS)), "--seed", "1"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    out_path = tmp_path / f"sampled.{fmt}"
    assert main(argv + ["--output", str(out_path)]) == 0
    capsys.readouterr()
    assert stdout == out_path.read_bytes()
    # the stdout copy, lone \r included, reads back as the input records
    stdout_copy = tmp_path / f"stdout.{fmt}"
    stdout_copy.write_bytes(stdout)
    assert load_corpus(stdout_copy) == load_corpus(path)


def _top_level_number(raw: dict) -> object:
    return 5


def _feature_without_name(raw: dict) -> object:
    del raw["features"][0]["name"]
    return raw


def _null_micro_f1(raw: dict) -> object:
    raw["tool_performance"][0]["micro_f1"] = None
    return raw


def _statistic_profile_as_list(raw: dict) -> object:
    raw["statistic_profiles"]["GitHub"] = [1.0]
    return raw


def _unknown_platform(raw: dict) -> object:
    raw["tool_performance"][0]["platform"] = "Nope"
    return raw


def _linguistic_feature_missing(raw: dict) -> object:
    del raw["linguistic_profiles"]["GitHub"]["L5"]
    return raw


def _statistic_missing(raw: dict) -> object:
    del raw["statistic_profiles"]["Jira"]["avg_emoticons"]
    return raw


def _unknown_statistic(raw: dict) -> object:
    raw["statistic_profiles"]["Jira"]["avg_chars_per_dok"] = 1.0
    return raw


def _list_tool(raw: dict) -> object:
    raw["tool_performance"][0]["tool"] = ["ALBERT"]
    return raw


def _number_feature_name(raw: dict) -> object:
    raw["features"][0]["name"] = 7
    return raw


def _list_schema_version(raw: dict) -> object:
    raw["schema_version"] = [1]
    return raw


def _duplicate_cell(raw: dict) -> object:
    raw["tool_performance"].append(dict(raw["tool_performance"][0]))
    return raw


def _no_jira_records(raw: dict) -> object:
    jira = {(r["tool"], r["dataset"]) for r in raw["tool_performance"] if r["platform"] == "Jira"}
    raw["tool_performance"] = [r for r in raw["tool_performance"] if r["platform"] != "Jira"]
    raw["known_overall_anomalies"] = [
        a for a in raw["known_overall_anomalies"] if (a["tool"], a["dataset"]) not in jira
    ]
    return raw


@pytest.mark.parametrize(
    "breaks, message",
    [
        (_top_level_number, "knowledge base must be a JSON object"),
        (_feature_without_name, "missing key 'name'"),
        (_null_micro_f1, "malformed entry: ALBERT/App: micro_f1 must be a number, got null"),
        (_statistic_profile_as_list, "malformed entry: statistic_profiles.GitHub must be a JSON object, got [1.0]"),
        (
            _unknown_platform,
            "malformed entry: tool_performance[0].platform: 'Nope' is not one of AppReviews/CodeReviews/GitHub/Jira/StackOverflow",
        ),
        (_linguistic_feature_missing, "GitHub: linguistic profile missing features ['L5']"),
        (_statistic_missing, "Jira: statistic profile missing fields ['avg_emoticons']"),
        (_unknown_statistic, "Jira: statistic profile has unknown fields ['avg_chars_per_dok']"),
        (_no_jira_records, "no performance records for platform Jira"),
        (_list_tool, 'malformed entry: tool_performance[0].tool must be a string, got ["ALBERT"]'),
        (_number_feature_name, "malformed entry: features[0].name must be a string, got 7"),
        (_list_schema_version, "malformed entry: schema_version must be a string, got [1]"),
        (_duplicate_cell, "duplicate performance cell ('ALBERT', 'App')"),
    ],
    ids=[
        "top-level-number",
        "feature-without-name",
        "null-micro-f1",
        "statistic-profile-list",
        "unknown-platform",
        "linguistic-feature-missing",
        "statistic-missing",
        "unknown-statistic",
        "no-jira-records",
        "list-tool",
        "number-feature-name",
        "list-schema-version",
        "duplicate-cell",
    ],
)
def test_malformed_kb_is_domain_error(capsys, tmp_path, breaks, message):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(breaks(json.loads(bundled_kb_path().read_text(encoding="utf-8")))))
    assert main(["kb", "check", "--kb", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert err.count("\n") == 1  # one line, no traceback


# Each input file of the command line, as (argument list, name of the file
# that is not UTF-8, its text up to the offending byte). "{bad}" stands for
# that file, "{corpus}" for a valid corpus and "{answers}" for valid answers.
_NOT_UTF8_READERS = {
    "kb": (["kb", "check", "--kb", "{bad}"], "kb.json", '{"schema_version": "'),
    "answers": (["recommend", "--answers", "{bad}"], "answers.json", '{"L1": "'),
    "stats": (["recommend", "--answers", "{answers}", "--stats", "{bad}"], "stats.json", "{"),
    "label-map": (["profile", "{corpus}", "--label-map", "{bad}"], "map.json", '{"joy": "'),
    "ratings": (["agreement", "{bad}"], "ratings.csv", "id,r1,r2\r\n1,positive,"),
    "dictionary": (["profile", "{corpus}", "--dictionary", "{bad}"], "words.txt", "the\ncaf"),
    "emoticons": (["profile", "{corpus}", "--emoticons", "{bad}"], "emoticons.txt", ":)\n"),
    "corpus-csv": (["profile", "{bad}"], "corpus.csv", "id,text\r\na,fine\r\nb,"),
    "corpus-jsonl": (["sample", "{bad}", "--n", "1", "--seed", "1"], "corpus.jsonl", '{"text": "'),
    "labels": (["evaluate", "--gold", "{corpus}", "--pred", "{bad}"], "pred.csv", "id,label\r\n"),
}


@pytest.mark.parametrize("reader", sorted(_NOT_UTF8_READERS))
def test_input_that_is_not_utf8_is_named(capsys, tmp_path, example_answers_path, labeled_jsonl, reader):
    argv, name, prefix = _NOT_UTF8_READERS[reader]
    bad = tmp_path / name
    bad.write_bytes(prefix.encode("utf-8") + b"\xff")
    paths = {"bad": bad, "corpus": labeled_jsonl, "answers": example_answers_path}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    offset = len(prefix.encode("utf-8"))
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position {offset}: ")
    assert "Traceback" not in err


# The readers of _NOT_UTF8_READERS that decode a file chunk by chunk, as
# (header, one valid record).
_STREAMED_READERS = {
    "ratings": ("id,r1,r2\r\n", "1,positive,negative\r\n"),
    "corpus-csv": ("id,text\r\n", "a,fine\r\n"),
    "corpus-jsonl": ("", '{"text": "fine"}\n'),
    "labels": ("id,label\r\n", "a,positive\r\n"),
}


@pytest.mark.parametrize(
    "reader, bom",
    [(reader, bom) for reader in sorted(_STREAMED_READERS) for bom in (False, True)],
)
def test_decode_error_names_the_offset_in_the_file(
    capsys, tmp_path, example_answers_path, labeled_jsonl, reader, bom
):
    argv, name, _ = _NOT_UTF8_READERS[reader]
    header, record = _STREAMED_READERS[reader]
    good = (b"\xef\xbb\xbf" if bom else b"") + (header + record * 3000).encode("utf-8")
    bad = tmp_path / name
    bad.write_bytes(good + b"\xff")
    paths = {"bad": bad, "corpus": labeled_jsonl, "answers": example_answers_path}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position {len(good)}: ")


# A valid text for each file of _NOT_UTF8_READERS; None stands for the
# bundled knowledge base. The word lists' first entries match the corpus, so
# a BOM kept in one would change the statistics.
_VALID_INPUTS = {
    "kb": None,
    "answers": (Path(__file__).parent / "data" / "example_answers.json").read_text(encoding="utf-8"),
    "stats": '{"avg_emoticons": 0.5}',
    "label-map": '{"negative": "drop", "neutral": "neutral", "positive": "positive"}',
    "ratings": "id,r1,r2\r\n1,positive,negative\r\n2,neutral,neutral\r\n",
    "dictionary": "works\ngreat\nthanks\n",
    "emoticons": ":(\n:)\n",
    "corpus-csv": "id,text\r\na,fine\r\nb,Great work!\r\n",
    "corpus-jsonl": '{"text": "fine", "label": "neutral"}\n{"text": "Great!", "label": "positive"}\n',
    "labels": "id,label\r\na,positive\r\nb,negative\r\nc,neutral\r\n"
    "d,positive\r\ne,positive\r\nf,neutral\r\n",
}


@pytest.mark.parametrize("reader", sorted(_NOT_UTF8_READERS))
def test_a_leading_bom_changes_nothing(capsys, tmp_path, example_answers_path, labeled_jsonl, reader):
    argv, name, _ = _NOT_UTF8_READERS[reader]
    path = tmp_path / name
    paths = {"bad": path, "corpus": labeled_jsonl, "answers": example_answers_path}
    text = _VALID_INPUTS[reader] or bundled_kb_path().read_text(encoding="utf-8")
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + text.encode("utf-8"))
        code = main([arg.format(**paths) for arg in argv])
        results.append((code, capsys.readouterr().out))
    assert results[0][0] == 0
    assert results[1] == results[0]


# A JSON value nested too deep for the parser, and an integer too long to convert.
_DEEP = "[" * 200_000 + "]" * 200_000
_HUGE = "9" * 5000


@pytest.mark.parametrize(
    "reader, text, message",
    [
        ("answers", '{"L99": "true"}', "unknown feature id 'L99'"),
        ("answers", '{"L1": "maybe"}', "L1: 'maybe' is not one of"),
        ("answers", '{"L1": "true"}', "answers missing features"),
        ("stats", '{"avg_typos": 1}', "unknown statistics ['avg_typos']"),
        ("stats", '{"avg_emoticons": -1}', "statistics must be non-negative"),
        ("label-map", '{"positive": "good"}', "mapping target for 'positive'"),
        ("dictionary", " \n", "dictionary must contain at least one word"),
        ("emoticons", "\n \n", "emoticon lexicon must contain at least one entry"),
        *[
            pytest.param(reader, _DEEP, "maximum recursion depth exceeded", id=f"{reader}-deep-nesting")
            for reader in ("kb", "answers", "stats", "label-map")
        ],
        pytest.param(
            "corpus-jsonl", _DEEP, "line 1: maximum recursion depth exceeded", id="corpus-jsonl-deep-nesting"
        ),
        pytest.param(
            "stats", f'{{"avg_emoticons": {_HUGE}}}', "Exceeds the limit (4300 digits)", id="stats-huge-integer"
        ),
        pytest.param(
            "corpus-jsonl", f'{{"id": {_HUGE}, "text": "x"}}', "line 1: Exceeds the limit (4300 digits)",
            id="corpus-jsonl-huge-integer-id",
        ),
        ("corpus-jsonl", '{"text": "x"}\n{"text": "a\\ud800b"}', "line 2: 'text' holds a lone surrogate"),
        ("corpus-jsonl", '{"id": "\\udfff", "text": "x"}', "line 1: 'id' holds a lone surrogate"),
        ("corpus-csv", "id,label,text\na,positive\n", "row 2: missing 'text' field"),
    ],
)
def test_content_error_names_the_file(
    capsys, tmp_path, example_answers_path, labeled_jsonl, reader, text, message
):
    argv, name, _ = _NOT_UTF8_READERS[reader]
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    paths = {"bad": bad, "corpus": labeled_jsonl, "answers": example_answers_path}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert "Traceback" not in err


def test_lone_surrogate_leaves_the_output_file_alone(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"  # line 1 holds an escaped surrogate pair, which is one character
    corpus.write_text(
        '{"text": "ok \\ud83d\\ude00", "label": "neutral"}\n{"text": "\\ud800", "label": "neutral"}\n'
    )
    output = tmp_path / "out.jsonl"
    output.write_bytes(b'{"id": "kept"}\n')
    assert main(["sample", str(corpus), "--n", "1", "--seed", "1", "--output", str(output)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus}: line 2: 'text' holds a lone surrogate")
    assert output.read_bytes() == b'{"id": "kept"}\n'


def test_no_documents_error_names_the_files(capsys, tmp_path, example_answers_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    header_only = write_csv(tmp_path / "header.csv", [], header=["id", "text", "label"])
    dropped = write_jsonl(tmp_path / "dropped.jsonl", [{"text": "ok", "label": "meh"}])
    label_map = tmp_path / "map.json"
    label_map.write_text('{"meh": "drop"}')
    runs = [
        (["profile", str(empty)], f"{empty}"),
        (["profile", str(header_only), str(empty)], f"{header_only}, {empty}"),
        (["profile", str(dropped), "--label-map", str(label_map)], f"{dropped}"),
        (["recommend", "--answers", str(example_answers_path), "--corpus", str(header_only)], f"{header_only}"),
    ]
    for argv, named in runs:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {named}: cannot compute statistics of an empty corpus\n"


def test_recommend_corpus_with_an_empty_text_gives_profile_statistics(capsys, tmp_path, example_answers_path):
    corpus = write_jsonl(tmp_path / "c.jsonl", [{"text": "Works :)"}, {"text": ""}, {"text": "why?"}])
    profile = run_json(capsys, ["profile", str(corpus), "--allow-empty-text"])
    doc = run_json(capsys, ["recommend", "--answers", str(example_answers_path), "--corpus", str(corpus)])
    awards = doc["scoreboard"]["statistics"]
    assert {award["statistic"]: award["value"] for award in awards} == profile["statistics"]


def test_recommend_corpus_ignores_labels_a_label_map_would_need(capsys, tmp_path, example_answers_path):
    corpus = write_jsonl(
        tmp_path / "c.jsonl",
        [{"text": "Love it :)", "label": "Joy"}, {"text": "why?", "label": "Anger"}, {"text": "ok"}],
    )
    label_map = tmp_path / "map.json"
    label_map.write_text('{"Joy": "positive", "Anger": "negative"}')
    profile = run_json(capsys, ["profile", str(corpus), "--label-map", str(label_map)])
    doc = run_json(capsys, ["recommend", "--answers", str(example_answers_path), "--corpus", str(corpus)])
    awards = doc["scoreboard"]["statistics"]
    assert {award["statistic"]: award["value"] for award in awards} == profile["statistics"]


@pytest.mark.parametrize("label", [5, ["positive"]])
def test_recommend_corpus_takes_a_jsonl_label_of_any_type(capsys, tmp_path, example_answers_path, label):
    corpus = write_jsonl(tmp_path / "c.jsonl", [{"text": "Love it :)"}, {"text": "why?", "label": label}])
    plain = write_jsonl(tmp_path / "plain.jsonl", [{"text": "Love it :)"}, {"text": "why?"}])
    profile = run_json(capsys, ["profile", str(plain)])
    doc = run_json(capsys, ["recommend", "--answers", str(example_answers_path), "--corpus", str(corpus)])
    awards = doc["scoreboard"]["statistics"]
    assert {award["statistic"]: award["value"] for award in awards} == profile["statistics"]
    # profile and sample still reject it, at its line, before a later bad line
    with open(corpus, "a", encoding="utf-8") as handle:
        handle.write("not json\n")
    for argv in (["profile", str(corpus)], ["sample", str(corpus), "--n", "1", "--seed", "1"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {corpus}: line 2: 'label' must be a string or null\n"


def test_recommend_corpus_rejects_a_duplicate_id(capsys, tmp_path, example_answers_path):
    corpus = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}])
    assert main(["recommend", "--answers", str(example_answers_path), "--corpus", str(corpus)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus}: duplicate document id")


@pytest.mark.parametrize("output", ["small", "large"])
def test_closed_stdout_exits_1_without_a_message(tmp_path, output):
    """A small output first meets the closed pipe when stdout is flushed, a
    large one while it is written."""
    texts = ["fine"] if output == "small" else ["a line of text long enough to fill buffers"] * 2000
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [{"text": t, "label": "neutral"} for t in texts])
    argv = ["sample", str(corpus), "--n", str(len(texts)), "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(sentimatch.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "sentimatch.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the first write
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_stdout_that_cannot_encode_the_output_is_one_error_line(tmp_path):
    corpus = write_jsonl(tmp_path / "u.jsonl", [{"text": "café", "label": "positive"}])
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(sentimatch.__file__).resolve().parents[1]),
        "PYTHONIOENCODING": "ascii",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "sentimatch.cli", "sample", str(corpus), "--n", "1", "--seed", "1"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: 'ascii' codec can't encode character '\\xe9'")
    assert proc.stderr.count(b"\n") == 1


def test_a_library_bug_is_not_reported_as_bad_input(monkeypatch, tmp_path, labeled_jsonl):
    """Only domain errors and unreadable or unwritable files exit 1; any other
    exception, a ValueError included, propagates with its traceback."""

    def buggy(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr("sentimatch.cli.classification_report", buggy)
    with pytest.raises(ValueError, match="^bug$"):
        main(["evaluate", "--gold", str(labeled_jsonl), "--pred", str(labeled_jsonl)])
