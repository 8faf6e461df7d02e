from __future__ import annotations

import decimal
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimatch import (
    AnswerOption,
    Corpus,
    Document,
    EmptyCorpusError,
    Platform,
    QuestionnaireAnswers,
    ScoreBoard,
    UserStatistics,
    auto_answers_from_corpus,
    recommend,
    score_linguistic,
    score_statistics,
)
from sentimatch import recommender
from sentimatch.recommender import FeatureAward
from sentimatch.profiles import FEATURE_ORDER, PLATFORM_ORDER, LinguisticFeature, bundled_kb_path
from sentimatch.textstats import STAT_FIELDS
from _oracles import best_tools_oracle, recommend_oracle, recommendation_to_dict_oracle

APP = Platform.APP_REVIEWS
CODE = Platform.CODE_REVIEWS
GH = Platform.GITHUB
JIRA = Platform.JIRA
SO = Platform.STACK_OVERFLOW

ALL_OPTIONS = (
    AnswerOption.TRUE,
    AnswerOption.LIKELY,
    AnswerOption.UNLIKELY,
    AnswerOption.UNTRUE,
    AnswerOption.NOT_SPECIFIED,
)


def answers_of(**overrides) -> QuestionnaireAnswers:
    """All answers not_specified except the given overrides (by feature id)."""
    base = {f.value: "not_specified" for f in FEATURE_ORDER}
    base.update(overrides)
    return QuestionnaireAnswers.from_dict(base)


def points_by_name(board: ScoreBoard) -> dict[str, int]:
    return {p.value: board.points[p] for p in PLATFORM_ORDER}


@pytest.mark.parametrize("build", [QuestionnaireAnswers, QuestionnaireAnswers.from_dict], ids=["constructor", "from_dict"])
def test_questionnaire_answers_validation(build):
    untrue = {f.value: "untrue" for f in FEATURE_ORDER}
    with pytest.raises(ValueError, match="missing features"):
        build({"L1": "untrue"})
    with pytest.raises(ValueError, match="unknown feature"):
        build({**untrue, "L14": "untrue"})
    with pytest.raises(ValueError, match="not one of"):
        build({**untrue, "L1": "maybe"})
    with pytest.raises(ValueError, match="^L13: 'maybe' is not one of true/likely/unlikely/untrue/not_specified$"):
        build({**untrue, "L13": "maybe"})


def test_constructor_counts_not_specified_strings(kb):
    raw = {f.value: "not_specified" if i < 7 else "untrue" for i, f in enumerate(FEATURE_ORDER)}
    answers = QuestionnaireAnswers(answers=raw)
    assert answers.not_specified_count == 7
    assert answers.to_dict() == raw
    assert recommend(answers, kb).reason == "7 of 13 answers are not specified (threshold 6)"


# Keys and values that are not a feature id or an answer option: wrong case,
# out of range, None, numbers and containers.
_JUNK_KEYS = st.one_of(st.sampled_from(["l1", "L0", "L14", "L01", "", " L1"]), st.none(), st.integers(), st.tuples(st.text(max_size=2)))
_JUNK_VALUES = st.one_of(
    st.sampled_from(["True", "maybe", "NOT_SPECIFIED", "", "not specified"]),
    st.none(), st.integers(), st.floats(), st.lists(st.text(max_size=2), max_size=2),
)
_OPTIONS = st.sampled_from([*AnswerOption, *(option.value for option in AnswerOption)])


@st.composite
def raw_answers(draw) -> dict:
    """Thirteen answers keyed by member or id, then a few junk values, removed keys and junk keys."""
    raw = {draw(st.sampled_from([f, f.value])): draw(_OPTIONS) for f in FEATURE_ORDER}
    for key in draw(st.lists(st.sampled_from(list(raw)), max_size=2)):
        raw[key] = draw(_JUNK_VALUES)
    for key in draw(st.lists(st.sampled_from(list(raw)), max_size=2)):
        raw.pop(key, None)
    raw.update(draw(st.dictionaries(_JUNK_KEYS, st.one_of(_OPTIONS, _JUNK_VALUES), max_size=2)))
    return raw


@settings(max_examples=300)
@given(raw_answers())
def test_answers_constructor_and_from_dict_agree(raw):
    outcomes = []
    for build in (QuestionnaireAnswers, QuestionnaireAnswers.from_dict):
        try:
            answers = build(dict(raw))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        assert all(type(f) is LinguisticFeature and type(o) is AnswerOption for f, o in answers.answers.items())
        outcomes.append(answers)
    assert outcomes[0] == outcomes[1]


def test_example_answers_linguistic_scores(kb, example_answers):
    board = score_linguistic(example_answers, kb.mapping)
    assert points_by_name(board) == {
        "AppReviews": 1,
        "CodeReviews": 7,
        "GitHub": 9,
        "Jira": 6,
        "StackOverflow": 7,
    }
    assert board.ambiguous == 4


def test_example_answers_trace_accounts_for_every_feature(kb, example_answers):
    board = score_linguistic(example_answers, kb.mapping)
    assert len(board.feature_awards) == 13
    recomputed = {p: 0 for p in PLATFORM_ORDER}
    ambiguous = 0
    for award in board.feature_awards:
        if award.platforms:
            for platform in award.platforms:
                recomputed[platform] += 1
        else:
            ambiguous += 1
    assert recomputed == dict(board.points)
    assert ambiguous == board.ambiguous


def test_all_not_specified_scores_nothing(kb):
    board = score_linguistic(answers_of(), kb.mapping)
    assert board.ambiguous == 13
    assert set(board.points.values()) == {0}


def test_true_answers_always_ambiguous_with_bundled_data(kb):
    board = score_linguistic(
        QuestionnaireAnswers.from_dict({f.value: "true" for f in FEATURE_ORDER}), kb.mapping
    )
    assert board.ambiguous == 13
    assert set(board.points.values()) == {0}


def test_platform_self_answers_win(kb):
    for platform in PLATFORM_ORDER:
        answers = QuestionnaireAnswers(answers=kb.mapping.answers_for(platform))
        board = score_linguistic(answers, kb.mapping)
        own = board.points[platform]
        assert own == 13  # every feature matches its own interval
        assert all(own >= score for score in board.points.values())
        recommendation = recommend(answers, kb)
        assert platform in recommendation.platforms


def test_statistics_exact_platform_column_gets_all_eight(kb):
    for platform in PLATFORM_ORDER:
        stats = UserStatistics(values=dict(kb.statistics[platform].values))
        board = score_statistics(stats, kb.statistics)
        assert board.points[platform] == 8
        assert sum(board.points.values()) == 8


def test_single_statistic_closest_platform(kb):
    board = score_statistics(
        UserStatistics(values={"avg_chars_per_doc": 104.21}), kb.statistics
    )
    assert points_by_name(board) == {
        "AppReviews": 0,
        "CodeReviews": 0,
        "GitHub": 0,
        "Jira": 1,
        "StackOverflow": 0,
    }
    assert len(board.statistic_awards) == 1
    assert board.statistic_awards[0].platforms == (JIRA,)


def test_statistic_midpoint_ties_share_the_point(kb):
    # exactly between AppReviews (176.36) and CodeReviews (165.74)
    midpoint = 171.05
    board = score_statistics(
        UserStatistics(values={"avg_chars_per_doc": midpoint}), kb.statistics
    )
    assert board.points[APP] == 1
    assert board.points[CODE] == 1
    assert sum(board.points.values()) == 2


def test_statistics_validation():
    with pytest.raises(ValueError, match="non-negative"):
        UserStatistics(values={"avg_chars_per_doc": -1.0})
    with pytest.raises(ValueError, match="unknown statistics"):
        UserStatistics(values={"chars": 10.0})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
def test_statistics_must_be_finite(value):
    with pytest.raises(ValueError, match="^'avg_emoticons' must be a number, got "):
        UserStatistics(values={"avg_emoticons": value})


@pytest.mark.parametrize(
    "value, shown",
    [
        (True, "true"),
        ("1", '"1"'),
        (None, "null"),
        (Fraction(1, 2), '"Fraction(1, 2)"'),
        pytest.param(10**5000, "an integer of 16610 bits", id="too-long-to-print"),
    ],
)
def test_statistics_must_be_int_or_float(value, shown):
    """Only an int or float is a statistic; a bool or Fraction would fail later,
    in ``recommend``. The first value that is no number is named, before any
    unknown name, and an integer too long to print by its bit length."""
    with pytest.raises(ValueError) as info:
        UserStatistics(values={"avg_emoticons": 0.5, "avg_words_per_doc": value, "bogus": None})
    assert str(info.value) == f"'avg_words_per_doc' must be a number, got {shown}"


def test_statistics_are_stored_as_floats():
    stats = UserStatistics(values={"avg_emoticons": 1, "avg_words_per_doc": 2.5})
    assert [type(v) for v in stats.values.values()] == [float, float]


def test_a_context_too_narrow_for_a_distance_raises(kb, monkeypatch):
    narrow = recommender._EXACT.copy()
    narrow.prec = 5
    monkeypatch.setattr(recommender, "_EXACT", narrow)
    score_statistics(UserStatistics(values={"avg_emoticons": 0.5}), kb.statistics)
    with pytest.raises(decimal.Inexact):
        score_statistics(UserStatistics(values={"avg_emoticons": 0.123456}), kb.statistics)


def test_score_statistics_requires_a_value(kb):
    with pytest.raises(ValueError, match="no statistics"):
        score_statistics(UserStatistics(values={}), kb.statistics)


def test_recommend_example_answers_suggests_github(kb, example_answers):
    recommendation = recommend(example_answers, kb)
    assert not recommendation.ambiguous
    assert recommendation.platforms == (GH,)
    assert recommendation.tools[GH] == ("SetFit",)
    assert recommendation.recommended_tools() == ("SetFit",)


def test_recommend_all_not_specified_falls_back(kb):
    recommendation = recommend(answers_of(), kb)
    assert recommendation.ambiguous
    assert recommendation.platforms == ()
    assert recommendation.fallback_tools == ("SetFit", "SentiStrength-SE")
    assert recommendation.recommended_tools() == ("SetFit", "SentiStrength-SE")


def test_recommend_not_specified_threshold_boundary(kb):
    # 7 of 13 not specified trips the majority rule even though a platform scores
    seven_ns = answers_of(
        L1="untrue", L2="untrue", L3="untrue", L4="untrue", L5="untrue", L6="untrue"
    )
    assert seven_ns.not_specified_count == 7
    assert recommend(seven_ns, kb).ambiguous
    # 6 of 13 with informative answers does not
    six_ns = answers_of(
        L1="untrue", L2="untrue", L3="untrue", L4="untrue", L5="untrue", L6="untrue",
        L7="untrue",
    )
    assert six_ns.not_specified_count == 6
    assert not recommend(six_ns, kb).ambiguous


def test_recommend_tie_returns_all_platforms_and_tools(kb):
    all_untrue = QuestionnaireAnswers.from_dict({f.value: "untrue" for f in FEATURE_ORDER})
    board = score_linguistic(all_untrue, kb.mapping)
    assert points_by_name(board) == {
        "AppReviews": 8,
        "CodeReviews": 10,
        "GitHub": 10,
        "Jira": 11,
        "StackOverflow": 11,
    }
    recommendation = recommend(all_untrue, kb)
    assert recommendation.platforms == (JIRA, SO)
    assert recommendation.tools[JIRA] == ("ELECTRA", "RoBERTa")
    assert recommendation.tools[SO] == ("RoBERTa", "SetFit")
    assert recommendation.recommended_tools() == ("ELECTRA", "RoBERTa", "SetFit")
    assert "tie" in recommendation.reason


def test_recommend_ambiguous_when_bucket_beats_every_platform(kb):
    # 6 not-specified (below the count threshold) plus answers whose points
    # spread so the ambiguous bucket (6) strictly exceeds the best platform (5)
    answers = answers_of(
        L1="likely", L5="untrue", L6="likely", L7="untrue",
        L10="untrue", L11="unlikely", L12="untrue",
    )
    board = score_linguistic(answers, kb.mapping)
    assert board.ambiguous == 6
    assert board.max_score() == 5
    recommendation = recommend(answers, kb)
    assert recommendation.ambiguous
    assert "ambiguous points" in recommendation.reason
    assert recommendation.fallback_tools == ("SetFit", "SentiStrength-SE")


def test_statistics_can_rescue_an_ambiguous_linguistic_result(kb):
    answers = answers_of(
        L1="likely", L5="untrue", L6="likely", L7="untrue",
        L10="untrue", L11="unlikely", L12="untrue",
    )
    stats = UserStatistics(values=dict(kb.statistics[GH].values))
    recommendation = recommend(answers, kb, stats)
    assert not recommendation.ambiguous
    assert recommendation.platforms == (GH,)
    board = recommendation.scoreboard
    assert board.points[GH] == 4 + 8
    assert board.ambiguous == 6


def test_pooled_scoreboard_combines_both_traces(kb, example_answers):
    stats = UserStatistics(values={"avg_chars_per_doc": 104.21})
    recommendation = recommend(example_answers, kb, stats)
    board = recommendation.scoreboard
    assert len(board.feature_awards) == 13
    assert len(board.statistic_awards) == 1
    assert board.points[JIRA] == 6 + 1


def test_feature_accounting_invariant(kb):
    rng = random.Random(19)
    for _ in range(100):
        answers = QuestionnaireAnswers(
            answers={f: rng.choice(ALL_OPTIONS) for f in FEATURE_ORDER}
        )
        board = score_linguistic(answers, kb.mapping)
        assert len(board.feature_awards) == 13
        for award in board.feature_awards:
            if award.answer is AnswerOption.NOT_SPECIFIED:
                assert not award.platforms
        # every feature lands at least one point: on platforms, or exactly one
        # in the ambiguous bucket when no platform matched
        total_points = sum(board.points.values())
        assert total_points == sum(len(a.platforms) for a in board.feature_awards)
        assert board.ambiguous == sum(1 for a in board.feature_awards if not a.platforms)
        assert board.ambiguous + sum(1 for a in board.feature_awards if a.platforms) == 13


def test_monotonicity_not_specified_to_own_interval(kb):
    rng = random.Random(21)
    for _ in range(60):
        raw = {f: rng.choice(ALL_OPTIONS) for f in FEATURE_ORDER}
        feature = rng.choice(FEATURE_ORDER)
        raw[feature] = AnswerOption.NOT_SPECIFIED
        platform = rng.choice(PLATFORM_ORDER)
        before = score_linguistic(QuestionnaireAnswers(answers=raw), kb.mapping)
        raw_after = dict(raw)
        raw_after[feature] = kb.mapping.options[feature][platform]
        after = score_linguistic(QuestionnaireAnswers(answers=raw_after), kb.mapping)
        assert after.points[platform] >= before.points[platform]


def test_leaders_invariant_under_constant_shift(kb, example_answers):
    board = score_linguistic(example_answers, kb.mapping)
    shifted = ScoreBoard(
        points={p: board.points[p] + 5 for p in PLATFORM_ORDER},
        ambiguous=board.ambiguous,
    )
    assert shifted.leaders() == board.leaders()


def test_trace_is_sufficient_to_recompute_the_scoreboard(kb, example_answers):
    stats = UserStatistics(
        values={"avg_chars_per_doc": 104.21, "avg_question_marks": 0.29}
    )
    board = recommend(example_answers, kb, stats).scoreboard
    recomputed = {p: 0 for p in PLATFORM_ORDER}
    ambiguous = 0
    for award in board.feature_awards:
        if award.platforms:
            for platform in award.platforms:
                recomputed[platform] += 1
        else:
            ambiguous += 1
    for award in board.statistic_awards:
        # the winners are exactly the argmin of the recorded distances
        closest = min(award.distances.values())
        assert set(award.platforms) == {
            p for p in PLATFORM_ORDER if award.distances[p] == closest
        }
        for platform in award.platforms:
            recomputed[platform] += 1
    assert recomputed == dict(board.points)
    assert ambiguous == board.ambiguous


def test_auto_answers_from_corpus_roundtrip(kb):
    corpus = Corpus(
        documents=(
            Document(id="a", text="this build fails :("),
            Document(id="b", text="thanks, works now!"),
        )
    )
    stats = auto_answers_from_corpus(corpus)
    assert set(stats.values) == set(STAT_FIELDS)
    again = auto_answers_from_corpus(corpus)
    assert stats == again
    board = score_statistics(stats, kb.statistics)
    assert sum(board.points.values()) >= 8  # every statistic finds a closest platform


def test_auto_answers_single_document():
    corpus = Corpus(documents=(Document(id="a", text="Hi!"),))
    stats = auto_answers_from_corpus(corpus)
    assert stats.values["avg_exclamation_marks"] == 1.0
    assert stats.values["avg_chars_per_doc"] == 3.0


def test_auto_answers_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        auto_answers_from_corpus(Corpus(documents=()))


def test_recommendation_to_dict_shape(kb, example_answers):
    doc = recommend(example_answers, kb).to_dict()
    assert doc["ambiguous"] is False
    assert doc["platforms"] == ["GitHub"]
    assert doc["tools"] == {"GitHub": ["SetFit"]}
    assert doc["recommended_tools"] == ["SetFit"]
    assert doc["scoreboard"]["points"] == {
        "AppReviews": 1,
        "CodeReviews": 7,
        "GitHub": 9,
        "Jira": 6,
        "StackOverflow": 7,
    }
    assert doc["scoreboard"]["ambiguous_points"] == 4
    assert len(doc["scoreboard"]["linguistic"]) == 13


def _statistic_values() -> st.SearchStrategy[float]:
    """Three-decimal values, plus every platform value and every midpoint
    between two platforms, so that exact ties come up."""
    profiles = json.loads(bundled_kb_path().read_text(encoding="utf-8"))["statistic_profiles"]
    columns = [[row[name] for row in profiles.values()] for name in STAT_FIELDS]
    exact = sorted({float((a + b) / 2) for column in columns for a in column for b in column})
    return st.one_of(st.integers(0, 300_000).map(lambda i: i / 1000), st.sampled_from(exact))


@given(
    st.lists(st.sampled_from(ALL_OPTIONS), min_size=13, max_size=13),
    st.permutations(FEATURE_ORDER),
    st.lists(st.tuples(st.sampled_from(STAT_FIELDS), _statistic_values()), unique_by=lambda kv: kv[0]),
)
def test_recommend_ignores_input_order_and_repeats(kb, options, feature_order, stats):
    answers = {f.value: option.value for f, option in zip(FEATURE_ORDER, options)}

    def run(answer_order, stat_items) -> str:
        recommendation = recommend(
            QuestionnaireAnswers.from_dict({f.value: answers[f.value] for f in answer_order}),
            kb,
            UserStatistics(values=dict(stat_items)),
        )
        text = json.dumps(recommendation.to_dict())
        assert text == json.dumps(recommendation_to_dict_oracle(recommendation))
        return text

    canonical = run(FEATURE_ORDER, sorted(stats, key=lambda kv: STAT_FIELDS.index(kv[0])))
    assert run(feature_order, stats) == canonical
    assert run(feature_order, stats) == canonical


def _oracle_statistic_values() -> st.SearchStrategy[float]:
    """Platform values, exact and float midpoints of two of them, the float
    neighbours of both, integers, zero, the extreme floats and any finite
    non-negative float."""
    profiles = json.loads(bundled_kb_path().read_text(encoding="utf-8"))["statistic_profiles"]
    columns = [[row[name] for row in profiles.values()] for name in STAT_FIELDS]
    anchors = {value for column in columns for value in column}
    for column in columns:
        for a in column:
            for b in column:
                anchors.add((a + b) / 2)
                anchors.add(float((Fraction(str(a)) + Fraction(str(b))) / 2))
    neighbours = {math.nextafter(x, direction) for x in anchors for direction in (0.0, math.inf)}
    return st.one_of(
        st.sampled_from(sorted(anchors | neighbours)),
        st.integers(0, 10**6).map(float),
        st.sampled_from([0.0, 5e-324, 1.7976931348623157e308]),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )


@pytest.fixture(scope="module")
def oracle_best_tools(kb) -> dict[str, list[str]]:
    """The oracle's best tools, built once from the knowledge base's records."""
    return best_tools_oracle({"tool_performance": [vars(record) for record in kb.performance]})


# Where the answers start, as (platform, answers changed, answers unspecified):
# a platform's own answers with a few changed and a few unspecified, so that
# most such draws recommend a platform and its tools (Jira's and
# StackOverflow's best tools tie); or random answers (platform None).
_STARTS = st.one_of(
    st.tuples(st.sampled_from(PLATFORM_ORDER), st.integers(0, 4), st.integers(0, 3)),
    st.tuples(st.none(), st.just(0), st.integers(0, 13)),
)


@settings(max_examples=300)
@given(
    _STARTS,
    st.lists(st.sampled_from(ALL_OPTIONS), min_size=13, max_size=13),
    st.permutations(FEATURE_ORDER),
    st.dictionaries(st.sampled_from(STAT_FIELDS), _oracle_statistic_values()),
    st.integers(0, 13),
)
def test_recommend_equals_oracle(kb, oracle_best_tools, start, options, order, stats, max_not_specified):
    own, changed, unspecified = start
    drawn = dict(zip(FEATURE_ORDER, options))
    answers = drawn if own is None else kb.mapping.answers_for(own)
    for feature in order[len(order) - changed:]:
        answers[feature] = drawn[feature]
    for feature in order[:unspecified]:
        answers[feature] = AnswerOption.NOT_SPECIFIED
    questionnaire = QuestionnaireAnswers.from_dict({f.value: o.value for f, o in answers.items()})
    user = UserStatistics(values=stats)
    got = recommend(questionnaire, kb, user, max_not_specified)
    want = recommend_oracle(questionnaire, kb, oracle_best_tools, user, max_not_specified)
    text = json.dumps(got.to_dict())
    assert text == json.dumps(want.to_dict())
    assert text == json.dumps(recommendation_to_dict_oracle(got))
    assert text == json.dumps(recommendation_to_dict_oracle(want))


def _containers(node) -> list:
    """Every dict and list of a JSON document, ``node`` included."""
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    found = [node] if isinstance(node, (dict, list)) else []
    for child in children:
        found += _containers(child)
    return found


def test_no_output_is_shared_between_calls(kb):
    """Changing every dict and list of one ``to_dict`` result changes neither
    the next ``to_dict`` of the same recommendation nor a fresh one."""
    answers = QuestionnaireAnswers.from_dict({f.value: "untrue" for f in FEATURE_ORDER})
    stats = UserStatistics(values={"avg_chars_per_doc": 171.05})  # AppReviews/CodeReviews midpoint
    recommendation = recommend(answers, kb, stats)
    want = json.dumps(recommendation.to_dict())
    document = recommendation.to_dict()
    board = document["scoreboard"]
    assert document["tools"] == {
        "CodeReviews": ["SetFit"], "Jira": ["ELECTRA", "RoBERTa"], "StackOverflow": ["RoBERTa", "SetFit"]
    }
    assert board["statistics"][0]["platforms"] == ["AppReviews", "CodeReviews"]
    containers = _containers(document)
    for named in (document["platforms"], document["tools"], board["points"], board["linguistic"][0]["platforms"],
                  board["statistics"][0]["distances"], board["statistics"][0]["platforms"]):
        assert any(named is c for c in containers)
    for container in containers:
        if isinstance(container, dict):
            container["changed"] = True
        else:
            container.append("changed")
            container.reverse()
    assert json.dumps(recommendation.to_dict()) == want
    assert json.dumps(recommend(answers, kb, stats).to_dict()) == want


def test_shared_feature_awards_compare_and_hash_by_their_fields(kb, example_answers):
    first = score_linguistic(example_answers, kb.mapping).feature_awards
    again = score_linguistic(example_answers, kb.mapping).feature_awards
    fresh = tuple(FeatureAward(feature=a.feature, answer=a.answer, platforms=a.platforms) for a in first)
    assert all(a is b for a, b in zip(first, again))
    assert first == fresh and hash(first) == hash(fresh)
    for award in first:
        assert hash(award) == hash((award.feature, award.answer, award.platforms))
        other = FeatureAward(feature=award.feature, answer=award.answer, platforms=award.platforms + (GH,))
        assert award != other
