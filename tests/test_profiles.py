from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimatch import (
    AnswerOption,
    IntegrityError,
    KnowledgeBaseError,
    LinguisticFeature,
    Platform,
    PlatformLinguisticProfile,
    ToolPerformanceRecord,
    best_tool,
    derive_mapping,
    interval_of,
    load_knowledge_base,
    recommend,
)
from sentimatch.profiles import FEATURE_ORDER, PLATFORM_ORDER, SUBSTANTIVE_OPTIONS, bundled_kb_path
from _oracles import best_tools_oracle

APP = Platform.APP_REVIEWS
CODE = Platform.CODE_REVIEWS
GH = Platform.GITHUB
JIRA = Platform.JIRA
SO = Platform.STACK_OVERFLOW


@pytest.fixture()
def kb_raw() -> dict:
    return json.loads(bundled_kb_path().read_text(encoding="utf-8"))


def write_kb(tmp_path, raw: dict):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "frequency,option",
    [
        (60.6, AnswerOption.LIKELY),
        (49.4, AnswerOption.UNLIKELY),
        (0.0, AnswerOption.UNTRUE),
        (24.999, AnswerOption.UNTRUE),
        (25.0, AnswerOption.UNLIKELY),
        (50.0, AnswerOption.LIKELY),
        (75.0, AnswerOption.TRUE),
        (100.0, AnswerOption.TRUE),
    ],
)
def test_interval_of(frequency, option):
    assert interval_of(frequency) is option


def test_interval_of_rejects_out_of_range():
    with pytest.raises(ValueError):
        interval_of(-0.1)
    with pytest.raises(ValueError):
        interval_of(100.1)


def test_interval_of_is_monotone():
    rng = random.Random(2)
    rank = {option: i for i, option in enumerate(reversed(SUBSTANTIVE_OPTIONS))}
    values = sorted(rng.uniform(0, 100) for _ in range(500))
    ranks = [rank[interval_of(v)] for v in values]
    assert ranks == sorted(ranks)


def test_derived_mapping_selected_rows(kb):
    mapping = kb.mapping
    assert mapping.platforms_for(LinguisticFeature.L6, AnswerOption.LIKELY) == (JIRA,)
    assert mapping.platforms_for(LinguisticFeature.L6, AnswerOption.UNLIKELY) == (GH,)
    assert mapping.platforms_for(LinguisticFeature.L6, AnswerOption.UNTRUE) == (APP, CODE, SO)
    assert mapping.platforms_for(LinguisticFeature.L5, AnswerOption.UNTRUE) == PLATFORM_ORDER
    assert mapping.platforms_for(LinguisticFeature.L3, AnswerOption.LIKELY) == (JIRA, SO)
    assert mapping.platforms_for(LinguisticFeature.L3, AnswerOption.UNLIKELY) == (CODE, GH)
    assert mapping.platforms_for(LinguisticFeature.L3, AnswerOption.UNTRUE) == (APP,)


def test_true_interval_is_always_empty_with_bundled_data(kb):
    for feature in FEATURE_ORDER:
        assert kb.mapping.platforms_for(feature, AnswerOption.TRUE) == ()


def test_derive_mapping_equals_embedded_expected_table(kb, kb_raw):
    derived = derive_mapping(kb.linguistic)
    assert derived == kb.mapping
    expected = kb_raw["expected_interval_mapping"]
    assert derived.to_dict() == expected
    # 65 individual cells
    cells = sum(len(platforms) for row in expected.values() for platforms in row.values())
    assert cells == 65


def test_derive_mapping_requires_all_platforms(kb):
    partial = {p: profile for p, profile in kb.linguistic.items() if p is not JIRA}
    with pytest.raises(KnowledgeBaseError, match="Jira"):
        derive_mapping(partial)


def test_linguistic_profile_requires_all_features():
    with pytest.raises(KnowledgeBaseError, match="missing features"):
        PlatformLinguisticProfile(platform=APP, frequencies={LinguisticFeature.L1: 10.0})


def test_best_tool_per_platform(kb):
    assert best_tool(APP, kb.performance) == ("SetFit",)
    assert best_tool(CODE, kb.performance) == ("SetFit",)
    assert best_tool(GH, kb.performance) == ("SetFit",)
    # exact two-way ties at full precision
    assert best_tool(JIRA, kb.performance) == ("ELECTRA", "RoBERTa")
    assert best_tool(SO, kb.performance) == ("RoBERTa", "SetFit")


def test_best_tool_matches_exhaustive_oracle(kb, kb_raw):
    oracle = best_tools_oracle(kb_raw)
    for platform in PLATFORM_ORDER:
        assert list(best_tool(platform, kb.performance)) == oracle[platform.value]


def test_best_tools_are_remembered_per_knowledge_base(tmp_path, kb_raw):
    bundled = load_knowledge_base()
    raised = json.loads(json.dumps(kb_raw))
    record = next(
        r for r in raised["tool_performance"] if r["tool"] == "BERT" and r["dataset"] == "Jira 2"
    )
    record.update(micro_f1=0.99, macro_f1=0.99, overall=0.99)
    edited = load_knowledge_base(write_kb(tmp_path, raised))
    assert bundled.best_tools[JIRA] == ("ELECTRA", "RoBERTa")
    assert edited.best_tools["Jira"] == ("BERT",)  # a Platform value string indexes it too
    for kb, raw in ((bundled, kb_raw), (edited, raised)):
        assert {p.value: list(t) for p, t in kb.best_tools.items()} == best_tools_oracle(raw)


def test_best_tool_invariant_under_record_order(kb):
    rng = random.Random(13)
    records = list(kb.performance)
    for _ in range(5):
        rng.shuffle(records)
        assert best_tool(JIRA, records) == ("ELECTRA", "RoBERTa")


def test_best_tool_invariant_under_uniform_rescaling(kb):
    scaled = [
        ToolPerformanceRecord(
            tool=r.tool,
            dataset=r.dataset,
            platform=r.platform,
            micro_f1=r.micro_f1 / 2,
            macro_f1=r.macro_f1 / 2,
            overall=r.overall / 2,
        )
        for r in kb.performance
    ]
    for platform in PLATFORM_ORDER:
        assert best_tool(platform, scaled) == best_tool(platform, kb.performance)


def test_best_tool_requires_records(kb):
    app_only = [r for r in kb.performance if r.platform is APP]
    with pytest.raises(KnowledgeBaseError, match="Jira"):
        best_tool(JIRA, app_only)


def test_overall_exact_is_authoritative(kb):
    record = next(
        r for r in kb.performance if r.tool == "SentiSW" and r.dataset == "SO 2"
    )
    assert record.overall == 0.68  # printed column kept verbatim
    assert record.overall_exact == Fraction(157, 200)  # (0.79 + 0.78) / 2
    assert not record.overall_consistent()


def test_load_bundled_kb_flags_exactly_the_documented_anomalies(kb):
    assert set(kb.integrity.flagged) == kb.known_anomalies
    assert ("SentiSW", "SO 2") in kb.integrity.flagged
    assert set(kb.integrity.flagged) == {
        ("SentiSW", "SO 2"),
        ("SentiStrength-SE", "GH 2"),
        ("SEnti-Analyzer", "SO 3"),
    }


def test_boundary_cell_at_exactly_one_hundredth_is_not_flagged(kb):
    # printed 0.62 vs recomputed (0.80 + 0.46)/2 = 0.63: the difference is
    # exactly the tolerance and must pass
    record = next(
        r for r in kb.performance if r.tool == "SEnti-Analyzer" and r.dataset == "SO 1"
    )
    assert abs(Fraction(str(record.overall)) - record.overall_exact) == Fraction(1, 100)
    assert record.overall_consistent()
    assert ("SEnti-Analyzer", "SO 1") not in kb.integrity.flagged


def test_setfit_app_record_overall_arithmetic(kb):
    record = next(r for r in kb.performance if r.tool == "SetFit" and r.dataset == "App")
    assert (record.micro_f1, record.macro_f1, record.overall) == (0.94, 0.64, 0.79)
    assert record.overall_exact == Fraction(79, 100)
    assert record.overall_consistent()


def test_kb_values_match_source_profiles(kb):
    assert kb.statistics[JIRA].values["avg_chars_per_doc"] == 104.21
    assert kb.linguistic[APP].frequencies[LinguisticFeature.L1] == 60.6
    assert kb.fallback_tools == ("SetFit", "SentiStrength-SE")
    assert len(kb.performance) == 130
    assert kb.features[LinguisticFeature.L6].name == "Gratitude"


def test_tampered_percentage_rejected(tmp_path, kb_raw):
    kb_raw["linguistic_profiles"]["GitHub"]["L4"] = 120.0
    with pytest.raises(IntegrityError, match="outside \\[0, 100\\]"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


def test_tampered_overall_becomes_unexpected_flag(tmp_path, kb_raw):
    for record in kb_raw["tool_performance"]:
        if record["tool"] == "ALBERT" and record["dataset"] == "App":
            record["overall"] = 0.90  # recomputed is 0.76
    with pytest.raises(IntegrityError, match="outside the documented anomaly list"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


def test_tampered_frequency_breaks_mapping_rederivation(tmp_path, kb_raw):
    # moving App L1 from "likely" to "untrue" must trip the re-derivation check
    kb_raw["linguistic_profiles"]["AppReviews"]["L1"] = 10.0
    with pytest.raises(IntegrityError, match="disagrees with the embedded expected table"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


def test_stale_anomaly_entry_rejected(tmp_path, kb_raw):
    kb_raw["known_overall_anomalies"].append({"tool": "ALBERT", "dataset": "App"})
    with pytest.raises(IntegrityError, match="not actually inconsistent"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


def test_missing_anomaly_documentation_rejected(tmp_path, kb_raw):
    kb_raw["known_overall_anomalies"] = [
        a for a in kb_raw["known_overall_anomalies"] if a["tool"] != "SentiSW"
    ]
    with pytest.raises(IntegrityError, match="SentiSW"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


def test_negative_statistic_rejected(tmp_path, kb_raw):
    kb_raw["statistic_profiles"]["Jira"]["avg_emoticons"] = -0.1
    with pytest.raises(IntegrityError, match="negative statistic"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_statistic_rejected(tmp_path, kb_raw, value):
    kb_raw["statistic_profiles"]["Jira"]["avg_emoticons"] = value
    with pytest.raises(IntegrityError, match="Jira/avg_emoticons: statistic .* is not finite"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


def test_score_out_of_range_rejected(tmp_path, kb_raw):
    for score in (1.2, float("inf"), float("nan")):
        kb_raw["tool_performance"][0]["micro_f1"] = score
        with pytest.raises(IntegrityError, match="outside \\[0, 1\\]"):
            load_knowledge_base(write_kb(tmp_path, kb_raw))


@pytest.mark.parametrize("name", ["micro_f1", "macro_f1", "overall"])
def test_score_range_is_closed(name):
    scores = {"micro_f1": 0.5, "macro_f1": 0.5, "overall": 0.5}
    for score in (0.0, 1.0):
        record = ToolPerformanceRecord(tool="T", dataset="D", platform=JIRA, **{**scores, name: score})
        assert getattr(record, name) == score
    with pytest.raises(IntegrityError, match=rf"^T/D: {name}=-0.01 outside \[0, 1\]$"):
        ToolPerformanceRecord(tool="T", dataset="D", platform=JIRA, **{**scores, name: -0.01})


def test_missing_key_rejected(tmp_path, kb_raw):
    del kb_raw["fallback_tools"]
    with pytest.raises(KnowledgeBaseError, match="fallback_tools"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


def test_unparseable_file_rejected(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text("{not json")
    with pytest.raises(KnowledgeBaseError, match="invalid JSON"):
        load_knowledge_base(path)
    with pytest.raises(KnowledgeBaseError, match="cannot read"):
        load_knowledge_base(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "tools, message",
    [
        ({"SetFit": 1, "SentiStrength-SE": 2}, 'fallback_tools must be a JSON list, got {"SetFit": 1, "SentiStrength-SE": 2}'),
        ("SetFit", 'fallback_tools must be a JSON list, got "SetFit"'),
        (["SetFit", 1], "fallback_tools[1] must be a string, got 1"),
    ],
    ids=["tools0", "SetFit", "tools2"],
)
def test_fallback_tools_must_be_a_list_of_names(tmp_path, kb_raw, tools, message):
    kb_raw["fallback_tools"] = tools
    path = write_kb(tmp_path, kb_raw)
    with pytest.raises(KnowledgeBaseError) as excinfo:
        load_knowledge_base(path)
    assert str(excinfo.value) == f"{path}: malformed entry: {message}"


def test_unknown_fallback_tool_rejected(tmp_path, kb_raw):
    kb_raw["fallback_tools"] = ["SetFit", "NoSuchTool"]
    with pytest.raises(IntegrityError, match="NoSuchTool"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


def test_mapping_answers_for_platform_roundtrip(kb):
    for platform in PLATFORM_ORDER:
        answers = kb.mapping.answers_for(platform)
        for feature, option in answers.items():
            assert platform in kb.mapping.platforms_for(feature, option)


def _unknown_platform(raw: dict) -> None:
    raw["tool_performance"][0]["platform"] = "Nope"


def _unknown_feature(raw: dict) -> None:
    raw["linguistic_profiles"]["GitHub"]["L99"] = 10.0


def _set(*location, value):
    def breaks(raw: dict) -> None:
        parent = raw
        for key in location[:-1]:
            parent = parent[key]
        parent[location[-1]] = value

    return breaks


def _without(*location):
    def breaks(raw: dict) -> None:
        parent = raw
        for key in location[:-1]:
            parent = parent[key]
        del parent[location[-1]]

    return breaks


@pytest.mark.parametrize(
    "breaks, message",
    [
        (_unknown_platform, "tool_performance[0].platform: 'Nope' is not one of AppReviews/CodeReviews/GitHub/Jira/StackOverflow"),
        (_unknown_feature, "linguistic_profiles.GitHub: 'L99' is not one of L1/L2/L3/L4/L5/L6/L7/L8/L9/L10/L11/L12/L13"),
        (
            _set("tool_performance", 0, "micro_f1", value="abc"),
            'ALBERT/App: micro_f1 must be a number, got "abc"',
        ),
        (
            _set("tool_performance", 0, "macro_f1", value="0.5"),
            'ALBERT/App: macro_f1 must be a number, got "0.5"',
        ),
        (
            _set("linguistic_profiles", "GitHub", "L1", value=True),
            "GitHub/L1: frequency must be a number, got true",
        ),
        (
            _set("tool_performance", 0, "overall", value=10**400),
            f"ALBERT/App: overall must be a number, got {10**400}",
        ),
        (
            _set("statistic_profiles", "Jira", "avg_emoticons", value=-(10**400)),
            f"Jira/avg_emoticons: statistic must be a number, got {-(10**400)}",
        ),
        (
            _set("tool_performance", 0, "tool", value=["ALBERT"]),
            'tool_performance[0].tool must be a string, got ["ALBERT"]',
        ),
        (
            _set("tool_performance", 3, "dataset", value=None),
            "tool_performance[3].dataset must be a string, got null",
        ),
        (
            _set("known_overall_anomalies", 1, "tool", value=5),
            "known_overall_anomalies[1].tool must be a string, got 5",
        ),
        (_set("features", 0, "name", value=7), "features[0].name must be a string, got 7"),
        (
            _set("features", 12, "description", value={"a": 1}),
            'features[12].description must be a string, got {"a": 1}',
        ),
        (_set("schema_version", value=[1]), "schema_version must be a string, got [1]"),
        (_set("features", value={"a": 1}), 'features must be a JSON list, got {"a": 1}'),
        (_set("tool_performance", value=5), "tool_performance must be a JSON list, got 5"),
        (
            _set("known_overall_anomalies", value=[["a", "b"]]),
            'known_overall_anomalies[0] must be a JSON object, got ["a", "b"]',
        ),
        (_set("linguistic_profiles", "GitHub", value=[1]), "linguistic_profiles.GitHub must be a JSON object, got [1]"),
        (_set("features", 0, "id", value=["L1"]), "features[0].id: ['L1'] is not one of L1/L2/L3/L4/L5/L6/L7/L8/L9/L10/L11/L12/L13"),
        (_without("tool_performance", 0, "micro_f1"), "missing key 'micro_f1' in tool_performance[0]"),
    ],
    ids=[
        "unknown-platform",
        "unknown-feature",
        "non-numeric-score",
        "string-score",
        "bool-frequency",
        "huge-score",
        "huge-statistic",
        "list-tool",
        "null-dataset",
        "number-anomaly-tool",
        "number-feature-name",
        "object-feature-description",
        "list-schema-version",
        "object-features",
        "number-tool-performance",
        "list-anomaly",
        "list-linguistic-profile",
        "list-feature-id",
        "record-without-micro-f1",
    ],
)
def test_unknown_name_or_value_names_the_file(tmp_path, kb_raw, breaks, message):
    """A bool, a numeric string or an integer beyond float range is no number,
    and a name, a version or a description must be a JSON string. A value of
    the wrong JSON type, an unknown name or a missing key names its entry."""
    breaks(kb_raw)
    path = write_kb(tmp_path, kb_raw)
    with pytest.raises(KnowledgeBaseError) as excinfo:
        load_knowledge_base(path)
    assert str(excinfo.value) == f"{path}: malformed entry: {message}"


def _permuted_platforms(table: dict) -> None:
    for row in table.values():
        for platforms in row.values():
            platforms.reverse()


def _empty_true_option(table: dict) -> None:
    for row in table.values():
        row["true"] = []


def _unknown_option_without_platforms(table: dict) -> None:
    table["L1"]["bogus"] = []


@pytest.mark.parametrize(
    "edit",
    [_permuted_platforms, _empty_true_option, _unknown_option_without_platforms],
    ids=["permuted-platforms", "empty-true-option", "unknown-option-without-platforms"],
)
def test_expected_table_equal_up_to_order_and_empty_options_loads(tmp_path, kb_raw, kb, edit):
    edit(kb_raw["expected_interval_mapping"])
    assert load_knowledge_base(write_kb(tmp_path, kb_raw)).mapping == kb.mapping


def _unknown_option(table: dict) -> None:
    table["L1"]["bogus"] = table["L1"].pop("likely")


def _unknown_table_platform(table: dict) -> None:
    table["L1"]["likely"] = ["Nope"]


def _platform_twice(table: dict) -> None:
    table["L1"]["untrue"].append("AppReviews")


def _missing_row(table: dict) -> None:
    del table["L1"]


def _extra_row(table: dict) -> None:
    table["L14"] = dict(table["L13"])


def _row_as_list(table: dict) -> None:
    table["L1"] = [table["L1"]]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_unknown_option, "derived interval mapping disagrees with the embedded expected table: ['L1']"),
        (_unknown_table_platform, "derived interval mapping disagrees with the embedded expected table: ['L1']"),
        (_platform_twice, "derived interval mapping disagrees with the embedded expected table: ['L1']"),
        (_missing_row, "derived interval mapping disagrees with the embedded expected table: ['L1']"),
        (_extra_row, "derived interval mapping disagrees with the embedded expected table: ['L14']"),
        (
            _row_as_list,
            "malformed entry: expected_interval_mapping.L1 must be a JSON object, got "
            '[{"likely": ["AppReviews"], "untrue": ["CodeReviews", "GitHub", "Jira", "StackOverflow"]}]',
        ),
    ],
    ids=[
        "unknown-option",
        "unknown-platform",
        "platform-twice",
        "missing-row",
        "extra-row",
        "row-as-list",
    ],
)
def test_bad_expected_table_names_the_file(tmp_path, kb_raw, edit, message):
    edit(kb_raw["expected_interval_mapping"])
    path = write_kb(tmp_path, kb_raw)
    with pytest.raises(KnowledgeBaseError) as excinfo:
        load_knowledge_base(path)
    assert str(excinfo.value) == f"{path}: {message}"


def test_mapping_disagreement_names_every_differing_feature(tmp_path, kb_raw):
    kb_raw["linguistic_profiles"]["AppReviews"]["L1"] = 10.0
    kb_raw["linguistic_profiles"]["Jira"]["L6"] = 10.0
    with pytest.raises(IntegrityError, match=r"expected table: \['L1', 'L6'\]$"):
        load_knowledge_base(write_kb(tmp_path, kb_raw))


def test_load_derives_the_mapping_once(monkeypatch):
    calls = []

    def counting(profiles):
        calls.append(profiles)
        return derive_mapping(profiles)

    monkeypatch.setattr("sentimatch.profiles.derive_mapping", counting)
    load_knowledge_base()
    assert len(calls) == 1


def _locations(node, path: tuple) -> list[tuple]:
    """``path`` and the path of every key and list item below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    locations = [path]
    for key, child in children:
        locations += _locations(child, (*path, key))
    return locations


_BUNDLED_RAW = json.loads(bundled_kb_path().read_text(encoding="utf-8"))
_LOCATIONS = {section: _locations(value, (section,)) for section, value in _BUNDLED_RAW.items()}
_DELETE = "<delete>"


@pytest.fixture(scope="module")
def mutated_kb_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "kb.json"


# The section is drawn first, so that the small sections are reached as often
# as the 130 performance records.
@settings(max_examples=300)
@given(
    location=st.sampled_from(sorted(_LOCATIONS)).flatmap(lambda section: st.sampled_from(_LOCATIONS[section])),
    mutation=st.sampled_from([_DELETE, None, -1, 2, 10**400, "x", [], {}]),
)
def test_any_one_value_mutation_loads_or_names_the_file(mutated_kb_path, example_answers, location, mutation):
    raw = json.loads(json.dumps(_BUNDLED_RAW))
    parent = raw
    for key in location[:-1]:
        parent = parent[key]
    if mutation == _DELETE:
        del parent[location[-1]]
    else:
        parent[location[-1]] = mutation
    mutated_kb_path.write_text(json.dumps(raw), encoding="utf-8")
    try:
        kb = load_knowledge_base(mutated_kb_path)
    except KnowledgeBaseError as exc:
        assert str(exc).startswith(f"{mutated_kb_path}: ")
        assert str(exc).count(str(mutated_kb_path)) == 1
    else:
        recommend(example_answers, kb)
