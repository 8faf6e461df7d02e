"""Embedded platform knowledge base: linguistic profiles, statistic profiles
and tool performance records, plus the derivations built on them (frequency
interval mapping, per-platform best tools) and load-time integrity checks.

The knowledge base ships as a versioned JSON data file. Scores are compared
with exact decimal arithmetic so that printed two-decimal values neither gain
nor lose ties to floating-point noise.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, TypeVar

from .corpus import data_path, read_json
from .errors import InputValueError, IntegrityError, KnowledgeBaseError, named
from .textstats import STAT_FIELDS

T = TypeVar("T")
E = TypeVar("E", bound=Enum)


class Platform(str, Enum):
    APP_REVIEWS = "AppReviews"
    CODE_REVIEWS = "CodeReviews"
    GITHUB = "GitHub"
    JIRA = "Jira"
    STACK_OVERFLOW = "StackOverflow"


#: Stable platform order used in every derived table and JSON document.
PLATFORM_ORDER: tuple[Platform, ...] = tuple(Platform)


class LinguisticFeature(str, Enum):
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    L4 = "L4"
    L5 = "L5"
    L6 = "L6"
    L7 = "L7"
    L8 = "L8"
    L9 = "L9"
    L10 = "L10"
    L11 = "L11"
    L12 = "L12"
    L13 = "L13"


FEATURE_ORDER: tuple[LinguisticFeature, ...] = tuple(LinguisticFeature)


class AnswerOption(str, Enum):
    """Questionnaire answer options; the four substantive ones map 1:1 to
    25-point frequency intervals."""

    TRUE = "true"
    LIKELY = "likely"
    UNLIKELY = "unlikely"
    UNTRUE = "untrue"
    NOT_SPECIFIED = "not_specified"


#: The substantive options in descending-frequency order.
SUBSTANTIVE_OPTIONS: tuple[AnswerOption, ...] = (
    AnswerOption.TRUE,
    AnswerOption.LIKELY,
    AnswerOption.UNLIKELY,
    AnswerOption.UNTRUE,
)


def _shown(value: object) -> str:
    try:
        return json.dumps(value, default=repr)
    except (ValueError, TypeError, RecursionError):  # an int too long to print, a cycle, ...
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return type(value).__name__


def json_number(value: object, name: str) -> float:
    """``value`` as a float if it is an ``int`` (not a ``bool``) or ``float`` within
    float range, else raises ``InputValueError("<name> must be a number, got <value>")``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            return float(value)
    raise InputValueError(f"{name} must be a number, got {_shown(value)}")


def json_string(value: object, name: str) -> str:
    """``value`` if it is a string, else raises ``InputValueError("<name> must be a string, got <value>")``."""
    if isinstance(value, str):
        return value
    raise InputValueError(f"{name} must be a string, got {_shown(value)}")


def json_list(value: object, name: str, item: Callable[[object, str], T]) -> list[T]:
    """Each value of the list ``value`` read by ``item`` with its path ``<name>[<index>]``,
    else raises ``InputValueError("<name> must be a JSON list, got <value>")``."""
    if isinstance(value, list):
        return [item(v, f"{name}[{i}]") for i, v in enumerate(value)]
    raise InputValueError(f"{name} must be a JSON list, got {_shown(value)}")


class JsonObject(dict):
    """A copy of the dict ``value`` whose missing key raises ``InputValueError("missing key
    '<key>' in <name>")``; any other ``value`` raises ``"<name> must be a JSON object, got <value>"``."""

    def __init__(self, value: object, name: str):
        if not isinstance(value, dict):
            raise InputValueError(f"{name} must be a JSON object, got {_shown(value)}")
        super().__init__(value)
        self.name = name

    def __missing__(self, key: str):
        raise InputValueError(f"missing key {key!r} in {self.name}")


def json_member(enum: type[E], value: object, name: str) -> E:
    """The ``enum`` member of value ``value``, else raises ``InputValueError("<name>: <value!r> is not one of <v1>/...")``."""
    try:
        return enum(value)
    except ValueError:
        raise InputValueError(f"{name}: {value!r} is not one of {'/'.join(m.value for m in enum)}") from None


def interval_of(frequency: float) -> AnswerOption:
    """Bucket a frequency percentage into its answer option.

    Intervals are lower-inclusive: [0,25) untrue, [25,50) unlikely,
    [50,75) likely, [75,100] true.
    """
    if not 0.0 <= frequency <= 100.0:
        raise ValueError(f"frequency must be in [0, 100], got {frequency}")
    if frequency < 25.0:
        return AnswerOption.UNTRUE
    if frequency < 50.0:
        return AnswerOption.UNLIKELY
    if frequency < 75.0:
        return AnswerOption.LIKELY
    return AnswerOption.TRUE


@dataclass(frozen=True)
class FeatureInfo:
    """Human-facing name and description of a linguistic feature."""

    id: LinguisticFeature
    name: str
    description: str


@dataclass(frozen=True)
class PlatformLinguisticProfile:
    """Per-feature occurrence frequency (percentage) for one platform."""

    platform: Platform
    frequencies: Mapping[LinguisticFeature, float]

    def __post_init__(self):
        object.__setattr__(self, "frequencies", dict(self.frequencies))
        for feature, value in self.frequencies.items():
            if not 0.0 <= value <= 100.0:
                raise IntegrityError(
                    f"{self.platform.value}/{feature.value}: frequency {value} outside [0, 100]"
                )
        missing = [f.value for f in FEATURE_ORDER if f not in self.frequencies]
        if missing:
            raise KnowledgeBaseError(
                f"{self.platform.value}: linguistic profile missing features {missing}"
            )


@dataclass(frozen=True)
class PlatformStatProfile:
    """The eight statistic averages for one platform, keyed by STAT_FIELDS.

    ``exact`` holds each value as the exact decimal it prints as (see
    :func:`exact_decimal`), built once for the distance scoring.
    """

    platform: Platform
    values: Mapping[str, float]
    exact: Mapping[str, Decimal] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))
        for name, value in self.values.items():
            if value < 0.0:
                raise IntegrityError(f"{self.platform.value}/{name}: negative statistic {value}")
            if not math.isfinite(value):
                raise IntegrityError(f"{self.platform.value}/{name}: statistic {value} is not finite")
        missing = [name for name in STAT_FIELDS if name not in self.values]
        if missing:
            raise KnowledgeBaseError(
                f"{self.platform.value}: statistic profile missing fields {missing}"
            )
        unknown = [name for name in self.values if name not in STAT_FIELDS]
        if unknown:
            raise KnowledgeBaseError(f"{self.platform.value}: statistic profile has unknown fields {unknown}")
        object.__setattr__(
            self, "exact", {name: Decimal(repr(value)) for name, value in self.values.items()}
        )


_SCORES = ("micro_f1", "macro_f1", "overall")


@dataclass(frozen=True)
class ToolPerformanceRecord:
    """One tool's scores on one dataset: ``overall`` is the printed column, and
    ``overall_exact``, (micro + macro) / 2 in exact decimals, the authoritative one."""

    tool: str
    dataset: str
    platform: Platform
    micro_f1: float
    macro_f1: float
    overall: float
    overall_exact: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in _SCORES:
            score = getattr(self, name)
            if not 0.0 <= score <= 1.0:  # NaN too, which the exact overall cannot take
                raise IntegrityError(f"{self.tool}/{self.dataset}: {name}={score} outside [0, 1]")
        object.__setattr__(
            self,
            "overall_exact",
            (exact_decimal(self.micro_f1) + exact_decimal(self.macro_f1)) / 2,
        )

    def overall_consistent(self) -> bool:
        """Whether the printed overall is within 0.01 of ``overall_exact``."""
        return abs(exact_decimal(self.overall) - self.overall_exact) <= Fraction(1, 100)


def exact_decimal(value: float) -> Fraction:
    """The exact decimal a float prints as.

    repr() of a float is its shortest round-tripping decimal, so this recovers
    the exact printed value for data entered with a few decimals; score
    comparisons on such Fractions keep genuine ties and genuine 0.01 gaps.
    """
    return Fraction(Decimal(repr(value)))


@dataclass(frozen=True)
class FeatureIntervalMap:
    """Answer option per (feature, platform), with reverse lookup per option."""

    options: Mapping[LinguisticFeature, Mapping[Platform, AnswerOption]]
    _platforms: Mapping[LinguisticFeature, Mapping[AnswerOption, tuple[Platform, ...]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "options", {f: dict(per) for f, per in self.options.items()}
        )
        platforms: dict[LinguisticFeature, dict[AnswerOption, tuple[Platform, ...]]] = {}
        for feature, per_platform in self.options.items():
            buckets: dict[AnswerOption, list[Platform]] = {}
            for platform in PLATFORM_ORDER:
                buckets.setdefault(per_platform[platform], []).append(platform)
            platforms[feature] = {option: tuple(ps) for option, ps in buckets.items()}
        object.__setattr__(self, "_platforms", platforms)

    def platforms_for(
        self, feature: LinguisticFeature, option: AnswerOption
    ) -> tuple[Platform, ...]:
        """The platforms, in PLATFORM_ORDER, whose interval for ``feature`` is ``option``."""
        return self._platforms[feature].get(option, ())

    def answers_for(self, platform: Platform) -> dict[LinguisticFeature, AnswerOption]:
        """The answer vector a dataset identical to ``platform`` would give."""
        return {f: self.options[f][platform] for f in FEATURE_ORDER}

    def to_dict(self) -> dict:
        return {
            f.value: {
                option.value: [p.value for p in self.platforms_for(f, option)]
                for option in SUBSTANTIVE_OPTIONS
                if self.platforms_for(f, option)
            }
            for f in FEATURE_ORDER
        }


def derive_mapping(
    profiles: Mapping[Platform, PlatformLinguisticProfile]
) -> FeatureIntervalMap:
    """Bucket every (feature, platform) frequency into its answer option.

    All five platforms with all thirteen features must be present.
    """
    missing = [p.value for p in PLATFORM_ORDER if p not in profiles]
    if missing:
        raise KnowledgeBaseError(f"linguistic profiles missing platforms {missing}")
    options = {
        feature: {
            platform: interval_of(profiles[platform].frequencies[feature])
            for platform in PLATFORM_ORDER
        }
        for feature in FEATURE_ORDER
    }
    return FeatureIntervalMap(options=options)


def best_tool(
    platform: Platform, records: Iterable[ToolPerformanceRecord]
) -> tuple[str, ...]:
    """Tools with the highest mean recomputed overall across the platform's
    datasets; exact ties return every maximizer (sorted).

    Raises KnowledgeBaseError when no record covers the platform.
    """
    platform = Platform(platform)
    per_tool: dict[str, list[Fraction]] = {}
    for record in records:
        if record.platform == platform:
            per_tool.setdefault(record.tool, []).append(record.overall_exact)
    if not per_tool:
        raise KnowledgeBaseError(f"no performance records for platform {platform.value}")
    means = {tool: sum(scores) / len(scores) for tool, scores in per_tool.items()}
    top = max(means.values())
    return tuple(sorted(tool for tool, mean in means.items() if mean == top))


@dataclass(frozen=True)
class IntegrityReport:
    """Outcome of the load-time checks; ``flagged`` lists every inconsistent
    performance cell (they must all be documented anomalies)."""

    flagged: tuple[tuple[str, str], ...]  # (tool, dataset)
    checks_run: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "flagged_cells": [
                {"tool": tool, "dataset": dataset} for tool, dataset in self.flagged
            ],
            "checks_run": list(self.checks_run),
        }


@dataclass(frozen=True)
class KnowledgeBase:
    """Everything the recommender needs, loaded and integrity-checked; ``mapping``
    and ``best_tools`` (:func:`best_tool` per platform) are derived at construction."""

    schema_version: str
    features: Mapping[LinguisticFeature, FeatureInfo]
    linguistic: Mapping[Platform, PlatformLinguisticProfile]
    statistics: Mapping[Platform, PlatformStatProfile]
    performance: tuple[ToolPerformanceRecord, ...]
    known_anomalies: frozenset[tuple[str, str]]
    fallback_tools: tuple[str, ...]
    integrity: IntegrityReport
    mapping: FeatureIntervalMap = field(init=False)
    best_tools: Mapping[Platform, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mapping", derive_mapping(self.linguistic))
        object.__setattr__(
            self, "best_tools", {p: best_tool(p, self.performance) for p in PLATFORM_ORDER}
        )


def bundled_kb_path() -> Path:
    return data_path("knowledge_base.json")


def load_knowledge_base(path: str | Path | None = None) -> KnowledgeBase:
    """Load and integrity-check a knowledge-base file (bundled one by default).

    Checks: structural completeness, value ranges, interval-mapping
    re-derivation against the embedded expected table, and overall-score
    consistency where every violating cell must appear on the file's
    known-anomaly list. Any other violation raises IntegrityError naming the
    offending cells. Every error message names the file.
    """
    kb_path = Path(path) if path is not None else bundled_kb_path()
    with named(f"cannot read knowledge base {kb_path}", OSError, KnowledgeBaseError):
        raw = read_json(kb_path, KnowledgeBaseError)
    # A KnowledgeBaseError is no InputValueError, so no message is named twice.
    with named(f"{kb_path}: malformed entry", InputValueError, KnowledgeBaseError), named(kb_path, KnowledgeBaseError):
        return _parse_knowledge_base(raw)


def _parse_knowledge_base(value: object) -> KnowledgeBase:
    raw = JsonObject(value, "knowledge base")
    features: dict[LinguisticFeature, FeatureInfo] = {}
    for entry in json_list(raw["features"], "features", JsonObject):
        feature = json_member(LinguisticFeature, entry["id"], f"{entry.name}.id")
        features[feature] = FeatureInfo(feature, *(json_string(entry[k], f"{entry.name}.{k}") for k in ("name", "description")))
    if set(features) != set(FEATURE_ORDER):
        raise KnowledgeBaseError("feature list must cover exactly L1..L13")

    linguistic, statistics = {}, {}
    for platform, freqs in _per_platform(raw, "linguistic_profiles"):
        numbers = {
            json_member(LinguisticFeature, fid, freqs.name): json_number(v, f"{platform.value}/{fid}: frequency")
            for fid, v in freqs.items()
        }
        linguistic[platform] = PlatformLinguisticProfile(platform, numbers)
    for platform, values in _per_platform(raw, "statistic_profiles"):
        numbers = {k: json_number(v, f"{platform.value}/{k}: statistic") for k, v in values.items()}
        statistics[platform] = PlatformStatProfile(platform, numbers)

    missing_platforms = [p.value for p in PLATFORM_ORDER if p not in linguistic or p not in statistics]
    if missing_platforms:
        raise KnowledgeBaseError(f"profiles missing platforms {missing_platforms}")

    records: list[ToolPerformanceRecord] = []
    seen_cells: set[tuple[str, str]] = set()
    for entry in json_list(raw["tool_performance"], "tool_performance", JsonObject):
        tool, dataset = _cell(entry)
        platform = json_member(Platform, entry["platform"], f"{entry.name}.platform")
        scores = {name: json_number(entry[name], f"{tool}/{dataset}: {name}") for name in _SCORES}
        cell = (tool, dataset)
        if cell in seen_cells:
            raise KnowledgeBaseError(f"duplicate performance cell {cell}")
        seen_cells.add(cell)
        records.append(ToolPerformanceRecord(tool, dataset, platform, **scores))

    known_anomalies = frozenset(map(_cell, json_list(raw["known_overall_anomalies"], "known_overall_anomalies", JsonObject)))
    flagged = tuple(sorted((r.tool, r.dataset) for r in records if not r.overall_consistent()))
    unexpected = [cell for cell in flagged if cell not in known_anomalies]
    if unexpected:
        raise IntegrityError(
            f"overall-score inconsistencies outside the documented anomaly list: {unexpected}"
        )
    stale = sorted(known_anomalies - set(flagged))
    if stale:
        raise IntegrityError(f"documented anomalies that are not actually inconsistent: {stale}")

    report = IntegrityReport(
        flagged=flagged,
        checks_run=(
            "structure",
            "value_ranges",
            "interval_mapping_rederivation",
            "overall_score_consistency",
            "fallback_tools_known",
        ),
    )
    kb = KnowledgeBase(
        schema_version=json_string(raw["schema_version"], "schema_version"),
        features=features,
        linguistic=linguistic,
        statistics=statistics,
        performance=tuple(records),
        known_anomalies=known_anomalies,
        fallback_tools=tuple(json_list(raw["fallback_tools"], "fallback_tools", json_string)),
        integrity=report,
    )

    # the table must read as `kb dump` prints the derived mapping, up to the
    # order of each platform list and options listed with no platform
    table = "expected_interval_mapping"
    expected = {fid: _cells(row, f"{table}.{fid}") for fid, row in JsonObject(raw[table], table).items()}
    derived = {fid: _cells(row, fid) for fid, row in kb.mapping.to_dict().items()}
    differing = [fid for fid in {**derived, **expected} if derived.get(fid) != expected.get(fid)]
    if differing:
        raise IntegrityError(f"derived interval mapping disagrees with the embedded expected table: {differing}")

    known_tools = {r.tool for r in records}
    unknown_fallback = [t for t in kb.fallback_tools if t not in known_tools]
    if unknown_fallback:
        raise IntegrityError(f"fallback tools without records: {unknown_fallback}")
    return kb


def _per_platform(raw: Mapping, key: str) -> list[tuple[Platform, JsonObject]]:
    """The platform and the JSON object of each entry of the object ``raw[key]``."""
    entries = JsonObject(raw[key], key)
    return [(json_member(Platform, name, key), JsonObject(value, f"{key}.{name}")) for name, value in entries.items()]


def _cell(entry: JsonObject) -> tuple[str, ...]:
    """The (tool, dataset) strings of a performance record or anomaly entry."""
    return tuple(json_string(entry[k], f"{entry.name}.{k}") for k in ("tool", "dataset"))


def _cells(row: object, name: str) -> dict[str, list[str]]:
    cells = {option: json_list(names, f"{name}.{option}", json_string) for option, names in JsonObject(row, name).items()}
    return {option: sorted(names) for option, names in cells.items() if names}
