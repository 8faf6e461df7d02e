"""Questionnaire scoring and platform/tool recommendation.

Linguistic scoring: for each of the thirteen features, every platform whose
interval equals the user's answer earns one point; an unanswerable feature
(answer "not specified", or an interval no platform occupies) puts one point in
the ambiguous bucket instead. Statistic scoring: each provided statistic gives
one point to the platform(s) at minimum absolute distance from the user's
value. Both pools accumulate into one scoreboard; the highest-scoring
platform(s) win, unless the result is ambiguous, in which case the robust
fallback tool pair is recommended.

Built once, not per call: the JSON name of every enum member (``_NAME``), and
one ``FeatureAward`` per (feature, answer, matched platforms), holding its JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, DivisionByZero, Inexact, InvalidOperation, Overflow, Rounded
from functools import lru_cache
from typing import Mapping

from .corpus import Corpus
from .profiles import (
    FEATURE_ORDER,
    PLATFORM_ORDER,
    AnswerOption,
    FeatureIntervalMap,
    KnowledgeBase,
    LinguisticFeature,
    Platform,
    PlatformStatProfile,
    json_member,
    json_number,
)
from .textstats import (
    STAT_FIELDS,
    Dictionary,
    EmoticonLexicon,
    corpus_statistics,
)

#: Each Platform, LinguisticFeature and AnswerOption member's JSON name, for every ``to_dict``.
_NAME: dict = {m: m.value for kind in (Platform, LinguisticFeature, AnswerOption) for m in kind}
_PLATFORM_NAMES = tuple(_NAME[p] for p in PLATFORM_ORDER)


@dataclass(frozen=True)
class QuestionnaireAnswers:
    """One answer option per linguistic feature (exactly thirteen); ids and JSON
    names are stored as members, and the first unknown key or value is named."""

    answers: Mapping[LinguisticFeature, AnswerOption]

    def __post_init__(self):
        answers: dict[LinguisticFeature, AnswerOption] = {}
        for key, value in dict(self.answers).items():
            try:
                feature = LinguisticFeature(key)
            except ValueError:
                raise ValueError(f"unknown feature id {key!r} (expected L1..L13)") from None
            answers[feature] = json_member(AnswerOption, value, feature.value)
        object.__setattr__(self, "answers", answers)
        missing = [f.value for f in FEATURE_ORDER if f not in answers]
        if missing:
            raise ValueError(f"answers missing features: {missing}")

    @property
    def not_specified_count(self) -> int:
        return sum(
            1 for option in self.answers.values() if option is AnswerOption.NOT_SPECIFIED
        )

    @classmethod
    def from_dict(cls, raw: Mapping[str, str]) -> "QuestionnaireAnswers":
        """Parse ``{"L1": "untrue", ..., "L13": "not_specified"}``."""
        return cls(answers=raw)

    def to_dict(self) -> dict[str, str]:
        return {f.value: self.answers[f].value for f in FEATURE_ORDER}


@dataclass(frozen=True)
class UserStatistics:
    """User-supplied statistic values, any subset of the eight fields; each an
    ``int`` or ``float`` (not a ``bool``) finite as a float, stored as that float."""

    values: Mapping[str, float]

    def __post_init__(self):
        values: dict[str, float] = {}
        for key, value in dict(self.values).items():
            number = json_number(value, repr(key))
            if not math.isfinite(number):
                raise ValueError(f"{key!r} must be a number, got {json.dumps(number)}")
            values[key] = number
        object.__setattr__(self, "values", values)
        unknown = [k for k in values if k not in STAT_FIELDS]
        if unknown:
            raise ValueError(f"unknown statistics {unknown}; expected names from {STAT_FIELDS}")
        negative = {k: v for k, v in values.items() if v < 0}
        if negative:
            raise ValueError(f"statistics must be non-negative, got {negative}")


@dataclass(frozen=True)
class FeatureAward:
    """Where one feature's point(s) went; ``names`` holds its three fields as JSON strings."""

    feature: LinguisticFeature
    answer: AnswerOption
    platforms: tuple[Platform, ...]  # empty means the ambiguous bucket got the point
    names: tuple[str, str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = (_NAME[self.feature], _NAME[self.answer], tuple(_NAME[p] for p in self.platforms))
        object.__setattr__(self, "names", names)

    def to_dict(self) -> dict:
        feature, answer, platforms = self.names
        return {"feature": feature, "answer": answer, "platforms": list(platforms),
                "ambiguous": not platforms}


#: One shared frozen award per (feature, answer, matched platforms), at most 13 x 5 x 2**5.
_feature_award = lru_cache(maxsize=None)(FeatureAward)


@dataclass(frozen=True)
class StatisticAward:
    """Distance outcome for one provided statistic; ties share the point."""

    statistic: str
    value: float
    distances: Mapping[Platform, float]
    platforms: tuple[Platform, ...]

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "value": self.value,
            "distances": dict(zip(_PLATFORM_NAMES, map(self.distances.__getitem__, PLATFORM_ORDER))),
            "platforms": [_NAME[p] for p in self.platforms],
        }


@dataclass(frozen=True)
class ScoreBoard:
    """Point tally per platform plus the ambiguous bucket, with a full trace."""

    points: Mapping[Platform, int]
    ambiguous: int = 0
    feature_awards: tuple[FeatureAward, ...] = ()
    statistic_awards: tuple[StatisticAward, ...] = ()

    def __post_init__(self):
        filled = {p: int(self.points.get(p, 0)) for p in PLATFORM_ORDER}
        object.__setattr__(self, "points", filled)

    def combine(self, other: "ScoreBoard") -> "ScoreBoard":
        return ScoreBoard(
            points={p: self.points[p] + other.points[p] for p in PLATFORM_ORDER},
            ambiguous=self.ambiguous + other.ambiguous,
            feature_awards=self.feature_awards + other.feature_awards,
            statistic_awards=self.statistic_awards + other.statistic_awards,
        )

    def max_score(self) -> int:
        return max(self.points.values())

    def leaders(self) -> tuple[Platform, ...]:
        top = self.max_score()
        return tuple(p for p in PLATFORM_ORDER if self.points[p] == top)

    def to_dict(self) -> dict:
        return {
            "points": dict(zip(_PLATFORM_NAMES, map(self.points.__getitem__, PLATFORM_ORDER))),
            "ambiguous_points": self.ambiguous,
            "linguistic": [award.to_dict() for award in self.feature_awards],
            "statistics": [award.to_dict() for award in self.statistic_awards],
        }


def score_linguistic(
    answers: QuestionnaireAnswers, mapping: FeatureIntervalMap
) -> ScoreBoard:
    """Award linguistic points feature by feature (see module docstring)."""
    points = {p: 0 for p in PLATFORM_ORDER}
    ambiguous = 0
    awards: list[FeatureAward] = []
    for feature in FEATURE_ORDER:
        answer = answers.answers[feature]
        matched: tuple[Platform, ...] = ()
        if answer is not AnswerOption.NOT_SPECIFIED:
            matched = mapping.platforms_for(feature, answer)
        if matched:
            for platform in matched:
                points[platform] += 1
        else:
            ambiguous += 1
        awards.append(_feature_award(feature, answer, matched))
    return ScoreBoard(points=points, ambiguous=ambiguous, feature_awards=tuple(awards))


#: Subtracts the shortest reprs of two finite floats exactly: they have at most
#: 17 digits between 10**308 and 10**-324, so a difference needs at most 634
#: digits, and the default exponent limits (10**±999999) hold both ends. A
#: difference that would still need rounding raises Inexact or Rounded.
_EXACT = Context(prec=700, traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


def score_statistics(
    user: UserStatistics, profiles: Mapping[Platform, PlatformStatProfile]
) -> ScoreBoard:
    """Award one point per provided statistic to the closest platform(s).

    Distances are exact decimal |user - platform| values, each float read as
    the decimal its repr prints, so exact ties share the point. Raises
    ValueError when no statistic is provided.
    """
    if not user.values:
        raise ValueError("no statistics provided")
    subtract = _EXACT.subtract
    columns = [profiles[platform].exact for platform in PLATFORM_ORDER]
    points = {p: 0 for p in PLATFORM_ORDER}
    awards: list[StatisticAward] = []
    for name in STAT_FIELDS:
        if name not in user.values:
            continue
        value = user.values[name]
        exact = Decimal(repr(value))
        distances = [subtract(exact, column[name]).copy_abs() for column in columns]
        closest = min(distances)
        winners = tuple(p for p, d in zip(PLATFORM_ORDER, distances) if d == closest)
        for platform in winners:
            points[platform] += 1
        awards.append(
            StatisticAward(
                statistic=name,
                value=value,
                distances=dict(zip(PLATFORM_ORDER, map(float, distances))),
                platforms=winners,
            )
        )
    return ScoreBoard(points=points, statistic_awards=tuple(awards))


@dataclass(frozen=True)
class Recommendation:
    """Final output: matched platform(s) with their best tools, or the
    ambiguous fallback pair, plus the scoreboard that produced it."""

    ambiguous: bool
    reason: str
    platforms: tuple[Platform, ...]
    tools: Mapping[Platform, tuple[str, ...]]
    fallback_tools: tuple[str, ...]
    scoreboard: ScoreBoard

    def __post_init__(self):
        object.__setattr__(self, "tools", dict(self.tools))

    def recommended_tools(self) -> tuple[str, ...]:
        if self.ambiguous:
            return self.fallback_tools
        merged = {tool for tools in self.tools.values() for tool in tools}
        return tuple(sorted(merged))

    def to_dict(self) -> dict:
        return {
            "ambiguous": self.ambiguous,
            "reason": self.reason,
            "platforms": [_NAME[p] for p in self.platforms],
            "tools": {_NAME[p]: list(self.tools[p]) for p in self.platforms},
            "fallback_tools": list(self.fallback_tools),
            "recommended_tools": list(self.recommended_tools()),
            "scoreboard": self.scoreboard.to_dict(),
        }


def recommend(
    answers: QuestionnaireAnswers,
    kb: KnowledgeBase,
    user_stats: UserStatistics | None = None,
    max_not_specified: int = len(FEATURE_ORDER) // 2,
) -> Recommendation:
    """Score the questionnaire (and optional statistics) against the knowledge
    base and pick the winning platform(s) and tool(s).

    The result is ambiguous when more than ``max_not_specified`` answers are
    "not specified", or when the ambiguous bucket strictly exceeds every
    platform's pooled score (statistic points count toward the pooled score,
    so strong statistics can rescue a weak linguistic match). Ambiguous
    results carry the knowledge base's fallback tool pair.
    """
    board = score_linguistic(answers, kb.mapping)
    if user_stats is not None and user_stats.values:
        board = board.combine(score_statistics(user_stats, kb.statistics))

    top = board.max_score()
    not_specified = answers.not_specified_count
    leaders: tuple[Platform, ...] = ()
    if not_specified > max_not_specified:
        reason = (
            f"{not_specified} of {len(FEATURE_ORDER)} answers are not specified "
            f"(threshold {max_not_specified})"
        )
    elif board.ambiguous > top:
        reason = (
            f"ambiguous points ({board.ambiguous}) exceed every platform's "
            f"pooled score (max {top})"
        )
    else:
        leaders = board.leaders()
        if len(leaders) == 1:
            reason = f"highest pooled score {top}"
        else:
            names = ", ".join(_NAME[p] for p in leaders)
            reason = f"tie at pooled score {top} between {names}"
    return Recommendation(
        ambiguous=not leaders,
        reason=reason,
        platforms=leaders,
        tools={platform: kb.best_tools[platform] for platform in leaders},
        fallback_tools=() if leaders else kb.fallback_tools,
        scoreboard=board,
    )


def auto_answers_from_corpus(
    corpus: Corpus,
    dictionary: Dictionary | None = None,
    lexicon: EmoticonLexicon | None = None,
) -> UserStatistics:
    """Profile a corpus into UserStatistics so ``recommend`` can run statistics
    matching automatically; linguistic answers remain human-supplied."""
    stats = corpus_statistics(corpus, dictionary, lexicon)
    return UserStatistics(values=stats.to_dict())
