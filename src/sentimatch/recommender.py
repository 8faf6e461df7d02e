"""Questionnaire scoring and platform/tool recommendation.

Linguistic scoring: for each of the thirteen features, every platform whose
interval equals the user's answer earns one point; an unanswerable feature
(answer "not specified", or an interval no platform occupies) puts one point in
the ambiguous bucket instead. Statistic scoring: each provided statistic gives
one point to the platform(s) at minimum absolute distance from the user's
value. Both pools accumulate into one scoreboard; the highest-scoring
platform(s) win, unless the result is ambiguous, in which case the robust
fallback tool pair is recommended.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Context, Decimal, DivisionByZero, Inexact, InvalidOperation, Overflow, Rounded
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


@dataclass(frozen=True)
class QuestionnaireAnswers:
    """One answer option per linguistic feature (exactly thirteen)."""

    answers: Mapping[LinguisticFeature, AnswerOption]

    def __post_init__(self):
        object.__setattr__(self, "answers", dict(self.answers))
        missing = [f.value for f in FEATURE_ORDER if f not in self.answers]
        if missing:
            raise ValueError(f"answers missing features: {missing}")
        extra = [k for k in self.answers if k not in FEATURE_ORDER]
        if extra:
            raise ValueError(f"answers contain unknown features: {extra}")

    @property
    def not_specified_count(self) -> int:
        return sum(
            1 for option in self.answers.values() if option is AnswerOption.NOT_SPECIFIED
        )

    @classmethod
    def from_dict(cls, raw: Mapping[str, str]) -> "QuestionnaireAnswers":
        """Parse ``{"L1": "untrue", ..., "L13": "not_specified"}``."""
        answers: dict[LinguisticFeature, AnswerOption] = {}
        for key, value in raw.items():
            try:
                feature = LinguisticFeature(key)
            except ValueError:
                raise ValueError(f"unknown feature id {key!r} (expected L1..L13)") from None
            answers[feature] = json_member(AnswerOption, value, key)
        return cls(answers=answers)

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
    """Where one feature's point(s) went."""

    feature: LinguisticFeature
    answer: AnswerOption
    platforms: tuple[Platform, ...]  # empty means the ambiguous bucket got the point

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.value,
            "answer": self.answer.value,
            "platforms": [p.value for p in self.platforms],
            "ambiguous": not self.platforms,
        }


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
            "distances": {p.value: self.distances[p] for p in PLATFORM_ORDER},
            "platforms": [p.value for p in self.platforms],
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
            "points": {p.value: self.points[p] for p in PLATFORM_ORDER},
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
        awards.append(FeatureAward(feature=feature, answer=answer, platforms=matched))
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
    points = {p: 0 for p in PLATFORM_ORDER}
    awards: list[StatisticAward] = []
    for name in STAT_FIELDS:
        if name not in user.values:
            continue
        value = user.values[name]
        exact = Decimal(repr(value))
        distances: dict[Platform, Decimal] = {
            platform: subtract(exact, profiles[platform].exact[name]).copy_abs()
            for platform in PLATFORM_ORDER
        }
        closest = min(distances.values())
        winners = tuple(p for p in PLATFORM_ORDER if distances[p] == closest)
        for platform in winners:
            points[platform] += 1
        awards.append(
            StatisticAward(
                statistic=name,
                value=value,
                distances={p: float(d) for p, d in distances.items()},
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
            "platforms": [p.value for p in self.platforms],
            "tools": {p.value: list(self.tools[p]) for p in self.platforms},
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

    not_specified = answers.not_specified_count
    reason = None
    if not_specified > max_not_specified:
        reason = (
            f"{not_specified} of {len(FEATURE_ORDER)} answers are not specified "
            f"(threshold {max_not_specified})"
        )
    elif board.ambiguous > board.max_score():
        reason = (
            f"ambiguous points ({board.ambiguous}) exceed every platform's "
            f"pooled score (max {board.max_score()})"
        )
    if reason is not None:
        return Recommendation(
            ambiguous=True,
            reason=reason,
            platforms=(),
            tools={},
            fallback_tools=kb.fallback_tools,
            scoreboard=board,
        )

    leaders = board.leaders()
    tools = {platform: kb.best_tools[platform] for platform in leaders}
    if len(leaders) == 1:
        reason = f"highest pooled score {board.max_score()}"
    else:
        names = ", ".join(p.value for p in leaders)
        reason = f"tie at pooled score {board.max_score()} between {names}"
    return Recommendation(
        ambiguous=False,
        reason=reason,
        platforms=leaders,
        tools=tools,
        fallback_tools=(),
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
