"""Reference computations the benchmark checks the program's outputs against.

Each is written from the formula in the README or the textbook, apart from
the program's own code: Cochran's sample size, largest-remainder allocation,
precision/recall/F1 from a confusion matrix, Fleiss' kappa with the
Landis-Koch bands, and a questionnaire scorer that reads the raw
``knowledge_base.json``.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

POLARITIES = ("negative", "neutral", "positive")
PLATFORMS = ("AppReviews", "CodeReviews", "GitHub", "Jira", "StackOverflow")
FEATURES = tuple(f"L{i}" for i in range(1, 14))
OPTIONS = ("true", "likely", "unlikely", "untrue")


class CheckFailed(Exception):
    """An output of the program differs from the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def cochran(population: int, confidence: float = 0.95, margin: float = 0.05, p: float = 0.5) -> int:
    """Cochran's n0 = z^2 p (1 - p) / e^2 with finite-population correction."""
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    n0 = z * z * p * (1 - p) / (margin * margin)
    return min(math.ceil(n0 / (1 + (n0 - 1) / population)), population)


def largest_remainder(counts: dict[str, int], n: int) -> dict[str, int]:
    """Hamilton apportionment; remainder ties go to negative, neutral, positive."""
    total = sum(counts.values())
    quotas = {c: Fraction(n * counts[c], total) for c in POLARITIES}
    alloc = {c: quotas[c].numerator // quotas[c].denominator for c in POLARITIES}
    order = sorted(POLARITIES, key=lambda c: (alloc[c] - quotas[c], POLARITIES.index(c)))
    for c in order[: n - sum(alloc.values())]:
        alloc[c] += 1
    return alloc


def classification_expectation(matrix: list[list[int]]) -> dict:
    """Per-class precision/recall/F1, micro/macro F1 and overall score from a
    3x3 confusion matrix (rows gold, columns predicted), as exact Fractions."""
    n = sum(map(sum, matrix))
    per_class = {}
    for i, c in enumerate(POLARITIES):
        gold = sum(matrix[i])
        pred = sum(row[i] for row in matrix)
        tp = matrix[i][i]
        if not gold + pred:
            continue  # a class nobody used is not reported
        per_class[c] = {
            "precision": Fraction(tp, pred) if pred else Fraction(0),
            "recall": Fraction(tp, gold) if gold else Fraction(0),
            "f1": Fraction(2 * tp, gold + pred),
            "support": gold,
        }
    micro = Fraction(sum(matrix[i][i] for i in range(3)), n)
    present = [c for c in per_class if per_class[c]["support"]]
    macro = sum(per_class[c]["f1"] for c in present) / len(present)
    return {"per_class": per_class, "micro_f1": micro, "macro_f1": macro,
            "overall_score": (micro + macro) / 2}


def close(got, want: Fraction) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def fleiss(rows: list[list[str]]) -> tuple[Fraction | None, Fraction]:
    """Fleiss' kappa (None when expected agreement is 1) and the share of
    unanimous items, from per-item rater labels."""
    categories = sorted({label for row in rows for label in row})
    n_items, r = len(rows), len(rows[0])
    p_items = Fraction(0)
    totals = dict.fromkeys(categories, 0)
    unanimous = 0
    for row in rows:
        counts = {c: row.count(c) for c in categories}
        p_items += Fraction(sum(k * (k - 1) for k in counts.values()), r * (r - 1))
        for c, k in counts.items():
            totals[c] += k
        unanimous += max(counts.values()) == r
    p_bar = p_items / n_items
    p_e = sum(Fraction(t, n_items * r) ** 2 for t in totals.values())
    kappa = None if p_e == 1 else (p_bar - p_e) / (1 - p_e)
    return kappa, Fraction(unanimous, n_items)


def landis_koch(kappa: Fraction | None) -> str:
    if kappa is None:
        return "undefined"
    if kappa < 0:
        return "poor"
    for upper, band in ((Fraction(1, 5), "slight"), (Fraction(2, 5), "fair"),
                        (Fraction(3, 5), "moderate"), (Fraction(4, 5), "substantial")):
        if kappa <= upper:
            return band
    return "almost perfect"


def _bucket(frequency: float) -> str:
    if frequency < 25:
        return "untrue"
    if frequency < 50:
        return "unlikely"
    if frequency < 75:
        return "likely"
    return "true"


class Scorer:
    """Questionnaire scoring over the raw knowledge-base file, per the README."""

    def __init__(self, kb_path: Path):
        raw = json.loads(kb_path.read_text(encoding="utf-8"))
        self.bucket = {
            f: {p: _bucket(raw["linguistic_profiles"][p][f]) for p in PLATFORMS} for f in FEATURES
        }
        self.stats = {
            p: {name: Decimal(repr(float(v))) for name, v in raw["statistic_profiles"][p].items()}
            for p in PLATFORMS
        }
        sums: dict[str, dict[str, list[Decimal]]] = {p: {} for p in PLATFORMS}
        for rec in raw["tool_performance"]:
            score = (Decimal(repr(float(rec["micro_f1"]))) + Decimal(repr(float(rec["macro_f1"])))) / 2
            sums[rec["platform"]].setdefault(rec["tool"], []).append(score)
        self.best = {}
        for p in PLATFORMS:
            means = {tool: Fraction(sum(s)) / len(s) for tool, s in sums[p].items()}
            top = max(means.values())
            self.best[p] = sorted(t for t, m in means.items() if m == top)
        self.fallback = list(raw["fallback_tools"])
        self.stat_values = {name: [self.stats[p][name] for p in PLATFORMS]
                            for name in raw["statistic_profiles"][PLATFORMS[0]]}

    def answers_like(self, platform: str) -> dict[str, str]:
        """The answer vector of a dataset that matches ``platform`` exactly."""
        return {f: self.bucket[f][platform] for f in FEATURES}

    def score(self, answers: dict[str, str], stats: dict[str, float], max_not_specified: int = 6) -> dict:
        points = dict.fromkeys(PLATFORMS, 0)
        ambiguous_points = 0
        for f in FEATURES:
            matched = [p for p in PLATFORMS if answers[f] != "not_specified" and self.bucket[f][p] == answers[f]]
            for p in matched:
                points[p] += 1
            ambiguous_points += not matched
        for name, value in stats.items():
            distances = {p: abs(Decimal(repr(value)) - self.stats[p][name]) for p in PLATFORMS}
            nearest = min(distances.values())
            for p in PLATFORMS:
                points[p] += distances[p] == nearest
        not_specified = sum(1 for f in FEATURES if answers[f] == "not_specified")
        top = max(points.values())
        ambiguous = not_specified > max_not_specified or ambiguous_points > top
        platforms = [] if ambiguous else [p for p in PLATFORMS if points[p] == top]
        tools = {p: self.best[p] for p in platforms}
        return {
            "ambiguous": ambiguous,
            "platforms": platforms,
            "tools": tools,
            "fallback_tools": self.fallback if ambiguous else [],
            "recommended_tools": self.fallback if ambiguous
            else sorted({t for p in platforms for t in tools[p]}),
            "points": points,
            "ambiguous_points": ambiguous_points,
        }

    def check(self, document: dict, want: dict) -> None:
        board = document.get("scoreboard", {})
        got = {key: document.get(key) for key in
               ("ambiguous", "platforms", "tools", "fallback_tools", "recommended_tools")}
        got["points"] = board.get("points")
        got["ambiguous_points"] = board.get("ambiguous_points")
        expect(got == want, f"recommendation {got} != reference {want}")
