"""Minimum sample sizes (Cochran with finite-population correction) and
polarity-stratified random sampling.

Class allocations use largest-remainder apportionment with remainder ties
broken in canonical class order (negative < neutral < positive); selection
inside a class is a seeded uniform shuffle taking the first k documents.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from statistics import NormalDist

from .corpus import CLASS_ORDER, Corpus, PolarityLabel
from .errors import SamplingError


#: The paper's sizing: z for 95% two-sided confidence, a 5% margin of error
#: and the most conservative expected proportion, p = 0.5.
_Z = NormalDist().inv_cdf((1.0 + 0.95) / 2.0)
_N0 = (_Z**2) * 0.5 * (1.0 - 0.5) / (0.05**2)


def min_sample_size(population_size: int) -> int:
    """Smallest representative sample of a population at 95% confidence and a
    5% margin of error.

    n0 = z^2 * p * (1 - p) / e^2 with p = 0.5, corrected for a finite
    population of size N as ceil(n0 / (1 + (n0 - 1) / N)) and clamped to N.
    """
    if population_size < 1:
        raise ValueError("population_size must be >= 1")
    corrected = _N0 / (1.0 + (_N0 - 1.0) / population_size)
    return min(math.ceil(corrected), population_size)


def _indices_by_class(corpus: Corpus) -> dict[PolarityLabel, list[int]]:
    """Each class's document positions, in corpus order."""
    groups: dict[PolarityLabel, list[int]] = {label: [] for label in CLASS_ORDER}
    for index, doc in enumerate(corpus):
        label = doc.label
        if label is None:
            raise SamplingError(
                f"document {doc.id!r} has no polarity label; stratified sampling needs a fully labeled corpus"
            )
        groups[label].append(index)
    return groups


def apportion(counts: dict[PolarityLabel, int], n: int) -> dict[PolarityLabel, int]:
    """Largest-remainder allocation of n slots proportional to class counts.

    Remainder ties go to the earlier class in canonical order. Every class's
    allocation is bounded by its population count.
    """
    total = sum(counts.values())
    if n > total:
        raise SamplingError(f"sample size {n} exceeds population {total}")
    if n < 0:
        raise SamplingError("sample size must be non-negative")
    if total == 0:
        return {label: 0 for label in counts}
    # exact quotas: float remainders would break genuine ties (e.g. 46/3 vs 130/3)
    quotas = {label: Fraction(n * count, total) for label, count in counts.items()}
    alloc = {label: math.floor(q) for label, q in quotas.items()}
    remaining = n - sum(alloc.values())
    by_remainder = sorted(
        counts,
        key=lambda label: (-(quotas[label] - alloc[label]), CLASS_ORDER.index(label)),
    )
    for label in by_remainder[:remaining]:
        alloc[label] += 1
    return alloc


def _draw(
    corpus: Corpus,
    groups: dict[PolarityLabel, list[int]],
    alloc: dict[PolarityLabel, int],
    rng: random.Random,
) -> Corpus:
    """Select alloc[c] documents per class via shuffle-take-first-k, keeping corpus
    order. Shuffles the lists in ``groups`` in place."""
    chosen: list[int] = []
    for label in CLASS_ORDER:
        k = alloc.get(label, 0)
        pool = groups[label]
        if k == 0:
            continue
        if k >= len(pool):
            chosen.extend(pool)
            continue
        rng.shuffle(pool)
        chosen.extend(pool[:k])
    documents = corpus.documents
    return Corpus(documents=tuple(documents[index] for index in sorted(chosen)))


def stratified_sample(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Random sample of n documents preserving the corpus's class proportions.

    Deterministic for a fixed (corpus, n, seed); output order is the original
    corpus order filtered to the selection.
    """
    groups = _indices_by_class(corpus)
    alloc = apportion({label: len(pool) for label, pool in groups.items()}, n)
    return _draw(corpus, groups, alloc, random.Random(seed))


def sample_with_minority_retention(
    corpus: Corpus, n: int, retained_class: PolarityLabel, seed: int
) -> Corpus:
    """Stratified sample that additionally keeps every document of one class.

    The proportional allocation is computed as in :func:`stratified_sample`;
    the retained class is then raised to its full population count. Output size
    is n plus however much the retention exceeds the proportional share.
    """
    retained_class = PolarityLabel(retained_class)
    groups = _indices_by_class(corpus)
    alloc = apportion({label: len(pool) for label, pool in groups.items()}, n)
    alloc[retained_class] = len(groups[retained_class])
    return _draw(corpus, groups, alloc, random.Random(seed))
