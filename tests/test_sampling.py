from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentimatch import (
    SampleSpec,
    SamplingError,
    min_sample_size,
    sample_with_minority_retention,
    stratified_sample,
)
from sentimatch.corpus import CLASS_ORDER
from sentimatch.sampling import apportion
from conftest import NEG, NEU, POS, labeled_corpus, make_corpus
from _oracles import largest_remainder_oracle, stratified_sample_oracle


@pytest.mark.parametrize(
    "population,expected",
    [(1600, 310), (10669, 371), (8095, 367), (10705, 371)],
)
def test_min_sample_size_reproduces_published_pool_sizes(population, expected):
    assert min_sample_size(SampleSpec(population_size=population)) == expected


def test_min_sample_size_app_population_without_retention():
    assert min_sample_size(SampleSpec(population_size=341)) == 181


def test_min_sample_size_clamped_to_population():
    assert min_sample_size(SampleSpec(population_size=10)) == 10
    assert min_sample_size(SampleSpec(population_size=1)) == 1


def test_min_sample_size_converges_to_385():
    assert min_sample_size(SampleSpec(population_size=10**9)) == 385


def test_min_sample_size_monotone_in_population():
    previous = 0
    for population in range(1, 3000, 7):
        current = min_sample_size(SampleSpec(population_size=population))
        assert current >= previous
        previous = current


def test_default_z_matches_95_percent_quantile():
    spec = SampleSpec(population_size=100)
    assert spec.z == pytest.approx(1.959964, abs=1e-6)


def test_explicit_z_overrides_confidence():
    loose = SampleSpec(population_size=10000, z=1.0)
    assert min_sample_size(loose) < min_sample_size(SampleSpec(population_size=10000))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"population_size": 0},
        {"population_size": 10, "margin_of_error": 0.0},
        {"population_size": 10, "margin_of_error": 1.0},
        {"population_size": 10, "expected_proportion": 0.0},
        {"population_size": 10, "confidence": 1.0},
        {"population_size": 10, "z": -1.0},
    ],
)
def test_sample_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SampleSpec(**kwargs)


def test_apportion_exact_proportionality():
    assert apportion({NEG: 50, NEU: 30, POS: 20}, 10) == {NEG: 5, NEU: 3, POS: 2}


def test_apportion_remainder_tie_breaks_in_class_order():
    assert apportion({NEG: 1, NEU: 1, POS: 1}, 2) == {NEG: 1, NEU: 1, POS: 0}


def test_apportion_matches_oracle_and_stays_within_one_document():
    rng = random.Random(23)
    for _ in range(300):
        counts = {NEG: rng.randint(0, 80), NEU: rng.randint(0, 80), POS: rng.randint(0, 80)}
        total = sum(counts.values())
        if total == 0:
            continue
        n = rng.randint(0, total)
        alloc = apportion(counts, n)
        assert alloc == largest_remainder_oracle(counts, n)
        assert sum(alloc.values()) == n
        for label, count in counts.items():
            assert 0 <= alloc[label] <= count
            assert abs(alloc[label] - n * count / total) < 1.0


def test_stratified_sample_counts_and_order():
    corpus = labeled_corpus(50, 30, 20)
    sample = stratified_sample(corpus, 10, seed=7)
    labels = [doc.label for doc in sample]
    assert labels.count(NEG) == 5 and labels.count(NEU) == 3 and labels.count(POS) == 2
    positions = [int(doc.id[1:]) for doc in sample]
    assert positions == sorted(positions)  # original order, filtered


def test_stratified_sample_deterministic_for_seed():
    corpus = labeled_corpus(40, 35, 25)
    first = stratified_sample(corpus, 37, seed=99)
    second = stratified_sample(corpus, 37, seed=99)
    assert first == second
    different = stratified_sample(corpus, 37, seed=100)
    assert different != first  # overwhelmingly likely for this size


def test_stratified_sample_full_population_is_identity():
    corpus = labeled_corpus(5, 5, 5)
    assert stratified_sample(corpus, 15, seed=1) == corpus


def test_stratified_sample_rejects_unlabeled():
    corpus = make_corpus([NEG, None, POS])
    with pytest.raises(SamplingError, match="no polarity label"):
        stratified_sample(corpus, 2, seed=0)


def test_stratified_sample_rejects_oversized_n():
    corpus = labeled_corpus(2, 2, 2)
    with pytest.raises(SamplingError, match="exceeds population"):
        stratified_sample(corpus, 7, seed=0)


def test_minority_retention_app_row():
    # App-like pool: 130 negative, 25 neutral, 186 positive; n = 181
    corpus = labeled_corpus(130, 25, 186)
    sample = sample_with_minority_retention(corpus, 181, NEU, seed=42)
    labels = [doc.label for doc in sample]
    assert labels.count(NEU) == 25  # every neutral document retained
    assert labels.count(NEG) == 69
    assert labels.count(POS) == 99
    assert len(sample) == 193  # 181 + (25 - 13 proportional neutrals)


def test_minority_retention_empty_class_equals_stratified():
    corpus = labeled_corpus(30, 0, 20)
    plain = stratified_sample(corpus, 10, seed=5)
    retained = sample_with_minority_retention(corpus, 10, NEU, seed=5)
    assert retained == plain


def test_minority_retention_full_share_keeps_size_n():
    # proportional share of each class equals its count when n == population
    corpus = labeled_corpus(4, 4, 4)
    sample = sample_with_minority_retention(corpus, 12, NEU, seed=3)
    assert len(sample) == 12
    # and with exact proportional quotas below the population
    corpus = labeled_corpus(10, 10, 10)
    sample = sample_with_minority_retention(corpus, 15, POS, seed=3)
    assert [doc.label for doc in sample].count(POS) == 10
    assert len(sample) == 15 + (10 - 5)


def test_minority_retention_deterministic():
    corpus = labeled_corpus(130, 25, 186)
    runs = {
        tuple(doc.id for doc in sample_with_minority_retention(corpus, 181, NEU, seed=8))
        for _ in range(3)
    }
    assert len(runs) == 1


def test_stratified_proportions_within_one_document():
    rng = random.Random(4)
    for _ in range(40):
        counts = [rng.randint(1, 60) for _ in range(3)]
        corpus = labeled_corpus(*counts)
        n = rng.randint(1, sum(counts))
        sample = stratified_sample(corpus, n, seed=rng.randint(0, 10**6))
        labels = [doc.label for doc in sample]
        for label, count in zip((NEG, NEU, POS), counts):
            assert abs(labels.count(label) - n * count / sum(counts)) < 1.0



@st.composite
def sampling_cases(draw, labels=st.sampled_from(CLASS_ORDER)):
    """A labeled corpus, a sample size no larger than it, and a seed."""
    corpus = make_corpus(draw(st.lists(labels, min_size=1, max_size=80)))
    return corpus, draw(st.integers(0, len(corpus))), draw(st.integers(0, 2**32 - 1))


@given(sampling_cases())
def test_stratified_sample_properties(case):
    corpus, n, seed = case
    sample = stratified_sample(corpus, n, seed)
    assert len(sample) == n
    counts = {label: sum(doc.label is label for doc in corpus) for label in CLASS_ORDER}
    assert {
        label: sum(doc.label is label for doc in sample) for label in CLASS_ORDER
    } == largest_remainder_oracle(counts, n)
    positions = {doc.id: index for index, doc in enumerate(corpus)}
    order = [positions[doc.id] for doc in sample]
    assert order == sorted(order)
    assert stratified_sample(corpus, n, seed) == sample


@given(sampling_cases(), st.sampled_from((None, *CLASS_ORDER)))
def test_sampling_equals_the_two_pass_oracle(case, retained):
    corpus, n, seed = case
    if retained is None:
        sample = stratified_sample(corpus, n, seed)
    else:
        sample = sample_with_minority_retention(corpus, n, retained, seed)
    assert sample == stratified_sample_oracle(corpus, n, seed, retained)


@given(sampling_cases(st.sampled_from((*CLASS_ORDER, None))))
def test_unlabeled_document_error_equals_the_oracle(case):
    corpus, n, seed = case
    try:
        expected = stratified_sample_oracle(corpus, n, seed)
    except SamplingError as exc:
        with pytest.raises(SamplingError) as excinfo:
            stratified_sample(corpus, n, seed)
        assert str(excinfo.value) == str(exc)
    else:
        assert stratified_sample(corpus, n, seed) == expected
