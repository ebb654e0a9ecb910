"""Shared fixtures: tiny datasets, deterministic RNGs, quiet framework logs."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.data import (
    ClassificationDataset,
    CohortSpec,
    EhrTokenizer,
    MlmCollator,
    SequenceDataset,
    encode_cohort,
    generate_cohort,
    train_valid_split,
)
from repro.flare import set_console_level
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture(autouse=True, scope="session")
def _quiet_flare_logs():
    set_console_level(logging.ERROR)
    yield


@pytest.fixture()
def process_registry() -> MetricsRegistry:
    """An enabled process-wide metrics registry for one test."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_cohort():
    return generate_cohort(CohortSpec(n_patients=240, seed=5))


@pytest.fixture(scope="session")
def tiny_tokenizer(tiny_cohort):
    return EhrTokenizer(tiny_cohort.vocab, max_len=24)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_cohort, tiny_tokenizer) -> ClassificationDataset:
    return encode_cohort(tiny_cohort, tiny_tokenizer)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    train_idx, valid_idx = train_valid_split(len(tiny_dataset), 0.25, seed=5)
    return tiny_dataset.subset(train_idx), tiny_dataset.subset(valid_idx)


@pytest.fixture(scope="session")
def tiny_sequences(tiny_dataset) -> SequenceDataset:
    return SequenceDataset(tiny_dataset.input_ids, tiny_dataset.attention_mask)


@pytest.fixture(scope="session")
def tiny_collator(tiny_cohort) -> MlmCollator:
    return MlmCollator(tiny_cohort.vocab, seed=5)


@pytest.fixture(scope="session")
def vocab_size(tiny_cohort) -> int:
    return len(tiny_cohort.vocab)
