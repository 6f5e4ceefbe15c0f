"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import SyntheticRCTConfig, generate_rct
from repro.runtime import ProcessBackend


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def easy_rct():
    """A small, high-SNR RCT sample with strong heterogeneity.

    Base rates and effects are large so shallow models can learn the
    ranking from ~2000 rows — keeps model tests fast and reliable.
    """
    gen = np.random.default_rng(777)
    n, d = 2400, 6
    x = gen.normal(size=(n, d))
    config = SyntheticRCTConfig(
        roi_low=0.05,
        roi_high=0.95,
        cost_low=0.2,
        cost_high=0.5,
        base_cost_rate=0.4,
        base_revenue_rate=0.3,
        p_treat=0.5,
        noise_scale=0.1,
    )
    return generate_rct(n, x, config, random_state=gen, name="easy")


@pytest.fixture
def tiny_rct():
    """A very small RCT sample for shape/error-path tests."""
    gen = np.random.default_rng(99)
    n, d = 300, 4
    x = gen.normal(size=(n, d))
    config = SyntheticRCTConfig()
    return generate_rct(n, x, config, random_state=gen, name="tiny")


@pytest.fixture(scope="module")
def process_pool():
    """A 2-worker process pool shared by one test module's tests."""
    with ProcessBackend(2) as backend:
        yield backend
