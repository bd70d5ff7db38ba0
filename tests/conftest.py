"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng2() -> np.random.Generator:
    """A second independent stream for tests needing two."""
    return np.random.default_rng(67890)


#: The suites the sanitized-kernel CI job runs (``pytest -m
#: asan_kernels`` with ``_kernels.c`` built under ASan+UBSan): the
#: kernel, FFT-plan, executor, fused-operator, nn-layer, rollout,
#: session, tile-invariance, row-driver, step-driver, row-table and
#: plane-driver suites, each of which drives the C kernels.  Listed
#: here only; CI selects them with ``-m asan_kernels``.
ASAN_KERNEL_SUITES = frozenset({
    "test_ckernels.py",
    "test_fft_compiled.py",
    "test_fft_real_compiled.py",
    "test_core_compiled.py",
    "test_nn_symmetric.py",
    "test_api_rollout.py",
    "test_api_session.py",
    "test_core_fused.py",
    "test_nn_modules.py",
    "test_tile_invariance.py",
    "test_real_row_drivers.py",
    "test_spectral_steps.py",
    "test_row_tables.py",
    "test_sym2d_drivers.py",
})


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "asan_kernels: a suite the sanitized C-kernel CI job runs",
    )


def pytest_collection_modifyitems(items) -> None:
    for item in items:
        if item.path.name in ASAN_KERNEL_SUITES:
            item.add_marker(pytest.mark.asan_kernels)
