"""Shared fixtures for the test suite."""

from __future__ import annotations

import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# One profile for every Hypothesis property in the suite: examples are
# derived from each test's own source (``derandomize``), so two runs draw
# the same inputs and a failure reproduces as is; no example database is
# kept; and no per-example deadline, since wall-clock budgets flake on a
# loaded host.  Tests set only ``max_examples``.
settings.register_profile("repro", derandomize=True, database=None, deadline=None)
settings.load_profile("repro")


def pytest_configure(config) -> None:
    """Give Hypothesis a per-run home directory, removed at exit.

    Even without an example database Hypothesis memoises the constants
    it scans from local modules (during collection); this keeps that
    cache out of ``.hypothesis/`` in the working directory.
    """
    home = tempfile.TemporaryDirectory(prefix="repro-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture(autouse=True)
def _seed_global_numpy_rng(request) -> None:
    """Seed numpy's legacy global RNG per test, from the test's node id.

    Code under test that falls back to ``np.random.*`` (e.g. a module
    constructed without an explicit generator) becomes deterministic
    and independent of test execution order: every test starts from
    the same, test-specific state on every run, so no individual test
    needs an ad-hoc ``np.random.seed`` call.
    """
    np.random.seed(zlib.crc32(request.node.nodeid.encode("utf-8")) % 2**32)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_series(rng) -> np.ndarray:
    """A small (N, T, D) multivariate batch."""
    return rng.normal(size=(6, 20, 8))


def finite_difference(fn, array: np.ndarray, index: tuple, eps: float = 1e-6) -> float:
    """Central finite difference of scalar ``fn`` wrt ``array[index]``."""
    original = array[index]
    array[index] = original + eps
    plus = fn()
    array[index] = original - eps
    minus = fn()
    array[index] = original
    return (plus - minus) / (2 * eps)
