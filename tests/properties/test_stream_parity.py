"""The streaming equivalence contract, property-tested.

For generated ``(length, window, stride, D)`` geometries, a
:class:`~repro.stream.StreamingClassifier` fed **one sample at a
time** must produce logits bit-identical to the offline
``pipeline.predict_logits(windows, batch_size=width)`` on the same
windows — in both eager and compiled execution — and push granularity
(singles, chunks of 7, all-at-once) must be invisible in the bits.

Pipelines are fitted once per channel count; the property then draws
geometries and data seeds.  Bit-identity (``np.array_equal``, not
allclose) is the whole point: the fixed-width padded execution
discipline makes streaming a *replay* of the offline recipe, not an
approximation of it.  Bit-identity alone can miss a stream that runs
at the wrong width where the host BLAS happens to round two widths
alike, so every encoder and head call is also checked to run at
exactly ``WIDTH`` rows.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters import make_adapter
from repro.models import load_pretrained
from repro.stream import StreamingClassifier
from repro.stream.windows import window_batch, window_starts
from repro.training import AdapterPipeline, TrainConfig

WIDTH = 8  # fixed execution width shared by streaming and offline


def _fit_pipeline(channels: int) -> AdapterPipeline:
    rng = np.random.default_rng(100 + channels)
    x = rng.normal(size=(16, 24, channels))
    y = rng.integers(0, 3, size=16)
    pipeline = AdapterPipeline(
        load_pretrained("moment-tiny", seed=0),
        make_adapter("pca", 2, seed=0),
        3,
        seed=0,
    )
    pipeline.fit(x, y, config=TrainConfig(epochs=1, batch_size=8, seed=0))
    return pipeline


@pytest.fixture(scope="module")
def pipelines():
    return {d: _fit_pipeline(d) for d in (3, 6)}


def _series(data_seed: int, length: int, channels: int) -> np.ndarray:
    return np.random.default_rng(data_seed).normal(size=(length, channels))


@contextlib.contextmanager
def _at_width(pipeline):
    """Assert every encoder and head call inside the block sees WIDTH rows."""
    rows = []

    def spy(method):
        def counted(x, *args, **kwargs):
            rows.append(len(x))
            return method(x, *args, **kwargs)

        return counted

    pipeline.model.encode = spy(pipeline.model.encode)
    pipeline.head.forward = spy(pipeline.head.forward)
    try:
        yield
    finally:
        del pipeline.model.encode, pipeline.head.forward
    assert rows and set(rows) == {WIDTH}, f"ran at widths {sorted(set(rows))}"


def _offline_logits(pipeline, x, window, stride, compiled):
    starts = window_starts(len(x), window, stride)
    windows = window_batch(x, starts, window)
    with _at_width(pipeline):
        return pipeline.predict_logits(windows, batch_size=WIDTH, compiled=compiled)


def _stream_logits(pipeline, x, window, stride, compiled, chunk=1):
    stream = StreamingClassifier(
        pipeline, window, stride, batch_size=WIDTH, compiled=compiled
    )
    with _at_width(pipeline):
        if chunk is None:
            stream.push(x)
        else:
            for lo in range(0, len(x), chunk):
                stream.push(x[lo : lo + chunk])
    return np.stack([p.logits for p in stream.emitted], axis=0)


class TestStreamOfflineParity:
    def test_sample_at_a_time_matches_offline_compiled(self, pipelines):
        @settings(max_examples=5)
        @given(
            channels=st.sampled_from((3, 6)),
            window=st.integers(6, 14),
            stride_raw=st.integers(1, 14),
            extra=st.integers(0, 24),
            data_seed=st.integers(0, 10_000),
        )
        def property_(channels, window, stride_raw, extra, data_seed):
            stride = 1 + stride_raw % window
            x = _series(data_seed, window + extra, channels)
            pipeline = pipelines[channels]
            offline = _offline_logits(pipeline, x, window, stride, compiled=True)
            streamed = _stream_logits(pipeline, x, window, stride, compiled=True)
            assert streamed.shape == offline.shape
            np.testing.assert_array_equal(streamed, offline)

        property_()

    def test_sample_at_a_time_matches_offline_eager(self, pipelines):
        @settings(max_examples=3)
        @given(
            channels=st.sampled_from((3, 6)),
            window=st.integers(6, 12),
            stride_raw=st.integers(1, 12),
            extra=st.integers(0, 16),
            data_seed=st.integers(0, 10_000),
        )
        def property_(channels, window, stride_raw, extra, data_seed):
            stride = 1 + stride_raw % window
            x = _series(data_seed, window + extra, channels)
            pipeline = pipelines[channels]
            offline = _offline_logits(pipeline, x, window, stride, compiled=False)
            streamed = _stream_logits(pipeline, x, window, stride, compiled=False)
            np.testing.assert_array_equal(streamed, offline)

        property_()

    def test_eager_and_compiled_streams_agree(self, pipelines):
        x = _series(42, 40, 6)
        eager = _stream_logits(pipelines[6], x, 10, 5, compiled=False)
        compiled = _stream_logits(pipelines[6], x, 10, 5, compiled=True)
        np.testing.assert_array_equal(eager, compiled)


class TestChunkingInvariance:
    def test_push_granularity_is_invisible(self, pipelines):
        @settings(max_examples=4)
        @given(
            channels=st.sampled_from((3, 6)),
            window=st.integers(6, 14),
            stride_raw=st.integers(1, 14),
            extra=st.integers(4, 24),
            data_seed=st.integers(0, 10_000),
        )
        def property_(channels, window, stride_raw, extra, data_seed):
            stride = 1 + stride_raw % window
            x = _series(data_seed, window + extra, channels)
            pipeline = pipelines[channels]
            singles = _stream_logits(pipeline, x, window, stride, True, chunk=1)
            sevens = _stream_logits(pipeline, x, window, stride, True, chunk=7)
            whole = _stream_logits(pipeline, x, window, stride, True, chunk=None)
            np.testing.assert_array_equal(singles, sevens)
            np.testing.assert_array_equal(singles, whole)

        property_()

    def test_emission_metadata_matches_geometry(self, pipelines):
        x = _series(7, 61, 3)
        stream = StreamingClassifier(pipelines[3], 12, 4, batch_size=WIDTH)
        for sample in x:
            stream.push(sample)
        starts = window_starts(len(x), 12, 4)
        assert [p.start for p in stream.emitted] == list(starts)
        assert [p.window_index for p in stream.emitted] == list(range(len(starts)))
