from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from asdkit import _pool
from asdkit.cli import train_machine
from asdkit.config import RunConfig
from asdkit.dsp import SAMPLE_RATE_HZ
from asdkit.synth import SynthCounts, SynthSpec, synth_generate

N_CLIPS = 66


@pytest.fixture(scope="module")
def traced_training(tmp_path_factory):
    """tracemalloc peak of one train_machine run, and the stacked vector count.

    10 s clips give K = 307 vectors of D = 64 * 5 = 320 per clip; with 66
    clips the per-clip and D x D transients stay well below the stacked
    feature matrix itself. The run is held in-process: tracemalloc sees
    neither pool workers nor the shared-memory frame store a pool fills.
    """
    tmp_path = tmp_path_factory.mktemp("memory")
    spec = SynthSpec(clip_seconds=10.0, machines=["fan"],
                     counts=SynthCounts(source_train=60, target_train=6,
                                        test_normal_source=0, test_normal_target=0,
                                        test_anomaly_source=0, test_anomaly_target=0,
                                        supplementary=0))
    synth_generate(spec, tmp_path / "data", seed=3)
    config = RunConfig.from_dict({"features": {"n_mels": 64, "context_frames": 5},
                                  "train": {"epochs": 1}})
    f = config.features
    n_vectors = N_CLIPS * f.vector_count(int(spec.clip_seconds * SAMPLE_RATE_HZ))

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "worker_count", lambda items, audio_s: 1)
            paths = train_machine(config, tmp_path / "data", "fan", tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert paths["cov"].exists()
    return peak, n_vectors * f.feature_dim


def test_train_machine_peak_below_one_float64_feature_copy(traced_training):
    peak, n_values = traced_training
    float64_copy = n_values * np.dtype(np.float64).itemsize
    assert peak < float64_copy, (peak / 2**20, float64_copy / 2**20)


def test_train_machine_peak_below_one_float32_stacked_store(traced_training):
    # training reads log-mel frames, each stored once, and stacks vectors only
    # per batch and per clip: no (N, D) float32 store of stacked vectors
    peak, n_values = traced_training
    float32_store = n_values * np.dtype(np.float32).itemsize
    assert peak < float32_store, (peak / 2**20, float32_store / 2**20)
