from __future__ import annotations

import tracemalloc

import numpy as np

from asdkit.cli import train_machine
from asdkit.config import RunConfig
from asdkit.synth import SynthCounts, SynthSpec, synth_generate


def test_train_machine_peak_below_one_float64_feature_copy(tmp_path):
    # 10 s clips give K = 307 vectors of D = 64 * 5 = 320 per clip; with 66
    # clips the per-clip and D x D transients stay well below the feature
    # matrix itself.
    spec = SynthSpec(clip_seconds=10.0, machines=["fan"],
                     counts=SynthCounts(source_train=60, target_train=6,
                                        test_normal_source=0, test_normal_target=0,
                                        test_anomaly_source=0, test_anomaly_target=0,
                                        supplementary=0))
    synth_generate(spec, tmp_path / "data", seed=3)
    config = RunConfig.from_dict({"features": {"n_mels": 64, "context_frames": 5},
                                  "model": {"layer_dims": [320, 32, 8, 32, 320]},
                                  "train": {"epochs": 1}})
    f = config.features
    k = f.vector_count(int(spec.clip_seconds * f.sample_rate_hz))
    float64_copy = 66 * k * f.feature_dim * np.dtype(np.float64).itemsize

    tracemalloc.start()
    try:
        paths = train_machine(config, tmp_path / "data", "fan", tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert paths["cov"].exists()
    assert peak < float64_copy, (peak / 2**20, float64_copy / 2**20)
