from __future__ import annotations

import copy

import numpy as np
import pytest

from asdkit import _pool
from asdkit.cli import train_machine
from asdkit.config import RunConfig
from asdkit.synth import SynthCounts, SynthSpec, synth_generate

SMALL_SEED = 11
SMALL_MACHINE = "pumpette"


def small_spec() -> SynthSpec:
    # 10 normal test clips total so floor(0.1 * 10) = 1 keeps pAUC defined
    return SynthSpec(
        clip_seconds=1.0,
        machines=[SMALL_MACHINE],
        counts=SynthCounts(source_train=12, target_train=3,
                           test_normal_source=5, test_normal_target=5,
                           test_anomaly_source=4, test_anomaly_target=4,
                           supplementary=2))


def fast_config(seed: int = 5) -> RunConfig:
    return RunConfig.from_dict({
        "seed": seed,
        "features": {"n_mels": 32, "context_frames": 5},
        "train": {"epochs": 8, "batch_size": 128},
    })


@pytest.fixture(scope="session")
def _small_dataset_session(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_data")
    manifest = synth_generate(small_spec(), root, seed=SMALL_SEED)
    return root, manifest


@pytest.fixture
def small_dataset(_small_dataset_session):
    # fresh manifest copy per test; attribute merges mutate records in place
    root, manifest = _small_dataset_session
    return root, copy.deepcopy(manifest)


@pytest.fixture(scope="session")
def trained_artifacts(_small_dataset_session, tmp_path_factory):
    root, _ = _small_dataset_session
    out = tmp_path_factory.mktemp("small_model")
    config = fast_config()
    paths = train_machine(config, root, SMALL_MACHINE, out)
    return config, paths, root


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def force_workers(monkeypatch):
    """force_workers(n) runs every pool pass on n workers (1: in-process).

    Test data is far below the audio a pool needs, so without this every
    pass stays in-process.
    """
    def force(n: int) -> None:
        monkeypatch.setattr(_pool, "worker_count", lambda items, audio_s: n)
    return force
