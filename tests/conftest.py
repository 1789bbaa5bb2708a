from __future__ import annotations

import numpy as np
import pytest

from asdkit import _pool
from asdkit.cli import train_machine
from asdkit.config import RunConfig
from asdkit.model import default_layer_dims
from asdkit.scoring import DomainCovariances
from asdkit.synth import SynthCounts, SynthSpec, synth_generate

SMALL_SEED = 11
SMALL_MACHINE = "pumpette"
# the paper's architecture at its 640-dim input (5 frames x 128 mels)
DEFAULT_LAYER_DIMS = default_layer_dims(640)


# YAML whose seed is seven nested lists, each of nine aliases of the one
# before: 229 bytes that spell 9**7 zeros (17 MB) when the value is quoted in full
ALIAS_BOMB = "seed: [&a [0,0,0,0,0,0,0,0,0]" + "".join(
    f", &{b} [{','.join([f'*{a}'] * 9)}]" for a, b in zip("abcdef", "bcdefg")) + "]\n"
# bytes an error message may take on stderr
MESSAGE_LIMIT = 1024


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


def identity_covariances(dim: int) -> DomainCovariances:
    """Identity inverse covariances; makes the mahalanobis mode equal the mse mode."""
    return DomainCovariances(whitening=np.eye(dim), target_scale=np.ones(dim),
                             ridge=0.0, n_source=0, n_target=0)


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    # one tree and manifest for the session: tests that change clips copy the tree
    root = tmp_path_factory.mktemp("small_data")
    manifest = synth_generate(small_spec(), root, seed=SMALL_SEED)
    return root, manifest


@pytest.fixture(scope="session")
def trained_artifacts(small_dataset, tmp_path_factory):
    root, _ = small_dataset
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
