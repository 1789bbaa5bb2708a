"""The traced benchmark reads work counts from asdkit calls by argument name.

Each hook in ``bench/tracing.py``'s WORK table gets the bound arguments of a
call to the asdkit function it is keyed to. These tests make one real call
to each such function and run its hook on that call's bound arguments, so a
renamed or removed parameter fails here rather than in a traced benchmark run.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from asdkit.dsp import AudioClip, FeatureConfig, stack_frames
from asdkit.model import TrainConfig, init_model

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from tracing import WORK, public_functions  # noqa: E402


def _real_calls() -> dict:
    """One (args, kwargs) per WORK key, as the pipeline makes the call."""
    rng = np.random.default_rng(0)
    model = init_model([32, 8, 32], seed=0)
    frames = rng.standard_normal((12, 8)).astype(np.float32)
    features = FeatureConfig(n_mels=8, context_frames=4)
    residuals = rng.standard_normal((6, 32))
    return {
        "dsp.extract_features": (
            (AudioClip(0.1 * rng.standard_normal(4096), 16000), features), {}),
        "model.forward": ((model, frames.reshape(3, 32)), {}),
        "model.gradient": ((model, frames.reshape(3, 32)), {}),
        "model.train": ((model, stack_frames(frames, features),
                         TrainConfig(epochs=1, batch_size=4)), {"rows": np.arange(9)}),
        "scoring.mahalanobis_frame_scores": ((residuals, np.eye(32)), {}),
    }


def test_every_hook_has_a_real_call():
    assert set(_real_calls()) == set(WORK)


@pytest.mark.parametrize("name", sorted(WORK))
def test_hook_reads_arguments_the_function_has(name):
    fn = public_functions()[name]
    args, kwargs = _real_calls()[name]
    fn(*args, **kwargs)  # the call itself is valid
    bound = inspect.signature(fn).bind(*args, **kwargs)
    counts = WORK[name](bound.arguments)
    assert counts and all(value > 0 for value in counts.values()), counts
