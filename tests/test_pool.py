"""The fork pool that synth, train and score run their per-clip passes on."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from asdkit import _pool
from asdkit.cli import EXIT_DATA, EXIT_OK, main
from asdkit.config import RunConfig
from asdkit.dataset import load_manifest
from asdkit.dsp import AudioClip, FeatureConfig, extract_features
from asdkit.model import default_layer_dims, init_model, save_model
from asdkit.scoring import save_thresholds

from conftest import SMALL_MACHINE, fast_config

SRC = Path(__file__).parents[1] / "src"
ARTIFACTS = ("model.aem", "covariances.cov", "thresholds.json", "loss_history.csv")


def _env_with_src() -> dict:
    """This environment, with the package source first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("cpus, items, audio_s, expected", [
    (2, 200, 2000.0, 2),  # the official test layout: 200 clips of 10 s
    (2, 40, 80.0, 1),  # a desk-scale score pass stays in-process
    (4, 110, 220.0, 1),
    (4, 110, 240.0, 2),
    (4, 3, 1e6, 3),  # never more workers than items
    (1, 200, 2000.0, 1),
])
def test_worker_count_from_cpus_items_and_audio(monkeypatch, cpus, items, audio_s,
                                                expected):
    monkeypatch.setattr(_pool, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(_pool, "_blas_set_threads", lambda: lambda n: None)
    assert _pool.worker_count(items, audio_s) == expected


def test_worker_count_is_one_when_blas_cannot_be_pinned(monkeypatch):
    monkeypatch.setattr(_pool, "_cpu_count", lambda: 8)
    monkeypatch.setattr(_pool, "_blas_set_threads", lambda: None)
    assert _pool.worker_count(1000, 1e6) == 1


def _blas_threads(_item) -> int:
    get = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                  _pool._blas_set_threads().__name__.replace("_set_", "_get_"))
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def test_features_are_the_same_bytes_at_one_and_two_blas_threads():
    set_threads = _pool._blas_set_threads()
    if set_threads is None:
        pytest.skip("numpy's BLAS has no set-threads entry point")
    rng = np.random.default_rng(8)
    clips = [AudioClip(0.1 * rng.standard_normal(160000), 16000) for _ in range(3)]
    before = _blas_threads(None)
    features = {}
    try:
        for threads in (1, 2):
            set_threads(threads)
            features[threads] = [extract_features(clip, FeatureConfig()).tobytes()
                                 for clip in clips]
    finally:
        set_threads(before)
    assert features[1] == features[2]


def test_importing_the_cli_leaves_the_pool_machinery_unloaded():
    script = ("import sys, asdkit.cli\n"
              "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_env_with_src(), check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_workers_run_blas_on_one_thread():
    if _pool._blas_set_threads() is None:
        pytest.skip("numpy's BLAS has no set-threads entry point")
    assert _pool.run(_blas_threads, range(4), 2) == [1, 1, 1, 1]
    assert multiprocessing.active_children() == []


def test_run_keeps_item_order_and_raises_the_first_error():
    assert _pool.run(lambda i: i * i, range(7), 3) == [i * i for i in range(7)]

    def fail_on_odd(i):
        if i % 2:
            raise ValueError(f"item {i}")
        return i
    with pytest.raises(ValueError, match="item 1"):
        _pool.run(fail_on_odd, range(6), 2)
    assert multiprocessing.active_children() == []


def score(paths, root, mode, out) -> bytes:
    assert main(["score", "--model", str(paths["model"].parent), "--data-root", str(root),
                 "--machine", SMALL_MACHINE, "--mode", mode, "--out", str(out)]) == EXIT_OK
    return Path(out).read_bytes()


@pytest.mark.parametrize("mode", ["mse", "mahalanobis"])
def test_pooled_scores_equal_for_any_worker_count_and_one_blas_thread(
        trained_artifacts, tmp_path, force_workers, mode):
    # pooled workers run BLAS on one thread, the in-process run (1) at the default
    _, paths, root = trained_artifacts
    scores = {}
    for workers in (1, 2, 3):
        force_workers(workers)
        scores[workers] = score(paths, root, mode, tmp_path / f"w{workers}.csv")
    assert multiprocessing.active_children() == []
    assert scores[1] == scores[2] == scores[3]


def test_row_errors_from_workers_are_listed_in_clip_order(trained_artifacts, tmp_path,
                                                         force_workers):
    _, paths, small_root = trained_artifacts
    root = tmp_path / "data"
    shutil.copytree(small_root, root)
    tests = sorted(r.path for r in load_manifest(root / "manifest.csv").select(
        machine=SMALL_MACHINE, split="test"))
    missing, overflowing = tests[3], tests[11]
    (root / missing).unlink()
    wavfile.write(root / overflowing, 16000, np.full(16000, 1e200))
    outputs = {}
    for workers in (1, 2, 3):
        force_workers(workers)
        out = tmp_path / f"w{workers}.csv"
        score(paths, root, "mse", out)
        outputs[workers] = Path(f"{out}.errors.csv").read_text()
    assert multiprocessing.active_children() == []
    assert not list(tmp_path.rglob("*.tmp"))
    assert outputs[1] == outputs[2] == outputs[3]
    lines = outputs[2].splitlines()
    assert len(lines) == 3
    assert lines[1].startswith(f"{missing},") and "not a readable WAV file" in lines[1]
    assert lines[2].startswith(f"{overflowing},") and "non-finite" in lines[2]


def test_pooled_score_that_scores_nothing_exits_data(trained_artifacts, tmp_path,
                                                     capsys, force_workers):
    _, paths, small_root = trained_artifacts
    root = tmp_path / "data"
    shutil.copytree(small_root, root)
    tests = sorted(r.path for r in load_manifest(root / "manifest.csv").select(
        machine=SMALL_MACHINE, split="test"))
    for path in tests:
        (root / path).unlink()
    force_workers(2)
    out = tmp_path / "scores.csv"
    assert main(["score", "--model", str(paths["model"].parent), "--data-root", str(root),
                 "--machine", SMALL_MACHINE, "--mode", "mse", "--out", str(out)]) == EXIT_DATA
    assert "could be scored" in capsys.readouterr().err
    errors = Path(f"{out}.errors.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in errors[1:]] == tests
    assert not out.exists()
    assert not list(tmp_path.rglob("*.tmp"))
    assert multiprocessing.active_children() == []


def train(root, out) -> int:
    cfg = out.parent / f"{out.name}.yaml"
    fast_config().echo(cfg)
    return main(["train", "--config", str(cfg), "--data-root", str(root),
                 "--machine", SMALL_MACHINE, "--out", str(out)])


def test_pooled_training_writes_the_in_process_artifacts(small_dataset, tmp_path,
                                                         force_workers):
    blobs = {}
    for workers in (1, 2):
        force_workers(workers)
        out = tmp_path / f"w{workers}"
        assert train(small_dataset[0], out) == EXIT_OK
        blobs[workers] = [(out / name).read_bytes() for name in ARTIFACTS]
    assert blobs[1] == blobs[2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_training_log_mel_exits_data_naming_the_clip(
        small_dataset, tmp_path, capsys, force_workers, workers):
    force_workers(workers)
    root = tmp_path / "data"
    shutil.copytree(small_dataset[0], root)
    victim = sorted(r.path for r in small_dataset[1].select(split="train"))[-1]
    wavfile.write(root / victim, 16000, np.full(16000, 1e200))
    assert train(root, tmp_path / "out") == EXIT_DATA
    err = capsys.readouterr().err
    assert "non-finite" in err and victim in err
    assert not (tmp_path / "out" / "model.aem").exists()
    assert not list(tmp_path.rglob("*.tmp"))
    assert multiprocessing.active_children() == []


# per clip in a fresh score process on 2 workers scoring 40 clips of 10 s:
# about 2,900 when each clip's temporaries are mapped and unmapped again,
# about 330 with the workers' heap kept (mostly the workers' own start-up)
MINOR_FAULTS_PER_CLIP = 1000
FAULT_CLIPS = 40


def test_pool_workers_reuse_their_heap_across_clips(tmp_path):
    if _pool._mallopt() is None:
        pytest.skip("the C library has no mallopt")
    rng = np.random.default_rng(0)
    test_dir = tmp_path / "data" / "valve" / "test"
    test_dir.mkdir(parents=True)
    for i in range(FAULT_CLIPS):
        domain, condition = ("source", "target")[i % 2], ("normal", "anomaly")[i // 2 % 2]
        wavfile.write(test_dir / f"section_00_{domain}_test_{condition}_{i:04d}.wav", 16000,
                      (3000 * rng.standard_normal(160000)).astype(np.int16))
    config = RunConfig.from_dict({"seed": 0})
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    save_model(init_model(default_layer_dims(config.features.feature_dim), seed=0),
               model_dir / "model.aem")
    save_thresholds({"mse": 1.0}, model_dir / "thresholds.json")
    config.echo(model_dir / "config.yaml")
    script = ("import resource, sys\n"
              "from asdkit import _pool\n"
              "_pool.worker_count = lambda items, audio_s: 2\n"
              "from asdkit.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)\n")
    done = subprocess.run([sys.executable, "-c", script, "score", "--model", str(model_dir),
                           "--data-root", str(tmp_path / "data"), "--machine", "valve",
                           "--mode", "mse", "--out", str(tmp_path / "scores.csv")],
                          env=_env_with_src(), check=True, capture_output=True, text=True,
                          timeout=120)
    faults = int(done.stdout.split()[-1])
    assert faults / FAULT_CLIPS < MINOR_FAULTS_PER_CLIP, faults
