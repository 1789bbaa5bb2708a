from __future__ import annotations

import hashlib
import json
import multiprocessing
import re
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.io import wavfile

from asdkit import cli
from asdkit.cli import (EXIT_ARTIFACT, EXIT_CONFIG, EXIT_DATA, EXIT_MISMATCH,
                        EXIT_OK, main)
from asdkit.config import RunConfig
from asdkit.dataset import load_manifest
from asdkit.dsp import extract_features, read_wav, write_wav
from asdkit.errors import (AsdkitError, ConfigError, DatasetError, InsufficientDataError,
                           MismatchError, ModelFileError, TooShortError,
                           TrainingDivergedError, UndefinedMetricError, WavFormatError)
from asdkit.model import DEFAULT_LAYER_DIMS, init_model, load_model, save_model
from asdkit.scoring import (COV_MAGIC, MODES, THRESHOLD_PERCENTILE, identity_covariances,
                            load_covariances, load_thresholds, read_score_csv,
                            save_covariances, score_mahalanobis, score_mse,
                            write_score_csv)
from asdkit.synth import SynthCounts, SynthSpec, synth_generate

from conftest import SMALL_MACHINE, fast_config


def write_synth_spec(path: Path, spec: SynthSpec) -> Path:
    with open(path, "w") as fh:
        yaml.safe_dump(spec.to_dict(), fh)
    return path


def write_run_config(path: Path) -> Path:
    with open(path, "w") as fh:
        yaml.safe_dump(fast_config().to_dict(), fh)
    return path


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def copy_artifacts(paths, dest: Path, keys=("model", "cov", "thresholds", "config")) -> Path:
    dest.mkdir(exist_ok=True)
    for key in keys:
        (dest / paths[key].name).write_bytes(paths[key].read_bytes())
    return dest


# ---------------------------------------------------------------------------
# synth

def test_synth_command_creates_tree(tmp_path, capsys):
    spec_path = write_synth_spec(tmp_path / "spec.yaml",
                                 SynthSpec(clip_seconds=0.5,
                                           counts=SynthCounts(2, 2, 1, 1, 1, 1, 0)))
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out),
                 "--seed", "3"]) == EXIT_OK
    assert (out / "manifest.csv").exists()
    assert (out / "synth_spec.yaml").exists()  # config echo
    assert len(list(out.rglob("*.wav"))) == 8


def test_synth_command_missing_spec(tmp_path, capsys):
    rc = main(["synth", "--spec", str(tmp_path / "none.yaml"),
               "--out", str(tmp_path / "d")])
    assert rc == EXIT_CONFIG
    assert "spec not found" in capsys.readouterr().err


def test_synth_command_invalid_spec(tmp_path):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text("machines: []\n")
    assert main(["synth", "--spec", str(spec_path),
                 "--out", str(tmp_path / "d")]) == EXIT_CONFIG


@pytest.mark.parametrize("text, name", [
    ("clip_seconds: abc\n", "spec.clip_seconds"),
    ("counts: 5\n", "spec.counts"),
    ("f0_range_hz: [80.0, 220.0]\n", "unknown spec keys: ['f0_range_hz']"),
    ("harmonics_range: [3, 5]\n", "unknown spec keys: ['harmonics_range']"),
    ("counts: {source_train: 1.5}\n", "spec.counts.source_train"),
    ("machines: [unclosed\n", "spec.yaml"),
    (None, "spec.yaml"),
    ("machines: ab\n", "spec.machines"),
    ("[]\n", "spec.yaml"),
    ("machines: [fan, 3]\n", "spec.machines[1]"),
    # each name is a directory under --out
    ("machines: [fan, fan]\n", "spec.machines[1]: 'fan' must be one path component"),
    ("machines: ['../escaped']\n", "spec.machines[0]: '../escaped' must be one path"),
    ("machines: ['']\n", "spec.machines[0]: '' must be one path component"),
    ("machines: [fan, a/b]\n", "spec.machines[1]: 'a/b' must be one path component"),
    ('machines: ["a\\0b"]\n', "spec.machines[0]: 'a\\x00b' must be one path component"),
    # the manifest and the spec echo are files at the dataset root
    ("machines: [fan, manifest.csv]\n", "spec.machines[1]: 'manifest.csv' must be one path"),
    ("machines: [manifest.csv.tmp]\n", "spec.machines[0]: 'manifest.csv.tmp' must be one"),
    ("machines: [synth_spec.yaml]\n", "spec.machines[0]: 'synth_spec.yaml' must be one"),
    # floats must be finite
    ("clip_seconds: .nan\n", "spec.clip_seconds: expected float, got nan"),
    ("clip_seconds: .inf\n", "spec.clip_seconds: expected float, got inf"),
], ids=["str-float", "counts-scalar", "range-scalar", "range-length", "float-count",
        "bad-yaml", "directory", "machines-string", "not-a-mapping", "machine-not-a-string",
        "machine-twice", "machine-outside-out", "machine-empty", "machine-nested",
        "machine-nul", "machine-manifest", "machine-manifest-tmp", "machine-spec-echo",
        "clip-nan", "clip-inf"])
def test_bad_synth_spec_exits_config(tmp_path, capsys, text, name):
    spec_path = tmp_path / "spec.yaml"
    if text is None:
        spec_path.mkdir()
    else:
        spec_path.write_text(text)
    out = tmp_path / "d"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [spec_path]  # no --out, nothing beside it


# the sound-model keys a spec once set, at the values the synth still renders with
REMOVED_SYNTH_KEYS = {
    "sample_rate": 16000, "f0_range_hz": [80.0, 220.0], "harmonics_range": [3, 5],
    "am_rate_range_hz": [2.0, 8.0], "am_depth_range": [0.2, 0.5], "source_snr_db": 24.0,
    "target_snr_delta_db": -6.0, "target_f0_shift_pct": 3.0, "clicks_per_second": 4.0,
    "click_amp": 0.9, "detune_probability": 0.5, "detune_pct": 8.0}


@pytest.mark.parametrize("key", REMOVED_SYNTH_KEYS)
def test_removed_synth_key_exits_config(tmp_path, capsys, key):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump({"clip_seconds": 0.5, key: REMOVED_SYNTH_KEYS[key]}))
    out = tmp_path / "d"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
    assert f"unknown spec keys: [{key!r}]" in capsys.readouterr().err
    assert not out.exists()


def test_synth_out_that_is_a_file_exits_config(tmp_path, capsys):
    spec_path = write_synth_spec(tmp_path / "spec.yaml",
                                 SynthSpec(clip_seconds=0.5,
                                           counts=SynthCounts(2, 2, 1, 1, 1, 1, 0)))
    out = tmp_path / "data"
    out.write_text("")
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
    assert "cannot create output directory" in capsys.readouterr().err


def smoke_spec_path() -> Path:
    return Path(__file__).parents[1] / "configs" / "synth_smoke.yaml"


@pytest.mark.parametrize("workers", [1, 2])
def test_synth_split_dir_under_a_file_exits_config(tmp_path, capsys, force_workers, workers):
    force_workers(workers)
    out = tmp_path / "data"
    out.mkdir()
    (out / "pumpette").write_text("")  # the smoke spec's machine
    assert main(["synth", "--spec", str(smoke_spec_path()), "--out", str(out)]) == EXIT_CONFIG
    assert "cannot create output directory" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_synth_unwritable_wav_exits_config(tmp_path, capsys, force_workers, workers):
    force_workers(workers)
    out = tmp_path / "data"
    blocked = out / "pumpette" / "test" / "section_00_target_test_normal_0002.wav"
    blocked.mkdir(parents=True)  # a directory where a WAV goes: unwritable even as root
    assert main(["synth", "--spec", str(smoke_spec_path()), "--out", str(out)]) == EXIT_CONFIG
    assert f"cannot write {blocked}" in capsys.readouterr().err
    assert not (out / "manifest.csv").exists()
    assert not list(out.rglob("*.tmp"))
    assert multiprocessing.active_children() == []


def test_synth_command_leaves_no_worker_processes(tmp_path, force_workers):
    force_workers(2)
    assert main(["synth", "--spec", str(smoke_spec_path()),
                 "--out", str(tmp_path / "d")]) == EXIT_OK
    assert multiprocessing.active_children() == []


def test_synth_negative_seed_exits_config_before_creating_out(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["synth", "--spec", str(smoke_spec_path()), "--out", str(out),
                 "--seed", "-1"]) == EXIT_CONFIG
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_command_deterministic(tmp_path):
    spec_path = write_synth_spec(tmp_path / "spec.yaml",
                                 SynthSpec(clip_seconds=0.5,
                                           counts=SynthCounts(2, 2, 1, 1, 1, 1, 1)))
    for name in ("a", "b"):
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / name), "--seed", "5"]) == EXIT_OK
    da = tree_digest(tmp_path / "a")
    db = tree_digest(tmp_path / "b")
    # manifest paths are relative, so the bytes must agree exactly
    assert da == db


# ---------------------------------------------------------------------------
# train

def test_train_command_writes_artifacts(small_dataset, tmp_path):
    root, _ = small_dataset
    cfg = write_run_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--data-root", str(root),
                 "--machine", SMALL_MACHINE, "--out", str(out)]) == EXIT_OK
    for name in ("model.aem", "covariances.cov", "thresholds.json",
                 "loss_history.csv", "config.yaml"):
        assert (out / name).exists(), name
    echoed = yaml.safe_load((out / "config.yaml").read_text())
    assert echoed["run"]["machine"] == SMALL_MACHINE


@pytest.mark.parametrize("args, message", [
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--seed", "-2"], "seed must be >= 0, got -2"),
    ([], "unknown config keys: ['train.seed']"),  # the shuffle seed is the run seed + 1
], ids=["seed-minus-1", "seed-minus-2", "train-seed-minus-3"])
def test_train_negative_seed_exits_config_before_creating_out(small_dataset, tmp_path,
                                                             capsys, args, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({} if args else {"train": {"seed": -3}}))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--data-root", str(small_dataset[0]),
                 "--machine", SMALL_MACHINE, "--out", str(out), *args]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_command_unknown_machine(small_dataset, tmp_path):
    root, _ = small_dataset
    rc = main(["train", "--data-root", str(root), "--machine", "ghost",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


def test_score_command_unknown_machine(trained_artifacts, tmp_path, capsys):
    _, paths, root = trained_artifacts
    errors = []
    for command in (["train", "--out", str(tmp_path / "o")],
                    ["score", "--model", str(paths["model"].parent),
                     "--out", str(tmp_path / "s.csv")]):
        assert main([*command, "--data-root", str(root), "--machine", "ghost"]) == EXIT_DATA
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]  # train and score select clips the same way
    assert "machine 'ghost' not in manifest (have: [" in errors[1]
    assert list(tmp_path.iterdir()) == []


def test_train_command_rerun_is_byte_identical(small_dataset, tmp_path):
    root, _ = small_dataset
    cfg = write_run_config(tmp_path / "cfg.yaml")
    blobs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--data-root", str(root),
                     "--machine", SMALL_MACHINE, "--out", str(out)]) == EXIT_OK
        blobs.append((out / "model.aem").read_bytes())
    assert blobs[0] == blobs[1]


def test_train_without_a_target_domain_removes_a_stale_covariance_file(
        small_dataset, tmp_path, capsys, monkeypatch):
    cfg = write_run_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    source_only = tmp_path / "source_only"
    synth_generate(SynthSpec(clip_seconds=1.0, machines=[SMALL_MACHINE],
                             counts=SynthCounts(12, 0, 1, 1, 1, 1, 0)), source_only, seed=2)
    for root in (small_dataset[0], source_only):
        assert main(["train", "--config", str(cfg), "--data-root", str(root),
                     "--machine", SMALL_MACHINE, "--out", str(out)]) == EXIT_OK
        if root == small_dataset[0]:
            assert (out / "covariances.cov").exists()
    assert "covariance file not written" in capsys.readouterr().err
    assert not (out / "covariances.cov").exists()
    assert set(json.loads((out / "thresholds.json").read_text())) == {"mse"}

    def no_clip_reads(path, *args):
        raise AssertionError(f"read {path} before checking the thresholds")
    monkeypatch.setattr(cli, "read_wav", no_clip_reads)
    out_csv = tmp_path / "s.csv"
    assert main(["score", "--model", str(out), "--data-root", str(source_only),
                 "--machine", SMALL_MACHINE, "--mode", "mahalanobis",
                 "--out", str(out_csv)]) == EXIT_ARTIFACT
    err = capsys.readouterr().err
    assert "no 'mahalanobis' threshold" in err and "without a source or a target domain" in err
    assert "covariance" not in err
    assert not list(tmp_path.glob("s.csv*"))


def test_failed_retrain_leaves_no_file_of_the_previous_run(small_dataset, tmp_path, capsys):
    cfg = write_run_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    one_vector = tmp_path / "one_vector"  # a single target clip that stacks into K = 1
    manifest = synth_generate(SynthSpec(clip_seconds=1.0, machines=[SMALL_MACHINE],
                                        counts=SynthCounts(12, 1, 1, 1, 1, 1, 0)),
                              one_vector, seed=2)
    target = manifest.select(split="train", domain="target")[0].path
    write_wav(one_vector / target, np.zeros(3072, dtype=np.int16), 16000)
    train = ["train", "--config", str(cfg), "--machine", SMALL_MACHINE, "--out", str(out)]
    assert main([*train, "--data-root", str(small_dataset[0])]) == EXIT_OK
    assert main([*train, "--data-root", str(one_vector)]) == EXIT_DATA
    assert "need at least 2 residual vectors per domain, got 1" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["loss_history.csv", "model.aem"]
    out_csv = tmp_path / "s.csv"
    assert main(["score", "--model", str(out), "--data-root", str(small_dataset[0]),
                 "--machine", SMALL_MACHINE, "--mode", "mahalanobis",
                 "--out", str(out_csv)]) == EXIT_ARTIFACT
    assert f"{out / 'config.yaml'}: config echo not found" in capsys.readouterr().err
    assert not out_csv.exists()


def test_training_clips_scored_like_test_clips_give_the_stored_thresholds(
        trained_artifacts):
    # one feature path: read_wav -> extract_features is what training fitted phi on
    config, paths, root = trained_artifacts
    model, cov = load_model(paths["model"]), load_covariances(paths["cov"])
    thresholds = load_thresholds(paths["thresholds"])
    clips = [extract_features(read_wav(root / rec.path), config.features)
             for rec in load_manifest(root / "manifest.csv").select(
                 machine=SMALL_MACHINE, split="train")]
    scores = {"mse": [score_mse(model, feats) for feats in clips],
              "mahalanobis": [score_mahalanobis(model, feats, cov) for feats in clips]}
    for mode, values in scores.items():
        assert float(np.percentile(values, THRESHOLD_PERCENTILE)) == thresholds[mode], mode


def test_train_without_config_matches_empty_config(small_dataset, tmp_path):
    root, _ = small_dataset
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    for name, config_args in (("none", []), ("empty", ["--config", str(empty)])):
        assert main(["train", *config_args, "--data-root", str(root),
                     "--machine", SMALL_MACHINE, "--out", str(tmp_path / name),
                     "--seed", "7"]) == EXIT_OK
    assert ((tmp_path / "none" / "model.aem").read_bytes()
            == (tmp_path / "empty" / "model.aem").read_bytes())


def test_train_out_that_is_a_file_fails_before_reading_clips(small_dataset, tmp_path,
                                                             monkeypatch, capsys):
    root, _ = small_dataset
    out = tmp_path / "out"
    out.write_text("keep me\n")

    def no_clip_reads(path, *args):
        raise AssertionError(f"read {path} before checking --out")
    monkeypatch.setattr(cli, "read_wav", no_clip_reads)
    monkeypatch.setattr(cli, "wav_num_samples", no_clip_reads)
    rc = main(["train", "--config", str(write_run_config(tmp_path / "cfg.yaml")),
               "--data-root", str(root), "--machine", SMALL_MACHINE, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "cannot create output directory" in capsys.readouterr().err
    assert out.read_text() == "keep me\n"


def write_silence(n_samples):
    return lambda path: wavfile.write(path, 16000, np.zeros(n_samples, dtype=np.int16))


@pytest.mark.parametrize("change, message", [
    (Path.unlink, "not a readable WAV file"),
    (write_silence(500), "500 samples"),  # shorter than one 1024-sample frame
    (write_silence(2048), "2048 samples"),  # 3 frames, fewer than the 5 stacked
    (lambda path: wavfile.write(path, 44100, np.zeros(44100, dtype=np.int16)),
     "clip rate 44100 Hz != 16000 Hz"),  # a data problem, like any other bad clip
], ids=["missing", "shorter-than-a-frame", "fewer-frames-than-stacked", "other-rate"])
def test_bad_training_clip_exits_data_naming_it(small_dataset, tmp_path, capsys,
                                                change, message):
    root = tmp_path / "data"
    shutil.copytree(small_dataset[0], root)
    victim = small_dataset[1].select(split="train")[0].path
    change(root / victim)
    rc = main(["train", "--config", str(write_run_config(tmp_path / "cfg.yaml")),
               "--data-root", str(root), "--machine", SMALL_MACHINE,
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert victim in err and message in err


@pytest.mark.parametrize("settings, message", [
    # fixed constants now, so any value is an unknown key
    ({"scoring": {"threshold_percentile": 150}},
     "unknown config keys: ['scoring.threshold_percentile']"),
    ({"scoring": {"ridge": 0}}, "unknown config keys: ['scoring.ridge']"),
    ({"model": {"layer_dims": [160, 0, 160]}}, "unknown config keys: ['model.layer_dims']"),
    ({"features": {"hop_length": 0}}, "unknown config keys: ['features.hop_length']"),
    ({"features": {"sample_rate_hz": 0}}, "unknown config keys: ['features.sample_rate_hz']"),
    ({"features": {"n_fft": 1024}}, "unknown config keys: ['features.n_fft']"),
    ({"train": {"learning_rate": 1e-3}}, "unknown config keys: ['train.learning_rate']"),
    ({"features": {"n_mels": 256}}, "mel filters cover no FFT bin"),
], ids=["percentile-150", "ridge-0", "zero-width-layer", "hop-0", "rate-0", "n_fft-1024",
        "learning-rate-1e-3", "n_mels-256"])
def test_bad_run_config_fails_before_training(small_dataset, tmp_path, capsys,
                                              monkeypatch, settings, message):
    def no_clip_reads(path, *args):
        raise AssertionError(f"read {path} before checking the config")
    monkeypatch.setattr(cli, "read_wav", no_clip_reads)
    monkeypatch.setattr(cli, "wav_num_samples", no_clip_reads)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"features": {"n_mels": 32}, **settings}))
    out = tmp_path / "out"
    rc = main(["train", "--config", str(cfg), "--data-root", str(small_dataset[0]),
               "--machine", SMALL_MACHINE, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_config_with_unknown_scoring_mode_exits_config(small_dataset, tmp_path,
                                                           capsys):
    cfg = tmp_path / "cfg.yaml"
    for mode in ("zscore", "mahala"):  # a mode has one name
        cfg.write_text(yaml.safe_dump({"scoring": {"mode": mode}}))
        rc = main(["train", "--config", str(cfg), "--data-root", str(small_dataset[0]),
                   "--machine", SMALL_MACHINE, "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert (f"scoring.mode: expected one of ['mse', 'mahalanobis'], got {mode!r}"
                in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# score

def test_score_command_rows(trained_artifacts, tmp_path, capsys):
    config, paths, root = trained_artifacts
    out_csv = tmp_path / "scores.csv"
    assert main(["score", "--model", str(paths["model"].parent),
                 "--data-root", str(root), "--machine", SMALL_MACHINE,
                 "--mode", "mse", "--out", str(out_csv)]) == EXIT_OK
    rows = read_score_csv(out_csv)
    assert len(rows) == 18  # 10 normal + 8 anomaly test clips
    assert all(decision in ("normal", "anomaly") for _, _, decision in rows)
    assert (tmp_path / "scores.csv.config.yaml").exists()


def test_score_command_modes_agree_with_identity_covariances(
        trained_artifacts, tmp_path):
    config, paths, root = trained_artifacts
    # overwrite the fitted covariances with identity matrices
    dim = config.features.feature_dim
    save_covariances(identity_covariances(dim), paths["cov"])
    try:
        outs = {}
        for mode in ("mse", "mahalanobis"):
            out_csv = tmp_path / f"scores_{mode}.csv"
            assert main(["score", "--model", str(paths["model"].parent),
                         "--data-root", str(root), "--machine", SMALL_MACHINE,
                         "--mode", mode, "--out", str(out_csv)]) == EXIT_OK
            outs[mode] = {p: v for p, v, _ in read_score_csv(out_csv)}
        assert outs["mse"].keys() == outs["mahalanobis"].keys()
        for path in outs["mse"]:
            a, b = outs["mse"][path], outs["mahalanobis"][path]
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))
    finally:
        # restore fitted covariances for other tests sharing the fixture
        from asdkit.cli import train_machine
        train_machine(config, root, SMALL_MACHINE, paths["model"].parent)


def test_score_command_missing_covariance(trained_artifacts, tmp_path):
    config, paths, root = trained_artifacts
    cov_bytes = paths["cov"].read_bytes()
    paths["cov"].unlink()
    try:
        rc = main(["score", "--model", str(paths["model"].parent),
                   "--data-root", str(root), "--machine", SMALL_MACHINE,
                   "--mode", "mahalanobis", "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_ARTIFACT
    finally:
        paths["cov"].write_bytes(cov_bytes)


@pytest.mark.parametrize("case, message", [
    ("version-1", "version 1 .*retrain"), ("nan-whitening", "non-finite"),
    ("negative-scale", "target scales must be > 0"), ("inf-scale", "non-finite")])
def test_score_command_rejects_bad_covariance_file(trained_artifacts, tmp_path, capsys,
                                                    case, message):
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model", ("model", "thresholds", "config"))
    dim = config.features.feature_dim
    cov_path = model_dir / paths["cov"].name
    if case == "version-1":  # header, then both inverse covariance matrices
        cov_path.write_bytes(COV_MAGIC + struct.pack("<III", 1, dim, 0)
                             + struct.pack("<dQQ", 1e-3, 20, 5) + np.eye(dim).tobytes() * 2)
    else:
        cov = identity_covariances(dim)
        if case == "nan-whitening":
            cov.whitening[3, 1] = np.nan
        else:
            cov.target_scale[2] = -1.0 if case == "negative-scale" else np.inf
        save_covariances(cov, cov_path)
    out_csv = tmp_path / "s.csv"
    rc = main(["score", "--model", str(model_dir), "--data-root", str(root),
               "--machine", SMALL_MACHINE, "--mode", "mahalanobis", "--out", str(out_csv)])
    assert rc == EXIT_ARTIFACT
    assert re.search(message, capsys.readouterr().err)
    assert not out_csv.exists()


def test_score_command_dimension_mismatch_fails_fast(trained_artifacts, tmp_path,
                                                    capsys):
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model", ("model", "thresholds", "config"))
    wrong = RunConfig.from_dict({"features": {"n_mels": 64, "context_frames": 5}})
    wrong.echo(model_dir / "config.yaml")  # 64 mels * 5 frames = 320 != model dim 160
    out_csv = tmp_path / "s.csv"
    cmd = ["score", "--model", str(model_dir), "--data-root", str(root),
           "--machine", SMALL_MACHINE, "--out", str(out_csv)]
    assert main([*cmd, "--mode", "mse"]) == EXIT_ARTIFACT
    err = capsys.readouterr().err
    assert "feature dim 320" in err and str(model_dir / "config.yaml") in err
    assert not out_csv.exists()

    copy_artifacts(paths, model_dir, ("config",))
    save_covariances(identity_covariances(8), model_dir / paths["cov"].name)
    assert main([*cmd, "--mode", "mahalanobis"]) == EXIT_ARTIFACT
    assert "covariance dim 8" in capsys.readouterr().err
    assert not out_csv.exists()


def test_score_command_unreadable_wav_is_row_level(trained_artifacts, tmp_path,
                                                   capsys):
    config, paths, root = trained_artifacts
    manifest = load_manifest(root / "manifest.csv")
    victim = root / manifest.select(machine=SMALL_MACHINE, split="test")[0].path
    original = victim.read_bytes()
    victim.write_bytes(b"ruined")
    try:
        out_csv = tmp_path / "scores.csv"
        rc = main(["score", "--model", str(paths["model"].parent),
                   "--data-root", str(root), "--machine", SMALL_MACHINE,
                   "--mode", "mse", "--out", str(out_csv)])
        assert rc == EXIT_OK
        assert "1 warnings" in capsys.readouterr().out
        assert len(read_score_csv(out_csv)) == 17
        errors = (tmp_path / "scores.csv.errors.csv").read_text()
        assert manifest.select(machine=SMALL_MACHINE, split="test")[0].path in errors
    finally:
        victim.write_bytes(original)


def test_clean_rescore_removes_a_stale_errors_file(trained_artifacts, tmp_path, capsys):
    _, paths, small_root = trained_artifacts
    root = tmp_path / "data"
    shutil.copytree(small_root, root)
    victim = root / load_manifest(root / "manifest.csv").select(
        machine=SMALL_MACHINE, split="test")[0].path
    original = victim.read_bytes()
    out_csv = tmp_path / "scores.csv"
    errors = Path(f"{out_csv}.errors.csv")
    cmd = ["score", "--model", str(paths["model"].parent), "--data-root", str(root),
           "--machine", SMALL_MACHINE, "--mode", "mse", "--out", str(out_csv)]
    victim.write_bytes(b"ruined")
    assert main(cmd) == EXIT_OK
    assert errors.exists()
    victim.write_bytes(original)
    assert main(cmd) == EXIT_OK
    assert "scored 18 clips" in capsys.readouterr().out
    assert len(read_score_csv(out_csv)) == 18
    assert not errors.exists()


def test_cut_clip_is_a_score_row_error_and_a_train_data_error(trained_artifacts, tmp_path,
                                                              capsys):
    # a data chunk cut short: the header declares more bytes than the file holds
    config, paths, small_root = trained_artifacts
    root = tmp_path / "data"
    shutil.copytree(small_root, root)
    manifest = load_manifest(root / "manifest.csv")
    test_clip = sorted(r.path for r in manifest.select(machine=SMALL_MACHINE, split="test"))[0]
    train_clip = manifest.select(machine=SMALL_MACHINE, split="train")[0].path
    for victim in (test_clip, train_clip):
        (root / victim).write_bytes((root / victim).read_bytes()[:-1000])
    out_csv = tmp_path / "scores.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["score", "--model", str(paths["model"].parent), "--data-root", str(root),
                     "--machine", SMALL_MACHINE, "--mode", "mse",
                     "--out", str(out_csv)]) == EXIT_OK
        assert len(read_score_csv(out_csv)) == 17
        errors = Path(f"{out_csv}.errors.csv").read_text().splitlines()
        assert len(errors) == 2 and errors[1].startswith(test_clip + ",")
        assert "data chunk declares 32000 bytes, 31000 present" in errors[1]
        assert main(["train", "--config", str(write_run_config(tmp_path / "cfg.yaml")),
                     "--data-root", str(root), "--machine", SMALL_MACHINE,
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert train_clip in err and "31000 present" in err
    assert "Warning" not in err


def test_score_overflowing_wav_is_row_level(trained_artifacts, tmp_path, capsys):
    config, paths, root = trained_artifacts
    victim = sorted(r.path for r in load_manifest(root / "manifest.csv").select(
        machine=SMALL_MACHINE, split="test"))[0]
    original = (root / victim).read_bytes()
    # finite float64 samples whose power spectrum overflows
    wavfile.write(root / victim, 16000, np.full(16000, 1e200))
    try:
        for mode in ("mse", "mahalanobis"):
            out_csv = tmp_path / f"scores_{mode}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
                rc = main(["score", "--model", str(paths["model"].parent),
                           "--data-root", str(root), "--machine", SMALL_MACHINE,
                           "--mode", mode, "--out", str(out_csv)])
            assert rc == EXIT_OK
            assert "RuntimeWarning" not in capsys.readouterr().err
            rows = read_score_csv(out_csv)
            assert len(rows) == 17 and victim not in {path for path, _, _ in rows}
            errors = Path(f"{out_csv}.errors.csv").read_text().splitlines()
            assert len(errors) == 2 and errors[1].startswith(victim + ",")
            assert "non-finite" in errors[1]
    finally:
        (root / victim).write_bytes(original)


def test_score_that_scores_nothing_exits_data(trained_artifacts, tmp_path, capsys):
    config, paths, root = trained_artifacts
    data = tmp_path / "data8k"  # the model was trained at 16 kHz; no manifest: scanned
    (data / SMALL_MACHINE / "test").mkdir(parents=True)
    names = [f"section_00_{domain}_test_{condition}_{i:04d}.wav"
             for domain, condition, count in [("source", "normal", 2), ("target", "normal", 1),
                                              ("source", "anomaly", 1), ("target", "anomaly", 1)]
             for i in range(count)]
    rng = np.random.default_rng(3)
    for name in names:
        write_wav(data / SMALL_MACHINE / "test" / name,
                  rng.integers(-3000, 3000, 4000).astype(np.int16), 8000)
    first = str(Path(SMALL_MACHINE) / "test" / sorted(names)[0])
    out_csv = tmp_path / "scores.csv"
    rc = main(["score", "--model", str(paths["model"].parent), "--data-root", str(data),
               "--machine", SMALL_MACHINE, "--mode", "mse", "--out", str(out_csv)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "could be scored" in err and first in err and "clip rate 8000 Hz" in err
    errors = (tmp_path / "scores.csv.errors.csv").read_text().splitlines()
    assert len(errors) == 1 + len(names)
    assert not out_csv.exists()


def test_scanned_tree_reports_its_skipped_files(trained_artifacts, tmp_path, capsys):
    config, paths, root = trained_artifacts
    data = tmp_path / "data"
    shutil.copytree(root, data)
    (data / "manifest.csv").unlink()  # score falls back to scanning the tree
    garbage = Path(SMALL_MACHINE) / "test" / "garbage_name.wav"
    shutil.copy(next((data / SMALL_MACHINE / "test").glob("*.wav")), data / garbage)
    out_csv = tmp_path / "scores.csv"
    assert main(["score", "--model", str(paths["model"].parent), "--data-root", str(data),
                 "--machine", SMALL_MACHINE, "--out", str(out_csv)]) == EXIT_OK
    warnings = [line for line in capsys.readouterr().err.splitlines() if "skipped" in line]
    assert len(warnings) == 1
    assert "skipped 1 .wav file(s)" in warnings[0] and str(garbage) in warnings[0]
    assert len(read_score_csv(out_csv)) == len(load_manifest(root / "manifest.csv").select(
        machine=SMALL_MACHINE, split="test"))


@pytest.mark.parametrize("source", ["echo", "--config"])
def test_score_mode_defaults_to_config_mode(trained_artifacts, tmp_path, source):
    config, paths, root = trained_artifacts
    settings = config.to_dict()
    settings["scoring"]["mode"] = "mahalanobis"
    if source == "echo":  # an edited echo
        model_dir = copy_artifacts(paths, tmp_path / "model")
        (model_dir / "config.yaml").write_text(yaml.safe_dump(settings))
    else:  # the mode train's --config set reaches score through the echo
        cfg, model_dir = tmp_path / "cfg.yaml", tmp_path / "model"
        cfg.write_text(yaml.safe_dump(settings))
        assert main(["train", "--config", str(cfg), "--data-root", str(root),
                     "--machine", SMALL_MACHINE, "--out", str(model_dir)]) == EXIT_OK
    cmd = ["score", "--model", str(model_dir), "--data-root", str(root),
           "--machine", SMALL_MACHINE]
    assert main(cmd + ["--mode", "mahalanobis", "--out", str(tmp_path / "explicit.csv")]) == EXIT_OK
    assert main(cmd + ["--out", str(tmp_path / "default.csv")]) == EXIT_OK
    assert ((tmp_path / "default.csv").read_bytes()
            == (tmp_path / "explicit.csv").read_bytes())


def test_score_mode_takes_exactly_the_modes(capsys):
    argv = ["score", "--model", "run", "--data-root", "data", "--machine", "m",
            "--out", "s.csv"]
    for mode in MODES:
        assert cli.build_parser().parse_args([*argv, "--mode", mode]).mode == mode
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--mode", "mahala"])
    assert excinfo.value.code == EXIT_CONFIG
    assert "invalid choice: 'mahala'" in capsys.readouterr().err


def test_old_format_threshold_file_exits_artifact(trained_artifacts, tmp_path, capsys):
    # thresholds.json once held a record per mode; phi alone is what a run needs
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model")
    thresholds_path = model_dir / "thresholds.json"
    thresholds_path.write_text(json.dumps(
        {mode: {"phi": phi, "percentile": 90.0, "split": "train", "mode": mode}
         for mode, phi in load_thresholds(paths["thresholds"]).items()}))
    out_csv = tmp_path / "s.csv"
    for mode in MODES:
        assert main(["score", "--model", str(model_dir), "--data-root", str(root),
                     "--machine", SMALL_MACHINE, "--mode", mode,
                     "--out", str(out_csv)]) == EXIT_ARTIFACT
        err = capsys.readouterr().err
        assert str(thresholds_path) in err
        assert "threshold is in an older format; retrain the model" in err
        assert not out_csv.exists()


# keys that echoes written before they became constants hold, at their old defaults
OLD_ECHO_KEYS = [("features", "sample_rate_hz", 16000), ("features", "n_fft", 1024),
                 ("features", "hop_length", 512),
                 ("model", "layer_dims", [160, 128, 128, 128, 128, 8, 128, 128, 128, 128, 160]),
                 ("train", "learning_rate", 0.001), ("train", "beta1", 0.9),
                 ("train", "seed", 6), ("scoring", "ridge", 1e-3),
                 ("scoring", "threshold_percentile", 90.0)]


def on_run(command: str, model_dir: Path, root: Path, out_csv: Path) -> list[str]:
    """argv of score (of the small machine into out_csv) or macs on a run directory."""
    extra = ["--data-root", str(root), "--machine", SMALL_MACHINE, "--out", str(out_csv)]
    return [command, "--model", str(model_dir), *(extra if command == "score" else [])]


def with_old_key(echo_path: Path, section: str, key: str, value) -> dict:
    echo = yaml.safe_load(echo_path.read_text())
    echo.setdefault(section, {})[key] = value
    return echo


def test_echo_with_removed_key_exits_config(trained_artifacts, tmp_path, capsys):
    # an old echo given to train --config, to rerun its run
    config, paths, root = trained_artifacts
    cfg, out = tmp_path / "cfg.yaml", tmp_path / "out"
    for section, key, value in OLD_ECHO_KEYS:
        cfg.write_text(yaml.safe_dump(with_old_key(paths["config"], section, key, value)))
        assert main(["train", "--config", str(cfg), "--data-root", str(root),
                     "--machine", SMALL_MACHINE, "--out", str(out)]) == EXIT_CONFIG, key
        assert f"unknown config keys: ['{section}.{key}']" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["score", "macs"])
def test_echo_with_removed_key_exits_artifact(trained_artifacts, tmp_path, capsys, command):
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model")
    echo_path = model_dir / "config.yaml"
    out_csv = tmp_path / "s.csv"
    cmd = on_run(command, model_dir, root, out_csv)
    for section, key, value in OLD_ECHO_KEYS:
        echo_path.write_text(yaml.safe_dump(with_old_key(paths["config"], section, key, value)))
        assert main(cmd) == EXIT_ARTIFACT, key
        err = capsys.readouterr().err
        assert f"{echo_path}: unknown config keys: ['{section}.{key}']" in err
        assert "retrain the model, or delete these keys" in err
        assert not out_csv.exists()
    # deleting keys that hold the old defaults is enough
    copy_artifacts(paths, model_dir, ("config",))
    assert main(cmd) == EXIT_OK


@pytest.mark.parametrize("command", ["score", "macs"])
@pytest.mark.parametrize("case", ["missing", "not-yaml", "bad-value", "dims"])
def test_unusable_echo_exits_artifact(trained_artifacts, tmp_path, capsys, command, case):
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model", ("model", "cov", "thresholds"))
    echo_path = model_dir / "config.yaml"
    if case == "not-yaml":
        echo_path.write_text("features: [unclosed\n")
    if case == "bad-value":
        echo_path.write_text("features: {n_mels: abc}\n")
    if case == "dims":  # 16 mels * 5 frames = 80 != model dim 160
        RunConfig.from_dict({"features": {"n_mels": 16}}).echo(echo_path)
    out_csv = tmp_path / "s.csv"
    assert main(on_run(command, model_dir, root, out_csv)) == EXIT_ARTIFACT
    err = capsys.readouterr().err
    assert str(echo_path) in err
    assert ("feature dim 80" if case == "dims" else "retrain the model") in err
    assert "delete" not in err  # names no keys to delete
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["score", "macs"])
def test_score_and_macs_take_no_config_flag(trained_artifacts, tmp_path, capsys, command):
    config, paths, root = trained_artifacts
    with pytest.raises(SystemExit) as excinfo:
        main([*on_run(command, paths["model"].parent, root, tmp_path / "s.csv"),
              "--config", str(paths["config"])])
    assert excinfo.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_score_out_into_missing_directory(trained_artifacts, tmp_path, capsys):
    config, paths, root = trained_artifacts
    rc = main(["score", "--model", str(paths["model"].parent), "--data-root", str(root),
               "--machine", SMALL_MACHINE, "--out", str(tmp_path / "nowhere" / "s.csv")])
    assert rc == EXIT_CONFIG
    assert "cannot write" in capsys.readouterr().err


def test_model_path_that_is_a_directory(trained_artifacts, tmp_path):
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model", ("cov", "thresholds", "config"))
    (model_dir / "model.aem").mkdir()
    assert main(["score", "--model", str(model_dir), "--data-root", str(root),
                 "--machine", SMALL_MACHINE, "--out", str(tmp_path / "s.csv")]) == EXIT_ARTIFACT
    assert main(["macs", "--model", str(model_dir)]) == EXIT_ARTIFACT


def test_non_finite_model_exits_artifact(trained_artifacts, tmp_path, capsys):
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model")
    model = load_model(model_dir / "model.aem")
    model.weights[0][0, 0] = np.nan
    save_model(model, model_dir / "model.aem")
    out_csv = tmp_path / "s.csv"
    rc = main(["score", "--model", str(model_dir), "--data-root", str(root),
               "--machine", SMALL_MACHINE, "--mode", "mse", "--out", str(out_csv)])
    assert rc == EXIT_ARTIFACT
    assert "non-finite" in capsys.readouterr().err
    assert not out_csv.exists()


def write_raw_model(path: Path, dims) -> None:
    """A float32 .aem file with these header dims and the zero payload they imply."""
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    path.write_bytes(b"ASDK-AE\x00" + struct.pack(f"<IIIQ{len(dims)}I", 1, 1, len(dims), 0, *dims)
                     + np.zeros(n_params, np.float32).tobytes())


@pytest.mark.parametrize("command", ["score", "macs"])
@pytest.mark.parametrize("dims", [lambda d: [], lambda d: [d], lambda d: [d, 4, 3]],
                         ids=["no-dims", "one-dim", "output-not-input"])
def test_impossible_layer_dims_exit_artifact(trained_artifacts, tmp_path, capsys,
                                             dims, command):
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model", ("cov", "thresholds", "config"))
    write_raw_model(model_dir / "model.aem", dims(config.features.feature_dim))
    extra = {"score": ["--data-root", str(root), "--machine", SMALL_MACHINE,
                       "--mode", "mse", "--out", str(tmp_path / "s.csv")],
             "macs": []}[command]
    assert main([command, "--model", str(model_dir), *extra]) == EXIT_ARTIFACT
    assert "need at least 2 dims" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate

def separated_scores(manifest, machine):
    rows = []
    for rec in manifest.select(machine=machine, split="test"):
        value = 9.0 if rec.condition == "anomaly" else 0.1
        rows.append((rec.path, value, ""))
    return rows


def test_evaluate_perfect_separation(small_dataset, tmp_path, capsys):
    root, manifest = small_dataset
    scores_csv = tmp_path / "scores.csv"
    from asdkit.scoring import write_score_csv
    write_score_csv(separated_scores(manifest, SMALL_MACHINE), scores_csv)
    rc = main(["evaluate", "--scores", str(scores_csv),
               "--manifest", str(root / "manifest.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "official score: 1.000000" in out
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.txt").exists()
    assert yaml.safe_load((tmp_path / "report.config.yaml").read_text())["pauc_p"] == 0.1


def test_evaluate_constant_scores_flagged_zero(small_dataset, tmp_path, capsys):
    root, manifest = small_dataset
    rows = [(rec.path, 1.0, "") for rec in
            manifest.select(machine=SMALL_MACHINE, split="test")]
    from asdkit.scoring import write_score_csv
    scores_csv = tmp_path / "scores.csv"
    write_score_csv(rows, scores_csv)
    rc = main(["evaluate", "--scores", str(scores_csv),
               "--manifest", str(root / "manifest.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "official score: 0.000000" in out
    assert "zero-valued" in out


def test_evaluate_missing_truth_row(small_dataset, tmp_path):
    root, manifest = small_dataset
    rows = separated_scores(manifest, SMALL_MACHINE)
    rows.append(("pumpette/test/section_00_source_test_normal_9999.wav", 0.5, ""))
    from asdkit.scoring import write_score_csv
    scores_csv = tmp_path / "scores.csv"
    write_score_csv(rows, scores_csv)
    rc = main(["evaluate", "--scores", str(scores_csv),
               "--manifest", str(root / "manifest.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == EXIT_MISMATCH


def test_evaluate_duplicate_score_rows_exit_mismatch(small_dataset, tmp_path, capsys):
    root, manifest = small_dataset
    rows = separated_scores(manifest, SMALL_MACHINE)
    twice, thrice = rows[0], rows[3]
    scores_csv = tmp_path / "scores.csv"
    write_score_csv(rows + [thrice, twice, thrice], scores_csv)
    rc = main(["evaluate", "--scores", str(scores_csv),
               "--manifest", str(root / "manifest.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == EXIT_MISMATCH
    assert (f"2 clips scored more than once in {scores_csv}: {twice[0]}, {thrice[0]}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [scores_csv]


def test_evaluate_without_a_labeled_test_clip_exits_mismatch(small_dataset, tmp_path,
                                                             capsys):
    root, manifest = small_dataset
    scores_csv = tmp_path / "scores.csv"
    write_score_csv([(rec.path, 1.0, "") for rec in manifest.select(split="train")],
                    scores_csv)
    rc = main(["evaluate", "--scores", str(scores_csv),
               "--manifest", str(root / "manifest.csv"), "--out", str(tmp_path / "report")])
    assert rc == EXIT_MISMATCH
    assert (f"none of the 15 clips in {scores_csv} is a labeled test clip"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [scores_csv]


@pytest.mark.parametrize("flag, suffix", [("--scores", ".csv"), ("--scores", ".txt"),
                                          ("--manifest", ".config.yaml"),
                                          ("--reference", ".csv")])
def test_evaluate_out_over_an_input_exits_config(small_dataset, tmp_path, capsys,
                                                 monkeypatch, flag, suffix):
    root, manifest = small_dataset
    inputs = {"--scores": tmp_path / "scores.csv", "--manifest": tmp_path / "manifest.csv",
              "--reference": tmp_path / "reference.csv"}
    write_score_csv(separated_scores(manifest, SMALL_MACHINE), inputs["--scores"])
    shutil.copy(root / "manifest.csv", inputs["--manifest"])
    inputs["--reference"].write_text(f"machine,auc_source,auc_target,pauc\n"
                                     f"{SMALL_MACHINE},90,90,80\n")
    inputs[flag] = inputs[flag].rename(tmp_path / f"report{suffix}")
    before = {path: path.read_bytes() for path in inputs.values()}

    def no_reads(path, *args):
        raise AssertionError(f"read {path} before checking --out")
    for reader in ("read_score_csv", "load_manifest", "load_reference_csv"):
        monkeypatch.setattr(cli, reader, no_reads)
    monkeypatch.chdir(tmp_path)  # the same file, named relative and absolute
    rc = main(["evaluate", *[arg for f, p in inputs.items() for arg in (f, str(p))],
               "--out", "report"])
    assert rc == EXIT_CONFIG
    assert f"{flag} {inputs[flag]} is one of the files --out report writes" in (
        capsys.readouterr().err)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_evaluate_missing_scores_file(small_dataset, tmp_path):
    root, _ = small_dataset
    rc = main(["evaluate", "--scores", str(tmp_path / "none.csv"),
               "--manifest", str(root / "manifest.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == EXIT_CONFIG


REFERENCE_ROWS = {
    "non-numeric-reference": f"{SMALL_MACHINE},x,90,80\n",
    "reference-without-columns": None,
    "reference-machine-twice": f"{SMALL_MACHINE},90,90,80\n{SMALL_MACHINE},91,90,80\n",
    "reference-percent-150": f"{SMALL_MACHINE},90,150,80\n",
    "reference-percent-minus-5": f"{SMALL_MACHINE},90,90,-5\n",
}


@pytest.mark.parametrize("case", ["manifest-directory", "missing-reference",
                                  *REFERENCE_ROWS, "nan-score"])
def test_evaluate_unreadable_table_exits_config(small_dataset, tmp_path, capsys, case):
    root, manifest = small_dataset
    scores_csv = tmp_path / "scores.csv"
    rows = separated_scores(manifest, SMALL_MACHINE)
    if case == "nan-score":
        rows[1] = (rows[1][0], float("nan"), rows[1][2])
    write_score_csv(rows, scores_csv)
    truth = tmp_path if case == "manifest-directory" else root / "manifest.csv"
    cmd = ["evaluate", "--scores", str(scores_csv), "--manifest", str(truth),
           "--out", str(tmp_path / "report")]
    reference = tmp_path / "reference.csv"
    if case == "reference-without-columns":
        reference.write_text(f"machine,auc\n{SMALL_MACHINE},90\n")
    elif case in REFERENCE_ROWS:
        reference.write_text("machine,auc_source,auc_target,pauc\n" + REFERENCE_ROWS[case])
    if case == "missing-reference" or case in REFERENCE_ROWS:
        cmd += ["--reference", str(reference)]
    assert main(cmd) == EXIT_CONFIG
    err = capsys.readouterr().err
    if case == "reference-without-columns":
        assert "reference CSV needs columns" in err
    if case == "reference-machine-twice":
        assert f"{reference} line 3: machine {SMALL_MACHINE!r} listed twice" in err
    if case == "reference-percent-150":
        assert f"{reference} line 2: auc_target 150.0 is not a percent in [0, 100]" in err
    if case == "reference-percent-minus-5":
        assert f"{reference} line 2: pauc -5.0 is not a percent" in err
    if case == "nan-score":
        assert f"line 3: score 'nan' of {rows[1][0]!r}" in err
    assert not (tmp_path / "report.csv").exists()


def test_evaluate_negative_macs_exits_config(small_dataset, tmp_path, capsys):
    root, manifest = small_dataset
    scores_csv = tmp_path / "scores.csv"
    write_score_csv(separated_scores(manifest, SMALL_MACHINE), scores_csv)
    rc = main(["evaluate", "--scores", str(scores_csv), "--manifest",
               str(root / "manifest.csv"), "--out", str(tmp_path / "report"),
               "--macs", "-5"])
    assert rc == EXIT_CONFIG
    assert "--macs must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("p", ["0", "1.5", "-0.1", "nan", "inf"])
def test_evaluate_pauc_p_out_of_range_exits_config(small_dataset, tmp_path, capsys, p):
    # p is fixed at the paper's 0.1 and --pauc-p is gone: a script that still
    # passes it, at any value, exits 2 rather than getting a report at 0.1
    root, manifest = small_dataset
    scores_csv = tmp_path / "scores.csv"
    write_score_csv(separated_scores(manifest, SMALL_MACHINE), scores_csv)
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--scores", str(scores_csv), "--manifest",
              str(root / "manifest.csv"), "--out", str(tmp_path / "report"),
              "--pauc-p", p])
    assert excinfo.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --pauc-p" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


# ---------------------------------------------------------------------------
# macs

def write_run_dir(path: Path) -> Path:
    """A training run directory of the default config: its echo and a model."""
    path.mkdir()
    RunConfig().echo(path / "config.yaml")
    save_model(init_model(DEFAULT_LAYER_DIMS, seed=0), path / "model.aem")
    return path


def test_macs_command_default_architecture(tmp_path, capsys):
    path = write_run_dir(tmp_path / "run")
    assert main(["macs", "--model", str(path), "--seconds", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "MACs per input vector: 264192" in out
    # 10 s at 16 kHz: T = 1 + (160000-1024)//512 = 311, K = 307
    assert "T=311 frames, K=307 vectors" in out
    assert f"MACs per clip: {264192 * 307}" in out


@pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1", "0.01"])
def test_macs_seconds_without_a_vector_exits_config(tmp_path, capsys, seconds):
    path = write_run_dir(tmp_path / "run")
    assert main(["macs", "--model", str(path), "--seconds", seconds]) == EXIT_CONFIG
    assert "--seconds" in capsys.readouterr().err


def test_macs_command_corrupt_model(tmp_path, capsys):
    path = write_run_dir(tmp_path / "run")
    (path / "model.aem").write_bytes(b"garbage")
    assert main(["macs", "--model", str(path)]) == EXIT_ARTIFACT
    assert "truncated model file" in capsys.readouterr().err


def test_macs_command_missing_model(tmp_path, capsys):
    path = write_run_dir(tmp_path / "run")
    (path / "model.aem").unlink()
    assert main(["macs", "--model", str(path)]) == EXIT_ARTIFACT
    assert "unreadable model file" in capsys.readouterr().err
    assert main(["macs", "--model", str(tmp_path / "no_run")]) == EXIT_ARTIFACT


def test_macs_accepts_training_dir(trained_artifacts, capsys):
    config, paths, root = trained_artifacts
    assert main(["macs", "--model", str(paths["model"].parent), "--seconds", "1"]) == EXIT_OK
    assert ("layer dims: [160, 128, 128, 128, 128, 8, 128, 128, 128, 128, 160]"
            in capsys.readouterr().out)
    # the model file is not a run directory: it has no echo beside it
    assert main(["macs", "--model", str(paths["model"])]) == EXIT_ARTIFACT
    assert f"{paths['model'] / 'config.yaml'}: config echo" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("error, code", [
    (ConfigError("boom"), EXIT_CONFIG), (ModelFileError("boom"), EXIT_ARTIFACT),
    (MismatchError("boom"), EXIT_MISMATCH), (DatasetError("boom"), EXIT_DATA),
    (InsufficientDataError("boom"), EXIT_DATA), (TooShortError("boom"), EXIT_DATA),
    (WavFormatError("boom"), EXIT_DATA), (UndefinedMetricError("boom"), EXIT_DATA),
    (TrainingDivergedError("boom", epoch=0, batch=0, param_norm=1.0), EXIT_DATA),
    (AsdkitError("boom"), EXIT_DATA),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_error_class_exit_codes(monkeypatch, capsys, error, code):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_macs", fail)
    assert main(["macs", "--model", "m"]) == code
    assert capsys.readouterr().err == "error: boom\n"
