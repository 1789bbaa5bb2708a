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
from asdkit.dataset import load_manifest
from asdkit.dsp import extract_features, read_wav
from asdkit.errors import (AsdkitError, ConfigError, DatasetError, InsufficientDataError,
                           MismatchError, ModelFileError, TooShortError,
                           TrainingDivergedError, UndefinedMetricError, WavFormatError)
from asdkit.model import DEFAULT_LAYER_DIMS, init_model, load_model, save_model
from asdkit.scoring import (COV_MAGIC, identity_covariances, load_covariances,
                            load_thresholds, read_score_csv, save_covariances,
                            score_mahalanobis, score_mse, write_score_csv)
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
    dest.mkdir()
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
    ("f0_range_hz: 5\n", "spec.f0_range_hz"),
    ("f0_range_hz: [1, 2, 3]\n", "spec.f0_range_hz"),
    ("counts: {source_train: 1.5}\n", "spec.counts.source_train"),
    ("machines: [unclosed\n", "spec.yaml"),
    (None, "spec.yaml"),
    ("machines: ab\n", "spec.machines"),
    ("[]\n", "spec.yaml"),
], ids=["str-float", "counts-scalar", "range-scalar", "range-length", "float-count",
        "bad-yaml", "directory", "machines-string", "not-a-mapping"])
def test_bad_synth_spec_exits_config(tmp_path, capsys, text, name):
    spec_path = tmp_path / "spec.yaml"
    if text is None:
        spec_path.mkdir()
    else:
        spec_path.write_text(text)
    out = tmp_path / "d"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
    assert name in capsys.readouterr().err
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
    ([], "train.seed must be >= 0, got -3"),  # pinned in the config file
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
        small_dataset, tmp_path, capsys):
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
    assert main(["score", "--model", str(out), "--data-root", str(source_only),
                 "--machine", SMALL_MACHINE, "--mode", "mahalanobis",
                 "--out", str(tmp_path / "s.csv")]) == EXIT_ARTIFACT


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
        threshold = thresholds[mode]
        assert float(np.percentile(values, threshold.percentile)) == threshold.phi, mode


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
], ids=["missing", "shorter-than-a-frame", "fewer-frames-than-stacked"])
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
    ({"scoring": {"threshold_percentile": 150}}, "scoring.threshold_percentile"),
    ({"scoring": {"ridge": 0}}, "scoring.ridge"),
    ({"model": {"layer_dims": [160, 0, 160]}}, "each >= 1"),
    ({"features": {"hop_length": 0}}, "hop_length must be in"),
    ({"features": {"sample_rate_hz": 0}}, "sample_rate_hz must be > 0"),
    ({"features": {"n_mels": 256}}, "mel filters cover no FFT bin"),
], ids=["percentile-150", "ridge-0", "zero-width-layer", "hop-0", "rate-0", "n_mels-256"])
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
    cfg.write_text(yaml.safe_dump({"scoring": {"mode": "zscore"}}))
    rc = main(["train", "--config", str(cfg), "--data-root", str(small_dataset[0]),
               "--machine", SMALL_MACHINE, "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "zscore" in capsys.readouterr().err


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
        for mode in ("mse", "mahala"):
            out_csv = tmp_path / f"scores_{mode}.csv"
            assert main(["score", "--model", str(paths["model"].parent),
                         "--data-root", str(root), "--machine", SMALL_MACHINE,
                         "--mode", mode, "--out", str(out_csv)]) == EXIT_OK
            outs[mode] = {p: v for p, v, _ in read_score_csv(out_csv)}
        assert outs["mse"].keys() == outs["mahala"].keys()
        for path in outs["mse"]:
            a, b = outs["mse"][path], outs["mahala"][path]
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
                   "--mode", "mahala", "--out", str(tmp_path / "s.csv")])
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
               "--machine", SMALL_MACHINE, "--mode", "mahala", "--out", str(out_csv)])
    assert rc == EXIT_ARTIFACT
    assert re.search(message, capsys.readouterr().err)
    assert not out_csv.exists()


def test_score_command_dimension_mismatch_fails_fast(trained_artifacts, tmp_path,
                                                    capsys):
    config, paths, root = trained_artifacts
    wrong = tmp_path / "wrong.yaml"
    with open(wrong, "w") as fh:  # 64 mels * 5 frames = 320 != model dim 160
        yaml.safe_dump({"features": {"n_mels": 64, "context_frames": 5}}, fh)
    out_csv = tmp_path / "s.csv"
    rc = main(["score", "--model", str(paths["model"].parent), "--config", str(wrong),
               "--data-root", str(root), "--machine", SMALL_MACHINE,
               "--mode", "mse", "--out", str(out_csv)])
    assert rc == EXIT_CONFIG
    assert "feature dim 320" in capsys.readouterr().err
    assert not out_csv.exists()

    model_dir = copy_artifacts(paths, tmp_path / "model", ("model", "thresholds", "config"))
    save_covariances(identity_covariances(8), model_dir / paths["cov"].name)
    rc = main(["score", "--model", str(model_dir), "--data-root", str(root),
               "--machine", SMALL_MACHINE, "--mode", "mahala", "--out", str(out_csv)])
    assert rc == EXIT_CONFIG
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
        for mode in ("mse", "mahala"):
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
    data = tmp_path / "data8k"  # the model was trained at 16 kHz
    manifest = synth_generate(
        SynthSpec(sample_rate=8000, clip_seconds=0.5, machines=[SMALL_MACHINE],
                  counts=SynthCounts(0, 0, 2, 1, 1, 1, 0)), data, seed=3)
    first = sorted(r.path for r in manifest.records)[0]
    out_csv = tmp_path / "scores.csv"
    rc = main(["score", "--model", str(paths["model"].parent), "--data-root", str(data),
               "--machine", SMALL_MACHINE, "--mode", "mse", "--out", str(out_csv)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "could be scored" in err and first in err and "clip rate 8000 Hz" in err
    errors = (tmp_path / "scores.csv.errors.csv").read_text().splitlines()
    assert len(errors) == 1 + len(manifest.records)
    assert not out_csv.exists()


@pytest.mark.parametrize("source", ["echo", "--config"])
def test_score_mode_defaults_to_config_mode(trained_artifacts, tmp_path, source):
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model")
    settings = config.to_dict()
    settings["scoring"]["mode"] = "mahalanobis"
    cfg = model_dir / "config.yaml" if source == "echo" else tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(settings))
    cmd = ["score", "--model", str(model_dir), "--data-root", str(root),
           "--machine", SMALL_MACHINE]
    if source == "--config":  # overrides the mse echo beside the model
        cmd += ["--config", str(cfg)]
    assert main(cmd + ["--mode", "mahala", "--out", str(tmp_path / "explicit.csv")]) == EXIT_OK
    assert main(cmd + ["--out", str(tmp_path / "default.csv")]) == EXIT_OK
    assert ((tmp_path / "default.csv").read_bytes()
            == (tmp_path / "explicit.csv").read_bytes())


def test_echo_with_removed_key_exits_config(trained_artifacts, tmp_path, capsys):
    config, paths, root = trained_artifacts
    model_dir = copy_artifacts(paths, tmp_path / "model")
    echo = yaml.safe_load((model_dir / "config.yaml").read_text())
    echo["train"]["beta1"] = 0.9  # a key echoes written before it was fixed still hold
    (model_dir / "config.yaml").write_text(yaml.safe_dump(echo))
    out_csv = tmp_path / "s.csv"
    rc = main(["score", "--model", str(model_dir), "--data-root", str(root),
               "--machine", SMALL_MACHINE, "--out", str(out_csv)])
    assert rc == EXIT_CONFIG
    assert "beta1" in capsys.readouterr().err
    assert not out_csv.exists()


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
    for arg in (model_dir, model_dir / "model.aem"):
        assert main(["macs", "--model", str(arg)]) == EXIT_ARTIFACT


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


def test_evaluate_missing_scores_file(small_dataset, tmp_path):
    root, _ = small_dataset
    rc = main(["evaluate", "--scores", str(tmp_path / "none.csv"),
               "--manifest", str(root / "manifest.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("case", ["manifest-directory", "missing-reference",
                                  "non-numeric-reference"])
def test_evaluate_unreadable_table_exits_config(small_dataset, tmp_path, case):
    root, manifest = small_dataset
    scores_csv = tmp_path / "scores.csv"
    write_score_csv(separated_scores(manifest, SMALL_MACHINE), scores_csv)
    truth = tmp_path if case == "manifest-directory" else root / "manifest.csv"
    cmd = ["evaluate", "--scores", str(scores_csv), "--manifest", str(truth),
           "--out", str(tmp_path / "report")]
    reference = tmp_path / "reference.csv"
    if case == "non-numeric-reference":
        reference.write_text(f"machine,auc_source,auc_target,pauc\n{SMALL_MACHINE},x,90,80\n")
    if case != "manifest-directory":
        cmd += ["--reference", str(reference)]
    assert main(cmd) == EXIT_CONFIG
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
    root, manifest = small_dataset
    scores_csv = tmp_path / "scores.csv"
    write_score_csv(separated_scores(manifest, SMALL_MACHINE), scores_csv)
    rc = main(["evaluate", "--scores", str(scores_csv), "--manifest",
               str(root / "manifest.csv"), "--out", str(tmp_path / "report"),
               "--pauc-p", p])
    assert rc == EXIT_CONFIG
    assert "--pauc-p" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


# ---------------------------------------------------------------------------
# macs

def test_macs_command_default_architecture(tmp_path, capsys):
    model = init_model(DEFAULT_LAYER_DIMS, seed=0)
    path = tmp_path / "model.aem"
    save_model(model, path)
    assert main(["macs", "--model", str(path), "--seconds", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "MACs per input vector: 264192" in out
    # 10 s at 16 kHz: T = 1 + (160000-1024)//512 = 311, K = 307
    assert "T=311 frames, K=307 vectors" in out
    assert f"MACs per clip: {264192 * 307}" in out


@pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1", "0.01"])
def test_macs_seconds_without_a_vector_exits_config(tmp_path, capsys, seconds):
    path = tmp_path / "model.aem"
    save_model(init_model(DEFAULT_LAYER_DIMS, seed=0), path)
    assert main(["macs", "--model", str(path), "--seconds", seconds]) == EXIT_CONFIG
    assert "--seconds" in capsys.readouterr().err


def test_macs_command_corrupt_model(tmp_path):
    path = tmp_path / "model.aem"
    path.write_bytes(b"garbage")
    assert main(["macs", "--model", str(path)]) == EXIT_ARTIFACT


def test_macs_command_missing_model(tmp_path):
    assert main(["macs", "--model", str(tmp_path / "no.aem")]) == EXIT_ARTIFACT


def test_macs_accepts_training_dir(trained_artifacts, capsys):
    config, paths, root = trained_artifacts
    outs = []
    for arg in (paths["model"].parent, paths["model"]):
        assert main(["macs", "--model", str(arg), "--seconds", "1"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "layer dims: [160, 64, 8, 64, 160]" in outs[0]


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
