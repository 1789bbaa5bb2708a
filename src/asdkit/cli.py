"""Command-line front end: synth, train, score, evaluate, macs.

Exit codes are stable for scripting:
    0  success
    2  configuration problem (bad flags, config or synth spec, unreadable table)
    3  data problem (empty manifest, unknown machine, no train clips)
    4  artifact problem (missing/corrupt/non-finite model, covariance, thresholds)
    5  scores and ground truth do not match up

Every command echoes its resolved configuration next to its outputs. Every
artifact, CSV, report and echo is written atomically (temp + rename); an
output path that cannot be written is a configuration problem (exit 2).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._io import atomic_write, make_dir, write_yaml
from .config import RunConfig, normalize_mode, read_yaml
from .dataset import (DatasetManifest, MANIFEST_FILENAME, load_manifest,
                      scan_dataset)
from .dsp import extract_features, frame_count, read_wav, wav_num_samples
from .errors import (AsdkitError, ConfigError, DatasetError, MismatchError,
                     ModelFileError, TooShortError, WavFormatError)
from .metrics import (ScoredClip, ScoredTestSet, build_report,
                      load_reference_csv, render_report, write_report_csv)
from .model import count_macs, init_model, load_model, save_model, train
from .scoring import (covariances_from_moments, fit_threshold, load_covariances,
                      load_thresholds, read_score_csv, residual_statistics,
                      save_covariances, save_thresholds, score_mahalanobis,
                      score_mse, write_score_csv, decide)
from .synth import SynthSpec, synth_generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ARTIFACT = 4
EXIT_MISMATCH = 5

MODEL_FILENAME = "model.aem"
COV_FILENAME = "covariances.cov"
THRESHOLDS_FILENAME = "thresholds.json"
LOSS_FILENAME = "loss_history.csv"
CONFIG_ECHO_FILENAME = "config.yaml"


def _resolve_manifest(data_root) -> DatasetManifest:
    root = Path(data_root)
    manifest_path = root / MANIFEST_FILENAME
    if manifest_path.exists():
        return load_manifest(manifest_path)
    return scan_dataset(root)


def _load_run_config(config_path, seed_override: int | None = None) -> RunConfig:
    data = {} if config_path is None else read_yaml(config_path, "config")
    return RunConfig.from_dict(data, seed_override=seed_override)


def _artifact_paths(out_dir) -> dict[str, Path]:
    """The files a training run writes into its output directory."""
    out = Path(out_dir)
    return {"model": out / MODEL_FILENAME, "cov": out / COV_FILENAME,
            "thresholds": out / THRESHOLDS_FILENAME,
            "loss": out / LOSS_FILENAME, "config": out / CONFIG_ECHO_FILENAME}


def _model_paths(model_arg) -> dict[str, Path]:
    """Accept either the model file or its training output directory."""
    p = Path(model_arg)
    if p.is_file():
        return {**_artifact_paths(p.parent), "model": p}
    return _artifact_paths(p)


def _config_for_model(paths: dict[str, Path], config_arg) -> RunConfig:
    if config_arg is None and paths["config"].exists():
        config_arg = paths["config"]
    return _load_run_config(config_arg)


def _write_loss_history(history, path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mse"])
        for epoch, value in enumerate(history):
            writer.writerow([epoch, repr(float(value))])


def _feature_store(config: RunConfig, root: Path, records):
    """Extract every clip's features into one float32 (N, D) array.

    The array is allocated once at its final size, counted from each clip's
    WAV header, so no per-clip or float64 copy of the whole set is ever held.
    Returns the array and, per clip, (offset, K, domain) of its rows.
    """
    f = config.features
    counts = []
    for rec in records:
        n = wav_num_samples(root / rec.path)
        k = frame_count(n, f.n_fft, f.hop_length) - f.context_frames + 1
        if k <= 0:
            raise TooShortError(
                f"training clip {rec.path} has {n} samples, fewer than "
                f"{f.context_frames} frames of {f.n_fft} samples at hop {f.hop_length}")
        counts.append(k)
    store = np.empty((sum(counts), f.feature_dim), dtype=np.float32)
    clips = []
    offset = 0
    for rec, k in zip(records, counts):
        store[offset:offset + k] = extract_features(read_wav(root / rec.path), f)
        clips.append((offset, k, rec.domain))
        offset += k
    return store, clips


def train_machine(config: RunConfig, data_root, machine: str, out_dir) -> dict:
    """Train the autoencoder for one machine and write all artifacts.

    Trains on source+target train clips together, fits per-domain residual
    covariances, and fits one threshold per scoring mode on the training
    scores. The only full-size array is the float32 feature store; residual
    statistics and threshold scores are streamed clip by clip over it.
    Returns the artifact paths.
    """
    manifest = _resolve_manifest(data_root)
    if machine not in manifest.machines():
        raise DatasetError(
            f"machine {machine!r} not in manifest (have: {manifest.machines()})")
    train_records = sorted(manifest.select(machine=machine, split="train"),
                           key=lambda r: r.path)
    if not train_records:
        raise DatasetError(f"no training clips for machine {machine!r}")
    make_dir(out_dir)
    store, clips = _feature_store(config, Path(data_root), train_records)
    model0 = init_model(config.layer_dims, seed=config.seed)
    model, history = train(model0, store, config.train)

    paths = _artifact_paths(out_dir)
    save_model(model, paths["model"])
    _write_loss_history(history, paths["loss"])

    mse_scores, moments = residual_statistics(
        model, ((store[o:o + k], domain) for o, k, domain in clips))
    cov = None
    if moments["source"].n and moments["target"].n:
        cov = covariances_from_moments(moments["source"], moments["target"],
                                       ridge=config.ridge)
        save_covariances(cov, paths["cov"])
    else:
        print("warning: missing a training domain; covariance file not written, "
              "mahalanobis mode will be unavailable", file=sys.stderr)

    thresholds = {"mse": fit_threshold(mse_scores, config.threshold_percentile,
                                       split="train", mode="mse")}
    if cov is not None:
        mah_scores = [score_mahalanobis(model, store[o:o + k], cov)
                      for o, k, _ in clips]
        thresholds["mahalanobis"] = fit_threshold(
            mah_scores, config.threshold_percentile, split="train", mode="mahalanobis")
    save_thresholds(thresholds, paths["thresholds"])
    config.echo(paths["config"], extra={"command": "train", "machine": machine,
                                        "data_root": str(data_root)})
    return paths


def score_machine(config: RunConfig, paths: dict[str, Path], data_root,
                  machine: str, mode: str, out_csv):
    """Score every test clip of a machine; returns (rows, row_errors)."""
    mode = normalize_mode(mode)
    model = load_model(paths["model"])
    cov = load_covariances(paths["cov"]) if mode == "mahalanobis" else None
    thresholds = load_thresholds(paths["thresholds"])
    if mode not in thresholds:
        raise ModelFileError(f"no {mode!r} threshold in {paths['thresholds']}")
    threshold = thresholds[mode]
    feature_dim = config.features.feature_dim
    if feature_dim != model.input_dim:
        raise ConfigError(
            f"config feature dim {feature_dim} (context_frames * n_mels) does not "
            f"match model input dim {model.input_dim} of {paths['model']}")
    if cov is not None and cov.dim != feature_dim:
        raise ConfigError(
            f"config feature dim {feature_dim} does not match covariance dim "
            f"{cov.dim} of {paths['cov']}")

    manifest = _resolve_manifest(data_root)
    records = sorted(manifest.select(machine=machine, split="test"),
                     key=lambda r: r.path)
    if not records:
        raise DatasetError(f"no test clips for machine {machine!r}")
    root = Path(data_root)
    rows = []
    row_errors = []
    for rec in records:
        try:
            feats = extract_features(read_wav(root / rec.path), config.features)
            if mode == "mse":
                score = score_mse(model, feats)
            else:
                score = score_mahalanobis(model, feats, cov)
        except (WavFormatError, TooShortError, ConfigError) as exc:
            row_errors.append((rec.path, str(exc)))
            continue
        rows.append((rec.path, score, decide(score, threshold)))
    if row_errors:
        with atomic_write(str(out_csv) + ".errors.csv", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["clip_path", "error"])
            writer.writerows(row_errors)
    if not rows:
        path, error = row_errors[0]
        raise DatasetError(f"no test clip of {machine!r} could be scored (see "
                           f"{out_csv}.errors.csv); first: {path}: {error}")
    write_score_csv(rows, out_csv)
    config.echo(str(out_csv) + ".config.yaml",
                extra={"command": "score", "machine": machine, "mode": mode,
                       "data_root": str(data_root), "model": str(paths["model"])})
    return rows, row_errors


def evaluate_scores(scores_csv, manifest_path, out_base, reference_csv=None,
                    macs: int | None = None, p: float = 0.1):
    """Join scores with ground truth, compute the report, write CSV + table."""
    scores_path = Path(scores_csv)
    truth_path = Path(manifest_path)
    score_rows = read_score_csv(scores_path)
    if not score_rows:
        raise MismatchError(f"{scores_path}: no score rows")
    manifest = load_manifest(truth_path)
    by_path = {r.path: r for r in manifest.records}
    unmatched = [path for path, _, _ in score_rows if path not in by_path]
    if unmatched:
        raise MismatchError(
            f"{len(unmatched)} scored clips missing from truth manifest: "
            + ", ".join(unmatched[:10])
            + ("..." if len(unmatched) > 10 else ""))
    clips = []
    skipped = []
    for path, value, _decision in score_rows:
        rec = by_path[path]
        if rec.split != "test" or rec.condition == "unknown":
            skipped.append(path)
            continue
        clips.append(ScoredClip(path=path, machine_type=rec.machine_type,
                                section=rec.section, domain=rec.domain,
                                condition=rec.condition, score=value))
    reference = load_reference_csv(reference_csv) if reference_csv else None
    report = build_report(ScoredTestSet(clips), model_macs=macs,
                          reference=reference, p=p)
    out_base = str(out_base)
    write_report_csv(report, out_base + ".csv")
    with atomic_write(out_base + ".txt") as fh:
        fh.write(render_report(report))
    write_yaml(out_base + ".config.yaml",
               {"command": "evaluate", "scores": str(scores_path),
                "manifest": str(truth_path), "pauc_p": p,
                "reference": None if reference_csv is None else str(reference_csv),
                "macs_per_vector": macs})
    return report, skipped


def _frames_for_seconds(config: RunConfig, seconds: float) -> tuple[int, int]:
    f = config.features
    t = frame_count(int(round(seconds * f.sample_rate_hz)), f.n_fft, f.hop_length)
    if t == 0:
        raise ConfigError(f"{seconds} s is shorter than one {f.n_fft}-sample frame")
    if t < f.context_frames:
        raise ConfigError(f"{seconds} s gives only {t} frames, need "
                          f">= {f.context_frames}")
    return t, t - f.context_frames + 1


# ---------------------------------------------------------------------------
# commands

def _cmd_synth(args) -> int:
    spec = SynthSpec.from_yaml(args.spec)
    manifest = synth_generate(spec, args.out, seed=args.seed)
    write_yaml(Path(args.out) / "synth_spec.yaml",
               {"command": "synth", "seed": args.seed, "spec": spec.to_dict()})
    print(f"wrote {len(manifest.records)} clips for "
          f"{len(manifest.machines())} machine(s) under {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _load_run_config(args.config, seed_override=args.seed)
    paths = train_machine(config, args.data_root, args.machine, args.out)
    print(f"trained model for {args.machine!r}: {paths['model']}")
    return EXIT_OK


def _cmd_score(args) -> int:
    paths = _model_paths(args.model)
    config = _config_for_model(paths, args.config)
    rows, row_errors = score_machine(config, paths, args.data_root, args.machine,
                                     args.mode or config.mode, args.out)
    print(f"scored {len(rows)} clips -> {args.out}"
          + (f" ({len(row_errors)} warnings, see {args.out}.errors.csv)"
             if row_errors else ""))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    report, skipped = evaluate_scores(args.scores, args.manifest, args.out,
                                      reference_csv=args.reference,
                                      macs=args.macs, p=args.pauc_p)
    if skipped:
        print(f"warning: {len(skipped)} scored clips were not labeled test clips "
              "and were excluded", file=sys.stderr)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def _cmd_macs(args) -> int:
    paths = _model_paths(args.model)
    model = load_model(paths["model"])
    config = _config_for_model(paths, args.config)
    per_vector = count_macs(model)
    t, k = _frames_for_seconds(config, args.seconds)
    f = config.features
    print(f"layer dims: {model.layer_dims}")
    print(f"MACs per input vector: {per_vector}")
    print(f"clip of {args.seconds:g} s at {f.sample_rate_hz} Hz "
          f"(n_fft={f.n_fft}, hop={f.hop_length}, stack={f.context_frames}): "
          f"T={t} frames, K={k} vectors")
    print(f"MACs per clip: {per_vector * k}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asdkit",
        description="First-shot unsupervised anomalous-sound-detection toolkit")
    parser.add_argument("--version", action="version", version=f"asdkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="synth spec YAML")
    p.add_argument("--out", required=True, help="output dataset root")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="train the autoencoder for one machine")
    p.add_argument("--config", default=None, help="run config YAML")
    p.add_argument("--data-root", required=True)
    p.add_argument("--machine", required=True)
    p.add_argument("--out", required=True, help="artifact output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("score", help="score the test clips of one machine")
    p.add_argument("--model", required=True, help="model file or training out dir")
    p.add_argument("--config", default=None,
                   help="run config YAML (default: echo stored beside the model)")
    p.add_argument("--data-root", required=True)
    p.add_argument("--machine", required=True)
    p.add_argument("--mode", default=None, choices=["mse", "mahala", "mahalanobis"],
                   help="scoring mode (default: scoring.mode of the run config)")
    p.add_argument("--out", required=True, help="output scores CSV")
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("evaluate", help="compute AUC/pAUC/official score from scores")
    p.add_argument("--scores", required=True, help="scores CSV from `asdkit score`")
    p.add_argument("--manifest", required=True, help="ground-truth manifest CSV")
    p.add_argument("--out", required=True, help="report base path (writes .csv and .txt)")
    p.add_argument("--reference", default=None,
                   help="reference table CSV (machine,auc_source,auc_target,pauc in percent)")
    p.add_argument("--macs", type=int, default=None, help="MACs figure to include")
    p.add_argument("--pauc-p", type=float, default=0.1)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("macs", help="report model complexity")
    p.add_argument("--model", required=True, help="model file or training out dir")
    p.add_argument("--config", default=None)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="clip length for the per-clip figure")
    p.set_defaults(fn=_cmd_macs)
    return parser


# error class -> exit code, first match wins; any other toolkit error is a data problem
_EXIT_CODES = ((ConfigError, EXIT_CONFIG), (ModelFileError, EXIT_ARTIFACT),
               (MismatchError, EXIT_MISMATCH), (AsdkitError, EXIT_DATA))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AsdkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
