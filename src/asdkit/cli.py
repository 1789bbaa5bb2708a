"""Command-line front end: synth, train, score, evaluate, macs.

Exit codes are stable for scripting:
    0  success
    2  configuration problem (bad flags, config or synth spec, an unreadable or
       malformed table, an --out that would overwrite an input, a score
       --machine not the run's)
    3  data problem (empty manifest, unknown machine, train clips lacking a
       domain, a bad training clip, residual covariances that cannot be factored)
    4  artifact problem (missing/corrupt/non-finite model, covariance, thresholds
       or config echo, or an echo or covariance that does not fit the model)
    5  scores and ground truth do not match up (or share no labeled test clip)

Every command echoes its resolved configuration next to its outputs. Every
artifact, CSV, report and echo is written atomically (temp + rename); an
output path that cannot be written is a configuration problem (exit 2).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, _pool
from ._io import atomic_write, make_dir, remove_stale, write_table, write_yaml
from .config import RunConfig, read_yaml, unknown_keys
from .dataset import (DatasetManifest, MANIFEST_FILENAME, load_manifest,
                      scan_dataset)
from .dsp import (HOP_LENGTH, N_FFT, SAMPLE_RATE_HZ, extract_features, frame_count,
                  log_mel, read_wav, stack_frames, wav_num_samples)
from .errors import (AsdkitError, ConfigError, DatasetError, MismatchError,
                     ModelFileError, TooShortError, WavFormatError)
from .metrics import (PAUC_P, ScoredClip, build_report, load_reference_csv,
                      render_report, write_report_csv)
from .model import count_macs, default_layer_dims, init_model, load_model, save_model, train
from .scoring import (MODES, decide, fit_covariances, fit_threshold, load_covariances,
                      load_thresholds, read_score_csv, save_covariances, save_thresholds,
                      score_mahalanobis, score_mse, write_score_csv)
from .synth import SPEC_FILENAME, SynthSpec, synth_generate

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
    manifest = scan_dataset(root)
    if manifest.skipped:
        path, reason = manifest.skipped[0]
        print(f"warning: skipped {len(manifest.skipped)} .wav file(s) under {root} "
              f"that name no clip; first: {path}: {reason}", file=sys.stderr)
    return manifest


def _machine_clips(data_root, machine: str, split: str):
    """The machine's clips of split in the dataset, sorted by path; DatasetError if none."""
    manifest = _resolve_manifest(data_root)
    if machine not in manifest.machines():
        raise DatasetError(
            f"machine {machine!r} not in manifest (have: {manifest.machines()})")
    records = sorted(manifest.select(machine=machine, split=split), key=lambda r: r.path)
    if not records:
        raise DatasetError(f"no {split} clips for machine {machine!r}")
    return records


def _artifact_paths(out_dir) -> dict[str, Path]:
    """The files a training run writes into its output directory."""
    out = Path(out_dir)
    return {"model": out / MODEL_FILENAME, "cov": out / COV_FILENAME,
            "thresholds": out / THRESHOLDS_FILENAME,
            "loss": out / LOSS_FILENAME, "config": out / CONFIG_ECHO_FILENAME}


def _load_run(run_dir):
    """(config, model, artifact paths, machine) of a training run directory,
    checked to agree; machine is the echo's run.machine, None if it has none.

    The config.yaml echo is the only config that describes a run, so any
    problem with it is an artifact problem (ModelFileError) naming the file.
    """
    paths = _artifact_paths(run_dir)
    try:
        data = read_yaml(paths["config"], "config echo")
        run = data.pop("run", None)
        stale = unknown_keys(RunConfig, data)  # keys an older asdkit wrote
        config = None if stale else RunConfig.from_dict(data)
    except ConfigError as exc:
        raise ModelFileError(f"{paths['config']}: {exc}; retrain the model") from exc
    if stale:
        raise ModelFileError(f"{paths['config']}: unknown config keys: {stale}; retrain the "
                             "model, or delete these keys if they hold the old defaults")
    model = load_model(paths["model"])
    feature_dim = config.features.feature_dim
    if feature_dim != model.input_dim:
        raise ModelFileError(
            f"{paths['config']}: feature dim {feature_dim} (context_frames * n_mels) "
            f"does not match input dim {model.input_dim} of {paths['model']}")
    return config, model, paths, run.get("machine") if isinstance(run, dict) else None


def _feature_store(config: RunConfig, root: Path, records):
    """Extract every clip's log-mel frames into one float32 (M, n_mels) array.

    M is the total frame count of the clips. The array is allocated once at
    its final size, counted from each clip's WAV headers, and holds each frame
    once. Clips are read on the fork pool, whose workers write their rows
    into the array in place (then held in shared memory). Returns the
    frames, the first frame row of every stacked vector that lies within one
    clip (the rows train() takes), per clip (offset, T, domain) of its frame
    rows, and the worker count the clips' audio gives.
    """
    f = config.features
    counts, samples = [], 0
    for rec in records:
        n = wav_num_samples(root / rec.path)
        if f.vector_count(n) == 0:
            raise TooShortError(
                f"training clip {rec.path} has {n} samples, fewer than "
                f"{f.context_frames} frames of {N_FFT} samples at hop {HOP_LENGTH}")
        counts.append(frame_count(n))
        samples += n
    workers = _pool.worker_count(len(records), samples / SAMPLE_RATE_HZ)
    offsets = list(itertools.accumulate(counts, initial=0))  # clip i: rows offsets[i:i+2]
    shape = (offsets[-1], f.n_mels)
    frames = (_pool.shared_empty(shape, np.float32) if workers > 1
              else np.empty(shape, dtype=np.float32))

    def fill(i):
        clip = read_wav(root / records[i].path)
        frames[offsets[i]:offsets[i + 1]] = log_mel(clip, f)

    for _ in _pool.run(fill, range(len(records)), workers):
        pass
    rows = np.concatenate([np.arange(o, o + t - f.context_frames + 1)
                           for o, t in zip(offsets, counts)])
    clips = [(o, t, rec.domain) for o, t, rec in zip(offsets, counts, records)]
    return frames, rows, clips, workers


def _pcm_seconds(root: Path, records) -> float:
    """Audio seconds of the clips as 16-bit PCM at SAMPLE_RATE_HZ.

    Taken from file sizes, which costs a stat per clip rather than a header
    read; it only sizes the worker pool. A missing file counts 0.
    """
    size = 0
    for rec in records:
        with contextlib.suppress(OSError):
            size += os.path.getsize(root / rec.path)
    return size / (2 * SAMPLE_RATE_HZ)


def train_machine(config: RunConfig, data_root, machine: str, out_dir) -> dict:
    """Train the autoencoder for one machine and write all artifacts.

    Trains on source+target train clips together (a DatasetError before any
    clip is read if either domain has none), fits per-domain residual
    covariances, and fits one threshold per scoring mode on the training
    scores. The only full-size array is the float32 frame store, stacked
    once as a zero-copy view (dsp.stack_frames): training gathers its
    batches from the view, and residual statistics and threshold scores
    take it clip by clip. Frame extraction, the residual pass of
    fit_covariances (in blocks of clips fixed by the clip order alone, so
    the covariance bytes do not depend on the worker count) and the
    Mahalanobis threshold scores run on the fork pool. Only once every
    artifact is computed are the previous run's five files replaced, so a
    failed run leaves the previous one as it was.
    """
    train_records = _machine_clips(data_root, machine, "train")
    missing = [d for d in ("source", "target") if not any(r.domain == d for r in train_records)]
    if missing:
        raise DatasetError(f"machine {machine!r} has no train clips of the "
                           f"{' or '.join(missing)} domain; training needs both")
    make_dir(out_dir)
    frames, rows, clips, workers = _feature_store(config, Path(data_root), train_records)
    model0 = init_model(default_layer_dims(config.features.feature_dim), seed=config.seed)
    stacked = stack_frames(frames, config.features)  # a vector may span two clips
    model, history = train(model0, stacked, config.train, rows)

    def vectors(i):
        offset, t, _ = clips[i]
        return stacked[offset:offset + t - config.features.context_frames + 1]

    mse_scores, cov = fit_covariances(model, vectors, [domain for *_, domain in clips],
                                      workers)
    mah_scores = list(_pool.run(lambda i: score_mahalanobis(model, vectors(i), cov),
                                range(len(clips)), workers))
    thresholds = {"mse": fit_threshold(mse_scores), "mahalanobis": fit_threshold(mah_scores)}

    paths = _artifact_paths(out_dir)
    for path in paths.values():
        remove_stale(path)
    save_model(model, paths["model"])
    write_table(paths["loss"], ["epoch", "mse"],
                ([epoch, repr(float(value))] for epoch, value in enumerate(history)))
    save_covariances(cov, paths["cov"])
    save_thresholds(thresholds, paths["thresholds"])
    config.echo(paths["config"], extra={"command": "train", "machine": machine,
                                        "data_root": str(data_root)})
    return paths


def _refuse_overwrite(out, suffixes, inputs) -> None:
    """ConfigError if out + a suffix resolves to an input path (of (flag, path) pairs)."""
    outputs = {Path(f"{out}{ext}").resolve() for ext in suffixes}
    for flag, path in inputs:
        if path is not None and Path(path).resolve() in outputs:
            raise ConfigError(f"{flag} {path} is one of the files --out {out} writes")


def score_machine(run_dir, data_root, machine: str, mode: str | None, out_csv):
    """Score every test clip of a machine with the model trained into run_dir,
    in mode (None: the echo's scoring.mode); returns (rows, row_errors)."""
    _refuse_overwrite(out_csv, ("", ".errors.csv", ".config.yaml"),
                      [*(("--model", path) for path in _artifact_paths(run_dir).values()),
                       ("--data-root", Path(data_root) / MANIFEST_FILENAME)])
    config, model, paths, trained_on = _load_run(run_dir)
    if not isinstance(trained_on, str):
        raise ModelFileError(f"{paths['config']}: names no run.machine; retrain the model")
    mode = mode or config.scoring.mode
    phi = load_thresholds(paths["thresholds"])[mode]
    cov = load_covariances(paths["cov"]) if mode == "mahalanobis" else None
    if cov is not None and cov.dim != model.input_dim:
        raise ModelFileError(f"{paths['cov']}: covariance dim {cov.dim} does not match "
                             f"input dim {model.input_dim} of {paths['model']}")

    records = _machine_clips(data_root, machine, "test")
    if trained_on != machine:  # after the lookup: a machine the dataset lacks exits 3
        raise ConfigError(f"--machine {machine!r} is not {trained_on!r}, the machine "
                          f"the run in {run_dir} was trained on")
    root = Path(data_root)

    def score_clip(rec):
        """(score, None), or (None, reason) for a clip that cannot be scored."""
        try:
            feats = extract_features(read_wav(root / rec.path), config.features)
            if mode == "mse":
                return score_mse(model, feats), None
            return score_mahalanobis(model, feats, cov), None
        except (WavFormatError, TooShortError, ConfigError) as exc:
            return None, str(exc)

    workers = _pool.worker_count(len(records), _pcm_seconds(root, records))
    rows, row_errors = [], []
    results = _pool.run(score_clip, records, workers)
    for rec, (score, error) in zip(records, results, strict=True):
        if error is None:
            rows.append((rec.path, score, decide(score, phi)))
        else:
            row_errors.append((rec.path, error))
    if row_errors:
        write_table(str(out_csv) + ".errors.csv", ["clip_path", "error"], row_errors)
    else:
        remove_stale(str(out_csv) + ".errors.csv")
    if not rows:
        path, error = row_errors[0]
        raise DatasetError(f"no test clip of {machine!r} could be scored (see "
                           f"{out_csv}.errors.csv); first: {path}: {error}")
    write_score_csv(rows, out_csv)
    config.echo(str(out_csv) + ".config.yaml",
                extra={"command": "score", "machine": machine, "mode": mode,
                       "data_root": str(data_root), "model": str(paths["model"])})
    return rows, row_errors


def _first_ten(paths) -> str:
    return ", ".join(paths[:10]) + ("..." if len(paths) > 10 else "")


def evaluate_scores(scores_csv, manifest_path, out_base, reference_csv=None):
    """Join scores with ground truth, compute the report (pAUC at the paper's
    p = 0.1), write CSV + table. Returns the report, the scored clips that are
    no labeled test clip, and the labeled test clips of the scored machine
    types that have no score."""
    out_base = str(out_base)
    _refuse_overwrite(out_base, (".csv", ".txt", ".config.yaml"),
                      [("--scores", scores_csv), ("--manifest", manifest_path),
                       ("--reference", reference_csv)])
    scores_path = Path(scores_csv)
    truth_path = Path(manifest_path)
    score_rows = read_score_csv(scores_path)
    if not score_rows:
        raise MismatchError(f"{scores_path}: no score rows")
    repeated = [path for path, n in Counter(row[0] for row in score_rows).items() if n > 1]
    if repeated:
        raise MismatchError(f"{len(repeated)} clips scored more than once in "
                            f"{scores_path}: {_first_ten(repeated)}")
    manifest = load_manifest(truth_path)
    by_path = {r.path: r for r in manifest.records}
    unmatched = [path for path, _, _ in score_rows if path not in by_path]
    if unmatched:
        raise MismatchError(f"{len(unmatched)} scored clips missing from truth "
                            f"manifest: {_first_ten(unmatched)}")
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
    if not clips:
        raise MismatchError(f"none of the {len(score_rows)} clips in {scores_path} is a "
                            f"labeled test clip in {truth_path}")
    scored = {c.path for c in clips}
    machines = {c.machine_type for c in clips}
    unscored = [r.path for r in manifest.records
                if r.machine_type in machines and r.split == "test"
                and r.condition != "unknown" and r.path not in scored]
    reference = load_reference_csv(reference_csv) if reference_csv else None
    report = build_report(clips, reference=reference)
    write_report_csv(report, out_base + ".csv")
    with atomic_write(out_base + ".txt") as fh:
        fh.write(render_report(report))
    write_yaml(out_base + ".config.yaml",
               {"command": "evaluate", "scores": str(scores_path),
                "manifest": str(truth_path), "pauc_p": PAUC_P,
                "reference": None if reference_csv is None else str(reference_csv),
                "unscored_test_clips": len(unscored)})
    return report, skipped, unscored


# ---------------------------------------------------------------------------
# commands

def _cmd_synth(args) -> int:
    spec = SynthSpec.from_yaml(args.spec)
    manifest = synth_generate(spec, args.out, seed=args.seed)
    write_yaml(Path(args.out) / SPEC_FILENAME,
               {"command": "synth", "seed": args.seed, "spec": spec.to_dict()})
    print(f"wrote {len(manifest.records)} clips for "
          f"{len(manifest.machines())} machine(s) under {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    data = {} if args.config is None else read_yaml(args.config, "config")
    config = RunConfig.from_dict(data, seed_override=args.seed)
    paths = train_machine(config, args.data_root, args.machine, args.out)
    print(f"trained model for {args.machine!r}: {paths['model']}")
    return EXIT_OK


def _cmd_score(args) -> int:
    rows, row_errors = score_machine(args.model, args.data_root, args.machine,
                                     args.mode, args.out)
    print(f"scored {len(rows)} clips -> {args.out}"
          + (f" ({len(row_errors)} warnings, see {args.out}.errors.csv)"
             if row_errors else ""))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    report, skipped, unscored = evaluate_scores(args.scores, args.manifest, args.out,
                                                reference_csv=args.reference)
    if skipped:
        print(f"warning: {len(skipped)} scored clips were not labeled test clips "
              "and were excluded", file=sys.stderr)
    if unscored:
        print(f"warning: {len(unscored)} labeled test clips of the scored machine types "
              f"have no score and are left out of the official score: "
              f"{_first_ten(unscored)}", file=sys.stderr)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def _cmd_macs(args) -> int:
    config, model, _, _ = _load_run(args.model)
    per_vector = count_macs(model)
    f = config.features
    samples = args.seconds * SAMPLE_RATE_HZ  # inf past about 1e304 s
    n = round(samples) if 0 < samples < math.inf else 0
    k = f.vector_count(n)
    if k == 0:
        raise ConfigError(f"--seconds {args.seconds} gives no {f.context_frames}-frame "
                          f"vector (n_fft={N_FFT}, hop={HOP_LENGTH})")
    print(f"layer dims: {model.layer_dims}")
    print(f"MACs per input vector: {per_vector}")
    print(f"clip of {args.seconds:g} s at {SAMPLE_RATE_HZ} Hz "
          f"(n_fft={N_FFT}, hop={HOP_LENGTH}, stack={f.context_frames}): "
          f"T={frame_count(n)} frames, K={k} vectors")
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
    p.add_argument("--model", required=True, help="training output directory")
    p.add_argument("--data-root", required=True)
    p.add_argument("--machine", required=True)
    p.add_argument("--mode", default=None, choices=MODES,
                   help="scoring mode (default: scoring.mode of the training run)")
    p.add_argument("--out", required=True, help="output scores CSV")
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("evaluate", help="compute AUC/pAUC/official score from scores")
    p.add_argument("--scores", required=True, help="scores CSV from `asdkit score`")
    p.add_argument("--manifest", required=True, help="ground-truth manifest CSV")
    p.add_argument("--out", required=True, help="report base path (writes .csv and .txt)")
    p.add_argument("--reference", default=None,
                   help="reference table CSV (machine,auc_source,auc_target,pauc in percent)")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("macs", help="report model complexity")
    p.add_argument("--model", required=True, help="training output directory")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="clip length for the per-clip figure")
    p.set_defaults(fn=_cmd_macs)
    return parser


# error class -> exit code, first match wins; any other toolkit error is a data problem
_EXIT_CODES = ((ConfigError, EXIT_CONFIG), (ModelFileError, EXIT_ARTIFACT),
               (MismatchError, EXIT_MISMATCH), (AsdkitError, EXIT_DATA))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pool.keep_heap()  # in-process passes reuse a clip's pages too, as workers do
    try:
        return args.fn(args)
    except AsdkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
