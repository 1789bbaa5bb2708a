#!/usr/bin/env python3
"""asdkit benchmark.

    python3 bench/run.py --workload desk --seed 7 --seconds 24 --trace 0

Runs one workload (see workloads.py and README.md) in this process and
prints every metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, measured untraced; with --trace 1 a
separate traced run gives the per-layer ones. A full record (environment,
samples, failures, per-layer detail) goes to .bench_work/results/.

Exits 2 without a result when the program's sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from measure import (MB, Ledger, PeakRss, cap_blas_threads, environment,  # noqa: E402
                     median, percentile, release_memory, summarize,
                     supports_percentile)

# Set-up runs at least SETUP_REPEATS times, and again while the set-ups so
# far have taken less than SETUP_BUDGET_S, so a fast set-up gets more samples.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 5.0
MIN_ITERATIONS = 2
# Start no iteration that is expected to end later than this after start-up,
# so that a slow machine still finishes well inside 180 s.
DEADLINE_S = 150.0

END_TO_END = (  # name, unit, better
    ("pipeline_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("score_clips_per_s", "clips/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("official_score.mse", "score", "higher"),
    ("official_score.mahalanobis", "score", "higher"),
    ("setup_s", "s", "lower"),
)

# Traced layers; True where calls are many enough for per-call percentiles.
LAYERS = {
    "dsp.read_wav": True, "dsp.stft_power": True, "dsp.log_mel": True,
    "dsp.stack_frames": True, "dsp.extract_features": True,
    "model.gradient": True, "model.train": False, "model.forward": True,
    "model.save_model": False,
    "scoring.fit_covariances": False, "scoring.fit_threshold": False,
    "scoring.score_mse": True, "scoring.score_mahalanobis": True,
    "scoring.mahalanobis_frame_scores": False, "scoring.save_covariances": False,
    "cli.main": False, "cli.train_machine": False, "cli.score_machine": False,
    "cli.evaluate_scores": False,
    "metrics.build_report": False,
    "dataset.load_manifest": False, "dataset.scan_dataset": False,
    "synth.synth_generate": False,
}
PER_CALL = (50.0, 95.0)
# Computed rates: MACs counted at the call boundary from count_macs / time.
RATES = ("model.gradient", "model.forward", "scoring.mahalanobis_frame_scores")
MEMORY = ("cli.train_machine", "scoring.fit_covariances", "model.train")
SETUP_LAYERS = ("synth.synth_generate",)  # only ever called during set-up


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for layer, per_call in LAYERS.items():
        spec += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
        if per_call:
            spec += [(f"{layer}.p{p:g}_ms", "ms", "lower") for p in PER_CALL]
    spec += [(f"{layer}.gmac_per_s", "GMAC/s", "higher") for layer in RATES]
    spec.append(("dsp.audio_s_per_s", "s/s", "higher"))
    spec += [(f"mem.{layer}.peak_traced_mb", "MB", "lower") for layer in MEMORY]
    spec += [("mem.feature_matrix_mb", "MB", "lower"),
             ("mem.rss_per_feature_byte", "ratio", "lower"),
             ("trace.overhead_share", "share", "lower"),
             ("trace.unaccounted_share", "share", "lower")]
    return spec


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def timed_loop(run_one, seconds: float, started: float, minimum: int) -> list:
    """Closed loop: run iterations back to back, at least ``minimum`` of them,
    and after that only those expected (from the median iteration so far) to
    end within ``seconds`` of the loop's start."""
    results, durations = [], []
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(results) >= minimum and (
                now - loop_start + median(durations) > seconds
                or now - started + median(durations) > DEADLINE_S):
            return results
        t0 = time.perf_counter()
        results.append(run_one(len(results)))
        durations.append(time.perf_counter() - t0)


def measured_iteration(session, setup, index, tracer=None, run_id=None, memory=False,
                       repeat_scoring=True):
    from contextlib import nullcontext

    release_memory()
    recording = tracer.recording(run_id, memory=memory) if tracer else nullcontext()
    with PeakRss() as rss, recording:
        it = session.iteration(index, setup, repeat_scoring)
    it.peak_rss_bytes = rss.peak_bytes
    session.check(it)
    return it


def end_to_end(setups, iterations) -> tuple[dict, dict]:
    samples = {
        "setup_s": [s.seconds for s in setups],
        "pipeline_s": [it.pipeline_s for it in iterations],
        "train_s": ([it.train_s for it in iterations] if iterations[0].train_s is not None
                    else [s.train_s for s in setups]),
        "score_clips_per_s": [it.rows / s for it in iterations for s in it.round_s],
        "peak_rss_mb": [it.peak_rss_bytes / MB for it in iterations],
        "official_score.mse": [it.official.get("mse") for it in iterations],
        "official_score.mahalanobis": [it.official.get("mahalanobis") for it in iterations],
    }
    metrics = {}
    for name, unit, _ in END_TO_END:
        values = [v for v in samples[name] if v is not None]
        if values:
            metrics[name] = {"value": median(values), "unit": unit}
    return metrics, {k: summarize([v for v in vs if v is not None]) for k, vs in samples.items()}


def per_layer(tracer, setup_run: str, memory_run: str, traced_runs: list[str],
              traced_s: list[float], untraced: list) -> tuple[dict, dict]:
    from tracing import layer_stats, top_level_seconds

    pooled = layer_stats(tracer.spans, traced_runs)
    each = [layer_stats(tracer.spans, [run]) for run in traced_runs]
    setup = layer_stats(tracer.spans, [setup_run])
    mem = layer_stats(tracer.spans, [memory_run])
    values = {}
    for layer, per_call in LAYERS.items():
        if layer in SETUP_LAYERS:
            stats = [setup.get(layer)]
        else:
            stats = [s.get(layer) for s in each]
        values[f"{layer}.self_s"] = median([s.self_s if s else 0.0 for s in stats])
        values[f"{layer}.calls"] = median([s.calls if s else 0 for s in stats])
        calls = pooled[layer].self_per_call if layer in pooled else []
        for p in PER_CALL if per_call else ():
            # 0 when fewer than 10 calls lie beyond the percentile (see .calls)
            ok = supports_percentile(len(calls), p)
            values[f"{layer}.p{p:g}_ms"] = 1e3 * percentile(calls, p) if ok else 0.0
    for layer in RATES:
        s = pooled.get(layer)
        values[f"{layer}.gmac_per_s"] = (s.work["macs"] / s.self_s / 1e9
                                         if s and s.self_s > 0 else 0.0)
    dsp_s = sum(s.self_s for name, s in pooled.items() if name.startswith("dsp."))
    features = pooled.get("dsp.extract_features")
    audio_s = features.work["audio_s"] if features else 0.0
    values["dsp.audio_s_per_s"] = audio_s / dsp_s if dsp_s > 0 else 0.0
    for layer in MEMORY:
        values[f"mem.{layer}.peak_traced_mb"] = (mem[layer].mem_peak_bytes / MB
                                                 if layer in mem else 0.0)
    trained = mem.get("model.train")
    feature_bytes = trained.work["feature_bytes"] if trained else 0
    values["mem.feature_matrix_mb"] = feature_bytes / MB
    peak_rss = median([it.peak_rss_bytes for it in untraced])
    values["mem.rss_per_feature_byte"] = peak_rss / feature_bytes if feature_bytes else 0.0
    untraced_s = median([it.pipeline_s for it in untraced])
    values["trace.overhead_share"] = median(traced_s) / untraced_s - 1.0
    values["trace.unaccounted_share"] = median(
        [(wall - top_level_seconds(tracer.spans, run)) / wall
         for run, wall in zip(traced_runs, traced_s)])
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit, _ in per_layer_spec()}
    detail = {name: {"calls": s.calls, "self_s": s.self_s, "inclusive_s": s.inclusive_s,
                     "work": s.work, "self_per_call_ms": summarize(
                         [1e3 * x for x in s.self_per_call])}
              for name, s in sorted(pooled.items())}
    return metrics, {"traced_runs": len(traced_runs), "layers": detail,
                     "untraced_pipeline_s": [it.pipeline_s for it in untraced],
                     "traced_pipeline_s": traced_s}


def run(args, started: float) -> dict:
    from workloads import WORKLOADS, Session

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work = work_root / f"{workload.name}-{args.seed}-trace{args.trace}-{os.getpid()}"
    ledger = Ledger()
    session = Session(ROOT, workload, args.seed, work, ledger)
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        session.warm_up()
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            with tracer.recording("setup"):
                setup = session.setup(0)
            # tracemalloc slows the memory run, so it goes first: the timed
            # pairs after it run warm
            measured_iteration(session, setup, 0, tracer, "memory", memory=True,
                               repeat_scoring=False)
            untraced, traced_runs, traced_s = [], [], []

            def pair(k):
                untraced.append(measured_iteration(session, setup, 1 + 2 * k,
                                                   repeat_scoring=False))
                run_id = f"pipeline-{k}"
                it = measured_iteration(session, setup, 2 + 2 * k, tracer, run_id,
                                        repeat_scoring=False)
                traced_runs.append(run_id)
                traced_s.append(it.pipeline_s)

            timed_loop(pair, args.seconds, started, minimum=1)
            metrics, detail = per_layer(tracer, "setup", "memory", traced_runs,
                                        traced_s, untraced)
            record["spans"] = len(tracer.spans)
        else:
            setups = []
            while len(setups) < SETUP_REPEATS or (
                    len(setups) < SETUP_MAX_REPEATS
                    and sum(s.seconds for s in setups) < SETUP_BUDGET_S):
                release_memory()
                setups.append(session.setup(len(setups)))
            for old in setups[:-1]:
                shutil.rmtree(old.data.parent)
            iterations = timed_loop(
                lambda i: measured_iteration(session, setups[-1], i),
                args.seconds, started, minimum=MIN_ITERATIONS)
            metrics, detail = end_to_end(setups, iterations)
            record["iterations"] = len(iterations)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expected = {name for name, _, _ in (per_layer_spec() if args.trace else END_TO_END)}
    missing = sorted(expected - set(metrics))
    ledger.check(not missing, f"metrics not measured: {missing}")
    record.update(environment=environment(ROOT), detail=detail,
                  attempted=ledger.attempted, failed=ledger.failed,
                  failed_share=ledger.failed_share, failures=ledger.failures)
    record["result"] = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
                        "failed": ledger.failed, "metrics": metrics}
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    started = time.perf_counter()
    if not (ROOT / "src" / "asdkit" / "cli.py").is_file():
        print(f"bench: asdkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    cap_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    record = run(args, started)
    result = record["result"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"failed_share {record['failed_share']:.6f} "
          f"({result['failed']}/{result['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
