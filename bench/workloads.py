"""The benchmark's workloads: their inputs, their timed pipeline and the
checks on the program's outputs.

Every workload drives asdkit in-process with one caller in a closed loop:
the next command starts only when the previous one has returned. Inputs
come from ``synth_generate``; ``train``, ``score`` and ``evaluate`` go
through ``asdkit.cli.main`` exactly as a user would call them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from measure import Ledger

MODES = ("mse", "mahalanobis")
# Every workload renders its dataset with the seed of acceptance criterion 5,
# so the official scores of a workload compare across runs; the workload seed
# is the training seed (initial weights and shuffling), which changes every
# trained parameter and every score.
DATASET_SEED = 20250811
# Small dataset for the untimed warm-up pass.
WARM_UP_SPEC = "configs/synth_smoke.yaml"
# Criterion 5 floors on the desk mse run.
AUC_SOURCE_FLOOR = 0.85
OFFICIAL_FLOOR = 0.6
PAUC_P = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth_spec: str  # paths relative to the repository root
    run_config: str
    machine: str
    train_in_setup: bool
    acceptance_floors: bool
    # Scoring rounds (both modes over the test split) per iteration: the first
    # is the pipeline's own, the others repeat it after the pipeline is timed,
    # so that a workload whose scoring is a small share of an iteration still
    # gives score_clips_per_s enough samples in a run.
    score_rounds: int


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        why="the README's desk-scale acceptance run (110 x 2 s train clips, 30 "
            "epochs): training dominates, so model and optimizer work shows",
        synth_spec="configs/synth_desk.yaml", run_config="configs/desk.yaml",
        machine="grinder", train_in_setup=False, acceptance_floors=True,
        score_rounds=4),
    Workload(
        name="fullclip",
        why="200:10 train clips of 10 s, one epoch: feature extraction, copies, "
            "covariances and threshold scoring dominate; largest peak memory",
        synth_spec="bench/configs/synth_fullclip.yaml",
        run_config="bench/configs/fullclip.yaml",
        machine="fan", train_in_setup=False, acceptance_floors=False,
        score_rounds=4),
    Workload(
        name="score_stream",
        why="official test layout (100+100 clips of 10 s) scored in both modes "
            "with a model trained in set-up: inference only, no backprop",
        synth_spec="bench/configs/synth_score_stream.yaml",
        run_config="bench/configs/score_stream.yaml",
        machine="valve", train_in_setup=True, acceptance_floors=False,
        score_rounds=1),
)}


@dataclass
class SetupResult:
    data: Path
    model: Path | None
    seconds: float
    train_s: float | None


@dataclass
class IterationResult:
    out: Path
    model: Path
    pipeline_s: float
    train_s: float | None
    round_s: list[float]  # seconds of each scoring round, the pipeline's first
    rows: int  # score rows of one round
    peak_rss_bytes: int = 0
    official: dict = field(default_factory=dict)


def tree_digest(root: Path, files=None) -> str:
    """sha256 over relative paths and bytes of the files under root."""
    h = hashlib.sha256()
    if files is None:
        files = [p for p in root.rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def read_manifest(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def auc_oracle(normals, anomalies) -> float:
    """Share of (normal, anomaly) pairs where the anomaly scores strictly higher."""
    wins = sum(1 for a in anomalies for n in normals if a > n)
    return wins / (len(normals) * len(anomalies))


def section_oracle(clips: list[tuple[str, str, str, float]], p: float = PAUC_P) -> dict:
    """AUC per domain and pAUC from (path, domain, condition, score) tuples,
    by the definitions in the paper (anomalies pooled across domains)."""
    anomalies = [s for _, _, c, s in clips if c == "anomaly"]
    normals = [(path, d, s) for path, d, c, s in clips if c == "normal"]
    out = {f"auc_{d}": auc_oracle([s for _, dd, s in normals if dd == d], anomalies)
           for d in ("source", "target")}
    top = sorted(normals, key=lambda n: (-n[2], n[0]))[:math.floor(p * len(normals))]
    out["pauc"] = auc_oracle([s for _, _, s in top], anomalies)
    return out


def harmonic_mean(values) -> float:
    return len(values) / sum(1.0 / v for v in values)


class Session:
    """One benchmark run of one workload at one seed."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path,
                 ledger: Ledger):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self._setup_fingerprint: str | None = None
        self._reference: IterationResult | None = None
        self._test_clips: list[dict] | None = None

    # -- commands ---------------------------------------------------------

    def invoke(self, argv: list[str]) -> float:
        """Run one asdkit command; returns its wall time. Failures are counted."""
        import asdkit.cli as cli  # looked up per call: the tracer patches cli.main

        out = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(out):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:  # a crash is a failed command, not a dead benchmark
            rc = "exception"
            out.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        tail = out.getvalue().strip().splitlines()[-1:] or [""]
        self.ledger.check(rc == 0, f"asdkit {argv[0]} exited {rc}: {tail[0]}")
        return seconds

    def _train(self, data: Path, out: Path, machine: str) -> float:
        return self.invoke(["train", "--config", str(self.root / self.workload.run_config),
                            "--data-root", str(data), "--machine", machine,
                            "--out", str(out), "--seed", str(self.seed)])

    def _score(self, data: Path, model: Path, machine: str, out: Path) -> float:
        """Score the test split in both modes; returns the seconds taken."""
        return sum(self.invoke(["score", "--model", str(model), "--data-root", str(data),
                                "--machine", machine, "--mode", mode,
                                "--out", str(out / f"scores_{mode}.csv")])
                   for mode in MODES)

    def _commands(self, data: Path, model: Path, machine: str, out: Path,
                  train: bool) -> tuple[float | None, float]:
        """[train ->] score both modes -> evaluate both; returns (train_s, score_s)."""
        train_s = self._train(data, model, machine) if train else None
        score_s = self._score(data, model, machine, out)
        for mode in MODES:
            self.invoke(["evaluate", "--scores", str(out / f"scores_{mode}.csv"),
                         "--manifest", str(data / "manifest.csv"),
                         "--out", str(out / f"report_{mode}")])
        return train_s, score_s

    def warm_up(self) -> None:
        """One untimed pass of every command on the small smoke dataset, so lazy
        imports, BLAS threads and first-call paths are warm before set-up."""
        from asdkit.synth import SynthSpec, synth_generate

        base = self.work / "warm-up"
        spec = SynthSpec.from_yaml(self.root / WARM_UP_SPEC)
        synth_generate(spec, base / "data", seed=DATASET_SEED)
        self._commands(base / "data", base / "model", spec.machines[0], base, train=True)
        shutil.rmtree(base)

    # -- set-up -----------------------------------------------------------

    def setup(self, index: int) -> SetupResult:
        """Generate the dataset (and, for score_stream, train the model)."""
        from asdkit.synth import SynthSpec, synth_generate

        base = self.work / f"setup-{index}"
        data, model = base / "data", base / "model"
        start = time.perf_counter()
        spec = SynthSpec.from_yaml(self.root / self.workload.synth_spec)
        synth_generate(spec, data, seed=DATASET_SEED)
        train_s = (self._train(data, model, self.workload.machine)
                   if self.workload.train_in_setup else None)
        seconds = time.perf_counter() - start
        digest = tree_digest(data)
        if self.workload.train_in_setup:
            artifacts = (model / name for name in ("model.aem", "covariances.cov",
                                                   "thresholds.json"))
            digest += tree_digest(model, [f for f in artifacts if f.exists()])
        if self._setup_fingerprint is None:
            self._setup_fingerprint = digest
        else:
            self.ledger.check(digest == self._setup_fingerprint,
                              f"set-up {index} differs from set-up 0 at one seed")
        return SetupResult(data=data, model=model if self.workload.train_in_setup else None,
                           seconds=seconds, train_s=train_s)

    # -- the timed pipeline ------------------------------------------------

    def iteration(self, index: int, setup: SetupResult,
                  repeat_scoring: bool = True) -> IterationResult:
        """train (unless trained in set-up) -> score both modes -> evaluate both;
        then, with ``repeat_scoring``, the workload's further scoring rounds."""
        w = self.workload
        out = self.work / f"iter-{index}"
        out.mkdir(parents=True)
        model = setup.model or out / "model"
        start = time.perf_counter()
        train_s, score_s = self._commands(setup.data, model, w.machine, out,
                                          train=setup.model is None)
        pipeline_s = time.perf_counter() - start
        round_s = [score_s]
        for k in range(1, w.score_rounds if repeat_scoring else 1):
            (out / f"round-{k}").mkdir()
            round_s.append(self._score(setup.data, model, w.machine, out / f"round-{k}"))
        if self._test_clips is None:
            self._test_clips = [r for r in read_manifest(setup.data / "manifest.csv")
                                if r["split"] == "test" and r["machine_type"] == w.machine]
        return IterationResult(out=out, model=model, pipeline_s=pipeline_s,
                               train_s=train_s, round_s=round_s,
                               rows=len(MODES) * len(self._test_clips))

    # -- checks on the outputs --------------------------------------------

    def check(self, it: IterationResult) -> None:
        """Check one iteration's outputs; every failed check is counted."""
        for mode in MODES:
            scores = self._check_scores(it.out / f"scores_{mode}.csv", mode)
            it.official[mode] = self._check_report(it.out / f"report_{mode}", scores, mode)
        if self.workload.acceptance_floors:
            self._check_floors(it.out / "report_mse.csv")
        for k in range(1, len(it.round_s)):
            for mode in MODES:
                name = f"scores_{mode}.csv"
                again = it.out / f"round-{k}" / name
                self.ledger.check(again.exists() and again.read_bytes()
                                  == (it.out / name).read_bytes(),
                                  f"{name} differs between scoring rounds of one iteration")
        ref = self._reference
        if ref is None:
            self._reference = it
            return
        for mode in MODES:
            name = f"scores_{mode}.csv"
            self.ledger.check((it.out / name).read_bytes() == (ref.out / name).read_bytes(),
                              f"{name} differs between repeated runs at one seed")
            self.ledger.check(it.official[mode] == ref.official[mode],
                              f"official score ({mode}) differs between repeated runs")
        if it.train_s is not None:
            model, ref_model = it.model / "model.aem", ref.model / "model.aem"
            self.ledger.check(
                model.exists() and ref_model.exists()
                and model.read_bytes() == ref_model.read_bytes(),
                "model.aem differs between repeated runs at one seed")
        shutil.rmtree(it.out)

    def _check_scores(self, path: Path, mode: str) -> dict[str, float]:
        """One finite, non-negative score and a decision per test clip."""
        expected = {r["path"] for r in self._test_clips}
        rows = {}
        if path.exists():
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    rows[row["clip_path"]] = row
        scores = {}
        for clip in expected:
            row = rows.get(clip)
            if row is None or row.get("decision") not in ("normal", "anomaly"):
                continue
            try:
                value = float(row["score"])
            except ValueError:
                continue
            if math.isfinite(value) and value >= 0.0:
                scores[clip] = value
        self.ledger.count(len(expected), len(expected) - len(scores),
                          f"{mode} score rows")
        self.ledger.check(set(rows) <= expected, f"{mode}: rows for clips that are not test clips")
        self.ledger.check(not Path(str(path) + ".errors.csv").exists(),
                          f"{mode}: score command wrote row errors")
        return scores

    def _check_report(self, base: Path, scores: dict[str, float], mode: str) -> float | None:
        """The report is complete, matches an independent AUC/pAUC computation
        from the score rows, and states the harmonic mean of its metrics."""
        txt = Path(str(base) + ".txt")
        table = Path(str(base) + ".csv")
        if not self.ledger.check(txt.exists() and table.exists(), f"{mode}: report written"):
            return None
        text = txt.read_text()
        stated = [line.split(":", 1)[1].split()[0] for line in text.splitlines()
                  if line.startswith("official score:")]
        complete = "REPORT INCOMPLETE" not in text and stated and stated[0] != "n/a"
        if not self.ledger.check(bool(complete), f"{mode}: report incomplete"):
            return None
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = []
        for row in rows:
            clips = [(r["path"], r["domain"], r["condition"], scores[r["path"]])
                     for r in self._test_clips
                     if r["section"] == row["section"] and r["path"] in scores]
            oracle = section_oracle(clips)
            for key in ("auc_source", "auc_target", "pauc"):
                reported = float(row[key])
                self.ledger.check(abs(reported - oracle[key]) <= 1e-12,
                                  f"{mode}: {key} {reported} != oracle {oracle[key]}")
                values.append(reported)
        if not self.ledger.check(bool(values) and all(v > 0 for v in values),
                                 f"{mode}: report has no positive metrics"):
            return None
        official = harmonic_mean(values)
        self.ledger.check(abs(official - float(stated[0])) <= 5e-7 + 1e-12,
                          f"{mode}: stated official score {stated[0]} != {official}")
        return official

    def _check_floors(self, table: Path) -> None:
        """Acceptance criterion 5 on the mse run: AUC_source and official score floors."""
        if not table.exists():
            self.ledger.check(False, "criterion 5: no mse report")
            return
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(row[k]) for row in rows for k in ("auc_source", "auc_target", "pauc")]
        auc_source = min(float(row["auc_source"]) for row in rows)
        self.ledger.check(auc_source >= AUC_SOURCE_FLOOR,
                          f"criterion 5: AUC_source {auc_source} < {AUC_SOURCE_FLOOR}")
        official = harmonic_mean(values) if all(v > 0 for v in values) else 0.0
        self.ledger.check(official >= OFFICIAL_FLOOR,
                          f"criterion 5: official score {official} < {OFFICIAL_FLOOR}")
