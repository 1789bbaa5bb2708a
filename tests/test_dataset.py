from __future__ import annotations

import hashlib
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
import yaml

from asdkit.dataset import (ClipRecord, DatasetManifest, dataset_violations,
                            load_manifest, parse_clip_name, save_manifest,
                            scan_dataset)
from asdkit.dsp import read_wav
from asdkit.errors import ConfigError, DatasetError
from asdkit.synth import SynthCounts, SynthSpec, synth_generate


# ---------------------------------------------------------------------------
# filename parsing

def test_parse_full_train_name():
    parsed = parse_clip_name("section_00_source_train_normal_0001_spd_28V.wav")
    assert parsed["section"] == "00"
    assert parsed["domain"] == "source"
    assert parsed["split"] == "train"
    assert parsed["condition"] == "normal"
    assert parsed["index"] == 1
    assert parsed["attributes"] == {"spd": "28V"}


def test_parse_eval_name_without_condition():
    parsed = parse_clip_name("section_00_0042.wav")
    assert parsed["condition"] == "unknown"
    assert parsed["domain"] == "unknown"
    assert parsed["split"] is None
    assert parsed["index"] == 42


def test_parse_rejects_foreign_name():
    with pytest.raises(ValueError):
        parse_clip_name("recording_17.wav")


# ---------------------------------------------------------------------------
# scanning

def make_tree(root: Path, machine: str, names_by_split: dict[str, list[str]]):
    for split, names in names_by_split.items():
        d = root / machine / split
        d.mkdir(parents=True, exist_ok=True)
        for name in names:
            (d / name).touch()


def test_scan_basic_tree(tmp_path):
    make_tree(tmp_path, "fan", {
        "train": ["section_00_source_train_normal_0000.wav",
                  "section_00_target_train_normal_0000.wav"],
        "test": ["section_00_source_test_anomaly_0000.wav",
                 "section_00_0001.wav"],
    })
    manifest = scan_dataset(tmp_path)
    assert manifest.machines() == ["fan"]
    assert len(manifest.records) == 4
    by_name = {Path(r.path).name: r for r in manifest.records}
    assert by_name["section_00_target_train_normal_0000.wav"].domain == "target"
    # split token missing -> taken from the directory; condition stays unknown
    eval_clip = by_name["section_00_0001.wav"]
    assert eval_clip.split == "test"
    assert eval_clip.condition == "unknown"


def test_scan_collects_skipped_files(tmp_path):
    make_tree(tmp_path, "fan", {"train": ["section_00_source_train_normal_0000.wav",
                                          "garbage_name.wav"]})
    manifest = scan_dataset(tmp_path)
    assert len(manifest.records) == 1
    assert len(manifest.skipped) == 1
    assert manifest.skipped[0][0].endswith("garbage_name.wav")


def test_scan_empty_tree(tmp_path):
    (tmp_path / "fan").mkdir()
    with pytest.raises(DatasetError):
        scan_dataset(tmp_path)


def test_scan_missing_root(tmp_path):
    with pytest.raises(DatasetError):
        scan_dataset(tmp_path / "nope")


def official_train_names() -> list[str]:
    return ([f"section_00_source_train_normal_{i:04d}.wav" for i in range(990)]
            + [f"section_00_target_train_normal_{i:04d}.wav" for i in range(10)])


def labeled_test_names(normal: int, anomaly: int) -> list[str]:
    return ([f"section_00_source_test_normal_{i:04d}.wav" for i in range(normal)]
            + [f"section_00_source_test_anomaly_{i:04d}.wav" for i in range(anomaly)])


def test_official_dev_layout_counts(tmp_path):
    names = {"train": official_train_names(), "test": []}
    for i in range(50):
        for domain in ("source", "target"):
            names["test"].append(f"section_00_{domain}_test_normal_{i:04d}.wav")
            names["test"].append(f"section_00_{domain}_test_anomaly_{i:04d}.wav")
    make_tree(tmp_path, "bearing", names)
    manifest = scan_dataset(tmp_path)
    assert dataset_violations(manifest) == []
    assert len(manifest.select(machine="bearing", split="train")) == 1000
    assert len(manifest.select(machine="bearing", split="test")) == 200


def test_synth_full_spec_has_official_layout():
    spec = SynthSpec.from_yaml(Path(__file__).parents[1] / "configs" / "synth_full.yaml")
    c = spec.counts
    plan = [("train", "source", "normal", c.source_train),
            ("train", "target", "normal", c.target_train),
            ("test", "source", "normal", c.test_normal_source),
            ("test", "target", "normal", c.test_normal_target),
            ("test", "source", "anomaly", c.test_anomaly_source),
            ("test", "target", "anomaly", c.test_anomaly_target)]
    records = [ClipRecord(machine_type=machine, section="00", domain=domain,
                          split=split, condition=condition,
                          path=f"{machine}/{split}/{domain}_{condition}_{i:04d}.wav")
               for machine in spec.machines
               for split, domain, condition, count in plan
               for i in range(count)]
    assert spec.clip_seconds == 10.0
    assert dataset_violations(DatasetManifest(records=records)) == []


def test_official_layout_violations_reported(small_dataset):
    _, manifest = small_dataset
    problems = dataset_violations(manifest)
    assert any("source-train" in p for p in problems)


def test_unlabeled_test_clips_have_no_test_count_rule(tmp_path):
    # an evaluation tree: test names carry no condition, so only training counts
    make_tree(tmp_path / "eval", "fan", {
        "train": official_train_names(),
        "test": [f"section_00_{i:04d}.wav" for i in range(200)]})
    assert dataset_violations(scan_dataset(tmp_path / "eval")) == []
    # a section with no test clips at all still breaks the test counts
    make_tree(tmp_path / "dev", "fan", {"train": official_train_names()})
    assert dataset_violations(scan_dataset(tmp_path / "dev")) == [
        "fan/00: 0 normal test clips, expected 100",
        "fan/00: 0 anomalous test clips, expected 100"]


def test_one_wrong_test_count_is_one_violation(tmp_path):
    make_tree(tmp_path, "fan", {"train": official_train_names(),
                                "test": labeled_test_names(normal=99, anomaly=100)})
    assert dataset_violations(scan_dataset(tmp_path)) == [
        "fan/00: 99 normal test clips, expected 100"]


# ---------------------------------------------------------------------------
# record invariants

def test_train_clip_must_be_normal():
    with pytest.raises(DatasetError):
        ClipRecord(machine_type="fan", section="00", domain="source",
                   split="train", condition="anomaly", path="x.wav")


def test_bad_enum_values_rejected():
    with pytest.raises(DatasetError):
        ClipRecord(machine_type="fan", section="00", domain="both",
                   split="train", condition="normal", path="x.wav")


# ---------------------------------------------------------------------------
# manifest serialization

def test_manifest_roundtrip(tmp_path, small_dataset):
    _, manifest = small_dataset
    path = tmp_path / "manifest.csv"
    save_manifest(manifest, path)
    assert path.read_text().splitlines()[0] == \
        "machine_type,section,domain,split,condition,path,attributes"
    loaded = load_manifest(path)
    original = sorted(manifest.records, key=lambda r: r.path)
    restored = sorted(loaded.records, key=lambda r: r.path)
    assert len(original) == len(restored)
    for a, b in zip(original, restored):
        assert (a.machine_type, a.section, a.domain, a.split, a.condition,
                a.path, a.attributes) == \
               (b.machine_type, b.section, b.domain, b.split, b.condition,
                b.path, b.attributes)


def test_manifest_load_rejects_missing_columns(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("machine_type,path\nfan,x.wav\n")
    with pytest.raises(ConfigError, match="manifest needs columns"):
        load_manifest(path)


def test_manifest_load_rejects_duplicates(tmp_path):
    path = tmp_path / "manifest.csv"
    row = "fan,00,source,train,normal,fan/train/a.wav,\n"
    path.write_text("machine_type,section,domain,split,condition,path,attributes\n"
                    + row + row)
    with pytest.raises(DatasetError):
        load_manifest(path)


def test_manifest_with_an_old_role_column_loads(tmp_path):
    # older asdkit wrote a role per row; the column is ignored, mixed values too
    path = tmp_path / "manifest.csv"
    path.write_text("machine_type,section,domain,split,condition,path,attributes,role\n"
                    "fan,00,source,train,normal,fan/train/a.wav,,development\n"
                    "fan,00,target,train,normal,fan/train/b.wav,,evaluation\n")
    assert [r.path for r in load_manifest(path).records] == \
        ["fan/train/a.wav", "fan/train/b.wav"]


# ---------------------------------------------------------------------------
# dataset-level rules

def manifest_with_machines(machines):
    records = [ClipRecord(machine_type=m, section="00", domain="source",
                          split="train", condition="normal", path=f"{m}/train/a.wav")
               for m in machines]
    return DatasetManifest(records=records)


def test_first_shot_validator():
    dev = manifest_with_machines(["fan", "valve"])
    disjoint = dataset_violations(dev, manifest_with_machines(["grinder"]))
    assert not any("disjoint" in p for p in disjoint)
    overlap = dataset_violations(dev, manifest_with_machines(["valve"]))
    assert overlap == disjoint + [
        "development and evaluation machine types must be disjoint; shared: ['valve']"]


def test_single_section_validator():
    manifest = manifest_with_machines(["fan"])
    assert not any("exactly one section" in p for p in dataset_violations(manifest))
    manifest.records.append(ClipRecord(
        machine_type="fan", section="01", domain="source", split="train",
        condition="normal", path="fan/train/b.wav"))
    assert [p for p in dataset_violations(manifest) if "exactly one section" in p] == [
        "each machine type must have exactly one section; got {'fan': ['00', '01']}"]


# ---------------------------------------------------------------------------
# synthetic generator

def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_synth_deterministic_trees(tmp_path):
    spec = SynthSpec(clip_seconds=0.5, machines=["m1"],
                     counts=SynthCounts(source_train=3, target_train=2,
                                        test_normal_source=1, test_normal_target=1,
                                        test_anomaly_source=1, test_anomaly_target=1,
                                        supplementary=2))
    synth_generate(spec, tmp_path / "a", seed=7)
    synth_generate(spec, tmp_path / "b", seed=7)
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    synth_generate(spec, tmp_path / "c", seed=8)
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def tree_files(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_synth_tree_is_the_same_for_any_worker_count(tmp_path, force_workers):
    spec = SynthSpec(clip_seconds=0.5, machines=["m1", "m2"],
                     counts=SynthCounts(source_train=4, target_train=2,
                                        test_normal_source=2, test_normal_target=1,
                                        test_anomaly_source=2, test_anomaly_target=1,
                                        supplementary=3))
    synth_generate(spec, tmp_path / "default", seed=7)
    trees = {"default": tree_files(tmp_path / "default")}
    for workers in (1, 3):
        force_workers(workers)
        synth_generate(spec, tmp_path / str(workers), seed=7)
        trees[workers] = tree_files(tmp_path / str(workers))
    assert "manifest.csv" in trees["default"]
    assert len(trees["default"]) == 2 * (4 + 2 + 2 + 1 + 2 + 1 + 3) + 1
    assert trees[1] == trees["default"] == trees[3]
    assert multiprocessing.active_children() == []


def test_synth_counts_match_spec(tmp_path):
    spec = SynthSpec(clip_seconds=0.5, machines=["m1"],
                     counts=SynthCounts(source_train=20, target_train=2,
                                        test_normal_source=5, test_normal_target=5,
                                        test_anomaly_source=5, test_anomaly_target=5,
                                        supplementary=0))
    manifest = synth_generate(spec, tmp_path / "d", seed=1)
    assert len(manifest.select(split="train", domain="source")) == 20
    assert len(manifest.select(split="train", domain="target")) == 2
    assert len(manifest.select(split="test", condition="normal")) == 10
    assert len(manifest.select(split="test", condition="anomaly")) == 10


def test_synth_scan_roundtrip(small_dataset):
    root, manifest = small_dataset
    rescanned = scan_dataset(root)
    assert rescanned.skipped == []
    original = {(r.path, r.machine_type, r.section, r.domain, r.split,
                 r.condition, tuple(sorted(r.attributes.items())))
                for r in manifest.records}
    recovered = {(r.path, r.machine_type, r.section, r.domain, r.split,
                  r.condition, tuple(sorted(r.attributes.items())))
                 for r in rescanned.records}
    assert original == recovered


def test_synth_anomalies_have_click_transients(small_dataset):
    root, manifest = small_dataset

    def peak_derivative(rec):
        clip = read_wav(root / rec.path)
        return float(np.max(np.abs(np.diff(clip.samples))))

    normal_peaks = [peak_derivative(r)
                    for r in manifest.select(split="test", condition="normal")]
    anomaly_peaks = [peak_derivative(r)
                     for r in manifest.select(split="test", condition="anomaly")]
    assert min(anomaly_peaks) > max(normal_peaks)


def test_synth_supplementary_clips_tagged(small_dataset):
    _, manifest = small_dataset
    sup = manifest.select(split="supplementary")
    assert len(sup) == 2
    kinds = {r.attributes.get("aux") for r in sup}
    assert kinds == {"clean", "noise"}


def test_synth_invalid_specs():
    with pytest.raises(ConfigError):
        SynthSpec(machines=[]).validate()
    zero = SynthSpec(counts=SynthCounts(source_train=0, target_train=0,
                                        test_normal_source=0, test_normal_target=0,
                                        test_anomaly_source=0, test_anomaly_target=0,
                                        supplementary=0))
    with pytest.raises(ConfigError):
        zero.validate()
    with pytest.raises(ConfigError):
        SynthSpec.from_dict({"nonsense_key": 1})


def test_synth_spec_dict_round_trip():
    spec = SynthSpec(clip_seconds=1.5, machines=["a", "b"],
                     counts=SynthCounts(source_train=7, supplementary=0))
    assert SynthSpec.from_dict(spec.to_dict()) == spec
    assert SynthSpec.from_dict(yaml.safe_load(yaml.safe_dump(spec.to_dict()))) == spec
