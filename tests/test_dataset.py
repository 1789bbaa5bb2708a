from __future__ import annotations

import hashlib
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from asdkit.dataset import (SPLITS, ClipRecord, DatasetManifest, clip_record,
                            dataset_violations, load_manifest, save_manifest,
                            scan_dataset)
from asdkit.dsp import read_wav
from asdkit.errors import ConfigError, DatasetError
from asdkit.synth import SynthCounts, SynthSpec, synth_generate


# ---------------------------------------------------------------------------
# clip records from paths

def test_parse_full_train_name():
    rel = "fan/train/section_00_source_train_normal_0001_spd_28V.wav"
    assert clip_record(rel) == ClipRecord(machine_type="fan", section="00", domain="source",
                                          split="train", condition="normal", path=rel)


def test_parse_eval_name_without_condition():
    record = clip_record("fan/test/section_00_0042.wav")
    assert (record.section, record.domain, record.split, record.condition) == \
        ("00", "unknown", "test", "unknown")
    with pytest.raises(ValueError, match="no split token"):
        clip_record("fan/eval/section_00_0042.wav")


def test_parse_rejects_foreign_name():
    with pytest.raises(ValueError, match="recording_17.wav: expected 'section_<id>_...'"):
        clip_record("fan/train/recording_17.wav")


def reference_parse_clip_name(filename: str) -> dict:
    """The name scan of earlier asdkit versions, the reference clip_record must
    match. (It also paired the tokens after the index as attributes, which no
    stage read.)"""
    tokens = Path(filename).stem.split("_")
    if len(tokens) < 2 or tokens[0] != "section":
        raise ValueError(f"{filename}: expected 'section_<id>_...'")
    parsed = {"section": tokens[1], "domain": "unknown", "split": None,
              "condition": "unknown", "index": None}
    for tok in tokens[2:]:
        if parsed["index"] is None and tok in ("source", "target"):
            parsed["domain"] = tok
        elif parsed["index"] is None and tok in SPLITS:
            parsed["split"] = tok
        elif parsed["index"] is None and tok in ("normal", "anomaly"):
            parsed["condition"] = tok
        elif parsed["index"] is None and tok.isdigit():
            parsed["index"] = int(tok)
    return parsed


def reference_record(rel: Path) -> tuple[str, str, str, str]:
    """(section, domain, split, condition) as earlier versions read them from rel."""
    parsed = reference_parse_clip_name(rel.name)
    split = parsed["split"]
    if split is None and rel.parent.name in SPLITS:
        split = rel.parent.name
    if split is None:
        raise ValueError("no split token and directory is not a split name")
    condition = parsed["condition"]
    if split == "train" and condition == "unknown":
        condition = "normal"
    # the record's own checks (say, a train clip named anomaly) reject as before
    ClipRecord(machine_type=rel.parts[0], section=parsed["section"],
               domain=parsed["domain"], split=split, condition=condition, path=str(rel))
    return parsed["section"], parsed["domain"], split, condition


# ASCII digit runs only: the reference's int() of the index also rejected a
# non-decimal digit token such as '²', an index clip_record does not read
NAME_TOKENS = st.one_of(
    st.sampled_from(["source", "target", "train", "test", "supplementary", "normal",
                     "anomaly", "unknown", "car", "A1", "noAttribute", "spd", "28V",
                     "aux", "clean", "noise", "section", ""]),
    st.from_regex(r"[0-9]{1,4}", fullmatch=True))


@given(head=st.sampled_from(["section", "section", "section", "Section", "recording"]),
       section=st.sampled_from(["00", "01", "id", ""]),
       tokens=st.lists(NAME_TOKENS, max_size=9),
       subdir=st.sampled_from(["train", "test", "supplementary", "eval"]),
       bare=st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_record_reads_names_as_the_reference_scan(head, section, tokens, subdir, bare):
    stem = head if bare else "_".join([head, section, *tokens])
    rel = Path("fan", subdir, f"{stem}.wav")
    try:
        expected = reference_record(rel)
    except (ValueError, DatasetError) as exc:
        with pytest.raises(type(exc)) as excinfo:
            clip_record(rel)
        assert str(excinfo.value) == str(exc)
        return
    record = clip_record(rel)
    assert (record.section, record.domain, record.split, record.condition) == expected
    assert (record.machine_type, record.path) == ("fan", str(rel))


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
    save_manifest(DatasetManifest(records=manifest.records[::-1]), path)
    assert path.read_text().splitlines()[0] == \
        "machine_type,section,domain,split,condition,path"
    assert load_manifest(path).records == sorted(manifest.records, key=lambda r: r.path)


def test_manifest_load_rejects_missing_columns(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("machine_type,path\nfan,x.wav\n")
    with pytest.raises(ConfigError, match="manifest needs columns"):
        load_manifest(path)


def test_manifest_load_rejects_duplicates(tmp_path):
    path = tmp_path / "manifest.csv"
    row = "fan,00,source,train,normal,fan/train/a.wav\n"
    path.write_text("machine_type,section,domain,split,condition,path\n" + row + row)
    with pytest.raises(DatasetError):
        load_manifest(path)


MANIFEST_ROWS = [["fan", "00", "source", "train", "normal", "fan/train/a.wav"],
                 ["fan", "00", "target", "test", "anomaly", "fan/test/b.wav"]]
MANIFEST_RECORDS = [ClipRecord(*row) for row in MANIFEST_ROWS]


def write_manifest(path: Path, extra_columns: list[str], extra_fields: list[list[str]]):
    header = ["machine_type", "section", "domain", "split", "condition", "path"]
    lines = [header + extra_columns] + [row + extra
                                        for row, extra in zip(MANIFEST_ROWS, extra_fields)]
    path.write_text("".join(",".join(line) + "\n" for line in lines))


@pytest.mark.parametrize("extra_columns, extra_fields", [
    ([], [[], []]),
    (["attributes"], [["spd=28V;aux=clean"], [""]]),  # older asdkit wrote name attributes
], ids=["six-columns", "attributes"])
def test_manifest_is_its_record_fields(tmp_path, extra_columns, extra_fields):
    path = tmp_path / "manifest.csv"
    write_manifest(path, extra_columns, extra_fields)
    assert load_manifest(path).records == MANIFEST_RECORDS


def test_manifest_with_an_old_role_column_loads(tmp_path):
    # older asdkit also wrote a role per row; the column is ignored, mixed values too
    path = tmp_path / "manifest.csv"
    write_manifest(path, ["attributes", "role"], [["", "development"],
                                                  ["aux=noise", "evaluation"]])
    assert load_manifest(path).records == MANIFEST_RECORDS


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
    assert rescanned.records == manifest.records


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
    assert sorted(Path(r.path).stem.partition("_aux_")[2] for r in sup) == ["clean", "noise"]


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
