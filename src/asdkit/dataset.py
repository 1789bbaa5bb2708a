"""Dataset model: clip records, manifests, directory scanning.

The on-disk layout mirrors the usual machine-condition-monitoring convention:

    <root>/<machine_type>/<split>/section_<NN>_<domain>_<split>_<condition>_<idx>[_<k>_<v>...].wav

File names are parsed by token scanning, so trees with variant names
(missing domain/condition tokens, extra attribute tokens) remain ingestible;
names that cannot be parsed are collected into a skipped-files report instead
of being dropped silently.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from ._io import read_table, write_table
from .errors import DatasetError

DOMAINS = ("source", "target", "unknown")
SPLITS = ("train", "test", "supplementary")
CONDITIONS = ("normal", "anomaly", "unknown")

MANIFEST_COLUMNS = ["machine_type", "section", "domain", "split",
                    "condition", "path", "attributes"]
MANIFEST_FILENAME = "manifest.csv"

# tokens a file name may carry; a missing domain or condition maps to "unknown"
SECTION_PREFIX = "section"
NAME_DOMAINS = ("source", "target")
NAME_CONDITIONS = ("normal", "anomaly")


@dataclass
class ClipRecord:
    machine_type: str
    section: str
    domain: str
    split: str
    condition: str
    path: str
    attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise DatasetError(f"bad domain {self.domain!r} for {self.path}")
        if self.split not in SPLITS:
            raise DatasetError(f"bad split {self.split!r} for {self.path}")
        if self.condition not in CONDITIONS:
            raise DatasetError(f"bad condition {self.condition!r} for {self.path}")
        if self.split == "train" and self.condition != "normal":
            raise DatasetError(
                f"train clip {self.path} has condition {self.condition!r}; "
                "training data must be normal only")


@dataclass
class DatasetManifest:
    records: list[ClipRecord]
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (path, reason)

    def machines(self) -> list[str]:
        return sorted({r.machine_type for r in self.records})

    def select(self, machine: str | None = None, split: str | None = None,
               domain: str | None = None, condition: str | None = None) -> list[ClipRecord]:
        out = []
        for r in self.records:
            if machine is not None and r.machine_type != machine:
                continue
            if split is not None and r.split != split:
                continue
            if domain is not None and r.domain != domain:
                continue
            if condition is not None and r.condition != condition:
                continue
            out.append(r)
        return out


def parse_clip_name(filename: str) -> dict:
    """Parse one WAV filename into record fields.

    Token scan: 'section' + id first, then any domain/split/condition tokens in
    any order, then a numeric index, then alternating attribute key/value
    tokens. Missing domain or condition tokens map to 'unknown'; a missing
    split is left None for the caller to fill from the directory layout.
    Raises ValueError when the name does not start with the section prefix.
    """
    tokens = Path(filename).stem.split("_")
    if len(tokens) < 2 or tokens[0] != SECTION_PREFIX:
        raise ValueError(f"{filename}: expected '{SECTION_PREFIX}_<id>_...'")
    section = tokens[1]
    domain = "unknown"
    split = None
    condition = "unknown"
    index = None
    rest: list[str] = []
    for tok in tokens[2:]:
        if index is None and tok in NAME_DOMAINS:
            domain = tok
        elif index is None and tok in SPLITS:
            split = tok
        elif index is None and tok in NAME_CONDITIONS:
            condition = tok
        elif index is None and tok.isdigit():
            index = int(tok)
        else:
            rest.append(tok)
    attributes = {}
    for i in range(0, len(rest) - 1, 2):
        attributes[rest[i]] = rest[i + 1]
    if len(rest) % 2 == 1:
        attributes[rest[-1]] = ""
    return {"section": section, "domain": domain, "split": split,
            "condition": condition, "index": index, "attributes": attributes}


def clip_record(rel) -> ClipRecord:
    """The record of the clip at rel, a path <machine>/<subdir>/<name>.wav
    relative to the dataset root.

    The subdir name supplies the split when the file name carries no split
    token, and a train clip with no condition token is normal. Raises
    ValueError or DatasetError, whose message says why the file is no clip.
    """
    rel = Path(rel)
    if len(rel.parts) < 2:
        raise ValueError("not under a <machine>/ directory")
    parsed = parse_clip_name(rel.name)
    split = parsed["split"]
    if split is None and rel.parent.name in SPLITS:
        split = rel.parent.name
    if split is None:
        raise ValueError("no split token and directory is not a split name")
    condition = parsed["condition"]
    if split == "train" and condition == "unknown":
        # unsupervised setting: everything offered for training is normal
        condition = "normal"
    return ClipRecord(machine_type=rel.parts[0], section=parsed["section"],
                      domain=parsed["domain"], split=split, condition=condition,
                      path=str(rel), attributes=parsed["attributes"])


def scan_dataset(root_dir) -> DatasetManifest:
    """Walk a dataset tree and build the manifest.

    Expects <root>/<machine>/<subdir>/*.wav (see clip_record). Unparseable
    names go to manifest.skipped. Raises DatasetError on an empty tree.
    """
    root = Path(root_dir)
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    records: list[ClipRecord] = []
    skipped: list[tuple[str, str]] = []
    wavs = sorted(root.rglob("*.wav"))
    if not wavs:
        raise DatasetError(f"no .wav files under {root}")
    for wav in wavs:
        rel = wav.relative_to(root)
        try:
            records.append(clip_record(rel))
        except (ValueError, DatasetError) as exc:
            skipped.append((str(rel), str(exc)))
    if not records:
        raise DatasetError(f"no parseable .wav files under {root} "
                           f"({len(skipped)} skipped)")
    records.sort(key=lambda r: r.path)
    return DatasetManifest(records=records, skipped=skipped)


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_table(path, MANIFEST_COLUMNS, (
        [r.machine_type, r.section, r.domain, r.split, r.condition, r.path,
         ";".join(f"{k}={v}" for k, v in sorted(r.attributes.items()))]
        for r in sorted(manifest.records, key=lambda r: r.path)))


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    records = []
    for _, row in read_table(path, "manifest", MANIFEST_COLUMNS):
        attributes = {}
        if row["attributes"]:
            for item in row["attributes"].split(";"):
                k, _, v = item.partition("=")
                attributes[k] = v
        records.append(ClipRecord(
            machine_type=row["machine_type"], section=row["section"],
            domain=row["domain"], split=row["split"], condition=row["condition"],
            path=row["path"], attributes=attributes))
    if not records:
        raise DatasetError(f"{path}: empty manifest")
    counts = Counter(r.path for r in records)
    dupes = [p for p, c in counts.items() if c > 1]
    if dupes:
        raise DatasetError(f"{path}: duplicate clip paths: {dupes[:5]}")
    return DatasetManifest(records=records)


def dataset_violations(manifest: DatasetManifest,
                       evaluation: DatasetManifest | None = None) -> list[str]:
    """The first-shot rules the dataset breaks, one message each; [] if none.

    Each machine type is one section of 990 source-train and 10 target-train
    clips, and 100 normal and 100 anomalous test clips. An evaluation tree's
    test names carry no condition, so a section whose test clips are all
    unlabeled has its training counts checked only. No machine type may be in
    both the manifest and the evaluation manifest.
    """
    problems = []
    tally: dict[tuple[str, str], Counter] = defaultdict(Counter)
    for r in manifest.records:
        kind = r.domain if r.split == "train" else r.condition
        tally[r.machine_type, r.section][r.split, kind] += 1
    sections = defaultdict(list)
    for machine, section in sorted(tally):
        sections[machine].append(section)
    bad = {m: s for m, s in sections.items() if len(s) != 1}
    if bad:
        problems.append(f"each machine type must have exactly one section; got {bad}")
    for (machine, section), n in sorted(tally.items()):
        rules = [("train", "source", 990, "source-train"), ("train", "target", 10, "target-train")]
        if not n["test", "unknown"] or n["test", "normal"] or n["test", "anomaly"]:
            rules += [("test", "normal", 100, "normal test"),
                      ("test", "anomaly", 100, "anomalous test")]
        problems += [f"{machine}/{section}: {n[split, kind]} {what} clips, expected {want}"
                     for split, kind, want, what in rules if n[split, kind] != want]
    if evaluation is not None:
        shared = set(manifest.machines()) & set(evaluation.machines())
        if shared:
            problems.append("development and evaluation machine types must be disjoint; "
                            f"shared: {sorted(shared)}")
    return problems
