"""Dataset model: clip records, manifests, directory scanning.

The on-disk layout mirrors the usual machine-condition-monitoring convention:

    <root>/<machine_type>/<split>/section_<NN>_<domain>_<split>_<condition>_<idx>[_<token>...].wav

A clip record is read from its path by token scanning (see clip_record), so
trees with variant names (missing domain/condition tokens, extra tokens)
remain ingestible; names that cannot be read are collected into a
skipped-files report instead of being dropped silently. A manifest row is
a clip record, one column per field.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

from ._io import read_table, write_table
from .errors import DatasetError

DOMAINS = ("source", "target", "unknown")
SPLITS = ("train", "test", "supplementary")
CONDITIONS = ("normal", "anomaly", "unknown")

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


MANIFEST_COLUMNS = [f.name for f in fields(ClipRecord)]


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


def clip_record(rel) -> ClipRecord:
    """The record of the clip at rel, a path <machine>/<subdir>/<name>.wav
    relative to the dataset root.

    The name is 'section' + id, then domain, split and condition tokens in
    any order up to the first all-digit token (the clip index), which ends
    the scan; other tokens are not read, and a missing domain or condition
    is 'unknown'. The subdir name supplies a missing split, and a train clip
    with no condition token is normal. Raises ValueError or DatasetError,
    whose message says why the file is no clip.
    """
    rel = Path(rel)
    if len(rel.parts) < 2:
        raise ValueError("not under a <machine>/ directory")
    tokens = rel.stem.split("_")
    if len(tokens) < 2 or tokens[0] != SECTION_PREFIX:
        raise ValueError(f"{rel.name}: expected '{SECTION_PREFIX}_<id>_...'")
    domain, split, condition = "unknown", None, "unknown"
    for tok in tokens[2:]:
        if tok.isdigit():
            break
        if tok in NAME_DOMAINS:
            domain = tok
        elif tok in SPLITS:
            split = tok
        elif tok in NAME_CONDITIONS:
            condition = tok
    if split is None and rel.parent.name in SPLITS:
        split = rel.parent.name
    if split is None:
        raise ValueError("no split token and directory is not a split name")
    if split == "train" and condition == "unknown":
        # unsupervised setting: everything offered for training is normal
        condition = "normal"
    return ClipRecord(machine_type=rel.parts[0], section=tokens[1], domain=domain,
                      split=split, condition=condition, path=str(rel))


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
    write_table(path, MANIFEST_COLUMNS, map(astuple, sorted(manifest.records,
                                                            key=lambda r: r.path)))


def load_manifest(path) -> DatasetManifest:
    """The manifest at path; columns other than MANIFEST_COLUMNS are ignored."""
    path = Path(path)
    records = [ClipRecord(**{c: row[c] for c in MANIFEST_COLUMNS})
               for _, row in read_table(path, "manifest", MANIFEST_COLUMNS)]
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
