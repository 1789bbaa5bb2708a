"""Dataset model: clip records, manifests, directory scanning, attribute CSVs.

The on-disk layout mirrors the usual machine-condition-monitoring convention:

    <root>/<machine_type>/<split>/section_<NN>_<domain>_<split>_<condition>_<idx>[_<k>_<v>...].wav

File names are parsed by token scanning, so trees with variant names
(missing domain/condition tokens, extra attribute tokens) remain ingestible;
names that cannot be parsed are collected into a skipped-files report instead
of being dropped silently.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from ._io import atomic_write
from .errors import ConfigError, DatasetError

DOMAINS = ("source", "target", "unknown")
SPLITS = ("train", "test", "supplementary")
CONDITIONS = ("normal", "anomaly", "unknown")
ROLES = ("development", "additional_training", "evaluation")

MANIFEST_COLUMNS = ["machine_type", "section", "domain", "split",
                    "condition", "path", "attributes", "role"]
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

    @property
    def filename(self) -> str:
        return Path(self.path).name


@dataclass
class DatasetManifest:
    records: list[ClipRecord]
    role: str = "development"
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (path, reason)

    def __post_init__(self):
        if self.role not in ROLES:
            raise DatasetError(f"bad manifest role {self.role!r}")

    def machines(self) -> list[str]:
        return sorted({r.machine_type for r in self.records})

    def sections(self, machine: str) -> list[str]:
        return sorted({r.section for r in self.records if r.machine_type == machine})

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

    def by_filename(self) -> dict[str, ClipRecord]:
        return {r.filename: r for r in self.records}


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


def scan_dataset(root_dir, role: str = "development") -> DatasetManifest:
    """Walk a dataset tree and build the manifest.

    Expects <root>/<machine>/<subdir>/*.wav; the subdir name supplies the
    split when the filename carries no split token. Unparseable names go to
    manifest.skipped. Raises DatasetError on an empty tree or duplicate paths.
    """
    root = Path(root_dir)
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    records: list[ClipRecord] = []
    skipped: list[tuple[str, str]] = []
    wavs = sorted(root.rglob("*.wav"))
    if not wavs:
        raise DatasetError(f"no .wav files under {root}")
    seen: Counter[str] = Counter()
    for wav in wavs:
        rel = wav.relative_to(root)
        if len(rel.parts) < 2:
            skipped.append((str(rel), "not under a <machine>/ directory"))
            continue
        machine = rel.parts[0]
        try:
            parsed = parse_clip_name(wav.name)
        except ValueError as exc:
            skipped.append((str(rel), str(exc)))
            continue
        split = parsed["split"]
        if split is None and rel.parent.name in SPLITS:
            split = rel.parent.name
        if split is None:
            skipped.append((str(rel), "no split token and directory is not a split name"))
            continue
        condition = parsed["condition"]
        if split == "train" and condition == "unknown":
            # unsupervised setting: everything offered for training is normal
            condition = "normal"
        try:
            rec = ClipRecord(machine_type=machine, section=parsed["section"],
                             domain=parsed["domain"], split=split, condition=condition,
                             path=str(rel), attributes=parsed["attributes"])
        except DatasetError as exc:
            skipped.append((str(rel), str(exc)))
            continue
        records.append(rec)
        seen[str(rel)] += 1
    dupes = [p for p, c in seen.items() if c > 1]
    if dupes:
        raise DatasetError(f"duplicate clip paths in manifest: {dupes[:5]}")
    if not records:
        raise DatasetError(f"no parseable .wav files under {root} "
                           f"({len(skipped)} skipped)")
    records.sort(key=lambda r: r.path)
    return DatasetManifest(records=records, role=role, skipped=skipped)


def load_attributes_csv(path) -> dict[str, dict[str, str]]:
    """Read an attribute CSV: header row, then `filename,key,value[,key,value...]`."""
    attrs: dict[str, dict[str, str]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return attrs
        for row in reader:
            if not row or not row[0].strip():
                continue
            name = Path(row[0].strip()).name
            pairs = {}
            cells = [c.strip() for c in row[1:]]
            for i in range(0, len(cells) - 1, 2):
                if cells[i]:
                    pairs[cells[i]] = cells[i + 1]
            attrs[name] = pairs
    return attrs


def apply_attributes(manifest: DatasetManifest,
                     attrs: dict[str, dict[str, str]]) -> list[str]:
    """Merge an attribute map into matching records; returns warnings for
    CSV rows that reference no clip in the manifest."""
    by_name = manifest.by_filename()
    warnings = []
    for name, pairs in attrs.items():
        rec = by_name.get(name)
        if rec is None:
            warnings.append(f"attribute row for unknown clip {name!r}")
            continue
        rec.attributes.update(pairs)
    return warnings


def save_manifest(manifest: DatasetManifest, path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for r in sorted(manifest.records, key=lambda r: r.path):
            attr_text = ";".join(f"{k}={v}" for k, v in sorted(r.attributes.items()))
            writer.writerow([r.machine_type, r.section, r.domain, r.split,
                             r.condition, r.path, attr_text, manifest.role])


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    records = []
    roles = set()
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = set(MANIFEST_COLUMNS) - set(reader.fieldnames or [])
            if missing:
                raise DatasetError(f"{path}: manifest missing columns {sorted(missing)}")
            for row in reader:
                attributes = {}
                if row["attributes"]:
                    for item in row["attributes"].split(";"):
                        k, _, v = item.partition("=")
                        attributes[k] = v
                records.append(ClipRecord(
                    machine_type=row["machine_type"], section=row["section"],
                    domain=row["domain"], split=row["split"], condition=row["condition"],
                    path=row["path"], attributes=attributes))
                roles.add(row["role"])
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    if not records:
        raise DatasetError(f"{path}: empty manifest")
    if len(roles) != 1:
        raise DatasetError(f"{path}: mixed manifest roles {sorted(roles)}")
    counts = Counter(r.path for r in records)
    dupes = [p for p, c in counts.items() if c > 1]
    if dupes:
        raise DatasetError(f"{path}: duplicate clip paths: {dupes[:5]}")
    return DatasetManifest(records=records, role=roles.pop())


def check_first_shot(development: DatasetManifest, evaluation: DatasetManifest) -> None:
    """Reject configurations whose development and evaluation machines overlap."""
    shared = set(development.machines()) & set(evaluation.machines())
    if shared:
        raise DatasetError(
            f"development and evaluation machine types must be disjoint; "
            f"shared: {sorted(shared)}")


def check_single_section(manifest: DatasetManifest) -> None:
    bad = {m: manifest.sections(m) for m in manifest.machines()
           if len(manifest.sections(m)) != 1}
    if bad:
        raise DatasetError(f"each machine type must have exactly one section; got {bad}")


def official_layout_violations(manifest: DatasetManifest) -> list[str]:
    """Check the official per-section clip counts (990 source-train + 10
    target-train; 100+100 test for development manifests). Returns a list of
    human-readable violations, empty when the layout matches."""
    problems = []
    per_section: dict[tuple[str, str], list[ClipRecord]] = defaultdict(list)
    for r in manifest.records:
        per_section[(r.machine_type, r.section)].append(r)
    for (machine, section), recs in sorted(per_section.items()):
        n_src = sum(1 for r in recs if r.split == "train" and r.domain == "source")
        n_tgt = sum(1 for r in recs if r.split == "train" and r.domain == "target")
        if n_src != 990:
            problems.append(f"{machine}/{section}: {n_src} source-train clips, expected 990")
        if n_tgt != 10:
            problems.append(f"{machine}/{section}: {n_tgt} target-train clips, expected 10")
        if manifest.role == "development":
            n_norm = sum(1 for r in recs if r.split == "test" and r.condition == "normal")
            n_anom = sum(1 for r in recs if r.split == "test" and r.condition == "anomaly")
            if n_norm != 100:
                problems.append(f"{machine}/{section}: {n_norm} normal test clips, expected 100")
            if n_anom != 100:
                problems.append(f"{machine}/{section}: {n_anom} anomalous test clips, expected 100")
    return problems
