"""Evaluation protocol: per-domain AUC, low-FPR partial AUC, official score.

All metrics are exact pairwise counts, not trapezoid approximations:

    AUC(m, n, d)  = (1 / (Nn_d * Na)) * sum_ij H(score(anomaly_j) - score(normal_i))

with H(y) = 1 iff y > 0 (ties count zero), normals drawn from domain d of the
section and anomalies from *both* domains of the section. The partial AUC
restricts the normals to the floor(p * Nn) highest-scoring ones, pooled
across domains, and normalizes by floor(p * Nn) * Na. The official score is
the harmonic mean over every section's {AUC_source, AUC_target, pAUC}; any
zero constituent makes it 0 (said so in the report, not an exception).

The sort-based counting below is exact: it performs the same float
comparisons as the brute-force double loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._io import read_table, write_table
from .config import _checked
from .errors import ConfigError, UndefinedMetricError

PAUC_P = 0.1  # the paper's low false-positive range [0, p]
METRICS = ("auc_source", "auc_target", "pauc")  # a section's metrics, in column order


@dataclass
class ScoredClip:
    path: str
    machine_type: str
    section: str
    domain: str
    condition: str
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise UndefinedMetricError(f"non-finite score for {self.path}")


def _pairwise_fraction(normal_scores: np.ndarray, anomaly_scores: np.ndarray) -> float:
    """Fraction of (normal, anomaly) pairs with anomaly score strictly higher."""
    normals = np.sort(np.asarray(normal_scores, dtype=np.float64))
    anomalies = np.asarray(anomaly_scores, dtype=np.float64)
    wins = int(np.searchsorted(normals, anomalies, side="left").sum())
    return wins / (normals.size * anomalies.size)


def auc_domain(clips: list[ScoredClip], domain: str) -> float:
    """AUC for one domain of one section's clips; anomalies pooled from both domains."""
    normals = [c.score for c in clips if c.condition == "normal" and c.domain == domain]
    anomalies = [c.score for c in clips if c.condition == "anomaly"]
    if not normals:
        raise UndefinedMetricError(f"no normal test clips in domain {domain!r}")
    if not anomalies:
        raise UndefinedMetricError("no anomalous test clips")
    return _pairwise_fraction(np.array(normals), np.array(anomalies))


def pauc_section(clips: list[ScoredClip], p: float = PAUC_P) -> float:
    """Partial AUC over the low false-positive range [0, p] of one section's clips.

    Only the floor(p * Nn) normals with the highest scores enter the pairwise
    count (ties at the cut broken by clip path for reproducibility; equal
    scores give the same value either way).
    """
    if not (0.0 < p <= 1.0):
        raise UndefinedMetricError(f"p must be in (0, 1], got {p}")
    normals = [c for c in clips if c.condition == "normal"]
    anomalies = [c.score for c in clips if c.condition == "anomaly"]
    if not anomalies:
        raise UndefinedMetricError("no anomalous test clips")
    top_count = int(np.floor(p * len(normals)))
    if top_count < 1:
        raise UndefinedMetricError(f"floor(p * {len(normals)}) = 0 normals in range")
    ranked = sorted(normals, key=lambda c: (-c.score, c.path))[:top_count]
    return _pairwise_fraction(np.array([c.score for c in ranked]), np.array(anomalies))


def official_score(values) -> float:
    """Harmonic mean of the given metric values. A zero constituent yields
    0.0, the harmonic-mean limit, rather than raising."""
    vals = [float(v) for v in values]
    if not vals:
        raise UndefinedMetricError("official score of an empty value set")
    if any(v < 0 or v > 1 for v in vals):
        raise UndefinedMetricError(f"metric values outside [0, 1]: {vals}")
    if any(v == 0.0 for v in vals):
        return 0.0
    return len(vals) / sum(1.0 / v for v in vals)


@dataclass
class SectionMetrics:
    machine_type: str
    section: str
    auc_source: float | None
    auc_target: float | None
    pauc: float | None
    errors: list[str] = field(default_factory=list)
    reference: dict[str, float] | None = None  # reference values, percent
    deltas: dict[str, float] | None = None     # ours minus reference, percent points

    def values(self) -> list[float]:
        return [v for v in (self.auc_source, self.auc_target, self.pauc)
                if v is not None]


@dataclass
class MetricsReport:
    rows: list[SectionMetrics]
    omega: float | None  # None: the report is incomplete


def build_report(clips: list[ScoredClip],
                 reference: dict[str, dict[str, float]] | None = None) -> MetricsReport:
    """Per-section metric rows, sorted by (machine type, section), plus the
    overall harmonic-mean score.

    Sections whose metrics are undefined stay in the report with blank cells
    and each distinct reason once; such a report, or one with no rows, is
    incomplete and has no overall score. ``reference`` maps machine type to
    percent-valued {auc_source, auc_target, pauc} rows for side-by-side
    comparison.
    """
    sections: dict[tuple[str, str], list[ScoredClip]] = {}
    for c in clips:
        sections.setdefault((c.machine_type, c.section), []).append(c)
    rows = []
    for (machine, section), section_clips in sorted(sections.items()):
        metric_values = {}
        errors = []
        for name, fn, arg in (("auc_source", auc_domain, "source"),
                              ("auc_target", auc_domain, "target"),
                              ("pauc", pauc_section, PAUC_P)):
            try:
                metric_values[name] = fn(section_clips, arg)
            except UndefinedMetricError as exc:
                metric_values[name] = None
                message = f"{machine}/{section}: {exc}"
                if message not in errors:
                    errors.append(message)
        row = SectionMetrics(machine_type=machine, section=section,
                             auc_source=metric_values["auc_source"],
                             auc_target=metric_values["auc_target"],
                             pauc=metric_values["pauc"], errors=errors)
        if reference and machine in reference:
            ref = reference[machine]
            row.reference = dict(ref)
            row.deltas = {key: 100.0 * metric_values[key] - ref[key]
                          for key in METRICS
                          if metric_values.get(key) is not None and key in ref}
        rows.append(row)
    complete = rows and not any(row.errors for row in rows)
    omega = official_score([v for row in rows for v in row.values()]) if complete else None
    return MetricsReport(rows=rows, omega=omega)


def load_reference_csv(path) -> dict[str, dict[str, float]]:
    """Reference table: columns machine,auc_source,auc_target,pauc (percent)."""
    reference = {}
    for line, row in read_table(path, "reference CSV", ["machine", *METRICS]):
        where = f"{path} line {line}"
        if row["machine"] in reference:
            raise ConfigError(f"{where}: machine {row['machine']!r} listed twice")
        reference[row["machine"]] = {key: _checked(f"{where}: {key}", row[key], 0.0)
                                     for key in METRICS}
        for key, value in reference[row["machine"]].items():
            if not 0.0 <= value <= 100.0:
                raise ConfigError(f"{where}: {key} {value} is not a percent in [0, 100]")
    return reference


def _pct(value: float | None) -> str:
    return "" if value is None else f"{100.0 * value:.2f}"


def write_report_csv(report: MetricsReport, path) -> None:
    has_ref = any(row.reference for row in report.rows)
    header = ["machine_type", "section", *METRICS]
    if has_ref:
        header += [f"{kind}_{key}" for key in METRICS for kind in ("ref", "delta")]
    rows = []
    for row in report.rows:
        ours = [getattr(row, key) for key in METRICS]
        cells = [row.machine_type, row.section, *("" if v is None else repr(v) for v in ours)]
        if has_ref:
            for key in METRICS:
                ref = (row.reference or {}).get(key)
                delta = (row.deltas or {}).get(key)
                cells += ["" if ref is None else f"{ref:.2f}",
                          "" if delta is None else f"{delta:+.2f}"]
        rows.append(cells)
    write_table(path, header, rows)


def render_report(report: MetricsReport) -> str:
    """Human-readable table; metric columns in percent with 2 decimals."""
    lines = []
    header = f"{'machine':<16} {'section':<8} {'AUC src[%]':>10} {'AUC tgt[%]':>10} {'pAUC[%]':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        lines.append(f"{row.machine_type:<16} {row.section:<8} "
                     f"{_pct(row.auc_source):>10} {_pct(row.auc_target):>10} "
                     f"{_pct(row.pauc):>8}")
        if row.deltas:
            delta_text = ", ".join(f"{k} {v:+.2f}pp" for k, v in sorted(row.deltas.items()))
            lines.append(f"{'':<16} vs reference: {delta_text}")
        for err in row.errors:
            lines.append(f"{'':<16} ! {err}")
    lines.append("-" * len(header))
    if report.omega is None:
        lines += ["official score: n/a (incomplete report)",
                  "REPORT INCOMPLETE: some metrics were undefined"]
    elif report.omega == 0.0:
        lines.append("official score: 0.000000 (zero-valued constituent metrics)")
    else:
        lines.append(f"official score: {report.omega:.6f}")
    return "\n".join(lines) + "\n"
