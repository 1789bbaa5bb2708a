from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdkit.errors import UndefinedMetricError
from asdkit.metrics import (ScoredClip, auc_domain, build_report, load_reference_csv,
                            official_score, pauc_section, render_report, write_report_csv)


def clip(score, condition, domain="source", machine="m1", section="00", path=None):
    if path is None:
        path = f"{machine}/test/{condition}_{domain}_{score}_{id(object())}.wav"
    return ScoredClip(path=path, machine_type=machine, section=section,
                      domain=domain, condition=condition, score=float(score))


def scored_set(normals_by_domain, anomalies, machine="m1"):
    clips = []
    idx = 0
    for domain, values in normals_by_domain.items():
        for v in values:
            clips.append(clip(v, "normal", domain, machine,
                              path=f"{machine}/n{idx:03d}.wav"))
            idx += 1
    for v in anomalies:
        clips.append(clip(v, "anomaly", "source", machine,
                          path=f"{machine}/a{idx:03d}.wav"))
        idx += 1
    return clips


# ---------------------------------------------------------------------------
# brute-force oracles (kept deliberately dumb)

def auc_oracle(normal_scores, anomaly_scores):
    wins = sum(1 for a in anomaly_scores for n in normal_scores if a > n)
    return wins / (len(normal_scores) * len(anomaly_scores))


def pauc_oracle(normal_clips, anomaly_scores, p):
    k = math.floor(p * len(normal_clips))
    ranked = sorted(normal_clips, key=lambda c: (-c.score, c.path))[:k]
    wins = sum(1 for a in anomaly_scores for n in ranked if a > n.score)
    return wins / (k * len(anomaly_scores))


# ---------------------------------------------------------------------------
# auc_domain

def test_auc_perfect_separation():
    s = scored_set({"source": [0.1, 0.2]}, [0.8, 0.9])
    assert auc_domain(s, "source") == 1.0


def test_auc_interleaved_hand_case():
    s = scored_set({"source": [0.1, 0.4]}, [0.3, 0.5])
    # pairs: (0.3,0.1)+, (0.3,0.4)-, (0.5,0.1)+, (0.5,0.4)+ -> 3/4
    assert auc_domain(s, "source") == 0.75
    assert auc_domain(s, "source") == auc_oracle([0.1, 0.4], [0.3, 0.5])


def test_auc_all_ties_is_zero():
    s = scored_set({"source": [0.5, 0.5, 0.5]}, [0.5, 0.5])
    assert auc_domain(s, "source") == 0.0


def test_auc_uses_anomalies_from_both_domains():
    clips = [clip(0.1, "normal", "source", path="m1/n0.wav"),
             clip(0.2, "anomaly", "source", path="m1/a0.wav"),
             clip(0.05, "anomaly", "target", path="m1/a1.wav")]
    s = clips
    # anomalies pooled across domains: one above 0.1, one below -> 1/2
    assert auc_domain(s, "source") == 0.5


def test_auc_undefined_cases():
    s = scored_set({"source": [0.1]}, [0.9])
    with pytest.raises(UndefinedMetricError):
        auc_domain(s, "target")  # no target normals
    only_normals = [clip(0.1, "normal", "source")]
    with pytest.raises(UndefinedMetricError):
        auc_domain(only_normals, "source")


# ---------------------------------------------------------------------------
# pauc_section

def test_pauc_worked_example():
    normals = {"source": [0.1, 0.2, 0.3, 0.4, 0.5], "target": [0.6, 0.7, 0.8, 0.9, 1.0]}
    s = scored_set(normals, [0.95, 1.05])
    # floor(0.1 * 10) = 1 normal in range: the one scoring 1.0
    # pairs: (0.95 > 1.0) = 0, (1.05 > 1.0) = 1 -> 0.5
    assert pauc_section(s, p=0.1) == 0.5


def test_pauc_perfect_separation_any_p():
    s = scored_set({"source": [0.1] * 10}, [0.9, 0.8])
    for p in (0.1, 0.5, 1.0):
        assert pauc_section(s, p=p) == 1.0


def test_pauc_anomalies_below_everything():
    s = scored_set({"source": [0.5] * 10}, [0.1, 0.2])
    assert pauc_section(s, p=0.1) == 0.0


def test_pauc_floor_zero_is_undefined():
    s = scored_set({"source": [0.1] * 5}, [0.9])
    with pytest.raises(UndefinedMetricError):
        pauc_section(s, p=0.1)  # floor(0.5) = 0


def test_pauc_p_equal_one_is_pooled_auc():
    rng = np.random.default_rng(0)
    normals = {"source": rng.uniform(0, 1, 7).tolist(),
               "target": rng.uniform(0, 1, 6).tolist()}
    anomalies = rng.uniform(0, 1, 9).tolist()
    s = scored_set(normals, anomalies)
    pooled = normals["source"] + normals["target"]
    assert pauc_section(s, p=1.0) == auc_oracle(pooled, anomalies)


# ---------------------------------------------------------------------------
# randomized equivalence with the oracles

score_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                         allow_infinity=False)
# a coarse grid forces plenty of exact ties
tied_values = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.5, 0.7, 1.0])


@given(normals=st.lists(st.one_of(score_values, tied_values), min_size=1, max_size=50),
       anomalies=st.lists(st.one_of(score_values, tied_values), min_size=1, max_size=50))
@settings(max_examples=120, deadline=None)
def test_auc_fast_path_equals_bruteforce(normals, anomalies):
    s = scored_set({"source": normals}, anomalies)
    assert auc_domain(s, "source") == auc_oracle(normals, anomalies)


@given(normals=st.lists(st.one_of(score_values, tied_values), min_size=10, max_size=50),
       anomalies=st.lists(st.one_of(score_values, tied_values), min_size=1, max_size=50),
       p=st.sampled_from([0.1, 0.25, 0.5, 1.0]))
@settings(max_examples=120, deadline=None)
def test_pauc_fast_path_equals_bruteforce(normals, anomalies, p):
    half = len(normals) // 2
    s = scored_set({"source": normals[:half], "target": normals[half:]}, anomalies)
    normal_clips = [c for c in s if c.condition == "normal"]
    assert pauc_section(s, p=p) == pauc_oracle(normal_clips, anomalies, p)


def test_auc_invariant_under_increasing_transform(rng):
    normals = rng.uniform(0, 1, 20).tolist()
    anomalies = rng.uniform(0, 1, 15).tolist()
    base = auc_domain(scored_set({"source": normals}, anomalies), "source")
    for transform in (lambda v: math.exp(v), lambda v: 10 * v - 3):
        mapped = auc_domain(
            scored_set({"source": [transform(v) for v in normals]},
                       [transform(v) for v in anomalies]), "source")
        assert mapped == base


def test_auc_complement_under_negation(rng):
    # distinct scores, so no ties: negation maps a -> 1 - a
    normals = (rng.permutation(40)[:20] / 40.0).tolist()
    anomalies = (rng.permutation(40)[20:35] / 40.0 + 2.0).tolist()
    a = auc_oracle(normals, anomalies)
    neg = auc_domain(scored_set({"source": [-v for v in normals]},
                                [-v for v in anomalies]), "source")
    assert neg == pytest.approx(1.0 - a, abs=1e-12)


# ---------------------------------------------------------------------------
# official score

def test_official_score_of_equals():
    assert official_score([0.5, 0.5, 0.5]) == 0.5


def test_official_score_two_values():
    assert official_score([1.0, 0.5]) == pytest.approx(2 / 3, rel=1e-15)


def test_official_score_zero_flagged():
    assert official_score([0.5, 0.0, 0.9]) == 0.0


def test_official_score_validation():
    with pytest.raises(UndefinedMetricError):
        official_score([])
    with pytest.raises(UndefinedMetricError):
        official_score([0.5, 1.5])


def test_official_score_below_arithmetic_mean(rng):
    for _ in range(25):
        values = rng.uniform(0.05, 1.0, int(rng.integers(2, 9)))
        assert official_score(values) <= np.mean(values) + 1e-12
    common = float(rng.uniform(0.1, 1.0))
    assert official_score([common] * 5) == pytest.approx(common, rel=1e-12)


# ---------------------------------------------------------------------------
# report building

def two_machine_set():
    clips = []
    for machine, offset in (("m1", 0.0), ("m2", 0.2)):
        for domain in ("source", "target"):
            for i in range(10):
                clips.append(clip(offset + i / 100, "normal", domain, machine,
                                  path=f"{machine}/n_{domain}_{i}.wav"))
            for i in range(5):
                clips.append(clip(offset + 0.5 + i / 100, "anomaly", domain, machine,
                                  path=f"{machine}/a_{domain}_{i}.wav"))
    return clips


def test_build_report_two_machines():
    report = build_report(two_machine_set())
    assert len(report.rows) == 2
    assert report.omega == 1.0  # perfectly separated by construction
    values = [v for row in report.rows for v in row.values()]
    assert len(values) == 6


def test_build_report_empty_set_incomplete():
    report = build_report([])
    assert report.rows == []
    assert report.omega is None
    assert "REPORT INCOMPLETE" in render_report(report)


def test_build_report_missing_anomalies_marks_incomplete():
    clips = [clip(0.1, "normal", "source", path="m1/n0.wav"),
             clip(0.2, "normal", "target", path="m1/n1.wav")]
    report = build_report(clips)
    assert report.omega is None
    assert report.rows[0].auc_source is None
    # all three metrics fail for the one reason, which the report gives once
    assert report.rows[0].errors == ["m1/00: no anomalous test clips"]
    assert render_report(report).count("no anomalous test clips") == 1


def test_build_report_groups_shuffled_sections(rng):
    clips = two_machine_set()
    clips += [clip(0.1 * i, "normal", "source", machine, "01", f"{machine}/01_n{i}.wav")
              for machine in ("m1", "m2") for i in range(4)]
    clips.append(clip(0.9, "anomaly", "target", "m1", "01", "m1/01_a0.wav"))
    report = build_report(sorted(clips, key=lambda c: (c.machine_type, c.section, c.path)))
    shuffled = build_report([clips[i] for i in rng.permutation(len(clips))])
    assert shuffled == report
    assert [(r.machine_type, r.section) for r in report.rows] == [
        ("m1", "00"), ("m1", "01"), ("m2", "00"), ("m2", "01")]
    assert report.rows[1].errors == ["m1/01: no normal test clips in domain 'target'",
                                     "m1/01: floor(p * 4) = 0 normals in range"]
    assert report.rows[3].errors == ["m2/01: no anomalous test clips",
                                     "m2/01: no normal test clips in domain 'target'"]
    assert report.omega is None


def test_build_report_reference_deltas(tmp_path):
    reference_csv = tmp_path / "ref.csv"
    reference_csv.write_text("machine,auc_source,auc_target,pauc\n"
                             "m1,71.05,53.32,49.79\n")
    reference = load_reference_csv(reference_csv)
    s = two_machine_set()
    report = build_report(s, reference=reference)
    row = [r for r in report.rows if r.machine_type == "m1"][0]
    assert row.deltas["auc_source"] == pytest.approx(100.0 - 71.05)
    assert row.deltas["auc_target"] == pytest.approx(100.0 - 53.32)
    other = [r for r in report.rows if r.machine_type == "m2"][0]
    assert other.deltas is None


def test_report_csv_keeps_reference_columns_without_deltas(tmp_path):
    # a reference row matched to a section with no anomalous clip: the
    # reference values stay in their columns and the deltas stay empty
    reference_csv = tmp_path / "ref.csv"
    reference_csv.write_text("machine,auc_source,auc_target,pauc\nm1,71.05,53.32,49.79\n")
    clips = [clip(0.1, "normal", "source", path="m1/n0.wav"),
             clip(0.2, "normal", "target", path="m1/n1.wav")]
    report = build_report(clips, reference=load_reference_csv(reference_csv))
    out = tmp_path / "report.csv"
    write_report_csv(report, out)
    assert out.read_text().splitlines() == [
        "machine_type,section,auc_source,auc_target,pauc,ref_auc_source,delta_auc_source,"
        "ref_auc_target,delta_auc_target,ref_pauc,delta_pauc",
        "m1,00,,,,71.05,,53.32,,49.79,"]


def test_report_rendering_and_csv(tmp_path):
    report = build_report(two_machine_set())
    text = render_report(report)
    assert "official score: 1.000000" in text
    assert "100.00" in text
    assert "MACs" not in text  # `asdkit macs` reports them
    out = tmp_path / "report.csv"
    write_report_csv(report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "machine_type,section,auc_source,auc_target,pauc"
    assert len(lines) == 3


def test_report_rendering_zero_flag():
    clips = [clip(0.5, "normal", "source", path="m1/n0.wav"),
             clip(0.5, "normal", "target", path="m1/n1.wav"),
             *[clip(0.5, "normal", "source", path=f"m1/n{i}.wav") for i in range(2, 10)],
             clip(0.5, "anomaly", "source", path="m1/a0.wav")]
    report = build_report(clips)
    assert report.omega == 0.0
    assert "zero-valued" in render_report(report)
