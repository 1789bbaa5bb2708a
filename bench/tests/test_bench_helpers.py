"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from measure import Ledger, supports_percentile, tail_percentile  # noqa: E402
from tracing import Span, Tracer, layer_stats, self_times  # noqa: E402
from workloads import WORKLOADS, Session, section_oracle  # noqa: E402


# -- "highest percentile with at least 10 samples beyond it" -----------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_supports_percentile_is_exact_at_the_boundary():
    assert supports_percentile(200, 95.0)
    assert not supports_percentile(199, 95.0)
    assert supports_percentile(10000, 99.9)
    assert not supports_percentile(9999, 99.9)


# -- self time --------------------------------------------------------------

def _span(name, start, end, parent=None, run_id="r"):
    return Span(name, float(start), float(end), parent, run_id)


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        _span("root", 0, 10),
        _span("a", 1, 3, parent=0),
        _span("b", 2, 4, parent=0),    # overlaps a: the union [1, 4] counts once
        _span("c", 6, 7, parent=0),
        _span("c.child", 6.2, 6.7, parent=3),
        _span("late", 9, 12, parent=0),  # clipped to the parent's end
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10 - 3 - 1 - 1)
    assert got[3] == pytest.approx(0.5)  # grandchild time leaves c, not root
    assert got[1] == pytest.approx(2) and got[4] == pytest.approx(0.5)


def test_layer_stats_pools_runs_and_skips_others():
    spans = [_span("f", 0, 2, run_id="x"), _span("g", 0.5, 1.0, parent=0, run_id="x"),
             _span("f", 5, 6, run_id="y")]
    stats = layer_stats(spans, ["x"])
    assert stats["f"].calls == 1 and stats["f"].self_s == pytest.approx(1.5)
    assert stats["f"].inclusive_s == pytest.approx(2.0)
    assert stats["g"].self_s == pytest.approx(0.5)


# -- patching where defined and where imported by name ---------------------

@pytest.fixture
def fake_package(monkeypatch):
    """pkg.model defines train; pkg.cli imports it by name, like asdkit."""
    pkg = types.ModuleType("fakepkg")
    model = types.ModuleType("fakepkg.model")
    cli = types.ModuleType("fakepkg.cli")
    exec("def train(n):\n"
         "    block = bytearray(n)\n"
         "    return len(block)\n", model.__dict__)
    model.train.__module__ = "fakepkg.model"
    cli.train = model.train
    exec("def train_machine(n):\n"
         "    keep = bytearray(n)\n"
         "    got = train(3 * n)\n"
         "    return got + len(keep)\n", cli.__dict__)
    cli.train_machine.__module__ = "fakepkg.cli"
    for name, mod in (("fakepkg", pkg), ("fakepkg.model", model), ("fakepkg.cli", cli)):
        monkeypatch.setitem(sys.modules, name, mod)
    pkg.model, pkg.cli = model, cli
    return pkg


def test_one_span_per_call_whether_called_by_module_or_imported_name(fake_package):
    tracer = Tracer(package="fakepkg", modules=("model", "cli"), work={})
    original = fake_package.model.train
    with tracer.recording("r"):
        assert fake_package.cli.train is fake_package.model.train is not original
        fake_package.cli.train_machine(10)  # calls train through cli's name
        fake_package.model.train(10)        # and where it is defined
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("cli.train_machine", None), ("model.train", 0), ("model.train", None)]
    assert fake_package.cli.train is original and fake_package.model.train is original
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(tracer.spans[0].duration - tracer.spans[1].duration)


def test_nested_memory_peaks(fake_package, monkeypatch):
    monkeypatch.setattr("tracing.MEMORY_SPANS", frozenset({"cli.train_machine", "model.train"}))
    tracer = Tracer(package="fakepkg", modules=("model", "cli"), work={})
    n = 1 << 20
    with tracer.recording("r", memory=True):
        fake_package.cli.train_machine(n)
    outer, inner = tracer.spans
    assert 3 * n <= inner.mem_peak_bytes < 3 * n + n // 4
    # the outer peak holds its own block while the inner one is live
    assert 4 * n <= outer.mem_peak_bytes < 4 * n + n // 4


def test_asdkit_scoring_calls_forward_through_its_imported_name():
    import asdkit.model
    import asdkit.scoring
    from asdkit.model import count_macs, init_model

    model = init_model([16, 4, 16], seed=0)
    feats = np.random.default_rng(0).standard_normal((7, 16))
    tracer = Tracer()
    with tracer.recording("r"):
        asdkit.scoring.score_mse(model, feats)
        asdkit.model.forward(model, feats)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("scoring.score_mse", None), ("model.forward", 0),
                     ("model.forward", None)]
    assert tracer.spans[1].work == {"vectors": 7, "macs": 7 * count_macs(model)}
    assert asdkit.scoring.forward is asdkit.model.forward
    assert not hasattr(asdkit.model.forward, "__wrapped__")


# -- failed_share --------------------------------------------------------------

def test_ledger_counts_checks_rows_and_commands():
    ledger = Ledger()
    assert ledger.check(True, "ok") is True
    assert ledger.check(False, "bad") is False
    ledger.count(10, 2, "rows")
    assert (ledger.attempted, ledger.failed) == (12, 3)
    assert ledger.failed_share == pytest.approx(0.25)
    assert len(ledger.failures) == 2
    with pytest.raises(ValueError):
        ledger.count(1, 2, "more failed than attempted")
    assert Ledger().failed_share == 0.0


def test_failed_commands_are_counted_not_raised(tmp_path):
    ledger = Ledger()
    session = Session(ROOT, WORKLOADS["desk"], 7, tmp_path, ledger)
    session.invoke(["score", "--model", str(tmp_path / "missing"), "--data-root",
                    str(tmp_path), "--machine", "m", "--out", str(tmp_path / "s.csv")])
    session.invoke(["train"])  # argparse exits 2
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert "exited 4" in ledger.failures[0] and "exited 2" in ledger.failures[1]


# -- the measured loop --------------------------------------------------------

@pytest.mark.parametrize("seconds, expected", [(1, 2), (10, 2), (12, 3), (15, 3)])
def test_timed_loop_starts_no_iteration_expected_to_end_past_the_window(
        monkeypatch, seconds, expected):
    clock = [0.0]
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))

    def iteration(i):
        clock[0] += 4.0
        return i

    assert run.timed_loop(iteration, seconds, started=0.0, minimum=2) == list(range(expected))


# -- correctness oracle and the metric list ----------------------------------

def test_section_oracle_matches_hand_counts():
    clips = [("n1", "source", "normal", 1.0), ("n2", "source", "normal", 3.0),
             ("n3", "target", "normal", 2.0), ("a1", "source", "anomaly", 2.5),
             ("a2", "target", "anomaly", 4.0)]
    got = section_oracle(clips, p=0.5)
    assert got["auc_source"] == pytest.approx(3 / 4)
    assert got["auc_target"] == pytest.approx(2 / 2)
    assert got["pauc"] == pytest.approx(1 / 2)  # top floor(1.5) = 1 normal: n2


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        e for e in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_spec()
    assert spec["paths"] == ["bench"]
