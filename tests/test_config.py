from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import asdkit
from asdkit.cli import EXIT_ARTIFACT, EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from asdkit.config import RunConfig, read_yaml
from asdkit.errors import ConfigError
from asdkit.synth import SynthSpec

from conftest import ALIAS_BOMB, MESSAGE_LIMIT

REPO = Path(__file__).parents[1]


@pytest.mark.parametrize("data, key, expected", [
    # YAML reads 1e-3 (no dot) as the string "1e-3"
    (yaml.safe_load("clip_seconds: 1e-3"), "clip_seconds", 1e-3),
    ({"clip_seconds": 1}, "clip_seconds", 1.0),
])
def test_float_keys_take_ints_and_numeric_strings(data, key, expected):
    value = getattr(SynthSpec.from_dict(data), key)
    assert type(value) is float and value == expected


@pytest.mark.parametrize("data, name", [
    ({"features": {"n_mels": "abc"}}, "features.n_mels"),
    ({"features": {"n_mels": 32.0}}, "features.n_mels"),
    ({"features": {"n_mels": True}}, "features.n_mels"),
    # fixed constants now, no longer config keys
    pytest.param({"features": {"normalize": "yes"}},
                 r"unknown config keys: \['features.normalize'\]", id="unknown-normalize"),
    pytest.param({"train": {"beta1": 0.9}}, r"unknown config keys: \['train.beta1'\]",
                 id="unknown-beta1"),
    pytest.param({"features": {"log_floor": "tiny"}},
                 r"unknown config keys: \['features.log_floor'\]", id="unknown-log_floor"),
    # a fixed constant now (1e-3): any value is an unknown key, named in full
    ({"train": {"learning_rate": "abc"}}, "train.learning_rate"),
    ({"train": {"learning_rate": "nan"}}, "train.learning_rate"),
    ({"train": {"learning_rate": float("inf")}}, "train.learning_rate"),
    ({"train": {"epochs": [3]}}, "train.epochs"),
    # a fixed constant now (1e-3), no longer a config key
    pytest.param({"scoring": {"ridge": 1e-3}}, r"unknown config keys: \['scoring.ridge'\]",
                 id="unknown-ridge"),
    ({"scoring": {"mode": ["mse"]}}, "scoring.mode"),
    ({"seed": "seven"}, "seed"),
    ({"seed": False}, "seed"),
    # the model section is gone: the layer dims follow from the feature dim
    pytest.param({"model": None}, r"unknown config keys: \['model'\]", id="unknown-model"),
    ({"model": {"layer_dims": 640}}, "model.layer_dims"),
    ({"train": [1, 2]}, "'train'"),
    # only a null section takes the defaults
    pytest.param({"features": 0}, "'features' must be a mapping, got 0",
                 id="section-not-a-mapping"),
    # a mode has one name
    pytest.param({"scoring": {"mode": "mahala"}},
                 r"scoring.mode: expected one of \['mse', 'mahalanobis'\], got 'mahala'",
                 id="mode-alias"),
])
def test_bad_config_value_names_key(data, name):
    with pytest.raises(ConfigError, match=name):
        RunConfig.from_dict(data)


def test_null_section_takes_its_defaults():
    assert RunConfig.from_dict({"features": None, "train": None, "scoring": None}) == RunConfig()
    assert SynthSpec.from_dict({"counts": None}) == SynthSpec()


def test_seed_override_follows_the_seed_check():
    assert RunConfig.from_dict({"seed": 5}, seed_override=3).seed == 3
    with pytest.raises(ConfigError, match="seed: expected int, got 'seven'"):
        RunConfig.from_dict({"seed": "seven"}, seed_override=3)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        RunConfig.from_dict({"seed": 5}, seed_override=-1)


@pytest.mark.parametrize("text", ["features: {n_mels: abc}\n",
                                  "train: {learning_rate: abc}\n",
                                  "model: {layer_dims: []}\n",
                                  "features: [unclosed\n",
                                  # nested too deep to parse; more digits than an int takes
                                  pytest.param("seed: " + "[" * 5000 + "\n", id="too-deep"),
                                  pytest.param("seed: " + "9" * 5000 + "\n", id="huge-int"),
                                  pytest.param(ALIAS_BOMB, id="alias-bomb"),
                                  # a dict would keep only the last seed
                                  pytest.param("seed: 1\nseed: 5\n", id="repeated-key")])
def test_bad_config_file_exits_config(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    rc = main(["train", "--config", str(cfg), "--data-root", str(tmp_path),
               "--machine", "m", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err
    assert len(err.encode()) < MESSAGE_LIMIT


def test_unknown_keys_of_any_yaml_type_are_named():
    with pytest.raises(ConfigError, match=r"unknown config keys: \['0', 'None', 'foo'\]"):
        RunConfig.from_dict(yaml.safe_load("0: 1\nfoo: 2\n~: 3\n"))


# characters that YAML gives a meaning, plus a few plain ones
MANGLE_CHARS = "&*[]{}:,-|>!#'\"\n 0a"


def mangle(text: str, edits) -> str:
    """text with each (op, at, width, char) edit applied in turn: delete or
    duplicate width characters at position at, or insert char there."""
    for op, at, width, char in edits:
        at %= len(text) + 1
        if op == "delete":
            text = text[:at] + text[at + width:]
        elif op == "duplicate":
            text = text[:at + width] + text[at:]
        else:
            text = text[:at] + char + text[at:]
    return text


@given(target=st.sampled_from(["run-config", "echo", "synth-spec"]),
       edits=st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "insert"]),
                                st.integers(0, 2**16), st.integers(1, 8),
                                st.sampled_from(MANGLE_CHARS)), min_size=1, max_size=4))
@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mangled_yaml_gives_an_exit_code(trained_artifacts, tmp_path, capsys, target,
                                         edits):
    _, paths, _ = trained_artifacts
    source = {"run-config": REPO / "configs" / "desk.yaml", "echo": paths["config"],
              "synth-spec": REPO / "configs" / "synth_smoke.yaml"}[target]
    text = mangle(source.read_text(), edits)
    if target == "run-config":
        cfg, empty = tmp_path / "cfg.yaml", tmp_path / "empty"
        cfg.write_text(text)
        empty.mkdir(exist_ok=True)
        assert main(["train", "--config", str(cfg), "--data-root", str(empty),
                     "--machine", "m", "--out", str(tmp_path / "out")]) in (EXIT_CONFIG,
                                                                             EXIT_DATA)
    elif target == "echo":
        run = tmp_path / "run"
        if not run.exists():
            shutil.copytree(paths["model"].parent, run)
        (run / "config.yaml").write_text(text)
        assert main(["macs", "--model", str(run)]) in (EXIT_OK, EXIT_CONFIG, EXIT_ARTIFACT)
    else:
        spec = tmp_path / "spec.yaml"
        spec.write_text(text)
        try:
            SynthSpec.from_yaml(spec)
        except ConfigError as exc:
            assert len(str(exc).encode()) < MESSAGE_LIMIT
    assert len(capsys.readouterr().err.encode()) < MESSAGE_LIMIT


def test_a_merge_key_is_no_repeated_key(tmp_path):
    # the mapping's own n_mels overrides the merged one, as YAML specifies
    path = tmp_path / "cfg.yaml"
    path.write_text("defaults: &d {n_mels: 16, context_frames: 4}\n"
                    "features:\n  <<: *d\n  n_mels: 32\n")
    assert read_yaml(path, "config")["features"] == {"n_mels": 32, "context_frames": 4}


def _yaml_loads(source: str) -> int:
    """Number of yaml.*load* calls and `from yaml import *load*` names."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and "load" in node.attr
                and isinstance(node.value, ast.Name) and node.value.id == "yaml"):
            count += 1
        elif isinstance(node, ast.ImportFrom) and node.module == "yaml":
            count += sum("load" in alias.name for alias in node.names)
    return count


def test_yaml_is_parsed_only_in_config():
    src = Path(asdkit.__file__).parent
    loads = {path.name: n for path in sorted(src.glob("*.py"))
             if (n := _yaml_loads(path.read_text()))}
    assert loads == {"config.py": 1}


def test_every_committed_config_loads():
    # the benchmark's configs are read here, so removing a key they set fails a test
    paths = [*(REPO / "configs").glob("*.yaml"), *(REPO / "bench" / "configs").glob("*.yaml")]
    specs = [p for p in paths if p.name.startswith("synth_")]
    run_configs = [p for p in paths if p not in specs]
    for path in specs:
        counts = SynthSpec.from_yaml(path).counts
        # train needs both domains, so every committed spec trains source and target
        assert counts.source_train > 0 and counts.target_train > 0, path.name
    for path in run_configs:
        RunConfig.from_dict(yaml.safe_load(path.read_text()))
    assert sorted(p.name for p in run_configs) == ["default.yaml", "desk.yaml",
                                                   "fullclip.yaml", "score_stream.yaml"]
    assert len(specs) == 5


def test_default_yaml_is_the_code_defaults():
    def keys(mapping):
        return {k: keys(v) if isinstance(v, dict) else None for k, v in mapping.items()}

    path = REPO / "configs" / "default.yaml"
    data = yaml.safe_load(path.read_text())
    defaults = RunConfig().to_dict()
    assert RunConfig.from_dict(data).to_dict() == defaults
    # the file lists every key, and a run config has exactly these six
    assert keys(data) == keys(defaults) == {
        "seed": None, "features": {"n_mels": None, "context_frames": None},
        "train": {"epochs": None, "batch_size": None}, "scoring": {"mode": None}}
