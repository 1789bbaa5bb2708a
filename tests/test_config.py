from __future__ import annotations

import ast
from pathlib import Path

import pytest
import yaml

import asdkit
from asdkit.cli import EXIT_CONFIG, main
from asdkit.config import RunConfig
from asdkit.errors import ConfigError
from asdkit.synth import SynthSpec


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
    # a mode has one name
    pytest.param({"scoring": {"mode": "mahala"}},
                 r"scoring.mode: expected one of \['mse', 'mahalanobis'\], got 'mahala'",
                 id="mode-alias"),
])
def test_bad_config_value_names_key(data, name):
    with pytest.raises(ConfigError, match=name):
        RunConfig.from_dict(data)


@pytest.mark.parametrize("text", ["features: {n_mels: abc}\n",
                                  "train: {learning_rate: abc}\n",
                                  "model: {layer_dims: []}\n",
                                  "features: [unclosed\n"])
def test_bad_config_file_exits_config(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    rc = main(["train", "--config", str(cfg), "--data-root", str(tmp_path),
               "--machine", "m", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err



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
    repo = Path(__file__).parents[1]
    paths = [*(repo / "configs").glob("*.yaml"), *(repo / "bench" / "configs").glob("*.yaml")]
    specs = [p for p in paths if p.name.startswith("synth_")]
    run_configs = [p for p in paths if p not in specs]
    for path in specs:
        SynthSpec.from_yaml(path)
    for path in run_configs:
        RunConfig.from_dict(yaml.safe_load(path.read_text()))
    assert sorted(p.name for p in run_configs) == ["default.yaml", "desk.yaml",
                                                   "fullclip.yaml", "score_stream.yaml"]
    assert len(specs) == 5


def test_default_yaml_is_the_code_defaults():
    def keys(mapping):
        return {k: keys(v) if isinstance(v, dict) else None for k, v in mapping.items()}

    path = Path(__file__).parents[1] / "configs" / "default.yaml"
    data = yaml.safe_load(path.read_text())
    defaults = RunConfig().to_dict()
    assert RunConfig.from_dict(data).to_dict() == defaults
    # the file lists every key, and a run config has exactly these six
    assert keys(data) == keys(defaults) == {
        "seed": None, "features": {"n_mels": None, "context_frames": None},
        "train": {"epochs": None, "batch_size": None}, "scoring": {"mode": None}}
