"""Run configuration: one YAML file drives features, training and scoring.

Every command echoes its resolved configuration into its output directory, so
artifacts are self-describing and runs can be reproduced from the outputs
alone.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace

import yaml

from ._io import write_yaml
from .dsp import FeatureConfig
from .errors import ConfigError
from .model import TrainConfig
from .scoring import ScoringConfig

# quotes a bad value in a message: one level of a few items, whatever YAML aliases share
_quote = reprlib.Repr()
_quote.maxlevel = 1


def _defaults(cls) -> dict:
    """Config keys of a dataclass and their defaults."""
    return {f.name: f.default_factory() if f.default is MISSING else f.default
            for f in fields(cls)}


def _checked(name: str, value, default):
    """value if it has the type of default, else ConfigError naming the key.

    Ints reject bools. Floats must be finite and also accept ints and numeric
    strings, because YAML reads 1e-3 (no dot) as a string. A dataclass default
    takes a mapping (see from_mapping), or null for its defaults. A list
    default takes a list or tuple whose items are typed like its first item.
    """
    kind = type(default)
    if is_dataclass(default):
        return from_mapping(kind, {} if value is None else value, name, name)
    if kind is list and type(value) in (list, tuple):
        return [_checked(f"{name}[{i}]", item, default[0]) for i, item in enumerate(value)]
    if kind is float and type(value) in (int, str):
        try:
            value = float(value)
        except (ValueError, OverflowError):
            pass
    if type(value) is kind and (kind is not float or -math.inf < value < math.inf):
        return value
    raise ConfigError(f"{name}: expected {kind.__name__}, got {_quote.repr(value)}")


def unknown_keys(cls, data: dict) -> list[str]:
    """Dotted names of the keys in data, at any depth, that dataclass cls lacks.

    An unknown section is named by its keys (model.layer_dims), if it has any.
    """
    defaults = _defaults(cls)
    unknown = []
    for key, value in data.items():
        default = defaults.get(key)
        if isinstance(value, dict) and (is_dataclass(default) or value and key not in defaults):
            inner = unknown_keys(type(default), value) if is_dataclass(default) else value
            unknown += [f"{key}.{name}" for name in inner]
        elif key not in defaults:
            unknown.append(str(key))  # YAML keys may be ints, dates, null
    return sorted(unknown)


def from_mapping(cls, data, what: str, name: str = ""):
    """Dataclass cls from the mapping of a what file: unknown keys are rejected
    by their dotted names, each value is checked as name.key (key if no name)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name!r} must be a mapping, got {_quote.repr(data)}")
    unknown = unknown_keys(cls, data)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    defaults = _defaults(cls)
    return cls(**{key: _checked(f"{name}.{key}" if name else key, value, defaults[key])
                  for key, value in data.items()})


class _Loader(yaml.SafeLoader):
    """yaml.SafeLoader that rejects a mapping repeating a key, which a dict
    would keep only once. A merge key (<<) is no repeat: the mapping's own
    keys override the merged ones."""

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key_node, _ in node.value:
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)
                if key in seen:
                    mark = key_node.start_mark
                    raise ConfigError(f"{mark.name} line {mark.line + 1}: repeated key {key!r}")
                seen.add(key)
        return node


def read_yaml(path, what: str) -> dict:
    """The mapping in a YAML file; any read or parse failure, or a mapping
    that repeats a key, is a ConfigError."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_Loader)
    # RecursionError: nested too deep; ValueError: say, an int of over 4300 digits
    except (OSError, UnicodeDecodeError, yaml.YAMLError, RecursionError, ValueError) as exc:
        raise ConfigError(f"{what} not found or unreadable: {path}: {exc}") from exc
    if data is not None and not isinstance(data, dict):  # None: an empty file
        raise ConfigError(f"{path}: {what} must be a YAML mapping")
    return data or {}


@dataclass
class RunConfig:
    seed: int = 0
    features: FeatureConfig = field(default_factory=FeatureConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)

    def __post_init__(self):
        if self.seed < 0:  # numpy seeds take no negative value
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, data: dict, seed_override: int | None = None) -> "RunConfig":
        """The run config in data; an echo's "run" key (its provenance) is ignored."""
        config = from_mapping(cls, {k: v for k, v in data.items() if k != "run"}, "config")
        return config if seed_override is None else replace(config, seed=seed_override)

    def to_dict(self) -> dict:
        return asdict(self)

    def echo(self, path, extra: dict | None = None) -> None:
        payload = self.to_dict()
        if extra:
            payload["run"] = extra
        write_yaml(path, payload)
