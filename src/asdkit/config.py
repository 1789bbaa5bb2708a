"""Run configuration: one YAML file drives features, model, training, scoring.

Every command echoes its resolved configuration into its output directory, so
artifacts are self-describing and runs can be reproduced from the outputs
alone.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import yaml

from ._io import write_yaml
from .dsp import FeatureConfig
from .errors import ConfigError
from .model import TrainConfig, default_layer_dims
from .scoring import MODES

MODE_ALIASES = {"mse": "mse", "mahala": "mahalanobis", "mahalanobis": "mahalanobis"}


def _defaults(cls) -> dict:
    """Config keys of a dataclass and their defaults."""
    return {f.name: f.default_factory() if f.default is MISSING else f.default
            for f in fields(cls)}


# YAML section -> its keys, in echo order; model and scoring keys are RunConfig fields
_SECTIONS = {"features": tuple(_defaults(FeatureConfig)), "model": ("layer_dims",),
             "train": tuple(_defaults(TrainConfig)), "scoring": ("mode",)}


def _checked(name: str, value, default):
    """value if it has the type of default, else ConfigError naming the key.

    Ints reject bools. Floats must be finite and also accept ints and numeric
    strings, because YAML reads 1e-3 (no dot) as a string. A dataclass default
    takes a mapping (see from_mapping). A list default takes a list or tuple
    whose items are typed like its first item.
    """
    kind = type(default)
    if is_dataclass(default):
        return from_mapping(kind, value, name)
    if kind is list and type(value) in (list, tuple):
        return [_checked(f"{name}[{i}]", item, default[0]) for i, item in enumerate(value)]
    if kind is float and type(value) in (int, str):
        try:
            value = float(value)
        except (ValueError, OverflowError):
            pass
    if type(value) is kind and (kind is not float or -math.inf < value < math.inf):
        return value
    raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")


def from_mapping(cls, data, name: str):
    """Dataclass cls from a mapping: unknown keys are rejected, values checked as name.key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name!r} must be a mapping, got {data!r}")
    defaults = _defaults(cls)
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return cls(**{key: _checked(f"{name}.{key}", value, defaults[key])
                  for key, value in data.items()})


def read_yaml(path, what: str) -> dict:
    """The mapping in a YAML file; any read or parse failure is a ConfigError."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{what} not found or unreadable: {path}: {exc}") from exc
    if data is not None and not isinstance(data, dict):  # None: an empty file
        raise ConfigError(f"{path}: {what} must be a YAML mapping")
    return data or {}


def _section(data: dict, name: str) -> dict:
    raw = data.get(name) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be a mapping, got {raw!r}")
    bad = set(raw) - set(_SECTIONS[name])
    if bad:
        raise ConfigError(f"unknown {name} keys: {sorted(bad)}")
    return raw


@dataclass
class RunConfig:
    features: FeatureConfig = field(default_factory=FeatureConfig)
    layer_dims: list[int] | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    mode: str = "mse"
    seed: int = 0

    def __post_init__(self):
        d = self.features.feature_dim
        self.layer_dims = list(default_layer_dims(d) if self.layer_dims is None
                               else self.layer_dims)
        self.mode = normalize_mode(self.mode)
        if self.seed < 0:  # numpy seeds take no negative value
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(self.layer_dims) < 2 or self.layer_dims[0] != d or self.layer_dims[-1] != d:
            raise ConfigError(
                f"model layer_dims {self.layer_dims} must start and end with "
                f"context_frames * n_mels = {d}")

    @classmethod
    def from_dict(cls, data: dict, seed_override: int | None = None) -> "RunConfig":
        data = dict(data or {})
        # "run" is provenance metadata written by the config echo; ignore it
        unknown = set(data) - {*_SECTIONS, "seed", "run"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        seed = _checked("seed", data.get("seed", 0), 0)
        if seed_override is not None:
            seed = seed_override
        layer_dims = _section(data, "model").get("layer_dims")
        if layer_dims is not None:
            layer_dims = _checked("model.layer_dims", layer_dims, [0])
        train = from_mapping(TrainConfig, _section(data, "train"), "train")
        features = from_mapping(FeatureConfig, _section(data, "features"), "features")
        scoring = {key: _checked(f"scoring.{key}", value, getattr(cls, key))
                   for key, value in _section(data, "scoring").items()}
        return cls(features=features, layer_dims=layer_dims, train=train, seed=seed, **scoring)

    def to_dict(self) -> dict:
        owners = {"features": self.features, "model": self, "train": self.train,
                  "scoring": self}
        return {"seed": self.seed,
                **{name: {key: getattr(owners[name], key) for key in keys}
                   for name, keys in _SECTIONS.items()}}

    def echo(self, path, extra: dict | None = None) -> None:
        payload = self.to_dict()
        if extra:
            payload["run"] = extra
        write_yaml(path, payload)


def normalize_mode(mode: str) -> str:
    resolved = MODE_ALIASES.get(mode)
    if resolved is None or resolved not in MODES:
        raise ConfigError(f"unknown scoring mode {mode!r}; expected one of "
                          f"{sorted(MODE_ALIASES)}")
    return resolved
