"""Run configuration: one YAML file drives features, model, training, scoring.

Every command echoes its resolved configuration into its output directory, so
artifacts are self-describing and runs can be reproduced from the outputs
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import yaml

from ._io import write_yaml
from .dsp import FeatureConfig
from .errors import ConfigError
from .model import TrainConfig, default_layer_dims
from .scoring import DEFAULT_PERCENTILE, DEFAULT_RIDGE, MODES

MODE_ALIASES = {"mse": "mse", "mahala": "mahalanobis", "mahalanobis": "mahalanobis"}


def _keys(cls) -> tuple[str, ...]:
    """Config keys of a dataclass: its fields, minus private ones like _mel_fb."""
    return tuple(f.name for f in fields(cls) if not f.name.startswith("_"))


# YAML section -> its keys, in echo order; model and scoring keys are RunConfig fields
_SECTIONS = {"features": _keys(FeatureConfig), "model": ("layer_dims",),
             "train": _keys(TrainConfig),
             "scoring": ("mode", "ridge", "threshold_percentile")}


def _checked(name: str, value, default):
    """value if it has the type of default, else ConfigError naming the key.

    Ints reject bools. Floats must be finite and also accept ints and numeric
    strings, because YAML reads 1e-3 (no dot) as a string.
    """
    kind = type(default)
    if kind is float and type(value) in (int, str):
        try:
            value = float(value)
        except (ValueError, OverflowError):
            pass
    if type(value) is kind and (kind is not float or -math.inf < value < math.inf):
        return value
    raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")


def _section(data: dict, name: str) -> dict:
    raw = data.get(name) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be a mapping, got {raw!r}")
    bad = set(raw) - set(_SECTIONS[name])
    if bad:
        raise ConfigError(f"unknown {name} keys: {sorted(bad)}")
    return raw


def _typed_section(data: dict, name: str, cls) -> dict:
    """The section's values, each checked against its field default in cls."""
    defaults = {f.name: f.default for f in fields(cls)}
    return {key: _checked(f"{name}.{key}", value, defaults[key])
            for key, value in _section(data, name).items()}


@dataclass
class RunConfig:
    features: FeatureConfig = field(default_factory=FeatureConfig)
    layer_dims: list[int] | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    mode: str = "mse"
    ridge: float = DEFAULT_RIDGE
    threshold_percentile: float = DEFAULT_PERCENTILE
    seed: int = 0

    def __post_init__(self):
        d = self.features.feature_dim
        self.layer_dims = list(default_layer_dims(d) if self.layer_dims is None
                               else self.layer_dims)
        self.mode = normalize_mode(self.mode)
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
            if not isinstance(layer_dims, list):
                raise ConfigError(f"model.layer_dims: expected a list, got {layer_dims!r}")
            layer_dims = [_checked(f"model.layer_dims[{i}]", d, 0)
                          for i, d in enumerate(layer_dims)]
        # shuffle stream follows the master seed unless pinned explicitly
        train = {"seed": seed + 1, **_typed_section(data, "train", TrainConfig)}
        return cls(features=FeatureConfig(**_typed_section(data, "features", FeatureConfig)),
                   layer_dims=layer_dims, train=TrainConfig(**train), seed=seed,
                   **_typed_section(data, "scoring", cls))

    @classmethod
    def from_yaml(cls, path, seed_override: int | None = None) -> "RunConfig":
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a YAML mapping")
        return cls.from_dict(data, seed_override=seed_override)

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
