"""Run configuration: one YAML file drives features, training and scoring.

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
from .model import TrainConfig
from .scoring import MODES

MODE_ALIASES = {"mse": "mse", "mahala": "mahalanobis", "mahalanobis": "mahalanobis"}


def _defaults(cls) -> dict:
    """Config keys of a dataclass and their defaults."""
    return {f.name: f.default_factory() if f.default is MISSING else f.default
            for f in fields(cls)}


# YAML section -> its keys, in echo order; scoring keys are RunConfig fields
_SECTIONS = {"features": tuple(_defaults(FeatureConfig)),
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


def unknown_keys(data: dict) -> list[str]:
    """Dotted names of the keys no section has ("run" is the echo's provenance)."""
    unknown = []
    for name, raw in data.items():
        if name in ("seed", "run"):
            continue
        known = _SECTIONS.get(name, ())
        if isinstance(raw, dict) and (raw or known):
            unknown += [f"{name}.{key}" for key in raw if key not in known]
        elif not known:
            unknown.append(name)
    return sorted(unknown)


def _section(data: dict, name: str) -> dict:
    raw = data.get(name) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be a mapping, got {raw!r}")
    return raw


@dataclass
class RunConfig:
    features: FeatureConfig = field(default_factory=FeatureConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    mode: str = "mse"
    seed: int = 0

    def __post_init__(self):
        self.mode = normalize_mode(self.mode)
        if self.seed < 0:  # numpy seeds take no negative value
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, data: dict, seed_override: int | None = None) -> "RunConfig":
        data = dict(data or {})
        unknown = unknown_keys(data)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        seed = _checked("seed", data.get("seed", 0), 0)
        if seed_override is not None:
            seed = seed_override
        train = from_mapping(TrainConfig, _section(data, "train"), "train")
        features = from_mapping(FeatureConfig, _section(data, "features"), "features")
        scoring = {key: _checked(f"scoring.{key}", value, getattr(cls, key))
                   for key, value in _section(data, "scoring").items()}
        return cls(features=features, train=train, seed=seed, **scoring)

    def to_dict(self) -> dict:
        owners = {"features": self.features, "train": self.train, "scoring": self}
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
