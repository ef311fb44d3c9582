"""Flat ``key=value`` experiment configuration.

One config drives dataset generation, model construction, training and
default evaluation. Unknown keys are rejected; command-line flags override
file values. ``none`` / ``inf`` are accepted where the type allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, make_dataclass
from typing import get_type_hints

from .model import ModelConfig
from .ofdm import OfdmConfig, check_field_types, field_types
from .training import TrainConfig

_SubConfigFields = make_dataclass(
    "_SubConfigFields",
    [(f.name, get_type_hints(cls)[f.name], field(default=f.default))
     for cls in (ModelConfig, OfdmConfig, TrainConfig) for f in fields(cls) if f.name != "ofdm"],
    frozen=True)


@dataclass(frozen=True)
class ExperimentConfig(_SubConfigFields):
    """Every field of ModelConfig (but ``ofdm``), OfdmConfig and TrainConfig as its class
    declares it, then the data set and evaluation fields. A built config has passed every
    type and range check: its own and those of the sub-configs it builds."""

    train_images: int = 200
    test_images: int = 50
    dataset_seed: int = 1234
    realizations: int = 5

    def __post_init__(self):
        check_field_types(self)
        for name in ("train_images", "test_images", "realizations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dataset_seed < 0:
            raise ValueError(f"dataset_seed must be >= 0, got {self.dataset_seed}")
        self.model_config(), self.train_config()     # each checks its own ranges

    def _fields_of(self, cls, skip: tuple = ()) -> dict:
        """This config's values for the fields of dataclass ``cls``."""
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in skip}

    def model_config(self) -> ModelConfig:
        return ModelConfig(ofdm=OfdmConfig(**self._fields_of(OfdmConfig)),
                           **self._fields_of(ModelConfig, skip=("ofdm",)))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._fields_of(TrainConfig))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


FIELD_TYPES = field_types(ExperimentConfig)


def _coerce(key: str, raw: str):
    raw, types = raw.strip(), FIELD_TYPES[key]
    if type(None) in types and raw.lower() in ("none", ""):
        return None
    if float in types:
        v = float(raw)  # accepts "inf"
        if math.isnan(v):
            raise ValueError(f"{key}: nan is not a valid value")
        return v
    return int(raw) if int in types else raw


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key=value`` lines ('#' comments allowed) into typed overrides.

    A key given twice raises, naming both lines."""
    out, line_of = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ValueError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in line_of:
            raise ValueError(f"{source}:{lineno}: {key!r} repeats line {line_of[key]}")
        line_of[key] = lineno
        try:
            out[key] = _coerce(key, raw)
        except ValueError as e:
            raise ValueError(f"{source}:{lineno}: bad value for {key!r}: {e}") from None
    return out


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults <- config file <- overrides, in increasing precedence."""
    values: dict = {}
    if path is not None:
        with open(path) as f:
            values.update(parse_config_text(f.read(), source=str(path)))
    for k, v in (overrides or {}).items():
        if k not in FIELD_TYPES:
            raise ValueError(f"unknown config key {k!r}")
        if v is not None:
            values[k] = v
    return ExperimentConfig(**values)


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical echo of the resolved config (stable key order)."""
    return "".join(f"{k}={'none' if v is None else v}\n" for k, v in cfg.to_dict().items())
