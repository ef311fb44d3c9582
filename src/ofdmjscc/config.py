"""Flat ``key=value`` experiment configuration.

One config drives dataset generation, model construction, training and
default evaluation. Unknown keys are rejected; command-line flags override
file values. ``none`` / ``inf`` are accepted where the type allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model import ModelConfig
from .ofdm import OfdmConfig
from .training import TrainConfig


@dataclass(frozen=True)
class ExperimentConfig:
    # model / chain
    variant: str = "explicit"
    image_h: int = 32
    image_w: int = 32
    image_c: int = 3
    width1: int = 32
    width2: int = 64
    subnet_hidden: int = 8
    head_hidden: int = 256
    front_hidden: int = 32
    l_fft: int = 64
    l_cp: int = 16
    n_p: int = 2
    n_s: int = 6
    pilot_seed: int = 7
    # channel
    n_taps: int = 8
    gamma: float = 4.0
    snr_db: float = 10.0
    snr_db_min: float | None = None
    snr_db_max: float | None = None
    clip_ratio: float = math.inf
    # data
    train_images: int = 200
    test_images: int = 50
    dataset_seed: int = 1234
    # optimization
    epochs: int = 40
    batch_size: int = 16
    lr: float = 1e-3
    lr_decay_start: int = 20
    realizations: int = 5
    seed: int = 0

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


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_OPTIONAL_FLOATS = {"snr_db_min", "snr_db_max"}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key in _OPTIONAL_FLOATS and raw.lower() in ("none", ""):
        return None
    default = _FIELDS[key].default
    if key in _OPTIONAL_FLOATS or isinstance(default, float):
        v = float(raw)  # accepts "inf"
        if math.isnan(v):
            raise ValueError(f"{key}: nan is not a valid value")
        return v
    if isinstance(default, int):
        return int(raw)
    return raw


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key=value`` lines ('#' comments allowed) into typed overrides."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"{source}:{lineno}: unknown config key {key!r}")
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
        if v is None:
            continue
        if k not in _FIELDS:
            raise ValueError(f"unknown config key {k!r}")
        values[k] = v
    return ExperimentConfig(**values)


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical echo of the resolved config (stable key order)."""
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if v is None:
            v = "none"
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"
