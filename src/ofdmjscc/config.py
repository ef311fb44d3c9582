"""Every setting, declared, typed and checked once; imports no other module of the package.

``OfdmConfig``, ``ModelConfig``, ``TrainConfig`` check types and ranges when built; the flat
``ExperimentConfig`` holds all their fields and the data ones. Unknown keys are rejected, flags
override file values, and ``none`` / ``inf`` are accepted where the type allows. ``rng_stream``
splits the experiment seed into the package's random streams.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields, make_dataclass
from typing import get_args, get_type_hints

import numpy as np

VARIANTS = ("direct", "implicit", "explicit")
SNR_DB_FLOOR = -10.0 * math.log10(sys.float_info.max)  # at or below: the noise variance overflows
CLIP_RATIO_MIN = math.sqrt(sys.float_info.min)          # below: its square is not a normal float


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """The independent generator of stream ``key`` under ``seed``. Every source of
    randomness is one of these streams:

    * ``(1,)``       model parameter initialization (``build_model``)
    * ``(2,)``       the training stream: epoch shuffles, per-batch SNR draws,
                     channel taps and noise, in that order
    * ``(3, i, r)``  evaluation of image ``i``, realization ``r``
    * ``(4,)``       ``chain-demo``'s packet, channel and noise
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@functools.cache
def field_types(cls) -> dict[str, tuple]:
    """Each field of dataclass ``cls`` and the types its annotation allows: ``X | None``
    allows None, a float field also takes an int, and a bool is never a number."""
    hints = {name: get_args(tp) or (tp,) for name, tp in get_type_hints(cls).items()}
    return {name: tps + (int,) if float in tps else tps for name, tps in hints.items()}


def check_field_types(cfg) -> None:
    """Raise ``ValueError`` for a dataclass field of a type its annotation does not allow."""
    for name, types in field_types(type(cfg)).items():
        if type(v := getattr(cfg, name)) not in types:
            raise ValueError(f"{name} must be {'|'.join(t.__name__ for t in types)}, got {v!r}")


@dataclass(frozen=True)
class OfdmConfig:
    """Static dimensions of the OFDM frame."""

    l_fft: int = 64
    l_cp: int = 16
    n_p: int = 2
    n_s: int = 6
    pilot_seed: int = 7

    def __post_init__(self):
        check_field_types(self)
        if self.l_fft < 2:
            raise ValueError(f"l_fft must be >= 2, got {self.l_fft}")
        if not 0 <= self.l_cp < self.l_fft:
            raise ValueError(f"l_cp must be in [0, l_fft), got {self.l_cp}")
        if self.n_p < 1 or self.n_s < 1:
            raise ValueError("need at least one pilot and one data symbol")
        if self.pilot_seed < 0:
            raise ValueError(f"pilot_seed must be >= 0, got {self.pilot_seed}")

    @property
    def rows(self) -> int:
        return self.n_p + self.n_s

    @property
    def symbol_len(self) -> int:
        return self.l_fft + self.l_cp

    @property
    def packet_len(self) -> int:
        return self.rows * self.symbol_len


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "explicit"
    image_h: int = 32
    image_w: int = 32
    image_c: int = 3
    width1: int = 32
    width2: int = 64
    subnet_hidden: int = 8
    head_hidden: int = 256
    front_hidden: int = 32
    ofdm: OfdmConfig = field(default_factory=OfdmConfig)

    def __post_init__(self):
        check_field_types(self)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.image_h % 4 or self.image_w % 4:
            raise ValueError("image_h and image_w must be multiples of 4 "
                             "(two stride-2 stages)")
        if self.image_c not in (1, 3):
            raise ValueError(f"image_c must be 1 or 3, got {self.image_c}")
        for name in ("width1", "width2", "subnet_hidden", "head_hidden", "front_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 16
    lr: float = 1e-3
    lr_decay_start: int = 20
    snr_db: float = 10.0
    snr_db_min: float | None = None   # set both min/max for uniform-random SNR
    snr_db_max: float | None = None
    clip_ratio: float = math.inf
    n_taps: int = 8
    gamma: float = 4.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be in (0, inf), got {self.lr}")
        if not 0 <= self.lr_decay_start <= self.epochs:
            raise ValueError("lr_decay_start must be in [0, epochs]")
        if (self.snr_db_min is None) != (self.snr_db_max is None):
            raise ValueError("set both snr_db_min and snr_db_max or neither")
        if self.random_snr and not -math.inf < self.snr_db_min <= self.snr_db_max < math.inf:
            raise ValueError(f"need finite snr_db_min <= snr_db_max, got "
                             f"{self.snr_db_min}, {self.snr_db_max}")
        for name in ("snr_db", "snr_db_min"):      # also rejects nan; +inf: noiseless
            if (v := getattr(self, name)) is not None and not v > SNR_DB_FLOOR:
                raise ValueError(f"{name} must be > -inf, and > {SNR_DB_FLOOR!r} so that "
                                 f"the noise variance is finite, got {v}")
        if not self.clip_ratio >= CLIP_RATIO_MIN:   # inf: no clipping
            raise ValueError(f"clip_ratio must be > 0, and >= {CLIP_RATIO_MIN!r} so that "
                             f"its square is a normal float, got {self.clip_ratio}")
        if not self.gamma > 0:              # inf: a flat power profile
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.n_taps < 1:
            raise ValueError(f"n_taps must be >= 1, got {self.n_taps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def random_snr(self) -> bool:
        return self.snr_db_min is not None


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
        if self.n_taps > self.l_fft:     # > l_cp + 1 is allowed: the ISI regime
            raise ValueError(f"n_taps must be <= l_fft={self.l_fft}, got {self.n_taps}")

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
