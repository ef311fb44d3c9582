import json
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

import ofdmjscc.autodiff as ad
from ofdmjscc import cplx
from ofdmjscc.config import (CLIP_RATIO_MIN, FIELD_TYPES, SNR_DB_FLOOR, VARIANTS,
                             ExperimentConfig)
from ofdmjscc.gradcheck import tiny_model_config
from ofdmjscc.ofdm import OfdmConfig

tiny_model_cfg = tiny_model_config   # the transceiver of the gradcheck chain checks


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def toy_ofdm():
    """Small grid that still exercises CP > channel memory."""
    return OfdmConfig(l_fft=16, l_cp=12, n_p=2, n_s=4)


def cnode(z):
    """A complex array as a CplxNode over two fresh leaves."""
    return cplx.CplxNode(ad.leaf(z.real.copy()), ad.leaf(z.imag.copy()))


def rand_cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def ofdm_geometry(draw):
    """A random frame (l_fft 2-64, l_cp < l_fft, n_p/n_s >= 1), a batch size
    in 1-4 and a seed."""
    l_fft = draw(st.integers(2, 64))
    cfg = OfdmConfig(l_fft=l_fft, l_cp=draw(st.integers(0, l_fft - 1)),
                     n_p=draw(st.integers(1, 3)), n_s=draw(st.integers(1, 4)),
                     pilot_seed=draw(st.integers(0, 99)))
    return cfg, draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 32 - 1))


@st.composite
def valid_configs(draw, **narrow):
    """An ExperimentConfig with every field drawn by its annotated type (floats
    include +-inf, optional floats None), then the fields with a narrower valid
    range redrawn into it, so the built config passes every range check.

    ``narrow`` maps a field to a strategy of valid values to draw it from
    instead; ``l_cp``, ``n_taps`` and ``lr_decay_start`` are then drawn within
    the bounds the fields they depend on set."""
    values = {}
    for name, types in FIELD_TYPES.items():
        if float in types:
            kind = st.floats(allow_nan=False)
            values[name] = draw(st.none() | kind if type(None) in types else kind)
        elif int in types:
            values[name] = draw(st.integers(1, 2 ** 40))
        else:
            values[name] = draw(st.sampled_from(VARIANTS))
    values["l_fft"] = draw(st.integers(2, 2 ** 40))
    values["lr"] = draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
    values["gamma"] = draw(st.floats(0.0, exclude_min=True))          # > 0, inf allowed
    values["clip_ratio"] = draw(st.floats(CLIP_RATIO_MIN))            # inf: no clipping
    values["snr_db"] = draw(st.floats(SNR_DB_FLOOR, exclude_min=True))   # +inf: noiseless
    pair = draw(st.none() | st.lists(st.floats(SNR_DB_FLOOR, exclude_min=True,
                                               allow_infinity=False), min_size=2, max_size=2))
    values["snr_db_min"], values["snr_db_max"] = (None, None) if pair is None else sorted(pair)
    values.update(image_h=4 * draw(st.integers(1, 64)), image_w=4 * draw(st.integers(1, 64)),
                  image_c=draw(st.sampled_from([1, 3])))
    values.update({name: draw(strategy) for name, strategy in narrow.items()})
    values.update(
        l_cp=draw(st.integers(0, values["l_fft"] - 1)),
        n_taps=draw(st.integers(1, values["l_fft"])),
        lr_decay_start=draw(st.integers(0, values["epochs"])))
    return ExperimentConfig(**values)


def rewrite_meta(path, edit):
    """Apply ``edit`` to a checkpoint's JSON metadata section in place (the
    section after the 5-byte magic and the 4-byte version)."""
    raw = bytearray(path.read_bytes())
    meta_len = struct.unpack_from("<Q", raw, 9)[0]
    meta = json.loads(bytes(raw[17:17 + meta_len]))
    edit(meta)
    new_meta = json.dumps(meta, sort_keys=True).encode()
    struct.pack_into("<Q", raw, 9, len(new_meta))
    raw[17:17 + meta_len] = new_meta
    path.write_bytes(bytes(raw))
