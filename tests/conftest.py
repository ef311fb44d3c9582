import numpy as np
import pytest
from hypothesis import strategies as st

from ofdmjscc.model import ModelConfig
from ofdmjscc.ofdm import OfdmConfig


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def toy_ofdm():
    """Small grid that still exercises CP > channel memory."""
    return OfdmConfig(l_fft=16, l_cp=12, n_p=2, n_s=4)


def tiny_model_cfg(variant: str) -> ModelConfig:
    return ModelConfig(variant=variant, image_h=8, image_w=8, image_c=1,
                       width1=4, width2=6, subnet_hidden=4, head_hidden=8, front_hidden=8,
                       ofdm=OfdmConfig(l_fft=8, l_cp=4, n_p=2, n_s=2))


@st.composite
def ofdm_geometry(draw):
    """A random frame (l_fft 2-64, l_cp < l_fft, n_p/n_s >= 1), a batch size
    in 1-4 and a seed."""
    l_fft = draw(st.integers(2, 64))
    cfg = OfdmConfig(l_fft=l_fft, l_cp=draw(st.integers(0, l_fft - 1)),
                     n_p=draw(st.integers(1, 3)), n_s=draw(st.integers(1, 4)),
                     pilot_seed=draw(st.integers(0, 99)))
    return cfg, draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 32 - 1))
