"""Bitwise equivalences of the transceiver on random tiny geometries.

Each draw is a valid ``ExperimentConfig`` narrowed to tiny sizes: all three
variants, ``width1`` on both sides of conv2d's kn2row rule for the decoder's
output conv (kn2row when ``9 * image_c <= width1``), image sides of 4, 8 or
12, channels longer than the cyclic prefix and clipping on and off. Every
property compares bytes, not values within a tolerance.
"""

import math
from contextlib import contextmanager

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import ofdmjscc.autodiff as ad
from ofdmjscc.channel import awgn, sample_channel, snr_to_sigma_sq
from ofdmjscc.model import build_model
from ofdmjscc.training import evaluate, mse_loss
from conftest import valid_configs

SIDES = st.sampled_from([4, 8, 12])
TINY = valid_configs(
    image_h=SIDES, image_w=SIDES,
    width1=st.integers(1, 12) | st.sampled_from([26, 27]),
    width2=st.integers(1, 6), subnet_hidden=st.integers(1, 4), head_hidden=st.integers(1, 8),
    front_hidden=st.integers(1, 8), l_fft=st.integers(2, 12), n_p=st.integers(1, 2),
    n_s=st.integers(1, 3), realizations=st.integers(1, 3),
    # a clip ratio near 0 clips every packet to zero power and a very low SNR
    # overflows the noise variance; both are valid configs (CHANGES.md, FOUND)
    clip_ratio=st.floats(0.5, 3.0) | st.just(math.inf),
    snr_db=st.floats(-10.0, 40.0) | st.just(math.inf))
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@contextmanager
def _live_encoder():
    """Rejects the draw if its encoder is dead: an all-zero grid has no power to
    normalize, so every path raises alike."""
    try:
        yield
    except ValueError as e:
        if "all-zero signal" not in str(e):
            raise
        reject()


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _inputs(cfg, batch: int, rx_len: int):
    """Images, taps, noise power and noise for one batch of ``cfg``'s chain."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.random((batch, cfg.image_h, cfg.image_w, cfg.image_c))
    taps = sample_channel(rng, cfg.n_taps, cfg.gamma, batch=batch)
    sigma_sq = snr_to_sigma_sq(cfg.snr_db)
    noise = awgn(rng, (batch, rx_len), sigma_sq) if sigma_sq > 0.0 else None
    return x, taps, sigma_sq, noise


def _models(cfg, n: int) -> list:
    return [build_model(cfg.model_config(), seed=cfg.seed) for _ in range(n)]


def _batch(train: bool):
    # train-mode BatchNorm needs two samples per channel, and a 4x4 image is 1x1 at the
    # encoder's second stage
    return st.integers(2 if train else 1, 3)


@PROPERTY
@given(data=st.data(), cfg=TINY, train=st.booleans())
def test_forward_is_transmit_then_receive(data, cfg, train):
    whole, split = _models(cfg, 2)
    x, taps, sigma_sq, noise = _inputs(cfg, data.draw(_batch(train)), whole.rx_len)
    with _live_encoder():
        recon, pkt = whole.forward(x, taps, sigma_sq, cfg.clip_ratio, train=train, noise=noise)
    pkt_s = split.transmit(x, cfg.clip_ratio, train=train)
    recon_s = split.receive(pkt_s.tx, taps, sigma_sq, train=train, noise=noise)
    assert _bits(recon.value) == _bits(recon_s.value)
    for a, b in ((pkt.tx, pkt_s.tx), (pkt.preclip, pkt_s.preclip)):
        assert _bits(a.z.value) == _bits(b.z.value)
    assert _bits(pkt.gain) == _bits(pkt_s.gain)
    for (name, a), (_, b) in zip(whole.buffers(), split.buffers()):
        assert _bits(a) == _bits(b), name
    if train:
        g, g_s = (ad.backward(mse_loss(r, x)) for r in (recon, recon_s))
        for (name, p), (_, p_s) in zip(whole.params(), split.params()):
            assert _bits(g[p]) == _bits(g_s[p_s]), name


@PROPERTY
@given(data=st.data(), cfg=TINY, train=st.booleans())
def test_no_grad_forward_is_the_graph_forward(data, cfg, train):
    graph, free = _models(cfg, 2)
    x, taps, sigma_sq, noise = _inputs(cfg, data.draw(_batch(train)), graph.rx_len)
    with _live_encoder():
        recon = graph.forward(x, taps, sigma_sq, cfg.clip_ratio, train=train, noise=noise)[0]
    with ad.no_grad():
        recon_free = free.forward(x, taps, sigma_sq, cfg.clip_ratio, train=train,
                                  noise=noise)[0]
    assert _bits(recon.value) == _bits(recon_free.value)
    for (name, a), (_, b) in zip(graph.buffers(), free.buffers()):
        assert _bits(a) == _bits(b), name


@PROPERTY
@given(cfg=TINY, n_images=st.integers(1, 20))
def test_evaluate_does_not_depend_on_workers(cfg, n_images):
    # up to 20 images x 3 realizations: up to two image chunks and four receive passes
    model, = _models(cfg, 1)
    images = np.random.default_rng(cfg.seed).random(
        (n_images, cfg.image_h, cfg.image_w, cfg.image_c))
    with _live_encoder():
        serial, threaded = (
            evaluate(model, images, snr_db=cfg.snr_db, clip_ratio=cfg.clip_ratio,
                     n_taps=cfg.n_taps, gamma=cfg.gamma, realizations=cfg.realizations,
                     seed=cfg.seed, workers=w) for w in (1, 2))
    for field in ("psnr_db", "ssim", "papr_p99_db", "per_image_psnr_db"):
        assert _bits(getattr(serial, field)) == _bits(getattr(threaded, field)), field
