"""Layers and the three transceiver variants: values against numpy references,
statistics in train/eval mode, parameter budgets and initialization contracts."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ofdmjscc.autodiff as ad
from ofdmjscc.channel import awgn
from ofdmjscc.model import ModelConfig, build_model
from ofdmjscc.nn import BatchNorm, Conv2d, Dense, Module
from ofdmjscc.ofdm import OfdmConfig
from ofdmjscc.receiver import equalize_mmse, estimate_channel_mmse
from conftest import tiny_model_cfg


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def test_dense_forward(rng):
    layer = Dense(5, 3, np.random.default_rng(0))
    x = rng.standard_normal((4, 5))
    got = layer(ad.leaf(x)).value
    assert np.allclose(got, x @ layer.w.value + layer.b.value, atol=1e-14)


def test_conv_bias_flag():
    with_bias = Conv2d(3, 3, 2, 4, np.random.default_rng(0))
    without = Conv2d(3, 3, 2, 4, np.random.default_rng(0), bias=False)
    assert len(with_bias.params()) == 2
    assert len(without.params()) == 1


def test_batchnorm_train_statistics(rng):
    bn = BatchNorm(3)
    x = 2.0 + 1.5 * rng.standard_normal((64, 4, 4, 3))
    out = bn(ad.leaf(x), train=True).value
    assert np.allclose(out.mean(axis=(0, 1, 2)), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=(0, 1, 2)), 1.0, atol=1e-3)  # eps skews slightly

    # independent reference with biased batch moments
    mu = x.mean(axis=(0, 1, 2))
    var = x.var(axis=(0, 1, 2))
    ref = (x - mu) / np.sqrt(var + ad.BN_EPS)
    assert np.allclose(out, ref, atol=1e-12)


def test_batchnorm_running_buffer_update(rng):
    bn = BatchNorm(2)
    x = rng.standard_normal((32, 2)) + 5.0
    bn(ad.leaf(x), train=True)
    mu, var = x.mean(axis=0), x.var(axis=0)
    assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * mu, atol=1e-14)
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * var, atol=1e-14)


def test_batchnorm_eval_idempotent_and_buffer_based(rng):
    bn = BatchNorm(2)
    for _ in range(5):
        bn(ad.leaf(rng.standard_normal((16, 2)) + 3.0), train=True)
    x = rng.standard_normal((4, 2))
    a = bn(ad.leaf(x), train=False).value
    b = bn(ad.leaf(x), train=False).value
    assert np.array_equal(a, b)
    ref = (x - bn.running_mean) / np.sqrt(bn.running_var + ad.BN_EPS)
    assert np.allclose(a, ref, atol=1e-13)


def test_batchnorm_single_sample_train_rejected():
    bn = BatchNorm(2)
    with pytest.raises(ValueError):
        bn(ad.leaf(np.zeros((1, 2))), train=True)


def test_batchnorm_zero_gamma_outputs_zero(rng):
    bn = BatchNorm(3, gamma_init=0.0)
    out = bn(ad.leaf(rng.standard_normal((8, 3))), train=True).value
    assert np.array_equal(out, np.zeros_like(out))


def test_batch_norm_rejects_bad_parameter_shapes():
    x = ad.leaf(np.zeros((4, 3)))
    three, two = ad.leaf(np.ones(3)), ad.leaf(np.ones(2))
    for gamma, beta in ((two, three), (three, two), (ad.leaf(np.ones((1, 3))), three)):
        with pytest.raises(ValueError, match="per-channel"):
            ad.batch_norm(x, gamma, beta)
    with pytest.raises(ValueError, match="per-channel"):
        ad.batch_norm(x, three, three, (np.zeros(3), np.ones(2)))
    with pytest.raises(ValueError, match=">= 2 samples"):
        ad.batch_norm(ad.leaf(np.zeros((1, 3))), three, three)


def _scale_channels(x, s):
    """``x * s`` with ``s`` of shape (C,) along the last axis: s tiled to x."""
    t = ad.reshape(s, (1,) * (x.value.ndim - 1) + s.value.shape)
    for axis, size in enumerate(x.value.shape[:-1]):
        t = ad.tile(t, axis, size)
    return ad.mul(x, t)


def _batch_norm_reference(x, gamma, beta, stats):
    """The composite of elementwise engine ops that ``batch_norm`` fuses."""
    red = tuple(range(x.value.ndim - 1))
    if stats is None:
        n = x.value.size // x.value.shape[-1]
        mean = ad.mul_const(ad.sum_axes(x, red), 1.0 / n)
        xc = ad.bias_last(x, ad.mul_const(mean, -1.0))
        var = ad.mul_const(ad.sum_axes(ad.mul(xc, xc), red), 1.0 / n)
        inv = ad.recip(ad.sqrt(ad.add_const(var, ad.BN_EPS)))
    else:
        xc = ad.bias_last(x, ad.constant(-stats[0]))
        inv = ad.constant(1.0 / np.sqrt(stats[1] + ad.BN_EPS))
    return ad.bias_last(_scale_channels(xc, ad.mul(gamma, inv)), beta), xc.value, inv.value


@settings(max_examples=80, deadline=None)
@given(lead=st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(
           lambda s: math.prod(s) >= 2),
       channels=st.integers(1, 8), train=st.booleans(), zero_gamma=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_norm_matches_composite(lead, channels, train, zero_gamma, seed):
    r = np.random.default_rng(seed)
    shape = tuple(lead) + (channels,)
    x = r.uniform(-3, 3, channels) + 10.0 ** r.uniform(-3, 1, channels) * r.standard_normal(shape)
    gamma = np.zeros(channels) if zero_gamma else r.uniform(-2, 2, channels)
    beta = r.standard_normal(channels)
    stats = None if train else (r.standard_normal(channels), r.uniform(0.1, 2.0, channels))
    g = r.standard_normal(shape)

    def run(op):
        leaves = [ad.leaf(v) for v in (x, gamma, beta)]
        out = op(*leaves, stats)
        grads = ad.backward(ad.sum_all(ad.mul(out[0], ad.constant(g))))
        return out, [grads[n] for n in leaves]

    (out, mean, var), got = run(ad.batch_norm)
    (ref, xc, inv), want = run(_batch_norm_reference)
    assert np.array_equal(out.value, ref.value)
    red = tuple(range(len(lead)))
    if train:
        assert np.array_equal(mean, np.sum(x, axis=red) * (1.0 / math.prod(lead)))
        assert np.array_equal(var, np.sum(xc * xc, axis=red) * (1.0 / math.prod(lead)))
    else:
        assert mean is stats[0] and var is stats[1]
    # relative to the size of the terms summed into each VJP, since cancelling
    # sums (sum(g * xc), the projection in dx) can be near zero
    scales = (np.abs(gamma * inv).max() * np.abs(g).max(),
              np.max(inv * np.sum(np.abs(g * xc), axis=red)),
              np.max(np.sum(np.abs(g), axis=red)))
    for a, b, scale in zip(got, want, scales):
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def test_build_model_deterministic():
    cfg = tiny_model_cfg("explicit")
    a = build_model(cfg, seed=5)
    b = build_model(cfg, seed=5)
    for (na, pa), (nb, pb) in zip(a.params(), b.params()):
        assert na == nb
        assert np.array_equal(pa.value, pb.value)
    c = build_model(cfg, seed=6)
    assert any(not np.array_equal(pa.value, pc.value)
               for (_, pa), (_, pc) in zip(a.params(), c.params()))


def test_param_names_unique():
    model = build_model(tiny_model_cfg("explicit"), seed=0)
    names = [n for n, _ in model.params()]
    assert len(names) == len(set(names))
    assert model.n_params() == sum(p.value.size for _, p in model.params())


# (count, sha256 prefix of repr([(name, shape), ...])) of params(), then of
# buffers(): the checkpoint layout, which existing checkpoints depend on
_LAYOUT_SHA256 = {
    "direct": (34, "5fbc1db14ac9a853", 18, "54185e5f436e4047"),
    "implicit": (42, "4759f2dc09394ff6", 22, "46596f1f0cca8187"),
    "explicit": (46, "9df7651b646b6151", 26, "c8db03c148cf10de"),
}


@pytest.mark.parametrize("variant", ["direct", "implicit", "explicit"])
def test_checkpoint_layout_is_pinned(variant):
    # renaming, reordering or dropping an attribute changes the checkpoint layout
    model = build_model(tiny_model_cfg(variant), seed=0)
    got = []
    for entries in (model.params(), model.buffers()):
        layout = [(n, tuple(a.shape)) for n, a in entries]
        got += [len(layout), hashlib.sha256(repr(layout).encode()).hexdigest()[:16]]
    assert tuple(got) == _LAYOUT_SHA256[variant], (model.params(), model.buffers())


def test_module_params_are_attribute_paths_in_assignment_order():
    class Pair(Module):
        BUFFERS = ("stat",)

        def __init__(self):
            self.z = ad.leaf(np.zeros(2), op="param")
            self.stat = np.zeros(2)
            self.a = ad.leaf(np.ones(3), op="param")

    class Block(Module):
        def __init__(self):
            self.inner = Pair()

    class Tree(Module):
        def __init__(self):
            self.first = ad.leaf(np.zeros(1), op="param")
            self.skip_none = None
            self.pair = Pair()
            self.arr = np.zeros(4)
            self.count = 7
            self.const = ad.constant(np.zeros(5))
            self.block = Block()
            self.last = ad.leaf(np.zeros(6), op="param")

    tree = Tree()
    assert [n for n, _ in tree.params()] == [
        "first", "pair.z", "pair.a", "block.inner.z", "block.inner.a", "last"]
    assert tree.params()[3][1] is tree.block.inner.z
    assert [n for n, _ in tree.buffers()] == ["pair.stat", "block.inner.stat"]
    assert tree.n_params("block") == 5


def test_variants_share_codec_shapes():
    # encoder/decoder are identical across variants; the receivers differ —
    # a learned front-end for implicit, refinement subnets for explicit
    direct = build_model(tiny_model_cfg("direct"), seed=0)
    implicit = build_model(tiny_model_cfg("implicit"), seed=0)
    explicit = build_model(tiny_model_cfg("explicit"), seed=0)
    assert direct.n_params("enc") == implicit.n_params("enc") == explicit.n_params("enc")
    assert direct.n_params("dec") == implicit.n_params("dec") == explicit.n_params("dec")
    assert implicit.n_params("front") > 0
    assert direct.n_params("front") == explicit.n_params("front") == 0
    assert explicit.n_params("sub") > 0
    assert direct.n_params("sub") == implicit.n_params("sub") == 0


def test_subnets_are_within_one_percent_of_decoder():
    # refinement stages must stay negligible next to the decoder proper
    cfg = ModelConfig(variant="explicit", image_h=32, image_w=32, image_c=3,
                      width1=32, width2=64, subnet_hidden=8,
                      ofdm=OfdmConfig(l_fft=64, l_cp=16, n_p=2, n_s=6))
    model = build_model(cfg, seed=0)
    assert model.n_params("sub") <= 0.01 * model.n_params("dec"), (
        model.n_params("sub"), model.n_params("dec"))


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(variant="explicit", image_h=10, image_w=8, image_c=1,
                    ofdm=OfdmConfig(l_fft=8, l_cp=4, n_p=2, n_s=2))
    with pytest.raises(ValueError):
        ModelConfig(variant="nope", image_h=8, image_w=8, image_c=1,
                    ofdm=OfdmConfig(l_fft=8, l_cp=4, n_p=2, n_s=2))


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("name", ["width1", "width2", "subnet_hidden", "head_hidden",
                                  "front_hidden"])
def test_model_config_rejects_sizes_below_one(name, size):
    # a size below 1 must not build an empty layer or fail deep inside numpy
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        dataclasses.replace(tiny_model_cfg("explicit"), **{name: size})


# ---------------------------------------------------------------------------
# forward behaviour
# ---------------------------------------------------------------------------

def _run_forward(variant, rng, train=False, sigma_sq=0.1, clip_ratio=math.inf):
    cfg = tiny_model_cfg(variant)
    model = build_model(cfg, seed=1)
    x = rng.random((3, 8, 8, 1))
    taps = np.ones((3, 1), dtype=complex)
    noise = awgn(np.random.default_rng(0), (3, model.rx_len), sigma_sq)
    recon, pkt = model.forward(x, taps, sigma_sq, clip_ratio, train=train, noise=noise)
    return model, x, recon, pkt


@pytest.mark.parametrize("variant", ["direct", "implicit", "explicit"])
def test_forward_shapes_and_range(variant, rng):
    _, x, recon, pkt = _run_forward(variant, rng)
    assert recon.value.shape == x.shape
    assert np.all(recon.value > 0.0) and np.all(recon.value < 1.0)  # sigmoid output
    assert np.allclose(np.mean(np.abs(pkt.tx.value) ** 2, axis=1), 1.0, rtol=1e-12)


def test_direct_variant_skips_clipping(rng):
    _, _, _, pkt = _run_forward("direct", rng, clip_ratio=1.0)
    assert pkt.preclip is pkt.tx  # raw latent goes out unclipped


def test_explicit_clipping_respects_bound(rng):
    _, _, _, pkt = _run_forward("explicit", rng, clip_ratio=1.0)
    assert np.abs(pkt.tx.value).max() <= 1.0


def test_explicit_front_is_identity_at_init(rng):
    """Zero-initialized refinement stages: at init the explicit receiver is
    exactly the closed-form estimate + equalize, residuals contribute nothing."""
    cfg = tiny_model_cfg("explicit")
    model = build_model(cfg, seed=3)
    from ofdmjscc import cplx
    z_p = rng.standard_normal((2, cfg.ofdm.n_p, cfg.ofdm.l_fft)) \
        + 1j * rng.standard_normal((2, cfg.ofdm.n_p, cfg.ofdm.l_fft))
    z_d = rng.standard_normal((2, cfg.ofdm.n_s, cfg.ofdm.l_fft)) \
        + 1j * rng.standard_normal((2, cfg.ofdm.n_s, cfg.ofdm.l_fft))
    pilot_rx = cplx.const(z_p)
    data_rx = cplx.const(z_d)
    sigma_sq = 0.1

    h_ref, y_ref = model.explicit_front(pilot_rx, data_rx, sigma_sq, train=False)
    h_plain = estimate_channel_mmse(pilot_rx, model.pilots, sigma_sq)
    y_plain = equalize_mmse(data_rx, h_plain, sigma_sq)
    assert np.array_equal(h_ref.value, h_plain.value)
    assert np.array_equal(y_ref.value, y_plain.value)


def test_forward_requires_noise_source(rng):
    cfg = tiny_model_cfg("direct")
    model = build_model(cfg, seed=0)
    x = rng.random((2, 8, 8, 1))
    taps = np.ones((2, 1), dtype=complex)
    with pytest.raises(ValueError):
        model.forward(x, taps, sigma_sq=0.1)  # no noise


def test_forward_rejects_noise_without_noise_power(rng):
    # noise given at sigma_sq == 0 used to be dropped, returning the noiseless output
    model = build_model(tiny_model_cfg("direct"), seed=0)
    x = rng.random((2, 8, 8, 1))
    taps = np.ones((2, 1), dtype=complex)
    with pytest.raises(ValueError, match="noise"):
        model.forward(x, taps, 0.0, noise=np.full((2, model.rx_len), 5.0 + 0j))


@pytest.mark.parametrize("variant", ["direct", "implicit", "explicit"])
@pytest.mark.parametrize("sigma_sq", [-0.5, math.nan])
def test_forward_rejects_bad_noise_power(variant, sigma_sq, rng):
    # direct and implicit used to run these noiseless; explicit failed late on NaN
    model = build_model(tiny_model_cfg(variant), seed=0)
    x = rng.random((2, 8, 8, 1))
    with pytest.raises(ValueError, match="forward: sigma_sq must be >= 0"):
        model.forward(x, np.ones((2, 1), dtype=complex), sigma_sq)


def test_forward_rejects_wrong_image_shape(rng):
    model = build_model(tiny_model_cfg("direct"), seed=0)
    with pytest.raises(ValueError):
        model.forward(rng.random((2, 4, 8, 1)), np.ones((2, 1), dtype=complex), 0.0)


def test_load_state_transfers_function(rng):
    cfg = tiny_model_cfg("implicit")
    src = build_model(cfg, seed=1)
    dst = build_model(cfg, seed=2)
    x = rng.random((2, 8, 8, 1))
    taps = np.ones((2, 1), dtype=complex)
    out_src, _ = src.forward(x, taps, 0.0)
    out_dst, _ = dst.forward(x, taps, 0.0)
    assert not np.array_equal(out_src.value, out_dst.value)
    dst.load_state([(n, p.value) for n, p in src.params()], src.buffers())
    out_loaded, _ = dst.forward(x, taps, 0.0)
    assert np.array_equal(out_loaded.value, out_src.value)


def test_load_state_rejects_mismatched_names():
    a = build_model(tiny_model_cfg("direct"), seed=0)
    b = build_model(tiny_model_cfg("explicit"), seed=0)
    with pytest.raises(ValueError):
        a.load_state([(n, p.value) for n, p in b.params()], b.buffers())


@pytest.mark.parametrize("case", ["missing", "wrong_shape", "extra"])
def test_load_state_rejects_bad_buffers_before_setting_anything(case):
    src, dst = (build_model(tiny_model_cfg("explicit"), seed=s) for s in (1, 2))
    buffers = src.buffers()
    if case == "missing":
        buffers = [(n, b) for n, b in buffers if n != "enc.bn1.running_mean"]
    elif case == "wrong_shape":
        buffers = [(n, np.zeros(7) if n == "enc.bn1.running_mean" else b) for n, b in buffers]
    else:
        buffers = buffers + [("junk.running_mean", np.zeros(4))]
    before = [p.value for _, p in dst.params()], dst.buffers()
    with pytest.raises(ValueError, match="buffers do not match"):
        dst.load_state([(n, p.value) for n, p in src.params()], buffers)
    assert all(a is p.value for a, (_, p) in zip(before[0], dst.params()))
    assert all(a is b for (_, a), (_, b) in zip(before[1], dst.buffers()))


def test_gradients_reach_every_parameter(rng):
    # one training-mode step must touch encoder, decoder and both subnets
    from ofdmjscc.training import mse_loss
    cfg = tiny_model_cfg("explicit")
    model = build_model(cfg, seed=4)
    x = rng.random((4, 8, 8, 1))
    taps = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / 2
    noise = awgn(np.random.default_rng(1), (4, model.rx_len), 0.05)
    recon, _ = model.forward(x, taps, 0.05, train=True, noise=noise)
    grads = ad.backward(mse_loss(recon, x))
    missing = [n for n, p in model.params() if p not in grads]
    assert missing == []


def _training_graph(variant, rng):
    from ofdmjscc.training import mse_loss
    model = build_model(tiny_model_cfg(variant), seed=2)
    x = rng.random((16, 8, 8, 1))
    taps = (rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))) / 2
    noise = awgn(np.random.default_rng(1), (16, model.rx_len), 0.1)
    recon, _ = model.forward(x, taps, 0.1, train=True, noise=noise)
    return ad._reachable(mse_loss(recon, x))


@pytest.mark.parametrize("variant, limit", [("direct", 100), ("implicit", 135),
                                            ("explicit", 160)])
def test_training_graph_size(variant, limit, rng):
    # one batch_norm node per BatchNorm call, not an elementwise composite
    assert len(_training_graph(variant, rng)) <= limit


@pytest.mark.parametrize("variant", ["direct", "implicit", "explicit"])
def test_decoder_upsampling_is_one_node_per_stage(variant, rng):
    # each decoder upsampling stage records a single fused conv_up2x node
    ops = [n.op for n in _training_graph(variant, rng)]
    assert ops.count("conv_up2x") == 2
