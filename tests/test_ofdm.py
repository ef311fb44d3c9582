"""Frequency-domain framing: DFT identities, cyclic prefix, pilots, power
normalization, clipping and packet (dis)assembly, each checked against an
independently computed reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ofdmjscc.autodiff as ad
from ofdmjscc import cplx
from ofdmjscc.ofdm import (OfdmConfig, P_S, add_cp, assemble_packet,
                           channel_uses_per_pixel, clip, dft,
                           disassemble_packet, idft, make_pilots,
                           normalize_power, papr_db, remove_cp)

from conftest import cnode, ofdm_geometry, rand_cplx


# ---------------------------------------------------------------------------
# DFT / IDFT
# ---------------------------------------------------------------------------

def test_dft_matches_direct_summation(rng):
    # oracle: X[k] = (1/sqrt(N)) sum_n x[n] exp(-2 pi j n k / N), by loop
    n_fft = 8
    x = rand_cplx(rng, (3, n_fft))
    got = dft(cnode(x))
    ref = np.zeros_like(x)
    for k in range(n_fft):
        for n in range(n_fft):
            ref[:, k] += x[:, n] * np.exp(-2j * np.pi * n * k / n_fft)
    ref /= math.sqrt(n_fft)
    assert np.allclose(got.value, ref, atol=1e-12)


def test_dft_matrix_is_unitary_and_symmetric():
    # the op's matrix: row n is the DFT of the n-th unit vector
    f = dft(cplx.const(np.eye(16))).value
    assert np.allclose(f @ f.conj().T, np.eye(16), atol=1e-13)
    assert np.allclose(f, f.T, atol=0)


def test_idft_inverts_dft(rng):
    x = rand_cplx(rng, (2, 16))
    back = idft(dft(cnode(x)))
    assert np.allclose(back.value, x, atol=1e-13)


def test_parseval(rng):
    # unitary transform preserves energy exactly up to round-off
    x = rand_cplx(rng, (4, 32))
    y = dft(cnode(x)).value
    assert np.allclose(np.sum(np.abs(y) ** 2, axis=1),
                       np.sum(np.abs(x) ** 2, axis=1), rtol=1e-13)


# ---------------------------------------------------------------------------
# cyclic prefix
# ---------------------------------------------------------------------------

def test_cp_round_trip(rng):
    x = rand_cplx(rng, (2, 3, 8))
    node = cnode(x)
    with_cp = add_cp(node, 4)
    assert with_cp.value.shape == (2, 3, 12)
    assert np.array_equal(with_cp.value[..., :4], x[..., -4:])  # prefix = tail
    assert np.array_equal(with_cp.value[..., 4:], x)
    assert np.array_equal(remove_cp(with_cp, 4).value, x)


def test_cp_gradient_flows(rng):
    x = rng.standard_normal((1, 2, 8))
    node = ad.leaf(x)
    c = cplx.CplxNode(node, ad.constant(np.zeros_like(x)))
    loss = ad.sum_all(cplx.abs2(add_cp(c, 3)))  # imaginary plane is zero
    g = ad.backward(loss)[node]
    # tail samples appear twice (once in body, once as prefix): gradient 4x vs 2x
    assert np.allclose(g[..., :5], 2 * x[..., :5])
    assert np.allclose(g[..., 5:], 4 * x[..., 5:])


# ---------------------------------------------------------------------------
# pilots
# ---------------------------------------------------------------------------

def test_pilots_follow_documented_procedure():
    # independent re-derivation of the generation recipe
    rng = np.random.default_rng(7)
    idx = rng.integers(0, 4, 8)
    consts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2)
    expected_row = consts[idx]
    got = make_pilots(7, 2, 8)
    assert got.shape == (2, 8)
    assert np.array_equal(got[0], expected_row)
    assert np.array_equal(got[1], expected_row)  # same row on every pilot symbol


def test_pilots_frozen_values_seed7():
    # pinned so a silent change to the RNG recipe cannot slip through
    got = make_pilots(7, 1, 8)[0] * math.sqrt(2)
    assert np.array_equal(np.rint(got.real).astype(int), [-1, -1, -1, -1, -1, -1, -1, 1])
    assert np.array_equal(np.rint(got.imag).astype(int), [-1, 1, 1, -1, 1, -1, -1, 1])


def test_pilots_unit_modulus():
    p = make_pilots(3, 2, 64)
    assert np.allclose(np.abs(p), 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# power normalization, clipping, PAPR
# ---------------------------------------------------------------------------

def test_normalize_power_unit_mean(rng):
    z = 3.7 * rand_cplx(rng, (4, 50))
    out, gain = normalize_power(cnode(z))
    out = out.value
    assert np.allclose(np.mean(np.abs(out) ** 2, axis=1), 1.0, rtol=1e-12)
    assert np.allclose(gain.value, 1.0 / np.sqrt(np.mean(np.abs(z) ** 2, axis=1)),
                       rtol=1e-12)
    # per-packet scaling: relative phases/ratios preserved within each row
    assert np.allclose(out[0] / z[0], (out[0] / z[0])[0], rtol=1e-12)


def test_normalize_power_zero_input_rejected():
    z = np.zeros((1, 8), dtype=complex)
    with pytest.raises(ValueError):
        normalize_power(cnode(z))


def test_normalize_power_rejects_1d_input(rng):
    # one signal must still come as a (1, T) batch, not be split per sample
    with pytest.raises(ValueError, match="normalize_power"):
        normalize_power(cnode(rand_cplx(rng, 8)))


def test_clip_bound_is_exact(rng):
    rho = 1.3
    z = 2.0 * rand_cplx(rng, (8, 100))
    z, _ = normalize_power(cnode(z))
    out = clip(z, rho).value
    assert np.abs(out).max() <= rho * math.sqrt(P_S)  # no ULP excursions allowed


def test_clip_below_threshold_is_identity_and_phase_kept(rng):
    rho = 1.2
    z = rand_cplx(rng, (1, 64))
    z /= math.sqrt(np.mean(np.abs(z) ** 2))
    out = clip(cnode(z), rho).value[0]
    amp = np.abs(z[0])
    below = amp <= rho
    assert np.array_equal(out[below], z[0][below])
    clipped = ~below
    assert clipped.any()
    # clipped samples keep their angle, amplitude moves to the threshold
    assert np.allclose(np.angle(out[clipped]), np.angle(z[0][clipped]), atol=1e-12)
    assert np.allclose(np.abs(out[clipped]), rho, rtol=1e-12)


def test_clip_infinite_ratio_is_identity(rng):
    z = rand_cplx(rng, (2, 16))
    node = cnode(z)
    assert clip(node, math.inf) is node


def test_papr_known_values():
    # constant envelope: PAPR = 1 -> 0 dB
    const = np.exp(1j * np.linspace(0, 3, 16))
    assert abs(papr_db(const)) < 1e-12
    # one live sample among four zeros: peak/mean = 4 -> 10 log10(4)
    spiky = np.array([2.0 + 0j, 0, 0, 0])
    assert abs(papr_db(spiky) - 10 * math.log10(4.0)) < 1e-12
    batched = papr_db(np.stack([const, np.resize(spiky, 16)]))
    assert batched.shape == (2,)


# ---------------------------------------------------------------------------
# packet assembly
# ---------------------------------------------------------------------------

def test_packet_layout_and_round_trip(toy_ofdm, rng):
    cfg = toy_ofdm
    grid = rand_cplx(rng, (2, cfg.n_s, cfg.l_fft))
    pilots = make_pilots(cfg.pilot_seed, cfg.n_p, cfg.l_fft)
    pkt = assemble_packet(cnode(grid), pilots, cfg, clip_ratio=math.inf)
    assert pkt.tx.value.shape == (2, cfg.packet_len)
    assert np.allclose(np.mean(np.abs(pkt.tx.value) ** 2, axis=1), 1.0, rtol=1e-12)

    # independent reference: orthonormal numpy IFFT + manual CP + manual scale
    frame = np.concatenate([np.broadcast_to(pilots, (2, cfg.n_p, cfg.l_fft)),
                            grid], axis=1)
    waves = np.fft.ifft(frame, norm="ortho", axis=-1)
    serial = np.concatenate([waves[..., -cfg.l_cp:], waves], axis=-1)
    serial = serial.reshape(2, -1)
    scale = 1.0 / np.sqrt(np.mean(np.abs(serial) ** 2, axis=1, keepdims=True))
    assert np.allclose(pkt.tx.value, serial * scale, atol=1e-12)

    # receiver-side split undoes the framing (per-symbol DFT after CP removal)
    pilot_grid, data_grid = disassemble_packet(pkt.tx, cfg)
    assert pilot_grid.value.shape == (2, cfg.n_p, cfg.l_fft)
    assert data_grid.value.shape == (2, cfg.n_s, cfg.l_fft)
    assert np.allclose(data_grid.value, grid * scale[:, None], atol=1e-12)
    assert np.allclose(pilot_grid.value, pilots[None] * scale[:, None], atol=1e-12)


def test_packet_clipping_reduces_papr(toy_ofdm, rng):
    cfg = toy_ofdm
    grid = rand_cplx(rng, (4, cfg.n_s, cfg.l_fft)) / math.sqrt(2)
    pilots = make_pilots(cfg.pilot_seed, cfg.n_p, cfg.l_fft)
    free = assemble_packet(cnode(grid), pilots, cfg, clip_ratio=math.inf)
    hard = assemble_packet(cnode(grid), pilots, cfg, clip_ratio=1.0)
    assert np.all(papr_db(hard.tx.value) < papr_db(free.tx.value))
    assert np.abs(hard.tx.value).max() <= 1.0
    assert np.array_equal(hard.preclip.value, free.tx.value)


def test_channel_uses_per_pixel_reference_setup():
    # 2 pilot + 6 data symbols of 64+16 samples over a 32x32x3 image
    cfg = OfdmConfig(l_fft=64, l_cp=16, n_p=2, n_s=6)
    cpp = channel_uses_per_pixel(cfg, 32, 32, 3)
    assert cpp == (2 + 6) * (64 + 16) / (32 * 32 * 3)
    assert round(cpp, 4) == 0.2083


def test_config_validation():
    with pytest.raises(ValueError):
        OfdmConfig(l_fft=0, l_cp=4, n_p=1, n_s=1)
    with pytest.raises(ValueError):
        OfdmConfig(l_fft=8, l_cp=9, n_p=1, n_s=1)  # prefix longer than symbol
    with pytest.raises(ValueError):
        OfdmConfig(l_fft=8, l_cp=4, n_p=0, n_s=1)  # need pilots to estimate


# ---------------------------------------------------------------------------
# properties over random geometries
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(ofdm_geometry())
def test_dft_parseval_and_inverse_on_random_geometries(geometry):
    cfg, b, seed = geometry
    x = rand_cplx(np.random.default_rng(seed), (b, cfg.rows, cfg.l_fft))
    y = dft(cnode(x))
    assert np.allclose(np.sum(np.abs(y.value) ** 2, axis=-1),
                       np.sum(np.abs(x) ** 2, axis=-1), rtol=1e-12, atol=0)
    assert np.allclose(idft(y).value, x, rtol=0, atol=1e-12)
    assert np.allclose(dft(idft(cnode(x))).value, x, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(ofdm_geometry(), st.floats(0.3, 3.0))
def test_packet_power_and_clip_bound_on_random_geometries(geometry, rho):
    cfg, b, seed = geometry
    grid = rand_cplx(np.random.default_rng(seed), (b, cfg.n_s, cfg.l_fft))
    pilots = make_pilots(cfg.pilot_seed, cfg.n_p, cfg.l_fft)
    pkt = assemble_packet(cnode(grid), pilots, cfg, clip_ratio=rho)
    pre = pkt.preclip.value
    assert pre.shape == (b, cfg.packet_len)
    assert np.allclose(np.mean(np.abs(pre) ** 2, axis=1), 1.0, rtol=1e-12, atol=0)
    assert np.abs(pkt.tx.value).max() <= rho * math.sqrt(P_S)
    # the gain is the normalization factor: data subcarriers come back scaled by it
    _, data = disassemble_packet(pkt.preclip, cfg)
    assert np.allclose(data.value, pkt.gain[:, None, None] * grid, rtol=0, atol=1e-12)
