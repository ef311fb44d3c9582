"""Multipath model: exponential power profile, Rayleigh tap statistics,
time-domain convolution and the circular-equivalence property that the cyclic
prefix buys."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmjscc.channel import (apply_channel, awgn, freq_response, power_profile,
                              sample_channel, snr_to_sigma_sq)
from ofdmjscc.ofdm import assemble_packet, disassemble_packet, make_pilots

from conftest import cnode, ofdm_geometry


def test_power_profile_matches_loop_oracle():
    # sigma_l^2 = exp(-l/gamma) / sum_m exp(-m/gamma), written out longhand
    n_taps, gamma = 8, 4.0
    weights = [math.exp(-l / gamma) for l in range(n_taps)]
    total = sum(weights)
    expected = [w / total for w in weights]
    got = power_profile(n_taps, gamma)
    assert np.allclose(got, expected, rtol=1e-15)
    assert abs(got.sum() - 1.0) < 1e-14
    assert got[0] > got[-1]  # decaying profile


def test_power_profile_first_tap_value():
    # exp(0)/sum_{l<8} exp(-l/4) = 1/3.90905... = 0.2558208 (hand computed)
    got = power_profile(8, 4.0)
    assert abs(got[0] - 0.2558207969) < 1e-9


def test_tap_statistics_monte_carlo():
    rng = np.random.default_rng(11)
    n = 200_000
    h = sample_channel(rng, 8, 4.0, batch=n)
    assert h.shape == (n, 8)
    prof = power_profile(8, 4.0)
    emp = np.mean(np.abs(h) ** 2, axis=0)
    assert np.allclose(emp, prof, rtol=0.03)
    # circular symmetry: independent halves, each carrying half the power
    assert np.allclose(np.var(h.real, axis=0), prof / 2, rtol=0.05)
    assert np.allclose(np.var(h.imag, axis=0), prof / 2, rtol=0.05)
    assert np.all(np.abs(np.mean(h, axis=0)) < 0.01)


def test_sample_channel_deterministic():
    a = sample_channel(np.random.default_rng(5), 8, 4.0, batch=3)
    b = sample_channel(np.random.default_rng(5), 8, 4.0, batch=3)
    assert np.array_equal(a, b)


def test_snr_to_sigma_sq():
    assert abs(snr_to_sigma_sq(0.0) - 1.0) < 1e-15
    assert abs(snr_to_sigma_sq(10.0) - 0.1) < 1e-15
    assert snr_to_sigma_sq(math.inf) == 0.0


@pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
def test_snr_to_sigma_sq_rejects_minus_inf_and_nan(snr_db):
    # +inf is noiseless; -inf would be infinite noise, nan no noise level at all
    with pytest.raises(ValueError, match="snr_db must be > -inf"):
        snr_to_sigma_sq(snr_db)


def test_apply_channel_is_leading_aligned_convolution(rng):
    # oracle: y_out[t] = sum_l h[l] * y[t - l], zero history before t=0
    t_len, n_taps = 20, 4
    y = rng.standard_normal((2, t_len)) + 1j * rng.standard_normal((2, t_len))
    h = sample_channel(np.random.default_rng(3), n_taps, 4.0, batch=2)
    out = apply_channel(cnode(y), h, sigma_sq=0.0).value
    ref = np.zeros_like(y)
    for b in range(2):
        for t in range(t_len):
            for l in range(n_taps):
                if t - l >= 0:
                    ref[b, t] += h[b, l] * y[b, t - l]
    assert np.allclose(out, ref, atol=1e-12)


def test_apply_channel_identity_tap():
    y = np.exp(1j * np.linspace(0, 5, 16))[None]
    out = apply_channel(cnode(y), np.array([[1.0 + 0j]]), 0.0).value
    assert np.allclose(out, y, atol=0)


def test_apply_channel_rejects_1d_taps():
    y = np.ones((2, 16), dtype=complex)
    with pytest.raises(ValueError, match="taps"):
        apply_channel(cnode(y), np.array([1.0 + 0j, 0.5j]), 0.0)


def test_noise_statistics():
    rng = np.random.default_rng(21)
    sigma_sq = 0.25
    y = np.zeros((400, 64), dtype=complex)
    out = apply_channel(cnode(y), np.ones((400, 1), dtype=complex),
                        sigma_sq, rng=rng).value
    assert abs(np.mean(np.abs(out) ** 2) - sigma_sq) < 0.01
    assert abs(np.var(out.real) - sigma_sq / 2) < 0.01
    assert abs(np.var(out.imag) - sigma_sq / 2) < 0.01


def test_freq_response_matches_loop_oracle(rng):
    n_taps, l_fft = 5, 16
    h = rng.standard_normal((3, n_taps)) + 1j * rng.standard_normal((3, n_taps))
    got = freq_response(h, l_fft)
    ref = np.zeros((3, l_fft), dtype=complex)
    for k in range(l_fft):
        for l in range(n_taps):
            ref[:, k] += h[:, l] * np.exp(-2j * np.pi * l * k / l_fft)
    assert got.shape == (3, l_fft)
    assert np.allclose(got, ref, atol=1e-12)


def test_cyclic_prefix_diagonalizes_channel(toy_ofdm, rng):
    """After CP removal, per-subcarrier received = H[k] * sent[k]: the
    multipath convolution collapses to one complex gain per subcarrier."""
    cfg = toy_ofdm
    grid = (rng.standard_normal((2, cfg.n_s, cfg.l_fft))
            + 1j * rng.standard_normal((2, cfg.n_s, cfg.l_fft)))
    pilots = make_pilots(cfg.pilot_seed, cfg.n_p, cfg.l_fft)
    pkt = assemble_packet(cnode(grid), pilots, cfg, clip_ratio=math.inf)
    h = sample_channel(np.random.default_rng(9), 8, 4.0, batch=2)  # 8 <= l_cp+1
    rx = apply_channel(pkt.tx, h, sigma_sq=0.0)
    pilot_rx, data_rx = disassemble_packet(rx, cfg)

    h_k = freq_response(h, cfg.l_fft)
    sent_pilots, sent_data = disassemble_packet(pkt.tx, cfg)
    assert np.allclose(data_rx.value, h_k[:, None, :] * sent_data.value, atol=1e-12)
    assert np.allclose(pilot_rx.value, h_k[:, None, :] * sent_pilots.value, atol=1e-12)


def test_channel_longer_than_prefix_breaks_diagonalization():
    # the subcarrier model only holds while the channel fits inside the CP
    rng = np.random.default_rng(2)
    from ofdmjscc.ofdm import OfdmConfig
    cfg = OfdmConfig(l_fft=16, l_cp=2, n_p=1, n_s=1)
    grid = (rng.standard_normal((1, 1, 16)) + 1j * rng.standard_normal((1, 1, 16)))
    pilots = make_pilots(cfg.pilot_seed, cfg.n_p, cfg.l_fft)
    pkt = assemble_packet(cnode(grid), pilots, cfg, clip_ratio=math.inf)
    h = sample_channel(np.random.default_rng(9), 8, 4.0, batch=1)  # 8 > l_cp+1
    rx = apply_channel(pkt.tx, h, sigma_sq=0.0)
    _, data_rx = disassemble_packet(rx, cfg)
    _, sent_data = disassemble_packet(pkt.tx, cfg)
    h_k = freq_response(h, cfg.l_fft)
    err = np.abs(data_rx.value - h_k[:, None, :] * sent_data.value).max()
    assert err > 1e-3


def test_awgn_draw_order_and_scale():
    # one standard-normal block of shape + (2,): real parts then imaginary
    # parts, each scaled by sqrt(sigma_sq / 2)
    sigma_sq = 0.3
    w = awgn(np.random.default_rng(4), (3, 5), sigma_sq)
    g = np.random.default_rng(4).standard_normal((3, 5, 2))
    assert w.shape == (3, 5) and w.dtype == np.complex128
    assert np.array_equal(w.real, math.sqrt(sigma_sq / 2.0) * g[..., 0])
    assert np.array_equal(w.imag, math.sqrt(sigma_sq / 2.0) * g[..., 1])


def test_sample_channel_draw_order_and_scale():
    # one standard-normal block of (batch, n_taps, 2): tap l's real and
    # imaginary parts, each scaled by sqrt(sigma_l^2 / 2)
    h = sample_channel(np.random.default_rng(4), 5, 2.0, batch=3)
    g = np.random.default_rng(4).standard_normal((3, 5, 2))
    std = np.sqrt(power_profile(5, 2.0) / 2.0)
    assert h.shape == (3, 5) and h.dtype == np.complex128
    assert np.array_equal(h.real, std * g[..., 0])
    assert np.array_equal(h.imag, std * g[..., 1])


@settings(max_examples=60, deadline=None)
@given(ofdm_geometry(), st.data())
def test_per_subcarrier_identity_on_random_geometries(geometry, data):
    """Noiseless Y = H X on every subcarrier whenever n_taps <= l_cp + 1."""
    cfg, b, seed = geometry
    n_taps = data.draw(st.integers(1, cfg.l_cp + 1))
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal((b, cfg.n_s, cfg.l_fft)) \
        + 1j * rng.standard_normal((b, cfg.n_s, cfg.l_fft))
    pilots = make_pilots(cfg.pilot_seed, cfg.n_p, cfg.l_fft)
    pkt = assemble_packet(cnode(grid), pilots, cfg, clip_ratio=math.inf)
    h = sample_channel(rng, n_taps, 4.0, batch=b)
    rx_p, rx_d = disassemble_packet(apply_channel(pkt.tx, h, sigma_sq=0.0), cfg)
    tx_p, tx_d = disassemble_packet(pkt.tx, cfg)
    h_k = freq_response(h, cfg.l_fft)[:, None, :]
    assert np.allclose(rx_d.value, h_k * tx_d.value, rtol=0, atol=1e-12)
    assert np.allclose(rx_p.value, h_k * tx_p.value, rtol=0, atol=1e-12)
