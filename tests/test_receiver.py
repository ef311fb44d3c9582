"""Pilot-based channel estimation and per-subcarrier equalization, checked
against independent closed-form references."""

import numpy as np

import ofdmjscc.autodiff as ad
from ofdmjscc import cplx
from ofdmjscc.ofdm import make_pilots
from ofdmjscc.receiver import equalize_mmse, estimate_channel_mmse

from conftest import cnode, rand_cplx


def test_noiseless_estimate_is_exact(rng):
    # with sigma^2 = 0 and pilot_rx = H * pilots the estimator returns H:
    # sum_i conj(P) H P / sum_i |P|^2 = H
    pilots = make_pilots(7, 2, 16)
    h = rand_cplx(rng, (3, 16))
    pilot_rx = h[:, None, :] * pilots[None]
    got = estimate_channel_mmse(cnode(pilot_rx), pilots, sigma_sq=0.0)
    assert got.value.shape == (3, 16)
    assert np.allclose(got.value, h, atol=1e-13)


def test_estimate_matches_closed_form_with_noise(rng):
    # independent numpy evaluation of
    #   H_hat[k] = sum_i conj(P_i[k]) R_i[k] / (sum_i |P_i[k]|^2 + sigma^2)
    pilots = make_pilots(7, 3, 8)
    rx = rand_cplx(rng, (2, 3, 8))
    sigma_sq = 0.37
    got = estimate_channel_mmse(cnode(rx), pilots, sigma_sq).value
    num = np.sum(np.conj(pilots)[None] * rx, axis=1)
    den = np.sum(np.abs(pilots) ** 2, axis=0)[None] + sigma_sq
    assert np.allclose(got, num / den, atol=1e-13)


def test_noise_regularization_shrinks_estimate(rng):
    pilots = make_pilots(7, 2, 8)
    h = rand_cplx(rng, (1, 8))
    pilot_rx = h[:, None, :] * pilots[None]
    clean = estimate_channel_mmse(cnode(pilot_rx), pilots, 0.0).value
    noisy = estimate_channel_mmse(cnode(pilot_rx), pilots, 1.0).value
    assert np.all(np.abs(noisy) < np.abs(clean))


def test_noiseless_equalizer_inverts_channel(rng):
    h = rand_cplx(rng, (2, 8))
    y = rand_cplx(rng, (2, 4, 8))
    rx = h[:, None, :] * y
    out = equalize_mmse(cnode(rx), cnode(h), sigma_sq=0.0).value
    assert np.allclose(out, y, atol=1e-12)


def test_equalizer_matches_closed_form_with_noise(rng):
    # Y_eq = conj(H) R / (|H|^2 + sigma^2), evaluated independently
    h = rand_cplx(rng, (2, 8))
    rx = rand_cplx(rng, (2, 3, 8))
    sigma_sq = 0.2
    got = equalize_mmse(cnode(rx), cnode(h), sigma_sq).value
    ref = np.conj(h)[:, None, :] * rx / (np.abs(h) ** 2 + sigma_sq)[:, None, :]
    assert np.allclose(got, ref, atol=1e-13)


def test_dead_subcarrier_maps_to_zero(rng):
    # H[k] = 0 with sigma^2 = 0: the 0/0 is defined as 0, never inf/nan
    h = rand_cplx(rng, (1, 8))
    h[0, 3] = 0.0
    rx = rand_cplx(rng, (1, 2, 8))
    out = equalize_mmse(cnode(rx), cnode(h), sigma_sq=0.0).value
    assert np.all(np.isfinite(out))
    assert np.array_equal(out[0, :, 3], np.zeros(2, dtype=complex))


def test_receiver_chain_is_differentiable(rng):
    pilots = make_pilots(7, 2, 8)
    rx_p = rand_cplx(rng, (1, 2, 8))
    rx_d = rand_cplx(rng, (1, 3, 8))
    p_re, d_im = ad.leaf(rx_p.real.copy()), ad.leaf(rx_d.imag.copy())
    node_p = cplx.CplxNode(p_re, ad.leaf(rx_p.imag.copy()))
    node_d = cplx.CplxNode(ad.leaf(rx_d.real.copy()), d_im)
    h_hat = estimate_channel_mmse(node_p, pilots, 0.1)
    y_eq = equalize_mmse(node_d, h_hat, 0.1)
    g = ad.backward(ad.sum_all(cplx.abs2(y_eq)))
    # gradients reach both the pilot and the data observations
    assert np.any(g[p_re] != 0) and np.any(g[d_im] != 0)
    assert np.all(np.isfinite(g[p_re]))
