"""Quality metrics against hand-evaluated cases and a from-scratch windowed
reference implementation."""

import math

import numpy as np
import pytest

from ofdmjscc.metrics import _SSIM_BLOCK, PSNR_CAP_DB, psnr, psnr_batch, ssim, ssim_batch


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------

def test_psnr_known_value():
    ref = np.zeros((4, 4, 1))
    rec = np.full((4, 4, 1), 0.5)
    # mse = 0.25 -> 10 log10(1 / 0.25) = 6.0206 dB
    assert abs(psnr(ref, rec) - 10 * math.log10(4.0)) < 1e-12


def test_psnr_identical_is_capped():
    img = np.random.default_rng(0).random((8, 8, 3))
    assert psnr(img, img) == PSNR_CAP_DB
    # one-ULP difference stays finite and huge but below the cap behaviour
    assert psnr(img, img + 1e-9) > 90.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_psnr_rejects_non_finite_reconstruction(bad):
    # a NaN must not pass as a perfect match, nor an inf as -inf dB
    rec = np.zeros((4, 4))
    rec[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        psnr(np.zeros((4, 4)), rec)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


@pytest.mark.parametrize("shape", [(16, 16, 1), (21, 13, 3), (6, 6, 1), (9, 12, 3)])
def test_psnr_batch_rows_equal_single_calls(rng, shape):
    # sizes at and under the 11 px SSIM window, 1 and 3 channels; row 3 is an
    # exact match, capped without a divide-by-zero warning (warnings are
    # errors in this suite)
    a = rng.random((7,) + shape)
    b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, 1)
    b[3] = a[3]
    got = psnr_batch(a, b)
    assert got.shape == (7,)
    assert np.array_equal(got, [psnr(a[j], b[j]) for j in range(7)])
    assert got[3] == PSNR_CAP_DB
    assert np.array_equal(psnr_batch(a[2:5], b[2:5]), got[2:5])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_psnr_batch_rejects_a_non_finite_row(rng, bad):
    a = rng.random((3, 4, 4, 1))
    b = a.copy()
    b[1, 2, 0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        psnr_batch(a, b)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

def _gaussian_kernel_11():
    g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2 * 1.5 ** 2))
    k = np.outer(g, g)
    return k / k.sum()


def _ssim_reference_loops(a, b):
    """Straight transcription of the windowed definition: 11x11 Gaussian
    weights (sigma 1.5), valid positions only, stability constants
    (0.01 L)^2 and (0.03 L)^2."""
    kern = _gaussian_kernel_11()
    c1, c2 = 0.01 ** 2, 0.03 ** 2   # data range 1
    h, w = a.shape
    vals = []
    for i in range(h - 10):
        for j in range(w - 10):
            wa = a[i:i + 11, j:j + 11]
            wb = b[i:i + 11, j:j + 11]
            mu_a = (kern * wa).sum()
            mu_b = (kern * wb).sum()
            var_a = (kern * (wa - mu_a) ** 2).sum()
            var_b = (kern * (wb - mu_b) ** 2).sum()
            cov = (kern * (wa - mu_a) * (wb - mu_b)).sum()
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(vals))


def test_ssim_identical_is_one(rng):
    img = rng.random((16, 16, 1))
    assert abs(ssim(img, img) - 1.0) < 1e-12


def test_ssim_matches_loop_reference(rng):
    a = rng.random((14, 13))
    b = np.clip(a + 0.1 * rng.standard_normal((14, 13)), 0, 1)
    assert abs(ssim(a, b) - _ssim_reference_loops(a, b)) < 1e-12


def test_ssim_multichannel_averages(rng):
    a = rng.random((16, 16, 2))
    b = np.clip(a + 0.05 * rng.standard_normal(a.shape), 0, 1)
    per_chan = np.mean([_ssim_reference_loops(a[..., c], b[..., c])
                        for c in range(2)])
    assert abs(ssim(a, b) - per_chan) < 1e-12


def test_ssim_inverted_binary_is_near_minus_structure():
    # checkerboard vs its inverse: structure anti-correlated, similarity tiny
    tile = np.indices((16, 16)).sum(axis=0) % 2
    a = tile.astype(float)
    b = 1.0 - a
    assert ssim(a, b) < 0.1


def test_ssim_constant_luminance_shift():
    # flat images: variance terms vanish, only the luminance ratio survives:
    # (2 mu_a mu_b + c1) / (mu_a^2 + mu_b^2 + c1)
    a = np.full((16, 16), 0.3)
    b = np.full((16, 16), 0.4)
    c1 = 1e-4
    expected = (2 * 0.3 * 0.4 + c1) / (0.3 ** 2 + 0.4 ** 2 + c1)
    assert abs(ssim(a, b) - expected) < 1e-12


def test_ssim_small_image_fallback(rng):
    # below the window size global statistics take over; the value must be
    # finite, bounded and exactly 1 for identical inputs
    a = rng.random((6, 6))
    assert abs(ssim(a, a) - 1.0) < 1e-12
    b = np.clip(a + 0.2 * rng.standard_normal((6, 6)), 0, 1)
    v = ssim(a, b)
    assert -1.0 <= v < 1.0


@pytest.mark.parametrize("shape", [(16, 16, 1), (21, 13, 3), (32, 32, 3), (6, 6, 1),
                                   (9, 12, 3)])
def test_ssim_batch_rows_equal_single_calls(rng, shape):
    # windowed (>= 11 px) and global-statistics fallback, 1 and 3 channels;
    # 21x13 gives 33 windows per image, which a BLAS product would block
    # differently at different batch sizes; at 32x32x3 the five maps of 7
    # images span several blocks of _SSIM_BLOCK map elements
    if shape == (32, 32, 3):
        assert 5 * 32 * 32 * 3 * 7 > 2 * _SSIM_BLOCK
    a = rng.random((7,) + shape)
    b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, 1)
    got = ssim_batch(a, b)
    assert got.shape == (7,)
    assert np.array_equal(got, [ssim(a[j], b[j]) for j in range(7)])
    assert np.array_equal(ssim_batch(a[2:5], b[2:5]), got[2:5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(16, 16, 1), (6, 6, 3)])
def test_ssim_rejects_non_finite_input(rng, bad, shape):
    # windowed and global-statistics paths; a NaN must not become a NaN score
    # that an average hides
    a = rng.random((2,) + shape)
    b = a.copy()
    b[1, 3, 4, -1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ssim_batch(a, b)
    with pytest.raises(ValueError, match="non-finite"):
        ssim(b[1], a[1])


def test_ssim_shape_mismatch():
    with pytest.raises(ValueError):
        ssim(np.zeros((12, 12)), np.zeros((12, 13)))
