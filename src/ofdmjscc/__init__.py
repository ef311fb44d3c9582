"""Differentiable OFDM baseband simulator with learned image transceivers.

The package couples a small reverse-mode autodiff engine (dense float64
NumPy arrays, complex numbers carried as real/imaginary pairs) with an
OFDM physical layer — IDFT, cyclic prefix, power normalization, amplitude
clipping, multipath Rayleigh fading, MMSE channel estimation and
equalization — so that convolutional image codecs can be trained end to
end straight through the waveform.
"""

from .autodiff import Node, backward, constant, leaf
from .channel import apply_channel, freq_response, power_profile, sample_channel, \
    snr_to_sigma_sq
from .config import VARIANTS, ExperimentConfig, ModelConfig, OfdmConfig, TrainConfig, load_config
from .cplx import CplxNode
from .data import load_checkpoint, load_image, save_checkpoint, save_image, \
    synth_dataset
from .gradcheck import finite_diff_check
from .metrics import papr_ccdf, psnr, ssim
from .model import JsccModel, build_model
from .ofdm import assemble_packet, channel_uses_per_pixel, clip, \
    disassemble_packet, make_pilots, normalize_power, papr_db
from .receiver import equalize_mmse, estimate_channel_mmse
from .training import Adam, EvalResult, evaluate, mse_loss, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "CplxNode", "EvalResult", "ExperimentConfig", "JsccModel",
    "ModelConfig", "Node", "OfdmConfig", "TrainConfig", "VARIANTS",
    "apply_channel", "assemble_packet", "backward", "build_model",
    "channel_uses_per_pixel", "clip", "constant", "disassemble_packet",
    "equalize_mmse", "estimate_channel_mmse", "evaluate", "finite_diff_check",
    "freq_response", "leaf", "load_checkpoint", "load_config", "load_image",
    "make_pilots", "mse_loss", "normalize_power", "papr_ccdf", "papr_db",
    "power_profile", "psnr", "sample_channel", "save_checkpoint", "save_image",
    "snr_to_sigma_sq", "ssim", "synth_dataset", "train",
]
