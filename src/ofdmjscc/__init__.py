"""Differentiable OFDM baseband simulator with learned image transceivers.

The package couples a small reverse-mode autodiff engine (dense float64
NumPy arrays, complex numbers carried as real/imaginary pairs) with an
OFDM physical layer — IDFT, cyclic prefix, power normalization, amplitude
clipping, multipath Rayleigh fading, MMSE channel estimation and
equalization — so that convolutional image codecs can be trained end to
end straight through the waveform. The package exports the five entry points
of a training run; every other name is imported from its own module.
"""

from .config import ExperimentConfig
from .data import synth_dataset
from .model import build_model
from .training import evaluate, train

__version__ = "0.1.0"

__all__ = ["ExperimentConfig", "build_model", "evaluate", "synth_dataset", "train"]
