"""The four benchmark workloads.

Each workload is closed-loop and single-process: a step starts only after the
previous one returned. ``setup(seed)`` builds everything a run of
``steps_per_repeat`` steps needs; ``step(state, i, check)`` runs step ``i``
and returns the value that must repeat bit for bit at the same seed (a loss,
or a PSNR on ``eval_toy``). ``check``, when given, is called with the step's
leaves, gradient and a loss closure before anything consumes the gradient
(see ``harness.fd_spot_check``).

The package only receives generated inputs: images from ``synth_dataset``,
taps from ``sample_channel`` and Gaussian noise, all drawn from the seed.
Functions are looked up on their module at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ofdmjscc import autodiff as ad
from ofdmjscc import channel, config, cplx, data, model, ofdm, receiver, training

# The acceptance suite's toy geometry and the package defaults.
TOY = dict(image_h=16, image_w=16, image_c=1, width1=16, width2=32,
           head_hidden=128, front_hidden=32, l_fft=16, l_cp=12, n_p=2, n_s=4)
DEFAULT: dict = {}

BATCH = 16
SNR_DB = 10.0
N_TAPS = 8
GAMMA = 4.0
LR = 1e-3


# The quality guard's fixed test set: GUARD_IMAGES images from GUARD_SEED,
# one channel realization each. The seed drives the workload's inputs and so
# the trained models; the test set is the same for every seed, so psnr_db
# compares models, not test sets. With test images drawn from the run's seed,
# psnr_db spread by 2.5-5.5 % across seeds, even with 128 images, because
# image content varies; on this fixed set it spread by 0.2 % on train_toy and
# eval_toy and 1.5 % on train_default.
GUARD_SEED = 1_000_000
GUARD_IMAGES = 64


def _noise(rng: np.random.Generator, shape: tuple, sigma_sq: float) -> np.ndarray:
    g = rng.standard_normal(shape + (2,))
    return np.sqrt(sigma_sq / 2.0) * (g[..., 0] + 1j * g[..., 1])


def guard_psnr(models: list, conditions: tuple) -> float:
    """Mean ``training.evaluate`` PSNR of ``models`` on the fixed test set,
    over the (SNR dB, clip ratio) ``conditions``."""
    c = models[0].cfg
    images = data.synth_dataset(GUARD_IMAGES, c.image_h, c.image_w, c.image_c,
                                seed=GUARD_SEED)
    return float(np.mean([
        training.evaluate(m, images, snr_db=snr, clip_ratio=clip, n_taps=N_TAPS,
                          gamma=GAMMA, realizations=1, seed=GUARD_SEED).psnr_db
        for m in models for snr, clip in conditions]))


@dataclass
class _Learner:
    model: object
    opt: object
    rng: np.random.Generator


class Train:
    """Training steps: forward -> mse_loss -> backward -> Adam.step.

    Step ``i`` trains ``variants[i % len(variants)]``, so every variant gets an
    equal share. Each variant has its own model, optimizer and input stream.
    """

    items = "images"

    def __init__(self, variants: tuple, geometry: dict, steps_per_repeat: int,
                 pool: int, fd_tensors: int | None):
        self.variants = variants
        self.geometry = geometry
        self.steps_per_repeat = steps_per_repeat
        self.pool = pool
        self.fd_tensors = fd_tensors          # None: every parameter tensor
        self.checked_steps = len(variants)    # the first step of each variant
        self.cycle = len(variants)
        self.items_per_step = BATCH

    def setup(self, seed: int):
        c = config.ExperimentConfig(**self.geometry)
        images = data.synth_dataset(self.pool, c.image_h, c.image_w, c.image_c, seed=seed)
        learners = []
        for k, variant in enumerate(self.variants):
            cfg = config.ExperimentConfig(variant=variant, **self.geometry)
            m = model.build_model(cfg.model_config(), seed=seed)
            learners.append(_Learner(m, training.Adam(m.params()),
                                     np.random.default_rng([seed, k])))
        return images, learners

    def step(self, state, i: int, check=None) -> float:
        images, learners = state
        ln = learners[i % len(learners)]
        m, rng = ln.model, ln.rng
        batch = images[rng.choice(images.shape[0], BATCH, replace=False)]
        taps = channel.sample_channel(rng, N_TAPS, GAMMA, batch=BATCH)
        sigma_sq = channel.snr_to_sigma_sq(SNR_DB)
        o = m.cfg.ofdm
        t_rx = o.n_s * o.l_fft if m.cfg.variant == "direct" else o.packet_len
        noise = _noise(rng, (BATCH, t_rx), sigma_sq)

        def loss_fn():
            recon, _ = m.forward(batch, taps, sigma_sq, math.inf, train=True, noise=noise)
            return training.mse_loss(recon, batch)

        loss = loss_fn()
        grads = ad.backward(loss)
        if check is not None:
            buffers = [(name, arr.copy()) for name, arr in m.buffers()]
            check([node for _, node in m.params()], grads, loss_fn, float(loss.value),
                  coords_per_leaf=1, max_leaves=self.fd_tensors)
            # the probes ran in train mode and moved the BatchNorm buffers
            m.load_state([(n, p.value) for n, p in m.params()], buffers)
        ln.opt.step(grads, LR)
        return float(loss.value)

    def quality(self, state, outputs: list[float]) -> tuple[float, float]:
        """The mean loss over the last third of the steps, and the guard PSNR
        of the trained models at the training SNR."""
        loss = float(np.mean(outputs[-max(1, len(outputs) // 3):]))
        return loss, guard_psnr([ln.model for ln in state[1]], ((SNR_DB, math.inf),))


class Eval:
    """``training.evaluate`` at workers=1 on a briefly trained explicit model.

    Step ``i`` evaluates one (SNR, clip) condition of the sweep on the same
    slice of test images.
    """

    items = "(image, realization) pairs"
    CONDITIONS = [(snr, clip) for snr in (0.0, 10.0, 20.0) for clip in (math.inf, 1.0)]
    REALIZATIONS = 5

    def __init__(self, steps_per_repeat: int, n_train: int, n_test: int, epochs: int):
        self.cfg = config.ExperimentConfig(variant="explicit", **TOY)
        self.steps_per_repeat = steps_per_repeat
        self.n_train, self.n_test, self.epochs = n_train, n_test, epochs
        self.checked_steps = 0
        self.cycle = len(self.CONDITIONS)
        self.items_per_step = n_test * self.REALIZATIONS

    def setup(self, seed: int):
        c = self.cfg
        pool = data.synth_dataset(self.n_train + self.n_test, c.image_h, c.image_w,
                                  c.image_c, seed=seed)
        m = model.build_model(c.model_config(), seed=seed)
        history = training.train(m, pool[:self.n_train], training.TrainConfig(
            epochs=self.epochs, batch_size=BATCH, lr=LR, lr_decay_start=self.epochs,
            snr_db=SNR_DB, n_taps=N_TAPS, gamma=GAMMA, seed=seed))
        return m, pool[self.n_train:], history[-1]["loss"], seed

    def _evaluate(self, state, i: int, workers: int) -> float:
        m, test, _, seed = state
        snr, clip = self.CONDITIONS[i % len(self.CONDITIONS)]
        return training.evaluate(m, test, snr_db=snr, clip_ratio=clip, n_taps=N_TAPS,
                                 gamma=GAMMA, realizations=self.REALIZATIONS, seed=seed,
                                 workers=workers).psnr_db

    def step(self, state, i: int, check=None) -> float:
        return self._evaluate(state, i, workers=1)

    def worker_invariance(self, state, reference: list[float]) -> bool:
        """The README promises results independent of ``workers``."""
        return self._evaluate(state, 0, workers=2) == reference[0]

    def quality(self, state, outputs: list[float]) -> tuple[float, float]:
        """The set-up training's last loss, and the guard PSNR of the model
        at 10 dB with and without clipping."""
        return float(state[2]), guard_psnr([state[0]], ((SNR_DB, math.inf), (SNR_DB, 1.0)))


class Chain:
    """The differentiable DSP chain alone, default OFDM geometry.

    assemble_packet (clip 1.0) -> apply_channel -> disassemble_packet ->
    estimate_channel_mmse -> equalize_mmse -> squared error against the sent
    grid -> backward, on a batch of random complex grids held as leaves.
    """

    items = "packets"
    CLIP = 1.0

    def __init__(self, steps_per_repeat: int, coords_per_plane: int):
        self.ofdm = ofdm.OfdmConfig()
        self.steps_per_repeat = steps_per_repeat
        self.coords_per_plane = coords_per_plane
        self.checked_steps = 1
        self.cycle = 1
        self.items_per_step = BATCH

    def setup(self, seed: int):
        o = self.ofdm
        rng = np.random.default_rng(seed)
        n = self.steps_per_repeat
        grids = _noise(rng, (n, BATCH, o.n_s, o.l_fft), 1.0)
        taps = channel.sample_channel(rng, N_TAPS, GAMMA, batch=n * BATCH)
        pilots = ofdm.make_pilots(o.pilot_seed, o.n_p, o.l_fft)
        return grids, taps.reshape(n, BATCH, N_TAPS), pilots, seed

    def step(self, state, i: int, check=None) -> float:
        grids, taps, pilots, seed = state
        o = self.ofdm
        j = i % grids.shape[0]
        sigma_sq = channel.snr_to_sigma_sq(SNR_DB)
        re, im = ad.leaf(grids[j].real), ad.leaf(grids[j].imag)

        def loss_fn():
            sent = cplx.CplxNode(re, im)
            pkt = ofdm.assemble_packet(sent, pilots, o, self.CLIP)
            rx = channel.apply_channel(pkt.tx, taps[j], sigma_sq,
                                       rng=np.random.default_rng([seed, j]))
            pilot_rx, data_rx = ofdm.disassemble_packet(rx, o)
            h_hat = receiver.estimate_channel_mmse(pilot_rx, pilots, sigma_sq)
            err = cplx.sub(receiver.equalize_mmse(data_rx, h_hat, sigma_sq), sent)
            return ad.mul_const(ad.sum_all(cplx.abs2(err)), 1.0 / re.value.size)

        loss = loss_fn()
        grads = ad.backward(loss)
        if check is not None:
            check([re, im], grads, loss_fn, float(loss.value),
                  coords_per_leaf=self.coords_per_plane)
        return float(loss.value)

    def quality(self, state, outputs: list[float]) -> tuple[float, float]:
        loss = float(np.mean(outputs))
        return loss, 10.0 * math.log10(1.0 / loss)


def make(name: str):
    """The workload called ``name``; sizes are fixed here so that every
    commit measures the same work."""
    if name == "train_toy":
        return Train(model.VARIANTS, TOY, steps_per_repeat=30, pool=64, fd_tensors=None)
    if name == "train_default":
        return Train(("explicit",), DEFAULT, steps_per_repeat=12, pool=64, fd_tensors=12)
    if name == "eval_toy":
        return Eval(steps_per_repeat=30, n_train=48, n_test=8, epochs=3)
    if name == "dsp_chain":
        return Chain(steps_per_repeat=200, coords_per_plane=16)
    raise KeyError(name)
