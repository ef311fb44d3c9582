"""Joint source-channel coding transceiver models.

A convolutional encoder maps an image straight to a complex subcarrier grid;
the decoder reconstructs the image from what the receiver observed. Three
receiver variants trade DSP structure against learned flexibility:

* ``direct``   — no OFDM at all: the encoder grid is sent as raw time-domain
                 samples (power-normalized, no pilots, no clipping) and the
                 decoder sees the raw channel output.
* ``implicit`` — full OFDM transmit chain; a small learned front-end sees the
                 raw received data grid together with the known and received
                 pilot grids, per subcarrier, and must learn its own channel
                 handling (no estimator or equalizer math in the graph).
* ``explicit`` — OFDM plus in-graph channel estimation and MMSE equalization,
                 each refined by a small residual subnet; the decoder sees
                 only the equalized grid.

Both subnets end in a zero-initialized normalization scale, so at
initialization the explicit path is exactly the plain estimate/equalize
pipeline.

Attribute names are checkpoint names (``params()`` names a parameter by its
path, ``enc.res.conv_a.w``): renaming one breaks old checkpoints, and
``test_checkpoint_layout_is_pinned`` catches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import cplx
from .autodiff import Node
from .cplx import CplxNode
from .channel import apply_channel
from .nn import BatchNorm, Conv2d, Dense, Module
from .ofdm import OfdmConfig, TxPacket, assemble_packet, check_field_types, \
    disassemble_packet, make_pilots, normalize_power
from .receiver import equalize_mmse, estimate_channel_mmse

VARIANTS = ("direct", "implicit", "explicit")


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "explicit"
    image_h: int = 32
    image_w: int = 32
    image_c: int = 3
    width1: int = 32
    width2: int = 64
    subnet_hidden: int = 8
    head_hidden: int = 256
    front_hidden: int = 32
    ofdm: OfdmConfig = field(default_factory=OfdmConfig)

    def __post_init__(self):
        check_field_types(self)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.image_h % 4 or self.image_w % 4:
            raise ValueError("image_h and image_w must be multiples of 4 "
                             "(two stride-2 stages)")
        if self.image_c not in (1, 3):
            raise ValueError(f"image_c must be 1 or 3, got {self.image_c}")
        for name in ("width1", "width2", "subnet_hidden", "head_hidden", "front_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)     # recurses into ofdm


class _ResBlock(Module):
    def __init__(self, width: int, rng):
        self.conv_a = Conv2d(3, 3, width, width, rng, bias=False)
        self.bn_a = BatchNorm(width)
        self.conv_b = Conv2d(3, 3, width, width, rng, bias=False)
        self.bn_b = BatchNorm(width)

    def __call__(self, x: Node, train: bool) -> Node:
        h = ad.relu(self.bn_a(self.conv_a(x), train))
        h = self.bn_b(self.conv_b(h), train)
        return ad.relu(ad.add(x, h))


class _Encoder(Module):
    """Image (B, H, W, C) -> complex grid (B, n_s, l_fft)."""

    def __init__(self, cfg: ModelConfig, rng):
        w1, w2 = cfg.width1, cfg.width2
        hb, wb = cfg.image_h // 4, cfg.image_w // 4
        self.grid_shape = (cfg.ofdm.n_s, cfg.ofdm.l_fft)
        self.conv1 = Conv2d(3, 3, cfg.image_c, w1, rng, stride=2, bias=False)
        self.bn1 = BatchNorm(w1)
        self.conv2 = Conv2d(3, 3, w1, w2, rng, stride=2, bias=False)
        self.bn2 = BatchNorm(w2)
        self.res = _ResBlock(w2, rng)
        self.head = Dense(hb * wb * w2, 2 * cfg.ofdm.n_s * cfg.ofdm.l_fft, rng)

    def __call__(self, x: Node, train: bool) -> CplxNode:
        b = x.value.shape[0]
        h = ad.relu(self.bn1(self.conv1(x), train))
        h = ad.relu(self.bn2(self.conv2(h), train))
        h = self.res(h, train)
        h = self.head(ad.reshape(h, (b, -1)))          # [re..., im...] per row
        return CplxNode(ad.moveaxis(ad.reshape(h, (b, 2) + self.grid_shape), 1, -1))


class _DecoderTrunk(Module):
    """Flat receiver features (B, F) -> image (B, H, W, C) in [0, 1].

    The hidden pre-head layer is what lets receivers that only see raw
    symbols (pilots + data, no closed-form stage) synthesize the
    multiplicative channel-inversion relationship before the spatial stack.
    """

    def __init__(self, cfg: ModelConfig, rng):
        w1, w2 = cfg.width1, cfg.width2
        self.hb, self.wb = cfg.image_h // 4, cfg.image_w // 4
        self.w2 = w2
        self.pre = Dense(2 * cfg.ofdm.n_s * cfg.ofdm.l_fft, cfg.head_hidden, rng)
        self.head = Dense(cfg.head_hidden, self.hb * self.wb * w2, rng)
        self.bn_in = BatchNorm(w2)
        self.res = _ResBlock(w2, rng)
        self.conv_up1 = Conv2d(3, 3, w2, w1, rng, bias=False)
        self.bn_up1 = BatchNorm(w1)
        self.conv_up2 = Conv2d(3, 3, w1, w1, rng, bias=False)
        self.bn_up2 = BatchNorm(w1)
        self.conv_out = Conv2d(3, 3, w1, cfg.image_c, rng)

    def __call__(self, feat: Node, train: bool) -> Node:
        b = feat.value.shape[0]
        h = ad.relu(self.pre(feat))
        h = ad.reshape(self.head(h), (b, self.hb, self.wb, self.w2))
        h = ad.relu(self.bn_in(h, train))
        h = self.res(h, train)
        h = ad.relu(self.bn_up1(ad.conv_up2x(h, self.conv_up1.w), train))
        h = ad.relu(self.bn_up2(ad.conv_up2x(h, self.conv_up2.w), train))
        return ad.sigmoid(self.conv_out(h))


class _Subnet(Module):
    """Conv -> BN -> ReLU -> Conv -> BN residual head; identity at init.

    Operates on (B, H, W, C_in) and returns a complex (B, H, W) tensor, its
    (re, im) the two output channels; 1-D inputs use H = 1 with a (1, 3)
    kernel.
    """

    def __init__(self, c_in: int, hidden: int, rng, one_d: bool):
        kh = 1 if one_d else 3
        self.conv1 = Conv2d(kh, 3, c_in, hidden, rng, bias=False)
        self.bn1 = BatchNorm(hidden)
        self.conv2 = Conv2d(kh, 3, hidden, 2, rng, bias=False)
        self.bn2 = BatchNorm(2, gamma_init=0.0)

    def __call__(self, x: Node, train: bool) -> CplxNode:
        h = ad.relu(self.bn1(self.conv1(x), train))
        return CplxNode(self.bn2(self.conv2(h), train))       # channels (re, im)


class _ImplicitFront(Module):
    """Learned per-subcarrier receiver for the implicit variant.

    Sees only raw observations — the equalizer input a hand-designed receiver
    would get (data rows, pilot observations, known pilot values per
    subcarrier) — and maps them to per-subcarrier symbol features with a
    small MLP applied as 1x1 convolutions. Sharing the weights across
    subcarriers means the inversion only has to be learned once, instead of
    independently for every flattened input position.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        o = cfg.ofdm
        self.n_s, self.l_fft = o.n_s, o.l_fft
        c_in = 2 * o.n_s + 4 * o.n_p
        m = cfg.front_hidden
        self.conv1 = Conv2d(1, 1, c_in, m, rng, bias=False)
        self.bn1 = BatchNorm(m)
        self.conv2 = Conv2d(1, 1, m, m, rng, bias=False)
        self.bn2 = BatchNorm(m)
        self.conv3 = Conv2d(1, 1, m, 2 * o.n_s, rng)

    def __call__(self, pilot_rx: CplxNode, data_rx: CplxNode,
                 known: np.ndarray, train: bool) -> CplxNode:
        b, l = pilot_rx.shape[0], self.l_fft
        # channels per subcarrier: the re rows then the im rows of each grid
        chans = [ad.reshape(ad.moveaxis(g.z, 1, -1), (b, 1, l, -1))
                 for g in (data_rx, pilot_rx)]
        kn = np.concatenate([known.real, known.imag], axis=0).T  # (l_fft, 2 n_p)
        chans.append(ad.constant(np.broadcast_to(kn, (b, 1) + kn.shape)))
        h = ad.concat(chans, axis=3)
        h = ad.relu(self.bn1(self.conv1(h), train))
        h = ad.relu(self.bn2(self.conv2(h), train))
        out = self.conv3(h)                                      # (B, 1, L, 2 n_s)
        return CplxNode(ad.moveaxis(ad.reshape(out, (b, l, 2, self.n_s)), -1, 1))


def _flatten_cplx(z: CplxNode) -> Node:
    """(B, ...) complex -> (B, F) real features, all real parts first."""
    return ad.reshape(ad.moveaxis(z.z, -1, 1), (z.shape[0], -1))


class JsccModel(Module):
    """End-to-end transceiver: encoder, channel interface and decoder."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.pilots = make_pilots(cfg.ofdm.pilot_seed, cfg.ofdm.n_p, cfg.ofdm.l_fft)
        self.enc = _Encoder(cfg, rng)
        self.dec = _DecoderTrunk(cfg, rng)
        self.front = _ImplicitFront(cfg, rng) if cfg.variant == "implicit" else None
        if cfg.variant == "explicit":
            self.sub_h = _Subnet(2 + 4 * cfg.ofdm.n_p, cfg.subnet_hidden, rng, one_d=True)
            self.sub_eq = _Subnet(4, cfg.subnet_hidden, rng, one_d=False)

    @property
    def rx_len(self) -> int:
        """Received samples per image: the trailing shape of ``forward``'s noise."""
        o = self.cfg.ofdm
        return o.n_s * o.l_fft if self.cfg.variant == "direct" else o.packet_len

    # -- forward -----------------------------------------------------------

    def encode(self, x: Node, train: bool) -> CplxNode:
        return self.enc(x, train)

    def explicit_front(self, pilot_rx: CplxNode, data_rx: CplxNode, sigma_sq: float,
                       train: bool) -> tuple[CplxNode, CplxNode]:
        """Estimate + equalize with learned residual refinements.

        Returns ``(h_ref, y_ref)``; at initialization, where the subnet output
        is exactly zero, this is the plain DSP pipeline.
        """
        b = pilot_rx.shape[0]
        cfg = self.cfg.ofdm
        h_hat = estimate_channel_mmse(pilot_rx, self.pilots, sigma_sq)
        # per subcarrier: H_hat, then (re, im) of each known and received pilot row
        p = self.pilots
        known = np.stack([p.real, p.imag], -1).transpose(1, 0, 2).reshape(cfg.l_fft, -1)
        rows = ad.reshape(ad.moveaxis(pilot_rx.z, 1, 2), (b, cfg.l_fft, -1))
        feat = ad.concat([h_hat.z, ad.constant(np.broadcast_to(known, rows.shape)), rows],
                         axis=-1)
        delta = self.sub_h(ad.reshape(feat, (b, 1) + feat.value.shape[1:]), train)
        h_ref = cplx.add(h_hat, cplx.reshape(delta, (b, cfg.l_fft)))
        y_eq = equalize_mmse(data_rx, h_ref, sigma_sq)
        hexp = cplx.tile(cplx.reshape(h_ref, (b, 1, cfg.l_fft)), 1, cfg.n_s)
        feat = ad.concat([y_eq.z, hexp.z], axis=-1)
        return h_ref, cplx.add(y_eq, self.sub_eq(feat, train))

    def forward(self, x: np.ndarray, taps: np.ndarray, sigma_sq: float,
                clip_ratio: float = math.inf, train: bool = False,
                noise: np.ndarray | None = None) -> tuple[Node, TxPacket]:
        """Run the full chain on a batch of images.

        ``taps`` is the per-image channel realization (B, n_taps); ``noise``
        is the additive noise (complex, (B, ``rx_len``)), required when
        ``sigma_sq > 0`` and rejected when ``sigma_sq == 0``; ``sigma_sq``
        must be >= 0. Returns the reconstruction node and the transmitted
        packet (for power/PAPR reporting).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != (self.cfg.image_h, self.cfg.image_w,
                                          self.cfg.image_c):
            raise ValueError(f"forward: expected (B, {self.cfg.image_h}, "
                             f"{self.cfg.image_w}, {self.cfg.image_c}), got {x.shape}")
        if not sigma_sq >= 0.0:     # NaN too
            raise ValueError(f"forward: sigma_sq must be >= 0, got {sigma_sq}")
        if (noise is None) == (sigma_sq > 0.0):
            raise ValueError(f"forward: noise must be given exactly when sigma_sq > 0 "
                             f"(sigma_sq={sigma_sq}, noise given: {noise is not None})")
        grid = self.encode(ad.constant(x), train)
        b = x.shape[0]
        cfg = self.cfg.ofdm

        if self.cfg.variant == "direct":   # no OFDM frame, so nothing to clip
            tx, gain = normalize_power(cplx.reshape(grid, (b, cfg.n_s * cfg.l_fft)))
            pkt = TxPacket(tx=tx, preclip=tx, gain=gain.value)
        else:
            pkt = assemble_packet(grid, self.pilots, cfg, clip_ratio)

        rx = apply_channel(pkt.tx, taps, 0.0)
        if noise is not None:
            rx = cplx.add(rx, cplx.const(noise))

        if self.cfg.variant == "direct":
            y = rx
        else:
            pilot_rx, data_rx = disassemble_packet(rx, cfg)
            if self.cfg.variant == "implicit":
                y = self.front(pilot_rx, data_rx, self.pilots, train)
            else:
                _, y = self.explicit_front(pilot_rx, data_rx, sigma_sq, train)
        return self.dec(_flatten_cplx(y), train), pkt


def build_model(cfg: ModelConfig, seed: int) -> JsccModel:
    """Construct a model with the documented init stream (seed, spawn_key=(1,))."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    return JsccModel(cfg, rng)
