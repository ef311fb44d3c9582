"""Image I/O (binary PGM/PPM), synthetic dataset generation and checkpoints.

Images live in memory as float64 arrays of shape (H, W, C) with values in
[0, 1]; C is 1 (PGM) or 3 (PPM), maxval is fixed to 255.

Checkpoints are a single binary file: magic ``JSCC1``, a version word, then
length-prefixed sections (JSON metadata, parameter blob, buffer blob,
optimizer moment blobs) with all floats little-endian float64. The metadata's
``train_config`` is the only description of the model; ``train_config_sha256``
beside it catches a hand edit. Saving and loading round-trips bitwise.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import BinaryIO

import numpy as np

CHECKPOINT_MAGIC = b"JSCC1"
CHECKPOINT_VERSION = 1


class ImageFormatError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Netpbm I/O
# ---------------------------------------------------------------------------

def _read_token(f: BinaryIO) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comments."""
    tok = b""
    while True:
        ch = f.read(1)
        if ch == b"":
            raise ImageFormatError("truncated header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def load_image(path) -> np.ndarray:
    """Load a binary PGM (P5) or PPM (P6) file as float64 (H, W, C) in [0, 1]."""
    with open(path, "rb") as f:
        magic = _read_token(f)
        if magic not in (b"P5", b"P6"):
            raise ImageFormatError(f"unsupported magic {magic!r} (want P5/P6)")
        channels = 1 if magic == b"P5" else 3
        try:
            width = int(_read_token(f))
            height = int(_read_token(f))
            maxval = int(_read_token(f))
        except ValueError as e:
            raise ImageFormatError(f"malformed header: {e}") from None
        if width < 1 or height < 1:
            raise ImageFormatError(f"bad dimensions {width}x{height}")
        if maxval != 255:
            raise ImageFormatError(f"unsupported maxval {maxval} (only 255)")
        n = width * height * channels
        payload = f.read(n)
        if len(payload) != n:
            raise ImageFormatError(f"truncated payload: {len(payload)} of {n} bytes")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return arr.astype(np.float64) / 255.0


def save_image(path, img: np.ndarray) -> None:
    """Write (H, W, C) float values in [0, 1] as binary PGM/PPM, maxval 255.

    The header is canonical (``P5\\n<w> <h>\\n255\\n``), so files produced here
    round-trip byte-identically through :func:`load_image`.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ValueError(f"save_image: need (H, W, 1|3), got {img.shape}")
    h, w, c = img.shape
    magic = b"P5" if c == 1 else b"P6"
    q = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(magic + b"\n" + f"{w} {h}\n255\n".encode())
        f.write(q.tobytes())


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------

def synth_dataset(n: int, height: int, width: int, channels: int,
                  seed: int) -> np.ndarray:
    """Deterministic compressible images: (n, H, W, C) float64 in [0, 1].

    Image ``i`` cycles through three families: smooth linear gradients, flat
    backgrounds with a few axis-aligned rectangles, and band-limited noise.
    All components are centered near mid-gray so the dataset mean stays in
    [0.4, 0.6]. Everything derives from ``np.random.default_rng(seed)``.
    """
    if n < 1 or height < 1 or width < 1 or channels not in (1, 3):
        raise ValueError(f"synth_dataset: bad shape n={n}, {height}x{width}x{channels}")
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, height),
                         np.linspace(0.0, 1.0, width), indexing="ij")
    out = np.empty((n, height, width, channels))
    for i in range(n):
        kind = i % 3
        if kind == 0:
            theta = rng.uniform(0.0, 2 * np.pi)
            amp = rng.uniform(0.2, 0.45)
            t = (np.cos(theta) * (xx - 0.5) + np.sin(theta) * (yy - 0.5))
            base = 0.5 + amp * 2.0 * t
        elif kind == 1:
            base = np.full((height, width), rng.uniform(0.35, 0.65))
            for _ in range(int(rng.integers(2, 5))):
                y0, y1 = np.sort(rng.integers(0, height, size=2) + np.array([0, 1]))
                x0, x1 = np.sort(rng.integers(0, width, size=2) + np.array([0, 1]))
                base[y0:y1, x0:x1] = rng.uniform(0.1, 0.9)
        else:
            white = rng.standard_normal((height, width))
            spec = np.fft.rfft2(white)
            fy = np.fft.fftfreq(height)[:, None]
            fx = np.fft.rfftfreq(width)[None, :]
            spec *= (np.sqrt(fy ** 2 + fx ** 2) <= 0.25)
            low = np.fft.irfft2(spec, s=(height, width))
            sd = low.std()
            base = 0.5 + 0.12 * (low / sd if sd > 0 else low)
        for c in range(channels):
            tint = rng.uniform(-0.05, 0.05) if channels > 1 else 0.0
            out[i, :, :, c] = base + tint
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _write_section(f: BinaryIO, payload: bytes) -> None:
    f.write(struct.pack("<Q", len(payload)))
    f.write(payload)


def _read_section(f: BinaryIO) -> bytes:
    head = f.read(8)
    if len(head) != 8:
        raise CheckpointError("truncated checkpoint (missing section length)")
    (n,) = struct.unpack("<Q", head)
    payload = f.read(n)
    if len(payload) != n:
        raise CheckpointError(f"truncated checkpoint section ({len(payload)} of {n} bytes)")
    return payload


def _digest(train_config) -> str:
    return hashlib.sha256(json.dumps(train_config, sort_keys=True).encode()).hexdigest()


def save_checkpoint(path, *, params: list[tuple[str, np.ndarray]],
                    buffers: list[tuple[str, np.ndarray]], train_config: dict,
                    opt_state: dict, rng_state: dict) -> None:
    """Serialize model + training state.

    ``params`` are the trainable tensors (order defines the blob layout and
    must match the optimizer moments); ``buffers`` are non-trained state such
    as normalization running statistics; ``train_config`` is the settings
    dict the model is rebuilt from; its SHA-256 is stored beside it.
    """
    meta = {
        "train_config": train_config,
        "train_config_sha256": _digest(train_config),
        "rng_state": rng_state,
        "params": [{"name": name, "shape": list(np.asarray(v).shape)}
                   for name, v in params],
        "buffers": [{"name": name, "shape": list(np.asarray(v).shape)}
                    for name, v in buffers],
        "opt": {"step": int(opt_state["step"])},
    }
    blobs = [[v for _, v in params], [v for _, v in buffers], opt_state["m"], opt_state["v"]]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        _write_section(f, json.dumps(meta, sort_keys=True).encode())
        for arrays in blobs:
            _write_section(f, b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                                       for a in arrays))


def _split_blob(blob: bytes, shapes: list[tuple[int, ...]], what: str) -> list[np.ndarray]:
    sizes = [int(np.prod(s)) if s else 1 for s in shapes]
    want = 8 * sum(sizes)
    if len(blob) != want:
        raise CheckpointError(f"{what} blob is {len(blob)} bytes, expected {want} "
                              "(architecture mismatch?)")
    flat = np.frombuffer(blob, dtype="<f8")
    out, off = [], 0
    for shape, size in zip(shapes, sizes):
        out.append(flat[off:off + size].reshape(shape).astype(np.float64))
        off += size
    return out


_META_KEYS = ("train_config", "rng_state", "params", "buffers", "opt")


def _entries(meta: dict, key: str) -> tuple[list[str], list[tuple[int, ...]]]:
    """Names and shapes of the ``params`` or ``buffers`` metadata entries."""
    entries = meta[key]
    if not isinstance(entries, list):
        raise CheckpointError(f"metadata {key} is not a list")
    names, shapes = [], []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or "name" not in e or "shape" not in e:
            raise CheckpointError(f"metadata {key}[{i}] lacks name or shape")
        shape = e["shape"]      # type(d) is int: a JSON true/false is not a size
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(f"metadata {key}[{i}] has bad shape {shape!r}")
        names.append(e["name"])
        shapes.append(tuple(shape))
    return names, shapes


def load_checkpoint(path) -> dict:
    """Inverse of :func:`save_checkpoint`.

    Returns ``{"train_config", "rng_state", "params", "buffers", "opt_state"}``
    where ``params`` and ``buffers`` are lists of (name, array). Metadata keys
    it does not read (the ``arch`` of older files) are ignored. Raises
    :class:`CheckpointError` on bad magic/version, truncation, trailing bytes,
    metadata missing a section or an entry's name/shape, a shape or step that
    is not a non-negative integer (list), a ``train_config`` that does not
    match its ``train_config_sha256`` (older files have none), or blob/shape
    mismatches.
    """
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        head = f.read(4)
        if len(head) != 4:
            raise CheckpointError("truncated checkpoint (missing version)")
        (version,) = struct.unpack("<I", head)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        try:
            meta = json.loads(_read_section(f).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"corrupt metadata: {e}") from None
        blob = _read_section(f)
        buf_blob = _read_section(f)
        m_blob = _read_section(f)
        v_blob = _read_section(f)
        if f.read(1):
            raise CheckpointError("trailing bytes after the last section")

    if not isinstance(meta, dict):
        raise CheckpointError("corrupt metadata: not a JSON object")
    missing = [k for k in _META_KEYS if k not in meta]
    if missing:
        raise CheckpointError(f"metadata lacks {', '.join(missing)}")
    digest = _digest(meta["train_config"])
    if meta.get("train_config_sha256", digest) != digest:
        raise CheckpointError("metadata train_config does not match its digest "
                              "train_config_sha256 (edited by hand?)")
    names, shapes = _entries(meta, "params")
    values = _split_blob(blob, shapes, "parameter")
    buf_names, buf_shapes = _entries(meta, "buffers")
    buf_values = _split_blob(buf_blob, buf_shapes, "buffer")
    if not isinstance(meta["opt"], dict) or "step" not in meta["opt"]:
        raise CheckpointError("metadata opt lacks step")
    step = meta["opt"]["step"]
    if type(step) is not int or step < 0:
        raise CheckpointError(f"metadata opt has bad step {step!r}")
    return {
        "train_config": meta["train_config"],
        "rng_state": meta["rng_state"],
        "params": list(zip(names, values)),
        "buffers": list(zip(buf_names, buf_values)),
        "opt_state": {"step": step, "m": _split_blob(m_blob, shapes, "optimizer m"),
                      "v": _split_blob(v_blob, shapes, "optimizer v")},
    }
