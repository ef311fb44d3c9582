"""Image file I/O, the synthetic corpus generator and the checkpoint container
format, including the failure modes that must be loud."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmjscc.data import (CheckpointError, ImageFormatError, load_checkpoint,
                           load_image, save_checkpoint, save_image,
                           synth_dataset)

from conftest import rewrite_meta


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------

def test_pgm_round_trip_bytes(tmp_path, rng):
    img = rng.random((9, 7, 1))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_image(p1, img)
    loaded = load_image(p1)
    assert loaded.shape == (9, 7, 1)
    assert np.abs(loaded - img).max() <= 0.5 / 255 + 1e-12  # quantization only
    save_image(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()  # canonical form is a fixpoint


def test_ppm_round_trip_bytes(tmp_path, rng):
    img = rng.random((5, 6, 3))
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    save_image(p1, img)
    save_image(p2, load_image(p1))
    assert p1.read_bytes() == p2.read_bytes()
    assert load_image(p1).shape == (5, 6, 3)


def test_load_image_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes(range(6))
    path.write_bytes(b"P5 # comment after magic\n# a full comment line\n3 2\n255\n" + body)
    img = load_image(path)
    assert img.shape == (2, 3, 1)
    assert np.allclose(img.reshape(-1), np.arange(6) / 255.0)


def test_load_image_exact_values(tmp_path):
    path = tmp_path / "v.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
    assert np.array_equal(load_image(path).reshape(-1), [0.0, 1.0])


@pytest.mark.parametrize("blob", [
    b"P4\n2 2\n255\n" + b"\x00" * 4,          # wrong magic
    b"P5\n2 2\n65535\n" + b"\x00" * 8,        # 16-bit depth not supported
    b"P5\n2 2\n255\n\x00\x00",                # truncated payload
    b"P5\n2\n255\n\x00\x00",                  # header runs out of tokens
    b"P5\nx 2\n255\n\x00\x00",                # non-numeric dimension
    b"P5\n0 2\n255\n",                        # zero width
])
def test_load_image_malformed(tmp_path, blob):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(ImageFormatError):
        load_image(path)


def test_save_image_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError):
        save_image(tmp_path / "x.ppm", np.zeros((4, 4, 2)))


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------

def test_synth_dataset_shape_and_range():
    imgs = synth_dataset(9, 16, 16, 3, seed=0)
    assert imgs.shape == (9, 16, 16, 3)
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0
    assert 0.3 < imgs.mean() < 0.7  # centred around mid-gray


def test_synth_dataset_deterministic():
    a = synth_dataset(5, 8, 8, 1, seed=3)
    b = synth_dataset(5, 8, 8, 1, seed=3)
    assert np.array_equal(a, b)
    c = synth_dataset(5, 8, 8, 1, seed=4)
    assert not np.array_equal(a, c)


def test_synth_dataset_is_diverse():
    imgs = synth_dataset(6, 16, 16, 1, seed=1)
    # mixture of families: no two images identical, nontrivial variance
    for i in range(6):
        for j in range(i + 1, 6):
            assert not np.array_equal(imgs[i], imgs[j])
    assert imgs.std(axis=(1, 2, 3)).min() > 0.01


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _tiny_ckpt(path, rng):
    params = [("w", rng.standard_normal((3, 2))), ("b", rng.standard_normal(2))]
    buffers = [("rm", np.zeros(2)), ("rv", np.ones(2))]
    opt = {"step": 7, "m": [np.zeros((3, 2)), np.zeros(2)],
           "v": [np.ones((3, 2)), np.ones(2)]}
    save_checkpoint(path, params=params, buffers=buffers,
                    train_config={"seed": 1, "lr": 1e-3},
                    opt_state=opt, rng_state={"state": 42})
    return params, buffers, opt


def test_checkpoint_round_trip_bitwise(tmp_path, rng):
    path = tmp_path / "m.jscc"
    params, buffers, opt = _tiny_ckpt(path, rng)
    ck = load_checkpoint(path)
    assert ck["train_config"] == {"seed": 1, "lr": 1e-3}
    assert ck["rng_state"] == {"state": 42}
    for (n, v), (n2, v2) in zip(params, ck["params"]):
        assert n == n2 and np.array_equal(v, v2) and v2.dtype == np.float64
    for (n, v), (n2, v2) in zip(buffers, ck["buffers"]):
        assert n == n2 and np.array_equal(v, v2)
    assert ck["opt_state"]["step"] == 7
    # byte-for-byte reproducible serialization
    path2 = tmp_path / "m2.jscc"
    save_checkpoint(path2, params=ck["params"], buffers=ck["buffers"],
                    train_config=ck["train_config"], opt_state=ck["opt_state"],
                    rng_state=ck["rng_state"])
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path, rng):
    path = tmp_path / "m.jscc"
    _tiny_ckpt(path, rng)
    raw = bytearray(path.read_bytes())
    raw[:2] = b"XX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_unknown_version(tmp_path, rng):
    path = tmp_path / "m.jscc"
    _tiny_ckpt(path, rng)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 5, 99)  # version lives right after the magic
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path, rng):
    path = tmp_path / "m.jscc"
    _tiny_ckpt(path, rng)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 5])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_blob_shape_mismatch(tmp_path, rng):
    # metadata promising more parameter bytes than the blob holds must fail
    path = tmp_path / "m.jscc"
    _tiny_ckpt(path, rng)
    rewrite_meta(path, lambda meta: meta["params"][0].update(shape=[5]))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, match", [
    (lambda meta: meta.pop("buffers"), "lacks buffers"),
    (lambda meta: meta.pop("rng_state"), "lacks rng_state"),
    (lambda meta: meta["params"][1].pop("name"), r"params\[1\] lacks name"),
    (lambda meta: meta["buffers"][0].pop("shape"), r"buffers\[0\] lacks name or shape"),
    (lambda meta: meta["opt"].pop("step"), "opt lacks step"),
    (lambda meta: meta.update(opt=None), "metadata opt lacks step"),
])
def test_checkpoint_incomplete_metadata(tmp_path, rng, edit, match):
    path = tmp_path / "m.jscc"
    _tiny_ckpt(path, rng)
    rewrite_meta(path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, match", [
    (lambda meta: meta["params"][0].update(shape=6), r"params\[0\] has bad shape 6"),
    (lambda meta: meta["params"][1].update(shape=["a"]), r"params\[1\] has bad shape"),
    (lambda meta: meta["params"][0].update(shape=[-2, -3]), r"params\[0\] has bad shape"),
    (lambda meta: meta["buffers"][0].update(shape=[True, 2]), r"buffers\[0\] has bad shape"),
    (lambda meta: meta["opt"].update(step="x"), "opt has bad step 'x'"),
    (lambda meta: meta["opt"].update(step=-1), "opt has bad step -1"),
])
def test_checkpoint_malformed_metadata(tmp_path, rng, edit, match):
    path = tmp_path / "m.jscc"
    _tiny_ckpt(path, rng)
    rewrite_meta(path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path, rng):
    path = tmp_path / "m.jscc"
    _tiny_ckpt(path, rng)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(path)


_tensor_sets = st.lists(st.tuples(st.text(max_size=6),
                                  st.lists(st.integers(0, 3), max_size=3).map(tuple)),
                        max_size=4)


@st.composite
def _checkpoint_contents(draw):
    """Random parameter and buffer sets with their optimizer moments."""
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = [(n, r.standard_normal(s)) for n, s in draw(_tensor_sets)]
    buffers = [(n, r.standard_normal(s)) for n, s in draw(_tensor_sets)]
    opt = {"step": draw(st.integers(0, 10 ** 6)),
           "m": [r.standard_normal(v.shape) for _, v in params],
           "v": [r.uniform(0, 1, v.shape) for _, v in params]}
    return params, buffers, opt


def _save(path, params, buffers, opt):
    save_checkpoint(path, params=params, buffers=buffers, train_config={"seed": 3},
                    opt_state=opt, rng_state={"s": [1, 2]})


def _same_tensors(got, want):
    return len(got) == len(want) and all(
        n == n2 and v.shape == np.shape(v2) and v.dtype == np.float64
        and np.array_equal(v, v2) for (n, v), (n2, v2) in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(_checkpoint_contents())
def test_checkpoint_round_trip_property(tmp_path_factory, contents):
    params, buffers, opt = contents
    path = tmp_path_factory.mktemp("ck") / "m.jscc"
    _save(path, params, buffers, opt)
    ck = load_checkpoint(path)
    assert _same_tensors(ck["params"], params) and _same_tensors(ck["buffers"], buffers)
    assert ck["opt_state"]["step"] == opt["step"]
    for key in ("m", "v"):
        assert all(np.array_equal(a, b) for a, b in zip(ck["opt_state"][key], opt[key]))
    again = path.with_name("again.jscc")
    _save(again, ck["params"], ck["buffers"], ck["opt_state"])
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=10, deadline=None)
@given(_checkpoint_contents())
def test_checkpoint_truncation_at_every_offset(tmp_path_factory, contents):
    path = tmp_path_factory.mktemp("ck") / "m.jscc"
    _save(path, *contents)
    raw = path.read_bytes()
    cut = path.with_name("cut.jscc")
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)
