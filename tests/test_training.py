"""Optimizer mathematics, the schedule, loop determinism and checkpoint
round-trips."""

import math

import numpy as np
import pytest

import ofdmjscc.autodiff as ad
import ofdmjscc.training as training
from ofdmjscc.channel import sample_channel, snr_to_sigma_sq
from ofdmjscc.data import load_checkpoint, save_checkpoint
from ofdmjscc.metrics import psnr
from ofdmjscc.model import build_model
from ofdmjscc.training import (Adam, TrainConfig, evaluate, lr_at, mse_loss,
                               rng_stream, train)
from conftest import tiny_model_cfg


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _manual_adam_step(p, g, m, v, t, lr, b1=0.5, b2=0.999, eps=1e-8):
    # independent reference: biased moments, bias correction, eps added to
    # the root (not under it)
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mh = m / (1 - b1 ** t)
    vh = v / (1 - b2 ** t)
    return p - lr * mh / (np.sqrt(vh) + eps), m, v


def test_adam_matches_manual_reference(rng):
    p0 = rng.standard_normal(5)
    node = ad.leaf(p0.copy(), op="param")
    opt = Adam([("p", node)])
    p_ref, m_ref, v_ref = p0.copy(), np.zeros(5), np.zeros(5)
    for t in range(1, 6):
        g = rng.standard_normal(5)
        opt.step({node: g}, lr=0.01)
        p_ref, m_ref, v_ref = _manual_adam_step(p_ref, g, m_ref, v_ref, t, 0.01)
        assert np.allclose(node.value, p_ref, atol=1e-15), f"step {t}"


def test_adam_descends_quadratic_bowl():
    # min sum(p^2): 400 steps from |p| ~ 1 should land at machine-scale radius
    node = ad.leaf(np.array([1.0, -0.7, 0.3]), op="param")
    opt = Adam([("p", node)])
    for _ in range(400):
        loss = ad.sum_all(ad.mul(node, node))
        g = ad.backward(loss)[node]
        opt.step({node: g}, lr=0.01)
    assert np.abs(node.value).max() < 1e-3


def test_adam_zero_gradient_is_noop():
    node = ad.leaf(np.array([1.0, 2.0]), op="param")
    opt = Adam([("p", node)])
    opt.step({node: np.zeros(2)}, lr=0.5)
    assert np.array_equal(node.value, [1.0, 2.0])


def _adam_snapshot(opt):
    """Everything a step may change: the step count, both moment lists and every parameter."""
    state = opt.state()
    return state["step"], [x.tobytes() for x in
                           state["m"] + state["v"] + [p.value for _, p in opt.params]]


def test_adam_missing_gradient_is_an_error(rng):
    # a parameter the loss cannot reach indicates a wiring bug
    a = ad.leaf(np.ones(2), op="param")
    b = ad.leaf(np.ones(2), op="param")
    opt = Adam([("a", a), ("b", b)])
    before = _adam_snapshot(opt)
    with pytest.raises(KeyError, match="b"):
        opt.step({a: np.ones(2)}, lr=0.1)
    assert _adam_snapshot(opt) == before     # a rejected step changes nothing


def test_adam_gets_no_gradient_through_no_grad(rng):
    # a loss recorded under no_grad reaches no parameter
    w = ad.leaf(rng.standard_normal(3), op="param")
    with ad.no_grad():
        loss = mse_loss(ad.mul(w, w), np.zeros(3))
    with pytest.raises(KeyError, match="w"):
        Adam([("w", w)]).step(ad.backward(loss), lr=0.1)


def test_adam_rejects_nonfinite_gradients():
    node = ad.leaf(np.ones(2), op="param")
    opt = Adam([("p", node)])
    with pytest.raises(FloatingPointError):
        opt.step({node: np.array([1.0, np.inf])}, lr=0.1)


def _unblocked_adam_step(p, g, m, v, t, lr, b1=0.5, b2=0.999, eps=1e-8):
    # the whole-array expressions, in the order Adam.step evaluates per block
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * (g * g)
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    return p - lr * (m / c1) / (np.sqrt(v / c2) + eps), m, v


@pytest.mark.parametrize("shape", [(3, training.ADAM_BLOCK + 41), (1,)])
def test_adam_blocked_update_is_bitwise_unblocked(rng, shape):
    # (3, BLOCK + 41) spans three full blocks plus a ragged tail of 123
    p0 = rng.standard_normal(shape)
    node = ad.leaf(p0, op="param")
    opt = Adam([("p", node)])
    p_ref, m_ref, v_ref = p0, np.zeros(shape), np.zeros(shape)
    for t in range(1, 4):
        g = rng.standard_normal(shape) * 10.0 ** (t - 2)
        opt.step({node: g}, lr=1e-3)
        p_ref, m_ref, v_ref = _unblocked_adam_step(p_ref, g, m_ref, v_ref, t, 1e-3)
        assert node.value.tobytes() == p_ref.tobytes(), f"step {t}"
        assert opt.m[0].tobytes() == m_ref.tobytes()
        assert opt.v[0].tobytes() == v_ref.tobytes()
    assert node.value.shape == shape and not node.value.flags.writeable


def test_adam_nonfinite_gradient_leaves_that_tensor_untouched(rng):
    a = ad.leaf(rng.standard_normal(4), op="param")
    b = ad.leaf(rng.standard_normal((2, 3)), op="param")
    opt = Adam([("a", a), ("b", b)])
    opt.step({a: rng.standard_normal(4), b: rng.standard_normal((2, 3))}, lr=0.1)
    b_value, before = b.value, _adam_snapshot(opt)
    bad = rng.standard_normal((2, 3))
    bad[1, 2] = np.nan
    with pytest.raises(FloatingPointError, match="b"):
        opt.step({a: rng.standard_normal(4), b: bad}, lr=0.1)
    assert b.value is b_value
    assert _adam_snapshot(opt) == before     # nor does a, listed before b, move


def test_adam_rejects_gradient_of_wrong_shape():
    node = ad.leaf(np.ones((2, 3)), op="param")
    with pytest.raises(ValueError, match="gradient for p has shape"):
        Adam([("p", node)]).step({node: np.ones(6)}, lr=0.1)


def test_adam_load_state_checks_shapes_and_copies(rng):
    a = ad.leaf(rng.standard_normal((2, 3)), op="param")
    b = ad.leaf(rng.standard_normal(4), op="param")
    opt = Adam([("a", a), ("b", b)])
    m_a = np.asfortranarray(rng.standard_normal((2, 3)))
    m_a.setflags(write=False)
    state = {"step": 2, "m": [m_a, np.zeros(4, np.float32)], "v": [np.ones((2, 3)), np.ones(4)]}
    opt.load_state(state)
    for arr in opt.m + opt.v:
        assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.writeable
    assert np.array_equal(opt.m[0], m_a) and not np.shares_memory(opt.v[1], state["v"][1])
    opt.step({a: np.ones((2, 3)), b: np.ones(4)}, lr=0.1)   # writes into the copies
    assert np.array_equal(state["v"][1], np.ones(4))
    bad = {"step": 2, "m": [np.zeros((2, 3)), np.zeros(4)],
           "v": [np.zeros((2, 3)), np.zeros(5)]}
    with pytest.raises(ValueError, match="v for b"):
        opt.load_state(bad)
    with pytest.raises(ValueError, match="m for a"):
        opt.load_state({"step": 0, "m": [np.zeros(6), np.zeros(4)], "v": bad["v"]})
    assert opt.step_count == 3     # a rejected state changes nothing


def test_adam_state_round_trip(rng):
    node = ad.leaf(rng.standard_normal(3), op="param")
    opt = Adam([("p", node)])
    for _ in range(3):
        opt.step({node: rng.standard_normal(3)}, lr=0.05)
    st = opt.state()
    opt2 = Adam([("p", node)])
    opt2.load_state(st)
    assert opt2.step_count == opt.step_count
    assert all(np.array_equal(a, b) for a, b in zip(opt.m, opt2.m))
    assert all(np.array_equal(a, b) for a, b in zip(opt.v, opt2.v))


# ---------------------------------------------------------------------------
# schedule and loss
# ---------------------------------------------------------------------------

def test_lr_schedule_linear_tail():
    tcfg = TrainConfig(epochs=10, lr=1e-3, lr_decay_start=4)
    assert lr_at(tcfg, 0) == 1e-3
    assert lr_at(tcfg, 4) == 1e-3  # decay begins after this epoch
    assert abs(lr_at(tcfg, 7) - 1e-3 * (10 - 7) / (10 - 4)) < 1e-18
    assert lr_at(tcfg, 9) == pytest.approx(1e-3 / 6)
    assert all(lr_at(tcfg, e) >= lr_at(tcfg, e + 1) for e in range(9))


def test_mse_loss_value(rng):
    pred = rng.random((2, 3))
    target = rng.random((2, 3))
    loss = mse_loss(ad.leaf(pred), target)
    assert abs(float(loss.value) - np.mean((pred - target) ** 2)) < 1e-15
    with pytest.raises(ValueError):
        mse_loss(ad.leaf(pred), target[:1])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(snr_db_min=5.0)  # half-open random-SNR range
    cfg = TrainConfig(snr_db_min=0.0, snr_db_max=20.0)
    assert cfg.random_snr


@pytest.mark.parametrize("field, value", [("lr", "x"), ("epochs", 2.0), ("epochs", True),
                                          ("snr_db", True), ("snr_db_min", "none")])
def test_train_config_field_types(field, value):
    # types come from the annotations: X | None allows None, a float field takes
    # an int, and a bool is never a number
    with pytest.raises(ValueError, match=f"{field} must be"):
        TrainConfig(**{field: value})
    assert TrainConfig(lr=1, snr_db_min=None, snr_db_max=None).lr == 1


def test_rng_stream_keys_are_independent():
    a = rng_stream(0, 2).standard_normal(4)
    b = rng_stream(0, 3).standard_normal(4)
    c = rng_stream(0, 2).standard_normal(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)
    d = rng_stream(0, 3, 1, 2).standard_normal(4)
    e = rng_stream(0, 3, 1, 3).standard_normal(4)
    assert not np.array_equal(d, e)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _toy_images(n=8):
    return np.random.default_rng(99).random((n, 8, 8, 1))


def _toy_tcfg(**kw):
    base = dict(epochs=2, batch_size=4, lr=1e-3, lr_decay_start=1,
                snr_db=10.0, n_taps=3, gamma=4.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_runs_and_reports(rng):
    model = build_model(tiny_model_cfg("implicit"), seed=0)
    history = train(model, _toy_images(), _toy_tcfg())
    assert [h["epoch"] for h in history] == [0, 1]
    assert all(math.isfinite(h["loss"]) for h in history)
    assert history[0]["lr"] == 1e-3
    assert history[1]["steps"] == 4  # 8 images / batch 4, two epochs


def test_train_is_bitwise_deterministic():
    imgs = _toy_images()
    runs = []
    for _ in range(2):
        model = build_model(tiny_model_cfg("explicit"), seed=7)
        history = train(model, imgs, _toy_tcfg(seed=7))
        runs.append((history, [(n, p.value.copy()) for n, p in model.params()]))
    (h1, p1), (h2, p2) = runs
    assert h1 == h2  # includes float-for-float equal losses
    for (n1, v1), (n2, v2) in zip(p1, p2):
        assert n1 == n2 and np.array_equal(v1, v2)


def test_train_random_snr_changes_trajectory():
    imgs = _toy_images()
    m1 = build_model(tiny_model_cfg("direct"), seed=1)
    h_fixed = train(m1, imgs, _toy_tcfg())
    m2 = build_model(tiny_model_cfg("direct"), seed=1)
    h_rand = train(m2, imgs, _toy_tcfg(snr_db_min=0.0, snr_db_max=20.0))
    assert h_fixed[0]["loss"] != h_rand[0]["loss"]


def test_train_divergence_guard(monkeypatch):
    model = build_model(tiny_model_cfg("direct"), seed=0)

    def exploding_loss(pred, target):
        return ad.mul_const(mse_loss(pred, target), 1e12)

    monkeypatch.setattr(training, "mse_loss", exploding_loss)
    with pytest.raises(RuntimeError, match="diverged"):
        training.train(model, _toy_images(), _toy_tcfg())


def test_train_empty_dataset_rejected():
    model = build_model(tiny_model_cfg("direct"), seed=0)
    with pytest.raises(ValueError):
        train(model, np.zeros((0, 8, 8, 1)), _toy_tcfg())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_is_worker_invariant():
    # 36 pairs: three chunks of EVAL_BATCH pairs, the last one partial
    assert training.EVAL_BATCH == 16
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    imgs = _toy_images(12)
    serial = evaluate(model, imgs, snr_db=10.0, n_taps=3, realizations=3,
                      seed=5, workers=1)
    threaded = evaluate(model, imgs, snr_db=10.0, n_taps=3, realizations=3,
                        seed=5, workers=3)
    assert serial.psnr_db == threaded.psnr_db  # bitwise, not approx
    assert serial.ssim == threaded.ssim
    assert serial.papr_p99_db == threaded.papr_p99_db
    assert np.array_equal(serial.per_image_psnr_db, threaded.per_image_psnr_db)
    assert serial.channel_draws == 36
    assert serial.per_image_psnr_db.shape == (12,)


@pytest.mark.parametrize("variant", ["direct", "implicit", "explicit"])
def test_evaluate_matches_single_pair_forwards(variant):
    # reference: one batch-1 forward per (image, realization) pair, drawing
    # taps then noise from the pair's own stream (seed, 3, i, r)
    model = build_model(tiny_model_cfg(variant), seed=2)
    imgs = _toy_images(7)
    n_taps, gamma, realizations, seed = 3, 4.0, 3, 5
    sigma_sq = snr_to_sigma_sq(10.0)
    res = evaluate(model, imgs, snr_db=10.0, clip_ratio=1.2, n_taps=n_taps,
                   gamma=gamma, realizations=realizations, seed=seed)
    ref = np.empty((len(imgs), realizations))
    for i, img in enumerate(imgs):
        for r in range(realizations):
            rng = rng_stream(seed, 3, i, r)
            taps = sample_channel(rng, n_taps, gamma)[None]
            g = rng.standard_normal((1, model.rx_len, 2))
            noise = np.sqrt(sigma_sq / 2.0) * (g[..., 0] + 1j * g[..., 1])
            recon, _ = model.forward(img[None], taps, sigma_sq, 1.2, noise=noise)
            ref[i, r] = psnr(img, recon.value[0])
    np.testing.assert_allclose(res.per_image_psnr_db, ref.mean(axis=1), rtol=1e-12)


def test_evaluate_reports_clipping_effects():
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    imgs = _toy_images(3)
    free = evaluate(model, imgs, snr_db=10.0, n_taps=3, realizations=2, seed=1)
    hard = evaluate(model, imgs, snr_db=10.0, clip_ratio=1.0, n_taps=3,
                    realizations=2, seed=1)
    assert hard.papr_p99_db < free.papr_p99_db


def test_evaluate_rejects_bad_realizations():
    model = build_model(tiny_model_cfg("direct"), seed=0)
    with pytest.raises(ValueError, match="realizations"):
        evaluate(model, _toy_images(1), snr_db=10.0, realizations=0)
    with pytest.raises(ValueError, match="empty image set"):
        evaluate(model, _toy_images(0), snr_db=10.0)
    with pytest.raises(ValueError, match="workers"):
        evaluate(model, _toy_images(1), snr_db=10.0, workers=0)


# ---------------------------------------------------------------------------
# checkpointing through a real training run
# ---------------------------------------------------------------------------

def test_checkpoint_resume_is_bitwise(tmp_path):
    imgs = _toy_images()
    cfg = tiny_model_cfg("explicit")
    model = build_model(cfg, seed=4)
    train(model, imgs, _toy_tcfg(seed=4))
    path = tmp_path / "model.jscc"
    save_checkpoint(path, arch=cfg.to_dict(),
                    params=[(n, p.value) for n, p in model.params()],
                    train_config={"seed": 4},
                    opt_state=model._last_opt.state(),
                    rng_state=model._last_rng_state,
                    buffers=model.buffers())
    ck = load_checkpoint(path)

    clone = build_model(cfg, seed=99)
    clone.load_state(ck["params"], ck["buffers"])
    for (n, p), (cn, cp) in zip(model.params(), clone.params()):
        assert n == cn and np.array_equal(p.value, cp.value)
    for (n, b), (cn, cb) in zip(model.buffers(), clone.buffers()):
        assert n == cn and np.array_equal(b, cb)
    st, st2 = model._last_opt.state(), ck["opt_state"]
    assert st["step"] == st2["step"]
    assert all(np.array_equal(a, b) for a, b in zip(st["m"], st2["m"]))
    assert ck["rng_state"] == model._last_rng_state
