"""Optimizer mathematics, the schedule, loop determinism and checkpoint
round-trips."""

import gc
import math
import weakref

import numpy as np
import pytest

import ofdmjscc.autodiff as ad
import ofdmjscc.training as training
from ofdmjscc.channel import awgn, sample_channel, snr_to_sigma_sq
from ofdmjscc.config import rng_stream
from ofdmjscc.cplx import CplxNode
from ofdmjscc.data import load_checkpoint, save_checkpoint
from ofdmjscc.metrics import psnr, psnr_batch, ssim_batch
from ofdmjscc.model import build_model
from ofdmjscc.ofdm import papr_db
from ofdmjscc.training import (Adam, TrainConfig, evaluate, lr_at, mse_loss, train,
                               train_epochs)
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
    # the whole-array expressions, in the order Adam.step evaluates per block:
    # Kingma & Ba's form, the bias corrections folded into alpha_t and eps_t
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * (g * g)
    root_c2 = math.sqrt(1.0 - b2 ** t)
    alpha, eps_t = lr * root_c2 / (1.0 - b1 ** t), eps * root_c2
    return p - m / (np.sqrt(v) + eps_t) * alpha, m, v


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


def test_adam_rejects_a_gradient_whose_square_overflows(rng):
    # 1e200 is finite, but its square is not: v would become inf and the
    # coordinate would never move again
    a = ad.leaf(rng.standard_normal(4), op="param")
    b = ad.leaf(rng.standard_normal(3), op="param")
    opt = Adam([("a", a), ("b", b)])
    opt.step({a: rng.standard_normal(4), b: rng.standard_normal(3)}, lr=0.1)
    b_value, before = b.value, _adam_snapshot(opt)
    bad = rng.standard_normal(3)
    bad[1] = 1e200
    for sign in (1.0, -1.0):
        with pytest.raises(FloatingPointError, match="gradient for b"):
            opt.step({a: rng.standard_normal(4), b: sign * bad}, lr=0.1)
        assert _adam_snapshot(opt) == before
    # the largest |g| whose square is finite is still a gradient
    opt.step({a: np.zeros(4), b: np.full(3, -training.ADAM_GRAD_MAX)}, lr=0.1)
    assert np.isfinite(opt.v[1]).all() and np.all(b.value > b_value)


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


@pytest.mark.parametrize("k", [1, 3])
def test_adam_resumed_from_its_state_continues_bitwise(rng, k):
    # k steps, then state() into a fresh optimizer on copies of the parameters,
    # as a checkpoint reload does, then on to n: bitwise the n steps run straight
    n, shapes = 5, [(3, 4), (5,)]
    p0 = [rng.standard_normal(s) for s in shapes]
    grads = [[rng.standard_normal(s) * 10.0 ** (t - 2) for s in shapes] for t in range(n)]

    def run(values, state, steps):
        nodes = [ad.leaf(v, op="param") for v in values]
        opt = Adam(list(zip("ab", nodes)))
        if state is not None:
            opt.load_state(state)
        for t in steps:
            opt.step(dict(zip(nodes, grads[t])), lr=0.05)
        return opt

    straight = run(p0, None, range(n))
    first = run(p0, None, range(k))
    resumed = run([p.value for _, p in first.params], first.state(), range(k, n))
    assert resumed.step_count == n
    assert _adam_snapshot(resumed) == _adam_snapshot(straight)


def test_adam_reports_a_non_finite_update_by_name():
    # a finite gradient and finite moments, but p - alpha_t * m / (sqrt(v) + eps_t)
    # overflows: the step must name the tensor, not stop at numpy's overflow warning
    node = ad.leaf(np.array([-1e308]), op="param")
    before = node.value.tobytes()
    with pytest.raises(FloatingPointError, match="Adam: non-finite value for p"):
        Adam([("p", node)]).step({node: np.array([1.0])}, lr=1e308)
    assert node.value.tobytes() == before


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


@pytest.mark.parametrize("overrides, message", [
    ({"lr": -1e-3}, "lr must be"), ({"lr": 0.0}, "lr must be"), ({"lr": math.inf}, "lr must be"),
    ({"lr": math.nan}, "lr must be"),
    ({"snr_db_min": -math.inf, "snr_db_max": 0.0}, "need finite snr_db_min"),
    ({"snr_db_min": 0.0, "snr_db_max": math.inf}, "need finite snr_db_min"),
    ({"snr_db_min": 5.0, "snr_db_max": 1.0}, "need finite snr_db_min <= snr_db_max")],
    ids=["lr_negative", "lr_zero", "lr_inf", "lr_nan", "snr_db_min_minus_inf",
         "snr_db_max_inf", "snr_db_min_above_max"])
def test_train_config_rejects_bad_lr_and_snr_range(overrides, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**overrides)


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


def test_train_returns_the_rows_train_epochs_yields():
    imgs = _toy_images()
    history = train(build_model(tiny_model_cfg("explicit"), seed=7), imgs, _toy_tcfg(seed=7))
    rows = [row for row, _, _ in train_epochs(build_model(tiny_model_cfg("explicit"), seed=7),
                                              imgs, _toy_tcfg(seed=7))]
    assert repr(history) == repr(rows)   # float for float, -0.0 and nan included


def test_train_leaves_nothing_on_the_model(monkeypatch):
    # the run's optimizer and stream state go to train_epochs' caller; once
    # train returns, nothing holds the optimizer's moments
    built = []

    class TrackedAdam(Adam):
        def __init__(self, params):
            super().__init__(params)
            built.append(weakref.ref(self))

    monkeypatch.setattr(training, "Adam", TrackedAdam)
    model = build_model(tiny_model_cfg("explicit"), seed=3)
    keys = list(vars(model))
    train(model, _toy_images(), _toy_tcfg())
    gc.collect()
    assert list(vars(model)) == keys
    assert len(built) == 1 and built[0]() is None


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
    assert serial.per_image_psnr_db.shape == (12,)


def test_evaluate_is_worker_invariant_across_transmit_chunks():
    # 20 images x 2 realizations: two image chunks (one partial) and three
    # receive passes of pairs
    model = build_model(tiny_model_cfg("implicit"), seed=2)
    imgs = _toy_images(20)
    serial, threaded = (evaluate(model, imgs, snr_db=10.0, clip_ratio=1.2, n_taps=3,
                                 realizations=2, seed=5, workers=w) for w in (1, 2))
    assert serial.psnr_db == threaded.psnr_db
    assert serial.ssim == threaded.ssim
    assert serial.papr_p99_db == threaded.papr_p99_db
    assert np.array_equal(serial.per_image_psnr_db, threaded.per_image_psnr_db)


def test_evaluate_encodes_each_image_once(monkeypatch):
    encoded = []
    encode = training.JsccModel.encode

    def counting_encode(self, x, train):
        encoded.append(x.value.shape[0])
        return encode(self, x, train)

    monkeypatch.setattr(training.JsccModel, "encode", counting_encode)
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    evaluate(model, _toy_images(20), snr_db=10.0, n_taps=3, realizations=3, seed=1)
    assert encoded == [16, 4]      # n rows, not n * realizations


@pytest.mark.parametrize("variant", ["direct", "implicit", "explicit"])
def test_evaluate_with_one_realization_is_the_per_chunk_forward(variant):
    # reference: the full forward on each chunk of EVAL_BATCH (image, 0) pairs,
    # drawing taps then noise from the pair's own stream (seed, 3, i, 0)
    model = build_model(tiny_model_cfg(variant), seed=2)
    imgs = _toy_images(20)
    n_taps, gamma, seed, clip = 3, 4.0, 5, 1.2
    sigma_sq = snr_to_sigma_sq(10.0)
    res = evaluate(model, imgs, snr_db=10.0, clip_ratio=clip, n_taps=n_taps,
                   gamma=gamma, realizations=1, seed=seed)
    ps, ss, pa = [], [], []
    for lo in range(0, len(imgs), training.EVAL_BATCH):
        idx = list(range(lo, min(lo + training.EVAL_BATCH, len(imgs))))
        taps = np.empty((len(idx), n_taps), dtype=np.complex128)
        noise = np.empty((len(idx), model.rx_len), dtype=np.complex128)
        for k, i in enumerate(idx):
            rng = rng_stream(seed, 3, i, 0)
            taps[k] = sample_channel(rng, n_taps, gamma)
            noise[k] = awgn(rng, (model.rx_len,), sigma_sq)
        ref = imgs[idx]
        with ad.no_grad():
            recon, pkt = model.forward(ref, taps, sigma_sq, clip, noise=noise)
        ps += [psnr(ref[k], recon.value[k]) for k in range(len(idx))]
        ss.append(ssim_batch(ref, recon.value))
        pa.append(papr_db(pkt.tx.value))
    assert res.psnr_db == float(np.mean(ps))
    assert res.ssim == float(np.concatenate(ss).mean())
    assert res.papr_p99_db == float(np.percentile(np.concatenate(pa), 99))
    assert np.array_equal(res.per_image_psnr_db, np.array(ps))


@pytest.mark.parametrize("snr_db", [10.0, math.inf])
def test_evaluate_channels_are_the_per_pair_draws(monkeypatch, snr_db):
    # 20 images x 2 realizations: three receive passes, the last partial. The
    # taps and noise a pass scales at once must equal, byte for byte,
    # sample_channel then awgn on each pair's own stream (seed, 3, i, r);
    # at infinite SNR (sigma_sq == 0) no noise is drawn
    seen = []
    receive = training.JsccModel.receive

    def recording_receive(self, tx, taps, sigma_sq, train=False, noise=None):
        seen.append((taps, noise))
        return receive(self, tx, taps, sigma_sq, train, noise=noise)

    monkeypatch.setattr(training.JsccModel, "receive", recording_receive)
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    n_taps, gamma, seed = 3, 4.0, 5
    sigma_sq = snr_to_sigma_sq(snr_db)
    evaluate(model, _toy_images(20), snr_db=snr_db, n_taps=n_taps, gamma=gamma,
             realizations=2, seed=seed)
    assert [len(t) for t, _ in seen] == [16, 16, 8]
    pairs = [(i, r) for i in range(20) for r in range(2)]
    want_taps, want_noise = [], []
    for i, r in pairs:
        rng = rng_stream(seed, 3, i, r)
        want_taps.append(sample_channel(rng, n_taps, gamma))
        if sigma_sq > 0.0:
            want_noise.append(awgn(rng, (model.rx_len,), sigma_sq))
    taps = np.concatenate([t for t, _ in seen])
    assert taps.dtype == np.complex128
    assert taps.tobytes() == np.stack(want_taps).tobytes()
    if sigma_sq > 0.0:
        noise = np.concatenate([w for _, w in seen])
        assert noise.shape == (40, model.rx_len) and noise.dtype == np.complex128
        assert noise.tobytes() == np.stack(want_noise).tobytes()
    else:
        assert all(w is None for _, w in seen)


def _two_phase_evaluate(model, imgs, *, snr_db, clip_ratio, n_taps, gamma, realizations,
                        seed):
    # the chunk layout evaluate must keep, as two separate phases: every image
    # transmitted once, EVAL_BATCH images to a pass, into one packet array; then
    # the (image, realization) pairs received EVAL_BATCH to a pass on those
    # packet rows, each pair drawing taps then noise from (seed, 3, i, r)
    batch, sigma_sq = training.EVAL_BATCH, snr_to_sigma_sq(snr_db)
    packets, papr = [], []
    for lo in range(0, len(imgs), batch):
        with ad.no_grad():
            tx = model.transmit(imgs[lo:lo + batch], clip_ratio, train=False).tx
        packets.append(tx.z.value)
        papr.append(papr_db(tx.value))
    packets = np.concatenate(packets)
    pairs = [(i, r) for i in range(len(imgs)) for r in range(realizations)]
    ps, ss = [], []
    for lo in range(0, len(pairs), batch):
        chunk = pairs[lo:lo + batch]
        taps = np.empty((len(chunk), n_taps), dtype=np.complex128)
        noise = np.empty((len(chunk), model.rx_len), dtype=np.complex128)
        for k, (i, r) in enumerate(chunk):
            rng = rng_stream(seed, 3, i, r)
            taps[k] = sample_channel(rng, n_taps, gamma)
            if sigma_sq > 0.0:
                noise[k] = awgn(rng, (model.rx_len,), sigma_sq)
        rows = [i for i, _ in chunk]
        with ad.no_grad():
            rec = model.receive(CplxNode(ad.constant(packets[rows])), taps, sigma_sq,
                                train=False, noise=noise if sigma_sq > 0.0 else None).value
        ps.append(psnr_batch(imgs[rows], rec))
        ss.append(ssim_batch(imgs[rows], rec))
    all_psnr = np.concatenate(ps).reshape(len(imgs), realizations)
    all_ssim = np.concatenate(ss).reshape(len(imgs), realizations)
    return (float(all_psnr.mean()), float(all_ssim.mean()),
            float(np.percentile(np.repeat(np.concatenate(papr), realizations), 99)),
            all_psnr.mean(axis=1))


@pytest.mark.parametrize("realizations, snr_db, clip_ratio", [
    (3, 10.0, math.inf), (3, 10.0, 1.2), (5, 10.0, math.inf), (5, 10.0, 1.2),
    (5, math.inf, 1.2)])
def test_evaluate_keeps_the_two_phase_chunk_layout(realizations, snr_db, clip_ratio):
    # 37 images: three image chunks, the last partial, and 7 or 12 receive
    # passes; bit for bit, at either worker count
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    imgs = _toy_images(37)
    kw = dict(snr_db=snr_db, clip_ratio=clip_ratio, n_taps=3, gamma=4.0,
              realizations=realizations, seed=5)
    want = _two_phase_evaluate(model, imgs, **kw)
    for workers in (1, 2):
        res = evaluate(model, imgs, workers=workers, **kw)
        assert (res.psnr_db, res.ssim, res.papr_p99_db) == want[:3]
        assert res.per_image_psnr_db.tobytes() == want[3].tobytes()


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        evaluate(model, _toy_images(1), snr_db=10.0, seed=-1)


@pytest.mark.parametrize("bad, message", [
    ({"snr_db": "10"}, "snr_db must be"), ({"snr_db": math.nan}, "snr_db must be"),
    ({"clip_ratio": 0.0}, "clip_ratio must be"), ({"n_taps": 2.0}, "n_taps must be"),
    ({"gamma": 0.0}, "gamma must be"), ({"seed": 1.0}, "seed must be"),
    ({"seed": True}, "seed must be"), ({"seed": np.float64(1.0)}, "seed must be"),
    ({"realizations": 2.0}, "realizations must be"), ({"workers": 1.5}, "workers must be")],
    ids=["snr_db_str", "snr_db_nan", "clip_ratio_zero", "n_taps_float", "gamma_zero",
         "seed_float", "seed_bool", "seed_numpy_float", "realizations_float",
         "workers_float"])
def test_evaluate_checks_its_arguments_before_encoding(monkeypatch, bad, message):
    # seed=1.0 hashes as seed=1, so with seed 1's draws cached an unchecked
    # call would succeed where a cold one fails
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    kw = dict(snr_db=10.0, n_taps=3, realizations=2, seed=1)
    evaluate(model, _toy_images(2), **kw)
    encoded = []
    monkeypatch.setattr(training.JsccModel, "encode",
                        lambda self, x, train: encoded.append(x))
    with pytest.raises(ValueError, match=f"evaluate: {message}"):
        evaluate(model, _toy_images(2), **{**kw, **bad})
    assert encoded == []


@pytest.mark.parametrize("variant", ["direct", "implicit", "explicit"])
def test_evaluate_bounds_n_taps_by_the_received_length(monkeypatch, variant):
    # taps past l_fft (the ISI regime) are evaluated; taps past rx_len are
    # rejected before anything is transmitted
    model = build_model(tiny_model_cfg(variant), seed=2)
    kw = dict(snr_db=10.0, realizations=2, seed=1)
    assert model.rx_len > model.cfg.ofdm.l_fft
    assert math.isfinite(evaluate(model, _toy_images(2), n_taps=model.rx_len, **kw).psnr_db)
    sent = []
    monkeypatch.setattr(training.JsccModel, "transmit",
                        lambda self, *a, **k: sent.append(a))
    with pytest.raises(ValueError, match=f"evaluate: n_taps={model.rx_len + 1} exceeds the "
                                         f"received length rx_len={model.rx_len}"):
        evaluate(model, _toy_images(2), n_taps=model.rx_len + 1, **kw)
    assert sent == []


@pytest.fixture
def no_kept_normals():
    training._CHUNK_NORMALS.clear()
    yield
    training._CHUNK_NORMALS.clear()


@pytest.fixture
def built(monkeypatch):
    # the stream keys of every generator evaluate builds
    keys = []

    def counting_stream(seed, *key):
        keys.append(key)
        return rng_stream(seed, *key)

    monkeypatch.setattr(training, "rng_stream", counting_stream)
    return keys


def test_chunk_normals_are_the_streams_draws(no_kept_normals):
    # images 3 and 4 at 2 realizations: pairs (3, 0), (3, 1), (4, 0), (4, 1)
    taps, noise = training._chunk_normals(5, 3, 2, 2, 4, 24, noise=True)
    assert taps.shape == (4, 4, 2) and noise.shape == (4, 24, 2)
    for p, (i, r) in enumerate([(3, 0), (3, 1), (4, 0), (4, 1)]):
        rng = rng_stream(5, 3, i, r)
        assert taps[p].tobytes() == rng.standard_normal((4, 2)).tobytes()
        assert noise[p].tobytes() == rng.standard_normal((24, 2)).tobytes()
    assert not taps.flags.writeable and not noise.flags.writeable
    again = training._chunk_normals(5, 3, 2, 2, 4, 24, noise=False)
    assert again[0] is taps and again[1] is noise


def _eval_bytes(res):
    return res.psnr_db, res.ssim, res.papr_p99_db, res.per_image_psnr_db.tobytes()


def test_evaluate_sweep_builds_each_pairs_stream_once(no_kept_normals, built):
    # 20 images x 2 realizations: two image chunks and three receive passes
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    imgs = _toy_images(20)
    kw = dict(clip_ratio=1.2, n_taps=3, gamma=4.0, realizations=2, seed=5)
    cold = evaluate(model, imgs, snr_db=0.0, **kw)
    training._CHUNK_NORMALS.clear()
    built.clear()
    evaluate(model, imgs, snr_db=10.0, **kw)
    assert sorted(built) == [(3, i, r) for i in range(20) for r in range(2)]
    built.clear()
    warm = evaluate(model, imgs, snr_db=0.0, **kw)
    assert built == []
    assert _eval_bytes(warm) == _eval_bytes(cold)


def test_evaluate_sweep_with_tap_counts_innermost_reuses_every_draw(no_kept_normals, built):
    # eval's point order, tap count innermost: 3 tap counts x 60 images x 3
    # realizations are 540 (pair, tap count) draws, more than a 512-pair LRU
    # would hold in this order; each is still drawn once
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    imgs = _toy_images(60)
    for snr in (0.0, 10.0):
        for n_taps in (2, 3, 4):
            evaluate(model, imgs, snr_db=snr, n_taps=n_taps, realizations=3, seed=5)
    assert sorted(built) == sorted([(3, i, r) for i in range(60) for r in range(3)] * 3)


def test_evaluate_past_the_normals_bound_draws_the_rest_each_time(
        monkeypatch, no_kept_normals, built):
    # room for the first chunk (16 images x 2 realizations) only: it is kept,
    # the second (4 images) is drawn again at every point, and nothing changes
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    imgs = _toy_images(20)
    rx_len = model.rx_len
    monkeypatch.setattr(training, "CHUNK_NORMALS_BYTES", 32 * (3 + rx_len) * 2 * 8)
    kw = dict(snr_db=10.0, n_taps=3, realizations=2, seed=5)
    first = evaluate(model, imgs, **kw)
    assert list(training._CHUNK_NORMALS) == [(5, 0, 16, 2, 3, rx_len)]
    built.clear()
    again = evaluate(model, imgs, **kw)
    assert sorted(built) == [(3, i, r) for i in range(16, 20) for r in range(2)]
    assert _eval_bytes(again) == _eval_bytes(first)


def test_evaluate_at_infinite_snr_draws_taps_only_when_cold(no_kept_normals, built):
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    imgs = _toy_images(3)
    kw = dict(snr_db=math.inf, n_taps=3, realizations=2, seed=5)
    cold = evaluate(model, imgs, **kw)
    assert training._CHUNK_NORMALS == {}
    evaluate(model, imgs, **{**kw, "snr_db": 10.0})
    built.clear()
    assert _eval_bytes(evaluate(model, imgs, **kw)) == _eval_bytes(cold)
    assert built == []


def test_evaluate_on_a_warm_cache_is_worker_invariant(no_kept_normals):
    # 37 images: three image chunks, so two threads share the kept draws
    model = build_model(tiny_model_cfg("implicit"), seed=2)
    imgs = _toy_images(37)
    kw = dict(snr_db=10.0, clip_ratio=1.2, n_taps=3, realizations=3, seed=5)
    serial = evaluate(model, imgs, workers=1, **kw)
    assert len(training._CHUNK_NORMALS) == 3
    assert _eval_bytes(evaluate(model, imgs, workers=2, **kw)) == _eval_bytes(serial)


def test_evaluate_takes_numpy_scalars_as_python_numbers(no_kept_normals):
    # a sweep over np.arange or np.linspace passes numpy scalars
    model = build_model(tiny_model_cfg("explicit"), seed=2)
    imgs = _toy_images(3)
    py = evaluate(model, imgs, snr_db=10.0, clip_ratio=1.2, n_taps=3, gamma=4.0,
                  realizations=2, seed=1, workers=1)
    training._CHUNK_NORMALS.clear()
    np_ = evaluate(model, imgs, snr_db=np.float64(10.0), clip_ratio=np.float64(1.2),
                   n_taps=np.int64(3), gamma=np.float32(4.0), realizations=np.int32(2),
                   seed=np.int64(1), workers=np.int64(1))
    assert _eval_bytes(np_) == _eval_bytes(py)
    assert list(training._CHUNK_NORMALS) == [(1, 0, 3, 2, 3, model.rx_len)]
    assert all(type(k) is int for k in next(iter(training._CHUNK_NORMALS)))


# ---------------------------------------------------------------------------
# checkpointing through a real training run
# ---------------------------------------------------------------------------

def test_checkpoint_round_trips_the_training_state_bitwise(tmp_path):
    imgs = _toy_images()
    cfg = tiny_model_cfg("explicit")
    model = build_model(cfg, seed=4)
    *_, (_, opt, rng_state) = train_epochs(model, imgs, _toy_tcfg(seed=4))
    path = tmp_path / "model.jscc"
    save_checkpoint(path, params=[(n, p.value) for n, p in model.params()],
                    buffers=model.buffers(),
                    train_config={"seed": 4},
                    opt_state=opt.state(), rng_state=rng_state)
    ck = load_checkpoint(path)

    clone = build_model(cfg, seed=99)
    clone.load_state(ck["params"], ck["buffers"])
    for (n, p), (cn, cp) in zip(model.params(), clone.params()):
        assert n == cn and np.array_equal(p.value, cp.value)
    for (n, b), (cn, cb) in zip(model.buffers(), clone.buffers()):
        assert n == cn and np.array_equal(b, cb)
    st = ck["opt_state"]
    assert st["step"] == opt.step_count == 4
    for mine, stored in ((opt.m, st["m"]), (opt.v, st["v"])):
        assert len(mine) == len(stored)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(mine, stored))
    assert ck["rng_state"] == rng_state
