"""Measurement loop, correctness checks and metric assembly.

A run is a sequence of *repeats*. Each repeat sets the workload up from the
seed (timed as set-up) and then runs its fixed list of steps (each timed
alone), so every repeat must produce the same outputs bit for bit. Repeats
continue until the run's time is spent, and at least ``min_repeats`` start.
A run stops only at a multiple of the workload's ``cycle`` (the variants of
``train_toy``, the conditions of ``eval_toy``), so per-step counts are exact
means over whole cycles.
"""

from __future__ import annotations

import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ofdmjscc import autodiff as ad

import speed
import tracer as tracing

# Finite-difference spot check: central differences at FD_STEP; a coordinate
# that misses is probed again at FD_STEP / 10. A true gradient error (say a
# VJP scaled by 2) misses at both steps while the two differences agree; a
# probe that straddles a ReLU kink or sits in strong curvature agrees at the
# smaller step or leaves the two differences apart (counted as unresolved).
FD_STEP = 1e-7
FD_TOL = 1e-4
MAX_UNRESOLVED_SHARE = 0.25


class CheckFailed(Exception):
    pass


def _central_difference(node, idx: int, h: float, loss_fn) -> float:
    base = node.value
    probe = np.array(base).reshape(-1)
    probe[idx] += h
    ad.assign(node, probe.reshape(base.shape))
    hi = float(loss_fn().value)
    probe[idx] -= 2 * h
    ad.assign(node, probe.reshape(base.shape))
    lo = float(loss_fn().value)
    ad.assign(node, base)
    return (hi - lo) / (2 * h)


def _agree(a: float, b: float, v0: float, h: float) -> bool:
    return bool(ad.grad_errors(np.array([a]), np.array([b]), FD_TOL,
                               ad.fd_noise_floor(v0, h))[2][0])


def fd_spot_check(rng: np.random.Generator, leaves: list, grads: dict, loss_fn,
                  v0: float, coords_per_leaf: int, max_leaves: int | None = None) -> str:
    """Compare ``grads`` with central differences of ``loss_fn`` at sampled
    coordinates of each leaf (of ``max_leaves`` sampled leaves, if given).

    Raises :class:`CheckFailed`; returns a one-line summary otherwise.
    """
    if max_leaves is not None and max_leaves < len(leaves):
        pick = sorted(rng.choice(len(leaves), max_leaves, replace=False))
        leaves = [leaves[j] for j in pick]
    checked = unresolved = 0
    for node in leaves:
        analytic = grads[node].reshape(-1)
        k = min(coords_per_leaf, node.value.size)
        for idx in rng.choice(node.value.size, k, replace=False):
            checked += 1
            a = float(analytic[idx])
            fd1 = _central_difference(node, int(idx), FD_STEP, loss_fn)
            if _agree(a, fd1, v0, FD_STEP):
                continue
            fd2 = _central_difference(node, int(idx), FD_STEP / 10, loss_fn)
            if _agree(a, fd2, v0, FD_STEP / 10):
                continue
            if _agree(fd1, fd2, v0, FD_STEP / 10):
                raise CheckFailed(f"gradient mismatch at {node.op} {node.value.shape}"
                                  f"[{idx}]: analytic {a:.6e}, finite difference {fd1:.6e}")
            unresolved += 1
    if unresolved > MAX_UNRESOLVED_SHARE * checked:
        raise CheckFailed(f"{unresolved} of {checked} finite-difference probes unresolved")
    return f"fd spot check: {checked} coordinates, {unresolved} unresolved"


@dataclass
class Phase:
    """What one measured phase (untraced or traced) saw. Times are scaled to
    reference speed (see ``speed.py``); ``raw_step_ms`` are wall times."""

    setup_s: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    raw_step_ms: list = field(default_factory=list)
    ref_ms: list = field(default_factory=list)      # the reference kernel's marks
    reference: list = field(default_factory=list)   # outputs of the first repeat
    quality: tuple = ()                             # (loss, psnr_db) of the first repeat
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)


def measure(wl, seed: int, seconds: float, min_repeats: int, checks: bool,
            reference: list | None = None, tracer=None) -> Phase:
    """Run repeats of ``wl`` for ``seconds``; compare every output against
    ``reference`` (or the first repeat's outputs when none is given).

    With ``checks``, the first repeat also runs the finite-difference spot
    check and the worker-invariance check, and records its quality."""
    ph = Phase()
    clock = speed.Reference()
    setups: list = []       # (wall seconds, reference mark before it)
    steps: list = []
    deadline = time.perf_counter() + seconds
    repeat = 0
    clock.mark()
    while repeat < min_repeats or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.sink = tracer.setup_stats
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setups.append((time.perf_counter() - t0, clock.last))
        clock.mark()
        if tracer is not None:
            tracer.sink = tracer.step_stats
        # the first repeat's outputs are the reference, so it always completes
        may_stop = repeat >= min_repeats - 1 and (repeat > 0 or reference is not None)
        for i in range(wl.steps_per_repeat):
            if may_stop and i % wl.cycle == 0 and time.perf_counter() >= deadline:
                break
            ph.attempted += 1
            check_s = [0.0]

            def check(leaves, grads, loss_fn, v0, **kw):
                c0 = time.perf_counter()
                try:
                    ph.notes.append(fd_spot_check(np.random.default_rng([seed, i, 7]),
                                                  leaves, grads, loss_fn, v0, **kw))
                finally:
                    check_s[0] += time.perf_counter() - c0

            want_check = checks and repeat == 0 and i < wl.checked_steps
            t0 = time.perf_counter()
            try:
                out = wl.step(state, i, check if want_check else None)
            except (CheckFailed, ArithmeticError, ValueError, RuntimeError, KeyError) as e:
                ph.failed += 1
                ph.notes.append(f"step {i} of repeat {repeat} failed: {e!r}")
                traceback.print_exc(file=sys.stderr)
                return _finish(ph, clock, setups, steps)
            steps.append(((time.perf_counter() - t0 - check_s[0]) * 1e3, clock.last))
            deadline += check_s[0]
            clock.maybe_mark()
            ref = reference if reference is not None else (
                ph.reference if repeat > 0 else None)
            if not math.isfinite(out):
                ph.failed += 1
                ph.notes.append(f"step {i} of repeat {repeat}: non-finite output {out}")
            elif ref is not None and out != ref[i]:
                ph.failed += 1
                ph.notes.append(f"step {i} of repeat {repeat}: output {out!r} differs "
                                f"from the reference {ref[i]!r}")
            if repeat == 0:
                ph.reference.append(out)
        if repeat == 0 and checks:
            q0 = time.perf_counter()
            ph.quality = wl.quality(state, ph.reference)
            if hasattr(wl, "worker_invariance"):
                ph.attempted += 1
                if not wl.worker_invariance(state, ph.reference):
                    ph.failed += 1
                    ph.notes.append("eval result differs between workers=1 and workers=2")
            deadline += time.perf_counter() - q0
        state = None    # so that two repeats' models are never alive at once
        repeat += 1
    return _finish(ph, clock, setups, steps)


def _finish(ph: Phase, clock: speed.Reference, setups: list, steps: list) -> Phase:
    """Scale the phase's timed intervals to reference speed."""
    clock.mark()
    ph.setup_s = [clock.scale(s, k) for s, k in setups]
    ph.step_ms = [clock.scale(ms, k) for ms, k in steps]
    ph.raw_step_ms = [ms for ms, _ in steps]
    ph.ref_ms = clock.marks
    return ph


# Step statistics are medians, over BLOCKS consecutive blocks of the run's
# steps, of each block's statistic. Load from outside the process that slows
# one block then moves them no more than the median of the blocks; slow steps
# the program causes itself recur in every block and still show.
BLOCKS = 5


def _blocked(values: list, stat) -> float:
    blocks = np.array_split(np.asarray(values), min(BLOCKS, len(values)))
    return float(np.median([stat(b) for b in blocks]))


def _percentile(values: list, q: float) -> float:
    return _blocked(values, lambda b: np.percentile(b, q))


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run. Returns the result: ``correct``, ``attempted``,
    ``failed``, ``metrics`` plus a ``report`` of extra lines to print."""
    share = 0.5 if trace else 1.0
    base = measure(wl, seed, seconds * share, min_repeats=1 if trace else 2, checks=True)
    phases = [base]
    notes = list(base.notes)
    metrics: dict = {}
    if trace and base.failed == 0:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = measure(wl, seed, seconds * (1 - share), min_repeats=1,
                             checks=False, reference=base.reference, tracer=tr)
        finally:
            tr.uninstall()
        phases.append(traced)
        notes += traced.notes
        if tr.untraced:
            notes.append("not found, so not traced: " + ", ".join(tr.untraced))
        if traced.failed == 0:
            metrics = tr.metrics(n_steps=len(traced.step_ms),
                                 n_setups=len(traced.setup_s))
            ratio = _percentile(traced.step_ms, 50) / _percentile(base.step_ms, 50)
            metrics["trace.overhead_ratio"] = (ratio, "ratio")
    elif not trace and base.failed == 0:
        loss, psnr = base.quality
        metrics = {
            "setup_s": (float(np.median(base.setup_s)), "s"),
            "step_ms.p50": (_percentile(base.step_ms, 50), "ms"),
            "step_ms.p90": (_percentile(base.step_ms, 90), "ms"),
            "items_per_s": (wl.items_per_step * 1e3 / _blocked(base.step_ms, np.mean),
                            "items/s"),
            "psnr_db": (psnr, "dB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes.append(f"loss_final = {loss:.6g} mse")
        notes.append(f"wall step_ms.p50 = {_percentile(base.raw_step_ms, 50):.6g} ms; "
                     f"reference kernel median {np.median(base.ref_ms):.4g} ms over "
                     f"{len(base.ref_ms)} marks (nominal {speed.NOMINAL_MS} ms)")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report = notes + [
        f"steps timed: {len(base.step_ms)} in {len(base.setup_s)} repeats "
        f"({wl.items_per_step} {wl.items} per step); "
        f"p90 has {len(base.step_ms) - math.ceil(0.9 * len(base.step_ms))} samples beyond it",
        f"error_rate = {failed / max(attempted, 1):.6g} failed/attempted",
    ]
    return {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            "report": report}
