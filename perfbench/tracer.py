"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the functions and methods that callers look up on
the package's modules and classes with timing wrappers, and ``uninstall``
puts the originals back. A module-level function is replaced wherever the
package bound it (``from .ofdm import assemble_packet`` makes a second
binding in ``ofdmjscc.model``). The wrappers return exactly what the
originals return, so traced results are bitwise equal to untraced ones.

Times are inclusive: ``model.encoder`` contains the ``nn.Conv2d`` calls it
makes, which contain ``autodiff.op.conv2d`` forward time. Within the
``autodiff`` ops and within ``cplx``, only the outermost call is counted.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

import ofdmjscc
from ofdmjscc import autodiff as ad

OP_TAGS = ("conv2d", "matmul", "fir", "clip_scale", "bias_last", "scale_last",
           "scale_first", "mul", "add", "sub", "sum_axes", "relu", "slice", "concat",
           "reshape", "tile", "other")

# Layer spans: metric key -> attribute path under ``ofdmjscc``.
SPANS = {
    "nn.Conv2d": "nn.Conv2d.__call__",
    "nn.Dense": "nn.Dense.__call__",
    "nn.BatchNorm": "nn.BatchNorm.__call__",
    "model.encoder": "model.JsccModel.encode",
    "model.trunk": "model._DecoderTrunk.__call__",
    "model.front": "model._ImplicitFront.__call__",
    "model.explicit_front": "model.JsccModel.explicit_front",
    "ofdm.assemble_packet": "ofdm.assemble_packet",
    "ofdm.disassemble_packet": "ofdm.disassemble_packet",
    "ofdm.normalize_power": "ofdm.normalize_power",
    "ofdm.clip": "ofdm.clip",
    "channel.apply_channel": "channel.apply_channel",
    "channel.sample_channel": "channel.sample_channel",
    "receiver.estimate_channel_mmse": "receiver.estimate_channel_mmse",
    "receiver.equalize_mmse": "receiver.equalize_mmse",
    "training.Adam.step": "training.Adam.step",
    "training.mse_loss": "training.mse_loss",
    "training.evaluate": "training.evaluate",
    "metrics.psnr": "metrics.psnr",
    "metrics.ssim": "metrics.ssim",
}
SETUP_SPANS = {"data.synth_dataset": "data.synth_dataset"}

# autodiff functions that are not graph ops
_NOT_OPS = {"record", "backward", "perturb_vjp", "assign", "fd_noise_floor",
            "grad_errors", "finite_diff_check"}


def _flop(node) -> float:
    """Multiply-add FLOPs of one conv2d/matmul forward, from shapes."""
    out = node.value.shape
    if node.op == "conv2d":
        kh, kw, cin, cout = node.parents[1].value.shape
        return 2.0 * np.prod(out[:-1]) * kh * kw * cin * cout
    a, b = node.parents
    return 2.0 * np.prod(a.value.shape[:-1]) * b.value.shape[0] * b.value.shape[1]


def _public_functions(module) -> list[str]:
    return [name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ofdmjscc" or name.startswith("ofdmjscc."))]


class Tracer:
    def __init__(self):
        self.setup_stats: dict = defaultdict(float)
        self.step_stats: dict = defaultdict(float)
        self.sink = self.step_stats
        self.untraced: list[str] = []
        self._saved: list = []        # (owner, attribute, original)
        self._depth = defaultdict(int)

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, path: str, make) -> None:
        """Replace the function at ``ofdmjscc.<path>`` (and every other
        binding of it in the package) with ``make(original)``."""
        *parents, attr = path.split(".")
        owner = ofdmjscc
        try:
            for p in parents:
                owner = getattr(owner, p)
            orig = getattr(owner, attr)
        except AttributeError:
            self.untraced.append(path)
            return
        wrapped = make(orig)
        if inspect.isclass(owner):
            self._set(owner, attr, wrapped)
            return
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, wrapped)

    def install(self) -> None:
        for key, path in {**SPANS, **SETUP_SPANS}.items():
            self._replace(path, lambda f, key=key: self._span(f, key, key))
        for name in _public_functions(ofdmjscc.cplx):
            self._replace(f"cplx.{name}", lambda f: self._span(f, "cplx", "cplx"))
        for name in _public_functions(ad):
            if name not in _NOT_OPS:
                self._replace(f"autodiff.{name}", self._op)
        self._replace("autodiff.record", self._record)
        self._replace("autodiff.backward", self._backward)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- wrappers ------------------------------------------------------------

    def _span(self, f, key: str, group: str):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if self._depth[group]:
                return f(*args, **kwargs)
            self._depth[group] += 1
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                self._depth[group] -= 1
                self.sink[f"{key}.ms"] += (time.perf_counter() - t0) * 1e3
                self.sink[f"{key}.calls"] += 1
        return wrapper

    def _op(self, f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if self._depth["op"]:
                return f(*args, **kwargs)
            self._depth["op"] += 1
            t0 = time.perf_counter()
            try:
                out = f(*args, **kwargs)
            finally:
                self._depth["op"] -= 1
            dt = (time.perf_counter() - t0) * 1e3
            tag = out.op if isinstance(out, ad.Node) and out.op in OP_TAGS else "other"
            self.sink[f"autodiff.op.{tag}.fwd_ms"] += dt
            self.sink[f"autodiff.op.{tag}.calls"] += 1
            if tag in ("conv2d", "matmul"):
                self.sink[f"autodiff.op.{tag}.gflop"] += _flop(out) / 1e9
            return out
        return wrapper

    def _record(self, f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                self.sink["autodiff.record.ms"] += (time.perf_counter() - t0) * 1e3
                self.sink["autodiff.record.calls"] += 1
        return wrapper

    def _timed_vjp(self, node):
        vjp, tag = node.vjp, node.op if node.op in OP_TAGS else "other"
        flop = 2 * _flop(node) / 1e9 if tag in ("conv2d", "matmul") else 0.0

        def wrapper(g):
            t0 = time.perf_counter()
            out = vjp(g)
            dt = (time.perf_counter() - t0) * 1e3
            self.sink[f"autodiff.op.{tag}.bwd_ms"] += dt
            self.sink["autodiff.vjp.ms"] += dt
            if flop:
                self.sink[f"autodiff.op.{tag}.gflop"] += flop
            return out
        return wrapper

    def _backward(self, f):
        @functools.wraps(f)
        def wrapper(loss, *args, **kwargs):
            seen, stack = {loss.nid}, [loss]
            while stack:
                node = stack.pop()
                if node.parents:
                    self.sink["autodiff.reached"] += 1
                    node.vjp = self._timed_vjp(node)
                for p in node.parents:
                    if p.nid not in seen:
                        seen.add(p.nid)
                        stack.append(p)
            self.sink["autodiff.graph_nodes"] += len(seen)
            t0 = time.perf_counter()
            out = f(loss, *args, **kwargs)
            self.sink["autodiff.backward.ms"] += (time.perf_counter() - t0) * 1e3
            return out
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self, n_steps: int, n_setups: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}, per timed step."""
        s, n = self.step_stats, max(n_steps, 1)
        recorded = s["autodiff.record.calls"]
        out = {
            # every node ``backward`` walks, leaves (parameters, inputs,
            # constants) included: the graph size the ROADMAP counts
            "autodiff.nodes_per_step": (s["autodiff.graph_nodes"] / n, "nodes/step"),
            "autodiff.useful_node_ratio": (s["autodiff.reached"] / recorded if recorded
                                           else 0.0, "ratio"),
            "autodiff.record.calls": (recorded / n, "calls/step"),
            "autodiff.record.ms": (s["autodiff.record.ms"] / n, "ms/step"),
            "autodiff.backward.self_ms": (
                (s["autodiff.backward.ms"] - s["autodiff.vjp.ms"]) / n, "ms/step"),
        }
        for tag in OP_TAGS:
            out[f"autodiff.op.{tag}.calls"] = (s[f"autodiff.op.{tag}.calls"] / n, "calls/step")
            out[f"autodiff.op.{tag}.fwd_ms"] = (s[f"autodiff.op.{tag}.fwd_ms"] / n, "ms/step")
            out[f"autodiff.op.{tag}.bwd_ms"] = (s[f"autodiff.op.{tag}.bwd_ms"] / n, "ms/step")
        for tag in ("conv2d", "matmul"):
            out[f"autodiff.op.{tag}.gflop"] = (s[f"autodiff.op.{tag}.gflop"] / n,
                                               "GFLOP/step")
        for key in SPANS:
            out[f"{key}.ms"] = (s[f"{key}.ms"] / n, "ms/step")
        out["cplx.calls"] = (s["cplx.calls"] / n, "calls/step")
        out["cplx.ms"] = (s["cplx.ms"] / n, "ms/step")
        for key in SETUP_SPANS:
            out[f"{key}.ms"] = (self.setup_stats[f"{key}.ms"] / max(n_setups, 1), "ms/setup")
        return out
