"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A short ``train_toy`` run with the conv2d backward pass scaled by 2
   (``autodiff.perturb_vjp``) must be reported as failed.
2. ``run.py`` must emit every metric named in ``BENCHMARK.json``, with its
   unit, on every workload: the end-to-end metrics with ``--trace 0`` and
   the per-layer metrics with ``--trace 1``.

Exits 0 only if both hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 2


def perturbed_run_fails() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads
    from ofdmjscc import autodiff

    with autodiff.perturb_vjp("conv2d", 2.0):
        result = harness.run(workloads.make("train_toy"), seed=1, seconds=SECONDS,
                             trace=False)
    print("\n".join(result["report"]))
    return not result["correct"] and result["failed"] >= 1


def emitted_metrics_match(spec: dict) -> bool:
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", "1",
                 "--seconds", str(SECONDS), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            got = {k: m["unit"] for k, m in result.get("metrics", {}).items()}
            good = proc.returncode == 0 and result.get("correct") is True and got == want
            ok &= good
            print(f"{'PASS' if good else 'FAIL'}  {wl} --trace {trace}: "
                  f"{len(got)} of {len(want)} metrics with matching units"
                  + ("" if good else f"; missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, exit {proc.returncode}"))
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    detected = perturbed_run_fails()
    print(f"{'PASS' if detected else 'FAIL'}  perturb_vjp('conv2d', 2.0) on train_toy "
          "is reported as failed")
    emitted = emitted_metrics_match(spec)
    return 0 if detected and emitted else 1


if __name__ == "__main__":
    sys.exit(main())
