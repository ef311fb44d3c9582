"""Run one benchmark workload against the package in ``src/``.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
record the environment and restate each metric with its unit. The exit code
is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What each workload's ``items_per_s`` counts, under the name a reader of
# the paper's system would use.
THROUGHPUT_NAMES = {
    "train_toy": ("train_images_per_s", "images/s"),
    "train_default": ("train_images_per_s", "images/s"),
    "eval_toy": ("eval_pairs_per_s", "pairs/s"),
    "dsp_chain": ("chain_packets_per_s", "packets/s"),
}


def pin_blas_threads() -> None:
    """Run BLAS single-threaded. Must happen before numpy is imported.

    On a shared two-core machine, two OpenBLAS threads made the toy step's
    median swing between 39 and 65 ms over four interleaved 10-second runs;
    one thread kept it between 49 and 55 ms.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (ROOT / ".git").exists():    # never let git look above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(THROUGHPUT_NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ofdmjscc" / "__init__.py").is_file():
        print(f"run.py: no package at {SRC / 'ofdmjscc'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    print("env " + json.dumps(environment(), sort_keys=True))
    result = harness.run(workloads.make(args.workload), args.seed, args.seconds,
                         bool(args.trace))
    for line in result.pop("report"):
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
        if name == "items_per_s":
            alias, unit = THROUGHPUT_NAMES[args.workload]
            print(f"{alias} = {m['value']:.6g} {unit}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
