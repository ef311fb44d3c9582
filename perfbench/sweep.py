"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/sweep.py --workloads train_toy,dsp_chain --seeds 1-10 \
        [--out perfbench/BENCH_baseline.json]

Every run measures ``run_seconds`` from ``BENCHMARK.json``, the length the
committed baselines were measured at. Runs are sequential (timings of
parallel runs disturb each other). For each workload and metric it prints
the median, the quartiles and the spread (interquartile distance over the
median) next to the metric's bound from ``BENCHMARK.json``; ``--out`` writes
the same summary, with the environment of the first run, as strict JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    """Median, quartiles and spread; the spread is None when the median is 0."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary: dict = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads.split(","):
        per_metric: dict = {}
        for seed in args.seeds:
            result, env = run_once(wl, seed, seconds, args.trace)
            summary.setdefault("env", env)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})
                per_metric[name]["values"].append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        summary["workloads"][wl] = {}
        for name, pm in per_metric.items():
            s = {"unit": pm["unit"], **summarize(pm["values"])}
            summary["workloads"][wl][name] = s
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {wl:14s} {name:22s} median {s['median']:.6g} {pm['unit']:8s} "
                  f"spread {spread}" + (f"  bound {bound}" if bound else ""))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True,
                                       allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
