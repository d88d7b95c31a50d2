"""Steadiness check: run each workload on several seeds and compare spreads.

    python3 perfbench/steady.py

It runs every workload of BENCHMARK.json on seeds 1-10 for its
``run_seconds``.  For each end-to-end metric it prints the median, the
quartiles (Python's ``statistics.quantiles(values, n=4)``), the spread
(q3 − q1)/median and the metric's bound from BENCHMARK.json; ``!`` marks a
spread above a third of its bound, ``!!`` one above the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(cmd, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            doc = run_once(bench["command"], workload, seed, bench["run_seconds"])
            runs.append(doc)
            print(f"{workload} seed {seed}: correct={doc['correct']} "
                  f"attempted={doc['attempted']} failed={doc['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in doc["metrics"].items()),
                  file=sys.stderr, flush=True)
        shares = sorted({d["failed"] / d["attempted"] for d in runs})
        print(f"\n{workload}: {len(runs)} runs, failed share(s) "
              f"{', '.join(f'{s:.6f}' for s in shares)}, "
              f"all correct: {all(d['correct'] for d in runs)}")
        print(f"  {'metric':14s} {'unit':5s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>8s} {'bound':>6s}")
        for name, spec in bounds.items():
            values = [d["metrics"][name]["value"] for d in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / spec["bound"])
            flag = "!!" if spread > spec["bound"] else (
                "!" if spread > spec["bound"] / 3 else "")
            print(f"  {name:14s} {spec['unit']:5s} {med:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {spread:8.4f} {spec['bound']:6.3f} {flag}")
    print(f"\nlargest spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
