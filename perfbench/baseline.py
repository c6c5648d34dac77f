#!/usr/bin/env python3
"""Record a baseline: two sets of seeded runs of every workload, and a trace.

    python3 perfbench/baseline.py

Each set runs every workload in BENCHMARK.json on ten seeds, one run after
another, with the command BENCHMARK.json names, from the checkout root;
set 1 uses seeds 1-10 and set 2 seeds 11-20.  For each set, workload and
end-to-end metric it writes every value, the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`), the sample count and the
spread (q3 - q1) / median.  It also writes how far the median moved from
set 1 to set 2 in the metric's worse direction, next to the metric's
bound, and whether the two sets agree within it.  One traced run per
workload then gives a per-layer snapshot.  The output is
perfbench/baseline.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2


def run(manifest: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(manifest["run_seconds"]),
                                 "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med, "values": values}


def main() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    summary: dict = {"run_seconds": manifest["run_seconds"],
                     "workloads": {name: {"correct": True, "ops_failed": 0, "ops_total": 0,
                                          "sets": []} for name in names}}
    for k in range(SETS):
        for name in names:
            entry = summary["workloads"][name]
            results = [run(manifest, name, seed, 0)
                       for seed in range(k * SEEDS + 1, (k + 1) * SEEDS + 1)]
            entry["correct"] &= all(r["correct"] for r in results)
            entry["ops_failed"] += sum(r["failed"] for r in results)
            entry["ops_total"] += sum(r["attempted"] for r in results)
            entry["sets"].append({m["name"]: summarise([r["metrics"][m["name"]]["value"]
                                                        for r in results])
                                  for m in manifest["end_to_end"]})
            for m in manifest["end_to_end"]:
                s = entry["sets"][-1][m["name"]]
                print(f"set {k + 1} {name:<14} {m['name']:<13} median {s['median']:12.6g} "
                      f"{m['unit']:<4} spread {s['spread']:.4f} (bound {m['bound']})",
                      flush=True)
    for name in names:
        entry = summary["workloads"][name]
        entry["agreement"] = {}
        for m in manifest["end_to_end"]:
            first, last = (entry["sets"][i][m["name"]]["median"] for i in (0, -1))
            worse = (last - first) / first * (1 if m["better"] == "lower" else -1)
            entry["agreement"][m["name"]] = {"worse_by": worse, "bound": m["bound"],
                                             "agree": worse <= m["bound"]}
        traced = run(manifest, name, 1, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["correct"] &= traced["correct"]
    (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
