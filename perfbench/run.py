#!/usr/bin/env python3
"""cychom benchmark: cold CLI workloads, end-to-end metrics, layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Run from anywhere; the checkout is the directory above this one.  Each
repetition of a workload is one fresh, single-threaded Python process that
imports cychom from the checkout's src/ and sends the workload's requests
through `cychom.cli.main` argv, as a user's CLI call does.  Processes run
one at a time.  Every output is checked; a wrong output or an exception
counts as a failed op and never aborts the run.

--trace 0 alternates repetitions of the program under test with
repetitions of the frozen reference copy in perfbench/reference/, while
the next pair still fits in --seconds (at least one pair).  Each time
metric is the program's value over the reference's value from the same
run, times the reference's nominal value (perfbench/reference/nominal.json),
so a drift in the host's speed cancels.  --trace 1 runs the program once
untraced and once under perfbench/tracer.py, checks that both produce the
same bytes, and reports the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("BENCHMARK.json", "src/cychom/cli.py",
            "tests/fixtures/v1/hodge_hc_dual_Qx.json",
            "tests/fixtures/v1/report_2_2_dual.json")
RUN_LIMIT_S = 170          # no child may outlive this many seconds after start
PROGRAM = str(ROOT / "src")             # the cychom under test
REFERENCE = str(HERE / "reference")     # frozen copy of the seed's cychom
SPEED_METRICS = ("wall_s", "cpu_s", "setup_s", "op_p50_ms", "op_p90_ms")
LAYERS = ("qlinalg", "cyclic", "hodge", "algebra", "symbols", "differentials",
          "localcoh", "machine", "cli")


@dataclass
class Rep:
    """One workload process: its timings and the ops that failed."""

    wall_s: float = 0.0
    setup_s: float | None = None
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    trace: dict | None = None


class Session:
    """One worker process, driven one line at a time (see worker.py)."""

    def __init__(self, src: str, spec: str, trace: bool, deadline: float):
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        self.deadline = deadline
        self.t_spawn = time.monotonic()
        # stderr is inherited, so a worker that dies says why in the run's log
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                                     env=env, text=True, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        try:
            self.t_ready = self.ask({"src": src, "spec": spec, "trace": trace})["t_ready"]
        except BaseException:
            self.close()
            raise

    def ask(self, msg: dict) -> dict:
        """Send one line and return the reply; raises when the worker fails."""
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, self.deadline - time.monotonic()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("worker timed out" if not ready else
                               f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        """Stop the worker and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _verify(wl, op, calls) -> str | None:
    try:
        return wl.verify(op, calls)
    except Exception as exc:       # a malformed output is a failed op
        return f"{type(exc).__name__}: {exc}"


def run_reps(wl, ops, deadline: float, sides: list[str], trace: bool = False) -> list[Rep]:
    """One repetition on each side, their ops interleaved.

    The sides set up one after another.  Then each op runs on every side
    before the next op starts, the side that goes first alternating from op
    to op, so that the sides' times of one op are taken moments apart.
    """
    reps = {src: Rep() for src in sides}
    sessions: dict[str, Session] = {}
    outputs: dict[str, list] = {src: [] for src in sides}
    try:
        for src in sides:
            sessions[src] = Session(src, wl.setup_spec, trace, deadline)
            reps[src].setup_s = sessions[src].t_ready - sessions[src].t_spawn
        for k, op in enumerate(ops):
            for src in sides if k % 2 == 0 else sides[::-1]:
                res = sessions[src].ask({"op": [list(argv) for argv in op.argv]})
                reps[src].op_ms.append(res["ms"])
                outputs[src].append(res["calls"])
        for src in sides:
            res = sessions[src].ask({"end": True})
            reps[src].cpu_s, reps[src].peak_rss_mib = res["cpu_s"], res["peak_rss_mib"]
            reps[src].trace = res.get("trace")
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        for rep in reps.values():
            rep.failures = [f"{type(exc).__name__}: {exc}"] * len(ops)
        return list(reps.values())
    finally:
        for session in sessions.values():
            session.close()
    # checked after the ops ran, so no op time holds harness time
    for src, rep in reps.items():
        rep.outputs = outputs[src]
        rep.failures = [r for r in (_verify(wl, op, calls)
                                    for op, calls in zip(ops, rep.outputs)) if r]
        rep.wall_s = rep.setup_s + sum(rep.op_ms) / 1e3
    return [reps[src] for src in sides]


def self_check(wl, ops, rep: Rep) -> bool:
    """A deliberately corrupted output must count as one failed op.

    When the first op already failed there is no good output to corrupt,
    and the failure itself already makes the run incorrect.
    """
    if not rep.outputs or _verify(wl, ops[0], rep.outputs[0]) is not None:
        return True
    return _verify(wl, ops[0], wl.corrupt(rep.outputs[0])) is not None


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def rep_metrics(rep: Rep) -> dict:
    """The time metrics of one repetition."""
    return {"wall_s": rep.wall_s, "cpu_s": rep.cpu_s, "setup_s": rep.setup_s,
            "op_p50_ms": percentile(rep.op_ms, 0.5), "op_p90_ms": percentile(rep.op_ms, 0.9)}


def measure(wl, seed: int, seconds: float, start: float) -> tuple[dict, int, list[str], bool, str]:
    """Untraced run: metrics, ops attempted, failures, self-check passed, sample counts."""
    deadline = start + RUN_LIMIT_S
    ops = wl.build(seed)
    nominal = json.loads((HERE / "reference" / "nominal.json").read_text())[wl.name]
    run_reps(wl, [], deadline, [PROGRAM, REFERENCE])   # warm the bytecode caches
    pairs: list[dict[str, Rep]] = []
    t0 = time.monotonic()
    while True:
        t_pair = time.monotonic()
        # the side that sets up and runs first alternates from pair to pair
        order = [PROGRAM, REFERENCE] if len(pairs) % 2 == 0 else [REFERENCE, PROGRAM]
        pairs.append(dict(zip(order, run_reps(wl, ops, deadline, order))))
        now = time.monotonic()
        # a pair, its checks included, takes about as long as the last
        if now - t0 + (now - t_pair) > seconds or now + (now - t_pair) > deadline:
            break
    checked = self_check(wl, ops, pairs[0][PROGRAM])
    failures = [f for p in pairs for f in p[PROGRAM].failures]
    ref_failures = [f for p in pairs for f in p[REFERENCE].failures]
    if ref_failures:
        print(f"reference copy failed: {ref_failures[0]}", file=sys.stderr)
        checked = False
    ok = [(rep_metrics(p[PROGRAM]), rep_metrics(p[REFERENCE])) for p in pairs
          if not p[PROGRAM].failures and not p[REFERENCE].failures]
    # each time metric: the program's value over the reference's within each
    # pair, whose ops ran moments apart on the same host, then the median
    # over the pairs, on the reference's nominal scale
    metrics = {"peak_rss_mib": statistics.median(p[PROGRAM].peak_rss_mib for p in pairs)}
    for name in SPEED_METRICS if ok else ():
        metrics[name] = nominal[name] * statistics.median(prog[name] / ref[name]
                                                          for prog, ref in ok)
        print(f"  raw {name:<10} median: program "
              f"{statistics.median(prog[name] for prog, _ in ok):11.6g}, reference "
              f"{statistics.median(ref[name] for _, ref in ok):11.6g}")
    samples = (f"{len(pairs)} pairs of program and reference repetitions, "
               f"{len(ops)} distinct ops per repetition")
    return metrics, len(ops) * len(pairs), failures, checked, samples


def layer_metrics(trace: dict, wall_s: float, untraced_wall_s: float) -> dict:
    spans, caches = trace["spans"], trace["caches"]
    out: dict[str, float] = {}
    for name, st in spans.items():
        for key, value in st.items():
            out[f"{name}.{key}"] = value
    for name, n in trace["counts"].items():
        out[f"{name}.calls"] = n
    for module, c in caches.items():
        looked_up = c["hits"] + c["misses"]
        out[f"{module}.cache.entries"] = c["entries"]
        out[f"{module}.cache.hit_ratio"] = c["hits"] / looked_up if looked_up else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(st["self_s"] for name, st in spans.items()
                                     if name.split(".")[0] == layer)
    out["trace.root.self_s"] = wall_s - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.wall_s"] = wall_s
    out["trace.overhead_ratio"] = wall_s / untraced_wall_s
    return out


def traced(wl, seed: int, start: float) -> tuple[dict, int, list[str], bool, str]:
    """Traced run: per-layer metrics, ops attempted, failures, checks passed, note."""
    deadline = start + RUN_LIMIT_S
    ops = wl.build(seed)
    run_reps(wl, [], deadline, [PROGRAM])     # warm the bytecode cache
    [plain] = run_reps(wl, ops, deadline, [PROGRAM])
    [rep] = run_reps(wl, ops, deadline, [PROGRAM], trace=True)
    failures = plain.failures + rep.failures
    samples = "1 plain and 1 traced repetition"
    if rep.trace is None:
        return {}, 2 * len(ops), failures, False, samples
    same = [[(c["rc"], c["out"]) for c in calls] for calls in plain.outputs] == \
           [[(c["rc"], c["out"]) for c in calls] for calls in rep.outputs]
    if not same:
        print("traced outputs differ from untraced outputs", file=sys.stderr)
    return layer_metrics(rep.trace, rep.wall_s, plain.wall_s), 2 * len(ops), failures, \
        same, samples


def run_workload(wl, manifest: dict, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    group = "per_layer" if trace else "end_to_end"
    if trace:
        metrics, attempted, failures, checked, samples = traced(wl, seed, start)
    else:
        metrics, attempted, failures, checked, samples = measure(wl, seed, seconds, start)
    why = next(w["why"] for w in manifest["workloads"] if w["name"] == wl.name)
    print(f"workload {wl.name}: {why}")
    print(f"seed {seed}" + ("" if wl.seeded else " (ignored: this workload's inputs are fixed)"))
    print(f"samples: {samples}")
    for reason in failures[:10]:
        print(f"FAILED op: {reason}", file=sys.stderr)
    if not checked:
        print("harness check failed (self-check or trace identity)",
              file=sys.stderr)
    out = {}
    for m in manifest[group]:
        if m["name"] not in metrics:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            checked = False
            continue
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  ops_failed = {len(failures)} of ops_total = {attempted}")
    return {"correct": checked and not failures, "attempted": attempted,
            "failed": len(failures), "metrics": out}


def main(argv: list[str] | None = None) -> int:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a cychom checkout, missing {missing}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], manifest, args.seed,
                              args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, wl in WORKLOADS.items():
        result = run_workload(wl, manifest, args.seed, args.seconds, bool(args.trace))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
