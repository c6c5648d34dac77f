"""Screen two cychom source trees against each other on one perfbench workload.

Usage:  python scripts/ab_ops.py SRC_A SRC_B WORKLOAD [REPS]

SRC_A and SRC_B are directories that hold a `cychom` package (a checkout's
`src/`).  Both are loaded into this one process, under the package names
`cychom_a` and `cychom_b`.  The workload's ops are built by
`perfbench/workloads.py` with seed 1, as `perfbench/run.py` builds them by
default (its hc-rel-qxy build imports `cychom` from SRC_A for the expected
table).  After one untimed run of each tree, each of REPS repetitions
(default 10) runs every op through each tree's `cli.main`, the trees in
alternating order, after clearing every module-level `lru_cache` of that
tree, so each run starts with cold caches.  Each op's stdout must be
identical from the two trees and must pass the workload's own check.  The
script prints the ratio of B's op time to A's per repetition, then the
median ratio with its quartiles.

This is for screening only and is never a claim: both trees share one warm
interpreter, its allocator and its compiled modules, and the ratio says
nothing about start-up or memory.  A claim comes from `perfbench/run.py`,
each side in a fresh checkout of its own.
"""

import contextlib
import gc
import importlib
import importlib.util
import io
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 1

sys.dont_write_bytecode = True     # leave no __pycache__ in either tree


def load(src: str, name: str):
    """The `cli` module of the cychom package under `src`, imported as `name`."""
    pkg = pathlib.Path(src).resolve() / "cychom"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def clear_caches(name: str) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith(name + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def run(cli, ops) -> tuple[float, list[list[dict]]]:
    """(seconds spent in cli.main over every op, each op's calls)."""
    spent, outputs = 0.0, []
    for op in ops:
        calls = []
        for argv in op.argv:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                rc = cli.main(list(argv))
                spent += time.perf_counter() - t0
            calls.append({"rc": rc, "out": out.getvalue(), "err": ""})
        outputs.append(calls)
    return spent, outputs


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "perfbench")] + argv[:1]
    from workloads import WORKLOADS
    if len(argv) not in (3, 4) or argv[2] not in WORKLOADS or \
            (len(argv) == 4 and not (argv[3].isdigit() and int(argv[3]) >= 2)):
        print(__doc__.split("\n\n")[1] + f"\n  WORKLOAD in {sorted(WORKLOADS)}, REPS >= 2",
              file=sys.stderr)
        return 2
    src_a, src_b, workload = argv[:3]
    reps = int(argv[3]) if len(argv) == 4 else 10
    wl = WORKLOADS[workload]
    ops = wl.build(SEED)
    trees = {"A": ("cychom_a", load(src_a, "cychom_a")),
             "B": ("cychom_b", load(src_b, "cychom_b"))}
    for _name, cli in trees.values():   # untimed: a process's first run is slower
        run(cli, ops)
    ratios = []
    for k in range(reps):
        seconds, outputs = {}, {}
        for side in ("AB" if k % 2 == 0 else "BA"):
            name, cli = trees[side]
            clear_caches(name)
            seconds[side], outputs[side] = run(cli, ops)
        for op, calls_a, calls_b in zip(ops, outputs["A"], outputs["B"]):
            if [c["out"] for c in calls_a] != [c["out"] for c in calls_b]:
                raise SystemExit(f"the two trees print different output for {op.argv}")
            error = wl.verify(op, calls_a)
            if error is not None:
                raise SystemExit(f"{op.argv}: {error}")
        ratios.append(seconds["B"] / seconds["A"])
        print(f"rep {k + 1}: A {seconds['A'] * 1e3:.1f} ms, B {seconds['B'] * 1e3:.1f} ms, "
              f"B/A {ratios[-1]:.3f}")
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"{workload}: median B/A {median:.3f} (quartiles {q1:.3f}, {q3:.3f}) over {reps} reps")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
