"""Outside-in layer tracer for cychom: no library file changes.

`Tracer.install()` rebinds the public functions and method slots listed
below to timing wrappers.  A function imported into several modules
(`rank` lives in five) is rebound in every module that holds it, and the
install asserts that each binding it expects was found and that no module
still holds an unwrapped original, so a layer's time cannot leak silently
into its caller's self time.

Each wrapper records a span: calls, self time (its duration minus the time
of wrapped calls made inside it) and optional size counters.  Self times
of all spans plus the time outside every span add up to the process's
traced time.  `report()` also reads `cache_info()` of every module-level
`lru_cache`, deduplicated by object identity, per defining module.
"""

from __future__ import annotations

import functools
import sys
import time


def _counter(*keys):
    """Mark a span counter with the keys it adds to the span's stats."""
    def mark(fn):
        fn.keys = keys
        return fn
    return mark


@_counter("nnz")
def _nnz_out(st, args, out):
    st["nnz"] += len(out.entries)


@_counter("nnz_in", "max_cols")
def _rank_in(st, args, out):
    st["nnz_in"] += len(args[0].entries)
    st["max_cols"] = max(st["max_cols"], args[0].cols)


@_counter("nnz_in")
def _matmul_in(st, args, out):
    st["nnz_in"] += len(args[0].entries) + len(args[1].entries)


# span name, defining module, attribute, modules expected to bind it, counter
FUNCTIONS = (
    ("qlinalg.rank", "qlinalg", "rank",
     ("qlinalg", "cyclic", "hodge", "differentials", "localcoh"), _rank_in),
    ("cyclic.chain_cell", "cyclic", "chain_cell", ("cyclic", "hodge"), None),
    ("cyclic.hochschild_boundary", "cyclic", "hochschild_boundary", ("cyclic",), _nnz_out),
    ("cyclic.hc_table", "cyclic", "hc_table", ("cyclic", "cli", "machine"), None),
    ("cyclic.hh_table", "cyclic", "hh_table", ("cyclic", "cli", "hodge"), None),
    ("hodge.projector_matrix", "hodge", "projector_matrix", ("hodge",), _nnz_out),
    ("hodge.eulerian_idempotents", "hodge", "eulerian_idempotents", ("hodge",), None),
    ("hodge.hh_hodge_table", "hodge", "hh_hodge_table", ("hodge", "cli", "machine"), None),
    ("hodge.hc_hodge_dual", "hodge", "hc_hodge_dual", ("hodge", "cli", "machine"), None),
    ("hodge.hn_hodge_dual", "hodge", "hn_hodge_dual", ("hodge", "cli"), None),
    ("algebra.poly_gcd", "algebra", "poly_gcd", ("algebra",), None),
    ("symbols.parse_symbol", "symbols", "parse_symbol", ("symbols", "cli"), None),
    ("symbols.tangent", "symbols", "tangent", ("symbols", "cli", "machine"), None),
    ("differentials.dlog", "differentials", "dlog", ("differentials", "symbols"), None),
    ("differentials.hc_bundle", "differentials", "hc_bundle",
     ("differentials", "machine"), None),
    ("localcoh.local_coh", "localcoh", "local_coh", ("localcoh", "cli", "machine"), None),
    ("localcoh.supported_tangent_dims", "localcoh", "supported_tangent_dims",
     ("localcoh", "machine"), None),
    ("machine.build_report", "machine", "build_report", ("machine", "cli"), None),
    ("cli.main", "cli", "main", ("cli",), None),
)

# span name, defining module, class, method, counter
METHODS = (
    ("qlinalg.matmul", "qlinalg", "SparseMatrix", "__matmul__", _matmul_in),
    ("qlinalg.eq", "qlinalg", "SparseMatrix", "__eq__", None),
    ("qlinalg.hstack", "qlinalg", "SparseMatrix", "hstack", None),
    ("algebra.bigraded_basis", "algebra", "GradedAlgebra", "bigraded_basis", None),
    ("differentials.OneForm.strip_dual", "differentials", "OneForm", "strip_dual", None),
    ("cli.serialize", "cyclic", "HomologyTable", "to_json_dict", None),
    ("cli.serialize", "cyclic", "HomologyTable", "to_json", None),
    ("cli.serialize", "hodge", "HodgeTable", "to_json_dict", None),
    ("cli.serialize", "hodge", "HodgeTable", "to_json", None),
    ("cli.serialize", "localcoh", "LocalCohTable", "to_json_dict", None),
    ("cli.serialize", "localcoh", "LocalCohTable", "to_json", None),
    ("cli.serialize", "machine", "MachineReport", "to_json_dict", None),
    ("cli.serialize", "machine", "MachineReport", "to_json", None),
    ("cli.serialize", "machine", "Check", "to_json_dict", None),
)

# counted, not timed: FunctionFieldElement constructions
COUNTED = (("algebra.ff_element", "algebra", "FunctionFieldElement", "__init__"),)


def _modules() -> dict[str, object]:
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("cychom.") and mod is not None}


class Tracer:
    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, list[int]] = {}
        self._stack = [[0.0]]          # child-time accumulators; [0] is the root
        self._caches: dict[int, object] = {}
        self._originals: list[object] = []

    def _wrap(self, name: str, fn, counter):
        st = self.spans.setdefault(name, {"calls": 0, "self_s": 0.0})
        st.update(dict.fromkeys(getattr(counter, "keys", ()), 0))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    counter(st, args, out)
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                st["calls"] += 1
                st["self_s"] += dt - child[0]
                stack[-1][0] += dt
        return span

    def _count(self, name: str, fn):
        box = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        mods = _modules()
        for mod in mods.values():
            for value in vars(mod).values():
                if callable(getattr(value, "cache_info", None)):
                    self._caches[id(value)] = value
        for name, home, attr, expected, counter in FUNCTIONS:
            orig = getattr(mods[home], attr)
            wrapped = self._wrap(name, orig, counter)
            found = {mname for mname, mod in mods.items()
                     if any(v is orig for v in vars(mod).values())}
            missing = set(expected) - found
            if missing:
                raise AssertionError(f"{home}.{attr} is not bound in {sorted(missing)}")
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
            self._originals.append(orig)
        for name, home, cls_name, attr, counter in METHODS:
            self._patch_method(mods, home, cls_name, attr,
                               lambda fn, n=name, c=counter: self._wrap(n, fn, c))
        for name, home, cls_name, attr in COUNTED:
            self._patch_method(mods, home, cls_name, attr,
                               lambda fn, n=name: self._count(n, fn))
        self._assert_no_original(mods)

    def _patch_method(self, mods, home, cls_name, attr, make) -> None:
        cls = getattr(mods[home], cls_name)
        if attr not in vars(cls):
            raise AssertionError(f"{home}.{cls_name} defines no {attr}")
        orig = vars(cls)[attr]
        setattr(cls, attr, make(orig))
        self._originals.append(orig)

    def _assert_no_original(self, mods) -> None:
        originals = {id(o) for o in self._originals}
        for mname, mod in mods.items():
            for key, value in vars(mod).items():
                holders = [value] + (list(vars(value).values())
                                     if isinstance(value, type) else [])
                if any(id(h) in originals for h in holders):
                    raise AssertionError(f"{mname}.{key} still holds an unwrapped original")

    def report(self) -> dict:
        caches: dict[str, dict] = {}
        for fn in self._caches.values():
            info = fn.cache_info()
            agg = caches.setdefault(fn.__module__.split(".", 1)[1],
                                    {"entries": 0, "hits": 0, "misses": 0})
            agg["entries"] += info.currsize
            agg["hits"] += info.hits
            agg["misses"] += info.misses
        return {"spans": self.spans,
                "counts": {k: v[0] for k, v in self.counts.items()},
                "caches": caches}
