"""Report assembly and the package's acceptance battery.

``build_report`` produces the four-column comparison report for an affine
model: absolute K-theory of X, K-theory of the thickening X_A, relative
K-theory of the pair, and relative negative cyclic homology, resolved by
codimension rows (generic point, then one punctual row per codimension at
the origin).  K-theory entries are never computed directly: the absolute
and augmented columns carry descriptive labels marked out of
computational scope, and the relative column is a verbatim copy of the
negative cyclic column, identified through the relative Chern character
for split nilpotent pairs.  Every number in the report comes from the
cyclic, hodge and localcoh modules, and the report embeds the
consistency checks that tie them together.

``selftest`` reruns the full acceptance battery: the dual-number tables,
the bundle comparison, the degenerate SBI identity, the eigenspace
formulas, the idempotent identities, the convention pin, the tangent
property suite, split exactness, the local cohomology patterns, and the
report checks.  Exit status is nonzero on any failure.
"""

from __future__ import annotations

import json
import random
import time

from .algebra import (ArtinLocal, FunctionField, dual_numbers, dual_pair,
                      polynomial_algebra, tensor_artin)
from .cyclic import hc_table, sbi_degeneration_check, split_exactness_check
from .differentials import OmegaModule, hc_bundle, hn_bundle, omega_dims
from .hodge import (MAX_SYMMETRIC_DEGREE, hc_hodge_dual, hh_hodge_table,
                    verify_idempotent_identities)
from .localcoh import (LocalCohTable, depth_vanishing_holds, local_coh,
                       supported_tangent_dims)
from .symbols import SteinbergSymbol, random_unit, tangent

SCHEMA = "coniveau-report/1"


class UnsupportedContext(Exception):
    """Report parameters outside the supported desk scale."""


class ReportWindows:
    __slots__ = ("n_max", "w_max", "coh_window")

    def __init__(self, n_max: int = 3, w_max: int = 2, coh_window: tuple = (-6, 6)):
        self.n_max, self.w_max, self.coh_window = n_max, w_max, coh_window


class Check:
    __slots__ = ("name", "passed", "details")

    def __init__(self, name: str, passed: bool, details: str = ""):
        self.name, self.passed, self.details = name, passed, details

    def to_json_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "details": self.details}


class MachineReport:
    __slots__ = ("context", "columns", "rows", "checks")

    def __init__(self, context: dict, columns: list, rows: list, checks: list | None = None):
        self.context, self.columns, self.rows = context, columns, rows
        self.checks = [] if checks is None else checks

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "context": self.context,
            "columns": self.columns,
            "rows": self.rows,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _label(text: str) -> dict:
    return {"label": text, "scope": "out-of-computational-scope"}


def _artin_json(artin: ArtinLocal) -> list[dict]:
    return [{"symbol": g.symbol, "nilpotency": g.nilpotency}
            for g in artin.algebra.generators]


def build_report(n_dim: int, p: int, artin: ArtinLocal,
                 windows: ReportWindows | None = None) -> MachineReport:
    """Four-column report for affine n_dim-space over Q, index p.

    Desk scale: n_dim <= 2 and p <= 3.  Eigenspace sub-rows appear only
    for dual numbers, where the degenerate SBI recursion applies.
    """
    if n_dim > 2 or n_dim < 0 or p > 3 or p < 0:
        raise UnsupportedContext(f"n_dim={n_dim}, p={p} is outside desk scale")
    windows = windows or ReportWindows()
    dual = artin.is_dual_numbers()
    columns = ["K_p(X)", "K_p(X_A)", "K_p(X_A,m)", "HN_p(X_A,m)"]
    context = {
        "ambient": f"affine {n_dim}-space over Q",
        "ambient_dimension": n_dim,
        "index": p,
        "artin": _artin_json(artin),
        "windows": {"n_max": windows.n_max, "w_max": windows.w_max,
                    "coh_window": list(windows.coh_window)},
    }
    rows: list[dict] = []
    checks: list[Check] = []

    # generic-point row: everything is a formula label at this level
    bundle_degs = hn_bundle(p, 0, polynomial_algebra()).degrees
    bundle_text = " + ".join(f"Omega^{q}(k(X))" for q in bundle_degs) or "0"
    rows.append({
        "codim": 0,
        "point": "generic",
        "K_p(X)": _label(f"K_{p}(k(X))"),
        "K_p(X_A)": _label(f"K_{p}(k(X) tensor A)"),
        "K_p(X_A,m)": _label(f"K_{p}(k(X) tensor A, m) = HN_{p} "
                             "by the relative Chern isomorphism"),
        "HN_p(X_A,m)": (_label(bundle_text) if dual
                        else _label(f"HN_{p}(k(X) tensor A, m)")),
    })

    for j in range(1, n_dim + 1):
        base = polynomial_algebra(*[f"x{i + 1}" for i in range(j)])
        m = p - j
        hn_loc = supported_tangent_dims(m, j, base, windows.coh_window)
        hn_entry = {"table": hn_loc.to_json_dict(),
                    "bundle_degrees": list(hn_bundle(m, j, base).degrees)}
        if dual:
            eig = {}
            eig_sum = LocalCohTable(j, windows.coh_window)
            for i in range(p // 2 + 1, p + 1):
                ti = supported_tangent_dims(m, j, base, windows.coh_window,
                                            hodge_index=i)
                eig[str(i)] = ti.to_json_dict()
                eig_sum = eig_sum.add(ti)
            hn_entry["eigenspaces"] = eig
            checks.append(Check(
                f"eigenspace-sum-codim-{j}",
                eig_sum.entries == hn_loc.entries,
                "sum of eigenspace tables equals the full table"))
        rel_k_entry = dict(hn_entry)
        rel_k_entry["identified_with"] = "HN_p(X_A,m) column (relative Chern)"
        rows.append({
            "codim": j,
            "point": "origin",
            "K_p(X)": _label(f"K_{p - j}(k(x)), x of codimension {j}"),
            "K_p(X_A)": _label(f"K_{p - j}(O_{{X,x}} tensor A on x)"),
            "K_p(X_A,m)": rel_k_entry,
            "HN_p(X_A,m)": hn_entry,
        })
        checks.append(Check(
            f"chern-column-identity-codim-{j}",
            rel_k_entry["table"] == hn_entry["table"],
            "relative K column is the verbatim Chern-identified copy"))
        checks.append(Check(
            f"depth-vanishing-codim-{j}", depth_vanishing_holds(j),
            "H^i = 0 for i < j on free modules"))

    # homology-level consistency checks on the affine model
    coords = [f"x{i + 1}" for i in range(n_dim)]
    r_alg = polynomial_algebra(*coords)
    pair = tensor_artin(r_alg, artin)
    for kind in ("HH", "HC"):
        cells = split_exactness_check(pair, windows.n_max, windows.w_max, kind)
        checks.append(Check(
            f"split-exactness-{kind}", all(c.ok for c in cells),
            f"dim {kind}(augmented) = dim(absolute) + dim(relative) on "
            f"{len(cells)} cells"))
    if dual:
        cells = sbi_degeneration_check(pair, windows.n_max, windows.w_max)
        checks.append(Check(
            "sbi-degeneration", all(c.ok for c in cells),
            f"dim HH_n = dim HC_n + dim HC_(n-1) on {len(cells)} cells"))
        hc = hc_table(pair, windows.n_max, windows.w_max)
        bundle_ok = all(
            hc.dim(n, w) == hc_bundle(n, r_alg).graded_dim(w)
            for n in range(windows.n_max + 1) for w in range(windows.w_max + 1))
        checks.append(Check(
            "hc-bundle-match", bundle_ok,
            "relative HC equals the exterior-power bundle dimensions"))
    return MachineReport(context, columns, rows, checks)


# -- acceptance battery -----------------------------------------------------


class CriterionResult:
    __slots__ = ("name", "passed", "seconds", "details")

    def __init__(self, name: str, passed: bool, seconds: float, details: str = ""):
        self.name, self.passed, self.seconds, self.details = name, passed, seconds, details

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s) {self.details}"


def _timed(name, fn) -> CriterionResult:
    t0 = time.time()
    try:
        details = fn() or ""
        return CriterionResult(name, True, time.time() - t0, details)
    except Exception as exc:  # report, never swallow silently
        return CriterionResult(name, False, time.time() - t0,
                               f"{type(exc).__name__}: {exc}")


def criterion_dual_numbers_base_field() -> str:
    got = hc_table(dual_pair(polynomial_algebra()), 4, 0).column(0)
    assert got == [1, 0, 1, 0, 1], got
    return "relative HC of (Q[e],(e)) is (1,0,1,0,1)"


def criterion_dual_numbers_polynomial_bases() -> str:
    cells = 0
    for syms in (("x",), ("x", "y")):
        base = polynomial_algebra(*syms)
        t = hc_table(dual_pair(base), 4, 4)
        for n in range(5):
            for w in range(5):
                assert t.dim(n, w) == hc_bundle(n, base).graded_dim(w), \
                    (syms, n, w)
                cells += 1
    return f"relative HC matches bundle dims on {cells} cells"


def criterion_sbi_degeneration() -> str:
    cells = 0
    for syms, n_max, w_max in (((), 4, 0), (("x",), 4, 4), (("x", "y"), 4, 4)):
        cs = sbi_degeneration_check(dual_pair(polynomial_algebra(*syms)),
                                    n_max, w_max)
        assert all(c.ok for c in cs), [(c.n, c.w, c.lhs, c.rhs) for c in cs if not c.ok][:3]
        cells += len(cs)
    return f"degenerate SBI identity on {cells} cells"


def criterion_eigenspace_formula() -> str:
    cells = 0
    for syms, w_max in (((), 0), (("x",), 4)):
        base = polynomial_algebra(*syms)
        t = hc_hodge_dual(dual_pair(base), 4, w_max)
        for n in range(5):
            for w in range(w_max + 1):
                for i in range(0, n + 1):
                    in_support = n // 2 <= i <= n and 2 * i - n >= 0
                    expect = omega_dims(base, 2 * i - n, w) if in_support else 0
                    if n == 0:
                        expect = omega_dims(base, 0, w) if i == 0 else 0
                    assert t.dim(n, w, i) == expect, (syms, n, w, i)
                    cells += 1
    return f"cyclic eigenspaces equal Omega^(2i-n) on {cells} cells"


def criterion_eulerian_idempotents() -> str:
    for n in range(1, MAX_SYMMETRIC_DEGREE + 1):
        verify_idempotent_identities(n)
    # boundary commutation runs as a hard assertion on every cell built here
    hh_hodge_table(dual_pair(polynomial_algebra("x")), 4, 2)
    return (f"orthogonal idempotents to degree {MAX_SYMMETRIC_DEGREE}; "
            "chain-map property on all cells")


def criterion_hodge_convention_pin() -> str:
    for syms in (("x",), ("x", "y")):
        base = polynomial_algebra(*syms)
        t = hh_hodge_table(base, 3, 3)
        for n in range(4):
            for w in range(4):
                assert t.dim(n, w, n) == omega_dims(base, n, w), (syms, n, w)
    return "image of the top idempotent matches the top exterior power"


def criterion_tangent_property_suite() -> str:
    counts = {"bimult": 0, "antisym": 0, "steinberg": 0, "surjective": 0}
    for coords, n_tri, n_pairs, n_st in ((("x",), 60, 50, 25),
                                         (("x", "y"), 40, 50, 25)):
        ff = FunctionField(coords, dual_numbers("e"))
        base = FunctionField(coords)
        rng = random.Random(20240)
        one = ff.one()
        for _ in range(n_tri):
            f, f2, g = (random_unit(ff, rng, 1) for _ in range(3))
            lhs = tangent(SteinbergSymbol(f * f2, g))
            rhs = tangent(SteinbergSymbol(f, g)) + tangent(SteinbergSymbol(f2, g))
            assert (lhs - rhs).is_zero()
            lhs2 = tangent(SteinbergSymbol(g, f * f2))
            rhs2 = tangent(SteinbergSymbol(g, f)) + tangent(SteinbergSymbol(g, f2))
            assert (lhs2 - rhs2).is_zero()
            counts["bimult"] += 1
        for _ in range(n_pairs):
            f, g = random_unit(ff, rng, 1), random_unit(ff, rng, 1)
            assert (tangent(SteinbergSymbol(f, g))
                    + tangent(SteinbergSymbol(g, f))).is_zero()
            counts["antisym"] += 1
        done = 0
        while done < n_st:
            f = random_unit(ff, rng, 1)
            if not (one - f).is_unit():
                continue
            assert tangent(SteinbergSymbol(f, one - f)).is_zero()
            done += 1
            counts["steinberg"] += 1
        from .differentials import OneForm
        e = ff.var("e")
        done = 0
        while done < n_st:
            a = random_unit(ff, rng, 1).nilfree_part()
            b = random_unit(ff, rng, 1).nilfree_part()
            # {b, 1 + a*b*e} -> log(1+abe) db/b = a*e*db, stripped to a db
            form = tangent(SteinbergSymbol(b, one + a * b * e))
            a0, b0 = a.artin_coefficient((0,), base), b.artin_coefficient((0,), base)
            expect = OneForm(base, {s: a0 * b0.derivative_wrt(s) for s in coords})
            assert (form - expect).is_zero()
            done += 1
            counts["surjective"] += 1
    return (f"{counts['bimult']} bimultiplicative triples, "
            f"{counts['antisym']} antisymmetry pairs, "
            f"{counts['steinberg']} Steinberg relations, "
            f"{counts['surjective']} generator images")


def criterion_split_exactness() -> str:
    from .algebra import artin_algebra
    cells = 0
    for artin in (dual_numbers("e"), artin_algebra(("t", 3))):
        pair = tensor_artin(polynomial_algebra("x"), artin)
        for kind in ("HH", "HC"):
            cs = split_exactness_check(pair, 3, 3, kind)
            assert all(c.ok for c in cs), (artin, kind)
            cells += len(cs)
    return f"augmented = absolute + relative on {cells} cells"


def criterion_local_cohomology() -> str:
    qx = polynomial_algebra("x")
    qxy = polynomial_algebra("x", "y")
    window = (-6, 6)
    for base, j in ((qx, 1), (qxy, 2)):
        assert depth_vanishing_holds(j)
        for pdeg in range(0, j + 1):
            t = local_coh(OmegaModule(base, pdeg), window)
            for i in range(j):
                assert all(t.dim(i, d) == 0 for d in range(-6, 7)), (j, pdeg, i)
    t1 = local_coh(OmegaModule(qx, 0), window)
    assert all(t1.dim(1, d) == (1 if d <= -1 else 0) for d in range(-6, 7))
    t2 = local_coh(OmegaModule(qxy, 0), window)
    assert all(t2.dim(2, -d) == (d - 1 if d >= 2 else 0) for d in range(0, 7))
    return "depth vanishing and the two boundary patterns, window -6..6"


def criterion_machine_report() -> str:
    rep = build_report(2, 2, dual_numbers("e"))
    assert rep.all_pass, [c.name for c in rep.checks if not c.passed]
    qxy = polynomial_algebra("x1", "x2")
    expected = local_coh(OmegaModule(qxy, 1), (-6, 6))
    codim2 = next(r for r in rep.rows if r["codim"] == 2)
    assert codim2["HN_p(X_A,m)"]["table"] == expected.to_json_dict()
    assert codim2["K_p(X_A,m)"]["table"] == expected.to_json_dict()
    # determinism: byte-identical serialization on a rebuild
    assert rep.to_json() == build_report(2, 2, dual_numbers("e")).to_json()
    return "codimension-2 entry is H^2(Omega^1); all embedded checks pass"


ACCEPTANCE = [
    ("dual-numbers-base-field-hc", criterion_dual_numbers_base_field),
    ("dual-numbers-polynomial-hc-vs-bundle", criterion_dual_numbers_polynomial_bases),
    ("sbi-degeneration", criterion_sbi_degeneration),
    ("cyclic-eigenspace-formula", criterion_eigenspace_formula),
    ("eulerian-idempotent-identities", criterion_eulerian_idempotents),
    ("hodge-convention-pin", criterion_hodge_convention_pin),
    ("tangent-property-suite", criterion_tangent_property_suite),
    ("split-exactness", criterion_split_exactness),
    ("local-cohomology-patterns", criterion_local_cohomology),
    ("machine-report", criterion_machine_report),
]


def selftest(out=print) -> int:
    """Run the acceptance battery; returns 0 iff everything passed."""
    t0 = time.time()
    results = [_timed(name, fn) for name, fn in ACCEPTANCE]
    for r in results:
        out(r.line())
    failed = [r for r in results if not r.passed]
    out(f"{len(results) - len(failed)}/{len(results)} criteria passed "
        f"in {time.time() - t0:.1f}s")
    return 1 if failed else 0
