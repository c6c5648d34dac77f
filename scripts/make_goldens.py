"""Regenerate the golden fixtures under tests/fixtures/v1/.

Every homology fixture is produced from the closed-form side (exterior
power dimension counts, the eigenspace selection rule, lattice-point
counts for local cohomology), never from the chain-level computations the
tests are checking.  The report fixture pins byte determinism of the
serialized report; its numeric content is cross-checked separately in the
test suite.  The tangent fixture pins the stdout bytes of `cychom tangent`
on the first tangent-batch symbols of perfbench seed 1 (json, text and
--general); perfbench checks the same forms against their closed form.
The Artin table fixture pins the stdout bytes of `cychom hh --relative`
and `cychom hc --relative` on the perfbench Q[t]/(t^3) and Q[e,f]/(e^2,f^2)
specs, each table filled from its closed form and printed by the CLI's
own renderer.
"""

import contextlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cychom import cli  # noqa: E402
from cychom.algebra import dual_numbers, polynomial_algebra  # noqa: E402
from cychom.cyclic import HomologyTable  # noqa: E402
from cychom.differentials import omega_dims  # noqa: E402
from cychom.machine import build_report  # noqa: E402
from workloads import tangent_ops  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures" / "v1"
TANGENT_SYMBOLS = 25
ARTIN_WINDOW = (5, 1)   # max degree, max weight of the Artin tables


def bundle_dim(base, n, w):
    return sum(omega_dims(base, p, w) for p in range(n, -1, -2))


def homology_entries(dims):
    return [{"n": n, "w": w, "dim": d} for (n, w), d in sorted(dims.items())]


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    q = polynomial_algebra()
    qx = polynomial_algebra("x")

    # relative HC of (Q[e],(e)): the bundle collapses to one Q in even degrees
    dims = {(n, 0): bundle_dim(q, n, 0) for n in range(5)}
    write("hc_rel_dual_Q.json",
          {"kind": "HC", "relative": True, "entries": homology_entries(dims)})

    # relative HC of (Q[x][e],(e)) from the exterior-power bundle
    dims = {(n, w): bundle_dim(qx, n, w) for n in range(5) for w in range(5)}
    write("hc_rel_dual_Qx.json",
          {"kind": "HC", "relative": True, "entries": homology_entries(dims)})

    # relative HH via the degenerate SBI identity HH_n = HC_n + HC_(n-1)
    dims = {(n, w): bundle_dim(qx, n, w) + (bundle_dim(qx, n - 1, w) if n else 0)
            for n in range(5) for w in range(5)}
    write("hh_rel_dual_Qx.json",
          {"kind": "HH", "relative": True, "entries": homology_entries(dims)})

    # cyclic eigenspaces of (Q[x][e],(e)): Omega^(2i-n) on the printed support
    entries = []
    for n in range(5):
        for w in range(5):
            for i in range(n + 1):
                if n == 0:
                    dim = omega_dims(qx, 0, w) if i == 0 else 0
                else:
                    in_support = n // 2 <= i <= n and 2 * i - n >= 0
                    dim = omega_dims(qx, 2 * i - n, w) if in_support else 0
                entries.append({"n": n, "w": w, "i": i, "dim": dim})
    write("hodge_hc_dual_Qx.json", {"entries": entries})

    # local cohomology of Omega^1 over Q[x,y]: rank-2 free, degree-1 gens,
    # so H^2 at degree -d has dimension 2*d (lattice count), H^<2 = 0
    entries = []
    for i in range(3):
        for d in range(-6, 7):
            dim = 2 * (-d) if (i == 2 and d <= -1) else 0
            entries.append({"i": i, "d": d, "dim": dim})
    write("localcoh_qxy_omega1.json", {"kind": "Hloc", "entries": entries})

    # serialized report: pins byte determinism across versions
    rep = build_report(2, 2, dual_numbers("e"))
    (FIXTURES / "report_2_2_dual.json").write_text(rep.to_json())
    print("wrote report_2_2_dual.json")

    # tangent forms: argv (spec path relative to the checkout) and stdout
    cases = []
    for op in tangent_ops(1, TANGENT_SYMBOLS):
        argv = [str(pathlib.Path(a).relative_to(ROOT)) if a.endswith(".json") else a
                for a in op.argv[0]]
        for variant in (argv, argv[:-1] + ["text"], argv + ["--general"]):
            cases.append({"argv": variant, "stdout": tangent_stdout(variant)})
    write("tangent_symbols.json", cases)

    write("artin_rel_tables.json", artin_table_cases())


def artin_table_cases():
    """argv and stdout of `cychom hh|hc --relative` on the two Artin specs.

    The relative theories live in weight 0 (no coordinate generators).  For
    Q[t]/(t^3), relative HH is 2 in every degree and relative HC is 2 in
    even degrees and 0 in odd ones.  For Q[e,f]/(e^2,f^2), Kuenneth on
    HH(Q[e]/e^2) = 2, 1, 1, ... gives HH_n = n + 3 (n >= 1) and 4 - 1 = 3
    at n = 0; the periodicity map vanishes in positive nilpotent degree,
    so HC_n = HH_n - HC_(n-1).
    """
    n_max, w_max = ARTIN_WINDOW
    hh = {"artin_t3": [2] * (n_max + 1),
          "artin_ef": [3] + [n + 3 for n in range(1, n_max + 1)]}
    hc = {"artin_t3": [2 if n % 2 == 0 else 0 for n in range(n_max + 1)], "artin_ef": []}
    for n, h in enumerate(hh["artin_ef"]):
        hc["artin_ef"].append(h - (hc["artin_ef"][-1] if n else 0))
    cases = []
    for spec in ("artin_t3", "artin_ef"):
        for kind, dims in (("hh", hh[spec]), ("hc", hc[spec])):
            table = HomologyTable(kind.upper(), True, n_max, w_max,
                                  {(n, 0): d for n, d in enumerate(dims)})
            for fmt in ("json", "text", "csv"):
                argv = [kind, "--relative", "--algebra", f"perfbench/specs/{spec}.json",
                        "--max-degree", str(n_max), "--max-weight", str(w_max),
                        "--format", fmt]
                cases.append({"argv": argv, "stdout": getattr(table, "to_" + fmt)()})
    return cases


def tangent_stdout(argv):
    """stdout of one `cychom tangent` call, the spec path read from the checkout."""
    i = argv.index("--algebra") + 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv[:i] + [str(ROOT / argv[i])] + argv[i + 1:])
    assert rc == 0, argv
    return out.getvalue()


def write(name, obj):
    (FIXTURES / name).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    print(f"wrote {name}")


if __name__ == "__main__":
    main()
