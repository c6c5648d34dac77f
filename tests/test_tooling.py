"""The benchmark's layer tracer still installs over the library.

`perfbench/tracer.py` rebinds library functions by name and asserts that
every binding it expects is found (for instance `rank` in `cyclic`'s
namespace), and its size counters read what the wrapped functions return.
A refactor that drops a binding or changes a return type passes the rest
of the suite but breaks `perfbench/run.py --trace 1`; these tests catch it.
The scripts under `scripts/` are run too: the golden fixtures regenerate
byte for byte, the dual-number tables print, and the A/B screening script
and the CLI byte battery run a tree against itself.  The last tests pin
the structure of the source: the caches it keeps, the bound on the strip
cache, that every import is used, what importing `cychom.cli` loads,
which functions sum homology and check b o b = 0, and that `rank` is the
one elimination.
"""

import ast
import pathlib
import shutil
import subprocess
import sys

from cychom import algebra, cyclic
from cychom.algebra import polynomial_algebra
from cychom.differentials import OneForm

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs():
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import cychom.cli, tracer; tracer.Tracer().install()")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# runs one traced CLI call; argv: src, perfbench, span name, span counters,
# counted names, call...
_TRACED_CALL = """
import contextlib, io, sys
sys.path[:0] = sys.argv[1:3]
import cychom.cli, tracer
t = tracer.Tracer()
t.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cychom.cli.main(sys.argv[6:])
report = t.report()
span = report["spans"][sys.argv[3]]
keys = ["calls"] + [k for k in sys.argv[4].split(",") if k]
assert rc == 0 and all(span[k] > 0 for k in keys), (rc, span)
counts = report["counts"]
assert all(counts[k] > 0 for k in sys.argv[5].split(",") if k), counts
"""


def _traced_call(tmp_path, span, counters, *argv, counted=""):
    spec = tmp_path / "dual_qx.json"
    spec.write_text('{"generators": [{"symbol": "x", "weight": 1}], '
                    '"artin": [{"symbol": "e", "nilpotency": 2}]}')
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_CALL, str(ROOT / "src"),
         str(ROOT / "perfbench"), span, counters, counted,
         argv[0], "--algebra", str(spec), *argv[1:]],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# places the projectors of one Q[x][e] cell under the tracer; argv: src, perfbench
_TRACED_PROJECTORS = """
import sys
sys.path[:0] = sys.argv[1:3]
import cychom.cli, tracer
from cychom import hodge
from cychom.algebra import dual_pair, polynomial_algebra
t = tracer.Tracer()
t.install()
a = dual_pair(polynomial_algebra("x")).total
for i in (1, 2):
    hodge.projector_matrix(a, 2, 1, 1, i)
span = t.report()["spans"]["hodge.projector_matrix"]
assert span["calls"] > 0 and span["nnz"] > 0, span
"""


def test_perfbench_tracer_counts_projectors():
    # the tracer's projector counter reads `.entries` of what
    # projector_matrix returns; a return-type change breaks it here.  No
    # table places a projector, so the call is made directly
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_PROJECTORS, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_tracer_counts_rank(tmp_path):
    # the rank counter reads `.entries` and `.cols` of the matrix passed to
    # rank; a change to what rank accepts breaks it here
    _traced_call(tmp_path, "qlinalg.rank", "nnz_in,max_cols", "hc", "--relative",
                 "--max-degree", "3", "--max-weight", "2")


def test_perfbench_tracer_counts_function_field(tmp_path):
    # the function-field metrics count FunctionFieldElement.__init__ and
    # time algebra.poly_gcd; a rewrite that bypasses either zeroes them
    _traced_call(tmp_path, "algebra.poly_gcd", "", "tangent",
                 "--symbol", "{(x + e)/(x + 2), 1 - x^2 + x*e}", "--format", "json",
                 counted="algebra.ff_element")


def test_perfbench_tracer_times_strip_dual(tmp_path):
    # the tracer wraps the method OneForm.strip_dual by name; a tangent over
    # dual numbers must enter it
    _traced_call(tmp_path, "differentials.OneForm.strip_dual", "", "tangent",
                 "--symbol", "{(x + e)/(x + 2), 1 - x^2 + x*e}", "--format", "json")


def test_perfbench_tracer_times_hc_hodge_dual(tmp_path):
    # the tracer rebinds hc_hodge_dual in cli; the table command must look
    # its builder up at call time for the span to see the call
    _traced_call(tmp_path, "hodge.hc_hodge_dual", "", "hodge", "--kind", "hc",
                 "--max-degree", "2", "--max-weight", "1")


def test_make_goldens_reproduces_the_fixtures(tmp_path):
    # the script writes next to its own checkout, so it runs on a copy
    for d in ("src", "scripts", "perfbench"):
        shutil.copytree(ROOT / d, tmp_path / d)
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "make_goldens.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    made, golden = tmp_path / "tests" / "fixtures" / "v1", ROOT / "tests" / "fixtures" / "v1"
    names = sorted(p.name for p in golden.iterdir())
    assert len(names) == 8 and sorted(p.name for p in made.iterdir()) == names
    for name in names:
        assert (made / name).read_bytes() == (golden / name).read_bytes(), name


def test_dual_number_tables_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "dual_number_tables.py"), "2", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "== relative theories of (Q[x,y][e], (e)) ==" in proc.stdout


def test_ab_ops_script_runs_a_tree_against_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_ops.py"), src, src, "hodge-hc-qx", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("B/A") == 3
    assert "hodge-hc-qx: median B/A " in proc.stdout.splitlines()[-1]


def test_cli_bytes_script_runs_a_tree_against_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_bytes.py"), src, src],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(" calls identical\n"), proc.stdout


def test_lru_caches_are_the_expected_six():
    # every cache in src/, by decorated function; all that a table derives
    # for one (w, e) strip is kept on that strip, so `strip` is the one
    # per-strip cache, and it alone is bounded
    caches = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    call = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(call, "id", getattr(call, "attr", None)) == "lru_cache":
                        caches[node.name] = dec
    assert sorted(caches) == sorted([
        "_bigraded_basis", "strip", "_pattern", "eulerian_idempotents",
        "omega_dims", "_strand_cohomology"])
    maxsize = {kw.arg: kw.value for kw in caches["strip"].keywords}["maxsize"]
    assert not (isinstance(maxsize, ast.Constant) and maxsize.value is None)
    assert 0 < cyclic.strip.cache_info().maxsize < float("inf")


def test_strip_cache_stays_within_its_bound():
    # Q has one monomial per strip, so a table over more strips than the
    # bound is cheap: the cache never holds more than the bound, and a
    # table whose strips were evicted is rebuilt with identical entries.
    # This evicts every cached strip, so it sits in the last test module.
    q = polynomial_algebra()
    w_max = cyclic.MAX_STRIPS + 8
    first = cyclic.hh_table(q, 1, w_max)
    info = cyclic.strip.cache_info()
    assert info.maxsize == cyclic.MAX_STRIPS
    assert info.currsize <= info.maxsize
    again = cyclic.hh_table(q, 1, w_max)
    assert cyclic.strip.cache_info().misses >= info.misses + w_max + 1   # all rebuilt
    assert cyclic.strip.cache_info().currsize <= info.maxsize
    assert again.entries == first.entries
    assert first.column(0) == [1, 0] and all(first.column(w) == [0, 0]
                                             for w in range(1, w_max + 1))


def test_cli_import_loads_no_library_machinery():
    # a cold `cychom` process pays for every module it imports: the library
    # is plain classes and integers, so none of these load (-S keeps out
    # what the site hooks of an environment import)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cychom.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'typing'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_unused_imports():
    # every name an import binds is referenced in its module; hodge keeps
    # hh_table bound only because perfbench/tracer.py wraps it there
    hits = set()
    for path in sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        hits |= {(path.relative_to(ROOT).as_posix(), name) for name in imported - used}
    assert hits == {("src/cychom/hodge.py", "hh_table")}


def test_one_strip_walk_sums_homology_and_checks_b_o_b():
    # in src/, homology_dims is called only by cyclic's strip walk and the
    # Cech strands of localcoh, and only the walk reads _assert_square_zero
    calls, reads = set(), set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            where = (module, ".".join(scope))
            func = getattr(child, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "homology_dims":
                calls.add(where)
            if isinstance(child, ast.Name) and child.id == "_assert_square_zero":
                reads.add(where)
            visit(child, module, scope)

    for path in sorted((ROOT / "src").rglob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    assert calls == {("cyclic", "_table"), ("localcoh", "CechStrand.cohomology_dims")}
    assert reads == {("cyclic", "_table")}


def _src_mentions(forbidden):
    """(module, name) for each name in forbidden that a module in src/
    defines, imports or reads."""
    hits = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {n for a in node.names for n in (a.name, a.asname)}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            hits |= {(path.stem, name) for name in names & forbidden}
    return hits


def test_rank_is_the_one_elimination():
    # no module in src/ defines, imports or reads an rref or its row step,
    # or the Markowitz search and its count buckets, so every elimination
    # in the library is the one qlinalg.rank reduction
    assert not _src_mentions({"rref", "_eliminate", "_markowitz_pivot", "_bucket_move"})


def test_heuristic_gcd_is_the_one_gcd():
    # no module in src/ defines, imports or reads the pseudo-remainder gcd,
    # its remainder step or the knob that chose it, so every gcd in the
    # library that no one-term input settles is an intpoly.heu_gcd call
    # that runs until it certifies
    assert not _src_mentions({"prs_gcd", "_pseudo_rem", "_HEU_TRIES"})


def test_no_permutation_product_in_src():
    # no module in src/ defines, imports or reads compose: the idempotent
    # check reads one permutation per descent number off itemgetters, and
    # no library path multiplies two permutations
    assert not _src_mentions({"compose"})


def test_no_sign_switch_in_src():
    # no module in src/ defines, imports or reads a switch of the sign
    # conventions: Connes' operator is t = (-1)^n rotation and the slot
    # action carries the sign character, and the wrong conventions live in
    # the oracle alone
    assert not _src_mentions({"CYCLIC_SIGN_TWIST", "SIGNED_SLOT_ACTION", "twist", "signed"})


def test_no_nilpotency_box_walk():
    # no module in src/ defines, imports or reads a product of ranges or a
    # list of relation vectors of its own: a monomial is zero when one of
    # GradedAlgebra.relations divides it, and the nonzero monomials come
    # from the one enumerator of graded pieces
    assert not _src_mentions({"product", "_relation_vectors"})


def test_function_fields_list_no_artin_basis(monkeypatch):
    # no module in src/ defines, imports or reads a set of live Artin
    # monomials or a table of Artin reduction rules: a function field asks
    # GradedAlgebra.is_zero_monomial which terms vanish, so a field over
    # Q(x)[t]/(t^20000) and a form reduced on it enumerate no graded piece
    assert not _src_mentions({"_artin_reduction_rules", "_live"})
    calls = []
    real = algebra.GradedAlgebra.bigraded_basis
    monkeypatch.setattr(algebra.GradedAlgebra, "bigraded_basis",
                        lambda self, w, e: calls.append((w, e)) or real(self, w, e))
    before = algebra._bigraded_basis.cache_info()
    ff = algebra.FunctionField(("x",), algebra.artin_algebra(("t", 20000)))
    one = {(0, 0): 1}
    top = algebra.FunctionFieldElement(ff, {(1, 19999): 1, (0, 19998): 3}, one)
    form = OneForm(ff, {"x": ff.var("x"), "t": top})
    # d(t^20000) = 20000 t^19999 dt = 0 kills x t^19999 dt; 3 t^19998 dt stays
    assert form.to_coeff_strings() == {"dt": "3*t^19998", "dx": "x"}
    assert OneForm(ff, {"t": algebra.FunctionFieldElement(ff, {(1, 19999): 1}, one)}).is_zero()
    after = algebra._bigraded_basis.cache_info()
    assert calls == []
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses,
                                                          before.currsize)
