"""The benchmark's layer tracer still installs over the library.

`perfbench/tracer.py` rebinds library functions by name and asserts that
every binding it expects is found (for instance `rank` in `cyclic`'s
namespace), and its size counters read what the wrapped functions return.
A refactor that drops a binding or changes a return type passes the rest
of the suite but breaks `perfbench/run.py --trace 1`; these tests catch it.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs():
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import cychom.cli, tracer; tracer.Tracer().install()")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_COUNT_PROJECTORS = """
import contextlib, io, sys
sys.path[:0] = sys.argv[1:3]
import cychom.cli, tracer
t = tracer.Tracer()
t.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cychom.cli.main(["hodge", "--algebra", sys.argv[3], "--kind", "hh",
                          "--max-degree", "2", "--max-weight", "1"])
span = t.report()["spans"]["hodge.projector_matrix"]
assert rc == 0 and span["calls"] > 0 and span["nnz"] > 0, (rc, span)
"""


def test_perfbench_tracer_counts_projectors(tmp_path):
    # the tracer's projector counter reads `.entries` of what
    # projector_matrix returns; a return-type change breaks it here
    spec = tmp_path / "dual_qx.json"
    spec.write_text('{"generators": [{"symbol": "x", "weight": 1}], '
                    '"artin": [{"symbol": "e", "nilpotency": 2}]}')
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_PROJECTORS, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(spec)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
