"""The benchmark's layer tracer still installs over the library.

`perfbench/tracer.py` rebinds library functions by name and asserts that
every binding it expects is found (for instance `rank` in `cyclic`'s
namespace).  A refactor that drops one passes the rest of the suite but
breaks `perfbench/run.py --trace 1`; this test catches it.
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
