"""Check that two cychom source trees print the same bytes on a fixed CLI battery.

Usage:  python scripts/cli_bytes.py SRC_A SRC_B

SRC_A and SRC_B are directories that hold a `cychom` package (a checkout's
`src/`).  The battery is one fixed list of `cychom` argv lists:
- hh, hc, hn and hodge --kind hh|hc|hn in json, csv and text, with and
  without --relative, at three windows, on the five perfbench specs and
  Q[x,y]/(x^2 y)[e];
- localcoh on Q[x], Q[x,y] and Q[x,y] with wt(y) = 2, and report;
- tangent over Q[x][e]/(e^2), and over Q[x][t]/(t^3) and
  Q[x][e,f]/(e^2, f^2), which take the general tangent map, and over
  Q[x][t]/(t^200), where d(t^200) = 0 drops a dt term at t^199, a
  logarithm runs to t^199 and a divisor has a nilpotent tail, with one
  symbol refused by its exponent;
- the exponent edges of monomial codes: an Artin nilpotency of 128 under
  relative hh, hc and hodge, which is accepted, and of 129, which is
  refused; a weight-2 coordinate at --max-weight 255, accepted, and 256,
  refused;
- the error paths: usage errors, unreadable and malformed specs, relative
  tables without an Artin part, refused windows and bad symbols.
The specs it needs are written to one temporary directory.  Each tree runs
the whole battery through its `cli.main` in one cold subprocess of its own
(no `__pycache__` is written).  The script prints `N calls identical` when
every call gives the same stdout, stderr and exit status under both trees;
otherwise it prints the first argv and stream that differ, and exits 1.

It checks bytes, not speed.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

SPECS = {name: json.loads((ROOT / "perfbench" / "specs" / f"{name}.json").read_text())
         for name in ("dual_q", "dual_qx", "dual_qxy", "artin_t3", "artin_ef")}
SPECS["qxy_x2y_e"] = {"generators": [{"symbol": "x", "weight": 1}, {"symbol": "y", "weight": 1}],
                      "monomial_relations": [{"x": 2, "y": 1}],
                      "artin": [{"symbol": "e", "nilpotency": 2}]}
SPECS["qx"] = {"generators": [{"symbol": "x"}]}
SPECS["qxy"] = {"generators": [{"symbol": "x"}, {"symbol": "y"}]}
SPECS["qxy_w2"] = {"generators": [{"symbol": "x"}, {"symbol": "y", "weight": 2}]}
SPECS["qx_t3"] = {"generators": [{"symbol": "x"}], "artin": [{"symbol": "t", "nilpotency": 3}]}
SPECS["qx_ef"] = {"generators": [{"symbol": "x"}],
                  "artin": [{"symbol": "e", "nilpotency": 2}, {"symbol": "f", "nilpotency": 2}]}
SPECS["qx_x2_e"] = {"generators": [{"symbol": "x", "weight": 1}],
                    "monomial_relations": [{"x": 2}], "artin": [{"symbol": "e", "nilpotency": 2}]}
SPECS["qx_t200"] = {"generators": [{"symbol": "x"}], "artin": [{"symbol": "t", "nilpotency": 200}]}
SPECS["t128"] = {"artin": [{"symbol": "t", "nilpotency": 128}]}
SPECS["t129"] = {"artin": [{"symbol": "t", "nilpotency": 129}]}
SPECS["y_w2"] = {"generators": [{"symbol": "y", "weight": 2}]}
TABLE_SPECS = ("dual_q", "dual_qx", "dual_qxy", "artin_t3", "artin_ef", "qxy_x2y_e")
BAD_SPECS = {"not_json.json": "{not json", "list.json": "[1, 2]",
             "float_weight.json": json.dumps({"generators": [{"symbol": "x", "weight": 1.5}]}),
             "no_nilpotency.json": json.dumps({"artin": [{"symbol": "e"}]})}

# runs every argv of the battery file through one tree; argv: src, battery
_RUNNER = """
import contextlib, io, json, pathlib, sys
sys.path.insert(0, sys.argv[1])
from cychom import cli
out = []
for argv in json.loads(pathlib.Path(sys.argv[2]).read_text()):
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    out.append([rc, so.getvalue(), se.getvalue()])
json.dump(out, sys.stdout)
"""


def battery(d: pathlib.Path) -> list[list[str]]:
    """The fixed argv lists; spec paths point into the directory d."""
    def spec(name):
        return str(d / (name if name.endswith(".json") else f"{name}.json"))

    calls = []
    for name in TABLE_SPECS:
        for cmd in (["hh"], ["hc"], ["hn"], ["hodge", "--kind", "hh"],
                    ["hodge", "--kind", "hc"], ["hodge", "--kind", "hn"]):
            for n, w in ((0, 0), (2, 1), (3, 2)):
                for rel in ([], ["--relative"]):
                    for fmt in ("json", "csv", "text"):
                        calls.append([*cmd, "--algebra", spec(name), *rel, "--max-degree",
                                      str(n), "--max-weight", str(w), "--format", fmt])
    for name in ("qx", "qxy", "qxy_w2"):
        for p in (0, 1, 2):
            for window in ("--window=-4:1", "--window=-2:-2"):
                for fmt in ("json", "csv", "text"):
                    calls.append(["localcoh", "--algebra", spec(name), "--p", str(p),
                                  window, "--format", fmt])
    for dim, index, n, w in ((1, 1, 2, 1), (2, 2, 3, 2), (2, 1, 2, 2)):
        for name in ("dual_q", "artin_t3"):
            calls.append(["report", "--algebra", spec(name), "--ambient-dim", str(dim),
                          "--index", str(index), "--max-degree", str(n),
                          "--max-weight", str(w), "--window=-3:3"])
    for symbol in ("{x, 1+x*e}", "{x+e, 2}", "{1+e, x/(1-x)}", "{x^2+e, x-1}"):
        for extra in ([], ["--format", "json"], ["--general"]):
            calls.append(["tangent", "--algebra", spec("dual_qx"), "--symbol", symbol, *extra])
    for name, symbols in (("qx_t3", ("{x, 1+x*t}", "{1+t^2, x/(1-x)}", "{x^2+t, x-1+t}")),
                          ("qx_ef", ("{x, 1+x*e}", "{1+e, x/(1-f)}", "{x^2+e, x-1+f}"))):
        for symbol in symbols:
            for extra in ([], ["--format", "json"]):
                calls.append(["tangent", "--algebra", spec(name), "--symbol", symbol, *extra])
    for symbol in ("{x+t^60, x-1+t^99}", "{x+t^100, x-1+t^100}"):
        for extra in ([], ["--format", "json"], ["--general"]):
            calls.append(["tangent", "--algebra", spec("qx_t200"), "--symbol", symbol, *extra])
    for symbol in ("{1+t/x, x}", "{x/(x+t^9), x-1+t^50}"):
        calls.append(["tangent", "--algebra", spec("qx_t200"), "--symbol", symbol, "--general"])
    calls.append(["tangent", "--algebra", spec("qx_t200"), "--symbol", "{x+t^101, 2}"])
    for name in ("t128", "t129"):
        for cmd in (["hh"], ["hc"], ["hodge", "--kind", "hh"]):
            calls.append([*cmd, "--algebra", spec(name), "--relative", "--max-degree", "0",
                          "--max-weight", "0"])
    for w in ("255", "256"):
        calls.append(["hh", "--algebra", spec("y_w2"), "--max-degree", "0", "--max-weight", w])
    calls += [
        [], ["hh"], ["nonsense"], ["hh", "--algebra", spec("dual_q"), "--format", "xml"],
        ["hh", "--algebra", spec("missing")], ["hc", "--algebra", spec("not_json.json")],
        ["hn", "--algebra", spec("list.json")], ["hh", "--algebra", spec("float_weight.json")],
        ["tangent", "--algebra", spec("no_nilpotency.json"), "--symbol", "{2, 3}"],
        ["hh", "--algebra", spec("dual_qx"), "--max-degree", "-1"],
        ["hc", "--algebra", spec("dual_qx"), "--relative", "--max-weight", "-1"],
        ["hh", "--algebra", spec("dual_qx"), "--max-weight", "300"],
        ["hodge", "--algebra", spec("artin_t3"), "--max-degree", "12", "--max-weight", "0"],
        ["localcoh", "--algebra", spec("dual_qx")],
        ["localcoh", "--algebra", spec("qx"), "--window", "1"],
        ["localcoh", "--algebra", spec("qx"), "--window=2:1"],
        ["report", "--algebra", spec("qx_x2_e")], ["report", "--algebra", spec("qx")],
        ["report", "--algebra", spec("dual_q"), "--ambient-dim", "3"],
        ["tangent", "--algebra", spec("dual_qx"), "--symbol", "{x, "],
        ["tangent", "--algebra", spec("dual_qx"), "--symbol", "{0, x}"],
        ["tangent", "--algebra", spec("dual_qx"), "--symbol", "{x^1000, 2}"],
    ]
    for cmd in (["hh", "--relative"], ["hc", "--relative"], ["hn"], ["hn", "--relative"],
                ["hodge", "--kind", "hc"], ["hodge", "--kind", "hn"],
                ["hodge", "--kind", "hh", "--relative"]):
        calls.append([cmd[0], "--algebra", spec("qx"), *cmd[1:]])
    return calls


def run(src: str, battery_file: pathlib.Path) -> list:
    proc = subprocess.run([sys.executable, "-B", "-c", _RUNNER, str(pathlib.Path(src).resolve()),
                           str(battery_file)], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        for name, spec in SPECS.items():
            (d / f"{name}.json").write_text(json.dumps(spec))
        for name, text in BAD_SPECS.items():
            (d / name).write_text(text)
        calls = battery(d)
        (d / "battery.json").write_text(json.dumps(calls))
        a, b = (run(src, d / "battery.json") for src in argv)
    for call, ra, rb in zip(calls, a, b):
        for stream, va, vb in zip(("exit status", "stdout", "stderr"), ra, rb):
            if va != vb:
                print(f"differ: {stream} of cychom {' '.join(call)}\n"
                      f"A: {va!r}\nB: {vb!r}")
                return 1
    print(f"{len(calls)} calls identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
