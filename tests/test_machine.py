import functools
import json
import pathlib
import subprocess
import sys

import pytest

from cychom.algebra import artin_algebra, dual_numbers, dual_pair, polynomial_algebra
from cychom.cyclic import hc_table, hh_table
from cychom.hodge import hc_hodge_dual
from cychom.localcoh import local_coh
from cychom.differentials import OmegaModule
from cychom.machine import (ReportWindows, UnsupportedContext, build_report)
from cychom.qlinalg import SparseMatrix
from fraction_oracle import untwisted_cyclic_operator

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "v1"


def load_fixture(name):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def test_hc_dual_q_matches_golden():
    table = hc_table(dual_pair(polynomial_algebra()), 4, 0)
    assert table.to_json_dict() == load_fixture("hc_rel_dual_Q.json")


def test_hc_dual_qx_matches_golden():
    table = hc_table(dual_pair(polynomial_algebra("x")), 4, 4)
    assert table.to_json_dict() == load_fixture("hc_rel_dual_Qx.json")


def test_hh_dual_qx_matches_golden():
    table = hh_table(dual_pair(polynomial_algebra("x")), 4, 4)
    assert table.to_json_dict() == load_fixture("hh_rel_dual_Qx.json")


def test_hodge_hc_dual_qx_matches_golden():
    table = hc_hodge_dual(dual_pair(polynomial_algebra("x")), 4, 4)
    assert table.to_json_dict() == load_fixture("hodge_hc_dual_Qx.json")


def test_localcoh_omega1_matches_golden():
    table = local_coh(OmegaModule(polynomial_algebra("x", "y"), 1), (-6, 6))
    assert table.to_json_dict() == load_fixture("localcoh_qxy_omega1.json")


def test_report_matches_golden_bytes():
    rep = build_report(2, 2, dual_numbers("e"))
    assert rep.to_json() == (FIXTURES / "report_2_2_dual.json").read_text()


def test_artin_relative_tables_match_the_golden_bytes(capsys):
    # stdout of `cychom hh|hc --relative` on Q[t]/(t^3) and Q[e,f]/(e^2,f^2),
    # in json, text and csv, against their closed forms (scripts/make_goldens.py)
    from cychom import cli
    root = pathlib.Path(__file__).resolve().parents[1]
    cases = load_fixture("artin_rel_tables.json")
    assert len(cases) == 12
    for case in cases:
        argv = list(case["argv"])
        i = argv.index("--algebra") + 1
        argv[i] = str(root / argv[i])
        assert cli.main(argv) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (case["stdout"], ""), case["argv"]


def test_table_paths_read_no_entry_view(monkeypatch):
    # a SparseMatrix holds its columns, and `entries` is a view derived from
    # them for the tests and the tracer: the hh, hc, hodge --kind hc and
    # report paths build and read columns only.  Every module-level cache is
    # swapped for an empty one first, so no cell, block or strand that
    # another test built hides a builder or a check.
    fresh = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("cychom."):
            for attr, fn in list(vars(mod).items()):
                if callable(getattr(fn, "cache_info", None)):
                    size = fn.cache_parameters()["maxsize"]
                    fresh.setdefault(id(fn), functools.lru_cache(size)(fn.__wrapped__))
                    monkeypatch.setattr(mod, attr, fresh[id(fn)])

    def refuse(m):
        raise AssertionError("a table path read SparseMatrix.entries")

    monkeypatch.setattr(SparseMatrix, "entries", property(refuse))
    pair = dual_pair(polynomial_algebra("x"))
    for build, golden in [(hh_table, "hh_rel_dual_Qx.json"), (hc_table, "hc_rel_dual_Qx.json"),
                          (hc_hodge_dual, "hodge_hc_dual_Qx.json")]:
        assert build(pair, 4, 4).to_json_dict() == load_fixture(golden)
    rep = build_report(2, 2, dual_numbers("e"))
    assert rep.to_json() == (FIXTURES / "report_2_2_dual.json").read_text()


def test_report_structure():
    rep = build_report(2, 2, dual_numbers("e"))
    obj = rep.to_json_dict()
    assert obj["schema"] == "coniveau-report/1"
    assert obj["columns"] == ["K_p(X)", "K_p(X_A)", "K_p(X_A,m)", "HN_p(X_A,m)"]
    assert [r["codim"] for r in obj["rows"]] == [0, 1, 2]
    generic = obj["rows"][0]
    assert generic["K_p(X)"]["scope"] == "out-of-computational-scope"
    codim2 = obj["rows"][2]
    assert codim2["K_p(X_A,m)"]["table"] == codim2["HN_p(X_A,m)"]["table"]
    assert "eigenspaces" in codim2["HN_p(X_A,m)"]
    assert rep.all_pass


def test_report_codim2_is_h2_of_omega1():
    rep = build_report(2, 2, dual_numbers("e"))
    expected = local_coh(OmegaModule(polynomial_algebra("x1", "x2"), 1), (-6, 6))
    codim2 = next(r for r in rep.rows if r["codim"] == 2)
    assert codim2["HN_p(X_A,m)"]["table"] == expected.to_json_dict()


def test_report_1_1_codim1_row():
    # codimension-1 entry for index 1 is H^1 of the structure sheaf:
    # one dimension in every negative degree of the window
    rep = build_report(1, 1, dual_numbers("e"), ReportWindows(n_max=2, w_max=1))
    row = next(r for r in rep.rows if r["codim"] == 1)
    got = {(e["i"], e["d"]): e["dim"]
           for e in row["HN_p(X_A,m)"]["table"]["entries"]}
    for d in range(-6, 7):
        assert got[(1, d)] == (1 if d <= -1 else 0)
        assert got[(0, d)] == 0
    assert rep.all_pass


def test_report_general_artin_no_eigenspaces():
    rep = build_report(1, 1, artin_algebra(("t", 3)),
                       ReportWindows(n_max=2, w_max=1))
    assert rep.all_pass
    row = next(r for r in rep.rows if r["codim"] == 1)
    assert "eigenspaces" not in row["HN_p(X_A,m)"]


def test_report_desk_scale_gate():
    with pytest.raises(UnsupportedContext):
        build_report(3, 2, dual_numbers("e"))
    with pytest.raises(UnsupportedContext):
        build_report(2, 4, dual_numbers("e"))


# -- CLI ----------------------------------------------------------------------


def _run(args, **kw):
    import os
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "cychom", *args],
                          capture_output=True, text=True, env=env,
                          cwd=pathlib.Path(__file__).parents[1], **kw)


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    (d / "dualQ.json").write_text(json.dumps(
        {"generators": [], "artin": [{"symbol": "e", "nilpotency": 2}]}))
    (d / "Qx_eps.json").write_text(json.dumps(
        {"generators": [{"symbol": "x", "weight": 1}],
         "artin": [{"symbol": "e", "nilpotency": 2}]}))
    (d / "Qx.json").write_text(json.dumps({"generators": [{"symbol": "x"}]}))
    (d / "Qxy.json").write_text(json.dumps(
        {"generators": [{"symbol": "x"}, {"symbol": "y"}]}))
    return d


def test_cli_hc_dual_q(spec_files):
    r = _run(["hc", "--algebra", str(spec_files / "dualQ.json"), "--relative",
              "--max-degree", "4", "--max-weight", "0", "--format", "json"])
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    dims = [e["dim"] for e in sorted(obj["entries"], key=lambda e: e["n"])]
    assert dims == [1, 0, 1, 0, 1]


def test_cli_deterministic_output(spec_files):
    args = ["hc", "--algebra", str(spec_files / "dualQ.json"), "--relative",
            "--max-degree", "2", "--max-weight", "0", "--format", "json"]
    assert _run(args).stdout == _run(args).stdout


def test_cli_tangent(spec_files):
    r = _run(["tangent", "--algebra", str(spec_files / "Qx_eps.json"),
              "--symbol", "{x, 1+x*e}"])
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "dx"
    r2 = _run(["tangent", "--algebra", str(spec_files / "Qx_eps.json"),
               "--symbol", "{x, 1+x*e}", "--format", "json"])
    obj = json.loads(r2.stdout)
    assert obj["coefficients"] == {"dx": "1"}
    assert "conventions" in obj


@pytest.mark.parametrize("symbol", ["{x/(x-x), 2}", "{e^-1, 1}"])
def test_cli_tangent_zero_divisor(spec_files, symbol):
    # a divisor with zero nilpotent-free part fails as element inversion does
    r = _run(["tangent", "--algebra", str(spec_files / "Qx_eps.json"),
              "--symbol", symbol])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == ("error: DivisionByZero: element has zero constant "
                        "(nilpotent-free) part\n")


@pytest.mark.parametrize("symbol, message", [
    ("{x^" + "9" * 5000 + " + e, 2}",
     "exponent 9999999999... (5000 digits) is above 100"),
    ("{" + "9" * 5000 + "*x + e, 2}",
     "integer literal 9999999999... (5000 digits) is too long"),
], ids=["exponent", "literal"])
def test_cli_tangent_oversized_number(spec_files, capsys, symbol, message):
    # a number beyond the digit limit of int() is a parse error that names
    # the token in a line of bounded length, not int()'s own ValueError
    from cychom import cli
    rc = cli.main(["tangent", "--algebra", str(spec_files / "Qx_eps.json"),
                   "--symbol", symbol])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == f"error: SymbolParseError: {message}\n"


def test_cli_hn_and_hodge(spec_files):
    r = _run(["hn", "--algebra", str(spec_files / "Qx_eps.json"),
              "--max-degree", "3", "--max-weight", "1", "--format", "csv"])
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "n,w,dim"
    r2 = _run(["hodge", "--algebra", str(spec_files / "Qx_eps.json"),
               "--kind", "hc", "--max-degree", "2", "--max-weight", "1",
               "--format", "json"])
    assert r2.returncode == 0
    assert {"n": 2, "w": 0, "i": 1, "dim": 1} in json.loads(r2.stdout)["entries"]


def test_cli_hodge_csv_and_text_bytes(spec_files):
    # one n,w,i,dim row per entry in sorted order; text prints the same layout
    args = ["hodge", "--algebra", str(spec_files / "Qx_eps.json"), "--kind", "hc",
            "--max-degree", "2", "--max-weight", "1"]
    csv = _run(args + ["--format", "csv"])
    assert csv.returncode == 0, csv.stderr
    assert csv.stdout == ("n,w,i,dim\n0,0,0,1\n0,1,0,1\n1,0,0,0\n1,0,1,0\n1,1,0,0\n"
                          "1,1,1,1\n2,0,0,0\n2,0,1,1\n2,0,2,0\n2,1,0,0\n2,1,1,1\n"
                          "2,1,2,0\n")
    assert _run(args + ["--format", "text"]).stdout == csv.stdout


def test_cli_localcoh(spec_files):
    r = _run(["localcoh", "--algebra", str(spec_files / "Qxy.json"),
              "--p", "0", "--window=-4:0", "--format", "json"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    got = {(e["i"], e["d"]): e["dim"] for e in obj["entries"]}
    assert got[(2, -3)] == 2 and got[(2, -2)] == 1 and got[(1, -3)] == 0


@pytest.mark.parametrize("spec,p,rows", [
    ("Qx.json", 0, "0,-2,0\n0,-1,0\n0,0,0\n1,-2,1\n1,-1,1\n1,0,0\n"),
    ("Qx.json", 1, "0,-2,0\n0,-1,0\n0,0,0\n1,-2,1\n1,-1,1\n1,0,1\n"),
    ("Qxy.json", 0, "0,-3,0\n0,-2,0\n1,-3,0\n1,-2,0\n2,-3,2\n2,-2,1\n"),
    ("Qxy.json", 1, "0,-3,0\n0,-2,0\n1,-3,0\n1,-2,0\n2,-3,6\n2,-2,4\n"),
], ids=["qx-p0", "qx-p1", "qxy-p0", "qxy-p1"])
def test_cli_localcoh_csv_bytes(spec_files, spec, p, rows):
    # one i,d,dim row per entry, in the sorted order of the JSON entries
    window = "--window=-2:0" if spec == "Qx.json" else "--window=-3:-2"
    args = ["localcoh", "--algebra", str(spec_files / spec), "--p", str(p), window]
    r = _run(args + ["--format", "csv"])
    assert r.returncode == 0, r.stderr
    assert r.stdout == "i,d,dim\n" + rows
    entries = json.loads(_run(args + ["--format", "json"]).stdout)["entries"]
    assert r.stdout.splitlines()[1:] == [f"{e['i']},{e['d']},{e['dim']}" for e in entries]


def _cli(capsys, *argv):
    """(exit status, stdout, stderr) of one in-process `cychom` call."""
    from cychom import cli
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("argv, text", [
    # the README example
    (["hc", "--algebra", "dualQ.json", "--relative", "--max-degree", "4",
      "--max-weight", "0"],
     "HC (relative)\nn\\w    0\n  0    1\n  1    0\n  2    1\n  3    0\n  4    1\n"),
    (["hn", "--algebra", "Qx_eps.json", "--max-degree", "3", "--max-weight", "2"],
     "HN (relative)\nn\\w    0   1   2\n  0    0   0   0\n  1    1   1   1\n"
     "  2    0   1   1\n  3    1   1   1\n"),
    (["localcoh", "--algebra", "Qxy.json", "--p", "1", "--window=-3:-2"],
     "i\\d   -3  -2\n  0    0   0\n  1    0   0\n  2    6   4\n"),
    # column labels wider than every entry set the width, so they stay apart
    (["localcoh", "--algebra", "Qx.json", "--window=-10003:-10000"],
     "i\\d  -10003 -10002 -10001 -10000\n  0       0      0      0      0\n"
     "  1       1      1      1      1\n"),
], ids=["hc-readme", "hn", "localcoh", "localcoh-wide-labels"])
def test_cli_text_grid_bytes(spec_files, capsys, argv, text):
    argv = [*argv[:2], str(spec_files / argv[2]), *argv[3:], "--format", "text"]
    assert _cli(capsys, *argv) == (0, text, "")


def test_cli_json_is_the_table_to_json(spec_files, capsys):
    # `--format json` prints what the built table's to_json() returns
    pair = dual_pair(polynomial_algebra("x"))
    spec = str(spec_files / "Qx_eps.json")
    window = ["--max-degree", "2", "--max-weight", "1", "--format", "json"]
    for argv, table in [
            (["hh", "--algebra", spec, "--relative", *window], hh_table(pair, 2, 1)),
            (["hodge", "--algebra", spec, "--kind", "hc", *window], hc_hodge_dual(pair, 2, 1)),
            (["localcoh", "--algebra", str(spec_files / "Qxy.json"), "--p", "1",
              "--window=-3:-2", "--format", "json"],
             local_coh(OmegaModule(polynomial_algebra("x", "y"), 1), (-3, -2)))]:
        assert _cli(capsys, *argv) == (0, table.to_json(), ""), argv


@pytest.mark.parametrize("argv, message", [
    (["hn"], "hn is computed in relative form only; the spec needs an 'artin' part"),
    (["hodge", "--kind", "hc"],
     "hodge --kind hc is computed in relative form only; the spec needs an 'artin' part"),
    (["hh", "--relative"], "--relative requires an 'artin' part in the spec"),
], ids=["hn", "hodge-hc", "hh-relative"])
def test_cli_relative_only_table_names_the_command(spec_files, capsys, argv, message):
    # a table that exists in relative form only names the command, not a
    # --relative flag the user did not give
    rc, out, err = _cli(capsys, argv[0], "--algebra", str(spec_files / "Qx.json"), *argv[1:])
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_cli_report(spec_files, tmp_path):
    out = tmp_path / "report.json"
    r = _run(["report", "--algebra", str(spec_files / "dualQ.json"),
              "--ambient-dim", "1", "--index", "1", "--max-degree", "2",
              "--max-weight", "1", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    obj = json.loads(out.read_text())
    assert obj["schema"] == "coniveau-report/1"
    assert all(c["pass"] for c in obj["checks"])


def test_cli_report_refuses_coordinate_part(tmp_path):
    # report builds its coordinates from --ambient-dim; a spec's coordinate
    # generators and relations are refused, not silently dropped
    spec = tmp_path / "Qx_x2_eps.json"
    spec.write_text(json.dumps(
        {"generators": [{"symbol": "x", "weight": 1}],
         "monomial_relations": [{"x": 2}],
         "artin": [{"symbol": "e", "nilpotency": 2}]}))
    r = _run(["report", "--algebra", str(spec), "--ambient-dim", "1",
              "--index", "1", "--max-degree", "1", "--max-weight", "1"])
    assert r.returncode == 1 and r.stdout == ""
    assert "--ambient-dim" in r.stderr
    assert "['x']" in r.stderr and "['x^2']" in r.stderr


def test_cli_usage_error_exit_2(spec_files):
    assert _run(["hh"]).returncode == 2
    assert _run(["nonsense"]).returncode == 2


def test_cli_computation_error_exit_1(spec_files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = _run(["hh", "--algebra", str(bad)])
    assert r.returncode == 1 and "error:" in r.stderr
    r2 = _run(["hh", "--algebra", str(tmp_path / "missing.json")])
    assert r2.returncode == 1
    # relative table without an artin part
    only_x = tmp_path / "x.json"
    only_x.write_text(json.dumps({"generators": [{"symbol": "x"}]}))
    r3 = _run(["hc", "--algebra", str(only_x), "--relative"])
    assert r3.returncode == 1
    # tangent of a non-unit entry
    r4 = _run(["tangent", "--algebra", str(only_x), "--symbol", "{0, x}"])
    assert r4.returncode == 1


def test_cli_spec_not_an_object_exit_1(tmp_path, capsys):
    # valid JSON that is not an object is a user error naming the file,
    # for every subcommand that reads a spec
    from cychom import cli
    spec = tmp_path / "list.json"
    spec.write_text("[1, 2]")
    r = _run(["hh", "--algebra", str(spec)])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == f"error: algebra spec {spec} is not a JSON object\n"
    for text in ('"x"', "3", "null"):
        spec.write_text(text)
        for argv in (["hc", "--relative"], ["tangent", "--symbol", "{x, x}"],
                     ["localcoh"], ["report"]):
            rc = cli.main([argv[0], "--algebra", str(spec), *argv[1:]])
            out, err = capsys.readouterr()
            assert rc == 1 and out == "", (text, argv)
            assert err == f"error: algebra spec {spec} is not a JSON object\n", (text, argv)


@pytest.mark.parametrize("spec, message", [
    ({"generators": [{"symbol": "x", "weight": 1.5}]},
     "spec 'weight' must be an integer, in {'symbol': 'x', 'weight': 1.5}"),
    ({"generators": [{"symbol": "x", "weight": True}]},
     "spec 'weight' must be an integer, in {'symbol': 'x', 'weight': True}"),
    ({"generators": [{"symbol": "x"}], "monomial_relations": [{"x": 2.0}]},
     "spec 'x' must be an integer, in {'x': 2.0}"),
    ({"artin": [{"symbol": "e", "nilpotency": 2.5}]},
     "spec 'nilpotency' must be an integer, in {'symbol': 'e', 'nilpotency': 2.5}"),
    ({"artin": [{"symbol": "e"}]},
     "spec 'nilpotency' must be an integer, in {'symbol': 'e'}"),
    ({"generators": [{"weight": 1}]},
     "spec 'symbol' must be a string, in {'weight': 1}"),
    ({"generators": {"x": 1}},
     "spec 'generators' must be a list of objects, in {'generators': {'x': 1}}"),
    ({"generators": [{"symbol": "x"}], "monomial_relations": ["x^2"]},
     "spec 'monomial_relations' must be a list of objects, in "
     "{'generators': [{'symbol': 'x'}], 'monomial_relations': ['x^2']}"),
    ({"generators": [{"symbol": "x"}], "monomial_relations": [{"x": 1, "z": 2}]},
     "spec relation names unknown generator 'z', in {'x': 1, 'z': 2}"),
], ids=["float-weight", "bool-weight", "float-exponent", "float-nilpotency",
        "no-nilpotency", "no-symbol", "generators-object", "relation-string",
        "unknown-generator"])
def test_cli_malformed_spec_entry_exit_1(tmp_path, capsys, spec, message):
    # spec numbers are JSON integers, never truncated (1.5 and true once
    # read as 1), and a malformed entry is a user error that names it
    from cychom import cli
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    for argv in (["hh"], ["tangent", "--symbol", "{2, 3}"]):
        rc = cli.main([argv[0], "--algebra", str(path), *argv[1:]])
        out, err = capsys.readouterr()
        assert rc == 1 and out == "", argv
        assert err == f"error: ValueError: {message}\n", argv


def test_cli_failed_invariant_reads_internal_error(tmp_path, capsys):
    # an AssertionError is a failed invariant check, a bug: it is told apart
    # from a user error on stderr, and both keep exit status 1.  The
    # untwisted cyclic operator of the oracle makes the quotient check fail.
    from cychom import cli
    spec = tmp_path / "Qu_eps.json"
    spec.write_text(json.dumps({"generators": [{"symbol": "u"}],
                                "artin": [{"symbol": "e", "nilpotency": 2}]}))
    with untwisted_cyclic_operator():
        rc = cli.main(["hc", "--algebra", str(spec), "--relative",
                       "--max-degree", "2", "--max-weight", "1"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("internal error: AssertionError: b does not preserve im(1-t)"), err
    rc = cli.main(["hc", "--algebra", str(tmp_path / "missing.json")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: cannot read algebra spec"), err
