"""The four benchmark workloads: their requests, output checks and corruptions.

An op is one user request: a list of `cychom` argv lists that the worker
sends through `cychom.cli.main` one after another, timed together.  Each
workload builds its ops from the seed (only tangent-batch uses it), checks
every op's outputs, and can corrupt one op's outputs so the harness can
prove that its checks catch a wrong answer.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import exact

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures" / "v1"

HC_WINDOW = (3, 3)         # hc-rel-qxy: max degree, max weight
HODGE_WINDOW = (3, 3)      # hodge-hc-qx: max degree, max weight
TANGENT_OPS = 100          # distinct ops, so ten lie beyond op_p90_ms
STEINBERG_EVERY = 4        # every 4th tangent op is {f, 1 - f}


def spec(name: str) -> str:
    return str(SPECS / f"{name}.json")


@dataclass(frozen=True)
class Op:
    """One request: the argv lists it sends and what its check needs."""

    argv: tuple[tuple[str, ...], ...]
    check: dict


@dataclass(frozen=True)
class Workload:
    name: str
    setup_spec: str                  # spec the set-up phase loads
    seeded: bool
    build: Callable[[int], list[Op]]
    verify: Callable[[Op, list[dict]], str | None]   # None when correct
    corrupt: Callable[[list[dict]], list[dict]]


def _calls_ok(calls: list[dict]) -> str | None:
    for c in calls:
        if c["rc"] != 0:
            return f"exit {c['rc']}: {c['err'].strip()[-300:]}"
    return None


def _bump_last_dim(calls: list[dict]) -> list[dict]:
    doc = json.loads(calls[0]["out"])
    doc["entries"][-1]["dim"] += 1
    return [dict(calls[0], out=json.dumps(doc, sort_keys=True, indent=2) + "\n")]


# -- hc-rel-qxy ---------------------------------------------------------------


def _hc_build(seed: int) -> list[Op]:
    """One request; its expected table is the closed-form bundle of Q[x,y]."""
    from cychom.algebra import polynomial_algebra
    from cychom.differentials import hc_bundle
    base = polynomial_algebra("x", "y")
    n_max, w_max = HC_WINDOW
    expected = {(n, w): hc_bundle(n, base).graded_dim(w)
                for n in range(n_max + 1) for w in range(w_max + 1)}
    argv = ("hc", "--algebra", spec("dual_qxy"), "--relative",
            "--max-degree", str(n_max), "--max-weight", str(w_max), "--format", "json")
    return [Op((argv,), {"expected": expected})]


def _hc_verify(op: Op, calls: list[dict]) -> str | None:
    err = _calls_ok(calls)
    if err:
        return err
    doc = json.loads(calls[0]["out"])
    if doc.get("kind") != "HC" or doc.get("relative") is not True:
        return "output is not a relative HC table"
    got = {(e["n"], e["w"]): e["dim"] for e in doc["entries"]}
    expected = op.check["expected"]
    if got != expected:
        bad = sorted(k for k in expected if got.get(k) != expected[k])
        return f"HC differs from the bundle dimensions at {bad[:5]}"
    return None


# -- hodge-hc-qx ----------------------------------------------------------------


def _hodge_build(seed: int) -> list[Op]:
    """One request; expected: the golden fixture's cells inside the window."""
    n_max, w_max = HODGE_WINDOW
    golden = json.loads((FIXTURES / "hodge_hc_dual_Qx.json").read_text())["entries"]
    expected = {"entries": [e for e in golden if e["n"] <= n_max and e["w"] <= w_max]}
    argv = ("hodge", "--algebra", spec("dual_qx"), "--kind", "hc",
            "--max-degree", str(n_max), "--max-weight", str(w_max), "--format", "json")
    return [Op((argv,), {"expected": expected})]


def _hodge_verify(op: Op, calls: list[dict]) -> str | None:
    err = _calls_ok(calls)
    if err:
        return err
    if json.loads(calls[0]["out"]) != op.check["expected"]:
        return "eigenspace table differs from hodge_hc_dual_Qx.json"
    return None


# -- tangent-batch ----------------------------------------------------------------

# Each op's shape (degrees of the perturbation monomials in the numerator's
# unit part, its nilpotent tail, and the denominator) is fixed by the op's
# position, so seeds differ only in monomials and coefficients and every
# seed asks for the same amount of work.
_SHAPES = (
    ((1,), (0,), (1,)),
    ((1, 1), (0, 1), (1,)),
    ((2,), (1,), (1,)),
    ((1, 2), (0,), (2,)),
    ((1,), (0, 1), (1, 1)),
    ((2, 1), (1,), (1,)),
)
_COEFFS = (-3, -2, -1, 1, 2, 3)


def _monomial(rng: random.Random, coords: tuple[str, ...], deg: int) -> str:
    exps = [0] * len(coords)
    for _ in range(deg):
        exps[rng.randrange(len(coords))] += 1
    return "*".join(s if k == 1 else f"{s}^{k}" for s, k in zip(coords, exps) if k)


def _poly(rng: random.Random, coords: tuple[str, ...], const: int,
          degrees: tuple[int, ...]) -> str:
    """const + sum of c * monomial; a degree-0 entry is a further constant."""
    text = str(const)
    for deg in degrees:
        c = rng.choice(_COEFFS)
        sign = " - " if c < 0 else " + "
        mono = _monomial(rng, coords, deg)
        text += sign + (f"{abs(c)}*{mono}" if mono else str(abs(c)))
    return text


def _unit(rng: random.Random, coords: tuple[str, ...], shape, c0: int,
          d0: int) -> tuple[str, str, str]:
    """A unit (num + e*tail)/den of Q(coords)[e] by construction.

    The nilpotent-free part of the numerator and the denominator are each a
    positive constant plus monomials of total degree >= 1, so neither can
    vanish; the nilpotent tail is any polynomial.
    """
    num_deg, tail_deg, den_deg = shape
    return (_poly(rng, coords, c0, num_deg),
            _poly(rng, coords, rng.randint(1, 3), tail_deg),
            _poly(rng, coords, d0, den_deg))


def _text(unit: tuple[str, str, str]) -> str:
    num, tail, den = unit
    return f"({num} + e*({tail}))/({den})"


@functools.lru_cache(maxsize=None)     # the same for every repetition
def _tangent_expected(a, b, coords: tuple[str, ...]) -> dict[str, exact.RatFunc]:
    """Closed-form T{a, b} over dual numbers, with e divided out.

    For a = (Na + e Ta)/Da and b = (Nb + e Tb)/Db the tangent is
    (b1/b0) dlog a0 - (a1/a0) dlog b0, where a1/a0 = Ta/Na and
    dlog a0 = dNa/Na - dDa/Da; its dx_i coefficient is returned per "dx_i".
    """
    (na, ta, da), (nb, tb, db) = ([exact.parse(t, coords) for t in u] for u in (a, b))
    out = {}
    for i, s in enumerate(coords):
        dlog_a = exact.sub(exact.div(exact.diff(na, i), na), exact.div(exact.diff(da, i), da))
        dlog_b = exact.sub(exact.div(exact.diff(nb, i), nb), exact.div(exact.diff(db, i), db))
        out[f"d{s}"] = exact.sub(exact.mul(exact.div(tb, nb), dlog_a),
                                 exact.mul(exact.div(ta, na), dlog_b))
    return out


def tangent_ops(seed: int, n_ops: int = TANGENT_OPS) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for k in range(n_ops):
        coords, name = (("x",), "dual_qx") if k % 2 == 0 else (("x", "y"), "dual_qxy")
        shape = _SHAPES[(k // 2) % len(_SHAPES)]
        steinberg = k % STEINBERG_EVERY == STEINBERG_EVERY - 1
        c0, d0 = rng.sample(range(1, 6), 2)       # c0 != d0: 1 - f is a unit
        f = _unit(rng, coords, shape, c0, d0)
        if steinberg:
            num, tail, den = f          # 1 - f = (den - num - e*tail)/den
            g = (f"{den} - ({num})", f"-({tail})", den)
            g_text = f"1 - {_text(f)}"
        else:
            g = _unit(rng, coords, _SHAPES[(k // 2 + 3) % len(_SHAPES)],
                      *rng.sample(range(1, 6), 2))
            g_text = _text(g)
        argv = ("tangent", "--algebra", spec(name), "--symbol",
                f"{{{_text(f)}, {g_text}}}", "--format", "json")
        ops.append(Op((argv,), {"coords": coords, "units": (f, g)}))
    return ops


def _tangent_verify(op: Op, calls: list[dict]) -> str | None:
    err = _calls_ok(calls)
    if err:
        return err
    doc = json.loads(calls[0]["out"])
    argv = op.argv[0]
    if doc["symbol"] != argv[argv.index("--symbol") + 1]:
        return "tangent output echoes another symbol"
    coords = op.check["coords"]
    expected = _tangent_expected(*op.check["units"], coords)
    if set(doc["coefficients"]) - set(expected):
        return f"T{{f,g}} has coefficients outside {sorted(expected)}"
    for key, value in expected.items():
        got = exact.parse(doc["coefficients"].get(key, "0"), coords)
        if not exact.is_zero(exact.sub(got, value)):
            return f"T{{f,g}} differs from the closed form in its {key} coefficient"
    return None


def _tangent_corrupt(calls: list[dict]) -> list[dict]:
    doc = json.loads(calls[0]["out"])
    key = next(iter(doc["coefficients"]), "dx")
    doc["coefficients"][key] = f"({doc['coefficients'].get(key, '0')}) + 1"
    doc["form"] = "corrupted"
    return [dict(calls[0], out=json.dumps(doc))]


# -- report-mixed -------------------------------------------------------------------

# Windows (n <= 2, w <= 2) and then (n <= 3, w <= 1) keep every request under
# about 0.7 s, so a run holds many repetitions of each, and the second request
# on an algebra reuses the cache cells of the first.  (n <= 3, w <= 2) alone
# takes 1.5-3.5 s per request.
_REPORTS = (
    # (spec, ambient dimension, index, extra flags, compare with the golden)
    ("dual_q", 2, 2, (), True),
    ("artin_t3", 2, 2, ("--max-degree", "2", "--max-weight", "2"), False),
    ("artin_t3", 2, 2, ("--max-degree", "3", "--max-weight", "1"), False),
    ("artin_ef", 1, 2, ("--max-degree", "2", "--max-weight", "2"), False),
    ("artin_ef", 1, 2, ("--max-degree", "3", "--max-weight", "1"), False),
)


def _report_build(seed: int) -> list[Op]:
    golden_bytes = (FIXTURES / "report_2_2_dual.json").read_text()
    return [Op((("report", "--algebra", spec(name), "--ambient-dim", str(dim),
                 "--index", str(idx)) + flags,),
               {"ambient_dimension": dim, "index": idx,
                "golden": golden_bytes if golden else None})
            for name, dim, idx, flags, golden in _REPORTS]


def _report_verify(op: Op, calls: list[dict]) -> str | None:
    err = _calls_ok(calls)
    if err:
        return err
    out = calls[0]["out"]
    doc = json.loads(out)
    ctx = doc["context"]
    if (ctx["ambient_dimension"], ctx["index"]) != \
            (op.check["ambient_dimension"], op.check["index"]):
        return "report context does not match the request"
    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    if failed or not doc["checks"]:
        return f"embedded checks failed: {failed}"
    if op.check["golden"] is not None and out != op.check["golden"]:
        return "report bytes differ from report_2_2_dual.json"
    return None


def _report_corrupt(calls: list[dict]) -> list[dict]:
    return [dict(calls[0], out=calls[0]["out"].replace('"pass": true', '"pass": false', 1))]


WORKLOADS = {w.name: w for w in (
    Workload("hc-rel-qxy", spec("dual_qxy"), False, _hc_build, _hc_verify, _bump_last_dim),
    Workload("hodge-hc-qx", spec("dual_qx"), False, _hodge_build, _hodge_verify,
             _bump_last_dim),
    Workload("tangent-batch", spec("dual_qxy"), True, tangent_ops, _tangent_verify,
             _tangent_corrupt),
    Workload("report-mixed", spec("dual_q"), False, _report_build, _report_verify,
             _report_corrupt),
)}
