"""Command-line interface.

Subcommands: hh | hc | hn | hodge | tangent | localcoh | report | selftest.
Every computing subcommand takes an algebra spec file (JSON with
"generators", "monomial_relations" and "artin" entries); output is
deterministic, errors go to standard error with a nonzero exit status
(2 for usage errors, 1 for computation errors) as ``error: ...``, or as
``internal error: ...`` for a failed invariant check (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import algebra_from_spec, function_field_from_spec
from .cyclic import hc_table, hh_table, hn_rel_table
from .differentials import OmegaModule
from .hodge import hc_hodge_dual, hh_hodge_table, hn_hodge_dual
from .localcoh import local_coh
from .machine import ReportWindows, build_report, selftest
from .symbols import (FORMULA_NOTES, parse_symbol, tangent, tangent_general)


class CliError(Exception):
    pass


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read algebra spec {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise CliError(f"algebra spec {path} is not a JSON object")
    return spec


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_homology(args, kind: str) -> int:
    """One table: ``kind`` is hh, hc or hn, or hodge-hh, hodge-hc or hodge-hn."""
    # looked up per call, so that rebinding a builder's module name reaches it
    build = {"hh": hh_table, "hc": hc_table, "hn": hn_rel_table,
             "hodge-hh": hh_hodge_table, "hodge-hc": hc_hodge_dual,
             "hodge-hn": hn_hodge_dual}[kind]
    r, _artin, pair = algebra_from_spec(_load_spec(args.algebra))
    # negative cyclic homology and the cyclic eigenspaces exist here in
    # relative form only
    if args.relative or kind not in ("hh", "hc", "hodge-hh"):
        if pair is None:
            raise CliError("--relative requires an 'artin' part in the spec" if args.relative
                           else f"{kind.replace('-', ' --kind ')} is computed in relative "
                                "form only; the spec needs an 'artin' part")
        arg = pair
    else:
        arg = pair.total if pair is not None else r
    table = build(arg, args.max_degree, args.max_weight)
    _emit(getattr(table, "to_" + args.format)(), args.out)
    return 0


def _cmd_tangent(args) -> int:
    spec = _load_spec(args.algebra)
    ff = function_field_from_spec(spec)
    sym = parse_symbol(args.symbol, ff)
    if ff.artin is not None and ff.artin.is_dual_numbers() and not args.general:
        form = tangent(sym)
    else:
        form = tangent_general(sym)
    coeffs = form.to_coeff_strings()     # each coefficient printed once
    text = form.text(coeffs)
    if args.format == "json":
        payload = {
            "symbol": args.symbol,
            "form": text,
            "coefficients": coeffs,
            "conventions": FORMULA_NOTES,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(text + "\n", args.out)
    return 0


def _cmd_localcoh(args) -> int:
    spec = _load_spec(args.algebra)
    r, artin, _pair = algebra_from_spec(spec)
    if artin is not None:
        raise CliError("local cohomology takes a free polynomial base "
                       "(no artin part)")
    lo, hi = _parse_window(args.window)
    table = local_coh(OmegaModule(r, args.p), (lo, hi))
    _emit(getattr(table, "to_" + args.format)(), args.out)
    return 0


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise CliError(f"bad window {text!r}, expected LO:HI") from exc


def _cmd_report(args) -> int:
    spec = _load_spec(args.algebra)
    r, artin, _pair = algebra_from_spec(spec)
    if artin is None:
        raise CliError("report needs an 'artin' part in the spec")
    if r.generators:
        rels = ["*".join(f"{g.symbol}^{k}" for g, k in zip(r.generators, rel) if k)
                for rel in r.monomial_relations]
        raise CliError(
            "report takes its coordinates from --ambient-dim, but the spec declares "
            f"coordinate generators {[g.symbol for g in r.generators]}"
            + (f" and monomial relations {rels}" if rels else "")
            + "; give a spec with an 'artin' part only")
    lo, hi = _parse_window(args.window)
    windows = ReportWindows(n_max=args.max_degree, w_max=args.max_weight,
                            coh_window=(lo, hi))
    rep = build_report(args.ambient_dim, args.index, artin, windows)
    _emit(rep.to_json(), args.out)
    return 0 if rep.all_pass else 1


def _add_table_flags(p: argparse.ArgumentParser):
    p.add_argument("--algebra", required=True, help="algebra spec JSON file")
    p.add_argument("--relative", action="store_true",
                   help="relative table of the split nilpotent pair")
    p.add_argument("--max-degree", type=int, default=3, metavar="N")
    p.add_argument("--max-weight", type=int, default=2, metavar="W")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cychom",
        description="Exact Hochschild/cyclic homology tables, Hodge "
                    "eigenspaces, symbol tangents and local cohomology "
                    "over Q.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("hh", "hc", "hn"):
        p = sub.add_parser(name, help=f"{name.upper()} dimension table")
        _add_table_flags(p)
        p.set_defaults(func=lambda a, k=name: _cmd_homology(a, k))

    p = sub.add_parser("hodge", help="eigenspace dimension table")
    _add_table_flags(p)
    p.add_argument("--kind", choices=("hh", "hc", "hn"), default="hh")
    p.set_defaults(func=lambda a: _cmd_homology(a, "hodge-" + a.kind))

    p = sub.add_parser("tangent", help="tangent form of a Steinberg symbol")
    p.add_argument("--algebra", required=True)
    p.add_argument("--symbol", required=True,
                   help='symbol string such as "{x+e, y}"')
    p.add_argument("--general", action="store_true",
                   help="evaluate inside the full extension even for "
                        "dual numbers")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser("localcoh", help="graded local cohomology table")
    p.add_argument("--algebra", required=True)
    p.add_argument("--p", type=int, default=0, help="exterior degree")
    p.add_argument("--window", default="-6:6", metavar="LO:HI",
                   help="internal degree window; use --window=-6:6 for "
                        "negative bounds")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_localcoh)

    p = sub.add_parser("report", help="four-column comparison report")
    p.add_argument("--algebra", required=True,
                   help="spec with an Artin part only; the coordinates "
                        "come from --ambient-dim")
    p.add_argument("--ambient-dim", type=int, default=2)
    p.add_argument("--index", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=2)
    p.add_argument("--window", default="-6:6")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.set_defaults(func=lambda a: selftest())

    return parser


_PARSER: argparse.ArgumentParser | None = None   # built on first use


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()    # parse_args keeps no state in the parser
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        kind = "internal error" if isinstance(exc, AssertionError) else "error"
        print(f"{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
