"""Command-line front end: every check and computation as a deterministic
subcommand with JSON (canonical) or CSV (projection) output.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage error.
Rationals on the command line are "p/q" or integer strings; decimals are
rejected.  The environment variable Z2REP_CONFIG may point at a JSON file
with run-configuration fields; explicit flags win over it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import cartan_modules, graded_algebra, submodule_quotient
from .rationals import format_rational, parse_rational
from .singular_solver import find_singular, sectors_for_level
from .submodule_quotient import ConsistencyError
from .verma import VermaModule


@dataclass
class RunConfig:
    level_cap: int = 16
    output_format: str = "json"
    output_path: str | None = None


CONFIG_ENV = "Z2REP_CONFIG"


def load_run_config(environ=None) -> RunConfig:
    environ = os.environ if environ is None else environ
    path = environ.get(CONFIG_ENV)
    if not path:
        return RunConfig()
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("the file must hold a JSON object")
    cfg = RunConfig(**{key: data[key] for key in ("level_cap", "output_format",
                                                  "output_path") if key in data})
    if type(cfg.level_cap) is not int or cfg.level_cap <= 0:
        raise ValueError(f"level_cap must be a positive integer, got {cfg.level_cap!r}")
    if cfg.output_format not in ("json", "csv"):
        raise ValueError(f"unknown output format {cfg.output_format!r}")
    if "output_path" in data and not isinstance(cfg.output_path, str):
        raise ValueError(f"output_path must be a string, got {cfg.output_path!r}")
    return cfg


def _module_from_args(args) -> VermaModule:
    kind = {"mr": "Mr", "mrl": "MrLambda"}[args.kind]
    r = parse_rational(args.r)
    if kind == "MrLambda":
        if args.lam is None:
            raise ValueError("--lambda is required for --kind mrl")
        return VermaModule(kind, r, parse_rational(args.lam))
    if args.lam is not None:
        raise ValueError("--lambda only applies to --kind mrl")
    return VermaModule(kind, r)


_MUTATE_RE = re.compile(r"^[\[{]\s*(\w+)\s*,\s*(\w+)\s*[\]}]\s*=\s*(.+)$")


def parse_mutation(spec: str) -> tuple[tuple[str, str], graded_algebra.Element]:
    """Parse e.g. "[R,Lp]=Lp" or "{ap,am}=2*R - Lp" into a table override."""
    m = _MUTATE_RE.match(spec.strip())
    if not m:
        raise ValueError(f"cannot parse mutation {spec!r}")
    x, y, rhs = m.group(1), m.group(2), m.group(3).strip()
    for g in (x, y):
        if g not in graded_algebra.DEGREE:
            raise ValueError(f"unknown generator {g!r}")
    terms: dict[str, Fraction] = {}
    if rhs != "0":
        for part in re.findall(r"[+-]?\s*[^+-]+", rhs):
            part = part.replace(" ", "")
            sign = Fraction(1)
            if part.startswith("-"):
                sign, part = Fraction(-1), part[1:]
            elif part.startswith("+"):
                part = part[1:]
            if "*" in part:
                coeff_s, _, gen = part.partition("*")
                coeff = sign * parse_rational(coeff_s)
            else:
                gen, coeff = part, sign
            if gen not in graded_algebra.DEGREE:
                raise ValueError(f"unknown generator {gen!r} in mutation")
            terms[gen] = terms.get(gen, Fraction(0)) + coeff
    return (x, y), graded_algebra.Element(terms)


def _csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, restval="",
                            extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _module_fields(module: VermaModule) -> dict:
    """The kind, r and lambda columns that lead every per-module CSV row."""
    return {"kind": module.kind, "r": format_rational(module.r),
            "lambda": format_rational(module.lam) if module.lam is not None else ""}


def _emit(args, json_payload, csv_fieldnames, csv_rows) -> None:
    if args.format == "json":
        text = json.dumps(json_payload, indent=2) + "\n"
    else:
        text = _csv_text(csv_fieldnames, csv_rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify_algebra(args) -> int:
    table = None
    if args.mutate:
        override = parse_mutation(args.mutate)
        table = graded_algebra.mutated_table({override[0]: override[1]})
    report = graded_algebra.verify_axioms(table)
    payload = report.to_json()
    rows = [
        {"check": "antisymmetry", "count": report.antisymmetry_pairs,
         "status": "pass" if report.antisymmetry_pairs == 100 else "partial"},
        {"check": "degree-additivity", "count": report.degree_pairs,
         "status": "pass" if report.degree_pairs == 100 else "partial"},
        {"check": "jacobi", "count": report.jacobi_triples,
         "status": "pass" if report.jacobi_triples == 1000 else "partial"},
    ]
    if report.failure:
        rows.append({"check": report.failure["check"], "count": 0,
                     "status": "fail",
                     "detail": ",".join(report.failure["generators"])})
    _emit(args, payload, ["check", "count", "status", "detail"], rows)
    return 0 if report.passed else 1


def cmd_bracket_table(args) -> int:
    payload = graded_algebra.table_to_json()
    rows = [{"x": row["x"], "y": row["y"],
             "result": " + ".join(f"{t['coeff']}*{t['gen']}" for t in row["result"])}
            for row in payload]
    _emit(args, payload, ["x", "y", "result"], rows)
    return 0


def _singular_row(report) -> dict:
    return {
        **_module_fields(report.module),
        "level": report.level,
        "sector": f"({report.sector[0]},{report.sector[1]})",
        "nullspace_dim": len(report.nullspace),
        "vectors": " | ".join(map(repr, report.nullspace)),
        "closed_form_match": report.closed_form_match,
        "rtilde_computed": format_rational(report.rtilde_computed)
        if report.rtilde_computed is not None else "",
        "rtilde_stated": format_rational(report.rtilde_stated)
        if report.rtilde_stated is not None else "",
    }


def cmd_singular(args) -> int:
    module = _module_from_args(args)
    levels = (range(1, args.level_cap + 1) if args.sweep else [args.level])
    reports = []
    for level in levels:
        for sector in sectors_for_level(level):
            reports.append(find_singular(module, level, sector))
    payload = [r.to_json() for r in reports]
    rows = [_singular_row(r) for r in reports]
    _emit(args, payload,
          ["kind", "r", "lambda", "level", "sector", "nullspace_dim", "vectors",
           "closed_form_match", "rtilde_computed", "rtilde_stated"], rows)
    failed = any(r.closed_form_match == "mismatch" for r in reports)
    return 1 if failed else 0


def cmd_classify(args) -> int:
    module = _module_from_args(args)
    verdict = submodule_quotient.classify_module(module, max_level=args.max_level)
    payload = verdict.to_json()
    summary = {**_module_fields(module), "case": verdict.case,
               "M": verdict.M if verdict.M is not None else "",
               "dimension": verdict.dimension if verdict.dimension is not None
               else "infinite"}
    rows = [{**summary, **row} for row in verdict.per_level]
    _emit(args, payload,
          ["kind", "r", "lambda", "case", "M", "dimension", "level", "verma_dim",
           "submodule_dim", "quotient_dim"], rows)
    return 0


def cmd_dims(args) -> int:
    module = _module_from_args(args)
    max_level = args.max_level if args.max_level is not None else args.level_cap
    table = submodule_quotient.quotient_dims(module, max_level)
    _emit(args, table,
          ["kind", "r", "lambda", "level", "verma_dim", "submodule_dim",
           "quotient_dim"], [{**_module_fields(module), **row} for row in table])
    return 0


def cmd_cartan(args) -> int:
    r = parse_rational(args.r)
    c = [parse_rational(part) for part in args.c.split(",") if part.strip()] \
        if args.c else []
    hm = cartan_modules.build_h_module(args.n, r, c)
    report = cartan_modules.classify(hm)
    payload = report.to_json()
    rows = []
    for piece in report.constituents:
        rows.append({
            "n": args.n,
            "r": format_rational(r),
            "kind": piece.kind,
            "dim": piece.dim,
            "piece_r": format_rational(piece.r),
            "lambda": format_rational(piece.lam) if piece.lam is not None else "",
        })
    _emit(args, payload, ["n", "r", "kind", "dim", "piece_r", "lambda"], rows)
    return 0


def build_parser(config: RunConfig) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"),
                        default=config.output_format, help="output format")
    common.add_argument("--out", default=config.output_path,
                        help="write output to this path instead of stdout")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--level-cap", dest="level_cap", type=int,
                        default=config.level_cap,
                        help="largest level of a sweep or of a table without --max-level")

    parser = argparse.ArgumentParser(
        prog="z2rep",
        description="Exact checks and computations for the graded extension "
                    "of osp(1|2) and its lowest-weight modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", parents=[common],
                       help="check antisymmetry, degree additivity and the "
                            "graded Jacobi identity on the full bracket table")
    p.add_argument("--mutate", help='damage one table entry first, e.g. "[R,Lp]=Lp"')
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("bracket-table", parents=[common],
                       help="dump the structure-constant table")
    p.set_defaults(func=cmd_bracket_table)

    p = sub.add_parser("singular", parents=[capped],
                       help="singular vectors by exact null-space computation")
    p.add_argument("--kind", choices=("mr", "mrl"), required=True)
    p.add_argument("--r", required=True, help='rational, e.g. "-2" or "1/3"')
    p.add_argument("--lambda", dest="lam", help="rational, mrl only")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--level", type=int, help="single level to search")
    group.add_argument("--sweep", action="store_true",
                       help="search every level up to the level cap")
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("classify", parents=[common],
                       help="classification verdict for the irreducible quotient")
    p.add_argument("--kind", choices=("mr", "mrl"), required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--max-level", dest="max_level", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dims", parents=[capped],
                       help="per-level weight-space / submodule / quotient dimensions")
    p.add_argument("--kind", choices=("mr", "mrl"), required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--max-level", dest="max_level", type=int)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("cartan", parents=[common],
                       help="build and classify a finite-dimensional Cartan module")
    p.add_argument("--n", type=int, required=True, help="chain dimension")
    p.add_argument("--r", required=True, help="scalar eigenvalue")
    p.add_argument("--c", help='closing coefficients, e.g. "0,1"')
    p.set_defaults(func=cmd_cartan)

    return parser


def main(argv=None) -> int:
    try:
        config = load_run_config()
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad {CONFIG_ENV}: {exc}", file=sys.stderr)
        return 2
    parser = build_parser(config)
    args = parser.parse_args(argv)
    if getattr(args, "level_cap", 1) <= 0:
        print("error: --level-cap must be positive", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
