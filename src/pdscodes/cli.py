"""Command-line front end: parse, build the inputs, run one analysis, print.

Each subcommand builds a field and subset (`--recipe`, or `--field` and
`--subset`), runs one library analysis and prints its report as JSON or a
table: `pds.analyze_pds`, `codes.analyze_code`,
`blocking.is_cutting_vectorial_blocking` or `secretsharing.analyze_sss`.
The verdicts are theirs; this module maps them to exit codes.

Exit codes: 0 success; 2 configuration error; 3 verification negative
(the subset is not a PDS); 4 requested work partially skipped by a cost
guard.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .blocking import is_cutting_vectorial_blocking
from .codes import ALL_METHODS, DEFAULT_WORD_GUARD, SubsetCode, analyze_code
from .field import FieldSpec, GuardExceeded, build_tower
from .pds import FieldSubset, PdsVerificationError, analyze_pds
from .recipes import build_recipe
from .secretsharing import analyze_sss

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NEGATIVE = 3
EXIT_PARTIAL = 4


class ConfigError(Exception):
    pass


def _load_spec_arg(value: str) -> dict:
    value = value.strip()
    if value.startswith("{"):
        return json.loads(value)
    return json.loads(Path(value).read_text())


def _build_inputs(args):
    if getattr(args, "guard_codewords", 0) < 0:
        raise ConfigError(f"--guard-codewords must be at least 0, got {args.guard_codewords}")
    for flag in ("kind", "p", "m"):
        if getattr(args, flag) is not None and args.recipe != "example-3.3":
            raise ConfigError(f"--{flag} only applies to --recipe example-3.3")
    if args.recipe:
        return build_recipe(args.recipe, kind=args.kind, p=args.p, m=args.m)
    if not args.field or not args.subset:
        raise ConfigError("either --recipe or both --field and --subset are required")
    tower = build_tower(FieldSpec.from_json(_load_spec_arg(args.field)))
    return FieldSubset.from_json(tower, _load_spec_arg(args.subset))


def _emit(args, payload: dict, table_lines: list[str] | None = None):
    if args.format == "table" and table_lines is not None:
        text = "\n".join(table_lines) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_pds(args) -> int:
    subset = _build_inputs(args)
    payload, cert = analyze_pds(subset)
    if cert is None:
        _emit(args, payload)
        return EXIT_NEGATIVE
    table = [
        "q\tm\tk\ttheta1\ttheta2",
        f"{subset.tower.q}\t{subset.tower.m}\t{cert.k}\t{cert.theta1}\t{cert.theta2}",
    ]
    _emit(args, payload, table)
    return EXIT_OK


def _selected_methods(spec: str) -> list[str]:
    if spec == "all":
        return list(ALL_METHODS)
    methods = [s.strip() for s in spec.split(",") if s.strip()]
    if not methods:
        raise ConfigError(f"--methods is empty; name some of {','.join(ALL_METHODS)} or 'all'")
    return methods


def cmd_code(args) -> int:
    subset = _build_inputs(args)
    code = SubsetCode(subset, guard=args.guard_codewords)
    payload, report = analyze_code(code, _selected_methods(args.methods))
    if args.gen_matrix:
        Path(args.gen_matrix).write_text(code.generator_matrix_text())
    table = [f"[{code.n},{payload['dim']}] code; minimality: {report.overall()}"]
    if "weights" in payload:
        table.append("weight\tfrequency")
        table.extend(f"{row['w']}\t{row['freq']}" for row in payload["weights"])
    _emit(args, payload, table)
    return EXIT_PARTIAL if report.skipped() else EXIT_OK


def cmd_blocking(args) -> int:
    subset = _build_inputs(args)
    report = is_cutting_vectorial_blocking(subset)
    table = [
        f"blocking: {report.blocking}",
        f"contains_subspace: {report.contains_subspace}",
        f"cutting: {report.cutting}",
    ]
    if report.witness:
        table.append(f"witness: {report.witness}")
    _emit(args, report.to_json(), table)
    return EXIT_OK


def cmd_sss(args) -> int:
    subset = _build_inputs(args)
    code = SubsetCode(subset, guard=args.guard_codewords)
    if args.x1_log is None and args.x1 is None:
        raise ConfigError("give --x1-log N or --x1 in-D|in-Dbar")
    payload, report = analyze_sss(code, x1_log=args.x1_log, side=args.x1)
    table = [
        f"x1_log: {report.x1_log} ({'outside' if report.x1_in_complement else 'inside'} the subset)",
        f"minimal access sets: {report.total}",
        f"classification: {report.classification}",
    ]
    _emit(args, payload, table)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdscodes",
        description="minimal linear codes from multiplicatively invariant subsets of finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--recipe", help="named configuration (e.g. example-3.1)")
        p.add_argument("--field", help="field spec: JSON file path or inline JSON")
        p.add_argument("--subset", help="subset spec: JSON file path or inline JSON")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--kind", choices=("hyperbolic", "elliptic"),
                       help="quadric kind for the quadric recipe")
        p.add_argument("--p", type=int, help="quadric recipe: base prime")
        p.add_argument("--m", type=int, help="quadric recipe: extension degree")

    p_pds = sub.add_parser("pds", help="verify a subset as a partial difference set")
    common(p_pds)
    p_pds.set_defaults(func=cmd_pds)

    p_code = sub.add_parser("code", help="build the code and run minimality analysis")
    common(p_code)
    p_code.add_argument("--methods", default="all",
                        help=f"comma list of {','.join(ALL_METHODS)} or 'all'")
    p_code.add_argument("--gen-matrix", dest="gen_matrix",
                        help="also write the generator matrix (plain text, one row per line): "
                             "the m + 1 rows f, Tr(x), ..., Tr(gamma^(m-1) x), which span the code")
    p_code.set_defaults(func=cmd_code)

    p_blk = sub.add_parser("blocking", help="hyperplane-intersection (cutting) analysis")
    common(p_blk)
    p_blk.set_defaults(func=cmd_blocking)

    p_sss = sub.add_parser("sss", help="secret-sharing structure of the dual code")
    common(p_sss)
    x1 = p_sss.add_mutually_exclusive_group()
    x1.add_argument("--x1-log", type=int, help="discrete log of the secret coordinate")
    x1.add_argument("--x1", choices=("in-D", "in-Dbar"),
                    help="pick the first subset/complement element as the secret coordinate")
    p_sss.set_defaults(func=cmd_sss)
    for p in (p_code, p_sss):  # the two that run exhaustive scans over all words
        p.add_argument("--guard-codewords", type=int, default=DEFAULT_WORD_GUARD,
                       help="cap on q^(m+1) for exhaustive scans")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except PdsVerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ConfigError, ValueError, OSError) as exc:  # bad JSON and fields among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
