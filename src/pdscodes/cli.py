"""Command-line front end: construct, verify, and report.

Subcommands mirror the library layers: `pds` verifies a subset and emits
its certificate, `code` runs the minimality analysis and weight
distribution, `blocking` checks the hyperplane-intersection pattern, and
`sss` reports the secret-sharing structure of the dual code.

Exit codes: 0 success; 2 configuration error; 3 verification negative
(the subset is not a PDS); 4 requested work partially skipped by a cost
guard.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .codes import (
    DEFAULT_WORD_GUARD,
    INCONCLUSIVE,
    MINIMAL,
    NOT_MINIMAL,
    NOT_RUN,
    MethodVerdict,
    MinimalityReport,
    SubsetCode,
    ab_condition,
    minimality_cyclotomic_sufficient,
    minimality_latin_sufficient,
    minimality_pds_sufficient,
    weight_class,
    weight_distribution_predicted,
)
from .blocking import is_cutting_vectorial_blocking
from .field import FieldConstructionError, FieldSpec, GuardExceeded, build_tower
from .pds import (
    CyclotomicOrigin,
    FieldSubset,
    PdsVerificationError,
    is_fq_invariant,
    predicted_cyclotomic_eigenvalues,
    verify_pds_direct,
    verify_pds_spectral,
)
from .recipes import build_recipe
from .secretsharing import analyze_scheme

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
        subset = build_recipe(args.recipe, kind=args.kind, p=args.p, m=args.m)
        return subset.tower, subset
    if not args.field or not args.subset:
        raise ConfigError("either --recipe or both --field and --subset are required")
    tower = build_tower(FieldSpec.from_json(_load_spec_arg(args.field)))
    return tower, FieldSubset.from_json(tower, _load_spec_arg(args.subset))


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
    tower, subset = _build_inputs(args)
    invariant = is_fq_invariant(subset)
    try:
        cert, _ = verify_pds_spectral(subset)
    except PdsVerificationError as exc:
        _emit(args, {"error": str(exc), "witness": getattr(exc, "witness", None)})
        return EXIT_NEGATIVE
    try:
        if verify_pds_direct(subset) != (cert.lam, cert.mu):
            raise AssertionError("direct and spectral verification disagree; bug")
        direct = "ok"
    except GuardExceeded:
        direct = "skipped"
    payload = cert.to_json()
    payload["fq_invariant"] = invariant
    payload["direct_check"] = direct
    table = [
        "q\tm\tk\ttheta1\ttheta2",
        f"{tower.q}\t{tower.m}\t{cert.k}\t{cert.theta1}\t{cert.theta2}",
    ]
    _emit(args, payload, table)
    return EXIT_OK


def _certificate_verdict(rule):
    """The verdict of rule(cert, q, m), inconclusive with cert_error without a certificate."""
    def verdict(code, cert, cert_error) -> MethodVerdict:
        if cert is None:
            return MethodVerdict(INCONCLUSIVE, note=cert_error)
        return rule(cert, code.tower.q, code.tower.m)
    return verdict


def _cyclotomic_verdict(code, cert, cert_error) -> MethodVerdict:
    origin = code.subset.origin
    if not isinstance(origin, CyclotomicOrigin):
        return MethodVerdict(INCONCLUSIVE, note="subset has no cyclotomic description")
    try:
        prediction = predicted_cyclotomic_eigenvalues(code.tower, origin.N, origin.J)
        return minimality_cyclotomic_sufficient(code.tower, prediction)
    except (PdsVerificationError, ValueError) as exc:
        return MethodVerdict(INCONCLUSIVE, note=str(exc))


# --methods name -> (report key, verdict from (code, cert, cert_error)),
# run in this order
METHODS = {
    "cover": ("cover", lambda code, *_: code.minimality_cover()),
    "heng": ("heng", lambda code, *_: code.minimality_heng()),
    "snc": ("snc", lambda code, *_: code.minimality_snc()),
    "pds": ("pds_sufficient", _certificate_verdict(minimality_pds_sufficient)),
    "latin": ("latin_sufficient", _certificate_verdict(minimality_latin_sufficient)),
    "cyclotomic": ("cyclotomic_sufficient", _cyclotomic_verdict),
}
ALL_METHODS = tuple(METHODS)


def _selected_methods(spec: str) -> list[str]:
    if spec == "all":
        return list(ALL_METHODS)
    methods = [s.strip() for s in spec.split(",") if s.strip()]
    if not methods:
        raise ConfigError(f"--methods is empty; name some of {','.join(ALL_METHODS)} or 'all'")
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {', '.join(sorted(unknown))}")
    return methods


def cmd_code(args) -> int:
    tower, subset = _build_inputs(args)
    code = SubsetCode(subset, guard=args.guard_codewords)
    methods = _selected_methods(args.methods)
    report = MinimalityReport()

    cert, cert_error = None, None
    try:
        cert, _ = verify_pds_spectral(subset)
        if not is_fq_invariant(subset):  # the certificate's readings need invariance
            cert, cert_error = None, ("subset is a PDS but not F_q^*-invariant, so its "
                                      "certificate gives neither weights nor minimality")
    except PdsVerificationError as exc:
        cert_error = str(exc)

    for name, (key, verdict) in METHODS.items():
        if name in methods:
            report.record(key, verdict(code, cert, cert_error))

    dist, dist_source = None, None
    try:
        dist, dist_source = code.weight_distribution_direct(), "direct"
    except GuardExceeded:
        pass
    if cert is not None:
        predicted = weight_distribution_predicted(cert, tower.q, tower.m)
        if dist is not None and dist.rows != predicted.rows:
            raise AssertionError("direct and predicted weight distributions disagree; bug")
        if dist is None:
            dist, dist_source = predicted, "predicted"

    payload = {
        "length": code.n,
        "dim": code.dimension(),
        "minimal": report.to_json(),
    }
    if dist is not None:
        payload["weights"] = dist.to_json()
        payload["weights_source"] = dist_source
        payload["ab_condition"] = ab_condition(dist, tower.q)
    if cert is not None and report.overall() == MINIMAL:
        payload["weight_class"] = weight_class(cert, tower.q, tower.m)
    if cert_error:
        payload["pds_error"] = cert_error

    if getattr(args, "gen_matrix", None):
        Path(args.gen_matrix).write_text(code.generator_matrix_text())

    table = [f"[{code.n},{payload['dim']}] code; minimality: {report.overall()}"]
    if dist is not None:
        table.append("weight\tfrequency")
        table.extend(f"{w}\t{f}" for w, f in dist.rows)
    _emit(args, payload, table)
    skipped = any(v.status == NOT_RUN for v in report.methods.values())
    return EXIT_PARTIAL if skipped else EXIT_OK


def cmd_blocking(args) -> int:
    _, subset = _build_inputs(args)
    report = is_cutting_vectorial_blocking(subset)
    payload = report.to_json()
    table = [
        f"blocking: {report.blocking}",
        f"contains_subspace: {report.contains_subspace}",
        f"cutting: {report.cutting}",
    ]
    if report.witness:
        table.append(f"witness: {report.witness}")
    _emit(args, payload, table)
    return EXIT_OK


def cmd_sss(args) -> int:
    tower, subset = _build_inputs(args)
    code = SubsetCode(subset, guard=args.guard_codewords)
    if args.x1_log is not None:
        x1 = int(tower.exp[args.x1_log % tower.order])
    elif args.x1 == "in-D":
        x1 = int(subset.members.min())
    elif args.x1 == "in-Dbar":  # the least nonzero non-member
        x1 = 1 + int(subset.indicator[1:].argmin())
    else:
        raise ConfigError("give --x1-log N or --x1 in-D|in-Dbar")
    # trust minimality unless SNC can run and disproves it; its rank flags
    # also filter the count for a code that is not minimal
    verdict = code.minimality_snc()
    minimal = verdict.status != NOT_MINIMAL
    report = analyze_scheme(code, x1, code_is_minimal=minimal)
    payload = report.to_json()
    if report.oracle_total is not None:
        payload["oracle_total"] = report.oracle_total
        payload["note"] = "code is not minimal; the access-set/codeword bijection breaks"
    elif verdict.status == NOT_RUN:
        payload["minimality_assumed"] = True
        payload["note"] = f"SNC not run ({verdict.note}); the code is taken as minimal"
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
                        help="comma list of cover,heng,snc,pds,latin,cyclotomic or 'all'")
    p_code.add_argument("--gen-matrix", dest="gen_matrix",
                        help="also write the generator matrix (plain text, one row per line): "
                             "the m + 1 rows f, Tr(x), ..., Tr(gamma^(m-1) x), which span the code")
    p_code.set_defaults(func=cmd_code)

    p_blk = sub.add_parser("blocking", help="hyperplane-intersection (cutting) analysis")
    common(p_blk)
    p_blk.set_defaults(func=cmd_blocking)

    p_sss = sub.add_parser("sss", help="secret-sharing structure of the dual code")
    common(p_sss)
    p_sss.add_argument("--x1-log", type=int, help="discrete log of the secret coordinate")
    p_sss.add_argument("--x1", choices=("in-D", "in-Dbar"),
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
    except (ConfigError, FieldConstructionError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
