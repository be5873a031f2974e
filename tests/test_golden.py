"""Golden reports: the CLI's stdout for a fixed set of commands, byte for byte.

Each file under tests/data/golden/ is the exact stdout of the command named
after it.  Any change to a verdict, witness, weight or key order shows here
as a failed comparison.
"""
import json
from functools import cached_property
from pathlib import Path

import pytest

from pdscodes.cli import main, make_parser
from pdscodes.codes import ALL_METHODS, SubsetCode, analyze_code
from pdscodes.field import FieldSpec, FieldTower, build_tower
from pdscodes.pds import FieldSubset, analyze_pds
from pdscodes.recipes import build_recipe
from pdscodes.secretsharing import analyze_sss

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

GOLDEN = {
    "pds-example-3.1": ["pds", "--recipe", "example-3.1"],
    "pds-elliptic-3-4": ["pds", "--field", '{"p":3,"e":1,"m":4}',
                         "--subset", '{"quadric":{"kind":"elliptic"}}'],
    "code-example-3.1-all": ["code", "--recipe", "example-3.1", "--methods", "all"],
    "code-example-3.3-hyperbolic-latin-cover": [
        "code", "--recipe", "example-3.3", "--kind", "hyperbolic", "--p", "3", "--m", "4",
        "--methods", "latin,cover"],
    "blocking-4-4-N5": ["blocking", "--field", '{"p":2,"e":2,"m":4}',
                        "--subset", '{"cyclotomic":{"N":5,"J":[0]}}'],
    "sss-table-2-row-1": ["sss", "--recipe", "table-2-row-1", "--x1-log", "0"],
    "sss-example-3.1-in-Dbar": ["sss", "--recipe", "example-3.1", "--x1", "in-Dbar"],
    "code-table-2-row-1-all": ["code", "--recipe", "table-2-row-1", "--methods", "all"],
    "code-3-4-N10-all": ["code", "--field", '{"p":3,"e":1,"m":4}',
                         "--subset", '{"cyclotomic":{"N":10,"J":[0]}}', "--methods", "all"],
    "code-3-8-elliptic-all": ["code", "--recipe", "example-3.3", "--kind", "elliptic",
                              "--p", "3", "--m", "8", "--methods", "all"],
    "code-5-6-elliptic-all": ["code", "--recipe", "example-3.3", "--kind", "elliptic",
                              "--p", "5", "--m", "6", "--methods", "all"],
    "code-3-8-N41-all": ["code", "--field", '{"p":3,"e":1,"m":8}',
                         "--subset", '{"cyclotomic":{"N":41,"J":[0]}}', "--methods", "all"],
    "code-table-2-row-3-pds": ["code", "--recipe", "table-2-row-3", "--methods", "pds"],
    "sss-3-4-N10-x1-0": ["sss", "--field", '{"p":3,"e":1,"m":4}',
                         "--subset", '{"cyclotomic":{"N":10,"J":[0]}}', "--x1-log", "0"],
    "blocking-3-4-hyperbolic": ["blocking", "--field", '{"p":3,"e":1,"m":4}',
                                "--subset", '{"quadric":{"kind":"hyperbolic"}}'],
    "blocking-3-4-N10": ["blocking", "--field", '{"p":3,"e":1,"m":4}',
                         "--subset", '{"cyclotomic":{"N":10,"J":[0]}}'],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(capsys, name):
    assert main(list(GOLDEN[name])) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


# the acceptance test runs these two cold through the CLI, within a time budget
QUADRIC_GOLDEN = {
    "code-3-10-elliptic-all": ["code", "--recipe", "example-3.3", "--kind", "elliptic",
                               "--p", "3", "--m", "10", "--methods", "all"],
    "code-4-8-elliptic-all": ["code", "--field", '{"p":2,"e":2,"m":8}',
                              "--subset", '{"quadric":{"kind":"elliptic"}}', "--methods", "all"],
}
ANALYZED = {name: argv for name, argv in {**GOLDEN, **QUADRIC_GOLDEN}.items()
            if argv[0] in ("pds", "code", "sss")}


def _library_payload(argv) -> dict:
    """The report of a golden command, from the library's analysis with no
    CLI code but the parser that reads its arguments."""
    args = make_parser().parse_args(argv)
    if args.recipe:
        subset = build_recipe(args.recipe, kind=args.kind, p=args.p, m=args.m)
    else:
        tower = build_tower(FieldSpec.from_json(json.loads(args.field)))
        subset = FieldSubset.from_json(tower, json.loads(args.subset))
    if args.command == "pds":
        return analyze_pds(subset)[0]
    code = SubsetCode(subset, guard=args.guard_codewords)
    if args.command == "code":
        methods = ALL_METHODS if args.methods == "all" else args.methods.split(",")
        return analyze_code(code, methods)[0]
    return analyze_sss(code, x1_log=args.x1_log, side=args.x1)[0]


@pytest.mark.parametrize("name", sorted(ANALYZED))
def test_library_analysis_gives_the_golden_report(name):
    payload = _library_payload(ANALYZED[name])
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN_DIR / f"{name}.json").read_text()


def test_unreduced_class_indices_print_the_reduced_golden(capsys):
    # J = [10, 0] is {0} mod N = 10: the cyclotomic verdict reads (N, J) off the
    # subset, so the report is the golden one byte for byte
    argv = ["code", "--field", '{"p":3,"e":1,"m":4}',
            "--subset", '{"cyclotomic":{"N":10,"J":[10,0]}}', "--methods", "all"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "code-3-4-N10-all.json").read_text()


# FieldTower tables built on first read, which a class-union `pds` never reads
DEFERRED = ("trace_coords", "log")


def _route_deferred_reads(monkeypatch, on_read):
    """Call on_read(name) on the first read of each deferred table on each tower."""
    for name in DEFERRED:
        build = FieldTower.__dict__[name].func

        def read(tower, build=build, name=name):
            on_read(name)
            return build(tower)

        table = cached_property(read)
        table.__set_name__(FieldTower, name)
        monkeypatch.setattr(FieldTower, name, table)


def _run_refusing_deferred_tables(monkeypatch, capsys, argv, allowed=()) -> str:
    """The stdout of main(argv) with every deferred table but the allowed ones
    made to raise on read; the command must read exactly the allowed ones."""
    reads = set()

    def refuse(name):
        reads.add(name)
        if name not in allowed:
            raise AssertionError(f"{argv[0]} read FieldTower.{name}")

    with monkeypatch.context() as patched:
        _route_deferred_reads(patched, refuse)
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
    assert reads == set(allowed)
    return out


EXPLICIT_41 = json.dumps({"explicit": {"logs": list(range(0, 6560, 41))}})
EXPLICIT_EX31 = json.dumps({"explicit": {"logs": [i for i in range(255) if i % 5]}})


@pytest.mark.parametrize("argv", [
    ["pds", "--recipe", "example-3.1"],
    ["pds", "--field", '{"p":3,"e":1,"m":8}', "--subset", '{"cyclotomic":{"N":41,"J":[0]}}'],
    ["pds", "--recipe", "table-2-row-3"],
    ["pds", "--field", '{"p":3,"e":1,"m":8}', "--subset", EXPLICIT_41],
    ["pds", "--field", '{"p":2,"e":2,"m":4}', "--subset", EXPLICIT_EX31],
], ids=["example-3.1", "3-8-N41", "table-2-row-3", "3-8-N41-explicit", "example-3.1-explicit"])
def test_class_union_pds_builds_no_deferred_table(monkeypatch, capsys, argv):
    # the F_q-invariance check scales the classes' logs i N + j, and the
    # spectrum reads the absolute trace in log order: no log table is built.
    # The same unions given as explicit logs are read off exp at their logs,
    # whose period gives the stabiliser, so they build none either
    out = _run_refusing_deferred_tables(monkeypatch, capsys, argv)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == out


def test_explicit_logs_print_the_class_union_report(capsys):
    # example-3.1 and F_{3^8}/N=41 given by their logs print the same report
    for union, field, explicit in (
            (["--recipe", "example-3.1"], '{"p":2,"e":2,"m":4}', EXPLICIT_EX31),
            (["--field", '{"p":3,"e":1,"m":8}', "--subset", '{"cyclotomic":{"N":41,"J":[0]}}'],
             '{"p":3,"e":1,"m":8}', EXPLICIT_41)):
        assert main(["pds", *union]) == 0
        expected = capsys.readouterr().out
        assert main(["pds", "--field", field, "--subset", explicit]) == 0
        assert capsys.readouterr().out == expected


def test_row3_code_pds_builds_no_deferred_table(monkeypatch, capsys):
    # the weight count, the kernel words and the certificates of F_{3^12}/N=35
    # name F_q values by log: -x and the labels of the absolute trace need no
    # q^m table, the members' logs are i N + j, and the report is the golden
    # one captured while they did
    name = "code-table-2-row-3-pds"
    out = _run_refusing_deferred_tables(monkeypatch, capsys, GOLDEN[name])
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


def test_binary_class_union_code_pds_builds_no_deferred_table(monkeypatch, capsys):
    # a binary f is a trace form only when |D| = q^m / 2: the trace-form test
    # of F_{2^12}/N=3 (|D| = 1365) reads neither trace_coords nor log
    _run_refusing_deferred_tables(monkeypatch, capsys, [
        "code", "--field", '{"p":2,"e":1,"m":12}', "--subset", '{"cyclotomic":{"N":3,"J":[0]}}',
        "--methods", "pds"])


@pytest.mark.parametrize("name", ["code-example-3.1-all", "sss-example-3.1-in-Dbar",
                                  "blocking-4-4-N5", "sss-table-2-row-1"])
def test_class_union_code_sss_blocking_build_no_deferred_table(monkeypatch, capsys, name):
    # SNC negates the first zero of each word by a log shift, and for e > 1 the
    # F_q-trace labels join its half tables at exp: no q^m table is built for
    # either, and the reports are the goldens.  SNC, sss and the cutting test
    # read log (the zero sets' logs, the secret's line, the rank tests)
    out = _run_refusing_deferred_tables(monkeypatch, capsys, GOLDEN[name], allowed={"log"})
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


def test_quadric_code_golden_reads_deferred_tables(monkeypatch, capsys):
    # the code scans of a quadric read trace_coords (the reflections' trace
    # duals) and log, and print the golden
    name = "code-3-8-elliptic-all"
    out = _run_refusing_deferred_tables(monkeypatch, capsys, GOLDEN[name],
                                        allowed={"trace_coords", "log"})
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


def test_quadric_blocking_golden_reads_deferred_tables(monkeypatch, capsys):
    # the cutting test merges a quadric's hyperplanes along the reflections of
    # the orbit engine (their trace duals read trace_coords), and the classes
    # and rank tests read log; the report is the golden
    name = "blocking-3-4-hyperbolic"
    out = _run_refusing_deferred_tables(monkeypatch, capsys, GOLDEN[name],
                                        allowed={"trace_coords", "log"})
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()
