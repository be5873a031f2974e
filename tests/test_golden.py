"""Golden reports: the CLI's stdout for a fixed set of commands, byte for byte.

Each file under tests/data/golden/ is the exact stdout of the command named
after it.  Any change to a verdict, witness, weight or key order shows here
as a failed comparison.
"""
from pathlib import Path

import pytest

from pdscodes.cli import main

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
    "code-3-8-N41-all": ["code", "--field", '{"p":3,"e":1,"m":8}',
                         "--subset", '{"cyclotomic":{"N":41,"J":[0]}}', "--methods", "all"],
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


def test_unreduced_class_indices_print_the_reduced_golden(capsys):
    # J = [10, 0] is {0} mod N = 10: the cyclotomic verdict reads (N, J) off the
    # subset, so the report is the golden one byte for byte
    argv = ["code", "--field", '{"p":3,"e":1,"m":4}',
            "--subset", '{"cyclotomic":{"N":10,"J":[10,0]}}', "--methods", "all"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "code-3-4-N10-all.json").read_text()
