"""Every function and method in src/pdscodes has a caller outside the tests.

A library name that no other code in src/ or perfbench/ uses, and that
`pdscodes.__all__` does not export, is test-only code: it belongs in
`reference.py` when tests compare the library against it, and nowhere when
the public API can state the test's assertion.  ALLOWED names the test
oracles the library keeps on purpose.
"""
import ast
from pathlib import Path

import pdscodes

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "pdscodes").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "codes.dyz_size": "the slice-size closed form, checked against direct counts",
    "charsums.Spectrum.rational_values": "the integer value at every a, checked against "
                                         "the dense spectrum and the Gauss periods",
    "codes.WeightDistribution.as_dict": "weight -> frequency, as the README example prints it",
    "cyclotomic.CyclotomicInteger.norm_squared": "|z|^2 in Z[zeta_p], checked against the "
                                                 "norm form of Z[zeta_3]",
    "cyclotomic.CyclotomicInteger.is_zero": "the zero test of a value in Z[zeta_p]",
}


def _definitions(tree):
    """(qualified name, name) of each module-level function and each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def _used_names(tree):
    """Every name the module reads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_library_function_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    used = {name for tree in trees.values() for name in _used_names(tree)}
    uncalled = sorted(
        f"{path.stem}.{qualified}"
        for path in LIBRARY
        for qualified, name in _definitions(trees[path])
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used and name not in pdscodes.__all__
    )
    assert uncalled == sorted(ALLOWED)
