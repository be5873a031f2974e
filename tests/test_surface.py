"""Every function and method in src/pdscodes has a caller outside the tests,
and every dataclass field and module-level constant is read there.

A library name that no other code in src/ or perfbench/ uses, and that
`pdscodes.__all__` does not export, is test-only code: it belongs in
`reference.py` when tests compare the library against it, and nowhere when
the public API can state the test's assertion.  ALLOWED names the test
oracles the library keeps on purpose.  A dataclass field that src/ and
perfbench/ never read as `.field` is set for nothing; UNREAD_FIELDS names
the fields kept on purpose.  A parameter with a default that no call in
src/ or perfbench/ sets, by keyword or by position, is a setting nobody
uses; UNSET_DEFAULTS names those kept on purpose.  A module-level
UPPERCASE constant that src/ and perfbench/ never read is a cap or guard
that nothing enforces any more.  No module imports a `_`-prefixed name
from a sibling: what another module needs is public in its home module.
The sibling imports sit at module level and form the layers of LAYERS,
with no cycle.  No code calls `nonzero`, or `count_nonzero` with an axis,
which walk a 2-D array one entry at a time, and none reads log or an
indicator at exp.
"""
import ast
import importlib
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import numpy as np
import pytest

import pdscodes

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "pdscodes").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "charsums.Spectrum.rational_values": "the integer value at every a, checked against "
                                         "the dense spectrum and the Gauss periods",
    "codes.WeightDistribution.as_dict": "weight -> frequency, as the README example prints it",
}


# Fields that only tests read, each with the reason it stays.
UNREAD_FIELDS = {
    "codes.WeightDistribution.merged_note": "says that two predicted weights coincide and "
                                            "their frequencies were summed",
    "pds.CyclotomicPrediction.ell1": "the least ell with p^ell = -1 (mod N), which fixes t",
    "pds.CyclotomicPrediction.coset_values": "the predicted value on each class, checked "
                                             "against the spectrum rows",
    "secretsharing.AccessReport.dictators": "the participants behind the dictatorial "
                                            "classification",
}


def _definitions(tree):
    """(qualified name, name, class name or None, node) of each module-level
    function and each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, node.name, item


def _used_names(tree):
    """Every name the module reads, reads or sets as an attribute, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _shared_names(trees):
    """Method names that numpy, its arrays, the builtin containers and the
    benchmark's own classes also have: a bare `.name` read of one (`np.add`,
    `seen.add`, `tracer.record`) shows nothing about a library method."""
    names = {name for obj in (np, np.ndarray, list, dict, set, str, int) for name in dir(obj)}
    return names | {item.name for path, tree in trees.items() if path not in LIBRARY
                    for node in tree.body if isinstance(node, ast.ClassDef)
                    for item in node.body if isinstance(item, ast.FunctionDef)}


def _names_in(annotation):
    """The class names an annotation mentions, string annotations included."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _typed_reads(tree):
    """(class, name) of each `.name` read on the class itself (`FieldTower.pow`),
    on self or cls in its methods, or on a local bound to an instance: a
    parameter or an assignment annotated with the class, or a name assigned
    from a call of the class or of one of its attributes."""
    def reads(scope, owners):
        for node in ast.walk(scope):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)):
                for owner in owners.get(node.value.id, ()):
                    yield owner, node.attr

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id, node.attr  # on the class itself
        if isinstance(node, ast.ClassDef):
            yield from reads(node, {"self": {node.name}, "cls": {node.name}})
        if not isinstance(node, ast.FunctionDef):
            continue
        owners = {}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                owners.setdefault(arg.arg, set()).update(_names_in(arg.annotation))
        for child in ast.walk(node):
            if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                owners.setdefault(child.target.id, set()).update(_names_in(child.annotation))
            elif isinstance(child, ast.Assign) and isinstance(child.value, ast.Call):
                func = child.value.func
                while isinstance(func, ast.Attribute):
                    func = func.value
                for target in child.targets:
                    if isinstance(target, ast.Name) and isinstance(func, ast.Name):
                        owners.setdefault(target.id, set()).add(func.id)
        yield from reads(node, owners)


def test_every_library_function_has_a_caller_outside_the_tests():
    # a method is reached only as `.name`: a local variable of the same name
    # calls nothing; a method named like an attribute of numpy, the builtin
    # containers or the benchmark's classes needs a read typed by its class
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    used = {name for tree in trees.values() for name in _used_names(tree)}
    attributes = {name for tree in trees.values() for name in _read_attributes(tree)}
    shared = _shared_names(trees)
    typed = {read for tree in trees.values() for read in _typed_reads(tree)}
    uncalled = sorted(
        f"{path.stem}.{qualified}"
        for path in LIBRARY
        for qualified, name, owner, _ in _definitions(trees[path])
        if not (name.startswith("__") and name.endswith("__"))
        and (name not in (used if owner is None else attributes)
             or owner is not None and name in shared and (owner, name) not in typed)
        and name not in pdscodes.__all__
    )
    assert uncalled == sorted(ALLOWED)


def test_shared_method_names_need_a_typed_read():
    # FieldTower.add once passed as called through np.add, seen.add and
    # OpLog.add; with only those reads it is flagged, and a typed read clears it
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    assert {"add", "log", "pow", "trace", "record", "call", "count"} <= _shared_names(trees)
    untyped = ast.parse("def f(seen, tower):\n    np.add(1, 2)\n    seen.add(1)\n    tower.add(1, 2)\n")
    assert ("FieldTower", "add") not in set(_typed_reads(untyped))
    for source in ("def f(tower: FieldTower):\n    tower.add(1, 2)\n",
                   "def f(t):\n    tower: FieldTower = t\n    return tower.add(1, 2)\n",
                   "def f():\n    tower = FieldTower(1)\n    return tower.add(1, 2)\n",
                   "x = FieldTower.add\n"):
        assert ("FieldTower", "add") in set(_typed_reads(ast.parse(source)))


def _is_dataclass(node):
    return any(
        isinstance(dec, ast.Name) and dec.id == "dataclass"
        or isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
        and dec.func.id == "dataclass"
        for dec in node.decorator_list
    )


def _dataclass_fields(tree):
    """(qualified name, name) of each field declared in a module-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _read_attributes(tree):
    """Every attribute the module reads as `.name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_dataclass_field_is_read_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    read = {name for tree in trees.values() for name in _read_attributes(tree)}
    unread = sorted(
        f"{path.stem}.{qualified}"
        for path in LIBRARY
        for qualified, name in _dataclass_fields(trees[path])
        if name not in read
    )
    assert unread == sorted(UNREAD_FIELDS)


# Parameters with a default that no caller sets, each with the reason it stays.
UNSET_DEFAULTS = {
    "cli.main argv": "the entry point; tests pass the arguments, a shell leaves them to sys.argv",
}


def _parameters(fn, method):
    """(positional parameters, parameters with a default) of fn; the self or
    cls of a method that is no staticmethod is no positional parameter of its
    calls."""
    args = fn.args
    bound = method and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}
    positional = [a.arg for a in args.posonlyargs + args.args][int(bound):]
    defaults = positional[len(positional) - len(args.defaults):] if args.defaults else []
    return positional, defaults + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                   if d is not None]


def _calls(node, owner=None):
    """(called name, positional arguments, keyword names) of every call; cls(...)
    calls the enclosing class, and tracer.call(name, fn, *args) calls fn."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func, args = child.func, child.args
            if isinstance(func, ast.Attribute) and func.attr == "call" and len(args) >= 2:
                func, args = args[1], args[2:]
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is not None:
                yield owner if name == "cls" else name, args, [k.arg for k in child.keywords]
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else owner)


def test_every_default_is_set_by_some_caller():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    reach, keywords = {}, {}  # called name -> positions some call fills, keywords it passes
    for tree in trees.values():
        for name, args, names in _calls(tree):
            # *args may fill every position from its own on, **kwargs (None) any keyword
            filled = sys.maxsize if any(isinstance(a, ast.Starred) for a in args) else len(args)
            reach[name] = max(reach.get(name, 0), filled)
            keywords.setdefault(name, set()).update(names)
    unset = []
    for path in LIBRARY:
        for qualified, name, owner, fn in _definitions(trees[path]):
            positional, defaults = _parameters(fn, method=owner is not None)
            called = owner if name == "__init__" else name  # a class call reaches __init__
            unset += [f"{path.stem}.{qualified} {param}" for param in defaults
                      if not ({param, None} & keywords.get(called, set())
                              or param in positional[: reach.get(called, 0)])]
    assert sorted(unset) == sorted(UNSET_DEFAULTS)


def _constants(tree):
    """The module-level UPPERCASE names the module assigns."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper())


def test_every_constant_is_read_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    read = {name for tree in trees.values() for name in _used_names(tree)}
    constants = [f"{path.stem}.{name}" for path in LIBRARY for name in _constants(trees[path])]
    assert len(constants) >= 20  # the scan finds them
    assert sorted(c for c in constants if c.split(".")[1] not in read) == []


def test_no_module_imports_a_private_name_of_a_sibling():
    # a name that another module needs is part of its home module's surface
    private = sorted(
        f"{path.stem}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pdscodes"))
        for alias in node.names if alias.name.startswith("_")
    )
    assert private == []


def _entrywise_walks(tree):
    """The lines that call nonzero, or count_nonzero with an axis."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        by_axis = len(node.args) > 1 or any(k.arg == "axis" for k in node.keywords)
        if name == "nonzero" or name == "count_nonzero" and by_axis:
            yield node.lineno


def test_no_entrywise_walk_of_a_2d_mask():
    # numpy 2.4 walks a 2-D mask one entry at a time in nonzero and in
    # count_nonzero along an axis, several times slower than
    # np.divmod(np.flatnonzero(mask), width), the same pairs in the same
    # order, and the int32 row sums of mask.view(np.uint8)
    walks = sorted(f"{path.stem}:{line}" for path in LIBRARY
                   for line in _entrywise_walks(ast.parse(path.read_text())))
    assert walks == []


def _reads_at_exp(tree):
    """The lines that read log or an indicator, or call trace_labels for x, at
    exp or a part of it: reads of log at exp are the identity i -> i, and
    the log-order tables hold the others (`log_indicator`,
    `trace_label_of_exp`)."""
    def named(node, *names):
        while isinstance(node, ast.Subscript):
            node = node.value
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name in names

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) \
                and named(node.value, "log", "indicator") and named(node.slice, "exp"):
            yield node.lineno
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr == "take" and named(node.func.value, "log", "indicator")
                or node.func.attr == "trace_labels") and named(node.args[-1], "exp"):
            yield node.lineno


def test_no_read_at_exp():
    found = sorted(f"{path.stem}:{line}" for path in LIBRARY
                   for line in _reads_at_exp(ast.parse(path.read_text())))
    assert found == []


def _none_sentinels(tree):
    """The lines that set a private attribute of self to None or test one
    against None: the two halves of a cache filled on first read by hand."""
    def on_self(node):
        return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self" and node.attr.startswith("_")

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_none(node.value) and any(map(on_self, node.targets)):
            yield node.lineno
        if isinstance(node, ast.Compare) and on_self(node.left) and is_none(node.comparators[-1]):
            yield node.lineno


def test_no_cache_with_a_none_sentinel():
    # a table built on first read is a cached_property, whose first read
    # fills the instance dict, not `self._x = None` in __init__ and
    # `if self._x is None:` at the read
    found = sorted(f"{path.name}:{line}" for path in LIBRARY
                   for line in _none_sentinels(ast.parse(path.read_text())))
    assert found == []


# The modules, lowest layer first: each imports only siblings before it.
LAYERS = ["field", "charsums", "pds", "qpoly", "codes", "blocking",
          "secretsharing", "recipes", "cli"]


def _sibling_imports(tree):
    """The sibling module of each import statement under tree that names one:
    `from .x import ...`, `from . import x`, `from pdscodes.x import ...` or
    `import pdscodes.x`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pdscodes")):
            module = (node.module or "").removeprefix("pdscodes").lstrip(".")
            yield from [module.split(".")[0]] if module else (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("pdscodes."))


def test_no_module_imports_a_sibling_inside_a_function():
    # an import inside a function hides a dependency from the module graph
    local = sorted(
        f"{path.stem}.{node.name}: {sibling}"
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sibling in _sibling_imports(node)
    )
    assert local == []


def test_sibling_imports_form_acyclic_layers():
    graph = {path.stem: set(_sibling_imports(ast.parse(path.read_text())))
             for path in LIBRARY if path.stem != "__init__"}
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert sorted(graph) == sorted(LAYERS)
    upward = sorted(f"{module} -> {sibling}" for module, siblings in graph.items()
                    for sibling in siblings if LAYERS.index(sibling) >= LAYERS.index(module))
    assert upward == []


def _top_level_names(tree):
    """The names a module defines at top level: functions, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_every_export_is_the_object_of_its_home_module():
    homes = {}
    for path in LIBRARY:
        if path.stem != "__init__":
            for name in _top_level_names(ast.parse(path.read_text())):
                homes.setdefault(name, []).append(path.stem)
    for name in pdscodes.__all__:
        [home] = homes[name]
        assert getattr(pdscodes, name) is getattr(importlib.import_module(f"pdscodes.{home}"), name)
    assert set(pdscodes.__all__) <= set(dir(pdscodes))
    with pytest.raises(AttributeError, match="no_such_name"):
        pdscodes.no_such_name
    with pytest.raises(ImportError):
        from pdscodes import no_such_name  # noqa: F401


def _fresh_modules(code):
    """The pdscodes modules, and numpy.ma, fractions and decimal if loaded,
    after code runs in a fresh interpreter, so that no other test has
    imported a module yet."""
    code += ("\nimport sys; print(' '.join(sorted(m for m in sys.modules"
             " if m.startswith('pdscodes') or m in ('numpy.ma', 'fractions', 'decimal'))))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return out.split()


def test_pds_import_compiles_only_what_pds_imports():
    assert _fresh_modules("from pdscodes import pds") == [
        "pdscodes", "pdscodes.charsums", "pdscodes.field", "pdscodes.pds"]
    # q-polynomials sit below the codes; the rank test of the polar form and
    # of a map's basis images takes its distinct elements with no np.unique,
    # which imports numpy.ma
    modules = _fresh_modules(
        "from pdscodes import qpoly\n"
        "from pdscodes.field import FieldSpec, build_tower\n"
        "from pdscodes.pds import quadric_subset\n"
        "tower = build_tower(FieldSpec(p=3, e=1, m=4))\n"
        "subset, _ = quadric_subset(tower, kind='elliptic')\n"
        "qpoly.is_automorphism_of(subset, qpoly.QPolynomial.frobenius(tower))")
    assert "pdscodes.qpoly" in modules
    assert "pdscodes.codes" not in modules and "numpy.ma" not in modules


# the steps of an analysis, which the CLI leaves to pds.analyze_pds,
# codes.analyze_code and secretsharing.analyze_sss
ANALYSIS_STEPS = ("is_fq_invariant", "weight_distribution_predicted",
                  "predicted_cyclotomic_eigenvalues", "analyze_scheme")


def test_cli_runs_no_analysis_step():
    # the CLI parses, builds the inputs and prints: a library user who calls
    # the analysis gets the certificate dropped, the cross-checks and the
    # minimality assumption that the CLI's report carries
    names = set(_used_names(ast.parse((ROOT / "src" / "pdscodes" / "cli.py").read_text())))
    steps = sorted(name for name in names if name in ANALYSIS_STEPS
                   or name.startswith(("verify_pds_", "minimality_")))
    assert steps == []


def test_cli_import_loads_no_exact_rationals():
    # ab_condition compares q w_min with (q - 1) w_max in integers
    modules = _fresh_modules("import pdscodes.cli\nfrom pdscodes import blocking, secretsharing")
    assert "pdscodes.codes" in modules
    assert "fractions" not in modules and "decimal" not in modules
