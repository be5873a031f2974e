"""Sample single-site mutants of src/pdscodes and run tier-1 against each.

    python tests/mutate.py --seed 7 --count 10 --modules charsums pds

A site is a comparison operator (< and <=, > and >=, == and !=, each way),
an arithmetic operator (+ and -, // and *, % to //) or a small integer
constant (0 to 9, which becomes one more).  The seed draws count sites
from the named modules (all of them by default), by a key hashed from the
seed, the module, the enclosing def or class, the site's line (less its
comment, so that editing a comment draws the same sites) and node, and its
change: the modules, taken by name, get count // len(modules)
sites each (the first count % len(modules) one more), the sites of least
key.  So a module's draw depends on its own sites alone, and a change to
one module leaves the draw from the others as it was; within a module a
site the change did not touch stays drawn unless a new site of smaller key
takes its place.  Each mutant is its module's tree with that one site
changed, written back with `ast.unparse` into a copy of src/, tests/,
perfbench/ (which test_surface reads) and pyproject.toml, in a fresh
temporary directory removed at the end.  Tier-1 then runs there with -x
under TIMEOUT seconds per mutant, and the mutant counts as killed (a test
failed), survived (every test passed) or timed out.  Unparsing alone changes no test outcome.  This is a
measurement, not a tier-1 step: a survivor asks for a test that kills it,
or for a note on why it is equivalent.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pdscodes"

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult, ast.Mult: ast.FloorDiv,
    ast.Mod: ast.FloorDiv,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.FloorDiv: "//", ast.Mult: "*", ast.Mod: "%",
}
SMALL = range(10)
TIMEOUT = 300  # seconds per mutant; tier-1 takes about a minute


class Site(NamedTuple):
    module: str
    index: int  # in ast.walk order
    slot: int | None  # the comparison's operator number
    line: int
    change: str
    name: str  # module, enclosing scope, line and source, change, repeat number


def scopes(tree: ast.AST) -> dict[int, str]:
    """id of each node -> the dotted name of the innermost def or class
    around it, or of the def or class it is ('' at module level)."""
    names = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}".lstrip(".")
            names[id(child)] = inner
            visit(child, inner)

    visit(tree, "")
    return names


def code_lines(source: str) -> list[str]:
    """The source's lines, each cut before its comment: a `#` that tokenize
    reads as a comment, not one inside a string."""
    lines = source.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def sites(module: str, source: str) -> list[Site]:
    """Every site of the module's source, in ast.walk order.  A site's name
    reads its scope, its stripped line less any comment, its node unparsed
    and its change, and numbers the repeats of that text in walk order."""
    tree, lines, seen, out = ast.parse(source), code_lines(source), {}, []
    scope = scopes(tree)
    for index, node in enumerate(ast.walk(tree)):
        changes = []
        if isinstance(node, ast.Compare):
            changes = [(slot, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}")
                       for slot, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            changes = [(None, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[SWAPS[type(node.op)]]}")]
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in SMALL):
            changes = [(None, f"{node.value} -> {node.value + 1}")]
        for slot, change in changes:
            text = "\0".join([module, scope[id(node)], lines[node.lineno - 1].strip(),
                              ast.unparse(node), change])
            seen[text] = seen.get(text, -1) + 1
            out.append(Site(module, index, slot, node.lineno, change, f"{text}\0{seen[text]}"))
    return out


def draw(sources: dict[str, str], seed: int, count: int) -> list[Site]:
    """count sites of the modules in sources (name -> source): the modules,
    sorted by name, take count // len(sources) each and the first count %
    len(sources) one more, each its sites of least key, the hash of the
    seed and the site's name, in key order."""
    names = sorted(sources)
    drawn = []
    for i, module in enumerate(names):
        share = count // len(names) + (i < count % len(names))
        drawn += sorted(sites(module, sources[module]), key=lambda site: hashlib.blake2b(
            f"{seed}\0{site.name}".encode(), digest_size=8).digest())[:share]
    return drawn


def mutant(source: str, index: int, slot: int | None) -> str:
    """source with the site at ast.walk index (and comparison slot) changed."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree)


def run_tier1(workdir: Path) -> str:
    """killed, survived or timed out: tier-1 with -x in workdir."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)  # its own group, so a timeout ends the CLI children too
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out"
    return "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=10, help="mutants to draw")
    parser.add_argument("--modules", nargs="+", choices=modules, default=modules)
    args = parser.parse_args(argv)

    sources = {name: (PACKAGE / f"{name}.py").read_text() for name in args.modules}
    pool = sum(len(sites(name, source)) for name, source in sources.items())
    drawn = draw(sources, args.seed, args.count)
    print(f"{len(drawn)} of {pool} sites in {', '.join(sorted(sources))}, seed {args.seed}")

    workdir = Path(tempfile.mkdtemp(prefix="pdscodes-mutate-"))
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, workdir / part, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", workdir)  # the pytest settings
    tally = {"killed": 0, "survived": 0, "timed out": 0}
    try:
        for site in drawn:
            target = workdir / "src" / "pdscodes" / f"{site.module}.py"
            target.write_text(mutant(sources[site.module], site.index, site.slot))
            try:
                outcome = run_tier1(workdir)
            finally:
                target.write_text(sources[site.module])
            tally[outcome] += 1
            print(f"{outcome:9}  {site.module}.py:{site.line}  {site.change}", flush=True)
    finally:
        shutil.rmtree(workdir)
    detected = tally["killed"] + tally["timed out"]
    print(", ".join(f"{k} {v}" for k, v in tally.items())
          + f"; kill rate {detected}/{len(drawn)} (a timeout counts as detected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
