"""Sample single-site mutants of src/pdscodes and run tier-1 against each.

    python tests/mutate.py --seed 7 --count 10 --modules charsums pds

A site is a comparison operator (< and <=, > and >=, == and !=, each way),
an arithmetic operator (+ and -, // and *, % to //) or a small integer
constant (0 to 9, which becomes one more).  The sites of the named modules
(all of them by default) are listed in `ast.walk` order, and the seed
draws count of them.  Each mutant is its module's tree with that one site
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
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

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


def sites(tree: ast.AST):
    """(index in ast.walk order, operator slot or None, line, description) of
    every site of tree; the slot is the comparison's operator number."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]
                    yield index, slot, node.lineno, f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]
            yield index, None, node.lineno, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}"
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in SMALL):
            yield index, None, node.lineno, f"{node.value} -> {node.value + 1}"


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
    pool = [(name, *site) for name in args.modules for site in sites(ast.parse(sources[name]))]
    drawn = random.Random(args.seed).sample(pool, min(args.count, len(pool)))
    print(f"{len(drawn)} of {len(pool)} sites in {', '.join(args.modules)}, seed {args.seed}")

    workdir = Path(tempfile.mkdtemp(prefix="pdscodes-mutate-"))
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, workdir / part, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", workdir)  # the pytest settings
    tally = {"killed": 0, "survived": 0, "timed out": 0}
    try:
        for name, index, slot, line, change in drawn:
            target = workdir / "src" / "pdscodes" / f"{name}.py"
            target.write_text(mutant(sources[name], index, slot))
            try:
                outcome = run_tier1(workdir)
            finally:
                target.write_text(sources[name])
            tally[outcome] += 1
            print(f"{outcome:9}  {name}.py:{line}  {change}", flush=True)
    finally:
        shutil.rmtree(workdir)
    detected = tally["killed"] + tally["timed out"]
    print(", ".join(f"{k} {v}" for k, v in tally.items())
          + f"; kill rate {detected}/{len(drawn)} (a timeout counts as detected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
