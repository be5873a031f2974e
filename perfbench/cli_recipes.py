"""cli-recipes: the README's commands, run cold through `python -m pdscodes.cli`.

Every CLI call pays interpreter start-up, `import pdscodes.cli` and the
tower tables, which is how users meet the program.  Each op is one command
in a fresh process, one at a time, under DEADLINE_S; the seed permutes the
order; a command that fails or hits the deadline is not run again.  Two
commands are known defects and are kept as they are: the row-3 `code
--methods pds` hangs in SubsetCode.dimension, and `code --methods all` on
F_{3^8}/N=41 takes minutes.  They count as failed ops when they hit the
deadline; EXPECTED holds the answers they must give once fixed, so a fix
turns them into checked passes.
"""
from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, SRC, Op, OpLog, gate, units_for

# a command that finishes must beat this; pds --recipe table-2-row-3 takes 5.2 s
DEADLINE_S = 10.0
# one pass over COMMANDS, two of them at the deadline, on a 2-core sandbox
PASS_NOMINAL_S = 28.0
# passes over the commands; a command that failed is not run again, so the
# passes after the first cost about 8 s each and steady the cheap commands'
# median
PASSES = 4
# set-up samples taken between two repeated passes (a cold import is short and noisy)
SETUP_PROBES_PER_GAP = 2

COMMANDS = {
    "pds-example-3.1": ["pds", "--recipe", "example-3.1"],
    "pds-elliptic-3-4": ["pds", "--field", '{"p":3,"e":1,"m":4}',
                         "--subset", '{"quadric":{"kind":"elliptic"}}'],
    "pds-table-2-row-3": ["pds", "--recipe", "table-2-row-3"],
    "code-example-3.1-all": ["code", "--recipe", "example-3.1", "--methods", "all"],
    "code-example-3.3-hyperbolic": ["code", "--recipe", "example-3.3", "--kind", "hyperbolic",
                                    "--p", "3", "--m", "4", "--methods", "latin,cover"],
    "code-table-2-row-3-pds": ["code", "--recipe", "table-2-row-3", "--methods", "pds"],
    "code-3-8-N41-all": ["code", "--field", '{"p":3,"e":1,"m":8}',
                         "--subset", '{"cyclotomic":{"N":41,"J":[0]}}', "--methods", "all"],
    "blocking-4-4-N5": ["blocking", "--field", '{"p":2,"e":2,"m":4}',
                        "--subset", '{"cyclotomic":{"N":5,"J":[0]}}'],
    "sss-table-2-row-1": ["sss", "--recipe", "table-2-row-1", "--x1-log", "0"],
    "sss-example-3.1-dbar": ["sss", "--recipe", "example-3.1", "--x1", "in-Dbar"],
}
EXPECTED = json.loads(Path(__file__).with_name("expected_cli.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup(seed: int, seconds: float, tracer) -> list[str]:
    names = sorted(COMMANDS)
    random.Random(seed).shuffle(names)
    return names * units_for(seconds, PASS_NOMINAL_S, PASSES)


def setup_sample(tracer) -> float:
    """Wall time of a cold `import pdscodes.cli` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pdscodes.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=60)
    end = time.perf_counter()
    tracer.record("cli.import", start, end)
    return end - start


def overall_verdict(minimal: dict) -> str:
    """The report's overall minimality: the definite verdict its methods agree on."""
    statuses = {v["verdict"] if isinstance(v, dict) else v for v in minimal.values()}
    definite = statuses & {"minimal", "not_minimal"}
    gate(len(definite) <= 1, f"definite verdicts disagree: {sorted(statuses)}")
    return definite.pop() if definite else "inconclusive"


def key_fields(subcommand: str, report: dict) -> dict:
    if subcommand == "code":
        return {"dim": report.get("dim"), "weights": report.get("weights"),
                "overall": overall_verdict(report.get("minimal", {}))}
    return report


def check(name: str, stdout: str) -> None:
    """Compare the fields of the report that carry the answer; ignore the rest."""
    want = EXPECTED[name]
    got = key_fields(COMMANDS[name][0], json.loads(stdout))
    for key, value in want["fields"].items():
        gate(got.get(key) == value, f"{name}: {key} is {got.get(key)!r}, expected {value!r}")


def run(names: list[str], tracer, between, log: OpLog) -> tuple[list[Op], dict]:
    timeouts = []
    for repeat in range(PASSES):
        if repeat:
            between()
        for index, name in enumerate(names):
            if log.failed(index):
                continue  # a hang or crash is not worth waiting for twice
            args = COMMANDS[name]
            log.gauge.tick()
            start = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "pdscodes.cli", *args], cwd=ROOT,
                                      env=child_env(), capture_output=True, text=True,
                                      timeout=DEADLINE_S)
            except subprocess.TimeoutExpired:
                proc = None
            end = time.perf_counter()
            tracer.record(f"cli.{args[0]}", start, end, {"command": name})
            ok = proc is not None and proc.returncode == EXPECTED[name]["exit"]
            log.add(index, name, start, end - start, ok)
            if proc is None:
                tracer.count("cli.timeouts")
                timeouts.append(name)
            elif not ok:
                print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            else:
                check(name, proc.stdout)
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    ops = log.ops()
    return ops, {"timeouts": timeouts, "children_peak_rss_mb": children_mb,
                 "command_s": {op.kind: op.seconds for op in ops}}
