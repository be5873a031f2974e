"""Quick self-check of the benchmark itself (about a minute).

    python3 perfbench/selfcheck.py

It checks BENCHMARK.json against the names the benchmark prints, feeds
wrong answers to each workload's correctness gate and expects it to
refuse them, and makes a short untraced run of pds-search and a short
traced run of oracle-sweep on a tiny seed.  cli-recipes is checked without its
two deadline-bound commands: one cheap command is run and gated.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cli_recipes  # noqa: E402
import pds_search  # noqa: E402
from common import GateError  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 0
# verdict digest of pds-search for SEED with --seconds 1 (one cycle of 8 candidates)
PDS_DIGEST = "a9a39071bf199808"


def expect_refused(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except GateError:
        return
    raise SystemExit(f"self-check: the gate accepted {what}")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"self-check: {workload} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    details = json.loads(next(line for line in lines if line.startswith('{"details"')))
    return details["details"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())

    # the gate refuses wrong answers
    tracer = Tracer(False)
    state = pds_search.setup(SEED, 1, tracer)
    key, N, J = next(c for c in state.candidates if c[0] == (3, 1, 8) and c[1] == 41)
    tower = state.towers[key]
    out = pds_search.verify_candidate(tower, N, J, tracer)
    pds_search.check(tower, N, J, out, state.rng)
    out.direct = (out.direct[0] + 1, out.direct[1])
    expect_refused("a direct count that contradicts the certificate",
                   pds_search.check, tower, N, J, out, state.rng)
    out = pds_search.verify_candidate(tower, N, J, tracer)
    out.spectrum.raw[1, 0] += 1
    expect_refused("a corrupted spectrum", pds_search.check, tower, N, J, out, state.rng)

    name = "sss-example-3.1-dbar"
    proc = subprocess.run([sys.executable, "-m", "pdscodes.cli", *cli_recipes.COMMANDS[name]],
                          cwd=ROOT, env=cli_recipes.child_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == cli_recipes.EXPECTED[name]["exit"]
    cli_recipes.check(name, proc.stdout)
    report = json.loads(proc.stdout)
    report["total"] += 1
    expect_refused("a wrong access-set count", cli_recipes.check, name, json.dumps(report))
    fixed = cli_recipes.EXPECTED["code-table-2-row-3-pds"]["fields"]
    report = {"dim": fixed["dim"], "weights": fixed["weights"],
              "minimal": {"pds_sufficient": {"verdict": "minimal", "fired": "3a"}}}
    cli_recipes.check("code-table-2-row-3-pds", json.dumps(report))
    report["dim"] = 14
    expect_refused("a wrong dimension", cli_recipes.check, "code-table-2-row-3-pds",
                   json.dumps(report))

    # short runs print every metric BENCHMARK.json names
    for workload, trace, names in (("pds-search", 0, end_to_end), ("oracle-sweep", 1, per_layer)):
        details, result = run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == names, set(result["metrics"]) ^ names
        if workload == "pds-search":
            assert details["verdict_digest"] == PDS_DIGEST, details["verdict_digest"]
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
