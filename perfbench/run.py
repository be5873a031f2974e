"""Benchmark of pdscodes: one seeded workload per run, checked, with metrics on the last line.

    python3 perfbench/run.py --workload pds-search --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics and the spans are written to
.perfbench_out/ when the run ends.  Lines before the last one give the run
stamp and the details behind each metric.  A wrong answer from the program
exits with status 1 and prints no result.  See perfbench/README.md.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import ROOT, SRC, GateError, OpLog, SpeedGauge, probe_setup  # noqa: E402
from spans import Tracer, span_cost_s  # noqa: E402

WORKLOADS = ("pds-search", "oracle-sweep", "cli-recipes")
OUT_DIR = ROOT / ".perfbench_out"


def load_workload(name: str):
    if name == "pds-search":
        import pds_search as module
    elif name == "oracle-sweep":
        import oracle_sweep as module
    else:
        import cli_recipes as module
    return module


def lower_median(values):
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def latency_stats(ops, field: str = "seconds") -> dict:
    """Median and tail op latency; failed ops sort above every successful one."""
    ordered = sorted(getattr(op, field) for op in ops if op.ok)
    ordered += sorted(getattr(op, field) for op in ops if not op.ok)
    n = len(ordered)
    tail_index = n - 11 if n > 10 else n - 1
    return {
        "p50": ordered[(n - 1) // 2],
        "tail": ordered[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "samples": n,
        "beyond_tail": n - 1 - tail_index,
    }


def stamp(seed: int) -> dict:
    import numpy

    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except OSError:
        git = []
    # a checkout that is not a git repository has no commit to report
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "pdscodes").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    loop_s = sum(op.seconds for op in ops)
    failed = sum(not op.ok for op in ops)
    lat = latency_stats(ops)
    metrics = {
        "ops_per_s": metric((len(ops) - failed) / loop_s, "1/s"),
        "op_p50_s": metric(lat["p50"], "s"),
        "op_tail_s": metric(lat["tail"], "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        # rule-of-succession failure rate: never 0, so a relative bound applies
        "ops_failed": metric((failed + 1) / (len(ops) + 2), "share"),
    }
    raw = latency_stats(ops, "raw_seconds")
    raw_loop_s = sum(op.raw_seconds for op in ops)
    unscaled = {"ops_per_s": (len(ops) - failed) / raw_loop_s, "op_p50_s": raw["p50"],
                "op_tail_s": raw["tail"]}
    return metrics, dict(lat, loop_s=loop_s, attempted=len(ops), failed=failed,
                         unscaled=unscaled)


LAYER_TIMES = (
    "field.build_tower", "charsums.full_spectrum", "pds.build_subset",
    "pds.verify_pds_spectral", "pds.predicted_cyclotomic_eigenvalues", "pds.verify_pds_direct",
    "codes.weight_table", "codes.supports", "codes.dimension",
    "codes.weight_distribution_direct", "codes.minimality_cover", "codes.minimality_heng",
    "codes.minimality_snc", "blocking.is_cutting_vectorial_blocking",
    "secretsharing.analyze_scheme", "qpoly.induced_code_automorphism_check",
    "cli.import", "cli.pds", "cli.code", "cli.blocking", "cli.sss", "bench.op",
)
LAYER_COUNTS = ("pds.candidates", "pds.hits", "codes.not_minimal", "codes.not_run",
                "cli.timeouts")


def per_layer(tracer: Tracer, ops) -> dict:
    self_s = tracer.self_times()
    metrics = {f"{name}.s": metric(self_s.get(name, 0.0), "s") for name in LAYER_TIMES}
    for name in LAYER_COUNTS:
        metrics[name] = metric(tracer.counts.get(name, 0), "count")

    towers = tracer.by_name("field.build_tower")
    metrics["field.build_tower.calls"] = metric(len(towers), "count")
    metrics["field.build_tower.rss_mb"] = metric(sum(s[5]["rss_mb"] for s in towers) + 0.0, "MB")
    spectra = tracer.by_name("charsums.full_spectrum")
    metrics["charsums.full_spectrum.calls"] = metric(len(spectra), "count")
    for route in ("transform", "pointwise"):
        metrics[f"charsums.full_spectrum.{route}_s"] = metric(
            sum(s[2] - s[1] for s in spectra if s[5]["route"] == route) + 0.0, "s")
    spectrum_s = sum(s[2] - s[1] for s in spectra)
    elems = sum(s[5]["elems"] for s in spectra)
    metrics["charsums.full_spectrum.elems_per_s"] = metric(
        elems / spectrum_s if spectrum_s else 0.0, "1/s")
    metrics["pds.verify_pds_direct.calls"] = metric(
        len(tracer.by_name("pds.verify_pds_direct")), "count")

    loop_s = sum(op.seconds for op in ops)
    metrics["trace.ops_per_s"] = metric(sum(op.ok for op in ops) / loop_s, "1/s")
    metrics["trace.overhead_share"] = metric(
        len(tracer.spans) * span_cost_s() / loop_s, "share")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="stop after set-up and print its duration (used by the benchmark)")
    args = parser.parse_args(argv)

    if not (SRC / "pdscodes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pdscodes

    if not pdscodes.__file__.startswith(str(SRC)):
        print(f"error: imported pdscodes from {pdscodes.__file__}, not {SRC}", file=sys.stderr)
        return 2

    module = load_workload(args.workload)
    tracer = Tracer(args.trace == 1)
    state = module.setup(args.seed, args.seconds, tracer)
    main_setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": main_setup_s}))
        return 0

    # one set-up sample now and more between the repeated passes, which also
    # spreads the passes apart in time; each is (mid time, seconds)
    if args.workload == "cli-recipes":
        def probe():
            return module.setup_sample(tracer)

        setup_samples = []
    else:
        env = dict(os.environ, PYTHONPATH=str(SRC))

        def probe():
            return probe_setup(args.workload, args.seed, args.seconds, env)

        setup_samples = [((T0 + time.perf_counter()) / 2, main_setup_s)]

    def sample():
        start = time.perf_counter()
        seconds = probe()
        setup_samples.append(((start + time.perf_counter()) / 2, seconds))

    if not setup_samples:
        sample()

    def between():
        for _ in range(module.SETUP_PROBES_PER_GAP):
            sample()

    gauge = SpeedGauge()
    try:
        ops, details = module.run(state, tracer, between, OpLog(gauge))
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    scaled_setup = [s / gauge.factor(at) for at, s in setup_samples]

    if args.workload == "cli-recipes":
        peak_rss_mb = details["children_peak_rss_mb"]
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e, lat = end_to_end(ops, lower_median(scaled_setup), peak_rss_mb)
    print(json.dumps({"stamp": stamp(args.seed)}))
    factors = [d / gauge.REF_NOMINAL_S for _, d in gauge.samples]
    host = {"samples": len(factors), "median_factor": lower_median(factors) if factors else None}
    lat["unscaled"]["setup_s"] = lower_median([s for _, s in setup_samples])
    print(json.dumps({"details": dict(details, **lat, setup_samples=scaled_setup,
                                      host_speed=host)}))
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        print(json.dumps({"spans": str(spans_path.relative_to(ROOT))}))
        metrics = per_layer(tracer, ops)
    else:
        metrics = e2e
    failed = sum(not op.ok for op in ops)
    print(json.dumps({"correct": True, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
