"""Shared pieces of the workloads: op timing, host speed, the gate's error, set-up probes."""
from __future__ import annotations

import bisect
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class GateError(AssertionError):
    """The program returned a wrong answer; the benchmark must not print a result."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


# passes over each workload's op list; an op's latency is the median of its runs
REPEATS = 3


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    raw_seconds: float


def units_for(seconds: float, nominal_unit_s: float, passes: int = REPEATS) -> int:
    """Whole work units so that `passes` passes take about `seconds` on the reference machine.

    The work is fixed by the seed and --seconds, not by the clock, so two
    commits run the same ops and every count repeats exactly.
    """
    return max(1, round(seconds / (passes * nominal_unit_s)))


class SpeedGauge:
    """How fast the host runs right now, read from a fixed kernel timed between ops.

    On a shared host (the reference one has 2 cores), other tenants' load
    moves the time of every op by 10-30% over seconds and minutes, for all
    ops at once.  Whenever INTERVAL_S has passed since the last sample, the
    gauge runs the benchmark's own kernel (a random gather and a running sum
    over 1 MB arrays, and a Python loop, as the library mixes numpy and
    Python) once to warm it up and then times REPS runs of it, about
    REF_NOMINAL_S in all.  An op run's time, and a set-up's, is scaled by
    REF_NOMINAL_S over the median of the NEIGHBOURS samples nearest to it:
    its time on the host at nominal speed.  The kernel does not call
    pdscodes; its warm-up run and preallocated buffers are there so that
    the op before it, and with it a change to the program, moves its time
    as little as possible.
    """

    REF_NOMINAL_S = 0.0055
    INTERVAL_S = 0.25
    REPS = 3
    NEIGHBOURS = 7
    WARMUP = 10

    def __init__(self):
        import numpy as np

        # a fixed pseudo-random permutation, without importing numpy.random
        # (which would add megabytes to the peak RSS the benchmark reports)
        keys = np.arange(1 << 17, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        keys ^= keys >> np.uint64(29)
        self._values = (keys >> np.uint64(34)).astype(np.int64)
        self._perm = np.argsort(keys)
        del keys
        self._gathered = np.empty_like(self._values)
        self._summed = np.empty_like(self._values)
        self.samples: list[tuple[float, float]] = []  # (mid time, seconds of REPS runs)
        for _ in range(self.WARMUP):
            self._kernel()
        self._last = -float("inf")

    def _kernel(self) -> int:
        import numpy as np

        np.take(self._values, self._perm, out=self._gathered)
        np.cumsum(self._gathered, out=self._summed)
        total = int(self._summed[-1] % 7)
        for i in range(8000):
            total += i * i % 7
        return total

    def tick(self) -> None:
        if time.perf_counter() - self._last < self.INTERVAL_S:
            return
        self._kernel()
        start = time.perf_counter()
        for _ in range(self.REPS):
            self._kernel()
        self._last = time.perf_counter()
        self.samples.append(((start + self._last) / 2, self._last - start))

    def factor(self, at: float) -> float:
        """Kernel time near `at` over its nominal time; above 1 when the host is slow."""
        mids = [t for t, _ in self.samples]
        i = bisect.bisect_left(mids, at)
        lo = max(0, min(i - self.NEIGHBOURS // 2, len(mids) - self.NEIGHBOURS))
        near = [d for _, d in self.samples[lo:lo + self.NEIGHBOURS]]
        return statistics.median(near) / self.REF_NOMINAL_S if near else 1.0


class OpLog:
    """Latency and outcome of each op over its repeated runs.

    Each workload runs its op list several times, one pass after another.
    Every successful run is scaled to nominal host speed by the gauge, and
    an op's latency is the median of its scaled runs.  A failed op keeps its
    raw time: it is set by a deadline or a crash, not by the host's speed.
    """

    def __init__(self, gauge: SpeedGauge):
        self.gauge = gauge
        self._runs: dict = {}  # key -> (kind, [(start, seconds)], ok)

    def run(self, key, kind: str, tracer, fn, *args):
        """Time one run of op `key`; a crash fails the op and the run goes on."""
        self.gauge.tick()
        tracer.op_id = key
        start = time.perf_counter()
        try:
            result = tracer.call("bench.op", fn, *args, attrs={"kind": kind})
            ok = True
        except Exception:  # the loop must keep running; the failure is counted
            traceback.print_exc(file=sys.stderr)
            result, ok = None, False
        self.add(key, kind, start, time.perf_counter() - start, ok)
        tracer.op_id = None
        return result

    def add(self, key, kind: str, start: float, seconds: float, ok: bool) -> None:
        entry = self._runs.setdefault(key, [kind, [], True])
        entry[1].append((start, seconds))
        entry[2] = entry[2] and ok

    def failed(self, key) -> bool:
        return key in self._runs and not self._runs[key][2]

    def ops(self) -> list[Op]:
        out = []
        for kind, runs, ok in self._runs.values():
            raw = statistics.median(s for _, s in runs)
            scaled = statistics.median(s / self.gauge.factor(t + s / 2) for t, s in runs)
            out.append(Op(kind, scaled if ok else raw, ok, raw))
        return out


def build_tower(tracer, p: int, e: int, m: int):
    """field.build_tower inside a span that records the growth of the RSS high-water mark."""
    from pdscodes import field

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    tower = field.build_tower(field.FieldSpec(p=p, e=e, m=m))
    grown_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
    tracer.record("field.build_tower", start, time.perf_counter(), {"rss_mb": grown_mb})
    return tower


def probe_setup(workload: str, seed: int, seconds: float, env: dict) -> float:
    """Set-up time of a fresh benchmark process that stops after set-up."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
