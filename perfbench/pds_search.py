"""pds-search: verify a seeded stream of cyclotomic-class unions as PDS candidates.

Four towers are built once in set-up.  Each op does what `pdscodes pds`
does for one candidate: build the subset, take the full spectrum in auto
mode, read the certificate off it, check it by direct counting when the
field is small enough, and compare with the semiprimitive prediction.

Why these towers: F_{3^12} puts the butterfly transform to work,
F_{2^12} sits at the pointwise side of FAST_MODE_THRESHOLD, and F_{2^12}
and F_{3^8} are under DIRECT_VERIFY_CAP, so the direct check runs there.
`codes` is never called.

Each tower alternates a hit slot (a semiprimitive N, where every union is
a PDS) with a miss slot (an N where no union of that size is one), so the
hit ratio, and with it the cost of a cycle, does not depend on the seed;
the seed picks the classes J.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from common import REPEATS, Op, OpLog, build_tower, gate, units_for

TOWERS = ((2, 1, 12), (3, 1, 8), (2, 2, 8), (3, 1, 12))
# (hit slot, miss slot) per tower, each as (N, |J|)
SLOTS = {
    (2, 1, 12): ((13, 4), (7, 3)),
    (3, 1, 8): ((41, 2), (16, 2)),
    (2, 2, 8): ((17, 2), (15, 2)),
    (3, 1, 12): ((73, 2), (13, 2)),
}
# one run of a cycle, two rounds over the towers (8 ops), on a 2-core sandbox
CYCLE_NOMINAL_S = 1.3
SPOT_CHECKS = 3
# set-up samples taken after the first pass (set-up takes seconds)
SETUP_PROBES_PER_GAP = 1


class State:
    def __init__(self, towers, candidates, seed):
        self.towers = towers
        self.candidates = candidates
        self.rng = random.Random(seed ^ 0x5EED)


def setup(seed: int, seconds: float, tracer) -> State:
    towers = {key: build_tower(tracer, *key) for key in TOWERS}
    rng = random.Random(seed)
    candidates = []
    for _ in range(units_for(seconds, CYCLE_NOMINAL_S)):
        for slot in (0, 1):
            for key in TOWERS:
                N, size = SLOTS[key][slot]
                candidates.append((key, N, tuple(sorted(rng.sample(range(N), size)))))
    return State(towers, candidates, seed)


@dataclass
class Outcome:
    subset: object
    spectrum: object
    cert: object = None
    direct: tuple | None = None
    prediction: object = None


def verify_candidate(tower, N, J, tracer) -> Outcome:
    from pdscodes import charsums, pds

    subset = tracer.call("pds.build_subset", pds.build_cyclotomic_subset, tower, N, J)
    threshold = getattr(charsums, "FAST_MODE_THRESHOLD", 0)
    route = "transform" if tower.qm > threshold else "pointwise"
    spectrum = tracer.call("charsums.full_spectrum", charsums.full_spectrum, tower,
                           subset.members, attrs={"route": route, "elems": tower.qm})
    try:
        cert, _ = tracer.call("pds.verify_pds_spectral", pds.verify_pds_spectral, subset,
                              spectrum)
    except pds.PdsVerificationError:
        return Outcome(subset, spectrum)
    direct = None
    if tower.qm <= pds.DIRECT_VERIFY_CAP:
        direct = tracer.call("pds.verify_pds_direct", pds.verify_pds_direct, subset)
    try:
        prediction = tracer.call("pds.predicted_cyclotomic_eigenvalues",
                                 pds.predicted_cyclotomic_eigenvalues, tower, N, J)
    except pds.PdsVerificationError:
        prediction = None
    return Outcome(subset, spectrum, cert, direct, prediction)


def check(tower, N, J, out: Outcome, rng) -> str:
    """Correctness gate for one candidate; returns its verdict line."""
    from pdscodes import charsums, pds

    members = out.subset.members
    label = f"F_{tower.p}^{tower.em} N={N} J={list(J)}"
    gate(charsums.parseval_total(out.spectrum) == tower.qm * len(members),
         f"{label}: Parseval total is not q^m |S|")
    for a in rng.sample(range(1, tower.qm), SPOT_CHECKS):
        gate(charsums.psi_sum(tower, a, members) == out.spectrum.value(a),
             f"{label}: spectrum differs from the direct character sum at a={a}")
    try:
        prediction = pds.predicted_cyclotomic_eigenvalues(tower, N, J)
    except pds.PdsVerificationError:
        prediction = None
    small = tower.qm <= pds.DIRECT_VERIFY_CAP
    if out.cert is None:
        gate(prediction is None, f"{label}: predicted a PDS but the spectrum says no")
        if small:
            try:
                pds.verify_pds_direct(out.subset)
                gate(False, f"{label}: direct check finds a PDS the spectrum rejects")
            except pds.PdsVerificationError:
                pass
        return f"{label}: not a PDS"
    cert = out.cert.to_json()
    if small:
        gate(out.direct == (out.cert.lam, out.cert.mu),
             f"{label}: direct (lambda, mu) {out.direct} differs from the certificate")
    if prediction is not None:
        gate(out.prediction is not None and prediction.certificate.to_json() == cert,
             f"{label}: certificate {cert} differs from the semiprimitive prediction")
    return f"{label}: " + ",".join(f"{k}={cert[k]}" for k in sorted(cert))


def run(state: State, tracer, between, log: OpLog) -> tuple[list[Op], dict]:
    first = None
    for repeat in range(REPEATS):
        if repeat == 1:
            between()
        verdicts = []
        for index, (key, N, J) in enumerate(state.candidates):
            tower = state.towers[key]
            out = None
            if not log.failed(index):
                out = log.run(index, "F_%d^%d" % (tower.p, tower.em), tracer,
                              verify_candidate, tower, N, J, tracer)
            verdicts.append(check(tower, N, J, out, state.rng) if out else f"{index}: failed")
            if first is None and out:
                tracer.count("pds.candidates")
                tracer.count("pds.hits", int(out.cert is not None))
        if first is None:
            first = verdicts
        gate(verdicts == first, "verdicts changed between repeated runs of the same candidates")
    digest = hashlib.sha256("\n".join(first).encode()).hexdigest()[:16]
    return log.ops(), {"verdict_digest": digest}
