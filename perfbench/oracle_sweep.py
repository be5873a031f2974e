"""oracle-sweep: every minimality and structure oracle on a seeded list of small codes.

The towers (81 to 1024 elements, q in {2,3,4,5,7,9}) and subsets are
built in set-up, so `field` and `charsums` stay out of the loop.  Each op
is one oracle call, in the order below; weight_table and supports go
first so their fill cost is measured apart from the scans that reuse it.

Why these cases: PDS class unions and quadrics give minimal codes, on
which cover, heng and snc scan everything; hyperplane sets give
non-minimal codes, on which they stop at the first witness; random
invariant unions sit between.  A change that speeds up one kind at the
cost of the other shows here.  The seed picks the classes, the random
unions, the secret coordinate and the order of the cases; it does not
change the field sizes or the kind mix, so a pass costs about the same
for every seed.  Most cases are small: their millisecond ops sit around
the median, and many of them keep it from jumping between runs.
"""
from __future__ import annotations

import random

from common import REPEATS, Op, OpLog, build_tower, gate, units_for

# (label, (p, e, m), kind, parameter)
CASES = (
    ("F_2^8 classes N=3", (2, 1, 8), "classes", (3, 2)),
    ("F_2^8 classes N=17", (2, 1, 8), "classes", (17, 8)),
    ("F_3^4 classes N=4", (3, 1, 4), "classes", (4, 2)),
    ("F_4^4 classes N=5", (2, 2, 4), "classes", (5, 2)),
    ("F_2^8 elliptic quadric", (2, 1, 8), "quadric", "elliptic"),
    ("F_3^4 elliptic quadric", (3, 1, 4), "quadric", "elliptic"),
    ("F_3^4 hyperbolic quadric", (3, 1, 4), "quadric", "hyperbolic"),
    ("F_4^4 elliptic quadric", (2, 2, 4), "quadric", "elliptic"),
    ("F_2^7 random union", (2, 1, 7), "union", None),
    ("F_2^8 random union", (2, 1, 8), "union", None),
    ("F_3^4 random union", (3, 1, 4), "union", None),
    ("F_3^5 random union", (3, 1, 5), "union", None),
    ("F_4^4 random union", (2, 2, 4), "union", None),
    ("F_5^3 random union", (5, 1, 3), "union", None),
    ("F_7^3 random union", (7, 1, 3), "union", None),
    ("F_9^2 random union", (3, 2, 2), "union", None),
    ("F_2^7 hyperplane", (2, 1, 7), "hyperplane", None),
    ("F_2^8 hyperplane", (2, 1, 8), "hyperplane", None),
    ("F_2^10 hyperplane", (2, 1, 10), "hyperplane", None),
    ("F_3^5 hyperplane", (3, 1, 5), "hyperplane", None),
    ("F_4^4 hyperplane", (2, 2, 4), "hyperplane", None),
    ("F_5^3 hyperplane", (5, 1, 3), "hyperplane", None),
    ("F_7^3 hyperplane", (7, 1, 3), "hyperplane", None),
    ("F_9^2 hyperplane", (3, 2, 2), "hyperplane", None),
)
# one run of every case, on a 2-core sandbox
PASS_NOMINAL_S = 9.0
# set-up samples taken between two repeated passes (set-up is short and noisy)
SETUP_PROBES_PER_GAP = 2


def _orbits(n: int, q: int) -> list[list[int]]:
    """Orbits of j -> q*j on Z_n."""
    seen, out = set(), []
    for j in range(n):
        if j not in seen:
            orbit, k = [], j
            while k not in seen:
                seen.add(k)
                orbit.append(k)
                k = k * q % n
            out.append(orbit)
    return out


def _class_union(tower, N, size, rng):
    """A union of classes closed under Frobenius (J = qJ mod N), of exactly `size` classes."""
    from pdscodes import pds

    orbits = _orbits(N, tower.q)
    choices = []
    for mask in range(1, 2 ** len(orbits)):
        J = sorted(j for i, o in enumerate(orbits) if mask >> i & 1 for j in o)
        if len(J) == size:
            choices.append(J)
    return pds.build_cyclotomic_subset(tower, N, rng.choice(choices))


def _random_union(tower, rng):
    """Random union of F_q^*-cosets, closed under Frobenius, covering about half the group."""
    from pdscodes import pds

    step = tower.subfield_step
    orbits = _orbits(step, tower.q)
    rng.shuffle(orbits)
    picked: list[int] = []
    for orbit in orbits:
        if len(picked) >= step // 2:
            break
        picked += orbit
    logs = [j + k * step for j in picked for k in range(tower.q - 1)]
    return pds.FieldSubset.from_logs(tower, logs)


def _hyperplane(tower):
    """Nonzero part of the trace-zero hyperplane {x : Tr(x) = 0}."""
    from pdscodes import pds

    return pds.FieldSubset(tower, [x for x in tower.hyperplane(1).tolist() if x])


class Case:
    def __init__(self, label, kind, tower, subset, x1, automorphism):
        self.label = label
        self.kind = kind
        self.tower = tower
        self.subset = subset
        self.x1 = x1
        self.automorphism = automorphism


def setup(seed: int, seconds: float, tracer) -> list[Case]:
    from pdscodes import pds, qpoly

    rng = random.Random(seed)
    towers, cases = {}, []
    for label, key, kind, param in CASES:
        if key not in towers:
            towers[key] = build_tower(tracer, *key)
        tower = towers[key]
        frobenius = qpoly.QPolynomial.frobenius(tower, 1)
        if kind == "classes":
            subset = _class_union(tower, *param, rng)
        elif kind == "quadric":
            subset, _ = pds.quadric_subset(tower, kind=param)
        elif kind == "union":
            subset = _random_union(tower, rng)
        else:
            subset = _hyperplane(tower)
        x1 = int(tower.exp[rng.randrange(tower.order)])
        automorphism = frobenius if qpoly.is_automorphism_of(subset, frobenius) else None
        cases.append(Case(label, kind, tower, subset, x1, automorphism))
    rng.shuffle(cases)
    return cases * units_for(seconds, PASS_NOMINAL_S)


def _oracle_ops(case, code, tracer):
    """(span name, call) for each op of one case, in the order they run."""
    from pdscodes import blocking, secretsharing, qpoly

    results = {}

    def analyze():
        minimal = results["codes.minimality_cover"].status != "not_minimal"
        return secretsharing.analyze_scheme(code, case.x1, code_is_minimal=minimal)

    calls = [
        ("codes.weight_table", code.weight_table),
        ("codes.supports", code.supports),
        ("codes.dimension", code.dimension),
        ("codes.weight_distribution_direct", code.weight_distribution_direct),
        ("codes.minimality_cover", code.minimality_cover),
        ("codes.minimality_heng", code.minimality_heng),
        ("codes.minimality_snc", code.minimality_snc),
        ("blocking.is_cutting_vectorial_blocking",
         lambda: blocking.is_cutting_vectorial_blocking(case.subset)),
        ("secretsharing.analyze_scheme", analyze),
    ]
    if case.automorphism is not None:
        calls.append(("qpoly.induced_code_automorphism_check",
                      lambda: qpoly.induced_code_automorphism_check(code, case.automorphism)))
    return results, [(name, lambda fn=fn, name=name: tracer.call(name, fn)) for name, fn in calls]


def summary(results) -> tuple:
    """The answers of one case, to compare across repeated runs."""
    return (
        results["codes.dimension"],
        results["codes.weight_distribution_direct"].rows,
        tuple(results[f"codes.minimality_{m}"].status for m in ("cover", "heng", "snc")),
        results["blocking.is_cutting_vectorial_blocking"].to_json(),
        results["secretsharing.analyze_scheme"].to_json(),
        results.get("qpoly.induced_code_automorphism_check"),
    )


def check(case, code, results) -> None:
    """Correctness gate for one case, run after its ops."""
    from pdscodes import codes, pds, secretsharing

    tower, label = case.tower, case.label
    q, m = tower.q, tower.m
    linear = codes.characteristic_trace_form(case.subset) is not None
    gate(results["codes.dimension"] == m + 1 - linear, f"{label}: wrong dimension")
    dist = results["codes.weight_distribution_direct"]
    gate(dist.total == q ** (m + 1), f"{label}: weight frequencies do not sum to q^(m+1)")

    verdicts = {name: results[f"codes.minimality_{name}"].status
                for name in ("cover", "heng", "snc")}
    definite = {s for s in verdicts.values() if s in ("minimal", "not_minimal")}
    gate(len(definite) <= 1, f"{label}: cover, heng and snc disagree: {verdicts}")
    minimal = definite == {"minimal"}
    if case.kind == "hyperplane":
        gate(not minimal, f"{label}: a hyperplane code was found minimal")

    try:
        cert, _ = pds.verify_pds_spectral(case.subset)
    except pds.PdsVerificationError:
        cert = None
    if cert is not None:
        predicted = codes.weight_distribution_predicted(cert, q, m)
        gate(dist.rows == predicted.rows,
             f"{label}: direct weights {dist.rows} differ from predicted {predicted.rows}")
        for rule in (codes.minimality_pds_sufficient, codes.minimality_latin_sufficient):
            if rule(cert, q, m).status == "minimal":
                gate("not_minimal" not in definite,
                     f"{label}: {rule.__name__} says minimal, the oracles do not")

    report = results["secretsharing.analyze_scheme"]
    if verdicts["cover"] == "minimal":
        gate(report.total == tower.qm, f"{label}: access-set count is not q^m")
        for j, n in report.coverage.items():
            xi = int(tower.exp[j])
            gate(n == secretsharing.coverage_closed_form(code, case.x1, xi),
                 f"{label}: coverage of participant log {j} differs from the closed form")
    elif verdicts["cover"] == "not_minimal":
        gate(report.oracle_total is not None and report.oracle_total <= report.total,
             f"{label}: oracle-filtered access count exceeds the total")
    if case.automorphism is not None:
        gate(results["qpoly.induced_code_automorphism_check"] is True,
             f"{label}: Frobenius fixes the subset but not the code")


def run(cases: list[Case], tracer, between, log: OpLog) -> tuple[list[Op], dict]:
    from pdscodes import codes

    first = None
    for repeat in range(REPEATS):
        if repeat:
            between()
        summaries = []
        for index, case in enumerate(cases):
            code = codes.SubsetCode(case.subset)
            results, calls = _oracle_ops(case, code, tracer)
            for name, call in calls:
                key = (index, name)
                results[name] = None if log.failed(key) else log.run(key, name, tracer, call)
                if first is None and name.startswith("codes.minimality_") and results[name]:
                    status = results[name].status
                    tracer.count("codes.not_minimal", int(status == "not_minimal"))
                    tracer.count("codes.not_run", int(status == "not_run"))
            if any(r is None for r in results.values()):
                summaries.append(None)
                continue
            check(case, code, results)
            summaries.append(summary(results))
        if first is None:
            first = summaries
        gate(summaries == first, "answers changed between repeated runs of the same cases")
    return log.ops(), {"cases": len(cases)}
