"""Secret sharing on the dual of a subset code.

Shares are coordinates of dual codewords; the secret sits at a chosen
nonzero field element x1 and the other coordinates belong to one
participant each.  Minimal access sets correspond to support-minimal
codewords of the primal code whose x1-coordinate is 1, so everything here
is counted on the primal side: the total is a coset count and, for every
code, each participant's coverage has one two-value closed form
(`coverage_closed_form`, over any array of participants), depending only
on whether its generator column is a scalar multiple of x1's (both
outside the subset, on one F_q-line).  A word is support-minimal exactly
when the generator columns at its zeros have rank k - 1
(`SubsetCode.rank_orbit_flags`), which filters the count for a code that
is not minimal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import SubsetCode


@dataclass
class AccessReport:
    x1: int
    x1_log: int
    x1_in_complement: bool
    total: int
    oracle_total: int | None          # filtered to truly minimal words when the code is not minimal
    coverage: dict[int, int]          # participant log (every nonzero element but x1) -> count
    dictators: list[int]              # participant logs lying in every minimal access set
    classification: str               # "dictatorial" | "democratic"

    def to_json(self) -> dict:
        classes: dict[int, int] = {}
        for n in self.coverage.values():
            classes[n] = classes.get(n, 0) + 1
        return {
            "x1_log": self.x1_log,
            "x1_in_Dbar": self.x1_in_complement,
            "total": self.total,
            "coverage_classes": [
                {"n": n, "count": c} for n, c in sorted(classes.items(), reverse=True)
            ],
            "classification": self.classification,
        }


def minimal_access_count(code: SubsetCode, x1: int, code_is_minimal: bool = True):
    """Number of minimal access sets: words with coordinate 1 at x1.

    That coordinate is a nonzero F_q-linear form on the words (u, v), so it
    is 1 on a coset of its kernel: q^m words, for every code.  When the code
    is not minimal, the zero-set rank flags (one per orbit of the scans, see
    `SubsetCode`) filter those words to the genuinely minimal ones and both
    numbers are reported.
    """
    tower = code.tower
    if code_is_minimal:
        return tower.qm, None
    labels = code.word_labels(np.arange(tower.q)[:, None], np.arange(tower.qm), x1)
    ones = np.flatnonzero(labels == 1)  # word indices u q^m + v
    return tower.qm, int(np.count_nonzero(code.word_flags(code.rank_orbit_flags(), ones)))


def coverage_closed_form(code: SubsetCode, x1: int, xs) -> np.ndarray:
    """The number of words with a 1 at x1 that are nonzero at each x in xs
    (a 0-d array for one x).

    The coordinates at x1 and x are the F_q-linear forms with generator
    columns (f(x1), x1) and (f(x), x).  When the second is a multiple of the
    first (x1 and x outside the subset, x/x1 in F_q), all q^m words with a 1
    at x1 are nonzero at x; otherwise the forms are independent and q^(m-1)
    of those words vanish there.  This holds whether or not the code is minimal.
    """
    tower = code.tower
    indicator = code.subset.indicator
    xs = np.asarray(xs)
    same_line = (tower.log[xs].astype(np.int64) - int(tower.log[x1])) % tower.subfield_step == 0
    multiple = same_line & ~indicator[xs] & (not indicator[x1])
    return np.where(multiple, tower.qm, tower.qm - tower.qm // tower.q)


def analyze_scheme(code: SubsetCode, x1: int, code_is_minimal: bool = True) -> AccessReport:
    tower = code.tower
    if x1 == 0:
        raise ValueError("the secret coordinate must be a nonzero element")
    x1_log = int(tower.log[x1])
    total, oracle_total = minimal_access_count(code, x1, code_is_minimal)
    counts = coverage_closed_form(code, x1, tower.exp).tolist()
    coverage = {j: n for j, n in enumerate(counts) if j != x1_log}
    dictators = sorted(j for j, n in coverage.items() if n == total)
    classification = "dictatorial" if dictators else "democratic"
    return AccessReport(
        x1=x1,
        x1_log=x1_log,
        x1_in_complement=not code.subset.indicator[x1],
        total=total,
        oracle_total=oracle_total,
        coverage=coverage,
        dictators=dictators,
        classification=classification,
    )
