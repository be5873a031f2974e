"""Secret sharing on the dual of a subset code.

Shares are coordinates of dual codewords; the secret sits at a chosen
nonzero field element x1 and the other coordinates belong to one
participant each.  Minimal access sets correspond to support-minimal
codewords of the primal code whose x1-coordinate is 1, so everything here
is counted on the primal side: the total is a coset count and, for every
code, each participant's coverage has one two-value closed form
(`coverage_closed_form`, over any array of participants), depending only
on whether its generator column is a scalar multiple of x1's (both
outside the subset, on one F_q-line).  So only the q - 2 participants
lambda x1, lambda != 0, 1, can differ from the rest: the report's classes
and dictators are read off them, and the per-participant dict of q^m - 2
entries is built only when read.  A word is support-minimal exactly
when the generator columns at its zeros have rank k - 1
(`SubsetCode.rank_orbit_flags`), which filters the count for a code that
is not minimal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .codes import NOT_MINIMAL, NOT_RUN, SubsetCode


@dataclass
class AccessReport:
    code: SubsetCode = field(repr=False)
    x1: int
    x1_log: int
    x1_in_complement: bool
    total: int
    oracle_total: int | None          # filtered to truly minimal words when the code is not minimal
    coverage_classes: list[tuple[int, int]]  # (count n, participants covered n times), n descending
    dictators: list[int]              # participant logs lying in every minimal access set
    classification: str               # "dictatorial" | "democratic"

    @cached_property
    def coverage(self) -> dict[int, int]:
        """Participant log (every nonzero element but x1) -> count, from the
        closed form at every element; q^m - 2 entries, built on first read."""
        counts = coverage_closed_form(self.code, self.x1, self.code.tower.exp).tolist()
        return {j: n for j, n in enumerate(counts) if j != self.x1_log}

    def to_json(self) -> dict:
        return {
            "x1_log": self.x1_log,
            "x1_in_Dbar": self.x1_in_complement,
            "total": self.total,
            "coverage_classes": [{"n": n, "count": c} for n, c in self.coverage_classes],
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
    u_f = np.arange(tower.q)[:, None] * bool(code.subset.indicator[x1])
    labels = tower.subfield_tables()[0][u_f, tower.trace_labels(np.arange(tower.qm), x1)]
    ones = np.flatnonzero(labels == 1)  # word indices u q^m + v: u f(x1) + Tr(v x1) = 1
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
    """The access structure with the secret at x1.  The closed form gives
    every participant off x1's F_q-line q^m - q^(m-1), so it is evaluated at
    the q - 2 participants lambda x1 (log x1 + k step, 0 < k < q - 1) alone."""
    tower = code.tower
    if x1 == 0:
        raise ValueError("the secret coordinate must be a nonzero element")
    x1_log = int(tower.log[x1])
    total, oracle_total = minimal_access_count(code, x1, code_is_minimal)
    line = (x1_log + tower.subfield_step * np.arange(1, tower.q - 1)) % tower.order
    counts = coverage_closed_form(code, x1, tower.exp[line])
    classes = {tower.qm - tower.qm // tower.q: tower.order - 1 - len(line)}
    for n in counts.tolist():
        classes[n] = classes.get(n, 0) + 1
    dictators = sorted(line[counts == total].tolist())
    return AccessReport(
        code=code,
        x1=x1,
        x1_log=x1_log,
        x1_in_complement=not code.subset.indicator[x1],
        total=total,
        oracle_total=oracle_total,
        coverage_classes=sorted(((n, c) for n, c in classes.items() if c), reverse=True),
        dictators=dictators,
        classification="dictatorial" if dictators else "democratic",
    )


def analyze_sss(code: SubsetCode, *, x1_log: int | None = None, side: str | None = None):
    """The `sss` report and access report, the secret at gamma^x1_log or else
    at the least member (side "in-D") or nonzero non-member ("in-Dbar").  The
    code counts as minimal unless SNC runs and disproves it (`oracle_total`);
    a refused SNC is noted (`minimality_assumed`)."""
    if x1_log is not None:
        x1 = int(code.tower.exp[x1_log % code.tower.order])
    elif side == "in-D":
        x1 = int(code.subset.members.min())
    elif side == "in-Dbar":
        x1 = 1 + int(code.subset.indicator[1:].argmin())
    else:
        raise ValueError(f"give x1_log or a side, in-D or in-Dbar, not {side!r}")
    verdict = code.minimality_snc()
    report = analyze_scheme(code, x1, code_is_minimal=verdict.status != NOT_MINIMAL)
    payload = report.to_json()
    if report.oracle_total is not None:
        payload["oracle_total"] = report.oracle_total
        payload["note"] = "code is not minimal; the access-set/codeword bijection breaks"
    elif verdict.status == NOT_RUN:
        payload["minimality_assumed"] = True
        payload["note"] = f"SNC not run ({verdict.note}); the code is taken as minimal"
    return payload, report
