"""Hyperplane-intersection analysis of subsets of F_{q^m}^*.

The (m-1)-dimensional subspaces through the origin are exactly the trace
kernels H_j = {x : Tr(gamma^j x) = 0}, one per F_q^*-class of the direction
gamma^j, so the family has step = (q^m - 1)/(q - 1) members, j < step.
A subset is a cutting (1, m-1)-pattern when it meets every hyperplane,
contains none entirely, and no intersection sits inside another one, which
is <D ∩ H> = H for every H.  The stabiliser <gamma^d> of D maps D ∩ H_j onto
D ∩ H_(j-d), so the hyperplanes j < gcd(d, step) stand for all of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

import numpy as np

from .codes import DEFAULT_ENUM_BUDGET, rank_reaches
from .pds import FieldSubset, GuardExceeded


@dataclass(frozen=True)
class BlockingReport:
    blocking: bool
    contains_subspace: bool
    cutting: bool
    witness: dict | None

    def to_json(self) -> dict:
        out = {
            "blocking": self.blocking,
            "contains_subspace": self.contains_subspace,
            "cutting": self.cutting,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _intersections(subset: FieldSubset, count: int) -> Iterator[tuple[int, np.ndarray]]:
    """(j0, rows): rows[i] is D ∩ H_(j0+i) padded with 0, for j0 + i < count, in
    batches of about 2^17 digits (rows x |D| x em)."""
    tower, members = subset.tower, subset.members
    per = max(1, 2 ** 17 // (tower.em * max(1, len(members))))
    for j0 in range(0, count, per):
        directions = tower.exp[j0:min(j0 + per, count)]
        yield j0, np.where(tower.trace_labels(directions[:, None], members) == 0, members, 0)


def _first_nested_pair(subset: FieldSubset, orbits: int) -> tuple[int, int] | None:
    """The first (inner, outer) hyperplane logs, by outer then inner, with
    D ∩ H_inner inside H_outer, that is gamma^outer annihilating <D ∩ H_inner>.

    A pair (j, l) found for j < orbits = gcd(d, step) stands for the pairs
    (j - kd, l - kd) mod step, as gamma^kd carries the span and its
    annihilator along; the first of them has outer l mod orbits.
    """
    tower = subset.tower
    step = tower.subfield_step
    directions = tower.exp[:step].astype(np.int64)
    firsts = []  # (outer, inner)
    for j0, rows in _intersections(subset, orbits):
        spans, bases = rank_reaches(tower, rows, tower.m - 1)
        for j in (j0 + np.flatnonzero(~spans)).tolist():
            ann = np.ones(step, dtype=bool)
            for b in (bases[j - j0] @ tower.p ** np.arange(tower.em)).tolist():
                ann &= tower.trace_labels(b, directions) == 0
            ann[j] = False
            ls = np.flatnonzero(ann)
            outer = ls % orbits
            firsts.append(min(zip(outer.tolist(), ((outer - ls + j) % step).tolist())))
    if not firsts:
        return None
    outer, inner = min(firsts)
    return inner, outer


def is_cutting_vectorial_blocking(subset: FieldSubset) -> BlockingReport:
    """Blocking / subspace-containment / cutting verdicts with a witness.

    Blocking and containment read off |D ∩ H|, cutting off an F_q-rank test
    of D ∩ H, for the hyperplanes j < gcd(d, step); GuardExceeded when that
    many rows times q^m is over DEFAULT_ENUM_BUDGET.  witness carries the
    first failure found: the empty hyperplane for a blocking failure, the
    contained hyperplane for (ii), or the pair (h1_log, h2_log) whose
    intersections are nested for the cutting test.
    """
    tower = subset.tower
    orbits = gcd(subset.stabiliser_period, tower.subfield_step)
    if orbits * tower.qm > DEFAULT_ENUM_BUDGET:
        raise GuardExceeded(f"cutting test cost {orbits * tower.qm} (hyperplane orbits x q^m) "
                            f"exceeds the budget {DEFAULT_ENUM_BUDGET}")
    sizes = np.concatenate([np.count_nonzero(rows, axis=1)
                            for _, rows in _intersections(subset, orbits)])

    blocking = bool(np.all(sizes > 0))
    witness = None
    if not blocking:
        witness = {"empty_h_log": int(np.argmin(sizes))}

    contained = sizes == tower.qm // tower.q - 1
    contains_subspace = bool(np.any(contained))
    if contains_subspace and witness is None:
        witness = {"contained_h_log": int(np.argmax(contained))}

    cutting = blocking and not contains_subspace
    if cutting:
        nested = _first_nested_pair(subset, orbits)
        if nested is not None:
            cutting = False
            # h1 is the contained intersection, h2 the containing one
            witness = {"h1_log": nested[0], "h2_log": nested[1]}
    return BlockingReport(blocking, contains_subspace, cutting, witness)

