"""Hyperplane-intersection analysis of subsets of F_{q^m}^*.

The (m-1)-dimensional subspaces through the origin are exactly the trace
kernels H_j = {x : Tr(gamma^j x) = 0}, one per F_q^*-class of the direction
gamma^j, so the family has step = (q^m - 1)/(q - 1) members, j < step.
A subset is a cutting (1, m-1)-pattern when it meets every hyperplane,
contains none entirely, and no intersection sits inside another one, which
is <D ∩ H> = H for every H.  The stabiliser <gamma^d> of D maps D ∩ H_j onto
D ∩ H_(j-d), so the hyperplanes j < gcd(d, step) stand for all of them.

Tr(gamma^j x) is entry (j + log x) mod (q^m - 1) of the label table, so a
block of consecutive hyperplanes reads, for each member, one window of that
table (`FieldTower.label_windows`, as in the weight count): the sizes
|D ∩ H_j| come from column sums of those windows, and only the intersections
below the count bound q^(m-2) become rows for the packed rank test.  The
annihilators of the spans that fall short are read in blocks of one
`trace_labels` pass each, and one lexsort takes the first nested pair.  The
intersection matrices and the pairwise containment scan are the oracle in
tests/reference.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .codes import DEFAULT_ENUM_BUDGET, rank_reaches
from .field import BLOCK, column_sums
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


def _first_nested_pair(subset: FieldSubset, logs: np.ndarray, orbits: int, sizes: np.ndarray
                       ) -> tuple[int, int] | None:
    """The first (inner, outer) hyperplane logs, by outer then inner, with
    D ∩ H_inner inside H_outer, that is gamma^outer annihilating <D ∩ H_inner>.

    logs are those of the members, ascending, and sizes[j] = |D ∩ H_j|; an
    intersection of q^(m-2) or more members spans H_j by count, so only the
    others are rank tested.  A pair (j, l) found for j < orbits = gcd(d,
    step) stands for the pairs (j - kd, l - kd) mod step, as gamma^kd
    carries the span and its annihilator along; the first of them has outer
    l mod orbits.
    """
    tower = subset.tower
    small = sizes < tower.qm // tower.q ** 2
    if not small.any():
        return None
    elems = tower.exp[logs]
    short, bases = [], []  # the hyperplanes whose intersections fall short, and their spans
    for j0, labels in tower.label_windows(logs, orbits):
        rows = np.flatnonzero(small[j0:j0 + labels.shape[1]])
        if len(rows):
            on = labels[:, rows].T == 0  # on[i, x]: the member x lies on H_(j0 + rows[i])
            spans, basis = rank_reaches(tower, np.where(on, elems, 0), tower.m - 1)
            short.append(j0 + rows[~spans])
            bases.append(basis[~spans])
    short, bases = np.concatenate(short), np.concatenate(bases)
    if not len(short):
        return None
    step = tower.subfield_step
    directions = tower.exp[:step]
    per = max(1, BLOCK // (tower.em * step))
    pairs = []  # (i, ls): gamma^ls annihilates the span of D ∩ H_short[i]
    for s in range(0, len(short), per):
        ann = (tower.trace_labels(bases[s:s + per, :, None], directions) == 0).all(axis=1)
        ann[np.arange(len(ann)), short[s:s + per]] = False
        i, ls = np.nonzero(ann)
        pairs.append((s + i, ls))
    i, ls = (np.concatenate(part) for part in zip(*pairs))
    outer = ls % orbits
    inner = (outer - ls + short[i]) % step
    first = np.lexsort((inner, outer))[0]
    return int(inner[first]), int(outer[first])


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
    logs = subset.logs
    sizes = np.concatenate([column_sums(labels == 0)
                            for _, labels in tower.label_windows(logs, orbits)])

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
        nested = _first_nested_pair(subset, logs, orbits, sizes)
        if nested is not None:
            cutting = False
            # h1 is the contained intersection, h2 the containing one
            witness = {"h1_log": nested[0], "h2_log": nested[1]}
    return BlockingReport(blocking, contains_subspace, cutting, witness)

