"""Hyperplane-intersection analysis of subsets of F_{q^m}^*.

The (m-1)-dimensional subspaces through the origin are exactly the trace
kernels {x : Tr(x a) = 0}, one per F_q^*-class of a, so the family has
(q^m - 1)/(q - 1) members indexed by the class representative's log.
A subset is a cutting (1, m-1)-pattern when it meets every hyperplane,
contains none entirely, and no intersection sits inside another one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldTower
from .pds import FieldSubset


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


def hyperplane_representatives(tower: FieldTower) -> np.ndarray:
    """Logs of one direction per hyperplane; gamma^j for j < (q^m-1)/(q-1)."""
    return np.arange(tower.subfield_step, dtype=np.int64)


def _intersection_masks(tower: FieldTower, indicator: np.ndarray):
    """Boolean matrices (hyperplanes x elements): kernel masks and S-intersections."""
    reps = hyperplane_representatives(tower)
    xs = np.arange(tower.qm, dtype=np.int64)
    kernels = np.empty((len(reps), tower.qm), dtype=bool)
    for row, j in enumerate(reps.tolist()):
        a = int(tower.exp[j])
        kernels[row] = tower.trace_q[tower.mul_vec(a, xs)] == 0
    kernels[:, 0] = False  # work in the multiplicative group
    inters = kernels & indicator[None, :]
    return reps, kernels, inters


def _nested_pairs(reps: np.ndarray, inters: np.ndarray):
    """(inner, outer) hyperplane logs whose intersections nest, by outer row then inner."""
    packed = np.packbits(inters, axis=1)
    for i in range(len(reps)):
        escapes = np.bitwise_and(packed, ~packed[i]).any(axis=1)
        for j in np.nonzero(~escapes)[0].tolist():
            if j != i:
                yield int(reps[j]), int(reps[i])


def hyperplane_intersections(subset: FieldSubset):
    """All intersections with the subset: sizes and the containment pairs.

    Returns (reps, sizes, intersections, containments) with containments the
    list of (i, j), i != j, where intersection i sits inside intersection j.
    """
    tower = subset.tower
    reps, _, inters = _intersection_masks(tower, subset.indicator)
    sizes = inters.sum(axis=1).astype(np.int64)
    containments = list(_nested_pairs(reps, inters))
    members = [np.nonzero(row)[0].astype(np.int64) for row in inters]
    return reps, sizes, members, containments


def is_cutting_vectorial_blocking(subset: FieldSubset) -> BlockingReport:
    """Blocking / subspace-containment / cutting verdicts with a witness.

    witness carries the first failure found: the empty hyperplane for a
    blocking failure, the contained hyperplane for (ii), or the pair
    (h1_log, h2_log) whose intersections are nested for the cutting test.
    """
    tower = subset.tower
    reps, kernels, inters = _intersection_masks(tower, subset.indicator)
    sizes = inters.sum(axis=1)

    blocking = bool(np.all(sizes > 0))
    witness = None
    if not blocking:
        witness = {"empty_h_log": int(reps[int(np.argmin(sizes))])}

    kernel_sizes = kernels.sum(axis=1)
    contained = inters.sum(axis=1) == kernel_sizes
    contains_subspace = bool(np.any(contained))
    if contains_subspace and witness is None:
        witness = {"contained_h_log": int(reps[int(np.argmax(contained))])}

    cutting = blocking and not contains_subspace
    if cutting:
        nested = next(_nested_pairs(reps, inters), None)
        if nested is not None:
            cutting = False
            # h1 is the contained intersection, h2 the containing one
            witness = {"h1_log": nested[0], "h2_log": nested[1]}
    return BlockingReport(blocking, contains_subspace, cutting, witness)


def cutting_secondary_condition(subset: FieldSubset) -> tuple[bool, str]:
    """Secondary hypothesis of the cutting-set construction, under the reading
    "for every nonzero v there is x in the subset with Tr(v x) = -1".

    The printed statement of this hypothesis is ambiguous; the returned note
    records the interpretation tested.
    """
    tower = subset.tower
    note = "tested as: for every nonzero v, the slice {x in D : Tr(vx) = -1} is nonempty"
    # the slice of gamma^d v is gamma^-d times that of v, as gamma^d D = D
    target = int(tower.neg_table[tower.subfield_elements[1]])
    for z in tower.exp[: subset.stabiliser_period].tolist():
        traces = tower.trace_q[tower.mul_vec(z, subset.members)]
        if not np.any(traces == target):
            return False, note
    return True, note
