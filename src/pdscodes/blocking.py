"""Hyperplane-intersection analysis of subsets of F_{q^m}^*.

The (m-1)-dimensional subspaces through the origin are exactly the trace
kernels H_j = {x : Tr(gamma^j x) = 0}, one per F_q^*-class of the direction
gamma^j, so the family has step = (q^m - 1)/(q - 1) members, j < step.
A subset is a cutting (1, m-1)-pattern when it meets every hyperplane,
contains none entirely, and no intersection sits inside another one, which
is <D ∩ H> = H for every H (Alfarano-Borello-Neri).  H_j is the zero set of
the word (0, gamma^j) of the subset's code, and the maps of its orbit
engine (`codes.orbit_engine`: <gamma^d>, a Frobenius power, a quadric's
reflections) are linear bijections fixing D, which carry D ∩ H with its size
and span onto D ∩ H' for H, H' in one orbit.  So one hyperplane per merged
orbit is tested, its least head j (`Orbits.picks(0)`: one np.minimum.at
over the heads' orbit indices, with no sort), by one gather of the label
table at j + log x for every member, and its flags are spread over the
heads j < gcd(d, step).  Only when a span falls short are the annihilators
of every short span j < gcd(d, step) read, in blocks of one `trace_labels`
pass each, and one lexsort takes the first nested pair.  The intersection
matrices and the pairwise containment scan are the oracle in
tests/reference.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

import numpy as np

from .codes import DEFAULT_ENUM_BUDGET, orbit_engine
from .field import GuardExceeded, blocks, counted_rank, rank_reaches
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


def _sections(subset: FieldSubset, js: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(part, on) for parts of the hyperplane logs js, about BLOCK (hyperplane,
    member) pairs each: on[i, x] says that member x lies on H_js[part][i],
    Tr(gamma^j x) being entry j + log x of the label table (`shifted_labels`)."""
    tower, logs = subset.tower, subset.logs
    for part in blocks(len(js), len(logs)):
        yield part, tower.shifted_labels(js[part], logs) == 0


def _first_nested_pair(subset: FieldSubset, short: np.ndarray) -> tuple[int, int]:
    """The first (inner, outer) hyperplane logs, by outer then inner, with
    D ∩ H_inner inside H_outer, that is gamma^outer annihilating <D ∩ H_inner>.

    short[j], j < orbits = gcd(d, step) = len(short), says that D ∩ H_j falls short of
    spanning H_j; one such j exists, and its span lies in another hyperplane.
    A pair (j, l) found for j < orbits stands for the pairs (j - kd, l - kd)
    mod step, as gamma^kd carries the span and its annihilator along; the
    first of them has outer l mod orbits.
    """
    tower, short_js = subset.tower, np.flatnonzero(short)
    bases = np.concatenate([rank_reaches(tower, np.where(on, subset.members, 0), tower.m - 1)[1]
                            for _, on in _sections(subset, short_js)])
    step = tower.subfield_step
    directions = tower.exp[:step]
    pairs = []  # (i, ls): gamma^ls annihilates the span of D ∩ H_short_js[i]
    for part in blocks(len(short_js), tower.em * step):
        ann = (tower.trace_labels(bases[part, :, None], directions) == 0).all(axis=1)
        ann[np.arange(len(ann)), short_js[part]] = False
        i, ls = np.divmod(np.flatnonzero(ann), ann.shape[1])
        pairs.append((part.start + i, ls))
    i, ls = (np.concatenate(part) for part in zip(*pairs))
    outer = ls % len(short)
    inner = (outer - ls + short_js[i]) % step
    first = np.lexsort((inner, outer))[0]
    return int(inner[first]), int(outer[first])


def _check_budget(cost: int, bound: int) -> None:
    """Refuse only when the bound hyperplane orbits x q^m is over too."""
    if min(cost, bound) > DEFAULT_ENUM_BUDGET:
        raise GuardExceeded(f"cutting test cost {cost} (merge classes x maps + hyperplane "
                            f"orbits x |D|; hyperplane orbits x q^m: {bound}) exceeds the "
                            f"budget {DEFAULT_ENUM_BUDGET}")


def is_cutting_vectorial_blocking(subset: FieldSubset) -> BlockingReport:
    """Blocking / subspace-containment / cutting verdicts with a witness.

    Blocking and containment read off |D ∩ H|, cutting off an F_q-rank test
    of D ∩ H, for one hyperplane per merged orbit of the code's orbit engine.
    The guard estimates the merge (`Orbits.merge_cost`) plus hyperplane
    orbits x |D|; the nested-pair search, which names the witness of a set
    that is not cutting, keeps the bound gcd(d, step) x q^m.  witness
    carries the first failure found: the empty hyperplane for a blocking
    failure, the contained hyperplane for (ii), or the pair (h1_log, h2_log)
    whose intersections are nested for the cutting test.
    """
    tower = subset.tower
    orbits = gcd(subset.stabiliser_period, tower.subfield_step)
    bound = orbits * tower.qm
    engine = orbit_engine(subset)
    cost = engine.merge_cost()
    _check_budget(cost, bound)
    # the least hyperplane js of each merged orbit, and the orbit of each j < orbits
    js, heads = engine.picks(0)
    _check_budget(cost + len(js) * len(subset), bound)
    orbit_sizes = np.concatenate([on.view(np.uint8).sum(axis=1, dtype=np.int32)
                                  for _, on in _sections(subset, js)])
    sizes = orbit_sizes[heads]

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
        spans = counted_rank(tower, orbit_sizes, tower.m - 1)
        small = np.flatnonzero(~spans)
        for part, on in _sections(subset, js[small]):
            spans[small[part]] = rank_reaches(tower, np.where(on, subset.members, 0), tower.m - 1,
                                              orbit_sizes[small[part]])[0]
        if not spans.all():
            if bound > DEFAULT_ENUM_BUDGET:
                raise GuardExceeded(f"nested-pair search cost {bound} (hyperplane orbits x q^m) "
                                    f"exceeds the budget {DEFAULT_ENUM_BUDGET}")
            cutting = False
            # h1 is the contained intersection, h2 the containing one
            h1, h2 = _first_nested_pair(subset, ~spans[heads])
            witness = {"h1_log": h1, "h2_log": h2}
    return BlockingReport(blocking, contains_subspace, cutting, witness)
