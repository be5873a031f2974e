"""The linear code attached to a subset of F_{q^m}^* and its minimality analysis.

Codewords are indexed by (u, v) in F_q x F_{q^m}; the word evaluates
u*f(x) + Tr(v x) over the nonzero field elements in ascending discrete-log
order, f being the subset's characteristic function, which
`FieldSubset.log_indicator` holds in that order.  Weights come from
counting trace values directly (no character theory), so the weight
columns double as an independent oracle for everything the spectral closed
forms predict.

A word's values have one route, the code's value tables
(`SubsetCode._value_tables`: the tower's label cycle against the labels of
-u f(x)); the tests hold every word's zeros against words computed on field
elements (multiply, trace, add).

The dimension is m + 1 unless f is a trace form Tr(a x), which only q = 2
and |D| = q^m / 2 allow; `characteristic_trace_form` reads that one
candidate a off the tower's trace_coords table and compares it with f.  The
kernel words, and so the dimension, come from it alone, not from the weight
columns, whose zeros the tests hold against it.

Minimality is decided by several methods of increasing abstraction:

* cover oracle: pairwise support containment between codewords;
* heng: the weight-sum identity that detects covering pairs;
* snc: the span/annihilator criterion on trace slices of the subset, an
  exact characterization and a rank test: the generator columns at the
  zeros of each word must span a hyperplane.  `rank_orbit_flags` runs that
  test (`field.rank_reaches`) once per code and orbit (below); SNC reads
  its verdict and witness from those cached flags, as the `sss` count does;
* certificate-based sufficient conditions for verified PDS subsets
  (general, Latin-type, cyclotomic), which can return Minimal or
  Inconclusive but never NotMinimal.

Definite verdicts from different methods must agree; reports enforce it.

The direct methods use the stabiliser <gamma^d> of the subset: the word
(u, gamma^d v) is the word (u, v) rotated by d coordinates, so weights,
supports (up to that rotation) and every oracle condition are constant on
the orbits of <gamma^d>.  The weights are kept as (q, d) class columns, one
per orbit.  Support bits have one route, `SubsetCode._support_columns`:
uint64 columns of the packed supports of any words, one compare of rows of
the label cycle against -u f(x) and one packbits; `supports()` runs it over
every word and column, and cover on the columns it needs.  The weight
count, the scans (cover, Heng, the rank flags behind SNC and the
secret-sharing count) and `blocking` read one orbit engine per subset
(`Orbits`, built once by `orbit_engine`), which merges those orbits further
along verified automorphisms of the code: the least Frobenius power that
fixes D and, for a quadric, reflections of its
orthogonal group.  The oracle conditions are constant on the merged orbits,
and the scans visit the lowest projective word of each: 7 orbits for a
quadric over odd q and 5 over even q, against 6561 projective
classes of the F_{3^8} quadrics under F_q^* alone.

One function, `word_classes(tower, words, d)`, numbers the words' orbits
under F_q^* scaling and <gamma^d> by log v: at the stabiliser period the
engine's classes, at d = q^m - 1 the projective lines F_q^* w.  Cover and
Heng test the orbit members a block at a time, each block one (members x
lines) array pass over those lines, on which both tests are constant, and
take the lowest violating member and the least word on its violating
lines.  A violation holds on a whole orbit, so the witnesses are those of
a scan over one projective word after another.  The words dependent on
each member, which neither test may flag, are listed once per code.

A code builds each of its tables once and holds it while it lives: the
value tables that `supports()`, cover, SNC and the generator matrix read,
the weight table, the packed supports, the kernel words, the words
dependent on each representative and the rank flags.  The orbit engine is
built once per subset and shared by its codes and `blocking`; its `picks`
give the least direction of each merged orbit, to the weight count and the
cutting test.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt
from typing import Callable, Collection, Iterator
from weakref import WeakKeyDictionary, ref

import numpy as np

from . import field
from .field import FieldTower, GuardExceeded, blocks, counted_rank, rank_reaches
from .pds import (
    CyclotomicOrigin,
    CyclotomicPrediction,
    FieldSubset,
    PdsCertificate,
    PdsVerificationError,
    QuadricOrigin,
    is_fq_invariant,
    predicted_cyclotomic_eigenvalues,
    verify_pds_spectral,
)
from .qpoly import quadric_reflections, tables_induce_code_automorphism

DEFAULT_WORD_GUARD = 2 ** 22          # max q^(m+1) for exhaustive scans
DEFAULT_ENUM_BUDGET = 2 ** 30         # max pairs an enumeration counts: (class, element) pairs
                                      # d * min(k, n - k) of the weight columns (or the q * d
                                      # entries of their table), hyperplanes x elements of the
                                      # cutting test
SUPPORT_BYTES_CAP = 2 ** 28           # memory ceiling for supports(), rows padded to uint64;
                                      # cover computes support columns on demand


# -- verdicts ----------------------------------------------------------------

MINIMAL = "minimal"
NOT_MINIMAL = "not_minimal"
INCONCLUSIVE = "inconclusive"
NOT_RUN = "not_run"


@dataclass
class MethodVerdict:
    status: str
    witness: object = None
    note: str | None = None
    fired: tuple[str, ...] | None = None

    def is_definite(self) -> bool:
        return self.status in (MINIMAL, NOT_MINIMAL)

    def to_json(self):
        if self.status == MINIMAL and self.fired:
            return {"verdict": self.status, "fired": self.fired[0]}
        if self.status == NOT_MINIMAL and self.witness is not None:
            return {"verdict": self.status, "witness": _json_safe(self.witness)}
        return self.status


def _json_safe(obj):
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


@dataclass
class MinimalityReport:
    methods: dict[str, MethodVerdict] = dataclasses.field(default_factory=dict)

    def record(self, name: str, verdict: MethodVerdict):
        if name in SUFFICIENT_METHODS and verdict.status == NOT_MINIMAL:
            raise ValueError(f"one-directional method {name} may not assert NotMinimal")
        self.methods[name] = verdict
        definite = {name: v.status for name, v in self.methods.items() if v.is_definite()}
        if len(set(definite.values())) > 1:
            raise AssertionError(f"methods disagree on a definite verdict: {definite}")

    def overall(self) -> str:
        for v in self.methods.values():
            if v.is_definite():
                return v.status
        return INCONCLUSIVE

    def skipped(self) -> bool:
        return any(v.status == NOT_RUN for v in self.methods.values())

    def to_json(self):
        return {name: v.to_json() for name, v in self.methods.items()}


# -- weight distributions -----------------------------------------------------


@dataclass(frozen=True)
class WeightDistribution:
    rows: tuple[tuple[int, int], ...]  # (weight, frequency), ascending by weight
    merged_note: str | None = None

    @property
    def total(self) -> int:
        return sum(f for _, f in self.rows)

    def as_dict(self) -> dict[int, int]:
        return dict(self.rows)

    def nonzero_weights(self) -> list[int]:
        return [w for w, _ in self.rows if w != 0]

    def to_json(self):
        return [{"w": w, "freq": f} for w, f in self.rows]


def weight_distribution_predicted(cert: PdsCertificate, q: int, m: int) -> WeightDistribution:
    """Distribution implied by a PDS certificate, merging coincident weights."""
    base = q ** m - q ** (m - 1)
    raw = [
        (0, 1),
        (cert.k, q - 1),
        (base, q ** m - 1),
        (base + cert.theta1, cert.m1 * (q - 1)),
        (base + cert.theta2, cert.m2 * (q - 1)),
    ]
    merged: dict[int, int] = {}
    for w, f in raw:
        merged[w] = merged.get(w, 0) + f
    note = None
    if len(merged) < len(raw):
        note = f"weight {cert.k} coincides with another predicted weight; frequencies summed"
    rows = tuple(sorted(merged.items()))
    dist = WeightDistribution(rows, note)
    if dist.total != q ** (m + 1):
        raise AssertionError("predicted frequencies do not sum to q^(m+1)")
    return dist


def ab_condition(dist: WeightDistribution, q: int) -> bool:
    """Sufficient minimality test: min/max nonzero weight ratio above (q-1)/q,
    compared in integers as q w_min > (q - 1) w_max."""
    weights = dist.nonzero_weights()
    if not weights:
        raise ValueError("no nonzero weights")
    return q * min(weights) > (q - 1) * max(weights)


def weight_class(cert: PdsCertificate, q: int, m: int) -> str:
    """"three" or "four" nonzero weights for a minimal code with this certificate."""
    base = q ** m - q ** (m - 1)
    return "three" if cert.k in (base, base + cert.theta1, base + cert.theta2) else "four"


# -- the code ------------------------------------------------------------------


def characteristic_trace_form(subset: FieldSubset) -> int | None:
    """The a with f(x) = Tr(a x) on all nonzero x, or None if no such a exists,
    for a nonempty subset.

    A nonzero F_q-linear form takes all q values and f only 0 and 1, so only
    q = 2 leaves a candidate, and there only when |D| = q^m / 2, the size of
    the set where a nonzero form is 1.  Then trace_coords[a] packs the bits
    Tr(a X^i), so the one a whose trace_coords packs the bits f(X^i), X^i =
    gamma^i, is the only candidate; it is the answer if f matches its labels
    Tr(a gamma^i) = Tr(gamma^(log a + i)), the log-order labels rotated by
    log a, its place in exp (a = 0, read at place 0, fails at some i < m).
    """
    tower = subset.tower
    if tower.q > 2 or 2 * len(subset) != tower.qm:
        return None
    f = subset.log_indicator
    a = int(np.argmax(tower.trace_coords == 2 ** np.arange(tower.m) @ f[: tower.m]))
    labels = np.roll(tower.trace_label_of_exp, -int(np.argmax(tower.exp == a)))
    return a if np.array_equal(labels, f) else None


# -- the orbits of the words ----------------------------------------------------


def word_classes(tower: FieldTower, words, d: int) -> np.ndarray:
    """For each nonzero word, its orbit under F_q^* scaling and <gamma^d>, d
    dividing q^m - 1, as a number below g + 1 + d, g = gcd(d, step).

    The class of (0, v) is that of (0, gamma^(log v mod step)), and its
    orbit is fixed by log v mod g (numbered so).  The class of (u, v),
    u != 0, is that of (1, v/u), and its orbit is fixed by log(v/u) mod d
    (numbered g + 1 + that); v = 0 alone makes the orbit of (1, 0), g.
    At d = q^m - 1 the classes are the projective lines F_q^* w: (0, gamma^c)
    for c < step, then (1, 0), then (1, gamma^i), each read through a log.
    """
    step = tower.subfield_step
    g = gcd(d, step)
    u, v = np.divmod(np.asarray(words, dtype=np.int64), tower.qm)
    log_v = tower.log[v].astype(np.int64)
    # label u >= 1 is gamma^((u - 1) step), so log(v/u) = log v - (u - 1) step
    scaled = np.where(v == 0, g, g + 1 + (log_v - (u - 1) * step) % d)
    return np.where(u == 0, log_v % g, scaled)


class Orbits:
    """The orbits of the nonzero words (u, v) of a subset's code under F_q^*
    scaling, <gamma^d> and the verified automorphisms, d the subset's
    stabiliser period; the subset is held by a weak reference, so that the
    memo keyed by it (`orbit_engine`) lets go."""

    def __init__(self, subset: FieldSubset):
        self._subset, self.tower = ref(subset), subset.tower

    subset = property(lambda self: self._subset())

    def merge_cost(self) -> int:
        """The merge's work estimate: g + 1 + d classes, one pass to build
        them and one per map of `automorphisms`."""
        subset, tower = self.subset, self.tower
        d, quadric = subset.stabiliser_period, isinstance(subset.origin, QuadricOrigin)
        maps = (subset.frobenius_power < tower.em) + 2 * tower.m * quadric
        return (gcd(d, tower.subfield_step) + 1 + d) * (1 + maps)

    @cached_property
    def lowest_words(self) -> np.ndarray:
        """The lowest projective word of each class of `word_classes`, by class
        number: a column minimum of exp, with no sort.  The projective words
        are the heads (0, gamma^j), j < step, one per line F_q^* v, and every
        (1, v).  The head of class r < g has j = r (mod g), column r of
        exp[:step] read as a (step/g, g) array; the (1, v) of class g + 1 + r
        has log v = r (mod d), column r of exp read as an ((q^m - 1)/d, d)
        array; class g is (1, 0)."""
        tower, d, step = self.tower, self.subset.stabiliser_period, self.tower.subfield_step
        heads = tower.exp[:step].reshape(-1, gcd(d, step)).min(axis=0)
        lowest = tower.exp.reshape(-1, d).min(axis=0)
        return np.concatenate([heads, tower.qm + np.append(0, lowest)]).astype(np.int64)

    def automorphisms(self) -> Iterator[np.ndarray]:
        """The permutations of the g + 1 + d classes by which automorphisms of
        the code act on its words (u, v), u in {0, 1}, beyond F_q^* scaling
        and <gamma^d>: one row per map, row[c] the number of the class of the
        image of the words of class c.

        The least Frobenius power x -> x^(p^s) with D^(p^s) = D sends (u, v)
        to (u^(p^s), v^(p^s)): the word with every coordinate raised to the
        p^s-th power and read at x^(p^s).  It multiplies log v by p^s, so it
        sends class r < g to r p^s mod g, fixes (1, 0), class g, and sends
        class g + 1 + i to g + 1 + (i p^s mod d), with no log or exp read.
        For a quadric subset, each reflection g of `qpoly.quadric_reflections`
        sends (u, v) to (u, g*(v)), the word read at g(x), g* the trace dual,
        and its row holds the `word_classes` of the images of the classes'
        lowest words; each is checked by `tables_induce_code_automorphism`, a
        stack of them at a time, before it is used.  At most 2m are drawn; on
        every quadric tried, 4 to 13 of them reach the orbits of the whole
        orthogonal group (`merged`).
        """
        tower, s, d = self.tower, self.subset.frobenius_power, self.subset.stabiliser_period
        g = gcd(d, tower.subfield_step)
        if s < tower.em:
            yield np.concatenate([np.arange(g) * pow(tower.p, s, g) % g, [g],
                                  g + 1 + np.arange(d) * pow(tower.p, s, d) % d])
        if isinstance(self.subset.origin, QuadricOrigin):
            u, v = np.divmod(self.lowest_words, tower.qm)
            for reflection, dual in quadric_reflections(self.subset, 2 * tower.m):
                if not tables_induce_code_automorphism(self.subset, reflection, dual, False).all():
                    raise AssertionError("a reflection of the quadric is no code automorphism; bug")
                for image in dual[:, v]:
                    yield word_classes(tower, u * tower.qm + image, d)

    @cached_property
    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """(reps, labels): the lowest projective representative of each orbit
        under F_q^* scaling, <gamma^d> and the automorphisms, ascending and
        read-only, and the orbit of each class number, an index into reps.

        Each automorphism permutes the class numbers (a row of
        `automorphisms`).  Their labels, first their own number, settle after
        each map (`_settle`), whose temporaries go with it: a label takes the
        least label that the classes holding it reach along the map, and each
        class then takes the label of its label, until none changes.  So the
        classes joined by the maps so far hold one label, the least number
        among them, and earlier maps need not be kept.  Any set of verified
        automorphisms gives orbits on which every oracle condition is
        constant; more of them only merge orbits.  At the end each orbit
        takes the least of its classes' lowest words, and those are sorted.
        The work is on the g + 1 + d classes and their images under one map
        at a time, none of it word-sized, so the word guard sits at the scans
        that use it.

        For a quadric subset no more are drawn once the orbits of the whole
        orthogonal group are reached.  By Witt's theorem those are (1, 0)
        and, for u = 0 and for u = 1, the words with v isotropic and those
        with v anisotropic (Q read at the vector that v names through the
        trace form), the latter split by the square class of Q for odd q, as
        F_q^* scales Q by squares: 5 orbits for even q, 7 for odd q.
        """
        words = self.lowest_words
        quadric = isinstance(self.subset.origin, QuadricOrigin)
        least = (7 if self.tower.p > 2 else 5) if quadric else 1
        lowest = np.arange(len(words))
        for succ in self.automorphisms():  # the number of each class's image
            lowest = _settle(lowest, succ)
            if np.count_nonzero(lowest == np.arange(len(words))) <= least:
                break
        first = words.copy()  # the least word of each orbit, at its label
        np.minimum.at(first, lowest, words)
        reps, labels = np.unique(first[lowest], return_inverse=True)
        reps.flags.writeable = False
        return reps, labels

    def representatives(self) -> np.ndarray:
        """The ascending orbit representatives, merged[0]."""
        return self.merged[0]

    def orbit_index(self, words: np.ndarray) -> np.ndarray:
        """For each nonzero word, the index in representatives() of its orbit."""
        return self.merged[1][word_classes(self.tower, words, self.subset.stabiliser_period)]

    def picks(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(js, at) for the words (u, gamma^j): u = 0 and j < g = gcd(d, step),
        the heads (class j) whose zeros are the hyperplanes H_j, or u = 1 and
        j < d (class g + 1 + j).  js is the least j of each merged orbit among
        them, by ascending orbit index, and at[j] the place in js of the orbit
        of j: what np.unique(orbit, return_index=True, return_inverse=True)
        gives on their orbit indices, from one np.minimum.at with no sort."""
        g = gcd(self.subset.stabiliser_period, self.tower.subfield_step)
        orbit = self.merged[1][g + 1:] if u else self.merged[1][:g]
        first = np.full(len(self.merged[0]), len(orbit))
        np.minimum.at(first, orbit, np.arange(len(orbit)))
        present = first < len(orbit)
        return first[present], (np.cumsum(present) - 1)[orbit]


def _settle(lowest: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """The class labels of `Orbits.merged`, settled after the map succ."""
    last = None
    while not np.array_equal(lowest, last):
        last, lowest = lowest, lowest.copy()
        np.minimum.at(lowest, last, last[succ])
        while not np.array_equal(lowest, lowest[lowest]):
            lowest = lowest[lowest]
    return lowest


_ENGINES: WeakKeyDictionary = WeakKeyDictionary()


def orbit_engine(subset: FieldSubset) -> Orbits:
    """The subset's `Orbits`, held while the subset lives: its classes, merge
    and reflections are built once for every code of it and `blocking`."""
    return _ENGINES.setdefault(subset, Orbits(subset))


class SubsetCode:
    """The length q^m - 1, (generically) dimension m + 1 code of a subset; guard
    caps the word count q^(m+1) of the scans."""

    def __init__(self, subset: FieldSubset, guard: int = DEFAULT_WORD_GUARD):
        if not subset.is_proper():
            raise ValueError("code construction needs a nonempty proper subset")
        self.subset = subset
        self.tower = subset.tower
        self.n = self.tower.order
        self.word_count = self.tower.q * self.tower.qm
        self.guard = guard

    @cached_property
    def orbits(self) -> Orbits:  # the subset's engine, shared by its codes
        return orbit_engine(self.subset)

    # -- enumeration -----------------------------------------------------

    def word_index(self, u_label: int, v: int) -> int:
        return u_label * self.tower.qm + v

    def word_of_index(self, w: int) -> tuple[int, int]:
        return w // self.tower.qm, w % self.tower.qm

    def weight_table(self) -> np.ndarray:
        """Hamming weights as (q, d) class columns, by direct counting (cached).

        Column j holds the weights of the words (u, gamma^j), u in label
        order: the word (u, v), v != 0, has the weight in column log v mod d,
        and (u, 0) has weight k for u != 0.  Row 0 holds n - (q^(m-1) - 1),
        the weight of a nonzero functional.  For u != 0, (u, gamma^j) is
        (1, gamma^(j - (u - 1) step)) scaled by u, label u being
        gamma^((u - 1) step), and the code's automorphisms keep weights, so
        one word (1, gamma^j) is counted for each merged orbit of those
        words (`Orbits.merged`).  It vanishes at x when Tr(gamma^j x) is -1
        on D and 0 off it, so its weight is (k - c[-1]) + (n - k - (q^(m-1)
        - 1 - c[0])), with c[t] = #{x in D : Tr(gamma^j x) = t}.  A nonzero
        functional takes the value t at q^(m-1) - [t = 0] nonzero x, so over
        the complement c[0] - c[-1] is c'[-1] - c'[0] - 1, and the smaller
        side is counted, Tr(gamma^j x) being entry (j + log x) mod (q^m - 1)
        of the label table, gathered for about BLOCK (j, x) pairs at a time
        (`FieldTower.shifted_labels`).
        The guard is the count's work before the merge, d * min(k, n - k)
        pairs, or the table's q * d entries where q is larger, against
        DEFAULT_ENUM_BUDGET.
        """
        return self._weight_table

    @cached_property
    def _weight_table(self) -> np.ndarray:
        tower = self.tower
        order, step = tower.order, tower.subfield_step
        d, k = self.subset.stabiliser_period, len(self.subset)
        cost = d * max(min(k, order - k), tower.q)
        if cost > DEFAULT_ENUM_BUDGET:
            raise GuardExceeded(f"weight count cost {cost} exceeds the budget {DEFAULT_ENUM_BUDGET}")
        on_subset = 2 * k <= order
        logs = self.subset.logs if on_subset else np.flatnonzero(~self.subset.log_indicator)
        js, at = self.orbits.picks(1)
        minus_one = 1 + (tower.q - 1) // 2 if tower.q % 2 else 1  # -1 = gamma^(order/2)
        diff = np.zeros(len(js), dtype=np.int64)  # c[0] - c[-1] of each j counted
        for rows in blocks(len(js), len(logs)):
            for part in blocks(len(logs), rows.stop - rows.start):
                values = tower.shifted_labels(js[rows], logs[part])
                diff[rows] += (values == 0).view(np.uint8).sum(axis=1, dtype=np.int32)
                diff[rows] -= (values == minus_one).view(np.uint8).sum(axis=1, dtype=np.int32)
        base = order - tower.qm // tower.q + 1
        ones = base + (diff if on_subset else -1 - diff)[at]  # (1, gamma^j), j < d
        table = np.full((tower.q, d), base, dtype=np.int64)
        table[1:] = ones[(np.arange(d) - np.arange(tower.q - 1)[:, None] * step) % d]
        table.flags.writeable = False
        return table

    def kernel_words(self) -> np.ndarray:
        """Indices of the words that evaluate to the zero vector, ascending: (0, 0),
        and (1, a) when f is the trace form Tr(a x) (`characteristic_trace_form`,
        over F_2 only).  Each u has at most one v with u f(x) + Tr(v x) = 0 on
        every nonzero x, and for u != 0 only a trace form f has one."""
        return self._kernel

    @cached_property
    def _kernel(self) -> np.ndarray:
        a = characteristic_trace_form(self.subset)
        return np.array([0] if a is None else [0, self.word_index(1, a)])

    def dimension(self) -> int:
        """m + 1, less one when f is a trace form: m + 2 less the kernel size."""
        return self.tower.m + 2 - len(self.kernel_words())

    def generator_matrix_text(self) -> str:
        """The generator matrix rows as dense F_q labels, space-separated: f,
        the word (1, 0), then the words (0, gamma^i), i < m, off the label cycle."""
        rows = np.vstack([self.subset.log_indicator, self._value_tables[0][: self.tower.m]])
        return "".join(" ".join(map(str, row)) + "\n" for row in rows.tolist())

    # -- weight distribution ----------------------------------------------

    def weight_distribution_direct(self) -> WeightDistribution:
        """The distribution counted off the class columns: each column stands
        for (q^m - 1)/d words, and v = 0 adds weight 0 once and k q - 1 times.
        The guard is that of the count (weight_table)."""
        d, k = self.subset.stabiliser_period, len(self.subset)
        weights, counts = np.unique(self.weight_table(), return_counts=True)
        freq = dict(zip(weights.tolist(), (counts * (self.n // d)).tolist()))
        freq[0] = freq.get(0, 0) + 1
        freq[k] = freq.get(k, 0) + self.tower.q - 1
        return WeightDistribution(tuple(sorted(freq.items())))

    # -- supports and the cover oracle --------------------------------------

    def supports(self) -> np.ndarray:
        """Packed support bitsets, one row per word, filled a block of words at a time."""
        return self._supports.view(np.uint8)[:, : (self.tower.order + 7) // 8]

    @cached_property
    def _supports(self) -> np.ndarray:
        """The packed supports as rows of uint64, zero-padded past the last
        coordinate: `_support_columns` over every word and column, the label
        cycle read in log order, a slice of about BLOCK labels, compared for
        every u, at a time."""
        tower = self.tower
        q, qm, width = tower.q, tower.qm, (self.n + 63) // 64
        nbytes = q * qm * width * 8
        if nbytes > SUPPORT_BYTES_CAP:
            raise GuardExceeded(f"support matrix would need {nbytes} bytes")
        us = np.arange(q)[:, None]
        packed = np.empty((q, qm, width), dtype=np.uint64)  # row (u, v)
        packed[:, :1] = self._support_columns(us, None, 0, width)  # v = 0
        for part in blocks(self.n, 64 * width):
            packed[:, tower.exp[part]] = self._support_columns(us, part, 0, width)
        return packed.reshape(q * qm, width)

    @cached_property
    def _value_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(cycle, zero_at): the tower's `label_cycle`, row s the labels of
        Tr(gamma^(s + i)) at column i, and zero_at[u, i] the label of
        -u f(gamma^i), built once per code for `supports()`, cover, SNC and
        the generator matrix.  The word (u, gamma^s) vanishes at gamma^i
        exactly where row s of cycle equals row u of zero_at."""
        cycle = self.tower.label_cycle()
        _, _, neg_q = self.tower.subfield_tables()
        return cycle, np.where(self.subset.log_indicator, neg_q.astype(cycle.dtype)[:, None], 0)

    def _support_columns(self, us, logs, start: int, stop: int) -> np.ndarray:
        """uint64 columns start..stop-1 of the packed supports of the words
        (us, gamma^logs), in one numpy pass; column c packs the coordinates
        gamma^(64 c) .. gamma^(64 c + 63), zero past the last.

        logs indexes the rows of the label cycle of `_value_tables` and us
        those of its zero_at.  Either both are aligned arrays, a log of -1
        naming v = 0 (whose labels are 0), or logs is a slice, or None for
        v = 0, and us has shape (k, 1), every u against every log.  The
        words' labels at the columns' coordinates are compared with -u f(x)
        and packed.
        """
        cycle, zero_at = self._value_tables
        lo, hi = 64 * start, min(64 * stop, self.n)
        labels = 0 if logs is None else cycle[:, lo:hi][logs]
        if isinstance(logs, np.ndarray):
            labels[logs < 0] = 0
        nonzero = labels != zero_at[:, lo:hi][us]
        packed = np.zeros(nonzero.shape[:-1] + (8 * (stop - start),), dtype=np.uint8)
        packed[..., : (hi - lo + 7) // 8] = np.packbits(nonzero, axis=-1)
        return packed.view(np.uint64)

    def _support_blocks(self, us, logs, start: int, stop: int
                        ) -> Iterator[tuple[slice, np.ndarray]]:
        """(part, columns): `_support_columns` of the words part of the aligned
        arrays us and logs, for consecutive parts of about BLOCK coordinates."""
        for part in blocks(len(logs), 64 * (stop - start)):
            yield part, self._support_columns(us[part], logs[part], start, stop)

    @cached_property
    def _dependents(self) -> np.ndarray:
        """Row i: the lines (`word_classes` at d = q^m - 1) of the words whose
        vectors are scalar multiples of that of the orbit representative
        r = reps[i].  Those are lam r + kappa, kappa in the kernel: for
        lam != 0 on the line of r + kappa / lam, else kappa itself; the zero
        word is read as r."""
        tower, add_q = self.tower, self.tower.subfield_tables()[0]
        reps, kernel = self.orbits.representatives(), self.kernel_words()
        (ur, vr), (ku, kv) = np.divmod(reps, tower.qm), np.divmod(kernel, tower.qm)
        shifted = self.word_index(add_q[ur[:, None], ku], tower.add_sets(vr[:, None], kv))
        words = np.concatenate([shifted, np.broadcast_to(kernel, shifted.shape)], axis=1)
        return word_classes(tower, np.where(words == 0, reps[:, None], words), tower.order)

    def _line_logs(self) -> np.ndarray:
        """log v of a word (u, v) on each line (`word_classes` at d = q^m - 1),
        -1 for v = 0, in int32: c for (0, gamma^c), c < step, then -1, 0, 1, ...
        for (1, 0), (1, gamma^i)."""
        step, order = self.tower.subfield_step, self.tower.order
        return np.concatenate([np.arange(step), np.arange(-1, order)]).astype(np.int32)

    def _check_guard(self) -> None:
        if self.word_count > self.guard:
            raise GuardExceeded(f"word count {self.word_count} over guard {self.guard}")

    def _block_scan(
        self, make_test: Callable[[], Callable[[slice], np.ndarray]]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(reps, bad) for blocks of the ascending orbit representatives, bad[i, c]
        saying that the words on line c (`word_classes` at d = q^m - 1),
        vector-independent of reps[i], violate the test.

        make_test() gives the test, a (block, lines) bool array for a block of
        representatives, named by its slice of them, once the word guard has
        passed.  Every block holds max(1, BLOCK // word_count) representatives
        (about BLOCK (representative, word) entries): a small code takes one or
        two array passes, an early exit one block at most.  A violation holds for
        every word of a line (w and lam w have one support and one Heng sum)
        and for every class of an orbit or for none.
        """
        self._check_guard()
        reps = self.orbits.representatives()
        test = make_test()
        for part in blocks(len(reps), self.word_count):
            bad = test(part)
            bad[np.arange(len(bad))[:, None], self._dependents[part]] = False
            yield reps[part], bad

    def word_flags(self, orbit_flags: tuple[np.ndarray, np.ndarray], words) -> np.ndarray:
        """The flag of the orbit of each nonzero word, orbit_flags being (reps, flags)
        over the orbit representatives (`Orbits.orbit_index`)."""
        _, flags = orbit_flags
        return flags[self.orbits.orbit_index(words)]

    def _scan_verdict(self, make_test, note: str) -> MethodVerdict:
        """NotMinimal at the scan's first violation, witnessed as (covered, coverer):
        the lowest violating representative and the least word on its flagged
        lines, the least multiple of (0, gamma^c) (a column of exp read as a
        (q - 1, step) array) lying below every (1, y), the least of its line."""
        exp, step = self.tower.exp, self.tower.subfield_step
        try:
            for reps, bad in self._block_scan(make_test):
                rows = np.flatnonzero(bad.any(axis=1))
                if len(rows):
                    lines = np.flatnonzero(bad[rows[0]])
                    heads = lines[lines < step]
                    covered = (exp.reshape(-1, step)[:, heads].min() if len(heads) else
                               self.tower.qm + np.where(lines > step, exp[lines - step - 1], 0).min())
                    return MethodVerdict(
                        NOT_MINIMAL,
                        witness=(self.word_of_index(int(covered)),
                                 self.word_of_index(int(reps[rows[0]]))),
                        note=note,
                    )
        except GuardExceeded as exc:
            return MethodVerdict(NOT_RUN, note=str(exc))
        return MethodVerdict(MINIMAL)

    def _cover_test(self) -> Callable[[slice], np.ndarray]:
        """bad[i, c]: the support of the words on line c lies inside that of
        reps[i], reps the part of the orbit representatives tested.

        No support matrix is held: the support columns of a word of each
        line are computed as they are needed.  The first column of every
        line, 8 bytes a line, is computed once per scan, and the full rows of
        each block's representatives once per block.  The dependent lines of
        a representative, inside it on every column, are set aside, and so
        are the pairs of a representative whose support is full past the
        columns read, as no later column can part them.  Later columns are
        computed, one at a time, only for the lines that still hold a pair
        inside, until those pairs times the columns left fit in BLOCK; those
        pairs are then compared on the rest of the row, a part of about BLOCK
        coordinates at a time.  Nearly every pair escapes in the first column.
        """
        tower = self.tower
        width = (self.n + 63) // 64
        # (u, log v) of a word of each line: (0, gamma^c), c < step, then (1, v)
        us = np.repeat(np.array([0, 1], dtype=np.uint8), [tower.subfield_step, tower.qm])
        logs = self._line_logs()
        head = np.empty(len(logs), dtype=np.uint64)
        for part, column in self._support_blocks(us, logs, 0, 1):
            head[part] = column[:, 0]
        rep_us, rep_vs = np.divmod(self.orbits.representatives(), tower.qm)
        rep_logs = tower.log[rep_vs]  # -1 for v = 0
        coordinates = np.packbits(np.arange(64 * width) < self.n).view(np.uint64)

        def test(part):
            outside = coordinates & ~self._support_columns(rep_us[part], rep_logs[part], 0, width)
            inside = (head & outside[:, :1]) == 0
            inside[np.arange(len(outside))[:, None], self._dependents[part]] = False
            rows, cols = np.divmod(np.flatnonzero(inside), inside.shape[1])  # pairs still inside
            if not len(rows):
                return inside
            # the last column on which each representative vanishes somewhere
            vanishes = outside != 0
            last = np.where(vanishes.any(axis=1), width - 1 - vanishes[:, ::-1].argmax(axis=1), -1)
            c = 0
            while True:
                live = last[rows] > c
                rows, cols = rows[live], cols[live]
                if len(rows) * (width - 1 - c) <= field.BLOCK:
                    break
                c += 1
                lines, at = np.unique(cols, return_inverse=True)
                column = np.concatenate([col[:, 0] for _, col in self._support_blocks(
                    us[lines], logs[lines], c, c + 1)])
                escape = (column[at] & outside[rows, c]) != 0
                inside[rows[escape], cols[escape]] = False
                rows, cols = rows[~escape], cols[~escape]
            if len(rows):
                for chunk, rest in self._support_blocks(us[cols], logs[cols], c + 1, width):
                    r = rows[chunk]
                    inside[r, cols[chunk]] = ~(rest & outside[r, c + 1:]).any(axis=1)
            return inside

        return test

    def minimality_cover(self) -> MethodVerdict:
        """Exhaustive support-containment oracle.

        Scans coverers by projective class (cover is scalar-invariant) and
        covered words in full; flags any containment between independent
        vectors.
        """
        return self._scan_verdict(
            self._cover_test, "support of the first word is contained in the second's"
        )

    # -- weight-sum criterion ------------------------------------------------

    def _heng_test(self) -> Callable[[slice], np.ndarray]:
        """bad[i, c]: r = reps[i] and the words w on line c satisfy the covering
        identity sum over lam in F_q^* of wt(r + lam w) = (q - 1) wt(r) - wt(w),
        reps the part of the orbit representatives tested.

        For w independent of r no r + lam w is a kernel word, so each weighs
        at least w_min, the least positive weight, k among them; the identity
        then needs (q - 1) wt(r) >= q w_min, the weight-ratio bound of
        Ashikhmin-Barg ("Minimal vectors in linear codes", IEEE TIT 1998).
        The rows of the other r are False with no gathers, and with no r
        left nothing more is built.  wt(r + x) is gathered once for every
        word x, as int32, one u of x at a time so that no key array outgrows
        q^m entries, and summed over the q - 1 points lam w of each line, the
        same sum for every w on it; the points are read off exp once per scan.
        """
        tower = self.tower
        add_q = tower.subfield_tables()[0]
        q, qm, step = tower.q, tower.qm, tower.subfield_step
        d, k, table = self.subset.stabiliser_period, len(self.subset), self.weight_table()
        reps = self.orbits.representatives()
        rep_u, rep_v = np.divmod(reps, qm)
        rep_wt = np.where(rep_v == 0, k, table[rep_u, tower.log[rep_v] % d])
        live = (q - 1) * rep_wt >= q * min(k, table[table > 0].min())
        shape = (step + qm,)
        if not live.any():
            return lambda part: np.zeros((len(reps[part]),) + shape, dtype=bool)
        # the weight of every word (u, v): (u, 0) has weight k for u != 0,
        # and (u, gamma^i) the weight in column i mod d
        wt = np.zeros((q, qm), dtype=np.int32)
        wt[1:, 0] = k
        wt[:, tower.exp.reshape(-1, d)] = table[:, None]
        wt = wt.ravel()
        # points[lam - 1, c]: the word lam w, w the word (0, gamma^c), c < step,
        # or (1, v) of line c, read through log v (-1 for v = 0, line step);
        # label lam is gamma^((lam - 1) step), so lam v is exp read
        # (lam - 1) step past log v, and lam (1, v) is (lam, lam v)
        shifted = self._line_logs() + np.arange(0, (q - 1) * step, step, dtype=np.int32)[:, None]
        shifted %= tower.order
        points = tower.exp[shifted]
        points[:, step] = 0
        points[:, step:] += np.arange(qm, q * qm, qm, dtype=np.int32)[:, None]
        line_wt = wt[points[0]]
        # digitwise sums carry nothing, so v_r + v adds the high and the low
        # halves of the base-p digits apart
        split = tower.p ** (tower.em // 2)
        highs, lows = np.arange(0, qm, split), np.arange(split)

        def test(part):
            bad = np.zeros((len(reps[part]),) + shape, dtype=bool)
            rows = np.flatnonzero(live[part])
            ur, vr = rep_u[part][rows], rep_v[part][rows]
            high = tower.add_sets((vr - vr % split)[:, None], highs)
            low = tower.add_sets((vr % split)[:, None], lows)
            keys = (high[:, :, None] + low[:, None, :]).reshape(len(rows), qm)  # v_r + v
            # near[i, x] = wt(r_i + x), read at the words (u_r + u, v_r + v) a u
            # at a time, the keys moved on to the next u in place; they are in
            # range, and mode "clip" lets take write into near with no buffer
            moves = add_q[ur].astype(np.int64) * qm  # to each u from the one before
            moves[:, 1:] = moves[:, 1:] - moves[:, :-1]
            near = np.empty((q, len(rows), qm), dtype=np.int32)
            for u in range(q):
                keys += moves[:, u, None]
                wt.take(keys, out=near[u], mode="clip")
            del keys
            near = near.transpose(1, 0, 2).reshape(len(rows), q * qm)
            total = line_wt + near[:, points[0]]  # wt(w) + the sum over lam
            for row in points[1:]:
                total += near[:, row]
            bad[rows] = total == (q - 1) * rep_wt[part][rows, None]
            return bad

        return test

    def minimality_heng(self) -> MethodVerdict:
        """Weight-sum identity scan over independent codeword pairs."""
        return self._scan_verdict(
            self._heng_test, "weight-sum identity fired for an independent pair"
        )

    # -- zero-set rank: the span criterion and per-orbit flags ---------------------

    def _zero_ranks(self, us, vs, target: int) -> np.ndarray:
        """Whether the generator columns at the zeros of each word (us[i], vs[i])
        have rank >= target, in blocks of about BLOCK coordinates.
        The zeros of (u, v) are D_{u,v} = {x in D : Tr(v x) = -u}, maybe empty, and
        D̄_v, of rank [D_{u,v} nonempty] + dim <(D_{u,v} - x_0) ∪ D̄_v>, a span in H_v
        (in the field for v = 0, whose zeros are D̄ when u != 0).
        A block finds them as the support fill does: the window of the label
        table from log v on (labels 0 for v = 0, log 0 being -1), compared with
        -u f(x).  A word whose |D̄_v| passes `counted_rank` is settled there; the
        others get their differences, x_0 negated by a log shift
        (-1 = gamma^half, half = 0 for p = 2), and `rank_reaches`.
        """
        tower = self.tower
        xs = tower.exp
        half = int(tower.log[tower.neg(1)])
        on = self.subset.log_indicator
        windows, zero_at = self._value_tables
        reached = np.empty(len(vs), dtype=bool)
        for part in blocks(len(vs), tower.order):
            u, v = np.asarray(us[part]), np.asarray(vs[part])
            zero = windows[tower.log[v]] == zero_at[u]
            zero[v == 0] = zero_at[u[v == 0]] == 0  # v = 0 reads labels 0
            ones, keep = zero & on, zero & ~on  # D_{u,v} and D̄_v
            count = keep.view(np.uint8).sum(axis=1, dtype=np.int32)  # faster than count_nonzero
            inner = target - ones.any(axis=1)
            ok = inner <= tower.m - (v != 0)  # the span lies in H_v, or in the field
            rest = np.flatnonzero(ok & ~counted_rank(tower, count, inner))
            if len(rest):  # D̄_v, and the differences x - x_0 not in it: those in D
                ones, keep = ones[rest], keep[rest]
                row, col = np.divmod(np.flatnonzero(ones), ones.shape[1])
                diffs = tower.add_sets(xs[col], xs[(ones.argmax(axis=1) + half) % tower.order][row])
                keep[row, col] = in_d = self.subset.indicator[diffs]
                gens = np.where(keep, xs, 0)
                gens[row, col] = np.where(in_d, diffs, 0)
                count = keep.view(np.uint8).sum(axis=1, dtype=np.int32)
                ok[rest] = rank_reaches(tower, gens, inner[rest], count)[0]
            reached[part] = ok
        return reached

    def rank_orbit_flags(self) -> tuple[np.ndarray, np.ndarray]:
        """(reps, flags): the ascending orbit representatives and the minimality
        (True) of each, computed once per code.
        A word is minimal exactly when the generator columns at its zeros have
        rank k - 1, k = dimension() (Ashikhmin-Barg); every orbit, (1, 0) with
        the zeros D̄ among them, takes one `_zero_ranks` route.
        """
        self._check_guard()
        return self.orbits.representatives(), self._rank_orbit_flags

    @cached_property
    def _rank_orbit_flags(self) -> np.ndarray:
        us, vs = np.divmod(self.orbits.representatives(), self.tower.qm)
        return self._zero_ranks(us, vs, self.dimension() - 1)

    def minimality_snc(self) -> MethodVerdict:
        """Exact span criterion, read off the rank flags: the complement spans the
        field (the flag of (1, 0)), and for z = gamma^j, j < d, each trace slice
        D_{y,z} is nonempty with <(D_{y,z} - x_0) ∪ D̄_z> of dimension m - 1, its
        annihilator inside the line F_q z (the flag of (y, z)); for f a trace
        form (k = m) rank k - 1 suffices, which an empty slice can reach.  The
        witness is the first failing (y, z), z in log order, then y in label order.
        """
        try:
            orbit_flags = self.rank_orbit_flags()
        except GuardExceeded as exc:
            return MethodVerdict(NOT_RUN, note=str(exc))
        if not self.word_flags(orbit_flags, self.word_index(1, 0)):
            return MethodVerdict(NOT_MINIMAL, witness=("complement_span_deficient", None),
                                 note="the complement does not span the field")
        zs = self.tower.exp[: self.subset.stabiliser_period].astype(np.int64)
        words = self.word_index(np.arange(self.tower.q), zs[:, None]).ravel()
        ok = self.word_flags(orbit_flags, words)
        if ok.all():
            return MethodVerdict(MINIMAL)
        at = int(ok.argmin())
        word = self.word_of_index(int(words[at]))
        # D_{y,z}, z = gamma^j, lies where row j of the cycle meets -y on D
        (j, y), (cycle, zero_at) = divmod(at, self.tower.q), self._value_tables
        if not (self.subset.log_indicator & (cycle[j] == zero_at[y])).any():
            return MethodVerdict(NOT_MINIMAL, witness=("empty_slice", word),
                                 note="a trace slice of the subset is empty")
        return MethodVerdict(NOT_MINIMAL, witness=("annihilator_escapes", word),
                             note="slice annihilator is larger than the direction line")


# -- certificate-based sufficient conditions ------------------------------------


def minimality_pds_sufficient(cert: PdsCertificate, q: int, m: int) -> MethodVerdict:
    """Eigenvalue inequalities that force minimality for invariant PDS subsets.

    One-directional: failure is Inconclusive, except that a failure of the
    size bounds (condition 2) is flagged as necessarily non-minimal for the
    oracle to confirm, never asserted here.
    """
    k, t1, t2 = cert.k, cert.theta1, cert.theta2
    t0 = max(abs(t1), abs(t2))
    qm = q ** m
    cond1 = k - t2 != qm
    cond2 = k > t1 and k > -(q - 1) * t2
    fired = []
    if k < qm + q * t2 - (q - 1) * t1:
        fired.append("3a")
    if k > max(q * t0 + t1, q * t0 - (q - 1) * t2):
        fired.append("3b")
    if q ** (m - 1) + t2 - t1 > t0:
        fired.append("3c")
    if cond1 and cond2 and fired:
        return MethodVerdict(MINIMAL, fired=tuple(fired))
    note = None
    if not cond2:
        note = (
            "size bounds k > theta1, k > -(q-1)theta2 are necessary for minimality; "
            "expect the oracle to return NotMinimal"
        )
    return MethodVerdict(INCONCLUSIVE, note=note)


def minimality_latin_sufficient(cert: PdsCertificate, q: int, m: int) -> MethodVerdict:
    """Sufficient condition for (negative) Latin square type certificates."""
    if cert.type_flag not in ("latin", "negative_latin"):
        return MethodVerdict(INCONCLUSIVE, note="certificate is not of (negative) Latin type")
    n = isqrt(cert.v)
    if m < 4 or (m, q) == (4, 2) or n * n != cert.v:
        return MethodVerdict(INCONCLUSIVE, note="outside the condition's (m, q) range")
    r = cert.r
    if cert.eps == 1:
        ok = r != n and r > 1
    else:
        # r > (q-1) n / (n + q), exactly
        ok = r != n - 1 and r * (n + q) > (q - 1) * n
    return MethodVerdict(MINIMAL if ok else INCONCLUSIVE)


def minimality_cyclotomic_sufficient(
    tower: FieldTower, prediction: CyclotomicPrediction
) -> MethodVerdict:
    """Sufficient condition on (N, u, t) for class-union subsets."""
    q, m = tower.q, tower.m
    N, u, t, sqm = prediction.N, prediction.u, prediction.t, prediction.sqrt_qm
    if tower.subfield_step % field.cyclic_period(prediction.J, N)[0]:  # J + step != J (mod N)
        return MethodVerdict(
            INCONCLUSIVE, note="J is not closed under the subfield shift; criterion inapplicable"
        )
    if m < 4 or (m, q) == (4, 2) or tower.em % 2 != 0:
        return MethodVerdict(INCONCLUSIVE, note="outside the condition's (m, q) range")
    if t % 2 == 1:
        ok = u * (sqm + 1) != sqm * N and u * (sqm + 1) > N
    else:
        ok = u * (sqm + q) * (sqm - 1) > (q - 1) * sqm * N
    return MethodVerdict(MINIMAL if ok else INCONCLUSIVE)


# -- the `code` analysis ---------------------------------------------------------


def _certificate_verdict(rule):
    """The verdict of rule(cert, q, m), inconclusive with cert_error without a certificate."""
    def verdict(code, cert, cert_error) -> MethodVerdict:
        if cert is None:
            return MethodVerdict(INCONCLUSIVE, note=cert_error)
        return rule(cert, code.tower.q, code.tower.m)
    return verdict


def _cyclotomic_verdict(code, cert, cert_error) -> MethodVerdict:
    origin = code.subset.origin
    if not isinstance(origin, CyclotomicOrigin):
        return MethodVerdict(INCONCLUSIVE, note="subset has no cyclotomic description")
    try:
        prediction = predicted_cyclotomic_eigenvalues(code.tower, origin.N, origin.J)
        return minimality_cyclotomic_sufficient(code.tower, prediction)
    except ValueError as exc:  # a PdsVerificationError among them
        return MethodVerdict(INCONCLUSIVE, note=str(exc))


# the certificates' sufficient conditions, which may not say not_minimal:
# --methods name -> (report key, verdict from (code, cert, cert_error))
_CERTIFICATE_METHODS = {
    "pds": ("pds_sufficient", _certificate_verdict(minimality_pds_sufficient)),
    "latin": ("latin_sufficient", _certificate_verdict(minimality_latin_sufficient)),
    "cyclotomic": ("cyclotomic_sufficient", _cyclotomic_verdict),
}
SUFFICIENT_METHODS = {key for key, _ in _CERTIFICATE_METHODS.values()}
# every method, run in this order: the exhaustive scans, then the certificates
METHODS = {
    "cover": ("cover", lambda code, *_: code.minimality_cover()),
    "heng": ("heng", lambda code, *_: code.minimality_heng()),
    "snc": ("snc", lambda code, *_: code.minimality_snc()),
    **_CERTIFICATE_METHODS,
}
ALL_METHODS = tuple(METHODS)


def analyze_code(code: SubsetCode, methods: Collection[str]) -> tuple[dict, MinimalityReport]:
    """The `code` report and the minimality report of the named methods, run
    in the order of METHODS.  Only an F_q^*-invariant PDS's certificate feeds
    the sufficient conditions, the predicted weights and the weight class
    (else `pds_error` says why); counted and predicted weights must agree."""
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {', '.join(sorted(unknown))}")
    tower, subset = code.tower, code.subset
    report = MinimalityReport()
    cert, cert_error = None, None
    try:
        cert, _ = verify_pds_spectral(subset)
        if not is_fq_invariant(subset):  # the certificate's readings need invariance
            cert, cert_error = None, ("subset is a PDS but not F_q^*-invariant, so its "
                                      "certificate gives neither weights nor minimality")
    except PdsVerificationError as exc:
        cert_error = str(exc)

    for name, (key, verdict) in METHODS.items():
        if name in methods:
            report.record(key, verdict(code, cert, cert_error))

    try:
        dist, dist_source = code.weight_distribution_direct(), "direct"
    except GuardExceeded:
        dist, dist_source = None, None
    if cert is not None:
        predicted = weight_distribution_predicted(cert, tower.q, tower.m)
        if dist is None:
            dist, dist_source = predicted, "predicted"
        elif dist.rows != predicted.rows:
            raise AssertionError("direct and predicted weight distributions disagree; bug")

    payload = {"length": code.n, "dim": code.dimension(), "minimal": report.to_json()}
    if dist is not None:
        payload.update(weights=dist.to_json(), weights_source=dist_source,
                       ab_condition=ab_condition(dist, tower.q))
    if cert is not None and report.overall() == MINIMAL:
        payload["weight_class"] = weight_class(cert, tower.q, tower.m)
    if cert_error:
        payload["pds_error"] = cert_error
    return payload, report
