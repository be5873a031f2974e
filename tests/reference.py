"""Small-field references for the codeword, span, annihilator, cutting,
cover, Heng and coverage computations.

The words and the generator matrix are added up on field elements.  Then
come the direct set computations that the F_q-rank test replaced in the
library: spans grown as sorted element sets, annihilators probed over
every element, all pairwise slice differences, and the hyperplane-by-element
intersection matrices with the pairwise containment scan.  They cost
O(q^m) per span step or O(q^2m) per subset, so the tests use them on
fields of at most a few hundred elements.  The dense (q, q^m) weight table
and the packed supports are filled one stabiliser class at a time, the
loops the library replaced with its class columns and block fills.
Beside them sit the cover and Heng scans of one coverer at a time (cover
reading those class-loop supports), with the scalar multiples of a word
listed in a loop, that the library now
runs over blocks of coverers, the flags of such a scan over every class,
and the participant coverage counted from the unpacked supports; those
scans also run on `Unreduced`, the code of the subset taken with the
trivial period, on an orbit engine with no automorphisms, built apart
from the library's memo so that no reduced engine reaches it.  The
complement of a subset is taken as a set difference.  Then
come the projective representatives as a sorted list of word indices, the
spectrum by its two test routes (the int64 transform on rolled copies,
which the library runs on two int32 buffers, and the unreduced count, one
key per (row, member) pair) or read off its dense (q^m, p) array, the
least stabiliser period by trying every divisor of q^m - 1, the symmetry
of a subset by gathering the negatives of its members, its least
asymmetry witness by trying them one at a time, a subset's members taken
through a q^m-entry indicator, the least
Frobenius power by comparing sets of powers, the classes that power sends
each class to, through the elements of their lowest words, the orbit merge
by the sorted route the engine replaced (the classes' lowest words sorted,
each class numbered by its rank, the maps joined by union-find), and the
orbits of the words closed under the stabiliser, scaling and that
Frobenius power one word at a time.  Then the field's digitwise addition one base-p digit per round,
and an F_p-linear map evaluated on digit lists, which the library computes
through its chunked addition table.  Last, the induced code automorphism
check by comparing every label of every word pair, a chunk of v at a time,
which the library decides by F_p-linearity and the basis pairs, the rank
test's elimination on arrays of base-p digits, which the library runs on
the packed elements, and the q-polynomial through given basis images
solved with one scalar field operation per entry, by which the tests build
the maps they check.  The modulus tests have brute-force references on
coefficient lists: irreducibility by trial division by every monic
polynomial of at most half the degree, and the order of X by multiplying
by X until it returns to 1.  The orbit closure also takes, for a
quadric, every reflection of its orthogonal group, evaluated on field
elements, its trace dual found by matching rows of traces, and Q itself
is read one element at a time through the element <-> coordinate tables
that the library replaced with per-block digits and dual-basis traces.

The tower tables come here by the routes the library avoids for their
q^m-entry temporaries: exp through the multiply-by-X^B table, log by one
scatter of a q^m-entry arange, and the absolute trace tabulated on every
element (`trace_p`); F_q^* invariance is tested by scaling the members
through mul_vec.

Trace values are computed here on field elements (mul_vec, then `trace_q`,
the tabulated linearized polynomial, which the library does not keep)
and named by the scatter of the F_q elements to their labels
(`subfield_index`), never through the library's trace-label table or its
log-based labels, so these references stay independent of them; the two
class-loop fills are the exception, and the tests hold them against the
words computed on field elements.
"""
from functools import cached_property, lru_cache
from itertools import product
from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from pdscodes import charsums
from pdscodes.codes import MINIMAL, NOT_MINIMAL, Orbits, SubsetCode, word_classes
from pdscodes.pds import CyclotomicOrigin, FieldSubset, QuadricOrigin
from pdscodes.qpoly import is_automorphism_of


class UnreducedSubset(FieldSubset):
    """The same members and origin with the trivial stabiliser <gamma^(q^m - 1)>
    in place of the least one: every coset is a single log."""

    def __init__(self, subset):
        super().__init__(subset.tower, subset.members)
        self.origin = subset.origin

    @cached_property
    def stabiliser(self):
        return self.tower.order, self.logs


class UnreducedOrbits(Orbits):
    """The orbit engine with no automorphisms beyond scaling and the
    stabiliser (no Frobenius power, no reflections), built apart from the
    library's memo."""

    def automorphisms(self):
        return iter(())


class Unreduced(SubsetCode):
    """The same code of `UnreducedSubset` on `UnreducedOrbits`: every
    orbit-reduced scan then visits every class, and the weights are counted
    over q^m - 1 columns."""

    def __init__(self, subset):
        super().__init__(UnreducedSubset(subset))

    @cached_property
    def orbits(self):
        return UnreducedOrbits(self.subset)


@lru_cache(maxsize=4)
def subfield_index(tower):
    """The dense label of each element of F_q, -1 off F_q (int32, read-only):
    subfield_elements scattered to their positions, the table that
    `FieldTower.subfield_labels` computes from log."""
    idx = np.full(tower.qm, -1, dtype=np.int32)
    idx[tower.subfield_elements] = np.arange(tower.q, dtype=np.int32)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=4)
def mul(tower, x, y):
    """x y in the field, read off the log and exp tables."""
    if x == 0 or y == 0:
        return 0
    return int(tower.exp[(int(tower.log[x]) + int(tower.log[y])) % tower.order])


def trace_q(tower):
    """Tr_{F_{q^m}/F_q} on every element (int32, read-only), tabulated as the
    linearized polynomial sum_k x^(q^k), which the library reads only in log
    order, as labels."""
    table = tower.linearized_table([1] * tower.m, tower.q)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4)
def neg_table(tower):
    """-x for every element x (int32, read-only): the F_p-linear map X^i ->
    (p - 1) X^i, and the identity for p = 2; the library shifts logs instead."""
    if tower.p == 2:
        table = np.arange(tower.qm, dtype=np.int32)
    else:
        table = tower.linear_map_table([(tower.p - 1) * tower.p ** i for i in range(tower.em)])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4)
def exp_by_times_x_block(tower):
    """exp filled through the multiply-by-X^B table (int32): the first B + em
    powers of X by companion-matrix doubling, B = max(isqrt(q^m - 1), em),
    then B at a time by gathers from the q^m-entry table of x -> x X^B; the
    library joins half tables at each stretch instead."""
    order, em = tower.order, tower.em
    block = max(isqrt(order), em)
    powers = tower._powers_of_x(block + em)
    times_x_block = tower.linear_map_table(powers[block:])
    exp = np.empty(order, dtype=np.int32)
    exp[:block] = powers[:block]
    for start in range(block, order, block):
        stop = min(start + block, order)
        exp[start:stop] = times_x_block[exp[start - block:stop - block]]
    exp.flags.writeable = False
    return exp


def log_by_scatter(tower):
    """The inverse of exp_by_times_x_block, log 0 = -1, by one scatter of a
    q^m-entry arange."""
    log = np.full(tower.qm, -1, dtype=np.int32)
    log[exp_by_times_x_block(tower)] = np.arange(tower.order, dtype=np.int32)
    return log


@lru_cache(maxsize=4)
def trace_p(tower):
    """Tr_abs on every element, indexed by element (read-only): the half tables
    of the absolute trace joined on every pair, by one add mod p, in the
    least dtype that holds 2(p - 1), read as int8 while p <= 128; the library
    joins them only at the elements it is asked about (`FieldTower.trace`)."""
    p = tower.p
    images = tower._linearized_images([1] * tower.em, p)
    dtype = np.min_scalar_type(2 * (p - 1))
    high, low = (half.astype(dtype) for half in tower._half_tables(images))
    table = np.add(high[:, None], low).ravel()
    np.remainder(table, p, out=table)
    table = table.view(np.int8) if p <= 128 else table
    table.flags.writeable = False
    return table


def is_invariant_under_subfield(tower, members):
    """Whether the set of the distinct members is closed under F_q^* scaling:
    their products with a generator of F_q^*, through mul_vec, sorted, are
    the members sorted."""
    gen = tower.exp[tower.subfield_step % tower.order]  # generator of F_q^* (1 when q = 2)
    return bool(np.array_equal(np.sort(tower.mul_vec(int(gen), members)), np.sort(members)))


def trace_labels(tower, v, xs):
    """Dense F_q labels of Tr(v x) for one v and an array of x, on field elements."""
    return subfield_index(tower)[trace_q(tower)[tower.mul_vec(v, np.asarray(xs, dtype=np.int64))]]


def slice_members(subset, y_label, z):
    """{x in D : Tr(x z) = -y}, y given as a dense F_q label."""
    tower = subset.tower
    _, _, neg_q = tower.subfield_tables()
    return subset.members[trace_labels(tower, z, subset.members) == neg_q[y_label]]


def value_labels_at(code, x):
    """Dense label of every word's coordinate at x, by word index: u f(x) + Tr(v x)
    added on field elements."""
    tower = code.tower
    u_part = tower.subfield_elements * bool(code.subset.indicator[x])
    tr = trace_q(tower)[tower.mul_vec(x, np.arange(tower.qm, dtype=np.int64))]
    return subfield_index(tower)[tower.add_sets(u_part[:, None], tr[None, :])].ravel()


def codeword(code, u_label, v):
    """The word (u, v) as field elements in log order: u f(x) + Tr(v x), added on elements."""
    tower, xs = code.tower, code.tower.exp.astype(np.int64)
    u_part = np.where(code.subset.indicator[xs], int(tower.subfield_elements[u_label]), 0)
    return tower.add_sets(u_part, trace_q(tower)[tower.mul_vec(v, xs)])


def generator_matrix(code):
    """Rows c(1, 0), c(0, 1), c(0, gamma), ..., c(0, gamma^(m-1)) as field elements."""
    vs = code.tower.exp[: code.tower.m].tolist()
    return np.stack([codeword(code, 1, 0)] + [codeword(code, 0, v) for v in vs])


def complement_kernel_slice(subset, z):
    """{x outside D (nonzero) : Tr(x z) = 0}."""
    tower = subset.tower
    comp = np.flatnonzero(~subset.indicator)[1:]  # drop the zero element
    return comp[trace_q(tower)[tower.mul_vec(z, comp)] == 0]


def greedy_span(tower, elems):
    """(basis, span): elems kept in order when outside the span so far, and
    their F_q-span as a sorted array (contains 0)."""
    basis = []
    span = np.array([0], dtype=np.int64)
    in_span = np.zeros(tower.qm, dtype=bool)
    in_span[0] = True
    scalars = tower.subfield_elements.astype(np.int64)
    for s in np.asarray(list(elems), dtype=np.int64).tolist():
        if in_span[s]:
            continue
        basis.append(s)
        mults = tower.mul_vec(s, scalars)
        span = np.unique(tower.add_sets(span[:, None], mults[None, :]).ravel())
        in_span[span] = True
    return basis, span


def dimension(tower, elems):
    """dim_{F_q} of the span."""
    return len(greedy_span(tower, elems)[0])


def trace_annihilator(tower, elems):
    """{x : Tr(x s) = 0 for every s in elems} as a sorted array, probing a basis."""
    mask = np.ones(tower.qm, dtype=bool)
    xs = np.arange(tower.qm, dtype=np.int64)
    for s in greedy_span(tower, elems)[0]:
        mask &= trace_q(tower)[tower.mul_vec(s, xs)] == 0
    return np.flatnonzero(mask)


def slice_annihilator(subset, y_label, z):
    """The annihilator of every pairwise difference of D_{y,z} and of D̄_z."""
    tower = subset.tower
    dyz = slice_members(subset, y_label, z)
    diffs = np.unique(tower.add_sets(dyz[:, None], neg_table(tower)[dyz][None, :]).ravel())
    return trace_annihilator(tower, np.concatenate([diffs, complement_kernel_slice(subset, z)]))


def snc_reference(code):
    """(status, witness) of the span criterion with pairwise slice differences,
    scanning every nonzero z in log order."""
    tower = code.tower
    if dimension(tower, code.subset.complement().members) != tower.m:
        return NOT_MINIMAL, ("complement_span_deficient", None)
    for z in tower.exp.tolist():
        line = tower.mul_vec(z, tower.subfield_elements.astype(np.int64))
        for y in range(tower.q):
            if len(slice_members(code.subset, y, z)) == 0:
                return NOT_MINIMAL, ("empty_slice", (y, z))
            if not np.all(np.isin(slice_annihilator(code.subset, y, z), line)):
                return NOT_MINIMAL, ("annihilator_escapes", (y, z))
    return MINIMAL, None


def hyperplane_members(subset, j):
    """D ∩ H_j, H_j the kernel of x -> Tr(gamma^j x)."""
    tower = subset.tower
    return subset.members[trace_q(tower)[tower.mul_vec(int(tower.exp[j]), subset.members)] == 0]


def intersection_masks(tower, indicator):
    """Bool matrices (hyperplanes x elements): kernel masks and subset intersections,
    hyperplane j being the kernel of x -> Tr(gamma^j x), j < step."""
    xs = np.arange(tower.qm, dtype=np.int64)
    kernels = np.stack([
        trace_q(tower)[tower.mul_vec(int(tower.exp[j]), xs)] == 0
        for j in range(tower.subfield_step)
    ])
    kernels[:, 0] = False
    return kernels, kernels & indicator[None, :]


def nested_pairs(inters):
    """(inner, outer) hyperplane logs whose intersections nest, by outer then inner."""
    packed = np.packbits(inters, axis=1)
    for i in range(len(inters)):
        escapes = np.bitwise_and(packed, ~packed[i]).any(axis=1)
        for j in np.flatnonzero(~escapes).tolist():
            if j != i:
                yield j, i


def hyperplane_intersections(subset):
    """(sizes, members, containments): every intersection with the subset, and
    the (inner, outer) pairs with intersection inner inside intersection outer."""
    _, inters = intersection_masks(subset.tower, subset.indicator)
    members = [np.flatnonzero(row) for row in inters]
    return inters.sum(axis=1), members, list(nested_pairs(inters))


def cutting_reference(subset):
    """The blocking report's JSON from the full intersection matrices."""
    tower = subset.tower
    kernels, inters = intersection_masks(tower, subset.indicator)
    sizes = inters.sum(axis=1)
    out = {"blocking": bool(np.all(sizes > 0))}
    witness = None
    if not out["blocking"]:
        witness = {"empty_h_log": int(np.argmin(sizes))}
    contained = sizes == kernels.sum(axis=1)
    out["contains_subspace"] = bool(np.any(contained))
    if out["contains_subspace"] and witness is None:
        witness = {"contained_h_log": int(np.argmax(contained))}
    out["cutting"] = out["blocking"] and not out["contains_subspace"]
    if out["cutting"]:
        nested = next(nested_pairs(inters), None)
        if nested is not None:
            out["cutting"] = False
            witness = {"h1_log": nested[0], "h2_log": nested[1]}
    if witness is not None:
        out["witness"] = witness
    return out


def complement(subset):
    """(members, origin) of the complement of a subset in F_{q^m}^*: the
    set difference of every nonzero element and the members, and for a
    cyclotomic origin (N, J) the classes of Z_N outside J."""
    members = np.setdiff1d(subset.tower.exp.astype(np.int64), subset.members)
    origin = None
    if isinstance(subset.origin, CyclotomicOrigin):
        origin = CyclotomicOrigin(subset.origin.N, tuple(
            j for j in range(subset.origin.N) if j not in subset.origin.J))
    return members, origin


def dependent_words(code, w):
    """Indices of words whose vectors are scalar multiples of word w's vector,
    the kernel read as the zeros of the dense weight table."""
    tower = code.tower
    add_q, mul_q, _ = tower.subfield_tables()
    u, v = code.word_of_index(w)
    out = set()
    for lam in range(tower.q):
        lu = int(mul_q[lam, u])
        lv = mul(tower, int(tower.subfield_elements[lam]), v)
        for kw in np.flatnonzero(weight_table(code).ravel() == 0).tolist():
            ku, kv = code.word_of_index(int(kw))
            out.add(code.word_index(int(add_q[lu, ku]), int(tower.add_sets(lv, kv))))
    return np.asarray(sorted(out), dtype=np.int64)


@lru_cache(maxsize=4)
def weight_table(code):
    """Hamming weight of every word, shape (q, q^m) (read-only): for each class
    j < d, one bincount over the subset and one over its complement of the
    label table read twice over from entry j, the (q, d) class columns then
    tiled over the powers of gamma^d."""
    tower = code.tower
    q = tower.q
    mem = code.subset.indicator[tower.exp]
    k = len(code.subset)
    _, _, neg_q = tower.subfield_tables()
    d = code.subset.stabiliser_period
    cols = np.empty((q, d), dtype=np.int64)
    labels_twice = np.tile(tower.trace_label_of_exp, 2)
    for j in range(d):
        labels = labels_twice[j:j + tower.order]
        cnt_d = np.bincount(labels[mem], minlength=q)
        cnt_c = np.bincount(labels[~mem], minlength=q)
        cols[:, j] = (k - cnt_d[neg_q]) + (tower.order - k - cnt_c[0])
    wt = np.zeros((q, tower.qm), dtype=np.int64)
    wt[1:, 0] = k
    wt[:, tower.exp] = np.tile(cols, tower.order // d)
    wt.flags.writeable = False
    return wt


@lru_cache(maxsize=4)
def support_words(code):
    """The packed supports as uint64 rows padded like the library's, one class
    j < d at a time: the supports of every (u, gamma^j), held twice over, give
    those of (u, gamma^(j + t d)) as windows t d coordinates on (cached per
    code, read-only)."""
    tower = code.tower
    q, qm, order = tower.q, tower.qm, tower.order
    width = (order + 7) // 8
    mem = code.subset.indicator[tower.exp]
    d = code.subset.stabiliser_period
    packed = np.zeros((q * qm, (order + 63) // 64 * 8), dtype=np.uint8)
    packed[code.word_index(1, 0)::qm, :width] = np.packbits(mem)
    twice = np.empty((q, 2 * order), dtype=bool)
    windows = sliding_window_view(twice, order, axis=1)[:, :order:d]
    us = np.arange(q, dtype=np.int64)[:, None]
    u_f = np.where(mem, us, 0)
    add_q = tower.subfield_tables()[0]
    labels_twice = np.tile(tower.trace_label_of_exp, 2)
    for j in range(d):
        twice[:, :order] = twice[:, order:] = add_q[u_f, labels_twice[j:j + order]] != 0
        packed[us * qm + tower.exp[j::d], :width] = np.packbits(windows, axis=2)
    packed.flags.writeable = False
    return packed.view(np.uint64)


def cover_violations(code, r):
    """Word indices (vector-independent of r) whose support lies inside r's,
    read off the class-loop supports (`support_words`)."""
    sup = support_words(code)
    escapes = np.bitwise_and(sup, ~sup[r]).any(axis=1)
    return np.setdiff1d(np.nonzero(~escapes)[0], dependent_words(code, r))


def heng_violations(code, r):
    """Word indices w (vector-independent of r) satisfying the covering identity."""
    tower = code.tower
    add_q, mul_q, _ = tower.subfield_tables()
    q, qm = tower.q, tower.qm
    wt = weight_table(code).ravel()
    ur, vr = code.word_of_index(r)
    u_all = np.repeat(np.arange(q, dtype=np.int64), qm)
    v_all = np.tile(np.arange(qm, dtype=np.int64), q)
    total = np.zeros(q * qm, dtype=np.int64)
    for lam in range(1, q):
        su = add_q[ur, mul_q[lam, u_all]]
        sv = tower.add_sets(vr, tower.mul_vec(int(tower.subfield_elements[lam]), v_all))
        total += wt[su * qm + sv]
    candidates = np.nonzero(total == (q - 1) * wt[r] - wt)[0]
    return np.setdiff1d(candidates, dependent_words(code, r))


def full_flags(code, violations):
    """Whether each projective representative, in order, has no violation in a full scan."""
    return [len(violations(code, r)) == 0 for r in projective_representatives(code).tolist()]


def participant_coverage(code, x1):
    """Participant log -> the number of words with a 1 at x1 whose support holds
    it, counted from the unpacked supports."""
    tower = code.tower
    mask1 = value_labels_at(code, x1) == 1
    counts = np.unpackbits(code.supports()[mask1], axis=1, count=tower.order).sum(axis=0)
    x1_log = int(tower.log[x1])
    return {j: int(counts[j]) for j in range(tower.order) if j != x1_log}


def projective_representatives(code):
    """One word index per line through the origin: every (1, v) and every
    (0, gamma^j), j < subfield_step, listed one word_index call at a time."""
    tower = code.tower
    reps = [code.word_index(1, v) for v in range(tower.qm)]
    reps += [code.word_index(0, int(tower.exp[j])) for j in range(tower.subfield_step)]
    return np.asarray(sorted(reps), dtype=np.int64)


def pointwise_rows(tower, members, chunk=2 ** 20):
    """Row j counts the trace values on gamma^j S for every j < q^m - 1, one
    (row, member) pair per key, chunk pairs per bincount."""
    p, order = tower.p, tower.order
    members = np.asarray(members, dtype=np.int64)
    logs = tower.log[members[members != 0]].astype(np.int64)
    rows = np.empty((order, p), dtype=np.int64)
    step = max(1, chunk // max(len(logs), 1))
    for j0 in range(0, order, step):
        js = np.arange(j0, min(j0 + step, order))
        # key (j - j0) * p + Tr(gamma^(j + log x)) counts row j's trace values
        keys = np.take(tower.trace_of_exp, js[:, None] + logs, mode="wrap").astype(np.int64)
        keys += (js - j0)[:, None] * p
        rows[j0 : j0 + len(js)] = np.bincount(keys.ravel(), minlength=len(js) * p).reshape(-1, p)
    rows[:, 0] += len(members) - len(logs)  # Tr(a * 0) = 0 for every a
    return rows


def transform_rows(tower, members):
    """The additive-character transform over the digit group (F_p)^em in
    int64, one row per gamma^i, i < q^m - 1: each butterfly stage builds a
    fresh (q^m, p) array from p^2 rolled copies along one digit, and the rows
    are gathered at trace_coords[exp] in one step."""
    p, em, qm = tower.p, tower.em, tower.qm
    work = np.zeros((qm, p), dtype=np.int64)
    work[members, 0] = 1
    for d in range(em):
        lo = p ** d
        view = work.reshape(qm // (lo * p), p, lo, p)
        new = np.empty_like(view)
        for k in range(p):
            acc = view[:, 0, :, :].copy()
            for j in range(1, p):
                acc += np.roll(view[:, j, :, :], (k * j) % p, axis=-1)
            new[:, k, :, :] = acc
        work = new.reshape(qm, p)
    return work[tower.trace_coords[tower.exp]]


def route_spectrum(tower, members, route):
    """A test reference as a Spectrum: "transform", or "pointwise", the unreduced count."""
    rows = (transform_rows(tower, members) if route == "transform"
            else pointwise_rows(tower, members))
    return charsums.Spectrum(tower, rows, tower.order, len(members))


def least_period(tower, members):
    """The least divisor d of q^m - 1 with gamma^d S = S, S the nonzero members,
    tried in increasing order by set equality of the shifted logs."""
    logs = {int(tower.log[x]) for x in np.asarray(members).tolist() if x != 0}
    divisors = [d for d in range(1, tower.order + 1) if tower.order % d == 0]
    return next(d for d in divisors if {(k + d) % tower.order for k in logs} == logs)


def least_frobenius_power(tower, members):
    """The least s dividing em with {x^(p^s) : x in S} = S, S the nonzero
    members, tried in increasing order by set equality of the powers."""
    elems = {x for x in np.asarray(members).tolist() if x != 0}
    return next(s for s in range(1, tower.em + 1)
                if tower.em % s == 0 and {tower.pow(x, tower.p ** s) for x in elems} == elems)


def frobenius_class_images(code):
    """For each class number c of the code's orbit engine, the number of the
    class of (u, v^(p^s)), (u, v) the lowest word of class c and s the
    subset's Frobenius power: the element round trip that the engine
    replaced with arithmetic on the class numbers, log v p^s mod q^m - 1,
    then exp, then `codes.word_classes`."""
    engine, tower, s = code.orbits, code.tower, code.subset.frobenius_power
    u, v = np.divmod(engine.lowest_words, tower.qm)
    logs = tower.log[v].astype(np.int64) * pow(tower.p, s, tower.order)
    images = u * tower.qm + np.where(v == 0, 0, tower.exp[logs % tower.order])
    return word_classes(tower, images, code.subset.stabiliser_period)


def sorted_merge(engine):
    """(reps, labels) of `Orbits.merged` by the sorted route the engine
    replaced: the classes' lowest words sorted, each class numbered by its
    rank among them, and the classes joined along every automorphism row by
    union-find on those ranks, each orbit's root its least rank; reps is the
    lowest word of each orbit, ascending, and labels the orbit of each class
    number.  Every row is read, past the point where the engine stops."""
    ascending = np.argsort(engine.lowest_words)
    rank = np.argsort(ascending)
    root = list(range(len(rank)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for row in engine.automorphisms():
        for i, j in zip(rank.tolist(), rank[row].tolist()):
            a, b = sorted((find(i), find(j)))
            root[b] = a
    first, labels = np.unique([find(i) for i in range(len(rank))], return_inverse=True)
    return engine.lowest_words[ascending][first], labels[rank]


def coordinate_tables(tower):
    """(element_of_code, code_of_element), int64: the bijection between the
    elements and their F_q-coordinates over 1, gamma, ..., gamma^(m-1), a
    vector (c_0..c_{m-1}) of dense labels packed as sum(c_i * q^i), built by
    adding c_k gamma^k to every code so far, one k at a time."""
    elems = np.array([0], dtype=np.int64)
    for k in range(tower.m):
        mults = tower.mul_vec(int(tower.exp[k]), tower.subfield_elements.astype(np.int64))
        elems = tower.add_sets(mults[:, None], elems[None, :]).ravel()  # c_k q^k + code
    code_of_element = np.empty(tower.qm, dtype=np.int64)
    code_of_element[elems] = np.arange(tower.qm, dtype=np.int64)
    return elems, code_of_element


def quadric_labels(tower, gram):
    """Q(x) as a dense F_q label for every element x, Q(x) = sum over i <= j of
    gram[i][j] x_i x_j, x_i the F_q-coordinates over 1, gamma, ..., gamma^(m-1),
    one element at a time on Python ints."""
    add, mul_q, _ = tower.subfield_tables()
    _, code_of_element = coordinate_tables(tower)
    out = []
    for x in range(tower.qm):
        c = [int(code_of_element[x]) // tower.q ** i % tower.q for i in range(tower.m)]
        value = 0
        for i in range(tower.m):
            for j in range(i, tower.m):
                value = int(add[value, mul_q[mul_q[gram[i][j], c[i]], c[j]]])
        out.append(value)
    return np.array(out)


def reflection_duals(code):
    """For a subset with a QuadricOrigin: the table v -> g*(v) for every
    reflection g: x -> x - (B(x, a)/Q(a)) a, a anisotropic (all of them, so
    that they generate the orthogonal group), B(x, a) = Q(x + a) - Q(x) - Q(a).
    g is evaluated on every element, and g*(v) is the w whose row of traces
    Tr(w x) over the nonzero x equals the row Tr(v g(x))."""
    tower = code.tower
    add, mul_q, neg = tower.subfield_tables()
    values = quadric_labels(tower, code.subset.origin.gram)
    xs = np.arange(tower.qm, dtype=np.int64)
    nonzero = xs[1:]

    def rows(images):
        return [trace_q(tower)[tower.mul_vec(v, images)].tobytes() for v in range(tower.qm)]

    position = {row: w for w, row in enumerate(rows(nonzero))}
    duals = []
    for a in np.flatnonzero(values).tolist():  # Q(a) != 0
        polar = add[add[values[tower.add_sets(xs, a)], neg[values]], neg[values[a]]]
        inverse = next(c for c in range(1, tower.q) if mul_q[values[a], c] == 1)
        scale = neg[mul_q[polar, inverse]]  # -B(x, a)/Q(a)
        moves = np.array([mul(tower, int(tower.subfield_elements[c]), a) for c in range(tower.q)])
        g = tower.add_sets(xs, moves[scale])
        duals.append(np.array([position[row] for row in rows(g[nonzero])]))
    return duals


def orbit_representatives(code):
    """The lowest projective word of each orbit of the nonzero words under
    (u, v) -> (u, gamma^d v), (lam u, lam v) for lam in F_q^*,
    (u^(p^s), v^(p^s)) and, for a quadric subset, (u, g*(v)) for every
    reflection of reflection_duals, d and s found by least_period and
    least_frobenius_power; each orbit is closed by a search over words held
    as field elements."""
    tower = code.tower
    members = code.subset.members
    shift = int(tower.exp[least_period(tower, members) % tower.order])
    power = tower.p ** least_frobenius_power(tower, members)
    lam = int(tower.exp[tower.subfield_step % tower.order])  # generates F_q^*
    duals = [dual.tolist() for dual in reflection_duals(code)] if isinstance(
        code.subset.origin, QuadricOrigin) else []
    projective = set(projective_representatives(code).tolist())

    def index(word):
        return int(subfield_index(tower)[word[0]]) * tower.qm + word[1]

    seen, reps = set(), []
    for u in tower.subfield_elements.tolist():
        for v in range(tower.qm):
            if (u, v) == (0, 0) or index((u, v)) in seen:
                continue
            orbit, todo = {(u, v)}, [(u, v)]
            while todo:
                a, b = todo.pop()
                images = [(a, mul(tower, shift, b)), (mul(tower, lam, a), mul(tower, lam, b)),
                          (tower.pow(a, power), tower.pow(b, power))]
                for word in images + [(a, dual[b]) for dual in duals]:
                    if word not in orbit:
                        orbit.add(word)
                        todo.append(word)
            indices = {index(word) for word in orbit}
            seen |= indices
            reps.append(min(indices & projective))
    return np.array(sorted(reps), dtype=np.int64)


def is_symmetric(subset):
    """Whether -x lies in the subset for every member x, gathered through the
    negation table."""
    return bool(np.all(subset.indicator[neg_table(subset.tower)[subset.members]]))


def asymmetry_witness(subset):
    """The least member x whose negative -x lies outside the subset, tried
    one member at a time in ascending order."""
    return next(int(d) for d in sorted(subset.members.tolist())
                if not subset.indicator[neg_table(subset.tower)[d]])


def indicator_members(tower, members):
    """The sorted, distinct members of a subset taken through a q^m-entry
    indicator: scattered into it in int64, read back with flatnonzero."""
    members = np.asarray(members, dtype=np.int64)
    if np.any(members >= tower.qm) or np.any(members < 0):
        raise ValueError("member out of field range")
    indicator = np.zeros(tower.qm, dtype=bool)
    indicator[members] = True
    return np.flatnonzero(indicator)


def log_ordered(tower, members):
    """The distinct members of a subset in ascending log order: their
    q^m-entry indicator (`indicator_members`) read at gamma^0, gamma^1, ...
    (`exp_by_times_x_block`)."""
    indicator = np.zeros(tower.qm, dtype=bool)
    indicator[indicator_members(tower, members)] = True
    exp = exp_by_times_x_block(tower)
    return exp[indicator[exp]].astype(np.int64)


def coset_logs(tower, members, period):
    """The ascending i < period with gamma^i in S, S the nonzero members: the
    cosets gamma^i <gamma^period> that make up S when gamma^period S = S."""
    return np.array(sorted({int(tower.log[x]) % period
                            for x in np.asarray(members).tolist() if x != 0}), dtype=np.int64)


def rational_value(row):
    """The integer a raw zeta-count row stands for: each count less the last."""
    first, *rest = (c - row[-1] for c in row[:-1])
    assert not any(rest), f"{row} is not a rational integer"
    return first


class DenseSpectrum:
    """A spectrum read off one raw row per element a, as Spectrum did when it
    held the dense (q^m, p) array."""

    def __init__(self, tower, raw, set_size):
        self.tower = tower
        self.raw = raw
        self.set_size = set_size
        self._canon = raw[:, : tower.p - 1] - raw[:, tower.p - 1 :]
        self._rational_mask = np.all(self._canon[:, 1:] == 0, axis=1)

    def value(self, a):
        return tuple(self.raw[a].tolist())

    @property
    def all_rational(self):
        return bool(np.all(self._rational_mask[1:]))

    def irrational_witness(self):
        bad = np.nonzero(~self._rational_mask[1:])[0]
        return int(bad[0]) + 1 if len(bad) else None

    def rational_values(self):
        if not bool(np.all(self._rational_mask)):
            bad = int(np.nonzero(~self._rational_mask)[0][0])
            raise charsums.SpectrumError(f"value at a={bad} is not a rational integer")
        return self._canon[:, 0].copy()

    def restricted_values(self):
        uniq, counts = np.unique(self.rational_values()[1:], return_counts=True)
        pairs = sorted(zip(uniq.tolist(), counts.tolist()), key=lambda t: -t[0])
        return [(int(v), int(c)) for v, c in pairs]


def digit_add(p, em, x, y):
    """Digitwise x + y mod p on packed base-p ints or arrays (broadcasting, int64):
    the integer sum, less p * p^i wherever digit i overflows, one digit a round."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    out = x + y
    overflow = p
    for _ in range(em):
        x, dx = divmod(x, p)
        y, dy = divmod(y, p)
        out -= (dx + dy >= p) * overflow
        overflow *= p
    return out


def linear_map(p, em, images, x):
    """The F_p-linear map X^i -> images[i] at the packed element x, on digit lists."""
    def digits(v):
        return [v // p ** i % p for i in range(em)]

    out = [0] * em
    for d, image in zip(digits(x), images):
        out = [(o + d * g) % p for o, g in zip(out, digits(image))]
    return sum(o * p ** i for i, o in enumerate(out))


def induced_code_automorphism_check(code, g, enforce_preservation=True):
    """Whether permuting coordinates by g maps each word onto the dual-indexed word.

    Checks c(u, v) at position g(x) against c(u, dual(v)) at position x for
    every index pair (u, v), exhaustively: u f(g(x)) + Tr(v g(x)) against
    u f(x) + Tr(dual(v) x) as F_q labels over every (u, v, x), x nonzero,
    every word at one coordinate at a time (`value_labels_at`).
    """
    subset = code.subset
    tower = code.tower
    if enforce_preservation and not is_automorphism_of(subset, g):
        raise ValueError("g does not preserve the subset; induced action undefined")
    dual_img = g.trace_dual().images()
    xs = tower.exp.astype(np.int64)
    gx = g.images()[xs]  # coordinate x picks up the value at g(x)
    if np.any(gx == 0):
        raise ValueError("g is not bijective on the multiplicative group")
    u, v = np.divmod(np.arange(code.word_count), tower.qm)
    dual_words = u * tower.qm + dual_img[v]  # the index of (u, dual(v))
    for x, y in zip(xs.tolist(), gx.tolist()):
        if not np.array_equal(value_labels_at(code, y), value_labels_at(code, x)[dual_words]):
            return False
    return True


def rank_reaches(tower, elems, target):
    """Whether the F_q-span of a set of distinct elements has dimension >= target.

    elems is one set, or a 2-D array of sets padded with 0, and target one
    number or one per set.  A subspace of dimension target - 1 has
    q^(target-1) - 1 nonzero elements, so that many elements decide it (count
    certificate).  The other sets are reduced over F_p, as base-p digits of
    the elements times w^i, i < e (w = gamma^step, so they F_p-span the
    F_q-span), one column at a time on chunks of doubling size, until e *
    target pivots turn up.

    Returns (reached, basis): basis[c] is the pivot row of digit c (1 there, 0
    before it) or zero, and spans the set whenever reached is False.
    """
    p, em = tower.p, tower.em
    sets = np.atleast_2d(np.asarray(elems, dtype=np.int64))
    target = np.broadcast_to(np.asarray(target, dtype=np.int64), (len(sets),))
    goal = tower.e * target
    count = np.count_nonzero(sets, axis=1)
    reached = (goal <= 0) | (count >= tower.q ** np.maximum(target - 1, 0))
    basis = np.zeros((len(sets), em, em), dtype=np.int64)
    left = np.flatnonzero(~reached)
    rest = np.take_along_axis(sets[left], np.argsort(sets[left] == 0, axis=1, kind="stable"),
                              axis=1)[:, : count[left].max(initial=0)]  # nonzero elements first
    gens = np.stack([tower.mul_vec(int(tower.exp[i * tower.subfield_step]), rest)
                     for i in range(tower.e)], axis=2).reshape(len(rest), tower.e * rest.shape[1])
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    start, size = 0, 8 * em
    while start < gens.shape[1] and not reached.all():
        active = ~reached[left]
        sub = left[active]
        digits = gens[active, start:start + size, None] // p ** np.arange(em) % p
        vecs = np.concatenate([basis[sub], digits], axis=1)
        start, size = start + size, 2 * size
        for c in range(em):
            # the first vector with digit c, scaled to 1 there (zero where there is none)
            col = vecs[:, :, c]
            row = vecs[np.arange(len(sub)), (col != 0).argmax(axis=1)]
            basis[sub, c] = row = row * inverse[row[:, c]][:, None] % p
            vecs = (vecs - col[:, :, None] * row[:, None, :]) % p
        reached[sub] = basis[sub].any(axis=2).sum(axis=1) >= goal[sub]
    if np.ndim(elems) == 1:
        return bool(reached[0]), basis[0]
    return reached, basis


def from_basis_images(tower, images):
    """The coefficients of the reduced q-polynomial sending gamma^i to images[i],
    i < m: the Moore-style system sum_j a_j (gamma^i)^(q^j) = images[i] solved by
    Gauss-Jordan elimination with one scalar mul, tower.neg and tower.add_sets per entry."""
    m, q = tower.m, tower.q
    rows = [[tower.pow(int(tower.exp[i]), q ** j) for j in range(m)] + [int(images[i])]
            for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = tower.pow(rows[col][col], -1)
        rows[col] = [mul(tower, inv, v) for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [int(tower.add_sets(x, tower.neg(mul(tower, factor, y))))
                           for x, y in zip(rows[r], rows[col])]
    return [rows[j][m] for j in range(m)]


def _remainder(f, g, p):
    """f mod a monic g over F_p, coefficient lists low degree first."""
    f, n = list(f), len(g) - 1
    for top in range(len(f) - 1, n - 1, -1):
        c = f[top]
        for i in range(n + 1):
            f[top - n + i] = (f[top - n + i] - c * g[i]) % p
    return f[:n]


def is_irreducible_by_trial_division(coeffs, p):
    """A monic f of degree n >= 1 is irreducible when no monic polynomial of
    degree 1..n/2 divides it."""
    n = len(coeffs) - 1
    return not any(not any(_remainder(coeffs, list(low) + [1], p))
                   for d in range(1, n // 2 + 1) for low in product(range(p), repeat=d))


def x_order_by_multiplication(coeffs, p):
    """The multiplicative order of X mod a monic f over F_p, by multiplying
    by X until the residue is 1 again; None when X is not a unit."""
    n = len(coeffs) - 1
    one = [1] + [0] * (n - 1)
    power = _remainder([0, 1] + [0] * n, coeffs, p)  # X
    for k in range(1, p ** n):
        if power == one:
            return k
        power = _remainder([0] + power, coeffs, p)
    return None
