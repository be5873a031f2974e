"""The F_q-rank test against the set computations it replaced.

`rank_reaches` decides the span criterion, the per-class flags read by the
secret-sharing count and the cutting test.  Here its verdicts are compared
with the small-field references in `reference.py`: spans grown as element
sets, SNC with every pairwise slice difference and a probed annihilator, and
the cutting test on the full hyperplane-by-element matrices with the
pairwise containment scan.  The count certificate and the elimination both
run: the hyperplane intersections of random unions on F_2^8 sit on either
side of the q^(m-2) bound, while SNC generator sets fall below it only now
and then (one word of the F_2^8 elliptic quadric's complement).
"""
import random
from functools import lru_cache

import numpy as np
import pytest
import reference
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdscodes import codes, pds, qpoly
from pdscodes.blocking import is_cutting_vectorial_blocking
from pdscodes.codes import SubsetCode
from pdscodes.field import FieldSpec, build_tower, counted_rank, rank_reaches
from pdscodes.pds import FieldSubset, quadric_subset
from pdscodes.qpoly import QPolynomial

FIELDS = [(2, 1, 4), (3, 1, 4), (3, 1, 5), (2, 2, 4), (2, 1, 8)]


@lru_cache(maxsize=None)
def _tower(p, e, m):
    return build_tower(FieldSpec(p=p, e=e, m=m))


def _frobenius_union(tower, rng):
    """A union of F_q^*-cosets closed under x -> x^q, about half the group."""
    step, seen, orbits = tower.subfield_step, set(), []
    for j in range(step):
        if j not in seen:
            orbit, k = [], j
            while k not in seen:
                seen.add(k)
                orbit.append(k)
                k = k * tower.q % step
            orbits.append(orbit)
    rng.shuffle(orbits)
    picked = []
    for orbit in orbits:
        if len(picked) >= step // 2:
            break
        picked += orbit
    return FieldSubset.from_logs(tower, [j + k * step for j in picked for k in range(tower.q - 1)])


def _elimination_sets(code):
    """How many SNC words (y, z), z = gamma^j, j < d, have a generator set
    T = (D_{y,z} - x_0) ∪ D̄_z below the count bound q^(m-2), and how many in
    all; x_0 is the member of D_{y,z} of least log, as the library takes it."""
    tower = code.tower
    below = total = 0
    for z in tower.exp[: code.subset.stabiliser_period].tolist():
        dbar = set(reference.complement_kernel_slice(code.subset, z).tolist())
        for y in range(tower.q):
            dyz = reference.slice_members(code.subset, y, z)
            x0 = int(dyz[np.argmin(tower.log[dyz])]) if len(dyz) else 0
            diffs = set(tower.add_sets(dyz, tower.neg(x0)).tolist()) if len(dyz) else set()
            below += len((diffs | dbar) - {0}) < tower.q ** (tower.m - 2)
            total += 1
    return below, total


def assert_rank_equals_references(code):
    rank = code.word_flags(code.rank_orbit_flags(), reference.projective_representatives(code)).tolist()
    assert rank == reference.full_flags(code, reference.cover_violations)
    assert rank == reference.full_flags(code, reference.heng_violations)
    snc = code.minimality_snc()
    if code.dimension() == code.tower.m + 1:
        assert (snc.status, snc.witness) == reference.snc_reference(code)
    else:  # f is a trace form: a simplex code, outside the paper's criterion
        assert snc.status == code.minimality_cover().status
    assert is_cutting_vectorial_blocking(code.subset).to_json() == (
        reference.cutting_reference(code.subset))


@st.composite
def subsets(draw):
    """An F_q^*-invariant union of cosets of <gamma^n>, n | step, or any set."""
    tower = _tower(*draw(st.sampled_from(FIELDS)))
    if draw(st.booleans()):
        step = tower.subfield_step
        n = draw(st.sampled_from([n for n in range(2, step + 1) if step % n == 0]))
        residues = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        logs = [r + k * n for r in residues for k in range(tower.order // n)]
    else:
        logs = draw(st.sets(st.integers(0, tower.order - 1), min_size=1,
                            max_size=tower.order - 1))
    return FieldSubset.from_logs(tower, sorted(logs))


@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(subsets())
def test_rank_flags_snc_and_cutting_equal_references(subset):
    assert_rank_equals_references(SubsetCode(subset))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_f28_random_unions_take_both_branches(seed):
    # unions like the benchmark's: their SNC generator sets are decided by their
    # size, and the cutting test eliminates on some hyperplanes and not others
    code = SubsetCode(_frobenius_union(_tower(2, 1, 8), random.Random(seed)))
    assert _elimination_sets(code)[0] == 0
    tower = code.tower
    sizes = [len(reference.hyperplane_members(code.subset, j)) for j in range(tower.subfield_step)]
    assert min(sizes) < tower.q ** (tower.m - 2) <= max(sizes)
    assert_rank_equals_references(code)


def test_snc_elimination_branch():
    # the complement of the F_2^8 elliptic quadric has two SNC words whose
    # generator sets are below the count bound
    code = SubsetCode(quadric_subset(_tower(2, 1, 8), kind="elliptic")[0].complement())
    assert _elimination_sets(code) == (2, 510)
    assert_rank_equals_references(code)


@pytest.mark.parametrize("key", FIELDS)
def test_rank_equals_closure_dimension(key):
    # every target from 0 to m + 1, on sets on both sides of the count bound
    tower = _tower(*key)
    rng = np.random.default_rng(sum(key))
    for size in (0, 1, 2, tower.m, tower.qm // (tower.q * tower.q), tower.qm // tower.q):
        for _ in range(3):
            elems = rng.choice(np.arange(1, tower.qm), size=size, replace=False)
            if size > 2 and rng.integers(2):
                # a random subspace's worth of elements: deficient spans
                gens = rng.integers(1, tower.qm, size=tower.m - 1).tolist()
                span = reference.greedy_span(tower, gens)[1]
                elems = rng.choice(span[1:], size=min(size, len(span) - 1), replace=False)
            dim = reference.dimension(tower, elems)
            for target in range(tower.m + 2):
                reached, basis = rank_reaches(tower, elems, target)
                assert reached == (dim >= target)
                if not reached:
                    assert np.array_equal(reference.greedy_span(tower, basis[basis != 0])[1],
                                          reference.greedy_span(tower, elems)[1])


def test_batched_sets_equal_one_at_a_time(f34, f44):
    # padded rows with one target each give the single-set answers
    rng = np.random.default_rng(5)
    for tower in (f34, f44):
        rows = np.zeros((12, 30), dtype=np.int64)
        for i in range(len(rows)):
            size = int(rng.integers(0, 30))
            rows[i, rng.choice(30, size=size, replace=False)] = rng.choice(
                np.arange(1, tower.qm), size=size, replace=False)
        targets = rng.integers(0, tower.m + 1, size=len(rows))
        reached, bases = rank_reaches(tower, rows, targets)
        for row, target, got, basis in zip(rows, targets, reached, bases):
            alone = rank_reaches(tower, row[row != 0], target)
            assert got == alone[0]
            assert np.array_equal(basis, alone[1])


# p up to 13 and e up to 3: the kernel scales a pivot by the logs of the F_p constants
ORACLE_FIELDS = [(2, 1, 8), (3, 1, 4), (3, 1, 5), (2, 2, 4), (5, 1, 3), (7, 1, 3), (3, 2, 2),
                 (13, 1, 2), (2, 3, 3), (5, 2, 2)]


def assert_kernel_equals_oracle(tower, elems, target):
    # the packed elimination against the digit-array one, bit for bit, also on
    # int32 rows with their nonzero counts given; the reference's digit rows
    # are packed here, as the library returns its pivots packed, in int32
    got, want = rank_reaches(tower, elems, target), reference.rank_reaches(tower, elems, target)
    packed = want[1] @ tower.p ** np.arange(tower.em)
    rows = np.asarray(elems, dtype=np.int32)
    counted = rank_reaches(tower, rows, target, np.count_nonzero(np.atleast_2d(rows), axis=1))
    for out in (got, counted):
        assert type(out[0]) is type(want[0]) and np.array_equal(out[0], want[0])
        assert out[1].dtype == np.int32 and np.array_equal(out[1], packed)
    return got


def _padded_batch(tower, rng, rows, width):
    """Sets padded with 0 at random places, row 0 all zero: random elements,
    or elements of a random subspace of dimension below m, of random sizes."""
    batch = np.zeros((rows, width), dtype=np.int64)
    for i in range(1, rows):
        pool = np.arange(1, tower.qm)
        if rng.integers(2):
            gens = rng.integers(1, tower.qm, size=int(rng.integers(1, tower.m))).tolist()
            pool = reference.greedy_span(tower, gens)[1][1:]
        size = int(rng.integers(0, min(width, len(pool)) + 1))
        batch[i, rng.choice(width, size=size, replace=False)] = rng.choice(
            pool, size=size, replace=False)
    return batch


@pytest.mark.parametrize("key", ORACLE_FIELDS)
def test_packed_elimination_equals_digit_oracle(key):
    # seeded padded batches, every target from 0 to m + 1, one target per row,
    # and each row alone
    tower = _tower(*key)
    rng = np.random.default_rng(sum(key) * 7)
    outcomes = set()
    for width in (1, tower.m, 3 * tower.m, 60):
        batch = _padded_batch(tower, rng, 16, width)
        for target in range(tower.m + 2):
            outcomes.update(assert_kernel_equals_oracle(tower, batch, target)[0][1:].tolist())
        assert_kernel_equals_oracle(tower, batch, rng.integers(0, tower.m + 2, size=len(batch)))
        for row in batch[:4]:
            assert_kernel_equals_oracle(tower, row[row != 0], int(rng.integers(0, tower.m + 2)))
    assert outcomes == {False, True}


@pytest.mark.parametrize("key", [(2, 1, 8), (2, 1, 10), (2, 2, 4), (2, 2, 8)])
def test_xor_elimination_equals_digit_oracle(key):
    # p = 2 clears a bit by XOR-ing the pivot into the vectors that have it:
    # seeded padded batches, with count given and not (assert_kernel_equals_oracle),
    # hold sets settled by their count, sets that reach the target in the
    # first chunk of 8 m elements and sets that fall short; in the last
    # batch, 8 m + 4 elements of a hyperplane come before one off it, so
    # rank m needs the second chunk
    tower = _tower(*key)
    rng = np.random.default_rng(46 + sum(key))
    m = tower.m
    batches = [_padded_batch(tower, rng, 12, width) for width in (m, 3 * m, 12 * m)]
    inside = tower.hyperplane(int(tower.exp[5]))[1:]
    outside = np.setdiff1d(np.arange(1, tower.qm), inside)
    batches.append(np.array([np.append(rng.permutation(inside)[:8 * m + 4], rng.choice(outside))
                             for _ in range(4)]))
    kinds = set()
    for batch in batches:
        count = np.count_nonzero(batch, axis=1)
        for target in [rng.integers(0, m + 2, size=len(batch))] + list(range(m + 2)):
            reached, _ = assert_kernel_equals_oracle(tower, batch, target)
            target = np.broadcast_to(target, (len(batch),))
            for row, goal, got, n in zip(batch, target, reached, count):
                if counted_rank(tower, n, goal):
                    kinds.add("count")
                elif got:
                    first = reference.rank_reaches(tower, row[row != 0][:8 * m], goal)[0]
                    kinds.add("first chunk" if first else "later chunk")
                else:
                    kinds.add("short")
    assert kinds == {"count", "first chunk", "later chunk", "short"}


@pytest.mark.parametrize("key", [(2, 1, 8), (3, 1, 5), (2, 2, 4)])
def test_packed_elimination_in_doubled_chunks(key):
    # more than 8 m elements of a hyperplane come first, so the first chunk of
    # 8 m elements (8 em vectors) leaves the span short; one element off the
    # hyperplane, at a later place in each row, reaches rank m in the next
    # chunk, below the count bound q^(m-1)
    tower = _tower(*key)
    rng = np.random.default_rng(sum(key))
    inside = tower.hyperplane(int(tower.exp[5]))[1:]
    outside = np.setdiff1d(np.arange(1, tower.qm), inside)
    n = tower.q ** (tower.m - 1) - 2
    assert n > 8 * tower.m
    rows = np.zeros((6, n + 9), dtype=np.int64)
    for i, row in enumerate(rows):
        elems = rng.permutation(inside)[:n].tolist()
        elems.insert(8 * tower.m + 5 * i, int(rng.choice(outside)))
        row[np.sort(rng.choice(len(row), size=n + 1, replace=False))] = elems
        assert not reference.rank_reaches(tower, row[row != 0][:8 * tower.m], tower.m)[0]
    reached, _ = assert_kernel_equals_oracle(tower, rows, tower.m)
    assert reached.all()
    for target in (tower.m - 1, tower.m + 1, [tower.m, tower.m + 1] * 3):
        assert_kernel_equals_oracle(tower, rows, target)
    for row in rows[:2]:
        assert assert_kernel_equals_oracle(tower, row[row != 0], tower.m)[0]


def test_packed_elimination_stops_after_the_reaching_chunk():
    # a row stops at the end of the chunk in which it reaches its target, with
    # the pivots found so far; target m - 1, below the count bound q^(m-2)
    rng = np.random.default_rng(3)
    # F_{4^5}: the first chunk, 8 m = 40 elements, spans a hyperplane; the
    # element off it, at place 50, falls in the next chunk and is not read
    tower = _tower(2, 2, 5)
    inside = tower.hyperplane(int(tower.exp[9]))[1:]
    elems = rng.permutation(inside)[:60].tolist()
    elems.insert(50, int(np.setdiff1d(np.arange(1, tower.qm), inside)[0]))
    reached, basis = assert_kernel_equals_oracle(tower, np.array([elems]), tower.m - 1)
    assert reached[0] and np.count_nonzero(basis[0]) == tower.em - tower.e
    # F_{2^10}: 80 elements span a subspace of dimension m - 2; the element off
    # it at place 100 reaches m - 1 in the second chunk, 160 elements long, so
    # the element off that span at place 200 is read too
    tower = _tower(2, 1, 10)
    h1, h2 = (set(tower.hyperplane(int(tower.exp[j]))[1:].tolist()) for j in (3, 4))
    both = np.array(sorted(h1 & h2))
    elems = rng.permutation(both)[:218].tolist()
    elems.insert(100, min(h1 - h2))
    elems.insert(200, min(set(range(1, tower.qm)) - h1))
    reached, basis = assert_kernel_equals_oracle(tower, np.array([elems]), tower.m - 1)
    assert reached[0] and np.count_nonzero(basis[0]) == tower.em


def test_single_set_callers_equal_digit_oracle(monkeypatch):
    # the calls that QPolynomial.is_bijective and quadric_subset make, as made
    calls = []

    def checked(tower, elems, target):
        calls.append(np.ndim(elems))
        return assert_kernel_equals_oracle(tower, elems, target)

    monkeypatch.setattr(qpoly, "rank_reaches", checked)
    monkeypatch.setattr(pds, "rank_reaches", checked)
    rng = np.random.default_rng(11)
    verdicts = set()
    for key in ORACLE_FIELDS:
        tower = _tower(*key)
        maps = [QPolynomial.frobenius(tower, i) for i in range(tower.m)]
        maps.append(QPolynomial(tower, [1] * tower.m))  # the trace: not bijective
        maps += [QPolynomial(tower, rng.integers(0, tower.qm, size=tower.m).tolist())
                 for _ in range(4)]
        verdicts.update(f.is_bijective() for f in maps)
        if tower.m % 2 == 0 and tower.m >= 4:
            for kind in ("hyperbolic", "elliptic"):
                quadric_subset(tower, kind=kind)
            with pytest.raises(ValueError, match="degenerate"):
                quadric_subset(tower, gram=[[1] + [0] * (tower.m - 1)]
                               + [[0] * tower.m] * (tower.m - 1))
    assert verdicts == {False, True}
    assert calls and set(calls) == {1}


def test_zero_ranks_pass_the_nonzero_counts(monkeypatch):
    # the SNC rows go in as built, with the counts their builder took
    rows = []

    def checked(tower, elems, target, count=None):
        if np.ndim(elems) == 2:
            assert np.array_equal(count, np.count_nonzero(elems, axis=1))
            rows.append(len(elems))
        return rank_reaches(tower, elems, target, count)

    monkeypatch.setattr(codes, "rank_reaches", checked)
    for key in ORACLE_FIELDS:
        tower = _tower(*key)
        subset = _frobenius_union(tower, random.Random(sum(key)))
        code, full = SubsetCode(subset), reference.Unreduced(subset)
        reps, flags = full.rank_orbit_flags()
        assert np.array_equal(code.word_flags(code.rank_orbit_flags(), reps), flags)
    assert sum(rows) > 0


def test_polar_form_rank(f34):
    # a nonzero form with a radical is degenerate; the default quadrics are not
    q, add = f34.q, f34.subfield_tables()[0]
    for gram in ([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],  # x0 x1 + x2^2
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]):
        polar = [[int(add[gram[i][j], gram[j][i]]) for j in range(4)] for i in range(4)]
        element_of_code, _ = reference.coordinate_tables(f34)
        rows = element_of_code[np.array(polar) @ q ** np.arange(4)]
        assert reference.dimension(f34, rows) < 4
        with pytest.raises(ValueError, match="degenerate"):
            quadric_subset(f34, gram=gram)
    for kind, flag in (("hyperbolic", "latin"), ("elliptic", "negative_latin")):
        assert quadric_subset(f34, kind=kind)[1].type_flag == flag
