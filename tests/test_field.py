import tracemalloc
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from pdscodes.charsums import full_spectrum, psi_sum
from pdscodes.field import (
    BLOCK,
    DEFAULT_MODULI,
    FieldConstructionError,
    FieldSpec,
    FieldTower,
    blocks,
    build_tower,
    cyclic_period,
    default_modulus,
    is_prime,
    poly_is_irreducible,
    poly_x_is_primitive,
    prime_factors,
    rank_reaches,
)
from pdscodes.pds import FieldSubset, quadric_subset


def test_prime_factors_are_the_prime_divisors():
    for n in range(1, 3000):
        assert prime_factors(n) == [d for d in range(2, n + 1) if n % d == 0 and is_prime(d)]
    assert prime_factors(2 ** 26 - 1) == [3, 2731, 8191]


def _scanned_period(positions, n):
    # the least divisor e of n with T + e = T (mod n), by trying each one
    T = set(np.asarray(positions).tolist())
    return next(e for e in range(1, n + 1) if n % e == 0 and {(t + e) % n for t in T} == T)


def _assert_prefix_below(d, cosets, positions):
    # I is the int32 view of the positions below d, a prefix of T
    below = np.count_nonzero(positions < d)
    assert cosets.dtype == np.int32 and np.array_equal(cosets, positions[:below])
    assert np.shares_memory(cosets, positions) or below == 0


def test_blocks_cover_the_range_about_block_entries_at_a_time():
    # BLOCK items of width 0 or 1, BLOCK // width of wider ones, one at least
    for width in (0, 1):
        assert list(blocks(BLOCK + 1, width)) == [slice(0, BLOCK), slice(BLOCK, BLOCK + 1)]
    parts = list(blocks(2 * BLOCK, 3))
    assert [part.start for part in parts] == list(range(0, 2 * BLOCK, BLOCK // 3))
    assert [part.stop for part in parts[:-1]] == [part.start for part in parts[1:]]
    assert parts[-1].stop == 2 * BLOCK
    assert list(blocks(3, BLOCK + 1)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert list(blocks(0)) == []


def test_cyclic_period_against_a_scan():
    # the least cyclic period d of a set of ascending positions and its
    # positions below d, against a scan over the divisors of n; periods
    # below and above BLOCK = 2^16
    rng = np.random.default_rng(26)
    n = 15 * 2 ** 15
    divisors = [e for e in range(1, n + 1) if n % e == 0]
    for period in (1, 15, 3 * 2 ** 15, n):
        mask = np.tile(rng.random(period) < 0.3, n // period)
        least = next(e for e in divisors if np.array_equal(mask[e:], mask[: n - e]))
        positions = np.flatnonzero(mask).astype(np.int32)
        d, cosets = cyclic_period(positions, n)
        assert d == least
        _assert_prefix_below(d, cosets, positions)


@pytest.mark.parametrize("positions, n, d, cosets", [
    ([], 12, 1, []),                  # no positions
    (range(12), 12, 1, [0]),          # every position
    ([], 1, 1, []),                   # n = 1
    ([0], 1, 1, [0]),
    ([0, 3], 7, 7, [0, 3]),           # a prime n
    ([2, 5], 6, 3, [2]),
    ([0, 4, 8], 12, 4, [0]),          # ell = 2 does not divide |T| = 3; ell = 3 passes
    ([0, 1, 6, 7], 12, 6, [0, 1]),    # then 3 does not divide |T| = 2
    ([1, 3, 5, 7, 9, 11], 12, 2, [1]),
    ([0, 1, 2, 4], 6, 6, [0, 1, 2, 4]),  # 2 divides |T|, no shift by 3 fits
])
def test_cyclic_period_small_cases(positions, n, d, cosets):
    positions = np.array(positions, dtype=np.int32)
    assert _scanned_period(positions, n) == d
    found, prefix = cyclic_period(positions, n)
    assert found == d and prefix.tolist() == cosets
    _assert_prefix_below(d, prefix, positions)


def test_cyclic_period_random_sets():
    # random n <= 2000 and a random set tiled at a random divisor of n, so
    # that its least period is that divisor or one of its divisors
    rng = np.random.default_rng(44)
    for _ in range(300):
        n = int(rng.integers(1, 2001))
        tile = int(rng.choice([e for e in range(1, n + 1) if n % e == 0]))
        on = np.flatnonzero(rng.random(tile) < rng.random())
        positions = (on + tile * np.arange(n // tile)[:, None]).ravel().astype(np.int32)
        d, cosets = cyclic_period(positions, n)
        assert d == _scanned_period(positions, n)
        _assert_prefix_below(d, cosets, positions)


@pytest.mark.parametrize("positions, n, d", [
    ([0, 5], 9, 9),                # gcd(n, |T|) = 1: d0 = n, b = |T|, no pair compared
    ([3], 1000, 1000),
    ([0, 3, 6, 9], 12, 3),         # d0 = 3 passes, with b = 1
    ([0, 1, 4, 5, 8, 9, 12, 13], 16, 4),  # d0 = 2 fails, the walk finds 4
    ([0, 1, 6, 7], 12, 6),         # d0 = 3 fails, the walk finds 6
    ([0, 1, 2, 4], 6, 6),          # d0 = 3 fails, and so does every period below n
    (range(10), 10, 1),            # d0 = 1
])
def test_cyclic_period_tries_the_least_candidate_first(positions, n, d):
    positions = np.array(positions, dtype=np.int32)
    assert _scanned_period(positions, n) == d
    found, prefix = cyclic_period(positions, n)
    assert found == d
    _assert_prefix_below(d, prefix, positions)


def test_cyclic_period_equals_the_scan_on_random_sets():
    # random sets of any size, unions of the cosets of a random divisor of n,
    # and sets whose size is prime to n (least period n)
    rng = np.random.default_rng(48)
    for _ in range(300):
        n = int(rng.integers(1, 1500))
        tile = int(rng.choice([e for e in range(1, n + 1) if n % e == 0]))
        union = np.flatnonzero(rng.random(tile) < rng.random())
        union = (union + tile * np.arange(n // tile)[:, None]).ravel()
        size = int(rng.choice([k for k in range(n + 1) if np.gcd(k, n) == 1]))
        for positions in (np.flatnonzero(rng.random(n) < rng.random()), union,
                          np.sort(rng.choice(n, size=size, replace=False))):
            positions = positions.astype(np.int32)
            d, cosets = cyclic_period(positions, n)
            assert d == _scanned_period(positions, n)
            _assert_prefix_below(d, cosets, positions)


@pytest.mark.parametrize("field", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3)],
                         ids=lambda f: "F_%d^(%d*%d)" % f)
def test_tower_stabiliser_takes_members_in_any_order(field):
    # unions of the cosets of each divisor d of q^m - 1, given in ascending log
    # order, reversed, shuffled and with 0: the least period and cosets by
    # brute force; a repeat, next to its copy or apart, and a member outside
    # [0, q^m) are refused
    t = build_tower(FieldSpec(*field))
    rng = np.random.default_rng(t.qm)
    for period in (d for d in range(1, t.order + 1) if t.order % d == 0):
        on = np.flatnonzero(rng.random(period) < 0.5)
        members = t.exp[(on + period * np.arange(t.order // period)[:, None]).T.ravel()]
        members = members[np.argsort(t.log[members])]  # ascending logs
        d = reference.least_period(t, members)
        for given_ in (members, members[::-1], rng.permutation(members),
                       np.append(members, 0), np.insert(members, 0, 0)):
            found, cosets = t.stabiliser(given_)
            assert found == d
            assert np.array_equal(cosets, reference.coset_logs(t, members, d))
        if len(members):
            x = int(members[len(members) // 2])
            for repeated in (np.insert(members, len(members) // 2, x), np.append(members, x)):
                with pytest.raises(ValueError, match=f"member {x} repeats"):
                    t.stabiliser(repeated)
            with pytest.raises(ValueError, match="member 0 repeats"):
                t.stabiliser(np.concatenate([[0], members, [0]]))
            for bad in (-1, t.qm):
                with pytest.raises(ValueError, match=f"member {bad} lies outside"):
                    t.stabiliser(np.append(members, bad))


@pytest.mark.parametrize("field", [(2, 1, 8), (2, 1, 12), (2, 2, 4), (2, 2, 8)],
                         ids=lambda f: "F_%d^(%d*%d)" % f)
def test_binary_trace_by_popcount_equals_the_half_tables(field):
    # for p = 2, Tr_abs(x) is the parity of x & t, t the packed Tr(X^i): on
    # every element, as int32 or int64 keys, it equals the half tables of the
    # images Tr(X^i) joined by XOR, and so does trace_of_exp in log order
    t = build_tower(FieldSpec(*field))
    xs = np.arange(t.qm)
    joined = t.linear_map_table(t._linearized_images([1] * t.em, 2))
    assert set(joined.tolist()) == {0, 1}
    for keys in (xs, xs.astype(np.int32)):
        traces = t.trace(keys)
        assert traces.dtype == np.int8 and np.array_equal(traces, joined)
    assert np.array_equal(t.trace_of_exp, joined[t.exp])


def test_spec_rejects_bad_parameters():
    with pytest.raises(FieldConstructionError):
        FieldSpec(p=4, e=1, m=2)
    with pytest.raises(FieldConstructionError):
        FieldSpec(p=2, e=0, m=2)
    with pytest.raises(FieldConstructionError):
        FieldSpec(p=2, e=1, m=30)  # over the table cap
    with pytest.raises(FieldConstructionError):
        FieldSpec(p=3, e=1, m=2, modulus=(1, 1, 1, 1))  # wrong degree
    # a huge p or e*m fails at once, before the primality test and the power
    for p, e, m in ((2 ** 61 - 1, 1, 1),  # a prime: 1.5 * 10^9 trial divisions
                    (3, 1, 4 * 10 ** 11),  # 3^(4 * 10^11) has 6 * 10^11 bits
                    (4, 10 ** 12, 1)):
        with pytest.raises(FieldConstructionError, match="exceeds the table cap"):
            FieldSpec(p=p, e=e, m=m)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)(x+2) over F_2? no: over F_2 x^2+1=(x+1)^2
    with pytest.raises(FieldConstructionError, match="is reducible"):
        build_tower(FieldSpec(p=2, e=1, m=2, modulus=(1, 0, 1)))
    # X over F_2 fills the one log slot of F_2, but X = 0 generates nothing
    with pytest.raises(FieldConstructionError, match="X is not primitive"):
        build_tower(FieldSpec(p=2, e=1, m=1, modulus=(0, 1)))
    # a reducible sextic that an equality-only Rabin test passes
    with pytest.raises(FieldConstructionError, match="is reducible"):
        build_tower(FieldSpec(p=2, e=1, m=6, modulus=(1, 1, 0, 0, 1, 0, 1)))


def test_irreducible_but_imprimitive_rejected(monkeypatch):
    # x^2 + 1 is irreducible over F_3 but X has order 4, not 8
    assert poly_is_irreducible((1, 0, 1), 3)
    assert not poly_x_is_primitive((1, 0, 1), 3)
    with pytest.raises(FieldConstructionError, match="X is not primitive"):
        build_tower(FieldSpec(p=3, e=1, m=2, modulus=(1, 0, 1)))
    # x^8 + x^4 + x^3 + x + 1 over F_2: X has order 51 of 255, so the return
    # to 1 happens past the first powers, inside the half-table joins
    aes = (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert poly_is_irreducible(aes, 2)
    assert not poly_x_is_primitive(aes, 2)
    # the order of X in exp decides, not the polynomial order test: with that
    # test made to pass, an irreducible modulus is still named imprimitive
    monkeypatch.setattr("pdscodes.field.poly_x_is_primitive", lambda coeffs, p: True)
    for spec in (FieldSpec(p=3, e=1, m=2, modulus=(1, 0, 1)),
                 FieldSpec(p=2, e=1, m=8, modulus=aes)):
        with pytest.raises(FieldConstructionError, match="irreducible but X is not primitive"):
            build_tower(spec)


def _monic_polynomials(p, top):
    return [list(low) + [1] for n in range(1, top + 1) for low in product(range(p), repeat=n)]


@pytest.mark.parametrize("p, top", [(2, 6), (3, 6), (5, 3), (7, 3)])
def test_modulus_tests_match_brute_force(p, top):
    # every monic polynomial of degree <= top: Rabin's test against trial
    # division, the order test against the order of X by multiplication
    for coeffs in _monic_polynomials(p, top):
        order = reference.x_order_by_multiplication(coeffs, p)
        assert poly_is_irreducible(coeffs, p) == reference.is_irreducible_by_trial_division(
            coeffs, p), coeffs
        assert poly_x_is_primitive(coeffs, p) == (order == p ** (len(coeffs) - 1) - 1), coeffs
    # x^6 + x^4 + x + 1 = (x + 1)(x^2 + x + 1)(x^3 + x + 1) has X^8 = X and
    # X^4 != X, X^2 != X, but shares factors with both X^4 - X and X^2 - X
    assert not poly_is_irreducible([1, 1, 0, 0, 1, 0, 1], 2)
    # x^3 + 1 = (x + 1)(x^2 + x + 1): X has order 3, so X^7 != 1, though
    # X^(7/ell) = X != 1 for the one prime ell = 7
    assert not poly_x_is_primitive([1, 0, 0, 1], 2)


def test_modulus_search_reproduces_the_table(monkeypatch):
    table = dict(DEFAULT_MODULI)
    monkeypatch.setattr("pdscodes.field.DEFAULT_MODULI", {})
    for (p, n), coeffs in table.items():
        assert default_modulus(p, n) == coeffs, (p, n)
    assert DEFAULT_MODULI == table


def test_default_moduli_are_primitive():
    for (p, n), coeffs in DEFAULT_MODULI.items():
        if p ** n > 3 ** 6:
            continue  # keep the scan cheap; big ones are exercised elsewhere
        assert len(coeffs) == n + 1
        assert poly_is_irreducible(coeffs, p)
        assert poly_x_is_primitive(coeffs, p)
    assert default_modulus(2, 8) == DEFAULT_MODULI[(2, 8)]
    # each prime's degrees run 1, 2, ... with no gap
    for p in {p for p, _ in DEFAULT_MODULI}:
        degrees = sorted(n for key, n in DEFAULT_MODULI if key == p)
        assert degrees == list(range(1, len(degrees) + 1)), p


def test_example_field_sizes(f44):
    # 256-element field with a 4-element embedded subfield
    assert f44.qm == 256
    assert f44.q == 4
    assert len(f44.subfield_elements) == 4
    assert f44.subfield_labels(f44.subfield_elements).tolist() == [0, 1, 2, 3]


def test_prime_field_trivial_tower():
    t = build_tower(FieldSpec(p=3, e=1, m=1))
    assert t.qm == 3
    # trace is the identity on F_3
    traces = t.trace(np.arange(t.qm))
    for x in range(3):
        assert reference.trace_q(t)[x] == x
        assert traces[x] == x


def test_exp_log_round_trip(f35):
    for i in range(f35.order):
        assert f35.log[f35.exp[i]] == i
    xs = np.arange(1, f35.qm)
    assert np.array_equal(f35.exp[f35.log[xs]], xs)


def test_field_axioms_sampled(f44):
    rng = np.random.default_rng(7)

    def add(a, b):
        return int(f44.add_sets(a, b))

    def mul(a, b):
        return reference.mul(f44, a, b)

    for _ in range(200):
        x, y, z = rng.integers(0, f44.qm, size=3)
        x, y, z = int(x), int(y), int(z)
        assert add(x, y) == add(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert add(x, f44.neg(x)) == 0
        if x != 0:
            assert mul(x, f44.pow(x, -1)) == 1


def test_trace_count_f35(f35):
    # elements with absolute trace zero: exactly 3^4 = 81 of the 243
    assert int(np.count_nonzero(f35.trace(np.arange(f35.qm)) == 0)) == 81


def test_trace_surjective_and_balanced(f44):
    vals = reference.trace_q(f44)[np.arange(f44.qm)]
    counts = {v: 0 for v in f44.subfield_elements.tolist()}
    for v in vals.tolist():
        counts[v] += 1
    assert all(c == f44.qm // f44.q for c in counts.values())
    pvals = f44.trace(np.arange(f44.qm))
    for t in range(f44.p):
        assert int(np.count_nonzero(pvals == t)) == f44.qm // f44.p


def test_trace_linearity_exhaustive_small():
    t = build_tower(FieldSpec(p=2, e=1, m=2))  # F_4 over F_2
    # Tr_{F_4/F_2}(gamma) = gamma + gamma^2 = 1 for gamma^2 + gamma + 1 = 0
    gamma = int(t.exp[1])
    traces = t.trace(np.arange(t.qm))
    assert traces[gamma] == 1
    assert traces[0] == 0
    for x in range(t.qm):
        for y in range(t.qm):
            assert traces[int(t.add_sets(x, y))] == (int(traces[x]) + int(traces[y])) % 2


def test_trace_fq_linearity(f44):
    rng = np.random.default_rng(3)
    lams = f44.subfield_elements.tolist()
    tr = reference.trace_q(f44)
    for _ in range(100):
        x, y = (int(v) for v in rng.integers(0, f44.qm, size=2))
        assert tr[int(f44.add_sets(x, y))] == int(f44.add_sets(tr[x], tr[y]))
        for lam in lams:
            assert tr[reference.mul(f44, lam, x)] == reference.mul(f44, lam, tr[x])


def test_trace_transitivity(f44, f35):
    # Tr to F_p factors through Tr to F_q; nontrivial when e > 1
    traces = f44.trace(np.arange(f44.qm))
    for x in range(f44.qm):
        inner = int(reference.trace_q(f44)[x])
        # trace of a subfield element down to F_p: sum of e Frobenius powers
        acc, cur = inner, inner
        for _ in range(f44.e - 1):
            cur = f44.pow(cur, f44.p)
            acc = int(f44.add_sets(acc, cur))
        assert acc == traces[x]
    traces = f35.trace(np.arange(f35.qm))
    for x in range(f35.qm):
        assert traces[x] == reference.trace_q(f35)[x] % 3


def test_hyperplane_sizes(f35, f44):
    for a in (1, int(f35.exp[5]), int(f35.exp[100])):
        assert len(f35.hyperplane(a)) == 81
    with pytest.raises(ValueError):
        f35.hyperplane(0)
    # L(a) = L(lambda a) for subfield scalars
    a = int(f44.exp[3])
    for lam in f44.subfield_elements[1:].tolist():
        assert np.array_equal(f44.hyperplane(a), f44.hyperplane(reference.mul(f44, lam, a)))
    # two independent forms cut out a codim-2 space
    h1 = set(f44.hyperplane(1).tolist())
    h2 = set(f44.hyperplane(int(f44.exp[7])).tolist())
    assert len(h1 & h2) == 16


def test_span_and_annihilator(f34):
    # rank 0 for the empty set and {0}, a line for one element, the field for a basis
    for elems in ([], [0]):
        assert rank_reaches(f34, elems, 0)[0]
        assert not rank_reaches(f34, elems, 1)[0]
    x = int(f34.exp[10])
    reached, rows = rank_reaches(f34, [x], 2)
    basis = rows[rows != 0]
    assert not reached and len(basis) == 1
    assert int(basis[0]) in {reference.mul(f34, lam, x) for lam in f34.subfield_elements.tolist()}
    spanning = [int(f34.exp[k]) for k in range(f34.m)]
    assert rank_reaches(f34, spanning, f34.m)[0]
    assert reference.trace_annihilator(f34, spanning).tolist() == [0]


def test_annihilator_duality_random(f34, f44):
    # for U inside a random subspace V: the rank found by elimination is dim U,
    # its basis spans U, the annihilator of U has q^(m - dim U) elements, and
    # the rank reaches dim V exactly when U spans V
    rng = np.random.default_rng(11)
    for tower in (f34, f44):
        for _ in range(25):
            vdim = int(rng.integers(1, tower.m + 1))
            v1 = reference.greedy_span(tower, rng.integers(1, tower.qm, size=vdim).tolist())[1]
            u1 = rng.choice(v1, size=int(rng.integers(1, min(len(v1), 6))), replace=False)
            reached, rows = rank_reaches(tower, u1, tower.m)
            rank = tower.m if reached else np.count_nonzero(rows) // tower.e
            assert rank == reference.dimension(tower, u1)
            if not reached:
                assert np.array_equal(reference.greedy_span(tower, rows)[1],
                                      reference.greedy_span(tower, u1)[1])
            assert len(reference.trace_annihilator(tower, u1)) == tower.q ** (tower.m - rank)
            vdim = reference.dimension(tower, v1)
            spans = len(reference.greedy_span(tower, u1)[1]) == len(v1)
            assert rank_reaches(tower, u1, vdim)[0] == spans


def test_label_cycle_reads_every_start(f34):
    labels = f34.trace_label_of_exp
    n = len(labels)
    cycle = f34.label_cycle()
    assert cycle.shape == (n, n) and not cycle.flags.writeable
    assert np.array_equal(cycle, labels[(np.arange(n)[:, None] + np.arange(n)) % n])


def test_shifted_labels_read_every_sum(f34, f44, f92):
    # every start against every log, int32 and intp, with sums below, at and
    # past q^m - 1, against the labels of Tr(gamma^s gamma^l)
    for tower in (f34, f44, f92):
        n = tower.order
        starts, logs = np.arange(n), np.arange(n, dtype=np.int32)
        want = tower.trace_labels(tower.exp[starts][:, None], tower.exp[logs])
        assert np.array_equal(tower.shifted_labels(starts, logs), want)
        ends = np.array([n - 1, 0, 1], dtype=np.intp)
        assert np.array_equal(tower.shifted_labels(starts[::-3], ends), want[::-3][:, ends])
        assert np.array_equal(tower.label_cycle(), want)


def test_subfield_membership(f44):
    # F_q is 0 and the powers of gamma^step; nonzero x lies in F_q iff x^(q-1) = 1
    step = f44.subfield_step
    members = {0} | {x for x in range(1, f44.qm) if int(f44.log[x]) % step == 0}
    assert members == {0} | {x for x in range(1, f44.qm) if f44.pow(x, f44.q - 1) == 1}
    assert {int(v) for v in f44.subfield_elements} == members


def test_subfield_tables_match_scalar_arithmetic(f44, f35):
    # the negation is a log shift for odd q and the identity for even q
    more = [(3, 2, 2), (2, 1, 3), (5, 1, 2), (13, 1, 2), (7, 2, 1), (2, 3, 2)]
    for t in (f44, f35, *(build_tower(FieldSpec(p=p, e=e, m=m)) for p, e, m in more)):
        add, mul, neg = t.subfield_tables()
        assert add.dtype == mul.dtype == neg.dtype == np.int32
        elems, idx = t.subfield_elements.tolist(), reference.subfield_index(t)
        for i, x in enumerate(elems):
            assert neg[i] == idx[t.neg(x)]
            for j, y in enumerate(elems):
                assert add[i, j] == idx[int(t.add_sets(x, y))]
                assert mul[i, j] == idx[reference.mul(t, x, y)]


def test_coordinate_tables(f44):
    elem_of_code, code_of_elem = reference.coordinate_tables(f44)
    assert len(np.unique(elem_of_code)) == f44.qm
    assert np.array_equal(elem_of_code[code_of_elem], np.arange(f44.qm))
    # code digit k scales gamma^k
    assert elem_of_code[0] == 0
    assert elem_of_code[1] == f44.subfield_elements[1]  # c_0 = label 1 -> element 1
    assert elem_of_code[f44.q] == f44.exp[1]  # c_1 = label 1 -> gamma


def test_field_spec_json_round_trip():
    spec = FieldSpec.from_json({"p": 2, "e": 2, "m": 4})
    assert spec.modulus is None
    t = build_tower(spec)
    assert t.qm == 256
    spec2 = FieldSpec.from_json({"p": 3, "e": 1, "m": 4, "modulus": [2, 1, 0, 0, 1]})
    assert spec2.modulus == (2, 1, 0, 0, 1)
    assert build_tower(spec2).modulus == (2, 1, 0, 0, 1)


def test_linear_map_table(f35, f44):
    # every element against the digit-list map, and the identity on the basis
    for t in (f35, f44):
        basis = [t.p ** i for i in range(t.em)]
        assert np.array_equal(t.linear_map_table(basis), np.arange(t.qm))
        images = np.random.default_rng(t.qm).integers(0, t.qm, size=t.em).tolist()
        table = t.linear_map_table(images)
        assert table.dtype == np.int32
        expected = [reference.linear_map(t.p, t.em, images, x) for x in range(t.qm)]
        assert table.tolist() == expected
        # a stack of image rows gives one table per row
        stacked = t.linear_map_table([[images, basis]] * 2)
        assert stacked.shape == (2, 2, t.qm) and stacked.dtype == np.int32
        assert (stacked == np.stack([table, np.arange(t.qm)])).all()
    with pytest.raises(ValueError):
        f35.linear_map_table([1])


# (p, em) towers F_p^em for the digitwise-addition oracle.  The chunk is
# c = 5 digits for p = 3, 3 for p = 5 and 7 (at most 2^17 table entries; a
# uint16 table for p = 7) and 2 for p = 11, 13, 17 (uint16 for 17); each p
# runs past 2c and includes ems that are not multiples of c.
DIGIT_TOWERS = (
    [(3, em) for em in (1, 4, 5, 6, 7, 10, 11)]
    + [(5, em) for em in (1, 2, 3, 4, 5, 7)]
    + [(7, em) for em in (1, 2, 3, 4, 5, 7)]
    + [(p, em) for p in (11, 13) for em in (1, 2, 3, 4, 5)]
    + [(17, em) for em in (1, 2, 3, 5)]
)
SHAPES = [((), ()), ((7,), ()), ((), (5,)), ((6,), (6,)), ((3, 1), (1, 4)), ((2, 1, 3), (4, 1))]


@lru_cache(maxsize=None)
def digit_tower(p, em):
    return build_tower(FieldSpec(p=p, e=1, m=em))


def test_digit_towers_span_more_than_two_chunks():
    for p in {p for p, _ in DIGIT_TOWERS}:
        em = max(em for q, em in DIGIT_TOWERS if q == p)
        digits_per_chunk = digit_tower(p, em)._digit_add[0]
        assert em > 2 * digits_per_chunk


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tower=st.sampled_from(DIGIT_TOWERS), shapes=st.sampled_from(SHAPES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_digitwise_addition_matches_oracle(tower, shapes, seed):
    p, em = tower
    t = digit_tower(p, em)
    rng = np.random.default_rng(seed)
    # draw from 0, q^m - 1 (every digit p - 1) and uniform elements
    pool = np.concatenate([[0, t.qm - 1], rng.integers(0, t.qm, size=8)])
    xs, ys = (rng.choice(pool, size=shape) for shape in shapes)
    expected = reference.digit_add(p, em, xs, ys)
    got = t.add_sets(xs, ys)
    assert got.dtype == np.int64 and got.shape == expected.shape
    assert np.array_equal(got, expected)
    x, y = int(xs.flat[0]), int(ys.flat[0])
    assert int(t.add_sets(x, y)) == int(reference.digit_add(p, em, x, y))
    images = rng.choice(pool, size=em).tolist()
    table = t.linear_map_table(images)
    for v in pool.tolist():
        assert int(table[v]) == reference.linear_map(p, em, images, v)


def test_trace_coords_are_trace_digits(f35, f44):
    # digit i of trace_coords[a] is Tr_abs(a X^i)
    for t in (f35, f44):
        xs = np.arange(t.qm, dtype=np.int64)
        expected = np.zeros(t.qm, dtype=np.int64)
        for i in range(t.em):
            traces = t.trace(t.mul_vec(int(t.exp[i]), xs))
            expected += traces.astype(np.int64) * t.p ** i
        assert np.array_equal(t.trace_coords, expected)


def test_trace_linearity_exhaustive_f35(f35):
    xs = np.arange(f35.qm, dtype=np.int64)
    tr = reference.trace_q(f35)[xs].astype(np.int64)
    for y in range(f35.qm):
        sums = f35.add_sets(xs, y)
        assert np.array_equal(reference.trace_q(f35)[sums].astype(np.int64), (tr + tr[y]) % 3)


# (p, e, m): F_2^4, F_3^4, F_4^4, F_8^4, F_9^2 and F_5^3
LABEL_TOWERS = [(2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 3, 4), (3, 2, 2), (5, 1, 3)]


@pytest.mark.parametrize("p,e,m", LABEL_TOWERS)
def test_trace_labels_equal_element_route(p, e, m):
    # every (v, x), zeros included, in blocks of v broadcast against all x
    t = build_tower(FieldSpec(p=p, e=e, m=m))
    xs = np.arange(t.qm)
    for start in range(0, t.qm, 256):
        vs = xs[start:start + 256]
        expected = np.stack([reference.trace_labels(t, v, xs) for v in vs.tolist()])
        assert np.array_equal(t.trace_labels(vs[:, None], xs), expected)
    assert t.trace_label_of_exp.dtype == np.uint8


def test_trace_labels_wide_subfield():
    # q = 2^9: labels up to 511 need 16 bits
    t = build_tower(FieldSpec(p=2, e=9, m=2))
    assert t.trace_label_of_exp.dtype == np.uint16
    xs = np.arange(t.qm)
    rng = np.random.default_rng(9)
    vs = np.concatenate([[0, 1], rng.integers(2, t.qm, size=30)])
    for v in vs.tolist():
        assert np.array_equal(t.trace_labels(v, xs), reference.trace_labels(t, v, xs))
    assert t.trace_labels(vs[:, None], xs).max() == t.q - 1


# (p, e, m): towers over p = 2, 3, 5, 7 and 13, with e = 1 and e > 1
ONE_DIGIT_TOWERS = [(2, 1, 9), (2, 3, 3), (3, 1, 7), (3, 2, 3), (5, 1, 4), (5, 2, 2),
                    (7, 1, 3), (13, 1, 2), (13, 2, 1)]


@pytest.mark.parametrize("field", ONE_DIGIT_TOWERS, ids=lambda f: "F_%d^(%d*%d)" % f)
def test_one_digit_traces_equal_the_digitwise_add(field):
    # trace_p joins its half tables by one add mod p and equals the tabulation
    # through the digitwise add; the F_q-trace labels, read off it for e = 1 and
    # joined from the F_q-trace's half tables at exp for e > 1, name that of the
    # tabulated F_q-trace
    t = build_tower(FieldSpec(*field))
    assert t.trace(np.arange(t.qm)).dtype == np.int8
    assert np.array_equal(t.trace(np.arange(t.qm)), t.linearized_table([1] * t.em, t.p))
    index = reference.subfield_index(t)
    assert np.array_equal(t.trace_label_of_exp, index[reference.trace_q(t)[t.exp]])


def test_trace_of_a_large_prime_field_is_not_wrapped():
    # over F_131 the trace is the identity, with values past int8
    t = build_tower(FieldSpec(p=131, e=1, m=1))
    assert t.trace(np.arange(t.qm)).tolist() == list(range(131))
    assert t.trace_label_of_exp.tolist() == list(range(1, 131))  # gamma^i has label i + 1
    members = np.array([1, 130])  # {1, -1}
    # zeta + zeta^-1: one member of trace 1 and one of trace 130
    assert psi_sum(t, 1, members) == tuple(int(s in (1, 130)) for s in range(131))
    assert full_spectrum(t, members).value(1) == psi_sum(t, 1, members)
    # over F_257 the labels run to 256, one past a byte
    wide = build_tower(FieldSpec(p=257, e=1, m=1))
    assert wide.trace_label_of_exp.tolist() == list(range(1, 257))


def test_corrupt_trace_tables_are_rejected(monkeypatch):
    # an absolute trace outside F_p fails the build
    images = FieldTower._linearized_images
    monkeypatch.setattr(FieldTower, "_linearized_images",
                        lambda self, coeffs, step: images(self, coeffs, step) + self.p)
    with pytest.raises(FieldConstructionError, match="left the prime field"):
        build_tower(FieldSpec(p=3, e=1, m=4))


def test_non_injective_subfield_is_rejected_on_read():
    t = build_tower(FieldSpec(p=2, e=2, m=2))
    t.subfield_elements = t.subfield_elements[[0, 1, 1, 2]]
    with pytest.raises(FieldConstructionError, match="not injective"):
        t.subfield_tables()


def test_non_closed_subfield_is_rejected_on_read():
    # distinct elements take the labels 0..q-1 in order, but 1 + X lies outside
    # {0, 1, X, X^2}, so the addition table is refused
    t = build_tower(FieldSpec(p=2, e=2, m=2))
    t.subfield_elements = np.array([0, 1, 2, 4], dtype=np.int32)
    with pytest.raises(FieldConstructionError, match="not closed under addition"):
        t.subfield_tables()


def _random_primitive_modulus(p, degree, seed):
    rng = np.random.default_rng(seed)
    while True:
        modulus = tuple(int(c) for c in rng.integers(0, p, size=degree)) + (1,)
        if poly_is_irreducible(modulus, p) and poly_x_is_primitive(modulus, p):
            return modulus


# the eight towers of tests/data/golden/tables.json, then towers over random
# primitive moduli for p = 2, 3, 5, 7 and 131
ORACLE_SPECS = (
    [FieldSpec(p=p, e=e, m=m) for p, e, m in ((3, 1, 12), (2, 1, 16), (2, 2, 8), (5, 1, 6),
                                              (7, 1, 4), (13, 1, 2), (3, 2, 3), (2, 3, 4))]
    + [FieldSpec(p=p, e=1, m=degree, modulus=_random_primitive_modulus(p, degree, seed))
       for p, degree, seed in ((2, 11, 1), (2, 13, 2), (3, 7, 3), (3, 8, 4), (5, 5, 5),
                               (7, 4, 6), (131, 2, 7))]
)


def _oracle_id(spec):
    name = "F_%d^(%d*%d)" % (spec.p, spec.e, spec.m)
    return name if spec.modulus is None else name + "-random"


def _assert_tables_equal_the_replaced_routes(t):
    exp = reference.exp_by_times_x_block(t)
    assert t.exp.dtype == np.int32 and np.array_equal(t.exp, exp)
    table = reference.trace_p(t)
    traces = t.trace(np.arange(t.qm))
    assert traces.dtype == table.dtype and np.array_equal(traces, table)
    assert t.trace_of_exp.dtype == table.dtype and np.array_equal(t.trace_of_exp, table[exp])
    log = reference.log_by_scatter(t)
    assert t.log.dtype == np.int32 and np.array_equal(t.log, log)
    labels = reference.subfield_index(t)[reference.trace_q(t)[exp]]
    assert np.array_equal(t.trace_label_of_exp, labels)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=_oracle_id)
def test_tables_equal_the_replaced_routes(spec):
    # exp by half-table joins against the multiply-by-X^B table, the trace
    # joined at the elements asked for against the tabulated trace_p, the
    # blockwise log against one scatter, and the labels of the F_q-trace in
    # log order against the scatter of F_q to its labels
    _assert_tables_equal_the_replaced_routes(build_tower(spec))


@pytest.mark.parametrize("spec", [ORACLE_SPECS[i] for i in (4, 6, 10, 14)], ids=_oracle_id)
def test_short_stretches_and_blocks_equal_the_replaced_routes(spec, monkeypatch):
    # joins of at most 5 entries, several half-table builds, and trace, label
    # and log blocks of 7 entries, none of which divides q^m - 1
    monkeypatch.setattr("pdscodes.field.STRETCH", 5)
    monkeypatch.setattr("pdscodes.field.BLOCK", 7)
    _assert_tables_equal_the_replaced_routes(build_tower(spec))


def test_deferred_log_refuses_a_corrupt_exp(monkeypatch):
    # a join that writes X^(order - 2) again where X^(order - 1) belongs leaves
    # one log slot empty: the build passes, as its order test reads exp only
    # at order / ell and at order, and the first read of log refuses the short
    # slot count
    spec = FieldSpec(p=3, e=1, m=5)
    honest = build_tower(spec).exp
    add = FieldTower._add_vec

    def corrupt_join(tower, x, y):
        out = add(tower, x, y)
        if "exp" not in vars(tower):  # filling exp
            out = np.where(out == honest[-1], honest[-2], out)
        return out

    monkeypatch.setattr(FieldTower, "_add_vec", corrupt_join)
    tower = build_tower(spec)
    assert np.flatnonzero(tower.exp != honest).tolist() == [tower.order - 1]
    with pytest.raises(FieldConstructionError, match="slot of log empty; tables corrupt"):
        tower.log


def test_build_allocates_exp_and_little_more():
    # F_{3^12}: exp (2.1 MB) and at most 2 MB of temporaries; log and the
    # absolute trace are not built, nor any q^m-entry table of x -> x X^s
    build_tower(FieldSpec(p=2, e=1, m=3))  # numpy's first-call set-up, outside the trace
    tracemalloc.start()
    try:
        tower = build_tower(FieldSpec(p=3, e=1, m=12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= tower.exp.nbytes + 2 * 2 ** 20
    assert not {"log", "trace_of_exp", "trace_coords"} & set(vars(tower))


def _traced_peak(read):
    """(value, tracemalloc peak in bytes) of read()."""
    tracemalloc.start()
    try:
        value = read()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_logs_gather_one_block_of_keys_at_a_time():
    # the F_{2^20} elliptic quadric, 523 775 members: int32 logs (2.0 MB) and
    # one BLOCK of intp keys, where one take copied every key to intp first
    # (a 6.0 MB peak); int64 keys need no copy
    tower = build_tower(FieldSpec(p=2, e=1, m=20))
    members = quadric_subset(tower, kind="elliptic")[0].members
    want = tower.log[members.astype(np.int64)]
    for keys in (members, members.astype(np.int64)):
        logs, peak = _traced_peak(lambda: tower.logs_of(keys))
        assert logs.dtype == np.int32 and np.array_equal(logs, want)
        assert peak <= logs.nbytes + 8 * BLOCK + 2 ** 16
    subset = FieldSubset(tower, members)
    logs, peak = _traced_peak(lambda: subset.logs)
    assert np.array_equal(logs, np.sort(want))
    assert peak <= logs.nbytes + 8 * BLOCK + 2 ** 16
    assert tower.stabiliser(members[::-1])[0] == subset.stabiliser_period


def test_cyclic_period_compares_one_block_at_a_time():
    # int32 differences and their compare, BLOCK pairs at a time, where one
    # full-length difference and compare peaked at 2.6 MB beside the 2.0 MB
    # of logs of the F_{2^20} elliptic quadric (d0 fails at its first pair),
    # and at 1.7 MB on the class union of N = 3 (every pair compared)
    tower = build_tower(FieldSpec(p=2, e=1, m=20))
    subset = quadric_subset(tower, kind="elliptic")[0]
    union = np.arange(0, tower.order, 3, dtype=np.int32)
    for logs, period in ((subset.logs, subset.stabiliser_period), (union, 3)):
        (d, cosets), peak = _traced_peak(lambda: cyclic_period(logs, tower.order))
        assert d == period and np.array_equal(cosets, logs[: len(logs) * d // tower.order])
        assert peak <= 5 * BLOCK + 2 ** 16
    # the stabiliser of the raw members holds their logs and one BLOCK of
    # intp keys (`gather`), and tests their ascent BLOCK pairs at a time; a
    # bool as long as the logs, the whole ascent at once, peaked 0.7 MB above
    # the 2.8 MB of logs of the union of N = 3, J = [0, 1]
    both = tower.exp[np.flatnonzero(np.arange(tower.order) % 3 < 2)]
    for members, period in ((subset.members, subset.stabiliser_period), (both, 3)):
        (d, _), peak = _traced_peak(lambda: tower.stabiliser(members))
        assert d == period
        assert peak <= 4 * len(members) + 8 * BLOCK + 2 ** 16
