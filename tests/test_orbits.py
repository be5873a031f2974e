"""The orbit-reduced direct oracles against full scans over every class.

The weights are (q, d) columns, one per orbit of the stabiliser <gamma^d>
of the subset, and the supports, filled a block of words at a time, and
any run of support columns of any words come from one kernel; all are
compared bit for bit with the class loops in `reference`, and through
those with the words evaluated one by one.  The cover, Heng and
SNC scans and the rank flags visit one member per orbit of <gamma^d>,
F_q^* scaling, the least Frobenius power x -> x^(p^s) that fixes the
subset and, for a quadric, the reflections of its orthogonal group, and
cover and Heng test blocks of those members at a time.  The orbits are
compared with their closure word by word in `reference` (under every
reflection there, so the library's few must reach the orbits of the whole
orthogonal group), their counts are pinned, and every reflection the
library draws is checked as a code automorphism by linearity and label by
label.  Each computation is compared with the unreduced one: the
per-class violation sets of the one-coverer scans in `reference` over all
projective representatives (against the per-orbit rank flags spread over
them), the first violation of that full scan (verdict and witness), SNC
over every z, and the words evaluated one by one.  SNC over every z, and
all three scans on random quadrics, run on `reference.Unreduced`, the same
code with the trivial period q^m - 1 and no further automorphisms.  The
lines F_q^* w that cover and Heng test one column each, and the dependent
lines of each member, are compared with lists built on field elements, and
the lines that cover flags for each member with those of the reference,
with the block size set so that cover computes its later support columns
one at a time, or the rest of each row at once.  The blocks are pinned to
full size from the first one.  The rank flags that SNC settles by counting
the complement inside each hyperplane equal those of a run that eliminates
every set, and only the words the count leaves open reach the elimination.
The cutting test, which tests one hyperplane per merged orbit of the same
engine, equals the full intersection matrices of `reference` on every
code and on random invariant unions.
"""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
import reference
from reference import (
    Unreduced,
    codeword,
    cover_violations,
    full_flags,
    generator_matrix,
    heng_violations,
    least_frobenius_power,
    orbit_representatives,
    projective_representatives,
    rational_value,
    support_words,
    weight_table,
)
from reference import induced_code_automorphism_check as exhaustive_check

from pdscodes import codes
from pdscodes.blocking import is_cutting_vectorial_blocking
from pdscodes.charsums import psi_sum
from pdscodes.codes import MINIMAL, NOT_MINIMAL, SubsetCode, weight_distribution_predicted
from pdscodes.field import FieldSpec, FieldTower, build_tower, rank_reaches
from pdscodes.pds import (
    FieldSubset,
    PdsVerificationError,
    QuadricOrigin,
    build_cyclotomic_subset,
    is_fq_invariant,
    quadric_subset,
    verify_pds_spectral,
)
from pdscodes.qpoly import (
    QPolynomial,
    induced_code_automorphism_check,
    quadric_reflections,
    tables_induce_code_automorphism,
)
from pdscodes.secretsharing import minimal_access_count


def _hyperplane(tower):
    members = tower.hyperplane(1)
    return FieldSubset(tower, members[members != 0])


def _cyclotomic(N, J):
    return lambda tower: build_cyclotomic_subset(tower, N, J)


def _classes(code, words):
    """The engine's class number of each nonzero word."""
    return codes.word_classes(code.tower, words, code.subset.stabiliser_period)


def _lines(code, words):
    """The line F_q^* w of each nonzero word, numbered as cover and Heng read them."""
    return codes.word_classes(code.tower, words, code.tower.order)


def _line_words(tower):
    """A word of each line, by line number: (0, gamma^c), c < step, (1, 0), (1, gamma^i)."""
    return np.concatenate([tower.exp[: tower.subfield_step],
                           tower.qm + np.append(0, tower.exp)]).astype(np.int64)


# name -> (tower fixture, subset builder, stabiliser period d, Frobenius power s)
CODES = {
    "F_2^4 N=3": ("f16", _cyclotomic(3, [0]), 3, 1),
    "F_2^4 N=5 J=[0,1]": ("f16", _cyclotomic(5, [0, 1]), 5, 4),
    "F_2^4 hyperplane": ("f16", _hyperplane, 15, 1),
    # f(x) = Tr(x): the words (u, u) span the kernel, so one weight column is zero
    "F_2^4 trace form": ("f16", lambda t: FieldSubset(t, np.flatnonzero(reference.trace_p(t) == 1)),
                         15, 1),
    # the first block with a violation has two, whose lowest violating words differ
    "F_2^4 not invariant": ("f16", lambda t: FieldSubset.from_logs(t, [0, 9, 11, 13, 14]), 15, 4),
    # not minimal, s = 2 of em = 6: 19 orbits merge into 11, the last of them
    # holds the cover and Heng witness
    "F_2^6 N=9 J=[6]": ("f64", _cyclotomic(9, [6]), 9, 2),
    "F_3^4 hyperplane": ("f34", _hyperplane, 40, 1),
    "F_3^4 N=10": ("f34", _cyclotomic(10, [0]), 10, 1),
    # x -> x^9 fixes each coset of <gamma^8> (9 = 1 mod 8), so it merges no orbits
    "F_3^4 N=8 J=[0,3]": ("f34", _cyclotomic(8, [0, 3]), 8, 2),
    "F_3^4 elliptic quadric": ("f34", lambda t: quadric_subset(t, kind="elliptic")[0], 40, 4),
    "F_3^4 hyperbolic quadric": ("f34", lambda t: quadric_subset(t, kind="hyperbolic")[0], 40, 4),
    "F_2^8 elliptic quadric": ("f28", lambda t: quadric_subset(t, kind="elliptic")[0], 255, 8),
    "F_3^4 not invariant": ("f34", lambda t: FieldSubset.from_logs(t, [0, 1, 5, 17, 40]), 80, 4),
    "F_3^5 N=11": ("f35", _cyclotomic(11, [0]), 11, 1),
    "F_3^5 hyperplane": ("f35", _hyperplane, 121, 1),
    "F_4^4 N=5 J=[1,2,3,4]": ("f44", _cyclotomic(5, [1, 2, 3, 4]), 5, 1),
    # x -> x^4 sends the cosets 1, 4 to 4, 1 and merges 11 orbits into 7
    "F_4^4 N=5 J=[1,4]": ("f44", _cyclotomic(5, [1, 4]), 5, 2),
    "F_4^4 N=17": ("f44", _cyclotomic(17, [0]), 17, 1),
    "F_4^4 hyperplane": ("f44", _hyperplane, 85, 1),
    "F_4^4 elliptic quadric": ("f44", lambda t: quadric_subset(t, kind="elliptic")[0], 85, 8),
    # the affine hyperplane Tr(x) = 1: no stabiliser, so the g = gcd(d, step)
    # = 10 head classes are fewer than the d = 80 classes of the (1, v)
    "F_9^2 hyperplane Tr = 1": (
        "f92", lambda t: FieldSubset(t, np.flatnonzero(t.trace_labels(1, np.arange(t.qm)) == 1)),
        80, 1),
}


@pytest.fixture(scope="module", params=sorted(CODES))
def code(request):
    fixture, build, _, _ = CODES[request.param]
    return SubsetCode(build(request.getfixturevalue(fixture)))


def full_verdict(code, violations):
    """(status, witness) of a scan over every projective representative."""
    for r in projective_representatives(code).tolist():
        bad = violations(code, r)
        if len(bad):
            return NOT_MINIMAL, (code.word_of_index(int(bad[0])), code.word_of_index(r))
    return MINIMAL, None


def assert_scans_equal_full(code):
    rank = code.word_flags(code.rank_orbit_flags(), projective_representatives(code))
    assert rank.tolist() == full_flags(code, cover_violations) == full_flags(code, heng_violations)
    cover, heng = code.minimality_cover(), code.minimality_heng()
    for verdict, violations in ((cover, cover_violations), (heng, heng_violations)):
        assert (verdict.status, verdict.witness) == full_verdict(code, violations)
    # for w independent of r, sum over lambda != 0 of wt(r + lambda w) is
    # (q - 1) wt(r) - wt(w) exactly when supp w is in supp r (Heng-Ding-Zhou),
    # so both scans flag the same (representative, line) pairs first
    assert (cover.status, cover.witness) == (heng.status, heng.witness)


def assert_reduced_equals_full(code):
    assert_scans_equal_full(code)
    reduced = code.minimality_snc()
    full = Unreduced(code.subset).minimality_snc()
    assert (reduced.status, reduced.witness) == (full.status, full.witness)


def assert_fill_equals_words(code):
    tower = code.tower
    wt = weight_table(code)
    sup = code.supports()
    for u in range(tower.q):
        for v in range(tower.qm):
            nonzero = codeword(code, u, v) != 0
            assert wt[u, v] == np.count_nonzero(nonzero)
            assert np.array_equal(sup[code.word_index(u, v)], np.packbits(nonzero))


def assert_fills_equal_reference(code):
    """The class columns, kernel words, distribution and packed supports
    against the class loops of `reference`, bit for bit."""
    tower, d = code.tower, code.subset.stabiliser_period
    dense = weight_table(code)
    assert np.array_equal(code.weight_table(), dense[:, tower.exp[:d]])
    assert np.array_equal(code.kernel_words(), np.flatnonzero(dense.ravel() == 0))
    weights, freqs = np.unique(dense, return_counts=True)
    assert code.weight_distribution_direct().rows == tuple(zip(weights.tolist(), freqs.tolist()))
    assert np.array_equal(code._supports, support_words(code))


def test_kernel_size_is_the_zero_weight_frequency(code):
    # the kernel from the trace form against the enumerated distribution
    assert code.weight_distribution_direct().as_dict()[0] == len(code.kernel_words())


def test_word_labels_equal_codewords(code):
    # every word's zeros off the value tables, row log v of the label cycle
    # (labels 0 for v = 0) against -u f(x), and on the element route
    tower = code.tower
    cycle, zero_at = code._value_tables
    us, vs = np.divmod(np.arange(code.word_count), tower.qm)
    labels = np.where((vs == 0)[:, None], 0, cycle[tower.log[vs]])
    words = np.stack([codeword(code, u, v) for u, v in zip(us.tolist(), vs.tolist())])
    assert np.array_equal(labels == zero_at[us], words == 0)


def test_generator_matrix_text_equals_element_route(code):
    labels = reference.subfield_index(code.tower)[generator_matrix(code)]
    expected = "".join(" ".join(str(int(x)) for x in row) + "\n" for row in labels)
    assert code.generator_matrix_text() == expected


def test_stabiliser_period_is_least_period(code):
    tower = code.tower
    d = code.subset.stabiliser_period
    mem = code.subset.indicator[tower.exp]
    assert tower.order % d == 0
    assert np.array_equal(np.roll(mem, d), mem)
    assert all(not np.array_equal(np.roll(mem, e), mem) for e in range(1, d))
    assert is_fq_invariant(code.subset) == reference.is_invariant_under_subfield(
        tower, code.subset.members)


@pytest.mark.parametrize("name", sorted(CODES))
def test_stabiliser_period_values(request, name):
    fixture, build, d, _ = CODES[name]
    assert build(request.getfixturevalue(fixture)).stabiliser_period == d


@pytest.mark.parametrize("name", sorted(CODES))
def test_frobenius_power_values(request, name):
    fixture, build, _, s = CODES[name]
    code = SubsetCode(build(request.getfixturevalue(fixture)))
    assert code.subset.frobenius_power == s
    assert code.subset.frobenius_power == least_frobenius_power(code.tower, code.subset.members)


def test_frobenius_power_past_int32_products():
    # S = {x, x^(2^11)}, x = gamma^-1 in F_{2^22}: the stabiliser is trivial,
    # so the cosets are the logs, near 2^22, and times 2^11 they pass 2^31;
    # an int32 product would wrap there and miss s = 11
    tower = build_tower(FieldSpec(p=2, e=1, m=22))
    subset = FieldSubset.from_logs(tower, [-1, -2 ** 11])
    d, cosets = subset.stabiliser
    assert d == tower.order and int(cosets.max()) * 2 ** 11 >= 2 ** 31
    assert subset.frobenius_power == 11


def test_orbit_representatives_equal_closure(code):
    assert np.array_equal(code.orbits.representatives(), orbit_representatives(code))


def test_blocking_on_merged_orbits_equals_reference(code):
    # one hyperplane per merged orbit of the heads, from the engine the scans read
    report = is_cutting_vectorial_blocking(code.subset).to_json()
    assert report == reference.cutting_reference(code.subset)


def test_frobenius_row_equals_element_round_trip(code):
    # the class permutation of x -> x^(p^s), by arithmetic on the class
    # numbers, against the images of the classes' lowest words through log,
    # exp and word_classes; x -> x^(p^em) is the identity and draws no row
    engine = code.orbits
    rows = list(engine.automorphisms())
    images = reference.frobenius_class_images(code)
    if code.subset.frobenius_power < code.tower.em:
        assert np.array_equal(rows[0], images)
    else:
        assert np.array_equal(images, np.arange(len(engine.lowest_words)))
        assert isinstance(code.subset.origin, QuadricOrigin) or rows == []


def test_merge_equals_sorted_route(code):
    # the labels settled on class numbers, each orbit read at the least of
    # its classes' lowest words, against the sorted route: classes ranked by
    # lowest word and joined by union-find along every row
    reps, labels = code.orbits.merged
    expected_reps, expected_labels = reference.sorted_merge(code.orbits)
    assert np.array_equal(reps, expected_reps) and np.array_equal(labels, expected_labels)


# (p, e, m), N, J -> orbits of <gamma^d> and scaling, and with the Frobenius power
ORBIT_COUNTS = {
    "table-2-row-1": ((3, 1, 5), 11, [0], 23, 7),
    "example-3.1": ((2, 2, 4), 5, [1, 2, 3, 4], 11, 5),
    "F_3^8 N=41": ((3, 1, 8), 41, [0], 83, 13),
    "table-2-row-3": ((3, 1, 12), 35, [0], 71, 11),
}


@pytest.mark.parametrize("name", sorted(ORBIT_COUNTS))
def test_frobenius_merged_orbit_counts(name):
    field, N, J, fine, merged = ORBIT_COUNTS[name]
    code = SubsetCode(build_cyclotomic_subset(_tower(*field), N, J))
    assert len(np.unique(_classes(code, projective_representatives(code)))) == fine
    assert len(code.orbits.representatives()) == merged


# (p, e, m), kind -> orbits of F_q^* (every projective word but the v-scalings
# of u = 1) and with the reflections: those of the orthogonal group and F_q^*,
# 7 for odd q and 5 for even q
QUADRIC_ORBIT_COUNTS = {
    "F_3^4 elliptic": ((3, 1, 4), "elliptic", 81, 7),
    "F_3^4 hyperbolic": ((3, 1, 4), "hyperbolic", 81, 7),
    "F_2^8 elliptic": ((2, 1, 8), "elliptic", 511, 5),
    "F_4^4 elliptic": ((2, 2, 4), "elliptic", 171, 5),
    "F_3^8 elliptic": ((3, 1, 8), "elliptic", 6561, 7),
    "F_3^8 hyperbolic": ((3, 1, 8), "hyperbolic", 6561, 7),
    "F_3^10 elliptic": ((3, 1, 10), "elliptic", 59049, 7),
}


def _reflections(code):
    """The (g, g*) tables of the reflections the code draws, one row each."""
    g, dual = zip(*quadric_reflections(code.subset, 2 * code.tower.m))
    return np.concatenate(g), np.concatenate(dual)


@pytest.mark.parametrize("name", sorted(QUADRIC_ORBIT_COUNTS))
def test_reflection_merged_orbit_counts(name):
    field, kind, fine, merged = QUADRIC_ORBIT_COUNTS[name]
    code = SubsetCode(quadric_subset(_tower(*field), kind=kind)[0])
    assert len(np.unique(_classes(code, projective_representatives(code)))) == fine
    assert len(code.orbits.representatives()) == merged
    # every reflection drawn induces a code automorphism (A and B on the tables)
    g, dual = _reflections(code)
    assert len(g) == 2 * code.tower.m
    assert tables_induce_code_automorphism(code.subset, g, dual, True).all()


def test_reflection_failing_the_check_is_refused(f34, monkeypatch):
    # a trace dual with two entries swapped breaks (B): the scans refuse it
    # instead of merging orbits along it
    def corrupted(subset, count):
        for g, dual in quadric_reflections(subset, count):
            dual = dual.copy()
            dual[:, [1, 2]] = dual[:, [2, 1]]
            yield g, dual

    monkeypatch.setattr(codes, "quadric_reflections", corrupted)
    code = SubsetCode(quadric_subset(f34, kind="elliptic")[0])
    with pytest.raises(AssertionError, match="no code automorphism"):
        code.minimality_cover()


@pytest.mark.parametrize("name", ["F_3^4 elliptic quadric", "F_3^4 hyperbolic quadric",
                                  "F_2^8 elliptic quadric", "F_4^4 elliptic quadric"])
def test_reflections_are_code_automorphisms(request, name):
    # each reflection as a q-polynomial: its tables equal the library's (the
    # trace dual by the basis pairs equal to QPolynomial.trace_dual), and it
    # passes the check by linearity and the exhaustive one, label by label
    fixture, build, _, _ = CODES[name]
    code = SubsetCode(build(request.getfixturevalue(fixture)))
    tower = code.tower
    for g, dual in zip(*_reflections(code)):
        poly = QPolynomial(tower, reference.from_basis_images(tower, g[tower.exp[: tower.m]]))
        assert np.array_equal(poly.images(), g)
        assert np.array_equal(poly.trace_dual().images(), dual)
        assert induced_code_automorphism_check(code, poly)
        assert exhaustive_check(code, poly)


def test_non_invariant_period_does_not_divide_step(f35):
    code = SubsetCode(FieldSubset.from_logs(f35, [0, 1]))
    assert code.subset.stabiliser_period == f35.order
    assert f35.subfield_step % code.subset.stabiliser_period != 0


def test_reduced_scans_equal_full_scan(code):
    assert_reduced_equals_full(code)


def test_heng_screened_representatives_have_no_reference_violation(code):
    # Ashikhmin-Barg: when (q - 1) wt(r) < q w_min, w_min the least positive
    # weight, no independent w meets the covering identity with r
    q, wt = code.tower.q, weight_table(code).ravel()
    w_min = wt[wt > 0].min()
    for r in code.orbits.representatives().tolist():
        if (q - 1) * wt[r] < q * w_min:
            assert len(heng_violations(code, r)) == 0


def test_orbit_fill_equals_words(code):
    assert_fill_equals_words(code)


def test_fills_equal_class_loops(code):
    assert_fills_equal_reference(code)
    assert_fills_equal_reference(Unreduced(code.subset))  # d = q^m - 1


def _set_block(monkeypatch, block):
    # the weight count's gathers and the code scans' passes (`field.blocks`)
    # read field.BLOCK
    monkeypatch.setattr("pdscodes.field.BLOCK", block)


@pytest.mark.parametrize("block", [1, 5, 200])
def test_fill_blocks_equal_class_loops(code, monkeypatch, block):
    # blocks of one entry, of a few classes or words, and of part of the
    # subset (or its complement) when it has more than `block` elements
    _set_block(monkeypatch, block)
    assert_fills_equal_reference(SubsetCode(code.subset))


# (p, e, m) of the seeded subsets
SEEDED_FIELDS = [(2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 3), (7, 1, 3), (3, 2, 2)]


def _seeded_subset(tower, kind, seed):
    """"least period": the powers of gamma^r, r the least prime dividing
    q^m - 1, so d = r (d = 1 leaves no proper subset, as gamma generates
    F_{q^m}^*); "union": N and J drawn from the seed; "sparse" and "dense": a
    fifth and four fifths of the nonzero elements, the latter counted over its
    complement (k > n/2)."""
    rng = np.random.default_rng(seed)
    if kind == "least period":
        r = next(r for r in range(2, tower.order + 1) if tower.order % r == 0)
        return FieldSubset.from_logs(tower, range(0, tower.order, r))
    if kind == "union":
        half = tower.order // (1 if tower.p == 2 else 2)  # odd q needs N | (q^m - 1)/2
        N = int(rng.choice([n for n in range(2, half) if half % n == 0]))
        return build_cyclotomic_subset(tower, N, rng.permutation(N)[: rng.integers(1, N)].tolist())
    size = tower.order // 5 * (1 if kind == "sparse" else 4)
    return FieldSubset.from_logs(tower, rng.choice(tower.order, size=size, replace=False))


@pytest.mark.parametrize("kind", ["least period", "union", "sparse", "dense"])
@pytest.mark.parametrize("field", SEEDED_FIELDS,
                         ids=[f"F_{p ** e}^{m}" for p, e, m in SEEDED_FIELDS])
def test_seeded_fills_equal_class_loops(field, kind):
    tower = _tower(*field)
    for seed in range(3):
        code = SubsetCode(_seeded_subset(tower, kind, seed))
        assert (2 * len(code.subset) > tower.order) == (kind == "dense") or kind == "union"
        assert kind != "least period" or code.subset.stabiliser_period * len(code.subset) == tower.order
        assert_fills_equal_reference(code)


def assert_block_schedule(code, most):
    """_block_scan yields ceil(len(reps) / most) blocks, in order, each of most
    representatives but the last, which holds the rest."""
    reps = code.orbits.representatives()
    blocks = [block for block, _ in code._block_scan(code._heng_test)]
    assert [len(block) for block in blocks] == [
        min(most, len(reps) - start) for start in range(0, len(reps), most)]
    assert np.array_equal(np.concatenate(blocks), reps)


def _first_violation(code):
    """The position among the orbit representatives of the coverer that the
    full reference scan names first, None for a minimal code."""
    _, witness = full_verdict(code, cover_violations)
    if witness is None:
        return None
    return code.orbits.representatives().tolist().index(code.word_index(*witness[1]))


def _recording(test, starts):
    """test, noting the first representative of each block it is given."""
    def recorded(part):
        starts.append(part.start)
        return test(part)
    return recorded


# representatives per block, given the position i of the first violation (0
# for a minimal code): i inside the first block, past it, opening a block or
# closing one
PER_BLOCK = {"one entry": lambda i: 1, "one rep": lambda i: 1, "two reps": lambda i: 2,
             "first block": lambda i: i + 2, "past the first block": lambda i: max(1, i // 2),
             "block start": lambda i: max(1, i), "block end": lambda i: i + 1}


@pytest.mark.parametrize("cap", sorted(PER_BLOCK))
def test_block_boundaries_equal_full_scan(code, monkeypatch, cap):
    # blocks of one and two representatives put every block boundary in play;
    # a cap of one entry also makes cover screen every support column
    first = _first_violation(code)
    most = PER_BLOCK[cap](first or 0)
    _set_block(monkeypatch, 1 if cap == "one entry" else most * code.word_count)
    assert_block_schedule(code, most)
    # each scan tests the blocks up to the one that holds its first violation
    starts = []
    for name in ("_cover_test", "_heng_test"):
        make = getattr(code, name)
        monkeypatch.setattr(code, name, lambda make=make: _recording(make(), starts))
    assert_scans_equal_full(code)
    blocks = -(-len(code.orbits.representatives()) // most) if first is None else first // most + 1
    assert starts == 2 * list(range(0, blocks * most, most))


@pytest.mark.parametrize("block", [1, 7, 64, 2 ** 16])
def test_full_size_blocks_equal_full_scan(code, monkeypatch, block):
    # BLOCK // word_count representatives from the first block on, 1 to 2048 here
    _set_block(monkeypatch, block)
    assert_block_schedule(code, max(1, block // code.word_count))
    cover, heng = code.minimality_cover(), code.minimality_heng()
    for verdict, violations in ((cover, cover_violations), (heng, heng_violations)):
        assert (verdict.status, verdict.witness) == full_verdict(code, violations)
    # for w independent of r, sum over lambda != 0 of wt(r + lambda w) is
    # (q - 1) wt(r) - wt(w) exactly when supp w is in supp r (Heng-Ding-Zhou),
    # so both scans flag the same (representative, line) pairs first
    assert (cover.status, cover.witness) == (heng.status, heng.witness)


@pytest.mark.parametrize("block", [1, 200, 2 ** 16])
def test_support_columns_equal_reference(code, monkeypatch, block):
    # any words, v = 0 among them, and any run of columns, the last one partly
    # padding; in parts of one word, of a few, or of all of them
    _set_block(monkeypatch, block)
    ref = support_words(code)
    width = ref.shape[1]
    rng = np.random.default_rng(width)
    words = np.concatenate([np.arange(0, code.word_count, code.tower.qm),
                            rng.choice(code.word_count, 40)])
    us, vs = np.divmod(words, code.tower.qm)
    logs = code.tower.log[vs]  # -1 for v = 0
    for start, stop in sorted({(0, 1), (0, width), (width - 1, width), (width // 2, width)}):
        assert np.array_equal(code._support_columns(us, logs, start, stop),
                              ref[words, start:stop])
        parts = list(code._support_blocks(us, logs, start, stop))
        assert np.array_equal(np.concatenate([cols for _, cols in parts]), ref[words, start:stop])
        assert [part.start for part, _ in parts] == list(range(0, len(words), len(parts[0][1])))


def _pairs_past_the_first_column(code):
    """Whether a line vector-independent of some orbit representative r has a
    first support column inside r's, r vanishing somewhere past that column,
    by the reference."""
    sup, lines = support_words(code), _line_words(code.tower)
    width = sup.shape[1]
    coordinates = np.packbits(np.arange(64 * width) < code.n).view(np.uint64)
    for r, dependent in zip(code.orbits.representatives(), code._dependents):
        inside = (sup[lines, 0] & ~sup[r, 0]) == 0
        inside[dependent] = False
        if inside.any() and (coordinates & ~sup[r])[1:].any():
            return True
    return False


def assert_cover_flags_equal_reference(code, monkeypatch, block):
    """Every representative's violating lines, the verdict and the witness of
    cover with BLOCK = block are those of the one-coverer reference scan;
    one entry makes cover walk the support columns one at a time, 2^16
    compare each pair still inside after the first column on the rest of
    its row at once."""
    _set_block(monkeypatch, block)
    code = SubsetCode(code.subset)
    width = (code.n + 63) // 64
    past = _pairs_past_the_first_column(code)
    ranges = set()
    columns = SubsetCode._support_columns

    def recorded(self, us, logs, start, stop):
        ranges.add((start, stop))
        return columns(self, us, logs, start, stop)

    monkeypatch.setattr(SubsetCode, "_support_columns", recorded)
    flags = {}
    for reps, bad in code._block_scan(code._cover_test):
        for r, row in zip(reps.tolist(), bad):
            flags[r] = np.flatnonzero(row).tolist()
    assert list(flags) == code.orbits.representatives().tolist()
    for r, lines in flags.items():
        assert lines == sorted(set(_lines(code, cover_violations(code, r)).tolist()))
    verdict = code.minimality_cover()
    assert (verdict.status, verdict.witness) == full_verdict(code, cover_violations)
    advanced = any(stop - start == 1 and start > 0 for start, stop in ranges)
    finished = any(start > 0 and stop == width > start + 1 for start, stop in ranges)
    if width > 2 and past and block == 1:
        assert advanced and not finished
    if width > 2 and past and block == 2 ** 16:
        assert finished and not advanced
    assert past or not (advanced or finished)


@pytest.mark.parametrize("block", [1, 64, 2 ** 16])
def test_cover_flags_equal_reference(code, monkeypatch, block):
    assert_cover_flags_equal_reference(code, monkeypatch, block)


# (p, m, size): random sets of logs with no stabiliser, on which many
# vector-independent pairs stay inside on the first support column and escape
# on the second alone
SPARSE = {"F_2^7, 10 logs": (2, 7, 10), "F_3^5, 20 logs": (3, 5, 20), "F_2^8, 5 logs": (2, 8, 5)}


@pytest.mark.parametrize("block", [1, 64, 2 ** 16])
@pytest.mark.parametrize("name", sorted(SPARSE))
def test_sparse_cover_flags_equal_reference(name, monkeypatch, block):
    p, m, size = SPARSE[name]
    tower = _tower(p, 1, m)
    logs = np.random.default_rng(0).choice(tower.order, size=size, replace=False)
    code = SubsetCode(FieldSubset.from_logs(tower, logs))
    assert _pairs_past_the_first_column(code)
    assert_cover_flags_equal_reference(code, monkeypatch, block)


def test_first_witness_beyond_first_blocks(f34, monkeypatch):
    code = SubsetCode(build_cyclotomic_subset(f34, 10, [0]))
    reps = code.orbits.representatives().tolist()
    for per_block in (1, 2):
        _set_block(monkeypatch, per_block * code.word_count)
        for verdict in (code.minimality_cover(), code.minimality_heng()):
            coverer = code.word_index(*verdict.witness[1])
            assert reps.index(coverer) >= 1 + per_block  # past the first block of per_block
            assert (verdict.status, verdict.witness) == (NOT_MINIMAL, ((0, 15), (1, 15)))


def test_projective_representatives_equal_list_form(code):
    # the lowest words, column minima of exp, are the lowest words of the
    # classes among the projective words listed one by one, by class number
    words = projective_representatives(code)  # ascending: a class's first is its lowest
    numbers, first = np.unique(_classes(code, words), return_index=True)
    assert np.array_equal(numbers, np.arange(len(code.orbits.lowest_words)))
    assert np.array_equal(code.orbits.lowest_words, words[first])


def test_class_orbit_is_lowest_class_of_its_orbit(code):
    reps = projective_representatives(code)
    orbit = code.orbits.lowest_words[_classes(code, reps)]
    assert set(orbit.tolist()) <= set(reps.tolist())
    for o in np.unique(orbit).tolist():
        assert o == reps[orbit == o].min()
    assert len(np.unique(orbit)) == 1 + code.subset.stabiliser_period + np.gcd(
        code.subset.stabiliser_period, code.tower.subfield_step)
    assert np.array_equal(np.sort(code.orbits.lowest_words), np.unique(orbit))


def test_orbit_picks_equal_sorted_unique(code):
    # the least j of each merged orbit among the words (u, gamma^j), u = 0
    # with j < gcd(d, step) and u = 1 with j < d, and the orbit of each j, as
    # np.unique's first indices and inverse give them on the orbit indices
    tower, d = code.tower, code.subset.stabiliser_period
    for u, count in ((0, np.gcd(d, tower.subfield_step)), (1, d)):
        words = code.word_index(u, tower.exp[:count].astype(np.int64))
        _, js, at = np.unique(code.orbits.orbit_index(words), return_index=True,
                              return_inverse=True)
        picked, where = code.orbits.picks(u)
        assert np.array_equal(picked, js) and np.array_equal(where, at)


@pytest.mark.parametrize("p, e, m", [(2, 1, 4), (3, 1, 4), (2, 2, 4), (5, 1, 3), (3, 2, 2)])
def test_line_layout_equals_element_route(p, e, m):
    # the q - 1 multiples of every nonzero word, computed on field elements,
    # share one line number (word_classes at d = q^m - 1); the line words
    # (0, gamma^c), c < step, (1, 0) and (1, gamma^i) number 0, 1, ... in order
    tower = _tower(p, e, m)
    step, lines = tower.subfield_step, np.arange(tower.subfield_step + tower.qm)
    code = SubsetCode(_hyperplane(tower))
    _, mul_q, _ = tower.subfield_tables()
    u, v = np.divmod(np.arange(1, code.word_count), tower.qm)
    multiples = np.stack([code.word_index(mul_q[lam, u], tower.mul_vec(int(c), v))
                          for lam, c in enumerate(tower.subfield_elements.tolist()) if lam])
    columns = _lines(code, multiples)
    assert np.all(columns == columns[0])
    assert np.array_equal(_lines(code, _line_words(tower)), lines)
    # a scan that flags some lines of its first representative is witnessed
    # by their least word, the least multiple of a word on them
    least = np.empty(len(lines), dtype=np.int64)
    least[columns[0]] = multiples.min(axis=0)
    free = np.setdiff1d(lines, code._dependents[0])
    rng = np.random.default_rng(p * e * m)
    for flagged in [free[:3], free[free > step][-3:], free[free >= step][:2],
                    *(rng.choice(free, 4, replace=False) for _ in range(10))]:
        row = np.isin(lines, flagged)
        verdict = code._scan_verdict(lambda: lambda part: np.tile(row, (part.stop - part.start, 1)), "")
        assert verdict.witness[0] == code.word_of_index(int(least[flagged].min()))


def test_dependent_columns_equal_reference(code):
    reps = code.orbits.representatives().tolist()
    for r, row in zip(reps, code._dependents):
        words = reference.dependent_words(code, r)
        assert set(row.tolist()) == set(_lines(code, words[words != 0]).tolist())


@pytest.mark.parametrize("p, e, m, N, J, witness", [
    (3, 1, 4, 10, [0], ((0, 15), (1, 15))),
    (3, 2, 2, 8, [0, 1], ((0, 14), (1, 14))),
])
def test_witness_on_a_line_whose_least_word_is_no_head(p, e, m, N, J, witness):
    # the covered word (0, v) is the least word of its line F_q^* v but not
    # the gamma^j, j < subfield_step, that stands for the line elsewhere
    code = SubsetCode(build_cyclotomic_subset(_tower(p, e, m), N, J))
    tower = code.tower
    (u, v), _ = witness
    assert u == 0 and v not in tower.exp[:tower.subfield_step]
    assert v == tower.mul_vec(v, tower.subfield_elements[1:]).min()
    for verdict, violations in ((code.minimality_cover(), cover_violations),
                                (code.minimality_heng(), heng_violations)):
        assert (verdict.status, verdict.witness) == (NOT_MINIMAL, witness)
        assert verdict.witness == full_verdict(code, violations)[1]


def test_n10_witnesses(f34):
    # a non-minimal report that carries witnesses; d = 10 against 80 elements
    code = SubsetCode(build_cyclotomic_subset(f34, 10, [0]))
    assert code.minimality_cover().to_json()["witness"] == [[0, 15], [1, 15]]
    assert code.minimality_heng().to_json()["witness"] == [[0, 15], [1, 15]]
    assert code.minimality_snc().to_json()["witness"] == ["empty_slice", [1, 21]]
    assert Unreduced(code.subset).minimality_snc().to_json()["witness"] == [
        "empty_slice", [1, 21]]


@pytest.mark.parametrize("name", ["F_2^4 hyperplane", "F_2^4 not invariant", "F_3^4 hyperplane",
                                  "F_3^4 N=10", "F_4^4 N=5 J=[1,4]", "F_4^4 hyperplane"])
def test_oracle_total_equals_full_flags(request, name):
    fixture, build, _, _ = CODES[name]
    code = SubsetCode(build(request.getfixturevalue(fixture)))
    tower = code.tower
    _, mul_q, _ = tower.subfield_tables()
    flags = dict(zip(projective_representatives(code).tolist(),
                     full_flags(code, cover_violations)))
    for x1 in tower.exp[:: max(1, tower.order // 7)].tolist():
        total, oracle_total = minimal_access_count(code, int(x1), code_is_minimal=False)
        # each word with a 1 at x1, scaled to its projective representative
        expected = 0
        for w in np.flatnonzero(reference.value_labels_at(code, int(x1)) == 1).tolist():
            u, v = code.word_of_index(w)
            if u:
                inv = next(lam for lam in range(1, tower.q) if mul_q[u, lam] == 1)
                scale = int(tower.subfield_elements[inv])
                rep = code.word_index(1, reference.mul(tower, scale, v))
            else:
                rep = code.word_index(0, int(tower.exp[int(tower.log[v]) % tower.subfield_step]))
            expected += flags[rep]
        assert (total, oracle_total) == (tower.qm, expected)


# -- random quadrics ---------------------------------------------------------------

QUADRIC_FIELDS = [(2, 1, 6), (3, 1, 4), (2, 2, 4), (2, 1, 8)]


def random_gram(draw, tower):
    """A random upper-triangular Gram matrix of dense F_q labels."""
    m = tower.m
    entries = draw(st.lists(st.integers(0, tower.q - 1), min_size=m * m, max_size=m * m))
    return [[entries[i * m + j] if j >= i else 0 for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("field", QUADRIC_FIELDS, ids=[f"F_{p ** e}^{m}" for p, e, m in QUADRIC_FIELDS])
@settings(derandomize=True, database=None, max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_random_quadrics_reduced_equals_unreduced(field, data):
    tower = _tower(*field)
    try:
        subset = quadric_subset(tower, gram=random_gram(data.draw, tower))[0]
    except ValueError:  # a degenerate form
        assume(False)
    code, full = SubsetCode(subset), Unreduced(subset)
    assert len(code.orbits.representatives()) == (7 if tower.p > 2 else 5)
    if tower.qm <= 81:  # the closure under every reflection, word by word
        assert np.array_equal(code.orbits.representatives(), orbit_representatives(code))
    for method in ("minimality_cover", "minimality_heng", "minimality_snc"):
        reduced, unreduced = getattr(code, method)(), getattr(full, method)()
        assert (reduced.status, reduced.witness) == (unreduced.status, unreduced.witness)


# -- random F_q^*-invariant unions ------------------------------------------------

SMALL_FIELDS = [(2, 1, 4), (2, 1, 6), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3)]
# p in {2, 3, 5, 7}, e in {1, 2}
WEIGHT_FIELDS = [(2, 1, 6), (2, 2, 3), (3, 1, 4), (3, 2, 2), (5, 1, 3), (5, 2, 2), (7, 1, 3),
                 (7, 2, 2)]


@lru_cache(maxsize=None)
def _tower(p, e, m):
    return build_tower(FieldSpec(p=p, e=e, m=m))


@st.composite
def invariant_unions(draw, fields=SMALL_FIELDS):
    """A union of cosets of <gamma^n> for some n dividing the subfield step."""
    tower = _tower(*draw(st.sampled_from(fields)))
    step = tower.subfield_step
    n = draw(st.sampled_from([n for n in range(2, step + 1) if step % n == 0]))
    residues = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    logs = [r + k * n for r in residues for k in range(tower.order // n)]
    return n, FieldSubset.from_logs(tower, logs)


@settings(derandomize=True, database=None, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invariant_unions())
def test_random_invariant_unions_reduced_equals_full(case):
    n, subset = case
    assert is_fq_invariant(subset)
    code = SubsetCode(subset)
    assert n % code.subset.stabiliser_period == 0
    assert_reduced_equals_full(code)
    assert_fill_equals_words(code)


@settings(derandomize=True, database=None, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invariant_unions())
def test_random_invariant_unions_blocking_equals_reference(case):
    subset = case[1]
    assert is_cutting_vectorial_blocking(subset).to_json() == reference.cutting_reference(subset)


@pytest.mark.parametrize("field", WEIGHT_FIELDS)
@settings(derandomize=True, database=None, max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_invariant_unions_weights_equal_closed_form(field, data):
    _, subset = data.draw(invariant_unions([field]))
    code = SubsetCode(subset)
    tower = code.tower
    wt = weight_table(code)
    # q^m - q^(m-1) + psi(vD) for u, v nonzero
    psi = [rational_value(psi_sum(tower, v, subset.members)) for v in range(1, tower.qm)]
    closed = tower.qm - tower.qm // tower.q + np.array(psi)
    assert (wt[1:, 1:] == closed).all()
    try:
        cert, _ = verify_pds_spectral(subset)
    except PdsVerificationError:
        return
    predicted = weight_distribution_predicted(cert, tower.q, tower.m)
    assert predicted.rows == code.weight_distribution_direct().rows


# -- count-first SNC ranks ------------------------------------------------------


def _uncounted_words(code):
    """(sizes, slices, complement), from the words evaluated one by one.  The
    count leaves an orbit representative (u, v) open when its target
    t = k - 1 - [D_{u,v} nonempty] lies in 1..m - [v != 0] (the span lies in
    H_v, or in the field for v = 0) and |D̄_v| < q^(t - 1); sizes lists
    |((D_{u,v} - x_0) ∩ D) ∪ D̄_v| for those words, slices sums their
    |D_{u,v}|, and complement says whether (1, 0), whose zeros are D̄, is
    among them."""
    tower, k = code.tower, code.dimension()
    xs, on = tower.exp.astype(np.int64), code.subset.indicator[tower.exp]
    sizes, slices, complement = [], [], False
    for r in code.orbits.representatives().tolist():
        u, v = code.word_of_index(r)
        zero = codeword(code, u, v) == 0
        ones = xs[zero & on]
        inner = k - 1 - (len(ones) > 0)
        dbar = np.count_nonzero(zero & ~on)
        if not 0 < inner <= tower.m - (v != 0) or dbar >= tower.q ** (inner - 1):
            continue
        diffs = tower.add_sets(ones, reference.neg_table(tower)[ones[:1]])
        sizes.append(dbar + np.count_nonzero(code.subset.indicator[diffs]))
        slices.append(len(ones))
        complement |= v == 0
    return sorted(sizes), sum(slices), complement


def assert_count_first_snc_exact(code):
    """The rank flags, the SNC verdict and its witness equal those of a run
    with the count certificate patched off (every set then eliminated) and the
    reference; only the words whose count leaves the rank open reach
    `add_sets` and `rank_reaches`, (1, 0) among them, and no subset's
    complement is built."""
    tower = code.tower
    sizes, slices, _ = _uncounted_words(code)
    fresh = SubsetCode(code.subset)
    fresh.dimension(), fresh.orbits.representatives(), tower.subfield_tables()  # cached set-up
    counts, added, built = [], [], []
    add_sets = FieldTower.add_sets
    complement_of = FieldSubset.complement

    def counted_reaches(tower, elems, target, count=None):
        counts.extend(count.tolist())
        return rank_reaches(tower, elems, target, count)

    def counted_add(self, xs, ys):
        added.append(len(xs))
        return add_sets(self, xs, ys)

    def counted_complement(self):
        built.append(self)
        return complement_of(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "rank_reaches", counted_reaches)
        mp.setattr(FieldTower, "add_sets", counted_add)
        mp.setattr(FieldSubset, "complement", counted_complement)
        flags = fresh.rank_orbit_flags()[1]
    assert (sorted(counts), sum(added), len(built)) == (sizes, slices, 0)
    snc = fresh.minimality_snc()

    def uncounted(tower, count, target):
        return np.asarray(target) <= 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "counted_rank", uncounted)  # the SNC pre-screen
        mp.setattr("pdscodes.field.counted_rank", uncounted)  # and rank_reaches' own
        off = SubsetCode(code.subset)
        assert np.array_equal(off.rank_orbit_flags()[1], flags)
        off_snc = off.minimality_snc()
    assert (snc.status, snc.witness) == (off_snc.status, off_snc.witness)
    if code.dimension() == tower.m + 1:
        assert (snc.status, snc.witness) == reference.snc_reference(code)
    else:  # f is a trace form: a simplex code, outside the paper's criterion
        assert snc.status == MINIMAL


def test_count_first_snc_exact(code):
    assert_count_first_snc_exact(code)


@settings(derandomize=True, database=None, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invariant_unions())
def test_random_invariant_unions_count_first_snc_exact(case):
    assert_count_first_snc_exact(SubsetCode(case[1]))


@pytest.mark.parametrize("name, uncounted, complement", [
    ("F_2^4 N=5 J=[0,1]", 4, False), ("F_4^4 N=5 J=[1,2,3,4]", 4, True), ("F_3^4 N=10", 0, False)])
def test_count_first_takes_both_branches(request, name, uncounted, complement):
    # the count leaves words with v != 0 to the elimination on some fixture
    # codes, and (1, 0) joins them on one; on others it settles every word
    fixture, build, _, _ = CODES[name]
    sizes, _, open_ = _uncounted_words(SubsetCode(build(request.getfixturevalue(fixture))))
    assert (len(sizes) - open_, open_) == (uncounted, complement)
