import re
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import (
    DenseSpectrum,
    coset_logs,
    is_invariant_under_subfield,
    least_period,
    mul,
    pointwise_rows,
    rational_value,
    route_spectrum,
    trace_q,
    transform_rows,
)

from pdscodes import charsums, pds
from pdscodes.charsums import (
    Spectrum,
    SpectrumError,
    full_spectrum,
    parseval_total,
    psi_sum,
    route_costs,
    squared_norms,
    stabiliser_spectrum,
)
from pdscodes.field import FieldSpec, GuardExceeded, build_tower
from pdscodes.pds import (
    FieldSubset,
    build_cyclotomic_subset,
    predicted_cyclotomic_eigenvalues,
    quadric_subset,
    verify_pds_spectral,
)


def _power_residues(tower, n):
    """Index-n power residue set {gamma^(n*i)} as an element array."""
    return tower.exp[np.arange(0, tower.order, n)].astype(np.int64)


def test_psi_sum_trivial_cases(f35):
    members = _power_residues(f35, 11)
    assert psi_sum(f35, 0, members) == (len(members), 0, 0)
    full = f35.exp[np.arange(f35.order)].astype(np.int64)
    for a in (1, int(f35.exp[40])):
        assert rational_value(psi_sum(f35, a, full)) == -1


def test_trace_count_table_partition(f35):
    members = _power_residues(f35, 11)
    for a in (0, 1, int(f35.exp[7])):
        assert sum(psi_sum(f35, a, members)) == len(members)


def test_orthogonality_exhaustive_f35(f35):
    # the sum over lambda in F_q of the character at lambda x is q or 0
    hits = 0
    for x in range(f35.qm):
        val = rational_value(psi_sum(f35, x, f35.subfield_elements))
        assert val == (f35.q if trace_q(f35)[x] == 0 else 0)
        hits += val == f35.q
    assert hits == 81


def test_spectrum_empty_set(f34):
    for members in (np.array([], dtype=np.int64), []):
        spec = full_spectrum(f34, members)
        assert spec.set_size == 0
        assert all(spec.value(a) == (0, 0, 0) for a in range(f34.qm))


def test_spectrum_value_at_zero_is_size(f34):
    rng = np.random.default_rng(2)
    members = rng.choice(np.arange(1, f34.qm), size=17, replace=False)
    spec = full_spectrum(f34, members)
    assert spec.value(0) == (17, 0, 0)


def test_spectrum_rejects_elements_outside_the_field(f34):
    # unchecked, -4 would read the row of 77 and 81 would index past log's end
    spec = full_spectrum(f34, build_cyclotomic_subset(f34, 10, [0]).members)
    for a in (-4, 81):
        with pytest.raises(ValueError, match=r"outside the field's elements \[0, 81\)"):
            spec.value(a)
        with pytest.raises(ValueError, match=r"\[0, 81\)"):
            spec.row(a)


def test_power_residue_spectrum_f35(f35):
    # index-11 residues: 22 elements, nonzero-a values {4, -5}
    members = _power_residues(f35, 11)
    assert len(members) == 22
    spec = full_spectrum(f35, members)
    assert spec.all_rational
    assert spec.restricted_values() == [(4, 132), (-5, 110)]


def test_modes_agree_bit_exactly(f35, f44, f34):
    rng = np.random.default_rng(4)
    for tower in (f35, f44, f34):
        members = rng.choice(np.arange(1, tower.qm), size=tower.qm // 3, replace=False)
        a = route_spectrum(tower, members, "pointwise")
        b = route_spectrum(tower, members, "transform")
        assert np.array_equal(a.raw[:, : tower.p - 1] - a.raw[:, -1:],
                              b.raw[:, : tower.p - 1] - b.raw[:, -1:])


def test_scaled_sum_invariance(f44):
    members = _power_residues(f44, 5)  # subgroup of index 5, F_4^*-invariant
    rng = np.random.default_rng(6)
    lams = f44.subfield_elements[1:].tolist()
    for a in rng.integers(0, f44.qm, size=20).tolist() + [0]:
        for lam in lams:
            assert psi_sum(f44, mul(f44, lam, a), members) == psi_sum(f44, a, members)
    # a set that is not invariant breaks the identity
    bad = np.array([1, int(f44.exp[2])], dtype=np.int64)
    assert is_invariant_under_subfield(f44, np.sort(members))
    assert not is_invariant_under_subfield(f44, bad)
    assert any(psi_sum(f44, mul(f44, lam, a), bad) != psi_sum(f44, a, bad)
               for a in range(1, f44.qm) for lam in lams)


def test_complement_relation(f35):
    # S and its complement in F^* count, between them, the trace values on F^*
    members = _power_residues(f35, 11)
    full = f35.exp[np.arange(f35.order)].astype(np.int64)
    comp = np.setdiff1d(full, members)
    s1 = full_spectrum(f35, members)
    s2 = full_spectrum(f35, comp)
    for a in range(1, f35.qm):
        both = psi_sum(f35, a, full)
        assert tuple(map(sum, zip(s1.value(a), s2.value(a)))) == both
        assert rational_value(both) == -1


def test_parseval_on_random_subsets(f34):
    rng = np.random.default_rng(8)
    for _ in range(20):
        size = int(rng.integers(1, f34.qm - 1))
        members = rng.choice(np.arange(1, f34.qm), size=size, replace=False)
        spec = full_spectrum(f34, members)
        assert parseval_total(spec) == f34.qm * size


def test_parseval_with_irrational_norms():
    # over F_5 a single |value|^2 can be irrational (2 + zeta + zeta^4 at
    # some a); only the total over all a is the rational q^m * |S|
    tower = build_tower(FieldSpec(p=5, e=1, m=2))
    members = np.array([1, 2, 7])
    spec = full_spectrum(tower, members)
    sq = squared_norms(spec.raw)
    assert np.any(sq[:, 1:] != 0)
    assert parseval_total(spec) == tower.qm * len(members)


def test_corrupted_raw_changes_the_parseval_total(f34):
    # the total is taken block by block from the cached dense array itself,
    # so a corrupted entry of raw shows in it
    spec = full_spectrum(f34, quadric_subset(f34, kind="elliptic")[0].members)
    total = parseval_total(spec)
    spec.raw[1, 0] += 1
    assert parseval_total(spec) != total


def test_irrational_spectrum_detected(f35):
    # a single element gives genuinely irrational character values
    spec = full_spectrum(f35, np.array([1], dtype=np.int64))
    assert not spec.all_rational
    with pytest.raises(ValueError):
        spec.rational_values()


def test_example31_character_values_rational(f44):
    members = np.concatenate(
        [f44.exp[np.arange(j, f44.order, 5)].astype(np.int64) for j in (1, 2, 3, 4)]
    )
    rng = np.random.default_rng(10)
    for a in rng.integers(1, f44.qm, size=12).tolist():
        assert rational_value(psi_sum(f44, int(a), members)) in (12, -4)


# -- routes: the orbit count, the transform and the unreduced count -----------

ROUTE_FIELDS = [(2, 1, 4), (2, 1, 6), (2, 2, 3), (3, 1, 3), (3, 1, 5), (3, 2, 2),
                (5, 1, 3), (5, 2, 2), (7, 1, 2), (7, 2, 2)]


@lru_cache(maxsize=None)
def _route_tower(p, e, m):
    return build_tower(FieldSpec(p=p, e=e, m=m))


@st.composite
def route_inputs(draw):
    """A tower and members: class unions, F_q^*-invariant unions, other sets,
    the empty set and singletons, each possibly with 0 added."""
    tower = _route_tower(*draw(st.sampled_from(ROUTE_FIELDS)))
    order = tower.order
    kind = draw(st.sampled_from(["classes", "invariant", "other", "empty", "singleton"]))
    if kind in ("classes", "invariant"):
        base = order if kind == "classes" else tower.subfield_step
        n = draw(st.sampled_from([n for n in range(1, base + 1) if base % n == 0]))
        residues = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        logs = [r + k * n for r in residues for k in range(order // n)]
    elif kind == "other":
        size = draw(st.integers(2, order))
        seed = draw(st.integers(0, 2 ** 32 - 1))
        logs = np.random.default_rng(seed).choice(order, size=size, replace=False)
    elif kind == "singleton":
        logs = [draw(st.integers(0, order - 1))]
    else:
        logs = []
    members = tower.exp[np.asarray(logs, dtype=np.int64)].astype(np.int64)
    if draw(st.booleans()):
        members = np.append(members, 0)
    return tower, members


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(route_inputs())
def test_spectrum_routes_agree_bit_for_bit(case):
    tower, members = case
    period, cosets = tower.stabiliser(members)
    assert period == least_period(tower, members)
    assert np.array_equal(cosets, coset_logs(tower, members, period))
    default = full_spectrum(tower, members)
    orbit = Spectrum(tower, charsums._spectrum_orbit(tower, period, cosets, len(members)),
                     period, len(members))
    butterfly = Spectrum(tower, charsums._spectrum_transform(tower, members), tower.order,
                         len(members))
    transform = route_spectrum(tower, members, "transform")
    pointwise = route_spectrum(tower, members, "pointwise")
    for spec in (default, orbit, butterfly, pointwise):
        assert np.array_equal(spec.raw, transform.raw)
    assert default.set_size == transform.set_size == pointwise.set_size == len(members)
    direct = [psi_sum(tower, a, members) for a in range(tower.qm)]
    for spec in (default, orbit, butterfly, transform, pointwise):
        assert_rows_read_as_dense(spec, direct)


# (p, e, m) of the fields the Gauss-period count is checked on, every
# divisor d of q^m - 1 in turn: d = 1, c = 2 and c = 1 among them
FOLD_FIELDS = [(2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 3), (7, 1, 3), (3, 2, 2)]


@pytest.mark.parametrize("width", [charsums.FOLD_WIDTH, 8], ids=["default-width", "width-8"])
@pytest.mark.parametrize("field", FOLD_FIELDS, ids=lambda f: "F_%d^(%d*%d)" % f)
def test_gauss_period_rows_equal_references(field, width, monkeypatch):
    # a random union of cosets of <gamma^d>, with and without 0; width 8 lays
    # the (c, d) array out in blocks of rows plus a remainder even when c is
    # small.  A fresh tower holds no tables yet, so each width counts afresh
    monkeypatch.setattr(charsums, "FOLD_WIDTH", width)
    tower = build_tower(FieldSpec(*field))
    order = tower.order
    rng = np.random.default_rng(order)
    for d in (d for d in range(1, order + 1) if order % d == 0):
        cosets = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
        logs = (cosets[:, None] + d * np.arange(order // d)).ravel()
        for zero in (False, True):
            members = tower.exp[logs].astype(np.int64)
            if zero:
                members = np.append(members, 0)
            period, cosets = tower.stabiliser(members)
            assert period == least_period(tower, members) and d % period == 0
            assert np.array_equal(cosets, coset_logs(tower, members, period))
            pointwise = route_spectrum(tower, members, "pointwise")
            assert np.array_equal(pointwise.raw, route_spectrum(tower, members, "transform").raw)
            assert np.array_equal(full_spectrum(tower, members).raw, pointwise.raw)
            for k in (period, d):
                rows = charsums._spectrum_orbit(tower, k, coset_logs(tower, members, k),
                                                len(members))
                orbit = Spectrum(tower, rows, k, len(members))
                assert np.array_equal(orbit.raw, pointwise.raw)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("field", FOLD_FIELDS, ids=lambda f: "F_%d^(%d*%d)" % f)
def test_held_gauss_periods_equal_a_fresh_count(field):
    # every divisor d in turn on a fresh tower: more tables than the bound
    # lets the tower hold, so some are counted afresh on every call
    tower = build_tower(FieldSpec(*field))
    for d in _divisors(tower.order):
        for _ in range(2):
            table = charsums.gauss_periods(tower, d)
            assert np.array_equal(table, charsums._gauss_periods(tower, d))
            assert table.dtype == charsums._gauss_periods(tower, d).dtype
            assert not table.flags.writeable
    held = charsums._HELD_PERIODS[tower]
    assert 0 < len(held) < len(_divisors(tower.order))
    assert sum(table.nbytes for table in held.values()) <= tower.trace_of_exp.nbytes
    # a held table is handed out again, not recounted
    assert all(charsums.gauss_periods(tower, d) is table for d, table in held.items())


@pytest.mark.parametrize("field", [(2, 1, 12), (3, 1, 8)], ids=["F_2^12", "F_3^8"])
def test_held_periods_stay_within_trace_of_exp(field):
    # the periods asked for in descending order, so the large tables come
    # first and would crowd the bound if they were held
    tower = build_tower(FieldSpec(*field))
    for d in _divisors(tower.order)[::-1]:
        charsums.gauss_periods(tower, d)
        held = charsums._HELD_PERIODS[tower]
        assert sum(table.nbytes for table in held.values()) <= tower.trace_of_exp.nbytes
    assert tower.order not in held  # (q^m - 1) p bytes, over the bound on its own
    assert held


def test_second_candidate_with_the_same_period_counts_nothing(monkeypatch):
    # F_3^8, N = 41 (3^4 = -1 mod 41): the first union counts the 41 Gauss
    # periods once, and every later union of N = 41 classes reads them
    tower = build_tower(FieldSpec(p=3, e=1, m=8))
    calls = []
    count = charsums._gauss_periods

    def counted(tower, period):
        calls.append(period)
        return count(tower, period)

    monkeypatch.setattr(charsums, "_gauss_periods", counted)
    for J in ([0, 1], [3, 17], [5, 40]):
        subset = build_cyclotomic_subset(tower, 41, J)
        cert, spec = verify_pds_spectral(subset)
        assert spec.period == 41
        assert full_spectrum(tower, subset.members).rows.tolist() == spec.rows.tolist()
        assert cert.to_json() == predicted_cyclotomic_eigenvalues(tower, 41, J).certificate.to_json()
    assert calls == [41]


def assert_rows_read_as_dense(spec, direct):
    """Every reading of the rows equals the same reading of the dense array,
    and the value at each a is direct[a], the direct character sum; both are
    tuples of p Python ints that sum to |S| and compare as a bool."""
    dense = DenseSpectrum(spec.tower, spec.raw, spec.set_size)
    for a in range(spec.tower.qm):
        value = spec.value(a)
        for row in (value, direct[a]):
            assert type(row) is tuple and len(row) == spec.tower.p
            assert all(type(c) is int for c in row) and sum(row) == spec.set_size
        assert (value == direct[a]) is True and value == dense.value(a)
    assert spec.all_rational == dense.all_rational
    assert spec.irrational_witness() == dense.irrational_witness()
    if dense.all_rational:
        assert spec.restricted_values() == dense.restricted_values()
        assert np.array_equal(spec.rational_values(), dense.rational_values())
        return
    for read in ("restricted_values", "rational_values"):
        with pytest.raises(SpectrumError) as rows:
            getattr(spec, read)()
        with pytest.raises(SpectrumError) as full:
            getattr(dense, read)()
        assert str(rows.value) == str(full.value)


# (p, e, m) and the logs of a set whose character sums are irrational, p >= 3;
# the first two have a stabiliser <gamma^d> with d < q^m - 1
IRRATIONAL = {
    "F_3^5 order-11 subgroup": ((3, 1, 5), list(range(0, 242, 22))),
    "F_7^2 order-3 coset": ((7, 1, 2), [5, 21, 37]),
    "F_3^5 singleton": ((3, 1, 5), [7]),
    "F_5^3 random": ((5, 1, 3), [3, 17, 40, 41, 99, 100]),
    "F_9^2 pair": ((3, 2, 2), [1, 30]),
}


@pytest.mark.parametrize("name", sorted(IRRATIONAL))
def test_irrational_rows_read_as_dense(name):
    field, logs = IRRATIONAL[name]
    tower = _route_tower(*field)
    members = FieldSubset.from_logs(tower, logs).members
    specs = [full_spectrum(tower, members)]
    specs += [route_spectrum(tower, members, route) for route in ("transform", "pointwise")]
    direct = [psi_sum(tower, a, members) for a in range(tower.qm)]
    for spec in specs:
        assert not spec.all_rational
        assert_rows_read_as_dense(spec, direct)


@pytest.fixture(scope="module")
def f312():
    return build_tower(FieldSpec(p=3, e=1, m=12))


def test_orbit_rows_are_the_gauss_periods(f312, monkeypatch):
    # F_3^12, N = 73 (3^6 = -1 mod 73): the value at gamma^i depends on i mod 73
    subset = build_cyclotomic_subset(f312, 73, [0, 5])
    assert subset.stabiliser_period == 73

    def no_transform(*args):
        raise AssertionError("a class union with d = 73 must take the orbit count")

    monkeypatch.setattr(charsums, "_spectrum_transform", no_transform)
    vals = full_spectrum(f312, subset.members).rational_values()
    pred = predicted_cyclotomic_eigenvalues(f312, 73, [0, 5])
    assert vals[f312.exp[:73]].tolist() == list(pred.coset_values)
    assert np.array_equal(vals[f312.exp], np.tile(pred.coset_values, f312.order // 73))


def test_small_stabilisers_take_the_transform(monkeypatch):
    # the trace hyperplane of F_2^10 (d = 1023, |S| = 511) and the elliptic
    # quadric of F_3^8 (d = 3280, |S| = 2132): d |S| is over the transform cost
    f210 = build_tower(FieldSpec(p=2, e=1, m=10))
    hyperplane = f210.hyperplane(1)
    hyperplane = hyperplane[hyperplane != 0]
    quadric, _ = quadric_subset(build_tower(FieldSpec(p=3, e=1, m=8)), kind="elliptic")
    assert f210.stabiliser(hyperplane)[0] == 1023
    assert quadric.stabiliser_period == 3280

    def no_orbit_count(*args):
        raise AssertionError("the orbit count must not run here")

    monkeypatch.setattr(charsums, "_spectrum_orbit", no_orbit_count)
    for tower, members in ((f210, hyperplane), (quadric.tower, quadric.members)):
        spec = full_spectrum(tower, members)
        assert parseval_total(spec) == tower.qm * len(members)


@pytest.mark.parametrize("members, message", [
    ([7, 7], "member 7 repeats"),  # gamma^4 twice: counted as the zero element
    ([1, 1], "member 1 repeats"),
    ([0, 0], "member 0 repeats"),
    ([-1], r"member -1 lies outside \[0, 81\)"),  # read as the element 80
    ([0, 81], r"member 81 lies outside \[0, 81\)"),  # past the log table
], ids=["repeat", "one twice", "zero twice", "negative", "past q^m"])
def test_full_spectrum_refuses_bad_members(f34, members, message):
    assert f34.exp[4] == 7
    with pytest.raises(ValueError, match=message):
        full_spectrum(f34, np.array(members))


@pytest.mark.parametrize("a", [1, 64, 65, 200, 242])
def test_irrational_witness_is_least_element(f35, a):
    # one irrational row, serving a alone
    rows = np.zeros((f35.order, 3), dtype=np.int64)
    rows[f35.log[a], 1] = 1
    spec = Spectrum(f35, rows, f35.order, 0)
    assert spec.irrational_witness() == a
    assert DenseSpectrum(f35, spec.raw, 0).irrational_witness() == a


def test_class_union_spectrum_stays_in_its_rows():
    # F_2^22, N = 3: three Gauss-period rows serve 2^22 - 1 elements, and
    # neither the count, the certificate nor the restricted values build the dense array
    tower = build_tower(FieldSpec(p=2, e=1, m=22))
    subset = build_cyclotomic_subset(tower, 3, [0])
    tracemalloc.start()
    try:
        spec = full_spectrum(tower, subset.members)
        cert, _ = verify_pds_spectral(subset, spec)
        values = spec.restricted_values()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.period == 3 and spec.rows.shape == (3, 2)
    assert (cert.theta1, cert.theta2) == (1365, -683)
    assert values == [(1365, 1398101), (-683, 2796202)]
    assert peak < tower.qm * tower.p * 8
    assert "raw" not in vars(spec)


def _cheaper_route(p, em, period, count):
    tower = SimpleNamespace(p=p, em=em, qm=p ** em)
    return min(route_costs(tower, period, count))


@pytest.mark.parametrize("p, em, period, count, cost", [
    # quadrics, stable under F_q^* only, cheaper by the transform
    (2, 24, 2 ** 24 - 1, 2 ** 23, 1.6e9), (5, 10, (5 ** 10 - 1) // 4, 5 ** 9 // 4, 2.4e9),
    (2, 26, 2 ** 26 - 1, 2 ** 25, 7.0e9), (3, 16, (3 ** 16 - 1) // 2, 3 ** 15 // 2, 6.2e9),
    # class unions, cheaper by the orbit count
    (2, 26, 3, 1, 1.7e7), (3, 16, 41, 20, 2.2e7), (11, 7, 43, 1, 4.9e7), (2039, 2, 3, 1, 2.1e9),
])
def test_spectrum_budget_admits_the_recorded_inputs(p, em, period, count, cost):
    assert _cheaper_route(p, em, period, count) == pytest.approx(cost, rel=0.05)
    assert _cheaper_route(p, em, period, count) <= charsums.SPECTRUM_BUDGET


@pytest.mark.parametrize("p, cost", [(4093, "1.71e+10"), (8191, "1.37e+11")])
def test_spectrum_budget_refuses_huge_prime_squares(p, cost):
    # F_{p^2}, N = 3: one compare pass over the q^m-entry trace table per
    # t < p; refused before any table is read, by the guard pds re-exports
    assert pds.GuardExceeded is GuardExceeded
    tower = SimpleNamespace(p=p, em=2, qm=p ** 2)
    message = f"spectrum cost {cost} transform additions exceeds the budget 1e+10"
    with pytest.raises(GuardExceeded, match=re.escape(message)):
        stabiliser_spectrum(tower, np.zeros(0, dtype=np.int64), 3, np.array([0]))


# (p, e, m) of the fields on which the transform meets both references
TRANSFORM_FIELDS = [(2, 1, 8), (3, 1, 5), (5, 1, 3), (7, 1, 3), (2, 2, 4), (3, 2, 2), (5, 2, 2)]


@pytest.mark.parametrize("field", TRANSFORM_FIELDS, ids=lambda f: "F_%d^(%d*%d)" % f)
def test_transform_rows_equal_references(field):
    # the int32 transform on two buffers against the int64 one with rolled
    # copies and against the unreduced count: random sets with and without
    # 0, a singleton and the whole field, whose counts reach q^m
    tower = _route_tower(*field)
    rng = np.random.default_rng(tower.qm)
    sets = [rng.choice(tower.qm, size=size, replace=False)
            for size in (1, tower.qm // 3, tower.qm // 2, tower.qm - 1)]
    for members in sets + [np.arange(tower.qm)]:
        rows = charsums._spectrum_transform(tower, members)
        assert rows.dtype == np.int32 and rows.shape == (tower.order, tower.p)
        assert np.array_equal(rows, transform_rows(tower, members))
        assert np.array_equal(rows, pointwise_rows(tower, members))


def _traced_peak(read):
    """The tracemalloc peak of read(), in bytes."""
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def n73_spectrum(f312):
    """F_3^12, N = 73, J = {0, 5}: a fresh class-union spectrum whose dense
    array, not built yet, is 12.8 MB, with the log table its rows are found
    through."""
    f312.log
    return build_cyclotomic_subset(f312, 73, [0, 5]).spectrum()


def test_raw_is_filled_a_block_at_a_time(n73_spectrum):
    # traced, raw took 2.5 times its own size when its rows were gathered at once
    peak = _traced_peak(lambda: n73_spectrum.raw)
    assert peak <= 1.25 * n73_spectrum.raw.nbytes


def test_parseval_squares_a_block_at_a_time(n73_spectrum, f312):
    # traced, the total took twice raw when it squared every row at once
    raw = n73_spectrum.raw
    assert _traced_peak(lambda: parseval_total(n73_spectrum)) <= raw.nbytes / 4
    assert parseval_total(n73_spectrum) == f312.qm * 2 * f312.order // 73
