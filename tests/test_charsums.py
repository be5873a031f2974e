import numpy as np
import pytest

from pdscodes.charsums import (
    Spectrum,
    full_spectrum,
    is_invariant_under_subfield,
    orthogonality_sum,
    parseval_total,
    psi_sum,
    scaled_sum_invariance_check,
    squared_norms,
    trace_count_table,
)
from pdscodes.cyclotomic import CyclotomicInteger
from pdscodes.field import FieldSpec, build_tower


def _power_residues(tower, n):
    """Index-n power residue set {gamma^(n*i)} as an element array."""
    return tower.exp[np.arange(0, tower.order, n)].astype(np.int64)


def test_psi_sum_trivial_cases(f35):
    members = _power_residues(f35, 11)
    assert psi_sum(f35, 0, members) == len(members)
    full = f35.exp[np.arange(f35.order)].astype(np.int64)
    for a in (1, int(f35.exp[40])):
        assert psi_sum(f35, a, full) == -1


def test_trace_count_table_partition(f35):
    members = _power_residues(f35, 11)
    for a in (0, 1, int(f35.exp[7])):
        counts = trace_count_table(f35, a, members)
        assert counts.sum() == len(members)


def test_orthogonality_exhaustive_f35(f35):
    hits = 0
    for x in range(f35.qm):
        val = orthogonality_sum(f35, x)
        expected = f35.q if f35.trace_to_subfield(x) == 0 else 0
        assert val == expected
        hits += val == f35.q
    assert hits == 81
    assert orthogonality_sum(f35, 0) == f35.q


def test_spectrum_empty_set(f34):
    spec = full_spectrum(f34, np.array([], dtype=np.int64))
    assert spec.set_size == 0
    assert all(spec.value(a).is_zero() for a in range(f34.qm))


def test_spectrum_value_at_zero_is_size(f34):
    rng = np.random.default_rng(2)
    members = rng.choice(np.arange(1, f34.qm), size=17, replace=False)
    spec = full_spectrum(f34, members)
    assert spec.value(0) == 17


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
        a = full_spectrum(tower, members, mode="pointwise")
        b = full_spectrum(tower, members, mode="transform")
        assert np.array_equal(a.raw[:, : tower.p - 1] - a.raw[:, -1:],
                              b.raw[:, : tower.p - 1] - b.raw[:, -1:])


def test_scaled_sum_invariance(f44):
    members = _power_residues(f44, 5)  # subgroup of index 5, F_4^*-invariant
    rng = np.random.default_rng(6)
    lams = f44.subfield_elements[1:].tolist()
    for a in rng.integers(0, f44.qm, size=20).tolist() + [0]:
        for lam in lams:
            assert scaled_sum_invariance_check(f44, int(a), int(lam), members)
    # non-invariant set is rejected
    bad = np.array([1, int(f44.exp[2])], dtype=np.int64)
    assert not is_invariant_under_subfield(f44, np.isin(np.arange(f44.qm), bad))
    with pytest.raises(ValueError):
        scaled_sum_invariance_check(f44, 1, int(lams[0]), bad)


def test_complement_relation(f35):
    members = _power_residues(f35, 11)
    comp = np.setdiff1d(f35.exp[np.arange(f35.order)].astype(np.int64), members)
    s1 = full_spectrum(f35, members)
    s2 = full_spectrum(f35, comp)
    for a in range(1, f35.qm):
        assert s2.value(a) == CyclotomicInteger.integer(3, -1) - s1.value(a)


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


def test_spectrum_json(f35):
    members = _power_residues(f35, 11)
    out = full_spectrum(f35, members).to_json()
    assert out == {
        "k": 22,
        "all_rational": True,
        "values": [{"theta": 4, "multiplicity": 132}, {"theta": -5, "multiplicity": 110}],
    }


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
        val = psi_sum(f44, int(a), members)
        assert val.is_rational()
        assert val.rational_value() in (12, -4)
