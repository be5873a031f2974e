"""Values in Z[zeta_p] as raw zeta-count rows: the rational readings of a
Spectrum go through the canonical form, each count less the last, and the
squared norms come back in that form."""
import numpy as np
import pytest

from pdscodes.charsums import Spectrum, SpectrumError, squared_norms
from pdscodes.field import FieldSpec, build_tower


def _spectrum(p, rows):
    """A Spectrum over F_p whose two (p = 3) or one (p = 2) nonzero elements
    read the given rows, each summing to its set size."""
    rows = np.array(rows, dtype=np.int32)
    return Spectrum(build_tower(FieldSpec(p=p, e=1, m=1)), rows, len(rows), int(rows[0].sum()))


def test_canonical_form_eliminates_top_coefficient():
    # 1 + zeta + zeta^2 = 0 in Z[zeta_3], so (2, 5, 5) is 2 - 5 = -3
    spec = _spectrum(3, [[1, 1, 1], [4, 4, 4]])
    assert spec.rational_values().tolist() == [3, 0, 0]
    assert _spectrum(3, [[2, 5, 5], [6, 3, 3]]).restricted_values() == [(3, 1), (-3, 1)]


def test_rational_detection_after_normalization():
    # (4, 1, 1) raw = 3 + (1 + zeta + zeta^2) = 3, while (2, 3, 1) = 1 + 2 zeta
    spec = _spectrum(3, [[4, 1, 1], [2, 3, 1]])
    assert not spec.all_rational
    assert spec.irrational_witness() == 2
    with pytest.raises(SpectrumError, match="a=2"):
        spec.rational_values()
    assert spec.value(1) != spec.value(2) and spec.value(1) == (4, 1, 1)


def test_p2_always_rational():
    spec = _spectrum(2, [[5, 3]])  # 5 - 3 since zeta_2 = -1
    assert spec.all_rational
    assert spec.rational_values().tolist() == [8, 2]


def test_conjugate_and_norm():
    # |zeta|^2 = 1, and |a + b zeta|^2 = a^2 - ab + b^2 for p = 3
    a, b = 4, -7
    norms = squared_norms(np.array([[0, 1, 0], [a, b, 0]]))
    assert norms.tolist() == [[1, 0], [a * a - a * b + b * b, 0]]
    # int32 counts past 2^16, whose products pass 2^31
    assert squared_norms(np.array([[2 ** 20, 0, 0]], dtype=np.int32)).tolist() == [[2 ** 40, 0]]
    # conjugation, zeta -> zeta^(-1), reverses the nonzero powers and keeps the norm
    rng = np.random.default_rng(1)
    for p in (3, 5, 7):
        rows = rng.integers(0, 9, size=(20, p)).astype(np.int32)
        assert np.array_equal(squared_norms(rows[:, -np.arange(p) % p]), squared_norms(rows))
