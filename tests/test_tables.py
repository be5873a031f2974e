"""Golden tower tables: sha256 digests of every table on eight towers.

tests/data/golden/tables.json holds, per tower, the digest of exp, log,
trace_p, trace_q, neg_table, trace_coords and subfield_index (each cast to
int64), their dtypes, and the digest of the raw spectrum of one fixed class
union, which pins the row order of the character transform.  The tower
names F_q labels, the F_q-trace and -x through log, joins the absolute
trace only at the elements asked about, and holds no trace_p,
subfield_index, trace_q or neg_table; those digests are of the tables in
`reference.py` that the tower's routes are checked against.  Regenerate (only
on purpose) with

    PYTHONPATH=src python tests/test_tables.py
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import reference

from pdscodes.charsums import full_spectrum
from pdscodes.field import FieldSpec, build_tower
from pdscodes.pds import build_cyclotomic_subset

GOLDEN = Path(__file__).parent / "data" / "golden" / "tables.json"

TABLES = ("exp", "log", "trace_p", "trace_q", "neg_table", "trace_coords", "subfield_index")
REFERENCE_TABLES = ("trace_p", "trace_q", "neg_table", "subfield_index")

# (p, e, m) and the class union (N, J) whose spectrum is digested
TOWERS = {
    "F_3^12": ((3, 1, 12), (35, [0])),
    "F_2^16": ((2, 1, 16), (5, [0])),
    "F_4^8": ((2, 2, 8), (17, [0, 1])),
    "F_5^6": ((5, 1, 6), (7, [0])),
    "F_7^4": ((7, 1, 4), (5, [0, 1])),
    "F_13^2": ((13, 1, 2), (4, [1])),
    "F_9^3": ((3, 2, 3), (7, [0])),
    "F_8^4": ((2, 3, 4), (13, [0, 2])),
}


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


def tower_digests(name: str) -> dict:
    (p, e, m), (N, J) = TOWERS[name]
    tower = build_tower(FieldSpec(p=p, e=e, m=m))
    # the tower holds none of these; the reference tabulates them
    tables = {t: getattr(reference, t)(tower) if t in REFERENCE_TABLES else getattr(tower, t)
              for t in TABLES}
    out = {t: _sha(table) for t, table in tables.items()}
    out["dtypes"] = {t: str(table.dtype) for t, table in tables.items()}
    subset = build_cyclotomic_subset(tower, N, J)
    out["spectrum"] = _sha(full_spectrum(tower, subset.members).raw)
    return out


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_tables_match_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert tower_digests(name) == expected


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_subfield_labels_invert_the_scatter(name):
    # log x // step + 1 on F_q, the old scatter's label, and on the labels of
    # Tr(gamma^i) in log order
    (p, e, m), _ = TOWERS[name]
    tower = build_tower(FieldSpec(p=p, e=e, m=m))
    index = reference.subfield_index(tower)
    on = np.flatnonzero(index >= 0)
    assert len(on) == tower.q
    assert np.array_equal(tower.subfield_labels(on), index[on])
    assert np.array_equal(tower.trace_label_of_exp, index[reference.trace_q(tower)[tower.exp]])


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_negation_by_log_shift_equals_the_reference(name):
    # -x is x gamma^(order/2) for odd p and x for p = 2, zero included
    (p, e, m), _ = TOWERS[name]
    tower = build_tower(FieldSpec(p=p, e=e, m=m))
    expected = reference.neg_table(tower)
    xs = np.arange(tower.qm)
    assert [tower.neg(x) for x in xs.tolist()] == expected.tolist()
    assert np.array_equal(tower.mul_vec(tower.neg(1), xs), expected)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({n: tower_digests(n) for n in TOWERS}, indent=2) + "\n")
