from functools import lru_cache
from math import gcd

import numpy as np
import pytest
import reference
from reference import hyperplane_intersections

from pdscodes import blocking, field
from pdscodes.blocking import is_cutting_vectorial_blocking
from pdscodes.codes import MINIMAL, SubsetCode, orbit_engine
from pdscodes.field import FieldSpec, build_tower
from pdscodes.pds import FieldSubset, GuardExceeded, build_cyclotomic_subset, quadric_subset


@pytest.fixture(scope="module")
def ex31_complement(f44):
    # D-bar = C_0, the index-5 subgroup with 51 elements
    return build_cyclotomic_subset(f44, 5, [1, 2, 3, 4]).complement()


def test_hyperplane_family_size(f44, f35):
    # hyperplane j is the kernel of x -> Tr(gamma^j x), j < step: one per direction
    assert f44.subfield_step == 85
    assert f35.subfield_step == 121
    # the directions are pairwise non-proportional: distinct kernels
    kernels, _ = reference.intersection_masks(f44, np.ones(f44.qm, dtype=bool))
    packed = np.packbits(kernels, axis=1)
    assert len({row.tobytes() for row in packed}) == 85


def test_example31_not_cutting(ex31_complement, f44):
    report = is_cutting_vectorial_blocking(ex31_complement)
    assert report.blocking
    assert not report.contains_subspace
    assert not report.cutting
    w = report.witness
    sizes, members, _ = hyperplane_intersections(ex31_complement)
    size_of = dict(enumerate(sizes.tolist()))
    # the witness intersections are nested, sizes 3 inside 15
    assert size_of[w["h1_log"]] == 3
    assert size_of[w["h2_log"]] == 15
    small = set(members[w["h1_log"]].tolist())
    big = set(members[w["h2_log"]].tolist())
    assert small < big
    # the subgroup meets the unit trace hyperplane in exactly 3 elements
    assert size_of[0] == 3
    # intersection sizes take exactly the two values 3 and 15
    vals, counts = np.unique(sizes, return_counts=True)
    assert vals.tolist() == [3, 15]
    assert counts.tolist() == [17, 68]


def test_intersection_sum_identity(ex31_complement, f44):
    sizes, _, _ = hyperplane_intersections(ex31_complement)
    per_element = (f44.qm // f44.q - 1) // (f44.q - 1)  # hyperplanes through a fixed x
    assert int(sizes.sum()) == len(ex31_complement) * per_element


def test_empty_subset_intersections(f34):
    empty = FieldSubset(f34, np.array([], dtype=np.int64))
    sizes, members, _ = hyperplane_intersections(empty)
    assert int(sizes.sum()) == 0
    assert all(len(m) == 0 for m in members)
    report = is_cutting_vectorial_blocking(empty)
    assert not report.blocking
    assert "empty_h_log" in report.witness


def test_full_group_contains_subspace(f34):
    full = FieldSubset(f34, f34.exp[np.arange(f34.order)].astype(np.int64))
    report = is_cutting_vectorial_blocking(full)
    assert report.blocking
    assert report.contains_subspace
    assert not report.cutting


def test_row1_not_cutting(f35):
    subset = build_cyclotomic_subset(f35, 11, [0])
    report = is_cutting_vectorial_blocking(subset)
    assert not report.cutting


def _secondary_condition(subset):
    """Secondary hypothesis of the cutting-set construction, read as: every
    nonzero v has some x in the subset with Tr(v x) = -1."""
    tower = subset.tower
    target = int(reference.neg_table(tower)[tower.subfield_elements[1]])
    return all(np.any(reference.trace_q(tower)[tower.mul_vec(v, subset.members)] == target)
               for v in tower.exp.tolist())


def test_quadric_complements_are_cutting(f34):
    # non-vacuous instances for the cutting-implies-minimal direction
    for kind in ("hyperbolic", "elliptic"):
        subset, _ = quadric_subset(f34, kind=kind)
        report = is_cutting_vectorial_blocking(subset.complement())
        cond2 = _secondary_condition(subset)
        if report.cutting and cond2:
            code = SubsetCode(subset)
            assert code.minimality_cover().status == MINIMAL
        assert report.cutting  # computed above: both kinds are cutting here
        assert cond2


def test_verdict_invariant_under_generator_change():
    # same field, different primitive polynomial: same verdict, labels may move
    from pdscodes.field import DEFAULT_MODULI, poly_is_irreducible, poly_x_is_primitive

    default = DEFAULT_MODULI[(2, 8)]
    alt = None
    code = sum(c * 2 ** i for i, c in enumerate(default[:-1]))
    for cand in range(code + 1, 2 ** 8):
        coeffs = tuple((cand >> i) & 1 for i in range(8)) + (1,)
        if coeffs[0] and poly_is_irreducible(coeffs, 2) and poly_x_is_primitive(coeffs, 2):
            alt = coeffs
            break
    assert alt is not None and alt != default
    for modulus in (None, alt):
        tower = build_tower(FieldSpec(p=2, e=2, m=4, modulus=modulus))
        subset = build_cyclotomic_subset(tower, 5, [1, 2, 3, 4]).complement()
        report = is_cutting_vectorial_blocking(subset)
        assert (report.blocking, report.contains_subspace, report.cutting) == (True, False, False)
        sizes, _, _ = hyperplane_intersections(subset)
        vals, counts = np.unique(sizes, return_counts=True)
        assert vals.tolist() == [3, 15] and counts.tolist() == [17, 68]


def test_report_json_shape(ex31_complement):
    out = is_cutting_vectorial_blocking(ex31_complement).to_json()
    assert set(out) == {"blocking", "contains_subspace", "cutting", "witness"}
    assert set(out["witness"]) == {"h1_log", "h2_log"}


@pytest.mark.parametrize("key", [(2, 1, 10), (3, 1, 6), (2, 2, 5)])
def test_nested_pair_past_the_first_batch(key):
    # random elements with a trivial stabiliser, less those on H_j0 and off H_l:
    # the intersections fill several batches of hyperplanes, and D ∩ H_j0, the
    # one span that falls short, lies in a later batch
    tower = build_tower(FieldSpec(*key))
    rng = np.random.default_rng(sum(key))
    elems = tower.exp[rng.choice(tower.order, size=tower.qm * 4 // 5, replace=False)]
    j0, l = tower.subfield_step - 40, 7
    off = ((tower.trace_labels(int(tower.exp[j0]), elems) == 0)
           & (tower.trace_labels(int(tower.exp[l]), elems) != 0))
    subset = FieldSubset(tower, np.sort(elems[~off]).astype(np.int64))
    assert subset.stabiliser_period == tower.order
    assert field.BLOCK // len(subset) < j0 < tower.subfield_step
    report = is_cutting_vectorial_blocking(subset).to_json()
    assert report == reference.cutting_reference(subset)
    assert report["witness"]["h1_log"] == j0


def test_nested_pair_past_the_first_annihilator_block():
    # 16 random elements of F_{2^10}: most of the 1023 intersections have fewer
    # than m - 1 = 9 elements and fall short, so their annihilators fill many
    # blocks, and the first nested pair comes from a later block
    tower = build_tower(FieldSpec(p=2, e=1, m=10))
    rng = np.random.default_rng(0)
    subset = FieldSubset(tower, np.sort(tower.exp[rng.choice(tower.order, size=16, replace=False)]))
    report = is_cutting_vectorial_blocking(subset).to_json()
    assert report == reference.cutting_reference(subset)
    inner = report["witness"]["h1_log"]
    short_before = sum(len(reference.hyperplane_members(subset, j)) < tower.m - 1
                       for j in range(inner))
    assert short_before >= field.BLOCK // (tower.em * tower.subfield_step)


# -- one hyperplane per merged orbit ------------------------------------------------

QUADRIC_FIELDS = [(3, 1, 4), (3, 1, 6), (2, 1, 8), (2, 1, 10), (2, 2, 4), (3, 2, 4)]


@lru_cache(maxsize=None)
def _tower(p, e, m):
    return build_tower(FieldSpec(p=p, e=e, m=m))


@pytest.mark.parametrize("kind", ["elliptic", "hyperbolic"])
@pytest.mark.parametrize("field", QUADRIC_FIELDS, ids=[f"F_{p ** e}^{m}" for p, e, m in QUADRIC_FIELDS])
def test_quadric_blocking_on_merged_orbits_equals_reference(field, kind):
    # the reflections leave the hyperplanes with v isotropic and those with v
    # anisotropic, the latter split by the square class of Q for odd q; the
    # m = 4 elliptic quadrics (ovoids) alone are not cutting
    tower = _tower(*field)
    subset = quadric_subset(tower, kind=kind)[0]
    report = is_cutting_vectorial_blocking(subset).to_json()
    assert report == reference.cutting_reference(subset)
    assert len(orbit_engine(subset).picks(0)[0]) == (3 if tower.p > 2 else 2)
    assert report["cutting"] == (kind == "hyperbolic" or tower.m > 4)


def _all_but_gamma(tower):
    # every nonzero element but gamma: a trivial stabiliser, no Frobenius power
    # fixes it, and q^m - 2 members
    return FieldSubset(tower, np.setdiff1d(np.arange(1, tower.qm), tower.exp[1]))


FAILING = {
    "F_3^4 elliptic quadric": (lambda: quadric_subset(_tower(3, 1, 4), kind="elliptic")[0],
                               {"h1_log": 0, "h2_log": 1}),
    "F_4^4 elliptic quadric": (lambda: quadric_subset(_tower(2, 2, 4), kind="elliptic")[0],
                               {"h1_log": 8, "h2_log": 0}),
    "F_3^4 hyperplane": (lambda: FieldSubset(_tower(3, 1, 4), _tower(3, 1, 4).hyperplane(1)[1:]),
                         {"contained_h_log": 0}),
    "F_9^2 N=4 J=[0]": (lambda: build_cyclotomic_subset(_tower(3, 2, 2), 4, [0]),
                        {"empty_h_log": 0}),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_merged_orbits_name_the_reference_witness(name):
    build, witness = FAILING[name]
    subset = build()
    report = is_cutting_vectorial_blocking(subset).to_json()
    assert report == reference.cutting_reference(subset)
    assert report["witness"] == witness


def _budget(monkeypatch, budget):
    monkeypatch.setattr(blocking, "DEFAULT_ENUM_BUDGET", budget)


@pytest.mark.parametrize("name", sorted(FAILING) + ["all but gamma"])
def test_guard_refuses_nothing_within_the_per_hyperplane_bound(monkeypatch, name):
    # hyperplane orbits x q^m at the budget: accepted, as before the merge,
    # though q^m - 2 members put the merge's estimate above that bound
    subset = _all_but_gamma(_tower(3, 1, 4)) if name not in FAILING else FAILING[name][0]()
    tower = subset.tower
    bound = gcd(subset.stabiliser_period, tower.subfield_step) * tower.qm
    engine = orbit_engine(subset)
    cost = engine.merge_cost() + len(engine.picks(0)[0]) * len(subset)
    assert name in FAILING or cost > bound
    _budget(monkeypatch, bound)
    assert is_cutting_vectorial_blocking(subset).to_json() == reference.cutting_reference(subset)
    _budget(monkeypatch, min(cost, bound) - 1)
    with pytest.raises(GuardExceeded, match=f"cost {cost} .*: {bound}\\) exceeds the budget"):
        is_cutting_vectorial_blocking(subset)


def test_nested_pair_search_keeps_the_per_hyperplane_bound(monkeypatch):
    # the F_3^4 elliptic quadric: its 3 hyperplane orbits pass the engine
    # route's estimate, but naming the nested pair reads all 40 hyperplanes
    subset = FAILING["F_3^4 elliptic quadric"][0]()
    engine = orbit_engine(subset)
    cost = engine.merge_cost() + len(engine.picks(0)[0]) * len(subset)
    _budget(monkeypatch, cost)
    with pytest.raises(GuardExceeded, match=f"nested-pair search cost {40 * 81} "):
        is_cutting_vectorial_blocking(subset)
    _budget(monkeypatch, 40 * 81)
    assert is_cutting_vectorial_blocking(subset).witness == {"h1_log": 0, "h2_log": 1}
