import tracemalloc

import numpy as np
import pytest
import reference

from pdscodes.codes import SubsetCode
from pdscodes.field import FieldSpec, build_tower
from pdscodes.pds import FieldSubset, build_cyclotomic_subset
from pdscodes.secretsharing import analyze_scheme, coverage_closed_form, minimal_access_count


@pytest.fixture(scope="module")
def ex31_code(f44):
    return SubsetCode(build_cyclotomic_subset(f44, 5, [1, 2, 3, 4]))


@pytest.fixture(scope="module")
def row1_code(f35):
    return SubsetCode(build_cyclotomic_subset(f35, 11, [0]))


def _dict_route(coverage, total):
    """The coverage classes and dictators, counted over a dict of every
    participant log -> coverage."""
    classes = {}
    for n in coverage.values():
        classes[n] = classes.get(n, 0) + 1
    return ([{"n": n, "count": c} for n, c in sorted(classes.items(), reverse=True)],
            sorted(j for j, n in coverage.items() if n == total))


def test_minimal_access_totals(ex31_code, row1_code, f44, f35):
    for x1 in (1, int(f44.exp[3]), int(f44.exp[200])):
        total, _ = minimal_access_count(ex31_code, x1)
        assert total == 256
    for x1 in (1, int(f35.exp[11])):
        total, _ = minimal_access_count(row1_code, x1)
        assert total == 243


def test_coverage_closed_form_x1_outside(ex31_code, f44):
    # x1 in the complement: its nontrivial scalar multiples are dictators
    x1 = int(ex31_code.subset.complement().members[0])
    coverage = analyze_scheme(ex31_code, x1).coverage
    x1_log = int(f44.log[x1])
    step = f44.subfield_step
    closed = coverage_closed_form(ex31_code, x1, f44.exp)
    for j, n in coverage.items():
        assert n == closed[j]
        if (j - x1_log) % step == 0:
            assert n == 256
        else:
            assert n == 192
    scalar_lines = [j for j in coverage if (j - x1_log) % step == 0]
    assert len(scalar_lines) == f44.q - 2  # x1 itself is not a participant


def test_coverage_closed_form_x1_inside(ex31_code, f44):
    x1 = int(ex31_code.subset.members[0])
    coverage = analyze_scheme(ex31_code, x1).coverage
    assert set(coverage.values()) == {192}
    report = analyze_scheme(ex31_code, x1)
    assert report.classification == "democratic"
    assert report.dictators == []


def test_secret_at_zero_is_refused(ex31_code):
    with pytest.raises(ValueError, match="secret coordinate must be a nonzero element"):
        analyze_scheme(ex31_code, 0)


def test_classification_dictatorial(ex31_code):
    x1 = int(ex31_code.subset.complement().members[0])
    report = analyze_scheme(ex31_code, x1)
    assert report.classification == "dictatorial"
    assert len(report.dictators) == 2  # q - 2 with q = 4
    out = report.to_json()
    assert out["x1_in_Dbar"] is True
    assert out["total"] == 256
    assert {"n": 256, "count": 2} in out["coverage_classes"]
    assert {"n": 192, "count": 252} in out["coverage_classes"]


def test_row1_coverage_both_sides(row1_code, f35):
    inside = int(row1_code.subset.members[0])
    outside = int(row1_code.subset.complement().members[0])
    for x1 in (inside, outside):
        coverage = analyze_scheme(row1_code, x1).coverage
        closed = coverage_closed_form(row1_code, x1, f35.exp)
        for j, n in coverage.items():
            assert n == closed[j]
    # q = 3: exactly one dictator when x1 avoids the subset
    report = analyze_scheme(row1_code, outside)
    assert len(report.dictators) == 1
    assert report.classification == "dictatorial"


def test_q2_degenerates_to_democratic():
    f64 = build_tower(FieldSpec(p=2, e=1, m=6))
    code = SubsetCode(build_cyclotomic_subset(f64, 9, [0, 3, 6]))
    outside = int(code.subset.complement().members[0])
    report = analyze_scheme(code, outside)
    assert report.total == 64
    assert report.dictators == []  # F_2^* has no nontrivial scalars
    assert report.classification == "democratic"


def test_coverage_constant_on_scalar_classes(ex31_code, f44):
    x1 = int(ex31_code.subset.complement().members[1])
    coverage = analyze_scheme(ex31_code, x1).coverage
    step = f44.subfield_step
    for j, n in coverage.items():
        partner = (j + step) % f44.order
        if partner != int(f44.log[x1]):
            assert coverage[partner] == n


def test_value_labels_equal_element_route(ex31_code, f44):
    # every word's zero at x1 off the value tables, column log x1 of the label
    # cycle (labels 0 for v = 0) against -u f(x1), and on the element route;
    # one x1 inside the subset, one outside it
    cycle, zero_at = ex31_code._value_tables
    us, vs = np.divmod(np.arange(ex31_code.word_count), f44.qm)
    for x1 in (int(ex31_code.subset.members[0]), int(ex31_code.subset.complement().members[0])):
        at = f44.log[x1]
        zeros = np.where(vs == 0, 0, cycle[f44.log[vs], at]) == zero_at[us, at]
        assert np.array_equal(zeros, reference.value_labels_at(ex31_code, x1) == 0)


def test_access_sets_are_support_minimal(ex31_code, f44):
    # sampled words with coordinate 1 at x1: no other such word has support inside
    x1 = int(ex31_code.subset.complement().members[0])
    ones = np.flatnonzero(reference.value_labels_at(ex31_code, x1) == 1)
    sup = ex31_code.supports()
    rng = np.random.default_rng(41)
    for w in rng.choice(ones, size=10, replace=False).tolist():
        inside = ~np.bitwise_and(sup[ones], ~sup[int(w)]).any(axis=1)
        assert int(inside.sum()) == 1  # only w itself


def test_nonminimal_code_reports_both_counts(f34):
    members = f34.hyperplane(1)
    code = SubsetCode(FieldSubset(f34, members[members != 0]))
    x1 = int(code.subset.members[0])
    total, oracle_total = minimal_access_count(code, x1, code_is_minimal=False)
    assert total == f34.qm
    assert oracle_total is not None and oracle_total < total


@pytest.mark.parametrize("name", ["ex31", "row1", "F_3^4 hyperplane", "F_3^4 N=10",
                                  "F_3^4 not invariant", "F_2^4 not invariant",
                                  "F_2^4 trace form"])
def test_coverage_equals_enumeration(request, f16, f34, name):
    # minimal and non-minimal codes, subsets that are not F_q^*-invariant, and
    # a binary subset whose indicator is a trace form (dimension m); the
    # access-set total is q^m for each
    if name == "ex31":
        code = request.getfixturevalue("ex31_code")
    elif name == "row1":
        code = request.getfixturevalue("row1_code")
    elif name == "F_3^4 hyperplane":
        members = f34.hyperplane(1)
        code = SubsetCode(FieldSubset(f34, members[members != 0]))
    elif name == "F_3^4 N=10":
        code = SubsetCode(build_cyclotomic_subset(f34, 10, [0]))
    elif name == "F_3^4 not invariant":
        code = SubsetCode(FieldSubset.from_logs(f34, [0, 1, 5, 17, 40]))
    elif name == "F_2^4 not invariant":
        code = SubsetCode(FieldSubset.from_logs(f16, [0, 9, 11, 13, 14]))
    else:
        code = SubsetCode(FieldSubset.from_logs(f16, [3, 6, 7, 9, 11, 12, 13, 14]))
    tower = code.tower
    for x1 in tower.exp[:: max(1, tower.order // 40)].tolist():
        ones = int(np.count_nonzero(reference.value_labels_at(code, x1) == 1))
        for code_is_minimal in (True, False):
            assert minimal_access_count(code, x1, code_is_minimal)[0] == ones == tower.qm
        report = analyze_scheme(code, x1)
        enumerated = reference.participant_coverage(code, x1)
        assert report.coverage == enumerated
        closed = coverage_closed_form(code, x1, tower.exp)
        for j, n in report.coverage.items():
            assert n == closed[j]
        # the classes and dictators read off x1's F_q-line are those of the
        # dict of every participant
        classes, dictators = _dict_route(enumerated, report.total)
        assert report.to_json()["coverage_classes"] == classes
        assert report.dictators == dictators


def test_coverage_of_a_non_invariant_subset(f34):
    # gamma^41 lies outside the subset and gamma^1 = -gamma^41 inside: the
    # columns (0, x1) and (1, -x1) are independent
    code = SubsetCode(FieldSubset.from_logs(f34, [0, 1, 5, 17, 40]))
    x1 = int(f34.exp[41])
    assert analyze_scheme(code, x1).coverage[1] == 54
    assert coverage_closed_form(code, x1, int(f34.exp[1])) == 54
    assert coverage_closed_form(code, x1, int(f34.exp[1])).shape == ()  # one x, a 0-d result
    assert analyze_scheme(code, int(f34.exp[42])).coverage[2] == 81


@pytest.mark.parametrize("spec", [(2, 1, 20), (2, 2, 10)], ids=["F_2^20", "F_4^10"])
def test_report_reads_the_line_of_x1_alone(spec):
    # the report evaluates the closed form at the q - 2 multiples lambda x1
    # alone, and builds the dict of q^m - 2 participants (about 100 MB
    # traced here) only when coverage is read
    tower = build_tower(FieldSpec(*spec))
    code = SubsetCode(build_cyclotomic_subset(tower, 3, [0]))
    tower.log, code.subset.indicator  # the tables it reads, built before the trace
    for x1 in (int(code.subset.members[0]), int(code.subset.complement().members[0])):
        tracemalloc.start()
        try:
            report = analyze_scheme(code, x1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16
        classes, dictators = _dict_route(report.coverage, report.total)
        assert report.to_json()["coverage_classes"] == classes
        assert report.dictators == dictators
        assert len(report.coverage) == tower.qm - 2
