import numpy as np
import pytest
from reference import (
    codeword,
    coordinate_tables,
    from_basis_images,
    mul,
    neg_table,
    trace_q,
    weight_table,
)
from reference import induced_code_automorphism_check as exhaustive_check

from pdscodes.codes import SubsetCode
from pdscodes.field import FieldSpec, build_tower
from pdscodes.pds import build_cyclotomic_subset
from pdscodes.qpoly import (
    QPolynomial,
    induced_code_automorphism_check,
    is_automorphism_of,
    tables_induce_code_automorphism,
)


def _random_qpoly(tower, rng):
    return QPolynomial(tower, rng.integers(0, tower.qm, size=tower.m).tolist())


def _scaling(tower, a):
    """x -> a x."""
    return QPolynomial(tower, [a] + [0] * (tower.m - 1))


def _decision(code, g):
    """The library's decision by linearity without the preservation check:
    False, not ValueError, for a bijective g with g(D) != D."""
    return bool(tables_induce_code_automorphism(
        code.subset, g.images(), g.trace_dual().images(), False))


def _compose(f, g):
    """f after g, rebuilt from the images of the basis gamma^i."""
    t = f.tower
    return QPolynomial(t, from_basis_images(t, f.images()[g.images()][t.exp[: t.m]]))


def test_identity_dual(f34):
    ident = QPolynomial.frobenius(f34, 0)
    assert ident.trace_dual() == ident
    assert ident.is_bijective()


def test_frobenius_dual_pattern(f34):
    frob = QPolynomial.frobenius(f34, 1)
    dual = frob.trace_dual()
    expected = QPolynomial.frobenius(f34, f34.m - 1)
    assert dual == expected
    # trace identity, exhaustively
    img_f = frob.images()
    img_d = dual.images()
    for x in range(f34.qm):
        for y in range(f34.qm):
            lhs = trace_q(f34)[mul(f34, int(img_f[x]), y)]
            rhs = trace_q(f34)[mul(f34, int(img_d[y]), x)]
            assert lhs == rhs


def test_dual_identity_random_exhaustive(f34):
    rng = np.random.default_rng(23)
    xs = np.arange(f34.qm, dtype=np.int64)
    for _ in range(5):
        f = _random_qpoly(f34, rng)
        fd = f.trace_dual()
        img_f, img_d = f.images(), fd.images()
        # Tr(f(x) y) = Tr(dual(y) x) over the full 81 x 81 grid
        for y in range(f34.qm):
            lhs = trace_q(f34)[f34.mul_vec(y, img_f[xs])]
            rhs = trace_q(f34)[f34.mul_vec(int(img_d[y]), xs)]
            assert np.array_equal(lhs, rhs)


def test_dual_involution(f34):
    rng = np.random.default_rng(29)
    for _ in range(10):
        f = _random_qpoly(f34, rng)
        assert f.trace_dual().trace_dual() == f


def test_dual_antihomomorphism(f34):
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = _random_qpoly(f34, rng)
        g = _random_qpoly(f34, rng)
        composed = _compose(f, g)
        # composition is honest: evaluates as f after g
        assert np.array_equal(composed.images(), f.images()[g.images()])
        assert composed.trace_dual() == _compose(g.trace_dual(), f.trace_dual())


def test_linearity_property(f44):
    # f(lam x + y) = lam f(x) + f(y) for every lam in F_q, every x and a few y
    rng = np.random.default_rng(37)
    img = _random_qpoly(f44, rng).images()
    xs = np.arange(f44.qm, dtype=np.int64)
    for y in rng.integers(0, f44.qm, size=8).tolist():
        for lam in f44.subfield_elements.tolist():
            lhs = img[f44.add_sets(f44.mul_vec(lam, xs), y)]
            rhs = f44.add_sets(f44.mul_vec(lam, img[xs]), int(img[y]))
            assert np.array_equal(lhs, rhs)


def test_bijectivity_detection(f34):
    # X^q - X kills the subfield: not bijective
    minus_one = neg_table(f34)[1]
    f = QPolynomial(f34, (int(minus_one), 1, 0, 0))
    assert not f.is_bijective()
    assert QPolynomial.frobenius(f34, 2).is_bijective()


def test_automorphisms_of_example31(f44):
    subset = build_cyclotomic_subset(f44, 5, [1, 2, 3, 4])
    # subfield scalings fix any invariant subset
    for lam in f44.subfield_elements[1:].tolist():
        assert is_automorphism_of(subset, _scaling(f44, int(lam)))
    # x -> gamma x shifts class C_4 into C_0, leaving the subset
    assert not is_automorphism_of(subset, _scaling(f44, int(f44.exp[1])))
    # q-power Frobenius permutes the classes by multiplication by 4 = -1 mod 5
    assert is_automorphism_of(subset, QPolynomial.frobenius(f44, 1))
    # p-power map is only F_p-semilinear here; it still preserves the set
    logs = f44.log[subset.members].astype(np.int64)
    assert subset.indicator[f44.exp[logs * f44.p % f44.order]].all()


def test_induced_code_automorphism_example31(f44):
    subset = build_cyclotomic_subset(f44, 5, [1, 2, 3, 4])
    code = SubsetCode(subset)
    assert induced_code_automorphism_check(code, QPolynomial.frobenius(f44, 0))
    assert induced_code_automorphism_check(code, QPolynomial.frobenius(f44, 1))


def test_induced_check_fails_without_preservation(f44):
    subset = build_cyclotomic_subset(f44, 5, [1, 2, 3, 4])
    code = SubsetCode(subset)
    shift = _scaling(f44, int(f44.exp[1]))
    assert shift.is_bijective()
    with pytest.raises(ValueError, match="does not preserve the subset"):
        induced_code_automorphism_check(code, shift)
    assert not _decision(code, shift)


def test_induced_check_names_a_non_bijective_map(f44):
    # the trace map kills a hyperplane: the error is about bijectivity, not about D
    code = SubsetCode(build_cyclotomic_subset(f44, 5, [1, 2, 3, 4]))
    trace = QPolynomial(f44, [1] * f44.m)
    assert not trace.is_bijective()
    for check in (induced_code_automorphism_check, _decision):
        with pytest.raises(ValueError, match="g is not bijective on the multiplicative group"):
            check(code, trace)


def _induced_check_per_word(code, g):
    """The induced-action check one word pair at a time."""
    tower = code.tower
    perm = tower.log[g.images()[tower.exp]].astype(np.int64)
    dual_img = g.trace_dual().images()
    return all(np.array_equal(codeword(code, u, v)[perm], codeword(code, u, int(dual_img[v])))
               for u in range(tower.q) for v in range(tower.qm))


def test_induced_check_equals_per_word_scan(f34, f44):
    # the decision by linearity against the word-by-word loop, both verdicts
    cases = [(build_cyclotomic_subset(f44, 5, [1, 2, 3, 4]), f44),
             (build_cyclotomic_subset(f34, 5, [0]), f34)]
    verdicts = []
    for subset, tower in cases:
        code = SubsetCode(subset)
        maps = [QPolynomial.frobenius(tower, i) for i in range(tower.m)]
        maps += [_scaling(tower, int(tower.exp[k])) for k in range(1, 6)]
        for g in maps:
            got = _decision(code, g)
            assert got == _induced_check_per_word(code, g)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def _outcome(check, code, g):
    """The verdict of one route without the preservation check, or the
    message of the ValueError it raised."""
    try:
        return check(code, g)
    except ValueError as err:
        return str(err)


def _exhaustive_decision(code, g):
    return exhaustive_check(code, g, enforce_preservation=False)


def _oracle_maps(tower, rng):
    """Every Frobenius power, the scalings by gamma^k for k = 1..5, x^q - x
    and the trace (neither bijective), and eight seeded random q-polynomials."""
    maps = [QPolynomial.frobenius(tower, i) for i in range(tower.m)]
    maps += [_scaling(tower, int(tower.exp[k])) for k in range(1, 6)]
    maps += [QPolynomial(tower, [int(neg_table(tower)[1]), 1] + [0] * (tower.m - 2)),
             QPolynomial(tower, [1] * tower.m)]
    return maps + [_random_qpoly(tower, rng) for _ in range(8)]


# (p, e, m) of the seeded class unions
ORACLE_FIELDS = [(2, 1, 8), (3, 1, 4), (3, 1, 5), (2, 2, 4), (5, 1, 3), (3, 2, 2)]


@pytest.mark.parametrize("field", ORACLE_FIELDS,
                         ids=[f"F_{p ** e}^{m}" for p, e, m in ORACLE_FIELDS])
def test_induced_check_equals_exhaustive_oracle(field):
    # seeded class unions (N | (q^m - 1)/2 for odd q), each against every map
    tower = build_tower(FieldSpec(*field))
    half = tower.order // (1 if tower.p == 2 else 2)
    outcomes = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        N = int(rng.choice([n for n in range(2, half) if half % n == 0]))
        J = rng.permutation(N)[: rng.integers(1, N)].tolist()
        code = SubsetCode(build_cyclotomic_subset(tower, N, J))
        for g in _oracle_maps(tower, rng):
            got = _outcome(_decision, code, g)
            assert got == _outcome(_exhaustive_decision, code, g), (N, g)
            outcomes.append(got)
    assert {True, False, "g is not bijective on the multiplicative group"} <= set(outcomes)


def test_mutated_tables_against_oracle(f34, f44):
    # one changed entry of g off 0 or of the dual anywhere breaks the action,
    # and so does either table swapped for x -> x^(q^2), which is F_p-linear
    # and fixes D (only the basis pairs tell); g(0) is read by neither route
    cases = [(build_cyclotomic_subset(f44, 5, [1, 2, 3, 4]), QPolynomial.frobenius(f44, 1)),
             (build_cyclotomic_subset(f34, 5, [0]), QPolynomial.frobenius(f34, 0))]
    rng = np.random.default_rng(47)
    for subset, g in cases:
        tower, code = subset.tower, SubsetCode(subset)
        coeffs, other = g.coeffs, QPolynomial.frobenius(tower, 2).images()
        assert induced_code_automorphism_check(code, g) and exhaustive_check(code, g)
        xs = [1, *rng.integers(2, tower.qm, size=4).tolist()]
        for table, at, expected in ([("g", x, False) for x in [*xs, None]]
                                    + [("dual", v, False) for v in [0, *xs, None]]
                                    + [("g", 0, True)]):
            g = QPolynomial(tower, coeffs)  # fresh caches
            img = g.images() if table == "g" else g.trace_dual().images()
            if at is None:
                img[:] = other
            else:
                img[at] = img[at] % (tower.qm - 1) + 1  # another nonzero element
            got = _decision(code, g)
            assert got == exhaustive_check(code, g, enforce_preservation=False) == expected


def test_weight_multiset_preserved(f34):
    subset = build_cyclotomic_subset(f34, 5, [0])  # needs rho-invariance: 40 % 5 == 0
    code = SubsetCode(subset)
    g = QPolynomial.frobenius(f34, 1)
    if not is_automorphism_of(subset, g):
        pytest.skip("frobenius does not preserve this subset")
    perm = f34.log[g.images()[f34.exp[np.arange(f34.order)]]].astype(np.int64)
    wt = weight_table(code).ravel()
    permuted_weights = []
    for u in range(f34.q):
        for v in range(f34.qm):
            permuted_weights.append(int(np.count_nonzero(codeword(code, u, v)[perm])))
    assert sorted(permuted_weights) == sorted(wt.tolist())


def test_from_basis_images_round_trip(f34):
    # the scalar solve recovers random q-polynomials from their basis images
    rng = np.random.default_rng(43)
    for _ in range(5):
        f = _random_qpoly(f34, rng)
        rebuilt = QPolynomial(f34, from_basis_images(f34, f.images()[f34.exp[: f34.m]]))
        assert rebuilt == f


def test_quadric_symmetry_generators_membership(f34):
    # supplied generators of the quadric's symmetry group are membership-tested,
    # never enumerated: swapping the two hyperbolic coordinate planes preserves
    # x1*x2 + x3*x4, a shear x1 -> x1 + x3 does not
    from pdscodes.codes import SubsetCode
    from pdscodes.pds import quadric_subset
    from pdscodes.qpoly import induced_code_automorphism_check

    subset, _ = quadric_subset(f34, kind="hyperbolic")
    element_of_code, code_of_element = coordinate_tables(f34)
    q = f34.q

    def map_from_coordinate_permutation(perm):
        images = []
        for i in range(f34.m):
            code = q ** perm[i]  # basis vector e_i maps to e_perm(i)
            images.append(int(element_of_code[code]))
        return QPolynomial(f34, from_basis_images(f34, images))

    swap_planes = map_from_coordinate_permutation([2, 3, 0, 1])
    assert is_automorphism_of(subset, swap_planes)
    assert induced_code_automorphism_check(SubsetCode(subset), swap_planes)
    assert exhaustive_check(SubsetCode(subset), swap_planes)

    shear_images = []
    for i in range(f34.m):
        code = q ** i if i != 0 else q ** 0 + q ** 2  # e_0 -> e_0 + e_2
        shear_images.append(int(element_of_code[code]))
    shear = QPolynomial(f34, from_basis_images(f34, shear_images))
    assert shear.is_bijective()
    assert not is_automorphism_of(subset, shear)
    quadric_code = SubsetCode(subset)
    assert not _decision(quadric_code, shear)
    assert not exhaustive_check(quadric_code, shear, enforce_preservation=False)

    # scalings always preserve the zero set of a quadratic form
    for lam in f34.subfield_elements[1:].tolist():
        assert is_automorphism_of(subset, _scaling(f34, int(lam)))
