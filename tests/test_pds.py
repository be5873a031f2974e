import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from pdscodes import pds
from pdscodes.charsums import full_spectrum
from pdscodes.field import FieldSpec, FieldTower, build_tower, rank_reaches
from pdscodes.pds import (
    CyclotomicOrigin,
    FieldSubset,
    GuardExceeded,
    PdsCertificate,
    PdsVerificationError,
    build_cyclotomic_subset,
    classify_latin_type,
    cyclotomic_classes,
    eigensystem_from_parameters,
    is_fq_invariant,
    predicted_cyclotomic_eigenvalues,
    quadric_subset,
    verify_pds_direct,
    verify_pds_spectral,
)


@pytest.fixture(scope="module")
def ex31(f44):
    return build_cyclotomic_subset(f44, 5, [1, 2, 3, 4])


@pytest.fixture(scope="module")
def row1(f35):
    return build_cyclotomic_subset(f35, 11, [0])


def test_cyclotomic_classes_basic(f44, f35):
    assert len(cyclotomic_classes(f44, 1)) == 1
    assert len(cyclotomic_classes(f44, 1)[0]) == f44.order
    classes = cyclotomic_classes(f44, 5)
    assert len(classes) == 5
    assert all(len(c) == 51 for c in classes)
    union = np.sort(np.concatenate(classes))
    assert np.array_equal(union, np.sort(f44.exp[np.arange(f44.order)].astype(np.int64)))
    with pytest.raises(ValueError):
        cyclotomic_classes(f35, 7)  # 7 does not divide 242


def test_class_product_rule(f35):
    N = 11
    classes = cyclotomic_classes(f35, N)
    rng = np.random.default_rng(3)
    for _ in range(50):
        i, j = (int(v) for v in rng.integers(0, N, size=2))
        x = int(rng.choice(classes[i]))
        y = int(rng.choice(classes[j]))
        prod = reference.mul(f35, x, y)
        assert int(f35.log[prod]) % N == (i + j) % N


def test_build_subset_sizes(ex31, row1, f44):
    assert len(ex31) == 204
    assert len(row1) == 22
    # complement identity: D_{Z_N \ J} is the complement of D_J
    d0 = build_cyclotomic_subset(f44, 5, [0])
    drest = build_cyclotomic_subset(f44, 5, [1, 2, 3, 4])
    assert np.array_equal(np.sort(d0.complement().members), np.sort(drest.members))
    assert isinstance(drest.complement().origin, CyclotomicOrigin)


def test_membership_outside_the_field_is_false(f34):
    # unchecked, -4 would read indicator[77], a member, and 81 would index past the end
    subset = build_cyclotomic_subset(f34, 10, [0])
    assert 77 in subset and 1 in subset
    for x in (-4, -1, 81, 2 ** 70):
        assert x not in subset


def test_complement_equals_set_difference(ex31, row1, f34):
    quadric, _ = quadric_subset(f34, kind="elliptic")
    explicit = FieldSubset.from_logs(f34, [0, 1, 5, 17, 40])
    for subset in (ex31, row1, row1.complement(), quadric, explicit):
        comp = subset.complement()
        members, origin = reference.complement(subset)
        assert np.array_equal(comp.members, reference.log_ordered(subset.tower, members))
        assert comp.members.dtype == np.int32
        assert comp.origin == origin
    assert row1.complement().origin == CyclotomicOrigin(11, tuple(range(1, 11)))


def test_build_subset_rejects_bad_inputs(f44, f35):
    with pytest.raises(ValueError):
        build_cyclotomic_subset(f44, 5, [])
    with pytest.raises(ValueError):
        build_cyclotomic_subset(f44, 5, [0, 1, 2, 3, 4])  # J = Z_N
    with pytest.raises(ValueError):
        build_cyclotomic_subset(f44, 7, [0])
    # odd q: N must divide (q^m-1)/2
    with pytest.raises(ValueError, match="odd q"):
        build_cyclotomic_subset(f35, 2, [0])  # 2 divides 242 but not 121


# (p, e, m) of the fields the class-union stabiliser is checked on
ORIGIN_FIELDS = [(2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 3), (7, 1, 3), (3, 2, 2)]


def _class_union(tower, N, J):
    """The union of the classes indexed by J with its origin (N, J), for any
    N dividing q^m - 1, also where build_cyclotomic_subset asks for more; its
    members are the classes' elements, in log order."""
    subset = pds._class_union(tower, N, tuple(sorted(J)))
    classes = cyclotomic_classes(tower, N)
    members = np.concatenate([classes[j] for j in J])
    assert np.array_equal(subset.members, reference.log_ordered(tower, members))
    return subset


@pytest.mark.parametrize("field", ORIGIN_FIELDS, ids=lambda f: "F_%d^(%d*%d)" % f)
def test_origin_stabiliser_equals_least_period(field):
    # every N | q^m - 1 up to 200: a random J, a J made periodic by a
    # divisor of N, and the complements of both
    tower = build_tower(FieldSpec(*field))
    rng = np.random.default_rng(tower.order)
    for N in (n for n in range(2, 201) if tower.order % n == 0):
        k = int(rng.choice([k for k in range(2, N + 1) if N % k == 0]))
        coarse = rng.choice(k, size=int(rng.integers(1, k)), replace=False)
        periodic = (coarse[:, None] + k * np.arange(N // k)).ravel()
        for J in (rng.choice(N, size=int(rng.integers(1, N)), replace=False), periodic):
            subset = _class_union(tower, N, J.tolist())
            for s in (subset, subset.complement()):
                assert isinstance(s.origin, CyclotomicOrigin)
                d, cosets = s.stabiliser
                assert d == reference.least_period(tower, s.members)
                assert np.array_equal(cosets, reference.coset_logs(tower, s.members, d))
                for members in (s.members, np.append(s.members, 0)):  # 0 is in no coset
                    scanned, scanned_cosets = tower.stabiliser(members)
                    assert scanned == d and np.array_equal(scanned_cosets, cosets)
                # with no origin, the period of the sorted logs, I a prefix view of them
                plain = FieldSubset(tower, s.members)
                assert plain.stabiliser_period == d
                assert np.array_equal(plain.stabiliser[1], cosets)
                assert np.shares_memory(plain.stabiliser[1], plain.logs)


@pytest.mark.parametrize("field", ORIGIN_FIELDS, ids=lambda f: "F_%d^(%d*%d)" % f)
def test_class_union_complement_equals_indicator_route(field):
    # the classes of Z_N minus J against the nonzero elements off the
    # indicator of the same members with no origin, for every N | q^m - 1
    # up to 60 and a random J
    tower = build_tower(FieldSpec(*field))
    rng = np.random.default_rng(tower.qm)
    for N in (n for n in range(2, 61) if tower.order % n == 0):
        J = sorted(rng.choice(N, size=int(rng.integers(1, N)), replace=False).tolist())
        union = _class_union(tower, N, J)
        comp = union.complement()
        assert np.array_equal(comp.members, FieldSubset(tower, union.members).complement().members)
        assert comp.origin == CyclotomicOrigin(N, tuple(j for j in range(N) if j not in J))


def _hyperplane(tower, a):
    members = tower.hyperplane(a)
    return FieldSubset(tower, members[members != 0])


@pytest.mark.parametrize("name", ["f16", "f64", "f44", "f34", "f35", "f92"])
def test_is_symmetric_equals_the_gather(request, name):
    # class unions (for odd q also with N outside (q^m - 1)/2, which are not
    # symmetric), quadrics, random sets and symmetric sets, random unions of
    # cosets of <gamma^k>, and trace hyperplanes
    tower = request.getfixturevalue(name)
    rng = np.random.default_rng(tower.qm)
    subsets = []
    for N in (n for n in range(2, 30) if tower.order % n == 0):
        J = rng.choice(N, size=int(rng.integers(1, N)), replace=False).tolist()
        subsets += [_class_union(tower, N, J), _class_union(tower, N, J).complement()]
    if tower.m >= 4 and tower.m % 2 == 0 and (tower.m, tower.q) != (4, 2):
        subsets += [quadric_subset(tower, kind)[0] for kind in ("hyperbolic", "elliptic")]
    for size in (1, 2, 7, tower.order // 2):
        subsets += [FieldSubset(tower, rng.choice(np.arange(1, tower.qm), size, replace=False))]
        subsets += [_symmetric_random(tower, size, int(rng.integers(2 ** 32)))]
    for k in (k for k in (3, 5, 8, 10, 17) if tower.order % k == 0):
        logs = rng.choice(k, size=int(rng.integers(1, k)), replace=False)
        subsets += [FieldSubset.from_logs(tower, (logs[:, None] + k * np.arange(tower.order // k)).ravel())]
    subsets += [_hyperplane(tower, int(a)) for a in tower.exp[:5]]
    flags = [s.is_symmetric() for s in subsets]
    assert flags == [reference.is_symmetric(s) for s in subsets]
    if tower.p > 2:
        assert any(flags) and not all(flags)


def test_invariance_routes(ex31, row1, f35):
    # N = 5 divides (4^4-1)/3 = 85, so the shift by 85 is the identity on Z_5
    assert ex31.tower.subfield_step % 5 == 0
    assert is_fq_invariant(ex31)
    assert is_fq_invariant(row1)
    # invariant by construction: any union of F_q^*-cosets
    step = f35.subfield_step
    orbit = f35.exp[np.array([7, 7 + step])].astype(np.int64)
    assert is_fq_invariant(FieldSubset(f35, orbit))


def test_non_invariant_pair_in_f9():
    f9 = build_tower(FieldSpec(p=3, e=1, m=2))
    pair = FieldSubset(f9, np.array([1, int(f9.exp[1])]))
    assert not is_fq_invariant(pair)


def test_spectral_certificate_example_31(ex31):
    cert, spec = verify_pds_spectral(ex31)
    assert (cert.v, cert.k, cert.lam, cert.mu) == (256, 204, 164, 156)
    assert (cert.theta1, cert.theta2) == (12, -4)
    assert (cert.m1, cert.m2) == (51, 204)
    assert cert.type_flag == "negative_latin"
    assert (cert.r, cert.eps) == (12, -1)


def test_spectral_certificate_row1(row1):
    cert, _ = verify_pds_spectral(row1)
    assert (cert.v, cert.k, cert.lam, cert.mu) == (243, 22, 1, 2)
    assert (cert.theta1, cert.theta2) == (4, -5)
    assert (cert.m1, cert.m2) == (132, 110)
    assert cert.type_flag == "neither"  # 243 is not a perfect square


def test_row1_complement_certificate(row1):
    comp = row1.complement()
    assert len(comp) == 220
    assert len(comp) + len(row1) == row1.tower.order
    cert, _ = verify_pds_spectral(comp)
    assert (cert.k, cert.theta1, cert.theta2) == (220, 4, -5)
    assert (cert.m1, cert.m2) == (110, 132)
    assert np.array_equal(np.sort(comp.complement().members), np.sort(row1.members))


def test_full_multiplicative_group_rejected(f35):
    full = FieldSubset(f35, f35.exp[np.arange(f35.order)].astype(np.int64))
    with pytest.raises(PdsVerificationError, match="proper"):
        verify_pds_spectral(full)
    with pytest.raises(PdsVerificationError, match="proper"):
        verify_pds_direct(full)


def test_asymmetric_set_rejected(f35):
    # {1} alone: -1 = gamma^121 is not in it
    single = FieldSubset(f35, np.array([1]))
    with pytest.raises(PdsVerificationError, match="symmetric"):
        verify_pds_spectral(single)


def test_asymmetry_witness_is_the_least():
    # a symmetric set of logs, L and L + (q^m - 1)/2, plus logs below
    # (q^m - 1)/2 off it, whose negatives stay outside: the subset holds its
    # members in log order, and the asymmetric member of least log is not
    # the least asymmetric member, which is the witness
    f38 = build_tower(FieldSpec(p=3, e=1, m=8))
    rng = np.random.default_rng(38)
    half = f38.order // 2
    logs = rng.choice(f38.order, size=40, replace=False)
    symmetric = np.union1d(logs % half, logs % half + half)
    extra = rng.choice(np.setdiff1d(np.arange(half), symmetric), size=5, replace=False)
    subset = FieldSubset.from_logs(f38, np.concatenate([symmetric, extra]).tolist())
    expected = reference.asymmetry_witness(subset)
    assert expected == int(f38.exp[extra].min())
    assert expected != int(f38.exp[extra.min()])  # the first asymmetric member in log order
    with pytest.raises(PdsVerificationError, match="symmetric") as err:
        verify_pds_spectral(subset)
    assert err.value.witness == expected


def test_direct_vs_spectral_on_quadric(f34):
    subset, predicted = quadric_subset(f34, kind="hyperbolic")
    cert, _ = verify_pds_spectral(subset)
    lam, mu = verify_pds_direct(subset)
    assert (lam, mu) == (cert.lam, cert.mu) == (predicted.lam, predicted.mu)


def test_direct_verification_failure_witness(f34):
    rng = np.random.default_rng(12)
    # random symmetric set of the same size as the hyperbolic quadric
    half = rng.choice(np.arange(1, f34.qm), size=16, replace=False).astype(np.int64)
    members = np.unique(np.concatenate([half, reference.neg_table(f34)[half].astype(np.int64)]))
    bad = FieldSubset(f34, members)
    with pytest.raises(PdsVerificationError) as err:
        verify_pds_direct(bad)
    assert err.value.witness is not None
    with pytest.raises(PdsVerificationError):
        verify_pds_spectral(bad)


def test_irrational_certificate_witness():
    # {x, -x} over F_5: the values zeta^t + zeta^-t are irrational wherever
    # t = Tr(a x) != 0, and the witness is the least such a
    tower = build_tower(FieldSpec(p=5, e=1, m=3))
    x = int(tower.exp[7])
    subset = FieldSubset(tower, [x, int(reference.neg_table(tower)[x])])
    with pytest.raises(PdsVerificationError) as exc:
        verify_pds_spectral(subset)
    traces = reference.trace_p(tower)[tower.mul_vec(x, np.arange(tower.qm))]
    assert exc.value.witness == int(np.flatnonzero(traces)[0])


def test_direct_guard(f35, monkeypatch):
    # the cap is read at call time
    d = build_cyclotomic_subset(f35, 11, [0])
    monkeypatch.setattr(pds, "DIRECT_VERIFY_CAP", 100)
    with pytest.raises(GuardExceeded, match="capped at 100"):
        verify_pds_direct(d)


def test_direct_reduction_matches_full_scan(f34):
    # class-representative reduction gives the same counts as scanning every g
    subset, _ = quadric_subset(f34, kind="elliptic")
    lam, mu = verify_pds_direct(subset)
    tower = subset.tower
    for g in tower.exp[np.arange(tower.order)].tolist():
        count = int(np.count_nonzero(subset.indicator[tower.add_sets(subset.members, np.int64(g))]))
        assert count == (lam if subset.indicator[g] else mu)


def test_prediction_example_31(ex31, f44):
    pred = predicted_cyclotomic_eigenvalues(f44, 5, [1, 2, 3, 4])
    assert (pred.ell1, pred.t, pred.u) == (2, 2, 4)
    cert = pred.certificate
    assert (cert.k, cert.theta1, cert.theta2) == (204, 12, -4)
    assert cert.type_flag == "negative_latin"
    # coset assignment against the spectrum oracle, all nonzero a
    spec = ex31.spectrum()
    vals = spec.rational_values()
    for i in range(f44.order):
        assert vals[f44.exp[i]] == pred.coset_values[i % 5]


@pytest.mark.parametrize("N,J", [(3, [0]), (5, [0]), (5, [0, 1])])
def test_prediction_toy_cases_f16(f16, N, J):
    if N == 5 and len(J) == 2:
        # J = {0,1}: u=2, t odd branch
        pass
    pred = predicted_cyclotomic_eigenvalues(f16, N, J)
    subset = build_cyclotomic_subset(f16, N, J)
    spec = subset.spectrum()
    vals = spec.rational_values()
    for i in range(f16.order):
        assert vals[f16.exp[i]] == pred.coset_values[i % N]
    assert len(subset) == pred.certificate.k


@pytest.mark.parametrize("spec,N", [((3, 1, 6), 4), ((5, 1, 2), 6), ((7, 1, 2), 8)],
                         ids=["F_3^6 N=4", "F_5^2 N=6", "F_7^2 N=8"])
def test_prediction_special_classes_shift_by_half(spec, N):
    # N even, (p^ell1 + 1)/N odd and t odd: the classes that take the value
    # of multiplicity k are -J + N/2, not -J, and the spectrum shows it
    tower = build_tower(FieldSpec(*spec))
    for J in ([0], [1], [0, 1]):
        pred = predicted_cyclotomic_eigenvalues(tower, N, J)
        assert pred.t % 2 == 1 and (tower.p ** pred.ell1 + 1) // N % 2 == 1
        vals = build_cyclotomic_subset(tower, N, J).spectrum().rational_values()
        assert np.array_equal(vals[tower.exp], np.tile(pred.coset_values, tower.order // N))


def test_prediction_t_odd_f64():
    f64 = build_tower(FieldSpec(p=2, e=1, m=6))
    pred = predicted_cyclotomic_eigenvalues(f64, 9, [0, 3, 6])
    assert pred.t == 1  # odd: latin square type
    assert pred.certificate.type_flag == "latin"
    subset = build_cyclotomic_subset(f64, 9, [0, 3, 6])
    cert, spec = verify_pds_spectral(subset)
    assert cert == pred.certificate
    vals = spec.rational_values()
    for i in range(f64.order):
        assert vals[f64.exp[i]] == pred.coset_values[i % 9]


def test_prediction_requires_semiprimitivity(f35):
    with pytest.raises(PdsVerificationError, match="semiprimitivity"):
        predicted_cyclotomic_eigenvalues(f35, 11, [0])


@pytest.mark.parametrize("p, m, N, message", [
    # e*m = 1 leaves no ell to try, though 5^1 = -1 (mod 2)
    (5, 1, 2, "no ell in 1..0 with 5^ell = -1 (mod 2); semiprimitivity fails"),
    (5, 3, 2, "2*ell1 = 2 does not divide e*m = 3"),
    (3, 12, 13, "no ell in 1..6 with 3^ell = -1 (mod 13); semiprimitivity fails"),
])
def test_prediction_refusals(p, m, N, message):
    tower = build_tower(FieldSpec(p=p, e=1, m=m))
    with pytest.raises(PdsVerificationError) as refusal:
        predicted_cyclotomic_eigenvalues(tower, N, [0])
    assert str(refusal.value) == message


def test_quadric_certificates_f34(f34):
    hyp, hyp_cert = quadric_subset(f34, kind="hyperbolic")
    assert (hyp_cert.eps, hyp_cert.r, hyp_cert.k) == (1, 4, 32)
    ell, ell_cert = quadric_subset(f34, kind="elliptic")
    assert (ell_cert.eps, ell_cert.r, ell_cert.k) == (-1, 2, 20)
    for subset, predicted in ((hyp, hyp_cert), (ell, ell_cert)):
        observed, _ = verify_pds_spectral(subset)
        assert observed == predicted
        assert is_fq_invariant(subset)  # Q(lam*x) = lam^2 Q(x) fixes the zero set


def test_quadric_even_q():
    f = build_tower(FieldSpec(p=2, e=1, m=6))
    hyp, cert = quadric_subset(f, kind="hyperbolic")
    observed, _ = verify_pds_spectral(hyp)
    assert observed == cert
    assert is_fq_invariant(hyp)


def test_quadric_rejects_bad_input(f34, f35):
    with pytest.raises(ValueError, match="even m"):
        quadric_subset(f35, kind="hyperbolic")  # m = 5 odd
    with pytest.raises(ValueError, match="degenerate"):
        gram = tuple(tuple(0 for _ in range(4)) for _ in range(4))
        quadric_subset(f34, gram=gram)
    f16 = build_tower(FieldSpec(p=2, e=1, m=4))
    with pytest.raises(ValueError, match="excluded"):
        quadric_subset(f16, kind="hyperbolic")


def test_eigensystem_closed_forms():
    theta1, theta2, m1, m2 = eigensystem_from_parameters(243, 22, 1, 2)
    assert (theta1, theta2, m1, m2) == (4, -5, 132, 110)


def test_eigensystem_small_discriminants():
    # discriminant 0 (lambda = mu = k): one eigenvalue, so the multiplicities
    # have no divisor, and the refusal comes before any division by it
    with pytest.raises(PdsVerificationError, match="non-integral multiplicities"):
        eigensystem_from_parameters(16, 6, 6, 6)
    # discriminant 1 (k = mu, lambda - mu = -1): s = 1 divides everything, so
    # the closed forms are integral and returned; their zero eigenvalue meets
    # every other identity of a certificate, so only the straddle check refuses it
    assert eigensystem_from_parameters(16, 6, 5, 6) == (0, -1, 9, 6)
    with pytest.raises(PdsVerificationError, match="straddle zero"):
        PdsCertificate(16, 6, 5, 6, 0, -1, 9, 6, "neither")


@pytest.mark.parametrize(
    "q,m,N,k,theta1,theta2",
    [
        (5, 9, 19, 102796, 296, -329),
        (7, 9, 37, 1090638, 584, -1817),
        (11, 7, 43, 453190, 650, -681),
    ],
)
def test_extended_rows_parameter_consistency(q, m, N, k, theta1, theta2):
    # parameter-level consistency for the extended-scale examples (no tables built)
    v = q ** m
    assert (v - 1) % N == 0
    assert (k * N) % (v - 1) == 0  # k = u (q^m - 1) / N with integer u
    mu = k + theta1 * theta2
    lam = mu + theta1 + theta2
    t1, t2, m1, m2 = eigensystem_from_parameters(v, k, lam, mu)
    assert (t1, t2) == (theta1, theta2)
    assert m1 + m2 == v - 1
    assert k + m1 * theta1 + m2 * theta2 == 0


def test_classify_latin_type():
    assert classify_latin_type(256, 204, 164, 156) == ("negative_latin", 12, -1)
    assert classify_latin_type(81, 32, 13, 12) == ("latin", 4, 1)
    assert classify_latin_type(243, 22, 1, 2) == ("neither", None, None)


def test_random_invariant_non_pds_fails(f35):
    rng = np.random.default_rng(20250811)
    step = f35.subfield_step
    reps = rng.choice(np.arange(step), size=11, replace=False)
    logs = np.concatenate([reps, reps + step])
    subset = FieldSubset.from_logs(f35, logs)
    assert len(subset) == 22
    assert is_fq_invariant(subset)
    assert subset.is_symmetric()
    with pytest.raises(PdsVerificationError):
        verify_pds_spectral(subset)


def test_subset_json_round_trip(f44, f34):
    d = FieldSubset.from_json(f44, {"cyclotomic": {"N": 5, "J": [1, 2, 3, 4]}})
    assert len(d) == 204
    explicit = FieldSubset.from_json(f44, {"explicit": {"logs": [0, 17, 34]}})
    assert sorted(f44.log[explicit.members].tolist()) == [0, 17, 34]
    quad = FieldSubset.from_json(f34, {"quadric": {"kind": "hyperbolic"}})
    assert len(quad) == 32


def test_complement_of_example31_spans(f44):
    # the 51-element subgroup already spans the field over F_4
    dbar = build_cyclotomic_subset(f44, 5, [1, 2, 3, 4]).complement()
    assert rank_reaches(f44, dbar.members, f44.m)[0]


# -- the direct check against a scan over every g ------------------------------


def _direct_reference(subset):
    """verify_pds_direct without the orbit reduction: every g in F_{q^m}^*."""
    tower = subset.tower
    lam = mu = lam_g = mu_g = None
    for g in tower.exp.tolist():
        count = int(np.count_nonzero(subset.indicator[tower.add_sets(subset.members, g)]))
        if subset.indicator[g]:
            if lam is None:
                lam, lam_g = count, g
            elif count != lam:
                raise PdsVerificationError("common-neighbor count not constant on the set",
                                           witness=(lam_g, g, lam, count))
        else:
            if mu is None:
                mu, mu_g = count, g
            elif count != mu:
                raise PdsVerificationError("common-neighbor count not constant off the set",
                                           witness=(mu_g, g, mu, count))
    return lam, mu


def _symmetric_random(tower, size, seed):
    half = np.random.default_rng(seed).choice(np.arange(1, tower.qm), size=size, replace=False)
    return FieldSubset(tower, np.concatenate([half, reference.neg_table(tower)[half]]))


DIRECT_PDS = {
    "F_2^4 N=3": ("f16", lambda t: build_cyclotomic_subset(t, 3, [0])),
    # the first g off D is the last of the d = 3 representatives
    "F_2^4 N=3 J=[0,1]": ("f16", lambda t: build_cyclotomic_subset(t, 3, [0, 1])),
    "F_2^4 N=5 J=[0,1]": ("f16", lambda t: build_cyclotomic_subset(t, 5, [0, 1])),
    "F_3^4 hyperbolic": ("f34", lambda t: quadric_subset(t, kind="hyperbolic")[0]),
    "F_3^4 elliptic": ("f34", lambda t: quadric_subset(t, kind="elliptic")[0]),
    "F_3^4 N=10": ("f34", lambda t: build_cyclotomic_subset(t, 10, [0])),
    "F_3^5 N=11": ("f35", lambda t: build_cyclotomic_subset(t, 11, [0])),
    "F_4^4 N=5 J=[1,2,3,4]": ("f44", lambda t: build_cyclotomic_subset(t, 5, [1, 2, 3, 4])),
    "F_4^4 N=17": ("f44", lambda t: build_cyclotomic_subset(t, 17, [0])),
    # not F_4^*-invariant: d = 3 does not divide the subfield step 85
    "F_4^4 N=3": ("f44", lambda t: build_cyclotomic_subset(t, 3, [0])),
}

DIRECT_NOT_PDS = {
    # F_q^*-invariant class unions
    "F_3^4 N=8 J=[0,1]": ("f34", lambda t: build_cyclotomic_subset(t, 8, [0, 1])),
    "F_3^4 N=20": ("f34", lambda t: build_cyclotomic_subset(t, 20, [0])),
    "F_3^5 N=11 J=[0,1]": ("f35", lambda t: build_cyclotomic_subset(t, 11, [0, 1])),
    # symmetric, not F_q^*-invariant: d does not divide the subfield step
    "F_4^4 N=15": ("f44", lambda t: build_cyclotomic_subset(t, 15, [0])),
    "F_4^4 random": ("f44", lambda t: FieldSubset(t, np.arange(1, 100))),
    "F_5^3 random symmetric": (None, lambda t: _symmetric_random(t, 20, 5)),
    "F_2^4 random": ("f16", lambda t: FieldSubset(t, [1, 2, 3, 9, 12])),
}


def _direct_subset(request, table, name):
    fixture, build = table[name]
    tower = request.getfixturevalue(fixture) if fixture else build_tower(FieldSpec(p=5, e=1, m=3))
    return build(tower)


@pytest.mark.parametrize("name", sorted(DIRECT_PDS))
def test_direct_check_equals_full_scan_on_pds(request, name):
    subset = _direct_subset(request, DIRECT_PDS, name)
    assert verify_pds_direct(subset) == _direct_reference(subset)


@pytest.mark.parametrize("name", sorted(DIRECT_NOT_PDS))
def test_direct_check_failure_equals_full_scan(request, name):
    subset = _direct_subset(request, DIRECT_NOT_PDS, name)
    assert subset.is_symmetric()
    with pytest.raises(PdsVerificationError) as reduced:
        verify_pds_direct(subset)
    with pytest.raises(PdsVerificationError) as full:
        _direct_reference(subset)
    assert str(reduced.value) == str(full.value)
    assert reduced.value.witness == full.value.witness


@pytest.mark.parametrize("chunk", ["one g", "split"])
@pytest.mark.parametrize("table,name", [("pds", n) for n in sorted(DIRECT_PDS)]
                         + [("not pds", n) for n in sorted(DIRECT_NOT_PDS)])
def test_direct_check_chunks_equal_full_scan(request, monkeypatch, table, name, chunk):
    # one g per chunk, or a chunk boundary between the first violation and the
    # count it is compared with (between the two halves of the g range for a PDS)
    subset = _direct_subset(request, DIRECT_PDS if table == "pds" else DIRECT_NOT_PDS, name)
    try:
        expected = _direct_reference(subset)
    except PdsVerificationError as exc:
        expected = exc
    step = 1
    if chunk == "split":
        d = subset.stabiliser_period
        step = (d + 1) // 2
        if isinstance(expected, PdsVerificationError):
            step = int(subset.tower.log[expected.witness[1]])
            assert step < d and int(subset.tower.log[expected.witness[0]]) < step
    monkeypatch.setattr("pdscodes.field.BLOCK", step * len(subset))
    if not isinstance(expected, PdsVerificationError):
        assert verify_pds_direct(subset) == expected
        return
    with pytest.raises(PdsVerificationError) as batched:
        verify_pds_direct(subset)
    assert str(batched.value) == str(expected)
    assert batched.value.witness == expected.witness


def test_empty_and_full_subsets_are_refused(f34):
    # a connection set must be nonempty and proper, for both verifiers
    everything = f34.exp[: f34.order]
    for members in ([], everything):
        subset = FieldSubset(f34, members)
        assert not subset.is_proper()
        for verify in (verify_pds_spectral, verify_pds_direct):
            with pytest.raises(PdsVerificationError, match="nonempty and proper"):
                verify(subset)
    assert FieldSubset(f34, everything[1:]).is_proper()


def test_field_subset_input_validation(f34):
    members = [int(f34.exp[i]) for i in (7, 3, 3, 40, 0, 7)]
    subset = FieldSubset(f34, members)
    assert subset.members.tolist() == [int(f34.exp[i]) for i in (0, 3, 7, 40)]
    assert subset.members.dtype == np.int32
    assert np.flatnonzero(subset.indicator).tolist() == sorted(set(members))
    assert len(FieldSubset(f34, [])) == 0
    with pytest.raises(ValueError, match="0 not allowed"):
        FieldSubset(f34, [5, 0, 3])
    with pytest.raises(ValueError, match="out of field range"):
        FieldSubset(f34, [5, -1])
    with pytest.raises(ValueError, match="out of field range"):
        FieldSubset(f34, [5, f34.qm])

    # any array of elements gives the members the indicator route gives, in
    # log order, and leaves the caller's array as it was
    rng = np.random.default_rng(34)
    drawn = rng.integers(1, f34.qm, size=60)  # unsorted, with repeats
    for members in (drawn.tolist(), drawn.astype(np.int32), drawn.astype(np.int64),
                    drawn.reshape(6, 10), []):
        before = np.array(members, copy=True)
        subset = FieldSubset(f34, members)
        expected = reference.indicator_members(f34, members)
        assert subset.members.dtype == np.int32
        assert np.array_equal(subset.members, reference.log_ordered(f34, expected))
        assert np.array_equal(np.flatnonzero(subset.indicator), expected)
        assert np.array_equal(np.asarray(members), before)
    # range-checked before the int32 cast, where 2^32 + 5 would wrap to 5
    for members in ([5, 2 ** 32 + 5], np.array([5, 2 ** 32 + 5]), np.array([2 ** 31 + 5])):
        with pytest.raises(ValueError, match="out of field range"):
            FieldSubset(f34, members)


def test_class_union_builds_no_indicator():
    # the build allocates O(|D|), far below one byte per field element, and
    # neither the spectrum nor the spectral check of a symmetric union
    # builds the indicator
    f312 = build_tower(FieldSpec(p=3, e=1, m=12))
    tracemalloc.start()
    try:
        subset = build_cyclotomic_subset(f312, 73, [49, 55])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < f312.qm // 2
    verify_pds_spectral(subset, full_spectrum(f312, subset.members))
    assert "indicator" not in vars(subset)


def test_logs_and_fq_invariance_equal_the_element_routes(f35, f44, f92):
    # a class union's logs are i N + j, read off (N, J) with no table; the
    # invariance check, d | step, agrees with scaling the members by mul_vec
    cases = [build_cyclotomic_subset(f44, 5, [1, 2, 3, 4]), build_cyclotomic_subset(f44, 17, [0]),
             build_cyclotomic_subset(f44, 85, [0, 3]), build_cyclotomic_subset(f35, 11, [0]),
             build_cyclotomic_subset(f92, 20, [0, 5]), build_cyclotomic_subset(f92, 10, [2]),
             FieldSubset(f92, f92.exp[[0, 1, 2]]), FieldSubset(f92, f92.exp[::4]),
             quadric_subset(build_tower(FieldSpec(p=3, e=1, m=4)), "elliptic")[0]]
    seen = set()
    for subset in cases:
        tower = subset.tower
        logs = subset.logs
        assert logs.dtype == np.int32 and not logs.flags.writeable
        assert np.array_equal(logs, tower.log[subset.members])
        assert (np.diff(logs) > 0).all()
        invariant = is_fq_invariant(subset)
        assert invariant == reference.is_invariant_under_subfield(tower, subset.members)
        seen.add((isinstance(subset.origin, CyclotomicOrigin), invariant))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# (p, e, m) of the fields whose quadrics are checked against Q element by element
QUADRIC_FIELDS = [(2, 1, 8), (2, 1, 10), (3, 1, 4), (3, 1, 6), (5, 1, 4), (2, 2, 4), (2, 2, 6),
                  (3, 2, 4)]


@pytest.mark.parametrize("field", QUADRIC_FIELDS, ids=lambda f: "F_%d^(%d*%d)" % f)
def test_quadric_members_equal_reference(field):
    # the blockwise build against Q evaluated one element at a time through
    # the coordinate tables: both kinds, and the elliptic gram with x_0^2
    # added at the last label (for even q the polar form is unchanged, for
    # odd q the first plane stays nondegenerate)
    tower = build_tower(FieldSpec(*field))
    explicit = [list(row) for row in pds.default_gram(tower, "elliptic")]
    explicit[0][0] = tower.q - 1
    for kind, gram in (("hyperbolic", None), ("elliptic", None), (None, explicit)):
        subset, _ = quadric_subset(tower, kind=kind, gram=gram)
        labels = reference.quadric_labels(tower, gram or pds.default_gram(tower, kind))
        assert np.array_equal(subset.members,
                              reference.log_ordered(tower, np.flatnonzero(labels == 0)[1:]))
        assert subset.members.dtype == np.int32
        xs = np.arange(tower.qm).reshape(tower.p, -1)  # any shape of elements
        assert np.array_equal(pds.quadric_values(tower, subset.origin.gram, xs),
                              labels.reshape(xs.shape))


def test_quadric_build_grows_with_the_field():
    # F_{2^16} and F_{2^18} elliptic quadrics: Q is read a block of elements
    # at a time, so above the tower the peak is the members' arrays and one
    # block's digits, 6.1 and 7.1 MB traced, against 11.6 and 50.4 MB when
    # it was evaluated on every element at once
    peaks = []
    for m in (16, 18):
        tower = build_tower(FieldSpec(p=2, e=1, m=m))
        tower.log  # the tower's table, read by the polar form's rank test
        tracemalloc.start()
        try:
            quadric_subset(tower, kind="elliptic")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 50.4e6 / 5
    assert peaks[1] <= 4 * peaks[0]  # no faster than q^m


@lru_cache(maxsize=None)
def _tower(p, e, m):
    return build_tower(FieldSpec(p=p, e=e, m=m))


# (p, e, m): fields the constructors are drawn on; the first three have quadrics
LOG_ORDER_FIELDS = [(3, 1, 4), (2, 1, 6), (2, 2, 4), (5, 1, 3), (2, 1, 9)]


@st.composite
def constructed(draw):
    """(subset, the set of its members by a reference route) for a subset drawn
    from every constructor: a class union or its complement, from_logs (any
    integers, repeats) or its complement, shuffled elements with repeats, and a
    quadric of either kind."""
    kind = draw(st.sampled_from(["union", "logs", "elements", "quadric"]))
    tower = _tower(*draw(st.sampled_from(LOG_ORDER_FIELDS[: 3 if kind == "quadric" else None])))
    logs = np.arange(tower.order)
    if kind == "quadric":
        quadric = draw(st.sampled_from(["hyperbolic", "elliptic"]))
        labels = reference.quadric_labels(tower, pds.default_gram(tower, quadric))
        zeros = set(np.flatnonzero(labels == 0)[1:].tolist())
        return quadric_subset(tower, kind=quadric)[0], zeros
    if kind == "union":
        half = tower.order // 2 if tower.q % 2 else tower.order  # odd q: N | (q^m - 1)/2
        N = draw(st.sampled_from([n for n in range(2, half + 1) if half % n == 0]))
        J = draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=N - 1))
        subset, on = build_cyclotomic_subset(tower, N, sorted(J)), np.isin(logs % N, list(J))
    elif kind == "logs":
        drawn = draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=60))
        subset = FieldSubset.from_logs(tower, drawn)
        on = np.isin(logs, [x % tower.order for x in drawn])
    else:
        drawn = draw(st.lists(st.integers(1, tower.qm - 1), min_size=1, max_size=60))
        drawn = draw(st.permutations(drawn + drawn[: len(drawn) // 2]))  # repeats, shuffled
        return FieldSubset(tower, drawn), set(drawn)
    if draw(st.booleans()):
        subset, on = subset.complement(), ~on
    return subset, set(tower.exp[on].tolist())


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(constructed())
def test_every_constructor_holds_members_in_log_order(case):
    # int32 members, their logs strictly ascending, the reference set
    subset, expected = case
    tower = subset.tower
    assert subset.members.dtype == np.int32
    assert (np.diff(tower.log[subset.members]) > 0).all()
    assert set(subset.members.tolist()) == expected
    assert np.array_equal(subset.logs, tower.log[subset.members])
    # f in log order, the codes' coordinates: the indicator read at exp
    assert not subset.log_indicator.flags.writeable
    assert np.array_equal(subset.log_indicator, subset.indicator[tower.exp])


@pytest.mark.parametrize("p, e, m, N, J", [
    (3, 1, 4, 8, (0, 3)), (2, 2, 4, 5, (1, 2, 3, 4)), (2, 1, 9, 7, (0,)), (5, 1, 3, 62, (1, 40))])
def test_class_union_log_indicator_reads_no_element_table(monkeypatch, p, e, m, N, J):
    # a class union and its complement hold the logs i N + j: their
    # log_indicator is scattered from those with exp, log and the element
    # indicator refusing every read
    tower = _tower(p, e, m)
    union = build_cyclotomic_subset(tower, N, J)
    on = np.isin(np.arange(tower.order) % N, J)
    cases = ((union, on), (union.complement(), ~on))

    def refuse(self):
        raise AssertionError("an element-order table was read")

    with monkeypatch.context() as patched:
        for owner, name in ((FieldTower, "exp"), (FieldTower, "log"), (FieldSubset, "indicator")):
            patched.setattr(owner, name, property(refuse), raising=False)
        for subset, want in cases:
            assert np.array_equal(subset.log_indicator, want)
