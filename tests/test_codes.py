import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
import reference

from pdscodes import codes, qpoly
from pdscodes.blocking import is_cutting_vectorial_blocking
from pdscodes.charsums import psi_sum
from pdscodes.codes import (
    INCONCLUSIVE,
    MINIMAL,
    NOT_MINIMAL,
    NOT_RUN,
    MethodVerdict,
    MinimalityReport,
    SubsetCode,
    ab_condition,
    characteristic_trace_form,
    minimality_cyclotomic_sufficient,
    minimality_latin_sufficient,
    minimality_pds_sufficient,
    orbit_engine,
    weight_class,
    weight_distribution_predicted,
)
from pdscodes.cli import main
from pdscodes.field import FieldSpec, FieldTower, build_tower, rank_reaches
from pdscodes.pds import (
    FieldSubset,
    GuardExceeded,
    build_cyclotomic_subset,
    predicted_cyclotomic_eigenvalues,
    quadric_subset,
    verify_pds_spectral,
)
from pdscodes.secretsharing import analyze_scheme


@pytest.fixture(scope="module")
def ex31_code(f44):
    return SubsetCode(build_cyclotomic_subset(f44, 5, [1, 2, 3, 4]))


@pytest.fixture(scope="module")
def row1_code(f35):
    return SubsetCode(build_cyclotomic_subset(f35, 11, [0]))


@pytest.fixture(scope="module")
def hyperplane_subset(f34):
    # the nonzero part of a trace hyperplane, an invariant PDS with k = theta1
    members = f34.hyperplane(1)
    return FieldSubset(f34, members[members != 0])


def test_codeword_basics(ex31_code):
    code = ex31_code
    assert not reference.codeword(code, 0, 0).any()
    cw = reference.codeword(code, 1, 0)
    support = np.nonzero(cw)[0]
    xs = code.tower.exp[support]
    assert len(support) == 204
    assert all(code.subset.indicator[x] for x in xs.tolist())
    v = int(code.tower.exp[9])
    assert int(np.count_nonzero(reference.codeword(code, 0, v))) == 256 - 64


def test_codeword_linearity(ex31_code):
    code = ex31_code
    tower = code.tower
    add_q, _, _ = tower.subfield_tables()
    rng = np.random.default_rng(13)
    for _ in range(20):
        u1, u2 = (int(x) for x in rng.integers(0, tower.q, size=2))
        v1, v2 = (int(x) for x in rng.integers(0, tower.qm, size=2))
        lhs = reference.codeword(code, int(add_q[u1, u2]), int(tower.add_sets(v1, v2)))
        rhs = tower.add_sets(reference.codeword(code, u1, v1), reference.codeword(code, u2, v2))
        assert np.array_equal(lhs, rhs)


def test_dimensions(ex31_code, row1_code):
    assert ex31_code.n == 255
    assert ex31_code.dimension() == 5
    assert characteristic_trace_form(ex31_code.subset) is None
    assert row1_code.n == 242
    assert row1_code.dimension() == 6


def test_binary_degenerate_dimension(f16):
    # over F_2 the indicator of {x : Tr(x) = 1} is itself a trace form
    members = np.array([x for x in range(1, f16.qm) if reference.trace_p(f16)[x] == 1],
                       dtype=np.int64)
    code = SubsetCode(FieldSubset(f16, members))
    assert characteristic_trace_form(code.subset) == 1
    assert code.dimension() == f16.m
    # a generic binary subset stays full-dimensional
    rng = np.random.default_rng(3)
    generic = SubsetCode(FieldSubset(f16, rng.choice(np.arange(1, 16), size=6, replace=False)))
    if characteristic_trace_form(generic.subset) is None:
        assert generic.dimension() == f16.m + 1


@pytest.mark.parametrize("m", [4, 5])
def test_characteristic_trace_form_finds_every_trace_set(m):
    # over F_2 each {x : Tr(a x) = 1}, a != 0, is the trace form a; swapping
    # one member for a non-member leaves no trace form
    t = build_tower(FieldSpec(p=2, e=1, m=m))
    xs = t.exp.astype(np.int64)
    for a in range(1, t.qm):
        ones = reference.trace_labels(t, a, xs) == 1
        members, others = xs[ones], xs[~ones]
        assert characteristic_trace_form(FieldSubset(t, members)) == a
        for i in range(len(members)):
            swapped = members.copy()
            swapped[i] = others[(a + i) % len(others)]
            assert characteristic_trace_form(FieldSubset(t, swapped)) is None


@pytest.mark.parametrize("p, e, m", [(2, 1, 4), (2, 1, 5), (2, 2, 3), (3, 1, 4), (3, 2, 2)])
def test_characteristic_trace_form_matches_brute_force(p, e, m):
    # every a tried on the element route, for the trace sets {x : Tr(a x) = 1}
    # (trace forms only over F_2) and for random sets
    t = build_tower(FieldSpec(p=p, e=e, m=m))
    xs = t.exp.astype(np.int64)
    table = np.stack([reference.trace_labels(t, a, xs) for a in range(t.qm)])
    rng = np.random.default_rng(t.qm)
    sets = [xs[table[a] == 1] for a in range(1, t.qm)]
    sets += [rng.choice(xs, size=int(rng.integers(1, t.order)), replace=False) for _ in range(40)]
    for members in sets:
        subset = FieldSubset(t, members)
        matches = np.flatnonzero((table == subset.indicator[xs]).all(axis=1)).tolist()
        assert len(matches) <= 1 and not (matches and t.q > 2)
        assert characteristic_trace_form(subset) == (matches[0] if matches else None)


def test_characteristic_trace_form_reads_no_log(monkeypatch):
    # on towers whose log raises, F_2^3 to F_2^10: each trace-one set
    # {gamma^i : Tr(gamma^(j + i)) = 1} is the trace form a = gamma^j, and
    # swapping its last member for the first non-member leaves none
    def no_log(tower):
        raise AssertionError("the trace-form test read log")

    monkeypatch.setattr(FieldTower, "log", property(no_log))
    for m in range(3, 11):
        t = build_tower(FieldSpec(p=2, e=1, m=m))
        for j in (0, 1, m, t.order // 3, t.order - 1):
            ones = np.roll(t.trace_of_exp, -j) == 1
            logs = np.flatnonzero(ones)
            assert characteristic_trace_form(FieldSubset.from_logs(t, logs)) == t.exp[j]
            logs[-1] = np.argmin(ones)
            assert characteristic_trace_form(FieldSubset.from_logs(t, logs)) is None


def test_dimension_evaluates_the_trace_form_once(f16, monkeypatch):
    calls = []

    def counted(subset):
        calls.append(subset)
        return characteristic_trace_form(subset)

    monkeypatch.setattr("pdscodes.codes.characteristic_trace_form", counted)
    code = SubsetCode(FieldSubset.from_logs(f16, [0, 1, 3, 7]))
    assert code.dimension() == code.dimension() == f16.m + 1
    assert calls == [code.subset]


def test_trace_form_code_is_minimal_by_every_oracle(f16):
    # f = Tr(x) on F_2^4 makes the one-weight [15, 4] simplex code, which is
    # minimal: the zeros of each word have rank k - 1 = m - 1, and the
    # complement spans only a hyperplane
    code = SubsetCode(FieldSubset(f16, [x for x in range(1, f16.qm)
                                        if reference.trace_p(f16)[x] == 1]))
    assert code.dimension() == f16.m
    for verdict in (code.minimality_cover(), code.minimality_heng(), code.minimality_snc()):
        assert verdict.status == MINIMAL
    assert code.rank_orbit_flags()[1].all()
    assert all(reference.full_flags(code, reference.cover_violations))
    logs = sorted(int(f16.log[x]) for x in code.subset.members)
    argv = ["code", "--field", '{"p":2,"e":1,"m":4}',
            "--subset", json.dumps({"explicit": {"logs": logs}}), "--methods", "all"]
    assert main(argv) == 0


def test_kernel_count_matches_closed_form_dimension(f16, f34, f35, f44):
    # the dimension from the trace form against the kernel counted off the
    # weight columns: the weight-0 frequency of the enumerated distribution
    rng = np.random.default_rng(21)
    subsets = [
        build_cyclotomic_subset(f44, 5, [1, 2, 3, 4]),
        build_cyclotomic_subset(f35, 11, [0]),
        quadric_subset(f34, kind="elliptic")[0],
        FieldSubset(f16, [x for x in range(1, f16.qm) if reference.trace_p(f16)[x] == 1]),
    ]
    subsets += [
        FieldSubset(t, rng.choice(np.arange(1, t.qm), size=t.qm // 3, replace=False))
        for t in (f16, f34, f44)
    ]
    dims = []
    for subset in subsets:
        code = SubsetCode(subset)
        dims.append(code.dimension())
        kernel = code.weight_distribution_direct().as_dict()[0]
        assert kernel == code.tower.q ** (code.tower.m + 1 - dims[-1])
    assert dims[3] == f16.m  # the trace-form subset loses one dimension


def test_defining_set_structure(row1_code):
    # the coordinates are the nonzero elements in ascending log order, f read there
    tower = row1_code.tower
    assert len(tower.exp) == len(set(tower.exp.tolist())) == row1_code.n
    assert np.array_equal(tower.log[tower.exp], np.arange(row1_code.n))
    assert np.count_nonzero(row1_code.subset.indicator[tower.exp]) == len(row1_code.subset)


def test_dyz_sizes_example31(ex31_code, f44):
    code = ex31_code
    spec = code.subset.spectrum()
    vals = spec.rational_values()
    z_neg = next(int(z) for z in range(1, f44.qm) if vals[z] == -4)
    z_pos = next(int(z) for z in range(1, f44.qm) if vals[z] == 12)
    # |D_{y,z}| = (|D| - psi(zD)) / q for y != 0 and (|D| + (q - 1) psi(zD)) / q for y = 0
    assert len(reference.slice_members(code.subset, 1, z_neg)) == (204 + 4) // 4 == 52
    assert len(reference.slice_members(code.subset, 0, z_pos)) == (204 + 3 * 12) // 4 == 60
    # partition over y recovers |D|
    for z in (z_neg, z_pos):
        assert sum(len(reference.slice_members(code.subset, y, z)) for y in range(f44.q)) == 204


def test_dyz_closed_vs_direct_exhaustive_f34(f34):
    subset, _ = quadric_subset(f34, kind="hyperbolic")
    k, q = len(subset), f34.q
    for z in f34.exp[np.arange(f34.order)].tolist():
        psi = reference.rational_value(psi_sum(f34, z, subset.members))
        for y in range(q):
            closed = k + (q - 1) * psi if y == 0 else k - psi
            assert closed == q * len(reference.slice_members(subset, y, z))


def _log_q(tower, size):
    dim = 0
    while tower.q ** dim < size:
        dim += 1
    return dim


def test_slice_annihilator_inside_line(ex31_code, f44):
    # the zero-set rank of word (y, z) is m exactly when the pairwise-difference
    # annihilator of the slice lies in the line F_q z, as it does on a minimal code
    rng = np.random.default_rng(17)
    code = ex31_code
    for _ in range(20):
        y = int(rng.integers(0, f44.q))
        z = int(f44.exp[int(rng.integers(0, f44.order))])
        ann = reference.slice_annihilator(code.subset, y, z)
        line = np.sort(f44.mul_vec(z, f44.subfield_elements.astype(np.int64)))
        assert 0 in ann
        assert np.all(np.isin(ann, line))
        # the rank is 1 + dim of the difference span, m - 1 as the annihilator is the line
        assert _log_q(f44, len(ann)) == 1
        assert len(reference.slice_members(code.subset, y, z))
        assert code._zero_ranks([y], [z], f44.m)[0]


def test_empty_slice_annihilator_reduces(f34, hyperplane_subset):
    # slices of a hyperplane subset are empty off the kernel direction, and the
    # zero-set rank is then the dimension of the complement kernel slice alone
    subset = hyperplane_subset
    assert len(reference.slice_members(subset, 1, 1)) == 0
    dbar = reference.complement_kernel_slice(subset, 1)
    ann = reference.trace_annihilator(f34, dbar)
    rank = f34.m - _log_q(f34, len(ann))
    assert rank == reference.dimension(f34, dbar) < f34.m
    code = SubsetCode(subset)
    for target, expected in ((rank, True), (rank + 1, False)):
        assert code._zero_ranks([1], [1], target)[0] == expected
    assert rank_reaches(f34, dbar, rank)[0] and not rank_reaches(f34, dbar, rank + 1)[0]


def test_one_zero_rank_scan_per_code(hyperplane_subset, monkeypatch):
    # SNC, the per-class flags and the secret-sharing filter share one scan
    calls = []
    zero_ranks = SubsetCode._zero_ranks

    def counted(self, *args):
        calls.append(self)
        return zero_ranks(self, *args)

    monkeypatch.setattr(SubsetCode, "_zero_ranks", counted)
    code = SubsetCode(hyperplane_subset)
    snc = code.minimality_snc()
    _, flags = code.rank_orbit_flags()
    report = analyze_scheme(code, 1, code_is_minimal=False)
    assert calls == [code]
    assert (snc.status, snc.witness) == reference.snc_reference(code)
    assert not flags.all() and report.oracle_total < report.total


def test_value_tables_are_built_once_per_code(hyperplane_subset, ex31_code, monkeypatch):
    # supports(), cover (run twice) and SNC read one label cycle per code; a
    # second code of the same subset builds its own
    calls = []
    label_cycle = FieldTower.label_cycle

    def counted(self):
        calls.append(self)
        return label_cycle(self)

    monkeypatch.setattr(FieldTower, "label_cycle", counted)
    for subset in (hyperplane_subset, ex31_code.subset):
        for _ in range(2):
            code = SubsetCode(subset)
            code.supports()
            code.minimality_cover()
            code.minimality_snc()
            code.minimality_cover()
    assert calls == [hyperplane_subset.tower] * 2 + [ex31_code.tower] * 2


def test_orbit_representatives_are_scanned_once_per_code(monkeypatch, row1_code):
    calls = []
    word_classes = codes.word_classes

    def counted(tower, words, d):
        calls.append(d)
        return word_classes(tower, words, d)

    code = SubsetCode(row1_code.subset)
    reps = code.orbits.representatives()
    monkeypatch.setattr(codes, "word_classes", counted)
    assert code.orbits.representatives() is reps
    assert calls == []
    assert code.minimality_cover().status == MINIMAL
    assert code.tower.order in calls and code.subset.stabiliser_period not in calls


def test_orbit_engine_is_shared_by_codes_and_blocking(monkeypatch, f34):
    # a second code of the same subset and the cutting test read the engine
    # the first code built: no class is numbered and no reflection drawn again
    subset = quadric_subset(f34, kind="elliptic")[0]
    first = SubsetCode(subset)
    assert first.minimality_cover().status == MINIMAL
    calls = []
    word_classes, reflections = codes.word_classes, qpoly.quadric_reflections

    def counted(tower, words, d):
        if d == subset.stabiliser_period:
            calls.append("word_classes")
        return word_classes(tower, words, d)

    def drawn(*args):
        calls.append("quadric_reflections")
        return reflections(*args)

    monkeypatch.setattr(codes, "word_classes", counted)
    monkeypatch.setattr(codes, "quadric_reflections", drawn)
    second = SubsetCode(subset)
    assert second.orbits is first.orbits is orbit_engine(subset)
    assert (second.minimality_cover().status, second.minimality_heng().status) == (MINIMAL,) * 2
    report = is_cutting_vectorial_blocking(subset).to_json()
    assert calls == []
    assert report == reference.cutting_reference(subset)
    # the unreduced oracle never reads the memo: it indexes its own classes
    full = reference.Unreduced(subset)
    assert full.orbits is not first.orbits
    assert len(full.orbits.representatives()) == len(full.orbits.lowest_words)
    assert full.minimality_cover().status == MINIMAL


def test_orbit_engine_goes_with_its_subset(f34):
    # the memo is keyed weakly and the engine holds the subset weakly, so a
    # subset with a built engine is freed, and its entry with it
    subset = quadric_subset(f34, kind="elliptic")[0]
    code = SubsetCode(subset)
    code.minimality_cover(), is_cutting_vectorial_blocking(subset)
    gc.collect()  # subsets that earlier tests left in reference cycles go first
    engine, alive, held = code.orbits, weakref.ref(subset), len(codes._ENGINES)
    del subset, code
    gc.collect()
    assert alive() is None and engine.subset is None
    assert len(codes._ENGINES) == held - 1


def test_orbit_merge_temporaries_are_class_sized():
    # F_{2^12} elliptic quadric: 8191 classes and 24 reflections, drawn 16 to
    # a stack.  The merge maps one reflection at a time, so its temporaries
    # are the size of the class list: 1.9 MB, against 8.8 MB when each stack
    # went through int64 (maps x classes) arrays
    tower = build_tower(FieldSpec(p=2, e=1, m=12))
    subset = quadric_subset(tower, kind="elliptic")[0]
    engine = orbit_engine(subset)
    subset.indicator, tower.log, tower.trace_coords, engine.lowest_words  # built before
    tracemalloc.start()
    try:
        reps, labels = engine.merged
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(reps), len(labels)) == (5, len(engine.lowest_words))
    assert peak < 2.25e6


def test_orbit_merge_keeps_no_class_array_per_map():
    # F_{2^16} elliptic quadric: 131 071 classes, merged by reflections.  The
    # maps come in the order of the classes, and each map's settling copies
    # go with it, so only the labels outlive a map: 12.9 MB traced, against
    # 15.0 MB when each map was scattered into a class-ordered copy
    tower = build_tower(FieldSpec(p=2, e=1, m=16))
    subset = quadric_subset(tower, kind="elliptic")[0]
    engine = orbit_engine(subset)
    subset.indicator, tower.log, tower.trace_coords, engine.lowest_words  # built before
    tracemalloc.start()
    try:
        reps, labels = engine.merged
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(reps), len(labels)) == (5, 131071)
    assert peak < 13.5e6


def test_heng_screen_builds_nothing_without_a_live_representative(monkeypatch):
    # F_{2^12}, N = 3 meets the Ashikhmin-Barg ratio: no representative r has
    # (q - 1) wt(r) >= q w_min, so Heng gathers no sum and builds neither the
    # dense weights nor the line points; with them it peaked at 837 KB, and
    # its (representatives x lines) bool rows take 41 KB
    tower = build_tower(FieldSpec(p=2, e=1, m=12))
    code = SubsetCode(build_cyclotomic_subset(tower, 3, [0]))
    code.weight_table(), code._dependents, tower.subfield_tables()

    def refused(*args):
        raise AssertionError("Heng gathered a sum")

    monkeypatch.setattr(FieldTower, "add_sets", refused)
    tracemalloc.start()
    try:
        verdict = code.minimality_heng()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status == MINIMAL
    assert peak < 2 * len(code.orbits.representatives()) * (tower.subfield_step + tower.qm)


def test_annihilator_escapes_witness():
    # F_3^3, d = 26, k = 4: the first failing slice is nonempty, but its
    # differences and the complement kernel slice span too little
    t = build_tower(FieldSpec(p=3, e=1, m=3))
    code = SubsetCode(FieldSubset.from_logs(t, [1, 4, 6, 7, 8, 9, 10, 11, 14, 16, 19, 23, 24]))
    assert (code.subset.stabiliser_period, code.dimension()) == (26, 4)
    snc = code.minimality_snc()
    assert (snc.status, snc.witness) == (NOT_MINIMAL, ("annihilator_escapes", (2, 5)))
    assert len(reference.slice_members(code.subset, 2, 5))
    assert snc.note == "slice annihilator is larger than the direction line"
    assert (snc.status, snc.witness) == reference.snc_reference(code)
    assert code.minimality_cover().status == NOT_MINIMAL


def test_cover_oracle_example31(ex31_code):
    assert ex31_code.minimality_cover().status == MINIMAL


def test_heng_example31(ex31_code):
    assert ex31_code.minimality_heng().status == MINIMAL


def test_snc_example31(ex31_code):
    assert ex31_code.minimality_snc().status == MINIMAL


def test_trace_subcode_equal_weights(row1_code):
    # words with u = 0 all have weight q^m - q^(m-1), and none covers another
    wt = reference.weight_table(row1_code)
    assert np.all(wt[0, 1:] == 162)
    sup = row1_code.supports()
    reps = [row1_code.word_index(0, int(row1_code.tower.exp[j])) for j in range(0, 121, 7)]
    for r in reps:
        for w in reps:
            if r == w:
                continue
            assert np.bitwise_and(sup[w], ~sup[r]).any()


def test_broken_subset_not_minimal(f34, hyperplane_subset):
    # a hyperplane as the subset produces a full-support codeword that covers everything
    code = SubsetCode(hyperplane_subset)
    cover = code.minimality_cover()
    heng = code.minimality_heng()
    snc = code.minimality_snc()
    assert cover.status == NOT_MINIMAL and cover.witness is not None
    assert heng.status == NOT_MINIMAL
    assert snc.status == NOT_MINIMAL
    assert snc.witness[0] == "empty_slice"
    assert len(reference.slice_members(code.subset, *snc.witness[1])) == 0


def test_complement_inside_hyperplane_control(f34):
    # subset whose complement sits inside a hyperplane: span condition fails
    inside = set(f34.hyperplane(1).tolist())
    members = np.array([x for x in range(1, f34.qm) if x not in inside], dtype=np.int64)
    code = SubsetCode(FieldSubset(f34, members))
    snc = code.minimality_snc()
    assert snc.status == NOT_MINIMAL
    assert snc.witness[0] == "complement_span_deficient"
    assert code.minimality_cover().status == NOT_MINIMAL
    assert code.minimality_heng().status == NOT_MINIMAL


def test_per_codeword_agreement_on_three_codes(f34, f35, hyperplane_subset):
    codes = [
        SubsetCode(quadric_subset(f34, kind="hyperbolic")[0]),
        SubsetCode(build_cyclotomic_subset(f35, 11, [0])),
        SubsetCode(hyperplane_subset),  # deliberately non-minimal
    ]
    for code in codes:
        rank = code.word_flags(code.rank_orbit_flags(), reference.projective_representatives(code))
        cover = reference.full_flags(code, reference.cover_violations)
        assert rank.tolist() == cover == reference.full_flags(code, reference.heng_violations)
    assert not all(cover)  # the last code, the hyperplane


def test_snc_reduction_matches_full_scan(f34):
    subset, _ = quadric_subset(f34, kind="elliptic")
    code = SubsetCode(subset)
    reduced = code.minimality_snc()
    full = reference.Unreduced(subset).minimality_snc()
    assert reduced.status == full.status == MINIMAL


def test_pds_sufficient_conditions(row1_code, f35):
    cert, _ = verify_pds_spectral(row1_code.subset)
    verdict = minimality_pds_sufficient(cert, 3, 5)
    assert verdict.status == MINIMAL
    assert "3a" in verdict.fired
    comp_cert, _ = verify_pds_spectral(row1_code.subset.complement())
    comp_verdict = minimality_pds_sufficient(comp_cert, 3, 5)
    assert comp_verdict.status == MINIMAL
    assert "3b" in comp_verdict.fired
    assert "3a" not in comp_verdict.fired


def test_pds_sufficient_necessity_flag(f34, hyperplane_subset):
    # hyperplane subset: a PDS with k = theta1, failing the size bounds
    cert, _ = verify_pds_spectral(hyperplane_subset)
    assert cert.k == cert.theta1 == 26
    verdict = minimality_pds_sufficient(cert, 3, 4)
    assert verdict.status == INCONCLUSIVE
    assert "necessary" in verdict.note
    # and the oracle indeed shows non-minimality
    assert SubsetCode(hyperplane_subset).minimality_cover().status == NOT_MINIMAL


def test_latin_sufficient(f34):
    _, hyp = quadric_subset(f34, kind="hyperbolic")
    assert minimality_latin_sufficient(hyp, 3, 4).status == MINIMAL
    _, ell = quadric_subset(f34, kind="elliptic")
    # threshold: r = 2 > 2*9/(9+3) = 1.5
    assert minimality_latin_sufficient(ell, 3, 4).status == MINIMAL
    # boundary r = 1, eps = 1 is inconclusive
    from pdscodes.pds import PdsCertificate, classify_latin_type, eigensystem_from_parameters

    v, k = 81, 1 * (9 - 1)
    lam, mu = 9 + 1 - 3, 0
    t1, t2, m1, m2 = eigensystem_from_parameters(v, k, lam, mu)
    cert = PdsCertificate(v, k, lam, mu, t1, t2, m1, m2, "latin", 1, 1)
    assert minimality_latin_sufficient(cert, 3, 4).status == INCONCLUSIVE
    # eps = 1 with r = n - 1 (the complement of the r = 1 set): minimal by
    # the Latin branch, while the negative-Latin one excludes r = n - 1
    r = 8
    k, lam, mu = r * (9 - 1), 9 + r * r - 3 * r, r * r - r
    t1, t2, m1, m2 = eigensystem_from_parameters(v, k, lam, mu)
    cert = PdsCertificate(v, k, lam, mu, t1, t2, m1, m2, "latin", r, 1)
    assert classify_latin_type(v, k, lam, mu) == ("latin", r, 1)
    assert minimality_latin_sufficient(cert, 3, 4).status == MINIMAL


def test_cyclotomic_sufficient(f44):
    pred = predicted_cyclotomic_eigenvalues(f44, 5, [1, 2, 3, 4])
    verdict = minimality_cyclotomic_sufficient(f44, pred)
    assert verdict.status == MINIMAL
    # minimality via the cyclotomic route implies the Latin-type route fires too
    assert minimality_latin_sufficient(pred.certificate, f44.q, f44.m).status == MINIMAL


def test_cyclotomic_sufficient_needs_the_subfield_shift(f44):
    # F_{4^4}: the subfield step 85 is 1 mod 3, so J = [0] is not closed
    # under j -> j + 85 (mod 3), and 0 mod 5, so every J mod 5 is closed
    pred = predicted_cyclotomic_eigenvalues(f44, 3, [0])
    assert minimality_cyclotomic_sufficient(f44, pred) == MethodVerdict(
        INCONCLUSIVE, note="J is not closed under the subfield shift; criterion inapplicable")
    pred = predicted_cyclotomic_eigenvalues(f44, 5, [0, 1])
    assert minimality_cyclotomic_sufficient(f44, pred) == MethodVerdict(MINIMAL)


def test_cyclotomic_sufficient_boundary():
    f64 = build_tower(FieldSpec(p=2, e=1, m=6))
    pred = predicted_cyclotomic_eigenvalues(f64, 9, [0])
    # t odd, u = 1, N = sqrt(q^m) + 1: u > N/(sqrt+1) = 1 fails
    assert pred.t % 2 == 1
    assert minimality_cyclotomic_sufficient(f64, pred).status == INCONCLUSIVE
    # u = 3 clears the threshold and the oracle agrees
    pred3 = predicted_cyclotomic_eigenvalues(f64, 9, [0, 3, 6])
    assert minimality_cyclotomic_sufficient(f64, pred3).status == MINIMAL
    code = SubsetCode(build_cyclotomic_subset(f64, 9, [0, 3, 6]))
    assert code.minimality_cover().status == MINIMAL


def test_weight_distribution_example31(ex31_code, f44):
    cert, _ = verify_pds_spectral(ex31_code.subset)
    predicted = weight_distribution_predicted(cert, 4, 4)
    assert predicted.as_dict() == {0: 1, 188: 612, 192: 255, 204: 156}
    assert predicted.merged_note is not None  # k merges with base + theta1
    direct = ex31_code.weight_distribution_direct()
    assert direct.rows == predicted.rows
    assert direct.total == 4 ** 5


def test_weight_distribution_row1(row1_code):
    cert, _ = verify_pds_spectral(row1_code.subset)
    predicted = weight_distribution_predicted(cert, 3, 5)
    assert predicted.as_dict() == {0: 1, 22: 2, 157: 220, 162: 242, 166: 264}
    direct = row1_code.weight_distribution_direct()
    assert direct.rows == predicted.rows


def test_weight_closed_form_matches_table(row1_code, f35):
    wt = reference.weight_table(row1_code)
    members = row1_code.subset.members
    for v in range(1, f35.qm):
        # q^m - q^(m-1) + psi(vD) for u, v nonzero and D invariant
        expected = f35.qm - f35.qm // f35.q + reference.rational_value(psi_sum(f35, v, members))
        for u in range(1, f35.q):
            assert wt[u, v] == expected


def test_non_pds_has_many_weights(f35):
    rng = np.random.default_rng(20250811)
    step = f35.subfield_step
    reps = rng.choice(np.arange(step), size=11, replace=False)
    subset = FieldSubset.from_logs(f35, np.concatenate([reps, reps + step]))
    dist = SubsetCode(subset).weight_distribution_direct()
    assert len(dist.nonzero_weights()) > 4


def test_weight_class(ex31_code, row1_code):
    cert31, _ = verify_pds_spectral(ex31_code.subset)
    assert weight_class(cert31, 4, 4) == "three"
    cert1, _ = verify_pds_spectral(row1_code.subset)
    assert weight_class(cert1, 3, 5) == "four"
    # consistency with counting distinct nonzero weights
    assert len(weight_distribution_predicted(cert31, 4, 4).nonzero_weights()) == 3
    assert len(weight_distribution_predicted(cert1, 3, 5).nonzero_weights()) == 4


def test_nonzero_weight_positivity(ex31_code, row1_code, f34):
    for code, (q, m) in ((ex31_code, (4, 4)), (row1_code, (3, 5))):
        cert, _ = verify_pds_spectral(code.subset)
        assert q ** m - q ** (m - 1) + cert.theta2 > 0


def test_ab_condition(row1_code):
    dist = row1_code.weight_distribution_direct()
    assert not ab_condition(dist, 3)  # 22/166 <= 2/3, yet the code is minimal
    from pdscodes.codes import WeightDistribution

    flat = WeightDistribution(((0, 1), (10, 80)))
    assert ab_condition(flat, 3)  # single weight: ratio one
    # equality, w_min / w_max = (q - 1) / q, is not above the bound
    assert not ab_condition(WeightDistribution(((0, 1), (6, 8), (9, 72))), 3)
    assert not ab_condition(WeightDistribution(((0, 1), (12, 15), (16, 48))), 4)
    assert ab_condition(WeightDistribution(((0, 1), (7, 8), (9, 72))), 3)
    # the size bound predicts the violation: k = 22 <= (q-1)^2 q^(m-2) = 108
    assert 22 <= (3 - 1) ** 2 * 3 ** (5 - 2)


def test_report_cross_validation():
    report = MinimalityReport()
    report.record("cover", MethodVerdict(MINIMAL))
    report.record("pds_sufficient", MethodVerdict(MINIMAL, fired=("3a",)))
    assert report.overall() == MINIMAL
    with pytest.raises(AssertionError):
        report.record("heng", MethodVerdict(NOT_MINIMAL))
    with pytest.raises(ValueError):
        report.record("latin_sufficient", MethodVerdict(NOT_MINIMAL))
    assert report.to_json()["pds_sufficient"] == {"verdict": "minimal", "fired": "3a"}


def test_generator_matrix(row1_code):
    mat = reference.generator_matrix(row1_code)
    assert mat.shape == (6, 242)
    text = row1_code.generator_matrix_text()
    assert len(text.strip().splitlines()) == 6
    # row weights: u-row has weight k, trace rows have weight q^m - q^(m-1)
    assert int(np.count_nonzero(mat[0])) == 22
    for row in mat[1:]:
        assert int(np.count_nonzero(row)) == 162


def test_guards_return_not_run(row1_code, monkeypatch):
    code = SubsetCode(row1_code.subset, guard=10)
    # the orbit merge does no word-sized work: the guard sits at the scans
    assert np.array_equal(code.orbits.representatives(), row1_code.orbits.representatives())
    assert code.minimality_cover().status == NOT_RUN
    assert code.minimality_heng().status == NOT_RUN
    assert code.minimality_snc().status == NOT_RUN
    with pytest.raises(GuardExceeded, match="over guard 10"):
        code.rank_orbit_flags()
    # the enumeration budget on the count's d * min(k, n - k) pairs, read at call time
    monkeypatch.setattr("pdscodes.codes.DEFAULT_ENUM_BUDGET", 10)
    with pytest.raises(GuardExceeded, match="exceeds the budget 10"):
        SubsetCode(row1_code.subset).weight_distribution_direct()


def test_weight_count_budget_skips_heng(f34, monkeypatch, capsys):
    # the F_{3^4} elliptic quadric: d = 40 and k = 20, so the count costs 800 pairs
    subset, _ = quadric_subset(f34, kind="elliptic")
    monkeypatch.setattr("pdscodes.codes.DEFAULT_ENUM_BUDGET", 799)
    code = SubsetCode(subset)
    note = "weight count cost 800 exceeds the budget 799"
    verdict = code.minimality_heng()
    assert (verdict.status, verdict.note) == (NOT_RUN, note)
    with pytest.raises(GuardExceeded, match=note):
        code.weight_distribution_direct()
    # cover and SNC read no weights: the kernel comes from the trace form
    assert code.minimality_cover().status == code.minimality_snc().status == MINIMAL
    exit_code = main(["code", "--recipe", "example-3.3", "--kind", "elliptic", "--methods", "all"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 4 and payload["weights_source"] == "predicted"
    assert {key: payload["minimal"][key] for key in ("cover", "heng", "snc")} == {
        "cover": MINIMAL, "heng": NOT_RUN, "snc": MINIMAL}
    monkeypatch.setattr("pdscodes.codes.DEFAULT_ENUM_BUDGET", 800)
    code = SubsetCode(subset)
    assert code.minimality_cover().status == code.minimality_heng().status == MINIMAL


def test_support_cap_counts_padded_rows(f34, monkeypatch):
    # 80 coordinates pack into 10 bytes, but each row is two uint64 words:
    # 3 * 81 rows of 16 bytes
    subset = build_cyclotomic_subset(f34, 10, [0])
    allocated = 3 * 81 * 16
    monkeypatch.setattr("pdscodes.codes.SUPPORT_BYTES_CAP", allocated - 1)
    with pytest.raises(GuardExceeded, match=f"would need {allocated} bytes"):
        SubsetCode(subset).supports()
    monkeypatch.setattr("pdscodes.codes.SUPPORT_BYTES_CAP", allocated)
    assert SubsetCode(subset)._supports.nbytes == allocated


def test_weight_distribution_memory_below_dense_table():
    # F_{3^11}, N = 23: the dense (q, q^m) int64 table would take 4.25 MB
    tower = build_tower(FieldSpec(p=3, e=1, m=11))
    subset = build_cyclotomic_subset(tower, 23, [0])
    code = SubsetCode(subset)
    # fill the caches the count reads first, so that the peak is the count's own
    code.subset.stabiliser_period, tower.trace_label_of_exp, tower.subfield_tables()
    tracemalloc.start()
    try:
        dist = code.weight_distribution_direct()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.total == tower.q * tower.qm
    assert peak < tower.q * tower.qm * 8 // 4


def test_weight_count_reads_the_label_table_in_place():
    # F_{2^18}, N = 3: the count once read a wrapped copy of the 256 KB label
    # table and peaked at 1176 KB; it must stay at least 200 KB below that
    tower = build_tower(FieldSpec(p=2, e=1, m=18))
    code = SubsetCode(build_cyclotomic_subset(tower, 3, [0]))
    code.subset.stabiliser_period, tower.trace_label_of_exp, tower.subfield_tables()
    tracemalloc.start()
    try:
        dist = code.weight_distribution_direct()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.total == tower.q * tower.qm
    assert peak <= (1176 - 200) * 1024


def test_heng_scan_memory():
    # F_{3^8}, N = 41, 13 orbits: the scan once summed (block, q, q^m) int64
    # arrays over q - 1 gathers and peaked at 1.75 MB; summing wt(r + x) over
    # the points of each line in int32, it peaked at 1132 KB with the keys of
    # every u at once, a (block, q, q^m) int64 array, and at 816 KB with the
    # keys of one u at a time
    tower = build_tower(FieldSpec(p=3, e=1, m=8))
    code = SubsetCode(build_cyclotomic_subset(tower, 41, [0]))
    code.weight_table(), code.orbits.representatives(), tower.subfield_tables()
    tracemalloc.start()
    try:
        verdict = code.minimality_heng()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status == MINIMAL
    assert peak <= 950 * 1024


def test_heng_setup_memory():
    # F_{3^8}, N = 41: the set-up keeps the dense (q, q^m) int32 weights and
    # builds the (q - 1, step + q^m) int32 line points, 77 KiB each, from
    # their shifted logs; it peaked at 378 KiB with the shifted logs, their
    # exp gather and the np.where result alive together, and at 339 KiB with
    # the gather zeroed in place (numpy's 64 KiB index buffer and the rest)
    tower = build_tower(FieldSpec(p=3, e=1, m=8))
    code = SubsetCode(build_cyclotomic_subset(tower, 41, [0]))
    code.weight_table(), code.orbits.representatives(), tower.subfield_tables(), tower.log
    tracemalloc.start()
    try:
        code._heng_test()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 4 * (tower.q - 1) * (tower.subfield_step + tower.qm) + 2 ** 17


def test_cover_scan_memory():
    # F_{3^8}, N = 41, 13 orbits: the scan once filled the 3^9 x 103 uint64
    # support matrix and peaked at 16 MB; reading support columns as it needs
    # them, it holds about 8 bytes for each of the 9841 lines
    tower = build_tower(FieldSpec(p=3, e=1, m=8))
    code = SubsetCode(build_cyclotomic_subset(tower, 41, [0]))
    code.orbits.representatives(), code._dependents
    tower.trace_label_of_exp, tower.subfield_tables()
    tracemalloc.start()
    try:
        verdict = code.minimality_cover()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status == MINIMAL
    assert peak < 1024 * 1024
