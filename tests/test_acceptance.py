"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` for per-criterion verdicts.
All numeric assertions are exact; the time budgets are the stated caps.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from reference import (
    cover_violations,
    full_flags,
    heng_violations,
    neg_table,
    projective_representatives,
    rational_value,
    route_spectrum,
    slice_members,
    trace_q,
)
from reference import induced_code_automorphism_check as exhaustive_check

from pdscodes.blocking import is_cutting_vectorial_blocking
from pdscodes.charsums import full_spectrum, parseval_total, psi_sum
from pdscodes.codes import (
    MINIMAL,
    NOT_MINIMAL,
    SubsetCode,
    ab_condition,
    minimality_cyclotomic_sufficient,
    minimality_latin_sufficient,
    minimality_pds_sufficient,
    weight_class,
    weight_distribution_predicted,
)
from pdscodes.field import FieldSpec, build_tower
from pdscodes.pds import (
    FieldSubset,
    PdsVerificationError,
    build_cyclotomic_subset,
    is_fq_invariant,
    predicted_cyclotomic_eigenvalues,
    quadric_subset,
    verify_pds_direct,
    verify_pds_spectral,
)
from pdscodes.qpoly import (
    QPolynomial,
    induced_code_automorphism_check,
    tables_induce_code_automorphism,
)
from pdscodes.secretsharing import analyze_scheme, coverage_closed_form


SRC = Path(__file__).resolve().parents[1] / "src"


class budget:
    """Assert the body finishes inside the stated wall-clock cap."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} took {elapsed:.1f}s"
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        return False


def test_criterion_1_example_31_end_to_end():
    with budget("1 (example 3.1 end-to-end)", 60):
        tower = build_tower(FieldSpec(p=2, e=2, m=4))
        subset = build_cyclotomic_subset(tower, 5, [1, 2, 3, 4])
        cert, _ = verify_pds_spectral(subset)
        assert (cert.k, cert.theta1, cert.theta2) == (204, 12, -4)

        code = SubsetCode(subset)
        assert (code.n, code.dimension()) == (255, 5)
        direct = code.weight_distribution_direct()
        assert direct.as_dict() == {0: 1, 188: 612, 192: 255, 204: 156}
        assert weight_class(cert, 4, 4) == "three"

        prediction = predicted_cyclotomic_eigenvalues(tower, 5, (1, 2, 3, 4))
        assert minimality_cyclotomic_sufficient(tower, prediction).status == MINIMAL
        assert code.minimality_cover().status == MINIMAL
        assert code.minimality_heng().status == MINIMAL
        assert code.minimality_snc().status == MINIMAL

        blocking = is_cutting_vectorial_blocking(subset.complement())
        assert blocking.cutting is False


def test_criterion_2_table2_row1_end_to_end():
    with budget("2 (table II row 1 end-to-end)", 30):
        tower = build_tower(FieldSpec(p=3, e=1, m=5))
        subset = build_cyclotomic_subset(tower, 11, [0])
        cert, _ = verify_pds_spectral(subset)
        assert (cert.k, cert.theta1, cert.theta2) == (22, 4, -5)

        verdict = minimality_pds_sufficient(cert, 3, 5)
        assert verdict.status == MINIMAL and "3a" in verdict.fired
        code = SubsetCode(subset)
        assert code.minimality_cover().status == MINIMAL

        direct = code.weight_distribution_direct()
        assert direct.as_dict() == {0: 1, 22: 2, 157: 220, 162: 242, 166: 264}
        assert not ab_condition(direct, 3)
        assert (min(direct.nonzero_weights()), max(direct.nonzero_weights())) == (22, 166)
        assert weight_class(cert, 3, 5) == "four"


def test_criterion_3_example_32_complement():
    with budget("3 (example 3.2 complement)", 30):
        tower = build_tower(FieldSpec(p=3, e=1, m=5))
        subset = build_cyclotomic_subset(tower, 11, [0])
        comp = subset.complement()
        cert, _ = verify_pds_spectral(comp)
        assert (cert.k, cert.theta1, cert.theta2) == (220, 4, -5)

        verdict = minimality_pds_sufficient(cert, 3, 5)
        assert verdict.status == MINIMAL and "3b" in verdict.fired
        assert SubsetCode(comp).minimality_cover().status == MINIMAL
        predicted = weight_distribution_predicted(cert, 3, 5)
        assert len(predicted.nonzero_weights()) == 4

        blocking = is_cutting_vectorial_blocking(subset)  # the 22-element set itself
        assert blocking.cutting is False


def test_criterion_4_example_33_quadrics():
    with budget("4 (example 3.3 quadrics)", 60):
        tower = build_tower(FieldSpec(p=3, e=1, m=4))
        for kind, eps, r in (("hyperbolic", 1, 4), ("elliptic", -1, 2)):
            subset, predicted = quadric_subset(tower, kind=kind)
            cert, _ = verify_pds_spectral(subset)
            assert cert == predicted
            assert (cert.eps, cert.r) == (eps, r)
            assert minimality_latin_sufficient(cert, 3, 4).status == MINIMAL
            assert SubsetCode(subset).minimality_cover().status == MINIMAL


def test_criterion_4_elliptic_quadric_cutting_at_scale():
    # the 4095 hyperplane sections of the F_{2^12} elliptic quadric, below the
    # count bound, in 2 orbits of its orthogonal group, cold through the CLI
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with budget("4 (blocking, F_2^12 elliptic quadric, cold)", 2):
        proc = subprocess.run(
            [sys.executable, "-m", "pdscodes.cli", "blocking", "--field", '{"p":2,"e":1,"m":12}',
             "--subset", '{"quadric":{"kind":"elliptic"}}'],
            capture_output=True, text=True, env=env, timeout=60,
        )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cutting"] is True


@pytest.mark.parametrize("field", ['{"p":3,"e":1,"m":10}', '{"p":2,"e":1,"m":16}'],
                         ids=["F_3^10", "F_2^16"])
def test_criterion_4_elliptic_quadric_cutting_past_the_hyperplane_bound(field):
    # 29 524 and 65 535 hyperplanes (x q^m = 1.7e9 and 4.3e9, over the 2^30
    # budget of a hyperplane-by-hyperplane test) fall into 3 and 2 orbits of
    # the orthogonal group, one rank test each, cold through the CLI
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with budget(f"4 (blocking, {field} elliptic quadric, cold)", 5):
        proc = subprocess.run(
            [sys.executable, "-m", "pdscodes.cli", "blocking", "--field", field,
             "--subset", '{"quadric":{"kind":"elliptic"}}'],
            capture_output=True, text=True, env=env, timeout=60,
        )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"blocking": True, "contains_subspace": False,
                                       "cutting": True}


def test_criterion_4_elliptic_quadric_all_methods_at_scale():
    # F_{3^8}: cover, Heng and SNC scan the 7 orbits of the orthogonal group
    # (6561 projective classes under F_q^* alone), cold through the CLI.
    # F_{5^6}: dimension 7; cover, Heng, SNC, pds and latin say minimal while
    # the AB condition fails, a minimal code outside Ashikhmin-Barg's bound.
    # F_{3^10} and F_{4^8} (e = 2): the weight count reads one word (1, gamma^j)
    # of each merged orbit, 3 and 2 of them, where counting every class
    # column of the stabiliser took 6.0-8.3 s and 3.1-3.7 s
    env = dict(os.environ, PYTHONPATH=str(SRC))
    quadric = ["code", "--recipe", "example-3.3", "--kind", "elliptic"]
    runs = {"code-3-8-elliptic-all": quadric + ["--p", "3", "--m", "8"],
            "code-5-6-elliptic-all": quadric + ["--p", "5", "--m", "6"],
            "code-3-10-elliptic-all": quadric + ["--p", "3", "--m", "10"],
            "code-4-8-elliptic-all": ["code", "--field", '{"p":2,"e":2,"m":8}',
                                      "--subset", '{"quadric":{"kind":"elliptic"}}']}
    for name, argv in runs.items():
        with budget(f"4 ({name}, cold)", 2):
            proc = subprocess.run([sys.executable, "-m", "pdscodes.cli", *argv, "--methods", "all"],
                                  capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        golden = Path(__file__).parent / "data" / "golden" / f"{name}.json"
        assert proc.stdout == golden.read_text()


def test_criterion_5_table2_row3_extended():
    with budget("5 (table II row 3, extended scale)", 600):
        tower = build_tower(FieldSpec(p=3, e=1, m=12))
        subset = build_cyclotomic_subset(tower, 35, [0])
        spectrum = route_spectrum(tower, subset.members, "transform")
        cert, _ = verify_pds_spectral(subset, spectrum=spectrum)
        assert (cert.k, cert.theta1, cert.theta2) == (15184, 118, -125)
        assert minimality_pds_sufficient(cert, 3, 12).status == MINIMAL
        # exhaustive oracle stays behind the guard at this scale
        assert SubsetCode(subset, guard=2 ** 20).minimality_cover().status == "not_run"


def test_criterion_5_class_representatives_at_scale():
    # F_{5^9}, N = 19: the lowest words of the 39 classes under <gamma^19> and
    # F_5^*, read as column minima of exp, merge into 7 orbits under x -> x^5;
    # a sort over all 2.4 million projective words took 0.43 s
    tower = build_tower(FieldSpec(p=5, e=1, m=9))
    code = SubsetCode(build_cyclotomic_subset(tower, 19, [0]))
    with budget("5 (F_5^9 N=19 class representatives and orbit merge)", 0.1):
        assert len(code.orbits.lowest_words) == 39
        assert len(code.orbits.representatives()) == 7


def test_criterion_6a_orthogonality_exhaustive_f35(f35):
    with budget("6a (character orthogonality on F_3^5)", 120):
        zero_trace = 0
        for x in range(f35.qm):
            val = rational_value(psi_sum(f35, x, f35.subfield_elements))
            assert val == (3 if trace_q(f35)[x] == 0 else 0)
            zero_trace += val == 3
        assert zero_trace == 81


def test_criterion_6b_parseval_random_subsets(f34):
    with budget("6b (Parseval identity on F_3^4)", 120):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            size = int(rng.integers(1, f34.qm - 1))
            members = rng.choice(np.arange(1, f34.qm), size=size, replace=False)
            spec = full_spectrum(f34, members)
            assert parseval_total(spec) == f34.qm * size


def test_criterion_6c_spectral_vs_direct_agreement(f34):
    with budget("6c (spectral vs direct verification on F_3^4)", 120):
        rng = np.random.default_rng(77)
        cases = [quadric_subset(f34, kind="hyperbolic")[0], quadric_subset(f34, kind="elliptic")[0]]
        h = f34.hyperplane(1)
        cases.append(FieldSubset(f34, h[h != 0]))
        for _ in range(5):
            half = rng.choice(np.arange(1, f34.qm), size=14, replace=False).astype(np.int64)
            members = np.unique(np.concatenate([half, neg_table(f34)[half].astype(np.int64)]))
            cases.append(FieldSubset(f34, members))
        for subset in cases:
            try:
                cert, _ = verify_pds_spectral(subset)
                spectral = (cert.lam, cert.mu)
            except PdsVerificationError:
                spectral = None
            try:
                direct = verify_pds_direct(subset)
            except PdsVerificationError:
                direct = None
            assert spectral == direct


def test_criterion_6d_heng_equals_cover_per_codeword(f34, f35):
    with budget("6d (per-codeword Heng vs cover on three codes)", 120):
        h = f34.hyperplane(1)
        codes = [
            SubsetCode(quadric_subset(f34, kind="hyperbolic")[0]),
            SubsetCode(build_cyclotomic_subset(f35, 11, [0])),
            SubsetCode(FieldSubset(f34, h[h != 0])),  # deliberately non-minimal
        ]
        seen_nonminimal = False
        for code in codes:
            rank = code.word_flags(code.rank_orbit_flags(), projective_representatives(code))
            cover = full_flags(code, cover_violations)
            assert rank.tolist() == cover == full_flags(code, heng_violations)
            seen_nonminimal |= not all(cover)
        assert seen_nonminimal


def test_criterion_6e_dyz_closed_form_exhaustive(f35, f44):
    with budget("6e (slice-size closed form, exhaustive)", 120):
        # (|D| - psi(zD)) / q for y != 0 and (|D| + (q - 1) psi(zD)) / q for y = 0
        for subset in (build_cyclotomic_subset(f35, 11, [0]),
                       build_cyclotomic_subset(f44, 5, [1, 2, 3, 4])):
            tower, k = subset.tower, len(subset)
            for z in tower.exp[np.arange(tower.order)].tolist():
                psi = rational_value(psi_sum(tower, z, subset.members))
                for y in range(tower.q):
                    closed = k + (tower.q - 1) * psi if y == 0 else k - psi
                    assert closed == tower.q * len(slice_members(subset, y, z))


def test_criterion_6f_trace_dual_exhaustive(f34):
    with budget("6f (trace-dual identity on F_3^4)", 120):
        rng = np.random.default_rng(55)
        polys = [QPolynomial.frobenius(f34, 0), QPolynomial.frobenius(f34, 1)]
        polys += [
            QPolynomial(f34, rng.integers(0, f34.qm, size=f34.m).tolist()) for _ in range(8)
        ]
        xs = np.arange(f34.qm, dtype=np.int64)
        code = SubsetCode(build_cyclotomic_subset(f34, 5, [0]))
        for f in polys:
            fd = f.trace_dual()
            img_f, img_d = f.images(), fd.images()
            for y in range(f34.qm):
                lhs = trace_q(f34)[f34.mul_vec(y, img_f[xs])]
                rhs = trace_q(f34)[f34.mul_vec(int(img_d[y]), xs)]
                assert np.array_equal(lhs, rhs)
            assert fd.trace_dual() == f
            # the induced action: decided by linearity, and label by label
            if f.is_bijective():
                assert bool(tables_induce_code_automorphism(
                    code.subset, f.images(), f.trace_dual().images(), False)) \
                    == exhaustive_check(code, f, enforce_preservation=False)
            else:
                with pytest.raises(ValueError, match="not bijective"):
                    tables_induce_code_automorphism(
                        code.subset, f.images(), f.trace_dual().images(), False)
                with pytest.raises(ValueError, match="not bijective"):
                    exhaustive_check(code, f, enforce_preservation=False)


def test_criterion_6g_frobenius_code_automorphism(f44):
    with budget("6g (induced code automorphism, 1024 words)", 120):
        subset = build_cyclotomic_subset(f44, 5, [1, 2, 3, 4])
        code = SubsetCode(subset)
        g = QPolynomial.frobenius(f44, 1)
        assert induced_code_automorphism_check(code, g)
        assert exhaustive_check(code, g)  # over all (u, v)


def test_criterion_6g_induced_automorphism_at_scale():
    # q q^m (q^m - 1) labels: 2.2e12 on F_{2^20}, 1.0e10 on F_{3^10}, out of
    # reach of the exhaustive check; each decision runs cold, on fresh maps
    f2_20 = build_tower(FieldSpec(p=2, e=1, m=20))
    code = SubsetCode(build_cyclotomic_subset(f2_20, 3, [0]))
    with budget("6g (Frobenius on F_2^20, N=3)", 2):
        assert induced_code_automorphism_check(code, QPolynomial.frobenius(f2_20, 1))
    f3_10 = build_tower(FieldSpec(p=3, e=1, m=10))
    subset, _ = quadric_subset(f3_10, kind="elliptic")
    code = SubsetCode(subset)
    with budget("6g (x -> -x on the F_3^10 elliptic quadric)", 2):
        minus = QPolynomial(f3_10, [f3_10.neg(1)] + [0] * (f3_10.m - 1))
        assert induced_code_automorphism_check(code, minus)


def test_criterion_6h_secret_sharing_coverage(f44):
    with budget("6h (secret-sharing coverage, both sides)", 120):
        subset = build_cyclotomic_subset(f44, 5, [1, 2, 3, 4])
        code = SubsetCode(subset)
        for x1 in (int(subset.members[0]), int(subset.complement().members[0])):
            coverage = analyze_scheme(code, x1).coverage
            assert len(coverage) == f44.qm - 2
            closed = coverage_closed_form(code, x1, f44.exp)
            for j, n in coverage.items():
                assert n == closed[j]


def test_criterion_7_negative_controls(f35, f34):
    with budget("7 (negative controls)", 120):
        rng = np.random.default_rng(20250811)
        step = f35.subfield_step
        reps = rng.choice(np.arange(step), size=11, replace=False)
        random_invariant = FieldSubset.from_logs(f35, np.concatenate([reps, reps + step]))
        assert len(random_invariant) == 22 and is_fq_invariant(random_invariant)
        with pytest.raises(PdsVerificationError):
            verify_pds_spectral(random_invariant)

        inside = set(f34.hyperplane(1).tolist())
        members = np.array([x for x in range(1, f34.qm) if x not in inside], dtype=np.int64)
        code = SubsetCode(FieldSubset(f34, members))
        snc = code.minimality_snc()
        assert snc.status == NOT_MINIMAL and snc.witness[0] == "complement_span_deficient"
        assert code.minimality_cover().status == NOT_MINIMAL
