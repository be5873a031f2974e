"""Reduced q-polynomials: the F_q-linear transformations of F_{q^m}.

f(X) = a_0 X + a_1 X^q + ... + a_{m-1} X^(q^(m-1)) with coefficients in
the big field.  The trace-dual pairing Tr(f(x) y) = Tr(dual(f)(y) x)
drives the induced action on codes: permuting coordinates of a codeword
by a subset automorphism lands on the codeword indexed by the dual image.

`induced_code_automorphism_check` decides that action by linear algebra
in O(em q^m) work, not by comparing the q q^m (q^m - 1) labels of every
word: the condition splits into a condition on the subset and the
trace-dual identity, which F_p-linearity reduces to the em x em pairs of
basis elements.  The exhaustive comparison is kept as the test oracle in
`tests/reference.py`.  The same decision on element tables verifies the
reflections of a quadric (`quadric_reflections`), whose trace duals come
from the basis pairs and trace_coords, before the code scans merge their
orbits with them.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .field import FieldTower, blocks, distinct, rank_reaches
from .pds import FieldSubset, quadric_values


class QPolynomial:
    """A reduced q-polynomial over the tower's big field."""

    def __init__(self, tower: FieldTower, coeffs: Sequence[int]):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != tower.m:
            raise ValueError(f"need exactly m = {tower.m} coefficients (reduced form)")
        if any(not 0 <= c < tower.qm for c in coeffs):
            raise ValueError("coefficients must be field elements")
        self.tower = tower
        self.coeffs = coeffs

    @classmethod
    def frobenius(cls, tower: FieldTower, i: int = 1) -> "QPolynomial":
        """x -> x^(q^i)."""
        coeffs = [0] * tower.m
        coeffs[i % tower.m] = 1
        return cls(tower, coeffs)

    # -- evaluation --------------------------------------------------------

    def images(self) -> np.ndarray:
        """f applied to every field element (indexed by element)."""
        return self._images

    @cached_property
    def _images(self) -> np.ndarray:
        return self.tower.linearized_table(self.coeffs, self.tower.q)

    def __call__(self, x: int) -> int:
        return int(self.images()[x])

    def is_bijective(self) -> bool:
        """Kernel triviality: the images of the basis gamma^i, i < m, have rank m."""
        tower = self.tower
        return rank_reaches(tower, distinct(self.images()[tower.exp[: tower.m]]), tower.m)[0]

    # -- algebra -------------------------------------------------------------

    def trace_dual(self) -> "QPolynomial":
        """The unique reduced g with Tr(f(x) y) = Tr(g(y) x) for all x, y (cached)."""
        return self._dual

    @cached_property
    def _dual(self) -> "QPolynomial":
        tower: FieldTower = self.tower
        shifted = [self.coeffs[-i] for i in range(tower.m)]  # a_0, a_(m-1), ..., a_1
        return QPolynomial(tower, [tower.pow(a, tower.q ** i) if a else 0 for i, a in enumerate(shifted)])

    def __eq__(self, other):
        return (
            isinstance(other, QPolynomial)
            and self.tower is other.tower
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"QPolynomial(coeffs={self.coeffs})"


def is_automorphism_of(subset: FieldSubset, g: QPolynomial) -> bool:
    """Bijective and maps the subset onto itself."""
    if not g.is_bijective():
        return False
    return bool(np.all(subset.indicator[g.images().take(subset.members)]))


def induced_code_automorphism_check(code, g: QPolynomial) -> bool:
    """Whether permuting coordinates by g maps each word onto the dual-indexed word.

    The word (u, v) at position g(x) must equal the word (u, dual(v)) at
    position x: u f(g(x)) + Tr(v g(x)) = u f(x) + Tr(dual(v) x) as F_q
    labels for every (u, v) and every nonzero x, f being the subset's
    characteristic function.  Labels add as a group, so u = 0 gives (B)
    and then v = 0 gives (A), and together they give the condition:
      (A) f(g(x)) = f(x) for every nonzero x, and
      (B) Tr(v g(x)) = Tr(dual(v) x) for every v and every nonzero x.
    The trace form is nondegenerate, so (B) forces dual to be additive on
    every v and g on the nonzero x (the words never read g(0)); and for
    additive maps both sides of (B) are F_p-bilinear.  So (B) holds exactly
    when g's table off 0 and dual's whole table equal the linear_map_table
    extensions of their values on the packed F_p-basis p^i, and (B) holds
    on the em x em basis pairs.  That is O(em q^m) work on the two image
    tables; `tests/reference.py` keeps the exhaustive comparison of all
    q q^m (q^m - 1) labels as the oracle.

    A g with a nonzero root permutes no coordinates and raises ValueError
    first; a g that fails (A), that is g(D) != D, raises too.
    """
    return bool(tables_induce_code_automorphism(
        code.subset, g.images(), g.trace_dual().images(), True))


def tables_induce_code_automorphism(subset: FieldSubset, g_img: np.ndarray, dual_img: np.ndarray,
                                    enforce_preservation: bool) -> np.ndarray:
    """`induced_code_automorphism_check` on the element tables of g and of its
    trace dual, with its errors; stacks of tables, of shape (..., q^m), give
    one verdict per pair of rows."""
    tower = subset.tower
    gx = g_img[..., tower.exp]  # coordinate x picks up the value at g(x)
    if np.any(gx == 0):
        raise ValueError("g is not bijective on the multiplicative group")
    fixes_subset = (subset.indicator[gx] == subset.log_indicator).all(axis=-1)  # (A)
    if enforce_preservation and not fixes_subset.all():
        raise ValueError("g does not preserve the subset; induced action undefined")
    basis = tower.p ** np.arange(tower.em, dtype=np.int64)
    g_basis, dual_basis = g_img[..., basis], dual_img[..., basis]
    pairs = (tower.trace_labels(basis[:, None], g_basis[..., None, :])
             == tower.trace_labels(dual_basis[..., :, None], basis))
    return (fixes_subset
            & (tower.linear_map_table(g_basis)[..., 1:] == g_img[..., 1:]).all(axis=-1)
            & (tower.linear_map_table(dual_basis) == dual_img).all(axis=-1)
            & pairs.all(axis=(-2, -1)))


def quadric_reflections(subset: FieldSubset, count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stacks (g, g*) of element tables, one row per reflection, in blocks of
    about BLOCK entries: g the reflection x -> x - (B(x, a)/Q(a)) a of the
    subset's quadric Q (a `QuadricOrigin`) and g* its trace dual, for the
    first count a = gamma^j, j ascending, outside the subset (Q(a) != 0).

    B(x, y) = Q(x + y) - Q(x) - Q(y) is the polar form; for p = 2 these maps
    are orthogonal transvections.  Each g is F_q-linear and fixes Q, so it
    fixes the subset; it is tabulated from its images of the packed basis
    X^i.  trace_coords[w] packs the digits Tr(w X^i), so the trace-dual
    basis is the w_i with trace_coords[w_i] = X^i, and g*(X^k) is the sum of
    Tr(X^k g(X^i)) w_i, digit k of trace_coords[g(X^i)] being that trace:
    the em x em basis pairs.
    """
    tower = subset.tower
    p, em, gram = tower.p, tower.em, subset.origin.gram
    add_q, mul_q, neg_q = tower.subfield_tables()
    basis = p ** np.arange(em, dtype=np.int64)
    hits = np.flatnonzero(np.isin(tower.trace_coords, basis))
    dual_basis = hits[np.argsort(tower.trace_coords[hits])][:, None] // basis % p
    a = tower.exp[np.flatnonzero(~subset.log_indicator)[:count]].astype(np.int64)
    # Q at a + X^i, at X^i and at a, one row per a
    values = quadric_values(tower, gram, np.concatenate(
        [tower.add_sets(a[:, None], basis), np.broadcast_to(basis, (len(a), em)), a[:, None]],
        axis=1))
    q_a = values[:, -1]
    polar = add_q[add_q[values[:, :em], neg_q[values[:, em:-1]]], neg_q[q_a][:, None]]
    inverse = (mul_q == 1).argmax(axis=1)  # of each nonzero label
    scale = tower.subfield_elements[neg_q[mul_q[polar, inverse[q_a][:, None]]]]  # -B/Q(a)
    logs = tower.log[scale].astype(np.int64) + tower.log[a][:, None]
    images = tower.add_sets(basis, np.where(scale == 0, 0, tower.exp[logs % tower.order]))
    pairs = tower.trace_coords[images][..., None] // basis % p  # [r, i, k] = Tr(X^k g_r(X^i))
    duals = (pairs.transpose(0, 2, 1) @ dual_basis % p) @ basis
    for part in blocks(len(a), tower.qm):
        yield tower.linear_map_table(images[part]), tower.linear_map_table(duals[part])
