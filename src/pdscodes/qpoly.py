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
`tests/reference.py`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .codes import rank_reaches
from .field import FieldTower
from .pds import FieldSubset


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
        self._images = None
        self._dual = None

    @classmethod
    def frobenius(cls, tower: FieldTower, i: int = 1) -> "QPolynomial":
        """x -> x^(q^i)."""
        coeffs = [0] * tower.m
        coeffs[i % tower.m] = 1
        return cls(tower, coeffs)

    @classmethod
    def from_basis_images(cls, tower: FieldTower, images: Sequence[int]) -> "QPolynomial":
        """The unique reduced q-polynomial sending gamma^i to images[i] for i < m.

        Solves the m x m Moore-style system sum_j a_j * (gamma^i)^(q^j) = y_i
        by Gaussian elimination over the big field.
        """
        m, q = tower.m, tower.q
        if len(images) != m:
            raise ValueError(f"need one image per basis element (m = {m})")
        rows = []
        for i in range(m):
            beta = int(tower.exp[i])
            rows.append([tower.pow(beta, q ** j) for j in range(m)] + [int(images[i])])
        for col in range(m):
            piv = next((r for r in range(col, m) if rows[r][col] != 0), None)
            if piv is None:
                raise ValueError("basis images are degenerate; no reduced representation")
            rows[col], rows[piv] = rows[piv], rows[col]
            inv = tower.inv(rows[col][col])
            rows[col] = [tower.mul(inv, v) for v in rows[col]]
            for r in range(m):
                if r != col and rows[r][col] != 0:
                    factor = rows[r][col]
                    rows[r] = [
                        tower.sub(rows[r][c], tower.mul(factor, rows[col][c]))
                        for c in range(m + 1)
                    ]
        return cls(tower, [rows[j][m] for j in range(m)])

    # -- evaluation --------------------------------------------------------

    def images(self) -> np.ndarray:
        """f applied to every field element (indexed by element)."""
        if self._images is None:
            self._images = self.tower.linearized_table(self.coeffs, self.tower.q)
        return self._images

    def __call__(self, x: int) -> int:
        return int(self.images()[x])

    def is_bijective(self) -> bool:
        """Kernel triviality: the images of the basis gamma^i, i < m, have rank m."""
        tower = self.tower
        return rank_reaches(tower, np.unique(self.images()[tower.exp[: tower.m]]), tower.m)[0]

    # -- algebra -------------------------------------------------------------

    def trace_dual(self) -> "QPolynomial":
        """The unique reduced g with Tr(f(x) y) = Tr(g(y) x) for all x, y (cached)."""
        if self._dual is None:
            tower = self.tower
            m, q = tower.m, tower.q
            out = []
            for i in range(m):
                a = self.coeffs[(m - i) % m]
                out.append(tower.pow(a, q ** i) if a else 0)
            self._dual = QPolynomial(tower, out)
        return self._dual

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
    return bool(np.all(subset.indicator[g.images()[subset.members]]))


def induced_code_automorphism_check(code, g: QPolynomial, enforce_preservation: bool = True) -> bool:
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
    first; with enforce_preservation, a g that fails (A), that is g(D) != D,
    raises too.
    """
    subset, tower = code.subset, code.tower
    g_img, dual_img = g.images(), g.trace_dual().images()
    gx = g_img[tower.exp]  # coordinate x picks up the value at g(x)
    if np.any(gx == 0):
        raise ValueError("g is not bijective on the multiplicative group")
    fixes_subset = np.array_equal(subset.indicator[gx], subset.indicator[tower.exp])  # (A)
    if enforce_preservation and not fixes_subset:
        raise ValueError("g does not preserve the subset; induced action undefined")
    basis = tower.p ** np.arange(tower.em, dtype=np.int64)
    return bool(
        fixes_subset
        and np.array_equal(tower.linear_map_table(g_img[basis])[1:], g_img[1:])
        and np.array_equal(tower.linear_map_table(dual_img[basis]), dual_img)
        and np.array_equal(tower.trace_labels(basis[:, None], g_img[basis]),
                           tower.trace_labels(dual_img[basis][:, None], basis))
    )
