"""Reduced q-polynomials: the F_q-linear transformations of F_{q^m}.

f(X) = a_0 X + a_1 X^q + ... + a_{m-1} X^(q^(m-1)) with coefficients in
the big field.  The trace-dual pairing Tr(f(x) y) = Tr(dual(f)(y) x)
drives the induced action on codes: permuting coordinates of a codeword
by a subset automorphism lands on the codeword indexed by the dual image.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .codes import ZERO_BLOCK, rank_reaches
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
        """The unique reduced g with Tr(f(x) y) = Tr(g(y) x) for all x, y."""
        tower = self.tower
        m, q = tower.m, tower.q
        out = []
        for i in range(m):
            a = self.coeffs[(m - i) % m]
            out.append(tower.pow(a, q ** i) if a else 0)
        return QPolynomial(tower, out)

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

    Checks c(u, v) at position g(x) against c(u, dual(v)) at position x for
    every index pair (u, v), exhaustively: u f(g(x)) + Tr(v g(x)) against
    u f(x) + Tr(dual(v) x) as F_q labels over every (u, v, x), x nonzero, for
    a chunk of v at a time (temporaries of about ZERO_BLOCK entries).
    """
    subset = code.subset
    tower = code.tower
    if enforce_preservation and not is_automorphism_of(subset, g):
        raise ValueError("g does not preserve the subset; induced action undefined")
    dual_img = g.trace_dual().images()
    xs = tower.exp.astype(np.int64)
    gx = g.images()[xs]  # coordinate x picks up the value at g(x)
    if np.any(gx == 0):
        raise ValueError("g is not bijective on the multiplicative group")
    u = np.arange(tower.q)[:, None, None]
    chunk = max(1, ZERO_BLOCK // (tower.q * tower.order))
    for start in range(0, tower.qm, chunk):
        vs = np.arange(start, min(start + chunk, tower.qm))[:, None]
        if not np.array_equal(code.word_labels(u, vs, gx), code.word_labels(u, dual_img[vs], xs)):
            return False
    return True
