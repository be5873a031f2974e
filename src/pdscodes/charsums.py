"""Exact additive character sums over F_{q^m}.

The canonical additive character sends x to zeta_p^Tr(x) with Tr the
absolute trace; the sum of a subset S twisted by a is found by counting
how often each trace value t occurs on a*S and weighting by zeta_p^t.
Everything stays in Z[zeta_p] as raw zeta-coefficient vectors of length p.

A spectrum is held as its distinct rows: if gamma^d S = S, the value at a
depends only on log(a) mod d (for a class union these are the d Gauss
periods), so a Spectrum keeps d rows, row j serving every a = gamma^i with
i = j (mod d), and a = 0 has the fixed row (|S|, 0, ..., 0).  Certificates,
multiplicities and the JSON read the d rows, each taken (q^m - 1)/d times;
the dense (q^m, p) array is built only when asked for.

The full spectrum takes the cheaper of two exact routes.  The orbit count
tallies the traces on gamma^j S for j < d, d * |S| gathers.  The butterfly
transform, one pass per F_p digit of the field, costs em * p^2 * q^m
integer additions whatever S is; it serves the sets with a small
stabiliser, such as quadrics and trace hyperplanes, and its output, taken
in log order, is the case d = q^m - 1.  The unreduced count
(d = q^m - 1) and the transform are the two test references, reached
through `tests/reference.py`, and all three agree bit for bit.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .cyclotomic import CyclotomicInteger
from .field import FieldTower


# Cost of the orbit count per (row, member) pair over the transform's cost
# per addition.  Best of 5 on a 2-core Xeon (numpy 2.4), random sets with
# (q^m - 1) * |S| close to em * p^2 * q^m: 6.0-10.5 ns per pair against
# 2.5-12 ns per addition, a ratio of 0.7 (F_2^10), 0.8 (F_7^4), 1.5 (F_3^8,
# F_3^12), 1.7 (F_2^12), 2.0-2.5 (F_5^6, F_7^5, F_3^10) and 4 (F_2^16).
ORBIT_UNIT_COST = 2
# (row or g, member) pairs counted per numpy pass, here and in the direct
# PDS check: 8 MB of int64 keys
PAIR_CHUNK = 2 ** 20


class SpectrumError(ValueError):
    pass


class Spectrum:
    """All character-sum values a -> sum over S, with eigenvalue bookkeeping.

    rows[j] is the raw value at every a = gamma^i with i = j (mod period),
    where gamma^period S = S; period divides q^m - 1.
    """

    def __init__(self, tower: FieldTower, rows: np.ndarray, period: int, set_size: int):
        if tower.order % period or rows.shape != (period, tower.p):
            raise ValueError(f"rows must have shape (d, {tower.p}) with d | {tower.order}")
        self.tower = tower
        self.rows = rows
        self.period = period
        self.set_size = set_size
        self._canon = rows[:, : tower.p - 1] - rows[:, tower.p - 1 :]
        self._rational = np.all(self._canon[:, 1:] == 0, axis=1)

    def _zero_row(self) -> np.ndarray:
        row = np.zeros(self.tower.p, dtype=np.int64)
        row[0] = self.set_size  # Tr(0 * x) = 0 for every x
        return row

    def row(self, a: int) -> np.ndarray:
        """The raw value at a."""
        if a == 0:
            return self._zero_row()
        return self.rows[int(self.tower.log[a]) % self.period]

    def _row_index(self) -> np.ndarray:
        """The row serving each nonzero a = 1, ..., q^m - 1."""
        return self.tower.log[1:] % self.period

    def value(self, a: int) -> CyclotomicInteger:
        return CyclotomicInteger(self.tower.p, self.row(a).tolist())

    @cached_property
    def raw(self) -> np.ndarray:
        """The dense (q^m, p) array, row a the value at a; built once, on first use."""
        raw = np.empty((self.tower.qm, self.tower.p), dtype=self.rows.dtype)
        raw[0] = self._zero_row()
        np.take(self.rows, self._row_index(), axis=0, out=raw[1:])
        return raw

    @property
    def all_rational(self) -> bool:
        """True when every value at nonzero a is a rational integer."""
        return bool(np.all(self._rational))

    def irrational_witness(self) -> int | None:
        """The least a whose value is irrational, or None when all are rational."""
        if self.all_rational:
            return None
        return int(np.argmin(self._rational[self._row_index()])) + 1

    def _check_rational(self) -> None:
        bad = self.irrational_witness()
        if bad is not None:
            raise SpectrumError(f"value at a={bad} is not a rational integer")

    def rational_values(self) -> np.ndarray:
        """The integer value at every a; raises if any value is irrational."""
        self._check_rational()
        vals = np.empty(self.tower.qm, dtype=self.rows.dtype)
        vals[0] = self.set_size
        vals[1:] = self._canon[self._row_index(), 0]
        return vals

    def restricted_values(self) -> list[tuple[int, int]]:
        """Distinct values over nonzero a with multiplicities, descending by value."""
        self._check_rational()
        uniq, counts = np.unique(self._canon[:, 0], return_counts=True)
        per_row = self.tower.order // self.period
        return [(int(v), int(c) * per_row) for v, c in zip(uniq[::-1], counts[::-1])]

    def to_json(self) -> dict:
        ok = self.all_rational
        out = {"k": self.set_size, "all_rational": ok, "values": []}
        if ok:
            out["values"] = [
                {"theta": v, "multiplicity": c} for v, c in self.restricted_values()
            ]
        return out


def trace_count_table(tower: FieldTower, a: int, members: np.ndarray) -> np.ndarray:
    """counts[t] = #{x in S : Tr_abs(a x) = t}; sums to |S|."""
    members = np.asarray(members, dtype=np.int64)
    if a == 0 or len(members) == 0:
        counts = np.zeros(tower.p, dtype=np.int64)
        counts[0] = len(members)
        return counts
    prods = tower.mul_vec(a, members)
    return np.bincount(tower.trace_p[prods], minlength=tower.p).astype(np.int64)


def psi_sum(tower: FieldTower, a: int, members: np.ndarray) -> CyclotomicInteger:
    """Character sum of the twisted set a*S, exactly in Z[zeta_p]."""
    return CyclotomicInteger.from_counts(tower.p, trace_count_table(tower, a, members).tolist())


def orthogonality_sum(tower: FieldTower, x: int) -> int:
    """sum over lambda in F_q of the character at lambda*x: q or 0."""
    total = CyclotomicInteger.integer(tower.p, 0)
    for lam in tower.subfield_elements.tolist():
        t = tower.trace_p[tower.mul(lam, x)]
        total = total + CyclotomicInteger.zeta_power(tower.p, int(t))
    return total.rational_value()


def is_invariant_under_subfield(tower: FieldTower, indicator: np.ndarray) -> bool:
    """Whether the indicated subset is closed under F_q^* scaling."""
    members = np.nonzero(indicator)[0]
    if len(members) == 0:
        return True
    gen = tower.exp[tower.subfield_step % tower.order]  # generator of F_q^* (1 when q = 2)
    return bool(np.all(indicator[tower.mul_vec(int(gen), members)]))


def _spectrum_pointwise(tower: FieldTower, members: np.ndarray, period: int) -> np.ndarray:
    """Row j counts the trace values on gamma^j S for j < period: the value
    at every a = gamma^i with i = j (mod period) when gamma^period S = S.

    With period = q^m - 1 each row serves one a: that is the pointwise
    reference.  Rows are counted PAIR_CHUNK (row, member) pairs at a time.
    """
    p = tower.p
    logs = tower.log[members[members != 0]].astype(np.int64)
    rows = np.empty((period, p), dtype=np.int64)
    step = max(1, PAIR_CHUNK // max(len(logs), 1))
    for j0 in range(0, period, step):
        js = np.arange(j0, min(j0 + step, period))
        # key (j - j0) * p + Tr(gamma^(j + log x)) counts row j's trace values
        keys = np.take(tower.trace_of_exp, js[:, None] + logs, mode="wrap").astype(np.int64)
        keys += (js - j0)[:, None] * p
        rows[j0 : j0 + len(js)] = np.bincount(keys.ravel(), minlength=len(js) * p).reshape(-1, p)
    rows[:, 0] += len(members) - len(logs)  # Tr(a * 0) = 0 for every a
    return rows


def _spectrum_transform(tower: FieldTower, members: np.ndarray) -> np.ndarray:
    """Exact additive-character transform over the digit group (F_p)^em, as
    one row per gamma^i, i < q^m - 1.

    Works on zeta-coefficient vectors: multiplying by zeta^t is a cyclic
    shift, so each butterfly stage is p^2 shifted adds along one digit.
    """
    p, em, qm = tower.p, tower.em, tower.qm
    work = np.zeros((qm, p), dtype=np.int64)
    work[members, 0] = 1
    for d in range(em):
        lo = p ** d
        hi = qm // (lo * p)
        view = work.reshape(hi, p, lo, p)
        new = np.empty_like(view)
        for k in range(p):
            acc = view[:, 0, :, :].copy()
            for j in range(1, p):
                acc += np.roll(view[:, j, :, :], (k * j) % p, axis=-1)
            new[:, k, :, :] = acc
        work = new.reshape(qm, p)

    # the row holding a's values is indexed by the digits Tr_abs(a * X^i)
    return work[tower.trace_coords[tower.exp]]


def full_spectrum(tower: FieldTower, members: np.ndarray) -> Spectrum:
    """Character sums of S (distinct elements, 0 allowed) twisted by every a,
    by the cheaper of two routes: the orbit count, d * |S| gathers for the
    stabiliser <gamma^d> of S, or the transform, em * p^2 * q^m additions.
    """
    members = np.asarray(members, dtype=np.int64)
    period = tower.stabiliser_period(members)
    if ORBIT_UNIT_COST * period * len(members) < tower.em * tower.p ** 2 * tower.qm:
        return Spectrum(tower, _spectrum_pointwise(tower, members, period), period, len(members))
    return Spectrum(tower, _spectrum_transform(tower, members), tower.order, len(members))


def squared_norms(raw: np.ndarray) -> np.ndarray:
    """|z|^2 for every row z of a raw (n, p) zeta-coefficient array, exactly.

    Returned in canonical form, p - 1 coefficients over 1, zeta, ...,
    zeta^(p-2) per row: column 0 is the rational part, and the value is
    rational exactly when the other columns vanish.
    """
    p = raw.shape[1]
    # t-th coefficient of z * conj(z) is sum_i c_i c_{i-t}
    coeffs = np.stack(
        [sum(raw[:, i] * raw[:, (i - t) % p] for i in range(p)) for t in range(p)], axis=1
    )
    return coeffs[:, : p - 1] - coeffs[:, p - 1:]


def parseval_total(spectrum: Spectrum) -> int:
    """sum over a of |value(a)|^2, computed exactly; equals q^m * |S|."""
    total = squared_norms(spectrum.raw).sum(axis=0)
    if np.any(total[1:]):
        raise SpectrumError("sum of |value|^2 failed to be rational; arithmetic bug")
    return int(total[0])
