"""Exact additive character sums over F_{q^m}.

The canonical additive character sends x to zeta_p^Tr(x) with Tr the
absolute trace; the sum of a subset S twisted by a is found by counting
how often each trace value t occurs on a*S and weighting by zeta_p^t.
A value in Z[zeta_p] is held one way, as its raw row of the p trace-value
counts: int32 in arrays (each count is at most |S| < 2^26), int64 only in
the squared norms, and a tuple of p Python ints for one value (`psi_sum`,
`Spectrum.value`).  Rows of one S all sum to |S|, so two are equal exactly
when their values in Z[zeta_p] are.

A spectrum is held as its distinct rows: if gamma^d S = S, the value at a
depends only on log(a) mod d (for a class union these are the d Gauss
periods), so a Spectrum keeps d rows, row j serving every a = gamma^i with
i = j (mod d), and a = 0 has the fixed row (|S|, 0, ..., 0).  Certificates,
multiplicities and the JSON read the d rows, each taken (q^m - 1)/d times;
the dense (q^m, p) array is built only when asked for.

The full spectrum takes the cheaper of two exact routes.  The orbit count
reads S as a union of |I| cosets of <gamma^d>: one sequential pass over
the group, in log order, counts the d Gauss periods of order d, and each
row is the sum of |I| of them, added as slices of a (d, p) table.  The
periods depend only on the field and d, so each tower keeps the tables it
has counted, read-only, and a later set with the same d only adds its |I|
slices.  The tables held never take more bytes than trace_of_exp, the
table they summarise; a period past that bound is counted afresh each time.
The butterfly transform, one pass per F_p digit of the field, costs
em * p^2 * q^m integer additions whatever S is; it serves the sets with a
small stabiliser, such as quadrics and trace hyperplanes, and its output,
taken in log order, is the case d = q^m - 1.  It runs on two int32
(p, q^m) buffers, each stage reading one and writing the other, and fills
its int32 log-order rows a block at a time.  The int64 transform that rolled
fresh copies, and an unreduced count with one key per (row, member) pair,
are the two test references, reached through `tests/reference.py`, and all
three agree bit for bit.

The readers of every a, the dense array `Spectrum.raw`, the rational
values, the least irrational a and the restricted values, and the
Parseval total over raw, take BLOCK elements or rows at a time, so none
of them holds a second array of q^m entries.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterator
from weakref import WeakKeyDictionary

import numpy as np

from .field import FieldTower, GuardExceeded, blocks


# Cost of the orbit count per unit of its work estimate, (p - 1) * q^m plus
# |I| * d * p, over the transform's cost per addition.  Best of 5 on a 2-core
# Xeon (numpy 2.4), random sets with c = 1 and |I| = 5 * em * p, near the
# crossover: 0.74-4.0 ns per unit against 3.2-11 ns per addition, a ratio of
# 0.15 (F_7^4), 0.19-0.25 (F_3^12, F_5^6, F_3^10, F_2^16, F_7^5), 0.27 (F_3^8)
# and 0.34-0.36 (F_2^12, F_2^10).
ORBIT_UNIT_COST = 0.25
# Most work the cheaper route may take, in the transform's additions: it admits
# the F_{2^26} and F_{3^16} elliptic quadrics (7.0 and 6.2 * 10^9) and F_{2039^2},
# N = 3 (2.1 * 10^9, `pds` 4-5 s cold), but not F_{4093^2} or F_{8191^2}, N = 3
# (1.7 * 10^10, 37 s, and 1.4 * 10^11), where the count makes p - 1 passes over
# q^m entries (2-core Xeon).
SPECTRUM_BUDGET = 10 ** 10
# Entries of trace_of_exp in each row of the wide view that the Gauss-period
# count reduces over, so that a small period does not make narrow reductions
FOLD_WIDTH = 4096
# tower -> {period: its Gauss-period table}, filled by gauss_periods
_HELD_PERIODS: WeakKeyDictionary = WeakKeyDictionary()


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
        # a row is rational when its canonical form, each coefficient minus
        # the last, vanishes past the first: coefficients 1..p-1 agree
        self._rational = np.all(rows[:, 1 : tower.p - 1] == rows[:, tower.p - 1 :], axis=1)

    def _zero_row(self) -> np.ndarray:
        row = np.zeros(self.tower.p, dtype=self.rows.dtype)
        row[0] = self.set_size  # Tr(0 * x) = 0 for every x
        return row

    def row(self, a: int) -> np.ndarray:
        """The raw value at a, an element in [0, q^m)."""
        if not 0 <= a < self.tower.qm:
            raise ValueError(f"a = {a} is outside the field's elements [0, {self.tower.qm})")
        if a == 0:
            return self._zero_row()
        return self.rows[int(self.tower.log[a]) % self.period]

    def _row_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """(a, index): the nonzero elements in ascending runs of BLOCK, as a
        slice, and the row serving each, log a mod period."""
        for part in blocks(self.tower.order):
            a = slice(part.start + 1, part.stop + 1)
            yield a, self.tower.log[a] % self.period

    def _values(self, index) -> np.ndarray:
        """The rational part of the rows at index, the first coefficient of
        their canonical form: the value there when the row is rational."""
        return self.rows[index, 0] - self.rows[index, self.tower.p - 1]

    def value(self, a: int) -> tuple[int, ...]:
        """The raw row at a as a tuple of p Python ints, so that == is a bool."""
        return tuple(self.row(a).tolist())

    @cached_property
    def raw(self) -> np.ndarray:
        """The dense (q^m, p) array, row a the value at a; built once, on first
        use, BLOCK rows at a time."""
        raw = np.empty((self.tower.qm, self.tower.p), dtype=self.rows.dtype)
        raw[0] = self._zero_row()
        for a, index in self._row_blocks():
            raw[a] = self.rows.take(index, axis=0)
        return raw

    @property
    def all_rational(self) -> bool:
        """True when every value at nonzero a is a rational integer."""
        return bool(np.all(self._rational))

    def irrational_witness(self) -> int | None:
        """The least a whose value is irrational, or None when all are rational;
        the scan stops at the first block of elements that holds one."""
        if self.all_rational:
            return None
        for a, index in self._row_blocks():
            bad = np.flatnonzero(~self._rational[index])
            if len(bad):
                return a.start + int(bad[0])

    def _check_rational(self) -> None:
        bad = self.irrational_witness()
        if bad is not None:
            raise SpectrumError(f"value at a={bad} is not a rational integer")

    def rational_values(self) -> np.ndarray:
        """The integer value at every a; raises if any value is irrational."""
        self._check_rational()
        vals = np.empty(self.tower.qm, dtype=self.rows.dtype)
        vals[0] = self.set_size
        for a, index in self._row_blocks():
            vals[a] = self._values(index)
        return vals

    def restricted_values(self) -> list[tuple[int, int]]:
        """Distinct values over nonzero a with multiplicities, descending by
        value: the rows' values counted BLOCK rows at a time, then merged."""
        self._check_rational()
        counts: dict[int, int] = {}
        for part in blocks(self.period):
            for v, c in zip(*np.unique(self._values(part), return_counts=True)):
                counts[int(v)] = counts.get(int(v), 0) + int(c)
        per_row = self.tower.order // self.period
        return [(v, counts[v] * per_row) for v in sorted(counts, reverse=True)]


def psi_sum(tower: FieldTower, a: int, members: np.ndarray) -> tuple[int, ...]:
    """The character sum of a*S as its raw row, p Python ints:
    counts[t] = #{x in S : Tr_abs(a x) = t}, which sum to |S|."""
    members = np.asarray(members)
    if len(members) == 0:  # an empty list reads as float64
        return (0,) * tower.p
    counts = np.bincount(tower.trace(tower.mul_vec(a, members)), minlength=tower.p)
    return tuple(counts.tolist())


def _gauss_periods(tower: FieldTower, period: int) -> np.ndarray:
    """G[r, t] = #{k < c : Tr(gamma^(r + k d)) = t} for d = period and
    c = (q^m - 1)/d: the Gauss periods of order d as zeta-count vectors, in
    the smallest unsigned dtype that holds c.

    trace_of_exp, read as a (c, d) array, is summed down its columns with
    one compare per nonzero t; blocks of rows are laid side by side so that
    each reduction runs over at least FOLD_WIDTH entries, whatever d is.
    """
    p, c = tower.p, tower.order // period
    dtype = np.min_scalar_type(c)
    block = -(-FOLD_WIDTH // period)  # rows of the (c, d) array per wide row
    wide = c // block * block * period
    counts = np.empty((period, p), dtype=dtype)
    for t in range(1, p):
        hits = tower.trace_of_exp == t
        folded = np.add.reduce(hits[:wide].reshape(-1, block * period), axis=0, dtype=dtype)
        counts[:, t] = np.add.reduce(folded.reshape(block, period), axis=0, dtype=dtype)
        counts[:, t] += np.add.reduce(hits[wide:].reshape(-1, period), axis=0, dtype=dtype)
    counts[:, 0] = c - counts[:, 1:].sum(axis=1, dtype=dtype)
    return counts


def gauss_periods(tower: FieldTower, period: int) -> np.ndarray:
    """The table of `_gauss_periods`, read-only, held on the tower's memo
    while every table held there fits in trace_of_exp.nbytes together;
    a table past that is counted afresh on each call."""
    held = _HELD_PERIODS.setdefault(tower, {})
    table = held.get(period)
    if table is None:
        table = _gauss_periods(tower, period)
        table.flags.writeable = False
        if table.nbytes + sum(t.nbytes for t in held.values()) <= tower.trace_of_exp.nbytes:
            held[period] = table
    return table


def _spectrum_orbit(tower: FieldTower, period: int, cosets: np.ndarray,
                    set_size: int) -> np.ndarray:
    """Row j counts the trace values on gamma^j S for j < period, where
    gamma^period S = S: the value at every a = gamma^i with i = j (mod period).

    S minus 0 is the union of the cosets gamma^i <gamma^period> for i in
    cosets, so row j is the sum of the Gauss periods G[(j + i) mod period],
    i in cosets, added as two slices per i; the rest of set_size is 0.
    """
    periods = gauss_periods(tower, period)
    rows = np.zeros((period, tower.p), dtype=np.int32)  # counts of at most |S| < 2^26
    for i in cosets.tolist():
        rows[: period - i] += periods[i:]
        rows[period - i :] += periods[:i]
    rows[:, 0] += set_size - len(cosets) * (tower.order // period)  # Tr(a * 0) = 0
    return rows


def _butterfly(work: np.ndarray, out: np.ndarray, d: int) -> None:
    """One stage of `_spectrum_transform`, along digit d, from the (p, q^m)
    buffer work into out: out at digit k is the sum over digits j of work
    at digit j times zeta^(k j).  Multiplying by zeta^s shifts the
    coefficients cyclically by s, so each term is two slice adds, and the
    sum starts from work at digit 0."""
    p, qm = work.shape
    shape = (p, qm // p ** (d + 1), p, p ** d)  # coefficient, higher digits, digit d, lower
    view, new = work.reshape(shape), out.reshape(shape)
    for k in range(p):
        acc = new[:, :, k]
        for j in range(1, p):
            s, base = k * j % p, view[:, :, 0] if j == 1 else acc
            # acc[t] = base[t] + view[t - s mod p] at digit j
            np.add(base[s:], view[: p - s, :, j], out=acc[s:])
            np.add(base[:s], view[p - s:, :, j], out=acc[:s])


def _spectrum_transform(tower: FieldTower, members: np.ndarray) -> np.ndarray:
    """Exact additive-character transform over the digit group (F_p)^em, as
    one row per gamma^i, i < q^m - 1.

    Works on zeta-coefficient vectors: multiplying by zeta^t is a cyclic
    shift, so each butterfly stage (`_butterfly`) is p^2 shifted adds along
    one digit, from one int32 (p, q^m) buffer into the other, coefficient
    first so that each add runs along the lower digits; an entry counts
    members, at most |S| < 2^26, so int32 holds it.
    """
    coords = tower.trace_coords  # built, if it must be, before the buffers
    work = np.zeros((tower.p, tower.qm), dtype=np.int32)
    work[0, members] = 1
    spare = np.empty_like(work)
    for d in range(tower.em):
        _butterfly(work, spare, d)
        work, spare = spare, work
    del spare

    # the row holding a's values is indexed by the digits Tr_abs(a * X^i)
    rows = np.empty((tower.order, tower.p), dtype=np.int32)
    for part in blocks(tower.order, tower.p):
        rows[part] = work.take(coords.take(tower.exp[part]), axis=1).T
    return rows


def full_spectrum(tower: FieldTower, members: np.ndarray) -> Spectrum:
    """Character sums of S (distinct elements, 0 allowed) twisted by every a."""
    members = np.asarray(members)
    if members.dtype.kind not in "iu":  # an empty list reads as float64
        members = members.astype(np.int64)
    return stabiliser_spectrum(tower, members, *tower.stabiliser(members))


def route_costs(tower: FieldTower, period: int, count: int) -> tuple[float, int]:
    """(orbit, transform): the work of the two routes for S a union of count
    cosets of <gamma^period>, in the transform's additions."""
    return (ORBIT_UNIT_COST * ((tower.p - 1) * tower.qm + count * period * tower.p),
            tower.em * tower.p ** 2 * tower.qm)


def stabiliser_spectrum(tower: FieldTower, members: np.ndarray, period: int,
                        cosets: np.ndarray) -> Spectrum:
    """full_spectrum for an S whose stabiliser (period, cosets) is known, by
    the cheaper of two routes: the orbit count, (p - 1) * q^m compares and
    |I| * d * p additions for the stabiliser <gamma^d> of S, a union of |I|
    cosets, or the transform, em * p^2 * q^m additions.  The count is
    charged even when the tower holds its table, so that the route depends
    on (d, |I|) alone and not on what ran before.  The cheaper estimate,
    in the transform's additions, is refused past SPECTRUM_BUDGET.
    """
    orbit, transform = route_costs(tower, period, len(cosets))
    if min(orbit, transform) > SPECTRUM_BUDGET:
        raise GuardExceeded(f"spectrum cost {min(orbit, transform):.3g} transform additions "
                            f"exceeds the budget {SPECTRUM_BUDGET:.3g}")
    if orbit < transform:
        rows = _spectrum_orbit(tower, period, cosets, len(members))
        return Spectrum(tower, rows, period, len(members))
    return Spectrum(tower, _spectrum_transform(tower, members), tower.order, len(members))


def squared_norms(raw: np.ndarray) -> np.ndarray:
    """|z|^2 for every row z of a raw (n, p) zeta-coefficient array, exactly.

    Returned in canonical form, p - 1 coefficients over 1, zeta, ...,
    zeta^(p-2) per row: column 0 is the rational part, and the value is
    rational exactly when the other columns vanish.  Each product of two
    counts is taken in int64, as it may pass 2^31; raw itself is not widened.
    """
    p = raw.shape[1]
    coeffs = np.zeros((len(raw), p), dtype=np.int64)
    # t-th coefficient of z * conj(z) is sum_i c_i c_{i-t}
    for t in range(p):
        for i in range(p):
            coeffs[:, t] += np.multiply(raw[:, i], raw[:, (i - t) % p], dtype=np.int64)
    return coeffs[:, : p - 1] - coeffs[:, p - 1:]


def parseval_total(spectrum: Spectrum) -> int:
    """sum over a of |value(a)|^2, computed exactly; equals q^m * |S|.  The
    dense array is squared BLOCK rows at a time."""
    raw = spectrum.raw
    total = sum(squared_norms(raw[part]).sum(axis=0) for part in blocks(len(raw), raw.shape[1]))
    if np.any(total[1:]):
        raise SpectrumError("sum of |value|^2 failed to be rational; arithmetic bug")
    return int(total[0])
