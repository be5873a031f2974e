"""Exact additive character sums over F_{q^m}.

The canonical additive character sends x to zeta_p^Tr(x) with Tr the
absolute trace; the sum of a subset S twisted by a is found by counting
how often each trace value t occurs on a*S and weighting by zeta_p^t.
Everything stays in Z[zeta_p]: a spectrum is a (q^m, p) integer array of
raw zeta-coefficient vectors, one row per twisting element a.

The full spectrum is taken by one exact butterfly pass per F_p digit of
the field, O(em * p^2 * q^m) integer additions.  The pointwise count,
O(q^m * |S|), is kept as the independent test reference; the two agree
bit for bit and tests enforce that.
"""
from __future__ import annotations

import numpy as np

from .cyclotomic import CyclotomicInteger
from .field import FieldTower


class SpectrumError(ValueError):
    pass


class Spectrum:
    """All character-sum values a -> sum over S, with eigenvalue bookkeeping."""

    def __init__(self, tower: FieldTower, raw: np.ndarray, set_size: int):
        if raw.shape != (tower.qm, tower.p):
            raise ValueError(f"raw spectrum must have shape ({tower.qm}, {tower.p})")
        self.tower = tower
        self.raw = raw
        self.set_size = set_size
        self._canon = raw[:, : tower.p - 1] - raw[:, tower.p - 1 : tower.p]
        self._rational_mask = np.all(self._canon[:, 1:] == 0, axis=1)

    def value(self, a: int) -> CyclotomicInteger:
        return CyclotomicInteger(self.tower.p, self.raw[a].tolist())

    @property
    def all_rational(self) -> bool:
        """True when every value at nonzero a is a rational integer."""
        return bool(np.all(self._rational_mask[1:])) if self.tower.qm > 1 else True

    def rational_values(self) -> np.ndarray:
        """The integer value at every a; raises if any value is irrational."""
        if not bool(np.all(self._rational_mask)):
            bad = int(np.nonzero(~self._rational_mask)[0][0])
            raise SpectrumError(f"value at a={bad} is not a rational integer")
        return self._canon[:, 0].copy()

    def restricted_values(self) -> list[tuple[int, int]]:
        """Distinct values over nonzero a with multiplicities, descending by value."""
        vals = self.rational_values()[1:]
        uniq, counts = np.unique(vals, return_counts=True)
        pairs = sorted(zip(uniq.tolist(), counts.tolist()), key=lambda t: -t[0])
        return [(int(v), int(c)) for v, c in pairs]

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


def scaled_sum_invariance_check(tower: FieldTower, a: int, lam: int, members: np.ndarray) -> bool:
    """psi(lam*a, S) == psi(a, S); only meaningful for F_q^*-invariant S."""
    if not tower.in_subfield(lam) or lam == 0:
        raise ValueError("lambda must be a nonzero subfield element")
    indicator = np.zeros(tower.qm, dtype=bool)
    indicator[np.asarray(members, dtype=np.int64)] = True
    if not is_invariant_under_subfield(tower, indicator):
        raise ValueError("subset is not F_q^*-invariant; the scaling identity does not apply")
    return psi_sum(tower, tower.mul(lam, a), members) == psi_sum(tower, a, members)


def _spectrum_pointwise(tower: FieldTower, members: np.ndarray) -> np.ndarray:
    raw = np.zeros((tower.qm, tower.p), dtype=np.int64)
    raw[0, 0] = len(members)
    if len(members) == 0:
        return raw
    logs = tower.log[members].astype(np.int64)
    trace_of_exp = tower.trace_p[tower.exp].astype(np.int64)  # trace at gamma^i
    for t in range(tower.order):
        idx = (t + logs) % tower.order
        raw[tower.exp[t], :] = np.bincount(trace_of_exp[idx], minlength=tower.p)
    return raw


def _spectrum_transform(tower: FieldTower, indicator: np.ndarray) -> np.ndarray:
    """Exact additive-character transform over the digit group (F_p)^em.

    Works on zeta-coefficient vectors: multiplying by zeta^t is a cyclic
    shift, so each butterfly stage is p^2 shifted adds along one digit.
    """
    p, em, qm = tower.p, tower.em, tower.qm
    work = np.zeros((qm, p), dtype=np.int64)
    work[:, 0] = indicator
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
    return work[tower.trace_coords]


def full_spectrum(tower: FieldTower, members: np.ndarray, mode: str = "transform") -> Spectrum:
    """Character sums of S twisted by every a in F_{q^m}.

    mode: "transform" (the route), or "pointwise" (the test reference).
    """
    members = np.asarray(members, dtype=np.int64)
    if mode == "pointwise":
        raw = _spectrum_pointwise(tower, members)
    elif mode == "transform":
        indicator = np.zeros(tower.qm, dtype=np.int64)
        indicator[members] = 1
        raw = _spectrum_transform(tower, indicator)
    else:
        raise ValueError(f"unknown spectrum mode {mode!r}")
    return Spectrum(tower, raw, int(len(members)))


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
