"""Table-backed arithmetic in the tower F_p < F_q < F_{q^m}.

Elements are plain ints in [0, p^(e*m)): the base-p digits of an element
are the coefficients (low degree first) of its residue, modulo the
defining polynomial, as a polynomial in the generator gamma.  Index 0 is
the zero element; every nonzero element is gamma^i for a unique i, and
the exp/log tables convert between the two views.

F_q always lives inside F_{q^m} as the set of nonzero (q^m-1)/(q-1)-th
powers together with 0; it is never built as a separate field.  All
tables are immutable after construction, so a tower can be shared freely
across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Hard cap on table-backed fields (memory ~ a few int32 arrays of this length).
MAX_FIELD_SIZE = 2 ** 26

# Default defining polynomials, low degree first, indexed by (p, e*m).
# Each is the first monic primitive polynomial of its degree in the
# enumeration by ascending integer code sum(c_i * p^i); generated once and
# frozen here so that recipes and reports are reproducible byte for byte.
DEFAULT_MODULI = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (1, 2, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 0, 1, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (3, 11): (1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 1): (2, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 3, 0, 1),
    (5, 4): (2, 2, 1, 0, 1),
    (5, 5): (2, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 1): (2, 1),
    (7, 2): (3, 1, 1),
    (7, 3): (2, 3, 0, 1),
    (7, 4): (5, 3, 1, 0, 1),
    (11, 1): (3, 1),
    (11, 2): (7, 1, 1),
    (11, 3): (4, 1, 0, 1),
    (13, 1): (2, 1),
    (13, 2): (2, 1, 1),
}


class FieldConstructionError(ValueError):
    """Raised when a field spec cannot be realized (bad prime, modulus, size)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n stays below 2^26 here."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _poly_mulmod(a, b, f, p):
    n = len(f) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for d in range(len(out) - 1, n - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for i in range(n):
                out[d - n + i] = (out[d - n + i] - c * f[i]) % p
    out = out[:n]
    out += [0] * (n - len(out))
    return out


def _poly_powmod(a, exponent, f, p):
    n = len(f) - 1
    res = [1] + [0] * (n - 1)
    base = list(a)
    while exponent:
        if exponent & 1:
            res = _poly_mulmod(res, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        exponent >>= 1
    return res


def poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p (Rabin's test)."""
    n = len(coeffs) - 1
    if n < 1 or coeffs[-1] % p != 1:
        return False
    if n == 1:
        return True
    if coeffs[0] % p == 0:
        return False
    x = [0, 1] + [0] * (n - 2)
    if _poly_powmod(x, p ** n, coeffs, p) != x:
        return False
    for ell in factorize(n):
        if _poly_powmod(x, p ** (n // ell), coeffs, p) == x:
            return False
    return True


def poly_x_is_primitive(coeffs: Sequence[int], p: int) -> bool:
    """Whether the residue of X has full multiplicative order p^n - 1."""
    n = len(coeffs) - 1
    order = p ** n - 1
    if coeffs[0] % p == 0:
        return False
    if n == 1:
        g = (-coeffs[0]) % p
        return all(pow(g, order // ell, p) != 1 for ell in factorize(order))
    x = [0, 1] + [0] * (n - 2)
    one = [1] + [0] * (n - 1)
    for ell in factorize(order):
        if _poly_powmod(x, order // ell, coeffs, p) == one:
            return False
    return True


def default_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Built-in defining polynomial for F_{p^degree}.

    Falls back to a deterministic search (same enumeration that produced
    the frozen table) for pairs outside it.
    """
    if (p, degree) in DEFAULT_MODULI:
        return DEFAULT_MODULI[(p, degree)]
    for code in range(1, p ** degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        f = coeffs + [1]
        if f[0] != 0 and poly_is_irreducible(f, p) and poly_x_is_primitive(f, p):
            return tuple(f)
    raise FieldConstructionError(f"no primitive polynomial found for p={p}, degree={degree}")


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of the tower F_p < F_{p^e} < F_{p^(e*m)}.

    ``modulus`` lists the coefficients of a monic irreducible polynomial
    of degree e*m over F_p, low degree first; None selects the built-in
    default.  ``generator_check`` demands that the residue of X be
    primitive (table construction verifies this in either case, the flag
    only controls the up-front order test).
    """

    p: int
    e: int
    m: int
    modulus: tuple[int, ...] | None = None
    generator_check: bool = True

    def __post_init__(self):
        if not is_prime(self.p):
            raise FieldConstructionError(f"p={self.p} is not prime")
        if self.e < 1 or self.m < 1:
            raise FieldConstructionError("e and m must be positive")
        if self.p ** (self.e * self.m) > MAX_FIELD_SIZE:
            raise FieldConstructionError(
                f"field size {self.p}^{self.e * self.m} exceeds the table cap {MAX_FIELD_SIZE}"
            )
        if self.modulus is not None:
            mod = tuple(c % self.p for c in self.modulus)
            if len(mod) != self.e * self.m + 1:
                raise FieldConstructionError(
                    f"modulus must have degree {self.e * self.m} (got length {len(mod)})"
                )
            if mod[-1] != 1:
                raise FieldConstructionError("modulus must be monic")
            object.__setattr__(self, "modulus", mod)

    @classmethod
    def from_json(cls, obj: dict | str) -> "FieldSpec":
        if isinstance(obj, str):
            obj = json.loads(obj)
        mod = obj.get("modulus")
        return cls(
            p=int(obj["p"]),
            e=int(obj["e"]),
            m=int(obj["m"]),
            modulus=tuple(mod) if mod is not None else None,
            generator_check=bool(obj.get("generator_check", True)),
        )

    def to_json(self) -> dict:
        out = {"p": self.p, "e": self.e, "m": self.m}
        if self.modulus is not None:
            out["modulus"] = list(self.modulus)
        return out


class FieldTower:
    """Immutable exp/log/trace tables for F_{q^m} with q = p^e."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.m = spec.m
        self.em = spec.e * spec.m
        self.q = spec.p ** spec.e
        self.qm = spec.p ** self.em
        self.order = self.qm - 1
        # index of F_q^* in F_{q^m}^*: gamma^subfield_step generates F_q^*
        self.subfield_step = self.order // (self.q - 1)

        modulus = spec.modulus if spec.modulus is not None else default_modulus(self.p, self.em)
        if not poly_is_irreducible(modulus, self.p):
            raise FieldConstructionError(f"modulus {list(modulus)} is reducible over F_{self.p}")
        if spec.generator_check and not poly_x_is_primitive(modulus, self.p):
            raise FieldConstructionError(
                f"modulus {list(modulus)} is irreducible but X is not primitive"
            )
        self.modulus = tuple(modulus)

        self._digit_weights = self.p ** np.arange(self.em, dtype=np.int64)
        self._build_tables()

    # -- construction ---------------------------------------------------

    def _build_tables(self):
        p, em, qm = self.p, self.em, self.qm
        all_elems = np.arange(qm, dtype=np.int64)

        # multiply-by-X permutation: shift digits up, reduce the overflow
        # digit c by subtracting c * (modulus - X^em)
        shifted = all_elems * p
        top = shifted // qm
        rem = shifted % qm
        low = self._scale_vec(top, np.int64(1), coeffs=self.modulus[:-1])
        self.mulx = self._sub_vec(rem, low).astype(np.int32)

        # exp/log via repeated multiplication by X; a premature return to 1
        # means X is not primitive
        exp = np.empty(self.order, dtype=np.int32)
        mulx_list = self.mulx.tolist()
        x = 1
        for i in range(self.order):
            exp[i] = x
            x = mulx_list[x]
        if x != 1 or len(np.unique(exp)) != self.order:
            raise FieldConstructionError(
                "residue of X does not generate the multiplicative group; "
                "supply a primitive modulus"
            )
        self.exp = exp
        log = np.full(qm, -1, dtype=np.int32)
        log[exp] = np.arange(self.order, dtype=np.int32)
        self.log = log

        # Frobenius x -> x^p and the F_q-Frobenius x -> x^q as permutations
        frob = np.zeros(qm, dtype=np.int32)
        frob[exp] = exp[(np.arange(self.order, dtype=np.int64) * p) % self.order]
        self.frob = frob
        frobq = np.zeros(qm, dtype=np.int32)
        frobq[exp] = exp[(np.arange(self.order, dtype=np.int64) * self.q) % self.order]
        self.frobq = frobq

        # negation and the two trace maps, tabulated for every element
        self.neg_table = self._scale_vec(all_elems, np.int64(p - 1)).astype(np.int32)

        acc = all_elems.copy()
        cur = all_elems.copy()
        for _ in range(em - 1):
            cur = self.frob[cur].astype(np.int64)
            acc = self._add_vec(acc, cur)
        if not np.all(acc < p):
            raise FieldConstructionError("absolute trace left the prime field; tables corrupt")
        self.trace_p = acc.astype(np.int8)

        acc = all_elems.copy()
        cur = all_elems.copy()
        for _ in range(self.m - 1):
            cur = self.frobq[cur].astype(np.int64)
            acc = self._add_vec(acc, cur)
        self.trace_q = acc.astype(np.int32)

        # dense labels for F_q: 0 -> 0, 1 + j -> gamma^(j * subfield_step)
        sub = np.zeros(self.q, dtype=np.int32)
        for j in range(self.q - 1):
            sub[1 + j] = self.exp[(j * self.subfield_step) % self.order]
        self.subfield_elements = sub
        idx = np.full(qm, -1, dtype=np.int32)
        idx[sub] = np.arange(self.q, dtype=np.int32)
        self.subfield_index = idx
        if np.count_nonzero(self.subfield_index >= 0) != self.q:
            raise FieldConstructionError("subfield embedding is not injective")

        self._coord_tables = None
        self._subfield_ops = None

    # -- digitwise helpers (mod-p arithmetic on packed base-p ints) ------

    def _add_vec(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        out = np.zeros_like(np.broadcast_arrays(x, y)[0], dtype=np.int64)
        for i in range(self.em):
            w = self._digit_weights[i]
            out += (((x // w) % self.p + (y // w) % self.p) % self.p) * w
        return out

    def _sub_vec(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        out = np.zeros_like(np.broadcast_arrays(x, y)[0], dtype=np.int64)
        for i in range(self.em):
            w = self._digit_weights[i]
            out += (((x // w) % self.p - (y // w) % self.p) % self.p) * w
        return out

    def _scale_vec(self, x, c, coeffs=None):
        """Digitwise c*x mod p; with coeffs, evaluates c * poly(coeffs) instead."""
        if coeffs is not None:
            out = np.zeros_like(np.asarray(x), dtype=np.int64)
            for i, fc in enumerate(coeffs):
                if fc:
                    out += ((np.asarray(x) * fc) % self.p) * self._digit_weights[i]
            # digits were written independently, already < p
            return out
        out = np.zeros_like(np.asarray(x), dtype=np.int64)
        for i in range(self.em):
            w = self._digit_weights[i]
            out += (((x // w) % self.p) * c % self.p) * w
        return out

    # -- scalar element operations ---------------------------------------

    def add(self, x: int, y: int) -> int:
        return int(self._add_vec(np.int64(x), np.int64(y)))

    def sub(self, x: int, y: int) -> int:
        return int(self._sub_vec(np.int64(x), np.int64(y)))

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return int(self.exp[(int(self.log[x]) + int(self.log[y])) % self.order])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of the zero element")
        return int(self.exp[(-int(self.log[x])) % self.order])

    def pow(self, x: int, k: int) -> int:
        if x == 0:
            if k <= 0:
                raise ZeroDivisionError("0 cannot be raised to a non-positive power")
            return 0
        return int(self.exp[(int(self.log[x]) * k) % self.order])

    def mul_vec(self, a: int, xs: np.ndarray) -> np.ndarray:
        """a * xs for a fixed scalar and an array of elements (zeros allowed)."""
        xs = np.asarray(xs)
        if a == 0:
            return np.zeros_like(xs)
        la = int(self.log[a])
        out = np.zeros_like(xs)
        nz = xs != 0
        out[nz] = self.exp[(la + self.log[xs[nz]].astype(np.int64)) % self.order]
        return out

    def add_sets(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Pairwise sums {x + y}, broadcasting; digitwise mod p."""
        return self._add_vec(np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64))

    # -- traces and hyperplanes -------------------------------------------

    def trace_to_prime(self, x: int) -> int:
        return int(self.trace_p[x])

    def trace_to_subfield(self, x: int) -> int:
        return int(self.trace_q[x])

    def hyperplane(self, a: int) -> np.ndarray:
        """Kernel {x : Tr_{F_{q^m}/F_q}(x a) = 0}; size q^(m-1).  a must be nonzero."""
        if a == 0:
            raise ValueError("hyperplane requires a nonzero element (kernel of a == 0 is everything)")
        vals = self.trace_q[self.mul_vec(a, np.arange(self.qm, dtype=np.int64))]
        return np.nonzero(vals == 0)[0].astype(np.int64)

    def _greedy_span(self, elems: Iterable[int]) -> tuple[list[int], np.ndarray]:
        """(basis, span): elems kept in order when outside the span so far, and
        their F_q-linear span as a sorted array (contains 0)."""
        basis: list[int] = []
        span = np.array([0], dtype=np.int64)
        in_span = np.zeros(self.qm, dtype=bool)
        in_span[0] = True
        scalars = self.subfield_elements.astype(np.int64)
        for s in np.asarray(list(elems), dtype=np.int64).tolist():
            if in_span[s]:
                continue
            basis.append(s)
            mults = self.mul_vec(s, scalars)
            span = np.unique(self.add_sets(span[:, None], mults[None, :]).ravel())
            in_span[span] = True  # the span only grows
            if len(span) == self.qm:
                break
        return basis, span

    def linear_span(self, elems: Iterable[int]) -> np.ndarray:
        """F_q-linear span of a set of elements, as a sorted array (contains 0)."""
        return self._greedy_span(elems)[1]

    def span_basis(self, elems: Iterable[int]) -> list[int]:
        """Greedy F_q-basis of the span of elems."""
        return self._greedy_span(elems)[0]

    def trace_annihilator(self, elems: Iterable[int]) -> np.ndarray:
        """{x : Tr_{F_{q^m}/F_q}(x s) = 0 for all s} as a sorted array.

        Equals the annihilator of the span, so only a basis is probed.
        """
        basis = self.span_basis(elems)
        mask = np.ones(self.qm, dtype=bool)
        xs = np.arange(self.qm, dtype=np.int64)
        for b in basis:
            mask &= self.trace_q[self.mul_vec(b, xs)] == 0
        return np.nonzero(mask)[0].astype(np.int64)

    # -- subfield ----------------------------------------------------------

    def in_subfield(self, x: int) -> bool:
        """Membership in the embedded copy of F_q."""
        return x == 0 or int(self.log[x]) % self.subfield_step == 0

    def subfield_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense F_q arithmetic on labels 0..q-1: (add, mul, neg) tables."""
        if self._subfield_ops is None:
            q = self.q
            elems = self.subfield_elements
            add = np.empty((q, q), dtype=np.int32)
            mul = np.empty((q, q), dtype=np.int32)
            neg = np.empty(q, dtype=np.int32)
            for i in range(q):
                neg[i] = self.subfield_index[self.neg_table[elems[i]]]
                for j in range(q):
                    add[i, j] = self.subfield_index[self.add(int(elems[i]), int(elems[j]))]
                    mul[i, j] = self.subfield_index[self.mul(int(elems[i]), int(elems[j]))]
            self._subfield_ops = (add, mul, neg)
        return self._subfield_ops

    def coordinate_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Bijection between elements and F_q-coordinate codes.

        Coordinates are taken over the basis 1, gamma, ..., gamma^(m-1);
        a coordinate vector (c_0..c_{m-1}) of dense labels is packed as
        sum(c_i * q^i).  Returns (element_of_code, code_of_element).
        """
        if self._coord_tables is None:
            elems = np.array([0], dtype=np.int64)
            for k in range(self.m):
                mults = self.mul_vec(int(self.exp[k]), self.subfield_elements.astype(np.int64))
                # flat index = c_k * q^k + previous code
                elems = self.add_sets(mults[:, None], elems[None, :]).ravel()
            element_of_code = elems.astype(np.int64)
            code_of_element = np.empty(self.qm, dtype=np.int64)
            code_of_element[element_of_code] = np.arange(self.qm, dtype=np.int64)
            self._coord_tables = (element_of_code, code_of_element)
        return self._coord_tables

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, m={self.m}, size={self.qm})"


def build_tower(spec: FieldSpec) -> FieldTower:
    """Construct the tower with all tables; raises FieldConstructionError on bad specs."""
    return FieldTower(spec)
