"""Table-backed arithmetic in the tower F_p < F_q < F_{q^m}.

Elements are plain ints in [0, p^(e*m)): the base-p digits of an element
are the coefficients (low degree first) of its residue, modulo the
defining polynomial, as a polynomial in the generator gamma.  Index 0 is
the zero element; every nonzero element is gamma^i for a unique i, and
the exp/log tables convert between the two views.

F_q always lives inside F_{q^m} as the set of nonzero (q^m-1)/(q-1)-th
powers together with 0; it is never built as a separate field.

exp, the absolute trace's half tables (for p = 2 its packed images) and
the q elements of F_q are built up front; log, trace_coords and the
log-order traces on first read (a `pds` of a class union or of explicit
logs reads only trace_of_exp).  A modulus passes when exp shows X of order
exactly q^m - 1 (X^(q^m - 1) = 1 and no X^((q^m - 1)/ell) = 1, ell prime),
so the residues form a field; Rabin's test on powers of the companion
matrix then names a failure reducible or imprimitive, and the modulus
search runs the same order test on those powers.  log refuses an exp that
leaves a slot empty.
F_q^* is <gamma^step>, so x in F_q has the dense label log x // step + 1,
which `subfield_labels` finds by binary search among the q elements of F_q
sorted ascending; scaling by label l adds (l - 1) step to a log, and
negation, for odd p, adds order/2, as -1 = gamma^(order/2) (for p = 2 it
is the identity): none of them needs a table indexed by element.

The absolute trace, trace_coords, the q-polynomials and multiplication by
a fixed power of X are F_p-linear maps on the packed digits, given by two
`_half_tables` from the images of the basis X^i: on the low and the high
half of the digits apart (digit-matrix products mod p), joined by one
digitwise add, which gathers from a cached table adding two c-digit chunks
(c = 5 for p = 3; XOR for p = 2), or for the absolute trace, whose images
are single digits, by one add mod p (`trace`; for p = 2 the trace is the
parity of the bits shared with the packed images, one popcount), on every
element (`linear_map_table`) or only where needed.  exp takes its first
~sqrt(q^m) powers of X by companion-matrix doubling; each later stretch is
the one s before times X^s, that map's half tables joined at it.  The traces are
linearized polynomials sum_k x^(step^k), whose basis images come from exp
(`linearized_table`, which also serves q-polynomials).  trace_coords[a]
packs the digits Tr_abs(a X^i), which index the row of the character
transform that holds a's value.

Two cached tables hold traces in log order: trace_of_exp[i] is
Tr_abs(gamma^i), and trace_label_of_exp[i] the dense F_q label of
Tr(gamma^i), for e = 1 read off trace_of_exp through the labels of F_p and
for e > 1 through a q-entry table at the e absolute traces Tr_abs(w^k
gamma^i), w = gamma^step, whose half tables are joined at exp.
`trace_labels(v, x)` reads the label table at log v + log x; it is the one
batch route to the F_q value of Tr(v x) from elements, and `shifted_labels`
reads it at the sums of given logs (the hyperplane sections, the weight
count).  The code scans read it from every start (`label_cycle`).  The
layers above take the F_q-rank of a set of elements here (`rank_reaches`:
the minimality and cutting criteria), every stabiliser as a period of
ascending logs or class numbers (`cyclic_period`), numpy passes of about
BLOCK entries (`blocks`) and blockwise gathers (`gather`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd, isqrt
from typing import Iterator, Sequence

import numpy as np

# Hard cap on table-backed fields: a build makes exp (int32) of this length;
# log (int32), trace_coords (int32) and the log-order traces (one or two
# bytes) come on first read.  In a fresh process (2-core Xeon, numpy 2.4)
# F_{2^26} builds in 0.6-0.8 s with a 289 MB peak RSS, F_{2^24} in 0.18-0.19 s
# with 94 MB and F_{3^12} in 0.02-0.04 s with 31 MB.
MAX_FIELD_SIZE = 2 ** 26

# Entries per numpy pass (`blocks`): table builds, label gathers, word blocks,
# spans, reflections and the direct PDS check.  2^17 halves the cutting test's
# rank calls but doubles the code scans' temporaries.
BLOCK = 2 ** 16
# Most entries of exp per half-table join: the join's temporaries stay in L2
# cache (F_{3^16} builds in 1.3-1.7 s, against 2.1-2.6 s with 2^16 entries).
STRETCH = 2 ** 14

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


class GuardExceeded(RuntimeError):
    """A cost guard stopped an exhaustive computation."""


def int_field(value, name: str) -> int:
    """A JSON spec field that must be an integer (not a bool), or a ValueError naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def int_list(value, name: str) -> list[int]:
    """A JSON spec field that must be a list of integers (not bools), or a ValueError."""
    if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ValueError(f"{name} must be a list of integers, got {value!r}")
    return value


def obj_field(value, name: str) -> dict:
    """A JSON spec field that must be an object, or a ValueError naming it."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


def required(obj: dict, key: str, spec: str):
    """obj[key], or a ValueError naming the key and the spec that lacks it."""
    if key not in obj:
        raise ValueError(f"{spec} is missing key {key!r}")
    return obj[key]


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division; n stays
    below 2^26 here."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] * (n > 1)


def _companion(coeffs: Sequence[int], p: int) -> np.ndarray:
    """The companion matrix of a monic modulus over F_p (int64): row i holds
    the digits of X^(i+1), so a row of digits times it is that residue times X."""
    n = len(coeffs) - 1
    companion = np.zeros((n, n), dtype=np.int64)
    companion[:-1, 1:] = np.eye(n - 1, dtype=np.int64)
    companion[-1] = [-c % p for c in coeffs[:-1]]
    return companion


def _power(matrix: np.ndarray, k: int, p: int) -> np.ndarray:
    """matrix^k mod p (int64) by squaring, exact while n (p - 1)^2 < 2^63 for
    an n x n matrix, as under the table cap.  For the companion matrix C of
    a modulus that is the multiplication by X^k on the residues, its row 0
    the digits of X^k, and for h(C) the multiplication by h(X)^k."""
    power = np.eye(len(matrix), dtype=np.int64)
    while k:
        if k & 1:
            power = power @ matrix % p
        matrix = matrix @ matrix % p
        k >>= 1
    return power


def poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic f of degree n over F_p, by Rabin's test on
    its companion matrix C: X^(p^n) = X, and gcd(X^(p^(n/ell)) - X, f) = 1
    for each prime ell | n.  Once X^(p^n) = X, the residues are a product
    of fields F_(p^d), d | n, so g is prime to f exactly when g^(p^n - 1) = 1."""
    n = len(coeffs) - 1
    if n < 1 or coeffs[-1] % p != 1:
        return False
    companion, one = _companion(coeffs, p), np.eye(n, dtype=np.int64)
    return np.array_equal(_power(companion, p ** n, p), companion) and all(
        np.array_equal(_power((_power(companion, p ** (n // ell), p) - companion) % p,
                              p ** n - 1, p), one) for ell in prime_factors(n))


def poly_x_is_primitive(coeffs: Sequence[int], p: int) -> bool:
    """Whether the residue of X mod a monic f of degree n has multiplicative
    order exactly p^n - 1: X^(p^n - 1) = 1 and no X^((p^n - 1)/ell) = 1, ell
    prime.  Then the residues hold p^n - 1 units, so f is irreducible too."""
    order, companion = p ** (len(coeffs) - 1) - 1, _companion(coeffs, p)
    one = np.eye(len(companion), dtype=np.int64)
    return bool(coeffs[0] % p) and np.array_equal(_power(companion, order, p), one) and not any(
        np.array_equal(_power(companion, order // ell, p), one) for ell in prime_factors(order))


def default_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Built-in defining polynomial for F_{p^degree}.

    Falls back to a deterministic search by the order test (the same
    enumeration that produced the frozen table) for pairs outside it.  For
    degree n >= 2 it starts at code p, past the binomials X^n + c: none is
    primitive, as X^n = -c gives X an order dividing n (p - 1) < p^n - 1.
    """
    if (p, degree) in DEFAULT_MODULI:
        return DEFAULT_MODULI[(p, degree)]
    for code in range(p if degree > 1 else 1, p ** degree):
        f = [code // p ** i % p for i in range(degree)] + [1]
        if poly_x_is_primitive(f, p):
            return tuple(f)
    raise FieldConstructionError(f"no primitive polynomial found for p={p}, degree={degree}")


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of the tower F_p < F_{p^e} < F_{p^(e*m)}.

    ``modulus`` lists the coefficients of a monic irreducible polynomial
    of degree e*m over F_p, low degree first; None selects the built-in
    default.  The residue of X must be primitive: table construction
    checks its order in exp and names a failure by the polynomial tests.
    """

    p: int
    e: int
    m: int
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.e < 1 or self.m < 1:
            raise FieldConstructionError("e and m must be positive")
        # p and e*m are bounded before the power and the trial division, so a
        # huge spec fails at once
        em = self.e * self.m
        if self.p > MAX_FIELD_SIZE or em >= MAX_FIELD_SIZE.bit_length() or (
                self.p ** em > MAX_FIELD_SIZE):
            raise FieldConstructionError(
                f"field size {self.p}^{em} exceeds the table cap {MAX_FIELD_SIZE}"
            )
        if not is_prime(self.p):
            raise FieldConstructionError(f"p={self.p} is not prime")
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
    def from_json(cls, obj: dict) -> "FieldSpec":
        obj = obj_field(obj, "field spec")
        p, e, m = (int_field(required(obj, key, "field spec"), key) for key in ("p", "e", "m"))
        mod = obj.get("modulus")
        return cls(
            p=p, e=e, m=m,
            modulus=tuple(int_list(mod, "modulus")) if mod is not None else None,
        )


class FieldTower:
    """exp/log/trace tables for F_{q^m} with q = p^e.  No table changes once
    built, so a tower can be shared across threads; on Python 3.12 or later
    (no lock in cached_property) two threads racing on the first read of a
    deferred table may each build it, one copy winning."""

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

        self.modulus = tuple(
            spec.modulus if spec.modulus is not None else default_modulus(self.p, self.em)
        )

        self._build_tables()

    # -- construction ---------------------------------------------------

    def _build_tables(self):
        p, em, order = self.p, self.em, self.order

        # exp: about sqrt(q^m) powers of X by companion-matrix doubling, then
        # exp[n:n + s] = exp[n - s:n] X^s, the half tables of x -> x X^s joined
        # there, for s growing to n - em (so that its images X^(s + i), i < em,
        # are filled) up to STRETCH, the tables built only when s changes; one
        # entry past the end holds X^order
        powers = np.empty(order + 1, dtype=np.int32)
        n = min(order + 1, max(isqrt(order), em) + em)
        powers[:n] = self._powers_of_x(n)
        s = 0
        while n <= order:
            if s < min(n - em, STRETCH):
                s = min(n - em, STRETCH)
                halves = self._half_tables(powers[s:s + em])
            stop = min(n + s, order + 1)
            powers[n:stop] = self._join(halves, powers[n - s:stop - s])
            n = stop
        # X has order q^m - 1 exactly when X^order = 1 and no X^(order / ell),
        # ell a prime, is 1; then the residues have q^m - 1 units, so they form
        # a field and the modulus is irreducible and primitive; Rabin's test
        # names a failure
        if powers[order] != 1 or any(powers[order // ell] == 1 for ell in prime_factors(order)):
            fault = ("is irreducible but X is not primitive" if poly_is_irreducible(self.modulus, p)
                     else f"is reducible over F_{p}")
            raise FieldConstructionError(f"modulus {list(self.modulus)} {fault}")
        self.exp = powers[:order]

        # the absolute trace's images Tr(X^i) are single digits: its half tables
        # join by one add mod p (`trace`), in the least dtype holding 2(p - 1)
        images = self._linearized_images([1] * em, p)
        if images.max() >= p:
            raise FieldConstructionError("absolute trace left the prime field; tables corrupt")
        if p == 2:  # Tr(x) is the parity of the bits x shares with the packed Tr(X^i)
            self._trace_bits = int(images @ (1 << np.arange(em)))
        else:
            dtype = np.min_scalar_type(2 * (p - 1))
            self._trace_halves = tuple(half.astype(dtype) for half in self._half_tables(images))

        # dense labels for F_q: 0 -> 0, 1 + j -> gamma^(j * subfield_step)
        sub = np.zeros(self.q, dtype=np.int32)
        sub[1:] = self.exp[np.arange(self.q - 1) * self.subfield_step]
        self.subfield_elements = sub

    def _powers_of_x(self, count: int) -> np.ndarray:
        """Packed X^0 .. X^(count-1) (int64): the digit rows of the first s
        powers times C^s, C the `_companion` matrix of the modulus, give the
        next s, doubling s until count."""
        p, em = self.p, self.em
        companion = _companion(self.modulus, p)
        rows = np.eye(1, em, dtype=np.int64)
        while len(rows) < count:
            rows = np.concatenate([rows, rows @ companion % p])
            companion = companion @ companion % p
        return rows[:count] @ p ** np.arange(em, dtype=np.int64)

    def linearized_table(self, coeffs: Sequence[int], step: int) -> np.ndarray:
        """x -> sum_k coeffs[k] * x^(step^k), for step a power of p, tabulated
        on every element (int32, indexed by element).

        The map is F_p-linear, so only the images of the basis X^i = gamma^i
        are computed, through exp/log, and linear_map_table does the rest.
        """
        return self.linear_map_table(self._linearized_images(coeffs, step))

    def _linearized_images(self, coeffs: Sequence[int], step: int) -> np.ndarray:
        """The images of the basis X^i under x -> sum_k coeffs[k] * x^(step^k)."""
        i = np.arange(self.em, dtype=np.int64)
        # log 1 = 0, so the traces, whose coefficients are all 1, read no log
        terms = [self.exp[((int(self.log[c]) if c != 1 else 0) + i * pow(step, k, self.order))
                          % self.order]
                 for k, c in enumerate(coeffs) if c]
        return reduce(self._add_vec, terms, np.zeros(self.em, dtype=np.int32))

    def linear_map_table(self, images) -> np.ndarray:
        """The F_p-linear map sending X^i (the packed element p^i) to images[i],
        tabulated on every element (int32, indexed by element); images of
        shape (..., em) give one table per row, of shape (..., q^m).

        One digitwise add joins the two `_half_tables`:
        table[hi * p^h + lo] = high[hi] + low[lo].
        """
        high, low = self._half_tables(images)
        return self._add_vec(high[..., :, None], low[..., None, :]).reshape(*high.shape[:-1], -1)

    def _join(self, halves, xs) -> np.ndarray:
        """The map of the `_half_tables` halves at the elements xs (int32): one
        digitwise add of the high table at xs // p^h and the low one at the rest."""
        high, low = halves
        hi = xs // self.p ** (self.em // 2)  # floor division and a product beat divmod
        return self._add_vec(high.take(hi), low.take(xs - hi * self.p ** (self.em // 2)))

    def _half_tables(self, images) -> tuple[np.ndarray, np.ndarray]:
        """(high, low): the map on the high em - h and the low h = em // 2
        digits apart, as digit rows of the arguments times digit rows of the
        images, mod p (int32, one table per row of images)."""
        images = np.asarray(images, dtype=np.int64)
        if images.shape[-1:] != (self.em,):
            raise ValueError(f"need one image per basis element X^i (em = {self.em})")
        p, h = self.p, self.em // 2
        place = p ** np.arange(self.em, dtype=np.int64)
        rows = images[..., None] // place % p
        args = np.arange(p ** (self.em - h), dtype=np.int64)[:, None] // place[: self.em - h] % p
        high = (args @ rows[..., h:, :] % p @ place).astype(np.int32)
        low = (args[: p ** h, :h] @ rows[..., :h, :] % p @ place).astype(np.int32)
        return high, low

    # -- tables built on first read ---------------------------------------

    @cached_property
    def log(self) -> np.ndarray:
        """The inverse of exp (int32, log 0 = -1), scattered BLOCK entries at
        a time.  exp must fill every nonzero slot: a short count is refused."""
        log = np.full(self.qm, -1, dtype=np.int32)
        for part in blocks(self.order):
            log[self.exp[part]] = np.arange(part.start, part.stop, dtype=np.int32)
        if log[1:].min() < 0:  # the build's order test passed, so exp is at fault
            raise FieldConstructionError("exp leaves a slot of log empty; tables corrupt")
        return log

    @cached_property
    def trace_coords(self) -> np.ndarray:
        """trace_coords[a] packs the digits Tr_abs(a X^i), i < em (int32): the
        row of the character transform that holds a's value."""
        p, em = self.p, self.em
        tr_x = self.trace(self.exp[: 2 * em - 1]).astype(np.int64).tolist()
        return self.linear_map_table(
            [sum(tr_x[i + j] * p ** i for i in range(em)) for j in range(em)]
        )

    # -- digitwise addition (mod-p addition on packed base-p ints) ----------

    @cached_property
    def _digit_add(self) -> tuple[int, int, np.ndarray]:
        """(c, A, table): table[x * A + y] is the digitwise sum mod p of two c-digit
        numbers, c the most digits (<= em) whose table of pairs (A = p^c) has at most
        2^17 entries; a 1-digit table is read at x + y (A = 1), small for p > 2^8.
        The table is uint8 where the sums, below p^c, fit (uint16 for p = 7, 17, 19)."""
        p, c = self.p, 1
        while c < self.em and p ** (2 * c + 2) <= 2 ** 17:
            c += 1
        if c == 1:
            return 1, 1, (np.arange(2 * p - 1) % p).astype(np.int32)
        a = np.arange(p, dtype=np.int32)
        table = digit = (a[:, None] + a) % p
        for k in range(1, c):  # one more digit on top of both numbers
            table = (digit[:, None, :, None] * p ** k + table[:, None]).reshape(p ** (k + 1), -1)
        return c, p ** c, table.ravel().astype(np.min_scalar_type(p ** c - 1))

    def _add_vec(self, x, y):
        """Digitwise x + y mod p on ints or int arrays (broadcasting): one table
        gather per c digits, accumulated in int32 (for p = 2, x ^ y)."""
        if self.p == 2:
            return x ^ y
        c, A, table = self._digit_add
        chunk, out = self.p ** c, 0
        for k in range(0, self.em, c):
            # the low c digits, split off by floor division (far cheaper than
            # divmod or % on arrays) except from the top chunk
            xc, yc = x, y
            if k + c < self.em:
                x, y = x // chunk, y // chunk
                xc, yc = xc - x * chunk, yc - y * chunk
            # the pair index is made in intp, which take reads without a copy
            out += np.multiply(table.take(np.add(xc * A, yc, dtype=np.intp)), self.p ** k,
                               dtype=np.int32)
        return out

    # -- scalar element operations ---------------------------------------

    def neg(self, x: int) -> int:
        """-x: x gamma^(order/2) for odd p, as -1 = gamma^(order/2); x for p = 2."""
        if self.p == 2 or x == 0:
            return int(x)
        return int(self.exp[(int(self.log[x]) + self.order // 2) % self.order])

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
        """Pairwise sums {x + y}, broadcasting; digitwise mod p (int64)."""
        xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
        return self._add_vec(xs, ys).astype(np.int64, copy=False)

    def logs_of(self, members: np.ndarray) -> np.ndarray:
        """log[members], members in [0, q^m), as a new int32 array (`gather`)."""
        return gather(self.log, members)

    def stabiliser(self, members: np.ndarray) -> tuple[int, np.ndarray]:
        """(d, I): the least d with gamma^d S = S, S the nonzero members, so
        Stab(S) = <gamma^d>, and the ascending i < d with S the union of the
        cosets gamma^i <gamma^d>, i in I: the cyclic period of S's logs
        (`cyclic_period`), which are sorted in place unless they already
        strictly ascend (`distinct`), as a subset's members do.  A member
        outside [0, q^m) or a repeat is refused."""
        members = np.asarray(members)
        if members.size and (members.min() < 0 or members.max() >= self.qm):
            bad = members[(members < 0) | (members >= self.qm)][0]
            raise ValueError(f"member {bad} lies outside [0, {self.qm})")
        logs = self.logs_of(members)
        if len(distinct(logs)) < len(logs):  # logs is now sorted, with the repeat
            repeat = logs[1:][logs[1:] == logs[:-1]][0]
            raise ValueError(f"member {self.exp[repeat] if repeat >= 0 else 0} repeats")
        return cyclic_period(logs[1:] if len(logs) and logs[0] < 0 else logs, self.order)

    # -- traces and hyperplanes -------------------------------------------

    def trace(self, xs) -> np.ndarray:
        """Tr_abs(x) for each element of an int array: for p = 2 the parity of
        x & t, t the packed Tr(X^i), by popcount; else the absolute trace's half
        tables joined by one add mod p, in the least dtype that holds 2(p - 1),
        read as int8 while p <= 128."""
        if self.p == 2:
            return (np.bitwise_count(np.bitwise_and(xs, self._trace_bits)) & 1).view(np.int8)
        (high, low), split = self._trace_halves, self.p ** (self.em // 2)
        hi = np.asarray(xs) // split
        out = high.take(hi)
        out += low.take(xs - hi * split)
        # mod p for out < 2p, in an unsigned dtype: out - p wraps above out
        # where out < p (far cheaper than np.remainder on small ints)
        np.minimum(out, out - self.p, out=out)
        return out.view(np.int8) if self.p <= 128 else out

    @cached_property
    def trace_of_exp(self) -> np.ndarray:
        """Tr_abs(gamma^i) at index i < q^m - 1, BLOCK entries of exp at a time."""
        out = np.empty(self.order, dtype=self.trace(self.exp[:1]).dtype)
        for part in blocks(self.order):
            out[part] = self.trace(self.exp[part])
        return out

    @cached_property
    def trace_label_of_exp(self) -> np.ndarray:
        """Dense F_q labels in log order: the label of Tr(gamma^i) at index
        i < q^m - 1, in the smallest unsigned dtype that holds q - 1.

        With w = gamma^step, the e digits Tr_abs(w^k y) = Tr_{F_q/F_p}(w^k
        Tr(y)), k < e (the trace is transitive), name Tr(y) one to one, as
        the w^k are an F_p-basis of F_q and the trace form is nondegenerate.
        For e = 1 they are trace_of_exp, read through a p-entry label table;
        for e > 1 the half tables of the F_p-linear y -> sum_k p^k
        Tr_abs(w^k y) are joined at exp, BLOCK entries at a time, and read
        through a q-entry table filled at the digits Tr_{F_q/F_p}(w^(j + k))
        of each w^j, label j + 1, with Tr_{F_q/F_p}(x) = sum_{l<e} x^(p^l)."""
        dtype = np.min_scalar_type(self.q - 1)
        if self.e == 1:
            return self.subfield_labels(np.arange(self.p)).astype(dtype)[self.trace_of_exp]
        e, q, step, order = self.e, self.q, self.subfield_step, self.order
        k, place = np.arange(e), self.p ** np.arange(e)
        # row k: Tr_abs(w^k X^i), i < em
        traces = self.trace(self.exp[(k[:, None] * step + np.arange(self.em)) % order])
        halves = self._half_tables(place @ traces.astype(np.int64))
        logs = np.arange(q - 1, dtype=np.int64) * step  # of w^j
        sub = reduce(self._add_vec, [self.exp[logs * pow(self.p, l, order) % order]
                                     for l in range(e)])  # Tr_{F_q/F_p}(w^j)
        keys = sub[(np.arange(q - 1)[:, None] + k) % (q - 1)].astype(np.int64) @ place
        table = np.zeros(q, dtype=dtype)
        table[keys] = np.arange(1, q)
        labels = np.empty(order, dtype=dtype)
        for part in blocks(order):
            labels[part] = table.take(self._join(halves, self.exp[part]))
        return labels

    def label_cycle(self) -> np.ndarray:
        """A read-only (q^m - 1, q^m - 1) view, row s the label of
        Tr(gamma^(s + c)) at column c, strided over a doubled copy of
        trace_label_of_exp made per call."""
        labels = self.trace_label_of_exp
        doubled = np.concatenate([labels, labels[:-1]])
        # the view as_strided makes, without its per-call cost, which outweighs
        # a small cycle's reads
        cycle = np.ndarray((len(labels),) * 2, labels.dtype, doubled, strides=doubled.strides * 2)
        cycle.flags.writeable = False
        return cycle

    def shifted_labels(self, starts, logs) -> np.ndarray:
        """(len(starts), len(logs)) labels of Tr(gamma^(s + l)), s in starts
        and l in logs, both in [0, q^m - 1): trace_label_of_exp at s + l,
        less q^m - 1 where the sum passes it (a masked subtract, which is
        several times faster than a remainder on these small blocks)."""
        keys = np.add(starts[:, None], logs, dtype=np.intp)
        np.subtract(keys, self.order, out=keys, where=keys >= self.order)
        return self.trace_label_of_exp.take(keys)

    def trace_labels(self, v, x) -> np.ndarray:
        """Dense F_q labels of Tr(v x), broadcasting v against x; zeros allowed.

        Reads trace_label_of_exp at log v + log x; with fields capped at
        MAX_FIELD_SIZE = 2^26 the sum of two int32 logs cannot overflow.
        """
        v, x = np.asarray(v), np.asarray(x)
        labels = self.trace_label_of_exp.take((self.log.take(v) + self.log.take(x)) % self.order)
        return np.where((v == 0) | (x == 0), 0, labels)

    def hyperplane(self, a: int) -> np.ndarray:
        """Kernel {x : Tr_{F_{q^m}/F_q}(x a) = 0}; size q^(m-1).  a must be nonzero."""
        if a == 0:
            raise ValueError("hyperplane requires a nonzero element (kernel of a == 0 is everything)")
        return np.flatnonzero(self.trace_labels(a, np.arange(self.qm)) == 0)

    # -- subfield ----------------------------------------------------------

    @cached_property
    def _subfield_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(elements, labels): the q elements of F_q ascending, and the label of each."""
        labels = np.argsort(self.subfield_elements).astype(np.int32)
        return self.subfield_elements[labels], labels

    def subfield_labels(self, x):
        """The dense label of each element x of F_q, 0 for x = 0 and 1 + j for
        gamma^(j subfield_step): the label at x's place among the elements of
        F_q sorted ascending, found by binary search; meaningless, though in
        range, off F_q."""
        elements, labels = self._subfield_order
        return labels.take(np.searchsorted(elements, x), mode="clip")

    def subfield_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense F_q arithmetic on labels 0..q-1: (add, mul, neg) tables.  The
        labels of subfield_elements must be 0..q-1 in order and their sums
        in F_q, or the embedding is rejected.  The product of labels i, j >= 1
        is (i + j - 2) mod (q - 1) + 1, a sum of logs, and for odd q the
        negation of label 1 + j is label (j + (q - 1)/2) mod (q - 1) + 1, as
        -1 = gamma^(order/2); for even q it is the identity.  The tables
        have q^2 entries, refused past MAX_FIELD_SIZE."""
        if self.q ** 2 > MAX_FIELD_SIZE:
            raise GuardExceeded(f"F_q tables of q^2 = {self.q ** 2} entries exceed "
                                f"the table cap {MAX_FIELD_SIZE}")
        return self._subfield_ops

    @cached_property
    def _subfield_ops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        elems = self.subfield_elements.astype(np.int64)
        if not np.array_equal(self.subfield_labels(elems), np.arange(self.q)):
            raise FieldConstructionError("subfield embedding is not injective: its "
                                         "elements do not take the labels 0..q-1 in order")
        sums = self.add_sets(elems[:, None], elems[None, :])
        add = self.subfield_labels(sums)
        if not np.array_equal(elems[add], sums):
            raise FieldConstructionError("subfield is not closed under addition: a sum of "
                                         "two of its elements lies outside F_q")
        j = np.arange(self.q - 1, dtype=np.int32)  # label 1 + j is gamma^(j step)
        mul = np.zeros((self.q, self.q), dtype=np.int32)
        mul[1:, 1:] = (j[:, None] + j) % (self.q - 1) + 1
        neg = np.arange(self.q, dtype=np.int32)
        if self.q % 2:
            neg[1:] = (j + (self.q - 1) // 2) % (self.q - 1) + 1
        return add, mul, neg

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, m={self.m}, size={self.qm})"


def blocks(count: int, width: int = 1) -> Iterator[slice]:
    """Consecutive slices of range(count), max(1, BLOCK // width) items each
    (the last one maybe fewer): numpy passes of about BLOCK entries over
    items of width entries each."""
    per = max(1, BLOCK // max(1, width))
    for start in range(0, count, per):
        yield slice(start, min(start + per, count))


def gather(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """table[keys], keys in range, as a new array.  take copies int32 keys to
    intp, twice the output's bytes at once in one gather, so the keys go
    BLOCK at a time into slices of the output, with mode="clip" (with
    "raise", take buffers an out= array)."""
    out = np.empty(len(keys), dtype=table.dtype)
    for part in blocks(len(keys)):
        table.take(keys[part], out=out[part], mode="clip")
    return out


def distinct(values) -> np.ndarray:
    """The distinct entries of values, ascending: values as they are when they
    already strictly ascend (compared BLOCK pairs at a time, up to the first
    descent), else sorted in place (a given array is sorted itself) and
    compressed only when a neighbour compare finds a repeat (np.unique would
    import numpy.ma)."""
    values = np.asarray(values).ravel()
    if all((values[part.start + 1:part.stop + 1] > values[part]).all()
           for part in blocks(len(values) - 1)):
        return values
    values.sort()
    first = np.ones(len(values), dtype=bool)  # the first of each run of repeats
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values if first.all() else values[first]


def cyclic_period(positions, n: int) -> tuple[int, np.ndarray]:
    """(d, I): the least d with T + d = T (mod n), T a set of ascending
    distinct positions in [0, n), n < 2^31, and I the positions below d: a
    prefix of T, as an int32 view.

    A period d makes T the n / d shifts of I, so n / d divides |T| and d is
    at least d0 = n / gcd(n, |T|), tested first.  s is a period exactly when
    the b = |T| s / n positions below it, shifted by multiples of s, make up
    T: T[b:] - T[:-b] = s everywhere (compared BLOCK pairs at a time, up to
    the first mismatch), so T[b - 1] = T[-1] - (n/s - 1) s < s.  Failing d0,
    the periods are the multiples of d dividing n, so d is n divided by each
    prime ell while the quotient s = d / ell is still a period, the next
    test reading the b = |T| / ell positions below s alone.
    """
    T = np.asarray(positions, dtype=np.int32)

    def shifts(b: int, s: int) -> bool:  # b = |T| (d = n) and b = 0 compare no pairs
        return all((T[b + part.start:b + part.stop] - T[part] == s).all()
                   for part in blocks(len(T) - b))

    d = n // gcd(n, len(T))
    b = len(T) * d // n
    if shifts(b, d):
        return d, T[:b]
    d = n
    for ell in prime_factors(n):
        while d % ell == 0:
            b, rest = divmod(len(T), ell)
            if rest or not shifts(b, d // ell):
                break
            T, d = T[:b], d // ell
    return d, T


def rank_reaches(tower: FieldTower, elems, target, count=None):
    """Whether the F_q-span of a set of distinct elements has dimension >= target.

    elems is one set, or a 2-D array of sets padded with 0, of any integer
    dtype, and target one number or one per set; count, when the caller
    knows it, is the number of nonzero elements of each set.  A subspace of
    dimension target - 1 has q^(target-1) - 1 nonzero elements, so that many
    elements decide it (count certificate).  The other sets are reduced over
    F_p on the packed elements times w^i, i < e (w = gamma^step, so they
    F_p-span the F_q-span): an element's base-p digits are its
    F_p-coordinates.  The reduction runs on chunks of doubling size, until
    e * target pivots turn up, one digit column c at a time: the first
    vector with digit c is the pivot, its multiples k pivot / lead by the
    F_p constants k are field products (lead its digit c), and every vector
    adds the multiple that clears its digit c (one gather and one digitwise
    add).  For p = 2 the digit is a bit and the multiples are 0 and the
    pivot, so the vectors with bit c set XOR the pivot in.  The elimination
    on arrays of digits is the oracle in tests/reference.py.

    Returns (reached, basis): basis[c] is the packed pivot of digit c (1
    there, 0 before it) or zero, int32, and spans the set whenever reached
    is False.
    """
    sets = np.atleast_2d(np.asarray(elems))
    target = np.broadcast_to(np.asarray(target, dtype=np.int64), (len(sets),))
    goal = tower.e * target
    if count is None:
        count = (sets != 0).view(np.uint8).sum(axis=1, dtype=np.int32)
    reached = counted_rank(tower, count, target)
    basis = np.zeros((len(sets), tower.em), dtype=np.int32)
    left = np.flatnonzero(~reached)
    if len(left):
        rows = sets if len(left) == len(sets) else sets[left]
        reached[left], basis[left] = _packed_pivots(tower, rows, count[left], goal[left])
    if np.ndim(elems) == 1:
        return bool(reached[0]), basis[0]
    return reached, basis


def counted_rank(tower: FieldTower, count, target):
    """The count certificate: count distinct nonzero elements span >= target dimensions."""
    return (target <= 0) | (count >= tower.q ** np.maximum(target - 1, 0))


def _packed_pivots(tower: FieldTower, sets: np.ndarray, count: np.ndarray, goal: np.ndarray):
    """(reached, pivots) for sets of count nonzero elements each, padded with 0:
    pivots[i, c] is the packed pivot of digit c of set i, or 0, after the
    chunk in which goal[i] pivots turn up, or after the whole set."""
    p, em, log, exp = tower.p, tower.em, tower.log, tower.exp
    reached = np.zeros(len(sets), dtype=bool)
    pivots = np.zeros((len(sets), em), dtype=np.int32)
    rest = np.zeros((len(sets), count.max()), dtype=np.int32)
    rest[np.arange(rest.shape[1]) < count[:, None]] = sets[sets != 0]  # nonzero elements first
    scalars = exp[np.arange(1, tower.e) * tower.subfield_step].tolist()  # w^i, 0 < i < e
    logk = log[:p]  # the logs of the F_p constants k < p, log 0 = -1
    start, size = 0, 8 * tower.m  # elements, each giving e vectors
    while start < rest.shape[1] and not reached.all():
        sub = np.flatnonzero(~reached)
        part = rest[sub, start:start + size]
        gens = np.stack([part] + [tower.mul_vec(w, part) for w in scalars], axis=2)
        vecs = np.concatenate([pivots[sub], gens.reshape(len(sub), -1)], axis=1)
        start, size = start + size, 2 * size
        rows = np.arange(len(sub))
        for c in range(em):
            if p == 2:  # digit c is bit c: the pivot's multiples are 0 and itself
                has = (vecs & 1 << c) != 0
                at = has.argmax(axis=1)
                pivots[sub, c] = pivot = np.where(has[rows, at], vecs[rows, at], 0)
                np.bitwise_xor(vecs, pivot[:, None], out=vecs, where=has)
                continue
            high = vecs // p ** c
            digit = high - high // p * p  # floor divisions are cheaper than %
            at = (digit != 0).argmax(axis=1)  # 0, with digit 0, where there is none
            pivot, lead = vecs[rows, at], digit[rows, at]
            # mult[s, k] = k pivot / lead, 0 at k = 0 and where set s has no pivot
            mult = np.where((lead != 0)[:, None] & (logk >= 0),
                            exp[((log[pivot] - log[lead])[:, None] + logk) % tower.order], 0)
            pivots[sub, c] = mult[:, 1]
            vecs = tower._add_vec(vecs, mult[rows[:, None], -digit])  # column -t clears digit t
        reached[sub] = (pivots[sub] != 0).view(np.uint8).sum(axis=1, dtype=np.int32) >= goal[sub]
    return reached, pivots


def build_tower(spec: FieldSpec) -> FieldTower:
    """Construct the tower with all tables; raises FieldConstructionError on bad specs."""
    return FieldTower(spec)
