"""Candidate subsets of F_{q^m}^* and partial-difference-set verification.

A subset is carried as its int32 members in ascending log order plus its
origin: the (N, J) of a union of cyclotomic classes, whose members are read
off exp with no sort, the Gram matrix of a quadratic form whose nonzero
zeros it is, or none (explicit logs or elements).  Every subset but a class
union is built from its logs and keeps them.  Its characteristic function
in log order (`log_indicator`, the codes' coordinates) is scattered from
its logs, and its q^m-entry indicator, for lookups of arbitrary elements,
from its members, each when first read.  A quadric's zeros are
collected a block of elements at a time, from each element's
F_q-coordinates (its base-p digits for e = 1, the traces against the dual
basis for e > 1), so that the build holds no array of q^m entries beside
the members.  Its stabiliser <gamma^d> is the period of J in Z_N or of its
logs (`cyclic_period`), and its invariances under F_q^*, -1 and Frobenius
are read off that period.  Verification runs on two
independent routes: the spectral one reads the distinct character-sum
values off the full spectrum, the combinatorial one counts differences
directly; on small fields both must agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import isqrt
from typing import Sequence

import numpy as np

from .charsums import Spectrum, stabiliser_spectrum
from .field import (
    FieldTower,
    GuardExceeded,
    blocks,
    cyclic_period,
    distinct,
    gather,
    int_field,
    int_list,
    obj_field,
    rank_reaches,
    required,
)

DIRECT_VERIFY_CAP = 10_000


class PdsVerificationError(ValueError):
    """The subset is not a PDS (or fails a precondition); carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# -- subset construction ----------------------------------------------------


@dataclass(frozen=True)
class CyclotomicOrigin:
    N: int
    J: tuple[int, ...]


@dataclass(frozen=True)
class QuadricOrigin:
    """The nonzero zeros of the nondegenerate quadratic form with this
    upper-triangular coefficient matrix of dense F_q labels (`quadric_subset`)."""
    gram: tuple[tuple[int, ...], ...]


class FieldSubset:
    """A subset of F_{q^m}^*: its members in int32 (q^m <= MAX_FIELD_SIZE =
    2^26), without repeats and in ascending log order, the order of the
    codes' coordinates, and indicators by element and by log built on first
    read; origin is a CyclotomicOrigin, a QuadricOrigin or None.  A class
    union's members are read off exp at i N + j, j in J, with no sort and
    no log table; any other subset is built from its logs (`logs`), taken
    from the elements once, sorted only when they do not already strictly
    ascend and compressed only when a repeat turns up (`distinct`)."""

    def __init__(self, tower: FieldTower, members: np.ndarray):
        """The subset of any array of elements, in any order, repeats allowed,
        with no origin."""
        members = np.asarray(members).ravel()
        # checked before the logs are read, which clip out-of-range keys
        if members.size and (members.min() < 0 or members.max() >= tower.qm):
            raise ValueError("member out of field range")
        self._hold_logs(tower, tower.logs_of(members), None)

    def _hold_logs(self, tower: FieldTower, logs: np.ndarray,
                   origin: CyclotomicOrigin | QuadricOrigin | None) -> None:
        """Hold the elements of int32 logs in [-1, q^m - 1), log 0 = -1 refused."""
        logs = distinct(logs)
        if len(logs) and logs[0] < 0:
            raise ValueError("subsets live in the multiplicative group; 0 not allowed")
        logs.flags.writeable = False
        self.tower, self.origin, self.logs = tower, origin, logs
        self.members = gather(tower.exp, logs)

    @classmethod
    def _of_logs(cls, tower: FieldTower, logs: np.ndarray, origin=None) -> "FieldSubset":
        """The subset of the elements of int32 logs (`_hold_logs`), read off exp
        with no log table; the logs become its own."""
        subset = cls.__new__(cls)
        subset._hold_logs(tower, logs, origin)
        return subset

    @cached_property
    def indicator(self) -> np.ndarray:
        """The q^m-entry membership bitset, built on first read."""
        indicator = np.zeros(self.tower.qm, dtype=bool)
        for part in blocks(len(self)):  # numpy scatters int32 keys on a slow path
            indicator[self.members[part].astype(np.intp)] = True
        return indicator

    @cached_property
    def log_indicator(self) -> np.ndarray:
        """f(gamma^i) at index i < q^m - 1, f the characteristic function of D:
        the subset in the codes' coordinate order, read-only, built on first
        read by scattering `logs` as `indicator` scatters the members (a class
        union's logs come from (N, J), so it reads no log, exp or indicator)."""
        on = np.zeros(self.tower.order, dtype=bool)
        for part in blocks(len(self)):
            on[self.logs[part].astype(np.intp)] = True
        on.flags.writeable = False
        return on

    def __len__(self):
        return int(len(self.members))

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.tower.qm and bool(self.indicator[x])

    @cached_property
    def logs(self) -> np.ndarray:
        """The members' logs, strictly ascending (int32, read-only).  A class
        union (N, J) reads them on first use, i N + j for j in J, with no
        table and no sort; every other subset is built from its logs."""
        starts = np.arange(0, self.tower.order, self.origin.N, dtype=np.int32)
        logs = np.empty((len(starts), len(self.origin.J)), dtype=np.int32)
        for c, j in enumerate(self.origin.J):  # as `_class_union` fills the members
            np.add(starts, j, out=logs[:, c])
        logs.flags.writeable = False
        return logs.ravel()  # a view, read-only too

    @cached_property
    def stabiliser(self) -> tuple[int, np.ndarray]:
        """(d, I): Stab(D) = <gamma^d> in F_{q^m}^*, and D the union of the
        cosets gamma^i <gamma^d>, i in I: the cyclic period of D's sorted
        logs (`cyclic_period`), I a prefix of `logs`.  A class union (N, J)
        has gamma^d D = D exactly when J + d = J (mod N), so d and I are the
        period of J in Z_N, read in O(|J| log N) with no member scan."""
        if isinstance(self.origin, CyclotomicOrigin):
            return cyclic_period(self.origin.J, self.origin.N)
        return cyclic_period(self.logs, self.tower.order)

    @property
    def stabiliser_period(self) -> int:
        """The least d with gamma^d D = D."""
        return self.stabiliser[0]

    def is_proper(self) -> bool:
        return 0 < len(self) < self.tower.order

    def complement(self) -> "FieldSubset":
        """F_{q^m}^* minus D: for a class union (N, J) the union of the
        classes Z_N minus J, with no q^m-entry scan; else the logs off
        `log_indicator`."""
        if isinstance(self.origin, CyclotomicOrigin):
            N = self.origin.N
            rest = tuple(sorted(set(range(N)) - set(self.origin.J)))
            if rest:
                return _class_union(self.tower, N, rest)
        off = np.flatnonzero(~self.log_indicator).astype(np.int32)
        return FieldSubset._of_logs(self.tower, off)

    def is_symmetric(self) -> bool:
        """Closed under negation (needed for a Cayley connection set).

        -1 = gamma^h, h = (q^m - 1)/2 for odd q and h = 0 for even q, so
        -D = D exactly when gamma^h lies in Stab(D) = <gamma^d>: d | h.
        """
        return self.tower.p == 2 or self.tower.order // 2 % self.stabiliser_period == 0

    @cached_property
    def frobenius_power(self) -> int:
        """The least s with D^(p^s) = D, a divisor of em (s = em: x^(p^em) = x).

        D is the union of the cosets gamma^i <gamma^d>, i in I, and x -> x^(p^s)
        sends gamma^i <gamma^d> onto gamma^(p^s i) <gamma^d>, so the test is
        p^s I = I (mod d); p^s is prime to d, so p^s I inside I suffices.
        The int32 cosets are widened for the product, which passes 2^31.
        """
        tower = self.tower
        d, cosets = self.stabiliser
        on = np.zeros(d, dtype=bool)
        on[cosets] = True
        cosets = cosets.astype(np.int64)
        return next(s for s in range(1, tower.em + 1)
                    if tower.em % s == 0 and on[cosets * pow(tower.p, s, d) % d].all())

    def spectrum(self) -> Spectrum:
        return stabiliser_spectrum(self.tower, self.members, *self.stabiliser)

    @classmethod
    def from_logs(cls, tower: FieldTower, logs: Sequence[int]) -> "FieldSubset":
        # reduced as Python ints, so any integer log is taken mod q^m - 1
        logs = np.array([int(lg) % tower.order for lg in logs], dtype=np.int32)
        return cls._of_logs(tower, logs)

    @classmethod
    def from_json(cls, tower: FieldTower, obj: dict) -> "FieldSubset":
        obj = obj_field(obj, "subset spec")
        if "cyclotomic" in obj:
            c = obj_field(obj["cyclotomic"], "cyclotomic")
            N, J = (required(c, key, "cyclotomic spec") for key in ("N", "J"))
            return build_cyclotomic_subset(tower, int_field(N, "N"), int_list(J, "J"))
        if "explicit" in obj:
            logs = required(obj_field(obj["explicit"], "explicit"), "logs", "explicit spec")
            return cls.from_logs(tower, int_list(logs, "logs"))
        if "quadric" in obj:
            qd = obj_field(obj["quadric"], "quadric")
            gram = qd.get("gram")
            if gram is not None:
                if not isinstance(gram, list):
                    raise ValueError(f"gram must be a list of rows, got {gram!r}")
                gram = [int_list(row, "gram row") for row in gram]
            subset, _ = quadric_subset(tower, kind=qd.get("kind"), gram=gram)
            return subset
        raise ValueError("subset spec must be one of cyclotomic/explicit/quadric")


def cyclotomic_classes(tower: FieldTower, N: int) -> list[np.ndarray]:
    """The N classes gamma^i * <gamma^N>, each of size (q^m-1)/N, in log order:
    exp read as a ((q^m-1)/N, N) array has class i as its column i."""
    _class_indices(tower, N)
    return list(np.array(tower.exp.reshape(-1, N).T))


def _class_indices(tower: FieldTower, N: int,
                   J: Sequence[int] | None = None) -> tuple[int, ...]:
    """J reduced mod N and sorted, for N a positive divisor of q^m - 1;
    J = None stands for all of Z_N.

    A given J must be a nonempty proper subset of Z_N, and for odd q N must
    divide (q^m-1)/2: then J + (q^m-1)/2 = J (mod N), and since
    -1 = gamma^((q^m-1)/2) the union is symmetric.
    """
    if N < 1 or tower.order % N != 0:
        raise ValueError(f"N={N} must be a positive divisor of q^m - 1 = {tower.order}")
    if J is None:
        return tuple(range(N))
    J = tuple(sorted({int(j) % N for j in J}))
    if not J or len(J) >= N:
        raise ValueError("J must be a nonempty proper subset of Z_N")
    half = tower.order // 2
    if tower.q % 2 == 1 and half % N != 0:
        raise ValueError(f"odd q requires N | (q^m-1)/2; got N={N}, (q^m-1)/2={half}")
    return J


def _class_union(tower: FieldTower, N: int, J: tuple[int, ...]) -> FieldSubset:
    """The union of the classes of the sorted J: member (i, c) is exp at
    i N + J[c], in log order, filled one column c at a time (a broadcast
    gather over so narrow an axis is several times slower); its logs are
    read off (N, J) when first used."""
    rows = tower.exp.reshape(-1, N)
    members = np.empty((len(rows), len(J)), dtype=np.int32)
    for c, j in enumerate(J):
        members[:, c] = rows[:, j]
    subset = FieldSubset.__new__(FieldSubset)
    subset.tower, subset.members, subset.origin = tower, members.ravel(), CyclotomicOrigin(N, J)
    return subset


def build_cyclotomic_subset(tower: FieldTower, N: int, J: Sequence[int]) -> FieldSubset:
    """Union of the classes indexed by J; enforces the odd-q symmetry conditions."""
    return _class_union(tower, N, _class_indices(tower, N, J))


def is_fq_invariant(subset: FieldSubset) -> bool:
    """Closure under F_q^* = <gamma^step>: gamma^step lies in Stab(D) =
    <gamma^d> exactly when d | step (always for q = 2, where step = q^m - 1)."""
    return subset.tower.subfield_step % subset.stabiliser_period == 0


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class PdsCertificate:
    """Strongly-regular parameters and eigensystem of a verified PDS."""

    v: int
    k: int
    lam: int
    mu: int
    theta1: int
    theta2: int
    m1: int
    m2: int
    type_flag: str  # "latin" | "negative_latin" | "neither"
    r: int | None = None
    eps: int | None = None

    def __post_init__(self):
        if not self.theta1 > 0 > self.theta2:
            raise PdsVerificationError(
                f"restricted eigenvalues must straddle zero, got {self.theta1}, {self.theta2}"
            )
        if self.m1 + self.m2 != self.v - 1:
            raise PdsVerificationError("multiplicities must sum to v - 1")
        if self.k + self.m1 * self.theta1 + self.m2 * self.theta2 != 0:
            raise PdsVerificationError("spectrum trace is nonzero")
        if self.lam - self.mu != self.theta1 + self.theta2:
            raise PdsVerificationError("lambda - mu != theta1 + theta2")
        if self.k - self.mu != -self.theta1 * self.theta2:
            raise PdsVerificationError("k - mu != -theta1*theta2")

    def to_json(self) -> dict:
        out = {
            "v": self.v, "k": self.k, "lambda": self.lam, "mu": self.mu,
            "theta1": self.theta1, "theta2": self.theta2,
            "m1": self.m1, "m2": self.m2, "type": self.type_flag,
        }
        if self.r is not None:
            out["r"] = self.r
            out["epsilon"] = self.eps
        return out


def eigensystem_from_parameters(v: int, k: int, lam: int, mu: int):
    """Closed-form (theta1, theta2, m1, m2) of an srg; everything must be integral."""
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    s = isqrt(disc)
    if s * s != disc:
        raise PdsVerificationError(f"eigenvalue discriminant {disc} is not a perfect square")
    if (lam - mu + s) % 2 != 0:
        raise PdsVerificationError("non-integral eigenvalues")
    theta1 = (lam - mu + s) // 2
    theta2 = (lam - mu - s) // 2
    num = 2 * k + (v - 1) * (lam - mu)
    if s == 0 or num % s != 0:
        raise PdsVerificationError("non-integral multiplicities")
    m1 = ((v - 1) - num // s)
    m2 = ((v - 1) + num // s)
    if m1 % 2 or m2 % 2:
        raise PdsVerificationError("non-integral multiplicities")
    return theta1, theta2, m1 // 2, m2 // 2


def classify_latin_type(v: int, k: int, lam: int, mu: int):
    """Match (v,k,lambda,mu) against (n^2, r(n-eps), eps*n+r^2-3*eps*r, r^2-eps*r)."""
    n = isqrt(v)
    if n * n != v:
        return "neither", None, None
    for eps, flag in ((1, "latin"), (-1, "negative_latin")):
        if n - eps <= 0 or k % (n - eps) != 0:
            continue
        r = k // (n - eps)
        if lam == eps * n + r * r - 3 * eps * r and mu == r * r - eps * r:
            return flag, r, eps
    return "neither", None, None


def certificate_from_spectrum(subset: FieldSubset, spectrum: Spectrum) -> PdsCertificate:
    v, k = subset.tower.qm, len(subset)
    witness = spectrum.irrational_witness()
    if witness is not None:
        raise PdsVerificationError(
            "character sum is irrational at some a; not a PDS with integer eigenvalues",
            witness=witness,
        )
    restricted = spectrum.restricted_values()
    if len(restricted) != 2:
        raise PdsVerificationError(
            f"expected exactly two restricted eigenvalues, found {restricted}",
            witness=restricted,
        )
    (theta1, m1), (theta2, m2) = restricted
    if not theta1 > 0 > theta2:
        raise PdsVerificationError(
            f"restricted eigenvalues {theta1}, {theta2} do not straddle zero",
            witness=restricted,
        )
    mu = k + theta1 * theta2
    lam = mu + theta1 + theta2
    # the closed forms must reproduce what the spectrum shows
    t1, t2, mm1, mm2 = eigensystem_from_parameters(v, k, lam, mu)
    if (t1, t2, mm1, mm2) != (theta1, theta2, m1, m2):
        raise PdsVerificationError(
            "closed-form eigensystem disagrees with the observed spectrum",
            witness=((t1, t2, mm1, mm2), (theta1, theta2, m1, m2)),
        )
    flag, r, eps = classify_latin_type(v, k, lam, mu)
    return PdsCertificate(v, k, lam, mu, theta1, theta2, m1, m2, flag, r, eps)


def verify_pds_spectral(
    subset: FieldSubset, spectrum: Spectrum | None = None
) -> tuple[PdsCertificate, Spectrum]:
    """Spectral PDS verification; raises PdsVerificationError with a witness."""
    if not subset.is_proper():
        raise PdsVerificationError("connection set must be nonempty and proper")
    if not subset.is_symmetric():
        # odd q alone leaves D asymmetric, and there -1 = gamma^((q^m - 1)/2)
        order = subset.tower.order
        bad = subset.members[~subset.log_indicator[(subset.logs + order // 2) % order]]
        raise PdsVerificationError("set is not symmetric (-D != D)", witness=int(bad.min()))
    if spectrum is None:
        spectrum = subset.spectrum()
    return certificate_from_spectrum(subset, spectrum), spectrum


def verify_pds_direct(subset: FieldSubset) -> tuple[int, int]:
    """Combinatorial verification: |D ∩ (D + g)| constant on D and off D.

    Runs g over gamma^j for j < d, one per orbit of D's stabiliser <gamma^d>:
    multiplying by gamma^d maps D and D + g onto D and D + gamma^d g, so the
    count and the membership of g repeat with period d in log order, and the
    first violation, with its witness, is the one a scan over every g finds.
    The counts are taken about BLOCK (g, member) pairs at a time (`blocks`),
    and the scan stops after the first pass that holds a violation.
    """
    tower = subset.tower
    if tower.qm > DIRECT_VERIFY_CAP:
        raise GuardExceeded(f"direct verification capped at {DIRECT_VERIFY_CAP} field elements")
    if not subset.is_proper():
        raise PdsVerificationError("connection set must be nonempty and proper")
    if not subset.is_symmetric():
        raise PdsVerificationError("set is not symmetric (-D != D)")

    d, cosets = subset.stabiliser
    gs = tower.exp[:d].astype(np.int64)
    on = np.bincount(cosets, minlength=d)  # gamma^j in D, j < d: j in I (intp)
    first = np.array([np.argmin(on), np.argmax(on)])  # the first g off D and in D
    counts = np.zeros(len(gs), dtype=np.int64)
    for part in blocks(len(gs), len(subset)):
        shifted = tower.add_sets(gs[part, None], subset.members[None, :])
        counts[part] = subset.indicator[shifted].view(np.uint8).sum(axis=1, dtype=np.int32)
        # a side's first count lies in this pass or an earlier one
        bad = np.flatnonzero(counts[part] != counts[first[on[part]]])
        if len(bad):
            g = part.start + int(bad[0])
            ref = int(first[on[g]])
            raise PdsVerificationError(
                f"common-neighbor count not constant {('off', 'on')[on[g]]} the set",
                witness=(int(gs[ref]), int(gs[g]), int(counts[ref]), int(counts[g])),
            )
    return int(counts[first[1]]), int(counts[first[0]])


def analyze_pds(subset: FieldSubset) -> tuple[dict, PdsCertificate | None]:
    """The `pds` report and the spectral certificate: its JSON with the
    F_q^*-invariance and the direct check ("ok", or "skipped" past
    DIRECT_VERIFY_CAP), whose (lambda, mu) must be the certificate's; for a
    subset that is not a PDS, the error with its witness, and None."""
    try:
        cert, _ = verify_pds_spectral(subset)
    except PdsVerificationError as exc:
        return {"error": str(exc), "witness": exc.witness}, None
    try:
        if verify_pds_direct(subset) != (cert.lam, cert.mu):
            raise AssertionError("direct and spectral verification disagree; bug")
        direct = "ok"
    except GuardExceeded:
        direct = "skipped"
    return {**cert.to_json(), "fq_invariant": is_fq_invariant(subset), "direct_check": direct}, cert


# -- cyclotomic predictions ---------------------------------------------------


@dataclass(frozen=True)
class CyclotomicPrediction:
    """Eigenvalue prediction for a union of cyclotomic classes (semiprimitive case)."""

    N: int
    J: tuple[int, ...]
    u: int
    ell1: int
    t: int
    sqrt_qm: int
    certificate: PdsCertificate
    coset_values: tuple[int, ...]  # value of the character sum on gamma^i * D by i mod N


def predicted_cyclotomic_eigenvalues(
    tower: FieldTower, N: int, J: Sequence[int]
) -> CyclotomicPrediction:
    """Predicted spectrum of a class union, without touching the field tables.

    Needs the semiprimitivity p^ell = -1 (mod N) for some ell; the minimal
    such ell determines t through e*m = 2*ell*t.
    """
    p, em = tower.p, tower.em
    if N <= 1 or tower.order % N != 0 or N == tower.order:
        raise ValueError(f"N={N} must be a proper divisor > 1 of q^m - 1")
    J = _class_indices(tower, N, J)

    ell1 = None
    for ell in range(1, em // 2 + 1):
        if pow(p, ell, N) == N - 1:
            ell1 = ell
            break
    if ell1 is None:
        raise PdsVerificationError(
            f"no ell in 1..{em // 2} with {p}^ell = -1 (mod {N}); semiprimitivity fails"
        )
    if em % (2 * ell1) != 0:
        raise PdsVerificationError(f"2*ell1 = {2 * ell1} does not divide e*m = {em}")
    t = em // (2 * ell1)
    sqm = p ** (em // 2)
    u = len(J)
    k = u * tower.order // N

    sign = 1 if t % 2 == 0 else -1
    if (u * (-1 + sign * sqm)) % N != 0:
        raise PdsVerificationError("predicted eigenvalue is not an integer; inconsistent input")
    theta_a = u * (-1 + sign * sqm) // N          # multiplicity q^m - 1 - k
    theta_b = theta_a - sign * sqm                # multiplicity k
    mult_a, mult_b = tower.qm - 1 - k, k

    eps_type = 1 if t % 2 == 1 else -1            # latin for odd t
    r = u * (sqm + eps_type) // N

    sign_eps = -1 if (N % 2 == 0 and ((p ** ell1 + 1) // N) % 2 == 1) else 1
    if sign_eps ** t == 1:
        special = {(-j) % N for j in J}
    else:
        special = {(-j + N // 2) % N for j in J}
    coset_values = tuple(theta_b if i in special else theta_a for i in range(N))

    if theta_a > 0 > theta_b:
        th1, mm1, th2, mm2 = theta_a, mult_a, theta_b, mult_b
    elif theta_b > 0 > theta_a:
        th1, mm1, th2, mm2 = theta_b, mult_b, theta_a, mult_a
    else:
        raise PdsVerificationError(
            f"degenerate predicted eigenvalues {theta_a}, {theta_b} (one is zero)"
        )
    mu = k + th1 * th2
    lam = mu + th1 + th2
    flag = "latin" if eps_type == 1 else "negative_latin"
    cert = PdsCertificate(tower.qm, k, lam, mu, th1, th2, mm1, mm2, flag, r, eps_type)
    return CyclotomicPrediction(N, J, u, ell1, t, sqm, cert, coset_values)


# -- quadric subsets -----------------------------------------------------------


def _anisotropic_pair(tower: FieldTower):
    """Coefficients (a, b, c) of an irreducible binary form a*x^2+b*xy+c*y^2 over F_q."""
    add, mul, neg = tower.subfield_tables()
    q = tower.q
    if tower.q % 2 == 1:
        squares = {int(mul[i, i]) for i in range(1, q)}
        delta = next(i for i in range(1, q) if i not in squares)
        return 1, 0, int(neg[delta])          # x^2 - delta*y^2
    # even q: x^2 + x*y + delta*y^2 with no root <=> delta outside the image of z^2+z
    image = {int(add[i, int(mul[i, i])]) for i in range(q)}
    delta = next(i for i in range(1, q) if i not in image)
    return 1, 1, delta


def default_gram(tower: FieldTower, kind: str) -> tuple[tuple[int, ...], ...]:
    """Upper-triangular coefficient matrix of the canonical quadric of each kind."""
    m = tower.m
    gram = [[0] * m for _ in range(m)]
    pairs = m // 2
    limit = pairs - 1 if kind == "elliptic" else pairs
    for k in range(limit):
        gram[2 * k][2 * k + 1] = 1
    if kind == "elliptic":
        a, b, c = _anisotropic_pair(tower)
        gram[m - 2][m - 2] = a
        gram[m - 2][m - 1] = b
        gram[m - 1][m - 1] = c
    return tuple(tuple(row) for row in gram)


def _elements(tower: FieldTower, labels) -> np.ndarray:
    """sum over j of labels[i][j] gamma^j for each row i of dense F_q labels:
    label l >= 1 is gamma^((l - 1) step), so each term is one read of exp."""
    labels = np.asarray(labels, dtype=np.int64)
    logs = (labels - 1) * tower.subfield_step + np.arange(tower.m)
    return reduce(tower.add_sets, np.where(labels > 0, tower.exp[logs % tower.order], 0).T)


def _dual_basis(tower: FieldTower) -> np.ndarray:
    """delta_0, ..., delta_(m-1) with Tr(delta_i gamma^j) = 1 for i = j and 0
    otherwise, Tr the trace to F_q: the rows of T^-1, T[i][j] = Tr(gamma^(i+j)),
    by reducing [T | I] over the F_q label tables (T is invertible, as the
    trace form is nondegenerate)."""
    add, mul, neg = tower.subfield_tables()
    m = tower.m
    inverse = (mul == 1).argmax(axis=1)  # of each nonzero label
    rows = np.concatenate([tower.trace_label_of_exp[np.add.outer(np.arange(m), np.arange(m))],
                           np.eye(m, dtype=np.int64)], axis=1)
    for c in range(m):
        pivot = c + int(np.flatnonzero(rows[c:, c])[0])
        rows[[c, pivot]] = rows[[pivot, c]]
        rows[c] = mul[inverse[rows[c, c]], rows[c]]
        factor = neg[rows[:, c]]
        factor[c] = 0
        rows = add[rows, mul[factor[:, None], rows[c]]]
    return _elements(tower, rows[:, m:])


def quadric_values(tower: FieldTower, gram, xs) -> np.ndarray:
    """Dense F_q labels of Q(x) = sum over i <= j of gram[i][j] x_i x_j for an
    array of elements x, x_i the F_q-coordinates over 1, gamma, ..., gamma^(m-1).

    For e = 1 the coordinates are the base-p digits of x, read off a table of
    the digits of each half of x, so Q(x) is a sum of integer products,
    reduced mod p once.  For e > 1 x_i is the label of Tr(delta_i x), delta
    the trace-dual basis (`_dual_basis`), read through
    `FieldTower.trace_labels`, and the products and sums go through the F_q
    label tables."""
    xs = np.asarray(xs)
    terms = [(i, j, g) for i, row in enumerate(gram) for j, g in enumerate(row) if j >= i and g]
    if tower.e == 1:
        p, h = tower.p, tower.m // 2
        half = np.arange(p ** (tower.m - h), dtype=np.int32)
        table = [half // p ** i % p for i in range(tower.m - h)]
        high = xs // p ** h
        low = xs - high * p ** h
        digits = [t.take(low) for t in table[:h]] + [t.take(high) for t in table]
        value = tower.subfield_elements  # of each label of F_p
        total = np.zeros_like(xs)
        for i, j, g in terms:
            total += int(value[g]) * digits[i] * digits[j]
        return tower.subfield_labels(np.arange(p)).take(total % p)
    add, mul, _ = tower.subfield_tables()
    coords = tower.trace_labels(_dual_basis(tower).reshape((-1,) + (1,) * xs.ndim), xs)
    values = np.zeros(xs.shape, dtype=np.int32)
    for i, j, g in terms:
        values = add[values, mul[mul[g, coords[i]], coords[j]]]
    return values


def quadric_subset(
    tower: FieldTower, kind: str | None = None, gram=None
) -> tuple[FieldSubset, PdsCertificate]:
    """Nonzero zero-locus of a nondegenerate quadratic form, plus its predicted certificate.

    The field is viewed as F_q^m over the basis 1, gamma, ..., gamma^(m-1);
    gram is an upper-triangular coefficient matrix of dense F_q labels with
    Q(x) = sum over i<=j of gram[i][j] * x_i * x_j.  Q is evaluated on BLOCK
    elements at a time (`quadric_values`), and only the zeros are kept.
    """
    if kind not in (None, "hyperbolic", "elliptic"):
        raise ValueError(f"kind must be 'hyperbolic' or 'elliptic', got {kind!r}")
    m, q = tower.m, tower.q
    if m < 4 or m % 2 != 0:
        raise ValueError("quadric construction needs even m >= 4")
    if (m, q) == (4, 2):
        raise ValueError("(m, q) = (4, 2) is excluded")
    if gram is None:
        if kind is None:
            raise ValueError("give a kind (hyperbolic/elliptic) or an explicit gram matrix")
        gram = default_gram(tower, kind)
    gram = tuple(tuple(int(v) for v in row) for row in gram)
    if len(gram) != m or any(len(row) != m for row in gram):
        raise ValueError(f"gram matrix must be {m}x{m}")
    if any(not 0 <= v < q for row in gram for v in row):
        raise ValueError(f"gram entries must be F_q labels 0..{q - 1}")
    add, _, _ = tower.subfield_tables()
    # the polarization B(x,y) = Q(x+y) - Q(x) - Q(y) has the matrix G + G^T,
    # and is nondegenerate when its rows, as elements, have rank m
    polar = [[add[gram[i][j], gram[j][i]] for j in range(m)] for i in range(m)]
    if not rank_reaches(tower, distinct(_elements(tower, polar)), m)[0]:
        raise ValueError("quadratic form is degenerate (polar form has a radical)")
    zeros = []  # their logs, log 0 = -1 first
    for part in blocks(tower.qm):
        xs = np.arange(part.start, part.stop, dtype=np.int32)
        zeros.append(tower.logs_of(xs[quadric_values(tower, gram, xs) == 0]))
    logs = np.concatenate(zeros)[1:]
    del zeros  # before the members are gathered: the peak holds one copy of the logs
    sqm = isqrt(tower.qm)

    half = q ** (m // 2 - 1)
    for eps, r, flag in ((1, half + 1, "latin"), (-1, half - 1, "negative_latin")):
        if len(logs) == r * (sqm - eps):
            k = r * (sqm - eps)
            lam = eps * sqm + r * r - 3 * eps * r
            mu = r * r - eps * r
            t1, t2, m1, m2 = eigensystem_from_parameters(tower.qm, k, lam, mu)
            cert = PdsCertificate(tower.qm, k, lam, mu, t1, t2, m1, m2, flag, r, eps)
            if kind is not None and flag != {"hyperbolic": "latin", "elliptic": "negative_latin"}[kind]:
                raise ValueError(
                    f"form has {len(logs)} zeros, inconsistent with a {kind} quadric"
                )
            return FieldSubset._of_logs(tower, logs, QuadricOrigin(gram)), cert
    raise PdsVerificationError(
        f"zero count {len(logs)} matches neither quadric type", witness=len(logs)
    )
