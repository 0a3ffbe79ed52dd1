"""Multiplicative functions given by prime-power oracles.

A MultFnSpec is a label, an oracle (p, k) -> f(p^k), and an optional
smoothness bound y; the function it denotes vanishes at every n with a
prime factor above y (enforced at evaluation on integers, never by
rewriting oracle values).  Log-derivative coefficients Lambda_f are kept
as multiples of log p so the class test |Lambda_f(p^k)| <= log p is a
plain |c| <= 1 comparison.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OracleError
from .sieve import X_MAX_CAP, _check_query, primes_upto, smooth_ascending

CLASS_C_SLACK = 1e-12


class MultFnSpec:
    """A multiplicative function f with f(1) = 1, defined on prime powers.

    The label names the function in reports, so it should name it uniquely
    (the library constructors bake their parameters in).
    """

    __slots__ = ("label", "oracle", "smooth_bound")

    def __init__(self, label: str, oracle, smooth_bound: int | None = None):
        self.label = label
        self.oracle = oracle  # (p, k) -> complex
        self.smooth_bound = smooth_bound

    def at(self, p: int, k: int) -> complex:
        """Oracle value f(p^k); smoothness is NOT applied here."""
        return self.oracle(p, k)

    def to_record(self) -> dict:
        """Serializable spec: label, bound, and sample (p, k, value) triples."""
        triples = []
        for p in (2, 3, 5, 7, 11, 13):
            if self.smooth_bound is not None and p > self.smooth_bound:
                continue
            for k in (1, 2):
                try:
                    v = complex(self.oracle(p, k))
                except OracleError:
                    continue
                triples.append([p, k, f"{v.real:.12g}", f"{v.imag:.12g}"])
        return {"label": self.label, "smooth_bound": self.smooth_bound,
                "prime_powers": triples}

    def __repr__(self):
        return f"MultFnSpec({self.label!r}, y={self.smooth_bound})"


def from_prime_powers(label: str, values: dict, smooth_bound: int | None = None) -> MultFnSpec:
    """Oracle backed by an explicit {(p, k): value} dict.

    A missing (p, k) falls back to the completely multiplicative extension
    f(p)^k when (p, 1) is present, and errors otherwise.
    """

    def oracle(p, k):
        if (p, k) in values:
            return values[(p, k)]
        if (p, 1) in values:
            return values[(p, 1)] ** k
        raise OracleError(f"{label}: no oracle value at (p={p}, k={k})")

    return MultFnSpec(label, oracle, smooth_bound)


def completely_multiplicative(label: str, prime_value, smooth_bound: int | None = None) -> MultFnSpec:
    """f(p^k) = prime_value(p)^k."""
    return MultFnSpec(label, lambda p, k: prime_value(p) ** k, smooth_bound)


# ---------------------------------------------------------------------------
# built-in function library


def one() -> MultFnSpec:
    return MultFnSpec("one", lambda p, k: 1.0)


def smooth_indicator(y: int) -> MultFnSpec:
    """Indicator of y-smooth integers."""
    return MultFnSpec(f"smooth_indicator[y={y}]", lambda p, k: 1.0, smooth_bound=y)


def moebius_smooth(y: int) -> MultFnSpec:
    """mu(n) restricted to y-smooth integers."""
    return MultFnSpec(
        f"moebius_smooth[y={y}]",
        lambda p, k: -1.0 if k == 1 else 0.0,
        smooth_bound=y,
    )


def _unit_angle(seed: int, p: int) -> float:
    h = hashlib.blake2b(f"{seed}:{p}".encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") / 2**64


def random_unit_circle(seed: int, smooth_bound: int | None = None) -> MultFnSpec:
    """Completely multiplicative with f(p) uniform on the unit circle.

    Values are a deterministic hash of (seed, p), so they do not depend on
    evaluation order or on which primes get queried first.  The last 4096
    values f(p) are kept, so the powers f(p^k) of one p hash it once.
    """

    @functools.lru_cache(maxsize=4096)
    def fp(p):
        return complex(np.exp(2j * np.pi * _unit_angle(seed, p)))

    return completely_multiplicative(f"random_unit[seed={seed}]", fp, smooth_bound)


def character_twist(psi, y: int) -> MultFnSpec:
    """f(n) = psi(n) * 1_{y-smooth}(n) for a Dirichlet character psi."""
    label = f"twist[q={psi.q},rank={psi.rank},y={y}]"
    return completely_multiplicative(label, lambda p: psi.cvalue(p), smooth_bound=y)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: MultFnSpec, n: int) -> complex:
    """f(n) as the oracle product over the factorization of n.

    n is factored by trial division by the primes <= sqrt(n); the factors
    are multiplied in largest prime first, as in the support walk.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    _check_query(n)
    factors = []
    for p in primes_upto(math.isqrt(X_MAX_CAP)):
        if p * p > n:
            break
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            factors.append((p, k))
    if n > 1:  # no prime <= sqrt(n) divides it, so n is prime
        factors.append((n, 1))
    if factors and f.smooth_bound is not None and factors[-1][0] > f.smooth_bound:
        return 0j
    val = 1.0 + 0j
    for p, k in reversed(factors):
        val *= f.at(p, k)
    return val


# perfbench/tracer.py reads x at position 2 or as the keyword x, so every
# call in the package passes x by keyword
def get_support(f: MultFnSpec, x: int):
    """(ns, vs): the n in 1..x with f(n) != 0, ascending int32, and f there.

    Only n with P(n) <= y can be nonzero (y = x for unbounded f), so the
    support is the walk over the primes <= y, in ascending order
    (sieve.smooth_ascending), in O(Psi(x,y)) work and memory: the residue
    sums downstream only ever touch it.  A product of nonzero values can
    underflow to 0, and such zeros are masked out.  Nothing is kept: each
    call walks again.
    """
    _check_query(x)
    bound = x if f.smooth_bound is None else min(x, f.smooth_bound)
    try:
        ns, vs = smooth_ascending(x, bound, f.at)
    except OracleError as exc:
        if f.label in str(exc):  # the oracle's own error names f already
            raise
        raise OracleError(f"{f.label}: {exc}") from exc
    if not vs.all():
        keep = vs != 0
        ns = ns[keep]
        vs = vs[keep]
    return ns, vs


def values_array(f: MultFnSpec, x: int) -> np.ndarray:
    """f(n) for n = 0..x as a fresh read-only complex array (f[0] = 0).

    The support from get_support scattered into zeros: the dense form, kept
    for unbounded f (the Dirichlet-inverse check convolves it).
    """
    ns, vs = get_support(f, x=x)
    vals = np.zeros(x + 1, dtype=np.complex128)
    vals[ns] = vs
    vals.setflags(write=False)
    return vals


# ---------------------------------------------------------------------------
# log-derivative coefficients and class membership


@dataclass
class LambdaTable:
    """Lambda_f on prime powers <= N, stored as coefficients c with value c*log p."""

    N: int
    coeffs: dict  # p^k -> (p, c)

    def value(self, n: int) -> complex:
        """Lambda_f(n) as a complex number (0 off prime powers)."""
        if n in self.coeffs:
            p, c = self.coeffs[n]
            return c * math.log(p)
        return 0j

    def coefficient(self, n: int):
        """(p, c) with Lambda_f(n) = c*log p, or None off prime powers."""
        return self.coeffs.get(n)


def lambda_f(f: MultFnSpec, N: int) -> LambdaTable:
    """Coefficients of -F'/F: k f(p^k) = sum_{j<=k} c_j f(p^{k-j}), solved upward."""
    coeffs = {}
    for p in primes_upto(N):
        kmax = 0
        pe = p
        while pe <= N:
            kmax += 1
            pe *= p
        fvals = [1.0 + 0j]
        for k in range(1, kmax + 1):
            if f.smooth_bound is not None and p > f.smooth_bound:
                fvals.append(0j)
            else:
                fvals.append(complex(f.at(p, k)))
        cs = [0j]
        pe = p
        for k in range(1, kmax + 1):
            c_k = k * fvals[k] - sum(cs[j] * fvals[k - j] for j in range(1, k))
            cs.append(c_k)
            coeffs[pe] = (p, c_k)
            pe *= p
    return LambdaTable(N, coeffs)


@dataclass
class ClassCCertificate:
    """max |Lambda_f(p^k)| / Lambda(p^k) over p^k <= N; valid iff <= 1 (+ slack)."""

    checked_up_to: int
    max_ratio: float

    @property
    def valid(self) -> bool:
        return self.max_ratio <= 1.0 + CLASS_C_SLACK


def check_class_c(f: MultFnSpec, N: int) -> ClassCCertificate:
    table = lambda_f(f, N)
    worst = 0.0
    for p, c in table.coeffs.values():
        worst = max(worst, abs(c))
    return ClassCCertificate(N, worst)


def dirichlet_inverse(f: MultFnSpec, N: int) -> MultFnSpec:
    """The g with (f*g)(n) = [n=1], built on prime powers p^k <= N.

    Inverts the evaluated function: a smoothness bound on f zeroes the
    prime values above it before inversion, and g carries the same bound.
    """
    y = f.smooth_bound
    gvals = {}
    # f(p^k) = 0 for p > y, hence g(p^k) = 0 there: the oracle answers it
    for p in primes_upto(N if y is None else min(N, y)):
        kmax = 0
        pe = p
        while pe <= N:
            kmax += 1
            pe *= p
        fv = [1.0 + 0j] + [complex(f.at(p, k)) for k in range(1, kmax + 1)]
        gv = [1.0 + 0j]
        for k in range(1, kmax + 1):
            gv.append(-sum(fv[j] * gv[k - j] for j in range(1, k + 1)))
            gvals[(p, k)] = gv[k]

    def oracle(p, k):
        if y is not None and p > y:
            return 0j
        try:
            return gvals[(p, k)]
        except KeyError:
            raise OracleError(
                f"inverse[{f.label}]: no oracle value at (p={p}, k={k}); built up to {N}"
            ) from None

    return MultFnSpec(f"inverse[{f.label},N={N}]", oracle, smooth_bound=y)


def restrict_smooth(f: MultFnSpec, y: int) -> MultFnSpec:
    """Same oracle, support cut to y-smooth integers at evaluation time."""
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    bound = y if f.smooth_bound is None else min(y, f.smooth_bound)
    return MultFnSpec(f"{f.label}|smooth[{bound}]", f.oracle, smooth_bound=bound)
