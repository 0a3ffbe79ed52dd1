"""Multiplicative functions given by prime-power oracles.

A MultFnSpec is a label, an oracle (p, k) -> f(p^k), and an optional
smoothness bound y; the function it denotes vanishes at every n with a
prime factor above y (enforced at evaluation on integers, never by
rewriting oracle values).  No command reads the log-derivative
coefficients Lambda_f or the class test |Lambda_f(p^k)| <= log p: they
are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import functools

import numpy as np

try:  # hashlib loads OpenSSL (about 3.5 MB RSS) and never uses it for blake2
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from .arith import factorize
from .errors import DomainError, OracleError
from .sieve import _check_query, primes_upto, smooth_ascending


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


def completely_multiplicative(label: str, prime_value, smooth_bound: int | None = None) -> MultFnSpec:
    """f(p^k) = prime_value(p)^k."""
    return MultFnSpec(label, lambda p, k: prime_value(p) ** k, smooth_bound)


# ---------------------------------------------------------------------------
# built-in function library


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
    h = blake2b(f"{seed}:{p}".encode(), digest_size=8).digest()
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
    """f(n) as the oracle product over the factorization of n (`arith.factorize`).

    The factors are multiplied in largest prime first, as in the support walk.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    _check_query(n)
    factors = factorize(n)
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
