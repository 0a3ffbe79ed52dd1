"""Small-argument integer arithmetic: factorization, phi, mu, divisors.

Everything here is trial-division based with memoization; it is meant for
moduli and conductors (a few thousand at most), not for sieve-scale n.
`multfn.evaluate` factors any n <= X_MAX_CAP here too, so `factorize`
keeps only its last 4096 results: a library loop over many n holds a
bounded cache.  A command asks for the moduli up to its Q (and their
p - 1) and the l of the transfer identity, which at the benchmark's
sizes stay cached; a key evicted past 4096 is factored again, to the
same result.
The array helpers at the end are the one expression for residues of an
integer array and for the units mod q, and the one chunking of a pass
over a support.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np


# the bound multfn.random_unit_circle keeps too: evaluate at n = 1..50,000
# left 16.0 MB of factorizations cached with no bound, 2.4 MB with it
@lru_cache(maxsize=1 << 12)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


@lru_cache(maxsize=None)
def moebius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def modinv(a: int, q: int) -> int:
    """Inverse of a mod q; raises DomainError when gcd(a, q) > 1."""
    from .errors import DomainError

    a %= q
    if q == 1:
        return 0
    if gcd(a, q) != 1:
        raise DomainError(f"{a} is not invertible mod {q}")
    return pow(a, -1, q)


def radical_multiples(primes: tuple[int, ...], bound: int) -> list[int]:
    """All integers <= bound whose prime factors all lie in `primes`, ascending.

    Includes 1; the empty prime set yields [1].
    """
    vals = [1]
    for p in primes:
        grown = []
        for v in vals:
            w = v * p
            while w <= bound:
                grown.append(w)
                w *= p
        vals.extend(grown)
    return sorted(vals)


def residues(n: np.ndarray, q: int) -> np.ndarray:
    """n mod q elementwise, as n - n // q * q (same dtype, equal to n % q).

    numpy vectorises a floor divide by a scalar but not the remainder: with
    numpy 2.4 this form takes about 0.6 of the time of `n % q` on int64 and
    0.35 on int32.  The product and the difference are taken in place, so
    the one array allocated is the result, as with `n % q`.
    """
    r = n // q
    r *= q
    np.subtract(n, r, out=r)
    return r


def unit_mask(q: int) -> np.ndarray:
    """Boolean mask over the residues 0..q-1 of the units mod q ([True] at q = 1).

    Clears the multiples of each prime of q, with no gcd per residue.
    """
    mask = np.ones(q, dtype=bool)
    for p, _ in factorize(q):
        mask[::p] = False
    return mask


# positions per chunk of every per-modulus pass over a support: each pass
# walks the support in ascending slices of this length, so its buffers
# are chunk-length, not support-length
CHUNK = 1 << 15


def chunks(n: int) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of the ascending CHUNK-long slices of range(n)."""
    step = CHUNK  # read at call time, so tests can vary it
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]
