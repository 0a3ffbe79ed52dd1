"""Smooth-number sieve: largest-prime-factor tables and Psi(x,y) counting.

The central object is a table of P(n), the largest prime factor of each
n <= x_max; n is y-smooth exactly when P(n) <= y.  All Psi-style counts
(plain, coprime-restricted, in a progression) are read-only queries on
that table, so one build serves every experiment at or below its cap.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import residues, unit_mask
from .errors import DomainError, RangeError, SizingError

# One int32 word per integer; 5e7 keeps the table + masks comfortably in RAM.
X_MAX_CAP = 50_000_000


def _prime_mask(limit: int) -> np.ndarray:
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return is_p


class SieveTable:
    """Largest-prime-factor table for 1..x_max.

    lpf[n] is the largest prime factor of n, with lpf[1] = 1 and lpf[0] = 0.
    Immutable after construction; queries never write, so a table may be
    shared freely across threads.
    """

    def __init__(self, x_max: int, lpf: np.ndarray, primes: np.ndarray):
        self.x_max = x_max
        self.lpf = lpf
        self.primes = primes
        self._support = None  # (f, x, ns, vs) of the last multfn.get_support build
        lpf.setflags(write=False)
        primes.setflags(write=False)

    def smooth_mask(self, x: int, y: int) -> np.ndarray:
        """Boolean mask over 0..x, True where n >= 1 is y-smooth."""
        if x > self.x_max:
            raise RangeError(f"x={x} exceeds table x_max={self.x_max}")
        mask = self.lpf[: x + 1] <= y
        mask[0] = False
        return mask


def build_sieve(x_max: int) -> SieveTable:
    """Sieve largest prime factors for all n <= x_max.

    Rejects x_max = 0 and anything past X_MAX_CAP with a sizing error.
    """
    if x_max < 1 or x_max > X_MAX_CAP:
        raise SizingError(
            f"x_max must be in [1, {X_MAX_CAP}], got {x_max}"
        )
    lpf = np.zeros(x_max + 1, dtype=np.int32)
    lpf[1] = 1
    if x_max >= 2:
        primes = np.nonzero(_prime_mask(x_max))[0].astype(np.int64)
        # ascending p, so the final value at n is its largest prime factor
        for p in primes:
            lpf[p::p] = p
    else:
        primes = np.zeros(0, dtype=np.int64)
    return SieveTable(x_max, lpf, primes)


def psi(table: SieveTable, x: int, y: int) -> int:
    """Psi(x,y) = #{n <= x : P(n) <= y}, counting n = 1."""
    _check_query(table, x, y)
    return int(np.count_nonzero(table.lpf[1 : x + 1] <= y))


def psi_coprime(table: SieveTable, x: int, y: int, q: int) -> int:
    """Psi_q(x,y) = #{n <= x : P(n) <= y, gcd(n,q) = 1}."""
    _check_query(table, x, y)
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if q == 1:
        return psi(table, x, y)
    mask = table.smooth_mask(x, y) & unit_mask(q)[residues(np.arange(x + 1), q)]
    return int(np.count_nonzero(mask))


def psi_progression(table: SieveTable, x: int, y: int, a: int, q: int) -> int:
    """Psi(x,y;a,q) = #{n <= x : P(n) <= y, n = a mod q} (raw count, no gcd filter)."""
    _check_query(table, x, y)
    if q < 1 or not 0 <= a < q:
        raise DomainError(f"need q >= 1 and 0 <= a < q, got a={a}, q={q}")
    start = a if a >= 1 else q
    if start > x:
        return 0
    return int(np.count_nonzero(table.lpf[start : x + 1 : q] <= y))


def psi_prefix(table: SieveTable, x: int, y: int) -> np.ndarray:
    """Array P with P[t] = Psi(t,y) for 0 <= t <= x (one pass, for grid scans)."""
    return np.cumsum(table.smooth_mask(x, y).astype(np.int64))


def _check_query(table: SieveTable, x: int, y: int):
    if x > table.x_max:
        raise RangeError(f"x={x} exceeds table x_max={table.x_max}")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if y < 2:
        raise DomainError(f"smoothness bound must be >= 2, got {y}")


@lru_cache(maxsize=64)
def primes_upto(y: int) -> tuple:
    return tuple(int(p) for p in np.nonzero(_prime_mask(y))[0])


def alpha_saddle(x: int, y: int) -> float:
    """Saddle-point exponent: the alpha > 0 with sum_{p<=y} log p/(p^alpha - 1) = log x.

    Solved by bisection on [1e-6, 4]; the bracket covers every x >= 2, y >= 2
    at desk scale.  Governs the decay Psi(x/l, y) ~ Psi(x,y) / l^alpha.
    """
    if y < 2:
        raise DomainError(f"need y >= 2 for a nonempty prime sum, got y={y}")
    if x < y:
        raise DomainError(f"need 2 <= y <= x, got x={x}, y={y}")
    ps = np.array(primes_upto(y), dtype=np.float64)
    logs = np.log(ps)
    target = math.log(x)

    def h(alpha: float) -> float:
        return float(np.sum(logs / (np.power(ps, alpha) - 1.0))) - target

    lo, hi = 1e-6, 4.0
    if h(lo) < 0 or h(hi) > 0:
        raise DomainError(f"saddle equation not bracketed for x={x}, y={y}")
    # bisect well past the 1e-9 contract so the residual stays < 1e-6
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def smooth_short_interval(table: SieveTable, x: int, y: int, T: float) -> int:
    """Count of y-smooth n in (x, x + floor(x/T)] = Psi(x + floor(x/T), y) - Psi(x, y)."""
    hi = x + math.floor(x / T)
    if hi > table.x_max:
        raise RangeError(
            f"x + x/T = {hi} exceeds table x_max={table.x_max}"
        )
    return psi(table, hi, y) - psi(table, x, y)


def dyadic_partition(x: int, T: float, eps: float) -> list[int]:
    """Geometric grid ceil(x^(1/4)) = X_0 < ... < X_J = x with steps ~ eps*X_j/T.

    Steps are floor(eps*X_j/T) clamped below at 1 (integer grids cannot step
    finer), and a final step shorter than half its target is merged into its
    predecessor.  Rejects parameter combinations producing more than 1e7
    points.
    """
    if x < 16:
        raise DomainError(f"need x >= 16, got {x}")
    if T < 1 or not 0 < eps <= 1:
        raise DomainError(f"need T >= 1 and 0 < eps <= 1, got T={T}, eps={eps}")
    # smallest integer with x0^4 >= x, i.e. ceil(x^(1/4)) computed exactly
    x0 = int(x**0.25)
    while x0**4 < x:
        x0 += 1
    while x0 > 1 and (x0 - 1) ** 4 >= x:
        x0 -= 1
    # a-priori point-count estimate: unit steps up to ~T/eps, geometric after
    unit_hi = min(x, math.ceil(T / eps))
    est = max(0, unit_hi - x0) + (T / eps) * math.log(max(x / max(x0, unit_hi), 1.0)) + 2
    if est > 1.1e7:
        raise SizingError(
            f"dyadic partition of [{x0}, {x}] at T={T}, eps={eps} needs ~{est:.2g} points"
        )
    points = [x0]
    while points[-1] < x:
        cur = points[-1]
        step = max(1, int(eps * cur / T))
        nxt = min(cur + step, x)
        if nxt == x and x - cur < 0.5 * eps * cur / T and len(points) > 1:
            points[-1] = x  # merge the short final step into its predecessor
        else:
            points.append(nxt)
        if len(points) > 10_000_000:
            raise SizingError(
                f"dyadic partition of [{x0}, {x}] at T={T}, eps={eps} exceeds 1e7 points"
            )
    return points
