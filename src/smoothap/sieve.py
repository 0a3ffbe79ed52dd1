"""Smooth numbers: Psi(x,y) counts and the y-smooth integers.

The y-smooth n <= x (every prime factor <= y) are generated directly from
the primes p <= y (`smooth_pieces`), in O(Psi(x,y)) work and memory for
y <= sqrt(x).  Every query here reads that walk: `psi`, the coprime and
progression counts (a gcd or a residue per walked number), and
`smooth_ascending`, the walk (and the values of a multiplicative f on it)
as ascending arrays.  Their order comes from a bitmap over 0..x and an
int32 rank per 64-bit word, not from a sort: each walked n is written at
its rank.  `smooth_numbers` is the y-smooth set of the large-sieve
experiments, a `SmoothSet` that carries its (x, y) (a count Psi(t,y) is a
searchsorted on it), and the support of a multiplicative function
(`multfn.get_support`) is the walk with values.  Every query checks its
x against X_MAX_CAP first (`_check_query`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import residues
from .errors import DomainError, OracleError, SizingError

# The cap bounds the one dense array over 0..x left, multfn.values_array
# (16 bytes per integer, 800 MB at the cap), which verify-identities builds
# for its Dirichlet-inverse check; every other query is sized by Psi(x,y).
# _check_query raises it for every query, before anything is allocated.
X_MAX_CAP = 50_000_000

# points per chunk of the batched large-prime step and of the bit setter, to
# bound their temporaries (about 20 bytes a point each)
_BATCH = 1 << 14

# points placed at their ranks at once: at least this many, and at least
# 1/32 of the walk, so a large build places about 32 times.  The placement's
# temporaries take about 40 bytes a point, about 1.3 bytes per walked point.
_PLACE_BATCH = 1 << 9

# up to this x the pieces of one walk are joined (at most 20 bytes a point,
# 1.3 MB) instead of walking twice: verify-identities builds dozens of
# supports at x <= 5000, where the second walk would cost more than the build
_ONE_WALK_X = 1 << 16


def _prime_mask(limit: int) -> np.ndarray:
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return is_p


@dataclass(frozen=True, eq=False)
class SmoothSet:
    """The y-smooth n <= x as a read-only ascending int32 array, with its (x, y).

    Built by `smooth_numbers`; Psi(t, y) for t <= x is the count of ns <= t.
    """

    x: int
    y: int
    ns: np.ndarray


def smooth_pieces(x: int, y: int, fpk=None, values: bool = True):
    """The n in 1..x with every prime factor <= y, generated from those primes.

    Yields disjoint pieces (ns, vs): int32 positions (x <= X_MAX_CAP < 2^31)
    in no particular order that together hold each such n exactly once.
    Without fpk, vs is None.  With a prime-power oracle fpk(p, k) = f(p^k),
    the n with a factor p^k || n where f(p^k) = 0 are left out (every
    f(p^k) with p <= y, p^k <= x is still asked for), and vs holds f(n) for
    the multiplicative f it defines; with values=False it is None, and the
    walk carries no values.

    The primes p <= sqrt(x) are walked in ascending order.  The walk keeps an
    active set, the n <= x/p that can still take the factor p; an n above
    x/p can take no prime >= p and leaves as a piece.  Each step adds p^k * s
    for the active s <= x/p^k, valued np.multiply(f(p^k), f(s)) with the
    largest prime's power first (complex multiply is not bitwise commutative
    under FMA).  The primes above sqrt(x) take every cofactor s <= x/p < p,
    all of them active, in one batched step.
    """
    x = max(x, 0)
    primes = np.flatnonzero(_prime_mask(max(min(x, y), 0)))
    walked = primes[: np.searchsorted(primes, math.isqrt(x), side="right")]
    ns = np.ones(min(x, 1), dtype=np.int32)
    vs = np.ones(ns.size, dtype=np.complex128) if fpk is not None and values else None
    # a generator keeps its locals alive across each yield, so every
    # temporary is dropped before the next piece leaves
    for p in walked.tolist():
        keep = ns <= x // p
        if not keep.all():
            done = ~keep
            piece = ns[done], (None if vs is None else vs[done])
            ns = ns[keep]
            vs = None if vs is None else vs[keep]
            del keep, done
            yield piece
            del piece
        grown_n, grown_v = [ns], [vs]
        s_n, s_v = ns, vs
        pk, k = p, 1
        while pk <= x:
            sel = s_n <= x // pk
            s_n = s_n[sel]
            s_v = None if vs is None else s_v[sel]
            fv = 1.0 if fpk is None else complex(fpk(p, k))
            if fv != 0:
                grown_n.append(s_n * pk)
                if vs is not None:
                    grown_v.append(np.multiply(np.full(s_n.size, fv), s_v))
            pk *= p
            k += 1
        ns = np.concatenate(grown_n)
        vs = None if vs is None else np.concatenate(grown_v)
        del grown_n, grown_v, s_n, s_v, sel
    big = primes[walked.size :]
    if big.size:
        yield from _large_prime_pieces(x, big, ns, vs, fpk)
    yield ns, vs


def _large_prime_pieces(x, big, ns, vs, fpk):
    """p * s for every prime p in `big` (each > sqrt x) and active s <= x/p.

    With fpk, only the p and s where f does not vanish, valued f(p) f(s)
    unless vs is None.
    """
    pos = None
    if fpk is not None:
        fp = np.array([complex(fpk(p, 1)) for p in big.tolist()], dtype=np.complex128)
        big, fp = big[fp != 0], fp[fp != 0]
        # where each s <= x/min(big) sits in the active set, -1 where f(s) = 0
        m = x // int(big[0]) if big.size else 0
        low = np.flatnonzero(ns <= m)
        pos = np.full(m + 1, -1, dtype=np.int64)
        pos[ns[low]] = low
    counts = x // big
    cum = np.cumsum(counts)
    lo = 0
    while lo < big.size:
        hi = int(np.searchsorted(cum, cum[lo] - counts[lo] + _BATCH, side="right"))
        hi = max(hi, lo + 1)
        c = counts[lo:hi]
        s = np.arange(1, int(c.sum()) + 1, dtype=np.int32)
        s -= np.repeat(np.cumsum(c) - c, c)
        # int32 per batch: a copy of all of big would sit next to primes
        ps = np.repeat(big[lo:hi].astype(np.int32), c)
        if pos is None:  # no value can vanish: every s <= x/p is active
            yield ps * s, None
        else:
            idx = pos[s]
            hit = np.flatnonzero(idx >= 0)
            yield (ps[hit] * s[hit], None if vs is None else
                   np.multiply(np.repeat(fp[lo:hi], c)[hit], vs[idx[hit]]))
        lo = hi


def psi(x: int, y: int) -> int:
    """Psi(x,y) = #{n <= x : P(n) <= y}, counting n = 1.

    Counts the pieces of the walk over the primes <= min(y, sqrt x) without
    keeping them; each prime p in (sqrt x, y] adds its floor(x/p) cofactors.
    """
    _check_query(x, y)
    r = math.isqrt(x)
    count = sum(ns.size for ns, _ in smooth_pieces(x, min(y, r)))
    big = np.flatnonzero(_prime_mask(min(x, y)))
    return count + int(np.sum(x // big[big > r]))


def psi_coprime(x: int, y: int, q: int) -> int:
    """Psi_q(x,y) = #{n <= x : P(n) <= y, gcd(n,q) = 1}."""
    _check_query(x, y)
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if q == 1:
        return psi(x, y)
    return sum(int(np.count_nonzero(np.gcd(ns, q) == 1))
               for ns, _ in smooth_pieces(x, y))


def psi_progression(x: int, y: int, a: int, q: int) -> int:
    """Psi(x,y;a,q) = #{n <= x : P(n) <= y, n = a mod q} (raw count, no gcd filter)."""
    _check_query(x, y)
    if q < 1 or not 0 <= a < q:
        raise DomainError(f"need q >= 1 and 0 <= a < q, got a={a}, q={q}")
    return sum(int(np.count_nonzero(residues(ns, q) == a))
               for ns, _ in smooth_pieces(x, y))


def smooth_numbers(x: int, y: int) -> SmoothSet:
    """The n <= x with P(n) <= y (n = 1 included) as a SmoothSet, read-only int32."""
    _check_query(x, y)
    ns = smooth_ascending(x, y)[0]
    ns.setflags(write=False)
    return SmoothSet(x, y, ns)


def smooth_ascending(x: int, y: int, fpk=None):
    """The walk of smooth_pieces(x, y, fpk) as ascending arrays (ns, vs).

    ns is int32; vs is the complex f(n) at each n, or None without fpk.
    The walked n set bit n & 63 of word n >> 6 of a bitmap over 0..x, and
    rank[w] counts the set bits in the words before w, so n goes to
    rank[n >> 6] + popcount(words[n >> 6] & ((1 << (n & 63)) - 1)) with its
    value: x/8 + x/16 bytes, and the walk is never sorted.  Up to
    _ONE_WALK_X the pieces of one walk are joined and placed.  Past it the
    walk runs twice: the first carries no values and sets the bitmap, the
    second is placed piece by piece, so no stage holds a second copy of the
    values.  A second walk that yields an n the first did not, or another
    number of points, raises OracleError (fpk was not deterministic).
    """
    x = max(x, 0)
    words = np.zeros(x // 64 + 1, dtype=np.uint64)
    if x <= _ONE_WALK_X:
        parts_n, parts_v = zip(*smooth_pieces(x, y, fpk))
        pieces = [(np.concatenate(parts_n), None if fpk is None else np.concatenate(parts_v))]
        del parts_n, parts_v
        _set_bits(words, pieces[0][0])
    else:
        for n, _ in smooth_pieces(x, y, fpk, values=False):
            _set_bits(words, n)
        pieces = smooth_pieces(x, y, fpk)
    rank = np.zeros(words.size, dtype=np.int32)
    np.cumsum(np.bitwise_count(words[:-1]), dtype=np.int32, out=rank[1:])
    total = int(rank[-1]) + int(np.bitwise_count(words[-1]))
    ns = np.empty(total, dtype=np.int32)
    vs = None if fpk is None else np.empty(total, dtype=np.complex128)
    batch = max(_PLACE_BATCH, total >> 5)
    walked = 0
    for piece_n, piece_v in pieces:
        walked += piece_n.size
        for lo in range(0, piece_n.size, batch):
            n = piece_n[lo:lo + batch]
            w = n >> 6
            bit = np.left_shift(np.uint64(1), (n & 63).astype(np.uint64))
            # take and put gather and scatter faster than fancy indexing
            word = np.take(words, w)
            if not (word & bit).all():
                raise OracleError("the oracle gave another support on a second walk")
            bit -= np.uint64(1)
            bit &= word
            at = np.take(rank, w)
            at += np.bitwise_count(bit)
            np.put(ns, at, n)
            if vs is not None:
                np.put(vs, at, piece_v[lo:lo + batch])
    if walked != total:
        raise OracleError("the oracle gave another support on a second walk")
    return ns, vs


def _set_bits(words: np.ndarray, ns: np.ndarray):
    """Set bit n & 63 of words[n >> 6] for each n of ns, which are distinct.

    Distinct n set distinct bits, so adding each bit sets it: np.add.at is
    several times faster than np.bitwise_or.at.
    """
    for lo in range(0, ns.size, _BATCH):
        n = ns[lo:lo + _BATCH]
        np.add.at(words, n >> 6, np.left_shift(np.uint64(1), (n & 63).astype(np.uint64)))


def _check_query(x: int, y: int = 2):
    """Reject a query past the cap (SizingError) or outside its domain, before
    anything is allocated; y defaults to 2 for a query with no smoothness bound."""
    if x > X_MAX_CAP:
        raise SizingError(f"x must be <= {X_MAX_CAP}, got {x}")
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


def smooth_short_interval(x: int, y: int, T: float) -> int:
    """Count of y-smooth n in (x, x + floor(x/T)] = Psi(x + floor(x/T), y) - Psi(x, y)."""
    hi = x + math.floor(x / T)
    _check_query(hi, y)
    return psi(hi, y) - psi(x, y)


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
