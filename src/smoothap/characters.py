"""Exact Dirichlet character arithmetic.

A character mod q is stored as an exponent vector on a fixed set of
standard generators of (Z/qZ)*: each odd prime-power factor p^e
contributes its cyclic group with the least primitive root as generator,
and a factor 2^e contributes nothing (e = 1), the order-2 group <-1>
(e = 2), or the pair <-1> x <5> (e >= 3).  Every value is the exact root
of unity e^{2 pi i k/M}, read as the integer exponent k mod M (M = the
exponent of the group) from the discrete logs of n: one residue in Python
ints, an array of residues for several characters of one group at once
(`exponent_rows`, an integer matmul over the components).  No command
builds an induced character: a sum against the character mod q induced by
psi reads psi's own table at the units of q.  Complex floats appear only
in `cvalue()` and `complex_tables()`, the one table builder, which caches
nothing: a caller that reads tables again holds the dict
`character_tables` returns.  Values as exact fractions, the principal
test, conjugation, induction, decomposition, products and exact
root-of-unity sums are the test suite's references (tests/oracles.py).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import chunks, factorize, residues, unit_mask
from .errors import DomainError, SizingError

MODULUS_CAP = 1_000_000  # dlog tables are O(q); raise deliberately if needed

# bytes of the complex tables of every member of family_A(D), 16 per residue,
# that family_A accepts: `--xi A:D` and verify-identities hold them all for the
# run (large-sieve and exceptional one modulus' at a time, yet are capped
# alike); the sum grows about as D^3 (D = 514 is the largest under the cap)
FAMILY_TABLE_CAP = 1 << 28


@dataclass
class _Component:
    """One cyclic factor of (Z/qZ)*: generator, order, discrete logs.

    (p, slot) names the factor whatever the power of p: slot 0 is the cyclic
    group of an odd p or <-1> on the 2-part, slot 1 is <5>.  The generator
    of a slot mod p^e reduces mod p^f (f <= e) to the generator of the same
    slot mod p^f, which is what induction by rescaled exponents relies on.
    """

    p: int
    pe: int
    order: int
    gen: int  # generator residue mod pe
    dlog: np.ndarray  # residue mod pe -> exponent of gen, -1 off units
    slot: int = 0


def _least_primitive_root(p: int, e: int) -> int:
    """Smallest primitive root mod p^e for odd p."""
    fac = [r for r, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // r, p) != 1 for r in fac):
            break
        g += 1
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _power_blocks(g: int, n: int, m: int):
    """(lo, g^lo, ..., g^(hi-1) mod m) for the CHUNK-long blocks [lo, hi) of range(n).

    The powers are int64.  The first block is filled by doubling, and each
    later block is the one before times g^CHUNK mod m; m <= MODULUS_CAP, so
    every product stays below 10^12.
    """
    for lo, hi in chunks(n):
        if lo == 0:
            block = np.ones(1, dtype=np.int64)
            while block.size < hi:
                block = np.concatenate([block, block * pow(g, block.size, m) % m])
            block = block[:hi]
            step = pow(g, hi, m)
        else:
            block = block[:hi - lo] * step % m
        yield lo, block


class UnitGroup:
    """Cached structure of (Z/qZ)*: components, discrete logs, unit mask."""

    _cache: dict[int, "UnitGroup"] = {}

    def __init__(self, q: int):
        self.q = q
        self.components: list[_Component] = []
        for p, e in factorize(q):
            self.components.extend(self._local(p, e))
        self.M = math.lcm(*(c.order for c in self.components)) if self.components else 1
        self.unit_mask = unit_mask(q)
        self.unit_mask.setflags(write=False)

    @staticmethod
    def _local(p: int, e: int) -> list[_Component]:
        pe = p**e
        if pe == 2:
            return []
        if pe % 8 == 0:  # 2^e, e >= 3: <-1> x <5>
            half = pe // 4
            d_sign = np.full(pe, -1, dtype=np.int64)
            d_five = np.full(pe, -1, dtype=np.int64)
            for lo, v in _power_blocks(5, half, pe):
                b = np.arange(lo, lo + v.size)
                d_sign[v], d_five[v] = 0, b
                d_sign[pe - v], d_five[pe - v] = 1, b
            return [
                _Component(2, pe, 2, pe - 1, d_sign),
                _Component(2, pe, half, 5, d_five, slot=1),
            ]
        # cyclic: an odd p^e, or 4 with generator 3 = -1
        s = pe - pe // p
        g = 3 if p == 2 else _least_primitive_root(p, e)
        dlog = np.full(pe, -1, dtype=np.int64)
        for lo, v in _power_blocks(g, s, pe):
            dlog[v] = np.arange(lo, lo + v.size)
        return [_Component(p, pe, s, g, dlog)]

    @classmethod
    def get(cls, q: int) -> "UnitGroup":
        if q < 1:
            raise DomainError(f"modulus must be >= 1, got {q}")
        if q > MODULUS_CAP:
            raise DomainError(f"modulus {q} exceeds the cap {MODULUS_CAP}")
        grp = cls._cache.get(q)
        if grp is None:
            grp = cls._cache[q] = UnitGroup(q)
        return grp


class DirichletCharacter:
    """A Dirichlet character mod q as an exponent vector on standard generators.

    Identity is by value table: two characters compare equal iff they share
    a modulus and exponent vector on the canonical generators.
    """

    __slots__ = ("group", "exps", "_conductor")

    def __init__(self, group: UnitGroup, exps: tuple[int, ...]):
        if len(exps) != len(group.components):
            raise ValueError("exponent vector does not match group structure")
        self.group = group
        self.exps = tuple(c % comp.order for c, comp in zip(exps, group.components))
        self._conductor = None

    @property
    def q(self) -> int:
        return self.group.q

    @property
    def order(self) -> int:
        if not self.exps:
            return 1
        return math.lcm(
            *(comp.order // math.gcd(c, comp.order) if c else 1
              for c, comp in zip(self.exps, self.group.components))
        )

    @property
    def rank(self) -> int:
        """Position in the deterministic enumeration (mixed-radix exponent rank)."""
        r = 0
        for c, comp in zip(self.exps, self.group.components):
            r = r * comp.order + c
        return r

    def _exponent(self, n: int) -> int:
        """k with chi(n) = e^{2 pi i k/M} (M = group.M, 0 <= k < M), -1 off the units.

        n is one residue mod q.  It is summed in Python ints, which costs
        less than numpy scalars, and allocates nothing of length q; arrays
        of residues are read by `exponent_rows`.
        """
        g = self.group
        if not g.unit_mask.item(n):
            return -1
        k = 0
        for c, comp in zip(self.exps, g.components):
            if c:
                k += comp.dlog.item(n % comp.pe) * c * (g.M // comp.order)
        return k % g.M

    def cvalue(self, n: int) -> complex:
        k = self._exponent(int(n) % self.q)
        return 0j if k < 0 else complex(np.exp(2j * np.pi * (k / self.group.M)))

    @property
    def conductor(self) -> int:
        """Smallest r | q whose induced structure carries chi (local formula)."""
        if self._conductor is None:
            cond = 1
            twos = [(comp, c) for comp, c in zip(self.group.components, self.exps)
                    if comp.p == 2]
            if len(twos) == 1:
                if twos[0][1] % 2:
                    cond *= 4
            elif len(twos) == 2:
                (_, c_sign), (comp5, c5) = twos
                if c5 % comp5.order:
                    cond *= 4 * (comp5.order // math.gcd(c5, comp5.order))
                elif c_sign % 2:
                    cond *= 4
            for comp, c in zip(self.group.components, self.exps):
                if comp.p == 2 or c % comp.order == 0:
                    continue
                m = comp.order // math.gcd(c, comp.order)
                t = 0
                while m % comp.p == 0:
                    m //= comp.p
                    t += 1
                cond *= comp.p ** (t + 1)
            self._conductor = cond
        return self._conductor

    @property
    def primitive(self) -> bool:
        return self.conductor == self.q

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.q == other.q
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.q, self.exps))

    def __repr__(self):
        return f"DirichletCharacter(q={self.q}, exps={self.exps})"

    def to_record(self) -> dict:
        """Serializable form: modulus, conductor, and the k/m value list."""
        o = self.order  # every exponent is a multiple of M/o, and -1 reads the "0"
        steps = exponent_rows([self], np.arange(self.q))[0]
        steps //= self.group.M // o  # in place: -1 stays -1
        return {"q": self.q, "conductor": self.conductor,
                "values": _value_names(o)[steps].tolist()}


@functools.lru_cache(maxsize=None)
def _value_names(o: int) -> np.ndarray:
    """The names "j/o" (reduced) of e^{2 pi i j/o} for j < o, then "0" at -1."""
    names = np.array([f"{j // math.gcd(j, o)}/{o // math.gcd(j, o)}" for j in range(o)]
                     + ["0"], dtype=object)
    names.setflags(write=False)
    return names


def exponent_rows(chars: list[DirichletCharacter], n: np.ndarray) -> np.ndarray:
    """k[i, j] with chars[i](n[j]) = e^{2 pi i k/M}, 0 <= k < M, -1 off the units.

    chars share one unit group (M = group.M) and n is an int array of
    residues mod q.  Row i is sum_c exps_i[c] * (M/ord_c) * dlog_c[n mod p_c^e_c]
    mod M: the integer matmul of the characters' weights by the components'
    discrete logs, summed one component (one outer product) at a time, so
    that besides k it holds one int64 array of n's length and one of k's
    shape, not a (components x n) one.
    """
    g = chars[0].group
    k = np.zeros((len(chars), len(n)), dtype=np.int64)
    if g.components:
        weights = np.array([[c * (g.M // comp.order) for c, comp in zip(chi.exps, g.components)]
                            for chi in chars], dtype=np.int64)
        for w, comp in zip(weights.T, g.components):
            k += np.multiply.outer(w, comp.dlog[residues(n, comp.pe)])
        k %= g.M
    k += 1
    k *= g.unit_mask[n]
    k -= 1  # -1 off the units
    return k


def complex_tables(chars: list[DirichletCharacter]) -> np.ndarray:
    """The complex tables of chars, which share one modulus q, as the rows of
    a fresh writable (characters x q) array: one `exponent_rows` call, then a
    gather of the M roots e^{2 pi i k/M}, each taken once.  Nothing is cached."""
    M = chars[0].group.M
    roots = np.zeros(M + 1, dtype=np.complex128)  # roots[-1] = 0, read off the units
    roots[:M] = np.exp(2j * np.pi * (np.arange(M) / M))
    return roots[exponent_rows(chars, np.arange(chars[0].q))]


def by_modulus(chars: list[DirichletCharacter]) -> list[list[DirichletCharacter]]:
    """The runs of equal modulus in chars (one run per modulus in family order)."""
    return [list(run) for _, run in itertools.groupby(chars, key=lambda chi: chi.q)]


def character_tables(chars: list[DirichletCharacter]) -> dict[DirichletCharacter, np.ndarray]:
    """The complex table of each character of chars, for a caller that reads a table
    again: the read-only rows of one `complex_tables` call per run of equal modulus."""
    tables = {}
    for run in by_modulus(chars):
        tabs = complex_tables(run)
        tabs.setflags(write=False)
        tables.update(zip(run, tabs))
    return tables


def character_of_rank(q: int, rank: int) -> DirichletCharacter:
    """`enumerate_characters(q)[rank]` alone: its exponents are the mixed-radix
    digits of rank, which `DirichletCharacter.rank` reads back."""
    group = UnitGroup.get(q)
    orders = [comp.order for comp in group.components]
    if not 0 <= rank < math.prod(orders):
        raise DomainError(f"the characters mod {q} have ranks 0..{math.prod(orders) - 1}, "
                          f"got {rank}")
    return DirichletCharacter(group, tuple(map(int, np.unravel_index(rank, orders))))


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, lexicographic in exponent vectors."""
    group = UnitGroup.get(q)
    orders = [c.order for c in group.components]
    return [
        DirichletCharacter(group, exps)
        for exps in itertools.product(*(range(s) for s in orders))
    ]


def principal_character(q: int) -> DirichletCharacter:
    group = UnitGroup.get(q)
    return DirichletCharacter(group, tuple(0 for _ in group.components))


def trivial_character() -> DirichletCharacter:
    """The character of modulus 1 (identically 1)."""
    return principal_character(1)


@dataclass
class CharacterFamily:
    """All primitive characters of conductor <= D, the trivial one included."""

    D: int
    members: list[DirichletCharacter] = field(default_factory=list)

    @functools.cached_property
    def tables(self) -> dict[DirichletCharacter, np.ndarray]:
        """`character_tables` of every member, built on first read and kept."""
        return character_tables(self.members)

    def up_to(self, bound: int) -> list[DirichletCharacter]:
        return [chi for chi in self.members if chi.q <= bound]


def _primitive_count(r: int) -> int:
    """The number of primitive characters mod r: multiplicative, p - 2 at a
    prime p and p^(k-2) (p-1)^2 at p^k for k >= 2."""
    return math.prod(p - 2 if k == 1 else p ** (k - 2) * (p - 1) ** 2
                     for p, k in factorize(r))


def family_A(D: int) -> CharacterFamily:
    """Primitive characters of conductor <= D, ordered by conductor then rank."""
    if D < 1:
        raise DomainError(f"need D >= 1, got {D}")
    tables = itertools.accumulate(16 * r * _primitive_count(r) for r in range(1, D + 1))
    if any(t > FAMILY_TABLE_CAP for t in tables):  # stops at the cap, even for a huge D
        raise SizingError(f"the primitive characters of conductor <= {D} have more "
                          f"than {FAMILY_TABLE_CAP} bytes of tables, the cap for a "
                          f"command that keeps every table of the family")
    members = []
    for r in range(1, D + 1):
        if r % 4 == 2:
            continue  # no primitive characters for moduli = 2 mod 4
        for chi in enumerate_characters(r):
            if chi.primitive:
                members.append(chi)
    return CharacterFamily(D, members)
