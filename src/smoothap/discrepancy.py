"""Progression discrepancies, the conductor-truncated kernel, and averages.

For a multiplicative f and gcd(a, q) = 1,

    Delta(f,x;q,a) = sum_{n<=x, n=a(q)} f(n) - (1/phi(q)) sum_{n<=x,(n,q)=1} f(n)

and Delta_Xi replaces the coprime main term by the character main terms
(1/phi(q)) sum_{chi in Xi_q} chi(a) S_f(x,chi) over the characters mod q
induced by a set Xi of primitive characters.  Delta_A is the special case
Xi = all primitive characters of conductor <= D, computable directly
through the kernel

    u_D(n; q) = [n=1 mod q] - (1/phi(q)) sum_{chi mod q, cond(chi)<=D} chi(n),

which also has an exact rational divisor-sum form (Moebius route).  Both
routes are implemented and cross-checked.

All complex sums reduce residue-wise first (np.add.at in ascending n, a
fixed order), then combine over at most q terms with numpy's pairwise
sum, so serial and threaded runs agree byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import (divisors, euler_phi, factorize, moebius, modinv, radical_multiples,
                    residues, unit_mask)
from .characters import CharacterFamily, DirichletCharacter
from .errors import DomainError
from .multfn import MultFnSpec, dirichlet_inverse, evaluate, get_support
from .util import ordered_map


@dataclass
class DiscrepancyRecord:
    """One (q, residue) cell: Delta and friends with their components."""

    q: int
    a1: int
    a2: int
    delta: complex
    delta_xi: complex | None = None
    delta_a: complex | None = None
    progression_sum: complex = 0j
    coprime_main: complex = 0j
    xi_main: complex = 0j

    def primary(self) -> complex:
        """The discrepancy this record was computed for (Delta_Xi when present)."""
        if self.delta_xi is not None:
            return self.delta_xi
        return self.delta


@dataclass
class ExceptionalWitness:
    character: DirichletCharacter
    X: int | None = None
    value: float | None = None
    threshold: float | None = None


@dataclass
class ExceptionalSet:
    """A set Xi of primitive characters, optionally with detection witnesses."""

    members: list[ExceptionalWitness] = field(default_factory=list)
    near_misses: list[ExceptionalWitness] = field(default_factory=list)

    @classmethod
    def from_characters(cls, chars) -> "ExceptionalSet":
        ms = []
        for chi in chars:
            if not chi.primitive:
                raise DomainError(f"Xi members must be primitive; got modulus {chi.q}")
            ms.append(ExceptionalWitness(chi))
        return cls(ms)

    @property
    def characters(self) -> list[DirichletCharacter]:
        return [w.character for w in self.members]

    def members_dividing(self, q: int) -> list[DirichletCharacter]:
        """The primitive members whose conductor divides q (they induce Xi_q)."""
        return [w.character for w in self.members if q % w.character.q == 0]

    @property
    def beta(self) -> Fraction:
        """sum of 1/conductor over members, exact."""
        return sum((Fraction(1, chi.q) for chi in self.characters), Fraction(0))

    @property
    def weighted_count(self) -> float:
        """sum of conductor^{-1/2} over members, added in member order."""
        weighted = 0.0
        for chi in self.characters:
            weighted += 1.0 / math.sqrt(chi.q)
        return weighted


# ---------------------------------------------------------------------------
# residue-wise summation helpers


def residue_sums(ns: np.ndarray, vs: np.ndarray, q: int) -> np.ndarray:
    """sum of vs[i] over the i with ns[i] = r (mod q), as a length-q complex vector.

    One floor divide and one unbuffered np.add.at in the given (ascending)
    order, so each bin is the same sequential sum, real and imaginary parts
    apart, whatever the dtype of ns and whether vs is a strided view.
    """
    out = np.zeros(q, dtype=np.complex128)
    np.add.at(out, residues(ns, q), vs)
    return out


def character_sum(f: MultFnSpec, X: int, chi: DirichletCharacter) -> complex:
    """S_f(X, chi) = sum_{n<=X} f(n) * conj(chi(n))."""
    rs = residue_sums(*get_support(f, x=X), chi.q)
    return complex((np.conj(chi.complex_table()) * rs).sum())


def _sum_induced(rs_units: np.ndarray, units: np.ndarray, psi: DirichletCharacter) -> complex:
    """sum over the units u mod q of rs[u] * conj(psi(u)), given rs_units = rs[units].

    On the units of q the character induced by psi equals psi, and off them
    it vanishes, so this is the sum against conj of psi induced to q.
    """
    vals = np.conj(psi.complex_table()[residues(units, psi.q)])
    return complex((vals * rs_units).sum())


# ---------------------------------------------------------------------------
# the discrepancies


def discrepancy_record(f: MultFnSpec, x: int, q: int, a1: int, a2: int,
                       xi: ExceptionalSet | None = None,
                       D: int | None = None) -> DiscrepancyRecord:
    """Delta(f,x;q,a1*conj(a2)), plus Delta_Xi when xi is given and Delta_A when D is."""
    _check_cell(q, a1, a2)
    return _record(residue_sums(*get_support(f, x=x), q), q, a1, a2, xi, D)


def _check_cell(q: int, a1: int, a2: int):
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if math.gcd(a1 * a2, q) != 1:
        raise DomainError(f"need gcd(a1*a2, q) = 1, got a1={a1}, a2={a2}, q={q}")


def _record(rs: np.ndarray, q: int, a1: int, a2: int, xi: ExceptionalSet | None,
            D: int | None = None) -> DiscrepancyRecord:
    """The record at q from the residue sums rs of f mod q.

    Without D it reads rs only at the units mod q (b is one), so bv_average
    may leave the non-unit bins incomplete; Delta_A reads all q bins.
    """
    b = (a1 % q) * modinv(a2, q) % q if q > 1 else 0
    prog = complex(rs[b])
    units = np.flatnonzero(unit_mask(q))
    rs_units = rs[units]
    coprime = complex(rs_units.sum())
    phi = euler_phi(q)
    rec = DiscrepancyRecord(q=q, a1=a1, a2=a2, delta=prog - coprime / phi,
                            progression_sum=prog, coprime_main=coprime / phi)
    if xi is not None:
        xi_main = 0j
        for psi in xi.members_dividing(q):
            # b is a unit mod q, where the character induced by psi equals psi
            xi_main += psi.cvalue(b) * _sum_induced(rs_units, units, psi)
        rec.delta_xi = prog - xi_main / phi
        rec.xi_main = xi_main / phi
    if D is not None:
        c = modinv(a1, q) * (a2 % q) % q if q > 1 else 0  # kernel argument scale
        row = u_kernel_moebius_row(q, D)[residues(np.arange(q) * c, q)]
        rec.delta_a = complex((row * rs).sum())
    return rec


def delta(f: MultFnSpec, x: int, q: int, a: int) -> complex:
    """Delta(f,x;q,a): progression sum minus the coprime average."""
    return discrepancy_record(f, x, q, a, 1).delta


def delta_xi(f: MultFnSpec, x: int, q: int, a1: int, a2: int,
             xi: ExceptionalSet) -> complex:
    """Delta_Xi(f,x;q,a1*conj(a2)): main terms only from characters induced by Xi."""
    return discrepancy_record(f, x, q, a1, a2, xi=xi).delta_xi


def delta_A(f: MultFnSpec, x: int, q: int, a1: int, a2: int, D: int) -> complex:
    """Delta_A(f,x;q,a1*conj(a2)) = sum_{n<=x} f(n) u_D(n*conj(a1)*a2; q)."""
    return discrepancy_record(f, x, q, a1, a2, D=D).delta_a


# ---------------------------------------------------------------------------
# the conductor-truncated kernel, both exact forms


def _kernel_divisor_sum(g: int, q: int, D: int) -> int:
    """sum_{d<=D, d | g} phi(d) * sum_{b<=D/d, b | q/d} mu(b), g = gcd(q, n-1)."""
    total = 0
    for d in divisors(g):
        if d > D:
            continue
        inner = 0
        lim = D // d
        for b in divisors(q // d):
            if b <= lim:
                inner += moebius(b)
        total += euler_phi(d) * inner
    return total


def u_kernel_moebius(n: int, q: int, D: int) -> Fraction:
    """Divisor-sum form of the kernel, exact rational.

    0 when gcd(n,q) > 1; otherwise
    [n=1 mod q] - (1/phi(q)) * sum_{d<=D, d | (q, n-1)} phi(d) *
                               sum_{b<=D/d, b | q/d} mu(b).
    """
    if q < 1 or D < 1:
        raise DomainError(f"need q >= 1 and D >= 1, got q={q}, D={D}")
    n %= q
    if math.gcd(n, q) != 1:
        return Fraction(0)
    ind = 1 if n % q == 1 % q else 0
    phi = euler_phi(q)
    return Fraction(ind * phi - _kernel_divisor_sum(math.gcd(q, n - 1), q, D), phi)


def u_kernel_moebius_row(q: int, D: int) -> np.ndarray:
    """float(u_kernel_moebius(n, q, D)) at every residue n mod q at once.

    The value at a unit n depends only on g = gcd(q, n-1), and n = 1 (mod q)
    exactly when g = q, so the divisor sum and the Fraction are formed once
    per distinct g.
    """
    if q < 1 or D < 1:
        raise DomainError(f"need q >= 1 and D >= 1, got q={q}, D={D}")
    phi = euler_phi(q)
    units = np.flatnonzero(unit_mask(q))
    gs = np.gcd(units - 1, q)
    # a table over 0..q keyed by g: np.unique would sort, and numpy's first
    # sort of a process pages in about 0.4 MB of its sorting code
    by_gcd = np.zeros(q + 1)
    seen = np.zeros(q + 1, dtype=bool)
    seen[gs] = True
    for g in np.flatnonzero(seen).tolist():
        by_gcd[g] = float(Fraction((g == q) * phi - _kernel_divisor_sum(g, q, D), phi))
    row = np.zeros(q)
    row[units] = by_gcd[gs]
    return row


def u_kernel_chardef_row(q: int, D: int, family: CharacterFamily) -> np.ndarray:
    """Definition form: [n=1 mod q] - (1/phi(q)) sum_{chi mod q, cond<=D} chi(n).

    At every residue n mod q at once: one table gather per member and no
    induction, bitwise equal to the sum of the induced characters' values
    cell by cell.  The real and imaginary parts are divided by phi(q)
    separately, as Python's complex / int does: numpy's complex / float can
    differ in the last bit.
    """
    if family.D < min(D, q):
        raise DomainError(f"family only covers conductors <= {family.D}, need {min(D, q)}")
    n = np.arange(q)
    ind = np.zeros(q)
    ind[1 % q] = 1.0
    s = np.zeros(q, dtype=np.complex128)
    for psi in family.members:
        if psi.q <= D and q % psi.q == 0:
            s += psi.complex_table()[residues(n, psi.q)]
    s[~unit_mask(q)] = 0  # induced characters vanish off the units of q
    phi = euler_phi(q)
    out = np.empty(q, dtype=np.complex128)
    out.real = ind - s.real / phi
    out.imag = 0.0 - s.imag / phi  # float - complex subtracts from (ind, 0.0)
    return out


# ---------------------------------------------------------------------------
# averages over moduli


def bv_average(f: MultFnSpec, x: int, Q: int, a1: int, a2: int,
               xi: ExceptionalSet,
               threads: int = 1) -> tuple[float, list[DiscrepancyRecord]]:
    """sum_{q<=Q, gcd(q, a1*a2)=1} |Delta_Xi(f,x;q,a1*conj(a2))| plus the records.

    Work may fan out over q, but records and the total are always reduced
    in ascending q, so the result is independent of the schedule.
    """
    if not 1 <= Q <= x:  # Q < 1 would sum over no modulus
        raise DomainError(f"need 1 <= Q <= x, got Q={Q}, x={x}")
    qs = [q for q in range(1, Q + 1) if math.gcd(q, a1 * a2) == 1]
    # _record reads the residue sums only at the units mod q, and an n
    # with gcd(n, q) > 1 lands only in a non-unit bin.  So q passes only over
    # the part of the support prime to g = gcd(q, 6), about 0.55 Psi points
    # on average over q.  A part keeps ascending n, so every unit bin is the
    # same sequential sum as over the whole support.  The support itself is
    # the part for g = 1; each other part is built once and serves all its q
    # before the next one is built, so at most one copy is alive at a time.
    ns, vs = get_support(f, x=x)
    by_q = {}
    for g in sorted({math.gcd(q, 6) for q in qs}):
        if g == 1:
            part = (ns, vs)
        else:
            keep = unit_mask(g)[residues(ns, g)]
            part = (ns[keep], vs[keep])
            del keep
        qg = [q for q in qs if math.gcd(q, 6) == g]
        by_q.update(zip(qg, ordered_map(
            lambda q, part=part: _record(residue_sums(*part, q), q, a1, a2, xi),
            qg, threads)))
        del part
    records = [by_q[q] for q in qs]
    total = 0.0
    for rec in records:
        total += abs(rec.delta_xi)
    return total, records


# ---------------------------------------------------------------------------
# the transfer identity between Delta_Xi and Delta_A


@dataclass
class TransferCheck:
    lhs: complex
    rhs: complex

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def verify_transfer_identity(f: MultFnSpec, x: int, q: int, a1: int, a2: int,
                             xi: ExceptionalSet, D: int) -> TransferCheck:
    """Evaluate both sides of the exact identity relating Delta_Xi to Delta_A.

    lhs = Delta_Xi - Delta_A at (f, x; q, a1*conj(a2)).
    rhs = (1/phi(q)) * sum over l with prime factors dividing q of
          g(l) * sum_{d<=D, (d,l)=1, d|q} phi(d) * Delta_Xi(f, x/l; d, b*conj(l))
                 * sum_{m<=D/d, m|q/d} mu(m),
    with g the Dirichlet inverse of f.  The l-sum is finite: terms vanish
    once x/l < 1.  Every Delta_Xi(f, x/l; ...) reads the prefix n <= x/l of
    the one support of f up to x.
    """
    for chi in xi.characters:
        if chi.q > D:
            raise DomainError(
                f"Xi member of conductor {chi.q} lies outside A({D}); identity needs Xi in A(D)"
            )
    _check_cell(q, a1, a2)
    ns, vs = get_support(f, x=x)
    rec = _record(residue_sums(ns, vs, q), q, a1, a2, xi, D)
    lhs = rec.delta_xi - rec.delta_a

    g = dirichlet_inverse(f, x)
    b = (a1 % q) * modinv(a2, q) % q if q > 1 else 0
    qprimes = tuple(p for p, _ in factorize(q))
    ells = radical_multiples(qprimes, x)
    qdivs = [d for d in divisors(q) if d <= D]
    mu_sums = {d: sum(moebius(m) for m in divisors(q // d) if m <= D // d)
               for d in qdivs}

    rhs = 0j
    for ell in ells:
        gl = evaluate(g, ell)
        if gl == 0:
            continue
        # a needle of the positions' dtype: any other makes numpy copy ns to it
        hi = int(np.searchsorted(ns, ns.dtype.type(x // ell), side="right"))
        for d in qdivs:
            if math.gcd(d, ell) != 1 or mu_sums[d] == 0:
                continue
            a = (b % d) * modinv(ell, d) % d if d > 1 else 0
            dx = _record(residue_sums(ns[:hi], vs[:hi], d), d, a, 1, xi).delta_xi
            rhs += gl * euler_phi(d) * dx * mu_sums[d]
    rhs /= euler_phi(q)
    return TransferCheck(lhs, rhs)
