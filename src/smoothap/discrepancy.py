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
forms are computed a row (every residue mod q) at a time, and
verify-identities checks that they agree; their one-cell-at-a-time forms,
and the scalar Delta, Delta_Xi, Delta_A and S_f(x, chi), are the test
suite's references (tests/oracles.py).

Xi is a plain list of primitive characters: `bv_average` and
`verify_transfer_identity` take it, and `xi_tables` checks it and builds
the tables of the members that a call reads.  Every record comes from
`_record`: `discrepancy_record` gives Delta at one cell (the `delta`
command), `bv_average` Delta_Xi at every q, and `verify_transfer_identity`
Delta_Xi and Delta_A.

All complex sums reduce residue-wise first (np.add.at in ascending n, a
fixed order, one chunk of the support at a time), then combine over at
most q terms with numpy's pairwise sum, so serial and threaded runs agree
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (chunks, divisors, euler_phi, factorize, moebius, modinv,
                    radical_multiples, residues, unit_mask)
from .characters import CharacterFamily, DirichletCharacter, character_tables
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


# ---------------------------------------------------------------------------
# residue-wise summation helpers


def residue_sums(ns: np.ndarray, vs: np.ndarray, q: int) -> np.ndarray:
    """sum of vs[i] over the i with ns[i] = r (mod q), as a length-q complex vector.

    One floor divide and one unbuffered np.add.at per chunk (`chunks`), in
    the given (ascending) order, so each bin is the same sequential sum,
    real and imaginary parts apart, whatever the chunk length, the dtype of
    ns and whether vs is a strided view.  It holds one chunk of residues.
    """
    out = np.zeros(q, dtype=np.complex128)
    for lo, hi in chunks(ns.size):
        np.add.at(out, residues(ns[lo:hi], q), vs[lo:hi])
    return out


# ---------------------------------------------------------------------------
# the discrepancies


def discrepancy_record(f: MultFnSpec, x: int, q: int, a1: int, a2: int) -> DiscrepancyRecord:
    """Delta(f,x;q,a1*conj(a2)) from one residue-sum pass over the support of f."""
    _check_cell(q, a1, a2)
    return _record(residue_sums(*get_support(f, x=x), q), q, a1, a2, None)


def _check_cell(q: int, a1: int, a2: int):
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if math.gcd(a1 * a2, q) != 1:
        raise DomainError(f"need gcd(a1*a2, q) = 1, got a1={a1}, a2={a2}, q={q}")


def xi_tables(xi: list[DirichletCharacter], reads) -> dict[DirichletCharacter, np.ndarray]:
    """The tables (`character_tables`) of the members psi of Xi with reads(psi.q).

    Xi is a list of primitive characters, and a member that is not
    primitive is a DomainError.
    """
    for psi in xi:
        if not psi.primitive:
            raise DomainError(f"Xi members must be primitive; got modulus {psi.q}")
    return character_tables([psi for psi in xi if reads(psi.q)])


def _record(rs: np.ndarray, q: int, a1: int, a2: int, tables: dict | None,
            D: int | None = None) -> DiscrepancyRecord:
    """The record at q from the residue sums rs of f mod q.

    tables, when given, maps the members of Xi to their tables, which the
    caller builds once (`xi_tables`).  Without D it reads rs only at the
    units mod q (b is one), so bv_average may leave the non-unit bins
    incomplete; Delta_A reads all q bins.
    """
    b = (a1 % q) * modinv(a2, q) % q if q > 1 else 0
    prog = complex(rs[b])
    units = np.flatnonzero(unit_mask(q))
    rs_units = rs[units]
    coprime = complex(rs_units.sum())
    phi = euler_phi(q)
    rec = DiscrepancyRecord(q=q, a1=a1, a2=a2, delta=prog - coprime / phi,
                            progression_sum=prog, coprime_main=coprime / phi)
    if tables is not None:
        xi_main = 0j
        # psi induced to q equals psi on the units of q, b among them, and
        # vanishes off them
        for psi, tab in tables.items():
            if q % psi.q == 0:
                s = complex((np.conj(tab[residues(units, psi.q)]) * rs_units).sum())
                xi_main += psi.cvalue(b) * s
        rec.delta_xi = prog - xi_main / phi
        rec.xi_main = xi_main / phi
    if D is not None:
        c = modinv(a1, q) * (a2 % q) % q if q > 1 else 0  # kernel argument scale
        row = u_kernel_moebius_row(q, D)[residues(np.arange(q) * c, q)]
        rec.delta_a = complex((row * rs).sum())
    return rec


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


def u_kernel_moebius_row(q: int, D: int) -> np.ndarray:
    """The divisor-sum form of the kernel at every residue n mod q at once.

    Exact rationals rounded to float: 0 when gcd(n,q) > 1; otherwise
    [n=1 mod q] - (1/phi(q)) * sum_{d<=D, d | (q, n-1)} phi(d) *
                               sum_{b<=D/d, b | q/d} mu(b).
    The value at a unit n depends only on g = gcd(q, n-1), and n = 1 (mod q)
    exactly when g = q, so the divisor sum and the quotient are formed once
    per distinct g; int / int is correctly rounded, as float(Fraction) is.
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
        by_gcd[g] = ((g == q) * phi - _kernel_divisor_sum(g, q, D)) / phi
    row = np.zeros(q)
    row[units] = by_gcd[gs]
    return row


def u_kernel_chardef_row(q: int, D: int, family: CharacterFamily) -> np.ndarray:
    """Definition form: [n=1 mod q] - (1/phi(q)) sum_{chi mod q, cond<=D} chi(n).

    At every residue n mod q at once: the tables the family keeps
    (`CharacterFamily.tables`) tiled to length q, no induction, bitwise equal
    to the sum of the induced characters' values cell by cell.  The real and
    imaginary parts are divided by phi(q) separately, as Python's complex /
    int does: numpy's complex / float can differ in the last bit.
    """
    if family.D < min(D, q):
        raise DomainError(f"family only covers conductors <= {family.D}, need {min(D, q)}")
    ind = np.zeros(q)
    ind[1 % q] = 1.0
    s = np.zeros(q, dtype=np.complex128)
    for psi, tab in family.tables.items():
        if psi.q <= D and q % psi.q == 0:
            s += np.tile(tab, q // psi.q)
    s[~unit_mask(q)] = 0  # induced characters vanish off the units of q
    phi = euler_phi(q)
    out = np.empty(q, dtype=np.complex128)
    out.real = ind - s.real / phi
    out.imag = 0.0 - s.imag / phi  # float - complex subtracts from (ind, 0.0)
    return out


# ---------------------------------------------------------------------------
# averages over moduli


def _prime_to(g: int, ns: np.ndarray, vs: np.ndarray,
              out: tuple[np.ndarray, np.ndarray] | None = None):
    """The entries of (ns, vs) with gcd(n, g) = 1, in the same (ascending) order.

    One chunk at a time, into out: arrays at least as long as the result,
    ns and vs themselves included, since no entry is written past the
    position it is read from.  Without out, into new arrays of the exact
    length, which a first pass counts.
    """
    units = unit_mask(g)

    def kept():
        for lo, hi in chunks(ns.size):
            yield lo, hi, units[residues(ns[lo:hi], g)]

    if out is None:
        size = sum(int(np.count_nonzero(keep)) for _, _, keep in kept())
        out = (np.empty(size, dtype=ns.dtype), np.empty(size, dtype=vs.dtype))
    w = 0
    for lo, hi, keep in kept():
        k = int(np.count_nonzero(keep))
        out[0][w:w + k] = ns[lo:hi][keep]
        out[1][w:w + k] = vs[lo:hi][keep]
        w += k
    return out[0][:w], out[1][:w]


def bv_average(f: MultFnSpec, x: int, Q: int, a1: int, a2: int,
               xi: list[DirichletCharacter],
               threads: int = 1) -> tuple[float, list[DiscrepancyRecord]]:
    """sum_{q<=Q, gcd(q, a1*a2)=1} |Delta_Xi(f,x;q,a1*conj(a2))| plus the records.

    a1*a2 must be nonzero.  A q that shares a factor with a1*a2 is skipped,
    as in the theorem, which averages only over (q, a1*a2) = 1.  Work may
    fan out over q, but records and the total are always reduced in
    ascending q, so the result is independent of the schedule.
    """
    if not 1 <= Q <= x:  # Q < 1 would sum over no modulus
        raise DomainError(f"need 1 <= Q <= x, got Q={Q}, x={x}")
    if a1 * a2 == 0:  # gcd(0, q) = q would leave q = 1 alone
        raise DomainError(f"need a1*a2 != 0, got a1={a1}, a2={a2}")
    qs = [q for q in range(1, Q + 1) if math.gcd(q, a1 * a2) == 1]
    # _record reads the residue sums only at the units mod q, and an n
    # with gcd(n, q) > 1 lands only in a non-unit bin.  So q passes only over
    # the part of the support prime to g = gcd(q, 6), about 0.55 Psi points
    # on average over q.  A part keeps ascending n, so every unit bin is the
    # same sequential sum as over the whole support.  The support itself is
    # the part for g = 1.  The odd part (g = 2) is the one copy; the part
    # prime to 6 is then compacted into it in place, and last the part
    # prime to 3 into the support, which this call owns.  So the support
    # and one odd part are the most ever held.
    ns, vs = get_support(f, x=x)
    tables = xi_tables(xi, lambda r: r <= Q)
    part, odd = (ns, vs), None
    by_q = {}
    for g in (1, 2, 6, 3):  # the order in which the parts are built
        qg = [q for q in qs if math.gcd(q, 6) == g]
        if not qg:
            continue
        if g == 2:
            part = odd = _prime_to(2, ns, vs)
        elif g == 6:  # admitting q = 6 admits q = 2, so odd is built
            part = _prime_to(6, *odd, out=odd)
        elif g == 3:
            odd = None
            part = _prime_to(3, ns, vs, out=(ns, vs))
        # x=1e7, y=215, Q=300: 2 threads 1.09-1.13 -> 1.00 s, won 14/20 pairs, +5 MB
        by_q.update(zip(qg, ordered_map(
            lambda q, part=part: _record(residue_sums(*part, q), q, a1, a2, tables),
            qg, threads)))
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
                             xi: list[DirichletCharacter], D: int) -> TransferCheck:
    """Evaluate both sides of the exact identity relating Delta_Xi to Delta_A.

    lhs = Delta_Xi - Delta_A at (f, x; q, a1*conj(a2)).
    rhs = (1/phi(q)) * sum over l with prime factors dividing q of
          g(l) * sum_{d<=D, (d,l)=1, d|q} phi(d) * Delta_Xi(f, x/l; d, b*conj(l))
                 * sum_{m<=D/d, m|q/d} mu(m),
    with g the Dirichlet inverse of f.  The l-sum is finite: terms vanish
    once x/l < 1.  Every Delta_Xi(f, x/l; ...) reads the prefix n <= x/l of
    the one support of f up to x.
    """
    for chi in xi:
        if chi.q > D:
            raise DomainError(
                f"Xi member of conductor {chi.q} lies outside A({D}); identity needs Xi in A(D)"
            )
    _check_cell(q, a1, a2)
    ns, vs = get_support(f, x=x)
    # Delta_Xi at q and at the divisors d of q below reads these tables
    tables = xi_tables(xi, lambda r: q % r == 0)
    rec = _record(residue_sums(ns, vs, q), q, a1, a2, tables, D)
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
            dx = _record(residue_sums(ns[:hi], vs[:hi], d), d, a, 1, tables).delta_xi
            rhs += gl * euler_phi(d) * dx * mu_sums[d]
    rhs /= euler_phi(q)
    return TransferCheck(lhs, rhs)
