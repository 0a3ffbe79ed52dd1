"""Independent brute-force oracles for the test suite, and the package's second routes.

Nothing in the first part touches the package's sieves, character values,
or kernel routines: factorizations come from raw trial division or a dense
largest-prime-factor sieve, characters from exhaustive homomorphism search,
conductors from the definitional divisor scan, and root-of-unity sums from
exact cyclotomic polynomial division.  The lifted-generator character route
reads only a unit group's generators and discrete-log tables: it values a
character as a sum of per-component fractions, and it induces and
decomposes by reading those values at CRT-lifted generators.  The
exceptions are the kernel u_D(n; q) summed cell by cell from its definition
(it induces each character with `induce` of the second part and reads
`cvalue`, the per-cell route that the one-gather row form must equal bit
for bit), and the support joined from the package's `smooth_pieces` by one
argsort, the route that the rank placement of `multfn.get_support` must
equal.  The report texts are formed whole, with the package's `fmt_number`,
as one `"\n".join` and one `json.dumps`: the streaming writer must equal
them byte for byte.

The second part holds the routes that no command runs, moved out of the
package with their bodies, docstrings and input checks, one section per
module: exact fraction values, the principal test, conjugation,
induction, decomposition, products and exact root sums of characters; the
one-cell record with Delta_Xi and Delta_A, the scalar S_f(X, chi), Delta,
Delta_Xi, Delta_A and divisor-sum kernel; the exact beta of a scan's
result, the dual large sieve, its power-iteration maximum and the eta
classes; dict-backed oracles, smooth restriction, Lambda_f and the
class-C test; the saddle exponent and short-interval counts.  They are
built on what the package keeps (unit groups, residue sums, supports,
discrepancy records), and the tests hold the package's one route to them.
Beside them are the loops that the package's batched forms replaced, each
the bitwise reference of its replacement: the discrete logs of a unit
group one unit at a time (`UnitGroup`), one character's exponent row,
table and record (`exponent_rows`, `complex_tables`, `to_record`), the
exceptional scan one character at a time (`detect_exceptional`, which
scans one modulus at a time), and the grids built one point or one step
at a time (`dyadic_partition`, `refine_grid`).
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from smoothap.arith import euler_phi, residues
from smoothap.characters import (CharacterFamily, DirichletCharacter, UnitGroup, _Component,
                                 _least_primitive_root, by_modulus, complex_tables,
                                 enumerate_characters)
from smoothap.discrepancy import (DiscrepancyRecord, _check_cell, _kernel_divisor_sum,
                                  _record, discrepancy_record, residue_sums, xi_tables)
from smoothap.errors import DomainError, OracleError
from smoothap.large_sieve import (ExceptionalSet, ExceptionalWitness, _character_sums,
                                  _nonzero_coefficients, detection_scale)
from smoothap.multfn import MultFnSpec, get_support
from smoothap.reports import fmt_number
from smoothap.sieve import _check_query, primes_upto, psi, smooth_numbers, smooth_pieces


# ---------------------------------------------------------------------------
# factorization / smoothness by trial division


def trial_division_factor(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def largest_prime_factor(n):
    if n == 1:
        return 1
    return trial_division_factor(n)[-1][0]


def is_prime(n):
    if n < 2:
        return False
    return trial_division_factor(n) == [(n, 1)]


@lru_cache(maxsize=4)
def lpf_sieve(x_max):
    """Read-only lpf over 0..x_max: lpf[n] = P(n), lpf[1] = 1, lpf[0] = 0.

    A dense sieve: each prime p, in ascending order, overwrites lpf at its
    multiples, so the last write at n is its largest prime factor.
    """
    lpf = np.zeros(x_max + 1, dtype=np.int64)
    lpf[1:2] = 1
    for p in range(2, x_max + 1):
        if lpf[p] == 0:  # no smaller prime divides p
            lpf[p::p] = p
    lpf.setflags(write=False)
    return lpf


def dense_primes(x):
    """The primes <= x, ascending, read off the dense sieve."""
    lpf = lpf_sieve(max(x, 1))
    return np.flatnonzero(lpf == np.arange(lpf.size))[2:].tolist()  # lpf[n] = n at 0, 1 too


def smooth_flags(x, y):
    """flags[n] for 0..x: n >= 1 and y-smooth, by trial division."""
    flags = [False] * (x + 1)
    for n in range(1, x + 1):
        flags[n] = largest_prime_factor(n) <= y
    return flags


def psi_count(flags, x, q=None, a=None, coprime_to=None):
    total = 0
    for n in range(1, x + 1):
        if not flags[n]:
            continue
        if q is not None and n % q != a:
            continue
        if coprime_to is not None and math.gcd(n, coprime_to) != 1:
            continue
        total += 1
    return total


# ---------------------------------------------------------------------------
# the support of f and its residue sums, by joins and bincounts


def joined_support(f, x):
    """(ns, vs): the support of f up to x, every walked piece joined and argsorted.

    The pieces of `smooth_pieces` are concatenated, ordered by one argsort
    of the positions, the values permuted by it, and the zeros (f(p^k) = 0
    or an underflowed product) dropped.
    """
    bound = x if f.smooth_bound is None else min(x, f.smooth_bound)
    ns_parts, vs_parts = zip(*smooth_pieces(x, bound, f.at))
    ns = np.concatenate(ns_parts)
    order = np.argsort(ns)
    ns, vs = ns[order], np.concatenate(vs_parts)[order]
    keep = np.flatnonzero(vs)
    return ns[keep], vs[keep]


def bincount_residue_sums(ns, vs, q):
    """sum of vs[i] over ns[i] = r (mod q): one bincount for each of re and im."""
    res = (ns % q).astype(np.intp)
    return (np.bincount(res, weights=vs.real, minlength=q)
            + 1j * np.bincount(res, weights=vs.imag, minlength=q))


def dense_character_matrix(ns, chars):
    """M[j, i] = chars[j](ns[i]): one gather of the complex table per character."""
    return np.array([complex_table_one(chi)[ns % chi.q] for chi in chars])


# ---------------------------------------------------------------------------
# characters by exhaustive homomorphism search (tiny q only)


def brute_force_characters(q):
    """All multiplicative maps units(q) -> mu_M as {unit: Fraction k/M} dicts."""
    units = [n for n in range(1, q + 1) if math.gcd(n, q) == 1]
    units = [u % q for u in units]
    if q == 1:
        units = [0]
    M = 1
    for u in units:
        # order of u in the unit group
        t, k = u, 1
        while t % q != 1 % q:
            t = (t * u) % q
            k += 1
        M = math.lcm(M, k)
    chars = []
    for assignment in itertools.product(range(M), repeat=len(units)):
        vals = dict(zip(units, assignment))
        ok = True
        for a in units:
            for b in units:
                if (vals[a] + vals[b]) % M != vals[(a * b) % q]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            chars.append({u: Fraction(k, M) for u, k in vals.items()})
    return chars


def conductor_by_scan(chi):
    """Spec-definition conductor: smallest r | q with chi = 1 on units = 1 mod r."""
    q = chi.q
    for r in sorted(d for d in range(1, q + 1) if q % d == 0):
        good = True
        for n in range(1, q + 1):
            if math.gcd(n, q) == 1 and n % r == 1 % r:
                if value(chi, n) != 0:
                    good = False
                    break
        if good:
            return r
    return q


# ---------------------------------------------------------------------------
# characters by lifted generators: per-component fractions, CRT lifts


def fraction_value(chi, n):
    """chi(n) as a fraction k/m of a turn, one Fraction per component; None off the units."""
    n %= chi.q
    if math.gcd(n, chi.q) != 1:
        return None
    v = Fraction(0)
    for c, comp in zip(chi.exps, chi.group.components):
        v += Fraction(c * int(comp.dlog[n % comp.pe]), comp.order)
    return v % 1


def fraction_row(chi):
    """[fraction_value(chi, n) for n in range(q)], from per-component fraction lists."""
    q = chi.q
    parts = [([Fraction(c * d % comp.order, comp.order) for d in comp.dlog.tolist()], comp.pe)
             for c, comp in zip(chi.exps, chi.group.components) if c]
    row = []
    for n in range(q):
        if math.gcd(n, q) != 1:
            row.append(None)
        elif not parts:
            row.append(Fraction(0))
        else:
            terms = [part[n % pe] for part, pe in parts]
            row.append(sum(terms[1:], terms[0]) % 1 if len(terms) > 1 else terms[0])
    return row


def crt_lift(residue, pe, q):
    """The residue mod q that is `residue` mod pe and 1 mod q/pe."""
    m = q // pe
    if m == 1:
        return residue % q
    t = ((residue - 1) * pow(m, -1, pe)) % pe
    return (1 + m * t) % q


def _exponent_at(chi, n, order):
    """The exponent c with chi(n) = e^{2 pi i c/order}."""
    c = fraction_value(chi, n) * order
    assert c.denominator == 1, "value order must divide the generator order"
    return int(c)


def lift_induce(psi, q):
    """induce(psi, q) by reading psi's primitive core at each generator's CRT lift to q."""
    assert q % psi.conductor == 0
    psi0 = psi if psi.primitive else lift_decompose(psi)
    group = UnitGroup.get(q)
    return DirichletCharacter(group, tuple(
        _exponent_at(psi0, crt_lift(comp.gen, comp.pe, q), comp.order)
        for comp in group.components))


def lift_decompose(chi):
    """decompose(chi) by reading chi at a unit lift of each generator mod its conductor."""
    r = chi.conductor
    group = UnitGroup.get(r)
    exps = []
    for comp in group.components:
        t = crt_lift(comp.gen, comp.pe, r)
        while math.gcd(t, chi.q) != 1:
            t += r
        exps.append(_exponent_at(chi, t, comp.order))
    return DirichletCharacter(group, tuple(exps))


# ---------------------------------------------------------------------------
# the conductor-truncated kernel from its definition, one cell at a time


def u_kernel_chardef(n, q, D, family):
    """[n=1 mod q] - (1/phi(q)) sum_{chi mod q, cond<=D} chi(n), one induction per member."""
    if family.D < min(D, q):
        raise DomainError(f"family only covers conductors <= {family.D}, need {min(D, q)}")
    n %= q
    ind = 1.0 if n % q == 1 % q else 0.0
    if math.gcd(n, q) != 1:
        return complex(ind)  # every chi(n) = 0; n=1 unreachable unless q=1
    s = 0j
    for psi in family.members:
        if psi.q <= D and q % psi.q == 0:
            s += induce(psi, q).cvalue(n)
    phi = sum(1 for m in range(q) if math.gcd(m, q) == 1)
    return ind - s / phi


# ---------------------------------------------------------------------------
# exact cyclotomic-arithmetic root sums (small orders)


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (den monic); returns (quot, rem)."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1 - dd, -1, -1):
        c = num[i + dd]
        if c:
            quot[i] = c
            for j, dc in enumerate(den):
                num[i + j] -= c * dc
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(M):
    """Coefficients of the M-th cyclotomic polynomial, ascending."""
    if M == 1:
        return (-1, 1)
    num = [-1] + [0] * (M - 1) + [1]  # x^M - 1
    for d in range(1, M):
        if M % d == 0:
            num, rem = _poly_divmod_int(num, cyclotomic_poly(d))
            assert all(c == 0 for c in rem)
    return tuple(num)


def exact_root_sum_is(fractions, expected_integer):
    """True iff sum of e^{2 pi i k/m} equals the integer, by division mod Phi_M."""
    fracs = [Fraction(f) for f in fractions]
    M = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    coeffs = [0] * max(M, 1)
    for f in fracs:
        coeffs[int(f * M) % M] += 1
    coeffs[0] -= expected_integer
    _, rem = _poly_divmod_int(coeffs, list(cyclotomic_poly(M)))
    return all(c == 0 for c in rem)


# ---------------------------------------------------------------------------
# high-precision saddle point (mpmath-free: Fraction bisection on a fine grid)


def alpha_saddle_highprec(x, y, digits=30):
    """Independent bisection of the saddle equation with mpmath."""
    import mpmath

    mpmath.mp.dps = digits
    primes = [p for p in range(2, y + 1) if is_prime(p)]
    target = mpmath.log(x)

    def h(alpha):
        return sum(mpmath.log(p) / (mpmath.power(p, alpha) - 1) for p in primes) - target

    lo, hi = mpmath.mpf("1e-8"), mpmath.mpf(4)
    for _ in range(200):
        mid = (lo + hi) / 2
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# report texts formed whole


def json_text(doc):
    """A JSON report as one json.dumps of the whole document."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def csv_report_text(columns, rows, config):
    """'# config: {...}', the header and one line per row, joined at the end."""
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt_number(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def json_report_text(rows, config, summary=None):
    """{"config", "records"[, "summary"]} with every value formatted, dumped whole."""
    doc = {"config": config,
           "records": [{k: fmt_number(v) for k, v in row.items()} for row in rows]}
    if summary is not None:
        doc["summary"] = {k: fmt_number(v) for k, v in summary.items()}
    return json_text(doc)


# ===========================================================================
# Second routes of the package's quantities.  No command runs them, so they
# live here, one section per smoothap module, each definition with the body,
# docstring and input checks it had in the package.  They are built on the
# package's own tables and sums, unlike the oracles above.


# ---------------------------------------------------------------------------
# smoothap.characters: exact values, the principal test, conjugation,
# induction, decomposition, products, exact root sums, the discrete logs
# one unit at a time, and one character's exponent row, table and record


class RootSumStructureError(ArithmeticError):
    """A root-of-unity multiset lacked the uniform-subgroup shape."""


def value(chi: DirichletCharacter, n: int) -> Fraction | None:
    """chi(n) as the reduced fraction k/m meaning e^{2 pi i k/m}; None when chi(n)=0.

    It reads the package's exponent (`DirichletCharacter._exponent`), so it
    checks that route against the fraction oracles above.
    """
    k = chi._exponent(int(n) % chi.q)
    return None if k < 0 else Fraction(k, chi.group.M)


def is_principal(chi: DirichletCharacter) -> bool:
    return all(c == 0 for c in chi.exps)


def conjugate(chi: DirichletCharacter) -> DirichletCharacter:
    return DirichletCharacter(
        chi.group,
        tuple((-c) % comp.order for c, comp in zip(chi.exps, chi.group.components)),
    )


def _carry(chi: DirichletCharacter, q: int) -> DirichletCharacter:
    """chi's exponents carried to the generators mod q, where q | chi.q or chi.q | q.

    Generators reduce to generators (see `smoothap.characters._Component`),
    so an exponent scales by the ratio of the two orders, and a factor with
    no partner carries exponent 0.  Going down, the ratio divides the exponent
    exactly when chi factors through q, which is what `decompose` asks.
    """
    src = {(comp.p, comp.slot): (c, comp.order)
           for c, comp in zip(chi.exps, chi.group.components)}
    group = UnitGroup.get(q)
    exps = []
    for comp in group.components:
        c, order = src.get((comp.p, comp.slot), (0, 1))
        exps.append(c * comp.order // order)
    return DirichletCharacter(group, tuple(exps))


def induce(psi: DirichletCharacter, q: int) -> DirichletCharacter:
    """The character mod q equal to psi on units of q, zero elsewhere."""
    r = psi.conductor
    if q % r:
        raise DomainError(f"conductor {r} does not divide target modulus {q}")
    return _carry(decompose(psi), q)


def decompose(chi: DirichletCharacter) -> DirichletCharacter:
    """The unique primitive character inducing chi."""
    return chi if chi.primitive else _carry(chi, chi.conductor)


def multiply(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product chi1*chi2 as a character mod lcm(q1, q2)."""
    L = math.lcm(chi1.q, chi2.q)
    a = induce(chi1, L)
    b = induce(chi2, L)
    group = a.group
    exps = tuple(
        (c1 + c2) % comp.order
        for c1, c2, comp in zip(a.exps, b.exps, group.components)
    )
    return DirichletCharacter(group, exps)


def local_components_unit_by_unit(p: int, e: int) -> list[_Component]:
    """The cyclic factors of (Z/p^eZ)* (`UnitGroup._local`), one multiply per unit.

    The package's loop before it took the generator's powers in blocks.
    """
    pe = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            dlog = np.full(4, -1, dtype=np.int64)
            dlog[1], dlog[3] = 0, 1
            return [_Component(2, 4, 2, 3, dlog)]
        half = 2 ** (e - 2)
        d_sign = np.full(pe, -1, dtype=np.int64)
        d_five = np.full(pe, -1, dtype=np.int64)
        v = 1
        for b in range(half):
            d_sign[v], d_five[v] = 0, b
            d_sign[pe - v], d_five[pe - v] = 1, b
            v = (v * 5) % pe
        return [
            _Component(2, pe, 2, pe - 1, d_sign),
            _Component(2, pe, half, 5, d_five, slot=1),
        ]
    s = pe - pe // p
    g = _least_primitive_root(p, e)
    dlog = np.full(pe, -1, dtype=np.int64)
    v = 1
    for k in range(s):
        dlog[v] = k
        v = (v * g) % pe
    return [_Component(p, pe, s, g, dlog)]


def exponent_row(chi: DirichletCharacter, n: np.ndarray) -> np.ndarray:
    """k with chi(n) = e^{2 pi i k/M} (M = group.M, 0 <= k < M), -1 off the units.

    n is an int array of residues mod q.  The sum runs over the components,
    one character at a time, accumulating in place: the package's array
    read before `exponent_rows` took several characters at once.
    """
    g = chi.group
    k = 0
    for c, comp in zip(chi.exps, g.components):
        if c:
            t = comp.dlog[n % comp.pe]
            t *= c * (g.M // comp.order)
            k += t
            del t
    k %= g.M
    k += 1
    k *= g.unit_mask[n]
    k -= 1  # -1 off the units
    return k


def complex_table_one(chi: DirichletCharacter) -> np.ndarray:
    """Length-q complex array of chi over residues (0 off units), one character."""
    k = exponent_row(chi, np.arange(chi.q))
    tab = np.exp(2j * np.pi * (k / chi.group.M))
    tab[k < 0] = 0
    return tab


def to_record_one(chi: DirichletCharacter) -> dict:
    """Serializable form: modulus, conductor, and the k/m value list."""
    o = chi.order  # every exponent is a multiple of M/o, and -1 reads the "0"
    names = np.array([f"{j // math.gcd(j, o)}/{o // math.gcd(j, o)}"
                      for j in range(o)] + ["0"], dtype=object)
    steps = exponent_row(chi, np.arange(chi.q))
    steps //= chi.group.M // o  # in place: -1 stays -1
    return {"q": chi.q, "conductor": chi.conductor,
            "values": names[steps].tolist()}


def exact_root_counts_sum(counts, M: int) -> int:
    """Exact integer value of sum_k counts[k] * e^{2 pi i k/M}, group-shaped input.

    The multiset must be uniform over the cyclic subgroup it spans (the
    shape produced by summing a character over a group, or a group of
    characters at a point): either all mass sits at 1, or every element of
    some mu_m (m > 1) appears equally often, making the sum exactly 0.
    Anything else raises RootSumStructureError rather than guessing.
    """
    counts = {k % M: c for k, c in dict(counts).items() if c}
    support = sorted(counts)
    if not support:
        return 0
    if support == [0]:
        return counts[0]
    g = math.gcd(M, *support)
    m = M // g
    if len(counts) != m or set(support) != {j * g for j in range(m)}:
        raise RootSumStructureError("support is not a full cyclic subgroup")
    if len(set(counts.values())) != 1:
        raise RootSumStructureError("non-uniform multiplicities over the subgroup")
    return 0  # c * (full sum over mu_m) with m > 1


def exact_unit_sum(values) -> int:
    """exact_root_counts_sum for values given as k/m fractions."""
    fracs = [Fraction(v) if not isinstance(v, Fraction) else v for v in values]
    if not fracs:
        return 0
    M = math.lcm(*(f.denominator for f in fracs))
    return exact_root_counts_sum(Counter(int(f * M) % M for f in fracs), M)


# ---------------------------------------------------------------------------
# smoothap.discrepancy: S_f(X, chi), the scalar discrepancies and kernel


def character_sum(f: MultFnSpec, X: int, chi: DirichletCharacter) -> complex:
    """S_f(X, chi) = sum_{n<=X} f(n) * conj(chi(n))."""
    rs = residue_sums(*get_support(f, x=X), chi.q)
    return complex((np.conj(complex_table_one(chi)) * rs).sum())


def record(f: MultFnSpec, x: int, q: int, a1: int, a2: int,
           xi: list[DirichletCharacter] | None = None,
           D: int | None = None) -> DiscrepancyRecord:
    """Delta(f,x;q,a1*conj(a2)), plus Delta_Xi when xi (a list of primitive
    characters) is given and Delta_A when D is: `_record` over one
    residue-sum pass, with the tables of the members of Xi whose conductor
    divides q, all that Delta_Xi at q reads."""
    _check_cell(q, a1, a2)
    tables = None if xi is None else xi_tables(xi, lambda r: q % r == 0)
    return _record(residue_sums(*get_support(f, x=x), q), q, a1, a2, tables, D)


def delta(f: MultFnSpec, x: int, q: int, a: int) -> complex:
    """Delta(f,x;q,a): progression sum minus the coprime average."""
    return discrepancy_record(f, x, q, a, 1).delta


def delta_xi(f: MultFnSpec, x: int, q: int, a1: int, a2: int,
             xi: list[DirichletCharacter]) -> complex:
    """Delta_Xi(f,x;q,a1*conj(a2)): main terms only from characters induced by Xi."""
    return record(f, x, q, a1, a2, xi=xi).delta_xi


def delta_A(f: MultFnSpec, x: int, q: int, a1: int, a2: int, D: int) -> complex:
    """Delta_A(f,x;q,a1*conj(a2)) = sum_{n<=x} f(n) u_D(n*conj(a1)*a2; q)."""
    return record(f, x, q, a1, a2, D=D).delta_a


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


# ---------------------------------------------------------------------------
# smoothap.large_sieve: the dual form, one-step grid refinement, the
# per-character scan, the exact beta of a scan's result, power iteration,
# eta classes


def _character_combination(ns: np.ndarray, b: np.ndarray,
                           groups: list[list[DirichletCharacter]]) -> np.ndarray:
    """(M^T b)_i = sum_chi b_chi chi(ns[i]), the transpose of `_character_sums`.

    b is indexed by the characters of groups in order.  Each modulus builds
    one length-q row sum_chi b_chi chi(r) and gathers it once at ns mod q.
    """
    out = np.zeros(ns.size, dtype=np.complex128)
    coefs = iter(b)
    for chars in groups:  # zip stops at the last table, taking one coef per chi
        row = sum(coef * tab for tab, coef in zip(complex_tables(chars), coefs))
        out += row[residues(ns, chars[0].q)]
    return out


def refine_grid_one_step(grid, smooth: np.ndarray, T: float) -> list[int]:
    """`refine_grid` splitting one step at a time, left to right.

    A failing step is bisected and its left half checked again before the
    scan moves right, with one searchsorted per inserted point.  The points
    are Python ints, whether grid is a list or an array.
    """
    out = [int(g) for g in grid]
    # needles of smooth's dtype: any other makes numpy copy smooth to it
    needle = smooth.dtype.type
    counts = np.searchsorted(smooth, np.array(out, dtype=smooth.dtype), side="right").tolist()
    i = 0
    while i + 1 < len(out):
        a, b = out[i], out[i + 1]
        if b - a >= 2 and counts[i + 1] - counts[i] > counts[i] / (2.0 * T):
            mid = (a + b) // 2
            out.insert(i + 1, mid)
            counts.insert(i + 1, int(np.searchsorted(smooth, needle(mid), side="right")))
        else:
            i += 1
    return out


def detect_exceptional_per_character(f: MultFnSpec, x: int, y: int, Q: int, B: float,
                                     eps: float, families: CharacterFamily) -> ExceptionalSet:
    """`detect_exceptional` one character at a time, with the grid loops above.

    Each character takes its own residues of the support, a fresh
    cumulative-sum buffer, its one-character table (`complex_table_one`),
    and reads the sums at every grid point.  Where get_support keeps no
    values (the indicator), f is 1 + 0j at every point of its support.
    """
    ns, vs = get_support(f, x=x)
    if vs is None:
        vs = np.ones(ns.size, dtype=np.complex128)
    T = detection_scale(x, y, B)
    smooth = smooth_numbers(x, y)
    grid = refine_grid_one_step(dyadic_partition_point_by_point(x, T, eps), smooth, T)
    gx = np.array(grid, dtype=ns.dtype)
    thresholds = np.searchsorted(smooth, gx, side="right") / (2.0 * T)
    at = np.searchsorted(ns, gx, side="right")
    out = ExceptionalSet()
    for chi in families.up_to(Q):
        csum = np.zeros(ns.size + 1, dtype=np.complex128)
        np.cumsum(vs * np.conj(complex_table_one(chi))[residues(ns, chi.q)], out=csum[1:])
        svals = np.abs(csum[at])
        margins = svals / thresholds
        j = int(np.argmax(margins))
        wit = ExceptionalWitness(chi, int(gx[j]), float(svals[j]), float(thresholds[j]))
        if margins[j] >= 1.0:
            out.members.append(wit)
        elif margins[j] >= 0.5:
            out.near_misses.append(wit)
    return out


def beta(found: ExceptionalSet) -> Fraction:
    """sum of 1/conductor over the members, exact."""
    return sum((Fraction(1, w.character.q) for w in found.members), Fraction(0))


def ls_dual(ns: np.ndarray, Q: int, b: np.ndarray,
            families: CharacterFamily) -> tuple[float, float]:
    """Dual form: (lhs, rhs), lhs = sum_n |sum_{q<=Q} sum*_chi b_chi chi(n)|^2.

    ns is the y-smooth n <= x (`smooth_numbers`), rhs = Psi(x,y) * sum |b_chi|^2,
    and b is indexed by families.up_to(Q) in family order.
    """
    members = families.up_to(Q)
    b = _nonzero_coefficients(b, len(members), "primitive character")
    G = _character_combination(ns, b, by_modulus(members))
    lhs = float(np.sum(np.abs(G) ** 2))
    rhs = float(ns.size) * float(np.sum(np.abs(b) ** 2))
    return lhs, rhs


def max_ratio_power_iteration(ns: np.ndarray, Q: int,
                              families: CharacterFamily, side: str,
                              iters: int = 200, seed: int = 0) -> float:
    """Largest primal (or dual) ratio via power iteration on the Gram operator.

    With M the characters-by-smooth-n matrix (`_character_sums`, and
    `_character_combination` for M^T), the primal side iterates M^H M and
    the dual side conj(M) M^T: the side only picks the order.  The two share
    their nonzero eigenvalues, so running them independently makes their
    agreement an actual check rather than a tautology.
    """
    members = families.up_to(Q)
    groups = by_modulus(members)
    if side == "primal":
        first, second, size = _character_sums, _character_combination, ns.size
    elif side == "dual":
        first, second, size = _character_combination, _character_sums, len(members)
    else:
        raise DomainError(f"side must be 'primal' or 'dual', got {side!r}")
    rng = np.random.RandomState(seed)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        u = np.conj(second(ns, np.conj(first(ns, v, groups)), groups))
        v = u / np.linalg.norm(u)
    w = first(ns, v, groups)
    return float(np.vdot(w, w).real / np.vdot(v, v).real / float(ns.size))


@dataclass
class EtaClass:
    """Non-principal chi mod q <= Q^2 with eta*Psi < |sum_{smooth n} chi(n)| <= 2*eta*Psi."""

    eta: float
    members: list[DirichletCharacter] = field(default_factory=list)
    sums: list[float] = field(default_factory=list)
    xi_star: list[DirichletCharacter] = field(default_factory=list)


def classify_eta(ns: np.ndarray, Q: int,
                 families: CharacterFamily | None = None,
                 levels: int = 16) -> list[EtaClass]:
    """Assign every non-principal character mod q <= Q^2 to its dyadic class.

    Characters whose smooth character sum is <= Psi * 2^-levels fall in no
    class.  xi_star collects the distinct primitive characters inducing the
    members of each class; when a family covering conductor Q^2 is supplied,
    xi_star reuses its member instances so callers can match by identity.
    """
    if families is not None and families.D < Q * Q:
        raise DomainError(f"family covers conductors <= {families.D}, need {Q * Q}")
    canonical = {chi: chi for chi in families.members} if families is not None else {}
    Psi = float(ns.size)
    chars = [chi for q in range(1, Q * Q + 1) for chi in enumerate_characters(q)
             if not is_principal(chi)]
    sums = _character_sums(ns, np.ones(ns.size, dtype=np.complex128), by_modulus(chars))
    classes = [EtaClass(eta=2.0 ** -(k + 1)) for k in range(levels)]
    for chi, S in zip(chars, np.abs(sums).tolist()):
        k, thr = 1, Psi / 2.0
        while S <= thr and k <= levels:
            k += 1
            thr /= 2.0
        if k <= levels:  # S > Psi*2^-k and S <= Psi*2^-(k-1)
            classes[k - 1].members.append(chi)
            classes[k - 1].sums.append(S)
    for cl in classes:  # distinct inducing characters, in order of first appearance
        cl.xi_star = list(dict.fromkeys(canonical.get(p, p) for p in map(decompose, cl.members)))
    return classes


# ---------------------------------------------------------------------------
# smoothap.multfn: dict oracles, restriction, Lambda_f and class C


CLASS_C_SLACK = 1e-12


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


def one() -> MultFnSpec:
    return MultFnSpec("one", lambda p, k: 1.0)


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


def restrict_smooth(f: MultFnSpec, y: int) -> MultFnSpec:
    """Same oracle, support cut to y-smooth integers at evaluation time."""
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    bound = y if f.smooth_bound is None else min(y, f.smooth_bound)
    return MultFnSpec(f"{f.label}|smooth[{bound}]", f.oracle, smooth_bound=bound)


# ---------------------------------------------------------------------------
# smoothap.sieve: the saddle exponent, short-interval counts and the
# point-by-point dyadic partition


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


def dyadic_partition_point_by_point(x: int, T: float, eps: float) -> list[int]:
    """`dyadic_partition` one point at a time (its input checks and sizing
    guard apart): the step floor(eps*X/T), at least 1, taken afresh at every
    point, and a final step shorter than half its target merged."""
    x0 = int(x**0.25)
    while x0**4 < x:
        x0 += 1
    while x0 > 1 and (x0 - 1) ** 4 >= x:
        x0 -= 1
    points = [x0]
    while points[-1] < x:
        cur = points[-1]
        step = max(1, int(eps * cur / T))
        nxt = min(cur + step, x)
        if nxt == x and x - cur < 0.5 * eps * cur / T and len(points) > 1:
            points[-1] = x  # merge the short final step into its predecessor
        else:
            points.append(nxt)
    return points
