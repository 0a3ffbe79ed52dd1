"""Independent brute-force oracles for the test suite.

Nothing here touches the package's sieves, character values, or kernel
routines: factorizations come from raw trial division or a dense
largest-prime-factor sieve, characters from exhaustive homomorphism search,
conductors from the definitional divisor scan, and root-of-unity sums from
exact cyclotomic polynomial division.  The lifted-generator character route
reads only a unit group's generators and discrete-log tables: it values a
character as a sum of per-component fractions, and it induces and
decomposes by reading those values at CRT-lifted generators.  The
exceptions are the kernel u_D(n; q) summed cell by cell from its definition
(it induces each character with the package's `induce` and reads `cvalue`,
the per-cell route that the one-gather row form must equal bit for bit),
and the support joined from the package's `smooth_pieces` by one argsort,
the route that the rank placement of `multfn.get_support` must equal.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from smoothap.characters import DirichletCharacter, UnitGroup, induce
from smoothap.errors import DomainError
from smoothap.sieve import smooth_pieces


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
    return np.array([chi.complex_table()[ns % chi.q] for chi in chars])


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
                if chi.value(n) != 0:
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
