"""Large-sieve experiments over smooth-supported coefficients.

The inequality under study bounds

    sum_{q<=Q} w(q) sum*_{chi mod q} |sum_{n<=x, P(n)<=y} a_n chi(n)|^2

(sum* over primitive characters, w = 1 or q^{-1/2}) by a constant times
Psi(x,y) * sum |a_n|^2.  This module evaluates both sides of the primal,
dual, and weighted forms, classifies characters by the size of their
smooth character sum, and detects exceptional characters by a dyadic scan
over scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import residues
from .characters import CharacterFamily, DirichletCharacter, decompose, enumerate_characters
from .discrepancy import ExceptionalSet, ExceptionalWitness, residue_sums
from .errors import DomainError
from .multfn import MultFnSpec, get_support
from .sieve import SieveTable, dyadic_partition, smooth_numbers
from .util import ordered_map


@dataclass
class SieveExperiment:
    """One evaluated instance of the inequality."""

    x: int
    y: int
    Q: int
    weight_mode: str  # "unweighted" | "sqrt"
    lhs: float
    rhs: float
    trial: int = 0

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


def modulus_range_Q(x: int, y: int, c: float = 0.2, weighted: bool = False) -> int:
    """Largest modulus the smooth large-sieve bound is asserted for at (x, y).

    Unweighted: Q = min(y^c, exp(c log x / log log x)); weighted: Q = x^c.
    The exponent c is a free knob (default 0.2) and is recorded in every
    report so explored ranges stay reproducible.
    """
    if weighted:
        return max(1, int(x**c))
    return max(1, int(min(y**c, math.exp(c * math.log(x) / math.log(math.log(x))))))


def ls_primal(x: int, y: int, Q: int, a: np.ndarray, weight_mode: str,
              table: SieveTable, families: CharacterFamily,
              threads: int = 1) -> SieveExperiment:
    """Primal form: lhs = sum_{q<=Q} w(q) sum*_chi |sum_n a_n chi(n)|^2.

    a[i] is the coefficient at the i-th y-smooth n <= x in ascending order
    (`smooth_numbers`), so a has length Psi(x,y) and no other support.
    """
    ns = smooth_numbers(table, x, y)
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != ns.shape:
        raise DomainError(f"need one coefficient per y-smooth n <= x ({ns.size}), "
                          f"got shape {a.shape}")
    if families.D < Q:
        raise DomainError(f"family covers conductors <= {families.D}, need {Q}")
    members = families.up_to(Q)
    moduli = sorted({chi.q for chi in members})

    def modulus_term(q: int) -> float:
        rs = residue_sums(ns, a, q)
        w = 1.0 if weight_mode == "unweighted" else 1.0 / math.sqrt(q)
        sub = 0.0
        for chi in members:
            if chi.q == q:
                T = complex((chi.complex_table() * rs).sum())
                sub += w * (T.real * T.real + T.imag * T.imag)
        return sub

    terms = ordered_map(modulus_term, moduli, threads)
    lhs = 0.0
    for t in terms:
        lhs += t
    rhs = float(ns.size) * float(np.sum(np.abs(a) ** 2))
    return SieveExperiment(x, y, Q, weight_mode, lhs, rhs)


def ls_dual(x: int, y: int, Q: int, b: np.ndarray, table: SieveTable,
            families: CharacterFamily) -> SieveExperiment:
    """Dual form: lhs = sum_{smooth n<=x} |sum_{q<=Q} sum*_chi b_chi chi(n)|^2.

    b is indexed by families.up_to(Q) in family order.
    """
    members = families.up_to(Q)
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (len(members),):
        raise DomainError(f"need one coefficient per primitive character ({len(members)})")
    ns = smooth_numbers(table, x, y)
    G = np.zeros(ns.size, dtype=np.complex128)
    for coef, chi in zip(b, members):
        if coef != 0:
            G += coef * chi.complex_table()[residues(ns, chi.q)]
    lhs = float(np.sum(np.abs(G) ** 2))
    rhs = float(ns.size) * float(np.sum(np.abs(b) ** 2))
    return SieveExperiment(x, y, Q, "unweighted", lhs, rhs)


def max_ratio_power_iteration(x: int, y: int, Q: int, table: SieveTable,
                              families: CharacterFamily, side: str,
                              iters: int = 200, seed: int = 0) -> float:
    """Largest primal (or dual) ratio via power iteration on the Gram operator.

    Both sides share their singular values, so the two estimates must agree;
    running them independently makes that an actual check rather than a
    tautology.
    """
    members = families.up_to(Q)
    smooth_n = smooth_numbers(table, x, y)
    tables = [chi.complex_table()[residues(smooth_n, chi.q)] for chi in members]
    Psi = float(smooth_n.size)
    rng = np.random.RandomState(seed)

    def forward(v):  # (M v)_chi = sum_n chi(n) v_n over smooth n
        return np.array([(tab * v).sum() for tab in tables])

    def adjoint(w):  # (M^H w)_n = sum_chi conj(chi(n)) w_chi
        out = np.zeros(smooth_n.size, dtype=np.complex128)
        for wc, tab in zip(w, tables):
            out += wc * np.conj(tab)
        return out

    if side == "primal":
        v = rng.standard_normal(smooth_n.size) + 1j * rng.standard_normal(smooth_n.size)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            u = adjoint(forward(v))
            v = u / np.linalg.norm(u)
        w = forward(v)
        return float(np.vdot(w, w).real / np.vdot(v, v).real / Psi)
    if side == "dual":
        v = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
        v /= np.linalg.norm(v)
        for _ in range(iters):
            # dual operator N = M^T: (N v)_n = sum_chi chi(n) v_chi
            u = np.zeros(smooth_n.size, dtype=np.complex128)
            for vc, tab in zip(v, tables):
                u += vc * tab
            w = np.array([(np.conj(tab) * u).sum() for tab in tables])
            v = w / np.linalg.norm(w)
        u = np.zeros(smooth_n.size, dtype=np.complex128)
        for vc, tab in zip(v, tables):
            u += vc * tab
        return float(np.vdot(u, u).real / np.vdot(v, v).real / Psi)
    raise DomainError(f"side must be 'primal' or 'dual', got {side!r}")


# ---------------------------------------------------------------------------
# eta classification


@dataclass
class EtaClass:
    """Non-principal chi mod q <= Q^2 with eta*Psi < |sum_{smooth n} chi(n)| <= 2*eta*Psi."""

    eta: float
    members: list[DirichletCharacter] = field(default_factory=list)
    sums: list[float] = field(default_factory=list)
    xi_star: list[DirichletCharacter] = field(default_factory=list)


def classify_eta(x: int, y: int, Q: int, table: SieveTable,
                 families: CharacterFamily | None = None, levels: int = 16,
                 threads: int = 1) -> list[EtaClass]:
    """Assign every non-principal character mod q <= Q^2 to its dyadic class.

    Characters whose smooth character sum is <= Psi * 2^-levels fall in no
    class.  xi_star collects the distinct primitive characters inducing the
    members of each class; when a family covering conductor Q^2 is supplied,
    xi_star reuses its member instances so callers can match by identity.
    """
    if families is not None and families.D < Q * Q:
        raise DomainError(f"family covers conductors <= {families.D}, need {Q * Q}")
    canonical = {}
    if families is not None:
        canonical = {chi: chi for chi in families.members}
    ns = smooth_numbers(table, x, y)
    Psi = float(ns.size)

    def class_rows(q: int):
        counts = np.bincount(residues(ns, q), minlength=q).astype(float)
        rows = []
        for chi in enumerate_characters(q):
            if chi.is_principal:
                continue
            S = abs(complex((chi.complex_table() * counts).sum()))
            k, thr = 1, Psi / 2.0
            while S <= thr and k <= levels:
                k += 1
                thr /= 2.0
            if k <= levels:  # S > Psi*2^-k and S <= Psi*2^-(k-1)
                rows.append((k, chi, S))
        return rows

    all_rows = ordered_map(class_rows, range(1, Q * Q + 1), threads)
    classes = [EtaClass(eta=2.0 ** -(k + 1)) for k in range(levels)]
    for rows in all_rows:
        for k, chi, S in rows:
            cl = classes[k - 1]
            cl.members.append(chi)
            cl.sums.append(S)
    for cl in classes:
        seen = set()
        for chi in cl.members:
            psi0 = decompose(chi)
            psi0 = canonical.get(psi0, psi0)
            if psi0 not in seen:
                seen.add(psi0)
                cl.xi_star.append(psi0)
    return classes


# ---------------------------------------------------------------------------
# exceptional-character detection


def detection_scale(x: int, y: int, B: float) -> float:
    """T = (u log u)^4 (log x)^B with u = log x/log y; u log u floored at 1."""
    u = math.log(x) / math.log(y)
    return max(u * math.log(u), 1.0) ** 4 * math.log(x) ** B if u > 1 else math.log(x) ** B


def refine_grid(grid: list[int], smooth: np.ndarray, T: float) -> list[int]:
    """Split grid steps until each holds few enough smooth numbers.

    smooth is the ascending y-smooth numbers (`smooth_numbers`), so
    Psi(t, y) is the count of them <= t.  Guarantees, for every step of
    length >= 2, that the smooth count inside it is at most Psi(X_j, y)/(2T);
    unit steps need no condition since every integer there is itself a grid
    point.  This realizes the 'eps small enough' requirement of the scan
    argument constructively.
    """
    out = list(grid)
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


def detect_exceptional(f: MultFnSpec, x: int, y: int, Q: int, B: float, eps: float,
                       table: SieveTable, families: CharacterFamily,
                       threads: int = 1) -> ExceptionalSet:
    """Primitive characters of conductor <= Q whose correlation with f is large.

    A character enters the set when |S_f(X_j, chi)| >= Psi(X_j, y)/(2T) at
    some point X_j of the (refined) dyadic grid over (x^{1/4}, x], with
    T = (u log u)^4 (log x)^B.  Near-misses within a factor 2 of the
    threshold are reported separately for diagnostics.  Each character's
    sums are one cumulative sum over the support of f, read at the last
    support point <= X_j.
    """
    if f.smooth_bound is None or f.smooth_bound > y:
        raise DomainError("f must be supported on y-smooth integers")
    if families.D < Q:
        raise DomainError(f"family covers conductors <= {families.D}, need {Q}")
    if x < 16:  # dyadic_partition's bound, checked before log x is taken
        raise DomainError(f"need x >= 16, got {x}")
    ns, vs = get_support(f, table, x)
    if float(np.max(np.abs(vs))) > 1 + 1e-9:
        raise DomainError("f must be 1-bounded")

    T = detection_scale(x, y, B)
    smooth = smooth_numbers(table, x, y)
    grid = refine_grid(dyadic_partition(x, T, eps), smooth, T)
    gx = np.array(grid, dtype=ns.dtype)  # as in refine_grid: no copy of ns or smooth
    thresholds = np.searchsorted(smooth, gx, side="right") / (2.0 * T)  # Psi(X_j, y)/(2T)
    at = np.searchsorted(ns, gx, side="right")  # csum[at[j]] sums n <= X_j
    members = families.up_to(Q)

    def scan(chi: DirichletCharacter):
        csum = np.zeros(ns.size + 1, dtype=np.complex128)
        np.cumsum(vs * np.conj(chi.complex_table())[residues(ns, chi.q)], out=csum[1:])
        svals = np.abs(csum[at])
        margins = svals / thresholds  # thresholds > 0: Psi(X_0, y) >= 2 always
        j = int(np.argmax(margins))
        return margins[j], ExceptionalWitness(chi, int(gx[j]), float(svals[j]),
                                              float(thresholds[j]))

    results = ordered_map(scan, members, threads)
    out = ExceptionalSet()
    for margin, wit in results:
        if margin >= 1.0:
            out.members.append(wit)
        elif margin >= 0.5:
            out.near_misses.append(wit)
    return out


def exceptional_counts(set_b: ExceptionalSet) -> tuple[int, float]:
    """(|Xi(B)|, sum over members of conductor^{-1/2})."""
    return len(set_b.members), set_b.weighted_count


def context_bound(x: int, B: float) -> float:
    """(log x)^{3B+13}: the theoretical ceiling reported alongside counts."""
    return math.log(x) ** (3 * B + 13)
