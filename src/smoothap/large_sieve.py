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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import residues
from .characters import CharacterFamily, DirichletCharacter, decompose, enumerate_characters
from .discrepancy import ExceptionalSet, ExceptionalWitness, residue_sums
from .errors import DomainError
from .multfn import MultFnSpec, get_support
from .sieve import SmoothSet, dyadic_partition, smooth_numbers
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
    if x < 2:
        raise DomainError(f"the unweighted range takes log log x, so needs x >= 2, got {x}")
    return max(1, int(min(y**c, math.exp(c * math.log(x) / math.log(math.log(x))))))


def _by_modulus(chars: list[DirichletCharacter]) -> list[list[DirichletCharacter]]:
    """The runs of equal modulus in chars (one run per modulus in family order)."""
    return [list(run) for _, run in itertools.groupby(chars, key=lambda chi: chi.q)]


def _character_sums(ns: np.ndarray, a: np.ndarray, groups: list[list[DirichletCharacter]],
                    threads: int = 1) -> np.ndarray:
    """(M a)_chi = sum_i a[i] chi(ns[i]) over the characters of groups (`_by_modulus`).

    Each modulus costs one `residue_sums` pass over ns and one length-q dot
    product per character; the moduli are fanned out over `ordered_map`.
    """
    def modulus_sums(chars):
        rs = residue_sums(ns, a, chars[0].q)
        return [complex((chi.complex_table() * rs).sum()) for chi in chars]

    rows = ordered_map(modulus_sums, groups, threads)
    return np.array([S for row in rows for S in row], dtype=np.complex128)


def _character_combination(ns: np.ndarray, b: np.ndarray,
                           groups: list[list[DirichletCharacter]]) -> np.ndarray:
    """(M^T b)_i = sum_chi b_chi chi(ns[i]), the transpose of `_character_sums`.

    b is indexed by the characters of groups in order.  Each modulus builds
    one length-q row sum_chi b_chi chi(r) and gathers it once at ns mod q.
    """
    out = np.zeros(ns.size, dtype=np.complex128)
    coefs = iter(b)
    for chars in groups:  # zip stops at the end of chars, taking one coef per chi
        row = sum(coef * chi.complex_table() for chi, coef in zip(chars, coefs))
        out += row[residues(ns, chars[0].q)]
    return out


def _nonzero_coefficients(v: np.ndarray, n: int, what: str) -> np.ndarray:
    """v as a complex vector of length n with some nonzero entry, else DomainError."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (n,):
        raise DomainError(f"need one coefficient per {what} ({n}), got shape {v.shape}")
    if not np.any(v):
        raise DomainError("all coefficients are zero, so the ratio is undefined")
    return v


def ls_primal(smooth: SmoothSet, Q: int, a: np.ndarray, weight_mode: str,
              families: CharacterFamily, threads: int = 1) -> SieveExperiment:
    """Primal form: lhs = sum_{q<=Q} w(q) sum*_chi |sum_n a_n chi(n)|^2.

    a[i] is the coefficient at the i-th y-smooth n <= x in ascending order
    (smooth.ns), so a has length Psi(x,y) and no other support.
    """
    ns = smooth.ns
    a = _nonzero_coefficients(a, ns.size, "y-smooth n <= x")
    if families.D < Q:
        raise DomainError(f"family covers conductors <= {families.D}, need {Q}")
    groups = _by_modulus(families.up_to(Q))
    sums = iter(_character_sums(ns, a, groups, threads).tolist())
    lhs = 0.0
    for chars in groups:
        w = 1.0 if weight_mode == "unweighted" else 1.0 / math.sqrt(chars[0].q)
        sub = 0.0
        for T in itertools.islice(sums, len(chars)):
            sub += w * (T.real * T.real + T.imag * T.imag)
        lhs += sub
    rhs = float(ns.size) * float(np.sum(np.abs(a) ** 2))
    return SieveExperiment(smooth.x, smooth.y, Q, weight_mode, lhs, rhs)


def ls_dual(smooth: SmoothSet, Q: int, b: np.ndarray,
            families: CharacterFamily) -> SieveExperiment:
    """Dual form: lhs = sum_{smooth n<=x} |sum_{q<=Q} sum*_chi b_chi chi(n)|^2.

    b is indexed by families.up_to(Q) in family order.
    """
    members = families.up_to(Q)
    b = _nonzero_coefficients(b, len(members), "primitive character")
    ns = smooth.ns
    G = _character_combination(ns, b, _by_modulus(members))
    lhs = float(np.sum(np.abs(G) ** 2))
    rhs = float(ns.size) * float(np.sum(np.abs(b) ** 2))
    return SieveExperiment(smooth.x, smooth.y, Q, "unweighted", lhs, rhs)


def max_ratio_power_iteration(smooth: SmoothSet, Q: int,
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
    groups = _by_modulus(members)
    ns = smooth.ns
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


# ---------------------------------------------------------------------------
# eta classification


@dataclass
class EtaClass:
    """Non-principal chi mod q <= Q^2 with eta*Psi < |sum_{smooth n} chi(n)| <= 2*eta*Psi."""

    eta: float
    members: list[DirichletCharacter] = field(default_factory=list)
    sums: list[float] = field(default_factory=list)
    xi_star: list[DirichletCharacter] = field(default_factory=list)


def classify_eta(smooth: SmoothSet, Q: int,
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
    ns = smooth.ns
    Psi = float(ns.size)
    chars = [chi for q in range(1, Q * Q + 1) for chi in enumerate_characters(q)
             if not chi.is_principal]
    sums = _character_sums(ns, np.ones(ns.size, dtype=np.complex128), _by_modulus(chars))
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
# exceptional-character detection


def detection_scale(x: int, y: int, B: float) -> float:
    """T = (u log u)^4 (log x)^B with u = log x/log y; u log u floored at 1."""
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    u = math.log(x) / math.log(y)
    try:
        T = max(u * math.log(u), 1.0) ** 4 * math.log(x) ** B if u > 1 else math.log(x) ** B
    except OverflowError:
        T = math.inf
    if not 0.0 < T < math.inf:
        raise DomainError(f"T = {T} at x={x}, y={y}, B={B} is not a positive finite float")
    return T


def refine_grid(grid: list[int], smooth: np.ndarray, T: float) -> list[int]:
    """Split grid steps until each holds few enough smooth numbers.

    smooth is the ascending y-smooth numbers (`smooth_numbers(...).ns`), so
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


# perfbench/tracer.py reads families at position 7 or as the keyword
# families, so every call in the package passes families by keyword
def detect_exceptional(f: MultFnSpec, x: int, y: int, Q: int, B: float, eps: float,
                       families: CharacterFamily, threads: int = 1) -> ExceptionalSet:
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
    ns, vs = get_support(f, x=x)
    if float(np.max(np.abs(vs))) > 1 + 1e-9:
        raise DomainError("f must be 1-bounded")

    T = detection_scale(x, y, B)
    smooth = smooth_numbers(x, y).ns
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


def context_bound(x: int, B: float) -> float:
    """(log x)^{3B+13}: the theoretical ceiling reported alongside counts."""
    try:
        return math.log(x) ** (3 * B + 13)
    except OverflowError:
        raise DomainError(f"(log x)^(3B+13) overflows a float at x={x}, B={B}") from None
