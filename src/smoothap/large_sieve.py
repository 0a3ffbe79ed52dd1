"""Large-sieve experiments over smooth-supported coefficients.

The inequality under study bounds

    sum_{q<=Q} w(q) sum*_{chi mod q} |sum_{n<=x, P(n)<=y} a_n chi(n)|^2

(sum* over primitive characters, w = 1 or q^{-1/2}) by a constant times
Psi(x,y) * sum |a_n|^2.  This module evaluates both sides of the primal
form, unweighted or weighted, and detects exceptional characters by a
dyadic scan over scales.  The dual form, the largest ratio by power
iteration and the dyadic classes of characters by the size of their
smooth character sum are the test suite's references (tests/oracles.py).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import chunks, residues
from .characters import CharacterFamily, DirichletCharacter, by_modulus, complex_tables
from .discrepancy import residue_sums
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
    if not math.isfinite(c):
        raise DomainError(f"need a finite exponent c, got {c}")
    if not weighted and x < 2:
        raise DomainError(f"the unweighted range takes log log x, so needs x >= 2, got {x}")
    try:
        if weighted:
            return max(1, int(x**c))
        return max(1, int(min(y**c, math.exp(c * math.log(x) / math.log(math.log(x))))))
    except OverflowError:
        raise DomainError(f"the modulus range overflows a float at x={x}, y={y}, "
                          f"c={c}") from None


def _character_sums(ns: np.ndarray, a: np.ndarray,
                    groups: list[list[DirichletCharacter]]) -> np.ndarray:
    """(M a)_chi = sum_i a[i] chi(ns[i]) over the characters of groups (`by_modulus`).

    Each modulus costs one `complex_tables` call, dropped with the modulus,
    one `residue_sums` pass over ns and one length-q dot product per character.
    """
    sums = []
    for chars in groups:
        rs = residue_sums(ns, a, chars[0].q)
        sums += [complex((tab * rs).sum()) for tab in complex_tables(chars)]
    return np.array(sums, dtype=np.complex128)


def _nonzero_coefficients(v: np.ndarray, n: int, what: str) -> np.ndarray:
    """v as a complex vector of length n with some nonzero entry, else DomainError."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (n,):
        raise DomainError(f"need one coefficient per {what} ({n}), got shape {v.shape}")
    if not np.any(v):
        raise DomainError("all coefficients are zero, so the ratio is undefined")
    return v


def ls_primal(smooth: SmoothSet, Q: int, a: np.ndarray, weight_mode: str,
              families: CharacterFamily) -> SieveExperiment:
    """Primal form: lhs = sum_{q<=Q} w(q) sum*_chi |sum_n a_n chi(n)|^2.

    a[i] is the coefficient at the i-th y-smooth n <= x in ascending order
    (smooth.ns), so a has length Psi(x,y) and no other support.
    """
    ns = smooth.ns
    a = _nonzero_coefficients(a, ns.size, "y-smooth n <= x")
    if families.D < Q:
        raise DomainError(f"family covers conductors <= {families.D}, need {Q}")
    groups = by_modulus(families.up_to(Q))
    sums = iter(_character_sums(ns, a, groups).tolist())
    lhs = 0.0
    for chars in groups:
        w = 1.0 if weight_mode == "unweighted" else 1.0 / math.sqrt(chars[0].q)
        sub = 0.0
        for T in itertools.islice(sums, len(chars)):
            sub += w * (T.real * T.real + T.imag * T.imag)
        lhs += sub
    rhs = float(ns.size) * float(np.sum(np.abs(a) ** 2))
    return SieveExperiment(smooth.x, smooth.y, Q, weight_mode, lhs, rhs)


# ---------------------------------------------------------------------------
# exceptional-character detection


@dataclass
class ExceptionalWitness:
    """A scanned character, the grid point X of its largest margin, |S_f(X, chi)|
    there and the threshold Psi(X, y)/(2T) it was compared with."""

    character: DirichletCharacter
    X: int
    value: float
    threshold: float


@dataclass
class ExceptionalSet:
    """The characters `detect_exceptional` marks, with their witnesses."""

    members: list[ExceptionalWitness] = field(default_factory=list)
    near_misses: list[ExceptionalWitness] = field(default_factory=list)

    @property
    def weighted_count(self) -> float:
        """sum of conductor^{-1/2} over members, added in member order."""
        weighted = 0.0
        for w in self.members:
            weighted += 1.0 / math.sqrt(w.character.q)
        return weighted


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


def refine_grid(grid: np.ndarray, smooth: np.ndarray, T: float) -> np.ndarray:
    """Split grid steps until each holds few enough smooth numbers.

    smooth is the ascending y-smooth numbers (`smooth_numbers(...).ns`), so
    Psi(t, y) is the count of them <= t.  Guarantees, for every step of
    length >= 2, that the smooth count inside it is at most Psi(X_j, y)/(2T);
    unit steps need no condition since every integer there is itself a grid
    point.  This realizes the 'eps small enough' requirement of the scan
    argument constructively.  A step's fate depends only on its two ends, so
    each round bisects every failing step at once; the points are those of
    bisecting one step at a time, left to right, returned as a new int64 array.
    """
    out = np.array(grid, dtype=np.int64)
    # needles of smooth's dtype: any other makes numpy copy smooth to it
    counts = np.searchsorted(smooth, out.astype(smooth.dtype), side="right")
    while True:
        fail = np.flatnonzero((out[1:] - out[:-1] >= 2)
                              & (counts[1:] - counts[:-1] > counts[:-1] / (2.0 * T)))
        if not fail.size:
            return out
        mids = (out[fail] + out[fail + 1]) // 2
        out = np.insert(out, fail + 1, mids)
        counts = np.insert(counts, fail + 1,
                           np.searchsorted(smooth, mids.astype(smooth.dtype), side="right"))


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
    support point <= X_j.  The scan runs one modulus at a time (and fans
    out over moduli), and within a modulus one chunk of the support at a
    time (`chunks`): the residues of the chunk mod q once, then for each
    character a gather of its table, a product with f and a cumulative
    sum continued from that character's carry, read at the grid points
    whose prefix ends in the chunk.  The buffers are chunk-length.
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
    # needles of ns's dtype, as in refine_grid: no copy of ns or smooth
    gx = refine_grid(dyadic_partition(x, T, eps), smooth, T).astype(ns.dtype)
    at = np.searchsorted(ns, gx, side="right")  # S(X_j) sums the first at[j] terms
    # |S| is the same at grid points of one support prefix and the thresholds
    # never decrease, so each margin's max is at the first such point
    first = np.flatnonzero(np.diff(at, prepend=-1))
    gx, at = gx[first], at[first]
    thresholds = np.searchsorted(smooth, gx, side="right") / (2.0 * T)  # Psi(X_j, y)/(2T)
    del smooth
    # the grid points whose prefix ends in each chunk, as slices of at; at
    # is strictly increasing, and a point with at = 0 (S = 0) is in none
    bounds = [(lo, hi, *np.searchsorted(at, [lo + 1, hi + 1]).tolist())
              for lo, hi in chunks(ns.size)]

    def scan(chars: list[DirichletCharacter]):
        """(margin, witness) of each character of one modulus, in order."""
        # each table is read once, so none is cached on the characters: they
        # are built afresh, conjugated in place and dropped with the modulus
        tables = complex_tables(chars)
        np.conj(tables, out=tables)
        carry = [None] * len(chars)  # S over the chunks before this one
        # (margin, j, |S|) of each first max so far, the one np.argmax over
        # the grid gives; a point with at = 0 has S = 0, so margin 0, and
        # -1 lies below every margin
        best = [(0.0 if at[0] == 0 else -1.0, 0, 0.0)] * len(chars)
        terms = np.empty(bounds[0][1], dtype=np.complex128)  # the first chunk is the longest
        csum = np.empty_like(terms)
        for lo, hi, j0, j1 in bounds:
            # intp indices and mode="clip" (r < q, so nothing is clipped) spare
            # np.take a conversion of r and a buffered copy of its output
            r = residues(ns[lo:hi], chars[0].q).astype(np.intp)
            v, t, c = vs[lo:hi], terms[:hi - lo], csum[:hi - lo]
            ends = at[j0:j1] - (lo + 1)
            for i, tab in enumerate(tables):
                # the product goes to a buffer apart from its operands: in
                # place, numpy multiplies one complex element by another path,
                # which rounds differently
                np.take(tab, r, out=c, mode="clip")
                np.multiply(v, c, out=t)
                if lo:
                    t[0] += carry[i]  # the next step of the one sequential sum
                np.cumsum(t, out=c)
                carry[i] = c[-1]
                if j0 == j1:
                    continue
                svals = np.abs(c[ends])
                margins = svals / thresholds[j0:j1]  # thresholds > 0: Psi(X_0, y) >= 2
                k = int(np.argmax(margins))
                if margins[k] > best[i][0]:
                    best[i] = (float(margins[k]), j0 + k, float(svals[k]))
        return [(m, ExceptionalWitness(chi, int(gx[j]), s, float(thresholds[j])))
                for chi, (m, j, s) in zip(chars, best)]

    # x=2e6, y=126, Q=40, fanned out per modulus: 2 threads 0.55 -> 0.42 s and
    # 0.58 -> 0.46 s (medians), won 8/10 and 9/10 pairs, +8 MB
    results = ordered_map(scan, by_modulus(families.up_to(Q)), threads)
    out = ExceptionalSet()
    for margin, wit in itertools.chain.from_iterable(results):
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
