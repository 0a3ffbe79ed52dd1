import math
import tracemalloc

import numpy as np
import pytest

import oracles
from smoothap import multfn
from smoothap.characters import decompose, enumerate_characters, family_A
from smoothap.discrepancy import character_sum
from smoothap.errors import DomainError
from smoothap.large_sieve import (_by_modulus, _character_combination, _character_sums,
                                  classify_eta, context_bound, detect_exceptional,
                                  detection_scale, ls_dual, ls_primal,
                                  max_ratio_power_iteration, refine_grid, modulus_range_Q)
from smoothap.multfn import values_array
from smoothap.sieve import dyadic_partition, psi, smooth_numbers


def ones_vector(x, y):
    return np.ones(psi(x, y), dtype=np.complex128)


def dense_prefix(x, y):
    """P[t] = Psi(t, y) for 0 <= t <= x, from the dense largest-prime-factor sieve."""
    smooth = oracles.lpf_sieve(x) <= y
    smooth[0] = False
    return np.cumsum(smooth, dtype=np.int64)


def test_primal_trivial_character_only():
    fam = family_A(1)
    a = ones_vector(10**4, 20)
    exp = ls_primal(smooth_numbers(10**4, 20), 1, a, "unweighted", fam)
    P = psi(10**4, 20)
    assert exp.lhs == pytest.approx(P * P)
    assert exp.rhs == pytest.approx(P * P)
    assert exp.ratio == pytest.approx(1.0)


def test_primal_sharpness_all_ones():
    fam = family_A(25)
    for x, y, Q in ((10**4, 20, 10), (5000, 50, 25), (2000, 7, 5)):
        a = ones_vector(x, y)
        exp = ls_primal(smooth_numbers(x, y), Q, a, "unweighted", fam)
        assert exp.ratio >= 1.0  # the q = 1 term alone contributes Psi^2


def test_primal_rejects_non_smooth_support():
    # a is indexed by the smooth numbers, so a non-smooth n has no slot: a
    # vector over 0..x (here nonzero at 14, not 5-smooth) is the wrong length
    x, y = 10**4, 5
    P = psi(x, y)
    smooth = smooth_numbers(x, y)
    a = np.zeros(x + 1, dtype=np.complex128)
    a[14] = 1.0
    for bad in (a, np.ones(P - 1), np.ones(P + 1), np.ones((P, 1))):
        with pytest.raises(DomainError):
            ls_primal(smooth, 3, bad, "unweighted", family_A(3))
    assert ls_primal(smooth, 3, np.ones(P), "unweighted", family_A(3)).ratio >= 1


def test_weighted_dominated_by_unweighted():
    fam = family_A(12)
    rng = np.random.RandomState(0)
    x, y = 4000, 20
    a = rng.choice([-1.0, 1.0], size=psi(x, y)).astype(np.complex128)
    smooth = smooth_numbers(x, y)
    for Q in (1, 5, 12):
        unw = ls_primal(smooth, Q, a, "unweighted", fam)
        wgt = ls_primal(smooth, Q, a, "sqrt", fam)
        assert wgt.rhs == unw.rhs
        if Q == 1:
            assert wgt.lhs == pytest.approx(unw.lhs)  # w(1) = 1
        else:
            assert wgt.lhs < unw.lhs


def test_dual_single_trivial_coefficient():
    fam = family_A(8)
    members = fam.up_to(8)
    b = np.zeros(len(members), dtype=np.complex128)
    b[0] = 2.0 - 1.0j  # the modulus-1 character
    assert members[0].q == 1
    exp = ls_dual(smooth_numbers(10**4, 20), 8, b, fam)
    assert exp.ratio == pytest.approx(1.0)


def test_primal_dual_norms_agree():
    for x, y, Q in ((2000, 20, 8), (1500, 7, 6)):
        fam = family_A(Q)
        smooth = smooth_numbers(x, y)
        r1 = max_ratio_power_iteration(smooth, Q, fam, "primal", iters=200, seed=1)
        r2 = max_ratio_power_iteration(smooth, Q, fam, "dual", iters=200, seed=2)
        assert abs(r1 - r2) <= 1e-4


CHARACTER_SUM_GRID = ((10**4, 20, 1), (5000, 50, 12), (3000, 7, 9))


@pytest.mark.parametrize("x,y,Q", CHARACTER_SUM_GRID)
def test_character_sums_and_combination_match_dense_gather(x, y, Q):
    ns = smooth_numbers(x, y).ns
    members = family_A(Q).members
    M = oracles.dense_character_matrix(ns, members)
    rng = np.random.RandomState(x + Q)
    a = rng.standard_normal(ns.size) + 1j * rng.standard_normal(ns.size)
    b = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
    groups = _by_modulus(members)
    for got, want in ((_character_sums(ns, a, groups), M @ a),
                      (_character_sums(ns, a, groups, threads=2), M @ a),
                      (_character_combination(ns, b, groups), M.T @ b)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("x,y,Q", CHARACTER_SUM_GRID)
def test_character_combination_is_the_transpose(x, y, Q):
    # sum_chi b_chi (M a)_chi = sum_n a_n (M^T b)_n, a bilinear form (no conjugate)
    ns = smooth_numbers(x, y).ns
    members = family_A(Q).members
    groups = _by_modulus(members)
    rng = np.random.RandomState(Q)
    a = rng.standard_normal(ns.size) + 1j * rng.standard_normal(ns.size)
    b = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
    lhs = np.sum(b * _character_sums(ns, a, groups))
    rhs = np.sum(a * _character_combination(ns, b, groups))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_power_iteration_holds_no_characters_by_points_matrix():
    # the dense route kept one complex row of length Psi per member (6.8 MB here)
    x, y, Q = 10**5, 50, 15
    fam = family_A(Q)
    for chi in fam.members:
        chi.complex_table()  # cached: not this call's memory
    smooth = smooth_numbers(x, y)
    tracemalloc.start()
    try:
        max_ratio_power_iteration(smooth, Q, fam, "primal", iters=3)
        max_ratio_power_iteration(smooth, Q, fam, "dual", iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


def test_all_zero_coefficients_are_a_domain_error():
    fam = family_A(6)
    P = psi(2000, 20)
    with pytest.raises(DomainError):
        ls_primal(smooth_numbers(2000, 20), 6, np.zeros(P), "unweighted", fam)
    with pytest.raises(DomainError):
        ls_dual(smooth_numbers(2000, 20), 6, np.zeros(len(fam.up_to(6))), fam)


def test_modulus_range_Q_modes():
    assert modulus_range_Q(10**6, 10**3) >= 1
    assert modulus_range_Q(10**6, 10**3, weighted=True) == int(10 ** (6 * 0.2))


def test_classify_eta_brute_force():
    x, y, Q = 10**4, 20, 5
    classes = classify_eta(smooth_numbers(x, y), Q, levels=12)
    P = psi(x, y)
    ns = np.flatnonzero(np.array(oracles.smooth_flags(x, y)))
    # brute-force scan of every non-principal character mod q <= Q^2
    assigned = {}
    for q in range(1, Q * Q + 1):
        for chi in enumerate_characters(q):
            if chi.is_principal:
                continue
            S = abs(complex(chi.complex_table()[ns % q].sum()))
            for k in range(1, 13):
                if P * 2.0**-k < S <= P * 2.0 ** -(k - 1):
                    assigned[(q, chi.rank)] = k
                    break
    got = {}
    for k, cl in enumerate(classes, start=1):
        assert cl.eta == 2.0**-k
        for chi in cl.members:
            got[(chi.q, chi.rank)] = k
    assert got == assigned


def test_classify_eta_partition_and_xi_star():
    classes = classify_eta(smooth_numbers(10**4, 20), 4, levels=10)
    seen = set()
    for cl in classes:
        for chi in cl.members:
            key = (chi.q, chi.rank)
            assert key not in seen  # disjoint classes
            seen.add(key)
        for chi in cl.members:
            assert decompose(chi) in cl.xi_star
        for psi0 in cl.xi_star:
            assert psi0.primitive


def test_refine_grid_controls_smooth_increments():
    x, y, B = 10**4, 50, 1.0
    T = detection_scale(x, y, B)
    prefix = dense_prefix(x, y)
    grid = refine_grid(dyadic_partition(x, T, 0.5), smooth_numbers(x, y).ns, T)
    assert type(grid) is list
    for a, b in zip(grid, grid[1:]):
        if b - a >= 2:
            assert prefix[b] - prefix[a] <= prefix[a] / (2 * T)


def test_detect_exceptional_finds_plants():
    fams = family_A(20)
    x, y, Q, B = 10**4, 50, 20, 1.0
    for psi0 in fams.members[:12]:
        f = multfn.character_twist(psi0, y)
        found = detect_exceptional(f, x, y, Q, B, 0.5, fams)
        assert psi0 in [w.character for w in found.members]


def test_detect_exceptional_witnesses_recompute():
    fams = family_A(20)
    x, y, Q, B = 10**4, 50, 20, 1.0
    f = multfn.smooth_indicator(y)
    found = detect_exceptional(f, x, y, Q, B, 0.5, fams)
    assert trivial_rank_present(found)
    for w in found.members[:10]:
        fresh = abs(character_sum(f, w.X, w.character))
        assert fresh == pytest.approx(w.value, abs=1e-9)
        assert fresh >= w.threshold - 1e-9


def trivial_rank_present(found):
    return any(w.character.q == 1 for w in found.members)


def test_detect_exceptional_superset_of_full_scan():
    fams = family_A(20)
    x, y, Q, B = 10**4, 50, 20, 1.0
    T = detection_scale(x, y, B)
    prefix = dense_prefix(x, y)
    x0 = math.ceil(x**0.25)
    for f in (multfn.smooth_indicator(y), multfn.random_unit_circle(5, smooth_bound=y),
              multfn.moebius_smooth(y)):
        found = detect_exceptional(f, x, y, Q, B, 0.5, fams)
        got = {(w.character.q, w.character.rank) for w in found.members}
        fv = values_array(f, x)
        for chi in fams.members:
            terms = fv * np.conj(chi.complex_table())[np.arange(x + 1) % chi.q]
            csum = np.abs(np.cumsum(terms))
            thresholds = prefix / T
            hit = np.any(csum[x0 + 1 : x + 1] >= thresholds[x0 + 1 : x + 1])
            if bool(hit):  # oracle threshold Psi/T over every integer X
                assert (chi.q, chi.rank) in got


def dense_scan_oracle(f, x, y, Q, B, eps, fams):
    """(members, near_misses) from one dense cumulative sum over 0..x per character."""
    T = detection_scale(x, y, B)
    prefix = dense_prefix(x, y)
    gx = np.array(refine_grid(dyadic_partition(x, T, eps), smooth_numbers(x, y).ns, T),
                  dtype=np.int64)
    thresholds = prefix[gx] / (2.0 * T)
    fv = values_array(f, x)
    members, near = [], []
    for chi in fams.up_to(Q):
        terms = fv * np.conj(chi.complex_table())[np.arange(x + 1) % chi.q]
        svals = np.abs(np.cumsum(terms)[gx])
        margins = svals / thresholds
        j = int(np.argmax(margins))
        row = (chi.q, chi.rank, int(gx[j]), float(svals[j]), float(thresholds[j]))
        if margins[j] >= 1.0:
            members.append(row)
        elif margins[j] >= 0.5:
            near.append(row)
    return members, near


@pytest.mark.parametrize("B", [1.0, -1.0])  # B = -1 raises the thresholds
@pytest.mark.parametrize("name", ["smooth_indicator", "moebius_smooth", "random_unit",
                                  "twist"])
def test_detect_exceptional_support_scan_matches_dense_scan(name, B):
    fams = family_A(20)
    x, y, Q = 10**4, 50, 20
    f = {"smooth_indicator": lambda: multfn.smooth_indicator(y),
         "moebius_smooth": lambda: multfn.moebius_smooth(y),
         "random_unit": lambda: multfn.random_unit_circle(5, smooth_bound=y),
         "twist": lambda: multfn.character_twist(fams.members[7], y)}[name]()
    # most grid points are not y-smooth, so the scan reads the sum at the
    # last support point below them
    assert psi(x, y) < x // 4
    found = detect_exceptional(f, x, y, Q, B, 0.5, fams)
    members, near = dense_scan_oracle(f, x, y, Q, B, 0.5, fams)
    assert members and (near or B > 0)
    for wits, rows in ((found.members, members), (found.near_misses, near)):
        got = [(w.character.q, w.character.rank, w.X, w.value, w.threshold) for w in wits]
        assert [g[:3] + g[4:] for g in got] == [r[:3] + r[4:] for r in rows]
        for g, r in zip(got, rows):
            if name in ("smooth_indicator", "moebius_smooth"):
                assert g[3] == r[3]  # real f: every product is exact
            else:
                assert g[3] == pytest.approx(r[3], rel=1e-12)


@pytest.mark.parametrize("x", [0, 15])
def test_detect_exceptional_rejects_tiny_x(x):
    with pytest.raises(DomainError):
        detect_exceptional(multfn.smooth_indicator(50), x, 50, 5, 1.0, 0.5,
                           family_A(5))


def test_detect_exceptional_degenerate_function():
    # the all-zero oracle is the indicator of n = 1 (f(1) = 1 is forced by
    # multiplicativity), so every character sum is exactly the degenerate
    # n = 1 term; no witness can show correlation beyond it
    f = multfn.MultFnSpec("indicator-of-one", lambda p, k: 0.0, smooth_bound=50)
    found = detect_exceptional(f, 10**4, 50, 20, 1.0, 0.5, family_A(20))
    for w in found.members:
        assert w.value == pytest.approx(1.0)


def test_detect_exceptional_requires_smooth_support():
    with pytest.raises(DomainError):
        detect_exceptional(multfn.one(), 10**4, 50, 10, 1.0, 0.5,
                           family_A(10))


def test_exceptional_counts():
    from smoothap.discrepancy import ExceptionalSet
    from smoothap.characters import trivial_character
    empty = ExceptionalSet(members=[])
    assert (len(empty.members), empty.weighted_count) == (0, 0.0)
    xi = ExceptionalSet.from_characters([trivial_character()])
    assert (len(xi.members), xi.weighted_count) == (1, 1.0)
    assert context_bound(10**4, 1.0) == pytest.approx(math.log(10**4) ** 16)


def test_detection_scale_guard():
    # u <= e region: the (u log u)^4 factor is floored at 1
    assert detection_scale(100, 100, 0.0) == 1.0
    assert detection_scale(10**4, 10, 1.0) > detection_scale(10**4, 100, 1.0)


def test_classify_eta_uses_family_instances():
    fam = family_A(16)
    classes = classify_eta(smooth_numbers(10**4, 20), 4, families=fam, levels=10)
    members = set(fam.members)
    for cl in classes:
        for psi0 in cl.xi_star:
            assert any(psi0 is m for m in members)
