import math
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import alpha_saddle, character_sum, delta, delta_A, delta_xi, smooth_short_interval
from smoothap import multfn, sieve
from smoothap.characters import enumerate_characters, family_A, trivial_character
from smoothap.discrepancy import bv_average, discrepancy_record, verify_transfer_identity
from smoothap.errors import DomainError, SizingError
from smoothap.large_sieve import detect_exceptional
from smoothap.sieve import (X_MAX_CAP, dyadic_partition, psi, psi_coprime,
                            psi_progression, smooth_numbers, smooth_pieces)


def test_every_query_rejects_x_past_the_cap():
    # every public function of x raises before it allocates anything;
    # ls_primal, ls_dual, max_ratio_power_iteration and classify_eta take
    # the array smooth_numbers built
    f = multfn.smooth_indicator(5)
    chi = enumerate_characters(3)[1]
    fam = family_A(5)
    xi = [trivial_character()]
    queries = [
        lambda x: psi(x, 5),
        lambda x: psi_coprime(x, 5, 3),
        lambda x: psi_progression(x, 5, 1, 3),
        lambda x: smooth_numbers(x, 5),
        lambda x: smooth_short_interval(x, 5, 2),
        lambda x: multfn.evaluate(f, x),
        lambda x: multfn.get_support(f, x),
        lambda x: multfn.values_array(f, x),
        lambda x: character_sum(f, x, chi),
        lambda x: discrepancy_record(f, x, 7, 1, 1),
        lambda x: oracles.record(f, x, 7, 1, 1, xi=xi, D=3),
        lambda x: delta(f, x, 7, 1),
        lambda x: delta_xi(f, x, 7, 1, 1, xi),
        lambda x: delta_A(f, x, 7, 1, 1, 3),
        lambda x: bv_average(f, x, 3, 1, 1, xi),
        lambda x: verify_transfer_identity(f, x, 7, 1, 1, xi, 3),
        lambda x: detect_exceptional(f, x, 5, 5, 1.0, 0.5, fam),
    ]
    for x in (X_MAX_CAP + 1, 10**9):
        for i, query in enumerate(queries):
            tracemalloc.start()
            try:
                with pytest.raises(SizingError):
                    query(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16, (i, x, peak)  # raised before anything was allocated
    with pytest.raises(SizingError):
        smooth_short_interval(X_MAX_CAP, 5, 1)  # x + x/T is past the cap
    assert psi(10**7, 2) == 24  # 2^0..2^23


@pytest.mark.parametrize("x", [0, 1, 2, 15, 16, 10**4, 10**6])
def test_psi_walk_matches_lpf_count(x):
    lpf = oracles.lpf_sieve(10**6)
    r = math.isqrt(x)
    for y in (2, 3, 7, 100, r, r + 1, x, 2 * x):
        if y >= 2:
            want = int(np.count_nonzero(lpf[1 : x + 1] <= y))
            assert psi(x, y) == want, (x, y)


@pytest.mark.parametrize("x, y", [(0, 2), (1, 2), (16, 3), (16, 4), (16, 5),
                                  (10**4, 7), (10**4, 100), (10**4, 10**4),
                                  (65535, 40), (65536, 257), (65537, 65537),
                                  (10**5, 316), (10**5, 317), (10**6, 10**6)])
def test_smooth_pieces_and_prefix_match_lpf(x, y):
    mask = oracles.lpf_sieve(10**6)[: x + 1] <= y
    mask[0] = False
    want = np.flatnonzero(mask)
    pieces = [ns for ns, _ in smooth_pieces(x, y)]
    got = np.sort(np.concatenate(pieces))
    assert np.array_equal(got, want)  # each smooth n exactly once
    smooth = smooth_numbers(x, y)
    assert smooth.dtype == np.int32
    assert np.array_equal(smooth, want)  # ascending
    # Psi(t, y) as a count of smooth numbers <= t, at every t in 0..x
    pre = np.cumsum(mask.astype(np.int64))
    assert np.array_equal(np.searchsorted(smooth, np.arange(x + 1), side="right"), pre)


def test_smooth_numbers_equals_trial_division_at_the_old_fork():
    # x = 2^16 was where the bitmap builder switched from one walk to two; at
    # y >= sqrt(x) the walk takes its batched large-prime step, whose primes
    # psi counts without walking
    lpf = np.array([0] + [oracles.largest_prime_factor(n) for n in range(1, 65538)])
    for x in (65535, 65536, 65537):
        r = math.isqrt(x)
        for y in (r, r + 1, 1000, x):
            want = np.flatnonzero(lpf[1 : x + 1] <= y) + 1
            smooth = smooth_numbers(x, y)
            assert smooth.dtype == np.int32 and not smooth.flags.writeable
            assert np.array_equal(smooth, want), (x, y)


@pytest.mark.parametrize("off", [-1, 1])
def test_smooth_numbers_rejects_a_walk_that_disagrees_with_the_count(monkeypatch, off):
    # a count one short or one over raises; no partial set is returned
    psi_walked = sieve.psi
    monkeypatch.setattr(sieve, "psi", lambda x, y: psi_walked(x, y) + off)
    for x, y in ((1000, 7), (10**5, 400)):
        with pytest.raises(RuntimeError, match="Psi"):
            smooth_numbers(x, y)


def test_smooth_numbers_peak_bytes_per_point_at_low_density():
    # Psi(2e6, 20) = 11,368: a bitmap over 0..x alone would be 22 bytes a
    # point, and the rank-placed build peaked at 49
    x, y = 2_000_000, 20
    smooth_numbers(1000, 7)  # numpy's first-call caches
    tracemalloc.start()
    try:
        smooth = smooth_numbers(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert smooth.size == psi(x, y) == 11368
    assert peak < 16 * smooth.size, peak / smooth.size


def test_psi_fixed_points():
    assert psi(100, 5) == 34
    assert psi(10, 2) == 4  # {1, 2, 4, 8}
    for x in (1, 2, 17, 100, 9999):
        assert psi(x, x if x >= 2 else 2) == x


def test_psi_against_enumeration():
    for y in (2, 3, 5, 7, 20, 50):
        flags = oracles.smooth_flags(300, y)
        for x in (1, 7, 99, 100, 255, 300):
            assert psi(x, y) == oracles.psi_count(flags, x)


def test_psi_coprime():
    assert psi_coprime(100, 5, 3) == 15
    assert psi_coprime(100, 5, 30) == 1  # only n = 1
    for x, y in ((100, 5), (517, 7), (9999, 20)):
        assert psi_coprime(x, y, 1) == psi(x, y)


def test_psi_progression():
    assert psi_progression(100, 5, 1, 3) == 8
    flags = oracles.smooth_flags(100, 5)
    members = [n for n in range(1, 101) if flags[n] and n % 3 == 1]
    assert members == [1, 4, 10, 16, 25, 40, 64, 100]
    assert psi_progression(100, 5, 0, 1) == psi(100, 5)


def test_partition_and_coprime_decomposition():
    # y at and above sqrt(x) runs the batched large-prime step
    above_root = [(x, y) for x in (2000, 10**4)
                  for y in (math.isqrt(x), math.isqrt(x) + 1, x)]
    cases = [(q, x, y) for q in range(1, 31) for x, y in ((100, 5), (999, 7), (10**4, 20))]
    cases += [(q, x, y) for q in (1, 2, 7, 30, 210) for x, y in above_root]
    for q, x, y in cases:
        total = sum(psi_progression(x, y, a, q) for a in range(q))
        assert total == psi(x, y)
        coprime = sum(
            psi_progression(x, y, a, q)
            for a in range(q) if math.gcd(a, q) == 1
        )
        assert coprime == psi_coprime(x, y, q)


def test_psi_prefix_consistent():
    # Psi(t, y) read off the smooth numbers <= 1000 at t <= 1000, as the
    # exceptional scan reads it, equals the walked count
    smooth = smooth_numbers(1000, 7)
    for x in (0, 1, 10, 500, 1000):
        assert int(np.searchsorted(smooth, x, side="right")) == psi(x, 7)
    for x, y in ((-1, 7), (100, 1)):
        with pytest.raises(DomainError):
            smooth_numbers(x, y)


def test_alpha_saddle_residual():
    for x, y in ((100, 5), (10**6, 10**3), (10**6, 10), (50, 50), (2, 2)):
        a = alpha_saddle(x, y)
        primes = [p for p in range(2, y + 1) if oracles.is_prime(p)]
        resid = sum(math.log(p) / (p**a - 1) for p in primes) - math.log(x)
        assert abs(resid) <= 1e-6


def test_alpha_saddle_highprec_oracle():
    a = alpha_saddle(100, 5)
    ref = float(oracles.alpha_saddle_highprec(100, 5))
    assert abs(a - ref) <= 1e-9


def test_alpha_saddle_monotonicity():
    assert alpha_saddle(10**6, 10**3) < alpha_saddle(10**6, 10**4)
    # larger x at fixed y pushes alpha down
    assert alpha_saddle(10**4, 50) > alpha_saddle(10**6, 50)
    with pytest.raises(DomainError):
        alpha_saddle(100, 1)


def test_smooth_short_interval():
    # T = 1: a full dyadic block
    assert smooth_short_interval(100, 5, 1) == psi(200, 5) - psi(100, 5)
    flags = oracles.smooth_flags(125, 5)
    expect = sum(1 for n in range(101, 126) if flags[n])
    assert smooth_short_interval(100, 5, 4) == expect
    for x, T in ((100, 3), (1000, 7), (4000, 2)):
        assert smooth_short_interval(x, 20, T) >= 0


def test_dyadic_partition_geometric():
    assert dyadic_partition(16, 1, 1).tolist() == [2, 4, 8, 16]


def test_dyadic_partition_step_bounds():
    for x, T, eps in ((10**4, 3, 0.5), (10**5, 10, 0.25), (10**6, 10, 0.5)):
        pts = dyadic_partition(x, T, eps)
        assert pts[0] == math.ceil(x**0.25)
        assert pts[-1] == x
        assert all(b > a for a, b in zip(pts, pts[1:]))
        for j, (a, b) in enumerate(zip(pts, pts[1:])):
            step = b - a
            target = eps * a / T
            if target >= 1.0 and j < len(pts) - 2:
                assert 0.5 * target <= step <= 2.0 * target
            else:
                assert step >= 1


def test_dyadic_partition_count():
    x, T, eps = 10**6, 10, 0.5
    pts = dyadic_partition(x, T, eps)
    J = len(pts) - 1
    nominal = (T / eps) * math.log(x**0.75)
    assert nominal / 4 <= J <= nominal * 4


def test_dyadic_partition_equals_the_point_by_point_loop():
    unit_only = [(500, 600, 1.0), (2000, 10**4, 0.5)]
    merged = [(777, 2, 0.7), (5000, 7.5, 0.9), (10**5, 10, 0.25)]
    rng = random.Random(0)
    drawn = [(rng.randrange(16, 10 ** rng.randrange(2, 7)),
              rng.choice([1.0, rng.uniform(1, 50), 10 ** rng.uniform(0, 3.5)]),
              rng.choice([1.0, 0.5, rng.uniform(1e-3, 1)])) for _ in range(300)]
    for x, T, eps in [(16, 1, 1)] + unit_only + merged + drawn:
        want = oracles.dyadic_partition_point_by_point(x, T, eps)
        assert dyadic_partition(x, T, eps).tolist() == want, (x, T, eps)
        if (x, T, eps) in unit_only:
            assert want == list(range(want[0], x + 1))
        if (x, T, eps) in merged:  # the final step is longer than its target
            assert want[-1] - want[-2] > max(1, int(eps * want[-2] / T))


def test_dyadic_partition_sizing_guard():
    with pytest.raises(SizingError):
        dyadic_partition(49_000_000, 10**9, 1.0)
