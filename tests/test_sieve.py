import math
import tracemalloc

import numpy as np
import pytest

import oracles
from smoothap.errors import DomainError, RangeError, SizingError
from smoothap.sieve import (X_MAX_CAP, SieveTable, alpha_saddle, dyadic_partition,
                            psi, psi_coprime, psi_progression, smooth_numbers,
                            smooth_pieces, smooth_short_interval)


def test_sieve_table_rejects_bad_sizes():
    for x_max in (0, X_MAX_CAP + 1, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(SizingError):
                SieveTable(x_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, peak  # raised before anything was allocated
    t = SieveTable(X_MAX_CAP)
    assert vars(t) == {"x_max": X_MAX_CAP, "_support": None}
    assert psi(SieveTable(10**7), 10**7, 2) == 24  # 2^0..2^23


@pytest.mark.parametrize("x", [0, 1, 2, 15, 16, 10**4, 10**6])
def test_psi_walk_matches_lpf_count(table_1e6, x):
    lpf = oracles.lpf_sieve(10**6)
    r = math.isqrt(x)
    for y in (2, 3, 7, 100, r, r + 1, x, 2 * x):
        if y >= 2:
            want = int(np.count_nonzero(lpf[1 : x + 1] <= y))
            assert psi(table_1e6, x, y) == want, (x, y)


@pytest.mark.parametrize("x, y", [(0, 2), (1, 2), (16, 3), (16, 4), (16, 5),
                                  (10**4, 7), (10**4, 100), (10**4, 10**4),
                                  (65535, 40), (65536, 257), (65537, 65537),
                                  (10**5, 316), (10**5, 317), (10**6, 10**6)])
def test_smooth_pieces_and_prefix_match_lpf(table_1e6, x, y):
    mask = oracles.lpf_sieve(10**6)[: x + 1] <= y
    mask[0] = False
    want = np.flatnonzero(mask)
    pieces = [ns for ns, _ in smooth_pieces(x, y)]
    got = np.sort(np.concatenate(pieces))
    assert np.array_equal(got, want)  # each smooth n exactly once
    smooth = smooth_numbers(table_1e6, x, y)
    assert smooth.dtype == np.int32
    assert np.array_equal(smooth, want)  # ascending
    # Psi(t, y) as a count of smooth numbers <= t, at every t in 0..x
    pre = np.cumsum(mask.astype(np.int64))
    assert np.array_equal(np.searchsorted(smooth, np.arange(x + 1), side="right"), pre)


def test_psi_fixed_points(table_1e4):
    assert psi(table_1e4, 100, 5) == 34
    assert psi(table_1e4, 10, 2) == 4  # {1, 2, 4, 8}
    for x in (1, 2, 17, 100, 9999):
        assert psi(table_1e4, x, x if x >= 2 else 2) == x


def test_psi_against_enumeration(table_1e4):
    for y in (2, 3, 5, 7, 20, 50):
        flags = oracles.smooth_flags(300, y)
        for x in (1, 7, 99, 100, 255, 300):
            assert psi(table_1e4, x, y) == oracles.psi_count(flags, x)


def test_psi_range_error(table_1e4):
    with pytest.raises(RangeError):
        psi(table_1e4, 10**4 + 1, 5)


def test_psi_coprime(table_1e4):
    assert psi_coprime(table_1e4, 100, 5, 3) == 15
    assert psi_coprime(table_1e4, 100, 5, 30) == 1  # only n = 1
    for x, y in ((100, 5), (517, 7), (9999, 20)):
        assert psi_coprime(table_1e4, x, y, 1) == psi(table_1e4, x, y)


def test_psi_progression(table_1e4):
    assert psi_progression(table_1e4, 100, 5, 1, 3) == 8
    flags = oracles.smooth_flags(100, 5)
    members = [n for n in range(1, 101) if flags[n] and n % 3 == 1]
    assert members == [1, 4, 10, 16, 25, 40, 64, 100]
    assert psi_progression(table_1e4, 100, 5, 0, 1) == psi(table_1e4, 100, 5)


def test_partition_and_coprime_decomposition(table_1e4):
    # y at and above sqrt(x) runs the batched large-prime step
    above_root = [(x, y) for x in (2000, 10**4)
                  for y in (math.isqrt(x), math.isqrt(x) + 1, x)]
    cases = [(q, x, y) for q in range(1, 31) for x, y in ((100, 5), (999, 7), (10**4, 20))]
    cases += [(q, x, y) for q in (1, 2, 7, 30, 210) for x, y in above_root]
    for q, x, y in cases:
        total = sum(psi_progression(table_1e4, x, y, a, q) for a in range(q))
        assert total == psi(table_1e4, x, y)
        coprime = sum(
            psi_progression(table_1e4, x, y, a, q)
            for a in range(q) if math.gcd(a, q) == 1
        )
        assert coprime == psi_coprime(table_1e4, x, y, q)


def test_psi_prefix_consistent(table_1e4):
    # Psi(t, y) read off the smooth numbers <= 1000 at t <= 1000, as the
    # exceptional scan reads it, equals the walked count
    smooth = smooth_numbers(table_1e4, 1000, 7)
    for x in (0, 1, 10, 500, 1000):
        assert int(np.searchsorted(smooth, x, side="right")) == psi(table_1e4, x, 7)
    with pytest.raises(RangeError):
        smooth_numbers(table_1e4, 10**4 + 1, 7)
    for x, y in ((-1, 7), (100, 1)):
        with pytest.raises(DomainError):
            smooth_numbers(table_1e4, x, y)


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


def test_smooth_short_interval(table_1e4):
    # T = 1: a full dyadic block
    assert smooth_short_interval(table_1e4, 100, 5, 1) == psi(table_1e4, 200, 5) - psi(table_1e4, 100, 5)
    flags = oracles.smooth_flags(125, 5)
    expect = sum(1 for n in range(101, 126) if flags[n])
    assert smooth_short_interval(table_1e4, 100, 5, 4) == expect
    for x, T in ((100, 3), (1000, 7), (4000, 2)):
        assert smooth_short_interval(table_1e4, x, 20, T) >= 0
    with pytest.raises(RangeError):
        smooth_short_interval(table_1e4, 10**4, 5, 2)


def test_dyadic_partition_geometric():
    assert dyadic_partition(16, 1, 1) == [2, 4, 8, 16]


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


def test_dyadic_partition_sizing_guard():
    with pytest.raises(SizingError):
        dyadic_partition(49_000_000, 10**9, 1.0)
