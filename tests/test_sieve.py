import math
import sys
import threading

import numpy as np
import pytest

import oracles
from smoothap.errors import DomainError, RangeError, SizingError
from smoothap.sieve import (alpha_saddle, build_sieve, dyadic_partition, psi,
                            psi_coprime, psi_prefix, psi_progression,
                            smooth_pieces, smooth_short_interval)


def test_lpf_small_table():
    t = build_sieve(10)
    assert list(t.lpf[1:11]) == [1, 2, 3, 2, 5, 3, 7, 2, 3, 5]


def test_lpf_x_max_one():
    t = build_sieve(1)
    assert list(t.lpf) == [0, 1]
    assert t.primes.size == 0


def test_lpf_matches_trial_division(table_1e4):
    for n in range(1, 10**4 + 1):
        assert int(table_1e4.lpf[n]) == oracles.largest_prime_factor(n)


def test_lpf_prime_entry_at_1e6(table_1e6):
    assert oracles.is_prime(999983)
    assert int(table_1e6.lpf[999983]) == 999983


def test_primes_list_matches_trial_division(table_1e4):
    head = [int(p) for p in table_1e4.primes[:200]]
    assert head == [n for n in range(2, 10**4) if oracles.is_prime(n)][:200]


def test_build_sieve_rejects_bad_sizes():
    with pytest.raises(SizingError):
        build_sieve(0)
    with pytest.raises(SizingError):
        build_sieve(10**9)


def test_build_sieve_is_lazy():
    t = build_sieve(10**7)
    assert "lpf" not in vars(t) and "primes" not in vars(t)
    assert psi(t, 10**7, 2) == 24  # 2^0..2^23, counted without a table
    assert "lpf" not in vars(t)


def test_lazy_table_read_from_many_threads(table_1e4):
    # every thread must see a complete table, whichever of them builds it
    table = build_sieve(10**4)
    seen = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: seen.append(table.lpf.copy()))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8
    for lpf in seen + [table.lpf]:
        assert np.array_equal(lpf, table_1e4.lpf)


@pytest.mark.parametrize("x", [0, 1, 2, 15, 16, 10**4, 10**6])
def test_psi_walk_matches_lpf_count(table_1e6, x):
    r = math.isqrt(x)
    for y in (2, 3, 7, 100, r, r + 1, x, 2 * x):
        if y >= 2:
            want = int(np.count_nonzero(table_1e6.lpf[1 : x + 1] <= y))
            assert psi(table_1e6, x, y) == want, (x, y)


@pytest.mark.parametrize("x, y", [(0, 2), (1, 2), (16, 3), (16, 4), (16, 5),
                                  (10**4, 7), (10**4, 100), (10**4, 10**4),
                                  (10**5, 316), (10**5, 317), (10**6, 10**6)])
def test_smooth_pieces_and_prefix_match_lpf(table_1e6, x, y):
    mask = table_1e6.smooth_mask(x, y)
    pieces = [ns for ns, _ in smooth_pieces(x, y)]
    got = np.sort(np.concatenate(pieces))
    assert np.array_equal(got, np.flatnonzero(mask))  # each smooth n exactly once
    pre = psi_prefix(table_1e6, x, y)
    assert pre.dtype == np.int64
    assert np.array_equal(pre, np.cumsum(mask.astype(np.int64)))


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
    for q in range(1, 31):
        for x, y in ((100, 5), (999, 7), (10**4, 20)):
            total = sum(psi_progression(table_1e4, x, y, a, q) for a in range(q))
            assert total == psi(table_1e4, x, y)
            coprime = sum(
                psi_progression(table_1e4, x, y, a, q)
                for a in range(q) if math.gcd(a, q) == 1
            )
            assert coprime == psi_coprime(table_1e4, x, y, q)


def test_psi_prefix_consistent(table_1e4):
    pre = psi_prefix(table_1e4, 1000, 7)
    for x in (1, 10, 500, 1000):
        assert int(pre[x]) == psi(table_1e4, x, 7)


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
