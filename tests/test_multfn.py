import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from smoothap import multfn
from smoothap.characters import enumerate_characters
from smoothap.errors import OracleError
from oracles import check_class_c, from_prime_powers, lambda_f, restrict_smooth
from smoothap.multfn import (completely_multiplicative, dirichlet_inverse, evaluate,
                             get_support, values_array)
from smoothap.sieve import psi, primes_upto


def convolution(fv, gv, N):
    conv = np.zeros(N + 1, dtype=np.complex128)
    for d in range(1, N + 1):
        conv[d::d] += fv[d] * gv[1 : N // d + 1]
    return conv


def test_evaluate_basics():
    f = oracles.one()
    for n in (1, 2, 64, 9999):
        assert evaluate(f, n) == 1
    ind5 = multfn.smooth_indicator(5)
    assert evaluate(ind5, 12) == 1
    assert evaluate(ind5, 14) == 0  # 7 > 5
    fi = from_prime_powers("i-at-2", {(2, 1): 1j, (3, 1): 1.0, (5, 1): 1.0, (7, 1): 1.0})
    assert evaluate(fi, 8) == 1j**3 == -1j


def test_evaluate_errors():
    partial = from_prime_powers("partial", {(3, 1): 1.0})
    with pytest.raises(OracleError) as err:
        evaluate(partial, 8)
    assert "p=2" in str(err.value)


def dense_values_oracle(f, x):
    """f(n) for n = 0..x by O(x) dense waves over the whole range.

    Every pass rewrites vals[n] = f(P-power part of n) * vals[cofactor] for
    all n <= x, smooth or not, with no support, cache or searchsorted.
    """
    if x == 0:
        return np.zeros(1, dtype=np.complex128)
    fpp = np.zeros(x + 1, dtype=np.complex128)
    fpp[1] = 1.0
    bound = x if f.smooth_bound is None else min(x, f.smooth_bound)
    primes = oracles.dense_primes(x)
    for p in primes:
        if p > bound:
            break
        pe, k = p, 1
        while pe <= x:
            fpp[pe] = complex(f.at(p, k))
            pe *= p
            k += 1
    ppart = np.ones(x + 1, dtype=np.int64)  # p^v with p = P(n), p^v || n
    for p in primes:
        pe = p
        while pe <= x:
            ppart[pe::pe] = pe
            pe *= p
    n = np.arange(x + 1)
    cof = n // ppart
    passes, prod = 1, 6
    while prod <= x:
        passes += 1
        prod *= primes_upto(200)[passes]
    vals = np.ones(x + 1, dtype=np.complex128)
    for _ in range(passes):
        vals = fpp[ppart] * vals[cof]
    vals[0] = 0
    vals[1] = 1.0
    return vals


ORACLE_SPECS = [
    oracles.one(),
    multfn.smooth_indicator(13),
    multfn.moebius_smooth(30),
    multfn.random_unit_circle(5, smooth_bound=60),
    # a bound above sqrt(x) at x = 2000 and 20000: the batched large-prime step
    multfn.random_unit_circle(5, smooth_bound=1000),
    multfn.random_unit_circle(5),
    # ... there with cofactors where f vanishes, and large primes where it does
    multfn.moebius_smooth(1000),
    completely_multiplicative("zero-at-3-mod-4", lambda p: 0.0 if p % 4 == 3 else -1j,
                              smooth_bound=1000),
    from_prime_powers("zeros", {(2, 1): 1j, (2, 2): 0.0, (3, 1): 0.0, (5, 1): -1.0,
                                (7, 1): 0.5 + 0.5j}, smooth_bound=7),
]


def assert_support_matches_oracle(f, x):
    dense = dense_values_oracle(f, x)
    want_ns = np.flatnonzero(dense)
    ns, vs = get_support(f, x)
    assert np.array_equal(ns, want_ns)
    assert np.array_equal(vs.view(np.float64), dense[want_ns].view(np.float64))


def spec_id(f):
    return f"{f.label}-y={f.smooth_bound}"


@pytest.mark.parametrize("x", [0, 1, 2, 2000, 20000])
@pytest.mark.parametrize("f", ORACLE_SPECS, ids=spec_id)
def test_support_bitwise_matches_dense_oracle(f, x):
    assert_support_matches_oracle(f, x)


@pytest.mark.parametrize("f", [multfn.moebius_smooth(100),
                               multfn.random_unit_circle(7, smooth_bound=63),
                               multfn.random_unit_circle(7)],
                         ids=spec_id)
def test_support_bitwise_matches_dense_oracle_large(f):
    # well past numpy's 256 KB temporary-elision threshold
    assert_support_matches_oracle(f, 250_000)
    # and again at a smaller x
    assert_support_matches_oracle(f, 30_000)


@pytest.mark.parametrize("f", [multfn.random_unit_circle(3, smooth_bound=200),
                               multfn.moebius_smooth(200), multfn.random_unit_circle(3)],
                         ids=spec_id)
def test_support_bitwise_at_square_x(f):
    # x = p^2 for a prime p: p itself is the last prime walked, not a large one
    for x in (4, 9, 25, 49, 121, 169, 10201, 22201):
        assert_support_matches_oracle(f, x)


JOIN_SPECS = [
    multfn.random_unit_circle(11, smooth_bound=1000),
    multfn.smooth_indicator(50),
    multfn.moebius_smooth(1000),
    multfn.character_twist(enumerate_characters(7)[2], 300),
    multfn.random_unit_circle(11),
    # every product of two primes underflows to 0
    multfn.MultFnSpec("underflow", lambda p, k: 1e-200 if k == 1 else 1.0, smooth_bound=60),
]


@pytest.mark.parametrize("x", [0, 1, 2, 63, 64, 65, 2000, 65535, 65536, 65537, 250_000])
@pytest.mark.parametrize("f", JOIN_SPECS, ids=spec_id)
def test_support_values_bitwise_equals_join_oracle(f, x):
    # placing the values by rank gives the sorted join of the pieces
    ns, vs = multfn.get_support(f, x)
    want_ns, want_vs = oracles.joined_support(f, x)
    assert ns.dtype == np.int32 and vs.dtype == np.complex128
    assert np.array_equal(ns, want_ns)
    assert vs.tobytes() == want_vs.tobytes()


def test_support_values_rejects_an_oracle_that_changes_between_walks():
    # past x = 2^16 the values are placed by the ranks of the first walk
    calls = {}

    def fickle(p, k):
        calls[p, k] = calls.get((p, k), 0) + 1
        return 1.0 if (p, k) != (3, 1) or calls[p, k] == 1 else 0.0

    with pytest.raises(OracleError):
        multfn.get_support(multfn.MultFnSpec("fickle", fickle, 50), 100_000)


def test_support_values_rejects_a_second_walk_of_the_same_size():
    # 66 of the 50-smooth n <= 100,000 have 37^2 || n and 66 have 2^9 || n:
    # f(37^2) vanishes on the first walk only, f(2^9) on the second only
    calls = {}

    def swap(p, k):
        calls[p, k] = calls.get((p, k), 0) + 1
        return 0.0 if (p, k) == ((37, 2) if calls[p, k] == 1 else (2, 9)) else 1.0

    with pytest.raises(OracleError, match="swap: the oracle gave another support"):
        multfn.get_support(multfn.MultFnSpec("swap", swap, 50), 100_000)


def test_unit_angle_matches_hashlib_blake2b():
    for seed in range(4):
        for p in primes_upto(1000):
            h = hashlib.blake2b(f"{seed}:{p}".encode(), digest_size=8).digest()
            assert multfn._unit_angle(seed, p) == int.from_bytes(h, "big") / 2**64


def test_blake2b_fallback_gives_the_same_support():
    # hashlib takes its own blake2b from _blake2, so it is imported before
    # _blake2 is blocked; multfn's import of _blake2 then fails and it falls
    # back to hashlib
    ns, vs = get_support(multfn.random_unit_circle(3, smooth_bound=50), x=10**4)
    src = str(Path(multfn.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import hashlib, sys\n"
            "sys.modules['_blake2'] = None\n"
            "from smoothap import multfn\n"
            "ns, vs = multfn.get_support(multfn.random_unit_circle(3, smooth_bound=50),"
            " x=10**4)\n"
            "print((ns.tobytes() + vs.tobytes()).hex())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (ns.tobytes() + vs.tobytes()).hex()


def test_unbounded_support_peak_bytes_per_point():
    # f with no smoothness bound: every n <= x is walked, most of them in the
    # batched large-prime step, whose temporaries sit next to the values
    x = 250_000
    f = multfn.random_unit_circle(0)
    tracemalloc.start()
    try:
        ns, _ = get_support(f, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * ns.size, peak / ns.size


def largest_prime_first_product(f, n):
    """f(n) by trial division, multiplied in from the largest prime down."""
    factors = oracles.trial_division_factor(n)
    if factors and f.smooth_bound is not None and factors[-1][0] > f.smooth_bound:
        return 0j
    val = 1.0 + 0j
    for p, k in reversed(factors):
        val *= f.at(p, k)
    return val


@pytest.mark.parametrize("f", ORACLE_SPECS, ids=spec_id)
def test_evaluate_bitwise_matches_largest_prime_first_oracle(f):
    got = np.array([evaluate(f, n) for n in range(1, 10**4 + 1)])
    want = np.array([largest_prime_first_product(f, n) for n in range(1, 10**4 + 1)])
    assert got.dtype == want.dtype == np.complex128
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_support_cache_keys_on_spec_identity():
    a = completely_multiplicative("g", lambda p: 1.0)
    b = completely_multiplicative("g", lambda p: -1.0 if p == 67 else 1.0)
    # same label, different functions: they differ only at p = 67
    assert values_array(a, 100)[67] == 1.0
    assert values_array(b, 100)[67] == evaluate(b, 67) == -1.0


def test_inverse_built_to_n_is_not_answered_past_n():
    f = multfn.random_unit_circle(9)
    g200, g100 = dirichlet_inverse(f, 200), dirichlet_inverse(f, 100)
    assert g200.label != g100.label
    values_array(g200, 200)
    with pytest.raises(OracleError):
        evaluate(g100, 199)
    with pytest.raises(OracleError):
        values_array(g100, 199)


def test_values_array_matches_evaluate():
    for f in (oracles.one(), multfn.smooth_indicator(7), multfn.moebius_smooth(20),
              multfn.random_unit_circle(3)):
        fv = values_array(f, 2000)
        assert fv[0] == 0 and fv[1] == 1
        for n in (2, 3, 4, 30, 64, 97, 500, 1998, 1999, 2000):
            assert fv[n] == pytest.approx(evaluate(f, n), abs=1e-12)


def test_get_support_is_nonzero_positions():
    f = multfn.moebius_smooth(10)
    ns, vs = get_support(f, 500)
    fv = values_array(f, 500)
    assert list(ns) == [n for n in range(501) if fv[n] != 0]
    assert np.all(fv[ns] == vs)


def test_smooth_indicator_sums_to_psi():
    f = multfn.smooth_indicator(7)
    fv = values_array(f, 3000)
    assert int(fv.real.sum()) == psi(3000, 7)


def test_lambda_von_mangoldt():
    lam = lambda_f(oracles.one(), 100)
    assert lam.coefficient(8) == (2, 1.0)  # log 2, exactly
    assert lam.coefficient(6) is None
    for n in (2, 3, 4, 9, 25, 27, 32, 49, 64, 81):
        p, c = lam.coefficient(n)
        assert c == 1.0  # Lambda_f = Lambda as exact multiples of log p
    assert lam.value(12) == 0


def test_lambda_completely_multiplicative_closed_form():
    f = multfn.random_unit_circle(11)
    lam = lambda_f(f, 10**4)
    for p in (2, 3, 5, 7, 11, 13, 97):
        fp = f.at(p, 1)
        pe, k = p, 1
        while pe <= 10**4:
            pcoef, c = lam.coefficient(pe)
            assert pcoef == p
            assert abs(c - fp**k) <= 1e-12
            pe *= p
            k += 1


def test_lambda_indicator_of_one():
    f = multfn.MultFnSpec("delta1", lambda p, k: 0.0)  # f = indicator of n = 1
    lam = lambda_f(f, 100)
    assert all(abs(c) == 0 for _, c in lam.coeffs.values())


def test_class_c_examples():
    cert = check_class_c(oracles.one(), 1000)
    assert cert.max_ratio == 1.0 and cert.valid
    cert = check_class_c(multfn.random_unit_circle(5), 1000)
    assert cert.valid
    bad = from_prime_powers("bad", {(2, 1): 1.0, (2, 2): 5.0, (3, 1): 0.0,
                                    (5, 1): 0.0, (7, 1): 0.0})
    # Lambda_f(4) = (2*5 - 1) log 2 = 9 log 2, so the ratio at n = 4 is 9
    lam = lambda_f(bad, 4)
    assert lam.coefficient(4) == (2, 9.0)
    cert = check_class_c(bad, 4)
    assert cert.max_ratio == pytest.approx(9.0)
    assert not cert.valid


def test_inverse_is_moebius_for_one():
    g = dirichlet_inverse(oracles.one(), 100)
    assert evaluate(g, 6) == 1
    assert evaluate(g, 4) == 0
    for n in (2, 3, 5, 30, 64, 97):
        mu = 0 if any(e > 1 for _, e in oracles.trial_division_factor(n)) else \
            (-1) ** len(oracles.trial_division_factor(n))
        assert evaluate(g, n) == mu


def test_inverse_completely_multiplicative():
    f = multfn.random_unit_circle(17)
    g = dirichlet_inverse(f, 10**4)
    for p in (2, 3, 13):
        assert g.at(p, 1) == pytest.approx(-f.at(p, 1))
        assert g.at(p, 2) == pytest.approx(0.0, abs=1e-14)
    fv = values_array(f, 10**4)
    gv = values_array(g, 10**4)
    conv = convolution(fv, gv, 10**4)
    assert conv[1] == pytest.approx(1.0)
    assert float(np.max(np.abs(conv[2:]))) <= 1e-10


def test_class_c_closed_under_inversion():
    for seed in range(5):
        f = multfn.random_unit_circle(100 + seed)
        g = dirichlet_inverse(f, 2000)
        assert check_class_c(f, 2000).valid
        assert check_class_c(g, 2000).valid


def test_certified_f_is_one_bounded():
    f = multfn.random_unit_circle(23)
    assert check_class_c(f, 10**4).valid
    fv = values_array(f, 10**4)
    assert float(np.max(np.abs(fv))) <= 1 + 1e-9


def test_restrict_smooth():
    f = restrict_smooth(oracles.one(), 5)
    assert evaluate(f, 7) == 0
    full = oracles.one()
    for n in range(1, 200):
        if oracles.largest_prime_factor(n) <= 5:
            assert evaluate(f, n) == evaluate(full, n)
    fv = values_array(f, 2500)
    assert int(fv.real.sum()) == psi(2500, 5)


def test_character_twist_self_correlation():
    psi7 = [c for c in enumerate_characters(7) if c.primitive][0]
    f = multfn.character_twist(psi7, 50)
    for n in (3, 10, 48):
        expect = psi7.cvalue(n) if oracles.largest_prime_factor(n) <= 50 else 0
        assert evaluate(f, n) == pytest.approx(expect)
