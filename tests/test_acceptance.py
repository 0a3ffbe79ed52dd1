"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Golden values are pinned in tests/golden/acceptance.json (ratios must not
regress by more than 1e-6; other goldens by more than 1e-9 relative).  A
missing key fails, unless SMOOTHAP_RECORD_GOLDENS=1 is set: then it is
recorded.
"""

import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

import oracles
from oracles import (alpha_saddle, check_class_c, ls_dual, max_ratio_power_iteration,
                     u_kernel_moebius)
from smoothap import multfn
from smoothap.arith import euler_phi
from smoothap.characters import family_A, trivial_character
from smoothap.discrepancy import bv_average, u_kernel_chardef_row, verify_transfer_identity
from smoothap.large_sieve import context_bound, detect_exceptional, detection_scale, ls_primal
from smoothap.multfn import dirichlet_inverse, values_array
from smoothap.sieve import psi, smooth_numbers
from smoothap.cli import main as cli_main

GOLDEN_FILE = "acceptance.json"


def load_golden(golden_dir):
    path = golden_dir / GOLDEN_FILE
    if path.exists():
        return json.loads(path.read_text())
    return {}


def pin_golden(golden_dir, key, value, tol):
    """Return the pinned value; record a missing key only when asked to."""
    path = golden_dir / GOLDEN_FILE
    data = load_golden(golden_dir)
    if key not in data:
        assert os.environ.get("SMOOTHAP_RECORD_GOLDENS") == "1", (
            f"no golden at {key}; rerun with SMOOTHAP_RECORD_GOLDENS=1 to record it")
        data[key] = value
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        return value, True
    old = data[key]
    assert abs(value - old) <= tol, f"golden regression at {key}: {old} -> {value}"
    return old, False


def test_pin_golden_missing_key_fails_unless_recording(tmp_path, monkeypatch):
    monkeypatch.delenv("SMOOTHAP_RECORD_GOLDENS", raising=False)
    with pytest.raises(AssertionError, match="no golden at k"):
        pin_golden(tmp_path, "k", 1.5, tol=0.0)
    assert not (tmp_path / GOLDEN_FILE).exists()
    monkeypatch.setenv("SMOOTHAP_RECORD_GOLDENS", "1")
    assert pin_golden(tmp_path, "k", 1.5, tol=0.0) == (1.5, True)
    monkeypatch.delenv("SMOOTHAP_RECORD_GOLDENS")
    assert pin_golden(tmp_path, "k", 1.5, tol=0.0) == (1.5, False)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def test_criterion_1_kernel_identity_suite():
    t0 = time.time()
    fam = family_A(30)
    d_set = (1, 2, 3, 5, 10, 20, 30)
    worst = 0.0
    for q in range(1, 301):
        phi = euler_phi(q)
        tau = len([d for d in range(1, q + 1) if q % d == 0])
        units = [math.gcd(n, q) == 1 for n in range(q)]
        moeb = {}
        for n in range(q):
            for D in d_set:
                moeb[(n, D)] = u_kernel_moebius(n, q, D)
        for D in d_set:
            row = u_kernel_chardef_row(q, D, fam)
            for n in range(q):
                mo = moeb[(n, D)]
                worst = max(worst, abs(row[n] - float(mo)))
                # rational exactness: phi(q) * u is an integer
                assert (mo * phi).denominator == 1
                ind = 1 if n % q == 1 % q else 0
                if not units[n]:
                    assert mo == 0  # vanishes off the units
                elif q <= D:
                    assert mo == 0  # all characters mod q have conductor <= D
                assert abs(mo) <= ind + D * tau / phi + 1e-12  # trivial bound
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 60
    report(1, ok, f"kernel identity on q<=300 x {d_set}: worst residual "
                  f"{worst:.3g}, bound+vanishing hold, {elapsed:.1f}s (< 60s)")


def test_criterion_2_transfer_identity_suite():
    import random
    t0 = time.time()
    rng = random.Random(2024)
    fam10 = family_A(10)
    worst = 0.0
    trials = 0
    while trials < 200:
        q = rng.randrange(2, 31)
        x = rng.randrange(50, 10**4 + 1)
        D = rng.randrange(1, 11)
        a1, a2 = rng.randrange(-6, 7), rng.randrange(-6, 7)
        if a1 == 0 or a2 == 0 or math.gcd(a1 * a2, q) != 1:
            continue
        f = multfn.random_unit_circle(seed=trials, smooth_bound=rng.choice([20, 50, 10**4]))
        mem = [c for c in fam10.members if c.q <= D]
        xi = rng.sample(mem, rng.randrange(len(mem) + 1))
        lhs, rhs = verify_transfer_identity(f, x, q, a1, a2, xi, D)
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
        trials += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 120
    report(2, ok, f"transfer identity on {trials} random tuples: worst relative "
                  f"residual {worst:.3g} (tol 1e-8), {elapsed:.1f}s (< 120s)")


def test_criterion_3_inverse_and_class_c_suite():
    N = 10**4
    worst = 0.0
    for seed in range(50):
        f = multfn.random_unit_circle(seed=3000 + seed)
        g = dirichlet_inverse(f, N)
        fv = values_array(f, N)
        gv = values_array(g, N)
        conv = np.zeros(N + 1, dtype=np.complex128)
        for d in range(1, N + 1):
            conv[d::d] += fv[d] * gv[1 : N // d + 1]
        worst = max(worst, float(np.max(np.abs(conv[2:]))))
        assert abs(conv[1] - 1) <= 1e-12
        assert check_class_c(f, N).valid
        assert check_class_c(g, N).valid
    ok = worst <= 1e-10
    report(3, ok, f"(f*g)(n)=[n=1] to {worst:.3g} (tol 1e-10) over 50 random "
                  f"unit-circle f, n<=1e4; class membership holds for every f and inverse")


def test_criterion_4_smooth_count_oracle_suite():
    from smoothap.sieve import psi_coprime, psi_progression
    x_samples = (1, 7, 99, 100, 999, 1234, 5000, 9999, 10**4)
    checked = 0
    for y in (2, 3, 5, 7, 20, 50):
        flags = oracles.smooth_flags(10**4, y)
        # the smooth sets agree at every n, so every count derived from them does too
        assert smooth_numbers(10**4, y).tolist() == [
            n for n in range(1, 10**4 + 1) if flags[n]]
        for x in x_samples:
            assert psi(x, y) == oracles.psi_count(flags, x)
            checked += 1
            for q in (1, 2, 3, 7, 12, 29, 30):
                assert psi_coprime(x, y, q) == oracles.psi_count(
                    flags, x, coprime_to=q)
                for a in range(min(q, 4)):
                    assert psi_progression(x, y, a, q) == \
                        oracles.psi_count(flags, x, q=q, a=a)
                checked += 5
    # y at and above sqrt(x) (the batched large-prime step), every class a
    for x in (2000, 10**4):
        P = [0] + [oracles.largest_prime_factor(n) for n in range(1, x + 1)]
        for y in (math.isqrt(x), math.isqrt(x) + 1, x):
            smooth = [n for n in range(1, x + 1) if P[n] <= y]
            assert psi(x, y) == len(smooth)
            for q in (1, 2, 7, 30, 210):
                by_class = Counter(n % q for n in smooth)
                for a in range(q):
                    assert psi_progression(x, y, a, q) == by_class[a]
                assert psi_coprime(x, y, q) == sum(
                    1 for n in smooth if math.gcd(n, q) == 1)
                checked += q + 1
    assert psi(100, 5) == 34
    assert psi_coprime(100, 5, 3) == 15
    assert psi_progression(100, 5, 1, 3) == 8
    report(4, True, f"psi/psi_coprime/psi_progression match trial-division "
                    f"enumeration exactly ({checked} parameter points; smooth sets "
                    f"agree at every n <= 1e4 for all six y); fixed points 34/15/8 hold")


def test_criterion_5_sharpness_duality_goldens(golden_dir):
    t0 = time.time()
    # sharpness: a_n = 1 gives ratio >= 1 at every grid point
    grid = ((10**4, 20, 10), (10**5, 50, 15), (10**6, 10**3, 20))
    fam = family_A(20)
    for x, y, Q in grid:
        a = np.ones(psi(x, y), dtype=np.complex128)
        lhs, rhs = ls_primal(smooth_numbers(x, y), Q, a, "unweighted", fam)
        assert lhs / rhs >= 1.0

    # duality at x <= 2000 by independent power iterations (>= 200 steps)
    r_primal = max_ratio_power_iteration(smooth_numbers(2000, 20), 8, fam, "primal",
                                         iters=200, seed=11)
    r_dual = max_ratio_power_iteration(smooth_numbers(2000, 20), 8, fam, "dual",
                                       iters=200, seed=22)
    dual_gap = abs(r_primal - r_dual)
    assert dual_gap <= 1e-4

    # golden maximal ratios over 100 random +-1 coefficient vectors
    details = []
    for x, y, Q in grid:
        P = psi(x, y)
        smooth = smooth_numbers(x, y)
        best = 0.0
        for trial in range(100):
            rng = np.random.RandomState(90_000 + trial)
            a = (rng.randint(0, 2, size=P) * 2.0 - 1.0).astype(np.complex128)
            lhs, rhs = ls_primal(smooth, Q, a, "unweighted", fam)
            best = max(best, lhs / rhs)
        pinned, fresh = pin_golden(golden_dir, f"ls_primal_max_{x}_{y}_{Q}",
                                   best, tol=1e-6)
        details.append(f"({x},{y},{Q})->{best:.9g}{'*' if fresh else ''}")
    elapsed = time.time() - t0
    ok = elapsed < 600
    report(5, ok, f"sharpness ratio>=1 on grid; primal/dual gap {dual_gap:.3g} "
                  f"(tol 1e-4); golden max ratios {', '.join(details)}; "
                  f"{elapsed:.1f}s (< 600s)")


def test_criterion_6_bv_decay_trend(golden_dir):
    xi = [trivial_character()]
    normalized = []
    per_q_checked = 0
    for x in (10**4, 10**5, 10**6):
        y = round(x ** (1.0 / 3))
        Q = int(x**0.55)
        f = multfn.smooth_indicator(y)
        total, records = bv_average(f, x, Q, 1, 1, xi)
        p = psi(x, y)
        norm = total / p
        normalized.append(norm)
        pin_golden(golden_dir, f"bv_normalized_{x}", norm, tol=1e-9 * (1 + norm))
        if x == 10**4:
            # brute-force three sampled moduli from an independent smooth mask
            flags = oracles.smooth_flags(x, y)
            for q in (3, 7, 29):
                prog = sum(1 for n in range(1, x + 1) if flags[n] and n % q == 1)
                cop = sum(1 for n in range(1, x + 1) if flags[n] and math.gcd(n, q) == 1)
                expect = prog - cop / euler_phi(q)
                rec = next(r for r in records if r.q == q)
                assert rec.delta_xi.real == expect and rec.delta_xi.imag == 0
                per_q_checked += 1
    ok = normalized[0] > normalized[1] > normalized[2]
    report(6, ok, f"normalized BV averages strictly decrease: "
                  f"{normalized[0]:.6g} > {normalized[1]:.6g} > {normalized[2]:.6g}; "
                  f"{per_q_checked} sampled moduli match brute force exactly")


def test_criterion_7_exceptional_detection_suite(golden_dir):
    x, y, Q, B, eps = 10**4, 50, 20, 1.0, 0.5
    fams = family_A(20)
    # self-correlation plants: every primitive psi of conductor <= 20 is found
    planted_found = 0
    for psi0 in fams.members:
        f = multfn.character_twist(psi0, y)
        found = detect_exceptional(f, x, y, Q, B, eps, fams)
        wit = next((w for w in found.members if w.character == psi0), None)
        assert wit is not None, f"plant not found for conductor {psi0.q}"
        assert wit.value >= wit.threshold
        planted_found += 1

    # grid scan is a superset of the brute-force full-X oracle at Psi/T
    f = multfn.smooth_indicator(y)
    found = detect_exceptional(f, x, y, Q, B, eps, fams)
    got = {(w.character.q, w.character.rank) for w in found.members}
    T = detection_scale(x, y, B)
    prefix = np.cumsum(oracles.smooth_flags(x, y), dtype=np.int64)  # Psi(t, y) at 0..x
    fv = values_array(f, x)
    x0 = math.ceil(x**0.25)
    oracle_hits = 0
    for chi in fams.members:
        terms = fv * np.conj(oracles.complex_table_one(chi))[np.arange(x + 1) % chi.q]
        csum = np.abs(np.cumsum(terms))
        hit = bool(np.any(csum[x0 + 1:] >= prefix[x0 + 1:] / T))
        if hit:
            oracle_hits += 1
            assert (chi.q, chi.rank) in got
    assert any(w.character.q == 1 for w in found.members)  # trivial character present

    count, weighted = len(found.members), found.weighted_count
    pin_golden(golden_dir, "exceptional_count_10000_50_20_B1", float(count), tol=0.0)
    pin_golden(golden_dir, "exceptional_weighted_10000_50_20_B1", weighted,
               tol=1e-9 * (1 + weighted))
    bound = context_bound(x, B)  # reported for context, never asserted
    report(7, True, f"{planted_found} plants found with valid witnesses; grid "
                    f"scan covers all {oracle_hits} full-X oracle hits; "
                    f"|Xi(B)|={count}, sum r^-1/2={weighted:.6g} "
                    f"[context bound (log x)^16={bound:.3g}]")


def test_criterion_8_thread_determinism(tmp_path):
    suites = [
        ["psi", "--x", "3000", "--y", "20", "--q", "7", "--a", "3"],
        ["delta", "--x", "3000", "--y", "20", "--q", "7", "--a", "3"],
        ["bv-average", "--x", "3000", "--y", "20", "--Q", "40"],
        ["large-sieve", "--x", "3000", "--y", "20", "--Q", "8",
         "--coeffs", "pm1", "--trials", "5", "--seed", "7"],
        ["exceptional", "--x", "3000", "--y", "20", "--Q", "8", "--B", "1"],
        ["verify-identities", "--qmax", "15", "--tuples", "5", "--xmax", "400",
         "--Dset", "1,3,5"],
    ]
    mismatches = []
    for suite in suites:
        blobs = []
        for run, threads in enumerate(("1", "4", "8")):
            out = tmp_path / f"{suite[0]}-{run}"
            code = cli_main(["--out", str(out), "--threads", threads] + suite)
            assert code == 0
            blob = b""
            for path in sorted(out.iterdir()):
                blob += path.name.encode() + b"\0" + path.read_bytes() + b"\0"
            blobs.append(blob)
        if not (blobs[0] == blobs[1] == blobs[2]):
            mismatches.append(suite[0])
    report(8, not mismatches,
           f"byte-identical reports across 1/4/8 worker threads for "
           f"{len(suites)} suites" + (f"; MISMATCH in {mismatches}" if mismatches else ""))


def test_psi_growth_golden_constant(golden_dir):
    # recorded constant C for psi(x/l, y) <= C psi(x,y) / l^alpha, l <= 100
    x, y = 10**6, 10**3
    a = alpha_saddle(x, y)
    p_x = psi(x, y)
    worst = 0.0
    for ell in range(1, 101):
        ratio = psi(x // ell, y) * ell**a / p_x
        worst = max(worst, ratio)
    C, fresh = pin_golden(golden_dir, "psi_growth_C", worst, tol=1e-9 * (1 + worst))
    assert worst <= C + 1e-9
    print(f"psi-growth golden constant C = {C:.9g} at alpha = {a:.6f}"
          + (" (recorded)" if fresh else ""))


def test_ls_dual_golden(golden_dir):
    fam = family_A(10)
    members = fam.up_to(10)
    rng = np.random.RandomState(777)
    b = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
    lhs, rhs = ls_dual(smooth_numbers(10**4, 20), 10, b, fam)
    ratio = lhs / rhs
    pin_golden(golden_dir, "ls_dual_ratio_10000_20_10", ratio, tol=1e-9 * (1 + ratio))


def test_bv_golden_regression(golden_dir):
    # regression baseline at x=1e4, y=50, Q=x^0.55
    xi = [trivial_character()]
    f = multfn.smooth_indicator(50)
    total, records = bv_average(f, 10**4, int((10**4) ** 0.55), 1, 1, xi)
    pin_golden(golden_dir, "bv_total_10000_50", total, tol=1e-9 * (1 + total))
    # spot-check three moduli by brute-force enumeration
    flags = oracles.smooth_flags(10**4, 50)
    for q in (2, 11, 97):
        prog = sum(1 for n in range(1, 10**4 + 1) if flags[n] and n % q == 1)
        cop = sum(1 for n in range(1, 10**4 + 1) if flags[n] and math.gcd(n, q) == 1)
        rec = next(r for r in records if r.q == q)
        assert rec.delta_xi.real == prog - cop / euler_phi(q)
