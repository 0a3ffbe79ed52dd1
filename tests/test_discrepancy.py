import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from smoothap import multfn
from smoothap.arith import euler_phi, factorize, residues, unit_mask
from smoothap.characters import (enumerate_characters, family_A, induce,
                                 trivial_character)
from smoothap.discrepancy import (ExceptionalSet, _record, bv_average,
                                  character_sum, delta, delta_A, delta_xi,
                                  discrepancy_record, residue_sums,
                                  u_kernel_chardef_row, u_kernel_moebius,
                                  u_kernel_moebius_row,
                                  verify_transfer_identity)
from smoothap.errors import DomainError
from smoothap.multfn import dirichlet_inverse, evaluate
from smoothap.sieve import X_MAX_CAP, psi_coprime, psi_progression

XI_TRIVIAL = ExceptionalSet.from_characters([trivial_character()])
XI_EMPTY = ExceptionalSet(members=[])


def brute_delta(f, x, q, a):
    prog = sum(evaluate(f, n) for n in range(1, x + 1) if n % q == a % q)
    cop = sum(evaluate(f, n) for n in range(1, x + 1) if math.gcd(n, q) == 1)
    return prog - cop / euler_phi(q)


def test_character_sum_principal_is_psi_q():
    f = multfn.smooth_indicator(5)
    for q in (3, 7, 12):
        chi0 = [c for c in enumerate_characters(q) if c.is_principal][0]
        s = character_sum(f, 100, chi0)
        assert s == pytest.approx(psi_coprime(100, 5, q))


def test_character_sum_self_twist_is_psi_r():
    for r in (3, 5, 8):
        psi_r = [c for c in enumerate_characters(r) if c.primitive][0]
        f = multfn.character_twist(psi_r, 20)
        s = character_sum(f, 5000, psi_r)
        assert s == pytest.approx(psi_coprime(5000, 20, r))


def test_character_sum_hand_example():
    # 15 coprime members of the 5-smooth set below 100: 8 at residue 1, 7 at 2;
    # the real nontrivial character mod 3 sends 2 to -1, so the sum is 8 - 7
    f = multfn.smooth_indicator(5)
    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    assert psi_progression(100, 5, 1, 3) == 8
    assert psi_progression(100, 5, 2, 3) == 7
    s = character_sum(f, 100, chi)
    assert s == pytest.approx(8 * 1 + 7 * (-1))


def test_delta_fixed_point():
    f = multfn.smooth_indicator(5)
    assert delta(f, 100, 3, 1) == pytest.approx(0.5)
    rec = discrepancy_record(f, 100, 3, 1, 1)
    assert rec.delta == rec.progression_sum - rec.coprime_main


def test_delta_q_one_exact():
    f = multfn.random_unit_circle(9, smooth_bound=50)
    assert delta(f, 5000, 1, 0) == 0


def test_delta_gcd_precondition():
    f = multfn.smooth_indicator(5)
    with pytest.raises(DomainError):
        delta(f, 100, 6, 3)
    for q in (0, -3):
        for call in (lambda: delta(f, 100, q, 1),
                     lambda: delta_xi(f, 100, q, 1, 1, XI_TRIVIAL),
                     lambda: delta_A(f, 100, q, 1, 1, 3)):
            with pytest.raises(DomainError):
                call()


def test_delta_telescoping():
    for q in (3, 8, 15):
        f = multfn.random_unit_circle(q, smooth_bound=30)
        total = sum(delta(f, 2000, q, a)
                    for a in range(q) if math.gcd(a, q) == 1)
        assert abs(total) <= 1e-10 * euler_phi(q)


def test_delta_against_brute_force():
    for q, a, seed in ((3, 2, 1), (7, 4, 2), (12, 5, 3)):
        f = multfn.random_unit_circle(seed, smooth_bound=20)
        got = delta(f, 800, q, a)
        want = brute_delta(f, 800, q, a)
        assert got == pytest.approx(want, abs=1e-9)


def test_delta_xi_trivial_equals_delta():
    f = multfn.smooth_indicator(5)
    for q, a in ((3, 1), (7, 2), (11, 6)):
        assert delta_xi(f, 100, q, a, 1, XI_TRIVIAL) == pytest.approx(
            delta(f, 100, q, a), abs=1e-10)


def test_delta_xi_empty_is_progression_sum():
    f = multfn.smooth_indicator(5)
    got = delta_xi(f, 100, 3, 1, 1, XI_EMPTY)
    assert got == pytest.approx(psi_progression(100, 5, 1, 3))


def test_delta_A_dual_route_spec_tuple():
    # x=100, y=5, q=7, D=3: divisor-sum route against the character route
    f = multfn.smooth_indicator(5)
    xi = ExceptionalSet.from_characters(family_A(3).members)
    a = delta_xi(f, 100, 7, 1, 1, xi)
    b = delta_A(f, 100, 7, 1, 1, 3)
    assert abs(a - b) <= 1e-10


def test_delta_xi_full_family_equals_delta_A():
    f = multfn.smooth_indicator(5)
    for q, D in ((7, 10), (12, 15), (9, 9)):
        xi = ExceptionalSet.from_characters(family_A(D).members)
        a = delta_xi(f, 300, q, 1, 1, xi)
        b = delta_A(f, 300, q, 1, 1, D)
        assert abs(a - b) <= 1e-8


def test_delta_xi_negative_residues():
    f = multfn.smooth_indicator(20)
    # negatives reduce mod q before inversion
    assert delta_xi(f, 500, 7, -1, 1, XI_TRIVIAL) == pytest.approx(
        delta_xi(f, 500, 7, 6, 1, XI_TRIVIAL))


def test_kernel_moebius_examples():
    assert u_kernel_moebius(6, 5, 1) == Fraction(3, 4)
    assert u_kernel_moebius(2, 5, 1) == Fraction(-1, 4)
    for n in range(5):
        if math.gcd(n, 5) == 1:
            assert u_kernel_moebius(n, 5, 5) == 0
    assert u_kernel_moebius(10, 5, 3) == 0  # gcd(n, q) > 1


def test_kernel_identity_small_grid():
    fam = family_A(10)
    for q in range(1, 61):
        for D in (1, 2, 3, 5, 10):
            row = u_kernel_chardef_row(q, D, fam)
            for n in range(q):
                mo = u_kernel_moebius(n, q, D)
                assert abs(row[n] - float(mo)) <= 1e-10
                # rational exactness: phi(q) * kernel is an integer
                assert (mo * euler_phi(q)).denominator == 1


def test_kernel_scalar_matches_row():
    fam = family_A(10)
    rng = random.Random(4)
    for _ in range(25):
        q = rng.randrange(1, 40)
        D = rng.choice([1, 2, 3, 5, 10])
        n = rng.randrange(q)
        assert oracles.u_kernel_chardef(n, q, D, fam) == u_kernel_chardef_row(q, D, fam)[n]


# Exact == on the real and imaginary parts: bitwise, except that signed
# zeros compare by value.

def test_kernel_chardef_row_bitwise_equals_cells():
    fam = family_A(10)
    grid = [(q, 10) for q in range(1, 161)]
    grid += [(q, D) for q in range(1, 61) for D in (1, 2, 3, 5)]
    for q, D in grid:
        row = u_kernel_chardef_row(q, D, fam)
        assert row.shape == (q,)
        for n in range(q):
            cell = oracles.u_kernel_chardef(n, q, D, fam)
            assert row[n].real == cell.real and row[n].imag == cell.imag, (q, D, n)


def test_kernel_moebius_row_bitwise_equals_cells():
    for q in range(1, 301):
        for D in (1, 2, 3, 5, 10, 20, 30):
            row = u_kernel_moebius_row(q, D)
            assert row.dtype == np.float64 and row.shape == (q,)
            assert row.tolist() == [float(u_kernel_moebius(n, q, D)) for n in range(q)], (q, D)


def test_kernel_moebius_row_domain():
    for q, D in ((0, 1), (-3, 2), (5, 0)):
        with pytest.raises(DomainError):
            u_kernel_moebius_row(q, D)


def test_kernel_vanishing_and_bound():
    fam = family_A(30)
    for q in range(1, 80):
        tau_q = len([d for d in range(1, q + 1) if q % d == 0])
        for D in (1, 3, 10, 30):
            for n in range(q):
                val = u_kernel_moebius(n, q, D)
                if math.gcd(n, q) > 1:
                    assert val == 0
                elif q <= D:
                    assert val == 0  # all characters mod q have conductor <= D
                ind = 1 if n % q == 1 % q else 0
                assert abs(val) <= ind + D * tau_q / euler_phi(q) + 1e-12


def test_delta_A_collapse_above_q():
    f = multfn.random_unit_circle(2, smooth_bound=50)
    for q in (3, 8, 12):
        assert abs(delta_A(f, 2000, q, 1, 1, q)) <= 1e-10
        assert abs(delta_A(f, 2000, q, 1, 1, 3 * q)) <= 1e-10


def test_delta_A_at_D_one_equals_delta():
    f = multfn.smooth_indicator(5)
    for q, a in ((7, 3), (9, 2)):
        da = delta_A(f, 1000, q, a, 1, 1)
        # family A(1) = {trivial}: same main term as plain delta at b = a * conj(1)
        assert da == pytest.approx(delta(f, 1000, q, a), abs=1e-10)


def test_delta_A_equals_scalar_kernel_cells():
    # the gathered Moebius row against one exact scalar kernel call per residue
    f = multfn.random_unit_circle(3, smooth_bound=50)
    ns, vs = multfn.get_support(f, 3000)
    for q, a1, a2, D in ((1, 1, 1, 2), (7, 3, 1, 5), (12, 5, 7, 3), (30, 7, 11, 10)):
        c = pow(a1, -1, q) * a2 % q if q > 1 else 0
        cells = np.array([float(u_kernel_moebius(r * c % q, q, D)) for r in range(q)])
        expected = complex((cells * residue_sums(ns, vs, q)).sum())
        assert delta_A(f, 3000, q, a1, a2, D) == expected


def test_bv_average_rejects_Q_above_x():
    with pytest.raises(DomainError):
        bv_average(multfn.smooth_indicator(20), 100, 200, 1, 1, XI_TRIVIAL)


def test_bv_average_edges():
    f = multfn.smooth_indicator(20)
    total, records = bv_average(f, 1000, 1, 1, 1, XI_TRIVIAL)
    assert total == 0 and len(records) == 1
    t10, _ = bv_average(f, 1000, 10, 1, 1, XI_TRIVIAL)
    t30, _ = bv_average(f, 1000, 30, 1, 1, XI_TRIVIAL)
    assert t30 >= t10 >= 0


def test_bv_average_filters_moduli():
    f = multfn.smooth_indicator(20)
    total, records = bv_average(f, 1000, 20, 2, 3, XI_TRIVIAL)
    assert [r.q for r in records] == [q for q in range(1, 21) if math.gcd(q, 6) == 1]


def test_bv_average_keeps_no_per_modulus_arrays():
    # the units of each q are built per call: a Q = 1000 pass keeps nothing
    # of size sum phi(q) (about 2.4 MB of int64) once it returns
    f = multfn.smooth_indicator(20)
    bv_average(f, 5000, 10, 1, 1, XI_TRIVIAL)  # first caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bv_average(f, 5000, 1000, 1, 1, XI_TRIVIAL)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 512 * 1024, retained


def test_support_and_bv_average_peak_bytes_per_point():
    # at x = 250,000 and y = x^(1/3), as on the decay curve: the build holds
    # an int32 position and a complex value per point, the walk, and the
    # bitmap and ranks over 0..x (x/8 + x/16 bytes); bv_average adds the
    # part of the support prime to gcd(q, 6) and the per-q residues
    x, y = 250_000, 63
    peaks = []
    for run in (lambda f: multfn.get_support(f, x),
                lambda f: bv_average(f, x, 100, 1, 1, XI_EMPTY)):
        f = multfn.random_unit_circle(0, smooth_bound=y)
        tracemalloc.start()
        try:
            run(f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    n = multfn.get_support(f, x)[0].size
    assert peaks[0] <= 32 * n, peaks[0] / n
    assert peaks[1] <= 40 * n, peaks[1] / n


RECORD_FIELDS = ("delta", "delta_xi", "progression_sum", "coprime_main", "xi_main")


def _bits(z) -> bytes:
    return np.complex128(z).tobytes()


def _same_records(recs1, recs2) -> bool:
    return len(recs1) == len(recs2) and all(
        r1.q == r2.q and r1.delta_a is None and r2.delta_a is None
        and all(_bits(getattr(r1, k)) == _bits(getattr(r2, k)) for k in RECORD_FIELDS)
        for r1, r2 in zip(recs1, recs2))


def test_bv_average_thread_determinism():
    f = multfn.random_unit_circle(5, smooth_bound=50)
    xi_a = ExceptionalSet.from_characters(family_A(12).members)
    for xi in (XI_TRIVIAL, xi_a):
        runs = [bv_average(f, 3000, 40, 1, 1, xi, threads=k)
                for k in (1, 4, 8)]
        assert runs[0][0] == runs[1][0] == runs[2][0]
        assert _same_records(runs[0][1], runs[1][1])
        assert _same_records(runs[0][1], runs[2][1])


def test_residues_equal_remainder():
    rng = np.random.default_rng(7)
    for q in [*range(1, 601), 999_983]:
        mult = q * np.arange(X_MAX_CAP // q + 1, step=max(1, X_MAX_CAP // q // 50))
        n = np.concatenate([np.arange(3 * q + 2), mult, mult[1:] - 1, mult + 1,
                            [X_MAX_CAP - 1, X_MAX_CAP],
                            rng.integers(0, X_MAX_CAP + 1, size=200)])
        for dtype in (np.int32, np.int64):
            nd = n.astype(dtype)
            got = residues(nd, q)
            assert got.dtype == dtype
            assert np.array_equal(got, nd % q)


def test_unit_mask_equals_gcd_form():
    for q in range(1, 5001):
        want = np.gcd(np.arange(q), q) == 1
        got = unit_mask(q)
        assert got.dtype == bool and np.array_equal(got, want), q


def test_residue_sums_bitwise_across_layouts():
    # the one np.add.at equals the two-bincount form bit for bit, for int32
    # and int64 positions, contiguous and strided values, signed zeros and
    # an empty support
    ns, vs = multfn.get_support(multfn.random_unit_circle(3, smooth_bound=50), 10**4)
    assert ns.dtype == np.int32
    zeros = vs.copy()
    zeros[::3] = complex(-0.0, -0.0)
    zeros[1::3] = complex(0.0, -0.0)
    zeros[2::7] = complex(-0.0, 0.0)
    cases = [(ns, vs), (ns[:0], vs[:0]), (ns, zeros), (ns[::5], zeros[::5])]
    for q in (1, 2, 7, 60, 97, 600, 9999):
        for pos, val in cases:
            want = oracles.bincount_residue_sums(pos, val, q)
            wide = pos.astype(np.int64)
            padded = np.empty((val.size, 2), dtype=np.complex128)
            padded[:, 0] = val
            for got in (residue_sums(pos, val, q), residue_sums(wide, val, q),
                        residue_sums(pos, padded[:, 0], q),
                        residue_sums(wide, padded[:, 0], q)):
                assert got.dtype == np.complex128 and got.shape == (q,)
                assert got.tobytes() == want.tobytes()


def test_member_value_equals_induced_value_at_units():
    # the Xi main term reads psi(b) for a unit b mod q instead of inducing
    for psi0 in family_A(12).members:
        for q in range(psi0.q, 121, psi0.q):
            chi = induce(psi0, q)
            for b in range(q):
                if math.gcd(b, q) == 1:
                    assert psi0.value(b) == chi.value(b)
                    assert _bits(psi0.cvalue(b)) == _bits(chi.cvalue(b))


def test_xi_record_reads_only_unit_bins():
    # bv_average sums each q over the support prime to gcd(q, 6) only, so
    # the non-unit bins it passes are incomplete: _record must not read them
    ns, vs = multfn.get_support(multfn.random_unit_circle(5, smooth_bound=50), 10**4)
    xis = (XI_EMPTY, XI_TRIVIAL, ExceptionalSet.from_characters(family_A(12).members))
    for q in range(1, 61):
        rs = residue_sums(ns, vs, q)
        poisoned = rs.copy()
        poisoned[~unit_mask(q)] = complex(np.nan, np.nan)
        for xi in xis:
            for a1, a2 in ((1, 1), (5, 7)):
                if math.gcd(q, a1 * a2) == 1:
                    assert _same_records([_record(poisoned, q, a1, a2, xi)],
                                         [_record(rs, q, a1, a2, xi)])


def test_bv_average_records_equal_delta_xi_record():
    # the per-modulus path of bv_average, over the support prime to
    # gcd(q, 6), against the public one over the whole support; (5, 7) puts
    # q with gcd(q, 6) in {2, 3, 6} at a unit b != 1
    x, Q = 10**5, 60
    xis = (XI_EMPTY, XI_TRIVIAL, ExceptionalSet.from_characters(family_A(12).members))
    twist = family_A(12).members[7]
    fs = (multfn.random_unit_circle(5, smooth_bound=50), multfn.moebius_smooth(50),
          multfn.character_twist(twist, 50))
    for f in fs:
        for xi in xis:
            for a1, a2 in ((1, 1), (2, 3), (5, 7)):
                want = [discrepancy_record(f, x, q, a1, a2, xi=xi)
                        for q in range(1, Q + 1) if math.gcd(q, a1 * a2) == 1]
                want_total = 0.0
                for rec in want:
                    want_total += abs(rec.delta_xi)
                for threads in (1, 2):
                    total, got = bv_average(f, x, Q, a1, a2, xi,
                                            threads=threads)
                    assert total == want_total
                    assert _same_records(got, want)


def test_transfer_identity_xi_equals_family():
    f = multfn.smooth_indicator(20)
    D = 5
    xi = ExceptionalSet.from_characters(family_A(D).members)
    chk = verify_transfer_identity(f, 2000, 12, 1, 1, xi, D)
    assert abs(chk.lhs) <= 1e-8 and abs(chk.rhs) <= 1e-8


def test_transfer_identity_prime_modulus():
    f = multfn.smooth_indicator(10**4)  # f = 1 on its whole support
    chk = verify_transfer_identity(f, 3000, 13, 1, 1, XI_TRIVIAL, 5)
    assert chk.residual <= 1e-8 * (1 + abs(chk.lhs))


def test_transfer_identity_requires_xi_in_family():
    psi7 = [c for c in enumerate_characters(7) if c.primitive][0]
    xi = ExceptionalSet.from_characters([psi7])
    with pytest.raises(DomainError):
        verify_transfer_identity(multfn.smooth_indicator(5), 100, 7, 1, 1, xi,
                                 3)


def test_transfer_identity_randomized():
    rng = random.Random(12)
    fam = family_A(10)
    for trial in range(25):
        q = rng.randrange(2, 31)
        x = rng.randrange(50, 5001)
        D = rng.randrange(1, 11)
        f = multfn.random_unit_circle(seed=trial, smooth_bound=rng.choice([20, 50]))
        mem = [c for c in fam.members if c.q <= D]
        xi = ExceptionalSet.from_characters(rng.sample(mem, rng.randrange(len(mem) + 1)))
        a1, a2 = rng.choice([(1, 1), (2, 1), (-1, 2), (5, 3)])
        if math.gcd(a1 * a2, q) != 1:
            continue
        chk = verify_transfer_identity(f, x, q, a1, a2, xi, D)
        assert chk.residual <= 1e-8 * (1 + abs(chk.lhs))


def test_beta_stats():
    assert (XI_EMPTY.beta, XI_EMPTY.weighted_count) == (0, 0.0)
    assert XI_TRIVIAL.beta == 1 and XI_TRIVIAL.weighted_count == 1.0
    psi3 = [c for c in enumerate_characters(3) if c.primitive][0]
    xi = ExceptionalSet.from_characters([trivial_character(), psi3])
    assert xi.beta == Fraction(4, 3)
    assert xi.weighted_count == pytest.approx(1 + 3 ** -0.5)


def test_induced_sum_convolution_identity():
    # S_f(x, chi) = sum over m (primes | q, not | r) of h(m) S_f(x/m, psi)
    # with chi mod q induced by primitive psi mod r and h the inverse of
    # f * conj(psi) restricted to those primes
    rng = random.Random(3)
    x = 10**4
    for q in (6, 12, 20, 45, 60):
        f = multfn.random_unit_circle(q, smooth_bound=50)
        for psi0 in family_A(10).members:
            r = psi0.q
            if q % r or r == q:
                continue
            chi = induce(psi0, q)
            lhs = character_sum(f, x, chi)
            qr_primes = tuple(p for p, _ in factorize(q) if r % p != 0)

            def w_oracle(p, k, f=f, psi0=psi0):
                return f.at(p, k) * np.conj(psi0.cvalue(p)) ** k

            w = multfn.MultFnSpec("w", w_oracle, smooth_bound=f.smooth_bound)
            h_full = dirichlet_inverse(w, x)

            def h_oracle(p, k, h_full=h_full, qr=qr_primes):
                return h_full.at(p, k) if p in qr else 0j

            h = multfn.MultFnSpec("h", h_oracle)
            assert multfn.check_class_c(h, 200).valid  # h inherits membership from f
            rhs = 0j
            from smoothap.arith import radical_multiples
            for m in radical_multiples(qr_primes, x):
                hm = evaluate(h, m)
                if hm != 0:
                    rhs += hm * character_sum(f, x // m, psi0)
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs))


def test_delta_xi_against_definition():
    # slow route: progression sum and character main terms evaluated n by n
    rng = random.Random(31)
    fam = family_A(8)
    for trial in range(6):
        q = rng.randrange(2, 25)
        x = rng.randrange(40, 800)
        f = multfn.random_unit_circle(seed=400 + trial, smooth_bound=30)
        mem = [c for c in fam.members if q % c.q == 0]
        xi = ExceptionalSet.from_characters(
            rng.sample(mem, rng.randrange(1, len(mem) + 1)))
        b = rng.choice([r for r in range(1, q) if math.gcd(r, q) == 1] or [0])
        got = delta_xi(f, x, q, b, 1, xi)
        prog = sum(evaluate(f, n) for n in range(1, x + 1)
                   if n % q == b % q)
        main = 0j
        for psi0 in xi.characters:
            chi = induce(psi0, q)
            s = sum(evaluate(f, n) * complex(np.conj(chi.complex_table()[n % q]))
                    for n in range(1, x + 1))
            main += chi.cvalue(b) * s
        want = prog - main / euler_phi(q)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))
