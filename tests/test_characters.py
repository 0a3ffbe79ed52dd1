import math
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from oracles import (conjugate, decompose, exact_root_counts_sum, exact_unit_sum, induce,
                     is_principal, multiply, value)
from smoothap.arith import euler_phi
from smoothap.characters import (FAMILY_TABLE_CAP, UnitGroup, _primitive_count,
                                 character_of_rank, enumerate_characters, family_A,
                                 principal_character, trivial_character)
from smoothap.errors import DomainError, SizingError


def units(q):
    return [n for n in range(q)] if q == 1 else [n for n in range(q) if math.gcd(n, q) == 1]


def test_modulus_one():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    chi = chars[0]
    assert chi.conductor == 1 and chi.primitive
    for n in (1, 2, 17, 1000):
        assert value(chi, n) == Fraction(0, 1)


def test_q5_values_at_two_are_fourth_roots():
    vals = sorted(value(chi, 2) for chi in enumerate_characters(5))
    assert vals == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 12])
def test_tables_match_brute_force_homomorphisms(q):
    got = set()
    for chi in enumerate_characters(q):
        got.add(tuple(sorted((u, value(chi, u)) for u in units(q))))
    expect = set()
    for vals in oracles.brute_force_characters(q):
        expect.add(tuple(sorted(vals.items())))
    assert got == expect


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8, 9, 16, 24, 30, 45, 72, 100])
def test_type_invariants(q):
    chars = enumerate_characters(q)
    assert len(chars) == euler_phi(q)
    assert len(set(chars)) == len(chars)
    assert [c.rank for c in chars] == list(range(len(chars)))  # lexicographic
    for chi in chars:
        assert value(chi, 1) == Fraction(0, 1)  # chi(1) = 1
        for n in range(q):
            v = value(chi, n)
            if math.gcd(n, q) > 1 and q > 1:
                assert v is None
            else:
                assert v is not None
        assert q % chi.conductor == 0
        assert chi.primitive == (chi.conductor == q)


@pytest.mark.parametrize("q", [5, 8, 12, 21, 30])
def test_complete_multiplicativity_exact(q):
    for chi in enumerate_characters(q):
        for a in units(q):
            for b in units(q):
                va, vb, vab = value(chi, a), value(chi, b), value(chi, a * b % q)
                assert (va + vb) % 1 == vab % 1


def test_orthogonality_over_units_exact():
    # sum over units of chi(n): phi(q) for the principal character, else 0
    for q in range(1, 201):
        for chi in enumerate_characters(q):
            vals = [value(chi, n) for n in units(q)]
            expected = euler_phi(q) if is_principal(chi) else 0
            assert exact_unit_sum(vals) == expected


def test_orthogonality_over_characters_exact():
    # sum over chi of chi(n): phi(q) when n = 1 mod q, else 0
    for q in range(1, 201):
        group = UnitGroup.get(q)
        chars = enumerate_characters(q)
        M = group.M
        for n in units(q):
            counts = Counter()
            for chi in chars:
                v = value(chi, n)
                counts[int(v * M) % M] += 1
            expected = euler_phi(q) if n % q == 1 % q else 0
            assert exact_root_counts_sum(counts, M) == expected


def test_exact_checker_agrees_with_cyclotomic_oracle():
    for q in range(1, 41):
        for chi in enumerate_characters(q):
            vals = [value(chi, n) for n in units(q)]
            expected = euler_phi(q) if is_principal(chi) else 0
            assert oracles.exact_root_sum_is(vals, expected)
            assert exact_unit_sum(vals) == expected


def test_conductor_examples():
    assert principal_character(12).conductor == 1
    mod4 = [c for c in enumerate_characters(4) if not is_principal(c)][0]
    assert mod4.conductor == 4
    mod6 = [c for c in enumerate_characters(6) if not is_principal(c)][0]
    assert mod6.conductor == 3
    # agreement with the mod-3 character on the units of 6
    psi3 = decompose(mod6)
    assert psi3.q == 3
    for n in (1, 5, 7, 11):
        assert value(mod6, n) == value(psi3, n)


def test_conductor_matches_divisor_scan():
    for q in list(range(1, 73)) + [81, 96, 100, 120]:
        for chi in enumerate_characters(q):
            assert chi.conductor == oracles.conductor_by_scan(chi)


def test_induce_examples():
    q = 6
    psi = [c for c in enumerate_characters(3) if not is_principal(c)][0]
    chi = induce(psi, 6)
    table = [value(chi, n) for n in range(1, 7)]
    assert table[0] == Fraction(0)  # chi(1) = 1
    assert table[4] == Fraction(1, 2)  # chi(5) = -1
    assert table[1] is None and table[2] is None and table[3] is None and table[5] is None
    assert induce(trivial_character(), 10) == principal_character(10)
    with pytest.raises(DomainError):
        induce(psi, 4)  # 3 does not divide 4


def test_induce_decompose_round_trip():
    for q in range(1, 101):
        for r in range(1, q + 1):
            if q % r:
                continue
            for psi in enumerate_characters(r):
                if not psi.primitive:
                    continue
                back = decompose(induce(psi, q))
                assert back == psi


def test_decompose_examples():
    assert decompose(principal_character(45)) == trivial_character()
    for chi in enumerate_characters(40):
        if chi.primitive:
            assert decompose(chi) == chi


def test_character_of_rank_is_the_enumerated_character():
    # one odd prime, prime powers, 2^e with e = 1, 2, 3, 5, and mixed moduli
    for q in (1, 2, 4, 7, 8, 9, 12, 25, 32, 45, 60, 120, 240):
        chars = enumerate_characters(q)
        assert [character_of_rank(q, rank) for rank in range(len(chars))] == chars, q
        assert [chi.rank for chi in chars] == list(range(len(chars))), q
        for rank in (-1, len(chars)):
            with pytest.raises(DomainError):
                character_of_rank(q, rank)


def test_family_sizes():
    assert len(family_A(1).members) == 1
    assert len(family_A(3).members) == 2
    assert len(family_A(5).members) == 6  # conductors 1,3,4,5 give 1+1+1+3


def test_family_table_bytes_come_from_the_primitive_counts():
    # family_A sizes its tables by sum_r 16 r * #primitive characters mod r;
    # test_primitive_decomposition_count checks that count against enumeration
    fam = family_A(60)
    assert sum(tab.nbytes for tab in fam.tables.values()) == 16 * 26445
    tables, D = 0, 0
    while tables <= FAMILY_TABLE_CAP:
        D += 1
        tables += 16 * D * _primitive_count(D)
    assert D == 515  # 514 is the largest D under the cap
    for bound in (D, 10**9):
        with pytest.raises(SizingError):
            family_A(bound)


def test_family_conjugation_closure():
    fam = family_A(40)
    members = set(fam.members)
    for chi in fam.members:
        bar = conjugate(chi)
        assert bar in members
        assert bar.conductor == chi.conductor


def test_primitive_decomposition_count():
    # each character mod q comes from exactly one primitive of conductor s | q
    prim_count = {}
    for s in range(1, 501):
        prim_count[s] = sum(1 for chi in enumerate_characters(s) if chi.primitive)
    for q in range(1, 501):
        total = sum(prim_count[s] for s in range(1, q + 1) if q % s == 0)
        assert total == euler_phi(q)
        assert prim_count[q] == _primitive_count(q), q  # the formula family_A sizes by


def test_product_uniqueness_claim():
    # for fixed primitive chi1, distinct primitive chi2 give distinct
    # primitive characters decompose(chi1 * conj(chi2)): at most one chi2
    # can pair with chi1 over any given psi
    fam = family_A(60)
    prims = fam.members
    for chi1 in prims:
        seen = Counter()
        for chi2 in prims:
            psi = decompose(multiply(chi1, conjugate(chi2)))
            seen[(psi.q, psi.exps)] += 1
        assert max(seen.values()) == 1


def test_serialization_roundtrip():
    chi = [c for c in enumerate_characters(12) if c.primitive][0]
    rec = chi.to_record()
    assert rec["q"] == 12 and rec["conductor"] == 12
    assert len(rec["values"]) == 12
    assert rec["values"][1] == "0/1"  # chi(1) = 1 = e^{2 pi i 0/1}
    assert rec["values"][0] == "0"  # gcd(0, 12) > 1


def test_modulus_zero_rejected():
    with pytest.raises(DomainError):
        enumerate_characters(0)


def test_large_modulus_within_cap():
    # documented cap is 1e6; a five-digit prime modulus stays fast and exact
    q = 99991
    chars = enumerate_characters(q)
    assert len(chars) == euler_phi(q) == 99990
    chi = chars[1]
    assert chi.conductor == q and chi.primitive
    v = value(chi, 2)
    assert v is not None and 0 <= v < 1


def test_induce_from_nonprimitive_with_nondividing_modulus():
    # psi mod 10 of conductor 5: its own modulus does not divide 15, but its
    # conductor does, so induction to 15 must go through the primitive core
    psi10 = next(c for c in enumerate_characters(10)
                 if not is_principal(c) and c.conductor == 5)
    psi5 = decompose(psi10)
    a = induce(psi10, 15)
    b = induce(psi5, 15)
    assert a == b
    for n in range(15):
        assert value(a, n) == value(psi5, n) or value(a, n) is None


def test_multiply_across_two_structures():
    chi8 = next(c for c in enumerate_characters(8) if c.primitive)
    chi3 = next(c for c in enumerate_characters(3) if c.primitive)
    prod = multiply(chi8, chi3)
    assert prod.q == 24
    for n in range(1, 25):
        if math.gcd(n, 24) == 1:
            assert value(prod, n) == (value(chi8, n) + value(chi3, n)) % 1
        else:
            assert value(prod, n) is None
