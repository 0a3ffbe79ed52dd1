"""The integer-exponent character route against the lifted-generator oracle.

Values, records and complex values are read one way in the package (the
exponent k(n) mod M); induction and decomposition, second routes kept in
`oracles`, rescale generator exponents.  The lifted-generator oracle values
a character as a sum of per-component fractions and induces and decomposes
through CRT-lifted generators.
"""

import time
import tracemalloc

import numpy as np

import oracles
from oracles import decompose, induce, value
from smoothap.characters import (DirichletCharacter, UnitGroup, character_tables,
                                 complex_tables, enumerate_characters, exponent_rows)


def test_values_and_records_match_fraction_route():
    for q in range(1, 201):
        for chi in enumerate_characters(q):
            row = oracles.fraction_row(chi)
            # off the units the record's "0" entries check the None branch
            assert [value(chi, n) for n, v in enumerate(row) if v is not None] == [
                v for v in row if v is not None], chi
            assert chi.to_record()["values"] == [
                "0" if v is None else f"{v.numerator}/{v.denominator}" for v in row], chi


def test_cvalue_bitwise_equals_complex_table():
    for q in range(1, 201):
        chars = enumerate_characters(q)
        for chi, tab in zip(chars, complex_tables(chars)):
            points = np.array([chi.cvalue(n) for n in range(q)], dtype=np.complex128)
            assert np.array_equal(points.view(np.uint64), tab.view(np.uint64)), chi


def test_batched_rows_and_tables_equal_the_per_character_route():
    # every primitive character of conductor <= 200, one modulus per call
    count = 0
    for q in range(1, 201):
        prims = [chi for chi in enumerate_characters(q) if chi.primitive]
        if not prims:
            continue
        count += len(prims)
        n = np.arange(q)
        rows = exponent_rows(prims, n)
        assert rows.shape == (len(prims), q)
        tables = complex_tables(prims)
        assert tables.shape == (len(prims), q) and tables.flags.writeable
        kept = character_tables(prims)
        assert list(kept) == prims
        for chi, row, tab in zip(prims, rows, tables):
            assert np.array_equal(row, oracles.exponent_row(chi, n)), chi
            want = oracles.complex_table_one(chi).view(np.uint64)
            assert np.array_equal(tab.view(np.uint64), want), chi
            assert np.array_equal(kept[chi].view(np.uint64), want), chi
            assert not kept[chi].flags.writeable
            assert chi.to_record() == oracles.to_record_one(chi), chi
    assert count == 7517


def test_induce_and_decompose_match_lifted_generators():
    prims = {r: [psi for psi in enumerate_characters(r) if psi.primitive]
             for r in range(1, 241)}
    for q in range(1, 241):
        for r in (r for r in range(1, q + 1) if q % r == 0):
            for psi in prims[r]:
                chi = induce(psi, q)
                assert chi.exps == oracles.lift_induce(psi, q).exps, (psi, q)
                assert decompose(chi) == oracles.lift_decompose(chi) == psi, (psi, q)


def test_point_reads_build_no_length_q_array():
    q = 720720  # 2^4 * 3^2 * 5 * 7 * 11 * 13
    group = UnitGroup.get(q)
    assert len(group.components) == 7
    chi = DirichletCharacter(group, tuple(range(1, 8)))
    psi = next(c for c in enumerate_characters(117) if c.primitive)
    low = induce(psi, q)  # conductor 117: decompose carries it down to a built group
    for read in (lambda: value(chi, 17), lambda: chi.cvalue(17),
                 lambda: decompose(low), lambda: induce(psi, q)):
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak  # one int64 row over 0..q-1 is 5.8 MB
    assert decompose(low) == psi


def test_many_point_reads_at_a_large_prime_modulus():
    chars = enumerate_characters(99991)[:20000]
    t0 = time.perf_counter()
    vals = [value(chi, 2) for chi in chars]
    assert time.perf_counter() - t0 < 5.0
    assert vals[::1000] == [oracles.fraction_value(chi, 2) for chi in chars[::1000]]
