"""End-to-end checks against the bundled reference data.

One test per shipped guarantee: square-board polynomials, totals, domination
numbers, minimum-set counts, full brute-force equivalence on small boards,
signature combinatorics, multi-modular reconstruction, growth constants, and
the king closed form.  Everything here is exact except the two growth
targets, whose tolerances are stated inline.
"""

import os
import random
from decimal import Decimal
from math import ceil

import pytest

from domcount.analysis import estimate_growth
from domcount.engine import (
    FAMILIES,
    GraphSpec,
    count_dominating,
    domination_polynomial,
    gamma_series,
    mincount_series,
    run_sweep,
)
from domcount.oracle import brute_force_polynomial
from domcount.rings import Polynomial, Ring, crt_reconstruct, select_moduli
from domcount.signatures import (
    Signature,
    closed_form_count,
    count_signatures,
    signature_codes,
)


def test_square_polynomials_small_boards(appendix_poly):
    for family in FAMILIES:
        for n in range(1, 7):
            got = domination_polynomial(GraphSpec(family, n, n))
            assert list(got.coefficients) == appendix_poly(family, n), \
                f"{family} {n}x{n}"
    # the one corrected table entry, settled by exhaustive enumeration
    oracle = brute_force_polynomial(GraphSpec("grid", 4, 4), cell_guard=16)
    assert list(oracle.coefficients) == appendix_poly("grid", 4)
    assert oracle.coefficient(4) == 2


def test_square_polynomials_medium_boards(appendix_poly):
    for family in FAMILIES:
        for n in (7, 8):
            got = domination_polynomial(GraphSpec(family, n, n))
            assert list(got.coefficients) == appendix_poly(family, n), \
                f"{family} {n}x{n}"
    grid8 = domination_polynomial(GraphSpec("grid", 8, 8))
    assert grid8.min_degree() == 16 and grid8.coefficient(16) == 52
    torus8 = domination_polynomial(GraphSpec("torus", 8, 8))
    assert torus8.min_degree() == 16 and torus8.coefficient(16) == 129224
    king8 = domination_polynomial(GraphSpec("king", 8, 8))
    assert king8.coefficient(64) == 1 and king8.coefficient(63) == 64


def test_square_grid_totals(grid_totals):
    for n in range(1, 15):
        assert count_dominating(GraphSpec("grid", n, n)) == grid_totals[n], \
            f"grid {n}x{n}"
    assert len(str(grid_totals[14])) == 57


def test_cylinder_domination_numbers(cylinder_gamma):
    checked = 0
    for m in range(1, 13):
        series = gamma_series("cylinder", m, 12)
        for n in range(1, 13):
            assert series[n - 1] == cylinder_gamma(m, n), f"cylinder {m}x{n}"
            checked += 1
    assert checked == 144


def test_minimum_dominating_set_counts(mindom_table):
    assert mindom_table("grid", 6) == 288
    assert mindom_table("torus", 7) == 686
    assert mindom_table("king", 10) == 581571283
    for family in FAMILIES:
        for n in range(2, 11):
            _, count = mincount_series(family, n, n)[-1]
            assert count == mindom_table(family, n), f"{family} {n}x{n}"


def test_engine_matches_brute_force_on_all_small_boards():
    checked = 0
    for family in FAMILIES:
        for m in range(1, 19):
            for n in range(1, 18 // m + 1):
                spec = GraphSpec(family, m, n)
                got = domination_polynomial(spec)
                want = brute_force_polynomial(spec, cell_guard=18)
                assert got == want, f"{family} {m}x{n}"
                checked += 1
    assert checked == 4 * sum(18 // m for m in range(1, 19))


def test_signature_counts_and_transfer_identities(transfer_tables):
    for m in range(1, 17):
        assert len(signature_codes(m)) == count_signatures(m)
        assert len(signature_codes(m, cyclic=True)) == \
            count_signatures(m, "cyclic")
    for m in range(0, 26):
        assert closed_form_count(m) == count_signatures(m)
        assert closed_form_count(m, "cyclic") == count_signatures(m, "cyclic")
    # one engine row from each start is a column of the bundled matrices
    for key, family in (("grid_m2", "grid"), ("cylinder_m3", "cylinder")):
        table = transfer_tables[key]
        named = [Signature.from_text(text) for text in table["signatures"]]
        for si, sigma in enumerate(named):
            got = run_sweep(GraphSpec(family, sigma.width, 1), sigma)
            assert got == {tau.code: Polynomial.monomial(row[si])
                           for tau, row in zip(named, table["exponents"])
                           if row[si] is not None}, (key, sigma.to_text())


def test_multimodular_reconstruction_matches_exact():
    rng = random.Random(20240817)
    instances = []
    while len(instances) < 20:
        family = FAMILIES[len(instances) % 4]
        m = rng.randint(1, 8)
        n = rng.randint(1, 100 // m)
        if m * n < 2:
            continue
        instances.append(GraphSpec(family, m, n))
    for spec in instances:
        assert spec.cells <= 100
        # one independent sweep per 16-bit prime, recombined by CRT
        moduli = select_moduli(spec.cells + 1, 16)
        assert moduli.product() >= 1 << (spec.cells + 1)
        residues = []
        for p in moduli.primes:
            coeffs = domination_polynomial(spec, ring=Ring(p)).coefficients
            residues.append((p, list(coeffs) + [0] * (spec.cells + 1
                                                       - len(coeffs))))
        assert crt_reconstruct(residues).trimmed() == \
            domination_polynomial(spec), f"{spec.family} {spec.m}x{spec.n}"


def test_growth_constant_estimates():
    bulk = Decimal("1.9547511954")
    grid = estimate_growth("grid", 3, 12)
    assert abs(grid.mu - bulk) <= Decimal("1e-6")
    cylinder = estimate_growth("cylinder", 3, 14)
    assert abs(cylinder.mu - bulk) <= Decimal("1e-6")
    king = estimate_growth("king", 3, 13)
    king_target = Decimal("1.9970643866")
    assert abs(king.mu - king_target) <= Decimal("1e-5")
    assert Decimal("1.9969") <= king.mu <= Decimal("1.9972")


def test_king_domination_number_closed_form():
    for m in range(1, 11):
        series = gamma_series("king", m, 10)
        assert series == [ceil(m / 3) * ceil(n / 3) for n in range(1, 11)], \
            f"king width {m}"


@pytest.mark.skipif(os.environ.get("DOMCOUNT_STRETCH") != "1",
                    reason="about 20 s and 650 MiB; set DOMCOUNT_STRETCH=1 "
                    "to run")
def test_stretch_large_grid_minimum_count(mindom_table, grid_totals):
    gamma, count = mincount_series("grid", 16, 16)[-1]
    assert (gamma, count) == (60, 100406)
    assert mindom_table("grid", 16) == 100406
    # the count sweep where its state arrays are largest
    assert count_dominating(GraphSpec("grid", 16, 16)) == grid_totals[16]
