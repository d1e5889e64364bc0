"""The checks reject wrong outputs.  Each case builds a correct output from
the published tables, shows that it passes, then perturbs it once.

    python3 -m pytest perfbench/test_checks.py
"""

import json
from math import ceil

import pytest

from checks import Checker, CheckFailed, Tables, perfect_torus_code_dominates
from workloads import P57, is_prime, seeded_prime

TABLES = Tables()
CHECK = Checker(TABLES)
P31 = seeded_prime(7, 31)


def poly_json(coeffs, modulus=None):
    if modulus:
        coeffs = [c % modulus for c in coeffs]
    md = next(d for d, c in enumerate(coeffs) if c)
    return json.dumps({"minDegree": md, "coefficients": [str(c) for c in coeffs[md:]]})


def table_csv(values, ms, ns):
    lines = ["n/m," + ",".join(map(str, ms))]
    lines += [f"{n}," + ",".join(str(values[m, n]) for m in ms) for n in ns]
    return "\n".join(lines) + "\n"


def test_errata_are_applied():
    assert TABLES.appendix["grid", 4][4] == 2
    assert TABLES.mindom["cylinder", 8] == 5556


@pytest.mark.parametrize("family,n,modulus", [
    ("grid", 8, None), ("grid", 8, P31), ("torus", 7, None), ("torus", 7, P31),
    ("king", 8, None), ("cylinder", 8, None)])
def test_poly_one_coefficient_off(family, n, modulus):
    coeffs = list(TABLES.appendix[family, n])
    assert CHECK.poly(poly_json(coeffs, modulus), family, n, n, modulus) > 0
    for degree in (n * n // 2, n * n - 1, next(d for d, c in enumerate(coeffs) if c)):
        bad = list(coeffs)
        bad[degree] += 1
        with pytest.raises(CheckFailed):
            CHECK.poly(poly_json(bad, modulus), family, n, n, modulus)


def test_poly_wrong_total_without_appendix():
    # grid 9x9 has no appendix entry: the total and the mindom count catch it
    cells = 81
    coeffs = [0] * (cells + 1)
    coeffs[cells], coeffs[cells - 1], coeffs[cells - 2] = 1, cells, cells * (cells - 1) // 2
    coeffs[20] = 32
    with pytest.raises(CheckFailed, match="total"):
        CHECK.poly(poly_json(coeffs, P57), "grid", 9, 9, P57)


def test_poly_without_reference_is_refused():
    coeffs = [0] * 31
    coeffs[30], coeffs[29], coeffs[28] = 1, 30, 435
    with pytest.raises(CheckFailed, match="no published reference"):
        CHECK.poly(poly_json(coeffs), "grid", 5, 6)


def test_count_wrong_total():
    total = TABLES.grid_totals[13]
    assert CHECK.count(f"{total}\n", "grid", 13, 13) == 1
    with pytest.raises(CheckFailed):
        CHECK.count(f"{total + 1}\n", "grid", 13, 13)
    torus = sum(TABLES.appendix["torus", 8])
    assert CHECK.count(f"{torus}\n", "torus", 8, 8) == 1
    with pytest.raises(CheckFailed):
        CHECK.count(f"{torus - 1}\n", "torus", 8, 8)


def test_gamma_table_wrong_entry():
    ms, ns = range(1, 10), range(1, 10)
    king = {(m, n): ceil(m / 3) * ceil(n / 3) for m in ms for n in ns}
    assert CHECK.table(table_csv(king, ms, ns), "gamma", "king", (1, 9), (1, 9)) == 81
    king[4, 7] += 1
    with pytest.raises(CheckFailed):
        CHECK.table(table_csv(king, ms, ns), "gamma", "king", (1, 9), (1, 9))
    ms, ns = range(1, 13), range(1, 25)
    cyl = {(m, n): TABLES.cylinder_gamma[n - 1][m - 1] for m in ms for n in ns}
    assert CHECK.table(table_csv(cyl, ms, ns), "gamma", "cylinder", (1, 12), (1, 24))
    cyl[12, 24] -= 1
    with pytest.raises(CheckFailed):
        CHECK.table(table_csv(cyl, ms, ns), "gamma", "cylinder", (1, 12), (1, 24))


def test_torus_gamma_table():
    ms, ns = range(5, 9), range(5, 11)
    # off-diagonal entries are only bounded below, so fill them with the bound
    torus = {(m, n): ceil(m * n / 5) for m in ms for n in ns}
    for n in range(5, 9):
        torus[n, n] = next(d for d, c in enumerate(TABLES.appendix["torus", n]) if c)
    torus[5, 10] = 10
    assert CHECK.table(table_csv(torus, ms, ns), "gamma", "torus", (5, 8), (5, 10)) == 5
    for key, delta in (((5, 10), 1), ((7, 7), 1), ((6, 9), -1)):
        bad = dict(torus)
        bad[key] += delta
        with pytest.raises(CheckFailed):
            CHECK.table(table_csv(bad, ms, ns), "gamma", "torus", (5, 8), (5, 10))


def test_perfect_torus_code():
    assert perfect_torus_code_dominates(10, 10)
    assert perfect_torus_code_dominates(5, 10)
    assert not perfect_torus_code_dominates(8, 10)


def test_ngamma_table_asymmetric_or_wrong_diagonal():
    ms = ns = range(1, 7)
    grid = {(m, n): 1 for m in ms for n in ns}
    for n in range(2, 7):
        grid[n, n] = TABLES.mindom["grid", n]
    grid[2, 5] = grid[5, 2] = 7
    assert CHECK.table(table_csv(grid, ms, ns), "ngamma", "grid", (1, 6), (1, 6)) == 6
    bad = dict(grid)
    bad[2, 5] = 8
    with pytest.raises(CheckFailed, match="but"):
        CHECK.table(table_csv(bad, ms, ns), "ngamma", "grid", (1, 6), (1, 6))
    bad = dict(grid)
    bad[6, 6] += 1
    with pytest.raises(CheckFailed):
        CHECK.table(table_csv(bad, ms, ns), "ngamma", "grid", (1, 6), (1, 6))


def test_growth_constant_off():
    def out(mu):
        return json.dumps({"family": "grid", "mu": mu, "error": "1e-7",
                           "samples": [{"m": m, "n_used": 9, "mu_m": "2"}
                                       for m in range(3, 13)]})
    assert CHECK.growth(out("1.95475119"), "grid", (3, 12)) == 1
    with pytest.raises(CheckFailed):
        CHECK.growth(out("1.95476119"), "grid", (3, 12))
    with pytest.raises(CheckFailed):
        CHECK.growth(out("1.95475119"), "grid", (3, 11))


def test_primes():
    assert P57.bit_length() == 57 and is_prime(P57)
    assert P31.bit_length() == 31 and is_prime(P31)
    assert seeded_prime(7, 31) == P31 != seeded_prime(8, 31)
