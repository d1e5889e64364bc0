import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from domcount.rings import (
    EXACT,
    Polynomial,
    Ring,
    covering_primes,
    crt_reconstruct,
    is_probable_prime,
    lane_sum,
    lane_values,
    select_moduli,
)


def P(coeffs, ring=EXACT):
    return Polynomial.from_coefficients(coeffs, ring)


def residues_of(poly, primes):
    return [(p, tuple(c % p for c in poly.coefficients)) for p in primes]


def test_trim_and_degrees():
    poly = Polynomial(EXACT, (0, 3, 0, 0))
    assert poly.trimmed().coefficients == (0, 3)
    assert poly.degree() == 1
    assert poly.min_degree() == 1
    assert poly.coefficient(1) == 3
    assert poly.coefficient(17) == 0
    zero = Polynomial(EXACT, ())
    assert not any(zero.coefficients)
    assert zero.degree() is None
    assert zero.min_degree() is None
    assert zero.trimmed().coefficients == ()


def test_mod_ring_normalizes_inputs():
    assert P([-1, 9], Ring(7)).coefficients == (6, 2)
    with pytest.raises(ValueError):
        Ring(1)


def test_to_text():
    assert P([0, 0, 6, 4, 1]).to_text() == "6z^2 + 4z^3 + z^4"
    assert P([5]).to_text() == "5"
    assert P([0, 1]).to_text() == "z"
    assert P([0, 2]).to_text() == "2z"
    assert P([1, 0, 1]).to_text() == "1 + z^2"
    assert Polynomial(EXACT, ()).to_text() == "0"


@pytest.mark.parametrize("n,expect", [
    (0, False), (1, False), (2, True), (3, True), (4, False),
    (561, False),           # Carmichael number
    (3215031751, False),    # strong pseudoprime to several small bases
    (65519, True), (65521, True), (65537, True),
    ((1 << 61) - 1, True),
])
def test_is_probable_prime(n, expect):
    assert is_probable_prime(n) is expect


def test_select_moduli_known_answers():
    assert select_moduli(25, 16).primes == (65521, 65519)
    assert select_moduli(1, 16).primes == (65521,)


def test_select_moduli_properties():
    ms = select_moduli(100, 16)
    assert ms.product() >= 1 << 100
    assert list(ms.primes) == sorted(set(ms.primes), reverse=True)
    assert all(is_probable_prime(p) and p < 1 << 16 for p in ms.primes)
    # dropping the smallest prime must fall below the bound: no over-selection
    short = 1
    for p in ms.primes[:-1]:
        short *= p
    assert short < 1 << 100


def test_select_moduli_errors():
    with pytest.raises(ValueError):
        select_moduli(10, 7)
    with pytest.raises(ValueError):
        select_moduli(10, 32)
    with pytest.raises(ValueError):
        select_moduli(0, 16)
    with pytest.raises(ValueError):
        select_moduli(10**6, 16)


def test_crt_small_cases():
    assert crt_reconstruct([(7, [3]), (11, [10])]).coefficients == (10,)
    assert crt_reconstruct([(7, [3])]).coefficients == (3,)


def test_crt_recovers_a_table_value(grid_totals):
    value = grid_totals[5]
    poly = P([value])
    residues = residues_of(poly, (65521, 65519))
    assert residues == [(65521, (value % 65521,)), (65519, (value % 65519,))]
    assert crt_reconstruct(residues) == poly


def test_crt_input_validation():
    with pytest.raises(ValueError):
        crt_reconstruct([])
    with pytest.raises(ValueError):
        crt_reconstruct([(7, [1, 2]), (11, [1])])
    with pytest.raises(ValueError):
        crt_reconstruct([(7, [1]), (7, [1])])


@given(st.lists(st.integers(0, (1 << 60) - 1), min_size=1, max_size=8))
def test_crt_round_trip(coeffs):
    primes = select_moduli(61, 16).primes
    poly = P(coeffs)
    assert crt_reconstruct(residues_of(poly, primes)) == poly


@given(st.lists(st.integers(0, (1 << 60) - 1), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_crt_is_order_independent(coeffs, rng):
    primes = list(select_moduli(61, 16).primes)
    residues = residues_of(P(coeffs), primes)
    shuffled = residues[:]
    rng.shuffle(shuffled)
    assert crt_reconstruct(shuffled) == crt_reconstruct(residues)


def _wrapped(values):
    return [v & (2**64 - 1) for v in values]


def test_int64_arithmetic_wraps_modulo_2_64():
    # the int64 lane of an exact sweep is never reduced: it relies on these
    # ufuncs wrapping silently, without a warning, once values pass 2^63
    rng = np.random.default_rng(1)
    a = rng.integers(2**61, 2**63 - 1, size=(40, 3), dtype=np.int64)
    b = rng.integers(2**61, 2**63 - 1, size=(40, 3), dtype=np.int64)
    x, y = a.ravel().tolist(), b.ravel().tolist()
    at = [0, 7, 8, 30]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        added = np.add(a, b)
        multiplied = np.multiply(a, b)
        grouped = np.add.reduceat(a, at, axis=0)
        total = a.sum()
    assert _wrapped(added.ravel().tolist()) == _wrapped(map(sum, zip(x, y)))
    assert _wrapped(multiplied.ravel().tolist()) == \
        _wrapped(u * v for u, v in zip(x, y))
    bounds = [*at, len(a)]
    assert _wrapped(grouped.ravel().tolist()) == _wrapped(
        sum(row[j] for row in a[lo:hi].tolist())
        for lo, hi in zip(bounds[:-1], bounds[1:]) for j in range(3))
    assert _wrapped([int(total)]) == _wrapped([sum(x)])


def test_lanes_recombine_the_2_64_lane_with_primes():
    # sums up to 2^90 over 300 rows: the int64 lane (modulus 0) wraps, and
    # two primes below 2^14 leave a 2^64 * P1 * P2 > 2^91 cover
    rng = np.random.default_rng(2)
    rows = [[int(v) << 40 | int(w) for v, w in zip(
        rng.integers(0, 2**40, size=5), rng.integers(0, 2**40, size=5))]
        for _ in range(300)]
    primes = covering_primes(27, 14)
    moduli = np.array([0, *primes], dtype=np.int64)
    lanes = np.array([[[v & (2**64 - 1)] for v in row] for row in rows],
                     dtype=np.uint64).view(np.int64)
    lanes = np.concatenate([lanes, [[[v % p for p in primes] for v in row]
                                    for row in rows]], axis=2)
    sums = [sum(col) for col in zip(*rows)]
    assert max(sums) >= 1 << 64
    assert lane_values(lane_sum(lanes, moduli), moduli) == sums
    # alone, the int64 lane reads every value modulo 2^64, never negative
    assert lane_values(lanes[0, :, :1], moduli[:1]) == _wrapped(rows[0])
