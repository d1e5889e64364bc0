"""Randomized cross-checks of the sweep engine.

The engine's polynomials and its count, min-plus and mincount series
against the brute-force oracle on random small boards, and modular runs
against exact ones on boards past the 66 cells one unreduced int64 lane
can hold, for moduli from 31 bits up to the admissible bound.
"""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domcount.engine import (FAMILIES, GraphSpec, count_series,
                             domination_polynomial, gamma_series,
                             mincount_series)
from domcount.oracle import brute_force_polynomial
from domcount.rings import Ring, is_probable_prime


@st.composite
def small_boards(draw, max_width=20):
    family = draw(st.sampled_from(FAMILIES))
    m = draw(st.integers(1, max_width))
    n = draw(st.integers(1, 20 // m))
    return GraphSpec(family, m, n)


@settings(max_examples=25, deadline=None)
@given(small_boards())
def test_engine_matches_the_oracle(spec):
    assert domination_polynomial(spec) == brute_force_polynomial(spec)


# the series sweep along m as given, never the narrower side, so a wide
# one-row board such as king 18x1 exceeds the default state guard
@settings(max_examples=25, deadline=None)
@given(small_boards(max_width=10))
def test_semiring_series_match_the_oracle(spec):
    polys = [brute_force_polynomial(GraphSpec(spec.family, spec.m, n))
             for n in range(1, spec.n + 1)]
    lowest = [poly.min_degree() for poly in polys]
    assert count_series(spec.family, spec.m, spec.n) == \
        [sum(poly.coefficients) for poly in polys]
    assert gamma_series(spec.family, spec.m, spec.n) == lowest
    assert mincount_series(spec.family, spec.m, spec.n) == \
        [(g, poly.coefficient(g)) for g, poly in zip(lowest, polys)]


@st.composite
def wide_moduli(draw):
    bits = draw(st.integers(31, 61))
    return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


# the largest admissible modulus: (2^63 - 1) // fan-in + 1, where the
# compiled grid tables add up to 5 residues, the cylinder ones 9 and the
# king ones 14 (from width 5)
BOARDS = {"grid 7x10": (GraphSpec("grid", 7, 10), (2**63 - 1) // 5 + 1),
          "torus 6x12": (GraphSpec("torus", 6, 12), (2**63 - 1) // 9 + 1),
          "king 7x10": (GraphSpec("king", 7, 10), (2**63 - 1) // 14 + 1)}


@lru_cache(maxsize=None)
def _exact(board):
    return domination_polynomial(BOARDS[board][0])


def _prime_at_most(x):
    while not is_probable_prime(x):
        x -= 1
    return x


@pytest.mark.parametrize("board", BOARDS)
@settings(max_examples=6, deadline=None)
@given(x=wide_moduli())
@example(x=1 << 61)
def test_mod_p_equals_the_reduced_exact_polynomial(board, x):
    spec, limit = BOARDS[board]
    p = _prime_at_most(min(x, limit))
    got = domination_polynomial(spec, ring=Ring(p))
    assert got.coefficients == tuple(c % p for c in _exact(board).coefficients)
