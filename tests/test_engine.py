from itertools import islice

import numpy as np
import pytest

from domcount import engine
from domcount.engine import (
    DEFAULT_GUARDS,
    FAMILIES,
    GraphSpec,
    Guards,
    count_dominating,
    count_series,
    crt_domination_polynomial,
    domination_polynomial,
    gamma_series,
    iter_counts,
    mincount_series,
    polynomial_series,
    run_sweep,
    torus_polynomial,
)
from domcount.errors import GuardExceeded
from domcount.oracle import brute_force_polynomial
from domcount.rings import (EXACT, Polynomial, Ring, covering_primes,
                            eval_at_one, is_probable_prime, poly_add,
                            select_moduli)
from domcount.signatures import Signature, all_covered, dihedral_orbits
from domcount.transfer import build_transfer_matrix


def named(result, m):
    return {Signature(m, code).to_text(): poly.coefficients
            for code, poly in result.items()}


def test_graph_spec_validation():
    assert GraphSpec("grid", 3, 7).cells == 21
    with pytest.raises(ValueError):
        GraphSpec("hex", 2, 2)
    with pytest.raises(ValueError):
        GraphSpec("grid", 0, 2)
    with pytest.raises(ValueError):
        GraphSpec("grid", 41, 2)
    with pytest.raises(ValueError):
        GraphSpec("grid", 2, 0)


def test_single_row_from_covered_start():
    out = run_sweep(GraphSpec("grid", 2, 1), all_covered(2))
    assert named(out, 2) == {"oo": (1,), "xc": (0, 1), "cx": (0, 1),
                             "xx": (0, 0, 1)}


def test_two_rows_width_one():
    out = run_sweep(GraphSpec("grid", 1, 2), all_covered(1))
    # states that still contain an uncovered cell drop out of the final sum
    assert named(out, 1) == {"c": (0, 1), "x": (0, 1, 1)}
    assert poly_add(out[1], out[2]).coefficients == (0, 2, 1)


def test_one_cylinder_row_equals_a_matrix_column():
    start = all_covered(3)
    out = run_sweep(GraphSpec("cylinder", 3, 1), start)
    mat = build_transfer_matrix(3, cyclic=True)
    for tau in mat.signatures:
        e = mat.entry(tau, start)
        if e is None:
            assert tau.code not in out
        else:
            assert out[tau.code] == Polynomial.monomial(e)


def test_one_king_row_is_a_complete_graph():
    out = run_sweep(GraphSpec("king", 2, 1), all_covered(2))
    assert named(out, 2) == {"oo": (1,), "xc": (0, 1), "cx": (0, 1),
                             "xx": (0, 0, 1)}


def test_run_sweep_rejects_bad_starts():
    with pytest.raises(ValueError):
        run_sweep(GraphSpec("torus", 2, 2), all_covered(2))
    with pytest.raises(ValueError):
        run_sweep(GraphSpec("grid", 2, 1), all_covered(3))
    with pytest.raises(ValueError):
        run_sweep(GraphSpec("grid", 2, 1), Signature.from_text("xo"))
    with pytest.raises(ValueError):
        # valid on a strip but not around the wrap
        run_sweep(GraphSpec("cylinder", 3, 1), Signature.from_text("xco"))


def test_sweep_degrees_never_exceed_placed_vertices():
    for rows in (1, 2, 3):
        out = run_sweep(GraphSpec("grid", 3, rows), all_covered(3))
        assert all(p.degree() <= 3 * rows for p in out.values())


def test_known_polynomials():
    assert domination_polynomial(GraphSpec("grid", 2, 2)).coefficients == \
        (0, 0, 6, 4, 1)
    assert domination_polynomial(GraphSpec("cylinder", 3, 3)).coefficients == \
        (0, 0, 0, 34, 99, 120, 84, 36, 9, 1)
    assert domination_polynomial(GraphSpec("king", 2, 2)).coefficients == \
        (0, 4, 6, 4, 1)


def test_grid_4x4_lowest_term_and_total():
    poly = domination_polynomial(GraphSpec("grid", 4, 4))
    assert poly.min_degree() == 4
    assert poly.coefficient(4) == 2
    assert eval_at_one(poly) == 28661


def test_torus_polynomials():
    assert torus_polynomial(3, 3).coefficients == \
        (0, 0, 0, 48, 117, 126, 84, 36, 9, 1)
    assert torus_polynomial(2, 2) == domination_polynomial(GraphSpec("grid", 2, 2))
    poly = torus_polynomial(4, 4)
    assert poly.min_degree() == 4
    assert poly.coefficient(4) == 40


def test_known_counts():
    assert count_dominating(GraphSpec("grid", 1, 1)) == 1
    assert count_dominating(GraphSpec("grid", 3, 3)) == 291
    assert count_dominating(GraphSpec("grid", 6, 6)) == 16031828359


@pytest.mark.parametrize("family", FAMILIES)
def test_series_matches_the_oracle_prefix(family):
    series = polynomial_series(family, 3, 4)
    for n, poly in enumerate(series, start=1):
        assert poly == brute_force_polynomial(GraphSpec(family, 3, n))


@pytest.mark.parametrize("family", ("grid", "torus", "king"))
def test_transpose_symmetry(family):
    assert domination_polynomial(GraphSpec(family, 5, 2)) == \
        domination_polynomial(GraphSpec(family, 2, 5))


def test_short_cylinders_are_tori():
    # a cylinder one or two rows long gains nothing from the open direction
    for m, n in ((4, 1), (5, 2)):
        cyl = domination_polynomial(GraphSpec("cylinder", m, n))
        assert cyl == domination_polynomial(GraphSpec("torus", m, n))
        assert cyl == brute_force_polynomial(GraphSpec("cylinder", m, n))


@pytest.mark.parametrize("spec", [
    GraphSpec("grid", 4, 5),
    GraphSpec("cylinder", 4, 4),
    GraphSpec("torus", 3, 4),
    GraphSpec("king", 3, 5),
])
def test_count_mode_agrees_with_polynomial_mode(spec):
    assert count_dominating(spec) == eval_at_one(domination_polynomial(spec))


@pytest.mark.parametrize("spec", [
    GraphSpec("grid", 4, 5),
    GraphSpec("torus", 3, 3),
    GraphSpec("king", 3, 4),
])
def test_mod_p_run_equals_reduced_exact_run(spec):
    p = 65521
    exact = domination_polynomial(spec)
    residue = domination_polynomial(spec, ring=Ring(p))
    assert residue.ring.modulus == p
    assert residue.coefficients == tuple(c % p for c in exact.coefficients)


@pytest.mark.parametrize("m, n", [(1, 7), (2, 6), (3, 5), (4, 4)])
def test_pooled_torus_polynomial_matches_the_oracle(m, n):
    # every width has several start orbits (3 at m = 1, 5 at m = 2), so
    # each board runs on the two-process pool
    assert len(dihedral_orbits(m)) > 1
    spec = GraphSpec("torus", m, n)
    assert domination_polynomial(spec, workers=2) == brute_force_polynomial(spec)


def test_pooled_torus_series_past_66_cells():
    # 70 cells: the int64 lane and one prime lane, recombined after the
    # pooled readout
    assert polynomial_series("torus", 5, 14, workers=2) == \
        polynomial_series("torus", 5, 14, workers=1)


def test_torus_scheduling_does_not_change_the_result():
    base = torus_polynomial(4, 5)
    assert torus_polynomial(4, 5, workers=2) == base
    assert brute_force_polynomial(GraphSpec("torus", 4, 5)) == base
    assert torus_polynomial(5, 4) == base


def test_stat_series_agree_with_the_full_polynomial():
    for family in FAMILIES:
        polys = polynomial_series(family, 3, 4)
        gammas = gamma_series(family, 3, 4)
        mincounts = mincount_series(family, 3, 4)
        totals = count_series(family, 3, 4)
        for i, poly in enumerate(polys):
            md = poly.min_degree()
            assert gammas[i] == md
            assert mincounts[i] == (md, poly.coefficient(md))
            assert totals[i] == eval_at_one(poly)


def test_iter_counts_streams_the_count_series(monkeypatch):
    assert list(islice(iter_counts("cylinder", 3), 6)) == \
        count_series("cylinder", 3, 6)
    # the stream replays bounded runs over doubling horizons; 25 cylinder
    # rows cross one horizon, 12 grid rows of width 11 two, and both pass
    # the rows the int64 lane alone holds
    series = engine._series
    for family, m, rows, runs in (("cylinder", 3, 25, 2), ("grid", 11, 12, 3)):
        want = count_series(family, m, rows)
        horizons = []
        monkeypatch.setattr(engine, "_series", lambda family, m, n, *args:
                            horizons.append(n) or series(family, m, n, *args))
        assert list(islice(iter_counts(family, m), rows)) == want
        assert len(horizons) == runs and horizons[-1] >= rows
        monkeypatch.setattr(engine, "_series", series)
    with pytest.raises(ValueError):
        next(iter_counts("torus", 3))


def test_guards_trip_before_big_allocations():
    with pytest.raises(GuardExceeded):
        domination_polynomial(GraphSpec("grid", 12, 12),
                              guards=Guards(max_states=100))
    with pytest.raises(GuardExceeded):
        domination_polynomial(GraphSpec("king", 8, 8),
                              guards=Guards(max_memory_bytes=1000))
    assert DEFAULT_GUARDS.max_states > 10**6


def test_count_lanes_past_62_cells(appendix_poly, grid_totals):
    # 64 cells: the int64 lane and one prime lane for the counts of the
    # torus 8x8 trace
    gamma, count = mincount_series("torus", 8, 8)[-1]
    assert (gamma, count) == (16, 129224)
    assert count_series("torus", 8, 8)[-1] == sum(appendix_poly("torus", 8))
    # 121 cells: two lanes on an open board
    assert count_series("grid", 11, 11)[-1] == grid_totals[11]


@pytest.mark.parametrize("m, n", [(6, 6), (5, 13)])
def test_torus_start_blocks_do_not_change_the_result(m, n):
    # 5x13 has 65 cells, so its counts run in the int64 lane and a prime lane
    whole = (count_series("torus", m, n), gamma_series("torus", m, n),
             mincount_series("torus", m, n))
    rows = max(len(plan.starts) - 1
               for plan in engine._gather_plans("cylinder", m))
    # two state arrays of int64: room for nine starts of one value each
    guards = Guards(max_memory_bytes=9 * 2 * rows * 8)
    assert 1 < engine._check_guards("cylinder", m, 1, guards) < \
        len(dihedral_orbits(m))
    assert (count_series("torus", m, n, guards=guards),
            gamma_series("torus", m, n, guards=guards),
            mincount_series("torus", m, n, guards=guards)) == whole


def test_crt_pipeline_reconstructs_the_exact_polynomial():
    spec = GraphSpec("grid", 5, 5)
    poly, moduli = crt_domination_polynomial(spec)
    assert poly == domination_polynomial(spec)
    assert moduli.product() >= 1 << (spec.cells + 1)
    assert all(p < 1 << 16 for p in moduli.primes)
    poly2, _ = crt_domination_polynomial(spec, workers=2)
    assert poly2 == poly


def test_crt_respects_the_bit_width():
    spec = GraphSpec("cylinder", 3, 4)
    poly, moduli = crt_domination_polynomial(spec, b=11)
    assert poly == domination_polynomial(spec)
    assert all(p < 1 << 11 for p in moduli.primes)


@pytest.fixture(scope="module")
def grid_9x9():
    return domination_polynomial(GraphSpec("grid", 9, 9))


def test_residue_lanes_give_exact_coefficients_past_int64(grid_9x9, grid_totals):
    # 81 cells: the int64 lane and one prime lane recombined by CRT
    assert max(grid_9x9.coefficients) >= 1 << 63
    assert eval_at_one(grid_9x9) == grid_totals[9]


def test_exact_polynomial_past_2_64(grid_totals):
    # 100 cells: the int64 lane alone holds each coefficient modulo 2^64
    poly = domination_polynomial(GraphSpec("grid", 10, 10))
    assert max(poly.coefficients) >= 1 << 64
    assert eval_at_one(poly) == grid_totals[10]


@pytest.mark.parametrize("kernel, m", [("grid", 3), ("cylinder", 8),
                                       ("king", 8)])
def test_lane_plan_past_the_one_lane_bound(kernel, m):
    fan_in = max(2, *(plan.fan_in for plan in engine._gather_plans(kernel, m)))
    # a polynomial coefficient is at most C(cells, cells // 2), below 2^63
    # up to 66 cells, so the int64 lane alone holds those
    one_lane = {"count": 62, "mincount": 62, "poly": 66}
    for cells in range(63, 401):
        most = len(covering_primes(cells + 1, 59))  # primes alone
        for mode, bound in one_lane.items():
            moduli, _ = engine._plan_lanes(kernel, m, cells, mode, None,
                                           DEFAULT_GUARDS)
            assert moduli[0] == 0  # the int64 lane, read modulo 2^64
            assert len(moduli) <= most
            if cells <= bound:
                assert len(moduli) == 1
                continue
            primes = moduli[1:].tolist()
            assert len(set(primes)) == len(primes)
            product = 1 << 64
            for p in primes:
                assert is_probable_prime(p)
                assert fan_in * (p - 1) < 2**63
                product *= p
            assert product >= 1 << (cells + 1)
    for mode in one_lane:
        assert engine._plan_lanes(kernel, m, 62, mode, None,
                                  DEFAULT_GUARDS)[0].tolist() == [0]
    assert engine._plan_lanes(kernel, m, 400, "minplus", None,
                              DEFAULT_GUARDS)[0] is None


@pytest.mark.parametrize("spec", [GraphSpec("cylinder", 8, 9),
                                  GraphSpec("torus", 6, 12)])
def test_residue_lanes_match_independent_per_prime_sweeps(spec):
    crt, moduli = crt_domination_polynomial(spec)
    assert len(moduli.primes) > 2
    assert domination_polynomial(spec) == crt


def test_large_modulus_readout_does_not_overflow(grid_9x9):
    p = 144115188075855859  # the largest prime below 2^57
    got = domination_polynomial(GraphSpec("grid", 9, 9), ring=Ring(p))
    assert got.coefficients == tuple(c % p for c in grid_9x9.coefficients)


@pytest.mark.parametrize("family, limit", [("grid", (2**63 - 1) // 5 + 1),
                                           ("king", (2**63 - 1) // 14 + 1),
                                           ("torus", (2**63 - 1) // 9 + 1)])
def test_moduli_past_the_fan_in_bound_are_rejected(family, limit):
    spec = GraphSpec(family, 5, 5)
    exact = domination_polynomial(spec)
    assert domination_polynomial(spec, ring=Ring(limit)).coefficients == \
        tuple(c % limit for c in exact.coefficients)
    for modulus in (limit + 1, 2**70):
        with pytest.raises(ValueError, match="admissible"):
            domination_polynomial(spec, ring=Ring(modulus))


@pytest.mark.parametrize("kernel", ["grid", "cylinder", "king"])
def test_poly_layers_list_every_gathered_row_once(kernel):
    for m in range(1, 8):
        plans = engine._gather_plans(kernel, m)
        columns = engine._poly_layers(kernel, m)
        assert len(columns) == len(plans)
        for plan, layers in zip(plans, columns):
            groups = len(plan.starts) - 1
            assert layers[0][0].tolist() == list(range(groups))
            assert len(layers) == plan.fan_in
            for dst, _, _ in layers:
                assert (np.diff(dst) > 0).all()  # one row per destination
            dst = np.repeat(np.arange(groups), np.diff(plan.starts))
            want = sorted(zip(dst.tolist(), plan.src.tolist(),
                              plan.plain.tolist()))
            got = sorted(triple for layer in layers
                         for triple in zip(*(part.tolist() for part in layer)))
            assert got == want


def _largest_admissible_prime(kernel, m):
    fan_in = max(2, *(plan.fan_in for plan in engine._gather_plans(kernel, m)))
    p = (2**63 - 1) // fan_in + 1
    while not is_probable_prime(p):
        p -= 1
    return p


# values are reduced only when another step could pass 2^63, and at every
# row end; on these boards states hold values well past P, so one skipped
# reduction overflows
@pytest.mark.parametrize("family, m, n, modulus", [
    ("king", 8, 10, None),      # fan-in 14: a reduction before every column
    ("king", 8, 10, 3),         # one reduction per row, at the row end
    ("cylinder", 8, 12, None),  # fan-in 9: a reduction before every column
])
def test_lazy_reduction_matches_the_reduced_exact_series(family, m, n, modulus):
    p = modulus or _largest_admissible_prime(family, m)
    exact = polynomial_series(family, m, n)
    assert max(exact[-1].coefficients) > p
    got = polynomial_series(family, m, n, ring=Ring(p))
    assert [poly.coefficients for poly in got] == \
        [tuple(c % p for c in poly.coefficients) for poly in exact]


def test_run_sweep_past_66_cells_keeps_exact_states():
    spec = GraphSpec("grid", 3, 23)
    exact = run_sweep(spec, all_covered(3))
    # independent 16-bit sweeps agree with every state modulo each prime
    for p in select_moduli(spec.cells + 1, 16).primes:
        reduced = {code: Polynomial.from_coefficients(poly.coefficients,
                                                      Ring(p)).trimmed()
                   for code, poly in exact.items()}
        assert run_sweep(spec, all_covered(3), ring=Ring(p)) == \
            {code: poly for code, poly in reduced.items() if not poly.is_zero()}


def test_progress_reports_once_per_row():
    calls = []
    polynomial_series("grid", 2, 3, progress=lambda r, n: calls.append((r, n)))
    assert calls == [(1, 3), (2, 3), (3, 3)]
