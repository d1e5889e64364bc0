import itertools
import os
import signal
import time
import tracemalloc
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
                            crt_reconstruct, is_probable_prime, select_moduli)
from domcount.signatures import (Signature, all_covered, dihedral_orbits,
                                 signature_codes)


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
        GraphSpec("grid", 2, 0)
    # the width swept is checked: the narrow side, save for the cylinder
    # past two rows
    for family in ("grid", "king", "torus", "cylinder"):
        assert GraphSpec(family, 41, 2).m == 41
        with pytest.raises(ValueError):
            GraphSpec(family, 41, 41)
    with pytest.raises(ValueError):
        GraphSpec("cylinder", 41, 3)


def test_single_row_from_covered_start():
    out = run_sweep(GraphSpec("grid", 2, 1), all_covered(2))
    assert named(out, 2) == {"oo": (1,), "xc": (0, 1), "cx": (0, 1),
                             "xx": (0, 0, 1)}


def test_two_rows_width_one():
    out = run_sweep(GraphSpec("grid", 1, 2), all_covered(1))
    # states that still contain an uncovered cell drop out of the final sum
    assert named(out, 1) == {"c": (0, 1), "x": (0, 1, 1)}
    # their sum, (0, 1) + (0, 1, 1), is the 1x2 grid polynomial
    assert domination_polynomial(GraphSpec("grid", 1, 2)).coefficients == \
        (0, 2, 1)


def test_one_cylinder_row_equals_a_matrix_column():
    # column ccc of the width-3 cylinder matrix, by hand: with no occupied
    # cell nothing covers the row (ooo); any occupied cell neighbors the
    # other two across the wrap, so they are covered or occupied
    out = run_sweep(GraphSpec("cylinder", 3, 1), all_covered(3))
    assert named(out, 3) == {"ooo": (1,),
                             "xcc": (0, 1), "cxc": (0, 1), "ccx": (0, 1),
                             "xxc": (0, 0, 1), "xcx": (0, 0, 1),
                             "cxx": (0, 0, 1), "xxx": (0, 0, 0, 1)}


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
    assert sum(poly.coefficients) == 28661


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
    assert count_dominating(spec) == sum(domination_polynomial(spec).coefficients)


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


@pytest.fixture
def pool_cleanup():
    """Fails the test if it hangs for a minute, or leaves a child process
    or an open file descriptor behind."""
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir(
        "/proc/self/fd") else None

    def expire(*_):
        raise TimeoutError("the pool hung")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):  # no child, running or exited
        os.waitpid(-1, os.WNOHANG)
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds


def _slow_for_early_jobs(job):
    time.sleep(0.1 * (3 - job) if job < 3 else 0)
    return job, time.monotonic()


def test_pool_yields_in_job_order_when_jobs_finish_out_of_order(pool_cleanup):
    got = list(engine._pooled(_slow_for_early_jobs, list(range(8)), 3))
    assert [job for job, _ in got] == list(range(8))
    finished = [t for _, t in got]
    assert finished[0] > finished[3]  # job 3 was done before job 0


def _fails_at_five(job):
    if job == 5:
        raise ValueError(f"job {job} is bad")
    return job * job


def test_pool_raises_a_job_exception_with_its_type_and_message(pool_cleanup):
    with pytest.raises(ValueError, match="^job 5 is bad$"):
        list(engine._pooled(_fails_at_five, list(range(8)), 2))
    assert list(engine._pooled(_fails_at_five, list(range(5)), 2)) == \
        [0, 1, 4, 9, 16]


def _dies_at_two(job):
    if job == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.01)
    return job


def test_pool_raises_when_a_worker_dies(pool_cleanup):
    with pytest.raises(RuntimeError, match="signal 9"):
        list(engine._pooled(_dies_at_two, list(range(6)), 2))


def _dies(job):
    os.kill(os.getpid(), signal.SIGKILL)


def test_pool_raises_when_every_worker_dies_with_jobs_unsent(pool_cleanup):
    # more job numbers than the pipe holds, so the parent still feeds it
    # when no worker is left to read it
    with pytest.raises(RuntimeError, match="signal 9"):
        list(engine._pooled(_dies, list(range(100_000)), 2))


def test_pool_stops_cleanly_when_the_caller_closes_it(pool_cleanup):
    results = engine._pooled(_slow_for_early_jobs, list(range(6)), 2)
    assert next(results)[0] == 0
    results.close()


def test_pool_runs_serially_without_fork(monkeypatch, pool_cleanup):
    monkeypatch.delattr(os, "fork")
    assert list(engine._pooled(_fails_at_five, list(range(4)), 2)) == \
        [0, 1, 4, 9]


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
            assert totals[i] == sum(poly.coefficients)


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


def test_state_guard_trips_before_any_compile(monkeypatch):
    def compiled(kernel, m):
        raise AssertionError(f"compiled {kernel} width {m} before the guard")

    monkeypatch.setattr(engine, "_compiled", compiled)
    small = Guards(max_states=100)
    # 1000 bytes hold no lane of the full-row domain, a lower bound on the
    # widest column's
    tiny = Guards(max_memory_bytes=1000)
    calls = [lambda: count_series("grid", 12, 2, small),
             lambda: gamma_series("king", 9, 2, small),
             lambda: mincount_series("torus", 9, 9, small),
             lambda: polynomial_series("torus", 9, 9, guards=small),
             lambda: domination_polynomial(GraphSpec("cylinder", 9, 4),
                                           guards=small),
             lambda: run_sweep(GraphSpec("grid", 9, 3), all_covered(9),
                               guards=small),
             lambda: next(engine.iter_ratios("grid", 9, small)),
             lambda: count_series("grid", 14, 14, tiny),
             lambda: polynomial_series("torus", 9, 9, guards=tiny),
             lambda: domination_polynomial(GraphSpec("grid", 9, 9),
                                           guards=tiny),
             lambda: run_sweep(GraphSpec("grid", 9, 3), all_covered(9),
                               guards=tiny)]
    for call in calls:
        with pytest.raises(GuardExceeded):
            call()


def test_count_lanes_past_62_cells(appendix_poly, grid_totals):
    # 64 cells: the int64 lane and one prime lane for the counts of the
    # torus 8x8 trace
    gamma, count = mincount_series("torus", 8, 8)[-1]
    assert (gamma, count) == (16, 129224)
    assert count_series("torus", 8, 8)[-1] == sum(appendix_poly("torus", 8))
    # 121 cells: two lanes on an open board
    assert count_series("grid", 11, 11)[-1] == grid_totals[11]


def guard_for(kernel, m, values):
    """The least guard that fits two state arrays of `values` int64 values
    per state over the widest column domain, beside the column plans."""
    plans = engine._gather_plans(kernel, m)
    rows = max(plan.rows for plan in plans)
    return Guards(max_memory_bytes=2 * rows * values * 8
                  + sum(plan.nbytes for plan in plans))


@pytest.mark.parametrize("m, n", [(6, 6), (5, 13), (5, 14)])
def test_torus_start_blocks_do_not_change_the_result(m, n):
    # 5x13 has 65 cells, so its counts run in the int64 lane and a prime
    # lane; 5x14 has 70, so its exact polynomial carries two lanes per start
    whole = (count_series("torus", m, n), gamma_series("torus", m, n),
             mincount_series("torus", m, n))
    # two state arrays of int64: room for nine starts of one value each
    guards = guard_for("cylinder", m, 9)
    _, (starts, _) = engine._plan_lanes("cylinder", m, m * n, "minplus", None,
                                        guards)
    assert 1 < starts < len(dihedral_orbits(m))
    assert (count_series("torus", m, n, guards=guards),
            gamma_series("torus", m, n, guards=guards),
            mincount_series("torus", m, n, guards=guards)) == whole
    # poly blocks: one start each, on one process and on two, against the
    # default blocks; the coefficients sum to the independent count
    for ring in (EXACT, Ring(2147483647)):
        moduli, _ = engine._plan_lanes("cylinder", m, m * n, "poly",
                                       ring.modulus, DEFAULT_GUARDS)
        one = guard_for("cylinder", m, len(moduli) * (m * n + 2))
        assert engine._plan_lanes("cylinder", m, m * n, "poly", ring.modulus,
                                  one)[1] == (1, len(moduli))
        series = polynomial_series("torus", m, n, ring=ring)
        p = ring.modulus or 1 << 200  # the exact totals stay below 2^200
        assert [sum(poly.coefficients) % p for poly in series] == \
            [total % p for total in whole[0]]
        for guards, workers in ((one, 1), (one, 2), (DEFAULT_GUARDS, 2)):
            assert polynomial_series("torus", m, n, ring=ring, guards=guards,
                                     workers=workers) == series


def test_poly_blocks_hold_several_starts():
    # 2 MiB of state array: 8 starts at torus 7x7, all 5 orbits at width 2
    for m, n, starts in ((7, 7, 8), (2, 30, 5)):
        _, (block, _) = engine._plan_lanes("cylinder", m, m * n, "poly", None,
                                           DEFAULT_GUARDS)
        assert min(block, len(dihedral_orbits(m))) == starts


def test_a_poly_block_sweeps_in_two_buffers():
    # every mode sweeps a block in two flat buffers per part (degrees,
    # values), allocated once with the bytes _plan_lanes budgets for the
    # block's starts and lanes.  The widths are odd, so the rows end in
    # either buffer: the torus 3x23 polynomial (69 cells) and the counts of
    # 5x13 (65 cells) carry the int64 lane and a prime lane, torus blocks
    # run every start orbit, and growth's float64 lane runs seven rows
    for family, m, n, mode in (("torus", 3, 23, "poly"),
                               ("grid", 5, 13, "count"),
                               ("grid", 5, 13, "minplus"),
                               ("torus", 5, 13, "mincount"),
                               ("grid", 5, None, "count")):
        kernel = engine._kernel_for(family)
        cells = None if n is None else m * n
        codes = [code for code, _ in dihedral_orbits(m)] \
            if family == "torus" else [all_covered(m).code]
        starts = engine._start_indices(kernel, m, codes)
        moduli, _ = engine._plan_lanes(kernel, m, cells, mode, None,
                                       DEFAULT_GUARDS)
        lanes = 1 if moduli is None else len(moduli)
        assert lanes == (2 if n else 1) or mode == "minplus"
        slot, per_lane = engine._state_values(mode, cells)
        guards = guard_for(kernel, m, len(starts) * (slot + lanes * per_lane))
        assert engine._plan_lanes(kernel, m, cells, mode, None, guards)[1] \
            == (len(starts), lanes)
        owners = ({}, {})  # per part: the arrays the rows are views of
        for k, row in enumerate(islice(engine._sweep(
                kernel, m, n, mode, starts, moduli), n or 7), 1):
            if mode == "poly":
                assert row[1].shape[1:] == (len(starts), m * k + 1, lanes)
            for owner, a in zip(owners, row):
                while a is not None and a.base is not None:
                    a = a.base
                if a is not None:
                    owner[id(a)] = a
        assert [len(owner) for owner in owners] == [2 * bool(slot),
                                                    2 * bool(per_lane)]
        plans = engine._gather_plans(kernel, m)
        assert sum(a.nbytes for owner in owners for a in owner.values()) == \
            guards.max_memory_bytes - sum(plan.nbytes for plan in plans)


def test_poly_sweep_memory_stays_within_the_guard_estimate():
    # the plans and covered rows are cached before the trace, whose peak
    # then holds the two state arrays, the gathers of one step (the later
    # layers summed so far, the last one added and the next), the row-end
    # readout and small arrays of the sweep; the compile's own temporaries
    # are not bounded.  Grid 12x3 and 13x3 read 4096 and 8192 covered
    # states of 38 and 41 degrees, copied a chunk at a time, and torus 5x8
    # runs its 18 start orbits in one block: the peak stays the step's,
    # whose three gathers and the block's picks fit in four chunks
    chunk = engine._POLY_GATHER_BYTES
    for family, m, n in (("grid", 8, 8), ("grid", 12, 3), ("grid", 13, 3),
                         ("torus", 5, 8)):
        kernel = engine._kernel_for(family)
        plans = engine._gather_plans(kernel, m)
        engine._covered_rows(kernel, m)
        tracemalloc.start()
        try:
            polynomial_series(family, m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = max(plan.rows for plan in plans)
        moduli, (block, _) = engine._plan_lanes(kernel, m, m * n, "poly",
                                                None, DEFAULT_GUARDS)
        starts = 1
        if family == "torus":
            starts = len(dihedral_orbits(m))
            assert starts <= block  # one block
        arrays = 2 * rows * len(moduli) * (m * n + 2) * 8 * starts
        assert arrays < peak <= arrays + sum(plan.nbytes for plan in plans) \
            + 3 * chunk
        if (family, m) != ("grid", 8):
            assert peak - arrays <= 4 * chunk
    # the other modes on the same two arrays, in chunks of 256 KiB: count
    # steps hold three gathers, min-plus steps fold one run of later layers
    # at a time, and mincount steps keep a copy of layer 0's degrees and
    # those of every run (up to four on the grid, a quarter chunk each
    # beside three lanes) until the counts are masked; king 9 has the
    # small plans of up to 14 layers
    chunk = engine._GATHER_BYTES
    for kernel, m, mode, chunks in (
            ("grid", 13, "count", 4), ("grid", 13, "minplus", 4),
            ("grid", 13, "mincount", 5), ("king", 9, "minplus", 4),
            ("king", 9, "mincount", 5)):
        engine._covered_rows(kernel, m)
        tracemalloc.start()
        try:
            list(engine._series(kernel, m, m, mode, DEFAULT_GUARDS))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        moduli, _ = engine._plan_lanes(kernel, m, m * m, mode, None,
                                       DEFAULT_GUARDS)
        slot, per_lane = engine._state_values(mode, m * m)
        lanes = 1 if moduli is None else len(moduli)
        rows = max(plan.rows for plan in engine._gather_plans(kernel, m))
        arrays = 2 * rows * (slot + lanes * per_lane) * 8
        assert arrays < peak <= arrays + chunks * chunk, (kernel, mode)


# one lane per block, on one process and on two: the counts of grid 9x9
# carry the int64 lane and one prime, grid 10x10 carries the
# int64 lane and a 38-bit prime, cylinder 8x9 two lanes, torus 5x14 two
# lanes per start over 18 starts, and the 64 cells of torus 8x8 two count
# lanes besides the mincount degrees
@pytest.mark.parametrize("mode, family, m, n", [
    ("count", "grid", 9, 9),
    ("poly", "grid", 10, 10),
    ("poly", "cylinder", 8, 9),
    ("poly", "torus", 5, 14),
    ("mincount", "torus", 8, 8),
])
def test_lane_blocks_do_not_change_the_result(mode, family, m, n,
                                              monkeypatch):
    def series(guards, workers=1):
        if mode == "poly":
            return polynomial_series(family, m, n, guards=guards,
                                     workers=workers)
        return list(engine._series(family, m, n, mode, guards,
                                   workers=workers))

    kernel = engine._kernel_for(family)
    moduli, (_, width) = engine._plan_lanes(kernel, m, m * n, mode, None,
                                            DEFAULT_GUARDS)
    assert width == len(moduli) == 2  # every lane in one block by default
    # a count is one value per lane; mincount adds the degrees
    values = {"count": 1, "mincount": 2}.get(mode, m * n + 2)
    one = guard_for(kernel, m, values)
    assert engine._plan_lanes(kernel, m, m * n, mode, None, one)[1] == (1, 1)
    whole = series(DEFAULT_GUARDS)
    for workers in (1, 2):
        assert series(one, workers) == whole
    # one block per start and lane, each run by a serial pool
    blocks = []
    run = engine._run_block
    monkeypatch.setattr(engine, "_run_block",
                        lambda job: blocks.append(job) or run(job))
    series(one)
    starts = len(dihedral_orbits(m)) if family == "torus" else 1
    assert len(blocks) == 2 * starts
    below = Guards(max_memory_bytes=one.max_memory_bytes - 1)
    with pytest.raises(GuardExceeded):
        series(below)


def test_torus_blocks_report_progress_as_they_finish(monkeypatch):
    events = []
    run = engine._run_block
    monkeypatch.setattr(engine, "_run_block",
                        lambda job: (events.append("run"), run(job))[1])
    m, n = 4, 8
    one = guard_for("cylinder", m, m * n + 2)
    blocks = len(dihedral_orbits(m))
    series = polynomial_series("torus", m, n, guards=one,
                               progress=lambda *call: events.append(call))
    assert events == [event for k in range(1, blocks + 1)
                      for event in ("run", (k, blocks, "block"))]
    assert series == polynomial_series("torus", m, n)


def per_prime_sweeps(spec, b=16, workers=1):
    """The exact polynomial from one independent mod-p sweep per prime below
    2^b, the primes covering 2^(cells + 1), and those primes."""
    moduli = select_moduli(spec.cells + 1, b)
    cap = spec.cells + 1
    residues = []
    for p in moduli.primes:
        coeffs = domination_polynomial(spec, ring=Ring(p),
                                       workers=workers).coefficients
        residues.append((p, list(coeffs) + [0] * (cap - len(coeffs))))
    return crt_reconstruct(residues).trimmed(), moduli


def test_crt_pipeline_reconstructs_the_exact_polynomial():
    spec = GraphSpec("grid", 5, 5)
    poly, moduli = per_prime_sweeps(spec)
    assert poly == domination_polynomial(spec)
    assert moduli.product() >= 1 << (spec.cells + 1)
    assert all(p < 1 << 16 for p in moduli.primes)
    poly2, _ = per_prime_sweeps(spec, workers=2)
    assert poly2 == poly


def test_crt_respects_the_bit_width():
    spec = GraphSpec("cylinder", 3, 4)
    poly, moduli = per_prime_sweeps(spec, b=11)
    assert poly == domination_polynomial(spec)
    assert all(p < 1 << 11 for p in moduli.primes)


@pytest.fixture(scope="module")
def grid_9x9():
    return domination_polynomial(GraphSpec("grid", 9, 9))


def test_residue_lanes_give_exact_coefficients_past_int64(grid_9x9, grid_totals):
    # 81 cells: the int64 lane and one prime lane recombined by CRT
    assert max(grid_9x9.coefficients) >= 1 << 63
    assert sum(grid_9x9.coefficients) == grid_totals[9]


def test_exact_polynomial_past_2_64(grid_totals):
    # 100 cells: the int64 lane alone holds each coefficient modulo 2^64
    poly = domination_polynomial(GraphSpec("grid", 10, 10))
    assert max(poly.coefficients) >= 1 << 64
    assert sum(poly.coefficients) == grid_totals[10]


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
    crt, moduli = per_prime_sweeps(spec)
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
def test_column_plans_are_prefix_layers(kernel):
    for m in range(1, 8):
        codes, index, plans = engine._compiled(kernel, m)
        assert codes.tolist() == \
            signature_codes(m, cyclic=kernel == "cylinder").tolist()
        assert sorted(index.tolist()) == list(range(len(codes)))
        row_codes = np.empty_like(codes)  # the full-row codes in state order
        row_codes[index] = codes
        # the king's columns step windows: each row enters behind a virtual
        # Covered north-west slot, code 3 * row + 1
        dom = 3 * row_codes + 1 if kernel == "king" else row_codes
        for c, plan in enumerate(plans, 1):
            sizes = [size for _, size in plan.layers]
            assert sizes == sorted(sizes, reverse=True)
            assert [lo for lo, _ in plan.layers] == \
                np.cumsum([0, *sizes[:-1]]).tolist()
            assert len(plan.src) == len(plan.plain) == sum(sizes)
            valid, plain_dst, occ_dst = engine._column_images(kernel, m, c, dom)
            # layer k gathers row k of destinations 0..size-1: the code each
            # gathered row moves to names its destination consistently
            dst_code = {}
            got = []
            for lo, size in plan.layers:
                for d in range(size):
                    s, plain = int(plan.src[lo + d]), int(plan.plain[lo + d])
                    if s == len(dom):  # the filler row
                        assert size == plan.rows and plain == 0
                        continue
                    code = int(plain_dst[s] if plain else occ_dst[s])
                    assert dst_code.setdefault(d, code) == code
                    got.append((code, s, plain))
            want = [(int(code), s, 1) for s, code in
                    zip(np.flatnonzero(valid), plain_dst[valid])]
            want += [(int(code), s, 0) for s, code in enumerate(occ_dst)]
            assert sorted(got) == sorted(want)  # every move exactly once
            assert len(set(dst_code.values())) == len(dst_code)
            # the filler row is last and gathers the filler row
            assert plan.rows - 1 not in dst_code
            assert plan.src[plan.rows - 1] == len(dom)
            if c < m:
                assert sorted(dst_code) == list(range(plan.rows - 1))
                dom = np.array([dst_code[d] for d in range(plan.rows - 1)])
            else:
                # the last column returns full-row codes in every kernel
                assert all(row_codes[d] == code for d, code in dst_code.items())


def _step_by_layers(D, C, plan):
    """What a column step computes, one fan-in layer at a time: the least
    lifted degree, and the values summed as a0 + (a1 + a2 + ...), in
    mincount only those of rows at the least degree."""
    def lifted(lo, n):
        return D[plan.src[lo:lo + n]] + 1 - plan.plain[lo:lo + n, None]

    def moved(lo, n):  # counts, or poly rows one degree wider
        src, plain = plan.src[lo:lo + n], plan.plain[lo:lo + n]
        if C.ndim == 4:
            return C[src]
        width = C.shape[1]
        out = np.zeros((n, width + 1, C.shape[2]), C.dtype)
        up = plain == 1  # the unoccupied move keeps every degree
        out[up, 1:width] = C[src[up], 1:]
        out[~up, 2:] = C[src[~up], 1:]
        return out

    def kept(lo, n):
        values = moved(lo, n)
        if D is not None:
            values[lifted(lo, n) != low[:n]] = 0
        return values

    low = None
    if D is not None:
        low = lifted(*plan.layers[0])
        for lo, n in plan.layers[1:]:
            low[:n] = np.minimum(low[:n], lifted(lo, n))
    if C is None:
        return low, None
    total = kept(*plan.layers[0])
    if plan.fan_in > 1:
        later = kept(*plan.layers[1])
        for lo, n in plan.layers[2:]:
            later[:n] += kept(lo, n)
        total[:len(later)] += later
    return low, total


# random states of every mode, ending in the filler row as a sweep sets
# it; 48 starts split a column into chunks of a few hundred rows, one
# start leaves every column in one chunk
@pytest.mark.parametrize("kernel", ["grid", "cylinder", "king"])
def test_column_step_equals_a_loop_over_layers(kernel):
    rng = np.random.default_rng(7)
    inf = engine._INF
    for m in range(1, 9):
        plans = engine._gather_plans(kernel, m)
        for c, plan in enumerate(plans):
            rows = plans[c - 1].rows  # the states the column reads
            for mode, k in itertools.product(
                    ("float", "count", "minplus", "mincount", "poly"), (1, 48)):
                D = C = None
                if mode in ("minplus", "mincount"):
                    D = rng.integers(0, 4, (rows, k))
                    D[rng.random(D.shape) < 0.2] = inf
                    D[-1] = inf
                if mode == "float":
                    C = rng.random((rows, k, 1, 1)) * 2.0 ** rng.integers(
                        -30, 30, (rows, k, 1, 1))
                elif mode in ("count", "mincount"):  # int64 and prime lanes
                    C = rng.integers(0, 1 << 40, (rows, k, 1, 2))
                elif mode == "poly":  # a zero pad and 6 degrees, 2 lanes
                    C = rng.integers(0, 1 << 40, (rows, 7, 2 * k))
                    C[:, 0] = 0
                if C is not None:
                    C[-1] = 0
                    if D is not None:
                        C[D == inf] = 0
                into = [np.full(plan.rows * 16 * k, -1, np.int64)
                        for _ in range(2)]
                if mode == "float":
                    into[1] = np.full(plan.rows * k, np.nan)
                got = engine._step(D, C, plan, into)
                for have, want in zip(got, _step_by_layers(D, C, plan)):
                    assert (have is None) == (want is None)
                    if have is not None:
                        assert np.array_equal(have, want), (m, c, mode, k)


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
            {code: poly for code, poly in reduced.items()
             if any(poly.coefficients)}


def test_progress_reports_once_per_row():
    calls = []
    polynomial_series("grid", 2, 3, progress=lambda *call: calls.append(call))
    assert calls == [(1, 3, "row"), (2, 3, "row"), (3, 3, "row")]
