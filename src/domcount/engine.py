"""Row-by-row sweep engine for domination polynomials on lattice strips.

The sweep fills the lattice one vertex at a time, maintaining a map from
frontier state to an accumulated value (a polynomial, a count, or a minimum).
Each column's moves, every legal unoccupied and every occupied one, are
compiled once per (kernel, width) into a gather plan whose destinations are
numbered by falling fan-in, so fan-in layer k, the k-th gathered row of
every destination that has one, is a prefix of them: a step of any mode
gathers each layer into that prefix, with no scatter and no ``reduceat``.
Evaluation modes:

* ``poly``: coefficient vectors per state (full domination polynomial);
* ``count``: value at z=1 only (total number of dominating sets);
* ``minplus``: lowest attainable degree per state (domination number);
* ``mincount``: lowest degree and the number of sets attaining it.

Values are int64 lanes, the lane axis last.  An exact sweep carries an
int64 lane that is never reduced, so it holds every value modulo 2^64 --
alone while values provably fit, else beside lanes of primes below 2^59,
recombined by the Chinese remainder theorem; ``--mod`` runs one lane of its
prime.  Prime lanes are reduced only when another step could pass 2^63, and
at every row end.  One row loop, :func:`_sweep`, runs every mode on a
block of starts and lanes (poly folds the starts into the lane axis) and
yields values (states, starts, degrees, lanes), one degree for counts.
Every series goes through :func:`_series`, the torus as its trace over
one start per dihedral orbit, and growth as an unbounded count series in
one float64 lane, which :func:`_block_rows` rescales by its readout after
every row.  Blocks that do not fit the memory guard together run apart,
on a process pool: each picks its own entries and returns per-row lane
sums (and its least degree), which the parent joins before one readout.

The memory guard budgets a block's two state arrays over the widest column
domain beside the compiled column plans.  Every block allocates them once,
as two flat buffers per part, and each column writes into the one the
column before did not; a step's other temporaries are gathers of at most
one chunk (128 KiB for poly, 256 KiB otherwise), layer 0 or a run of whole
later layers, three at a time for poly and count.  Mincount also keeps the
minimum degrees of layer 0 and of every run until it masks the counts: a
torus 9x9 block of 207 starts peaked at 5.4 chunks over its state arrays.
The row-end readout copies the exact states it reads a 128 KiB chunk at a
time; the covered-row index and the compile's sort temporaries are not
bounded.
"""

from __future__ import annotations

import itertools
import os
import pickle
import select
import signal
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GuardExceeded
from .rings import (EXACT, Polynomial, Ring, covering_primes, lane_sum,
                    lane_values, prime_lanes)
from .signatures import (
    MAX_WIDTH,
    Signature,
    all_covered,
    count_signatures,
    dihedral_orbits,
    is_valid,
    signature_codes,
)

FAMILIES = ("grid", "cylinder", "torus", "king")

# One int64 lane is exact as long as every value stays below 2^63.  Each
# (state, degree) cell counts distinct vertex subsets with that many occupied
# cells, so it is bounded by C(cells, k); C(66, 33) < 2^63 < C(67, 33).  In
# count mode a cell is bounded by 2^cells, and the final readout sums to the
# total over all states, so 62 cells is the limit there.
_POLY_INT64_CELLS = 66
_COUNT_INT64_CELLS = 62

_LANE_PRIME_BITS = 59      # exact-run residue primes lie below 2^59
_GATHER_BYTES = 256 << 10  # gather chunk size of count and min-plus steps
_POLY_GATHER_BYTES = 128 << 10  # of poly steps: below the mmap threshold
_POLY_BLOCK_BYTES = 2 << 20  # state array of one block of poly starts

_INF = 1 << 62  # min-plus sentinel; survives adding one per placed vertex


@dataclass(frozen=True)
class GraphSpec:
    """One lattice instance: family plus width m and length n.

    m is the exponential (state space) dimension and wraps for cylinder and
    torus; n is the number of rows and wraps for the torus only.  Wrap
    adjacency is a set: a width-1 cycle contributes no self-loop and a
    width-2 cycle no parallel edge.  The side swept, the width
    :func:`_oriented` returns, is at most MAX_WIDTH.
    """

    family: str
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be at least 1")
        if _oriented(self.family, self.m, self.n)[1] > MAX_WIDTH:
            raise ValueError(f"m, or the narrow side of a transposable "
                             f"board, must be at most {MAX_WIDTH}")

    @property
    def cells(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class Guards:
    """Resource limits; exceeding one raises GuardExceeded before allocation."""

    max_states: int = 50_000_000
    max_memory_bytes: int = 12 << 30


DEFAULT_GUARDS = Guards()


# ------------------------------------------------------------ kernel tables

def _kernel_for(family: str) -> str:
    return "cylinder" if family == "torus" else family


def _digit(codes: np.ndarray, i: int) -> np.ndarray:
    """Digit i of every code, built from scalar floor divisions, which NumPy
    runs much faster than %."""
    q = codes // 3 ** i
    r = q // 3
    r *= 3
    q -= r
    return q


def _column_images(kernel: str, m: int, c: int, codes: np.ndarray):
    """Vectorized single-column transition on an array of state codes.

    Returns (valid unoccupied mask, unoccupied images, occupied images).
    The new cell replaces digit c - 1: the departing north cell on grid and
    cylinder, the remembered north-west slot of the king's window (digits
    0..c-2 the current row, c-1 that slot, c..m the previous row).  Kernels
    differ only in which digits neighbour the new cell and which depart.
    Unoccupied placement fails when a departing digit is still Uncovered and
    makes the new cell Covered when a neighbour is Occupied; occupied
    placement is always legal and upgrades each other Uncovered neighbour
    once.  Completed rows (c = m) come back as full-row codes, without the
    king's departing north cell.
    """
    near = {c - 1, c - 2} if c >= 2 else {c - 1}  # north(-west), west
    gone = {c - 1}
    if kernel == "king":  # north and north-east
        near |= {c, c + 1} if c < m else {c}
        gone |= {c} if c == m else set()
    elif kernel == "cylinder" and c == m >= 2:
        near.add(0)  # wrap around: column m is adjacent to column 1
    p = 3 ** (c - 1)
    valid = np.ones(len(codes), dtype=bool)
    covered = np.zeros(len(codes), dtype=bool)
    occ_dst = codes + 2 * p
    for i in near - {c - 1}:
        q = _digit(codes, i)
        if i in gone:
            valid &= q != 0
        covered |= q == 2
        np.add(occ_dst, 3 ** i, out=occ_dst, where=q == 0)
        del q  # before the next digit is built
    q = _digit(codes, c - 1)  # the replaced digit, last
    valid &= q != 0
    covered |= q == 2
    q *= p
    occ_dst -= q
    plain_dst = codes - q
    np.add(plain_dst, p, out=plain_dst, where=covered)
    if m in gone:  # the king's departing north cell: grid and cylinder
        plain_dst %= 3 ** m  # codes already lie below 3^m
        occ_dst %= 3 ** m
    return valid, plain_dst, occ_dst


@dataclass(frozen=True)
class _GatherPlan:
    """Both moves of one column in fan-in layers: layer k, the k-th
    gathered row of every destination that has one, covers destinations
    [0, size) with the rows src[offset:offset + size], ending where layer
    k + 1 begins, so a step gathers whole layers in runs of up to a chunk.
    The last destination is the filler row ending every state array (zero
    counts, _INF degrees), which a destination no move reaches gathers."""

    src: np.ndarray    # int32 source row per gathered row
    plain: np.ndarray  # int8: 1 for the unoccupied move, 0 for the occupied
    layers: tuple[tuple[int, int], ...]  # (offset, size), sizes falling

    @property
    def fan_in(self) -> int:
        return len(self.layers)

    @property
    def rows(self) -> int:  # destinations, the filler row included
        return self.layers[0][1]

    @property
    def nbytes(self) -> int:
        return self.src.nbytes + self.plain.nbytes


@lru_cache(maxsize=64)
def _compiled(kernel: str, m: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Compile the columns of one row, from and back to the full-row
    domain: returns its signature codes ascending, the state index of each,
    and the column plans.  Each column's images are taken on its domain in
    code order, and one stable sort groups them by destination in move
    order: a destination's k-th row goes to layer k.  Destinations are
    numbered by falling fan-in, sources by the previous column's numbering
    -- column 1's by the last column's, which numbers the full-row domain.
    The king's columns step windows, each row entering behind a virtual
    Covered north-west slot; its last column, like every kernel's, returns
    full rows.
    """
    start = dom = signature_codes(m, cyclic=(kernel == "cylinder"))
    if kernel == "king":  # window = virtual Covered north-west slot + the row
        dom = 3 * start + 1
    plans, rank = [], None
    for c in range(1, m + 1):
        valid, plain_dst, occ_dst = _column_images(kernel, m, c, dom)
        moved = np.concatenate([plain_dst[valid], occ_dst])
        del plain_dst, occ_dst  # freed before the sort, the compile's peak
        src = np.concatenate([np.flatnonzero(valid), np.arange(len(dom))])
        src = src if rank is None else rank[src]
        order = np.argsort(moved, kind="stable")
        moved = moved[order]
        new = np.r_[True, moved[1:] != moved[:-1]]
        heads = np.flatnonzero(new)  # each reached code's first row
        if c < m:
            nxt, group = moved[heads], np.arange(len(heads))
        else:  # completed rows are valid signatures
            nxt, group = start, np.searchsorted(start, moved[heads])
            assert (start[group.clip(max=len(start) - 1)] == moved[heads]).all()
        fan = np.ones(len(nxt) + 1, dtype=np.int8)  # unreached: the filler
        fan[group] = np.diff(np.append(heads, len(moved)))
        rank = np.empty(len(fan), dtype=np.int64)
        # a stable radix sort on int8: the filler row stays last
        rank[np.argsort(-fan, kind="stable")] = np.arange(len(fan))
        sizes = np.cumsum(np.bincount(fan)[::-1])[::-1][1:]  # fan-in > k
        offsets = np.cumsum(sizes) - sizes
        head = np.cumsum(new) - 1
        at = offsets[np.arange(len(moved)) - heads[head]] + rank[group][head]
        plan = _GatherPlan(np.full(sizes.sum(), len(dom), dtype=np.int32),
                           np.zeros(sizes.sum(), dtype=np.int8),
                           tuple(zip(offsets.tolist(), sizes.tolist())))
        plan.src[at] = src[order]
        plan.plain[at] = order < np.count_nonzero(valid)
        plans.append(plan)
        dom = nxt
    plans[0].src[:] = rank[plans[0].src]
    return start, rank[:-1], tuple(plans)


def _gather_plans(kernel: str, m: int) -> tuple[_GatherPlan, ...]:
    return _compiled(kernel, m)[2]


@lru_cache(maxsize=64)
def _covered_rows(kernel: str, m: int) -> np.ndarray:
    """State indices of the full-row states without an uncovered cell, in
    code order, so that float64 readouts add in a fixed order."""
    dom, index, _ = _compiled(kernel, m)
    ok = np.ones(len(dom), dtype=bool)
    for i in range(m):
        ok &= _digit(dom, i) != 0
    return index[ok]


def _start_indices(kernel: str, m: int, codes: Sequence[int]) -> np.ndarray:
    """State indices of full-row signature codes."""
    dom, index, _ = _compiled(kernel, m)
    full = np.array(codes, dtype=np.int64)
    i = np.searchsorted(dom, full).clip(max=len(dom) - 1)
    if (dom[i] != full).any():
        raise ValueError(f"codes {codes} include an invalid start state")
    return index[i]


# ------------------------------------------------------------ column steps

def _keep(counts: np.ndarray, mask: np.ndarray) -> None:
    """Zero counts (..., 1, lanes) where mask (...) is False, lane by lane."""
    for lane in range(counts.shape[-1]):
        counts[..., lane] *= mask[..., None]


def _step(D: Optional[np.ndarray], C: Optional[np.ndarray], plan: _GatherPlan,
          into: tuple) -> tuple:
    """One column on min degrees D (states + 1, starts) and counts C
    (states + 1, starts, 1, lanes), either one absent, or on poly
    coefficients C (states + 1, 1 + live degrees, starts * lanes), written
    (poly one degree wider) into the front of the flat buffers `into`.

    Counts add over a destination's gathered rows, with degrees only rows
    at the minimum degree; the occupied move adds one to the degree.  Slot
    0 of the poly degree axis is a zero pad, so the window at a row is the
    row one degree up and the window one slot later the row itself.  Per
    chunk of destinations [a, b), layer 0 is gathered into the output and
    layer k's rows src[offset + a:offset + min(b, size)] feed destinations
    a, a + 1, ...; adjacent ones join into runs of up to a chunk, one take
    each.  Float64 counts add as a0 + (a1 + a2 + ...); mincount masks each
    run's counts against the minimum.
    """
    n0 = plan.rows
    poly = C is not None and C.ndim == 3  # counts are (states + 1, ..., lanes)
    outD, outC = (None if x is None else buf[:n0 * x[0].size].reshape(
        n0, *x.shape[1:]) for x, buf in zip((D, None if poly else C), into))
    sums = outC  # outC past the poly degree pad
    if poly:  # one degree wider, behind a zero pad
        rows, width, lanes = C.shape
        windows = as_strided(C, (rows * width - width + 1, width, lanes),
                             (8 * lanes, 8 * lanes, 8), writeable=False)
        outC = into[1][:n0 * (width + 1) * lanes].reshape(n0, width + 1, lanes)
        outC[:, 0] = 0
        sums = outC[:, 1:]

    def gather(r0, r1):  # the values of gathered rows r0:r1
        if poly:
            idx = plan.src[r0:r1] * np.int64(width)
            idx += plan.plain[r0:r1]
            return windows[idx]
        return C.take(plan.src[r0:r1], axis=0, mode="clip")

    def lifted(r0, r1):  # the degrees of gathered rows r0:r1
        deg = D.take(plan.src[r0:r1], axis=0, mode="clip")
        deg += 1 - plan.plain[r0:r1, None]
        return deg

    chunk = max(1, (_POLY_GATHER_BYTES if poly else _GATHER_BYTES) // (
        8 * sum(a[0].size for a in (D, C) if a is not None)))
    n1 = plan.layers[1][1] if plan.fan_in > 1 else 0  # fan-in above 1

    def fold(a, b):  # destinations [a, b), whose temporaries die with it
        runs = []  # [first row, end row, [(row in run, rows) per layer]]
        for lo, n in plan.layers[1:]:
            if n <= a:
                break
            r0, r1 = lo + a, lo + min(b, n)
            if runs and runs[-1][1] == r0 and r1 - runs[-1][0] <= chunk:
                runs[-1][1] = r1
                runs[-1][2].append((r0 - runs[-1][0], r1 - r0))
            else:
                runs.append([r0, r1, [(0, r1 - r0)]])
        if D is not None:
            outD[a:b] = lifted(a, b)
            low = outD[a:min(b, n1)]
            first = None if C is None else low.copy()
            degs = []  # each run's degrees, kept to mask its counts
            for r0, r1, parts in runs:
                degs.append(lifted(r0, r1))
                for at, n in parts:
                    np.minimum(low[:n], degs[-1][at:at + n], out=low[:n])
                if C is None:
                    degs.pop()  # min-plus holds one run's degrees at a time
        if C is None:
            return
        sums[a:b] = gather(a, b)
        if D is not None:
            _keep(sums[a:a + len(low)], first == low)
        acc = None
        for i, (r0, r1, parts) in enumerate(runs):
            got = gather(r0, r1)
            if D is not None:
                _keep(got, degs[i] == np.concatenate(
                    [low[:n] for _, n in parts]))
            for at, n in parts:
                if acc is None:
                    acc = got[at:at + n]
                else:
                    acc[:n] += got[at:at + n]
        if acc is not None:
            del got  # before the add, which buffers into poly's strided sums
            sums[a:a + len(acc)] += acc

    for a in range(0, n0, chunk):
        fold(a, min(a + chunk, n0))
    return outD, outC


def _reduce_lanes(lanes: np.ndarray, primes: np.ndarray, top: int,
                  fan_in: Optional[int] = None) -> int:
    """The lazy reduction rule of every sweep with prime lanes, called
    before each step: reduces the prime lanes `lanes` (lanes last) in place
    modulo `primes` when a step adding up to `fan_in` values could pass
    2^63, and at a row end (fan_in None), since readouts take residues.
    `top` bounds every prime-lane value; returns the bound after the step.
    The int64 lane is never reduced."""
    if fan_in is None or top * fan_in >= 2**63:
        lanes %= primes
        top = int(primes.max()) - 1
    return top * (fan_in or 1)


# ------------------------------------------------------------ sweep driver

def _state_values(mode: str, cells: Optional[int]) -> tuple[int, int]:
    """8-byte values per state of one start in the last row: the degree slot,
    and per lane the count, or the poly coefficients and their zero pad."""
    return (int(mode in ("minplus", "mincount")),
            cells + 2 if mode == "poly" else int(mode != "minplus"))


@lru_cache(maxsize=None)
def _lane_primes(bits: int) -> tuple[int, ...]:
    """Primes whose product is at least 2^bits: as few as primes below 2^59
    need, taken below the smallest power of two that needs no more, so that
    lanes go longer between reductions."""
    if bits < 1:
        return ()
    lanes = len(covering_primes(bits, _LANE_PRIME_BITS))
    width = max(2, -(-bits // lanes))
    while len(primes := covering_primes(bits, width)) > lanes:
        width += 1
    return primes


def _plan_lanes(kernel: str, m: int, cells: Optional[int], mode: str,
                modulus: Optional[int], guards: Guards,
                ) -> tuple[Optional[np.ndarray], tuple[int, int]]:
    """Residue moduli, one per lane, and the block one sweep carries:
    (starts, lanes).

    An exact sweep carries the int64 lane first, modulus 0: it is never
    reduced, and since NumPy's integer arithmetic wraps, it holds every
    value modulo 2^64.  It is the only lane up to _POLY_INT64_CELLS cells
    for polynomials and _COUNT_INT64_CELLS for counts; past that, prime
    lanes from :func:`_lane_primes` cover the rest of 2^(cells+1), which
    bounds every value.  `modulus` gives one lane of that prime; min-plus
    sweeps and unbounded count sweeps (cells None: growth's one float64
    lane) carry no moduli (None).  A step adds up to fan-in residues and a
    readout block at least two, so a prime P is admissible while
    max(fan-in, 2)*(P-1) < 2^63.  A block is the largest whose two state
    arrays over the widest column domain fit max_memory_bytes beside the
    column plans: every lane of as many starts as fit, else as many lanes
    of one start; a poly block keeps its state array near
    _POLY_BLOCK_BYTES (the step is memory-bound).  Raises GuardExceeded
    when one lane of one start does not fit.
    """
    int64_cells = _POLY_INT64_CELLS if mode == "poly" else _COUNT_INT64_CELLS
    if mode == "minplus" or cells is None:
        moduli = ()
    elif modulus is not None:
        moduli = (modulus,)
    elif cells <= int64_cells:
        moduli = (0,)
    else:
        moduli = (0, *_lane_primes(cells + 1 - 64))
    slot, per_lane = _state_values(mode, cells)
    lanes = max(len(moduli), 1)
    # kinked mid-row domains never exceed three times the full-row count
    kind = "cyclic" if kernel == "cylinder" else "plain"
    bound = 3 * count_signatures(m + (kernel == "king"), kind)
    if bound > guards.max_states:
        raise GuardExceeded(
            f"state bound {bound} for width {m} exceeds max_states="
            f"{guards.max_states}")

    def fit(rows: int, plans: int) -> int:  # int64 values per state that fit
        arrays = 2 * rows * (slot + per_lane) * 8
        if arrays + plans > guards.max_memory_bytes:
            raise GuardExceeded(
                f"estimated working memory of one lane of one start, at "
                f"least {arrays + plans} bytes ({arrays} of state arrays, "
                f"{plans} of column plans), exceeds max_memory_bytes="
                f"{guards.max_memory_bytes}")
        return (guards.max_memory_bytes - plans) // (2 * rows * 8)

    # the last column's destinations, the full-row domain, bound the widest
    # from below: a block that cannot fit them is refused uncompiled
    fit(count_signatures(m, kind) + 1, 0)
    plans = _gather_plans(kernel, m)
    rows = max(plan.rows for plan in plans)
    room = fit(rows, sum(plan.nbytes for plan in plans))
    if slot + lanes * per_lane <= room:
        block, width = room // (slot + lanes * per_lane), lanes
    else:
        block, width = 1, (room - slot) // per_lane
    if mode == "poly":
        block = max(1, min(block, _POLY_BLOCK_BYTES // (8 * rows * width
                                                        * per_lane)))
    if not moduli:
        return None, (block, width)
    fan_in = max(2, *(plan.fan_in for plan in plans))
    limit = (2**63 - 1) // fan_in + 1
    if max(moduli) > limit:
        raise ValueError(
            f"modulus {max(moduli)} is too large: a {kernel} sweep of width "
            f"{m} adds up to {fan_in} residues, so moduli up to {limit} are "
            f"admissible")
    return np.array(moduli, dtype=np.int64), (block, width)


def _sweep(kernel: str, m: int, n: Optional[int], mode: str,
           starts: np.ndarray, moduli: Optional[np.ndarray]) -> Iterator[tuple]:
    """The row loop of every mode: run n rows (unbounded for None) from one
    indicator per full-row state in `starts`, yielding (min degrees, values)
    after each row; a part the mode does not carry is None.  Min degrees
    are (states + 1, starts), values (states + 1, starts, degrees, lanes),
    one degree for counts; poly coefficients are a view of the state array
    (states + 1, 1 + degrees, starts * lanes).  Lanes are int64, one per
    modulus; counts without moduli are one float64 lane, growth's unbounded
    sweep through :func:`_series`, which :func:`_block_rows` rescales in
    place between rows.

    Each part has two flat buffers, allocated once at the size
    :func:`_plan_lanes` budgets, and each column writes into the one the
    column before did not, so a caller reads a row (as :func:`_block_rows`
    and :func:`run_sweep` do) before it asks for the next.
    """
    codes, _, plans = _compiled(kernel, m)
    size, rows = len(codes), max(plan.rows for plan in plans)
    k, cols = len(starts), np.arange(len(starts))
    lanes = 1 if moduli is None else len(moduli)
    slot, per_lane = _state_values(mode, None if n is None else m * n)
    parts = ((slot, np.int64),
             (lanes * per_lane, np.float64 if moduli is None else np.int64))
    first, second = ([np.empty(rows * k * v, t) for v, t in parts]
                     for _ in range(2))
    D = C = None
    if slot:
        D = first[0][:(size + 1) * k].reshape(size + 1, k)
        D[:] = _INF
        D[starts, cols] = 0
    if per_lane:  # poly behind a zero pad, at degree 0
        pad = int(mode == "poly")
        C = first[1][:(size + 1) * (1 + pad) * k * lanes].reshape(
            size + 1, 1 + pad, k, lanes)
        C[:] = 0
        C[starts, pad, cols] = 1
        C = C.reshape((size + 1, 2, -1) if pad else (size + 1, k, 1, lanes))
    spare = itertools.cycle((second, first))  # the buffers each step fills
    wrap, primes = prime_lanes(moduli)
    top = 1  # bounds every prime-lane value
    for _ in itertools.count() if n is None else range(n):
        for plan in plans:
            if primes is not None:
                top = _reduce_lanes(C.reshape(-1, lanes)[:, wrap:], primes,
                                    top, plan.fan_in)
            D, C = _step(D, C, plan, next(spare))
        if primes is not None:
            top = _reduce_lanes(C.reshape(-1, lanes)[:, wrap:], primes, top)
        yield D, (C.reshape(size + 1, -1, k, lanes)[:, 1:].swapaxes(1, 2)
                  if mode == "poly" else C)


def _block_rows(job: tuple) -> Iterator[tuple]:
    """Sweep one block of starts and lanes, yielding after each row the
    partial readout of its picked entries: their least degree, and their
    lane sums (degrees, lanes), in mincount of the picks at that degree; a
    part the mode does not carry is None.  Picks are as :func:`_series`
    says: torus starts carry their orbit `weights`, an open board's start
    None.  Exact picks are copied _POLY_GATHER_BYTES at a time; a float64
    lane sums in one, in pick order, and is divided by its sum: row n
    reads T(n) / T(n-1)."""
    kernel, m, n, mode, moduli, starts, weights = job
    if weights is None:  # every covered row of the one start, in code order
        rows = _covered_rows(kernel, m)
        cols = np.broadcast_to(0, rows.shape)
    else:  # each start's own row, once per orbit member
        cols = np.repeat(np.arange(len(starts)), weights)
        rows = starts[cols]
    for D, V in _sweep(kernel, m, n, mode, starts, moduli):
        least = sums = None
        r, c = rows, cols
        if D is not None:
            deg = D[rows, cols]
            least = int(deg.min())
            if V is not None:  # mincount: the picks at the least degree
                r, c = rows[deg == least], cols[deg == least]
        if V is not None:
            if moduli is None:
                sums = V[r, c].sum(axis=0)
                V /= sums[0, 0]
            else:
                step = max(1, _POLY_GATHER_BYTES // V[0, 0].nbytes)
                sums = lane_sum(np.stack(
                    [lane_sum(V[r[a:a + step], c[a:a + step]], moduli)
                     for a in range(0, len(r), step)]), moduli)
        yield least, sums


def _run_block(job) -> list[tuple]:
    """Every row of one block: the unit of work of a pool worker."""
    return list(_block_rows(job))


def _pooled(work: Callable, jobs: list, procs: int) -> Iterator:
    """work(job) for each job in order, as each finishes, on up to `procs`
    forked processes.

    The workers fork from the caller, so they share what it built before
    (column plans, start indices) without pickling it.  They take job
    indices from one pipe, 4 bytes a read, so a free worker takes the next
    job, and send back pickled (index, failed, result or exception) records
    on a pipe of their own.  A job's exception is raised again here, and a
    worker that dies raises RuntimeError.  However the caller stops, every
    worker is killed and reaped and every pipe closed.  A fork copies only
    the calling thread, so no job may wait on another thread (the engine
    starts none).  Without os.fork the jobs run serially.
    """
    procs = min(procs, len(jobs))
    if procs <= 1 or not hasattr(os, "fork"):
        yield from map(work, jobs)
        return
    feed, feeder = os.pipe()
    os.set_blocking(feeder, False)  # topped up between reads of results
    workers: dict[int, int] = {}  # result pipe read end -> worker pid
    try:
        for _ in range(procs):
            out, into = os.pipe()
            workers[out] = 0  # not forked yet
            try:
                pid = os.fork()
                if pid == 0:  # the worker: never returns
                    _serve(work, jobs, feed, into, [feeder, *workers])
            finally:
                os.close(into)
            workers[out] = pid
        os.close(feed)
        feed = None
        todo = iter(range(len(jobs)))
        nxt = next(todo)
        done: dict[int, object] = {}
        pending = {out: bytearray() for out in workers}
        for i in range(len(jobs)):
            while i not in done:
                while nxt is not None:  # 4-byte writes are atomic on a pipe
                    try:
                        os.write(feeder, nxt.to_bytes(4, "little"))
                    except (BlockingIOError, BrokenPipeError):
                        break  # full, or every worker died: select sees which
                    nxt = next(todo, None)
                if nxt is None and feeder is not None:
                    os.close(feeder)  # end of jobs: idle workers exit
                    feeder = None
                if not workers:
                    raise RuntimeError("pool workers exited before job "
                                       f"{i} returned")
                ready, _, _ = select.select(
                    list(workers), [] if feeder is None else [feeder], [])
                for out in ready:
                    _receive(out, workers, pending[out], done)
            yield done.pop(i)
    finally:
        for pid in filter(None, workers.values()):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (feed, feeder, *workers):
            if fd is not None:
                os.close(fd)


def _serve(work: Callable, jobs: list, feed: int, into: int,
           inherited: list[int]) -> None:
    """A pool worker: run each job whose index it reads from `feed`, send
    its record into `into`, and exit at the end of the feed."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        while len(raw := os.read(feed, 4)) == 4:
            i = int.from_bytes(raw, "little")
            try:
                record = (i, False, work(jobs[i]))
            except Exception as exc:  # the parent raises it again
                record = (i, True, exc)
            data = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            view = memoryview(len(data).to_bytes(8, "little") + data)
            while view:
                view = view[os.write(into, view):]
        status = 0
    finally:
        os._exit(status)


def _receive(out: int, workers: dict[int, int], buf: bytearray,
             done: dict) -> None:
    """Read what the worker on pipe `out` has sent, moving each whole
    record into `done`; at the end of the pipe reap the worker, and raise
    if it did not exit cleanly."""
    data = os.read(out, 1 << 20)
    if not data:
        pid = workers.pop(out)
        os.close(out)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            raise RuntimeError(f"pool worker {pid} died ("
                               + (f"signal {-status}" if status < 0
                                  else f"exit status {status}") + ")")
        return
    buf += data
    while len(buf) >= 8 and len(buf) >= 8 + (size := int.from_bytes(
            buf[:8], "little")):
        i, failed, value = pickle.loads(buf[8:8 + size])
        del buf[:8 + size]
        if failed:
            raise value
        done[i] = value


def _aggregate(mode: str, parts: list[tuple], groups: list):
    """Coefficients, total, minimum degree, or (minimum degree, its count)
    from one row's partial readouts, block by block of starts and, within
    one, group by group of lane moduli `groups`: blocks of starts keep the
    least degree and add their lane sums at it, and groups of lanes join
    on the lane axis before one readout."""
    least = None if parts[0][0] is None else min(g for g, _ in parts)
    if mode == "minplus":
        return least
    if groups[0] is None:  # the float64 lane, in one block
        return float(parts[0][1][0, 0])
    sums = [lane_sum(np.stack([lanes for g, lanes in parts[j::len(groups)]
                               if g == least]), group)
            for j, group in enumerate(groups)]
    values = lane_values(np.concatenate(sums, axis=-1), np.concatenate(groups))
    if mode == "poly":
        return values
    return values[0] if mode == "count" else (least, values[0])


def _series(family: str, m: int, n: Optional[int], mode: str, guards: Guards,
            modulus: Optional[int] = None, workers: int = 1,
            progress: Optional[Callable[[int, int, str], None]] = None,
            ) -> Iterator:
    """Per-row readouts for n = 1..n, unbounded for None: coefficient lists
    in poly mode, else what :func:`_aggregate` returns.  Open boards start
    from the all-covered row and read every state without an uncovered
    cell.  The torus runs one start per dihedral orbit and reads its
    diagonal entry once per orbit member: rotating or reflecting a start
    permutes rows and columns of the transfer operator alike.  Starts and
    lanes run in blocks sized by :func:`_plan_lanes`, on up to `workers`
    processes; `progress(done, total, unit)` follows each row ("row") of
    one block, or each of several blocks ("block"), since the rows of a
    block complete only with its last.
    """
    kernel = _kernel_for(family)
    # the guards first: the lookups below compile the column plans
    moduli, (block, width) = _plan_lanes(
        kernel, m, None if n is None else m * n, mode, modulus, guards)
    if family == "torus":
        codes, weights = zip(*dihedral_orbits(m))
    else:
        codes, weights = [all_covered(m).code], None
    starts = _start_indices(kernel, m, codes)
    groups = [None] if moduli is None else \
        [moduli[k:k + width] for k in range(0, len(moduli), width)]
    jobs = [(kernel, m, n, mode, group, starts[b0:b0 + block],
             None if weights is None else weights[b0:b0 + block])
            for b0 in range(0, len(starts), block) for group in groups]

    def reported(items, unit, total):
        for k, item in enumerate(items, 1):
            if progress is not None:
                progress(k, total, unit)
            yield item

    if len(jobs) == 1:
        rows = ([part] for part in reported(_block_rows(jobs[0]), "row", n))
    else:  # each row's partial readouts over the blocks
        if weights is None:  # built once, before the pool forks
            _covered_rows(kernel, m)
        rows = zip(*reported(_pooled(_run_block, jobs, workers), "block",
                             len(jobs)))
    for parts in rows:
        yield _aggregate(mode, parts, groups)


# ------------------------------------------------------------- public API

def run_sweep(spec: GraphSpec, start_signature: Signature,
              rows: Optional[int] = None, ring: Ring = EXACT,
              guards: Guards = DEFAULT_GUARDS) -> dict[int, Polynomial]:
    """Propagate an indicator at `start_signature` through `rows` rows.

    Returns the full configuration map {signature code: polynomial}, one
    entry per reachable full-row state with a nonzero polynomial, in
    ascending code order.  One row, ``run_sweep(GraphSpec(family, m, 1),
    sigma)``, is column sigma of the row transfer matrix: z^(occupied
    cells of tau) for each row tau that may lie below sigma.  Torus uses
    the trace loop instead; see :func:`torus_polynomial`.
    """
    if spec.family == "torus":
        raise ValueError("run_sweep has open-ended row semantics; "
                         "use torus_polynomial for the torus")
    rows = spec.n if rows is None else rows
    if start_signature.width != spec.m:
        raise ValueError("start signature width does not match the spec")
    cyclic = spec.family == "cylinder"
    if not is_valid(start_signature, cyclic=cyclic):
        raise ValueError(f"start signature {start_signature} is not "
                         f"{'cyclic-' if cyclic else ''}valid")
    kernel = _kernel_for(spec.family)
    moduli, (_, width) = _plan_lanes(kernel, spec.m, spec.m * rows, "poly",
                                     ring.modulus, guards)
    idx = _start_indices(kernel, spec.m, [start_signature.code])
    codes, index, _ = _compiled(kernel, spec.m)
    parts = []  # code order, no filler row; (states, degrees, lanes)
    for lo in range(0, len(moduli), width):  # one group of lanes at a time
        for _, V in _sweep(kernel, spec.m, rows, "poly", idx,
                           moduli[lo:lo + width]):
            pass
        parts.append(V[index, 0])
    V = np.concatenate(parts, axis=-1)
    flat, k = lane_values(V.reshape(-1, V.shape[2]), moduli), V.shape[1]
    result: dict[int, Polynomial] = {}
    for i, code in enumerate(codes):
        if any(coeffs := flat[i * k:(i + 1) * k]):
            result[int(code)] = Polynomial.from_coefficients(
                coeffs, ring).trimmed()
    return result


def polynomial_series(family: str, m: int, n_max: int, ring: Ring = EXACT,
                      guards: Guards = DEFAULT_GUARDS,
                      progress: Optional[Callable[[int, int, str], None]] = None,
                      workers: int = 1) -> list[Polynomial]:
    """Domination polynomials of family m x n for every n = 1..n_max, blocks
    of torus start orbits or of lanes on up to `workers` processes;
    `progress(done, total, unit)` reports rows, or the blocks of a split
    sweep."""
    return [Polynomial.from_coefficients(coeffs, ring).trimmed()
            for coeffs in _series(family, m, n_max, "poly", guards,
                                  ring.modulus, workers, progress)]


def _oriented(family: str, m: int, n: int) -> tuple[str, int, int]:
    """The (family, width, length) that sweeps the family's m x n board.

    Grid, king, and torus are transpose symmetric, and sweep cost is
    exponential in the width, so wide-short instances run as their
    transposes.  The cylinder wraps one specific dimension and usually
    stays put, but for one or two rows the open direction contributes no
    edge difference (P1 = C1, and P2 = C2 once the wrap edge is deduped),
    so those instances are the matching torus and transpose freely.
    """
    if family == "cylinder":
        if n > 2:
            return family, m, n
        family = "torus"
    return (family, n, m) if m > n else (family, m, n)


def domination_polynomial(spec: GraphSpec, ring: Ring = EXACT,
                          guards: Guards = DEFAULT_GUARDS,
                          workers: int = 1,
                          progress: Optional[Callable[[int, int, str], None]] = None,
                          ) -> Polynomial:
    """The domination polynomial D(z) of one lattice instance."""
    family, m, n = _oriented(spec.family, spec.m, spec.n)
    return polynomial_series(family, m, n, ring=ring, guards=guards,
                             progress=progress, workers=workers)[-1]


def count_series(family: str, m: int, n_max: int,
                 guards: Guards = DEFAULT_GUARDS) -> list[int]:
    """Total number of dominating sets of m x n for n = 1..n_max (exact)."""
    return list(_series(family, m, n_max, "count", guards))


def iter_counts(family: str, m: int,
                guards: Guards = DEFAULT_GUARDS) -> Iterator[int]:
    """Stream exact totals for n = 1, 2, 3, ... (non-torus families).

    Runs count series over doubling horizons, the first as long as the
    int64 lane alone holds; each run replays the rows streamed before it.
    """
    if family == "torus":
        raise ValueError("torus totals equal per-n trace sums; use count_series")
    done, horizon = 0, max(1, _COUNT_INT64_CELLS // m)
    while True:
        yield from itertools.islice(_series(family, m, horizon, "count", guards),
                                    done, None)
        done, horizon = horizon, 2 * horizon


def iter_ratios(family: str, m: int,
                guards: Guards = DEFAULT_GUARDS) -> Iterator[float]:
    """Stream T(n) / T(n-1) for n = 1, 2, 3, ... in float64, T(0) = 1
    (non-torus families).

    A power iteration of the count step: the unbounded count sweep of
    :func:`_series` carries one float64 lane, which :func:`_block_rows`
    divides by its readout after each row, so the readout is the ratio
    itself and no value outgrows it.  Every term is nonnegative, so nothing
    cancels and the relative rounding error stays near float64's own.
    """
    if family == "torus":
        raise ValueError("torus ratios equal the cylinder's; use the cylinder")
    return _series(family, m, None, "count", guards)


def gamma_series(family: str, m: int, n_max: int,
                 guards: Guards = DEFAULT_GUARDS) -> list[int]:
    """Domination numbers of family m x n for n = 1..n_max."""
    return list(_series(family, m, n_max, "minplus", guards))


def mincount_series(family: str, m: int, n_max: int,
                    guards: Guards = DEFAULT_GUARDS) -> list[tuple[int, int]]:
    """(gamma, number of minimum dominating sets) for n = 1..n_max."""
    return list(_series(family, m, n_max, "mincount", guards))


_TABLE_MODES = {"gamma": "minplus", "ngamma": "mincount", "total": "count"}


def table_values(kind: str, family: str, cells: Sequence[tuple[int, int]],
                 guards: Guards = DEFAULT_GUARDS) -> list[int]:
    """Domination numbers ("gamma"), numbers of minimum dominating sets
    ("ngamma") or totals ("total") of the family's m x n boards, one per
    (m, n) in `cells`, in order.

    Each board is swept as :func:`_oriented` turns it, and the boards that
    share a swept (family, width) read one series, as long as the longest
    of them needs.  The widest sweeps run first, so the state guard
    refuses a table before any sweep of it runs.
    """
    mode = _TABLE_MODES[kind]
    swept = [_oriented(family, m, n) for m, n in cells]
    lengths: dict[tuple[str, int], int] = {}
    for fam, width, n in sorted(swept, key=lambda s: (-s[1], s[0])):
        lengths[fam, width] = max(lengths.get((fam, width), 0), n)
    series = {key: list(_series(*key, n, mode, guards))
              for key, n in lengths.items()}
    values = [series[fam, width][n - 1] for fam, width, n in swept]
    return [cnt for _, cnt in values] if mode == "mincount" else values


def count_dominating(spec: GraphSpec, guards: Guards = DEFAULT_GUARDS) -> int:
    """Number of dominating sets (the polynomial evaluated at 1)."""
    return table_values("total", spec.family, [(spec.m, spec.n)], guards)[0]


# ------------------------------------------------------------------ torus

def torus_polynomial(m: int, n: int, ring: Ring = EXACT,
                     guards: Guards = DEFAULT_GUARDS, workers: int = 1,
                     ) -> Polynomial:
    """Domination polynomial of the m x n torus (trace over cyclic starts)."""
    return domination_polynomial(GraphSpec("torus", m, n), ring=ring,
                                 guards=guards, workers=workers)
