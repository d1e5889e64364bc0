"""Row-by-row sweep engine for domination polynomials on lattice strips.

The sweep fills the lattice one vertex at a time, maintaining a map from
frontier state to an accumulated value (a polynomial, a count, or a minimum).
Rather than branching per state in Python, the per-column transitions are
compiled once per (kernel, width) into one gather plan per column: the
source state of every unoccupied move (illegal ones dropped) and every
occupied move, grouped by destination.  A count, minplus or mincount step
is then one gather and one ``reduceat`` per chunk of about 256 KiB over the
whole state array.  The poly step splits each plan into fan-in layers,
layer k the k-th gathered row of every destination that has one: it
assigns layer 0 and adds each later layer, in gathers of the same size.

Evaluation modes:

* ``poly``: coefficient vectors per state (full domination polynomial);
* ``count``: value at z=1 only (total number of dominating sets);
* ``minplus``: lowest attainable degree per state (domination number);
* ``mincount``: lowest degree and the number of sets attaining it.

The poly step reads the occupied move one degree shifted, over the live
degrees only.  Values are int64 lanes, the lane axis last in every state
array.  An exact sweep carries an int64 lane that is never reduced and so
holds every value modulo 2^64 -- alone while every value provably fits,
otherwise beside lanes of primes below 2^59 that cover the rest, recombined
by the Chinese remainder theorem; ``--mod`` runs one lane of its prime.
Prime lanes are reduced only when another step could pass 2^63, and at every
row end.  Growth estimates run counts in one float64 lane, renormalized
after every row; the exact count stream (:func:`iter_counts`) replays
bounded sweeps of doubling length.  One row loop, :func:`_sweep`, runs every
mode, and every series goes through :func:`_series`; the torus is its trace
over one start per dihedral orbit.  Count, minplus and mincount sweep all
starts as columns of one sweep; a poly sweep carries one start, and the
torus polynomial runs its start orbits on a process pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GuardExceeded
from .rings import (EXACT, Polynomial, Ring, covering_primes, crt_reconstruct,
                    lane_sum, lane_values, prime_lanes, select_moduli)
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
_GATHER_BYTES = 256 << 10  # gather chunk size of every column step

_INF = 1 << 62  # min-plus sentinel; survives adding one per placed vertex


@dataclass(frozen=True)
class GraphSpec:
    """One lattice instance: family plus width m and length n.

    m is the exponential (state space) dimension and wraps for cylinder and
    torus; n is the number of rows and wraps for the torus only.  Wrap
    adjacency is a set: a width-1 cycle contributes no self-loop and a
    width-2 cycle no parallel edge.
    """

    family: str
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 1 <= self.m <= MAX_WIDTH:
            raise ValueError(f"m must be in 1..{MAX_WIDTH}")
        if self.n < 1:
            raise ValueError("n must be at least 1")

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


@lru_cache(maxsize=64)
def _start_codes(kernel: str, m: int) -> np.ndarray:
    """Full-row state codes: the domain at column 1 of every row."""
    if kernel == "king":
        # window = virtual Covered boundary cell + the row itself
        codes = signature_codes(m) * 3 + 1
    else:
        codes = signature_codes(m, cyclic=(kernel == "cylinder"))
    codes.flags.writeable = False  # cached and shared
    return codes


def _column_images(kernel: str, m: int, c: int, codes: np.ndarray):
    """Vectorized single-column transition on an array of state codes.

    Returns (valid unoccupied mask, unoccupied images, occupied images).
    Occupied placement is always legal; unoccupied placement fails when a
    departing previous-row cell is still Uncovered.
    """
    if kernel == "king":
        return _column_images_king(m, c, codes)
    p = 3 ** (c - 1)
    above = codes // p % 3
    covered = above == 2
    occ_dst = codes + (2 - above) * p
    if c >= 2:
        left = codes // (p // 3) % 3
        covered = covered | (left == 2)
        occ_dst = occ_dst + np.where(left == 0, p // 3, 0)
    if kernel == "cylinder" and c == m and m >= 2:
        # wrap around: column m is adjacent to column 1 of the same row
        first = codes % 3
        covered = covered | (first == 2)
        first_now = occ_dst % 3  # the left upgrade already fixed it when m=2
        occ_dst = occ_dst + np.where(first_now == 0, 1, 0)
    valid = above != 0
    plain_dst = codes + (covered.astype(np.int64) - above) * p
    return valid, plain_dst, occ_dst


def _column_images_king(m: int, c: int, codes: np.ndarray):
    # window positions (0-based digit index): 0..c-2 current row, c-1 the
    # remembered north-west cell, c..m previous row
    pnw = 3 ** (c - 1)
    nw = codes // pnw % 3
    north = codes // (3 ** c) % 3
    valid = nw != 0
    if c == m:
        valid = valid & (north != 0)  # the last previous-row cell departs too
    covered = (nw == 2) | (north == 2)
    occ_up = np.where(north == 0, 3 ** c, 0)
    if c >= 2:
        left = codes // (3 ** (c - 2)) % 3
        covered = covered | (left == 2)
        left_up = np.where(left == 0, 3 ** (c - 2), 0)
    else:
        left_up = np.zeros(len(codes), dtype=np.int64)
    if c <= m - 1:
        ne = codes // (3 ** (c + 1)) % 3
        covered = covered | (ne == 2)
        occ_up = occ_up + np.where(ne == 0, 3 ** (c + 1), 0)
    new_plain = covered.astype(np.int64)
    if c < m:
        plain_dst = codes + (new_plain - nw) * pnw
        occ_dst = codes + (2 - nw) * pnw + left_up + occ_up
        return valid, plain_dst, occ_dst
    # row complete: keep current-row digits 0..m-2, append the new cell,
    # prepend the virtual Covered boundary slot
    head = 3 ** (m - 1)
    plain_dst = 1 + 3 * (codes % head + new_plain * head)
    occ_dst = 1 + 3 * ((codes + left_up) % head + 2 * head)
    return valid, plain_dst, occ_dst


@dataclass(frozen=True)
class _GatherPlan:
    """Both moves of one column as one gather grouped by destination.  State
    arrays end in a filler row (zero counts, _INF degrees), which has a
    group of its own and is what a destination no move reaches gathers."""

    src: np.ndarray     # source row per gathered row
    plain: np.ndarray   # 1 for the unoccupied move, 0 for the occupied one
    starts: np.ndarray  # first gathered row per destination, then the total
    fan_in: int         # most gathered rows of any one destination


@lru_cache(maxsize=64)
def _gather_plans(kernel: str, m: int) -> tuple[_GatherPlan, ...]:
    """Compile the columns of one row, from and back to the full-row
    domain; each column's domain is the sorted set of codes it reaches."""
    start = dom = _start_codes(kernel, m)
    plans = []
    for c in range(1, m + 1):
        valid, plain_dst, occ_dst = _column_images(kernel, m, c, dom)
        moved = np.concatenate([plain_dst[valid], occ_dst])
        if c == m:
            nxt = start
        else:
            # sort plus diff: np.unique hashes, which is several times slower
            both = np.sort(moved)
            nxt = both[np.r_[True, both[1:] != both[:-1]]]
        dst = np.searchsorted(nxt, moved)
        # completed rows always form valid full-row signatures
        assert (nxt[dst.clip(max=len(nxt) - 1)] == moved).all()
        reached = np.zeros(len(nxt) + 1, dtype=bool)
        reached[dst] = True
        missing = np.flatnonzero(~reached)
        dst = np.concatenate([dst, missing])
        src = np.concatenate([np.flatnonzero(valid), np.arange(len(dom)),
                              np.full(len(missing), len(dom))])
        plain = np.zeros(len(src), dtype=np.int8)
        plain[:np.count_nonzero(valid)] = 1
        order = np.argsort(dst, kind="stable")
        starts = np.searchsorted(dst[order], np.arange(len(nxt) + 2))
        plans.append(_GatherPlan(src[order], plain[order], starts,
                                 int(np.diff(starts).max())))
        dom = nxt
    return tuple(plans)


@lru_cache(maxsize=64)
def _poly_layers(kernel: str, m: int) -> tuple[tuple, ...]:
    """The gather plans of one row split into fan-in layers, for the poly
    step: per column, layer k holds (destination, source, plain) of the
    k-th gathered row of every destination that has more than k, so layer
    0 lists every destination in order.  int32 and int8, and cached apart
    from the plans, so that only poly runs hold them."""
    columns = []
    for plan in _gather_plans(kernel, m):
        sizes = np.diff(plan.starts)
        layers = []
        for k in range(plan.fan_in):
            dst = np.flatnonzero(sizes > k)
            rows = plan.starts[dst] + k
            layers.append((dst.astype(np.int32), plan.src[rows].astype(np.int32),
                           plan.plain[rows]))
        columns.append(tuple(layers))
    return tuple(columns)


def _domain_bound(kernel: str, m: int) -> int:
    # kinked mid-row domains never exceed three times the full-row count
    if kernel == "king":
        return 3 * count_signatures(m + 1)
    return 3 * count_signatures(m, "cyclic" if kernel == "cylinder" else "plain")


@lru_cache(maxsize=64)
def _no_uncovered_mask(kernel: str, m: int) -> np.ndarray:
    dom = _start_codes(kernel, m)
    row = dom // 3 if kernel == "king" else dom
    ok = np.ones(len(dom), dtype=bool)
    for i in range(m):
        ok &= (row // 3 ** i % 3) != 0
    return ok


# ------------------------------------------------------------ column steps

def _chunks(plan: _GatherPlan, row_bytes: int) -> list[tuple[int, int]]:
    """Destination ranges whose gathered rows fill about _GATHER_BYTES."""
    groups = len(plan.starts) - 1
    chunk = max(1, _GATHER_BYTES // row_bytes)
    cuts = np.searchsorted(plan.starts, range(chunk, len(plan.src), chunk))
    bounds = [0, *cuts.tolist(), groups]
    return [(g0, g1) for g0, g1 in zip(bounds[:-1], bounds[1:]) if g0 < g1]


def _step_poly(V: np.ndarray, layers: tuple) -> np.ndarray:
    """One column on (states + 1, 1 + live degrees, lanes); one more degree
    out.

    Slot 0 of the degree axis is a zero pad before degree 0, so the window
    starting at a row is the row shifted one degree up (the occupied move)
    and the window one slot later the row itself (the unoccupied move),
    ending in the next row's pad; each window holds every lane.  Layer 0 of the fan-in layers assigns every
    destination its first gathered row; each later layer adds one more row
    to the destinations that have it, and no destination appears twice
    within a layer.
    """
    rows, width, lanes = V.shape
    out = np.empty((len(layers[0][0]), width + 1, lanes), dtype=np.int64)
    out[:, 0] = 0
    windows = as_strided(V, (rows * width - width + 1, width, lanes),
                         (8 * lanes, 8 * lanes, 8), writeable=False)
    chunk = max(1, _GATHER_BYTES // (8 * width * lanes))
    for k, (dst, src, plain) in enumerate(layers):
        for a in range(0, len(src), chunk):
            idx = src[a:a + chunk] * np.int64(width) + plain[a:a + chunk]
            if k == 0:
                out[a:a + chunk, 1:] = windows[idx]
            else:
                out[dst[a:a + chunk], 1:] += windows[idx]
    return out


def _step(D: Optional[np.ndarray], C: Optional[np.ndarray], plan: _GatherPlan):
    """One column of a one-value semiring on min degrees D (states + 1,
    starts) and counts C (states + 1, starts, lanes), either one absent.

    Counts add over a destination's gathered rows; with degrees, only the
    rows at the destination's minimum degree count.  The occupied move adds
    one to the degree.  Counts are not reduced; see :func:`_reduce_lanes`.
    """
    groups = len(plan.starts) - 1
    outD = None if D is None else np.empty((groups, *D.shape[1:]), D.dtype)
    outC = None if C is None else np.empty((groups, *C.shape[1:]), C.dtype)
    row_bytes = 8 * sum(a[0].size for a in (D, C) if a is not None)
    for g0, g1 in _chunks(plan, row_bytes):
        r0, r1 = plan.starts[g0], plan.starts[g1]
        src = plan.src[r0:r1]
        at = plan.starts[g0:g1] - r0
        if D is not None:
            deg = np.take(D, src, axis=0) + (1 - plan.plain[r0:r1])[:, None]
            np.minimum.reduceat(deg, at, axis=0, out=outD[g0:g1])
        if C is not None:
            cnt = np.take(C, src, axis=0)
            if D is not None:
                sizes = np.diff(plan.starts[g0:g1 + 1])
                cnt *= (deg == np.repeat(outD[g0:g1], sizes, axis=0))[..., None]
            np.add.reduceat(cnt, at, axis=0, out=outC[g0:g1])
    return outD, outC


def _reduce_lanes(lanes: np.ndarray, primes: Optional[np.ndarray], top: int,
                  fan_in: Optional[int] = None) -> int:
    """The lazy reduction rule of every sweep, called before each step.

    Reduces the prime lanes `lanes` (the lane axis last) in place modulo
    `primes` when a step that adds up to `fan_in` values could pass 2^63,
    and always at a row end (fan_in None), since readouts take residues.
    `top` bounds every prime-lane value; returns the bound after the step.
    Without prime lanes nothing is tracked: the int64 lane is never
    reduced, and an unbounded sweep would grow `top` forever.
    """
    if primes is None:
        return top
    if fan_in is None or top * fan_in >= 2**63:
        lanes %= primes
        top = int(primes.max()) - 1
    return top * (fan_in or 1)


# ------------------------------------------------------------ sweep driver

def _check_guards(kernel: str, m: int, values: int, guards: Guards) -> int:
    """`values` is the number of int64 values each state carries per start;
    returns how many starts fit two state arrays over the widest compiled
    column domain into max_memory_bytes (at least one, or GuardExceeded)."""
    bound = _domain_bound(kernel, m)
    if bound > guards.max_states:
        raise GuardExceeded(
            f"state bound {bound} for width {m} exceeds max_states="
            f"{guards.max_states}")
    rows = max(len(plan.starts) - 1 for plan in _gather_plans(kernel, m))
    estimate = 2 * rows * values * 8
    if estimate > guards.max_memory_bytes:
        raise GuardExceeded(
            f"estimated working memory {estimate} bytes exceeds "
            f"max_memory_bytes={guards.max_memory_bytes}")
    return guards.max_memory_bytes // estimate


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


def _plan_lanes(kernel: str, m: int, cells: int, mode: str,
                modulus: Optional[int], guards: Guards,
                ) -> tuple[Optional[np.ndarray], int]:
    """Residue moduli, one per lane, and how many starts one sweep carries.

    An exact sweep carries the int64 lane first, modulus 0: it is never
    reduced, and since NumPy's integer arithmetic wraps, it holds every
    value modulo 2^64.  It is the only lane up to _POLY_INT64_CELLS cells
    for polynomials and _COUNT_INT64_CELLS for counts; past that, prime
    lanes from :func:`_lane_primes` cover the rest of 2^(cells+1), which
    bounds every value.  `modulus` gives one lane of that prime; min-plus
    sweeps carry no moduli (None).  A step adds up to fan-in residues and a
    readout block at least two, so a prime P is admissible while
    max(fan-in, 2)*(P-1) < 2^63.  A poly sweep carries one start: its step
    is memory-bound, so batched starts run slower.
    """
    int64_cells = _POLY_INT64_CELLS if mode == "poly" else _COUNT_INT64_CELLS
    if mode == "minplus":
        moduli = ()
    elif modulus is not None:
        moduli = (modulus,)
    elif cells <= int64_cells:
        moduli = (0,)
    else:
        moduli = (0, *_lane_primes(cells + 1 - 64))
    lanes = max(len(moduli), 1)
    if mode == "poly":
        _check_guards(kernel, m, lanes * (cells + 2), guards)
        block = 1
    else:
        block = _check_guards(kernel, m, (mode != "count") +
                              (mode != "minplus") * lanes, guards)
    if not moduli:
        return None, block
    fan_in = max(2, *(plan.fan_in for plan in _gather_plans(kernel, m)))
    limit = (2**63 - 1) // fan_in + 1
    if max(moduli) > limit:
        raise ValueError(
            f"modulus {max(moduli)} is too large: a {kernel} sweep of width "
            f"{m} adds up to {fan_in} residues, so moduli up to {limit} are "
            f"admissible")
    return np.array(moduli, dtype=np.int64), block


def _sweep(kernel: str, m: int, n: Optional[int], mode: str,
           starts: np.ndarray, moduli: Optional[np.ndarray]) -> Iterator[tuple]:
    """The row loop of every mode: run n rows (unbounded for None) from one
    indicator per full-row state in `starts`, yielding (min degrees, values)
    after each row; a part the mode does not carry is None.

    Min degrees are (states + 1, starts).  Values keep the lane axis last:
    counts (states + 1, starts, lanes) and poly coefficients (states + 1,
    starts, degrees, lanes), a poly sweep carrying one start.  Lanes are
    int64, one per modulus, and prime lanes follow :func:`_reduce_lanes`;
    counts without moduli are one float64 lane, which the caller may
    rescale in place between rows.
    """
    size = len(_start_codes(kernel, m))
    cols = np.arange(len(starts))
    lanes = 1 if moduli is None else len(moduli)
    D = C = None
    if mode in ("minplus", "mincount"):
        D = np.full((size + 1, len(starts)), _INF, dtype=np.int64)
        D[starts, cols] = 0
    if mode in ("count", "mincount"):
        C = np.zeros((size + 1, len(starts), lanes),
                     dtype=np.float64 if moduli is None else np.int64)
        C[starts, cols] = 1
    if mode == "poly":
        (start,) = starts
        C = np.zeros((size + 1, 2, lanes), dtype=np.int64)
        C[start, 1] = 1
    plans = _gather_plans(kernel, m)
    steps = _poly_layers(kernel, m) if mode == "poly" else plans
    wrap, primes = prime_lanes(moduli)
    top = 1  # bounds every prime-lane value
    for _ in itertools.count() if n is None else range(n):
        for plan, step in zip(plans, steps):
            if C is not None:
                top = _reduce_lanes(C[..., wrap:], primes, top, plan.fan_in)
            if mode == "poly":
                C = _step_poly(C, step)
            else:
                D, C = _step(D, C, step)
        if C is not None:
            top = _reduce_lanes(C[..., wrap:], primes, top)
        yield D, (C[:, None, 1:] if mode == "poly" else C)


def _block_rows(kernel: str, m: int, n: int, mode: str,
                moduli: Optional[np.ndarray], starts: np.ndarray,
                rows: np.ndarray, cols: np.ndarray) -> Iterator[tuple]:
    """Sweep one block of starts, yielding the picked (min degrees, values)
    after each row: degrees (picks,), values counts (picks, lanes) or poly
    coefficients (picks, degrees, lanes); a part the mode does not carry is
    None.  Pick k is state rows[k] of start cols[k]."""
    for D, C in _sweep(kernel, m, n, mode, starts, moduli):
        yield (None if D is None else D[rows, cols],
               None if C is None else C[rows, cols])


def _joined(parts: list) -> list[tuple]:
    """Per row, the picks of several block runs joined in order."""
    return [tuple(None if part[0] is None else np.concatenate(part)
                  for part in zip(*row)) for row in zip(*parts)]


def _run_blocks(job) -> list[tuple]:
    """One chunk of blocks, run in turn: the unit of work of a pool worker."""
    kernel, m, n, mode, moduli, blocks = job
    return _joined([list(_block_rows(kernel, m, n, mode, moduli, *block))
                    for block in blocks])


def _aggregate(mode: str, deg: Optional[np.ndarray], vals: Optional[np.ndarray],
               moduli: Optional[np.ndarray]):
    """Coefficients, total, minimum degree, or (minimum degree, its count)
    over picked entries, shaped as :func:`_block_rows` yields them."""
    if mode == "poly":
        return lane_values(lane_sum(vals, moduli), moduli)
    if mode == "minplus":
        return int(deg.min())
    if mode == "mincount":
        g = int(deg.min())
        vals = vals[deg == g]
    total = lane_values(lane_sum(vals[:, None], moduli), moduli)[0]
    return total if mode == "count" else (g, total)


def _series(family: str, m: int, n: int, mode: str, guards: Guards,
            modulus: Optional[int] = None, workers: int = 1,
            progress: Optional[Callable[[int, int], None]] = None) -> Iterator:
    """Per-row readouts for n = 1..n: coefficient lists in poly mode, else
    what :func:`_aggregate` returns.

    Open boards start from the all-covered row and read every state without
    an uncovered cell.  The torus runs one start per dihedral orbit
    representative and reads each start's diagonal entry once per orbit
    member: rotating or reflecting a start signature permutes rows and
    columns of the transfer operator alike, so diagonal entries are constant
    on orbits.  Count, minplus and mincount sweep every start as a column of
    one sweep, split into blocks only when the memory guard requires it; a
    poly block is one start.  With several blocks and workers > 1, each of
    up to `workers` processes runs one chunk of blocks.
    """
    kernel = _kernel_for(family)
    if family == "torus":
        orbits = dihedral_orbits(m)
        starts = np.array([_start_index(kernel, m, code) for code, _ in orbits])
        pick_cols = np.repeat(np.arange(len(orbits)), [w for _, w in orbits])
        pick_rows = starts[pick_cols]
    else:
        starts = np.array([_start_index(kernel, m, all_covered(m).code)])
        pick_rows = np.flatnonzero(_no_uncovered_mask(kernel, m))
        pick_cols = np.zeros_like(pick_rows)
    moduli, block = _plan_lanes(kernel, m, m * n, mode, modulus, guards)
    blocks = []
    for b0 in range(0, len(starts), block):
        here = (pick_cols >= b0) & (pick_cols < b0 + block)
        blocks.append((starts[b0:b0 + block], pick_rows[here], pick_cols[here] - b0))
    if len(blocks) == 1:
        picked = _block_rows(kernel, m, n, mode, moduli, *blocks[0])
    else:
        chunks = min(max(workers, 1), len(blocks))
        jobs = [(kernel, m, n, mode, moduli, blocks[i::chunks])
                for i in range(chunks)]
        if chunks > 1:
            # imported here: it loads multiprocessing, which serial runs skip
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=chunks) as pool:
                picked = _joined(list(pool.map(_run_blocks, jobs)))
        else:
            picked = _run_blocks(jobs[0])
    for r, (deg, vals) in enumerate(picked, 1):
        if progress is not None:
            progress(r, n)
        yield _aggregate(mode, deg, vals, moduli)


def _start_index(kernel: str, m: int, code: int) -> int:
    dom = _start_codes(kernel, m)
    full = 1 + 3 * code if kernel == "king" else code
    i = int(np.searchsorted(dom, full))
    if i == len(dom) or dom[i] != full:
        raise ValueError(f"code {code} is not a valid start state")
    return i


# ------------------------------------------------------------- public API

def run_sweep(spec: GraphSpec, start_signature: Signature,
              rows: Optional[int] = None, ring: Ring = EXACT,
              guards: Guards = DEFAULT_GUARDS) -> dict[int, Polynomial]:
    """Propagate an indicator at `start_signature` through `rows` rows.

    Returns the full configuration map {signature code: polynomial}, one
    entry per reachable full-row state with a nonzero polynomial, in
    ascending code order.  Torus uses the trace loop instead; see
    :func:`torus_polynomial`.
    """
    if spec.family == "torus":
        raise ValueError("run_sweep has open-ended row semantics; "
                         "use torus_polynomial for the torus")
    if rows is None:
        rows = spec.n
    if start_signature.width != spec.m:
        raise ValueError("start signature width does not match the spec")
    cyclic = spec.family == "cylinder"
    if not is_valid(start_signature, cyclic=cyclic):
        raise ValueError(f"start signature {start_signature} is not "
                         f"{'cyclic-' if cyclic else ''}valid")
    kernel = _kernel_for(spec.family)
    idx = _start_index(kernel, spec.m, start_signature.code)
    moduli, _ = _plan_lanes(kernel, spec.m, spec.m * rows, "poly",
                            ring.modulus, guards)
    for _, V in _sweep(kernel, spec.m, rows, "poly", np.array([idx]), moduli):
        pass
    V = V[:-1, 0]  # drop the filler row; (states, degrees, lanes)
    flat = lane_values(V.reshape(-1, V.shape[2]), moduli)
    k = V.shape[1]
    states = [flat[i:i + k] for i in range(0, len(flat), k)]
    result: dict[int, Polynomial] = {}
    for code, coeffs in zip(_start_codes(kernel, spec.m), states):
        if any(coeffs):
            sig_code = int(code) // 3 if kernel == "king" else int(code)
            result[sig_code] = Polynomial.from_coefficients(coeffs, ring).trimmed()
    return result


def polynomial_series(family: str, m: int, n_max: int, ring: Ring = EXACT,
                      guards: Guards = DEFAULT_GUARDS,
                      progress: Optional[Callable[[int, int], None]] = None,
                      workers: int = 1) -> list[Polynomial]:
    """Domination polynomials of family m x n for every n = 1..n_max; the
    torus start orbits run on up to `workers` processes."""
    return [Polynomial.from_coefficients(coeffs, ring).trimmed()
            for coeffs in _series(family, m, n_max, "poly", guards,
                                  ring.modulus, workers, progress)]


def _oriented(spec: GraphSpec) -> GraphSpec:
    """Put the cheap dimension on the signature axis when that is exact.

    Grid, king, and torus are transpose symmetric, and sweep cost is
    exponential in the width, so wide-short instances run as their
    transposes.  The cylinder wraps one specific dimension and usually
    stays put, but for one or two rows the open direction contributes no
    edge difference (P1 = C1, and P2 = C2 once the wrap edge is deduped),
    so those instances are the matching torus and transpose freely.
    """
    if spec.family == "cylinder":
        if spec.n > 2:
            return spec
        spec = GraphSpec("torus", spec.m, spec.n)
    if spec.m > spec.n:
        return GraphSpec(spec.family, spec.n, spec.m)
    return spec


def domination_polynomial(spec: GraphSpec, ring: Ring = EXACT,
                          guards: Guards = DEFAULT_GUARDS,
                          workers: int = 1,
                          progress: Optional[Callable[[int, int], None]] = None,
                          ) -> Polynomial:
    """The domination polynomial D(z) of one lattice instance."""
    spec = _oriented(spec)
    return polynomial_series(spec.family, spec.m, spec.n, ring=ring,
                             guards=guards, progress=progress,
                             workers=workers)[-1]


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

    A power iteration of the count step: after each row the state vector
    is divided by its readout, so the readout is the ratio itself and no
    value outgrows it.  Every term is nonnegative, so nothing cancels and
    the relative rounding error stays near float64's own.
    """
    if family == "torus":
        raise ValueError("torus ratios equal the cylinder's; use the cylinder")
    kernel = _kernel_for(family)
    _check_guards(kernel, m, 1, guards)
    mask = np.append(_no_uncovered_mask(kernel, m), False)  # not the filler row
    start = np.array([_start_index(kernel, m, all_covered(m).code)])
    for _, C in _sweep(kernel, m, None, "count", start, None):
        ratio = C[mask].sum()
        C /= ratio
        yield float(ratio)


def gamma_series(family: str, m: int, n_max: int,
                 guards: Guards = DEFAULT_GUARDS) -> list[int]:
    """Domination numbers of family m x n for n = 1..n_max."""
    return list(_series(family, m, n_max, "minplus", guards))


def mincount_series(family: str, m: int, n_max: int,
                    guards: Guards = DEFAULT_GUARDS) -> list[tuple[int, int]]:
    """(gamma, number of minimum dominating sets) for n = 1..n_max."""
    return list(_series(family, m, n_max, "mincount", guards))


def count_dominating(spec: GraphSpec, guards: Guards = DEFAULT_GUARDS) -> int:
    """Number of dominating sets (the polynomial evaluated at 1)."""
    spec = _oriented(spec)
    return count_series(spec.family, spec.m, spec.n, guards=guards)[-1]


# ------------------------------------------------------------------ torus

def torus_polynomial(m: int, n: int, ring: Ring = EXACT,
                     guards: Guards = DEFAULT_GUARDS, workers: int = 1,
                     ) -> Polynomial:
    """Domination polynomial of the m x n torus (trace over cyclic starts)."""
    return domination_polynomial(GraphSpec("torus", m, n), ring=ring,
                                 guards=guards, workers=workers)


# ---------------------------------------------------------------- multi-mod

def _mod_poly_worker(args):
    family, m, n, p, max_states, max_memory = args
    guards = Guards(max_states, max_memory)
    spec = GraphSpec(family, m, n)
    poly = domination_polynomial(spec, ring=Ring(p), guards=guards)
    return p, poly.coefficients


def crt_domination_polynomial(spec: GraphSpec, b: int = 16, workers: int = 1,
                              guards: Guards = DEFAULT_GUARDS):
    """Exact polynomial via independent mod-p sweeps plus reconstruction.

    Returns (polynomial, modulus set).  The prime product covers
    2^(cells+1): coefficients are at most C(cells, k) < 2^cells, so one bit
    of slack suffices.
    """
    moduli = select_moduli(spec.cells + 1, b)
    jobs = [(spec.family, spec.m, spec.n, p, guards.max_states,
             guards.max_memory_bytes) for p in moduli.primes]
    if workers > 1 and len(jobs) > 1:
        # imported here: it loads multiprocessing, which serial runs skip
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_mod_poly_worker, jobs))
    else:
        results = [_mod_poly_worker(job) for job in jobs]
    cap = spec.cells + 1
    residues = []
    for p, coeffs in results:
        vec = list(coeffs) + [0] * (cap - len(coeffs))
        residues.append((p, vec))
    return crt_reconstruct(residues).trimmed(), moduli
