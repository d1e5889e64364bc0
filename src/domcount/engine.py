"""Row-by-row sweep engine for domination polynomials on lattice strips.

The sweep fills the lattice one vertex at a time, maintaining a map from
frontier state to an accumulated value (a polynomial, a count, or a minimum).
Rather than branching per state in Python, the per-column transitions are
compiled once per (kernel, width) into integer tables: arrays of source state
codes, destination indices for the unoccupied and occupied moves, with
illegal unoccupied moves dropped.  A column step is then a couple of
gather/reduce/scatter operations on the whole state vector at once.

Evaluation modes:

* ``poly``: coefficient vectors per state (full domination polynomial);
* ``count``: value at z=1 only (total number of dominating sets);
* ``minplus``: lowest attainable degree per state (domination number);
* ``mincount``: lowest degree and the number of sets attaining it.

The poly step is one grouped gather per column with the occupied move read
one degree shifted, over the live degrees only.  Its values are int64
lanes: one unreduced lane while every count provably fits, otherwise one
lane per residue modulus -- the ``--mod`` prime, or for exact results
primes below 2^59 recombined by the Chinese remainder theorem.  Count mode
switches to Python integers past 62 cells.  The torus is handled by the
cylinder kernel plus an outer loop over start signatures, summing diagonal
entries.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from .checkpoints import write_row_checkpoint
from .errors import GuardExceeded
from .rings import (EXACT, Polynomial, Ring, covering_primes, crt_reconstruct,
                    lane_sum, lane_values, select_moduli)
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

# Exact int64 is safe as long as every intermediate stays below 2^63.  Each
# (state, degree) cell counts distinct vertex subsets with that many occupied
# cells, so it is bounded by C(cells, k); C(66, 33) < 2^63 < C(67, 33).  In
# count mode a cell is bounded by 2^cells, and the final readout sums to the
# total over all states, so 62 cells is the limit there.
_POLY_INT64_CELLS = 66
_COUNT_INT64_CELLS = 62

_LANE_PRIME_BITS = 59      # exact-run residue primes lie below 2^59
_GATHER_BYTES = 256 << 10  # gather chunk size of the poly step

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


def _start_codes(kernel: str, m: int) -> np.ndarray:
    """Full-row state codes: the domain at column 1 of every row."""
    if kernel == "king":
        # window = virtual Covered boundary cell + the row itself
        return signature_codes(m) * 3 + 1
    return signature_codes(m, cyclic=(kernel == "cylinder"))


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
class _ColumnTable:
    src_dom: np.ndarray    # sorted state codes entering this column
    dst_dom: np.ndarray    # sorted state codes after it
    plain_src: np.ndarray  # indices into src_dom with a legal unoccupied move
    plain_dst: np.ndarray  # their destination indices into dst_dom
    occ_dst: np.ndarray    # destination index of the occupied move, per source


@lru_cache(maxsize=64)
def _compiled_tables(kernel: str, m: int) -> tuple[_ColumnTable, ...]:
    dom = _start_codes(kernel, m)
    start = dom
    tables = []
    for c in range(1, m + 1):
        valid, plain_dst, occ_dst = _column_images(kernel, m, c, dom)
        pd = plain_dst[valid]
        if c == m:
            nxt = start
            pi = np.searchsorted(nxt, pd)
            oi = np.searchsorted(nxt, occ_dst)
            # completed rows always form valid full-row signatures
            assert len(pd) == 0 or ((pi < len(nxt)) & (nxt[pi.clip(max=len(nxt) - 1)] == pd)).all()
            assert ((oi < len(nxt)) & (nxt[oi.clip(max=len(nxt) - 1)] == occ_dst)).all()
        else:
            nxt = np.unique(np.concatenate([pd, occ_dst]))
            pi = np.searchsorted(nxt, pd)
            oi = np.searchsorted(nxt, occ_dst)
        tables.append(_ColumnTable(dom, nxt, np.flatnonzero(valid), pi, oi))
        dom = nxt
    return tuple(tables)


@dataclass(frozen=True)
class _PolyPlan:
    """Both moves of one column as one gather grouped by destination.  Poly
    state arrays end in an all-zero row, which has a group of its own and
    is what a destination no move reaches gathers."""

    src: np.ndarray     # source row per gathered row
    plain: np.ndarray   # 1 for the unoccupied move, 0 for the occupied one
    starts: np.ndarray  # first gathered row per destination, then the total
    fan_in: int         # most gathered rows of any one destination


@lru_cache(maxsize=64)
def _poly_plans(kernel: str, m: int) -> tuple[_PolyPlan, ...]:
    plans = []
    for t in _compiled_tables(kernel, m):
        dst = np.concatenate([t.plain_dst, t.occ_dst])
        missing = np.setdiff1d(np.arange(len(t.dst_dom) + 1), dst)
        dst = np.concatenate([dst, missing])
        src = np.concatenate([t.plain_src, np.arange(len(t.src_dom)),
                              np.full(len(missing), len(t.src_dom))])
        plain = (np.arange(len(src)) < len(t.plain_src)).astype(np.int64)
        order = np.argsort(dst, kind="stable")
        starts = np.searchsorted(dst[order], np.arange(len(t.dst_dom) + 2))
        plans.append(_PolyPlan(src[order], plain[order], starts,
                               int(np.diff(starts).max())))
    return tuple(plans)


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

def _grouped(dst: np.ndarray):
    order = np.argsort(dst, kind="stable")
    sdst = dst[order]
    starts = np.flatnonzero(np.r_[True, sdst[1:] != sdst[:-1]])
    return order, sdst[starts], starts


def _step_poly(V: np.ndarray, plan: _PolyPlan,
               moduli: Optional[np.ndarray]) -> np.ndarray:
    """One column on (lanes, states + 1, 1 + live degrees); one more out.

    Column 0 is zero, so the window starting at a row is the row shifted
    one degree up (the occupied move) and the window one element later the
    row itself (the unoccupied move), ending in the next row's zero.
    """
    lanes, rows, width = V.shape
    groups = len(plan.starts) - 1
    out = np.empty((lanes, groups, width + 1), dtype=np.int64)
    out[:, :, 0] = 0
    idx = plan.src * width + plan.plain
    chunk = max(1, _GATHER_BYTES // (8 * width))
    cuts = np.searchsorted(plan.starts, range(chunk, len(idx), chunk)).tolist()
    bounds = [0, *cuts, groups]
    for lane in range(lanes):
        windows = np.ndarray((rows * width - width + 1, width), np.int64,
                             buffer=V[lane], strides=(8, 8))
        for g0, g1 in zip(bounds[:-1], bounds[1:]):
            if g0 < g1:
                r0, r1 = plan.starts[g0], plan.starts[g1]
                np.add.reduceat(windows[idx[r0:r1]], plan.starts[g0:g1] - r0,
                                axis=0, out=out[lane, g0:g1, 1:])
    if moduli is not None:
        out %= moduli[:, None, None]
    return out


def _step_count(V: np.ndarray, t: _ColumnTable) -> np.ndarray:
    out = np.zeros(len(t.dst_dom), dtype=V.dtype)
    if len(t.plain_src):
        order, udst, starts = _grouped(t.plain_dst)
        out[udst] += np.add.reduceat(V[t.plain_src[order]], starts)
    order, udst, starts = _grouped(t.occ_dst)
    out[udst] += np.add.reduceat(V[order], starts)
    return out


def _step_minplus(V: np.ndarray, t: _ColumnTable) -> np.ndarray:
    out = np.full(len(t.dst_dom), _INF, dtype=np.int64)
    if len(t.plain_src):
        order, udst, starts = _grouped(t.plain_dst)
        mins = np.minimum.reduceat(V[t.plain_src[order]], starts)
        out[udst] = np.minimum(out[udst], mins)
    order, udst, starts = _grouped(t.occ_dst)
    mins = np.minimum.reduceat(V[order] + 1, starts)
    out[udst] = np.minimum(out[udst], mins)
    return out


def _mincount_group(vals: np.ndarray, cnts: np.ndarray, dst: np.ndarray):
    order, udst, starts = _grouped(dst)
    sv = vals[order]
    sc = cnts[order]
    gmin = np.minimum.reduceat(sv, starts)
    sizes = np.diff(np.append(starts, len(sv)))
    at_min = sv == np.repeat(gmin, sizes)
    gcnt = np.add.reduceat(np.where(at_min, sc, 0), starts)
    return udst, gmin, gcnt


def _mincount_merge(outV, outC, udst, gmin, gcnt):
    cur = outV[udst]
    take = gmin < cur
    tie = gmin == cur
    outC[udst] = np.where(take, gcnt, outC[udst] + np.where(tie, gcnt, 0))
    outV[udst] = np.minimum(cur, gmin)


def _step_mincount(V, C, t: _ColumnTable):
    outV = np.full(len(t.dst_dom), _INF, dtype=np.int64)
    outC = np.zeros(len(t.dst_dom), dtype=object)
    if len(t.plain_src):
        udst, gmin, gcnt = _mincount_group(V[t.plain_src], C[t.plain_src], t.plain_dst)
        _mincount_merge(outV, outC, udst, gmin, gcnt)
    udst, gmin, gcnt = _mincount_group(V + 1, C, t.occ_dst)
    _mincount_merge(outV, outC, udst, gmin, gcnt)
    return outV, outC


# ------------------------------------------------------------ sweep driver

def _check_guards(kernel: str, m: int, values: int, guards: Guards) -> None:
    """`values` is the number of int64 values each state carries."""
    bound = _domain_bound(kernel, m)
    if bound > guards.max_states:
        raise GuardExceeded(
            f"state bound {bound} for width {m} exceeds max_states="
            f"{guards.max_states}")
    estimate = 2 * bound * values * 8
    if estimate > guards.max_memory_bytes:
        raise GuardExceeded(
            f"estimated working memory {estimate} bytes exceeds "
            f"max_memory_bytes={guards.max_memory_bytes}")


def _sweep(kernel: str, m: int, n: Optional[int], mode: str, start_index: int,
           guards: Guards) -> Iterator[tuple]:
    """Run n rows (unbounded for None) of a one-value semiring from an
    indicator at one full-row state, yielding (row, value arrays on the
    full-row domain) per row."""
    _check_guards(kernel, m, 2 if mode == "mincount" else 1, guards)
    tables = _compiled_tables(kernel, m)
    size = len(tables[0].src_dom)
    if mode == "count":
        exact_int64 = n is not None and m * n <= _COUNT_INT64_CELLS
        V = np.zeros(size, dtype=np.int64 if exact_int64 else object)
        V[start_index] = 1
    elif mode == "minplus":
        V = np.full(size, _INF, dtype=np.int64)
        V[start_index] = 0
    elif mode == "mincount":
        V = np.full(size, _INF, dtype=np.int64)
        C = np.zeros(size, dtype=object)
        V[start_index] = 0
        C[start_index] = 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for r in itertools.count(1) if n is None else range(1, n + 1):
        for t in tables:
            if mode == "count":
                V = _step_count(V, t)
            elif mode == "minplus":
                V = _step_minplus(V, t)
            else:
                V, C = _step_mincount(V, C, t)
        yield (r, V) if mode != "mincount" else (r, (V, C))


# ------------------------------------------------------------- poly lanes

def _poly_lanes(kernel: str, m: int, cells: int, modulus: Optional[int],
                guards: Guards) -> Optional[np.ndarray]:
    """One residue modulus per lane, or None for one unreduced lane.

    Exact runs past _POLY_INT64_CELLS carry primes with a product above
    2^(cells+1).  A step adds up to fan-in residues and a readout block at
    least two, so a modulus P is admissible while max(fan-in, 2)*(P-1) < 2^63.
    """
    primes = ((modulus,) if modulus is not None else
              covering_primes(cells + 1, _LANE_PRIME_BITS)
              if cells > _POLY_INT64_CELLS else ())
    _check_guards(kernel, m, max(len(primes), 1) * (cells + 2), guards)
    if not primes:
        return None
    fan_in = max(2, *(plan.fan_in for plan in _poly_plans(kernel, m)))
    limit = (2**63 - 1) // fan_in + 1
    if max(primes) > limit:
        raise ValueError(
            f"modulus {max(primes)} is too large: a {kernel} sweep of width "
            f"{m} adds up to {fan_in} residues, so moduli up to {limit} are "
            f"admissible")
    return np.array(primes, dtype=np.int64)


def _poly_rows(kernel: str, m: int, n: int, start_index: int,
               moduli: Optional[np.ndarray],
               progress: Optional[Callable[[int, int], None]] = None,
               ) -> Iterator[tuple[int, np.ndarray]]:
    """Run n poly rows from an indicator at one full-row state, yielding
    (row, int64 view shaped (lanes, full-row states, m*row + 1))."""
    size = len(_compiled_tables(kernel, m)[0].src_dom)
    V = np.zeros((1 if moduli is None else len(moduli), size + 1, 2),
                 dtype=np.int64)
    V[:, start_index, 1] = 1
    for r in range(1, n + 1):
        for plan in _poly_plans(kernel, m):
            V = _step_poly(V, plan, moduli)
        if progress is not None:
            progress(r, n)
        yield r, V[:, :-1, 1:]


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
              guards: Guards = DEFAULT_GUARDS,
              checkpoint_dir: Optional[str] = None) -> dict[int, Polynomial]:
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
    moduli = _poly_lanes(kernel, spec.m, spec.m * rows, ring.modulus, guards)
    dom = _compiled_tables(kernel, spec.m)[0].src_dom
    for r, V in _poly_rows(kernel, spec.m, rows, idx, moduli):
        if checkpoint_dir is not None or r == rows:
            flat = lane_values(V.reshape(len(V), -1), moduli)
            k = V.shape[2]
            states = [flat[i:i + k] for i in range(0, len(flat), k)]
        if checkpoint_dir is not None:
            write_row_checkpoint(checkpoint_dir, spec, r, ring, dom, states,
                                 spec.m * rows + 1)
    result: dict[int, Polynomial] = {}
    for code, coeffs in zip(dom, states):
        if any(coeffs):
            sig_code = int(code) // 3 if kernel == "king" else int(code)
            result[sig_code] = Polynomial.from_coefficients(coeffs, ring).trimmed()
    return result


def polynomial_series(family: str, m: int, n_max: int, ring: Ring = EXACT,
                      guards: Guards = DEFAULT_GUARDS,
                      progress: Optional[Callable[[int, int], None]] = None,
                      ) -> list[Polynomial]:
    """Domination polynomials of family m x n for every n = 1..n_max."""
    if family == "torus":
        return torus_polynomial_series(m, n_max, ring=ring, guards=guards)
    kernel = _kernel_for(family)
    idx = _start_index(kernel, m, all_covered(m).code)
    mask = _no_uncovered_mask(kernel, m)
    moduli = _poly_lanes(kernel, m, m * n_max, ring.modulus, guards)
    out = []
    for _, V in _poly_rows(kernel, m, n_max, idx, moduli, progress):
        coeffs = lane_values(lane_sum(V[:, mask], moduli), moduli)
        out.append(Polynomial.from_coefficients(coeffs, ring).trimmed())
    return out


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
    if spec.family == "torus":
        return torus_polynomial(spec.m, spec.n, ring=ring, guards=guards,
                                workers=workers)
    return polynomial_series(spec.family, spec.m, spec.n, ring=ring,
                             guards=guards, progress=progress)[-1]


def count_series(family: str, m: int, n_max: int,
                 guards: Guards = DEFAULT_GUARDS) -> list[int]:
    """Total number of dominating sets of m x n for n = 1..n_max (exact)."""
    if family == "torus":
        return [sum(c for _, c in row.items()) for row in
                _torus_series(m, n_max, "count", None, guards, 1, True)]
    kernel = _kernel_for(family)
    idx = _start_index(kernel, m, all_covered(m).code)
    mask = _no_uncovered_mask(kernel, m)
    return [int(V[mask].sum())
            for _, V in _sweep(kernel, m, n_max, "count", idx, guards)]


def iter_counts(family: str, m: int,
                guards: Guards = DEFAULT_GUARDS) -> Iterator[int]:
    """Stream exact totals for n = 1, 2, 3, ... (non-torus families)."""
    if family == "torus":
        raise ValueError("torus totals equal per-n trace sums; use count_series")
    kernel = _kernel_for(family)
    idx = _start_index(kernel, m, all_covered(m).code)
    mask = _no_uncovered_mask(kernel, m)
    for _, V in _sweep(kernel, m, None, "count", idx, guards):
        yield int(V[mask].sum())


def gamma_series(family: str, m: int, n_max: int,
                 guards: Guards = DEFAULT_GUARDS) -> list[int]:
    """Domination numbers of family m x n for n = 1..n_max."""
    if family == "torus":
        out = []
        for row in _torus_series(m, n_max, "minplus", None, guards, 1, True):
            out.append(min(v for _, v in row.items()))
        return out
    kernel = _kernel_for(family)
    idx = _start_index(kernel, m, all_covered(m).code)
    mask = _no_uncovered_mask(kernel, m)
    return [int(V[mask].min())
            for _, V in _sweep(kernel, m, n_max, "minplus", idx, guards)]


def mincount_series(family: str, m: int, n_max: int,
                    guards: Guards = DEFAULT_GUARDS) -> list[tuple[int, int]]:
    """(gamma, number of minimum dominating sets) for n = 1..n_max."""
    if family == "torus":
        out = []
        for row in _torus_series(m, n_max, "mincount", None, guards, 1, True):
            g = min(v for (v, _) in row.values())
            cnt = sum(c for (v, c) in row.values() if v == g)
            out.append((g, int(cnt)))
        return out
    kernel = _kernel_for(family)
    idx = _start_index(kernel, m, all_covered(m).code)
    mask = _no_uncovered_mask(kernel, m)
    out = []
    for _, (V, C) in _sweep(kernel, m, n_max, "mincount", idx, guards):
        vm = V[mask]
        g = int(vm.min())
        out.append((g, int(C[mask][vm == g].sum())))
    return out


def count_dominating(spec: GraphSpec, guards: Guards = DEFAULT_GUARDS) -> int:
    """Number of dominating sets (the polynomial evaluated at 1)."""
    spec = _oriented(spec)
    return count_series(spec.family, spec.m, spec.n, guards=guards)[-1]


# ------------------------------------------------------------------ torus

def _torus_series(m: int, n_max: int, mode: str, moduli: Optional[np.ndarray],
                  guards: Guards, workers: int,
                  orbit_grouping: bool) -> list[dict[int, object]]:
    """Per-start diagonal readouts for every n = 1..n_max.

    Returns, for each n, a map {start code: aggregate}.  The aggregate is an
    int (count), a min degree (minplus), or a (min, count) pair (mincount),
    already multiplied by the orbit size when grouping is on; for poly it is
    the diagonal's lanes once per orbit member, (lanes, orbit size, degrees).
    Rotating or reflecting a start signature permutes rows and columns of
    the transfer operator identically, so diagonal entries are constant on
    orbits and one representative per orbit suffices.
    """
    if orbit_grouping:
        starts = dihedral_orbits(m)
    else:
        starts = [(int(c), 1) for c in signature_codes(m, cyclic=True)]
    if workers > 1 and len(starts) > 1:
        chunks = [starts[i::workers] for i in range(workers)]
        args = [(m, n_max, mode, moduli, chunk,
                 guards.max_states, guards.max_memory_bytes)
                for chunk in chunks if chunk]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_torus_chunk_worker, args))
        rows: list[dict[int, object]] = [dict() for _ in range(n_max)]
        for partial in partials:
            for r in range(n_max):
                rows[r].update(partial[r])
        return [dict(sorted(row.items())) for row in rows]
    return _torus_chunk_worker((m, n_max, mode, moduli, starts,
                                guards.max_states, guards.max_memory_bytes))


def _torus_single(m, n_max, mode, moduli, code, weight, guards):
    idx = _start_index("cylinder", m, code)
    if mode == "poly":
        for r, V in _poly_rows("cylinder", m, n_max, idx, moduli):
            yield r, np.repeat(V[:, idx:idx + 1], weight, axis=1)
        return
    for r, val in _sweep("cylinder", m, n_max, mode, idx, guards):
        if mode == "count":
            yield r, int(val[idx]) * weight
        elif mode == "minplus":
            yield r, int(val[idx])
        else:
            V, C = val
            yield r, (int(V[idx]), C[idx] * weight)


def _torus_chunk_worker(args):
    m, n_max, mode, moduli, chunk, max_states, max_memory = args
    guards = Guards(max_states, max_memory)
    rows: list[dict[int, object]] = [dict() for _ in range(n_max)]
    for code, weight in chunk:
        for r, agg in _torus_single(m, n_max, mode, moduli, code, weight,
                                    guards):
            rows[r - 1][code] = agg
    return rows


def torus_polynomial_series(m: int, n_max: int, ring: Ring = EXACT,
                            guards: Guards = DEFAULT_GUARDS, workers: int = 1,
                            orbit_grouping: bool = True) -> list[Polynomial]:
    """Torus domination polynomials for every n = 1..n_max."""
    moduli = _poly_lanes("cylinder", m, m * n_max, ring.modulus, guards)
    rows = _torus_series(m, n_max, "poly", moduli, guards, workers,
                         orbit_grouping)
    out = []
    for row in rows:
        acc = lane_sum(np.concatenate(list(row.values()), axis=1), moduli)
        out.append(Polynomial.from_coefficients(
            lane_values(acc, moduli), ring).trimmed())
    return out


def torus_polynomial(m: int, n: int, ring: Ring = EXACT,
                     guards: Guards = DEFAULT_GUARDS, workers: int = 1,
                     orbit_grouping: bool = True) -> Polynomial:
    """Domination polynomial of the m x n torus (trace over cyclic starts)."""
    if m > n:
        m, n = n, m  # transpose symmetry; the trace loop scales with m
    return torus_polynomial_series(m, n, ring=ring, guards=guards,
                                   workers=workers,
                                   orbit_grouping=orbit_grouping)[-1]


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
