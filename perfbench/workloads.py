"""The benchmark's workloads: lists of domcount CLI invocations, each with
the check its output must pass.

Every workload runs all six command kinds, so each per-kind time is
measured everywhere; a workload's own theme gets the heavy operations and
the other kinds one light operation each.  The seed picks the 31-bit prime
of the ``--mod`` operations; everything else is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from checks import Checker

KINDS = ("poly_exact", "poly_mod", "count", "gamma", "ngamma", "growth")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def seeded_prime(seed: int, bits: int) -> int:
    """A prime of exactly `bits` bits, picked by `seed`."""
    rng = random.Random(seed)
    lo = 1 << (bits - 1)
    p = rng.randrange(lo, 2 * lo) | 1
    while not is_prime(p):
        p = p + 2 if p + 2 < 2 * lo else lo + 1
    return p


def largest_prime_below(limit: int) -> int:
    p = limit - 1
    while not is_prime(p):
        p -= 1
    return p


# The 57-bit prime of the known-faulty operation.  It is fixed rather than
# seeded so that the operation fails on every run: polynomial_series sums
# the readout in int64 before reducing mod P, which overflows at this size.
P57 = largest_prime_below(1 << 57)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple[str, ...]
    check: Callable[[str], int]
    widths: tuple[tuple[str, int], ...]  # (kernel family, width) it sweeps
    known_fault: Optional[str] = None    # why this op is expected to fail

    @property
    def label(self) -> str:
        return " ".join(self.args)


def _sweep_width(family: str, m: int, n: int) -> tuple[str, int]:
    # the engine runs grid, king and torus along the narrower side
    return family, (min(m, n) if family != "cylinder" else m)


def _range(lo: int, hi: int) -> str:
    return f"{lo}:{hi}" if lo != hi else str(lo)


class _Builder:
    def __init__(self, checker: Checker):
        self.checker = checker

    def poly(self, family, m, n, modulus=None, known_fault=None) -> Op:
        args = ["poly", "--family", family, "-m", str(m), "-n", str(n),
                "--format", "json"]
        if modulus is not None:
            args += ["--mod", str(modulus)]
        return Op("poly_mod" if modulus else "poly_exact", tuple(args),
                  partial(self.checker.poly, family=family, m=m, n=n,
                          modulus=modulus),
                  (_sweep_width(family, m, n),), known_fault)

    def count(self, family, m, n) -> Op:
        return Op("count", ("count", "--family", family, "-m", str(m), "-n", str(n)),
                  partial(self.checker.count, family=family, m=m, n=n),
                  (_sweep_width(family, m, n),))

    def table(self, kind, family, ms, ns) -> Op:
        return Op(kind, ("table", kind, "--family", family,
                         "--m-range", _range(*ms), "--n-range", _range(*ns)),
                  partial(self.checker.table, kind=kind, family=family,
                          m_range=ms, n_range=ns),
                  tuple((family, m) for m in range(ms[0], ms[1] + 1)))

    def growth(self, family, ms) -> Op:
        args = ("growth", "--family", family, "--m-range", _range(*ms))
        return Op("growth", args,
                  partial(self.checker.growth, family=family, m_range=ms),
                  tuple((family, m) for m in range(ms[0], ms[1] + 1)))


def build(name: str, seed: int, checker: Checker) -> list[Op]:
    """The operations of one round of workload `name`."""
    b = _Builder(checker)
    p31 = seeded_prime(seed, 31)
    if name == "open-poly":
        # Many-lane poly sweeps on boards without wraparound.  Cylinder 8x9
        # (72 cells) runs on the object-dtype path, king 8x8 on the int64 one.
        return [
            b.poly("cylinder", 8, 9),
            b.poly("king", 8, 8),
            b.poly("grid", 9, 9, modulus=p31),
            b.poly("grid", 9, 9, modulus=P57,
                   known_fault="int64 readout overflow for a 57-bit modulus"),
            b.count("grid", 10, 10),
            b.table("gamma", "king", (1, 9), (1, 9)),
            b.table("ngamma", "king", (1, 8), (1, 8)),
            b.growth("grid", (3, 11)),
        ]
    if name == "torus":
        # The dihedral-orbit trace over cylinder sweeps: 34/56 start
        # orbits at widths 6/7, one sweep each.
        return [
            b.poly("torus", 7, 7),
            b.poly("torus", 6, 6, modulus=p31),
            b.count("torus", 7, 7),
            b.table("ngamma", "torus", (7, 7), (7, 7)),
            b.table("gamma", "torus", (5, 7), (5, 10)),
            b.growth("grid", (3, 11)),
        ]
    if name == "semiring-tables":
        # One-lane semirings (count, min-plus, mincount) on open boards
        # plus the growth pipeline: the same sweep as open-poly with one
        # lane instead of m*n+1.
        return [
            b.count("grid", 11, 11),
            b.table("gamma", "cylinder", (1, 11), (1, 24)),
            b.table("ngamma", "grid", (1, 10), (1, 10)),
            b.table("ngamma", "king", (1, 10), (1, 12)),
            b.growth("grid", (3, 11)),
            b.poly("grid", 8, 8),
            b.poly("grid", 8, 8, modulus=p31),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("open-poly", "torus", "semiring-tables")
