"""Ternary frontier states for domination counting on lattice strips.

A row of an m-column lattice is summarized by a *signature*: one cell state
per column, each Uncovered, Covered, or Occupied.  Signatures are stored as
little-endian base-3 integers (cell i contributes digit * 3**i, counting from
the left), which keeps them machine-word sized up to width 40 and gives a
canonical sort order.  Validity forbids an Uncovered cell directly next to an
Occupied one; the cyclic variant also applies that rule across the wrap from
the last column back to the first.

This module also carries the counting formulas for signatures: the Pell-style
recurrence for plain signatures, the cyclic recurrence, the kinked variant
used for partially filled rows, the reflection-reduced count, and the count
of cyclic signatures up to rotation and reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

MAX_WIDTH = 40  # 3**40 < 2**64: codes stay representable in a machine word


class CellState(IntEnum):
    """State of one column in a row signature; values are the base-3 digits."""

    UNCOVERED = 0
    COVERED = 1
    OCCUPIED = 2


_STATE_TO_CHAR = {CellState.UNCOVERED: "o", CellState.COVERED: "c", CellState.OCCUPIED: "x"}
_CHAR_TO_STATE = {v: k for k, v in _STATE_TO_CHAR.items()}


def _check_width(width: int) -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


def encode(cells: Sequence[CellState]) -> int:
    """Pack cell states into the little-endian base-3 integer code."""
    _check_width(len(cells))
    code = 0
    for i, cell in enumerate(cells):
        code += int(cell) * 3**i
    return code


def decode(code: int, width: int) -> tuple[CellState, ...]:
    """Unpack a code into its cell states (inverse of :func:`encode`)."""
    _check_width(width)
    if not 0 <= code < 3**width:
        raise ValueError(f"code {code} out of range for width {width}")
    cells = []
    for _ in range(width):
        cells.append(CellState(code % 3))
        code //= 3
    return tuple(cells)


@dataclass(frozen=True)
class Signature:
    """A row signature: width plus its integer code; cells are derived."""

    width: int
    code: int

    def __post_init__(self) -> None:
        _check_width(self.width)
        if not 0 <= self.code < 3**self.width:
            raise ValueError(f"code {self.code} out of range for width {self.width}")

    @classmethod
    def from_cells(cls, cells: Sequence[CellState]) -> "Signature":
        return cls(len(cells), encode(cells))

    @classmethod
    def from_text(cls, text: str) -> "Signature":
        """Parse the textual form: one of 'o', 'c', 'x' per column."""
        try:
            cells = [_CHAR_TO_STATE[ch] for ch in text]
        except KeyError as exc:
            raise ValueError(f"bad signature character {exc.args[0]!r}") from None
        return cls.from_cells(cells)

    @property
    def cells(self) -> tuple[CellState, ...]:
        return decode(self.code, self.width)

    def to_text(self) -> str:
        return "".join(_STATE_TO_CHAR[c] for c in self.cells)

    def __str__(self) -> str:
        return self.to_text()


def all_covered(width: int) -> Signature:
    """The start-of-sweep signature with every column Covered."""
    return Signature(width, (3**width - 1) // 2)


_FORBIDDEN = {(CellState.UNCOVERED, CellState.OCCUPIED),
              (CellState.OCCUPIED, CellState.UNCOVERED)}


def is_valid(sig: Signature, cyclic: bool = False, kink: Optional[int] = None) -> bool:
    """Check the no-(Uncovered,Occupied)-adjacency rule.

    With ``kink=c`` (1-indexed) the rule is suspended between positions c-1
    and c: those two cells belong to different rows of the lattice and are not
    actually adjacent.  ``kink=1`` suspends nothing and equals plain validity.
    """
    cells = sig.cells
    m = sig.width
    if kink is not None and not 1 <= kink <= m:
        raise ValueError(f"kink column must be in 1..{m}")
    for i in range(m - 1):
        if kink is not None and i == kink - 2:
            continue
        if (cells[i], cells[i + 1]) in _FORBIDDEN:
            return False
    if cyclic and m >= 2:
        if (cells[m - 1], cells[0]) in _FORBIDDEN:
            return False
    return True


def signature_codes(m: int, cyclic: bool = False) -> np.ndarray:
    """All valid signature codes of width m, ascending, as an int64 array."""
    _check_width(m)
    codes = np.arange(3, dtype=np.int64)  # single-cell codes 0, 1, 2
    last = codes.copy()                   # digit of the most recent cell
    for i in range(1, m):
        parts = []
        last_parts = []
        place = 3**i
        for d in range(3):
            if d == 0:
                keep = last != 2
            elif d == 2:
                keep = last != 0
            else:
                keep = np.ones(len(codes), dtype=bool)
            parts.append(codes[keep] + d * place)
            last_parts.append(np.full(int(keep.sum()), d, dtype=np.int64))
        codes = np.concatenate(parts)
        last = np.concatenate(last_parts)
    # blocks were emitted in increasing most-significant digit, so the
    # concatenation is already sorted
    if cyclic and m >= 2:
        first = codes % 3
        bad = ((first == 0) & (last == 2)) | ((first == 2) & (last == 0))
        codes = codes[~bad]
    return codes


def enumerate_signatures(m: int, cyclic: bool = False) -> list[Signature]:
    """The valid signatures of width m in ascending code order."""
    return [Signature(m, int(c)) for c in signature_codes(m, cyclic)]


@lru_cache(maxsize=None)
def _plain_counts(limit: int) -> tuple[int, ...]:
    # a(m) = 2 a(m-1) + a(m-2), a(0) = 1, a(1) = 3
    vals = [1, 3]
    while len(vals) <= limit:
        vals.append(2 * vals[-1] + vals[-2])
    return tuple(vals)


@lru_cache(maxsize=None)
def _cyclic_counts(limit: int) -> tuple[int, ...]:
    # abar(m) = 3 abar(m-1) - abar(m-2) - abar(m-3), abar(0)=3, abar(1)=3, abar(2)=7
    vals = [3, 3, 7]
    while len(vals) <= limit:
        vals.append(3 * vals[-1] - vals[-2] - vals[-3])
    return tuple(vals)


def count_signatures(m: int, variant: str = "plain", c: Optional[int] = None) -> int:
    """Count signatures of width m by integer recurrence.

    variant: "plain", "cyclic", "kinked" (requires the kink column c),
    "reflection_reduced" (signatures up to mirror image), or "dihedral"
    (cyclic signatures up to rotation and reflection).
    """
    if m < 0:
        raise ValueError("width must be nonnegative")
    if variant == "plain":
        return _plain_counts(m)[m]
    if variant == "cyclic":
        return _cyclic_counts(m)[m]
    if variant == "kinked":
        if c is None or not 1 <= c <= max(m, 1):
            raise ValueError("kinked variant needs a column c in 1..m")
        # same Pell recurrence, except the step that crosses the kink loses
        # the adjacency constraint and all three states are allowed
        prev2, prev = 1, 1  # a_c(-1), a_c(0)
        for k in range(1, m + 1):
            cur = 3 * prev if k == c else 2 * prev + prev2
            prev2, prev = prev, cur
        return prev
    if variant == "reflection_reduced":
        # Burnside over {identity, reflection}: fixed points of the
        # reflection are the palindromes, determined by their first half
        return (_plain_counts(m)[m] + _plain_counts((m + 1) // 2)[(m + 1) // 2]) // 2
    if variant == "dihedral":
        if m < 1:
            raise ValueError("the dihedral variant needs a width of at least 1")
        # Burnside over the m rotations and m reflections of the cycle.  A
        # rotation by k fixes the cyclic signatures of width gcd(k, m),
        # repeated.  A reflection fixes the palindromes of the cycle, whose
        # half from axis to axis is a plain signature: of (m + 1) / 2 cells
        # for odd m; for even m, of m / 2 + 1 cells when the axis passes
        # through two cells and m / 2 when it passes through two edges.
        plain = _plain_counts(m // 2 + 1)
        fixed = sum(count_signatures(math.gcd(k, m), "cyclic")
                    for k in range(m))
        if m % 2:
            fixed += m * plain[(m + 1) // 2]
        else:
            fixed += m // 2 * (plain[m // 2 + 1] + plain[m // 2])
        return fixed // (2 * m)
    raise ValueError(f"unknown variant {variant!r}")


def closed_form_count(m: int, variant: str = "plain") -> int:
    """Evaluate the closed-form count and round to the nearest integer.

    Cross-check only; the recurrences in :func:`count_signatures` are the
    source of truth.  Evaluated at 50 significant digits so rounding is exact
    for every width up to MAX_WIDTH.
    """
    from decimal import Context, Decimal, localcontext

    if m < 0:
        raise ValueError("width must be nonnegative")
    with localcontext(Context(prec=50)):
        lam = 1 + Decimal(2).sqrt()
        lam_conj = 1 - Decimal(2).sqrt()
        if variant == "plain":
            # coefficients (1 -+ sqrt 2)/2 of the two Pell eigenvalues
            val = (lam_conj * lam_conj**m + lam * lam**m) / 2
        elif variant == "cyclic":
            val = 1 + lam_conj**m + lam**m
        else:
            raise ValueError(f"no closed form for variant {variant!r}")
        return int(val.to_integral_value())


def reflect(sig: Signature) -> Signature:
    """Mirror image; maps valid signatures to valid signatures."""
    return Signature.from_cells(tuple(reversed(sig.cells)))


def dihedral_orbits(m: int) -> list[tuple[int, int]]:
    """Orbits of the cyclic signatures under rotation and reflection.

    Returns (representative code, orbit size) pairs, representatives
    ascending.  The representative is the smallest code in its orbit.
    """
    codes = signature_codes(m, cyclic=True)
    rest, mirror = codes, np.zeros_like(codes)
    for _ in range(m):  # the digit reversal
        mirror, rest = 3 * mirror + rest % 3, rest // 3
    least = np.minimum(codes, mirror)
    for _ in range(m - 1):  # each rotation by one cell
        codes = codes // 3 + codes % 3 * 3 ** (m - 1)
        mirror = mirror // 3 + mirror % 3 * 3 ** (m - 1)
        least = np.minimum(least, np.minimum(codes, mirror))
    reps, sizes = np.unique(least, return_counts=True)
    return list(zip(reps.tolist(), sizes.tolist()))
