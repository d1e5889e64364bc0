"""Dense polynomial coefficient vectors over interchangeable rings.

Two rings are supported: exact arbitrary-precision integers and residues
modulo a fixed prime.  The sweep itself shifts and adds int64 coefficient
arrays; this module holds the polynomial it reads out into, plus the
multi-modular machinery (prime selection below a bit width,
Chinese-Remainder reconstruction, overflow-safe sums of int64 residue
lanes) for recombining the residue lanes of one sweep into exact results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Ring:
    """Coefficient ring tag: exact integers (modulus None) or GF(p)."""

    modulus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be at least 2")

    def normalize(self, value: int) -> int:
        return value if self.modulus is None else value % self.modulus


EXACT = Ring()


@dataclass(frozen=True)
class Polynomial:
    """Dense coefficient vector indexed by degree 0..len-1 over a ring.

    Trailing zeros are permitted internally; :meth:`trimmed` is the canonical
    form used for output and comparison.
    """

    ring: Ring
    coefficients: tuple[int, ...]

    @classmethod
    def from_coefficients(cls, coefficients: Sequence[int], ring: Ring = EXACT) -> "Polynomial":
        return cls(ring, tuple(ring.normalize(c) for c in coefficients))

    @classmethod
    def monomial(cls, degree: int, coefficient: int = 1, ring: Ring = EXACT) -> "Polynomial":
        return cls(ring, (0,) * degree + (ring.normalize(coefficient),))

    def min_degree(self) -> Optional[int]:
        """Lowest degree with a nonzero coefficient, or None for zero."""
        for d, c in enumerate(self.coefficients):
            if c != 0:
                return d
        return None

    def degree(self) -> Optional[int]:
        for d in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[d] != 0:
                return d
        return None

    def trimmed(self) -> "Polynomial":
        deg = self.degree()
        if deg is None:
            return Polynomial(self.ring, ())
        return Polynomial(self.ring, self.coefficients[: deg + 1])

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coefficients):
            return self.coefficients[degree]
        return 0

    def to_text(self) -> str:
        """Human-readable form like ``6z^2 + 4z^3 + z^4`` (ascending degree)."""
        terms = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            coeff = "" if c == 1 and d > 0 else str(c)
            if d == 0:
                terms.append(str(c))
            elif d == 1:
                terms.append(f"{coeff}z")
            else:
                terms.append(f"{coeff}z^{d}")
        return " + ".join(terms) if terms else "0"


# ----------------------------------------------------------------- moduli

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n below 2^64 with these bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
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


@dataclass(frozen=True)
class ModulusSet:
    """Distinct primes below 2^bit_width whose product covers the bound."""

    primes: tuple[int, ...]
    bit_width: int
    bit_bound: int

    def product(self) -> int:
        out = 1
        for p in self.primes:
            out *= p
        return out


def select_moduli(bit_bound: int, b: int = 16) -> ModulusSet:
    """Largest primes below 2^b, descending, until their product is >= 2^bit_bound.

    Deterministic: always the same primes for the same arguments.  Raises
    ValueError when even the full supply of primes below 2^b cannot reach the
    bound.
    """
    if not 8 <= b <= 31:
        raise ValueError(f"bit width b must be in 8..31, got {b}")
    return ModulusSet(covering_primes(bit_bound, b), b, bit_bound)


def covering_primes(bit_bound: int, b: int) -> tuple[int, ...]:
    """The search behind :func:`select_moduli`, for any width b below 64."""
    if bit_bound < 1:
        raise ValueError("bit bound must be positive")
    target = 1 << bit_bound
    primes: list[int] = []
    product = 1
    candidate = (1 << b) - 1
    while product < target and candidate >= 2:
        if is_probable_prime(candidate):
            primes.append(candidate)
            product *= candidate
        candidate -= 1
    if product < target:
        raise ValueError(
            f"primes below 2^{b} cannot reach a product of 2^{bit_bound}")
    return tuple(primes)


def crt_reconstruct(residue_vectors: Sequence[tuple[int, Sequence[int]]]) -> Polynomial:
    """Combine per-modulus coefficient vectors into the exact polynomial.

    Each input pair is (modulus, coefficients mod that modulus); vectors must
    have equal length and moduli must be pairwise coprime (distinct primes,
    or 2^64 beside odd primes).  Every output coefficient is the unique
    nonnegative representative below the product of the moduli.  Combination
    is an incremental (Garner-style) lift, folded in descending modulus order
    so the result does not depend on input order.
    """
    if not residue_vectors:
        raise ValueError("need at least one residue vector")
    lengths = {len(vec) for _, vec in residue_vectors}
    if len(lengths) != 1:
        raise ValueError(f"inconsistent vector lengths: {sorted(lengths)}")
    primes = [p for p, _ in residue_vectors]
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be pairwise distinct")
    ordered = sorted(residue_vectors, key=lambda pv: -pv[0])
    (n,) = lengths
    combined = [0] * n
    modulus = 1
    for p, vec in ordered:
        inv = pow(modulus % p, -1, p)
        for i in range(n):
            t = (vec[i] - combined[i]) * inv % p
            combined[i] += t * modulus
        modulus *= p
    return Polynomial(EXACT, tuple(combined))


def prime_lanes(moduli: Optional[np.ndarray]) -> tuple[int, Optional[np.ndarray]]:
    """Index of the first prime lane and the prime moduli (None if none).

    Lane moduli are int64 arrays.  Modulus 0 marks the int64 lane, always
    lane 0: NumPy's integer arithmetic wraps silently, so that lane holds
    every value modulo 2^64 and is never reduced.
    """
    if moduli is None:
        return 0, None
    wrap = int(moduli[0] == 0)
    return wrap, (moduli[wrap:] if len(moduli) > wrap else None)


def lane_sum(lanes: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Sum int64 values shaped (rows, k, lanes) over rows.

    The int64 lane (modulus 0) sums as it is, exact modulo 2^64.  Prime
    lanes (each modulus at most 2^62) are reduced after every block of rows
    small enough that its sum stays below 2^63.
    """
    wrap, primes = prime_lanes(moduli)
    if primes is None:
        return lanes.sum(axis=0)
    block = (2**63 - 1) // (int(primes.max()) - 1)
    while len(lanes) > 1:
        k = min(block, len(lanes))
        cut = len(lanes) - len(lanes) % k
        sums = [lanes[:cut].reshape(-1, k, *lanes.shape[1:]).sum(axis=1)]
        if cut < len(lanes):
            sums.append(lanes[cut:].sum(axis=0, keepdims=True))
        lanes = np.concatenate(sums)
        lanes[..., wrap:] %= primes
    return lanes.sum(axis=0)


def lane_values(lanes: np.ndarray, moduli: np.ndarray) -> list[int]:
    """Python ints from int64 values shaped (k, lanes): the int64 lane read
    modulo 2^64, one lane as it is, several lanes recombined by
    :func:`crt_reconstruct`."""
    residues = [(int(p) or 1 << 64, (lane if p else lane.view(np.uint64)).tolist())
                for p, lane in zip(moduli, lanes.T)]
    if len(residues) == 1:
        return residues[0][1]
    return list(crt_reconstruct(residues).coefficients)
