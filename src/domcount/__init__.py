"""Exact domination polynomial counting on grid-like lattices."""

from .engine import (
    GraphSpec,
    Guards,
    count_dominating,
    domination_polynomial,
    run_sweep,
    torus_polynomial,
)
from .errors import GuardExceeded, VerificationError
from .rings import EXACT, Polynomial, Ring, crt_reconstruct, select_moduli
from .signatures import CellState, Signature, count_signatures, enumerate_signatures

__version__ = "0.1.0"

__all__ = [
    "CellState",
    "EXACT",
    "GraphSpec",
    "GuardExceeded",
    "Guards",
    "Polynomial",
    "Ring",
    "Signature",
    "VerificationError",
    "count_dominating",
    "count_signatures",
    "crt_reconstruct",
    "domination_polynomial",
    "enumerate_signatures",
    "run_sweep",
    "select_moduli",
    "torus_polynomial",
    "__version__",
]
