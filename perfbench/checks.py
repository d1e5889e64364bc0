"""Checks of domcount's outputs against published tables and proven properties.

The tables are read straight from the JSON files bundled in
``src/domcount/data``; their errata are applied here, by this reader, so a
check never goes through the program's own table code.  No check compares
against a stored copy of an earlier run.  Every checker raises
:class:`CheckFailed` on a wrong output and also when it found nothing to
check the output against.
"""

from __future__ import annotations

import csv
import io
import json
from decimal import Decimal
from math import ceil, comb
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "domcount" / "data"

# The bulk growth constant of the square grid to ten places, with the
# tolerance test_growth_constant_estimates uses.
GRID_GROWTH = Decimal("1.9547511954")
GROWTH_TOLERANCE = Decimal("1e-6")

# Smallest closed neighbourhood of a vertex per family.  Every set of
# mn - k vertices with k below it dominates, so the top coefficients of D(z)
# are binomials: [z^(mn-k)] D = C(mn, k) for k < this value.
MIN_CLOSED_NEIGHBOURHOOD = {"grid": 3, "king": 4, "cylinder": 4, "torus": 5}

# Families whose m x n and n x m boards are the same graph.
TRANSPOSABLE = ("grid", "king", "torus")


class CheckFailed(Exception):
    """An output disagrees with a reference, or no reference applies."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Tables:
    """The bundled reference tables, errata applied."""

    def __init__(self, data_dir: Path = DATA_DIR):
        def load(name):
            return json.loads((data_dir / name).read_text())

        appendix = load("appendix_polynomials.json")
        self.appendix: dict[tuple[str, int], list[int]] = {}
        for family, by_n in appendix["polynomials"].items():
            for n, entry in by_n.items():
                coeffs = [0] * entry["min_degree"] + list(entry["coefficients"])
                self.appendix[family, int(n)] = coeffs
        for e in appendix.get("errata", []):
            self.appendix[e["family"], e["n"]][e["degree"]] = e["corrected"]

        mindom = load("mindom.json")
        self.mindom: dict[tuple[str, int], int] = {
            (family, int(n)): count
            for family, by_n in mindom.items() if family != "errata"
            for n, count in by_n.items()}
        for e in mindom.get("errata", []):
            self.mindom[e["family"], e["n"]] = e["corrected"]

        self.grid_totals = {int(n): t for n, t in load("grid_totals.json").items()}
        # rows are n = 1..24, columns m = 1..24
        self.cylinder_gamma = load("cylinder_gamma.json")["rows"]

    # -- references for one board; None when no published value applies

    def gamma(self, family: str, m: int, n: int):
        if family == "king":
            return ceil(m / 3) * ceil(n / 3)
        if family == "cylinder" and n <= len(self.cylinder_gamma) \
                and m <= len(self.cylinder_gamma[n - 1]):
            return self.cylinder_gamma[n - 1][m - 1]
        if m == n and (family, n) in self.appendix:
            return _min_degree(self.appendix[family, n])
        if family == "torus" and m % 5 == 0 and n % 5 == 0:
            _require(perfect_torus_code_dominates(m, n),
                     f"the diagonal code does not dominate the {m}x{n} torus")
            return m * n // 5  # lower bound ceil(mn/5) met by that code
        return None

    def ngamma(self, family: str, m: int, n: int):
        if m == n == 1:
            return 1
        if m == n:
            return self.mindom.get((family, n))
        return None

    def total(self, family: str, m: int, n: int):
        if m == n and family == "grid":
            return self.grid_totals.get(n)
        if m == n and (family, n) in self.appendix:
            return sum(self.appendix[family, n])
        return None


def _min_degree(coeffs: list[int]) -> int:
    return next(d for d, c in enumerate(coeffs) if c)


def perfect_torus_code_dominates(m: int, n: int) -> bool:
    """Whether {(i, j) : i + 2j = 0 mod 5} dominates C_m x C_n with mn/5
    vertices (needs 5 | m and 5 | n)."""
    code = {(i, j) for i in range(m) for j in range(n) if (i + 2 * j) % 5 == 0}
    if len(code) * 5 != m * n:
        return False
    for i in range(m):
        for j in range(n):
            closed = {(i, j), ((i + 1) % m, j), ((i - 1) % m, j),
                      (i, (j + 1) % n), (i, (j - 1) % n)}
            if not closed & code:
                return False
    return True


class Checker:
    """Checks one CLI output; each method raises CheckFailed or returns the
    number of reference comparisons it made."""

    def __init__(self, tables: Tables):
        self.tables = tables

    def poly(self, out: str, family: str, m: int, n: int, modulus=None) -> int:
        def red(x: int) -> int:
            return x % modulus if modulus else x

        doc = json.loads(out)
        coeffs = [0] * doc["minDegree"] + [int(c) for c in doc["coefficients"]]
        cells = m * n
        label = f"poly {family} {m}x{n}" + (f" mod {modulus}" if modulus else "")
        _require(len(coeffs) == cells + 1,
                 f"{label}: degree {len(coeffs) - 1}, want {cells}")
        done = 0
        for k in range(MIN_CLOSED_NEIGHBOURHOOD[family]):
            _require(coeffs[cells - k] == red(comb(cells, k)),
                     f"{label}: [z^{cells - k}] = {coeffs[cells - k]}, "
                     f"want C({cells},{k})")
        ref = self.tables.appendix.get((family, n)) if m == n else None
        if ref is not None:
            bad = [d for d, (a, b) in enumerate(zip(coeffs, ref)) if a != red(b)]
            _require(not bad, f"{label}: {len(bad)} coefficients differ from "
                              f"the appendix, first at z^{bad[0] if bad else 0}")
            done += 1
        total = self.tables.total(family, m, n)
        if total is not None:
            got = sum(coeffs) % modulus if modulus else sum(coeffs)
            _require(got == red(total), f"{label}: total {got}, want {red(total)}")
            done += 1
        gamma = self.tables.gamma(family, m, n)
        if gamma is not None:
            _require(_min_degree(coeffs) == gamma,
                     f"{label}: min degree {_min_degree(coeffs)}, want {gamma}")
            done += 1
        ngamma = self.tables.ngamma(family, m, n)
        if ngamma is not None:
            low = coeffs[_min_degree(coeffs)]
            _require(low == red(ngamma),
                     f"{label}: lowest coefficient {low}, want {red(ngamma)}")
            done += 1
        _require(done > 0, f"{label}: no published reference applies")
        return done

    def count(self, out: str, family: str, m: int, n: int) -> int:
        want = self.tables.total(family, m, n)
        _require(want is not None, f"count {family} {m}x{n}: no published total")
        _require(int(out) == want, f"count {family} {m}x{n}: got {out.strip()}")
        return 1

    def table(self, out: str, kind: str, family: str,
              m_range: tuple[int, int], n_range: tuple[int, int]) -> int:
        rows = list(csv.reader(io.StringIO(out)))
        ms = list(range(m_range[0], m_range[1] + 1))
        ns = list(range(n_range[0], n_range[1] + 1))
        label = f"table {kind} {family}"
        _require(rows[0] == ["n/m"] + [str(m) for m in ms], f"{label}: bad header")
        _require([r[0] for r in rows[1:]] == [str(n) for n in ns],
                 f"{label}: bad row labels")
        value = {(m, n): int(v) for n, row in zip(ns, rows[1:])
                 for m, v in zip(ms, row[1:])}
        _require(len(value) == len(ms) * len(ns), f"{label}: ragged table")
        reference = self.tables.gamma if kind == "gamma" else self.tables.ngamma
        done = 0
        for (m, n), v in value.items():
            _require(v >= 1, f"{label} {m}x{n}: {v} is not positive")
            if kind == "gamma" and family == "torus":
                _require(v >= ceil(m * n / 5),
                         f"{label} {m}x{n}: {v} is below ceil(mn/5)")
            if family in TRANSPOSABLE and (n, m) in value:
                _require(v == value[n, m], f"{label}: {m}x{n} = {v} but "
                                           f"{n}x{m} = {value[n, m]}")
            want = reference(family, m, n)
            if want is not None:
                _require(v == want, f"{label} {m}x{n}: got {v}, want {want}")
                done += 1
        _require(done > 0, f"{label}: no published reference applies")
        return done

    def growth(self, out: str, family: str, m_range: tuple[int, int]) -> int:
        doc = json.loads(out)
        label = f"growth {family} {m_range[0]}:{m_range[1]}"
        _require(family == "grid", f"{label}: no published constant")
        _require([s["m"] for s in doc["samples"]]
                 == list(range(m_range[0], m_range[1] + 1)),
                 f"{label}: wrong strip widths")
        err = abs(Decimal(doc["mu"]) - GRID_GROWTH)
        _require(err <= GROWTH_TOLERANCE,
                 f"{label}: mu {doc['mu']} is {err:.2e} from {GRID_GROWTH}")
        return 1
