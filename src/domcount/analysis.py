"""Statistics and asymptotics on top of the sweep engine.

Two layers: cheap summaries of a single polynomial (domination number, the
count of minimum dominating sets, the total at z=1), and the growth-rate
pipeline.  The latter estimates, per strip width m, the per-vertex growth
constant mu_m = lim_n (T(m, n) / T(m, n-1))^(1/m) where T counts dominating
sets, then extrapolates mu_m over x = 1/m to x = 0 with rational
Bulirsch-Stoer acceleration to estimate the bulk constant, in 60-digit
decimal arithmetic.  The ratios come from a float64 power iteration, so a
strip converges to at most MAX_DIGITS stable digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_DOWN, Context, Decimal, localcontext
from functools import partial
from math import ceil
from typing import Optional, Sequence

from . import engine
from .rings import Polynomial

_WORK = Context(prec=60)  # digits of every growth computation

# float64 ratios carry about 16 significant digits and settle into a fixed
# point of their own rounding, which would pass a 15- or 16-digit test
MAX_DIGITS = 14


@dataclass(frozen=True)
class DominationStats:
    gamma: int
    n_gamma: int
    total: int


def stats_from_polynomial(poly: Polynomial) -> DominationStats:
    """Summary triple of one domination polynomial."""
    md = poly.min_degree()
    if md is None:
        raise ValueError("zero polynomial: no dominating sets, which cannot "
                         "happen for a nonempty graph")
    total = sum(poly.coefficients)
    return DominationStats(md, poly.coefficients[md], total)


def gamma_closed_form(family: str, m: int, n: int) -> Optional[int]:
    """Known exact domination numbers, or None when no formula applies.

    King lattices: ceil(m/3) * ceil(n/3) for every size.  Grids: the
    (m+2)(n+2)/5 formula holds once both sides are at least 16.
    """
    if family == "king":
        return ceil(m / 3) * ceil(n / 3)
    if family == "grid":
        if m >= 16 and n >= 16:
            return (m + 2) * (n + 2) // 5 - 4
        return None
    raise ValueError(f"no closed form known for family {family!r}")


# ------------------------------------------------------------- growth rates

@dataclass(frozen=True)
class GrowthSample:
    m: int
    mu: Decimal
    n_used: int


def _check_digits(precision_digits: int) -> None:
    if not 1 <= precision_digits <= MAX_DIGITS:
        raise ValueError(f"precision digits must be in 1..{MAX_DIGITS}: "
                         f"strip ratios are float64")


def _growth_sample(family: str, m: int, precision_digits: int, n_cap: int,
                   guards: engine.Guards) -> GrowthSample:
    _check_digits(precision_digits)
    with localcontext(_WORK):
        tol = Decimal(10) ** -precision_digits
        root = Decimal(1) / m
        prev_mu: Optional[Decimal] = None
        for n, ratio in enumerate(engine.iter_ratios(family, m, guards), start=1):
            if n >= 2:  # T(1) / T(0) is all boundary
                mu = Decimal(ratio) ** root
                if prev_mu is not None and n >= 4 and abs(mu - prev_mu) <= tol * mu:
                    return GrowthSample(m, mu, n)
                prev_mu = mu
            if n >= n_cap:
                raise RuntimeError(
                    f"mu_{m} for {family} did not stabilize to "
                    f"{precision_digits} digits within n_cap={n_cap} rows")
    raise AssertionError("unreachable")


def growth_rate_m(family: str, m: int, precision_digits: int = 13,
                  n_cap: int = 400,
                  guards: engine.Guards = engine.DEFAULT_GUARDS) -> Decimal:
    """Per-vertex growth constant of the width-m strip, to the requested
    number of stable digits."""
    return _growth_sample(family, m, precision_digits, n_cap, guards).mu


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: Decimal
    error: Decimal
    used_fallback: bool


def bulirsch_stoer_extrapolate(points: Sequence[tuple]) -> ExtrapolationResult:
    """Rational extrapolation of (x, y) samples to x = 0.

    Points must have distinct positive x in descending order, as numbers
    Decimal takes exactly (int, float or Decimal); the tableau runs at 60
    significant digits.  The error field is the magnitude of the last
    tableau correction.  When the rational recurrence degenerates (a
    vanishing denominator), the routine falls back to polynomial (Neville)
    extrapolation and says so.
    """
    if len(points) < 3:
        raise ValueError("need at least three samples to extrapolate")
    with localcontext(_WORK):
        xs = [+Decimal(x) for x, _ in points]
        ys = [+Decimal(y) for _, y in points]
        for a, b in zip(xs, xs[1:]):
            if not a > b > 0:
                raise ValueError("x values must be positive, distinct, and "
                                 "descending")
        try:
            rows = _rational_tableau(xs, ys)
            fallback = False
        except ZeroDivisionError:
            rows = _neville_tableau(xs, ys)
            fallback = True
        last = rows[-1]
        error = abs(last[-1] - last[-2])
        return ExtrapolationResult(last[-1], error, fallback)


def _rational_tableau(xs, ys):
    rows = []
    for i in range(len(xs)):
        row = [ys[i]]
        for k in range(1, i + 1):
            t = row[k - 1]
            diff = t - rows[i - 1][k - 1]
            if diff == 0:
                # flat in this column; the entry is already converged
                row.append(t)
                continue
            lower = t - (rows[i - 1][k - 2] if k >= 2 else 0)
            if lower == 0:
                raise ZeroDivisionError
            den = (xs[i - k] / xs[i]) * (1 - diff / lower) - 1
            if den == 0:
                raise ZeroDivisionError
            row.append(t + diff / den)
        rows.append(row)
    return rows


def _neville_tableau(xs, ys):
    rows = []
    for i in range(len(xs)):
        row = [ys[i]]
        for k in range(1, i + 1):
            num = xs[i - k] * row[k - 1] - xs[i] * rows[i - 1][k - 1]
            row.append(num / (xs[i - k] - xs[i]))
        rows.append(row)
    return rows


def nstr(x: Decimal, n: int) -> str:
    """x to n significant digits, printed as mpmath.nstr(x, n) prints it.

    The digits are cut to n + 3, then rounded half up at n.  With e the
    exponent of the leading digit, the notation is fixed when
    min(-(n // 3), -5) < e < n, else d.ddde-6 or d.ddde+21; trailing zeros
    go, but one digit stays after the point, so zero is 0.0.
    """
    if not x:
        return "0.0"
    sign, digits, exp = Context(prec=n + 3, rounding=ROUND_DOWN).plus(
        x).as_tuple()
    e = exp + len(digits) - 1
    digits = "".join(map(str, digits)).ljust(n + 3, "0")
    head = int(digits[:n]) + (digits[n] >= "5")
    if head == 10 ** n:  # rounded up past 9...9
        head, e = head // 10, e + 1
    digits, split = str(head), 1
    fixed = min(-(n // 3), -5) < e < n
    if fixed and e < 0:
        digits = "0" * -e + digits
    elif fixed:
        digits, split = digits.ljust(e + 1, "0"), e + 1
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    text = ("-" if sign else "") + text + ("0" if text[-1] == "." else "")
    return text if fixed else f"{text}e{e:+d}"


@dataclass(frozen=True)
class GrowthEstimate:
    family: str
    samples: tuple
    mu: Decimal
    error: Decimal
    used_fallback: bool

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "samples": [
                {"m": s.m, "n_used": s.n_used,
                 "mu_m": nstr(s.mu, 20)}
                for s in self.samples
            ],
            "mu": nstr(self.mu, 20),
            "error": nstr(self.error, 5),
        }


def estimate_growth(family: str, m_min: int = 3, m_max: int = 12,
                    precision_digits: int = 13, n_cap: int = 400,
                    workers: int = 1,
                    guards: engine.Guards = engine.DEFAULT_GUARDS,
                    ) -> GrowthEstimate:
    """Bulk growth constant from strip constants mu_{m_min}..mu_{m_max}.

    The torus shares the cylinder's strips, so its estimate reuses them.
    The widths run widest first, so that on `workers` processes the
    longest strip does not start last.
    """
    if m_max - m_min + 1 < 3:
        raise ValueError("need at least three widths")
    _check_digits(precision_digits)
    strip_family = "cylinder" if family == "torus" else family
    sample = partial(_growth_sample, strip_family,
                     precision_digits=precision_digits, n_cap=n_cap,
                     guards=guards)
    samples = list(engine._pooled(sample, list(range(m_max, m_min - 1, -1)),
                                  workers))[::-1]
    with localcontext(_WORK):
        points = [(Decimal(1) / s.m, s.mu) for s in samples]
    result = bulirsch_stoer_extrapolate(points)
    return GrowthEstimate(family, tuple(samples), result.limit, result.error,
                          result.used_fallback)
