import random
from decimal import Context, Decimal, localcontext

import mpmath
import pytest

from domcount.analysis import (
    bulirsch_stoer_extrapolate,
    estimate_growth,
    gamma_closed_form,
    growth_rate_m,
    nstr,
    stats_from_polynomial,
)
from domcount.engine import GraphSpec, domination_polynomial, iter_counts
from domcount.rings import EXACT, Polynomial


def test_stats_summary():
    stats = stats_from_polynomial(domination_polynomial(GraphSpec("grid", 4, 4)))
    assert stats.gamma == 4
    assert stats.n_gamma == 2
    assert stats.total == 28661


def test_stats_reject_the_zero_polynomial():
    with pytest.raises(ValueError):
        stats_from_polynomial(Polynomial(EXACT, ()))


def test_gamma_closed_form_king(appendix_poly):
    assert gamma_closed_form("king", 4, 4) == 4
    assert gamma_closed_form("king", 8, 8) == 9
    for n in range(1, 9):
        coeffs = appendix_poly("king", n)
        engine_gamma = next(d for d, c in enumerate(coeffs) if c)
        assert gamma_closed_form("king", n, n) == engine_gamma


def test_gamma_closed_form_grid():
    assert gamma_closed_form("grid", 16, 16) == 60
    assert gamma_closed_form("grid", 16, 20) == 75
    assert gamma_closed_form("grid", 4, 4) is None
    assert gamma_closed_form("grid", 16, 15) is None


def test_gamma_closed_form_unsupported_families():
    for family in ("cylinder", "torus", "hex"):
        with pytest.raises(ValueError):
            gamma_closed_form(family, 3, 3)


def test_extrapolation_is_exact_on_constants():
    points = [(1.0, 5.0), (0.5, 5.0), (0.25, 5.0)]
    result = bulirsch_stoer_extrapolate(points)
    assert result.limit == 5
    assert result.error == 0
    assert not result.used_fallback


def test_extrapolation_is_exact_on_small_rational_functions():
    with localcontext(Context(prec=60)):
        xs = [Decimal(1) / (k + 1) for k in range(6)]
        points = [(x, (1 + x) / (1 + 2 * x)) for x in xs]
        result = bulirsch_stoer_extrapolate(points)
        assert abs(result.limit - 1) < Decimal(10) ** -40
        assert not result.used_fallback


def test_extrapolation_handles_polynomial_data():
    with localcontext(Context(prec=60)):
        xs = [Decimal(1) / (k + 2) for k in range(5)]
        points = [(x, 2 + 3 * x**2) for x in xs]
        result = bulirsch_stoer_extrapolate(points)
        assert abs(result.limit - 2) < Decimal(10) ** -40


def test_extrapolation_takes_float_widths_and_decimal_values():
    # as perfbench/layers.py passes them: x = 1 / m in float64
    points = [(1 / m, Decimal(1) + Decimal(1) / m) for m in (3, 4, 5, 6)]
    result = bulirsch_stoer_extrapolate(points)
    assert abs(result.limit - 1) < Decimal(10) ** -15


def test_extrapolation_falls_back_when_the_recurrence_degenerates():
    points = [(1.0, 1.0), (0.5, 1.0), (0.25, 2.0)]
    result = bulirsch_stoer_extrapolate(points)
    assert result.used_fallback
    # polynomial extrapolation through the same three points
    with localcontext(Context(prec=60)):
        assert abs(result.limit - Decimal(11) / 3) < Decimal(10) ** -30


def test_extrapolation_input_validation():
    with pytest.raises(ValueError):
        bulirsch_stoer_extrapolate([(1.0, 1.0), (0.5, 2.0)])
    with pytest.raises(ValueError):
        bulirsch_stoer_extrapolate([(0.5, 1.0), (1.0, 2.0), (0.25, 3.0)])
    with pytest.raises(ValueError):
        bulirsch_stoer_extrapolate([(1.0, 1.0), (0.5, 2.0), (-0.25, 3.0)])


def test_growth_rate_of_the_single_column_strip():
    """The totals of a path strip obey a three-term recurrence, so the
    width-1 growth rate is the tribonacci constant, an easy independent
    anchor for the whole high-precision pipeline."""
    mu = growth_rate_m("grid", 1, precision_digits=13)
    with mpmath.workdps(30):
        anchor = mpmath.findroot(lambda x: x**3 - x**2 - x - 1, 1.8)
        assert abs(mpmath.mpf(str(mu)) - anchor) < mpmath.mpf(10) ** -12


def _exact_growth_sample(family, m, digits):
    """mu_m and n_used from exact count ratios, the same convergence test."""
    with mpmath.workdps(60):
        tol = mpmath.mpf(10) ** -digits
        prev_total = prev_mu = None
        for n, total in enumerate(iter_counts(family, m), start=1):
            if prev_total is not None:
                mu = mpmath.root(mpmath.mpf(total) / prev_total, m)
                if prev_mu is not None and n >= 4 and abs(mu - prev_mu) <= tol * mu:
                    return mu, n
                prev_mu = mu
            prev_total = total


@pytest.mark.parametrize("family, m_min, m_max",
                         [("grid", 1, 9), ("cylinder", 3, 9), ("king", 3, 9)])
def test_float_growth_matches_the_exact_count_stream(family, m_min, m_max):
    est = estimate_growth(family, m_min, m_max, precision_digits=13)
    for s in est.samples:
        mu, n_used = _exact_growth_sample(family, s.m, 13)
        assert s.n_used == n_used, f"{family} m={s.m}"
        # float64 ratios: a few ulps relative, shrunk by the m-th root
        with mpmath.workdps(60):
            assert abs(mpmath.mpf(str(s.mu)) - mu) <= mpmath.mpf("1e-15") * mu, \
                f"{family} m={s.m}"


def test_growth_rate_refuses_to_run_past_the_cap():
    with pytest.raises(RuntimeError):
        growth_rate_m("grid", 3, precision_digits=13, n_cap=5)
    with pytest.raises(ValueError):
        growth_rate_m("torus", 3)
    for digits in (0, 15):
        with pytest.raises(ValueError):
            growth_rate_m("grid", 3, precision_digits=digits)
        with pytest.raises(ValueError):
            estimate_growth("grid", 3, 5, precision_digits=digits)


def test_estimate_growth_small_run():
    est = estimate_growth("grid", 3, 6, precision_digits=10)
    assert est.family == "grid"
    assert [s.m for s in est.samples] == [3, 4, 5, 6]
    assert all(s.n_used >= 4 for s in est.samples)
    assert abs(est.mu - Decimal("1.9547511954")) < Decimal("5e-3")
    payload = est.to_json()
    assert payload["family"] == "grid"
    assert len(payload["samples"]) == 4
    assert payload["samples"][0].keys() == {"m", "n_used", "mu_m"}
    assert float(payload["mu"]) == pytest.approx(float(est.mu))


def test_estimate_growth_workers_do_not_change_the_answer():
    serial = estimate_growth("cylinder", 3, 5, precision_digits=8)
    parallel = estimate_growth("cylinder", 3, 5, precision_digits=8, workers=2)
    assert serial.to_json() == parallel.to_json()


def test_torus_growth_reuses_cylinder_strips():
    torus = estimate_growth("torus", 3, 5, precision_digits=8)
    cylinder = estimate_growth("cylinder", 3, 5, precision_digits=8)
    assert torus.family == "torus"
    assert [nstr(s.mu, 15) for s in torus.samples] == \
        [nstr(s.mu, 15) for s in cylinder.samples]


def test_estimate_growth_needs_three_widths():
    with pytest.raises(ValueError):
        estimate_growth("grid", 3, 4)


@pytest.mark.parametrize("digits", [5, 20])
def test_nstr_prints_what_mpmath_prints(digits):
    """On generic values (40 random digits, so no cut lands on a tie that
    mpmath's binary value would break the other way), over exponents in
    and out of the fixed-notation range, and both signs."""
    rnd = random.Random(digits)
    for _ in range(2000):
        text = (rnd.choice(("", "-")) + str(rnd.randint(1, 9))
                + "".join(rnd.choices("0123456789", k=38))
                + str(rnd.randint(1, 9)) + f"e{rnd.randint(-70, 30)}")
        with mpmath.workdps(80):
            want = mpmath.nstr(mpmath.mpf(text), digits)
        assert nstr(Decimal(text), digits) == want, text


def test_nstr_edge_cases():
    for value, digits, text in [("0", 5, "0.0"), ("9.99999", 5, "10.0"),
                                ("99999.5", 5, "1.0e+5"), ("1e-5", 5, "1.0e-5"),
                                ("1e-5", 20, "0.00001"), ("1e-6", 20, "1.0e-6"),
                                ("1234567", 20, "1234567.0"),
                                ("0.00045507", 5, "0.00045507")]:
        with mpmath.workdps(80):
            assert mpmath.nstr(mpmath.mpf(value), digits) == text
        assert nstr(Decimal(value), digits) == text
