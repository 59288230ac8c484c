"""Threshold formulas behind the guarantees, as pure functions.

These constants say where the asymptotic arguments switch on.  They are
evaluated exactly (arbitrary-precision rationals) whenever the exponents
work out to integers and the value fits ``EXACT_DIGITS``, and via
logarithms otherwise; the feasibility flag records whether a value is
desk-scale (at most 10^6).  Surfacing them keeps the test suite honest
about which regimes are and are not reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

DESK_SCALE_LIMIT = 10**6
# Digits (numerator and denominator together) above which a power is
# reported by its log10 alone: an exact value would be slow to build and
# too long to print.
EXACT_DIGITS = 1000
# Diameter bounds of a highly connected set, times eps^2: plain, and rainbow.
CONNECTED_SET_DIAMETER = 40
RAINBOW_CONNECTED_SET_DIAMETER = 1280


def as_fraction(value) -> Fraction:
    """The exact value of an epsilon; a float goes through its shortest
    decimal form, so 0.3 means 3/10.  A float nan or infinity raises
    ValueError."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"epsilon must be finite, got {value}")
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class ThresholdReport:
    name: str
    parameters: dict
    value: Fraction | None  # the exact value, when `exact`
    log10: float
    exact: bool
    feasible_at_desk_scale: bool


def _report(name: str, params: dict, log10: float, digits: float, value) -> ThresholdReport:
    """The report of a positive value with the given log10 and digit count.
    ``value()`` builds it exactly, or ``value`` is None when the value is not
    rational; over ``EXACT_DIGITS`` digits it is never built."""
    if value is None or digits > EXACT_DIGITS:
        return ThresholdReport(name, params, None, log10, False, log10 <= math.log10(DESK_SCALE_LIMIT))
    exact = value()
    return ThresholdReport(name, params, exact, log10, True, exact <= DESK_SCALE_LIMIT)


def _power_report(name: str, params: dict, base: Fraction, exponent: Fraction, scale: Fraction) -> ThresholdReport:
    """scale * base**exponent, exact when the exponent is an integer and the
    value has at most ``EXACT_DIGITS`` digits.  A value whose log10 or digit
    count passes a float's range raises DomainError naming eps."""
    if base <= 0:
        raise DomainError(f"{name}: base must be positive")
    too_small = DomainError(f"eps is too small: the log10 of {name} passes a float's range")
    scale_n, scale_d = math.log10(scale.numerator), math.log10(scale.denominator)
    base_n, base_d = math.log10(base.numerator), math.log10(base.denominator)
    try:
        log10 = scale_n - scale_d + float(exponent) * (base_n - base_d)
        digits = scale_n + scale_d + abs(float(exponent)) * (base_n + base_d)
    except OverflowError as exc:  # the exponent itself passes a float's range
        raise too_small from exc
    if not (math.isfinite(log10) and math.isfinite(digits)):
        raise too_small
    value = (lambda: scale * base ** int(exponent)) if exponent.denominator == 1 else None
    return _report(name, params, log10, digits, value)


def edge_disjoint_guarantee_threshold(eps) -> Fraction:
    """Smallest colour count at which the edge-disjoint (1+eps) guarantee is
    in force: 10^20 * eps^(-16/eps).  Exact rational arithmetic; raises on
    non-integral exponents and on values over ``EXACT_DIGITS`` digits (use
    the report form for those).
    """
    report = edge_disjoint_guarantee_report(eps)
    if report.value is None:
        if (16 / report.parameters["eps"]).denominator != 1:
            why = "16/eps is not an integer"
        else:
            why = f"the value is about 10^{report.log10:.0f}, over {EXACT_DIGITS} digits"
        raise DomainError(
            f"{why}; exact evaluation impossible "
            "(threshold_table reports the magnitude instead)"
        )
    return report.value


def edge_disjoint_guarantee_report(eps) -> ThresholdReport:
    eps = as_fraction(eps)
    if not (0 < eps <= 1):
        raise DomainError("eps must be in (0, 1]")
    return _power_report(
        "edge_disjoint_guarantee_threshold",
        {"eps": eps},
        base=eps,
        exponent=-16 / eps,
        scale=Fraction(10) ** 20,
    )


def threshold_table(eps, m=None, k=None, k1=None) -> tuple[ThresholdReport, ...]:
    """Every named threshold at the given parameters, with feasibility flags.

    The parameters given must lie in the formulas' domains: 0 < eps <= 1,
    m >= 1, k >= 1 and k1 > 0; a parameter outside raises DomainError
    naming it.  Every value is then positive; an eps so small that a log10
    passes a float's range raises DomainError too, so every log10 reported
    is finite.  A value over ``EXACT_DIGITS`` digits is reported by its
    log10 alone.
    """
    eps = as_fraction(eps)
    if not (0 < eps <= 1):
        raise DomainError("eps must be in (0, 1]")
    for name, value in (("m", m), ("k", k)):
        if value is not None and value < 1:
            raise DomainError(f"{name} must be at least 1, got {value}")
    if k1 is not None and k1 <= 0:
        raise DomainError(f"k1 must be positive, got {k1}")
    reports = [edge_disjoint_guarantee_report(eps)]

    def exact_entry(name: str, params: dict, value: Fraction) -> ThresholdReport:
        num, den = math.log10(value.numerator), math.log10(value.denominator)
        return _report(name, params, num - den, num + den, lambda: value)

    connected_d = CONNECTED_SET_DIAMETER / eps**2
    rainbow_d = RAINBOW_CONNECTED_SET_DIAMETER / eps**2
    reports.append(exact_entry("connected_set_diameter", {"eps": eps}, connected_d))
    reports.append(exact_entry("rainbow_connected_set_diameter", {"eps": eps}, rainbow_d))
    if m is not None:
        reports.append(
            exact_entry(
                "two_hop_degree_threshold",
                {"eps": eps, "m": m},
                (5 * m + 4) / eps**2,
            )
        )
    if k is not None:
        reports.append(
            exact_entry(
                "connected_set_min_order", {"eps": eps, "k": k}, 32 * k / eps**2
            )
        )
        reports.append(
            exact_entry(
                "rainbow_connected_set_min_order",
                {"eps": eps, "k": k},
                1800 * k / eps**4,
            )
        )
        reports.append(
            exact_entry(
                "midpoint_bundle_size",
                {"eps": eps, "k": k},
                9 * rainbow_d + 3 * k,
            )
        )
    if k1 is not None:
        reports.append(
            exact_entry(
                "freeness_decay",
                {"eps0": eps, "k1": k1},
                Fraction(1, 10**6) * eps**2 * k1,
            )
        )
        reports.append(
            exact_entry("pin_budget_growth", {"eps0": eps}, 30 / eps)
        )
    reports.append(
        _power_report(
            "initial_pin_budget",
            {"eps": eps},
            base=Fraction(1, 10**6) / eps**2,
            exponent=2 / eps,
            scale=Fraction(1),
        )
    )
    return tuple(reports)
