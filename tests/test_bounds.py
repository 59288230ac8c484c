import math
from fractions import Fraction

import pytest

from rainbowmatch.bounds import (
    DESK_SCALE_LIMIT,
    EXACT_DIGITS,
    edge_disjoint_guarantee_report,
    edge_disjoint_guarantee_threshold,
    threshold_table,
)
from rainbowmatch.connectivity import find_kd_connected_set
from rainbowmatch.digraph import LabelledDigraph
from rainbowmatch.errors import DomainError


def test_guarantee_threshold_eps_1():
    assert edge_disjoint_guarantee_threshold(1) == 10**20


def test_guarantee_threshold_eps_01_exact():
    assert edge_disjoint_guarantee_threshold(Fraction(1, 10)) == 10**180


def test_guarantee_threshold_eps_05():
    assert edge_disjoint_guarantee_threshold(0.5) == 2**32 * 10**20


def test_guarantee_threshold_domain():
    with pytest.raises(DomainError):
        edge_disjoint_guarantee_threshold(0)
    with pytest.raises(DomainError):
        edge_disjoint_guarantee_threshold(2)


def test_guarantee_threshold_names_why_it_cannot_be_exact():
    with pytest.raises(DomainError, match="^16/eps is not an integer;"):
        edge_disjoint_guarantee_threshold(Fraction(3, 10))
    with pytest.raises(DomainError, match=r"^the value is about 10\^48020, over 1000 digits;"):
        edge_disjoint_guarantee_threshold(Fraction(1, 1000))


def test_exact_values_stop_at_the_digit_cap():
    # 10^20 * 25^400 has 580 digits; 10^20 * 50^800 has 1,380
    assert edge_disjoint_guarantee_threshold(Fraction(1, 25)) == 10**20 * 25**400
    report = edge_disjoint_guarantee_report(Fraction(1, 50))
    assert report.value is None and not report.exact
    assert report.log10 == pytest.approx(20 + 800 * math.log10(50))
    assert EXACT_DIGITS == 1000


def test_guarantee_nonintegral_exponent_reports_magnitude():
    rep = edge_disjoint_guarantee_report(0.3)
    assert rep.value is None and not rep.exact
    assert rep.log10 > 20
    assert not rep.feasible_at_desk_scale


def test_guarantee_infeasible_for_all_eps():
    for eps in (1, 0.5, 0.25, 0.1, 0.01):
        assert not edge_disjoint_guarantee_report(eps).feasible_at_desk_scale


def _by_name(reports, name):
    return next(r for r in reports if r.name == name)


def test_table_two_hop_threshold():
    reports = threshold_table(0.3, m=1)
    rep = _by_name(reports, "two_hop_degree_threshold")
    assert rep.value == 100
    assert rep.feasible_at_desk_scale


def test_table_rainbow_diameter():
    reports = threshold_table(Fraction(1, 10))
    rep = _by_name(reports, "rainbow_connected_set_diameter")
    assert rep.value == 128000


def test_table_freeness_decay():
    reports = threshold_table(0.1, k1=Fraction(10**10))
    rep = _by_name(reports, "freeness_decay")
    assert rep.value == 100


def test_table_connected_set_formulas():
    reports = threshold_table(0.5, k=4)
    assert _by_name(reports, "connected_set_diameter").value == 160
    assert _by_name(reports, "connected_set_min_order").value == 512
    assert _by_name(reports, "rainbow_connected_set_diameter").value == 5120
    assert _by_name(reports, "rainbow_connected_set_min_order").value == 4 * 1800 * 16
    assert _by_name(reports, "midpoint_bundle_size").value == 9 * 5120 + 12


@pytest.mark.parametrize("eps", [0.3, 0.7, Fraction(2, 7), 1])
@pytest.mark.parametrize(
    "mode, name",
    [("uncoloured", "connected_set_diameter"), ("total", "rainbow_connected_set_diameter")],
)
def test_kd_set_diameter_bound_is_the_tables_ceiling(eps, mode, name):
    # no arcs: the peel keeps no vertex, so the set falls back to a singleton
    D = LabelledDigraph(3, [], vertex_labels=(0, 1, 2))
    result = find_kd_connected_set(D, 1, eps, mode=mode)
    assert result.diameter_bound == math.ceil(_by_name(threshold_table(eps), name).value)


def test_table_pin_budget_growth():
    reports = threshold_table(0.1, k1=1)
    assert _by_name(reports, "pin_budget_growth").value == 300


def test_initial_pin_budget_verbatim_can_be_below_one():
    # evaluated verbatim; flagged feasible precisely because it is tiny
    reports = threshold_table(Fraction(1, 10))
    rep = _by_name(reports, "initial_pin_budget")
    assert rep.exact
    assert rep.value == Fraction(1, 10**80)
    assert rep.value < 1


def test_monotone_in_eps():
    names = (
        "edge_disjoint_guarantee_threshold",
        "connected_set_diameter",
        "rainbow_connected_set_diameter",
    )
    eps_grid = [Fraction(1, d) for d in (1, 2, 4, 5, 8, 10)]
    for name in names:
        values = []
        for eps in eps_grid:
            rep = _by_name(threshold_table(eps, m=1, k=1, k1=1), name)
            values.append(rep.log10)
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_feasibility_flag_boundary():
    rep = _by_name(threshold_table(Fraction(1, 10), m=1), "two_hop_degree_threshold")
    assert rep.value == 900
    assert rep.feasible_at_desk_scale
    assert DESK_SCALE_LIMIT == 10**6


@pytest.mark.parametrize(
    "params, message",
    [
        ({"m": 0}, "m must be at least 1, got 0"),
        ({"m": -3}, "m must be at least 1, got -3"),
        ({"k": 0}, "k must be at least 1, got 0"),
        ({"k1": 0}, "k1 must be positive, got 0"),
        ({"k1": Fraction(-1, 2)}, "k1 must be positive, got -1/2"),
    ],
)
def test_table_names_a_parameter_outside_its_domain(params, message):
    with pytest.raises(DomainError) as info:
        threshold_table(Fraction(1, 2), **params)
    assert str(info.value) == message


@pytest.mark.parametrize("eps", [Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), 1])
def test_table_logs_are_finite_at_the_domains_edges(eps):
    for rep in threshold_table(eps, m=1, k=1, k1=Fraction(1, 10**9)):
        assert math.isfinite(rep.log10), rep.name
