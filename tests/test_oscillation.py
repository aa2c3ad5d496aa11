"""Oscillatory amplitude series: constants, certified truncation, supremum scan."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    beta_by_quadrature,
    choose_truncation_by_bisection,
    pde_residual,
    phi_reference,
    stationary_phase_leading,
    u_series,
)
from stripgaps import oscillation
from stripgaps.oscillation import (
    MAX_HARMONIC_INDEX,
    MAX_HARMONICS,
    PhiEvaluation,
    PhiSupResult,
    TAIL_ROUTES,
    critical_constants,
    cutoff_bound,
    phi_p,
    phi_sup,
    tail_bound,
    truncation_length,
    uniform_lower_bound_check,
    zeta_three_halves,
)


# ---------------------------------------------------------------------------
# certified constants
# ---------------------------------------------------------------------------

def test_zeta_three_halves_matches_reference():
    # reference digits from the Dirichlet series, summed far past convergence
    assert zeta_three_halves() == pytest.approx(2.612375348685488, abs=1e-12)


def test_constants_satisfy_their_defining_relations():
    cc = critical_constants()
    s3 = 3.0 ** 1.5
    assert abs(s3 * cc.c2 ** 3 + 3.0 * cc.c2 ** 2 + s3 * cc.c2 - 1.0) <= 1e-10
    assert cc.c1 == pytest.approx(cc.c2 / math.sqrt(cc.c2 ** 2 + 1.0), rel=1e-14)
    assert cc.xi_critical == pytest.approx(
        (cc.c1 / (2.0 * cc.zeta32)) ** (2.0 / 3.0), rel=1e-14)


def test_constants_reference_values():
    cc = critical_constants()
    assert cc.c2 == pytest.approx(0.1706634362, abs=1e-9)
    assert cc.c1 == pytest.approx(0.1682310706, abs=1e-9)
    assert cc.xi_critical == pytest.approx(0.1012108543, abs=1e-9)
    assert cc.beta_quarter_half == pytest.approx(5.2441151086, abs=1e-9)


def test_beta_matches_direct_quadrature():
    # the Gamma-function value against an independent route
    assert abs(critical_constants().beta_quarter_half - beta_by_quadrature()) <= 1e-8


def test_c1_is_the_minimax_value_on_a_fine_grid():
    # independent check: min over z of max(|sin z|, 3^(-3/2) |cos 3z|)
    cc = critical_constants()
    best = min(
        max(abs(math.sin(z)), 3.0 ** -1.5 * abs(math.cos(3.0 * z)))
        for z in (i * math.pi / 200000 for i in range(200001))
    )
    assert best == pytest.approx(cc.c1, abs=1e-6)


def test_c0_vanishes_at_the_critical_ratio_and_flips_sign():
    cc = critical_constants()
    assert abs(cc.c0(cc.xi_critical)) < 1e-14
    assert cc.c0(0.05) == pytest.approx(0.6991140740687283, rel=1e-12)
    assert cc.c0(0.05) > 0 > cc.c0(0.2)
    with pytest.raises(ValueError):
        cc.c0(0.0)


# ---------------------------------------------------------------------------
# truncation machinery
# ---------------------------------------------------------------------------

def test_truncation_length_is_minimal(monkeypatch):
    for xi, tol in [(0.5, 1e-2), (0.05, 1e-3), (0.9, 5e-3)]:
        n = truncation_length(xi, tol)
        assert tail_bound(xi, n) <= tol
        if n > 1:
            assert tail_bound(xi, n - 1) > tol
    assert tail_bound(0.5, 4) == pytest.approx(
        4.0 * math.sqrt(0.5) / (math.pi * 2.0), rel=1e-14)
    with pytest.raises(ValueError):
        truncation_length(0.5, 0.0)
    # phi_p's cut is the least any route certifies: one term fewer is refused
    for xi, ell, p, tol in [(0.5, 1.3, 1, 1e-2), (0.05, 57.3512, 3, 1e-3),
                            (0.05, 49.0, 2, 1e-3), (0.9, 7.7, 2, 5e-3)]:
        n = phi_p(xi, ell, p, tol=tol).truncation_n
        monkeypatch.setattr(oscillation, "MAX_TERMS", n - 1)
        with pytest.raises(ValueError, match="ceiling"):
            phi_p(xi, ell, p, tol=tol)
        monkeypatch.undo()


def test_phi_rejects_bad_inputs(monkeypatch):
    xi = 0.5
    with pytest.raises(ValueError):
        phi_p(xi, 0.0, 1)
    with pytest.raises(ValueError):
        phi_p(xi, 1.0, 0)
    with pytest.raises(ValueError):
        phi_p(xi, 1.0, 1, tol=0.0)
    # a tolerance whose certified cut exceeds the cost ceiling is refused
    monkeypatch.setattr(oscillation, "MAX_TERMS", 10 ** 6)
    with pytest.raises(ValueError, match="ceiling"):
        phi_p(xi, 1.0, 1, tol=1e-9)
    monkeypatch.undo()
    # far beyond float64 resolution of the phase: refused, not a wrong number
    with pytest.raises(ValueError, match="floating-point error"):
        phi_p(0.05, 1e300, 1)


def test_harmonic_indices_past_float_range_are_refused_and_nothing_overflows(monkeypatch):
    # from p = 2^512 on p^2 is beyond float range, and the bound that
    # overflowed first used to decide the error; now p >= 2^511 is refused
    # before any search, naming p and xi
    assert phi_p(0.05, 2.7, MAX_HARMONIC_INDEX - 1, tol=3.0).route == "fallback"
    for p in (MAX_HARMONIC_INDEX, 10 ** 160):
        with pytest.raises(ValueError, match=rf"harmonic index {p} at xi = 0.05 .* 2\^511"):
            phi_p(0.05, 2.7, p, tol=3.0)
    # below the ceiling every request is answered or refused with ValueError,
    # never OverflowError (cuts are held short: the search is what overflowed)
    monkeypatch.setattr(oscillation, "MAX_TERMS", 1 << 12)
    harmonics = [int(10.0 ** e) for e in range(0, 301, 10)] + [MAX_HARMONIC_INDEX - 1]
    for xi in [10.0 ** e for e in range(-6, 7)] + [0.05]:
        for ell, tol, p in itertools.product((2.7, 49.0, 59.216, 1e6), (1e-9, 1e-4, 3.0),
                                             harmonics):
            try:
                phi_p(xi, ell, p, tol)
            except ValueError:
                pass


@given(
    xi=st.floats(min_value=0.05, max_value=0.9),
    ell=st.floats(min_value=0.1, max_value=50.0),
    p=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_truncation_certificate_controls_refinement(xi, ell, p):
    # two certified evaluations differ by at most the sum of their tails
    coarse = phi_p(xi, ell, p, tol=5e-2)
    fine = phi_p(xi, ell, p, tol=5e-4)
    assert abs(coarse.value - fine.value) <= coarse.tail_bound + fine.tail_bound


def _near(xi, m, delta):
    """An energy with ell^(1/2)/xi = m + delta."""
    return ((m + delta) * xi) ** 2


# (xi, ell, p, route the default tolerance takes).  Exact resonance means
# ell^(1/2)/xi an integer (square ell at xi = 0.02, 0.05); near resonance
# puts it 1e-9 to 1e-3 off an integer; p reaches 3 ell^(1/2).
_ROUTE_CASES = [
    (0.05, 57.3512, 3, "non-resonant"),
    (0.09, 4.0, 4, "non-resonant"),
    (0.3, 100.0, 30, "non-resonant"),
    (0.02, 53.2353, 21, "non-resonant"),
    (0.02, 1.0, 3, "resonant"),
    (0.02, 25.0, 15, "resonant"),
    (0.05, 49.0, 1, "resonant"),
    (0.05, 100.0, 30, "resonant"),
    (0.05, _near(0.05, 140, 1e-9), 1, "resonant"),
    (0.09, _near(0.09, 50, -1e-9), 2, "resonant"),
    (0.02, _near(0.02, 300, 1e-3), 18, "non-resonant"),
    (0.09, _near(0.09, 50, -1e-3), 3, "non-resonant"),
    (0.02, _near(0.02, 300, 3e-8), 1, "fallback"),
]
_REFERENCE_N = 2_000_000


@pytest.mark.parametrize("xi, ell, p, route", _ROUTE_CASES)
def test_every_route_agrees_with_a_long_reference_sum(xi, ell, p, route):
    # the reference is the plain sum to 2e6 terms with the oscillation-blind
    # tail, independent of the routes under test
    ev = phi_p(xi, ell, p, tol=1e-4)
    assert ev.route == route
    assert ev.tail_bound <= 1e-4
    value, bound = phi_reference(xi, ell, p, _REFERENCE_N)
    assert abs(ev.value - value) <= ev.tail_bound + bound
    if route != "fallback":
        assert ev.truncation_n < truncation_length(xi, 1e-4)


@pytest.mark.parametrize("xi, ell, p", [
    (0.05, 57.3512, 3), (0.3, 100.0, 30), (0.02, 53.2353, 21),
    (0.02, 25.0, 15), (0.05, 49.0, 1), (0.05, 100.0, 30),
])
def test_routes_agree_with_a_tighter_evaluation(xi, ell, p):
    # a sharper check than the long sum allows: 1e-4 against 2e-6, away from
    # near resonance (where 2e-6 would need more than the ceiling)
    coarse = phi_p(xi, ell, p, tol=1e-4)
    fine = phi_p(xi, ell, p, tol=2e-6)
    assert fine.tail_bound <= 2e-6
    assert abs(coarse.value - fine.value) <= coarse.tail_bound + fine.tail_bound


def test_routes_are_recorded_and_validated():
    xi = 0.5
    assert phi_p(xi, 1.0, 1).route in TAIL_ROUTES
    with pytest.raises(ValueError, match="route"):
        PhiEvaluation(p=1, ell=1.3, value=0.0, tail_bound=1.0, truncation_n=1, route="exact")


# ---------------------------------------------------------------------------
# the cut search: closed-form floors, one search, warm start
# ---------------------------------------------------------------------------

_ROUTE_BOUNDS = {
    "fallback": lambda xi, ell, p: lambda n: tail_bound(xi, n),
    "non-resonant": lambda xi, ell, p: lambda n: oscillation._non_resonant_tail(xi, ell, p, n),
    "resonant": lambda xi, ell, p: lambda n: oscillation._resonant_tail(xi, ell, p, n),
}


def _grid_energies(xi):
    """Generic energies, squares (k xi)^2 (ell^(1/2)/xi = k) and energies
    1e-12 to 1e-3 relative off those squares, on both sides."""
    squares = [(k * xi) ** 2 for k in (round(2.0 / xi), round(7.0 / xi))]
    return [2.7182, 57.3512] + [square * (1.0 + sign * rel) for square in squares
                                for rel in (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
                                for sign in ((1,) if rel == 0.0 else (1, -1))]


@pytest.mark.parametrize("xi", (0.005, 0.02, 0.05, 0.09, 0.3, 0.9))
def test_the_cut_equals_the_bisection_searchs(xi):
    # the floors and the warm start change the cost of the search, never its
    # answer: (N, route, bound) equal the bisection oracle's, for the budget
    # and for the smaller budget of phi_p's rounding re-search
    for ell in _grid_energies(xi):
        for p in (1, 2, 5, 13, 30):
            for tol in (5e-5, 1e-4, 5e-4, 1e-2):
                case = (xi, ell, p, tol)
                first = oscillation._choose_truncation(xi, ell, p, tol)
                assert first == choose_truncation_by_bisection(xi, ell, p, tol), case
                budget = tol - oscillation._rounding_bound(xi, ell, p, 2 * first[0])
                again = oscillation._choose_truncation(xi, ell, p, budget, first[:2])
                assert again == choose_truncation_by_bisection(xi, ell, p, budget), case


# inputs whose rounding re-search moves the cut, one per route; the cut of
# the first search is below the final one
_RESEARCH_CASES = [
    (0.005, 318.80102531880107, 1, 5e-4, "fallback"),
    (0.02, 5282.382400000001, 13, 5e-5, "resonant"),
    (0.09, 39668.72856868889, 2, 5e-5, "non-resonant"),
    (0.3, 617325.1073244899, 2, 1e-4, "non-resonant"),
]


@pytest.mark.parametrize("xi, ell, p, tol, route", _RESEARCH_CASES)
def test_phi_p_after_a_moved_cut_equals_the_bisection_searchs(xi, ell, p, tol, route,
                                                              monkeypatch):
    ev = phi_p(xi, ell, p, tol)
    assert ev.route == route
    assert ev.truncation_n > oscillation._choose_truncation(xi, ell, p, tol)[0]
    monkeypatch.setattr(oscillation, "_choose_truncation",
                        lambda xi, ell, p, budget, previous=None:
                        choose_truncation_by_bisection(xi, ell, p, budget))
    assert phi_p(xi, ell, p, tol) == ev


_PREMISE_INPUTS = dict(
    xi=st.floats(min_value=0.005, max_value=0.9),
    m=st.integers(min_value=1, max_value=400),
    delta=st.sampled_from((0.0, 1e-12, -1e-9, 1e-6, -1e-3, 0.31)),
    p=st.integers(min_value=1, max_value=30),
)


@given(**_PREMISE_INPUTS)
@settings(max_examples=40, deadline=None)
def test_route_bounds_are_non_increasing_in_the_cut(xi, m, delta, p):
    # the premise of the search: a least certifying N exists for every budget
    ell = _near(xi, m, delta)
    for route, make in _ROUTE_BOUNDS.items():
        bound = make(xi, ell, p)
        values = [bound(n) for n in range(1, 4097)]
        assert all(a >= b for a, b in zip(values, values[1:])), route


@given(**_PREMISE_INPUTS, budget=st.floats(min_value=-6.0, max_value=-1.0).map(
    lambda e: 10.0 ** e))
@settings(max_examples=200, deadline=None)
def test_each_floor_is_at_or_below_its_least_cut(xi, m, delta, p, budget):
    ell = _near(xi, m, delta)
    floors = {"fallback": oscillation._fallback_floor(xi, budget),
              "non-resonant": oscillation._non_resonant_floor(xi, ell, p, budget),
              "resonant": oscillation._resonant_floor(xi, ell, p, budget)}
    for route, floor in floors.items():
        bound = _ROUTE_BOUNDS[route](xi, ell, p)
        if floor is None:
            assert all(bound(n) > budget for n in (1, 2, 16, 4096, 1 << 20, 1 << 28)), route
        elif floor > 1:
            assert bound(floor - 1) > budget, route


# one call per route, at the workload's tolerances
_COST_CASES = [
    (0.05, 59.216, 1, 2e-4, "non-resonant"),
    (0.05, 49.0, 2, 2e-4, "resonant"),
    (0.05, 49.0001, 1, 1e-2, "fallback"),
]


def test_each_phi_p_call_makes_few_route_bound_evaluations(monkeypatch):
    # bisecting every route over [1, N_fallback], twice per call, took about 51
    count = [0]
    for name in ("tail_bound", "_non_resonant_tail", "_resonant_tail"):
        def counted(*args, bound=getattr(oscillation, name)):
            count[0] += 1
            return bound(*args)
        monkeypatch.setattr(oscillation, name, counted)
    for xi, ell, p, tol, route in _COST_CASES:
        count[0] = 0
        assert phi_p(xi, ell, p, tol).route == route
        assert count[0] <= 12, (xi, ell, p, tol, count[0])


# ---------------------------------------------------------------------------
# cutoff envelope and the supremum scan
# ---------------------------------------------------------------------------

def test_cutoff_bound_decreases_and_dominates_sampled_harmonics():
    xi = 0.3
    values = [cutoff_bound(0.3, p) for p in range(1, 12)]
    assert values == sorted(values, reverse=True)
    for p in (1, 2, 5, 11):
        ev = phi_p(xi, 7.3, p, tol=1e-3)
        assert abs(ev.value) - ev.tail_bound <= cutoff_bound(0.3, p)
    with pytest.raises(ValueError):
        cutoff_bound(0.3, 0)


def _full_scan(xi, ell, tol, cutoff_c1=3.0):
    """Every harmonic of phi_sup's range at tol: (p_star, sup, {p: |phi_p|})."""
    p_max = max(3, math.ceil(cutoff_c1 * math.sqrt(ell)))
    values = {q: abs(phi_p(xi, ell, q, tol).value) for q in range(1, p_max + 1)}
    best = max(values.values())
    return min(q for q, v in values.items() if v == best), best, values


def _recording_phi_p(monkeypatch):
    """Record (p, tol) of every phi_p call phi_sup makes."""
    calls = []

    def record(xi, ell, p, tol=1e-4, **kwargs):
        calls.append((p, tol))
        return phi_p(xi, ell, p, tol, **kwargs)
    monkeypatch.setattr(oscillation, "phi_p", record)
    return calls


# the resonant route is taken at perfect squares, where ell^(1/2)/xi is an
# integer for xi = 0.02, 0.05, 0.1 and 0.5
_SCAN_RATIOS = (0.02, 0.05, 0.09, 0.1, 0.5)
_SCAN_ENERGIES = (1.0, 2.7, 4.0, 10.0, 49.0, 57.3, 81.0, 100.0)


def test_sup_scan_matches_brute_force_over_the_candidate_range():
    for xi in _SCAN_RATIOS:
        for ell in _SCAN_ENERGIES:
            res = phi_sup(xi, ell)
            p_star, best, values = _full_scan(xi, ell, 1e-4)
            assert (res.p_star, res.value) == (p_star, best), (xi, ell)
            assert res.p_max == max(values)
            assert res.cutoff_bound == cutoff_bound(xi, res.p_max)


@given(xi=st.sampled_from(_SCAN_RATIOS),
       ell=st.one_of(st.floats(min_value=0.05, max_value=120.0),
                     st.integers(min_value=1, max_value=10).map(lambda k: float(k * k))),
       tol=st.sampled_from((1e-3, 3e-4)))
@settings(max_examples=60, deadline=None)
def test_sup_scan_equals_the_full_fine_scan_property(xi, ell, tol):
    res = phi_sup(xi, ell, tol=tol)
    p_star, best, _ = _full_scan(xi, ell, tol)
    assert (res.p_star, res.value) == (p_star, best)


@pytest.mark.parametrize("xi", _SCAN_RATIOS)
def test_sup_scan_skips_only_harmonics_its_envelope_dominates(xi, monkeypatch):
    calls = _recording_phi_p(monkeypatch)
    for ell in _SCAN_ENERGIES:
        calls.clear()
        res = phi_sup(xi, ell)
        visited = {p for p, _ in calls}
        assert visited == set(range(1, len(visited) + 1))  # a prefix of 1..p_max
        for q in range(1, res.p_max + 1):
            ev = phi_p(xi, ell, q, tol=1e-4)
            # the envelope bounds every evaluated value, visited or not
            assert abs(ev.value) <= cutoff_bound(xi, q) + ev.tail_bound
            if q not in visited:
                assert cutoff_bound(xi, q) + 1e-4 < res.value
                assert abs(ev.value) < res.value


@pytest.mark.parametrize("tol", (1e-3, 2e-4, 1e-4))
def test_sup_scan_evaluates_each_harmonic_once_at_tol(tol, monkeypatch):
    calls = _recording_phi_p(monkeypatch)
    for xi in (0.05, 0.5):
        for ell in (2.7, 49.0):
            calls.clear()
            phi_sup(xi, ell, tol=tol)
            assert calls and all(t == tol for _, t in calls)
            ps = [p for p, _ in calls]
            assert ps == sorted(set(ps))


def test_sup_scan_ties_resolve_to_the_smallest_harmonic(monkeypatch):
    # equal values everywhere: the envelope at xi = 0.5 keeps p = 2, 3 in play
    monkeypatch.setattr(oscillation, "phi_p", lambda xi, ell, p, tol: PhiEvaluation(
        p=p, ell=ell, value=-1.0, tail_bound=0.0, truncation_n=0, route="fallback"))
    res = phi_sup(0.5, 1.0)
    assert (res.p_star, res.value) == (1, 1.0)


# phi_p calls of the envelope scan on the criterion-05 grid when it was
# written; the guard allows three times as many
_CRITERION_05_CALLS = {0.02: 136, 0.05: 164, 0.09: 233}


@pytest.mark.parametrize("xi", sorted(_CRITERION_05_CALLS))
def test_sup_scan_cost_on_the_criterion_05_grid(xi, monkeypatch):
    calls = _recording_phi_p(monkeypatch)
    for ell in np.linspace(1.0, 100.0, 100):
        phi_sup(xi, float(ell), tol=1e-4)
    assert len(calls) <= 3 * _CRITERION_05_CALLS[xi]


def test_sup_scan_is_stable_under_tolerance_refinement():
    xi = 0.05
    a = phi_sup(xi, 10.0, tol=1e-3)
    b = phi_sup(xi, 10.0, tol=1e-4)
    assert abs(a.value - b.value) <= 1e-3 + 1e-4


def test_sup_scan_rejects_bad_inputs():
    xi = 0.5
    with pytest.raises(ValueError):
        phi_sup(xi, 0.0)
    with pytest.raises(ValueError):
        phi_sup(xi, 1.0, cutoff_c1=0.0)
    # the harmonic count is refused before any evaluation
    ell = (MAX_HARMONICS / 3.0 + 1.0) ** 2
    with pytest.raises(ValueError, match=f"ceiling of {MAX_HARMONICS} harmonics"):
        phi_sup(xi, ell)


# ---------------------------------------------------------------------------
# uniform lower bound in the small-ratio regime
# ---------------------------------------------------------------------------

def test_uniform_bound_holds_on_a_small_grid():
    xi = 0.05
    report = uniform_lower_bound_check(xi, [1.0, 2.7, 10.0], tol=1e-3)
    assert report.all_ok
    assert report.c0 == pytest.approx(0.6991140740687283, rel=1e-12)
    assert len(report.rows) == 3
    for row, ell in zip(report.rows, [1.0, 2.7, 10.0]):
        assert row.ell == ell
        assert row.ok and row.margin >= 0.0
        assert row.value >= report.c0 - 2e-3


@pytest.mark.parametrize("target, ok", [
    (-1e-15, False),  # negative margin
    (0.0, False),     # zero margin
    (1e-14, False),   # positive only within rounding
    (1e-9, True),     # clear of the slack
])
def test_uniform_bound_margin_positive_only_within_rounding_is_declined(
        monkeypatch, target, ok):
    xi = 0.05
    c0 = critical_constants().c0(xi)
    sup = PhiSupResult(p_star=1, value=c0 - 2e-3 + target * c0, p_max=1, cutoff_bound=0.0)
    monkeypatch.setattr(oscillation, "phi_sup", lambda *args, **kwargs: sup)
    report = uniform_lower_bound_check(xi, [2.0], tol=1e-3)
    assert report.rows[0].margin == pytest.approx(target * c0, abs=1e-16)
    assert report.rows[0].ok is ok and report.all_ok is ok


def test_uniform_bound_rejects_out_of_regime_inputs(monkeypatch):
    # at or above the critical ratio the verdict is not-applicable, with the
    # excess xi - xi_critical, and no harmonic is evaluated (nor the grid read)
    monkeypatch.setattr(oscillation, "phi_sup", None)
    xi_critical = critical_constants().xi_critical
    for xi in (0.2, xi_critical):
        report = uniform_lower_bound_check(xi, [0.5])
        assert report == (None, None, [], False, xi - xi_critical)
    assert report.xi_excess == 0.0
    monkeypatch.undo()
    assert uniform_lower_bound_check(0.05, [1.0], tol=1e-2).xi_excess == 0.05 - xi_critical
    with pytest.raises(ValueError):
        uniform_lower_bound_check(0.05, [])
    with pytest.raises(ValueError):
        uniform_lower_bound_check(0.05, [0.5])


def test_uniform_bound_refuses_a_threshold_that_certifies_nothing(monkeypatch):
    # c0 - 2 tol <= 0 holds for every value: refused before any harmonic is
    # evaluated, naming tol, c0 and the threshold
    xi = 0.05
    c0 = critical_constants().c0(0.05)
    monkeypatch.setattr(oscillation, "phi_sup", None)
    for tol in (c0 / 2.0, 0.4, 1e300, 1e308):
        with pytest.raises(ValueError) as info:
            uniform_lower_bound_check(xi, [1.0], tol=tol)
        assert str(info.value).startswith(
            f"tol {tol} leaves no certificate: the threshold c0 - 2 tol = "
            f"{c0 - 2.0 * tol:.6g} with c0 = 0.699114 is not positive")
    monkeypatch.undo()
    report = uniform_lower_bound_check(xi, [1.0], tol=0.34)
    assert report.threshold == c0 - 0.68 and report.all_ok


# ---------------------------------------------------------------------------
# oracles: stationary phase and the characteristic equation
# ---------------------------------------------------------------------------

def test_stationary_phase_leading_example():
    # p = 1, ell = 1/16: sin(pi/2) / (1/2) scaled by 1/pi
    assert stationary_phase_leading(1.0 / 16.0, 1) == pytest.approx(
        2.0 / math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        stationary_phase_leading(0.0, 1)
    with pytest.raises(ValueError):
        stationary_phase_leading(1.0, 0)


def test_u_series_small_truncations_by_hand():
    assert u_series(math.pi, 1.0, 0) == pytest.approx(
        math.sqrt(2.0) / 2.0, rel=1e-14)
    s1 = math.sqrt(2.0)
    expected = math.sqrt(2.0) / 2.0 + 2.0 * math.sin(math.pi * s1 - math.pi / 4.0) / s1 ** 1.5
    assert u_series(math.pi, 1.0, 1) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        u_series(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        u_series(1.0, 1.0, -1)


@given(
    l=st.floats(min_value=0.1, max_value=20.0),
    mu=st.floats(min_value=0.1, max_value=20.0),
)
@settings(max_examples=100, deadline=None)
def test_characteristic_equation_holds_termwise(l, mu):
    assert abs(pde_residual(l, mu, 100)) <= 1e-12


def test_numeric_residual_shrinks_like_the_stencil_order():
    # the finite-difference residual is pure O(h^2) stencil error, so halving
    # h must shrink it by nearly 4
    coarse = pde_residual(2.0, 1.5, 20, h=4e-3, mode="numeric")
    fine = pde_residual(2.0, 1.5, 20, h=2e-3, mode="numeric")
    assert coarse / fine >= 3.8
    assert fine > abs(pde_residual(2.0, 1.5, 20))


def test_pde_residual_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pde_residual(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        pde_residual(1.0, 1.0, -1)
    with pytest.raises(ValueError):
        pde_residual(1.0, 1.0, 4, mode="spectral")
    with pytest.raises(ValueError):
        pde_residual(1.0, 1.0, 4, h=0.0, mode="numeric")
