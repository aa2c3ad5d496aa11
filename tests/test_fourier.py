"""Fourier coefficients of the counting function and their certified bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    a0_increment_check,
    ap_exact_integral,
    ap_residual_check,
    counting_extremes_check,
)
from stripgaps.fourier import a0_closed, ap_closed, residual_bound
from stripgaps.oscillation import phi_p

ORACLE_RTOL = 1e-10


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_a0_small_case():
    xi = 0.5
    expected = 2.0 * (math.sqrt(1.05) + math.sqrt(0.30))
    assert a0_closed(xi, 1.3) == pytest.approx(expected, rel=1e-14)
    assert a0_closed(xi, 1.3) == pytest.approx(3.1448353, abs=5e-7)


def test_a0_empty_and_boundary():
    xi = 0.5
    assert a0_closed(xi, 0.2) == 0.0
    assert a0_closed(xi, 0.25) == 0.0


def test_ap_small_case():
    xi = 0.5
    expected = (math.sin(2.0 * math.pi * math.sqrt(1.05))
                + math.sin(2.0 * math.pi * math.sqrt(0.30))) / math.pi
    assert ap_closed(xi, 1.3, 1) == pytest.approx(expected, rel=1e-14)
    assert ap_closed(xi, 1.3, 1) == pytest.approx(-0.0448291, abs=5e-7)


def test_ap_empty_and_boundary():
    xi = 0.5
    assert ap_closed(xi, 0.2, 3) == 0.0
    assert ap_closed(1.0, 1.0, 1) == pytest.approx(0.0, abs=1e-15)


def test_ap_rejects_bad_harmonic():
    xi = 0.5
    with pytest.raises(ValueError):
        ap_closed(xi, 1.3, 0)


# ---------------------------------------------------------------------------
# exact-integration oracle
# ---------------------------------------------------------------------------

def test_integral_oracle_small_case():
    xi = 0.5
    assert ap_exact_integral(xi, 1.3, 0) == pytest.approx(
        a0_closed(xi, 1.3), rel=ORACLE_RTOL)
    assert ap_exact_integral(xi, 1.3, 1) == pytest.approx(
        ap_closed(xi, 1.3, 1), abs=ORACLE_RTOL)


def test_integral_oracle_empty_region():
    xi = 0.7
    for p in range(0, 4):
        assert ap_exact_integral(xi, 0.3, p) == 0.0


@given(
    xi=st.floats(min_value=0.02, max_value=0.9),
    ell=st.floats(min_value=0.0, max_value=100.0),
    p=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_integral_oracle_matches_closed_forms(xi, ell, p):
    closed = a0_closed(xi, ell) if p == 0 else ap_closed(xi, ell, p)
    integral = ap_exact_integral(xi, ell, p)
    assert abs(closed - integral) <= ORACLE_RTOL * max(1.0, abs(closed))


# ---------------------------------------------------------------------------
# growth bound of the mean
# ---------------------------------------------------------------------------

def test_mean_increment_degenerate_interval():
    xi = 0.5
    check = a0_increment_check(xi, 1.3, 1.3)
    assert check.lhs == 0.0
    assert check.rhs == 0.0
    assert check.holds


def test_mean_increment_small_and_wide_intervals():
    assert a0_increment_check(0.5, 1.3, 2.0).holds
    assert a0_increment_check(0.1, 1.0, 100.0).holds


def test_mean_increment_rejects_misordered_interval():
    xi = 0.5
    with pytest.raises(ValueError):
        a0_increment_check(xi, 2.0, 1.3)
    with pytest.raises(ValueError):
        a0_increment_check(xi, 0.1, 1.0)


@given(
    xi=st.floats(min_value=0.02, max_value=0.9),
    ell=st.floats(min_value=0.81, max_value=50.0),
    bump=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=300, deadline=None)
def test_mean_increment_bound_always_holds(xi, ell, bump):
    check = a0_increment_check(xi, ell, ell + bump)
    assert check.holds
    assert check.lhs >= -1e-12  # the mean is nondecreasing


# ---------------------------------------------------------------------------
# oscillation bounds on the counting extremes
# ---------------------------------------------------------------------------

def test_extremes_bound_small_case():
    xi = 0.5
    check = counting_extremes_check(xi, 1.3, 1)
    assert (check.sup_count, check.inf_count) == (4, 3)
    assert check.a0 == pytest.approx(3.1448353, abs=5e-7)
    assert check.ap_abs == pytest.approx(0.0448291, abs=5e-7)
    assert check.holds


def test_extremes_bound_empty_region():
    xi = 0.5
    check = counting_extremes_check(xi, 0.2, 1)
    assert (check.sup_count, check.inf_count, check.a0) == (0, 0, 0.0)
    assert check.holds


@given(
    xi=st.floats(min_value=0.05, max_value=0.9),
    ell=st.floats(min_value=0.0, max_value=30.0),
    p=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=300, deadline=None)
def test_extremes_bound_always_holds(xi, ell, p):
    assert counting_extremes_check(xi, ell, p).holds


# ---------------------------------------------------------------------------
# residual envelope
# ---------------------------------------------------------------------------

def test_residual_bound_floor_is_energy_independent():
    floor = math.sqrt(2.0) / 3.0 + 1.0 / (2.0 * math.pi)
    assert residual_bound(0.5, 1.0, 1) >= floor
    assert floor == pytest.approx(0.63056, abs=5e-5)


def test_residual_bound_decreases_in_harmonic():
    values = [residual_bound(0.05, 4.0, p) for p in range(1, 8)]
    assert values == sorted(values, reverse=True)


def test_residual_check_representative_points():
    for xi, ell, p in [(0.05, 4.0, 1), (0.05, 100.0, 2), (0.5, 1.0, 1)]:
        phi = phi_p(xi, ell, p, tol=1e-4)
        check = ap_residual_check(xi, ell, p, phi.value, phi.tail_bound)
        assert check.holds, (xi, ell, p, check)


def test_residual_check_rejects_bad_inputs():
    xi = 0.5
    with pytest.raises(ValueError):
        ap_residual_check(xi, 0.0, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        ap_residual_check(xi, 1.0, 0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ap_residual_check(xi, 1.0, 1, 0.0, -1.0)


# ---------------------------------------------------------------------------
# harmonics against the mean
# ---------------------------------------------------------------------------

@given(
    xi=st.floats(min_value=0.05, max_value=0.9),
    ell=st.floats(min_value=0.001, max_value=30.0),
    p=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_harmonic_is_bounded_by_the_mean(xi, ell, p):
    # N0 >= 0, so |a_p| <= a_0; in the closed forms row by row, since
    # |sin(2 pi p r)| / (pi p) <= 2 r
    a0 = a0_closed(xi, ell)
    assert abs(ap_closed(xi, ell, p)) <= a0 * (1.0 + 1e-12)
