"""Geometry resolution and parameter validation."""

import math

import pytest
from hypothesis import given, strategies as st

from stripgaps.geometry import StripGeometry, resolve_geometry, validate_ell, validate_tau


def test_xi_is_aspect_ratio():
    geom = StripGeometry(T=0.7, d=3.5)
    assert geom.xi == pytest.approx(0.2, rel=1e-15)


def test_scaled_energy_round_trip():
    geom = StripGeometry(T=2.0, d=5.0)
    energy = geom.energy_from_scaled(1.3)
    assert energy == pytest.approx(math.pi ** 2 * 1.3 / 4.0, rel=1e-15)
    assert geom.scaled_from_energy(energy) == pytest.approx(1.3, rel=1e-15)


@pytest.mark.parametrize("T, d", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                  (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan)])
def test_degenerate_strip_rejected(T, d):
    with pytest.raises(ValueError):
        StripGeometry(T=T, d=d)


@pytest.mark.parametrize("T, d, name", [(1e-170, 1.0, "T"), (1e-160, 1.0, "T"),
                                        (2e-154, 1.0, "T"), (1.0, 1e-160, "d"),
                                        (1.0, 5e-324, "d")])
def test_tiny_length_scales_rejected(T, d, name):
    # the square underflows below the smallest normal float, or pi^2 over it
    # overflows: every energy would be 0, inf or nan
    with pytest.raises(ValueError, match=f"energy scale pi\\^2/{name}\\^2"):
        StripGeometry(T=T, d=d)


def test_smallest_length_scales_keep_a_finite_energy_scale():
    for T, d in [(2.4e-154, 1.0), (1.0, 2.4e-154), (1e-150, 1e-150)]:
        geom = StripGeometry(T=T, d=d)
        assert math.isfinite(geom.energy_from_scaled(1.0))


def test_resolve_from_xi_only_defaults_unit_width():
    geom = resolve_geometry(xi=0.05)
    assert geom.d == 1.0
    assert geom.T == pytest.approx(0.05, rel=1e-15)


def test_resolve_from_any_two():
    assert resolve_geometry(xi=0.5, d=2.0) == StripGeometry(T=1.0, d=2.0)
    assert resolve_geometry(xi=0.5, T=1.0) == StripGeometry(T=1.0, d=2.0)
    assert resolve_geometry(T=1.0, d=2.0) == StripGeometry(T=1.0, d=2.0)


def test_resolve_consistent_triple_accepted():
    geom = resolve_geometry(xi=0.5, T=1.0, d=2.0)
    assert geom == StripGeometry(T=1.0, d=2.0)


def test_resolve_inconsistent_triple_rejected():
    with pytest.raises(ValueError, match="inconsistent"):
        resolve_geometry(xi=0.3, T=1.0, d=2.0)


def test_resolve_underdetermined_rejected():
    with pytest.raises(ValueError):
        resolve_geometry()
    with pytest.raises(ValueError):
        resolve_geometry(T=1.0)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_resolve_round_trips_through_xi(T, d):
    geom = StripGeometry(T=T, d=d)
    again = resolve_geometry(xi=geom.xi, d=d)
    assert again.T == pytest.approx(T, rel=1e-12)


def test_tau_validation_zone():
    assert validate_tau(0.5) == 0.5
    assert validate_tau(-0.49999) == -0.49999
    with pytest.raises(ValueError):
        validate_tau(-0.5)
    with pytest.raises(ValueError):
        validate_tau(0.7)


def test_ell_validation():
    assert validate_ell(0.0) == 0.0
    with pytest.raises(ValueError):
        validate_ell(-0.1)
    with pytest.raises(ValueError):
        validate_ell(math.inf)
