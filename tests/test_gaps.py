"""Gap certification: thresholds, overlap bound, low-energy test, consolidated report."""

import contextlib
import dataclasses
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stripgaps.cli as cli
import stripgaps.gaps as gaps
import stripgaps.spectrum as spectrum
from oracles import (
    band_pairs_from_all_bands,
    certify_band_pairs,
    low_spectrum_no_gap,
    overlap_lower_bound,
    same_record,
)
from stripgaps.cli import main
from stripgaps.gaps import (
    OVERLAP_RTOL,
    GapParams,
    PerturbBounds,
    conditions_check,
    ell1_threshold,
    ell2_threshold,
    gap_report,
    gapless_margin,
    low_energy_budget,
)
from stripgaps.geometry import StripGeometry, resolve_geometry
from stripgaps.oscillation import critical_constants
from stripgaps.spectrum import band_edges, sample_bands

NO_PERTURBATION = PerturbBounds()


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def test_perturb_bounds_defaults_and_oscillation():
    assert NO_PERTURBATION.omega_minus == 0.0
    assert NO_PERTURBATION.omega_plus == 0.0
    assert NO_PERTURBATION.omega_L == 0.0
    b = PerturbBounds(omega_minus=-0.3, omega_plus=0.5)
    assert b.omega_L == pytest.approx(0.8, rel=1e-15)


def test_perturb_bounds_rejects_bad_values():
    with pytest.raises(ValueError):
        PerturbBounds(omega_minus=1.0, omega_plus=0.5)
    with pytest.raises(ValueError):
        PerturbBounds(omega_minus=math.inf, omega_plus=math.inf)
    # finite bounds whose difference overflows: omega_L would be inf
    with pytest.raises(ValueError, match="omega_minus=-1e.308, omega_plus=1e.308"):
        PerturbBounds(omega_minus=-1e308, omega_plus=1e308)


def test_gap_params_validation():
    GapParams(c0=0.7)
    GapParams(c0=0.7, gamma=0.2, ell0=3.0)
    with pytest.raises(ValueError):
        GapParams(c0=0.0)
    with pytest.raises(ValueError):
        GapParams(c0=0.7, gamma=0.25)
    with pytest.raises(ValueError):
        GapParams(c0=0.7, ell0=0.5)


def test_small_ratio_params_match_the_constants():
    cc = critical_constants()
    params = GapParams.from_small_ratio(0.05)
    assert params.c0 == pytest.approx(cc.c0(0.05), rel=1e-15)
    assert params.gamma == 0.0
    assert params.ell0 == 1.0
    with pytest.raises(ValueError):
        GapParams.from_small_ratio(0.2)
    with pytest.raises(ValueError):
        GapParams.from_small_ratio(cc.xi_critical * 1.000001)


# ---------------------------------------------------------------------------
# scalar conditions
# ---------------------------------------------------------------------------

def test_low_energy_budget_reference_value():
    assert low_energy_budget(0.1) == pytest.approx(0.0222512694, abs=1e-9)
    assert low_energy_budget(0.05) > 0.0


def test_gapless_margin_reference_values_and_flip():
    assert gapless_margin(0.03, 0.0) == pytest.approx(0.0315138058, abs=1e-9)
    assert gapless_margin(0.1, 0.0) == pytest.approx(-0.3787122943, abs=1e-9)
    # linear in the scaled oscillation w with slope -pi^2/(4 xi)
    drop = gapless_margin(0.03, 0.0) - gapless_margin(0.03, 0.1)
    assert drop == pytest.approx(math.pi ** 2 * 0.1 / (4.0 * 0.03), rel=1e-12)


def test_conditions_fully_gapless_at_small_ratio():
    verdict = conditions_check(0.03, NO_PERTURBATION)
    assert verdict.xi_subcritical
    assert verdict.low_energy_ok
    assert verdict.gapless_ok
    assert verdict.first_band_ok
    assert verdict.all_gapless


def test_conditions_partial_at_larger_ratio():
    verdict = conditions_check(0.1, NO_PERTURBATION)
    assert verdict.xi_subcritical and verdict.low_energy_ok
    assert not verdict.gapless_ok
    assert not verdict.all_gapless
    above = conditions_check(0.2, NO_PERTURBATION)
    assert not above.xi_subcritical


@pytest.mark.parametrize("target, certified", [
    (-1e-15, False),  # negative margin
    (0.0, False),     # zero margin, up to rounding
    (1e-14, False),   # positive only within rounding
    (1e-9, True),     # clear of the slack
])
def test_gapless_margin_positive_only_within_rounding_is_declined(target, certified):
    xi = 0.03
    c1 = critical_constants().c1
    # the margin falls with slope pi^2/(4 xi) in the scaled oscillation w:
    # land it on target * c1
    w = 4.0 * xi / math.pi ** 2 * (gapless_margin(xi, 0.0) - target * c1)
    verdict = conditions_check(xi, PerturbBounds(0.0, w))
    assert verdict.gapless_margin == pytest.approx(target * c1, abs=1e-16)
    assert verdict.gapless_ok is certified


def test_conditions_scaled_oscillation_bookkeeping():
    # the scaled bounds of omega = (-0.5, 0.5) at T = 2: w is their difference
    scale = 2.0 ** 2 / math.pi ** 2
    verdict = conditions_check(0.05, PerturbBounds(-0.5 * scale, 0.5 * scale))
    assert verdict.scaled_oscillation == pytest.approx(
        4.0 / math.pi ** 2 * 1.0, rel=1e-14)


# A budget above the first band height (omega_L = pi^2 at T = 1, the scaled
# oscillation omega_L/pi^2 = 1), or a crossing ratio that puts ell_star above
# 2/3: each breaks one of conditions_check's consistency checks.
_BROKEN_ARITHMETIC = [
    ("low_energy_budget", math.pi ** 2, "low-energy budget accepted"),
    ("_a_ratio", 0.0, "escaped its sandwich"),
]


@pytest.mark.parametrize("name, omega_L, message", _BROKEN_ARITHMETIC)
def test_conditions_consistency_checks_raise(monkeypatch, name, omega_L, message):
    monkeypatch.setattr(gaps, name, lambda xi: 10.0)
    with pytest.raises(AssertionError, match=message):
        conditions_check(0.05, PerturbBounds(0.0, omega_L / math.pi ** 2))


def test_conditions_consistency_checks_survive_python_optimize():
    probe = (
        "import math\n"
        "import stripgaps.gaps as gaps\n"
        "assert False, 'asserts are stripped under -O'\n"
        f"for name, omega_L, message in {_BROKEN_ARITHMETIC!r}:\n"
        "    saved = getattr(gaps, name)\n"
        "    setattr(gaps, name, lambda xi: 10.0)\n"
        "    try:\n"
        "        gaps.conditions_check(0.05, gaps.PerturbBounds(0.0, omega_L / math.pi ** 2))\n"
        "    except AssertionError as exc:\n"
        "        print(message in str(exc))\n"
        "    setattr(gaps, name, saved)\n")
    src = str(Path(gaps.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\nTrue\n", "")


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_ell_star_reference_value():
    assert conditions_check(0.1, NO_PERTURBATION).ell_star == pytest.approx(
        0.37763465727591716, rel=1e-12)


def test_ell_star_shifts_linearly_with_the_oscillation():
    base = conditions_check(0.1, NO_PERTURBATION).ell_star
    w = 0.05  # an energy at T = 1, the scaled w / pi^2
    shifted = conditions_check(0.1, PerturbBounds(0.0, w / math.pi ** 2)).ell_star
    assert shifted - base == pytest.approx(w / math.pi ** 2, rel=1e-12)


@given(xi=st.floats(min_value=0.02, max_value=0.101))
@settings(max_examples=200, deadline=None)
def test_ell_star_stays_in_its_sandwich(xi):
    value = conditions_check(xi, NO_PERTURBATION).ell_star
    assert 0.25 + xi * xi < value < 2.0 / 3.0


def test_ell2_threshold_reference_value_and_terms():
    params = GapParams(c0=0.699118)
    assert ell2_threshold(0.05, params) == pytest.approx(
        169.4112405453856, rel=1e-12)
    # the three competing terms, recomputed from scratch
    c0 = 0.699118
    t2 = ((4.0 * math.sqrt(2.0) * math.pi + 6.0) / (3.0 * math.pi * c0)) ** 4
    t3 = (math.sqrt(9.0 + 25.0 / (1024.0 * math.pi ** 2))
          / (8.0 * math.pi ** 2 * 0.05 * c0)) ** 2
    assert t2 == pytest.approx(169.4112405453856, rel=1e-12)
    assert t3 == pytest.approx(1.1817930133445782, rel=1e-12)
    assert ell2_threshold(0.05, params) == max(1.0, t2, t3)


def test_ell1_threshold_reference_value():
    params = GapParams(c0=0.699118)
    value = math.pi ** 2 * ell1_threshold(0.05, params, NO_PERTURBATION)  # energy at T = 1
    assert value == pytest.approx(1672.0219252807456, rel=1e-12)
    # the oscillation-free fourth term, (1/(2 c0) + 3 xi^2/(4 pi c0))^4,
    # stays dominated
    c0 = 0.699118
    t4 = (1.0 / (2.0 * c0) + 3.0 * 0.05 * 0.05 / (4.0 * math.pi * c0)) ** 4
    assert t4 == pytest.approx(0.2628757037815209, rel=1e-12)
    assert value == math.pi ** 2 * ell2_threshold(0.05, params) > math.pi ** 2 * t4


def test_ell1_threshold_shifts_with_omega_minus():
    params = GapParams(c0=0.699118)
    base = ell1_threshold(0.05, params, NO_PERTURBATION)
    w = 5.0 / math.pi ** 2  # omega = (5, 5) at T = 1, in scaled units
    shifted = ell1_threshold(0.05, params, PerturbBounds(omega_minus=w, omega_plus=w))
    assert shifted == pytest.approx(base + w, rel=1e-12)


def test_ell1_threshold_scales_like_inverse_fourth_power_of_c0():
    base = ell1_threshold(0.05, GapParams(c0=0.699118), NO_PERTURBATION)
    doubled = ell1_threshold(0.05, GapParams(c0=2 * 0.699118), NO_PERTURBATION)
    assert doubled / base == pytest.approx(2.0 ** -4, rel=1e-12)


@pytest.mark.parametrize("xi", [0.03, 0.05, 0.08])
@pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_ell1_fourth_term_reaches_the_overlap_bound(xi, T, gamma):
    # at ell1 the overlap lower bound is at least the scaled oscillation w,
    # whichever term of the maximum wins; where the fourth term wins it equals
    # w (the root), up to the rounding of the closed forms.  T sets the scaled
    # oscillations, w = (T^2/pi^2) omega_L.
    fourth_won = 0
    for c0 in (0.1, 0.5, 1.5):
        params = GapParams(c0=c0, gamma=gamma)
        for omega_L in (0.0, 1e-3, 1.0, 100.0, 1e4):
            w = T ** 2 / math.pi ** 2 * omega_L
            ell1 = ell1_threshold(xi, params, PerturbBounds(0.0, w))
            bound = overlap_lower_bound(xi, params, ell1)
            assert bound >= w * (1.0 - 1e-12), (c0, omega_L)
            if ell1 > ell2_threshold(xi, params):
                fourth_won += 1
                assert bound == pytest.approx(w, rel=1e-9, abs=1e-12), (c0, omega_L)
    assert fourth_won


# (xi, (omega_minus, omega_plus) at d = 1, params or None for the small-ratio
# constants, ell_max); the last two leave windows undecided
_UNIT_CASES = [
    (0.02, (0.0, 20.0), None, None),
    (0.03, (0.0, 0.02), None, 40.0),
    (0.09, (0.0, 100.0), None, 10.0),
    (0.3, (-1.0, 5.0), GapParams(c0=0.1, gamma=0.1, ell0=2.0), 20.0),
]


def _gaps_lines(argv, monkeypatch):
    """(status, {key: value}) of the gaps report, every float at full precision."""
    real = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda v: repr(v) if type(v) is float else real(v))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gaps", *argv])
    lines = out.getvalue().splitlines()
    return code, dict(line.split(" = ", 1) for line in lines if " = " in line)


# report lines in energy units (times 1/s^2), in units of length (times s),
# and the undecided windows (energies, as "(lo, hi)")
_ENERGY_LINES = ("omega_minus", "omega_plus", "omega_L", "ell1")
_LENGTH_LINES = ("T", "d")


@pytest.mark.parametrize("xi, omega, params, ell_max", _UNIT_CASES)
def test_no_verdict_depends_on_the_unit_of_length(monkeypatch, xi, omega, params, ell_max):
    # lengths times s and the perturbation times 1/s^2 is the operator times
    # 1/s^2: through the command, where units enter, the exit status and every
    # scaled line (the scaled oscillation, the flags, the margin, c0, ell_star,
    # the window counts and the verdict) are the same bits, and each energy
    # line is its d = 1 value over s^2, to one ulp (s a power of 2)
    flags = [] if ell_max is None else ["--ell-max", repr(ell_max)]
    if params is not None:
        flags += ["--c0", repr(params.c0), "--gamma", repr(params.gamma),
                  "--ell0", repr(params.ell0)]
    runs = {}
    for j in range(-4, 5):
        s = 2.0 ** j
        runs[s] = _gaps_lines(["--xi", repr(xi), "--d", repr(s), "--omega-minus",
                               repr(omega[0] / s ** 2), "--omega-plus",
                               repr(omega[1] / s ** 2), *flags], monkeypatch)
    code, one = runs[1.0]
    assert one["verdict"] in ("gapless-certified", "not-certified")
    windows = [key for key in one if key.startswith("undecided_window_")]
    assert (ell_max is None) == ("bands" not in one) and (len(windows) > 0) == (xi >= 0.09)
    for s, (status, lines) in runs.items():
        assert status == code and lines.keys() == one.keys(), s
        for key, value in lines.items():
            if key in _LENGTH_LINES:
                assert float(value) == s * float(one[key]), (s, key)
            elif key in _ENERGY_LINES or key in windows:
                for a, b in zip(value.strip("()").split(", "), one[key].strip("()").split(", ")):
                    assert abs(float(a) * s ** 2 - float(b)) <= math.ulp(float(b)), (s, key)
            else:
                assert value == one[key], (s, key)


@pytest.mark.parametrize("d, omega_plus, ell1", [
    ("1", "20", "32786.3154274"),
    ("2", "5", "8196.57885685"),
    ("4", "1.25", "2049.14471421"),
])
def test_gaps_command_declines_every_unit_of_a_declined_operator(d, omega_plus, ell1):
    # one scaled oscillation, 8.1e-4, in three units of length: each is
    # declined with the same margin, and ell1 is 32786.3154274 / d^2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gaps", "--xi", "0.02", "--d", d, "--omega-plus", omega_plus])
    lines = out.getvalue().splitlines()
    assert code == 2
    assert "gapless_margin = -0.0191212929832" in lines and "verdict = not-certified" in lines
    assert f"ell1 = {ell1}" in lines


# ---------------------------------------------------------------------------
# overlap lower bound
# ---------------------------------------------------------------------------

def test_overlap_bound_reference_value():
    params = GapParams(c0=0.699118)
    # from scratch: (xi^2/pi^2) (3 pi c0 ell^(1/4) - 3 pi/2 - 9 xi^2/4) at
    # ell = 1e4/pi^2, taken to energy by pi^2 (T = 1)
    ell = 1e4 / math.pi ** 2
    scratch = 0.05 ** 2 * (3.0 * math.pi * 0.699118 * ell ** 0.25 - 1.5 * math.pi
                           - 2.25 * 0.05 ** 2)
    assert scratch == pytest.approx(0.08114154439934047, rel=1e-12)
    energy = math.pi ** 2 * overlap_lower_bound(0.05, params, ell)
    assert energy == pytest.approx(scratch, rel=1e-12)


def test_overlap_bound_is_monotone_in_energy():
    params = GapParams(c0=0.699118)
    floor = ell2_threshold(0.05, params)
    # energies at T = 1
    values = [math.pi ** 2 * overlap_lower_bound(0.05, params, floor * s)
              for s in (1.0, 1.5, 2.0, 6.0)]
    assert values == sorted(values)
    assert values[0] == pytest.approx(0.04763379443062196, rel=1e-12)


def test_overlap_bound_rejects_energies_below_threshold():
    params = GapParams(c0=0.699118)
    with pytest.raises(ValueError, match="ell2=169.411"):
        overlap_lower_bound(0.05, params, 1000.0 / math.pi ** 2)


@pytest.mark.parametrize("xi, k_max", [(0.03, 2435), (0.05, 7323)])
def test_exact_unperturbed_overlaps_reach_the_overlap_bound(xi, k_max):
    # every band k < k_max from the bound's floor ell2 up: the exact V = 0
    # overlap theta0_k - eta0_{k+1} is at least the bound (about 133 and 121
    # times it at the least, at xi 0.03 and 0.05), all in scaled energy
    params = GapParams.from_small_ratio(xi)
    eta, theta = band_edges(xi, k_max)
    ks = np.flatnonzero(eta[:-1] >= ell2_threshold(xi, params))
    assert ks.size == 1999
    for k in ks.tolist():
        assert theta[k] - eta[k + 1] >= overlap_lower_bound(xi, params, eta[k]), k + 1


# ---------------------------------------------------------------------------
# low-energy counting test
# ---------------------------------------------------------------------------

def unperturbed_verdict(xi):
    return conditions_check(xi, NO_PERTURBATION)


def test_low_spectrum_below_the_crossing_threshold():
    check = low_spectrum_no_gap(0.1, unperturbed_verdict(0.1), 0.30)
    assert check.tau_max == 0.0
    assert check.tau_min == pytest.approx(1.0 - math.sqrt(0.30), rel=1e-15)
    assert (check.shifted_count, check.reference_count) == (5, 3)
    assert check.difference == 2
    assert check.positive


def test_low_spectrum_above_the_crossing_threshold():
    check = low_spectrum_no_gap(0.1, unperturbed_verdict(0.1), 0.5)
    assert check.tau_max == 0.5
    assert (check.shifted_count, check.reference_count) == (10, 6)
    assert check.difference == 4
    assert check.positive


def test_low_spectrum_rejects_out_of_window_energies():
    with pytest.raises(ValueError):
        low_spectrum_no_gap(0.1, unperturbed_verdict(0.1), 0.25 + 0.01)  # closed endpoint
    with pytest.raises(ValueError):
        low_spectrum_no_gap(0.1, unperturbed_verdict(0.1), 1.0)


def test_low_spectrum_rejects_out_of_regime_ratio():
    with pytest.raises(ValueError, match="subcritical"):
        low_spectrum_no_gap(0.2, unperturbed_verdict(0.2), 0.5)
    # over the low-energy budget at a subcritical ratio
    over = PerturbBounds(0.0, low_energy_budget(0.05))
    with pytest.raises(ValueError, match="low-energy budget"):
        low_spectrum_no_gap(0.05, conditions_check(0.05, over), 0.5)


def test_low_spectrum_rejects_a_verdict_of_another_ratio():
    with pytest.raises(ValueError, match="verdict at xi=0.05"):
        low_spectrum_no_gap(0.1, unperturbed_verdict(0.05), 0.5)


@given(
    xi=st.floats(min_value=0.02, max_value=0.1),
    frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    wfrac=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=300, deadline=None)
def test_low_spectrum_is_always_positive_in_regime(xi, frac, wfrac):
    lo = 0.25 + xi * xi
    ell = lo + frac * (1.0 - lo)
    w = wfrac * low_energy_budget(xi)
    verdict = conditions_check(xi, PerturbBounds(omega_minus=0.0, omega_plus=w))
    check = low_spectrum_no_gap(xi, verdict, ell)
    assert check.positive, check


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------

def assert_same_undecided_windows(report, windows):
    """The report has the windows' count and flags, and their (lo, hi,
    overlap) at every undecided window."""
    pairs, i = report.candidate_gaps, report.undecided
    assert len(pairs) == len(windows)
    assert np.array_equal(pairs.certified, windows.certified)
    assert np.array_equal(i, np.flatnonzero(~windows.certified))
    for name in ("lo", "hi", "overlap"):
        assert np.array_equal(getattr(pairs, name)[i], getattr(windows, name)[i]), name


def test_gap_report_unperturbed_certifies_every_overlapping_pair():
    # with zero oscillation every pair with positive overlap certifies; pairs
    # whose bands merely touch meet exactly (overlap 0.0), which equals
    # omega_L = 0 only within rounding, so they stay undecided
    report = gap_report(1.0, NO_PERTURBATION, GapParams(c0=0.7), ell_max=8.0)
    eta0, theta0 = band_edges(1.0, report.band_count)
    pairs = report.candidate_gaps
    assert pairs
    assert np.array_equal(pairs.certified, pairs.overlap > 0.0)
    assert np.all(pairs.certified | (pairs.overlap == 0.0))
    assert pairs.certified.any()
    assert np.array_equal(report.undecided, np.flatnonzero(~pairs.certified))
    # zero perturbation: an undecided window is the exact gap between the bands
    i = report.undecided
    assert np.array_equal(pairs.lo[i], theta0[i]) and np.array_equal(pairs.hi[i], eta0[i + 1])
    assert not report.conditions.xi_subcritical  # xi = 1 far above the regime


def test_gap_report_enclosures_shift_by_the_perturbation_bounds():
    # omega = (-0.25, 0.75) at T = 1, in scaled units
    w_minus, w_plus = -0.25 / math.pi ** 2, 0.75 / math.pi ** 2
    report = gap_report(1.0, PerturbBounds(w_minus, w_plus), GapParams(c0=0.7), ell_max=4.0)
    eta0, theta0 = band_edges(1.0, report.band_count)
    # the table covers the ceiling: one band more than sup_tau N0(4, tau)
    assert theta0[-1] >= 4.0
    pairs, i = report.candidate_gaps, report.undecided
    assert i.size
    assert np.array_equal(pairs.lo[i], theta0[i] + w_minus)
    assert np.array_equal(pairs.hi[i], eta0[i + 1] + w_plus)
    # a window certified from samples is an outer window
    k = len(pairs)
    assert np.all(pairs.lo <= theta0[:k] + w_minus) and np.all(pairs.hi >= eta0[1:k + 1] + w_plus)


def test_gap_report_certifies_exactly_the_wide_overlaps():
    eta0, theta0 = band_edges(1.0, 12)
    w_L = 2.0 / math.pi ** 2  # omega = (0, 2) at T = 1, in scaled units
    bounds = PerturbBounds(omega_minus=0.0, omega_plus=w_L)
    windows = certify_band_pairs(bounds, (eta0, theta0), ell_max=8.0)
    assert len(windows)
    # both branches: overlaps wider than w_L certify, the rest stay undecided
    assert windows.certified.any() and (~windows.certified).any()
    for i in range(len(windows)):
        below_hi, above_lo = theta0[i], eta0[i + 1]
        overlap = windows.overlap[i]
        assert overlap == pytest.approx(below_hi - above_lo, rel=1e-14)
        slack = OVERLAP_RTOL * max(1.0, below_hi, above_lo, w_L)
        assert windows.certified[i] == (overlap >= w_L + slack)
        assert windows.lo[i] == pytest.approx(below_hi + 0.0, rel=1e-14)
        assert windows.hi[i] == pytest.approx(above_lo + w_L, rel=1e-14)
    # the report finds the same windows, flags and undecided windows
    report = gap_report(1.0, bounds, GapParams(c0=0.7), ell_max=8.0)
    assert_same_undecided_windows(report, windows)


def test_gap_report_in_regime_makes_no_counting_call(monkeypatch):
    # the low-energy conclusion is the verdict low_energy_ok: the chain
    # evaluates no counting function for it (the counting test is the
    # oracle low_spectrum_no_gap)
    def refuse(*args):
        raise AssertionError("gap_report called spectrum.counting")

    monkeypatch.setattr(spectrum, "counting", refuse)
    monkeypatch.setattr(gaps, "counting", refuse, raising=False)  # a copy imported by name
    report = gap_report(0.1, NO_PERTURBATION, GapParams.from_small_ratio(0.1))
    assert report.conditions.xi_subcritical and report.conditions.low_energy_ok
    assert report.conditions.ell_star == pytest.approx(0.37763465727591716, rel=1e-12)
    # without a ceiling no band table is built
    assert report.band_count == 0 and len(report.candidate_gaps) == 0


@pytest.mark.parametrize("omega_L, certified", [
    (0.5, False),                # overlap == omega_L
    (0.5 * (1 - 1e-15), False),  # overlap above omega_L only within rounding
    (0.5 * (1 + 1e-15), False),  # overlap below omega_L
    (0.5 * (1 - 1e-9), True),    # clear of the slack
    (0.5 - 2e-11, False),        # within the slack, whose floor is 1 (scaled)
])
def test_gap_report_overlap_equal_to_omega_within_rounding_stays_undecided(omega_L, certified):
    # the bands and the oscillation over 8 (exact), in scaled energy: every
    # endpoint below 1, so the slack is OVERLAP_RTOL times its floor
    bands = ([0.125, 0.1875], [0.25, 0.375])  # eta0 and theta0 of bands 1 and 2
    windows = certify_band_pairs(PerturbBounds(0.0, omega_L / 8.0), bands, ell_max=0.2)
    assert len(windows) == 1 and windows.overlap[0] == 0.5 / 8.0
    assert windows.certified[0] == certified


def test_gap_report_validates_the_band_input(monkeypatch):
    # the report sizes its own table, failing closed above the band ceiling
    with pytest.raises(ValueError, match="ceiling"):
        gap_report(0.03, NO_PERTURBATION, GapParams.from_small_ratio(0.03), ell_max=1e9)
    # and refuses bands that do not reach the ceiling (counting_extremes is
    # looked up on the spectrum module at call time)
    monkeypatch.setattr(spectrum, "counting_extremes", lambda xi, ell: (5, 0))
    with pytest.raises(ValueError, match="does not cover the ceiling"):
        gap_report(1.0, NO_PERTURBATION, GapParams(c0=0.7), ell_max=50.0)


def test_gap_report_refuses_a_band_count_above_the_ceiling(monkeypatch):
    # the count is cross-checked in the other direction too: bands that
    # certainly start above the ceiling are not counted below it
    top = spectrum.counting_extremes(1.0, 50.0)[0]
    monkeypatch.setattr(spectrum, "counting_extremes", lambda xi, ell: (2 * top, 0))
    with pytest.raises(ValueError, match=f"band {2 * top} starts above it"):
        gap_report(1.0, NO_PERTURBATION, GapParams(c0=0.7), ell_max=50.0)


def test_gap_report_is_deterministic():
    args = (0.1, NO_PERTURBATION, GapParams.from_small_ratio(0.1))
    a = gap_report(*args, ell_max=1.5)
    b = gap_report(*args, ell_max=1.5)
    assert same_record(a, b)
    # the comparison reads the window arrays by value
    assert a.candidate_gaps
    assert not same_record(a, dataclasses.replace(b, band_count=b.band_count + 1))
    pairs = b.candidate_gaps
    assert not same_record(pairs, dataclasses.replace(pairs, certified=~pairs.certified))
    assert not same_record(a, dataclasses.replace(b, candidate_gaps=dataclasses.replace(
        pairs, hi=pairs.hi + 1.0)))


def test_gaps_command_prints_the_first_twenty_undecided_windows():
    # 525 bands and 523 windows, 32 of them undecided: the first 20 are
    # printed, numbered by k, from the report's arrays taken to energy
    geom = resolve_geometry(xi=0.09)
    report = gap_report(0.09, PerturbBounds(0.0, geom.T ** 2 / math.pi ** 2 * 300.0),
                        GapParams.from_small_ratio(0.09), 30.0)
    scale = math.pi ** 2 / geom.T ** 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gaps", "--xi", "0.09", "--ell-max", "30", "--omega-plus", "300"])
    lines = out.getvalue().splitlines()
    assert code == 2 and "bands = 525" in lines and "undecided = 32" in lines
    printed = [line for line in lines if line.startswith("undecided_window_")]
    i = report.undecided[:20]
    assert printed == [f"undecided_window_{k} = ({scale * a:.12g}, {scale * b:.12g})" for k, a, b
                       in zip(i + 1, report.candidate_gaps.lo[i], report.candidate_gaps.hi[i])]


def test_gap_report_evaluates_the_conditions_once(monkeypatch):
    # one evaluation for the scalar verdicts and the band pairs together
    calls = []
    real = gaps.conditions_check
    monkeypatch.setattr(gaps, "conditions_check",
                        lambda *args: calls.append(args) or real(*args))
    report = gap_report(0.03, PerturbBounds(0.0, 0.03 ** 2 / math.pi ** 2 * 0.02),
                        GapParams.from_small_ratio(0.03), 40.0)
    assert len(report.candidate_gaps) == 2111
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# band-pair windows from band samples, against the all-bands oracle
# ---------------------------------------------------------------------------

def _seeded_gap_cases(count: int = 120, seed: int = 20181):
    """(T, d, omega_minus, omega_plus, ell_max): ratios 0.02 to 1, depths other
    than 1, omega_minus of either sign, and a quarter of the ceilings on a
    lattice level at tau 0 or 1/2 (bit for bit as spectrum evaluates it)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        xi = rng.choice((0.02, 0.03, 0.05, 0.07, 0.09, 0.12, 0.2, 0.3, 0.5, 0.7, 1.0))
        xi *= rng.choice((1.0, 1.0, rng.uniform(0.9, 1.1)))
        d = rng.choice((1.0, 1.0, 0.5, 2.0, 3.7))
        geom = StripGeometry(T=xi * d, d=d)
        xi = geom.xi
        ell = rng.uniform(2.0, min(40.0, 1500.0 * xi))
        if rng.random() < 0.25:
            t = rng.choice((0.0, 0.5))
            n = rng.randint(0, int(math.sqrt(ell)))
            m = rng.randint(1, max(1, int(math.sqrt(max(ell - (t + n) ** 2, 0.0)) / xi)))
            ell = (t + n) ** 2 + xi * xi * float(m * m)
        scale = math.pi ** 2 / geom.T ** 2
        w = scale * rng.choice((1e-6, 1e-3, 0.01, 0.05, 0.1, 0.3, 1.0)) * rng.uniform(0.5, 1.5)
        om = rng.choice((0.0, 0.0, -rng.uniform(0.0, 2.0) * w, rng.uniform(-3.0, 3.0) * scale))
        cases.append((geom.T, d, om, om + w, ell))
    return cases


def _assert_matches_the_oracle(report, xi, bounds, ell_max):
    k_max, windows = band_pairs_from_all_bands(xi, bounds, ell_max)
    assert report.band_count == k_max
    assert_same_undecided_windows(report, windows)


@pytest.mark.parametrize("T, d, omega_minus, omega_plus, ell_max", _seeded_gap_cases())
def test_gap_report_windows_equal_the_all_bands_oracle(T, d, omega_minus, omega_plus, ell_max):
    # band count, window count, flags and every undecided window (lo, hi,
    # overlap) are those of the exact endpoints of all bands; the bounds are
    # taken to scaled units as the command does
    xi, scale = StripGeometry(T=T, d=d).xi, T ** 2 / math.pi ** 2
    bounds = PerturbBounds(scale * omega_minus, scale * omega_plus)
    report = gap_report(xi, bounds, GapParams(c0=0.5), ell_max)
    _assert_matches_the_oracle(report, xi, bounds, ell_max)
    # windows certified from samples are outer windows with a lower overlap
    eta0, theta0 = band_edges(xi, report.band_count)
    pairs = report.candidate_gaps
    k = len(pairs)
    assert np.all(pairs.lo <= theta0[:k] + bounds.omega_minus)
    assert np.all(pairs.hi >= eta0[1:k + 1] + bounds.omega_plus)
    assert np.all(pairs.overlap <= theta0[:k] - eta0[1:k + 1])


@pytest.mark.parametrize("side", ["optimistic", "pessimistic"])
def test_gap_report_decides_like_the_oracle_for_samples_anywhere_in_their_brackets(
        monkeypatch, side):
    # sample_bands promises eta - spread <= eta0 <= eta + tie and
    # theta - tie <= theta0 <= theta + spread; samples at the far ends of
    # those brackets must not change a decision.  Optimistic samples widen
    # every overlap by almost 2 tie: omega_L sits just above one exact
    # overlap, so only the tie margin keeps that window undecided.
    # Pessimistic samples narrow every overlap and blur the ceiling.
    xi, ell_max = 0.3, 20.0
    real = gaps.sample_bands

    def shifted(xi, k_max):
        s = real(xi, k_max)
        eta0, theta0 = s.edges(np.ones(k_max, dtype=bool), np.ones(k_max, dtype=bool))
        if side == "optimistic":
            return dataclasses.replace(s, eta=eta0 - 0.9 * s.tie, theta=theta0 + 0.9 * s.tie)
        return dataclasses.replace(s, eta=eta0 + 0.9 * s.spread, theta=theta0 - 0.9 * s.spread)

    monkeypatch.setattr(gaps, "sample_bands", shifted)
    _, free = band_pairs_from_all_bands(xi, NO_PERTURBATION, ell_max)
    k = int(np.argmax(free.overlap))
    eta0, theta0 = band_edges(xi, len(free) + 1)
    slack = OVERLAP_RTOL * max(theta0[k], eta0[k + 1], 1.0)
    tie = real(xi, 2).tie
    bounds = PerturbBounds(0.0, free.overlap[k] - slack + 0.5 * tie)
    report = gap_report(xi, bounds, GapParams(c0=0.5), ell_max)
    _assert_matches_the_oracle(report, xi, bounds, ell_max)
    assert not report.candidate_gaps.certified[k]


@pytest.mark.parametrize("xi, omega_plus, ell_max, share", [
    (0.03, 0.025, 40.0, 0.02),
    (0.05, 0.02, 170.0, 0.02),
    (0.09, 200.0, 10.0, 0.1),
])
def test_gap_report_ranks_only_the_crossings_the_samples_leave_open(
        monkeypatch, xi, omega_plus, ell_max, share):
    # when written: every window certified from samples at the first two
    # cases, and the window count taken from sup N0, so no crossing ranked;
    # and 9 open windows spread over 15 slices, 119 of 2,523 ranked (share
    # bounds the ranked part of the full table where windows stay open)
    ranked = []
    real = spectrum._fold_crossings
    monkeypatch.setattr(spectrum, "_fold_crossings",
                        lambda xi, t, *rest: ranked.append(t.size) or real(xi, t, *rest))
    # omega_plus at d = 1 (T = xi), in scaled units
    report = gap_report(xi, PerturbBounds(0.0, xi ** 2 / math.pi ** 2 * omega_plus),
                        GapParams.from_small_ratio(xi), ell_max)
    in_report = sum(ranked)
    if report.undecided.size == 0:
        assert in_report == 0
        return
    ranked.clear()
    band_edges(xi, report.band_count)
    assert 0 < in_report <= share * sum(ranked)


def test_gap_report_at_xi_006_needs_only_the_sliced_pass(monkeypatch):
    # the full band table here enumerates 3.37e6 crossing candidates; the
    # samples certify every window below the ceiling, so gap_report
    # enumerates none
    candidates = []
    real = spectrum._crossing_candidates

    def counted(*args):
        for block in real(*args):
            candidates.append(block[3].size)
            yield block

    monkeypatch.setattr(spectrum, "_crossing_candidates", counted)
    report = gap_report(0.06, PerturbBounds(0.0, 0.06 ** 2 / math.pi ** 2 * 0.02),
                        GapParams.from_small_ratio(0.06), 731.0)
    assert report.band_count == 19_127 and report.undecided.size == 0
    assert sum(candidates) == 0


def test_band_samples_memory_stays_bounded():
    # samples are taken a block of points at a time: at (0.05, 5341) the 33
    # points x 5605 curves would take 1.5 MB at once
    import tracemalloc
    tracemalloc.start()
    try:
        sample_bands(0.05, 5341)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
