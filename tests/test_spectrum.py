"""Counting function, level lattice, and unperturbed band endpoints."""

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stripgaps.spectrum as spectrum
from oracles import Mode, band_table_all_pairs, counting_extremes_by_walk, mode_energy
from stripgaps.geometry import StripGeometry, resolve_geometry
from stripgaps.spectrum import (
    BOUNDARY_RTOL,
    MAX_BAND_CROSSINGS,
    MAX_BAND_CURVES,
    MAX_ROWS,
    band_edges,
    counting,
    counting_extremes,
    row_radii,
    sample_bands,
    scaled_levels_below,
)

PI2 = math.pi ** 2


def brute_count(xi: float, ell: float, tau: float) -> int:
    """The lattice representation of N0: a direct double loop over a generous
    index box, inclusive boundary."""
    thresh = ell + BOUNDARY_RTOL * max(1.0, ell)
    if thresh < xi * xi:
        return 0
    root = math.sqrt(thresh)
    total = 0
    for n in range(math.floor(-root - tau) - 2, math.ceil(root - tau) + 3):
        for m in range(1, int(root / xi) + 3):
            if (n + tau) ** 2 + xi * xi * m * m <= thresh:
                total += 1
    return total


def brute_extremes(geom: StripGeometry, ell: float) -> tuple[int, int]:
    """Sup/inf of the counting function by sampling every constancy panel.

    Each lattice point occupies a closed tau interval, so the sup is attained
    at an interval endpoint and the inf on a panel interior; sampling all
    breakpoints plus all midpoints covers every attained value.
    """
    xi = geom.xi
    thresh = ell + BOUNDARY_RTOL * max(1.0, ell)
    taus = {0.5}
    m = 1
    while xi * xi * m * m <= thresh:
        r = math.sqrt(thresh - xi * xi * m * m)
        for base in (-r, r):
            for n in range(math.floor(base - 0.5) - 1, math.ceil(base + 0.5) + 2):
                t = base - n
                if -0.5 < t <= 0.5:
                    taus.add(t)
        m += 1
    taus = sorted(taus)
    probes = list(taus)
    prev = -0.5
    for t in taus:
        mid = 0.5 * (prev + t)
        if -0.5 < mid <= 0.5:
            probes.append(mid)
        prev = t
    values = [counting(geom, ell, t) for t in probes]
    return max(values), min(values)


# ---------------------------------------------------------------------------
# mode energies
# ---------------------------------------------------------------------------

def test_mode_energy_ground_mode_unit_cell():
    geom = StripGeometry(T=1.0, d=1.0)
    assert mode_energy(geom, 0.0, Mode(0, 1)) == pytest.approx(PI2, rel=1e-15)


def test_mode_energy_zone_edge_symmetry():
    geom = StripGeometry(T=1.0, d=2.0)
    assert mode_energy(geom, 0.5, Mode(-1, 1)) == pytest.approx(PI2 / 2.0, rel=1e-15)


def test_mode_energy_generic_point():
    geom = StripGeometry(T=1.0, d=2.0)
    value = mode_energy(geom, 0.25, Mode(1, 2))
    assert value == pytest.approx(2.5625 * PI2, rel=1e-14)
    assert value == pytest.approx(25.29086128, abs=5e-8)


def test_mode_requires_positive_transverse_index():
    with pytest.raises(ValueError):
        Mode(0, 0)


# ---------------------------------------------------------------------------
# counting function
# ---------------------------------------------------------------------------

def test_counting_empty_below_first_row():
    geom = resolve_geometry(xi=0.5)
    assert counting(geom, 0.2, 0.3) == 0


def test_counting_known_small_cases():
    geom = resolve_geometry(xi=0.5)
    assert counting(geom, 1.3, 0.0) == 4
    assert counting(geom, 1.3, 0.25) == 3


def test_counting_fails_closed_above_its_row_ceilings():
    with pytest.raises(ValueError, match=f"ceiling of {MAX_ROWS} rows"):
        counting(resolve_geometry(xi=0.5), float(MAX_ROWS) ** 2, 0.0)
    # xi^2 underflows: the rows would hold far more points than float64 counts
    # (T = 1e-150 and d = 1e150: a smaller T or a larger d is refused by the
    # geometry)
    with pytest.raises(ValueError, match="beyond exact float64 counts"):
        counting(resolve_geometry(xi=1e-300, T=1e-150), 2.0, 0.0)
    with pytest.raises(ValueError, match=f"ceiling of {MAX_ROWS} rows"):
        row_radii(1e-9, 1e6)
    assert row_radii(0.5, 1.3).size == 2
    # xi^2 underflows at zero energy: no rows of positive radius, no hang
    assert not row_radii(1e-300, 0.0).any()


def test_counting_boundary_ties_are_inside():
    geom = resolve_geometry(xi=0.5)
    # (n, m) = (+-1, 2) sits exactly on the level set at ell = 2
    assert counting(geom, 2.0, 0.0) == 6
    assert counting(geom, 2.0 - 1e-6, 0.0) == 4


@given(
    xi=st.floats(min_value=0.05, max_value=0.9),
    ell=st.floats(min_value=0.0, max_value=20.0),
    tau=st.floats(min_value=-0.499, max_value=0.5),
)
@settings(max_examples=300, deadline=None)
def test_counting_matches_brute_force_both_representations(xi, ell, tau):
    # rows (the library) against the lattice enumeration (brute_count)
    geom = resolve_geometry(xi=xi)
    assert counting(geom, ell, tau) == brute_count(xi, ell, tau)


def test_representation_equivalence_large_sample():
    rng = np.random.default_rng(20260815)
    geom_cache = {}
    for _ in range(10_000):
        xi = float(rng.uniform(0.05, 0.9))
        ell = float(rng.uniform(0.0, 20.0))
        tau = float(rng.uniform(-0.499, 0.5))
        geom = geom_cache.setdefault(xi, resolve_geometry(xi=xi))
        assert counting(geom, ell, tau) == brute_count(xi, ell, tau), (xi, ell, tau)


@given(
    xi=st.floats(min_value=0.05, max_value=0.9),
    ell=st.floats(min_value=0.0, max_value=20.0),
    tau=st.floats(min_value=0.0, max_value=0.499),
)
@settings(max_examples=200, deadline=None)
def test_counting_is_even_in_tau(xi, ell, tau):
    geom = resolve_geometry(xi=xi)
    assert counting(geom, ell, tau) == counting(geom, ell, -tau)


@given(
    xi=st.floats(min_value=0.05, max_value=0.9),
    ell_lo=st.floats(min_value=0.0, max_value=20.0),
    bump=st.floats(min_value=0.0, max_value=10.0),
    tau=st.floats(min_value=-0.499, max_value=0.5),
)
@settings(max_examples=200, deadline=None)
def test_counting_nondecreasing_in_energy(xi, ell_lo, bump, tau):
    geom = resolve_geometry(xi=xi)
    assert counting(geom, ell_lo, tau) <= counting(geom, ell_lo + bump, tau)


@given(
    xi=st.floats(min_value=0.05, max_value=0.9),
    frac=st.floats(min_value=0.0, max_value=0.999),
    tau=st.floats(min_value=-0.499, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_counting_zero_below_first_row(xi, frac, tau):
    geom = resolve_geometry(xi=xi)
    ell = frac * xi * xi * (1.0 - 1e-9)
    assert counting(geom, ell, tau) == 0


# ---------------------------------------------------------------------------
# extremes over the zone
# ---------------------------------------------------------------------------

@given(
    xi=st.floats(min_value=0.1, max_value=0.9),
    ell=st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=150, deadline=None)
def test_counting_extremes_match_panel_scan(xi, ell):
    geom = resolve_geometry(xi=xi)
    assert counting_extremes(geom, ell) == brute_extremes(geom, ell)


def test_counting_extremes_empty_region():
    geom = resolve_geometry(xi=0.5)
    assert counting_extremes(geom, 0.2) == (0, 0)


def test_counting_extremes_equal_the_event_walk():
    # the one-sweep extremes equal the event-by-event walk on 400 seeded
    # energies, 120 of them lattice levels at tau 0 or 1/2 (exact ties of the
    # intervals at the zone edges and centre)
    rng = random.Random(1807)
    for i in range(400):
        xi = rng.choice((0.01, 0.02, 0.03, 0.05, 0.09, 0.1, 0.25, 0.5, 1.0, 2.0,
                         rng.uniform(0.01, 3.0)))
        if i % 10 < 3:
            n, t = rng.randint(0, 7), rng.choice((0.0, 0.5))
            ell = (t + n) ** 2 + xi * xi * float(rng.randint(1, int(3.0 / xi) + 1) ** 2)
        else:
            ell = rng.uniform(0.0, 60.0)
        geom = resolve_geometry(xi=xi)
        assert counting_extremes(geom, ell) == counting_extremes_by_walk(geom, ell), (xi, ell)


def test_interval_run_bounds_follow_the_float_predicate_at_ties():
    # the per-row run bounds of counting_extremes are the least n with
    # x - n <= lim in float arithmetic, also where x - lim rounds onto an
    # integer (x = 1.5 against the strict edge nextafter(-0.5, -1) does)
    limits = (0.5, -0.5 + 1e-12, 0.5 - 1e-12, math.nextafter(-0.5, -1.0))
    xs = []
    for k in range(-40, 41):
        for lim in limits:
            x = up = down = k + lim
            for _ in range(6):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                xs += [up, down]
            xs.append(x)
        xs.append(k + 0.5)
    for lim in limits:
        got = spectrum._first_below(np.array(xs), lim)
        for x, n in zip(xs, got.tolist()):
            assert x - n <= lim and not x - (n - 1) <= lim, (x, lim, n)


@pytest.mark.parametrize("xi, ell, extremes", [(0.03, 40.0, (2112, 2063)),
                                               (0.01, 60.0, (9489, 9360))])
def test_counting_extremes_memory_is_below_the_event_walk(xi, ell, extremes):
    # only the interval ends inside the zone are built: 420 and 1,548 jump
    # events over 210 and 774 rows
    geom = resolve_geometry(xi=xi)
    peaks = []
    for routine in (counting_extremes, counting_extremes_by_walk):
        tracemalloc.start()
        try:
            assert routine(geom, ell) == extremes
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


# ---------------------------------------------------------------------------
# level helpers
# ---------------------------------------------------------------------------

def test_row_radii_values():
    radii = row_radii(0.5, 1.3)
    expected = [math.sqrt(1.3 - 0.25), math.sqrt(1.3 - 1.0)]
    assert radii.tolist() == pytest.approx(expected, rel=1e-14)


@given(
    xi=st.floats(min_value=0.1, max_value=0.9),
    tau=st.floats(min_value=0.0, max_value=0.5),
    k=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_level_extremes_at_one_tau_match_sorted_enumeration(xi, tau, k):
    lo, hi = spectrum._level_extremes(xi, spectrum.band_curves(xi, k), k, (tau,))
    assert np.array_equal(lo, hi)
    pool = np.sort(scaled_levels_below(xi, tau, float(lo[-1]) * 2.0 + 1.0))
    assert pool.size >= k
    np.testing.assert_allclose(lo, pool[:k], rtol=1e-14)


# ---------------------------------------------------------------------------
# unperturbed band endpoints
# ---------------------------------------------------------------------------

def band_endpoints(geom, k):
    """(eta_k, theta_k) in energy units, from the band table."""
    lo, hi = band_edges(geom, k)
    return lo[k - 1], hi[k - 1]


@functools.lru_cache(maxsize=None)
def brute_band_endpoints(xi, k_max, scan=2001):
    """Scaled band endpoints from a fine tau scan plus every kink candidate.

    E_k is even and 1-periodic, so [0, 1/2] suffices.  Between kinks (points
    where two level curves cross) E_k follows one monotone curve, so its
    extrema on [0, 1/2] sit at the ends, at kinks, or nowhere else; the scan
    adds interior samples as a cross-check.  Kinks are found by solving every
    pair of curves below a generous ceiling, not only increasing/decreasing
    pairs.
    """
    def kth(tau, ceiling):
        return np.sort(scaled_levels_below(xi, tau, ceiling))[:k_max]

    ceiling = 2.0 * max(kth(tau, 4.0 + 4.0 * xi * k_max)[-1] for tau in (0.0, 0.25, 0.5)) + 1.0
    curves = [(n, m) for m in range(1, int(math.sqrt(ceiling) / xi) + 1)
              for n in range(-int(math.sqrt(ceiling)) - 2, int(math.sqrt(ceiling)) + 2)
              if min((t + n) ** 2 for t in (0.0, 0.5)) + (xi * m) ** 2 <= ceiling]
    taus = set(np.linspace(0.0, 0.5, scan).tolist())
    for i, (n1, m1) in enumerate(curves):
        for n2, m2 in curves[i + 1:]:
            if n1 != n2:
                tau = (xi * xi * (m2 * m2 - m1 * m1) + n2 * n2 - n1 * n1) / (2.0 * (n1 - n2))
                if 0.0 <= tau <= 0.5:
                    taus.add(tau)
    table = np.array([kth(tau, ceiling) for tau in sorted(taus)])
    return table.min(axis=0), table.max(axis=0)


def test_first_band_unit_cell():
    geom = StripGeometry(T=1.0, d=1.0)
    lo, hi = band_endpoints(geom, 1)
    assert lo == pytest.approx(PI2, rel=1e-12)
    assert hi == pytest.approx(1.25 * PI2, rel=1e-12)


def test_second_band_unit_cell_bottom():
    geom = StripGeometry(T=1.0, d=1.0)
    lo, _hi = band_endpoints(geom, 2)
    assert lo == pytest.approx(1.25 * PI2, rel=1e-12)


@pytest.mark.parametrize("T, d", [(1.0, 1.0), (0.3, 2.0), (2.0, 0.7)])
def test_spectrum_bottom_is_first_transverse_threshold(T, d):
    geom = StripGeometry(T=T, d=d)
    lo, _hi = band_endpoints(geom, 1)
    assert lo == pytest.approx(PI2 / d ** 2, rel=1e-12)


def test_band_table_rejects_nonpositive_band_count():
    geom = StripGeometry(T=1.0, d=1.0)
    with pytest.raises(ValueError, match="k_max"):
        band_edges(geom, 0)
    with pytest.raises(ValueError, match="k_max"):
        spectrum.band_curves(0.5, 0)


def test_band_table_fails_closed_above_its_cost_ceilings():
    with pytest.raises(ValueError, match=f"ceiling of {MAX_BAND_CURVES} level curves"):
        band_edges(resolve_geometry(xi=0.5), 100_000_000)
    with pytest.raises(ValueError, match=f"ceiling of {MAX_BAND_CROSSINGS} curve crossings"):
        band_edges(resolve_geometry(xi=0.5), 30_000)


def test_crossing_ceiling_counts_the_candidates_enumerated(monkeypatch):
    # (xi 0.03, k 2113) enumerates 174,592 candidates in 9 increasing
    # columns: the closed-form count refuses before any block is yielded
    geom = resolve_geometry(xi=0.03)
    yielded = []
    real = spectrum._crossing_candidates

    def counted(*args):
        for block in real(*args):
            yielded.append(block[3].size)
            yield block

    monkeypatch.setattr(spectrum, "_crossing_candidates", counted)
    monkeypatch.setattr(spectrum, "MAX_BAND_CROSSINGS", 174_592)
    lo, hi = band_edges(geom, 2113)
    assert sum(yielded) == 174_592
    assert np.array_equal(lo, band_table_all_pairs(geom, 2113)[0])
    for ceiling in (174_591, 100_000, 1):
        yielded.clear()
        monkeypatch.setattr(spectrum, "MAX_BAND_CROSSINGS", ceiling)
        with pytest.raises(ValueError, match=f"ceiling of {ceiling} curve crossings "
                                             r"\(at least \d+ candidates\)"):
            band_edges(geom, 2113)
        assert yielded == []


def test_band_table_ranks_crossings_in_bounded_memory():
    # the gapchain case gaps --xi 0.03 --ell-max 40: 161,527 crossings ranked
    # over 17 columns, which peaked at 6.5 MB when a block was ranked at once
    geom = resolve_geometry(xi=0.03)
    band_edges(geom, 2113)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        band_edges(geom, 2113)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_band_table_enumerates_only_real_crossings(monkeypatch):
    # gaps --xi 0.03 --ell-max 40: 161,527 crossings among 1.35e6 increasing x
    # decreasing pairs; the closed-form m_d interval lists 174,592 candidates
    blocks = []
    real = spectrum._crossing_candidates

    def counted(*args):
        for block in real(*args):
            blocks.append(block[3].size)
            yield block

    monkeypatch.setattr(spectrum, "_crossing_candidates", counted)
    band_edges(resolve_geometry(xi=0.03), 2113)
    assert sum(blocks) <= 1.25 * 161_527
    assert max(blocks) <= 1 << 15


EDGE_CASES = [
    (xi, k) for xi in (0.013, 0.02, 0.031, 0.05, 0.07, 0.1, 0.17, 0.3, 0.5, 1.0, 3.0)
    for k in (1, 2, 7, 40, 300, 1500)
] + [(0.03, 2113), (0.04, 1565), (0.05, 5324)]


@pytest.mark.parametrize("xi, k_max", EDGE_CASES)
def test_band_edges_equal_the_all_pairs_oracle(xi, k_max):
    # enumerating only the pairs that can cross, and ranking column-major,
    # changes no bit of any endpoint; every band is a closed interval
    geom = resolve_geometry(xi=xi)
    lo, hi = band_edges(geom, k_max)
    exact_lo, exact_hi = band_table_all_pairs(geom, k_max)
    assert np.array_equal(lo, exact_lo) and np.array_equal(hi, exact_hi)
    assert lo.shape == hi.shape == (k_max,) and np.all(lo <= hi)


@pytest.mark.parametrize("xi, k_max", EDGE_CASES)
def test_band_samples_bracket_the_exact_endpoints(xi, k_max):
    # eta - spread <= eta0 <= eta and theta <= theta0 <= theta + spread, the
    # spread sqrt(cap) h (plus the tie) being the most a band can leave its
    # sampled range between samples h apart
    geom = resolve_geometry(xi=xi)
    samples = sample_bands(xi, k_max)
    eta0, theta0 = band_edges(geom, k_max)
    scale = PI2 / geom.T ** 2
    assert np.all(scale * (samples.eta - samples.spread) <= eta0)
    assert np.all(eta0 <= scale * samples.eta)
    assert np.all(scale * samples.theta <= theta0)
    assert np.all(theta0 <= scale * (samples.theta + samples.spread))
    # the samples include tau = 0 and 1/2, where the edges start
    assert samples.eta.size == k_max and samples.tie < samples.spread


def test_band_samples_slice_refined_edges_equal_band_edges():
    # edges() ranks only the crossings in the brackets asked for; there it
    # gives band_edges' bits
    geom = resolve_geometry(xi=0.07)
    k_max = 300
    samples = sample_bands(geom.xi, k_max)
    eta0, theta0 = band_edges(geom, k_max)
    scale = PI2 / geom.T ** 2
    rng = np.random.default_rng(7)
    for share in (0.0, 0.02, 0.3, 1.0):
        eta_at, theta_at = rng.random(k_max) < share, rng.random(k_max) < share
        eta, theta = samples.edges(eta_at, theta_at)
        assert np.array_equal(scale * eta[eta_at], eta0[eta_at])
        assert np.array_equal(scale * theta[theta_at], theta0[theta_at])


def test_band_table_matches_single_band_calls():
    # the table for k bands is the prefix of any larger table
    geom = resolve_geometry(xi=0.4)
    lo, hi = band_edges(geom, 6)
    for k in range(1, 7):
        lo_k, hi_k = band_edges(geom, k)
        assert (lo_k[-1], hi_k[-1]) == (lo[k - 1], hi[k - 1])


def test_band_table_monotone_in_band_index():
    geom = resolve_geometry(xi=0.17)
    lo, hi = band_edges(geom, 12)
    assert np.all(np.diff(lo) >= 0.0) and np.all(np.diff(hi) >= 0.0)


@pytest.mark.parametrize("xi, k_max", [(0.5, 30), (0.23, 8), (0.13, 40), (1.0, 12),
                                       (2.0, 10), (0.05, 200)])
def test_band_table_matches_the_brute_force_oracle(xi, k_max):
    geom = resolve_geometry(T=1.0, xi=xi)
    lo, hi = (e / PI2 for e in band_edges(geom, k_max))
    exact_lo, exact_hi = brute_band_endpoints(xi, k_max)
    assert np.all(np.abs(lo - exact_lo) <= 1e-12 * np.maximum(1.0, exact_lo))
    assert np.all(np.abs(hi - exact_hi) <= 1e-12 * np.maximum(1.0, exact_hi))


def test_band_table_endpoints_lie_outside_the_sampled_ones():
    # sampled band functions only ever see values inside the band
    geom = resolve_geometry(T=1.0, xi=0.23)
    lo, hi = band_edges(geom, 8)
    for tau in np.linspace(-0.5, 0.5, 101):
        levels = np.sort(scaled_levels_below(0.23, tau, 10.0))[:8] * PI2
        assert np.all(lo <= levels * (1 + 1e-15)) and np.all(levels <= hi * (1 + 1e-15))


@pytest.mark.parametrize("xi, k_max, k, side, old", [
    # endpoints the former grid-plus-golden-section table placed inside the band
    (0.05, 200, 165, "lo", 5.0625),
    (0.5, 30, 23, "hi", 8.5),
])
def test_formerly_inward_endpoints_lie_outside_the_sampled_values(xi, k_max, k, side, old):
    lo, hi = band_edges(resolve_geometry(T=1.0, xi=xi), k_max)
    value = (lo if side == "lo" else hi)[k - 1] / PI2
    exact_lo, exact_hi = brute_band_endpoints(xi, k_max)
    exact = (exact_lo if side == "lo" else exact_hi)[k - 1]
    assert value == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert (value < old - 1e-2) if side == "lo" else (value > old + 1e-2)


@pytest.mark.parametrize("xi, k_top", [(1.0, 6), (0.5, 8)])
def test_band_endpoints_agree_with_counting_extremes(xi, k_top):
    """The zone extremes of the counting function characterize band edges.

    sup N0 at the scaled band bottom counts the band minima at or below it,
    so it first reaches k exactly there (it can exceed k when consecutive
    bands share an endpoint, e.g. bands 5 and 6 at xi = 1); likewise inf N0
    at the scaled band top.  The robust form of the identity is therefore
    two-sided: >= k at the endpoint, < k just below it.

    Band endpoints are exact up to rounding and the tie tolerance
    BOUNDARY_RTOL, and counting includes levels within BOUNDARY_RTOL of its
    energy, so the transition is bracketed with a cushion of a few
    BOUNDARY_RTOL on both sides rather than probed exactly at the point.
    """
    geom = resolve_geometry(xi=xi)
    cushion = 4.0 * BOUNDARY_RTOL
    for k in range(1, k_top + 1):
        lo, hi = band_endpoints(geom, k)
        ell_lo = lo * geom.T ** 2 / PI2
        ell_hi = hi * geom.T ** 2 / PI2
        assert counting_extremes(geom, ell_lo * (1 + cushion) + cushion)[0] >= k
        assert counting_extremes(geom, ell_lo * (1 - cushion) - cushion)[0] < k
        assert counting_extremes(geom, ell_hi * (1 + cushion) + cushion)[1] >= k
        assert counting_extremes(geom, ell_hi * (1 - cushion) - cushion)[1] < k


def test_band_edge_counting_identities_nondegenerate():
    """With all band edges distinct the two-sided form collapses to equality."""
    geom = StripGeometry(T=1.0, d=1.0)
    for k, expect_lo, expect_hi in [(1, 1.0, 1.25), (2, 1.25, 2.0)]:
        lo, hi = band_endpoints(geom, k)
        assert lo * geom.T ** 2 / PI2 == pytest.approx(expect_lo, rel=1e-12)
        assert hi * geom.T ** 2 / PI2 == pytest.approx(expect_hi, rel=1e-12)
        assert counting_extremes(geom, lo * geom.T ** 2 / PI2)[0] == k
        assert counting_extremes(geom, hi * geom.T ** 2 / PI2)[1] == k
