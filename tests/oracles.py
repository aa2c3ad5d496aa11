"""Independent oracles and diagnostics the tests check the library against.

* ``jump_events``, ``counting_extremes_by_walk``: the jump positions of the
  step function N0(ell, .), row by row, and its zone extremes by walking
  them one event at a time, against the one-sweep
  ``stripgaps.spectrum.counting_extremes``.
* ``ap_exact_integral``: a_p(ell) by exact panel-wise integration of the step
  function N0(ell, .), against the closed forms of ``stripgaps.fourier``.
* ``a0_increment_check``, ``counting_extremes_check``, ``ap_residual_check``:
  the growth bound of the mean, the oscillation bound on the counting
  extremes and the residual envelope, each evaluated as an inequality.
* ``beta_by_quadrature``: B(1/4, 1/2) by Gauss-Legendre quadrature, against
  the Gamma-function value of ``critical_constants``.
* ``phi_reference``: phi_p as the plain sum to a given N with the
  oscillation-blind tail, against the certified cuts of
  ``stripgaps.oscillation.phi_p``.
* ``choose_truncation_by_bisection``: phi_p's cut, route and route bound by
  the earlier search, the fallback walked one step at a time from its
  closed form and each shorter route bisected over [1, N - 1], against
  ``stripgaps.oscillation._choose_truncation``, which searches once from
  closed-form floors (they must agree exactly).
* ``stationary_phase_leading``, ``u_series``, ``pde_residual``: the
  stationary-phase leading term (which the full series visibly does not
  follow) and the residual of the characteristic PDE

      d/dl ( d^2 u / dl dmu + (l/2) u ) - u/4 = 0

  satisfied term-by-term by
  u(l, mu) = sum_k sin(l sqrt(k^2+mu) - pi/4) / (k^2+mu)^(3/4).
* ``Mode``, ``mode_energy``: one separable fiber eigenvalue by its formula.
* ``write_potential_file``: the writer matching
  ``stripgaps.galerkin.read_potential_file``.
* ``coefficient``, ``potential_values``, ``omega_bounds_first_order``: a
  potential's coefficient by label, its values term by term on any grid, and
  the enclosure of its range from those values inflated by the first-order
  (gradient) bound, against the separable second-order
  ``stripgaps.galerkin.omega_bounds``.
* ``range_grid``: the whole N x N grid of V values that
  ``stripgaps.galerkin.omega_bounds`` scans in row blocks (its extremes must
  agree bit for bit).
* ``assemble_by_loop``: the Galerkin matrix entry by entry, one Python loop
  over modes and candidate rows, against the vectorised
  ``stripgaps.galerkin.assemble`` (which must agree bit for bit).
* ``band_functions_by_assembly``: the certified band table from one
  ``assemble`` and one Hermitian eigensolve per tau, against
  ``stripgaps.galerkin.band_functions``, which builds the potential block once
  and rewrites only its diagonal per tau (they must agree bit for bit).
* ``band_table_all_pairs``: the exact band endpoints from every pair of an
  increasing and a decreasing level curve, ranked with the crossings on axis
  0, against ``stripgaps.spectrum.band_edges``, which enumerates only the
  pairs that can cross and ranks column-major (they must agree bit for bit).
* ``truncation_by_kth_level``: the Galerkin starting truncation from the
  k-th level at tau = 1/2 by one partition of the curves' levels there,
  against ``stripgaps.galerkin.default_truncation``, which reads that level
  from the sorted levels of ``spectrum._level_extremes`` (they must agree
  exactly).
* ``overlap_lower_bound``: the paper's lower bound on the overlap of
  consecutive unperturbed bands above ell2, in scaled energy, whose root at
  the scaled oscillation w is the fourth term of
  ``stripgaps.gaps.ell1_threshold``.
* ``band_energies``: ``band_edges``' scaled endpoints in energy units.
* ``certify_band_pairs``, ``band_pairs_from_all_bands``: the band-pair windows
  below a ceiling from the exact endpoints of every band, certified by
  ``stripgaps.gaps``' one predicate, against ``gap_report``, which computes
  exact endpoints only where band samples leave a window open (band count,
  window count, flags and every undecided window must agree exactly).  Like
  ``gap_report`` they take xi and scaled bounds and energies.
* ``same_record``: value equality of two ``gap_report`` results, windows
  included.
* ``LowSpectrumCheck``, ``low_spectrum_no_gap``: the paper's low-energy
  counting test at one scaled energy in (1/4 + xi^2, 1), against the verdict
  ``low_energy_ok`` of ``stripgaps.gaps.conditions_check``, which the chain
  reads instead (acceptance criterion 06 runs it at 10,000 points).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from stripgaps.fourier import a0_closed, ap_closed, residual_bound
from stripgaps.galerkin import (
    EIG_ROUNDING_C,
    BandTable,
    OmegaEnclosure,
    PotentialSpec,
    _dropped_floor,
    assemble,
)
from stripgaps.gaps import (
    BandPairs,
    ConditionsVerdict,
    GapParams,
    PerturbBounds,
    ell2_threshold,
)
from stripgaps.geometry import StripGeometry, validate_ell, validate_tau
from stripgaps.oscillation import (
    _non_resonant_tail,
    _phi_sum,
    _resonant_tail,
    _rounding_bound,
    tail_bound,
)
from stripgaps.spectrum import (
    _EDGE_TOL,
    BOUNDARY_RTOL,
    _inclusive_threshold,
    band_curves,
    band_edges,
    check_band_count,
    counting,
    counting_extremes,
    row_radii,
)

_QUARTER_PI = 0.25 * math.pi


# ---------------------------------------------------------------------------
# jump structure of the counting function
# ---------------------------------------------------------------------------

def jump_events(xi: float, ell: float, inclusive: bool = False):
    """Jump structure of tau -> N0(ell, tau) on [-1/2, 1/2], one row at a time.

    Each row-m interval |tau + n| <= r_m contributes a closed interval
    [-r_m - n, r_m - n].  Returns (start_count, events) where start_count is
    the number of intervals containing tau = -1/2 and events is a sorted list
    of (tau_b, n_enter, n_leave): n_enter intervals begin at tau_b (the point
    counts at tau_b) and n_leave intervals end at tau_b (the point still
    counts at tau_b, not after).  Jump positions within 1e-12 of the zone
    edges are clamped onto the edge.

    inclusive=True builds the intervals from the tie-tolerant threshold that
    ``stripgaps.spectrum.counting`` uses; the default keeps the exact radii,
    which is what panel integration wants.
    """
    agg: dict[float, list[int]] = {}
    start = 0
    for r in row_radii(xi, _inclusive_threshold(ell) if inclusive else ell):
        n_lo = math.ceil(-r - 0.5) - 1
        n_hi = math.floor(r + 0.5) + 1
        for n in range(n_lo, n_hi + 1):
            left = -r - n
            right = r - n
            if right < -0.5 or left > 0.5:
                continue
            if left <= -0.5 + _EDGE_TOL:
                start += 1
            else:
                agg.setdefault(left, [0, 0])[0] += 1
            if right <= 0.5 - _EDGE_TOL:
                agg.setdefault(right, [0, 0])[1] += 1
    events = sorted((tau_b, pm[0], pm[1]) for tau_b, pm in agg.items())
    return start, events


def counting_extremes_by_walk(xi: float, ell: float) -> tuple[int, int]:
    """(sup, inf) of N0(ell, .) on [-1/2, 1/2] by walking the inclusive jump
    events one at a time, against the one-sweep
    ``stripgaps.spectrum.counting_extremes`` (they must agree exactly)."""
    validate_ell(ell)
    start, events = jump_events(xi, ell, inclusive=True)
    run = start
    sup = inf = start
    for _tau_b, n_enter, n_leave in events:
        sup = max(sup, run + n_enter)
        run += n_enter - n_leave
        sup = max(sup, run)
        inf = min(inf, run)
    return sup, inf


# ---------------------------------------------------------------------------
# Fourier coefficients of the counting function
# ---------------------------------------------------------------------------

def ap_exact_integral(xi: float, ell: float, p: int) -> float:
    """a_p(ell) by exact piecewise integration of the step function N0(ell, .).

    Enumerates the jump positions of N0(ell, .), keeps the running count on
    each constancy panel, and integrates cos(2 pi p tau) in closed form panel
    by panel (fsum over panels).  For p = 0 this is the exact mean, i.e. a_0.
    """
    validate_ell(ell)
    if p < 0:
        raise ValueError(f"harmonic index must be >= 0, got {p}")
    start, events = jump_events(xi, ell)
    if p == 0:
        antider = lambda t: t
    else:
        c = 2.0 * math.pi * p
        antider = lambda t: math.sin(c * t) / c
    terms = []
    prev = -0.5
    run = start
    for tau_b, n_enter, n_leave in events:
        if tau_b > prev and run != 0:
            terms.append(run * (antider(tau_b) - antider(prev)))
        prev = max(prev, tau_b)
        run += n_enter - n_leave
    if run != 0:
        terms.append(run * (antider(0.5) - antider(prev)))
    return math.fsum(terms)


class IncrementCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def a0_increment_check(xi: float, ell: float, ell_tilde: float) -> IncrementCheck:
    """Growth bound of the mean: a0(ell~) - a0(ell) <= (pi/(2 xi)) (ell~ - ell)
    + 2 sqrt(ell~ - ell), valid for xi^2 <= ell <= ell~ (must always hold).

    The linear term dominates the bulk rows, whose radii grow at rate at most
    pi/(2 xi) per unit of ell after summing in m; rows that are newly born
    between ell and ell~ each contribute at most sqrt(ell~ - ell), and up to
    two such boundary rows can be in play at once, hence the additive
    2 sqrt(ell~ - ell).  The constant 2 is sharp in that variants with
    constant 1 fail, e.g. xi = 0.5, ell = 1 -> 1.125 gives increment
    0.84588... > (pi/(2 xi)) 0.125 + sqrt(0.125) = 0.74625...
    """
    if not (xi * xi <= ell <= ell_tilde):
        raise ValueError(
            f"need xi^2 <= ell <= ell_tilde, got xi^2={xi*xi}, ell={ell}, ell_tilde={ell_tilde}")
    lhs = a0_closed(xi, ell_tilde) - a0_closed(xi, ell)
    diff = ell_tilde - ell
    rhs = math.pi / (2.0 * xi) * diff + 2.0 * math.sqrt(diff)
    return IncrementCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


class ExtremesCheck(NamedTuple):
    sup_count: int
    inf_count: int
    a0: float
    ap_abs: float
    holds: bool


def counting_extremes_check(xi: float, ell: float, p: int) -> ExtremesCheck:
    """Oscillation lower bound on the counting extremes:
    sup_tau N0 >= a0 + |a_p|/2 and inf_tau N0 <= a0 - |a_p|/2 (always holds)."""
    if p < 1:
        raise ValueError(f"harmonic index must be >= 1, got {p}")
    sup_count, inf_count = counting_extremes(xi, ell)
    a0 = a0_closed(xi, ell)
    ap_abs = abs(ap_closed(xi, ell, p))
    holds = (sup_count >= a0 + 0.5 * ap_abs) and (inf_count <= a0 - 0.5 * ap_abs)
    return ExtremesCheck(sup_count=sup_count, inf_count=inf_count, a0=a0,
                         ap_abs=ap_abs, holds=holds)


class ResidualCheck(NamedTuple):
    residual: float
    bound: float
    holds: bool


def ap_residual_check(xi: float, ell: float, p: int,
                      phi_value: float, phi_tail: float) -> ResidualCheck:
    """Check |a_p - (1/2) ell^(1/4) phi_value| against the certified envelope.

    The weight 1/2 matters: the factor-1 variant overshoots the envelope by
    roughly |a_p| itself at small p (e.g. xi = 0.05, ell = 4, p = 1: residual
    3.43 vs envelope 0.77, while the 1/2 form leaves residual 0.093).

    phi_value must carry a certified truncation error phi_tail (the envelope
    is widened by (1/2) ell^(1/4) * phi_tail to absorb it).
    """
    if not ell > 0:
        raise ValueError(f"need ell > 0, got {ell}")
    if p < 1:
        raise ValueError(f"harmonic index must be >= 1, got {p}")
    if phi_tail < 0:
        raise ValueError(f"need phi_tail >= 0, got {phi_tail}")
    half_quarter = 0.5 * ell ** 0.25
    residual = abs(ap_closed(xi, ell, p) - half_quarter * phi_value)
    bound = residual_bound(xi, ell, p) + half_quarter * phi_tail
    return ResidualCheck(residual=residual, bound=bound, holds=residual <= bound)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def beta_by_quadrature() -> float:
    """B(1/4, 1/2) = 2 int_0^inf (t^2+1)^(-3/4) dt, via t = sinh s.

    The substituted integrand cosh(s)^(-1/2) is analytic and decays like
    e^(-s/2); composite 64-point Gauss-Legendre on [0, 80] leaves a tail
    below 2e-17.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for a in range(0, 80, 2):
        x = nodes + (a + 1.0)
        total += float(np.dot(weights, np.cosh(x) ** -0.5))
    return 2.0 * total


def phi_reference(xi: float, ell: float, p: int, truncation_n: int) -> tuple[float, float]:
    """(value, bound) of phi_p(ell) as the plain sum |k| <= N, N >= 1, with the
    oscillation-blind tail plus the sum's floating-point error as its bound:
    independent of the tail routes ``stripgaps.oscillation.phi_p`` chooses."""
    return (_phi_sum(xi, ell, p, truncation_n),
            tail_bound(xi, truncation_n) + _rounding_bound(xi, ell, p, truncation_n))


def _smallest(bound, hi: int, budget: float) -> int | None:
    """Least N in [1, hi] with bound(N) <= budget, for bound non-increasing
    in N; None when even bound(hi) exceeds the budget."""
    lo = 1
    if hi < 1 or not bound(hi) <= budget:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= budget:
            hi = mid
        else:
            lo = mid + 1
    return hi


def choose_truncation_by_bisection(xi: float, ell: float, p: int,
                                   budget: float) -> tuple[int, str, float]:
    """(N, route, tail bound) with the least N any route certifies for budget,
    for a positive finite budget: the fallback's least N walked one step at a
    time from ceil(16 xi / (pi budget)^2), then the non-resonant and the
    resonant route each bisected over [1, N - 1] of the best cut so far."""
    n = max(1, math.ceil(16.0 * xi / (math.pi * budget) / (math.pi * budget)))
    while tail_bound(xi, n) > budget:
        n += 1
    while n > 1 and tail_bound(xi, n - 1) <= budget:
        n -= 1
    best = (n, "fallback", tail_bound(xi, n))
    for route, bound in (("non-resonant", _non_resonant_tail), ("resonant", _resonant_tail)):
        fn = lambda m, bound=bound: bound(xi, ell, p, m)
        m = _smallest(fn, best[0] - 1, budget)
        if m is not None:
            best = (m, route, fn(m))
    return best


# ---------------------------------------------------------------------------
# stationary phase and the characteristic PDE
# ---------------------------------------------------------------------------

def stationary_phase_leading(ell: float, p: int) -> float:
    """Leading stationary-phase term (p^(1/2)/pi) sin(2 pi p ell^(1/2)) / ell^(1/4).

    The actual series neither decays like ell^(-1/4) nor oscillates
    periodically in ell^(1/2).
    """
    if not ell > 0:
        raise ValueError(f"need ell > 0, got {ell}")
    if p < 1:
        raise ValueError(f"harmonic index must be >= 1, got {p}")
    return math.sqrt(p) / math.pi * math.sin(2.0 * math.pi * p * math.sqrt(ell)) / ell ** 0.25


def u_series(l: float, mu: float, truncation_n: int) -> float:
    """u_N(l, mu) = sum_{|k| <= N} sin(l sqrt(k^2 + mu) - pi/4) / (k^2 + mu)^(3/4)."""
    if not mu > 0:
        raise ValueError(f"need mu > 0, got {mu}")
    if truncation_n < 0:
        raise ValueError(f"truncation length must be >= 0, got {truncation_n}")
    k = np.arange(0, truncation_n + 1, dtype=float)
    weight = np.where(k == 0.0, 1.0, 2.0)
    s = np.sqrt(k * k + mu)
    return float(np.dot(weight, np.sin(l * s - _QUARTER_PI) / (s * np.sqrt(s))))


def pde_residual(l: float, mu: float, truncation_n: int, h: float = 2e-3,
                 mode: str = "analytic") -> float:
    """Residual of d/dl (d^2 u/dl dmu + (l/2) u) - u/4 for the truncated series.

    mode="analytic": differentiate every term exactly and sum the expanded
    derivative pieces without algebraic pre-cancellation.  The per-term
    expression cancels to 0 algebraically, so the result is pure
    floating-point accumulation noise (about 1e-15 per hundred terms); only
    the numeric mode tests the series itself.

    mode="numeric": max of |analytic residual| and |central finite-difference
    residual| with step h (a 9-point stencil).  The stencil is O(h^2) only
    while h resolves the fastest term: keep h * sqrt(N^2 + mu) well below 1.
    """
    if not mu > 0:
        raise ValueError(f"need mu > 0, got {mu}")
    if truncation_n < 0:
        raise ValueError(f"truncation length must be >= 0, got {truncation_n}")
    if mode not in ("analytic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")

    k = np.arange(0, truncation_n + 1, dtype=float)
    weight = np.where(k == 0.0, 1.0, 2.0)
    s = np.sqrt(k * k + mu)
    theta = l * s - _QUARTER_PI
    sin_32 = np.sin(theta) / (s * np.sqrt(s))       # sin(theta) s^(-3/2)
    cos_12 = np.cos(theta) / np.sqrt(s)             # cos(theta) s^(-1/2)
    # d/dl of [d^2 t/dl dmu], of [(l/2) t], and the -t/4 term, kept separate:
    per_term = ((-0.5 * sin_32 - 0.5 * l * cos_12) + 0.25 * sin_32
                + (0.5 * sin_32 + 0.5 * l * cos_12) - 0.25 * sin_32)
    analytic = float(np.dot(weight, per_term))
    if mode == "analytic":
        return analytic

    if not h > 0:
        raise ValueError(f"need h > 0, got {h}")
    u = lambda a, b: u_series(a, b, truncation_n)

    def mixed_plus_half(a: float) -> float:
        d_l_at = lambda b: (u(a + h, b) - u(a - h, b)) / (2.0 * h)
        return (d_l_at(mu + h) - d_l_at(mu - h)) / (2.0 * h) + 0.5 * a * u(a, mu)

    fd = (mixed_plus_half(l + h) - mixed_plus_half(l - h)) / (2.0 * h) - 0.25 * u(l, mu)
    return max(abs(analytic), abs(fd))


# ---------------------------------------------------------------------------
# separable modes, potential files and potential values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mode:
    """Separable mode label: longitudinal index n (any sign), transverse m >= 1."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"transverse index m must be >= 1, got {self.m}")


def mode_energy(geom: StripGeometry, tau: float, mode: Mode) -> float:
    """Fiber eigenvalue (pi^2/T^2)(tau+n)^2 + pi^2 m^2 / d^2."""
    validate_tau(tau)
    pi2 = math.pi * math.pi
    return pi2 * (tau + mode.n) ** 2 / (geom.T * geom.T) + pi2 * mode.m ** 2 / (geom.d * geom.d)


def write_potential_file(
    path: str | os.PathLike, geom: StripGeometry, potential: PotentialSpec
) -> None:
    """Write the header ``T=... d=...`` and one ``j q re im`` line per term."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"T={geom.T!r} d={geom.d!r}\n")
        for j, q, v in potential.terms:
            fh.write(f"{j} {q} {v.real!r} {v.imag!r}\n")


def coefficient(potential: PotentialSpec, j: int, q: int) -> complex:
    """v_{j,q}, zero when the term is absent."""
    for jj, qq, v in potential.terms:
        if jj == j and qq == q:
            return complex(v)
    return 0.0 + 0.0j


def potential_values(
    potential: PotentialSpec, geom: StripGeometry, x1: np.ndarray, x2: np.ndarray
) -> np.ndarray:
    """Pointwise values of V on the broadcast grid (x1, x2); real array.

    Hermitian symmetry makes the sum real, so only real parts are kept:
    Re(v e^{i pi j x1/T}) cos(pi q x2/d) equals the real part of the
    complex product exactly, term by term.
    """
    total = np.zeros(np.broadcast(x1, x2).shape)
    for j, q, v in potential.terms:
        total += (
            (v * np.exp(1j * math.pi * j * np.asarray(x1, dtype=float) / geom.T)).real
            * np.cos(math.pi * q * np.asarray(x2, dtype=float) / geom.d)
        )
    return total


def omega_bounds_first_order(
    geom: StripGeometry, potential: PotentialSpec, grid_n: int = 1024
) -> OmegaEnclosure:
    """Extrema of potential_values on the N x N grid (periodic in x1,
    endpoints included in x2), inflated outward by the mean-value bound
    gradient_bound * hypot(2T, d) / N; no rounding term."""
    x1 = np.linspace(0.0, 2.0 * geom.T, grid_n, endpoint=False)
    x2 = np.linspace(0.0, geom.d, grid_n)
    values = potential_values(potential, geom, x1[:, None], x2[None, :])
    inflation = potential.gradient_bound(geom) * math.hypot(2.0 * geom.T, geom.d) / grid_n
    lo, hi = float(values.min()), float(values.max())
    return OmegaEnclosure(omega_minus=lo - inflation, omega_plus=hi + inflation, grid_min=lo,
                          grid_max=hi, inflation=inflation, rounding=0.0)


def range_grid(potential: PotentialSpec, grid_n: int) -> np.ndarray:
    """V at x1 = 2T k/N (0 <= k < N) by x2 = d l/(N-1) (0 <= l < N), N = grid_n,
    as one N x N array: the separable product (N x Q) @ (Q x N) of
    c_q(x1) = sum_j Re(v_{j,q} e^{i pi j x1/T}) with the rows cos(pi q x2/d),
    phases reduced in integers, zero coefficients skipped."""
    k = np.arange(grid_n)
    rows: dict[int, np.ndarray] = {}
    for j, q, v in potential.terms:
        if v == 0:
            continue
        angle = (2.0 * math.pi / grid_n) * ((j % grid_n) * k % grid_n)
        term = (complex(v) * np.exp(1j * angle)).real
        rows[q] = rows[q] + term if q in rows else term
    qs = sorted(rows)
    period = 2 * (grid_n - 1)
    c = np.array([rows[q] for q in qs]).reshape(len(qs), grid_n).T
    phase = np.array([q % period for q in qs], dtype=np.int64)[:, None] * k % period
    return c @ np.cos((math.pi / (grid_n - 1)) * phase)


# ---------------------------------------------------------------------------
# Galerkin assembly, entry by entry
# ---------------------------------------------------------------------------

def _transverse_weight(m_row: int, m_col: int, q: int) -> float:
    """Overlap of sin(pi m_row y) sin(pi m_col y) against cos(pi q y), y in (0,1).

    Equals (delta_{|m_row - m_col|, q} (1 + delta_{q,0}) - delta_{m_row+m_col, q})/2;
    in particular the q = 0 weight is the plain orthonormality delta.
    """
    value = 0.0
    if abs(m_row - m_col) == q:
        value += 0.5 * (2.0 if q == 0 else 1.0)
    if m_row + m_col == q:
        value -= 0.5
    return value


def assemble_by_loop(
    geom: StripGeometry,
    tau: float,
    potential: PotentialSpec,
    n_max: int,
    m_max: int,
) -> np.ndarray:
    """The fiber matrix of ``stripgaps.galerkin.assemble``, one entry at a time.

    For every term and every column mode (n, m), the candidate rows
    (n + j, m_row) with m_row in {m - q, m + q, q - m} receive v times the
    transverse weight; terms are added in the order the spec lists them.
    """
    mode_list = [(n, m) for n in range(-n_max, n_max + 1) for m in range(1, m_max + 1)]
    index = {nm: i for i, nm in enumerate(mode_list)}
    H = np.zeros((len(mode_list), len(mode_list)), dtype=complex)
    for i, (n, m) in enumerate(mode_list):
        H[i, i] = (math.pi / geom.T) ** 2 * (tau + n) ** 2 + (math.pi * m / geom.d) ** 2
    for j, q, v in potential.terms:
        if v == 0:
            continue
        for col, (n, m) in enumerate(mode_list):
            for m_row in {m - q, m + q, q - m}:
                if m_row < 1:
                    continue
                row = index.get((n + j, m_row))
                if row is None:
                    continue
                w = _transverse_weight(m_row, m, q)
                if w != 0.0:
                    H[row, col] += v * w
    return H


def band_functions_by_assembly(geom: StripGeometry, potential: PotentialSpec, tau_grid,
                               k_max: int, truncation: tuple[int, int],
                               bounds) -> BandTable:
    """The certified table of ``stripgaps.galerkin.band_functions``, with one
    full ``assemble`` and one ``np.linalg.eigvalsh`` per tau (no reuse at
    -tau): the same upper side mu_k + eps and Feshbach lower side."""
    n_max, m_max = truncation
    a = (0.5 * (bounds.omega_plus - bounds.omega_minus)) ** 2
    upper, lower = [], []
    for tau in tau_grid:
        H = assemble(geom, tau, potential, n_max, m_max)
        ritz = np.linalg.eigvalsh(H)[:k_max]
        eps = EIG_ROUNDING_C * H.shape[0] * 2.0 ** -53 * float(np.abs(H).sum(axis=1).max())
        mu = ritz - eps
        g = _dropped_floor(geom, tau, n_max, m_max) + bounds.omega_minus - mu
        upper.append(ritz + eps)
        lower.append(mu - 2.0 * a / (g + np.sqrt(g * g + 4.0 * a)))
    return BandTable(tuple(float(t) for t in tau_grid), np.array(upper), np.array(lower))


# ---------------------------------------------------------------------------
# exact band endpoints from all pairs of curves
# ---------------------------------------------------------------------------

def _rank_crossings(xi: float, t: np.ndarray, lam: np.ndarray, n_cols: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray) -> None:
    """Fold crossings into the bands they rank as, one row of columns per crossing."""
    k_max = lo.size
    tie = (BOUNDARY_RTOL * np.maximum(1.0, lam))[:, None]
    x2 = (t[:, None] + n_cols) ** 2
    below = np.floor(np.sqrt(np.maximum(lam[:, None] - tie - x2, 0.0)) / xi)
    upto = np.floor(np.sqrt(np.maximum(lam[:, None] + tie - x2, 0.0)) / xi)
    below = below.sum(axis=1).astype(np.int64)
    upto = upto.sum(axis=1).astype(np.int64)
    counts = upto - below
    owner = np.repeat(np.arange(lam.size), counts)
    k = below[owner] + 1 + np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    keep = k <= k_max
    np.minimum.at(lo, k[keep] - 1, lam[owner[keep]])
    np.maximum.at(hi, k[keep] - 1, lam[owner[keep]])


def band_table_all_pairs(xi: float, k_max: int,
                         block: int = 1 << 16) -> tuple[np.ndarray, np.ndarray]:
    """Band endpoints (eta_k, theta_k), k = 1..k_max (scaled units), from all pairs.

    The level values at tau = 0 and 1/2, then every increasing curve (n >= 0)
    against every decreasing one (n < 0) of ``band_curves``, in blocks of about
    ``block`` pairs, kept by the float filter t in [0, 1/2], lambda <= cap.
    """
    xi2 = xi * xi
    n, m, cap = band_curves(xi, k_max)
    m2 = (m * m).astype(float)
    lo, hi = np.full(k_max, np.inf), np.full(k_max, -np.inf)
    for tau in (0.0, 0.5):
        kth = np.sort(np.partition((tau + n) ** 2 + xi2 * m2, k_max - 1)[:k_max])
        lo, hi = np.minimum(lo, kth), np.maximum(hi, kth)
    up, down = n >= 0, n < 0
    n_d, m2_d = n[down], m2[down]
    n_cols = np.arange(-math.ceil(math.sqrt(cap)) - 1, math.ceil(math.sqrt(cap)) + 2)
    rows = max(1, block // max(1, n_d.size))
    chunk = max(1, block // n_cols.size)
    for n_u, m2_u in ((c, m2[n == c][:, None]) for c in np.unique(n[up])):
        for r in range(0, m2_u.shape[0], rows):
            t = (xi2 * (m2_d - m2_u[r:r + rows]) / (n_u - n_d) - n_u - n_d) / 2.0
            lam = (t + n_u) ** 2 + xi2 * m2_u[r:r + rows]
            ok = (t >= 0.0) & (t <= 0.5) & (lam <= cap)
            t, lam = t[ok], lam[ok]
            for c in range(0, t.size, chunk):
                _rank_crossings(xi, t[c:c + chunk], lam[c:c + chunk], n_cols, lo, hi)
    return lo, hi


def truncation_by_kth_level(xi: float, k_max: int) -> tuple[int, int]:
    """(n_max, m_max) covering every mode that can reach E_k_max(1/2) + 1, with
    E_k_max(1/2) the k_max-th smallest level of ``band_curves`` at tau = 1/2."""
    n, m, _cap = band_curves(xi, k_max)
    level = np.partition((n + 0.5) ** 2 + xi * xi * m * m, k_max - 1)[k_max - 1]
    ceiling = float(level) + 1.0
    n_max = int(math.ceil(math.sqrt(ceiling) + 0.5)) + 1
    m_max = max(1, int(math.ceil(math.sqrt(ceiling) / xi)) + 1)
    return n_max, m_max


# ---------------------------------------------------------------------------
# band-pair windows from the exact endpoints of all bands
# ---------------------------------------------------------------------------

def overlap_lower_bound(xi: float, params: GapParams, ell: float) -> float:
    """Certified overlap of consecutive unperturbed bands at scaled height ell.

    Returns (xi^2/pi^2) (3 pi c0 ell^(1/4-gamma) - 3 pi/2 - 9 xi^2/4), the
    scaled bound of ``stripgaps.gaps`` (the paper's, read at d = 1), ell the
    scaled eta0_k.  A lower bound for the scaled theta0_k - eta0_{k+1}, valid
    once ell >= ell2_threshold (ValueError below that, reporting the required
    threshold).  Monotone increasing in ell for gamma < 1/4.  The fourth term
    of ``stripgaps.gaps.ell1_threshold`` is the scaled energy at which it
    reaches the scaled oscillation w.
    """
    ell2 = ell2_threshold(xi, params)
    if not ell >= ell2:
        raise ValueError(f"overlap bound needs ell >= ell2={ell2!r}, got {ell!r}")
    return xi * xi / math.pi ** 2 * (
        3.0 * math.pi * params.c0 * ell ** (0.25 - params.gamma)
        - 1.5 * math.pi
        - 2.25 * xi * xi
    )


def band_energies(geom: StripGeometry, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``band_edges``' endpoints of the bands 1..k_max taken to energy units
    by the factor pi^2/T^2 the ``bands`` command forms its energy columns with."""
    scale = math.pi * math.pi / (geom.T * geom.T)
    eta0, theta0 = band_edges(geom.xi, k_max)
    return scale * eta0, scale * theta0


def certify_band_pairs(bounds: PerturbBounds, bands0: tuple[np.ndarray, np.ndarray],
                       ell_max: float) -> BandPairs:
    """Windows of the consecutive pairs of bands0 up to the scaled ceiling ell_max.

    bands0 = (eta0, theta0) are the unperturbed endpoints of the bands
    k = 1, 2, ... in scaled energy (as ``band_edges`` returns them) and must
    cover the ceiling (ValueError otherwise); a window is emitted for every
    pair, in order of k, until the first upper band that starts above it, and
    certified by ``BandPairs.of`` for the scaled bounds.
    """
    eta0, theta0 = (np.asarray(e, dtype=float) for e in bands0)
    if theta0[-1] < ell_max:
        raise ValueError(f"bands0 top {float(theta0[-1])} does not cover the ceiling {ell_max}")
    above = eta0[1:] > ell_max
    pairs = int(np.argmax(above)) if above.any() else above.size
    return BandPairs.of(bounds, theta0[:pairs], eta0[1:pairs + 1])


def same_record(a, b) -> bool:
    """Field-by-field equality of two records of one dataclass, nested records
    and numpy arrays compared by value (``gap_report`` keeps its windows as
    ``BandPairs`` arrays, which compare by identity)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return all(same_record(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


def band_pairs_from_all_bands(xi: float, bounds: PerturbBounds,
                              ell_max: float) -> tuple[int, BandPairs]:
    """(band count, windows) below the scaled ceiling ell_max for scaled
    bounds, as ``gap_report`` sizes the bands (one more than
    sup_tau N0(ell_max, tau)), from the exact endpoints of all of them."""
    check_band_count(xi, ell_max)
    k_max = counting_extremes(xi, ell_max)[0] + 1
    return k_max, certify_band_pairs(bounds, band_edges(xi, k_max), ell_max)


# ---------------------------------------------------------------------------
# the paper's low-energy counting test
# ---------------------------------------------------------------------------

class LowSpectrumCheck(NamedTuple):
    """Outcome of the low-energy counting test at one scaled energy."""

    ell: float
    tau_max: float
    tau_min: float
    shifted_count: int
    reference_count: int
    difference: int
    positive: bool


def low_spectrum_no_gap(xi: float, verdict: ConditionsVerdict, ell: float) -> LowSpectrumCheck:
    """Counting-difference test excluding gaps at scaled energy ell < 1.

    verdict is conditions_check's for xi and the scaled perturbation bounds.
    Evaluates N0(ell - w, tau_max) - N0(ell, tau_min), w the scaled
    oscillation, with
    tau_max = 0 for ell <= verdict.ell_star and tau_max = 1/2 above, and
    tau_min = 1 - sqrt(ell) in both cases.  A
    strictly positive difference certifies that the perturbed spectrum has no
    gap at scaled energy ell.

    Preconditions (ValueError otherwise): 1/4 + xi^2 < ell < 1, a verdict
    evaluated at xi, and the subcritical-ratio plus low-energy
    budget conditions; positivity is then guaranteed, so a nonpositive
    difference is reported (positive=False) rather than raised, letting
    property suites surface it.
    """
    validate_ell(ell)
    if not 0.25 + xi * xi < ell < 1.0:
        raise ValueError(
            f"low-spectrum test needs 1/4 + xi^2 < ell < 1, got ell={ell} at xi={xi}"
        )
    if verdict.xi != xi:
        raise ValueError(
            f"low-spectrum test got a verdict at xi={verdict.xi} for xi={xi}"
        )
    if not (verdict.xi_subcritical and verdict.low_energy_ok):
        raise ValueError(
            "low-spectrum test requires the subcritical-ratio and low-energy "
            f"budget conditions; got {verdict}"
        )
    tau_max = 0.0 if ell <= verdict.ell_star else 0.5
    tau_min = 1.0 - math.sqrt(ell)
    shifted = counting(xi, ell - verdict.scaled_oscillation, tau_max)
    reference = counting(xi, ell, tau_min)
    diff = shifted - reference
    return LowSpectrumCheck(
        ell=ell,
        tau_max=tau_max,
        tau_min=tau_min,
        shifted_count=shifted,
        reference_count=reference,
        difference=diff,
        positive=diff > 0,
    )
