"""Spectral-gap decision machinery for the perturbed strip operator.

The perturbation is an abstract bounded symmetric cell operator known here
only through its spectral bounds omega_minus <= omega_plus (quadratic-form
infimum and supremum over the periodicity cell) and their difference, the
oscillation omega_L.  By the minimax principle every perturbed band endpoint
lies within [unperturbed + omega_minus, unperturbed + omega_plus], which is
all the certification below ever uses.

Units.  The paper's constants are read at d = 1, and the module is unit-free:
every function takes xi, scaled energies ell = (T^2/pi^2) E and bounds in
scaled units, T^2/pi^2 times omega (their omega_L is the scaled oscillation
w), and returns ell1 and the windows in scaled energy; the command line forms
the energies.  So (T, d, omega) and (sT, sd, omega/s^2), a unitarily
equivalent operator times 1/s^2, get the same verdicts.

Three certified conclusions are available, all one-sided (absence of gaps is
provable, existence never is):

* High energy.  If the oscillatory minorant sup_p |phi_p(ell)| >= c0 ell^(-gamma)
  holds for ell >= ell0 (constants supplied by GapParams; for xi below the
  critical ratio the certified uniform bound provides c0 = c0(xi), gamma = 0,
  ell0 = 1), then consecutive unperturbed bands overlap by at least

      (xi^2/pi^2) (3 pi c0 ell^(1/4-gamma) - 3 pi/2 - 9 xi^2/4)

  in scaled energy, ell the scaled eta0_k, once ell >= ell2, and no gap of
  the perturbed operator can survive above the threshold ell1 (a four-term
  maximum plus the scaled omega_minus).

* Low energy.  For xi below the critical ratio and a scaled oscillation
  within the low-energy budget (the verdict low_energy_ok), the paper's
  lemma makes the counting difference N0(ell - w, tau_max) - N0(ell, tau_min)
  strictly positive on all of 1/4 + xi^2 < ell < 1, so no gap opens there.
  The verdict is the budget; the counting test itself is the oracle that
  acceptance criterion 06 runs (tests/oracles.low_spectrum_no_gap).

* Band pairs.  Between bands k and k+1 any perturbed gap is confined to the
  open window (theta0_k + omega_minus, eta0_{k+1} + omega_plus); the window is
  empty exactly when theta0_k - eta0_{k+1} >= omega_L, and the gap is
  certified absent when that holds with the rounding slack OVERLAP_RTOL.
  Only a lower bound on the overlap is needed: the bands sampled at a few
  quasimomenta give inner bounds on theta0_k and eta0_{k+1}, and a window
  they already close is closed (_closes).  Exact endpoints are computed only
  for the windows the samples leave open.  The ceiling is the count: the
  S = sup_tau N0(ell_max, tau) bands that start at or below it give the
  pairs k = 1..S - 1.

conditions_check is the one place the scalar verdicts are evaluated,
ell_star among them.  gap_report is the one implementation of the chain: it
evaluates the conditions once and the threshold ell1 and, given a ceiling,
counts the unperturbed bands that start below it and certifies every band
pair below it (_band_pairs).  Windows are BandPairs arrays only.  The command
line renders the report and forms its energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscillation import critical_constants
from .spectrum import BOUNDARY_RTOL, check_band_count, sample_bands

__all__ = [
    "PerturbBounds",
    "GapParams",
    "ConditionsVerdict",
    "conditions_check",
    "ell1_threshold",
    "ell2_threshold",
    "BandPairs",
    "GapReport",
    "gap_report",
]

# Slack of overlap >= omega_L, relative to its largest magnitude (at least 1 in
# scaled energy): covers each endpoint's tie tolerance BOUNDARY_RTOL and rounding.
OVERLAP_RTOL = 4.0 * BOUNDARY_RTOL
# Slack of gapless_margin >= 0, relative to c1: whenever the margin is
# positive its subtracted terms sum to less than c1, so c1 scales every term;
# covers the rounding of c1's closed form and of the margin's six terms.
GAPLESS_RTOL = 1e-12


@dataclass(frozen=True)
class PerturbBounds:
    """Spectral bounds of the perturbation over the cell.

    omega_minus (infimum) and omega_plus (supremum) of the perturbation's
    quadratic form; omega_L = omega_plus - omega_minus is the oscillation.
    Built in energy units (galerkin, the command line); read here scaled.
    All three must be finite (ValueError otherwise).  Everything downstream
    is monotone in the enclosure, so conservative (outer) values stay sound.
    """

    omega_minus: float = 0.0
    omega_plus: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega_minus) and math.isfinite(self.omega_plus)):
            raise ValueError("perturbation bounds must be finite")
        if self.omega_minus > self.omega_plus:
            raise ValueError(
                f"omega_minus={self.omega_minus} exceeds omega_plus={self.omega_plus}"
            )
        if not math.isfinite(self.omega_L):
            raise ValueError(f"oscillation omega_plus - omega_minus overflows: omega_minus="
                             f"{self.omega_minus}, omega_plus={self.omega_plus}")

    @property
    def omega_L(self) -> float:
        """Oscillation omega_plus - omega_minus (always >= 0)."""
        return self.omega_plus - self.omega_minus


@dataclass(frozen=True)
class GapParams:
    """Constants (c0, gamma, ell0) of the oscillatory minorant hypothesis.

    The hypothesis reads sup_p |phi_p(ell)| >= c0 ell^(-gamma) for all
    ell >= ell0.  gamma < 1/4 is structural: the overlap gain grows like
    ell^(1/4-gamma) and the threshold exponents 4/(1-4 gamma), 2/(1-2 gamma)
    must stay finite and positive.
    """

    c0: float
    gamma: float = 0.0
    ell0: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c0) and self.c0 > 0.0):
            raise ValueError(f"c0 must be positive, got {self.c0}")
        if not (math.isfinite(self.gamma) and self.gamma < 0.25):
            raise ValueError(f"gamma must be < 1/4, got {self.gamma}")
        if not (math.isfinite(self.ell0) and self.ell0 >= 1.0):
            raise ValueError(f"ell0 must be >= 1, got {self.ell0}")

    @classmethod
    def from_small_ratio(cls, xi: float) -> "GapParams":
        """Certified minorant constants for xi below the critical ratio.

        c0 = (c1 - 2 zeta(3/2) xi^(3/2)) / (pi xi), gamma = 0, ell0 = 1.
        Valid only for 0 < xi < xi_critical (where c0 > 0); elsewhere c0 (and
        optionally gamma, ell0) must be supplied.
        """
        cc = critical_constants()
        if not 0.0 < xi < cc.xi_critical:
            raise ValueError(
                f"small-ratio constants require 0 < xi < {cc.xi_critical:.10f}, "
                f"got xi={xi}; supply c0 (and optionally gamma, ell0)"
            )
        return cls(c0=cc.c0(xi), gamma=0.0, ell0=1.0)


def _a_ratio(xi: float) -> float:
    """Auxiliary ratio A(xi) = (sqrt(3 + 4 xi^2) + xi) / 3.

    A(xi)^2 is the oscillation-free part of the low-energy crossing root
    ell_star, and A enters the low-energy oscillation budget.
    """
    return (math.sqrt(3.0 + 4.0 * xi * xi) + xi) / 3.0


def low_energy_budget(xi: float) -> float:
    """Upper budget for the scaled oscillation in the low-energy argument.

    Returns ((A(xi) - xi)^2 + 1)^2 / 4 - A(xi)^2 with A as in _a_ratio.  The
    low-energy no-gap test requires the scaled oscillation w below it.
    """
    a = _a_ratio(xi)
    return ((a - xi) ** 2 + 1.0) ** 2 / 4.0 - a * a


@dataclass(frozen=True)
class ConditionsVerdict:
    """Verdicts (with margins) of the gapless conditions at xi and scaled oscillation w.

    xi_subcritical     : xi < xi_critical (small-ratio regime applies).
    low_energy_ok      : scaled oscillation w is nonnegative and strictly
                         below low_energy_budget(xi).
    gapless_margin/ok  : sign of the scalar small-period margin
                         c1 - 2 zeta(3/2) xi^(3/2) - ((3+2 sqrt 2) pi + 3)/6 xi
                         - (3 pi/4) xi^2 - (xi/(32 pi)) sqrt(9 + 25/(1024 pi^2))
                         - pi^2 w / (4 xi);
                         a margin of at least GAPLESS_RTOL c1 (rounding
                         slack) certifies a completely gapless spectrum
                         (given the other two conditions).
    first_band_ok      : scaled oscillation below the first band height
                         1/4 + xi^2 (implied by low_energy_ok; re-checked).
    ell_star           : low-energy crossing threshold A(xi)^2 + scaled
                         oscillation, the positive root of

                             2 sqrt(ell - w - 1/4) / xi - 1 = sqrt(ell - w) / xi,

                         the scaled energy at which the two tau strategies of
                         the low-energy test exchange roles.
    """

    xi: float
    scaled_oscillation: float
    xi_subcritical: bool
    low_energy_budget: float
    low_energy_ok: bool
    gapless_margin: float
    gapless_ok: bool
    first_band_ok: bool
    ell_star: float

    @property
    def all_gapless(self) -> bool:
        """True when the full no-gap certification applies."""
        return self.xi_subcritical and self.low_energy_ok and self.gapless_ok


def gapless_margin(xi: float, scaled: float) -> float:
    """Small-period gapless margin at scaled = w (see ConditionsVerdict)."""
    cc = critical_constants()
    return (
        cc.c1
        - 2.0 * cc.zeta32 * xi ** 1.5
        - ((3.0 + 2.0 * math.sqrt(2.0)) * math.pi + 3.0) / 6.0 * xi
        - 0.75 * math.pi * xi * xi
        - xi / (32.0 * math.pi) * math.sqrt(9.0 + 25.0 / (1024.0 * math.pi ** 2))
        - math.pi ** 2 * scaled / (4.0 * xi)
    )


def conditions_check(xi: float, bounds: PerturbBounds) -> ConditionsVerdict:
    """Evaluate the gapless-certification conditions at xi for scaled bounds.

    Internal consistency, checked on every verdict, also under python -O
    (AssertionError, which would indicate an arithmetic error): whenever the
    low-energy budget condition holds, the first-band condition holds too
    (the budget is the smaller quantity); and whenever the first-band and
    subcritical-ratio conditions hold, 1/4 + xi^2 < ell_star < 2/3.
    """
    cc = critical_constants()
    scaled = bounds.omega_L
    budget = low_energy_budget(xi)
    low_ok = 0.0 <= scaled < budget
    margin = gapless_margin(xi, scaled)
    first_ok = 0.0 <= scaled < 0.25 + xi * xi
    subcritical = xi < cc.xi_critical
    star = _a_ratio(xi) ** 2 + scaled
    if low_ok and not first_ok:
        raise AssertionError(
            "low-energy budget accepted an oscillation above the first band height: "
            f"xi={xi}, scaled={scaled}, budget={budget}")
    if first_ok and subcritical and not 0.25 + xi * xi < star < 2.0 / 3.0:
        raise AssertionError(
            f"crossing threshold {star} escaped its sandwich "
            f"({0.25 + xi * xi}, {2/3}) at xi={xi}")
    return ConditionsVerdict(
        xi=xi,
        scaled_oscillation=scaled,
        xi_subcritical=subcritical,
        low_energy_budget=budget,
        low_energy_ok=low_ok,
        gapless_margin=margin,
        gapless_ok=margin >= GAPLESS_RTOL * cc.c1,
        first_band_ok=first_ok,
        ell_star=star,
    )


def ell2_threshold(xi: float, params: GapParams) -> float:
    """Scaled energy beyond which the residual bound fits under (c0/2) ell^(1/4-gamma).

    Three-term maximum

        max{ ell0,
             ((4 sqrt(2) pi + 6) / (3 pi c0))^(4/(1-4 gamma)),
             ((1/(8 pi^2 xi c0)) sqrt(9 + 25/(1024 pi^2)))^(2/(1-2 gamma)) }.

    Above it the counting-function extremes clear a0 by (c0/2) ell^(1/4-gamma)
    on each side, which feeds the band-overlap bound.
    """
    c0, g = params.c0, params.gamma
    t2 = ((4.0 * math.sqrt(2.0) * math.pi + 6.0) / (3.0 * math.pi * c0)) ** (
        4.0 / (1.0 - 4.0 * g)
    )
    t3 = (
        math.sqrt(9.0 + 25.0 / (1024.0 * math.pi ** 2)) / (8.0 * math.pi ** 2 * xi * c0)
    ) ** (2.0 / (1.0 - 2.0 * g))
    return max(params.ell0, t2, t3)


def ell1_threshold(xi: float, params: GapParams, bounds: PerturbBounds) -> float:
    """Scaled energy above which the perturbed spectrum certainly has no gaps.

    max{ ell0,
         ((4 sqrt(2) pi + 6)/(3 pi c0))^(4/(1-4 gamma)),
         ((1/(8 pi^2 xi c0)) sqrt(9 + 25/(1024 pi^2)))^(2/(1-2 gamma)),
         (pi w/(3 c0 xi^2) + 1/(2 c0) + 3 xi^2/(4 pi c0))^(4/(1-4 gamma)) }
    + omega_minus of the scaled bounds, w their omega_L; OverflowError naming
    ell1 and w where that is not finite (a division overflows, a pow raises).

    The first three terms are ell2_threshold.  The fourth is the root in ell
    of the scaled overlap bound (module docstring) at w: above ell1 the bound
    applies (ell >= ell2) and, increasing in ell, is at least w, so no
    band-pair window is open (test_ell1_fourth_term_reaches_the_overlap_bound).
    The constant is the bound's own; 4/3 of the bound on the left (coefficient
    pi/(4 c0 xi^2) of w) gives a smaller root, at which the bound is 3/4 w.
    """
    c0, g = params.c0, params.gamma
    w = bounds.omega_L
    try:
        t4 = (
            math.pi * w / (3.0 * c0 * xi) / xi  # not by xi * xi, which is 0 at xi 1e-300
            + 1.0 / (2.0 * c0) + 3.0 * xi * xi / (4.0 * math.pi * c0)
        ) ** (4.0 / (1.0 - 4.0 * g))
        ell1 = max(ell2_threshold(xi, params), t4) + bounds.omega_minus
    except OverflowError:
        ell1 = math.inf
    if not math.isfinite(ell1):
        raise OverflowError(f"threshold ell1 = {ell1} at scaled oscillation {w}")
    return ell1


@dataclass(frozen=True, eq=False)
class BandPairs:
    """Candidate windows of the band pairs (k, k+1), k = 1..len(self), as scaled arrays.

    Entry k - 1 describes pair k: any perturbed gap between bands k and k+1
    lies inside the open window (lo, hi) = (theta0_k + omega_minus,
    eta0_{k+1} + omega_plus); overlap is the unperturbed overlap
    theta0_k - eta0_{k+1}, and certified whether the gap is certified absent
    (_closes: the window is empty with the slack OVERLAP_RTOL, so an overlap
    equal to omega_L only within rounding stays undecided).  In gap_report's
    windows the entries are exact for every window not certified from band
    samples; for a window certified from samples, (lo, hi) may be an outer
    window and overlap a lower bound.
    """

    lo: np.ndarray
    hi: np.ndarray
    overlap: np.ndarray
    certified: np.ndarray

    @classmethod
    def of(cls, bounds: PerturbBounds, below_hi: np.ndarray, above_lo: np.ndarray) -> "BandPairs":
        """Windows of the pairs whose lower band ends at below_hi (theta0_k) and
        upper band starts at above_lo (eta0_{k+1}), certified by _closes."""
        return cls(lo=below_hi + bounds.omega_minus, hi=above_lo + bounds.omega_plus,
                   overlap=below_hi - above_lo,
                   certified=_closes(bounds, below_hi, above_lo))

    def __len__(self) -> int:
        return self.lo.size


def _closes(bounds: PerturbBounds, below_hi: np.ndarray, above_lo: np.ndarray) -> np.ndarray:
    """The certification predicate of band-pair windows, elementwise.

    True where the overlap below_hi - above_lo beats omega_L by the slack
    OVERLAP_RTOL max(|below_hi|, |above_lo|, 1, |omega_minus|, |omega_plus|),
    all scaled.  Raising below_hi or lowering above_lo by some amount
    raises the overlap by that amount and the slack by at most OVERLAP_RTOL
    times it, so a pair certified at inner bounds of its endpoints stays
    certified at the endpoints.
    """
    floor = max(1.0, abs(bounds.omega_minus), abs(bounds.omega_plus))
    slack = OVERLAP_RTOL * np.maximum(np.maximum(np.abs(below_hi), np.abs(above_lo)), floor)
    return below_hi - above_lo >= bounds.omega_L + slack


def _band_pairs(xi: float, bounds: PerturbBounds, band_count: int, ell_max: float) -> BandPairs:
    """Windows of the pairs k = 1..S - 1 below the scaled ceiling ell_max.

    band_count = S + 1, where S = sup_tau N0(ell_max, tau) is the number of
    bands that start at or below the ceiling (counting's inclusive rule), so
    the pairs whose upper band starts below it are exactly k = 1..S - 1.  The
    bands are sampled (spectrum.sample_bands), which brackets every endpoint:

        eta - spread <= eta0 <= eta + tie,    theta - tie <= theta0 <= theta + spread.

    The count is cross-checked against those brackets: ValueError when band
    S + 1 certainly starts below the ceiling, eta_{S+1} + tie < ceiling, or
    band S certainly starts above it, eta_S - spread > ceiling + tie (tie
    exceeds counting's inclusive margin), ceiling = ell_max.

    A window whose inner bounds theta_k - tie and eta_{k+1} + tie already pass
    the certification predicate is certified, as it is at the exact endpoints
    (see _closes).  Exact endpoints are computed, in one pass over the
    crossings inside their brackets, only for the windows the samples leave
    open (no pass at all when there are none).  So flags and every window not
    certified from samples are those of the exact endpoints of all bands.
    """
    samples = sample_bands(xi, band_count)
    eta, theta, spread, tie = samples.eta, samples.theta, samples.spread, samples.tie
    top = band_count - 1
    if eta[top] + tie < ell_max:
        raise ValueError(f"band count {band_count} does not cover the ceiling {ell_max}: "
                         f"band {band_count} starts below it")
    if top and eta[top - 1] - spread > ell_max + tie:
        raise ValueError(f"band count {band_count} overshoots the ceiling {ell_max}: "
                         f"band {top} starts above it")
    pairs = max(top - 1, 0)
    below_hi, above_lo = theta[:pairs] - tie, eta[1:pairs + 1] + tie
    open_ = ~_closes(bounds, below_hi, above_lo)
    if open_.any():
        theta_at, eta_at = np.zeros((2, band_count), dtype=bool)
        theta_at[:pairs] = eta_at[1:pairs + 1] = open_
        eta0, theta0 = samples.edges(eta_at, theta_at)
        below_hi = np.where(open_, theta0[:pairs], below_hi)
        above_lo = np.where(open_, eta0[1:pairs + 1], above_lo)
    return BandPairs.of(bounds, below_hi, above_lo)


@dataclass(frozen=True)
class GapReport:
    """Consolidated certification artifact.

    conditions holds the scalar verdicts (ell_star among them) and ell1 the
    high-energy threshold, in scaled energy like the windows.  Given a
    ceiling, band_count is one more than the number S of unperturbed bands
    that start at or below it, and candidate_gaps the windows of the pairs
    k = 1..S - 1 with their certification status (exact for every window not
    certified from band samples, see BandPairs); without a ceiling band_count
    is 0 and candidate_gaps empty.
    """

    ell1: float
    conditions: ConditionsVerdict
    band_count: int
    candidate_gaps: BandPairs

    @property
    def undecided(self) -> np.ndarray:
        """0-based positions of the candidate windows the enclosure argument
        could not close (window i belongs to the pair k = i + 1)."""
        return np.flatnonzero(~self.candidate_gaps.certified)


def gap_report(xi: float, bounds: PerturbBounds, params: GapParams,
               ell_max: float | None = None) -> GapReport:
    """Run the certification chain at xi for scaled bounds: conditions,
    thresholds, band pairs.

    The low-energy conclusion is the verdict's low_energy_ok; no counting
    function is evaluated for it.  With ell_max, S = sup_tau N0(ell_max, tau)
    bands start at or below the scaled energy ell_max; the S + 1 bands up to
    the first that starts above it are sampled, failing closed first above
    spectrum.MAX_BAND_CURVES, and every pair k = 1..S - 1 gets its window
    (_band_pairs).  Deterministic: output ordered by k.
    """
    verdict = conditions_check(xi, bounds)
    ell1 = ell1_threshold(xi, params, bounds)
    band_count = 0
    none = np.empty(0)
    candidates = BandPairs(none, none, none, np.empty(0, dtype=bool))
    if ell_max is not None:
        check_band_count(xi, ell_max)
        # looked up on the spectrum module at call time, where instrumentation
        # wraps it
        from .spectrum import counting_extremes

        band_count = counting_extremes(xi, ell_max)[0] + 1
        candidates = _band_pairs(xi, bounds, band_count, ell_max)
    return GapReport(
        ell1=ell1,
        conditions=verdict,
        band_count=band_count,
        candidate_gaps=candidates,
    )
