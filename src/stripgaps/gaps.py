"""Spectral-gap decision machinery for the perturbed strip operator.

The perturbation is an abstract bounded symmetric cell operator known here
only through its spectral bounds omega_minus <= omega_plus (quadratic-form
infimum and supremum over the periodicity cell) and their difference, the
oscillation omega_L.  By the minimax principle every perturbed band endpoint
lies within [unperturbed + omega_minus, unperturbed + omega_plus], which is
all the certification below ever uses.

Three certified conclusions are available, all one-sided (absence of gaps is
provable, existence never is):

* High energy.  If the oscillatory minorant sup_p |phi_p(ell)| >= c0 ell^(-gamma)
  holds for ell >= ell0 (constants supplied by GapParams; for xi below the
  critical ratio the certified uniform bound provides c0 = c0(xi), gamma = 0,
  ell0 = 1), then consecutive unperturbed bands overlap by at least

      (3 pi xi c0 / T) (T^2 eta0_k / pi^2)^(1/4-gamma) - 3 pi xi / (2T) - 9 xi^2/4

  once eta0_k >= (pi^2/T^2) ell2, and no gap of the perturbed operator can
  survive above the explicit threshold ell1 (a four-term maximum plus
  omega_minus).

* Low energy.  For scaled energies 1/4 + xi^2 < ell < 1, a counting-function
  difference is strictly positive whenever the oscillation fits the
  low-energy budget; positivity certifies that no gap opens in that window.

* Band pairs.  Between bands k and k+1 any perturbed gap is confined to the
  open window (theta0_k + omega_minus, eta0_{k+1} + omega_plus); the window is
  empty exactly when theta0_k - eta0_{k+1} >= omega_L, and the gap is
  certified absent when that holds with the rounding slack OVERLAP_RTOL.
  Only a lower bound on the overlap is needed: the bands sampled at a few
  quasimomenta give inner bounds on theta0_k and eta0_{k+1}, and a window
  they already close is closed (_closes).  Exact endpoints are computed only
  for the windows the samples leave open and at the ceiling.

conditions_check is the one place the scalar verdicts are evaluated,
ell_star among them; the low-energy test takes its verdict.  gap_report is
the one implementation of the chain: it evaluates the conditions once and
the threshold ell1, runs the low-energy grid and, given a ceiling, sizes the
unperturbed bands that cover it and certifies every band pair below it
(_band_pairs).  Windows are BandPairs arrays only.  The command line only
renders the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import StripGeometry, validate_ell
from .oscillation import critical_constants
from .spectrum import BOUNDARY_RTOL, check_band_count, counting, sample_bands

__all__ = [
    "PerturbBounds",
    "GapParams",
    "ConditionsVerdict",
    "conditions_check",
    "ell1_threshold",
    "ell2_threshold",
    "LowSpectrumCheck",
    "low_spectrum_no_gap",
    "BandPairs",
    "GapReport",
    "gap_report",
]

# Slack of overlap >= omega_L, relative to its largest magnitude (at least
# pi^2/T^2): covers each endpoint's tie tolerance BOUNDARY_RTOL and rounding.
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
    Everything downstream is monotone in the enclosure, so conservative
    (outer) values stay sound.
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
        Valid only for 0 < xi < xi_critical (where c0 > 0).
        """
        cc = critical_constants()
        if not 0.0 < xi < cc.xi_critical:
            raise ValueError(
                f"small-ratio constants require 0 < xi < {cc.xi_critical:.10f}, "
                f"got xi={xi}"
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
    low-energy no-gap test requires (T^2/pi^2) omega_L below this value.
    """
    a = _a_ratio(xi)
    return ((a - xi) ** 2 + 1.0) ** 2 / 4.0 - a * a


@dataclass(frozen=True)
class ConditionsVerdict:
    """Boolean verdicts (with margins) of the gapless-certification conditions.

    xi_subcritical     : xi < xi_critical (small-ratio regime applies).
    low_energy_ok      : scaled oscillation (T^2/pi^2) omega_L is nonnegative
                         and strictly below low_energy_budget(xi).
    gapless_margin/ok  : sign of the scalar small-period margin
                         c1 - 2 zeta(3/2) xi^(3/2) - ((3+2 sqrt 2) pi + 3)/6 xi
                         - (3 pi/4) xi^2 - (xi/(32 pi)) sqrt(9 + 25/(1024 pi^2))
                         - T omega_L / 4;
                         a margin of at least GAPLESS_RTOL c1 (rounding
                         slack) certifies a completely gapless spectrum
                         (given the other two conditions).
    first_band_ok      : scaled oscillation below the first band height
                         1/4 + xi^2 (implied by low_energy_ok; re-checked).
    ell_star           : low-energy crossing threshold A(xi)^2 + scaled
                         oscillation, the positive root of

                             2 sqrt(ell - w - 1/4) / xi - 1 = sqrt(ell - w) / xi,
                             w = (T^2/pi^2) omega_L,

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

    @property
    def low_spectrum_applicable(self) -> bool:
        """True when the low-energy counting test applies (low_spectrum_no_gap)."""
        return self.xi_subcritical and self.low_energy_ok


def gapless_margin(xi: float, T: float, omega_L: float) -> float:
    """Scalar margin of the small-period gapless criterion (see ConditionsVerdict)."""
    cc = critical_constants()
    return (
        cc.c1
        - 2.0 * cc.zeta32 * xi ** 1.5
        - ((3.0 + 2.0 * math.sqrt(2.0)) * math.pi + 3.0) / 6.0 * xi
        - 0.75 * math.pi * xi * xi
        - xi / (32.0 * math.pi) * math.sqrt(9.0 + 25.0 / (1024.0 * math.pi ** 2))
        - T * omega_L / 4.0
    )


def conditions_check(geom: StripGeometry, bounds: PerturbBounds) -> ConditionsVerdict:
    """Evaluate the gapless-certification conditions for (geometry, bounds).

    Internal consistency, checked on every verdict, also under python -O
    (AssertionError, which would indicate an arithmetic error): whenever the
    low-energy budget condition holds, the first-band condition holds too
    (the budget is the smaller quantity); and whenever the first-band and
    subcritical-ratio conditions hold, 1/4 + xi^2 < ell_star < 2/3.
    """
    xi = geom.xi
    cc = critical_constants()
    scaled = geom.T ** 2 / math.pi ** 2 * bounds.omega_L
    budget = low_energy_budget(xi)
    low_ok = 0.0 <= scaled < budget
    margin = gapless_margin(xi, geom.T, bounds.omega_L)
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


def ell2_threshold(geom: StripGeometry, params: GapParams) -> float:
    """Scaled energy beyond which the residual bound fits under (c0/2) ell^(1/4-gamma).

    Three-term maximum

        max{ ell0,
             ((4 sqrt(2) pi + 6) / (3 pi c0))^(4/(1-4 gamma)),
             ((1/(8 pi^2 xi c0)) sqrt(9 + 25/(1024 pi^2)))^(2/(1-2 gamma)) }.

    Above it the counting-function extremes clear a0 by (c0/2) ell^(1/4-gamma)
    on each side, which feeds the band-overlap bound.
    """
    xi = geom.xi
    c0, g = params.c0, params.gamma
    t2 = ((4.0 * math.sqrt(2.0) * math.pi + 6.0) / (3.0 * math.pi * c0)) ** (
        4.0 / (1.0 - 4.0 * g)
    )
    t3 = (
        math.sqrt(9.0 + 25.0 / (1024.0 * math.pi ** 2)) / (8.0 * math.pi ** 2 * xi * c0)
    ) ** (2.0 / (1.0 - 2.0 * g))
    return max(params.ell0, t2, t3)


def ell1_threshold(
    geom: StripGeometry, params: GapParams, bounds: PerturbBounds
) -> float:
    """Energy above which the perturbed spectrum certainly has no gaps.

    (pi^2/T^2) max{ ell0,
                    ((4 sqrt(2) pi + 6)/(3 pi c0))^(4/(1-4 gamma)),
                    ((1/(8 pi^2 xi c0)) sqrt(9 + 25/(1024 pi^2)))^(2/(1-2 gamma)),
                    ((T/(4 pi c0 xi)) omega_L + 1/(2 c0)
                     + 3 xi T/(4 pi c0))^(4/(1-4 gamma)) }
    + omega_minus.

    The first three terms are ell2_threshold.  The fourth is the scaled
    energy ell where (4 pi xi c0 / T) ell^(1/4-gamma) - 2 pi xi / T - 3 xi^2
    reaches omega_L.  That left side is 4/3 of the overlap lower bound
    (3 pi xi c0 / T) ell^(1/4-gamma) - 3 pi xi / (2T) - 9 xi^2 / 4, so at that
    energy the overlap bound is 3/4 omega_L, not omega_L; which constant the
    paper's lemma intends is not settled here.
    """
    xi = geom.xi
    c0, g = params.c0, params.gamma
    t4 = (
        geom.T / (4.0 * math.pi * c0 * xi) * bounds.omega_L
        + 1.0 / (2.0 * c0)
        + 3.0 * xi * geom.T / (4.0 * math.pi * c0)
    ) ** (4.0 / (1.0 - 4.0 * g))
    base = max(ell2_threshold(geom, params), t4)
    return math.pi ** 2 / geom.T ** 2 * base + bounds.omega_minus


class LowSpectrumCheck(NamedTuple):
    """Outcome of the low-energy counting test at one scaled energy."""

    ell: float
    tau_max: float
    tau_min: float
    shifted_count: int
    reference_count: int
    difference: int
    positive: bool


def low_spectrum_no_gap(
    geom: StripGeometry, verdict: ConditionsVerdict, ell: float
) -> LowSpectrumCheck:
    """Counting-difference test excluding gaps at scaled energy ell < 1.

    verdict is conditions_check's for geom and the perturbation bounds.
    Evaluates N0(ell - (T^2/pi^2) omega_L, tau_max) - N0(ell, tau_min), with
    tau_max = 0 for ell <= verdict.ell_star and tau_max = 1/2 above, and
    tau_min = 1 - sqrt(ell) in both cases.  A
    strictly positive difference certifies that the perturbed spectrum has no
    gap at energy (pi^2/T^2) ell.

    Preconditions (ValueError otherwise): 1/4 + xi^2 < ell < 1, a verdict
    evaluated at geom's ratio xi, and the subcritical-ratio plus low-energy
    budget conditions; positivity is then guaranteed, so a nonpositive
    difference is reported (positive=False) rather than raised, letting
    property suites surface it.
    """
    validate_ell(ell)
    xi = geom.xi
    if not 0.25 + xi * xi < ell < 1.0:
        raise ValueError(
            f"low-spectrum test needs 1/4 + xi^2 < ell < 1, got ell={ell} at xi={xi}"
        )
    if verdict.xi != xi:
        raise ValueError(
            f"low-spectrum test got a verdict at xi={verdict.xi} for a geometry at xi={xi}"
        )
    if not verdict.low_spectrum_applicable:
        raise ValueError(
            "low-spectrum test requires the subcritical-ratio and low-energy "
            f"budget conditions; got {verdict}"
        )
    tau_max = 0.0 if ell <= verdict.ell_star else 0.5
    tau_min = 1.0 - math.sqrt(ell)
    shifted = counting(geom, ell - verdict.scaled_oscillation, tau_max)
    reference = counting(geom, ell, tau_min)
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


@dataclass(frozen=True, eq=False)
class BandPairs:
    """Candidate windows of the band pairs (k, k+1), k = 1..len(self), as arrays.

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
    def of(cls, geom: StripGeometry, bounds: PerturbBounds, below_hi: np.ndarray,
           above_lo: np.ndarray) -> "BandPairs":
        """Windows of the pairs whose lower band ends at below_hi (theta0_k) and
        upper band starts at above_lo (eta0_{k+1}), certified by _closes."""
        return cls(lo=below_hi + bounds.omega_minus, hi=above_lo + bounds.omega_plus,
                   overlap=below_hi - above_lo,
                   certified=_closes(geom, bounds, below_hi, above_lo))

    def __len__(self) -> int:
        return self.lo.size


def _closes(geom: StripGeometry, bounds: PerturbBounds, below_hi: np.ndarray,
            above_lo: np.ndarray) -> np.ndarray:
    """The certification predicate of band-pair windows, elementwise.

    True where the overlap below_hi - above_lo beats omega_L by the slack
    OVERLAP_RTOL max(|below_hi|, |above_lo|, pi^2/T^2, |omega_minus|,
    |omega_plus|).  Raising below_hi or lowering above_lo by some amount
    raises the overlap by that amount and the slack by at most OVERLAP_RTOL
    times it, so a pair certified at inner bounds of its endpoints stays
    certified at the endpoints.
    """
    floor = max(math.pi ** 2 / geom.T ** 2, abs(bounds.omega_minus), abs(bounds.omega_plus))
    slack = OVERLAP_RTOL * np.maximum(np.maximum(np.abs(below_hi), np.abs(above_lo)), floor)
    return below_hi - above_lo >= bounds.omega_L + slack


def _first(flags: np.ndarray) -> int:
    """Position of the first set flag, or flags.size when none is set."""
    return int(np.argmax(flags)) if flags.any() else flags.size


def _band_pairs(geom: StripGeometry, bounds: PerturbBounds, k_max: int,
                ell_max: float) -> BandPairs:
    """Windows of the consecutive pairs of the bands 1..k_max up to (pi^2/T^2) ell_max.

    A window is emitted for every pair, in order of k, until the first upper
    band that starts above the ceiling; the bands must cover the ceiling
    (ValueError otherwise).  The bands are sampled first (spectrum.sample_bands),
    which brackets every endpoint:

        eta - spread <= eta0 <= eta + tie,    theta - tie <= theta0 <= theta + spread.

    A window whose inner bounds theta_k - tie and eta_{k+1} + tie already pass
    the certification predicate is certified, as it is at the exact endpoints
    (see _closes).  Exact endpoints are computed, in one pass over the
    crossings inside their brackets, only where the samples leave something
    open: both sides of every other window below the ceiling, the lower
    endpoint of each band whose bracket straddles the ceiling, and the upper
    endpoint of the top band when its bracket does not clear the ceiling.
    So window count, flags and every window not certified from samples are
    those of the exact endpoints of all bands.
    """
    scale = math.pi ** 2 / geom.T ** 2
    ceiling = scale * ell_max
    samples = sample_bands(geom.xi, k_max)
    eta, theta = scale * samples.eta, scale * samples.theta
    spread, tie = scale * samples.spread, scale * samples.tie
    above = eta - spread > ceiling
    eta_at = ~above & (eta + tie > ceiling)
    pairs = _first(above[1:])
    open_ = ~_closes(geom, bounds, theta[:pairs] - tie, eta[1:pairs + 1] + tie)
    theta_at = np.zeros(k_max, dtype=bool)
    theta_at[:pairs] = open_
    theta_at[-1] |= theta[-1] - tie < ceiling
    straddles = eta_at.copy()
    eta_at[1:pairs + 1] |= open_
    eta0, theta0 = (scale * e for e in samples.edges(eta_at, theta_at))
    if theta_at[-1] and theta0[-1] < ceiling:
        raise ValueError(
            f"bands0 top {float(theta0[-1])} does not cover the ceiling {ceiling}; "
            "supply more bands"
        )
    pairs = _first((above | straddles & (eta0 > ceiling))[1:])
    return BandPairs.of(geom, bounds, np.where(theta_at, theta0, theta - tie)[:pairs],
                        np.where(eta_at, eta0, eta + tie)[1:pairs + 1])


@dataclass(frozen=True)
class GapReport:
    """Consolidated certification artifact.

    conditions holds the scalar verdicts (ell_star among them) and ell1 the
    high-energy threshold; low_spectrum holds the counting verdicts on a grid
    below the scaled energy 1 (empty when
    conditions.low_spectrum_applicable is false).  Given a ceiling,
    band_count is the number of unperturbed bands that cover it and
    candidate_gaps the windows of the pairs below it with their
    certification status (exact for every window not certified from band
    samples, see BandPairs); without a ceiling band_count is 0 and
    candidate_gaps empty.
    """

    ell1: float
    conditions: ConditionsVerdict
    band_count: int
    candidate_gaps: BandPairs
    low_spectrum: tuple[LowSpectrumCheck, ...]

    @property
    def undecided(self) -> np.ndarray:
        """0-based positions of the candidate windows the enclosure argument
        could not close (window i belongs to the pair k = i + 1)."""
        return np.flatnonzero(~self.candidate_gaps.certified)


def gap_report(
    geom: StripGeometry,
    bounds: PerturbBounds,
    params: GapParams,
    ell_max: float | None = None,
    low_spectrum_points: int = 32,
) -> GapReport:
    """Run the certification chain: conditions, thresholds, low energy, band pairs.

    The low-energy grid takes low_spectrum_points equally spaced scaled
    energies in (1/4 + xi^2, 1) when the subcritical-ratio and budget
    conditions hold.  With ell_max, the unperturbed bands covering the
    scaled energy ell_max are one more than sup_tau N0(ell_max, tau), failing
    closed first above spectrum.MAX_BAND_CURVES, and every band pair below
    that ceiling gets its window (_band_pairs).  Deterministic: output
    ordered by k.
    """
    verdict = conditions_check(geom, bounds)
    ell1 = ell1_threshold(geom, params, bounds)
    low_checks: tuple[LowSpectrumCheck, ...] = ()
    if verdict.low_spectrum_applicable:
        lo = 0.25 + geom.xi * geom.xi
        low_checks = tuple(
            low_spectrum_no_gap(geom, verdict,
                                lo + (1.0 - lo) * (i + 1) / (low_spectrum_points + 1))
            for i in range(low_spectrum_points))
    band_count = 0
    none = np.empty(0)
    candidates = BandPairs(none, none, none, np.empty(0, dtype=bool))
    if ell_max is not None:
        check_band_count(geom.xi, ell_max)
        # looked up on the spectrum module at call time, where instrumentation
        # wraps it
        from .spectrum import counting_extremes

        band_count = counting_extremes(geom, ell_max)[0] + 1
        candidates = _band_pairs(geom, bounds, band_count, ell_max)
    return GapReport(
        ell1=ell1,
        conditions=verdict,
        band_count=band_count,
        candidate_gaps=candidates,
        low_spectrum=low_checks,
    )
