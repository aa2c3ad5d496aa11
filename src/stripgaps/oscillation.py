"""The oscillatory amplitude series phi_p and its certified machinery.

For aspect ratio xi and dimensionless energy ell, the series

    phi_p(ell) = (1/(pi xi)) * sum_{k in Z}
                 sin(2 pi ell^(1/2) sqrt(k^2/xi^2 + p^2) - pi/4)
                 / (k^2/xi^2 + p^2)^(3/4)

captures, after the ell^(1/4) rescaling, the oscillating part of the Fourier
coefficients a_p of the counting function (see the fourier module).  A uniform
lower bound on sup_p |phi_p| is what forces neighbouring bands to overlap; the
small-ratio regime has the explicit threshold constants computed here:

    c2: the positive root of 3^(3/2) t^3 + 3 t^2 + 3^(3/2) t - 1 = 0
        (closed form via the real cube root below),
    c1 = c2 / sqrt(c2^2 + 1)
       = min over z in [0, pi] of max{|sin z|, 3^(-3/2) |cos 3z|},
    xi_critical = (c1 / (2 zeta(3/2)))^(2/3) ~ 0.10121,
    c0(xi) = (c1 - 2 zeta(3/2) xi^(3/2)) / (pi xi)   (positive for xi < xi_critical).

Everything is certified at the level tests need.  The series is cut at the
least N that one of three tail bounds certifies (phi_p records which): the
Kuzmin-Landau bound (2/(pi xi)) w_{N+1} cot(pi lam/2) when the phase
derivative, which increases to L = ell^(1/2)/xi, keeps a distance lam from
the integers beyond N; near an integer L, a closed form for the
non-oscillating leading tail plus an O(N^(-3/2)) remainder and a drift term
in |L - round(L)|; otherwise the oscillation-blind 4 xi^(1/2) / (pi N^(1/2)).
Each route bound is non-increasing in N, and each inverts in closed form to
a floor, a value at or below the least N it certifies.  One search per route
starts at its floor, gallops upward and bisects the last bracket, so a cut
costs a few bound evaluations, not a bisection over [1, N].
The bound also covers the floating-point error of the sum, and evaluations
whose rounding alone would exceed the tolerance are refused.  zeta(3/2) comes
from Euler-Maclaurin summation (error below 5e-17), the Beta value
B(1/4, 1/2) gating the p-cutoff from the Gamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

_QUARTER_PI = 0.25 * math.pi
_SIN_QUARTER_PI = math.sqrt(0.5)
_UNIT_ROUNDOFF = 2.0 ** -53
# ulps of L = ell^(1/2)/xi given up to cover its rounding in the tail routes
_SLACK_ULPS = 8.0
# Relative amount by which each closed-form floor of a least cut is lowered,
# far above the few roundings of its evaluation
_FLOOR_RTOL = 1e-9
_CHUNK = 1 << 21
# Ceiling on truncation length, read at call time: tol = 1e-4 at xi = 0.9
# needs ~1.5e8.
MAX_TERMS = 1 << 28
# Ceiling on the harmonics phi_sup scans, checked before any evaluation
# (cutoff_c1 = 3 reaches it near ell = 1.1e7).
MAX_HARMONICS = 10_000
# Ceiling on phi_p's harmonic index, checked before any search: from p = 2^512
# on, p^2 is beyond float range.
MAX_HARMONIC_INDEX = 2 ** 511
# Relative slack of phi_sup's stopping test: covers the rounding of
# cutoff_bound (libm pow and gamma included) and of tail_bound <= tol.
_ENVELOPE_RTOL = 1e-12
# Slack of the uniform-bound margin >= 0, relative to max(c0, sup): covers the
# rounding of c0(xi) and of the subtraction (each sum's own rounding is inside
# its tail bound).
UNIFORM_RTOL = 1e-12


# ---------------------------------------------------------------------------
# certified constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def zeta_three_halves() -> float:
    """zeta(3/2) by Euler-Maclaurin summation from K = 50.

    sum_{k<K} k^(-s) + K^(1-s)/(s-1) + K^(-s)/2 + the Bernoulli terms
    B_2, B_4, B_6 at K, s = 3/2.  The remainder is at most the first omitted
    term, |B_8|/8! s(s+1)...(s+6) K^(-s-7) < 5e-17, and fsum adds the terms
    with a single rounding.
    """
    s, big_k = 1.5, 50
    terms = [k ** -s for k in range(1, big_k)]
    terms += [big_k ** (1.0 - s) / (s - 1.0), 0.5 * big_k ** -s,
              s / 12.0 * big_k ** (-s - 1.0),
              -s * (s + 1.0) * (s + 2.0) / 720.0 * big_k ** (-s - 3.0),
              s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) / 30240.0 * big_k ** (-s - 5.0)]
    return math.fsum(terms)


@dataclass(frozen=True)
class CriticalConstants:
    """Threshold constants of the small-ratio regime (see module docstring).

    Every field carries absolute error well below 1e-10; construction via
    critical_constants() re-verifies the cubic defining c2 and aborts on
    disagreement.
    """

    c2: float
    c1: float
    xi_critical: float
    zeta32: float
    beta_quarter_half: float

    def c0(self, xi: float) -> float:
        """Uniform lower-bound constant c0(xi) = (c1 - 2 zeta(3/2) xi^(3/2))/(pi xi);
        ValueError for xi <= 0 and where c0 is not finite (xi nan, inf or tiny)."""
        if xi <= 0:
            raise ValueError(f"xi must be positive, got {xi}")
        value = (self.c1 - 2.0 * self.zeta32 * xi ** 1.5) / (math.pi * xi)
        if not math.isfinite(value):
            raise ValueError(f"c0(xi) is not a finite number at xi = {xi}")
        return value


@lru_cache(maxsize=1)
def critical_constants() -> CriticalConstants:
    """Evaluate the threshold constants.

    c2 from its closed form, verified against the cubic (residual <= 1e-10);
    c1 = c2 / sqrt(c2^2 + 1); B(1/4, 1/2) via Gamma reflection.
    """
    zeta32 = zeta_three_halves()

    cube = (78.0 * math.sqrt(3.0) + 54.0 * math.sqrt(11.0)) ** (1.0 / 3.0)
    c2 = (cube - math.sqrt(3.0)) / 9.0 - 8.0 / (3.0 * cube)
    s3 = 3.0 ** 1.5
    cubic_residual = abs(s3 * c2 ** 3 + 3.0 * c2 ** 2 + s3 * c2 - 1.0)
    if cubic_residual > 1e-10:
        raise AssertionError(f"c2 closed form fails its cubic: residual {cubic_residual:.3e}")

    c1 = c2 / math.sqrt(c2 * c2 + 1.0)
    xi_critical = (c1 / (2.0 * zeta32)) ** (2.0 / 3.0)
    if not 0.0 < xi_critical < 1.0:
        raise AssertionError(f"critical ratio out of range: {xi_critical}")

    beta = math.gamma(0.25) * math.gamma(0.5) / math.gamma(0.75)
    return CriticalConstants(c2=c2, c1=c1, xi_critical=xi_critical,
                             zeta32=zeta32, beta_quarter_half=beta)


# ---------------------------------------------------------------------------
# the truncated series
# ---------------------------------------------------------------------------

TAIL_ROUTES = ("non-resonant", "resonant", "fallback")


@dataclass(frozen=True)
class PhiEvaluation:
    """Certified truncation of phi_p: |true phi_p - value| <= tail_bound.

    truncation_n is the cut N of the symmetric sum |k| <= N; route names the
    tail estimate that certified it (one of TAIL_ROUTES, see phi_p).  The
    tail bound covers the truncated tail plus the floating-point error of the
    evaluated sum.
    """

    p: int
    ell: float
    value: float
    tail_bound: float
    truncation_n: int
    route: str

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"harmonic index must be >= 1, got {self.p}")
        if self.truncation_n < 0:
            raise ValueError(f"truncation length must be >= 0, got {self.truncation_n}")
        if self.tail_bound < 0:
            raise ValueError(f"tail bound must be >= 0, got {self.tail_bound}")
        if self.route not in TAIL_ROUTES:
            raise ValueError(f"unknown tail route {self.route!r}")


def truncation_length(xi: float, tol: float) -> int:
    """Minimal N >= 1 with tail bound 4 xi^(1/2) / (pi N^(1/2)) <= tol; ValueError
    unless tol is positive and finite, and when N would pass 2^63."""
    return _least_cut(lambda n: tail_bound(xi, n), _fallback_floor(xi, tol), None, tol)[0]


def tail_bound(xi: float, truncation_n: int) -> float:
    """Oscillation-blind truncation error 4 xi^(1/2) / (pi N^(1/2)) of the
    symmetric sum |k| <= N, N >= 1 (integral comparison)."""
    return 4.0 * math.sqrt(xi) / (math.pi * math.sqrt(truncation_n))


def _non_resonant_tail(xi: float, ell: float, p: int, n: int) -> float:
    """Kuzmin-Landau bound on the tail beyond N (inf where it does not apply).

    The tail is (2/(pi xi)) Im e(-1/8) sum_{k>N} w_k e(f(k)) with weights
    w_k = s_k^(-3/2) decreasing and phase f(k) = ell^(1/2) s_k, whose
    derivative f'(k) = L k / sqrt(k^2 + (p xi)^2) increases to L = ell^(1/2)/xi.
    Once f'(N+1) > floor(L), every difference f(k+1) - f(k), k > N, lies in
    (f'(N+1), L) and so keeps a distance lam = min(f'(N+1) - floor(L),
    ceil(L) - L) from the integers.  Writing e(f(k)) = c_k (e(f(k+1)) - e(f(k)))
    with c_k = -(1 + i cot(pi (f(k+1) - f(k))))/2 and summing by parts,

        |sum_{k>N} w_k e(f(k))| <= w_{N+1} (1/sin(pi lam) + cot(pi lam))
                                 = w_{N+1} cot(pi lam / 2):

    |c_k| <= 1/(2 sin(pi lam)) bounds the boundary term and the weight
    differences together by w_{N+1}/sin(pi lam), and sum |c_{k+1} - c_k|
    telescopes over the monotone cotangent to at most cot(pi lam).  This is
    the Kuzmin-Landau inequality (Graham and Kolesnik, Van der Corput's
    Method of Exponential Sums, 1991, Thm 2.1) with weights, and with the
    explicit constant cot(pi lam / 2) that this derivation gives.  Both
    distances give up _SLACK_ULPS ulps of L for the rounding of L and f'(N+1).
    """
    big_l = math.sqrt(ell) / xi
    floor_l = math.floor(big_l)
    slack = _SLACK_ULPS * _UNIT_ROUNDOFF * big_l
    k = n + 1
    fprime = big_l / math.sqrt(1.0 + (p * xi / k) ** 2)
    lam = min(fprime - floor_l, floor_l + 1.0 - big_l) - slack
    if not lam > 0.0:
        return math.inf
    s = math.sqrt((k / xi) ** 2 + p * p)
    return 2.0 / (math.pi * xi) / (s * math.sqrt(s)) / math.tan(0.5 * math.pi * lam)


def _resonant_tail(xi: float, ell: float, p: int, n: int) -> float:
    """Bound on the tail beyond N left after the closed-form leading tail.

    With M = round(L), delta = L - M and G(k) = f(k) - L k, the phase of term
    k is 2 pi (M k + delta k + G(k)) - pi/4, and 0 < G(k) <= ell^(1/2) p^2
    xi / (2k).  Each sine differs from its leading value sin(-pi/4) by at
    most min(2, 2 pi G(k)) + min(2, 2 pi |delta| k).  phi_p adds the leading
    part -sin(pi/4) sum_{k>N} w_k in closed form (_weight_tail); this is the
    bound on the rest, with w_k <= xi^(3/2) k^(-3/2):

      * sum_{k>N} w_k 2 pi G(k) <= (2/3) pi ell^(1/2) p^2 xi^(5/2) N^(-3/2);
      * with K = floor(1/(pi |delta|)) and m = max(N, K), the drift sum is at
        most xi^(3/2) (4 pi |delta| (m^(1/2) - N^(1/2)) + 4 m^(-1/2)), which
        is O(xi^(3/2) |delta|^(1/2)); |delta| is enlarged by _SLACK_ULPS ulps
        of L, so the bound holds for the exact L of the float inputs;
      * the closed form's own error, _weight_tail_error.

    Requires N >= 2 p xi, where _weight_tail's series converges fast.
    """
    a = p * xi
    if n < max(1.0, 2.0 * a):
        return math.inf
    big_l = math.sqrt(ell) / xi
    delta = abs(big_l - round(big_l)) + _SLACK_ULPS * _UNIT_ROUNDOFF * big_l
    phase = (2.0 / 3.0) * math.pi * math.sqrt(ell) * p * p * xi ** 2.5 * n ** -1.5
    m = max(float(n), math.floor(1.0 / (math.pi * delta)))
    drift = xi ** 1.5 * (4.0 * math.pi * delta * (math.sqrt(m) - math.sqrt(n))
                         + 4.0 / math.sqrt(m))
    return 2.0 / (math.pi * xi) * (phase + drift
                                   + _SIN_QUARTER_PI * _weight_tail_error(xi, p, n))


def _weight_tail(xi: float, p: int, n: int) -> float:
    """sum_{k>N} w_k for w_k = (k^2/xi^2 + p^2)^(-3/4), N >= 2 p xi, in closed form.

    Euler-Maclaurin at order one: sum_{k>N} h(k) = int_N^inf h - h(N)/2
    - h'(N)/12 + R, with h(x) = xi^(3/2) (x^2 + a^2)^(-3/4), a = p xi.  The
    integral is the binomial series xi^(3/2) sum_j binom(-3/4, j) a^(2j)
    N^(-1/2-2j) / (2j + 1/2), alternating with decreasing terms for N > a; it
    runs until a term is below an ulp of the first.  _weight_tail_error
    bounds R, the series cut and the rounding.
    """
    a2 = (p * xi) ** 2
    xi32 = xi ** 1.5
    q = n * n + a2
    first = 2.0 * xi32 / math.sqrt(n)
    ratio = a2 / (n * n)
    binom, power, integral, j = 1.0, first / 2.0, 0.0, 0
    while True:
        term = binom * power / (2.0 * j + 0.5)
        if abs(term) <= _UNIT_ROUNDOFF * first:
            break
        integral += term
        j += 1
        binom *= (0.25 - j) / j
        power *= ratio
    return integral - 0.5 * xi32 * q ** -0.75 + 0.125 * xi32 * n * q ** -1.75


def _weight_tail_error(xi: float, p: int, n: int) -> float:
    """Error bound of _weight_tail: |R| <= (1/12) int_N^inf |h''| = |h'(N)|/12,
    since h is convex for x > a; the series cut error is at most the first
    omitted term, below an ulp of the first term 2 xi^(3/2) N^(-1/2); and
    16 such ulps cover the rounding of the whole evaluation."""
    xi32 = xi ** 1.5
    dh = 1.5 * xi32 * n * (n * n + (p * xi) ** 2) ** -1.75
    return dh / 12.0 + 16.0 * _UNIT_ROUNDOFF * 2.0 * xi32 / math.sqrt(n)


def _rounding_bound(xi: float, ell: float, p: int, n: int) -> float:
    """Floating-point error of the evaluated sum |k| <= N, from above.

    Each sine argument 2 pi ell^(1/2) s_k - pi/4 carries an absolute error of
    at most about 10 ulps of 2 pi ell^(1/2) s_k + 1, each weight a few ulps,
    and a dot product of N terms at most N ulps of sum w_k, in any order.
    With sum_{k<=N} w_k s_k <= p^(-1/2) + 2 (xi N)^(1/2) and
    sum_{k<=N} w_k <= p^(-3/2) + 3 xi^(3/2) this gives
    (2u/(pi xi)) (16 c (p^(-1/2) + 2 (xi N)^(1/2)) + (N + 32)(p^(-3/2) + 3 xi^(3/2))),
    c = 2 pi ell^(1/2), u = 2^-53.
    """
    c = 2.0 * math.pi * math.sqrt(ell)
    weighted_s = p ** -0.5 + 2.0 * math.sqrt(xi * n)
    weights = p ** -1.5 + 3.0 * xi ** 1.5
    return (2.0 * _UNIT_ROUNDOFF / (math.pi * xi)
            * (16.0 * c * weighted_s + (n + 32.0) * weights))


def _lowered(x: float) -> int:
    """An integer N >= 1 at or below every integer at or above x, with a
    relative _FLOOR_RTOL and one unit to spare for the rounding of x; 1, the
    trivial floor, when x is not finite."""
    if not abs(x) < math.inf:
        return 1
    return max(1, math.ceil(x * (1.0 - _FLOOR_RTOL)) - 1)


def _fallback_floor(xi: float, tol: float) -> int:
    """Floor of the fallback's least cut, N >= 16 xi/(pi tol)^2.  ValueError
    unless tol is positive and finite, and when that N would pass 2^63."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not tol < math.inf:
        raise ValueError(f"tolerance must be finite, got {tol}")
    guess = 16.0 * xi / (math.pi * tol) / (math.pi * tol)
    if not guess < 2.0 ** 63:
        raise ValueError(f"tolerance {tol} needs over 2^63 terms at xi = {xi}")
    return _lowered(guess)


def _non_resonant_floor(xi: float, ell: float, p: int, budget: float) -> int | None:
    """Floor of the non-resonant route's least cut; None when no N certifies
    (test_each_floor_is_at_or_below_its_least_cut checks both outcomes).

    The larger of the floors of the two terms of lam(N) in _non_resonant_tail:

      * f'(N+1) <= L gives lam(N) <= lam_inf = min(L - floor(L), ceil(L) - L)
        - slack, so the bound needs N + 1 >= xi (s*^2 - p^2)^(1/2),
        s* = ((2/(pi xi)) cot(pi lam_inf / 2) / budget)^(2/3), with s*
        lowered by _FLOOR_RTOL; lam_inf <= 0 leaves every bound infinite;
      * lam(N) > 0 needs f'(N+1) = L (1 + (p xi / (N+1))^2)^(-1/2) above
        h = floor(L) + slack/4 (rounding takes less than the rest of slack),
        that is N + 1 > p xi / ((r - 1)(r + 1))^(1/2), r = L / h.
    """
    big_l = math.sqrt(ell) / xi
    floor_l = math.floor(big_l)
    slack = _SLACK_ULPS * _UNIT_ROUNDOFF * big_l
    lam = min(big_l - floor_l, floor_l + 1.0 - big_l) - slack
    if not lam > 0.0:
        return None
    s_star = ((2.0 / (math.pi * xi) / math.tan(0.5 * math.pi * lam) / budget) ** (2.0 / 3.0)
              * (1.0 - _FLOOR_RTOL))
    weight = (_lowered(xi * math.sqrt((s_star - p) * (s_star + p)) - 1.0)
              if p < s_star < math.inf else 1)
    h = floor_l + 0.25 * slack
    excess = (big_l - h) / h
    return max(weight, _lowered(p * xi / math.sqrt(excess * (excess + 2.0)) - 1.0))


def _resonant_floor(xi: float, ell: float, p: int, budget: float) -> int | None:
    """Floor of the resonant route's least cut; None when no N certifies
    (test_each_floor_is_at_or_below_its_least_cut checks both outcomes).

    The largest of the route's gate N >= max(1, 2 p xi), compared as
    _resonant_tail does, and the floors of its two leading terms:

      * phase: N >= ((4/3) ell^(1/2) p^2 xi^(3/2) / budget)^(2/3);
      * drift: D(N) = 4 pi delta (m^(1/2) - N^(1/2)) + 4 m^(-1/2),
        m = max(N, K), within b = budget pi / (2 xi^(1/2)) needs
        N^(1/2) >= K^(1/2) - (b - 4 K^(-1/2)) / (4 pi delta) when
        b >= 4 K^(-1/2), and N >= 16 / b^2 otherwise.

    b and the root are moved by _FLOOR_RTOL toward the smaller floor.
    """
    gate = max(1.0, 2.0 * (p * xi))
    if not gate < math.inf:
        return None
    phase = ((4.0 / 3.0) * math.sqrt(ell) * p * p * xi ** 1.5 / budget) ** (2.0 / 3.0)
    big_l = math.sqrt(ell) / xi
    delta = abs(big_l - round(big_l)) + _SLACK_ULPS * _UNIT_ROUNDOFF * big_l
    big_k = math.floor(1.0 / (math.pi * delta))
    b = budget * math.pi / (2.0 * math.sqrt(xi)) * (1.0 + _FLOOR_RTOL)
    edge = 4.0 / math.sqrt(big_k) if big_k > 0 else math.inf
    if b >= edge:
        reach = (b - edge) / (4.0 * math.pi * delta)
        root = math.sqrt(big_k) - reach - _FLOOR_RTOL * (math.sqrt(big_k) + reach)
        drift = root * root if root > 0.0 else 1.0
    else:
        drift = 16.0 / (b * b)
    return max(math.ceil(gate), _lowered(phase), _lowered(drift))


def _least_cut(bound, lo: int, hi: int | None, budget: float) -> tuple[int, float] | None:
    """(N, bound(N)) for the least N in [lo, hi] with bound(N) <= budget, for
    bound non-increasing in N; None when there is none (hi None: no upper end).

    One search from the floor lo: it checks lo, gallops upward in doubling
    steps until an N certifies (or hi fails), then bisects the last bracket.
    That is one evaluation when lo certifies and about 2 log2(N - lo) + 1
    otherwise, so a tight floor makes the search short.
    """
    failed, n, step = lo - 1, lo, 1
    while True:
        if hi is not None and n > hi:
            if failed >= hi:
                return None
            n = hi
        value = bound(n)
        if value <= budget:
            break
        if n == hi:
            return None
        failed, n, step = n, n + step, 2 * step
    while n - failed > 1:
        mid = (failed + n) // 2
        mid_value = bound(mid)
        if mid_value <= budget:
            n, value = mid, mid_value
        else:
            failed = mid
    return n, value


def _choose_truncation(xi: float, ell: float, p: int, budget: float,
                       previous: tuple[int, str] | None = None) -> tuple[int, str, float]:
    """(N, route, tail bound) with the least N any route certifies for budget.

    The fallback is the oscillation-blind bound; the non-resonant and
    resonant routes are taken, in that order, only where they certify a
    strictly shorter cut.  Each route bound is non-increasing in N
    (test_route_bounds_are_non_increasing_in_the_cut), so its least N is one
    _least_cut search from the route's closed-form floor.

    previous is the (N, route) chosen for a larger budget.  No route's least
    cut shrinks with the budget, so the searches start at that N, and when
    the previous route still certifies it, it is the answer after one
    evaluation.  The fallback's refusals (a budget that is not positive and
    finite, or a cut past 2^63) come first either way.
    """
    bounds = {"fallback": lambda m: tail_bound(xi, m),
              "non-resonant": lambda m: _non_resonant_tail(xi, ell, p, m),
              "resonant": lambda m: _resonant_tail(xi, ell, p, m)}
    least = 1
    if previous is not None:
        _fallback_floor(xi, budget)  # the fallback's refusals come first
        least, route = previous
        value = bounds[route](least)
        if value <= budget:
            return least, route, value
    n = truncation_length(xi, budget)
    best = (n, "fallback", tail_bound(xi, n))
    for route, floor in (("non-resonant", _non_resonant_floor), ("resonant", _resonant_floor)):
        if best[0] <= least:
            break
        lo = floor(xi, ell, p, budget)
        found = None if lo is None else _least_cut(bounds[route], max(lo, least),
                                                   best[0] - 1, budget)
        if found is not None:
            best = (found[0], route, found[1])
    return best


def _phi_sum(xi: float, ell: float, p: int, truncation_n: int) -> float:
    """(1/(pi xi)) sum_{|k| <= N} sin(2 pi ell^(1/2) s_k - pi/4) / s_k^(3/2),
    s_k = sqrt(k^2/xi^2 + p^2).

    Evaluated in fixed-size chunks (deterministic summation order, bounded
    memory).
    """
    c = 2.0 * math.pi * math.sqrt(ell)
    p2 = float(p * p)
    s0 = float(p)
    total = math.sin(c * s0 - _QUARTER_PI) / (s0 * math.sqrt(s0))
    acc = 0.0
    inv_xi = 1.0 / xi
    for lo in range(1, truncation_n + 1, _CHUNK):
        hi = min(truncation_n, lo + _CHUNK - 1)
        k = np.arange(lo, hi + 1, dtype=float)
        k *= inv_xi
        q = k * k + p2
        s = np.sqrt(q)
        w = 1.0 / (s * np.sqrt(s))          # q^(-3/4)
        np.multiply(s, c, out=q)            # q := sin argument
        q -= _QUARTER_PI
        np.sin(q, out=q)
        acc += float(np.dot(w, q))
    return (total + 2.0 * acc) / (math.pi * xi)


def phi_p(xi: float, ell: float, p: int, tol: float = 1e-4) -> PhiEvaluation:
    """Certified evaluation of phi_p(ell) to tail tolerance tol.

    The truncation N is the least one certified by any of three tail routes
    (the route is recorded in the result):

      * "non-resonant": the Kuzmin-Landau bound (2/(pi xi)) w_{N+1}
        cot(pi lam / 2), where lam is the distance of the phase derivative
        from the integers beyond N (see _non_resonant_tail);
      * "resonant": L = ell^(1/2)/xi within reach of an integer M; the
        non-oscillating leading tail -sin(pi/4) sum_{k>N} w_k is added to the
        value in closed form and only the O(N^(-3/2)) rest and the drift
        |L - M| are bounded (see _resonant_tail);
      * "fallback": the oscillation-blind 4 xi^(1/2)/(pi N^(1/2)).

    Each route's least N is searched from its closed-form floor
    (_choose_truncation).  tail_bound adds the floating-point error of the
    sum (_rounding_bound), which grows with N: the budget is tol less that
    error at a cap, and the cap doubles until the cut fits under it.
    ValueError when the rounding alone would use up tol (e.g. ell^(1/2) s_k
    beyond float64 resolution), for an N above MAX_TERMS before summing, an
    ell or tol that is not positive and finite, and, before any search, a p
    at or above MAX_HARMONIC_INDEX.
    """
    if not ell > 0:
        raise ValueError(f"need ell > 0, got {ell}")
    if ell == math.inf:
        raise ValueError("ell must be finite, got inf")
    if p < 1:
        raise ValueError(f"harmonic index must be >= 1, got {p}")
    if p >= MAX_HARMONIC_INDEX:
        raise ValueError(f"harmonic index {p} at xi = {xi} reaches the ceiling 2^511")
    # The rounding term grows with N: size the budget by it at a cap, and
    # double the cap until the chosen N fits under it.  The budget only
    # shrinks, so each re-search starts from the previous cut.
    cap, rounding, previous = 0, 0.0, None
    while True:
        n, route, bound = _choose_truncation(xi, ell, p, tol - rounding, previous)
        if n > MAX_TERMS:
            raise ValueError(
                f"tolerance {tol} needs a truncation length of {n} terms, above "
                f"the ceiling {MAX_TERMS}; loosen tol")
        if n <= cap:
            break
        previous = (n, route)
        cap = 2 * n
        rounding = _rounding_bound(xi, ell, p, cap)
        if rounding >= tol:
            raise ValueError(
                f"tolerance {tol} is below the floating-point error of the sum "
                f"({rounding:.3g}) at ell = {ell!r}")
    value = _phi_sum(xi, ell, p, n)
    if route == "resonant":
        value -= 2.0 * _SIN_QUARTER_PI / (math.pi * xi) * _weight_tail(xi, p, n)
    return PhiEvaluation(p=p, ell=ell, value=value,
                         tail_bound=bound + _rounding_bound(xi, ell, p, n),
                         truncation_n=n, route=route)


def cutoff_bound(xi: float, p: int) -> float:
    """Envelope 1/(pi p^(3/2) xi) + B(1/4,1/2)/(pi p^(1/2)) of the true |phi_p|.

    |phi_p| <= (1/(pi xi)) sum_k s_k^(-3/2), s_k = sqrt(k^2/xi^2 + p^2).  The
    k = 0 term gives the first part.  The terms k >= 1 decrease in k, so
    their sum is at most the integral over (0, inf), which k = xi p t turns
    into xi p^(-1/2) int_0^inf (1 + t^2)^(-3/4) dt = xi p^(-1/2) B(1/4,1/2)/2.
    Both parts decrease in p: the envelope at q bounds |phi_p| for all p >= q.
    """
    if p < 1:
        raise ValueError(f"harmonic index must be >= 1, got {p}")
    beta = critical_constants().beta_quarter_half
    return 1.0 / (math.pi * p ** 1.5 * xi) + beta / (math.pi * math.sqrt(p))


class PhiSupResult(NamedTuple):
    p_star: int
    value: float
    p_max: int
    cutoff_bound: float


def phi_sup(xi: float, ell: float, cutoff_c1: float = 3.0,
            tol: float = 1e-4) -> PhiSupResult:
    """max of |phi_p(ell)| over p = 1..p_max, p_max = max(3, ceil(cutoff_c1 ell^(1/2))).

    Equal to the full scan at tail tolerance tol, ties going to the smallest
    p, but each harmonic is evaluated once, in increasing p, up to the first
    q with (cutoff_bound(xi, q) + tol) (1 + _ENVELOPE_RTOL) < best so far.
    Each evaluated |phi_p| is within its tail_bound <= tol of the true one,
    which is at most cutoff_bound(xi, p) <= cutoff_bound(xi, q) for p >= q,
    so every skipped harmonic lies strictly below the incumbent.  The
    returned cutoff_bound is the envelope at p_max: harmonics beyond the
    range are dominated whenever it stays below the returned value.  Fails
    closed (ValueError) above MAX_HARMONICS harmonics.
    """
    if not cutoff_c1 > 0:
        raise ValueError(f"cutoff constant must be positive, got {cutoff_c1}")
    if not ell > 0:
        raise ValueError(f"need ell > 0, got {ell}")
    harmonics = cutoff_c1 * math.sqrt(ell)
    if not harmonics <= MAX_HARMONICS:
        raise ValueError(
            f"supremum scan exceeds the ceiling of {MAX_HARMONICS} harmonics "
            f"({harmonics:.3g} estimated); ask for a lower energy or cutoff")
    p_max = max(3, math.ceil(harmonics))
    best_p, best = -1, -math.inf
    for q in range(1, p_max + 1):
        if (cutoff_bound(xi, q) + tol) * (1.0 + _ENVELOPE_RTOL) < best:
            break
        val = abs(phi_p(xi, ell, q, tol).value)
        if val > best:
            best, best_p = val, q
    return PhiSupResult(p_star=best_p, value=best, p_max=p_max,
                        cutoff_bound=cutoff_bound(xi, p_max))


class UniformBoundRow(NamedTuple):
    ell: float
    p_star: int
    value: float
    margin: float
    ok: bool


class UniformBoundReport(NamedTuple):
    """threshold = c0 - 2 tol; xi_excess = xi - xi_critical.  At or above the
    critical ratio the verdict is not-applicable: c0 and threshold are None,
    rows is empty, all_ok is False."""

    c0: float | None
    threshold: float | None
    rows: list[UniformBoundRow]
    all_ok: bool
    xi_excess: float


def uniform_lower_bound_check(xi: float, ell_grid, tol: float = 1e-4,
                              cutoff_c1: float = 3.0) -> UniformBoundReport:
    """Verify sup_p |phi_p(ell)| >= c0(xi) - 2 tol over an energy grid.

    Valid (else not applicable) in the regime xi < xi_critical, ell >= 1 (the
    regime where the uniform bound holds with the certified constant c0; the
    margin reported per ell is value - (c0 - 2 tol), and a row holds when its
    margin is at least the rounding slack UNIFORM_RTOL * max(c0, value)).
    A threshold c0 - 2 tol <= 0 (finite tol >= c0/2) certifies nothing and is
    refused (ValueError) before any phi_sup call; a non-finite tol is refused
    by phi_p.
    """
    consts = critical_constants()
    excess = xi - consts.xi_critical
    if not xi < consts.xi_critical:
        return UniformBoundReport(None, None, [], False, xi_excess=excess)
    ells = [float(e) for e in ell_grid]
    if not ells:
        raise ValueError("empty energy grid")
    if min(ells) < 1.0:
        raise ValueError(f"grid energies must be >= 1, got min {min(ells)}")
    c0 = consts.c0(xi)
    threshold = c0 - 2.0 * tol
    if c0 / 2.0 <= tol < math.inf:
        raise ValueError(
            f"tol {tol} leaves no certificate: the threshold c0 - 2 tol = {threshold:.6g} "
            f"with c0 = {c0:.6g} is not positive; ask for tol below c0/2")
    rows = []
    for ell in ells:
        sup = phi_sup(xi, ell, cutoff_c1=cutoff_c1, tol=tol)
        margin = sup.value - threshold
        rows.append(UniformBoundRow(ell=ell, p_star=sup.p_star, value=sup.value,
                                    margin=margin,
                                    ok=margin >= UNIFORM_RTOL * max(c0, sup.value)))
    return UniformBoundReport(c0=c0, threshold=threshold, rows=rows,
                              all_ok=all(r.ok for r in rows), xi_excess=excess)
