"""Fiber spectrum of the unperturbed strip operator.

Bloch decomposition with respect to the period ``2T`` reduces the Dirichlet
Laplacian on the strip ``0 < x2 < d`` to a family of fiber operators indexed
by the quasimomentum ``tau`` in ``(-1/2, 1/2]``.  The fiber eigenvalues are
explicit separable modes, indexed by ``n`` in Z (longitudinal) and ``m >= 1``
(transverse):

    E_{n,m}(tau) = (pi^2 / T^2) (tau + n)^2 + pi^2 m^2 / d^2.

In dimensionless form (energy = pi^2 ell / T^2, xi = T/d) the level set reads

    e_{n,m}(tau) = (tau + n)^2 + xi^2 m^2 <= ell,

so the rescaled counting function

    N0(ell, tau) = #{(n, m) : n in Z, m >= 1, (tau + n)^2 + xi^2 m^2 <= ell}

counts lattice points inside a half ellipse.  N0 is an even, 1-periodic step
function of tau; this module provides it by row-wise floors, its exact
extremes over the Brillouin zone from its jump structure, the band functions
E_k(tau) with their extrema (band endpoints), and band samples that bracket
those endpoints.  Every function takes xi and scaled energies; a caller forms
an energy, where it needs one, as pi^2/T^2 times the scaled value.

Floating-point boundary rule: a lattice point whose level differs from ell by
at most ``1e-12 * max(1, ell)`` counts as inside.  counting and the zone
extremes share that predicate, so they agree exactly even at ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import validate_ell, validate_tau

# Inclusive-boundary tolerances: relative for lattice levels, absolute (in tau
# units) for clamping jump positions onto the Brillouin-zone edges.
BOUNDARY_RTOL = 1e-12
_EDGE_TOL = 1e-12

# Cost ceilings of the band computations, checked before allocating (like
# galerkin.MAX_BASIS_DIM): level curves that can carry a requested band, and
# the crossing candidates of one enumeration pass (_crossing_candidates),
# summed from their closed-form column counts before any is enumerated.  The
# crossing ceiling is set from full band_edges runs on a 2-core VM: xi 0.06,
# k 19,127 lists 3.37e6 candidates in 4-5 s at a 4.3 MB peak.
MAX_BAND_CURVES = 200_000
MAX_BAND_CROSSINGS = 4_000_000
# Ceiling on the rows of a counting computation, checked the same way: the
# transverse rows m <= sqrt(ell)/xi that row_radii allocates, and the
# longitudinal rows n (about 2 sqrt(ell)) that counting walks and that
# band_edges ranks each crossing against (ell = cap, at least xi^2).
MAX_ROWS = 1 << 22
# counting refuses rows holding more points than float64 counts exactly.
_EXACT_COUNT = 2.0 ** 52
# Elements per vectorized array of the band computations (bounded memory): the
# candidate pairs of one block, the crossings x columns of one ranking chunk,
# and the sample points x curves of one sampling chunk.
_BLOCK = 1 << 15
# Band samples: E_k at tau_s = s / (2 (BAND_SAMPLES - 1)), s = 0..BAND_SAMPLES - 1.
BAND_SAMPLES = 33


def _inclusive_threshold(ell: float) -> float:
    return ell + BOUNDARY_RTOL * max(1.0, ell)


def _check_rows(rows: float) -> None:
    """Fail closed (ValueError) before a row computation above MAX_ROWS."""
    if not rows <= MAX_ROWS:
        raise ValueError(
            f"row computation exceeds the ceiling of {MAX_ROWS} rows ({rows:.3g} "
            "estimated); ask for a lower energy or a larger ratio")


def counting(xi: float, ell: float, tau: float) -> int:
    """Rescaled counting function N0(ell, tau).

    Sums, over each longitudinal index n, the number of transverse indices m
    in the row (the floor formula, corrected against the inclusive boundary
    predicate).  Fails closed (ValueError) when the rows exceed MAX_ROWS or a
    row holds more points than float64 counts exactly.
    """
    validate_ell(ell)
    validate_tau(tau)
    thresh = _inclusive_threshold(ell)
    root = math.sqrt(thresh)
    _check_rows(2.0 * root + 3.0)
    if not root / xi <= _EXACT_COUNT:
        raise ValueError(
            f"rows of {root / xi:.3g} points are beyond exact float64 counts "
            f"({_EXACT_COUNT:.3g}); ask for a lower energy or a larger ratio")
    xi2 = xi * xi
    if xi2 > thresh:
        return 0
    n_lo = math.ceil(-root - tau) - 1
    n_hi = math.floor(root - tau) + 1
    total = 0
    for n in range(n_lo, n_hi + 1):
        nt2 = (n + tau) ** 2
        rem = thresh - nt2
        if rem < xi2:
            # fast reject, but re-check with the inclusive predicate
            if nt2 + xi2 <= thresh:
                rem = xi2
            else:
                continue
        m = int(math.sqrt(rem) / xi)
        while nt2 + xi2 * (m + 1) * (m + 1) <= thresh:
            m += 1
        while m >= 1 and nt2 + xi2 * m * m > thresh:
            m -= 1
        total += m
    return total


def row_radii(xi: float, ell: float) -> np.ndarray:
    """Radii r_m = sqrt(ell - xi^2 m^2) for m = 1..floor(sqrt(ell)/xi).

    Row m of the level set is non-empty exactly on |tau + n| <= r_m.  Computed
    from the exact ell (no inclusive inflation): these radii feed closed-form
    sums and exact integrals, where measure-zero boundary ties are irrelevant.
    Fails closed (ValueError) above MAX_ROWS rows, before allocating.
    """
    if ell < xi * xi:
        return np.empty(0)
    _check_rows(math.sqrt(ell) / xi)
    # below MAX_ROWS the float quotient is off by at most one row; a single
    # step up also ends where xi^2 underflows to 0 (a loop would not)
    m_top = int(math.sqrt(ell) / xi)
    if xi * xi * (m_top + 1) ** 2 <= ell:
        m_top += 1
    while m_top >= 1 and xi * xi * m_top * m_top > ell:
        m_top -= 1
    m = np.arange(1, m_top + 1, dtype=float)
    return np.sqrt(np.maximum(ell - (xi * m) ** 2, 0.0))


def _first_below(x: np.ndarray, lim: float) -> np.ndarray:
    """Elementwise, the least integer n with x - n <= lim in float arithmetic
    (x - n only decreases with n; the guess is off by at most one)."""
    n = np.ceil(x - lim)
    return n + 1.0 - (x - n <= lim) - (x - (n - 1.0) <= lim)


def counting_extremes(xi: float, ell: float) -> tuple[int, int]:
    """Exact (sup, inf) of N0(ell, .) over the closed zone [-1/2, 1/2].

    Each row-m interval |tau + n| <= r_m contributes the closed interval
    [-r_m - n, r_m - n]; ends within 1e-12 of the zone edges are clamped onto
    the edge.  Per row, the intervals meeting the zone, those holding its
    left edge and those ending inside it are runs of n bounded by where the
    float ends cross the edges, so only the ends inside the zone are built,
    about two per row.  One sweep over the distinct ends (np.unique, then
    bincount of the intervals entering and leaving at each, and a cumulative
    run): the supremum can only occur at an end (closed intervals count
    there, the leaving ones still and the entering ones already), the
    infimum only on panel interiors.  The intervals come from the inclusive
    (tie-tolerant) radii, so the result is consistent with counting at every
    tau, including exact boundary ties such as band endpoints.
    """
    validate_ell(ell)
    r = row_radii(xi, _inclusive_threshold(ell))
    # per row, the intervals first_meet <= n < first_past meet the zone; from
    # first_edge on they hold its left edge, from first_inside on they end in it
    first_meet = _first_below(-r, 0.5)
    first_edge = _first_below(-r, -0.5 + _EDGE_TOL)
    first_inside = np.maximum(_first_below(r, 0.5 - _EDGE_TOL), first_meet)
    first_past = _first_below(r, math.nextafter(-0.5, -1.0))
    start = int(np.maximum(first_past - first_edge, 0.0).sum())
    row, n = _ragged(first_meet, np.maximum(
        np.minimum(first_edge, first_past) - first_meet, 0).astype(np.int64))
    enter = -r[row] - n
    row, n = _ragged(first_inside, np.maximum(first_past - first_inside, 0).astype(np.int64))
    leave = r[row] - n
    ends, slot = np.unique(np.concatenate((enter, leave)), return_inverse=True)
    n_enter = np.bincount(slot[:enter.size], minlength=ends.size)
    n_leave = np.bincount(slot[enter.size:], minlength=ends.size)
    # the run of intervals on each panel, from tau = -1/2 on
    run = start + np.concatenate(([0], np.cumsum(n_enter - n_leave)))
    return int((run[:-1] + n_enter).max(initial=start)), int(run.min())


# ---------------------------------------------------------------------------
# band functions and their extrema
# ---------------------------------------------------------------------------

def scaled_levels_below(xi: float, tau: float, ceiling: float) -> np.ndarray:
    """All dimensionless levels (tau+n)^2 + xi^2 m^2 <= ceiling, unsorted."""
    rows = []
    m = 1
    xi2 = xi * xi
    while xi2 * m * m <= ceiling:
        r = math.sqrt(ceiling - xi2 * m * m)
        n = np.arange(math.ceil(-r - tau), math.floor(r - tau) + 1, dtype=float)
        rows.append((n + tau) ** 2 + xi2 * m * m)
        m += 1
    if not rows:
        return np.empty(0)
    return np.concatenate(rows)


def _check_band_cost(curves: float) -> None:
    """Fail closed (ValueError) before a band computation above MAX_BAND_CURVES."""
    if not curves <= MAX_BAND_CURVES:
        raise ValueError(
            f"band computation exceeds the ceiling of {MAX_BAND_CURVES} level curves "
            f"({curves:.3g} estimated); ask for fewer bands or a lower energy")


def check_band_count(xi: float, ell: float) -> None:
    """Fail closed (ValueError) when too many bands lie below scaled energy ell.

    At any tau at most (2 sqrt(ell) + 1) sqrt(ell) / xi levels lie below ell.
    """
    validate_ell(ell)
    _check_band_cost((2.0 * math.sqrt(ell) + 1.0) * math.sqrt(ell) / xi + 1.0)


def _heights(xi: float, c, x2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise, the number of m >= 1 with x2 + xi^2 m^2 <= c (as floats),
    x2 the squared abscissae; computed in out when given."""
    out = np.subtract(c, x2, out=out)
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    np.divide(out, xi, out=out)
    return np.floor(out, out=out)


def _ragged(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ranges starts[i] + 0..counts[i]-1, with the owner i of each entry."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, starts[owner] + np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def band_curves(xi: float, k_max: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Level curves (n, m) that bands 1..k_max can follow, and a cap above those bands.

    On [0, 1/2] the curve (tau+n)^2 + xi^2 m^2 increases for n >= 0 and
    decreases for n <= -1.  In column j = 2n (n >= 0) or j = -2n - 1 (n < 0)
    its minimum is (j/2)^2 + xi^2 m^2 and its maximum ((j+1)/2)^2 + xi^2 m^2.
    cap, the k_max-th smallest maximum rounded up, bounds E_k for k <= k_max
    at every tau, so the curves returned are those with minimum <= cap.  The
    search ceiling is inflated by 1e-9 and cap by 1e-12 (relative), so float
    rounding can only add curves, never drop one.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _check_band_cost(k_max)
    xi2 = xi * xi
    # Energy above xi^2 holding k_max curve maxima: about 2 xi k / pi for
    # small xi, (k/2)^2 when only m = 1 fits.
    excess = max(0.25, min(2.0 * xi * k_max / math.pi, 0.25 * k_max * k_max))
    while True:
        j = np.arange(int(2.0 * math.sqrt(excess)) + 3)
        if _heights(xi, xi2 + excess, (0.5 * j[1:]) ** 2).sum() >= k_max:
            break
        excess *= 1.25
    lengths = _heights(xi, (xi2 + excess) * (1.0 + 1e-9), (0.5 * j) ** 2)
    _check_band_cost(lengths.sum())
    col, m = _ragged(np.ones(j.size, dtype=np.int64), lengths.astype(np.int64))
    maxima = (0.5 * (col + 1)) ** 2 + xi2 * m * m
    cap = float(np.partition(maxima, k_max - 1)[k_max - 1]) * (1.0 + 1e-12)
    keep = (0.5 * col) ** 2 + xi2 * m * m <= cap
    col, m = col[keep], m[keep]
    return np.where(col % 2 == 0, col // 2, -(col + 1) // 2), m, cap


def _column_counts(xi2: float, n_u: int, top_u: int, n_d: np.ndarray, top_d: np.ndarray, span):
    """Rows m_u^2 of the increasing column n_u that the span reaches and, per
    (m_u, n_d), the first m_d and the count of its candidates (_crossing_candidates)."""
    a, b = span
    m2_u = (np.arange(1, top_u + 1) ** 2)[:, None]
    lo = np.maximum(2.0 * (np.sqrt(np.maximum(a - xi2 * m2_u, 0.0)) - n_u), 0.0)
    hi = np.minimum(2.0 * (np.sqrt(np.maximum(b - xi2 * m2_u, 0.0)) - n_u), 1.0)
    rows = (lo <= hi).ravel()
    m2_u, lo, hi = m2_u[rows], lo[rows], hi[rows]
    step = (n_u - n_d) / xi2
    first = np.ceil(np.sqrt(np.maximum(m2_u + step * (n_u + n_d + lo), 0.0))) - 1.0
    last = np.floor(np.sqrt(np.maximum(m2_u + step * (n_u + n_d + hi), 0.0))) + 1.0
    first = np.maximum(first, 1.0).astype(np.int64).ravel()
    count = np.maximum(np.minimum(last, top_d).astype(np.int64).ravel() - first + 1, 0)
    return m2_u, first, count


def _crossing_candidates(xi: float, n: np.ndarray, m: np.ndarray, span):
    """Pairs of an increasing and a decreasing level curve that can cross on [0, 1/2]
    at a level lambda in span = (a, b).

    The curves (n, m) are band_curves', whose column n holds m = 1..M_n.  An
    increasing curve (n_u, m_u) and a decreasing one (n_d, m_d) meet at some
    tau in [0, 1/2] only if

        m_d^2 in m_u^2 + (n_u - n_d) (n_u + n_d + [0, 1]) / xi^2,

    so for each (n_u, m_u, n_d) only the m_d of that interval, widened by one
    on each side, are enumerated.  A pair left out has its exact tau outside
    [0, 1/2] by at least xi^2 / (2 (n_u - n_d)), far beyond the rounding of the
    float tau, so the crossings kept by band_edges' float filter are those of
    all pairs.

    Only the crossings with lambda in the span [a, b] are sought.  On the
    increasing curve lambda = (tau + n_u)^2 + xi^2 m_u^2 grows with tau, so
    that is tau in [t_a, t_b] = [sqrt(a - xi^2 m_u^2), sqrt(b - xi^2 m_u^2)]
    - n_u: [0, 1] above narrows to 2 [t_a, t_b] clipped to [0, 1], still
    widened by one m_d on each side, and the rows m_u where that is empty are
    skipped.  A crossing inside the span by more than a few ulps is kept.

    Yields blocks (n_u, m_u^2, n_d, m_d^2) of at most _BLOCK pairs, squares as
    floats; a block belongs to one increasing column n_u.  Before the first
    block, each column's candidates are counted from their closed-form
    intervals (_column_counts) into a running total, and the pass fails
    closed (ValueError) at the first column that takes it above
    MAX_BAND_CROSSINGS, so a refused pass enumerates nothing.
    """
    cols, tops = np.unique(n, return_counts=True)
    down = cols < 0
    n_d, top_d = cols[down], tops[down]
    up = list(zip(cols[~down].tolist(), tops[~down].tolist()))
    xi2 = xi * xi
    # an (m_u, n_d) entry holds at most top_d candidates: below the ceiling in
    # increasing x decreasing curves, no running total can pass it
    if int(tops[~down].sum()) * int(top_d.sum()) > MAX_BAND_CROSSINGS:
        enumerated = 0
        for n_u, top_u in up:
            enumerated += int(_column_counts(xi2, n_u, top_u, n_d, top_d, span)[2].sum())
            if enumerated > MAX_BAND_CROSSINGS:
                raise ValueError(
                    f"band computation exceeds the ceiling of {MAX_BAND_CROSSINGS} curve "
                    f"crossings (at least {enumerated} candidates); ask for fewer bands "
                    "or a lower energy")
    for n_u, top_u in up:
        m2_u, first, count = _column_counts(xi2, n_u, top_u, n_d, top_d, span)
        # one entry per (m_u, n_d); candidate j of the column has m_d = j - offset
        ends = np.cumsum(count)
        offset = ends - count - first
        total = int(ends[-1]) if ends.size else 0
        m2_uj = np.repeat(m2_u.ravel().astype(float), n_d.size)
        n_dj = np.tile(n_d, m2_u.size)
        for start in range(0, total, _BLOCK):
            j = np.arange(start, min(start + _BLOCK, total))
            pair = np.searchsorted(ends, j, side="right")
            j -= offset[pair]
            yield n_u, m2_uj[pair], n_dj[pair], (j * j).astype(float)


def _fold_crossings(xi: float, t: np.ndarray, lam: np.ndarray, n_cols: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray) -> None:
    """Fold the crossings (t, lam) into lo and hi of the bands 1..lo.size they rank as."""
    k_max = lo.size
    # levels below and at most lam, counted with the columns on axis 0; the
    # column sums add integer-valued floats, exact in any order
    tie = BOUNDARY_RTOL * np.maximum(1.0, lam)
    x2 = t + n_cols[:, None]
    np.square(x2, out=x2)
    scratch = np.empty_like(x2)
    below = _heights(xi, lam - tie, x2, scratch).sum(axis=0).astype(np.int64)
    upto = _heights(xi, lam + tie, x2, scratch).sum(axis=0).astype(np.int64)
    owner, k = _ragged(below + 1, upto - below)
    np.minimum.at(lo, k[k <= k_max] - 1, lam[owner[k <= k_max]])
    np.maximum.at(hi, k[k <= k_max] - 1, lam[owner[k <= k_max]])


def _level_extremes(xi: float, curves, k_max: int, taus) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest E_k(tau), k = 1..k_max, over the points taus in [0, 1/2].

    E_k(tau) is the k-th smallest level of the curves at tau; at most _BLOCK
    levels are held at a time.
    """
    n, m, _cap = curves
    xi2m2 = xi * xi * (m * m).astype(float)
    lo, hi = np.full(k_max, np.inf), np.full(k_max, -np.inf)
    rows = max(1, _BLOCK // n.size)
    taus = np.asarray(taus, dtype=float)
    for r in range(0, taus.size, rows):
        levels = (taus[r:r + rows, None] + n) ** 2 + xi2m2
        levels.sort(axis=1)
        lo = np.minimum(lo, levels[:, :k_max].min(axis=0))
        hi = np.maximum(hi, levels[:, :k_max].max(axis=0))
    return lo, hi


def _band_extrema(xi: float, curves, k_max: int, slices) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the bands 1..k_max (scaled units) from the tau = 0, 1/2 levels
    and the crossings ranked on the given curves; band_edges documents the method.

    slices = (a, b), closed intervals [a_i, b_i] of scaled energy with a
    sorted and b its own running maximum (so lambda lies in one of them
    exactly when it lies in [a_i, b_i] for the last a_i <= lambda), restricts
    the work to one enumeration pass over the crossings in [a_0, b_last] and
    to ranking those inside the slices.
    Every crossing and level is evaluated whatever the slices, so an endpoint
    whose attaining crossing lies in a slice has the same bits as with the
    one slice [0, cap]; the other entries only lack crossings outside the
    slices.
    """
    n, m, cap = curves
    xi2 = xi * xi
    lo, hi = _level_extremes(xi, curves, k_max, (0.0, 0.5))
    a, b = slices
    if a.size == 0:
        return lo, hi
    half = math.ceil(math.sqrt(cap))
    _check_rows(2 * half + 3)
    n_cols = np.arange(-half - 1, half + 2)
    chunk = max(1, _BLOCK // n_cols.size)
    for n_u, m2_u, n_d, m2_d in _crossing_candidates(xi, n, m, (float(a[0]), float(b[-1]))):
        t = (xi2 * (m2_d - m2_u) / (n_u - n_d) - n_u - n_d) / 2.0
        lam = (t + n_u) ** 2 + xi2 * m2_u
        i = np.searchsorted(a, lam, side="right") - 1
        ok = (t >= 0.0) & (t <= 0.5) & (lam <= cap) & (i >= 0) & (lam <= b[np.maximum(i, 0)])
        t, lam = t[ok], lam[ok]
        for c in range(0, t.size, chunk):
            _fold_crossings(xi, t[c:c + chunk], lam[c:c + chunk], n_cols, lo, hi)
    return lo, hi


def band_edges(xi: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (eta_k, theta_k) of the bands k = 1..k_max as arrays (scaled units), exact.

    On [0, 1/2] each level curve is monotone, so the extrema of E_k lie at
    tau = 0, 1/2, or where an increasing curve (n_u, m_u) crosses a decreasing
    one (n_d, m_d), at tau = (xi^2 (m_d^2 - m_u^2)/(n_u - n_d) - n_u - n_d)/2.

    * Enumeration: only the pairs whose m_d lies in the closed-form interval
      of a crossing on [0, 1/2] (_crossing_candidates), so the work follows
      the crossing count, not the count of all increasing x decreasing pairs;
      the float filter t in [0, 1/2], lambda <= cap keeps the crossings.  The
      pass is _band_extrema's with the one slice [0, cap], which holds every
      level of the bands 1..k_max.
    * Block bound: at most _BLOCK candidate pairs per block, and at most
      _BLOCK crossings x columns per ranking chunk, whatever the table size.
    * Ranking: at a crossing (t, lambda), E_k(t) = lambda for the ranks k
      between the counts of levels below and at most lambda (ties within
      BOUNDARY_RTOL * max(1, lambda)), column sums over an array with the
      longitudinal columns n on axis 0 and the crossings on axis 1; lambda is
      folded into both endpoints of those bands.

    Each endpoint is an attained value of E_k, exact up to a few ulps and that
    tie tolerance in either direction, with no inward bias.
    Fails closed (ValueError) above MAX_BAND_CURVES before allocating, above
    MAX_BAND_CROSSINGS candidates before enumerating any, and above MAX_ROWS
    ranking columns (xi above about 2e6) before allocating them.
    """
    curves = band_curves(xi, k_max)
    return _band_extrema(xi, curves, k_max, (np.zeros(1), np.array([curves[2]])))


@dataclass(frozen=True, eq=False)
class BandSamples:
    """The bands k = 1..k_max sampled at BAND_SAMPLES points of [0, 1/2] (scaled units).

    eta and theta hold the smallest and largest sample of each E_k.  Every
    piece of E_k is a level curve below the curves' cap, whose slope
    |2 (tau + n)| is at most 2 sqrt(cap), so between samples h apart E_k
    leaves the sampled range by at most sqrt(cap) h.  The endpoints eta0,
    theta0 that band_edges computes therefore obey

        eta - spread <= eta0 <= eta + tie,    theta - tie <= theta0 <= theta + spread,

    spread = sqrt(cap) h + tie, with tie = 2 BOUNDARY_RTOL max(1, cap): twice
    the rank tie tolerance, so it also covers the rounding of the levels and
    of the crossings with room to spare.
    """

    xi: float
    curves: tuple[np.ndarray, np.ndarray, float]
    eta: np.ndarray
    theta: np.ndarray
    spread: float
    tie: float

    def edges(self, eta_at: np.ndarray, theta_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Band endpoints (scaled units), bit-identical to band_edges' at the
        bands where the boolean masks eta_at (lower endpoint) and theta_at
        (upper endpoint) are set; the other entries are meaningless.

        Only crossings inside the brackets of the requested endpoints are
        ranked, in one enumeration pass.
        """
        a = np.concatenate((self.eta[eta_at] - self.spread, self.theta[theta_at] - self.tie))
        b = np.concatenate((self.eta[eta_at] + self.tie, self.theta[theta_at] + self.spread))
        order = np.argsort(a)
        slices = (a[order], np.maximum.accumulate(b[order]))
        return _band_extrema(self.xi, self.curves, self.eta.size, slices)


def sample_bands(xi: float, k_max: int) -> BandSamples:
    """Sample the bands 1..k_max at tau_s = s / (2 (BAND_SAMPLES - 1)), one block
    of points at a time.  Fails closed above MAX_BAND_CURVES, like band_edges,
    before sampling; edges() enumerates crossings under MAX_BAND_CROSSINGS."""
    curves = band_curves(xi, k_max)
    h = 1.0 / (2.0 * (BAND_SAMPLES - 1))
    eta, theta = _level_extremes(xi, curves, k_max, h * np.arange(BAND_SAMPLES))
    tie = 2.0 * BOUNDARY_RTOL * max(1.0, curves[2])
    return BandSamples(xi, curves, eta, theta, math.sqrt(curves[2]) * h + tie, tie)

