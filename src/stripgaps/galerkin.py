"""Finite-basis discretization of the perturbed fiber operator.

Concrete perturbations here are real multiplication operators given by finite
trigonometric sums on the periodicity cell (0, 2T) x (0, d):

    V(x1, x2) = sum_{(j, q)} v_{j,q} exp(i pi j x1 / T) cos(pi q x2 / d),

with Hermitian symmetry v_{-j,q} = conj(v_{j,q}) so that V is real-valued.
In the orthonormal fiber basis

    b_{n,m}(x) proportional to exp(i pi n x1 / T) sin(pi m x2 / d),

the scaled fiber operator (T^2/pi^2) H at quasimomentum tau has the exact matrix

    H[(n', m'), (n, m)] = delta ((tau+n)^2 + xi^2 m^2) + v_{n'-n, q} w(m', m, q),

    w(m', m, q) = (delta_{|m-m'|, q} (1 + delta_{q,0}) - delta_{m+m', q}) / 2,

with xi = T/d, v the coefficients times T^2/pi^2 and w the closed-form
overlap of two Dirichlet sines against the cosine.  So the module is
unit-free: it takes xi and scaled coefficients and returns scaled energies,
and the command line forms the energies.  No quadrature enters, so the only
approximation is basis truncation.  Only the diagonal depends on tau, so
band_functions builds the potential block once per call and rewrites its
diagonal per quasimomentum, and turns one eigensolve per quasimomentum into a
certified pair of bounds on each band: the Ritz value (plus the eigensolver's
backward error) from above, and a Feshbach/Schur bound from below that
charges the dropped modes through the potential's range.

Time reversal saves half of the eigensolves.  With Pi the permutation
n -> -n of the symmetric box |n| <= n_max, the matrix above gives

    H(-tau) = Pi conj(H(tau)) Pi^T   entry for entry

whenever v_{-j,q} == conj(v_{j,q}) holds exactly ((tau + n)^2 is unchanged by
(tau, n) -> (-tau, -n), and conj turns v_{n'-n,q} into v_{n-n',q}).  The two
fibers then have the same spectrum, the same ||H||_inf and the same
dropped-mode floor, so band_functions copies the certified rows of tau to an
exact float -tau.

The module also derives the perturbation's spectral bounds omega_-/omega_+
for concrete potentials (extrema on a separable grid, scanned in row blocks
in O(N) memory per transverse frequency, inflated by a second-order Taylor
bound at the critical point and a rounding term, giving a rigorous outer
enclosure) and verifies the minimax band enclosures

    E_k^0(tau) + omega_-  <=  E_k(tau)  <=  E_k^0(tau) + omega_+ .
"""

from __future__ import annotations

import cmath
import copy
import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .gaps import PerturbBounds
from .geometry import StripGeometry
from .spectrum import _BLOCK, _level_extremes, band_curves

__all__ = [
    "PotentialSpec", "read_potential_file", "default_truncation", "assemble", "BandTable",
    "zone_grid", "band_functions", "unperturbed_band_functions", "OmegaEnclosure",
    "omega_bounds", "EnclosureCheck", "verify_enclosure",
]

# Hard ceiling on the Galerkin matrix dimension (memory and eigensolver cost).
MAX_BASIS_DIM = 4096
# Ceiling on band_functions' eigensolve work, solved tau points x dim^3: about
# 10 s of solves at the 0.2 ns per unit measured for dims 1,000-3,000 (2 cores).
MAX_EIGEN_WORK = 5e10

# Entrywise tolerance for accepting a matrix as Hermitian.
_HERMITIAN_ATOL = 1e-12

# Conservative constant c of the eigenvalue rounding bound
# eps = c * dim * u * ||H||_inf (u the unit roundoff): it covers the
# eigensolver's backward error, the rounding of the assembled entries and the
# few roundings of the enclosure formulas in band_functions.
EIG_ROUNDING_C = 16.0
_UNIT_ROUNDOFF = 2.0 ** -53

# Conservative constant c of omega_bounds' rounding term
# c * K * (u * (sum |v| + sampling bound) + smallest subnormal), K the
# non-constant terms: the grid values are within (55 + K) u sum |v| (see
# omega_bounds), below 64 K u sum |v| for every K >= 1, and the rest pays for
# the final roundings.
RANGE_ROUNDING_C = 64.0
_SMALLEST_SUBNORMAL = 2.0 ** -1074


@dataclass(frozen=True)
class PotentialSpec:
    """Finite trigonometric potential: terms (j, q, coeff).

    Represents V(x1, x2) = sum v_{j,q} exp(i pi j x1/T) cos(pi q x2/d) with
    q >= 0.  Duplicate (j, q) labels and non-finite coefficients are rejected;
    Hermitian symmetry v_{-j,q} = conj(v_{j,q}) is required term by term so V
    is real-valued.  The empty spec is V = 0.
    """

    terms: tuple[tuple[int, int, complex], ...] = ()

    def __post_init__(self) -> None:
        seen: dict[tuple[int, int], complex] = {}
        for j, q, v in self.terms:
            if q < 0:
                raise ValueError(f"transverse frequency q must be >= 0, got {q}")
            if (j, q) in seen:
                raise ValueError(f"duplicate potential term (j={j}, q={q})")
            if not np.isfinite(v):
                raise ValueError(f"potential coefficient at (j={j}, q={q}) is not finite: {v}")
            seen[(j, q)] = complex(v)
        for (j, q), v in seen.items():
            mate = seen.get((-j, q), 0.0 + 0.0j)
            if abs(mate - v.conjugate()) > 1e-14 * max(1.0, abs(v)):
                raise ValueError(
                    f"potential is not real-valued: coefficient at (j={-j}, q={q}) "
                    f"must equal conj of the one at (j={j}, q={q})"
                )

    @property
    def conjugate_symmetric(self) -> bool:
        """True when v_{-j,q} == conj(v_{j,q}) holds exactly for every term
        (an absent term counting as 0), not just within the 1e-14 the
        constructor accepts: the condition under which band_functions reuses
        the spectrum of tau at -tau."""
        coeffs = {(j, q): complex(v) for j, q, v in self.terms}
        return all(coeffs.get((-j, q), 0.0) == v.conjugate() for (j, q), v in coeffs.items())

    def scaled(self, factor: float) -> PotentialSpec:
        """The spec of factor V, factor real.  The symmetry tolerance is not
        scale-free, so the product is not checked against it again (V passed
        it); exact conjugate symmetry is kept, and a coefficient the product
        takes past float range is refused (OverflowError)."""
        terms = tuple((j, q, complex(factor * v.real, factor * v.imag))
                      for j, q, v in self.terms)
        for (j, q, v), (_, _, product) in zip(self.terms, terms):
            if not cmath.isfinite(product):
                raise OverflowError(f"the scaled coefficient at (j={j}, q={q}), {factor!r} times "
                                    f"{v!r}, is not finite")
        spec = copy.copy(self)
        object.__setattr__(spec, "terms", terms)
        return spec


def read_potential_file(path: str | os.PathLike) -> tuple[StripGeometry, PotentialSpec]:
    """Parse a potential file: header ``T=... d=...`` then lines ``j q re im``.

    Blank lines and lines starting with ``#`` are ignored.  A file that cannot
    be opened raises ValueError naming the path and the reason, and a line
    that cannot be parsed (non-ASCII, a bad number) one naming both the path
    and the line number.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValueError(
            f"cannot read potential file {path!r}: {exc.strerror or exc}") from exc
    geom: StripGeometry | None = None
    terms: list[tuple[int, int, complex]] = []
    with fh:
        for number, raw in enumerate(fh, 1):
            try:  # UnicodeDecodeError is a ValueError
                line = raw.decode("ascii").strip()
                if not line or line.startswith("#"):
                    continue
                if geom is None:
                    fields = dict(item.split("=", 1) for item in line.split())
                    if set(fields) != {"T", "d"}:
                        raise ValueError(f"potential header must be 'T=... d=...', got {line!r}")
                    geom = StripGeometry(T=float(fields["T"]), d=float(fields["d"]))
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise ValueError(f"potential record must be 'j q re im', got {line!r}")
                terms.append((int(parts[0]), int(parts[1]),
                              complex(float(parts[2]), float(parts[3]))))
            except ValueError as exc:
                raise ValueError(f"potential file {path!r}, line {number}: {exc}") from exc
    if geom is None:
        raise ValueError(f"potential file {path!r} has no 'T=... d=...' header")
    return geom, PotentialSpec(terms=tuple(terms))


def default_truncation(xi: float, k_max: int) -> tuple[int, int]:
    """Truncation (n_max, m_max) expected to resolve the lowest k_max bands.

    Covers every mode whose scaled level can reach the k_max-th level plus 1
    anywhere on the Brillouin zone.  It is a starting point, not a
    guarantee: band_functions certifies whatever truncation it is given, and
    refuses one that drops a mode as low as a requested band.
    """
    level = _level_extremes(xi, band_curves(xi, k_max), k_max, (0.5,))[0][-1]
    ceiling = float(level) + 1.0
    n_max = int(math.ceil(math.sqrt(ceiling) + 0.5)) + 1
    m_max = max(1, int(math.ceil(math.sqrt(ceiling) / xi)) + 1)
    return n_max, m_max


def _basis_dim(n_max: int, m_max: int) -> int:
    """The number of modes |n| <= n_max, 1 <= m <= m_max, within MAX_BASIS_DIM."""
    if n_max < 0 or m_max < 1:
        raise ValueError(f"need n_max >= 0 and m_max >= 1, got ({n_max}, {m_max})")
    dim = (2 * n_max + 1) * m_max
    if dim > MAX_BASIS_DIM:
        raise ValueError(f"basis dimension {dim} exceeds the ceiling {MAX_BASIS_DIM}")
    return dim


def _potential_block(
    potential: PotentialSpec, n_max: int, m_max: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, complex]]]:
    """The tau-independent part of assemble's matrix, and its diagonal hits.

    Returns (H, hits): H holds every off-diagonal entry of the Galerkin
    matrix, summed in term order; its diagonal is left for _set_diagonal.
    hits lists, in that order, the (diagonal positions, value) of each
    addition that lands on the diagonal: the (0, 0) term on every mode, and
    a (0, 2m) term on the modes of transverse index m.
    """
    dim = _basis_dim(n_max, m_max)
    ns = np.repeat(np.arange(-n_max, n_max + 1), m_max)
    ms = np.tile(np.arange(1, m_max + 1), 2 * n_max + 1)
    cols = np.arange(dim)
    H = np.zeros((dim, dim), dtype=complex)
    hits = []
    for j, q, v in potential.terms:
        if v == 0:
            continue
        # Candidate rows (n + j, m_row) and their transverse weights
        # (delta_{|m_row - m|, q} (1 + delta_{q,0}) - delta_{m_row + m, q}) / 2:
        # distinct rows per column, so each entry gets one addition per term,
        # in the order the terms are listed.
        candidates = ((ms, 1.0),) if q == 0 else ((ms + q, 0.5), (ms - q, 0.5), (q - ms, -0.5))
        n_row = ns + j
        for m_row, w in candidates:
            hit = (np.abs(n_row) <= n_max) & (m_row >= 1) & (m_row <= m_max)
            rows, columns = (n_row[hit] + n_max) * m_max + m_row[hit] - 1, cols[hit]
            H[rows, columns] += v * w
            on_diagonal = rows == columns
            if on_diagonal.any():
                hits.append((rows[on_diagonal], v * w))
    return H, hits


def _set_diagonal(H: np.ndarray, xi: float, tau: float, n_max: int, m_max: int,
                  hits: list[tuple[np.ndarray, complex]]) -> None:
    """Write the diagonal of assemble's matrix at tau into the block H.

    The mode levels first, then the diagonal hits of _potential_block in
    their order: the same additions on the same values as assembling the
    whole matrix, so the result is bit-identical to it.
    """
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    # Mode levels as Python floats (numpy's square and libm's pow can
    # differ by an ulp); tau is not folded into the fundamental window
    # because the fiber family is 1-periodic and zone-edge values are useful.
    xi2 = xi * xi
    diagonal = np.array([(tau + n) ** 2 + xi2 * (m * m)
                         for n in range(-n_max, n_max + 1) for m in range(1, m_max + 1)],
                        dtype=complex)
    for positions, value in hits:
        diagonal[positions] += value
    np.fill_diagonal(H, diagonal)


def assemble(xi: float, tau: float, potential: PotentialSpec, n_max: int,
             m_max: int) -> np.ndarray:
    """Exact Galerkin matrix of the scaled fiber operator at quasimomentum tau.

    Basis: modes (n, m) with |n| <= n_max, 1 <= m <= m_max, n-major, so mode
    (n, m) is row (n + n_max) m_max + m - 1.  Diagonal entries are the
    unperturbed scaled mode levels (tau + n)^2 + xi^2 m^2; the (scaled)
    perturbation contributes v_{n'-n, q} times the transverse weight.  The
    result is Hermitian by construction.
    """
    H, hits = _potential_block(potential, n_max, m_max)
    _set_diagonal(H, xi, tau, n_max, m_max, hits)
    return H


@dataclass(frozen=True)
class BandTable:
    """Certified band enclosures on a tau grid.

    lower[i, k-1] <= E_k(tau_grid[i]) <= energies[i, k-1] for the k-th band
    (ascending); energies is the upper side, and the two sides coincide for
    the exact V = 0 table.
    """

    tau_grid: tuple[float, ...]
    energies: np.ndarray
    lower: np.ndarray

    def __post_init__(self) -> None:
        e = self.energies
        if e.shape != (len(self.tau_grid), e.shape[1]):
            raise ValueError("energies shape inconsistent with tau_grid")
        if e.shape[1] > 1 and np.any(np.diff(e, axis=1) < 0):
            raise ValueError("each tau row must be ascending")
        if self.lower.shape != e.shape or np.any(self.lower > e):
            raise ValueError("lower bounds must match energies in shape and not exceed them")

    @property
    def k_max(self) -> int:
        return self.energies.shape[1]

    @property
    def max_enclosure_width(self) -> float:
        """Largest upper - lower over the table."""
        return float(np.max(self.energies - self.lower))

    @property
    def max_drift(self) -> float:
        """Alias of max_enclosure_width, under the name of the former
        convergence-gate drift it replaces as the table's accuracy figure."""
        return self.max_enclosure_width


def _dropped_floor(xi: float, tau: float, n_max: int, m_max: int) -> float:
    """Smallest unperturbed scaled mode level outside |n| <= n_max, m <= m_max.

    Exact for any finite tau: a dropped mode has m > m_max (any n), or
    |n| > n_max (any m >= 1), and (tau + n)^2 over the integers of a ray is
    least at its end or next to -tau.
    """
    near = (math.floor(-tau), math.ceil(-tau))
    beyond = min((tau + n) ** 2 for n in (n_max + 1, -n_max - 1) + near if abs(n) > n_max)
    xi2 = xi * xi
    return min(min((tau + n) ** 2 for n in near) + xi2 * ((m_max + 1) * (m_max + 1)),
               beyond + xi2)


def zone_grid(n: int) -> list[float]:
    """The quasimomenta -1/2 + i/n, i = 1..n, each one division of integers, so
    +-tau pairs are exact negations and band_functions solves each pair once."""
    return [(2 * i - n) / (2 * n) for i in range(1, n + 1)]


def band_functions(xi: float, potential: PotentialSpec, tau_grid: Sequence[float], k_max: int,
                   truncation: tuple[int, int], bounds: PerturbBounds) -> BandTable:
    """Certified enclosures of the lowest k_max scaled bands per grid tau.

    One eigensolve per tau (or per +-tau pair, below), on the kept modes P
    (|n| <= n_max, 1 <= m <= m_max; Q = 1 - P the dropped ones).  The
    tau-independent potential block is built and checked Hermitian once per
    call; each solved tau only rewrites its diagonal (_set_diagonal), so every
    matrix is bit-identical to assemble(tau) and one dim x dim buffer serves
    the whole grid.  bounds must enclose the range of V,
    omega_- <= V <= omega_+ (omega_bounds does).  With mu_k the computed Ritz
    values and eps = EIG_ROUNDING_C * dim * u * ||H||_inf:

    * upper: E_k <= mu_k + eps, by min-max (Ritz values bound from above);
    * lower: QHQ >= Lambda = Lambda0(tau) + omega_-, Lambda0 the smallest
      dropped mode energy, and ||PVQ|| = ||P(V - c)Q|| <= omega_L/2 for the
      midpoint c of the range, since PQ = 0.  Completing the square in the Q
      component gives, for lambda < Lambda and a = (omega_L/2)^2,

          H - lambda >= P(PHP - lambda - a/(Lambda - lambda))P (+) 0,

      so E_k >= mu - 2a/(g + sqrt(g^2 + 4a)) with mu = mu_k - eps and
      g = Lambda - mu.

    Fails closed (ValueError naming band, tau and g) when g <= 0: the
    truncation then drops a mode as low as the band and must grow.  Before
    anything is allocated it refuses a basis above MAX_BASIS_DIM and
    eigensolve work, solved points x dim^3, above MAX_EIGEN_WORK.

    A grid point that is the exact float negation of an earlier one gets
    that point's rows without an eigensolve, when the potential
    is exactly conjugate-symmetric (PotentialSpec.conjugate_symmetric): then
    H(-tau) = Pi conj(H(tau)) Pi^T (module docstring), so the Ritz values,
    eps and Lambda0 agree between the two points.  Otherwise both are solved.
    """
    n_max, m_max = truncation
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if (2 * n_max + 1) * m_max < k_max:
        raise ValueError(f"truncation ({n_max}, {m_max}) has fewer than k_max={k_max} modes")
    grid = [float(t) for t in tau_grid]
    if not grid:
        raise ValueError("tau_grid must be nonempty")
    reuse = potential.conjugate_symmetric
    solved: dict[float, int] = {}  # tau -> its row, for reuse at -tau
    mates = []  # per point, the solved row at -tau it copies, or None
    for i, tau in enumerate(grid):
        mates.append(solved.get(-tau) if reuse else None)
        if mates[-1] is None:
            solved[tau] = i
    dim = _basis_dim(n_max, m_max)
    work = len(solved) * float(dim) ** 3
    if work > MAX_EIGEN_WORK:
        raise ValueError(f"eigensolve work of {len(solved)} solves at basis dimension {dim} "
                         f"({work:.3g} dim^3) exceeds the ceiling {MAX_EIGEN_WORK:.3g}")
    a = (0.5 * bounds.omega_L) ** 2
    H, hits = _potential_block(potential, n_max, m_max)
    # refused, not left to an eigensolver that reads one triangle only
    defect = np.max(np.abs(H - H.conj().T))
    if defect > _HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian: entrywise defect {defect:.3e}")
    upper, lower = np.empty((2, len(grid), k_max))
    for i, (tau, mate) in enumerate(zip(grid, mates)):
        if mate is not None:
            upper[i], lower[i] = upper[mate], lower[mate]
            continue
        _set_diagonal(H, xi, tau, n_max, m_max, hits)
        ritz = np.linalg.eigvalsh(H)[:k_max]
        norm = float(np.abs(H).sum(axis=1).max())
        eps = EIG_ROUNDING_C * H.shape[0] * _UNIT_ROUNDOFF * norm
        mu = ritz - eps
        g = _dropped_floor(xi, tau, n_max, m_max) + bounds.omega_minus - mu
        if np.any(g <= 0):
            k = int(np.argmax(g <= 0))
            raise ValueError(f"band {k + 1} at tau {tau!r} reaches the dropped modes: "
                             f"g = {g[k]:.3e} <= 0 under truncation {truncation}; enlarge it")
        upper[i] = ritz + eps
        lower[i] = mu - 2.0 * a / (g + np.sqrt(g * g + 4.0 * a))
    return BandTable(tuple(grid), upper, lower)


def unperturbed_band_functions(xi: float, tau_grid: Sequence[float], k_max: int) -> BandTable:
    """Exact V = 0 bands: the k_max smallest scaled mode levels per grid tau.

    The modes are spectrum.band_curves (every curve bands 1..k_max can
    follow, enumerated on [0, 1/2], so each tau is taken as |tau|) with
    assemble's diagonal expression; no truncation enters, so the lower and
    upper sides are the same values.
    """
    n, m, _cap = band_curves(xi, k_max)
    grid = tuple(float(t) for t in tau_grid)
    xi2m2 = xi * xi * (m * m)
    energies = np.array([np.sort(np.partition((abs(tau) + n) ** 2 + xi2m2, k_max - 1)[:k_max])
                         for tau in grid]).reshape(len(grid), k_max)
    return BandTable(grid, energies, energies)


@dataclass(frozen=True, kw_only=True)
class OmegaEnclosure(PerturbBounds):
    """Outer enclosure of the potential's range over the cell: PerturbBounds
    (finite, ordered and of finite oscillation, checked on construction)
    with how they were found.

    grid_min/grid_max are the extrema of the computed values on the sample
    grid; inflation is the slack added outward: the smaller of the first- and
    second-order sampling bounds, plus rounding, the part that covers
    floating-point error (exactly 0 for a constant potential, whose values
    are exact).  Clipping to the trivial range (see omega_bounds) can only
    shrink either side's slack.  The true essential infimum and supremum satisfy
    omega_minus <= inf V and sup V <= omega_plus.
    """

    grid_min: float
    grid_max: float
    inflation: float
    rounding: float


def _range_extremes(potential: PotentialSpec, grid_n: int) -> tuple[float, float]:
    """Smallest and largest V at x1 = 2T k/N (0 <= k < N) by x2 = d l/(N-1)
    (0 <= l < N), N = grid_n (T and d cancel from the phases).

    Separable: the terms are summed by transverse frequency into
    c_q(x1) = sum_j Re(v_{j,q} e^{i pi j x1/T}), and each block of grid rows
    is the product (rows x Q) @ (Q x N) with the rows cos(pi q x2/d).  The
    phases are reduced in integers, 2 pi (j k mod N)/N and
    pi (q l mod 2(N-1))/(N-1), so each cosine is taken at an exact grid point
    and an angle in [0, 2 pi), whatever the sizes of j and q.  Zero
    coefficients are skipped.  Blocks hold at most _BLOCK values (at least one
    row), so memory is O(N Q), not O(N^2); only the running extremes are kept.
    """
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
    cosines = np.cos((math.pi / (grid_n - 1)) * phase)
    lo, hi = np.inf, -np.inf
    step = max(1, _BLOCK // grid_n)
    for r in range(0, grid_n, step):
        block = c[r:r + step] @ cosines
        lo, hi = np.minimum(lo, block.min()), np.maximum(hi, block.max())
    return float(lo), float(hi)


def omega_bounds(xi: float, potential: PotentialSpec, grid_n: int = 1024) -> OmegaEnclosure:
    """Rigorous enclosure of min/max of V over the cell (0, 2T) x [0, d], in
    the units of V's coefficients (scaled, as everywhere here).

    Scans V on the N x N grid of _range_extremes (periodic in x1, endpoints
    included in x2) in blocks of grid rows, keeping only the running minimum
    and maximum (memory O(N) per transverse frequency, not O(N^2)), and
    inflates both extremes outward by

        min(first, second) + rounding.

    Both sampling bounds are free of T:

    first = sum |v| pi (|j| + q xi) hypot(2, 1/xi)/N is the mean-value bound,
    |grad V| <= sum |v| pi (|j|/T + q/d) times hypot(2T, d)/N, at least the
    distance to the nearest grid point.  second = 1/2 sum |v| (pi |j|/N + pi q/(2(N-1)))^2 is
    Taylor's bound at a critical point: V extends evenly in x2 to a smooth
    function on the torus (0, 2T) x (-d, d) with the same range, so
    grad V = 0 at its extrema, the nearest grid point lies within T/N and
    d/(2(N-1)) in each coordinate, and each term's second derivative along a
    step (s1, s2) is at most |v| (pi |j| s1/T + pi q s2/d)^2.

    rounding = RANGE_ROUNDING_C * K * (u * (sum |v| + min(first, second)) + s),
    with K the number of nonzero terms other than (0, 0), u the unit roundoff
    and s = 2^-1074 the smallest subnormal.  It covers the computed grid
    values (each trigonometric factor within 20u, each term within 33u |v|,
    and at most K + 1 additions per value, so within (55 + K) u sum |v| in
    all, plus s for each operation that underflows) and the roundings of the
    inflation and of the final subtraction.  With K = 0 the values are the
    exact constant and rounding is 0.  The result is clipped to the trivial
    range Re v_{0,0} +- sum' |v_{j,q}| (the other terms), widened by rounding
    without its sampling share and by an ulp: the tighter side when the
    sampling bound is large (huge j or q).
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    grid_min, grid_max = _range_extremes(potential, grid_n)
    first = (sum(abs(v) * math.pi * (abs(j) + q * xi) for j, q, v in potential.terms)
             * math.hypot(2.0, 1.0 / xi) / grid_n)
    second = 0.5 * sum(abs(v) * (math.pi * abs(j) / grid_n + math.pi * q / (2 * (grid_n - 1))) ** 2
                       for j, q, v in potential.terms)
    sampling = min(first, second)
    nonconstant = sum(1 for j, q, v in potential.terms if v != 0 and (j, q) != (0, 0))
    total = sum(abs(v) for _, _, v in potential.terms)
    rounding = RANGE_ROUNDING_C * nonconstant * (
        _UNIT_ROUNDOFF * (total + sampling) + _SMALLEST_SUBNORMAL)
    inflation = sampling + rounding
    centre = sum(complex(v).real for j, q, v in potential.terms if (j, q) == (0, 0))
    radius = (sum(abs(v) for j, q, v in potential.terms if (j, q) != (0, 0))
              + RANGE_ROUNDING_C * nonconstant * (_UNIT_ROUNDOFF * total + _SMALLEST_SUBNORMAL))
    return OmegaEnclosure(
        omega_minus=max(grid_min - inflation, math.nextafter(centre - radius, -math.inf)),
        omega_plus=min(grid_max + inflation, math.nextafter(centre + radius, math.inf)),
        grid_min=grid_min,
        grid_max=grid_max,
        inflation=inflation,
        rounding=rounding,
    )


class EnclosureCheck(NamedTuple):
    """Worst-case verdict of the minimax band enclosure on a grid.

    band, tau and side ("lower" or "upper") locate the worst margin.
    """

    ok: bool
    worst_margin: float
    band: int
    tau: float
    side: str


def verify_enclosure(bands: BandTable, bands0: BandTable, bounds: PerturbBounds) -> EnclosureCheck:
    """Check E_k0(tau) + omega_- <= E_k(tau) <= E_k0(tau) + omega_+ entrywise.

    Each side is checked on the certified bounds: bands.lower against the
    upper side of bands0 plus omega_-, bands.energies (upper) against the
    lower side of bands0 plus omega_+.  bands and bands0 must share the tau
    grid and band count (ValueError on mismatch).  Returns the worst signed
    margin over both inequalities and all entries, with where it sits; ok
    when it is >= 0 (both sides are certified bounds, so no negative margin
    is forgiven).
    """
    if bands.tau_grid != bands0.tau_grid:
        raise ValueError("tau grids differ between the two band tables")
    if bands.k_max != bands0.k_max:
        raise ValueError(f"band counts differ: {bands.k_max} vs {bands0.k_max}")
    margins = np.stack((
        bands.lower - (bands0.energies + bounds.omega_minus),
        (bands0.lower + bounds.omega_plus) - bands.energies,
    ))
    side, i, k = np.unravel_index(np.argmin(margins), margins.shape)
    worst = float(margins[side, i, k])
    return EnclosureCheck(
        ok=worst >= 0.0, worst_margin=worst, band=int(k) + 1,
        tau=bands.tau_grid[i], side=("lower", "upper")[side],
    )
