"""Finite-basis discretization of the perturbed fiber operator.

Concrete perturbations here are real multiplication operators given by finite
trigonometric sums on the periodicity cell (0, 2T) x (0, d):

    V(x1, x2) = sum_{(j, q)} v_{j,q} exp(i pi j x1 / T) cos(pi q x2 / d),

with Hermitian symmetry v_{-j,q} = conj(v_{j,q}) so that V is real-valued.
In the orthonormal fiber basis

    b_{n,m}(x) proportional to exp(i pi n x1 / T) sin(pi m x2 / d),

the fiber operator at quasimomentum tau has the exact matrix

    H[(n', m'), (n, m)] = delta diag((pi^2/T^2)(tau+n)^2 + pi^2 m^2 / d^2)
                          + v_{n'-n, q} w(m', m, q),

    w(m', m, q) = (delta_{|m-m'|, q} (1 + delta_{q,0}) - delta_{m+m', q}) / 2,

where w is the closed-form overlap of two Dirichlet sines against the cosine:
no quadrature enters, so the only approximation is basis truncation.  A
convergence gate (eigenvalue drift under enlarging the truncation by 5 in
each direction) guards every band computation.

The module also derives the perturbation's spectral bounds omega_-/omega_+
for concrete potentials (grid extrema inflated by a gradient bound, giving a
rigorous outer enclosure) and verifies the minimax band enclosures

    E_k^0(tau) + omega_-  <=  E_k(tau)  <=  E_k^0(tau) + omega_+ .
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .gaps import PerturbBounds
from .geometry import StripGeometry

__all__ = [
    "PotentialSpec",
    "read_potential_file",
    "default_truncation",
    "assemble",
    "hermitian_eigenvalues",
    "BandTable",
    "band_functions",
    "unperturbed_band_functions",
    "OmegaEnclosure",
    "omega_bounds",
    "EnclosureCheck",
    "verify_enclosure",
]

# Hard ceiling on the Galerkin matrix dimension (memory and eigensolver cost).
MAX_BASIS_DIM = 4096

# Entrywise tolerance for accepting a matrix as Hermitian.
_HERMITIAN_ATOL = 1e-12

# Convergence gate: the k_max-th eigenvalue may drift by at most this much
# when n_max and m_max each grow by _GATE_STEP.
GATE_TOL = 1e-6
_GATE_STEP = 5


@dataclass(frozen=True)
class PotentialSpec:
    """Finite trigonometric potential: terms (j, q, coeff).

    Represents V(x1, x2) = sum v_{j,q} exp(i pi j x1/T) cos(pi q x2/d) with
    q >= 0.  Duplicate (j, q) labels are rejected; Hermitian symmetry
    v_{-j,q} = conj(v_{j,q}) is required term by term so V is real-valued.
    The empty spec is V = 0.
    """

    terms: tuple[tuple[int, int, complex], ...] = ()

    def __post_init__(self) -> None:
        seen: dict[tuple[int, int], complex] = {}
        for j, q, v in self.terms:
            if q < 0:
                raise ValueError(f"transverse frequency q must be >= 0, got {q}")
            if (j, q) in seen:
                raise ValueError(f"duplicate potential term (j={j}, q={q})")
            seen[(j, q)] = complex(v)
        for (j, q), v in seen.items():
            mate = seen.get((-j, q), 0.0 + 0.0j)
            if abs(mate - v.conjugate()) > 1e-14 * max(1.0, abs(v)):
                raise ValueError(
                    f"potential is not real-valued: coefficient at (j={-j}, q={q}) "
                    f"must equal conj of the one at (j={j}, q={q})"
                )

    @property
    def j_max(self) -> int:
        return max((abs(j) for j, _, _ in self.terms), default=0)

    @property
    def q_max(self) -> int:
        return max((q for _, q, _ in self.terms), default=0)

    def coefficient(self, j: int, q: int) -> complex:
        """v_{j,q}, zero when the term is absent."""
        for jj, qq, v in self.terms:
            if jj == j and qq == q:
                return complex(v)
        return 0.0 + 0.0j

    def gradient_bound(self, geom: StripGeometry) -> float:
        """Upper bound sum |v_{j,q}| pi (|j|/T + q/d) for |grad V| on the cell."""
        return sum(
            abs(v) * math.pi * (abs(j) / geom.T + q / geom.d)
            for j, q, v in self.terms
        )

    def evaluate(self, geom: StripGeometry, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Pointwise values of V on the broadcast grid (x1, x2); real array."""
        total = np.zeros(np.broadcast(x1, x2).shape, dtype=complex)
        for j, q, v in self.terms:
            total += (
                v
                * np.exp(1j * math.pi * j * np.asarray(x1, dtype=float) / geom.T)
                * np.cos(math.pi * q * np.asarray(x2, dtype=float) / geom.d)
            )
        # Hermitian symmetry guarantees a real sum; drop rounding noise.
        return np.real(total)


def read_potential_file(path: str | os.PathLike) -> tuple[StripGeometry, PotentialSpec]:
    """Parse a potential file: header ``T=... d=...`` then lines ``j q re im``.

    Blank lines and lines starting with ``#`` are ignored.
    """
    geom: StripGeometry | None = None
    terms: list[tuple[int, int, complex]] = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if geom is None:
                fields = dict(item.split("=", 1) for item in line.split())
                if set(fields) != {"T", "d"}:
                    raise ValueError(
                        f"potential header must be 'T=... d=...', got {line!r}"
                    )
                geom = StripGeometry(T=float(fields["T"]), d=float(fields["d"]))
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"potential record must be 'j q re im', got {line!r}")
            j, q = int(parts[0]), int(parts[1])
            terms.append((j, q, complex(float(parts[2]), float(parts[3]))))
    if geom is None:
        raise ValueError(f"potential file {path!r} has no 'T=... d=...' header")
    return geom, PotentialSpec(terms=tuple(terms))


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


def default_truncation(
    geom: StripGeometry, k_max: int, slack: float = 1.0
) -> tuple[int, int]:
    """Truncation (n_max, m_max) expected to resolve the lowest k_max bands.

    Covers every mode whose scaled level can reach the k_max-th level plus
    ``slack`` anywhere on the Brillouin zone; the convergence gate remains the
    authority, this is only a starting point.
    """
    from .spectrum import kth_scaled_level

    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    ceiling = kth_scaled_level(geom.xi, k_max, 0.5) + slack
    n_max = int(math.ceil(math.sqrt(ceiling) + 0.5)) + 1
    m_max = max(1, int(math.ceil(math.sqrt(ceiling) / geom.xi)) + 1)
    return n_max, m_max


def _basis(n_max: int, m_max: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(-n_max, n_max + 1) for m in range(1, m_max + 1)]


def assemble(
    geom: StripGeometry,
    tau: float,
    potential: PotentialSpec,
    n_max: int,
    m_max: int,
    modes: Sequence[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Exact Galerkin matrix of the fiber operator at quasimomentum tau.

    Basis: modes (n, m) with |n| <= n_max, 1 <= m <= m_max, or the explicit
    ``modes`` list when given (ordered as supplied; duplicates rejected).
    Diagonal entries are the unperturbed mode energies; the perturbation
    contributes v_{n'-n, q} times the transverse weight.  The result is
    Hermitian by construction.
    """
    if modes is None:
        if n_max < 0 or m_max < 1:
            raise ValueError(
                f"need n_max >= 0 and m_max >= 1, got ({n_max}, {m_max})"
            )
        mode_list = _basis(n_max, m_max)
    else:
        mode_list = [(int(n), int(m)) for n, m in modes]
        if len(set(mode_list)) != len(mode_list):
            raise ValueError("explicit mode list contains duplicates")
    dim = len(mode_list)
    if dim > MAX_BASIS_DIM:
        raise ValueError(
            f"basis dimension {dim} exceeds the ceiling {MAX_BASIS_DIM}"
        )
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    index = {nm: i for i, nm in enumerate(mode_list)}
    H = np.zeros((dim, dim), dtype=complex)
    # Diagonal mode energies; tau is not folded into the fundamental window
    # because the fiber family is 1-periodic and zone-edge values are useful.
    for i, (n, m) in enumerate(mode_list):
        H[i, i] = (math.pi / geom.T) ** 2 * (tau + n) ** 2 + (
            math.pi * m / geom.d
        ) ** 2
    for j, q, v in potential.terms:
        if v == 0:
            continue
        for col, (n, m) in enumerate(mode_list):
            n_row = n + j
            # Distinct candidate rows only: for q = 0 all three formulas
            # collapse to m and the entry must be added once.
            for m_row in {m - q, m + q, q - m}:
                if m_row < 1:
                    continue
                row = index.get((n_row, m_row))
                if row is None:
                    continue
                w = _transverse_weight(m_row, m, q)
                if w != 0.0:
                    H[row, col] += v * w
    return H


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, multiplicities kept.

    The input must be Hermitian entrywise within 1e-12 (absolute); anything
    else is rejected rather than silently symmetrized.
    """
    H = np.asarray(matrix)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"matrix must be square, got shape {H.shape}")
    defect = np.max(np.abs(H - H.conj().T)) if H.size else 0.0
    if defect > _HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian: entrywise defect {defect:.3e}")
    return np.linalg.eigvalsh(H)


@dataclass(frozen=True)
class BandTable:
    """Perturbed band values on a tau grid.

    energies[i, k-1] is the k-th eigenvalue (ascending) at tau_grid[i];
    truncation records (n_max, m_max); max_drift the largest change of the
    k_max-th eigenvalue observed by the convergence gate.
    """

    tau_grid: tuple[float, ...]
    energies: np.ndarray
    truncation: tuple[int, int]
    max_drift: float

    def __post_init__(self) -> None:
        e = self.energies
        if e.shape != (len(self.tau_grid), e.shape[1]):
            raise ValueError("energies shape inconsistent with tau_grid")
        if e.shape[1] > 1 and np.any(np.diff(e, axis=1) < 0):
            raise ValueError("each tau row must be ascending")

    @property
    def k_max(self) -> int:
        return self.energies.shape[1]

    def band(self, k: int) -> np.ndarray:
        """Values of the k-th band function on the grid."""
        if not 1 <= k <= self.k_max:
            raise ValueError(f"band index {k} outside 1..{self.k_max}")
        return self.energies[:, k - 1]


def band_functions(
    geom: StripGeometry,
    potential: PotentialSpec,
    tau_grid: Sequence[float],
    k_max: int,
    truncation: tuple[int, int],
) -> BandTable:
    """Lowest k_max eigenvalues per grid tau, guarded by the convergence gate.

    At every grid point the k_max-th eigenvalue is recomputed with the
    truncation enlarged by 5 in each direction; if any drift reaches 1e-6 the
    computation is rejected (ValueError reporting the worst drift), since the
    requested truncation is then not trustworthy for k_max bands.
    """
    n_max, m_max = truncation
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if (2 * n_max + 1) * m_max < k_max:
        raise ValueError(
            f"truncation ({n_max}, {m_max}) has fewer than k_max={k_max} modes"
        )
    grid = [float(t) for t in tau_grid]
    if not grid:
        raise ValueError("tau_grid must be nonempty")
    energies = np.empty((len(grid), k_max))
    max_drift = 0.0
    for i, tau in enumerate(grid):
        small = hermitian_eigenvalues(
            assemble(geom, tau, potential, n_max, m_max)
        )[:k_max]
        big = hermitian_eigenvalues(
            assemble(geom, tau, potential, n_max + _GATE_STEP, m_max + _GATE_STEP)
        )[:k_max]
        drift = float(np.max(np.abs(big - small)))
        max_drift = max(max_drift, drift)
        energies[i] = big
    if max_drift >= GATE_TOL:
        raise ValueError(
            f"convergence gate failed: eigenvalue drift {max_drift:.3e} >= "
            f"{GATE_TOL} under truncation increase from {truncation}; enlarge it"
        )
    return BandTable(
        tau_grid=tuple(grid),
        energies=energies,
        truncation=truncation,
        max_drift=max_drift,
    )


def unperturbed_band_functions(
    geom: StripGeometry, tau_grid: Sequence[float], k_max: int
) -> BandTable:
    """Exact V = 0 bands: the k_max smallest mode energies per grid tau.

    The modes are spectrum.band_curves (every curve bands 1..k_max can
    follow, enumerated on [0, 1/2], so each tau is taken as |tau|) with
    assemble's diagonal expression; no truncation enters and max_drift is 0.
    """
    from .spectrum import band_curves

    n, m, _cap = band_curves(geom.xi, k_max)
    grid = tuple(float(t) for t in tau_grid)
    energies = np.array([
        np.sort(np.partition(
            (math.pi / geom.T) ** 2 * (abs(tau) + n) ** 2 + (math.pi * m / geom.d) ** 2,
            k_max - 1)[:k_max])
        for tau in grid]).reshape(len(grid), k_max)
    return BandTable(grid, energies, (int(np.abs(n).max()), int(m.max())), 0.0)


@dataclass(frozen=True)
class OmegaEnclosure:
    """Outer enclosure of the potential's range over the cell.

    grid_min/grid_max are exact extrema over the sample grid; inflation is
    the gradient-bound slack added outward, so the true essential infimum and
    supremum satisfy omega_minus <= inf V and sup V <= omega_plus.  The
    object carries the same omega fields as PerturbBounds and converts via
    as_bounds().
    """

    omega_minus: float
    omega_plus: float
    grid_min: float
    grid_max: float
    inflation: float

    @property
    def omega_L(self) -> float:
        return self.omega_plus - self.omega_minus

    def as_bounds(self) -> PerturbBounds:
        return PerturbBounds(self.omega_minus, self.omega_plus)


def omega_bounds(
    geom: StripGeometry, potential: PotentialSpec, grid_n: int = 1024
) -> OmegaEnclosure:
    """Rigorous enclosure of min/max of V over the cell (0, 2T) x [0, d].

    Evaluates V on an N x N grid (periodic sampling in x1, endpoints included
    in x2 where the extrema of the cosine factors can sit) and inflates both
    extremes outward by gradient_bound * cell_diameter / N.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    x1 = np.linspace(0.0, 2.0 * geom.T, grid_n, endpoint=False)
    x2 = np.linspace(0.0, geom.d, grid_n)
    values = potential.evaluate(geom, x1[:, None], x2[None, :])
    inflation = (
        potential.gradient_bound(geom)
        * math.hypot(2.0 * geom.T, geom.d)
        / grid_n
    )
    grid_min = float(values.min())
    grid_max = float(values.max())
    return OmegaEnclosure(
        omega_minus=grid_min - inflation,
        omega_plus=grid_max + inflation,
        grid_min=grid_min,
        grid_max=grid_max,
        inflation=inflation,
    )


class EnclosureCheck(NamedTuple):
    """Worst-case verdict of the minimax band enclosure on a grid."""

    ok: bool
    worst_margin: float
    tol: float


def verify_enclosure(
    bands: BandTable,
    bands0: BandTable,
    bounds: PerturbBounds | OmegaEnclosure,
    tol: float = 1e-6,
) -> EnclosureCheck:
    """Check E_k0(tau) + omega_- <= E_k(tau) <= E_k0(tau) + omega_+ entrywise.

    bands and bands0 must share the tau grid and band count (ValueError on
    mismatch).  Returns the worst signed margin, the smallest slack over both
    one-sided inequalities and all entries; ok when it is >= -tol, absorbing
    discretization error of the two band tables.
    """
    if bands.tau_grid != bands0.tau_grid:
        raise ValueError("tau grids differ between the two band tables")
    if bands.k_max != bands0.k_max:
        raise ValueError(
            f"band counts differ: {bands.k_max} vs {bands0.k_max}"
        )
    lower = bands.energies - (bands0.energies + bounds.omega_minus)
    upper = (bands0.energies + bounds.omega_plus) - bands.energies
    worst = float(min(lower.min(), upper.min()))
    return EnclosureCheck(ok=worst >= -tol, worst_margin=worst, tol=tol)
