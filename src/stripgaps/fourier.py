"""Fourier coefficients of the counting function in tau.

N0(ell, .) is an even 1-periodic step function, so it is determined by its
cosine coefficients on the Brillouin zone,

    a_p(ell) = integral_{-1/2}^{1/2} N0(ell, tau) cos(2 pi p tau) dtau.

Unfolding the rows of the lattice gives closed forms (r_m = sqrt(ell - xi^2 m^2),
m up to floor(sqrt(ell)/xi)):

    a_0(ell) = 2 sum_m r_m,
    a_p(ell) = (1/(pi p)) sum_m sin(2 pi p r_m),      p >= 1.

The module also carries the certified envelope of the oscillation residual,

    |a_p(ell) - (1/2) ell^(1/4) phi_p(ell)| <= S(xi, ell, p),

where phi_p is the oscillatory amplitude series (see the oscillation module)
and S is `residual_bound` below.  The stationary-phase expansion of each row
term sin(2 pi p r_m) pairs the two half-axes of the row sum, so phi_p
(normalised over the full frequency lattice k in Z) enters with weight 1/2.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import StripGeometry, validate_ell
from .spectrum import row_radii


def a0_closed(geom: StripGeometry, ell: float) -> float:
    """Mean of the counting function over the zone: 2 sum_m r_m."""
    validate_ell(ell)
    radii = row_radii(geom.xi, ell)
    return 2.0 * math.fsum(radii.tolist())


def ap_closed(geom: StripGeometry, ell: float, p: int) -> float:
    """Cosine coefficient a_p(ell) = (1/(pi p)) sum_m sin(2 pi p r_m), p >= 1."""
    validate_ell(ell)
    if p < 1:
        raise ValueError(f"harmonic index must be >= 1, got {p}")
    radii = row_radii(geom.xi, ell)
    if radii.size == 0:
        return 0.0
    return math.fsum(np.sin((2.0 * math.pi * p) * radii).tolist()) / (math.pi * p)


def residual_bound(xi: float, ell: float, p: int) -> float:
    """Certified envelope for |a_p(ell) - (1/2) ell^(1/4) phi_p(ell)|, p >= 1:

        sqrt(2)/3 + 1/(2 pi)
            + (1 / (32 pi^2 xi ell^(1/4) p^(5/2))) sqrt(9 + 25/(1024 pi^2 p^2 ell)).
    """
    if p < 1:
        raise ValueError(f"harmonic index must be >= 1, got {p}")
    if not ell > 0:
        raise ValueError(f"need ell > 0, got {ell}")
    pi2 = math.pi * math.pi
    tail = math.sqrt(9.0 + 25.0 / (1024.0 * pi2 * p * p * ell))
    tail /= 32.0 * pi2 * xi * ell ** 0.25 * p ** 2.5
    return math.sqrt(2.0) / 3.0 + 1.0 / (2.0 * math.pi) + tail
