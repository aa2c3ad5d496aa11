"""Geometry of the periodic strip.

The domain is the planar strip ``0 < x2 < d`` (Dirichlet walls), carrying a
perturbation that is periodic in ``x1`` with period ``2T``.  Everything
downstream is controlled by the single dimensionless aspect ratio

    xi = T / d.

Energies are handled in rescaled form, ``ell`` for the energy ``pi^2 ell / T^2``;
this module, the unit of length, is read only by the CLI and galerkin's file header.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class StripGeometry:
    """Half-period ``T`` and strip width ``d`` (both in the same length unit).

    Both must be positive and finite, and so must their squares and the
    energy scales pi^2/T^2, pi^2/d^2, each at least the smallest normal float:
    beyond that the energies underflow (to subnormal digits or 0) or
    overflow, and no computed number means anything.
    """

    T: float
    d: float

    def __post_init__(self) -> None:
        for name, symbol, value in (("half-period", "T", self.T),
                                    ("strip width", "d", self.d)):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} {symbol} must be positive and finite, got {value}")
            square = value * value
            if not (square >= sys.float_info.min and math.isfinite(math.pi ** 2 / square)):
                size = "small"
            elif not math.pi ** 2 / square >= sys.float_info.min:  # also when square is inf
                size = "large"
            else:
                continue
            raise ValueError(
                f"{name} {symbol} = {value} is too {size}: its energy scale "
                f"pi^2/{symbol}^2 is beyond float64 range")

    @property
    def xi(self) -> float:
        """Aspect ratio T/d."""
        return self.T / self.d


def resolve_geometry(xi: float | None = None,
                     T: float | None = None,
                     d: float | None = None) -> StripGeometry:
    """Build a StripGeometry from any two of (xi, T, d).

    If all three are given they must be consistent to ~1e-9 relative (a
    non-finite xi never is).
    If only ``xi`` is given, ``d`` defaults to 1.
    """
    given = sum(v is not None for v in (xi, T, d))
    if given == 0:
        raise ValueError("need at least one of xi, T, d")
    if xi is not None and xi <= 0:
        raise ValueError(f"xi must be positive, got {xi}")
    if T is None and d is None:
        T, d = xi, 1.0
    elif T is None:
        if xi is None:
            raise ValueError("need xi or T together with d")
        T = xi * d
    elif d is None:
        if xi is None:
            raise ValueError("need xi or d together with T")
        d = T / xi
    geom = StripGeometry(T=T, d=d)
    # a nan or inf xi passes the tolerance test, so it is refused here
    if xi is not None and not (math.isfinite(xi)
                               and abs(geom.xi - xi) <= 1e-9 * max(1.0, abs(xi))):
        raise ValueError(f"inconsistent geometry: T/d = {geom.xi} but xi = {xi}")
    return geom
