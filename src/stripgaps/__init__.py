"""Band structure and spectral-gap certification for a periodically
perturbed Dirichlet strip.

The unperturbed operator is the Dirichlet Laplacian on the strip
0 < x2 < d, made periodic with period 2T along x1; perturbations are bounded
symmetric cell operators known through their spectral bounds, with concrete
trigonometric potentials handled by an exact finite-basis discretization.
The package computes fiber spectra, lattice counting functions with their
exact Fourier analysis, the oscillatory series phi_p with certified tails,
and assembles conservative certificates for the absence of spectral gaps.

Names are imported from their defining modules (stripgaps.geometry,
.spectrum, .fourier, .oscillation, .gaps, .galerkin); the command line is
stripgaps.cli.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
