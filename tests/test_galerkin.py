"""Finite-basis fiber discretization: assembly, eigenvalues, enclosures, files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import Mode, mode_energy, write_potential_file
from stripgaps.galerkin import (
    PotentialSpec,
    assemble,
    band_functions,
    default_truncation,
    hermitian_eigenvalues,
    omega_bounds,
    read_potential_file,
    unperturbed_band_functions,
    verify_enclosure,
)
from stripgaps.geometry import resolve_geometry

GEOM = resolve_geometry(T=1.0, d=1.0)
COSINE_X1 = PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1)))  # 0.2 cos(pi x1 / T)


# ---------------------------------------------------------------------------
# potential specifications
# ---------------------------------------------------------------------------

def test_potential_rejects_duplicates_and_negative_q():
    with pytest.raises(ValueError, match="duplicate"):
        PotentialSpec(terms=((1, 0, 0.1), (1, 0, 0.2)))
    with pytest.raises(ValueError, match="q must be >= 0"):
        PotentialSpec(terms=((0, -1, 0.1),))


def test_potential_requires_hermitian_symmetry():
    with pytest.raises(ValueError, match="real-valued"):
        PotentialSpec(terms=((1, 0, 1j),))
    with pytest.raises(ValueError, match="real-valued"):
        PotentialSpec(terms=((1, 0, 0.5), (-1, 0, 0.25)))
    PotentialSpec(terms=((1, 0, 0.5 + 0.2j), (-1, 0, 0.5 - 0.2j)))  # fine


def test_potential_lookup_and_frequency_ranges():
    spec = PotentialSpec(terms=((2, 3, 0.5), (-2, 3, 0.5), (0, 1, 1.5)))
    assert spec.j_max == 2
    assert spec.q_max == 3
    assert spec.coefficient(2, 3) == 0.5
    assert spec.coefficient(5, 5) == 0.0
    assert PotentialSpec().j_max == 0
    assert PotentialSpec().q_max == 0


def test_potential_evaluates_to_real_values():
    x1 = np.linspace(0.0, 2.0, 7)
    x2 = np.linspace(0.0, 1.0, 5)
    vals = COSINE_X1.evaluate(GEOM, x1[:, None], x2[None, :])
    assert vals.dtype == np.float64
    expected = 0.2 * np.cos(math.pi * x1[:, None] / 1.0) * np.ones_like(x2[None, :])
    assert np.allclose(vals, expected, rtol=0, atol=1e-14)


def test_potential_gradient_bound():
    spec = PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1), (0, 2, 0.3)))
    expected = 0.1 * math.pi * 1.0 + 0.1 * math.pi * 1.0 + 0.3 * math.pi * 2.0
    assert spec.gradient_bound(GEOM) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

def test_assemble_without_potential_is_the_diagonal_of_mode_energies():
    H = assemble(GEOM, 0.25, PotentialSpec(), 3, 3)
    assert np.max(np.abs(H - np.diag(np.diag(H)))) == 0.0
    eigs = hermitian_eigenvalues(H)
    expected = sorted(
        mode_energy(GEOM, 0.25, Mode(n, m)) for n in range(-3, 4) for m in range(1, 4)
    )
    assert np.max(np.abs(eigs - np.array(expected))) <= 1e-10


def test_assemble_places_the_transverse_coupling():
    # V = 2 cos(pi x2 / d) couples m = 1 and m = 2 with weight 1/2 each way
    V = PotentialSpec(terms=((0, 1, 2.0),))
    H = assemble(GEOM, 0.0, V, 0, 0, modes=[(0, 1), (0, 2)])
    assert H[0, 0] == pytest.approx(math.pi ** 2, rel=1e-15)
    assert H[1, 1] == pytest.approx(4.0 * math.pi ** 2, rel=1e-15)
    assert H[0, 1] == pytest.approx(1.0, rel=1e-15)
    assert H[1, 0] == pytest.approx(1.0, rel=1e-15)


def test_assemble_constant_term_shifts_the_diagonal_exactly():
    shift = PotentialSpec(terms=((0, 0, 0.7),))
    base = hermitian_eigenvalues(assemble(GEOM, 0.1, PotentialSpec(), 2, 2))
    moved = hermitian_eigenvalues(assemble(GEOM, 0.1, shift, 2, 2))
    assert np.max(np.abs(moved - base - 0.7)) <= 1e-12


def test_assemble_zone_edges_are_unitarily_equivalent():
    V = PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1), (0, 1, 0.3)))
    plus = hermitian_eigenvalues(assemble(GEOM, 0.5, V, 4, 4))
    minus = hermitian_eigenvalues(assemble(GEOM, -0.5, V, 4, 4))
    assert np.max(np.abs(plus - minus)) <= 1e-11


def test_assemble_eigenvalues_move_at_most_by_the_potential_sup():
    # Weyl: |E_k(V) - E_k(0)| <= sup|V| = 0.5 for this potential
    V = PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1), (0, 1, 0.3)))
    base = hermitian_eigenvalues(assemble(GEOM, 0.2, PotentialSpec(), 4, 4))
    moved = hermitian_eigenvalues(assemble(GEOM, 0.2, V, 4, 4))
    assert np.max(np.abs(moved - base)) <= 0.5 + 1e-12


def test_assemble_rejects_bad_inputs():
    with pytest.raises(ValueError):
        assemble(GEOM, 0.0, PotentialSpec(), -1, 1)
    with pytest.raises(ValueError):
        assemble(GEOM, 0.0, PotentialSpec(), 1, 0)
    with pytest.raises(ValueError, match="duplicates"):
        assemble(GEOM, 0.0, PotentialSpec(), 0, 0, modes=[(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="ceiling"):
        assemble(GEOM, 0.0, PotentialSpec(), 100, 100)
    with pytest.raises(ValueError, match="finite"):
        assemble(GEOM, math.nan, PotentialSpec(), 1, 1)


@given(
    tau=st.floats(min_value=-0.5, max_value=0.5),
    v=st.floats(min_value=-0.5, max_value=0.5),
    q=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_assemble_is_always_hermitian(tau, v, q):
    spec = PotentialSpec(terms=((2, q, complex(v, v / 2)), (-2, q, complex(v, -v / 2))))
    H = assemble(GEOM, tau, spec, 3, 4)
    assert np.max(np.abs(H - H.conj().T)) <= 1e-14


# ---------------------------------------------------------------------------
# eigenvalue solver front end
# ---------------------------------------------------------------------------

def test_two_by_two_reference_eigenvalues():
    eigs = hermitian_eigenvalues(np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert eigs[0] == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)
    assert eigs[1] == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)


@given(v=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_two_by_two_closed_form_family(v):
    eigs = hermitian_eigenvalues(np.array([[1.0, v], [v, 2.0]]))
    root = math.sqrt(1.0 + 4.0 * v * v)
    assert eigs[0] == pytest.approx((3.0 - root) / 2.0, abs=1e-12)
    assert eigs[1] == pytest.approx((3.0 + root) / 2.0, abs=1e-12)


def test_eigenvalue_solver_rejects_non_hermitian_input():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# band tables and the convergence gate
# ---------------------------------------------------------------------------

def test_band_functions_reproduce_the_unperturbed_spectrum():
    taus = [-0.5, -0.2, 0.0, 0.3, 0.5]
    table = band_functions(GEOM, PotentialSpec(), taus, 3, default_truncation(GEOM, 3))
    assert table.k_max == 3
    assert table.max_drift < 1e-6
    for i, tau in enumerate(taus):
        expected = sorted(
            math.pi ** 2 * ((tau + n) ** 2 + m ** 2)
            for n in range(-6, 7)
            for m in range(1, 8)
        )[:3]
        assert np.max(np.abs(table.energies[i] - np.array(expected))) <= 1e-10
    assert np.all(table.band(1) <= table.band(2))
    with pytest.raises(ValueError):
        table.band(4)


def test_unperturbed_band_functions_match_the_gated_eigensolve_exactly():
    taus = [-0.5, -0.3, -0.1, 0.0, 0.2, 0.4, 0.5]
    geom = resolve_geometry(T=1.0, d=20.0)
    for k_max in (1, 6, 12):
        exact = unperturbed_band_functions(geom, taus, k_max)
        gated = band_functions(geom, PotentialSpec(), taus, k_max,
                               default_truncation(geom, k_max))
        assert exact.tau_grid == gated.tau_grid
        assert exact.max_drift == 0.0
        assert np.array_equal(exact.energies, gated.energies)


def test_band_functions_validate_their_inputs():
    with pytest.raises(ValueError, match="fewer than"):
        band_functions(GEOM, PotentialSpec(), [0.0], 5, (0, 2))
    with pytest.raises(ValueError, match="nonempty"):
        band_functions(GEOM, PotentialSpec(), [], 1, (2, 2))
    with pytest.raises(ValueError, match="k_max"):
        band_functions(GEOM, PotentialSpec(), [0.0], 0, (2, 2))


def test_convergence_gate_rejects_inadequate_truncations():
    # a single transverse mode cannot resolve band 1 of a coupled problem
    strong = PotentialSpec(terms=((0, 1, 5.0),))
    with pytest.raises(ValueError, match="convergence gate"):
        band_functions(GEOM, strong, [0.0], 1, (0, 1))


# ---------------------------------------------------------------------------
# potential range enclosures
# ---------------------------------------------------------------------------

def test_omega_bounds_for_the_pure_cosine():
    enc = omega_bounds(GEOM, COSINE_X1)
    assert enc.grid_min == pytest.approx(-0.2, rel=1e-12)
    assert enc.grid_max == pytest.approx(0.2, rel=1e-12)
    assert enc.omega_minus <= -0.2 < 0.2 <= enc.omega_plus
    assert enc.inflation > 0.0
    assert enc.omega_plus - enc.grid_max == pytest.approx(enc.inflation, rel=1e-12)
    bounds = enc.as_bounds()
    assert bounds.omega_L == pytest.approx(enc.omega_L, rel=1e-14)


def test_omega_bounds_for_a_constant_are_exact():
    enc = omega_bounds(GEOM, PotentialSpec(terms=((0, 0, 0.7),)))
    assert enc.omega_minus == enc.omega_plus == 0.7
    assert enc.omega_L == 0.0
    assert enc.inflation == 0.0


def test_omega_bounds_mixed_potential_attains_the_corner_extrema():
    mixed = PotentialSpec(terms=((1, 0, 0.5), (-1, 0, 0.5), (0, 1, 1.0)))
    enc = omega_bounds(GEOM, mixed)
    assert enc.grid_min == pytest.approx(-2.0, rel=1e-12)
    assert enc.grid_max == pytest.approx(2.0, rel=1e-12)


def test_omega_bounds_enclosure_shrinks_with_the_grid():
    coarse = omega_bounds(GEOM, COSINE_X1, grid_n=64)
    fine = omega_bounds(GEOM, COSINE_X1, grid_n=2048)
    assert coarse.omega_minus <= fine.omega_minus
    assert fine.omega_plus <= coarse.omega_plus
    with pytest.raises(ValueError):
        omega_bounds(GEOM, COSINE_X1, grid_n=1)


# ---------------------------------------------------------------------------
# minimax enclosure verification
# ---------------------------------------------------------------------------

def test_perturbed_bands_sit_inside_the_minimax_enclosure():
    taus = [-0.5, -0.25, 0.0, 0.25, 0.5]
    trunc = default_truncation(GEOM, 3)
    bands0 = band_functions(GEOM, PotentialSpec(), taus, 3, trunc)
    bands = band_functions(GEOM, COSINE_X1, taus, 3, trunc)
    check = verify_enclosure(bands, bands0, omega_bounds(GEOM, COSINE_X1))
    assert check.ok
    assert check.worst_margin >= -1e-6


def test_enclosure_verification_rejects_mismatched_tables():
    trunc = default_truncation(GEOM, 2)
    a = band_functions(GEOM, PotentialSpec(), [0.0, 0.5], 2, trunc)
    b = band_functions(GEOM, PotentialSpec(), [0.0, 0.25], 2, trunc)
    with pytest.raises(ValueError, match="grids"):
        verify_enclosure(a, b, omega_bounds(GEOM, COSINE_X1))
    c = band_functions(GEOM, PotentialSpec(), [0.0, 0.5], 1, trunc)
    with pytest.raises(ValueError, match="counts"):
        verify_enclosure(a, c, omega_bounds(GEOM, COSINE_X1))


# ---------------------------------------------------------------------------
# potential files
# ---------------------------------------------------------------------------

def test_potential_file_round_trip(tmp_path):
    path = tmp_path / "potential.txt"
    spec = PotentialSpec(terms=((1, 0, 0.5 + 0.25j), (-1, 0, 0.5 - 0.25j), (0, 2, 1.5)))
    geom = resolve_geometry(T=1.25, d=2.5)
    write_potential_file(path, geom, spec)
    geom2, spec2 = read_potential_file(path)
    assert (geom2.T, geom2.d) == (geom.T, geom.d)
    assert spec2 == spec


def test_potential_file_ignores_comments_and_blank_lines(tmp_path):
    path = tmp_path / "potential.txt"
    path.write_text("# cell geometry\n\nT=1.0 d=2.0\n# one term\n0 1 0.25 0.0\n")
    geom, spec = read_potential_file(path)
    assert (geom.T, geom.d) == (1.0, 2.0)
    assert spec.terms == ((0, 1, 0.25 + 0.0j),)


def test_potential_file_rejects_malformed_content(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="header"):
        read_potential_file(empty)
    bad_header = tmp_path / "bad_header.txt"
    bad_header.write_text("T=1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_potential_file(bad_header)
    bad_record = tmp_path / "bad_record.txt"
    bad_record.write_text("T=1.0 d=2.0\n0 1 0.25\n")
    with pytest.raises(ValueError, match="record"):
        read_potential_file(bad_record)
