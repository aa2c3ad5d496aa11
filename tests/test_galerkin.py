"""Finite-basis fiber discretization: assembly, eigenvalues, enclosures, files."""

import cmath
import contextlib
import importlib.util
import io
import math
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import stripgaps.cli as cli
import stripgaps.galerkin as galerkin
from oracles import (
    Mode,
    assemble_by_loop,
    band_functions_by_assembly,
    coefficient,
    mode_energy,
    omega_bounds_first_order,
    potential_values,
    range_grid,
    truncation_by_kth_level,
    write_potential_file,
)
from stripgaps.galerkin import (
    PotentialSpec,
    assemble,
    band_functions,
    default_truncation,
    omega_bounds,
    read_potential_file,
    unperturbed_band_functions,
    verify_enclosure,
)
from stripgaps.gaps import PerturbBounds
from stripgaps.geometry import resolve_geometry

# The library works in scaled units: energies and coefficients times T^2/pi^2.
# GEOM (xi = 1) places potentials on a cell for the oracles that evaluate V.
GEOM = resolve_geometry(T=1.0, d=1.0)
XI = GEOM.xi
COSINE_X1 = PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1)))  # 0.2 cos(pi x1 / T)
ZERO = PerturbBounds()
DATA = Path(__file__).parent / "data"


def _benchmark_potentials():
    """The benchmark's eight seeded potentials (bench/workloads.py), T = 1, d = 20."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return [PotentialSpec(terms=tuple((j, q, complex(re, im)) for j, q, re, im in terms))
            for terms in module._potentials()]


def _hermitian(terms):
    """Spec from (j >= 0, q, |v|, phase) labels: the j < 0 mates are the
    conjugates, and j = 0 coefficients are real."""
    out = []
    for j, q, r, phase in terms:
        v = cmath.rect(r, phase)
        if j == 0:
            out.append((0, q, v.real))
        else:
            out += [(j, q, v), (-j, q, v.conjugate())]
    return PotentialSpec(terms=tuple(out))


# Labels for _hermitian: up to four (j, q) with |v| <= 1, |j| <= 2 and q <= 2.
HERMITIAN_LABELS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2),
              st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi)),
    min_size=1, max_size=4, unique_by=lambda t: (t[0], t[1]))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_potential_rejects_non_finite_coefficients(bad):
    # nan passes the symmetry check (abs(nan) > tol is false), inf - inf is nan
    with pytest.raises(ValueError, match=r"\(j=0, q=1\) is not finite"):
        PotentialSpec(terms=((0, 1, bad),))
    with pytest.raises(ValueError, match=r"\(j=2, q=0\) is not finite"):
        PotentialSpec(terms=((0, 0, 1.0), (2, 0, bad), (-2, 0, bad)))


def test_potential_lookup_and_frequency_ranges():
    spec = PotentialSpec(terms=((2, 3, 0.5), (-2, 3, 0.5), (0, 1, 1.5)))
    assert coefficient(spec, 2, 3) == 0.5
    assert coefficient(spec, 5, 5) == 0.0


def test_potential_evaluates_to_real_values():
    x1 = np.linspace(0.0, 2.0, 7)
    x2 = np.linspace(0.0, 1.0, 5)
    vals = potential_values(COSINE_X1, GEOM, x1[:, None], x2[None, :])
    assert vals.dtype == np.float64
    expected = 0.2 * np.cos(math.pi * x1[:, None] / 1.0) * np.ones_like(x2[None, :])
    assert np.allclose(vals, expected, rtol=0, atol=1e-14)


def test_potential_evaluates_the_real_part_of_the_complex_sum_exactly():
    x1 = np.linspace(0.0, 2.0, 64, endpoint=False)[:, None]
    x2 = np.linspace(0.0, 1.0, 64)[None, :]
    cases = [read_potential_file(DATA / "cosine.pot"),
             (GEOM, _hermitian([(1, 0, 0.3, 0.4), (2, 1, 0.7, 2.0)]))]
    for geom, spec in cases:
        total = np.zeros((64, 64), dtype=complex)
        for j, q, v in spec.terms:
            total += v * np.exp(1j * math.pi * j * x1 / geom.T) * np.cos(math.pi * q * x2 / geom.d)
        assert np.array_equal(potential_values(spec, geom, x1, x2), np.real(total))


def test_potential_scaled_multiplies_every_coefficient_without_checking_again():
    # a mate 9e-15 off conj passes at |v| = 0.5 (tolerance 1e-14), and the
    # product by 4 would not (3.6e-14 off at |v| = 2): the tolerance is not
    # scale-free, so the product is not checked against it again
    spec = PotentialSpec(terms=((1, 0, 0.1 + 0.2j), (-1, 0, 0.1 - 0.2j),
                                (2, 1, 0.5), (-2, 1, 0.5 + 9e-15), (0, 3, 0.25)))
    scaled = spec.scaled(4.0)
    assert scaled.terms == tuple((j, q, 4.0 * complex(v)) for j, q, v in spec.terms)
    with pytest.raises(ValueError, match="real-valued"):
        PotentialSpec(terms=scaled.terms)
    # exact conjugate symmetry survives any real factor
    assert COSINE_X1.scaled(1.0 / math.pi ** 2).conjugate_symmetric
    with pytest.raises(OverflowError, match=r"\(j=0, q=3\), 1e\+308 times 4.0, is not finite"):
        PotentialSpec(terms=((0, 3, 4.0),)).scaled(1e308)


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

def test_assemble_without_potential_is_the_diagonal_of_mode_energies():
    H = assemble(XI, 0.25, PotentialSpec(), 3, 3)
    assert np.max(np.abs(H - np.diag(np.diag(H)))) == 0.0
    eigs = np.linalg.eigvalsh(H)
    # scaled: the mode energies times T^2/pi^2 = 1/pi^2
    expected = sorted(
        mode_energy(GEOM, 0.25, Mode(n, m)) / math.pi ** 2
        for n in range(-3, 4) for m in range(1, 4)
    )
    assert np.max(np.abs(eigs - np.array(expected))) <= 1e-10


def test_assemble_places_the_transverse_coupling():
    # V = 2 cos(pi x2 / d) couples m = 1 and m = 2 with weight 1/2 each way;
    # the scaled levels at xi = 1 are 1 and 4
    V = PotentialSpec(terms=((0, 1, 2.0),))
    H = assemble(XI, 0.0, V, 0, 2)  # modes (0, 1), (0, 2)
    assert H[0, 0] == 1.0
    assert H[1, 1] == 4.0
    assert H[0, 1] == pytest.approx(1.0, rel=1e-15)
    assert H[1, 0] == pytest.approx(1.0, rel=1e-15)


def test_assemble_constant_term_shifts_the_diagonal_exactly():
    shift = PotentialSpec(terms=((0, 0, 0.7),))
    base = np.linalg.eigvalsh(assemble(XI, 0.1, PotentialSpec(), 2, 2))
    moved = np.linalg.eigvalsh(assemble(XI, 0.1, shift, 2, 2))
    assert np.max(np.abs(moved - base - 0.7)) <= 1e-12


def test_assemble_zone_edges_are_unitarily_equivalent():
    V = PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1), (0, 1, 0.3)))
    plus = np.linalg.eigvalsh(assemble(XI, 0.5, V, 4, 4))
    minus = np.linalg.eigvalsh(assemble(XI, -0.5, V, 4, 4))
    assert np.max(np.abs(plus - minus)) <= 1e-11


def test_assemble_eigenvalues_move_at_most_by_the_potential_sup():
    # Weyl: |E_k(V) - E_k(0)| <= sup|V| = 0.5 for this potential
    V = PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1), (0, 1, 0.3)))
    base = np.linalg.eigvalsh(assemble(XI, 0.2, PotentialSpec(), 4, 4))
    moved = np.linalg.eigvalsh(assemble(XI, 0.2, V, 4, 4))
    assert np.max(np.abs(moved - base)) <= 0.5 + 1e-12


def test_assemble_rejects_bad_inputs():
    with pytest.raises(ValueError):
        assemble(XI, 0.0, PotentialSpec(), -1, 1)
    with pytest.raises(ValueError):
        assemble(XI, 0.0, PotentialSpec(), 1, 0)
    with pytest.raises(ValueError, match="ceiling"):
        assemble(XI, 0.0, PotentialSpec(), 100, 100)
    with pytest.raises(ValueError, match="finite"):
        assemble(XI, math.nan, PotentialSpec(), 1, 1)


def test_assemble_matches_the_entrywise_loop_bit_for_bit():
    rng = random.Random(11)
    geom = resolve_geometry(T=1.0, d=20.0)
    for spec in _benchmark_potentials():
        for tau in [-0.5, 0.0, 0.5] + [rng.uniform(-3.0, 3.0) for _ in range(20)]:
            assert np.array_equal(assemble(geom.xi, tau, spec, 3, 24),
                                  assemble_by_loop(geom.xi, tau, spec, 3, 24))
        box = (rng.randint(0, 4), rng.randint(1, 9))
        tau = rng.uniform(-3.0, 3.0)
        assert np.array_equal(assemble(geom.xi, tau, spec, *box),
                              assemble_by_loop(geom.xi, tau, spec, *box))
    # diagonal and q = 0 terms together: three additions on one entry
    spec = PotentialSpec(terms=((0, 0, 0.3), (0, 4, 0.7), (1, 0, 0.2j), (-1, 0, -0.2j)))
    assert np.array_equal(assemble(XI, 0.3, spec, 2, 5),
                          assemble_by_loop(XI, 0.3, spec, 2, 5))


@given(
    tau=st.floats(min_value=-0.5, max_value=0.5),
    v=st.floats(min_value=-0.5, max_value=0.5),
    q=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_assemble_is_always_hermitian(tau, v, q):
    spec = PotentialSpec(terms=((2, q, complex(v, v / 2)), (-2, q, complex(v, -v / 2))))
    H = assemble(XI, tau, spec, 3, 4)
    assert np.max(np.abs(H - H.conj().T)) <= 1e-14


# ---------------------------------------------------------------------------
# the eigensolver band_functions calls
# ---------------------------------------------------------------------------

def test_two_by_two_reference_eigenvalues():
    eigs = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert eigs[0] == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)
    assert eigs[1] == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)


@given(v=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_two_by_two_closed_form_family(v):
    eigs = np.linalg.eigvalsh(np.array([[1.0, v], [v, 2.0]]))
    root = math.sqrt(1.0 + 4.0 * v * v)
    assert eigs[0] == pytest.approx((3.0 - root) / 2.0, abs=1e-12)
    assert eigs[1] == pytest.approx((3.0 + root) / 2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# band tables and their certified enclosures
# ---------------------------------------------------------------------------

def test_band_functions_reproduce_the_unperturbed_spectrum():
    taus = [-0.5, -0.2, 0.0, 0.3, 0.5]
    table = band_functions(XI, PotentialSpec(), taus, 3, default_truncation(GEOM.xi, 3), ZERO)
    assert table.k_max == 3
    assert table.max_drift < 1e-6
    for i, tau in enumerate(taus):
        expected = sorted(
            (tau + n) ** 2 + m ** 2
            for n in range(-6, 7)
            for m in range(1, 8)
        )[:3]
        assert np.max(np.abs(table.energies[i] - np.array(expected))) <= 1e-10
    assert np.all(table.energies[:, 0] <= table.energies[:, 1])


def test_unperturbed_band_functions_lie_in_the_certified_enclosure():
    taus = [-0.5, -0.3, -0.1, 0.0, 0.2, 0.4, 0.5]
    geom = resolve_geometry(T=1.0, d=20.0)
    for k_max in (1, 6, 12):
        exact = unperturbed_band_functions(geom.xi, taus, k_max)
        table = band_functions(geom.xi, PotentialSpec(), taus, k_max,
                               default_truncation(geom.xi, k_max), ZERO)
        assert exact.tau_grid == table.tau_grid
        assert exact.max_enclosure_width == 0.0
        assert np.all(table.lower <= exact.energies)
        assert np.all(exact.energies <= table.energies)
        assert table.max_enclosure_width <= 1e-10


def test_band_functions_validate_their_inputs():
    with pytest.raises(ValueError, match="fewer than"):
        band_functions(XI, PotentialSpec(), [0.0], 5, (0, 2), ZERO)
    with pytest.raises(ValueError, match="nonempty"):
        band_functions(XI, PotentialSpec(), [], 1, (2, 2), ZERO)
    with pytest.raises(ValueError, match="k_max"):
        band_functions(XI, PotentialSpec(), [0.0], 0, (2, 2), ZERO)


def test_default_truncation_matches_the_kth_level_oracle():
    for xi in np.geomspace(0.003, 5.0, 40):
        geom = resolve_geometry(T=1.0, xi=float(xi))
        for k_max in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
                      2584, 4181, 6765, 10946, 17711, 28657):
            assert default_truncation(geom.xi, k_max) == truncation_by_kth_level(geom.xi, k_max), \
                (float(xi), k_max)


def test_inadequate_truncation_gives_a_wide_enclosure_of_the_converged_value():
    # a single transverse mode cannot resolve band 1 of a strongly coupled
    # problem: the enclosure is wide, and still holds the converged value
    # (5 cos(pi x2 / d) at T = 1, scaled by 1/pi^2)
    strong = PotentialSpec(terms=((0, 1, 5.0),)).scaled(1.0 / math.pi ** 2)
    table = band_functions(XI, strong, [0.0], 1, (0, 1), omega_bounds(XI, strong))
    converged = np.linalg.eigvalsh(assemble(XI, 0.0, strong, 8, 12))[0]
    assert table.lower[0, 0] <= converged <= table.energies[0, 0]
    assert table.max_enclosure_width > 1.0 / math.pi ** 2


def test_truncation_dropping_a_mode_below_a_band_is_refused():
    # modes (0, 1) and (0, 2) make 4 band 2, but (+-1, 1) at 2 is dropped
    with pytest.raises(ValueError, match=r"band 2 at tau 0\.0 .* g = -"):
        band_functions(XI, PotentialSpec(), [0.0], 2, (0, 2), ZERO)
    # outside the first zone: at tau = 1 the kept (n, 1), |n| <= 2, give
    # (1, 2, 2, 5) for bands 1-4, while the dropped (-1, 2) sits at 4
    assert band_functions(XI, PotentialSpec(), [1.0], 3, (2, 1), ZERO).k_max == 3
    with pytest.raises(ValueError, match=r"band 4 at tau 1\.0 .* g = -"):
        band_functions(XI, PotentialSpec(), [1.0], 4, (2, 1), ZERO)


@given(
    labels=HERMITIAN_LABELS,
    tau=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_enclosure_contains_the_ritz_values_of_a_larger_basis(labels, tau):
    spec = _hermitian(labels)
    try:
        table = band_functions(XI, spec, [tau], 2, (2, 3), omega_bounds(XI, spec, grid_n=64))
    except ValueError as exc:
        assert "g = " in str(exc)
        assume(False)
    grown = np.linalg.eigvalsh(assemble(XI, tau, spec, 8, 9))[:2]
    assert np.all(table.lower[0] <= grown)
    assert np.all(grown <= table.energies[0])


def test_q0_potential_is_enclosed_by_its_separated_one_dimensional_bands():
    # V(x1) alone separates: the scaled bands are e_i(tau) + xi^2 m^2, with
    # e_i those of the scaled -d^2/dx1^2 + V, resolved on 81 longitudinal modes
    geom = resolve_geometry(T=1.0, d=2.0)
    spec = PotentialSpec(terms=((1, 0, 0.8), (-1, 0, 0.8),
                                (2, 0, 0.3 + 0.4j), (-2, 0, 0.3 - 0.4j)))
    taus = [-0.5, -0.2, 0.0, 0.35, 1.7]
    table = band_functions(geom.xi, spec, taus, 5, (3, 3), omega_bounds(geom.xi, spec))
    transverse = [(geom.xi * m) ** 2 for m in range(1, 6)]
    for i, tau in enumerate(taus):
        line = np.linalg.eigvalsh(
            assemble(geom.xi, tau, spec, 40, 1))
        separated = np.sort(np.add.outer(line[:8] - transverse[0], transverse).ravel())[:5]
        assert np.all(table.lower[i] <= separated)
        assert np.all(separated <= table.energies[i])


def count_solves(monkeypatch):
    """Record the dimension of every matrix band_functions forms (one diagonal
    rewrite of its potential block per solved tau) and of every eigensolve."""
    assembled, solved = [], []
    real_set_diagonal, real_eigvalsh = galerkin._set_diagonal, np.linalg.eigvalsh

    def counting_set_diagonal(H, *args):
        assembled.append(H.shape[0])
        return real_set_diagonal(H, *args)

    def counting_eigvalsh(H, *args, **kwargs):
        solved.append(H.shape[0])
        return real_eigvalsh(H, *args, **kwargs)

    monkeypatch.setattr(galerkin, "_set_diagonal", counting_set_diagonal)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return assembled, solved


def test_band_functions_solve_once_per_tau_class_at_the_requested_truncation(monkeypatch):
    # -0.5 and 0.5 are one +-tau class
    assembled, solved = count_solves(monkeypatch)
    taus = [-0.5, 0.0, 0.25, 0.5]
    table = band_functions(XI, COSINE_X1, taus, 3, (3, 4), omega_bounds(XI, COSINE_X1))
    assert assembled == [7 * 4] * 3
    assert solved == [7 * 4] * 3
    assert np.array_equal(table.energies[3], table.energies[0])


@given(
    labels=HERMITIAN_LABELS,
    tau=st.floats(min_value=0.0, max_value=3.0, exclude_min=True, exclude_max=True),
)
@settings(max_examples=60, deadline=None)
def test_reused_rows_at_minus_tau_match_an_independent_solve(labels, tau):
    spec = _hermitian(labels)
    assert spec.conjugate_symmetric
    try:
        table = band_functions(XI, spec, [tau, -tau], 2, (2, 3),
                               omega_bounds(XI, spec, grid_n=64))
    except ValueError as exc:
        assert "g = " in str(exc)
        assume(False)
    assert np.array_equal(table.energies[1], table.energies[0])
    assert np.array_equal(table.lower[1], table.lower[0])
    H = assemble(XI, -tau, spec, 2, 3)
    eps = galerkin.EIG_ROUNDING_C * H.shape[0] * 2.0 ** -53 * np.abs(H).sum(axis=1).max()
    ritz = np.linalg.eigvalsh(H)[:2]
    assert np.all(np.abs(table.energies[1] - eps - ritz) <= eps)


def _random_potential(rng, symmetric):
    """Terms at random labels |j| <= 2, q <= 4, always with (0, 0) and a (0, 2m)
    term (diagonal hits on every mode and on the modes m), in shuffled order;
    with symmetric false each j < 0 mate is off by a relative 2e-16, inside
    the tolerance the spec accepts, so -tau is solved, not reused."""
    labels = {(0, 0), (0, 2 * rng.randint(1, 2))}
    labels |= {(rng.randint(0, 2), rng.randint(0, 4)) for _ in range(rng.randint(1, 5))}
    terms = []
    for j, q in labels:
        v = cmath.rect(rng.uniform(0.01, 1.0), rng.uniform(0.0, 2.0 * math.pi))
        if j == 0:
            terms.append((0, q, v.real))
        else:
            terms += [(j, q, v), (-j, q, v.conjugate() * (1.0 if symmetric else 1.0 + 2e-16))]
    rng.shuffle(terms)
    return PotentialSpec(terms=tuple(terms))


@pytest.mark.parametrize("symmetric", [True, False])
def test_band_functions_equal_one_assembly_and_eigensolve_per_tau(monkeypatch, symmetric):
    # the potential block is built once and only its diagonal rewritten per
    # tau: every matrix solved is the entry-by-entry assembly bit for bit, and
    # every row equals assembling and solving that tau alone
    solved = []
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: solved.append(H.copy()) or real_eigvalsh(H))
    rng = random.Random(15 + symmetric)
    geom = resolve_geometry(T=1.0, d=3.0)
    # no exact +-tau pair when the rows of tau would be reused at -tau
    taus = [-0.5, -0.3, 0.0, 0.1, 0.35, 0.45, 1.7] if symmetric else [-0.3, 0.0, 0.3, 0.5, -0.5]
    for _ in range(12):
        spec = _random_potential(rng, symmetric)
        assert spec.conjugate_symmetric == symmetric
        bounds = omega_bounds(geom.xi, spec, grid_n=64)
        solved.clear()
        try:
            table = band_functions(geom.xi, spec, taus, 4, (3, 5), bounds)
        except ValueError as exc:
            assert "g = " in str(exc)
            continue
        assert len(solved) == len(taus)
        for tau, H in zip(taus, solved):
            assert np.array_equal(H, assemble_by_loop(geom.xi, tau, spec, 3, 5))
        expected = band_functions_by_assembly(geom.xi, spec, taus, 4, (3, 5), bounds)
        assert np.array_equal(table.energies, expected.energies)
        assert np.array_equal(table.lower, expected.lower)


def test_band_functions_refuse_a_non_hermitian_block_with_the_eigensolver_message():
    # a mate off by 5e-12 passes the spec's 1e-14 |v| tolerance at |v| = 1000
    # but not the 1e-12 Hermitian check of the assembled matrix
    v = 600.0 + 800.0j
    spec = PotentialSpec(terms=((1, 0, v), (-1, 0, v.conjugate() + 5e-12)))
    H = assemble(XI, 0.25, spec, 2, 2)
    defect = np.max(np.abs(H - H.conj().T))
    with pytest.raises(ValueError) as refused:
        band_functions(XI, spec, [0.25, -0.25], 2, (2, 2), PerturbBounds(-2000.0, 2000.0))
    assert str(refused.value) == f"matrix is not Hermitian: entrywise defect {defect:.3e}"


def test_a_potential_symmetric_only_within_tolerance_is_solved_at_both_points(monkeypatch):
    v = 0.1 + 0.05j
    spec = PotentialSpec(terms=((1, 0, v), (-1, 0, v.conjugate() * (1.0 + 2e-16))))
    assert v.conjugate() * (1.0 + 2e-16) != v.conjugate()
    assert not spec.conjugate_symmetric
    assembled, solved = count_solves(monkeypatch)
    band_functions(XI, spec, [0.25, -0.25], 2, (3, 4), omega_bounds(XI, spec))
    assert len(assembled) == len(solved) == 2


# ---------------------------------------------------------------------------
# potential range enclosures
# ---------------------------------------------------------------------------

_RANGE_CASES = [(resolve_geometry(T=1.0, d=20.0), spec) for spec in _benchmark_potentials()] + [
    (GEOM, PotentialSpec()),
    (GEOM, PotentialSpec(terms=((0, 0, 0.0), (1, 1, 0.0), (-1, 1, 0.0)))),
    (GEOM, PotentialSpec(terms=((10 ** 11, 3, 0.5 + 0.25j), (-10 ** 11, 3, 0.5 - 0.25j),
                                (0, 10 ** 11 + 1, 0.7), (2, 1, 0.1), (-2, 1, 0.1)))),
]


@pytest.mark.parametrize("grid_n", [2, 3, 64, 1024, 1500, 2048])
def test_omega_bounds_scan_equals_the_full_grid_oracle(monkeypatch, grid_n):
    # the grid rows are scanned in blocks of at most 2^15 values (1500 leaves
    # a last block of 9 rows); every field equals the one from the whole grid
    scanned = [omega_bounds(geom.xi, spec, grid_n) for geom, spec in _RANGE_CASES]
    monkeypatch.setattr(galerkin, "_range_extremes", lambda potential, n: (
        float(range_grid(potential, n).min()), float(range_grid(potential, n).max())))
    for (geom, spec), enc in zip(_RANGE_CASES, scanned):
        assert enc == omega_bounds(geom.xi, spec, grid_n)


def test_omega_bounds_scans_the_grid_in_bounded_memory():
    # the whole 1024 x 1024 grid was one 8 MB array
    geom, spec = _RANGE_CASES[0]
    omega_bounds(geom.xi, spec)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        omega_bounds(geom.xi, spec, grid_n=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_omega_bounds_for_the_pure_cosine():
    enc = omega_bounds(XI, COSINE_X1)
    assert enc.grid_min == pytest.approx(-0.2, rel=1e-12)
    assert enc.grid_max == pytest.approx(0.2, rel=1e-12)
    # the trivial range +-0.2, widened by its rounding only, is tighter than
    # the grid extremes plus their inflation
    assert enc.omega_minus <= -0.2 < 0.2 <= enc.omega_plus
    assert enc.inflation > 0.0
    assert enc.omega_plus - 0.2 <= 1e-14 < enc.inflation
    assert -0.2 - enc.omega_minus <= 1e-14


def test_the_enclosure_is_a_checked_perturbation_bound():
    enc = omega_bounds(XI, COSINE_X1)
    assert isinstance(enc, PerturbBounds)
    assert enc.omega_L == enc.omega_plus - enc.omega_minus
    record = dict(grid_min=0.0, grid_max=0.0, inflation=0.0, rounding=0.0)
    with pytest.raises(ValueError, match="exceeds"):
        galerkin.OmegaEnclosure(omega_minus=1.0, omega_plus=0.0, **record)
    with pytest.raises(ValueError, match="finite"):
        galerkin.OmegaEnclosure(omega_minus=-math.inf, omega_plus=0.0, **record)


def test_zone_grid_pairs_are_exact_negations():
    for n in range(1, 40):
        grid = galerkin.zone_grid(n)
        assert grid[-1] == 0.5 and len(grid) == n
        assert all(-tau in grid for tau in grid[:-1])


def test_omega_bounds_for_a_constant_are_exact():
    enc = omega_bounds(XI, PotentialSpec(terms=((0, 0, 0.7),)))
    assert enc.omega_minus == enc.omega_plus == 0.7
    assert enc.omega_L == 0.0
    assert enc.inflation == 0.0


def test_omega_bounds_are_clipped_to_the_trivial_range():
    # a huge frequency makes the grid's sampling bound absurd (about 1e9); the
    # enclosure never leaves v_00 +- sum' |v|, here 0.3 +- 1.5
    for terms in (((10 ** 11, 0, 0.5), (-10 ** 11, 0, 0.5), (0, 0, 0.3), (0, 1, 0.5)),
                  ((0, 10 ** 11, 1.0), (0, 0, 0.3), (1, 0, 0.25), (-1, 0, 0.25))):
        enc = omega_bounds(XI, PotentialSpec(terms=terms))
        assert enc.inflation > 1e8
        assert -1.2 - 1e-13 <= enc.omega_minus <= -1.2
        assert 1.8 <= enc.omega_plus <= 1.8 + 1e-13
    # clipping never cuts into the range: V = 0.2 cos attains +-0.2 exactly
    values = potential_values(COSINE_X1, GEOM, np.array([0.0, GEOM.T]), np.array([0.5, 0.5]))
    enc = omega_bounds(XI, COSINE_X1)
    assert enc.omega_minus <= values.min() and values.max() <= enc.omega_plus


def test_omega_bounds_first_order_term_is_free_of_T():
    # a huge j makes the mean-value bound the smaller one; it reads xi only,
    # and is the cell's gradient bound sum |v| pi (|j|/T + q/d) times the
    # grid's diagonal hypot(2T, d)/N, whatever T at that xi
    spec = PotentialSpec(terms=((10 ** 6, 1, 0.5), (-10 ** 6, 1, 0.5), (0, 2, 0.25)))
    for xi in (0.05, 1.0, 3.0):
        enc = omega_bounds(xi, spec)
        for T in (1e-3, 1.0, 7.5):
            d = T / xi
            gradient = sum(abs(v) * math.pi * (abs(j) / T + q / d) for j, q, v in spec.terms)
            assert enc.inflation - enc.rounding == pytest.approx(
                gradient * math.hypot(2.0 * T, d) / 1024, rel=1e-13), (xi, T)


def test_omega_bounds_mixed_potential_attains_the_corner_extrema():
    mixed = PotentialSpec(terms=((1, 0, 0.5), (-1, 0, 0.5), (0, 1, 1.0)))
    enc = omega_bounds(XI, mixed)
    assert enc.grid_min == pytest.approx(-2.0, rel=1e-12)
    assert enc.grid_max == pytest.approx(2.0, rel=1e-12)


def test_omega_bounds_enclosure_shrinks_with_the_grid():
    coarse = omega_bounds(XI, COSINE_X1, grid_n=64)
    fine = omega_bounds(XI, COSINE_X1, grid_n=2048)
    assert coarse.omega_minus <= fine.omega_minus
    assert fine.omega_plus <= coarse.omega_plus
    with pytest.raises(ValueError):
        omega_bounds(XI, COSINE_X1, grid_n=1)


def test_omega_bounds_rounding_vanishes_only_for_a_constant():
    assert omega_bounds(XI, PotentialSpec(terms=((0, 0, 0.7),))).rounding == 0.0
    assert omega_bounds(XI, PotentialSpec(terms=((0, 0, 0.7), (0, 1, 0.0)))).rounding == 0.0
    assert omega_bounds(XI, PotentialSpec()).omega_L == 0.0
    enc = omega_bounds(XI, COSINE_X1)
    assert 0.0 < enc.rounding < 1e-13
    # the second-order bound 1/2 sum |v| (pi |j| / N)^2, then the rounding term
    assert enc.inflation == pytest.approx(0.5 * 0.2 * (math.pi / 1024) ** 2 + enc.rounding,
                                          rel=1e-12, abs=0.0)


def test_range_grid_reduces_the_phases_exactly():
    # on N points j and j + 1000 N are the same exponential, and q and
    # q + 1000 * 2(N - 1) the same cosine: the integer reduction makes the
    # grids equal bit for bit, where float phases of size 1e6 would not
    n = 64
    small = PotentialSpec(terms=((1, 1, 0.3 + 0.1j), (-1, 1, 0.3 - 0.1j), (0, 3, 0.2)))
    large = PotentialSpec(terms=((1 + 1000 * n, 1 + 1000 * 2 * (n - 1), 0.3 + 0.1j),
                                 (-1 - 1000 * n, 1 + 1000 * 2 * (n - 1), 0.3 - 0.1j),
                                 (0, 3 + 1000 * 2 * (n - 1), 0.2)))
    assert np.array_equal(range_grid(large, n), range_grid(small, n))
    assert (galerkin._range_extremes(large, n) == galerkin._range_extremes(small, n)
            == (range_grid(small, n).min(), range_grid(small, n).max()))


@given(
    labels=HERMITIAN_LABELS,
    cell=st.sampled_from([(1.0, 1.0), (1.0, 20.0), (0.7, 2.5)]),
    grid_n=st.sampled_from([16, 64, 257, 1024]),
)
@settings(max_examples=60, deadline=None)
def test_separable_range_grid_matches_the_term_by_term_oracle(labels, cell, grid_n):
    spec, geom = _hermitian(labels), resolve_geometry(T=cell[0], d=cell[1])
    x1 = np.linspace(0.0, 2.0 * geom.T, grid_n, endpoint=False)[:, None]
    x2 = np.linspace(0.0, geom.d, grid_n)[None, :]
    enc = omega_bounds(geom.xi, spec, grid_n=grid_n)
    separable = range_grid(spec, grid_n)
    assert np.max(np.abs(separable - potential_values(spec, geom, x1, x2))) <= enc.rounding
    assert (enc.grid_min, enc.grid_max) == (separable.min(), separable.max())
    # never looser than the first-order enclosure beyond the rounding term,
    # once more for the oracle's grid values, which agree only that closely
    first = omega_bounds_first_order(geom, spec, grid_n=grid_n)
    assert enc.omega_minus >= first.omega_minus - 2.0 * enc.rounding
    assert enc.omega_plus <= first.omega_plus + 2.0 * enc.rounding


def test_the_range_at_random_points_lies_inside_the_enclosure():
    rng = np.random.default_rng(2018)
    cases = [(resolve_geometry(T=1.0, d=20.0), spec) for spec in _benchmark_potentials()]
    cases += [read_potential_file(DATA / "cosine.pot"),
              (GEOM, _hermitian([(1, 2, 0.6, 0.3), (2, 1, 0.4, 2.5), (0, 1, 0.2, 0.0)]))]
    for geom, spec in cases:
        values = potential_values(spec, geom, rng.uniform(0.0, 2.0 * geom.T, 10 ** 5),
                                  rng.uniform(0.0, geom.d, 10 ** 5))
        for grid_n in (16, 1024):
            enc = omega_bounds(geom.xi, spec, grid_n=grid_n)
            assert enc.omega_minus <= values.min() and values.max() <= enc.omega_plus
    # the second-order bound is what makes the benchmark enclosures tight
    for geom, spec in cases[:8]:
        assert omega_bounds(geom.xi, spec).inflation < 1e-5


# ---------------------------------------------------------------------------
# minimax enclosure verification
# ---------------------------------------------------------------------------

def test_perturbed_bands_sit_inside_the_minimax_enclosure():
    taus = [-0.5, -0.25, 0.0, 0.25, 0.5]
    trunc = default_truncation(GEOM.xi, 3)
    enclosure = omega_bounds(XI, COSINE_X1)
    bands0 = band_functions(XI, PotentialSpec(), taus, 3, trunc, ZERO)
    bands = band_functions(XI, COSINE_X1, taus, 3, trunc, enclosure)
    check = verify_enclosure(bands, bands0, enclosure)
    assert check.ok
    assert check.worst_margin >= -1e-6


def test_enclosure_verification_never_forgives_a_negative_margin():
    # band 1's certified lower bound sits 1e-9 below E0 + omega_-: declined
    bands0 = galerkin.BandTable((0.0,), np.array([[1.0]]), np.array([[1.0]]))
    bands = galerkin.BandTable((0.0,), np.array([[1.5]]), np.array([[1.0 - 1e-9]]))
    bounds = PerturbBounds(omega_minus=0.0, omega_plus=1.0)
    check = verify_enclosure(bands, bands0, bounds)
    assert check.worst_margin == pytest.approx(-1e-9, rel=1e-6)
    assert (check.ok, check.side, check.band) == (False, "lower", 1)
    touching = galerkin.BandTable((0.0,), np.array([[1.5]]), np.array([[1.0]]))
    assert verify_enclosure(touching, bands0, bounds).ok


def test_enclosure_verification_rejects_mismatched_tables():
    trunc = default_truncation(GEOM.xi, 2)
    a = band_functions(XI, PotentialSpec(), [0.0, 0.5], 2, trunc, ZERO)
    b = band_functions(XI, PotentialSpec(), [0.0, 0.25], 2, trunc, ZERO)
    with pytest.raises(ValueError, match="grids"):
        verify_enclosure(a, b, omega_bounds(XI, COSINE_X1))
    c = band_functions(XI, PotentialSpec(), [0.0, 0.5], 1, trunc, ZERO)
    with pytest.raises(ValueError, match="counts"):
        verify_enclosure(a, c, omega_bounds(XI, COSINE_X1))


# ---------------------------------------------------------------------------
# units: the library is scaled, the command forms the energies
# ---------------------------------------------------------------------------

# summary notes in energy units (times 1/s^2) and in units of length (times s)
_ENERGY_NOTES = ("max_enclosure_width", "omega_minus", "omega_plus", "omega_inflation",
                 "worst_margin")
_LENGTH_NOTES = ("T", "d")


def _galerkin_lines(path, monkeypatch):
    """(status, stdout lines) of the galerkin CSV, every float at full precision."""
    real = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda v: repr(v) if type(v) in (float, cli._Down, cli._Up)
                        else real(v))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["galerkin", "--potential", str(path), "--kmax", "4", "--grid", "5",
                         "--format", "csv"])
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("case", ["cosine.pot", "bench potential 0"])
def test_no_galerkin_line_depends_on_the_unit_of_length(tmp_path, monkeypatch, case):
    # lengths times s and V times 1/s^2 is the operator times 1/s^2; with s a
    # power of 2 the scaled coefficients are the same bits, so through the
    # command the exit status and every line are the same, except T and d
    # (times s) and every energy (times exactly 1/s^2)
    geom, spec = (read_potential_file(DATA / case) if case == "cosine.pot"
                  else (resolve_geometry(T=1.0, d=20.0), _benchmark_potentials()[0]))
    runs = {}
    for j in range(-4, 5):
        s = 2.0 ** j
        path = tmp_path / f"s{j}.pot"
        write_potential_file(path, resolve_geometry(T=s * geom.T, d=s * geom.d),
                             PotentialSpec(terms=tuple((jj, q, complex(v) / s ** 2)
                                                       for jj, q, v in spec.terms)))
        runs[s] = _galerkin_lines(path, monkeypatch)
    code, one = runs[1.0]
    assert code == 0 and "tau,k,energy0,energy_lower,energy" in one
    for s, (status, lines) in runs.items():
        assert status == code and len(lines) == len(one), s
        for line, base in zip(lines, one):
            if line.startswith("# argv="):  # names the file
                continue
            if line.startswith("# "):
                (key, value), (_, expected) = line[2:].split("=", 1), base[2:].split("=", 1)
                factor = s if key in _LENGTH_NOTES else s ** -2 if key in _ENERGY_NOTES else None
            elif line[0] in "-0123456789":  # tau, k and three energies
                *key, value = line.split(",", 2)
                *base_key, expected = base.split(",", 2)
                assert key == base_key, (s, line)
                factor = s ** -2
            else:
                key, value, expected, factor = line, line, base, None
            if factor is None:
                assert value == expected, (s, key)
            else:
                for a, b in zip(value.split(","), expected.split(",")):
                    assert float(a) == factor * float(b), (s, key)


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


def test_a_non_ascii_potential_file_names_the_path_and_the_line(tmp_path):
    path = tmp_path / "accent.pot"
    path.write_bytes("T=1.0 d=2.0\n# fine\n0 1 0.25 0.0\u00e9\n".encode("utf-8"))
    with pytest.raises(ValueError, match=re.escape(
            f"potential file {path!r}, line 3: 'ascii' codec can't decode byte 0xc3")):
        read_potential_file(path)


def test_a_bad_header_float_names_the_path_and_the_line(tmp_path):
    path = tmp_path / "header.pot"
    path.write_text("# cell\n\nT=abc d=2.0\n0 1 0.25 0.0\n")
    with pytest.raises(ValueError, match=re.escape(
            f"potential file {path!r}, line 3: could not convert string to float: 'abc'")):
        read_potential_file(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_potential_file_rejects_non_finite_coefficients(tmp_path, text):
    path = tmp_path / "potential.txt"
    path.write_text(f"T=1.0 d=2.0\n0 0 0.5 0.0\n1 1 {text} 0.0\n-1 1 {text} 0.0\n")
    with pytest.raises(ValueError, match=r"\(j=1, q=1\) is not finite"):
        read_potential_file(path)


def test_an_unreadable_potential_file_raises_a_value_error_naming_it(tmp_path):
    missing = tmp_path / "missing.pot"
    with pytest.raises(ValueError, match="cannot read potential file .*missing.pot.*: "
                                         "No such file or directory"):
        read_potential_file(missing)
    with pytest.raises(ValueError, match="cannot read potential file .*: Is a directory"):
        read_potential_file(tmp_path)
