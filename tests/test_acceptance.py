"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every criterion is checked at its stated tolerance; runtime-limited criteria
assert their wall-clock budget too.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    a0_increment_check,
    ap_exact_integral,
    ap_residual_check,
    counting_extremes_check,
    low_spectrum_no_gap,
    pde_residual,
)
from stripgaps.cli import main as cli_main
from stripgaps.fourier import a0_closed, ap_closed
from stripgaps.galerkin import (
    PotentialSpec,
    band_functions,
    default_truncation,
    omega_bounds,
    verify_enclosure,
)
from stripgaps.gaps import (
    GapParams,
    PerturbBounds,
    conditions_check,
    ell1_threshold,
    gapless_margin,
    low_energy_budget,
)
from stripgaps.geometry import resolve_geometry
from stripgaps.oscillation import critical_constants, phi_p, uniform_lower_bound_check

SEED = 20260815

# Values of criteria 04 and 05 under the oscillation-blind truncation
# N = 16 xi / (pi^2 tol^2), recorded once: every new evaluation must agree
# with them within the two certified tails.
def _blind(criterion: str) -> list:
    path = Path(__file__).parent / "data" / "blind_truncation_values.json"
    return json.loads(path.read_text())[criterion]


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_threshold_constants():
    t0 = time.perf_counter()
    cc = critical_constants()
    xi0_err = abs(cc.xi_critical - 0.10121)
    s3 = 3.0 ** 1.5
    cubic = abs(s3 * cc.c2 ** 3 + 3.0 * cc.c2 ** 2 + s3 * cc.c2 - 1.0)
    z = np.linspace(0.0, math.pi, 10 ** 6)
    grid_min = float(
        np.minimum.reduce(
            np.maximum(np.abs(np.sin(z)), 3.0 ** -1.5 * np.abs(np.cos(3.0 * z)))
        )
    )
    minimax_err = abs(grid_min - cc.c1)
    elapsed = time.perf_counter() - t0
    ok = xi0_err <= 1e-4 and cubic <= 1e-10 and minimax_err <= 1e-5 and elapsed < 5.0
    _verdict(
        1, "threshold constants", ok,
        f"xi0 err {xi0_err:.2e}, cubic residual {cubic:.2e}, "
        f"minimax err {minimax_err:.2e}, {elapsed:.2f}s",
    )
    assert xi0_err <= 1e-4
    assert cubic <= 1e-10
    assert minimax_err <= 1e-5
    assert elapsed < 5.0


def test_criterion_02_fourier_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    violations = 0
    for _ in range(1000):
        xi = rng.uniform(0.02, 0.9)
        ell = rng.uniform(xi * xi, 100.0)
        p = int(rng.integers(0, 11))
        closed = a0_closed(xi, ell) if p == 0 else ap_closed(xi, ell, p)
        exact = ap_exact_integral(xi, ell, p)
        err = abs(closed - exact)
        tol = 1e-10 * max(1.0, abs(closed))
        worst = max(worst, err / tol)
        if err > tol:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _verdict(
        2, "fourier oracle equivalence", ok,
        f"1000 samples, worst err/tol {worst:.3f}, "
        f"{violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_03_growth_and_oscillation_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    growth_bad = 0
    for _ in range(1000):
        xi = rng.uniform(0.02, 0.9)
        ell = rng.uniform(xi * xi, 60.0)
        bump = rng.uniform(0.0, 40.0)
        if not a0_increment_check(xi, ell, ell + bump).holds:
            growth_bad += 1
    extremes_bad = 0
    for _ in range(1000):
        xi = rng.uniform(0.05, 0.9)
        ell = rng.uniform(0.0, 30.0)
        p = int(rng.integers(1, 11))
        if not counting_extremes_check(xi, ell, p).holds:
            extremes_bad += 1
    elapsed = time.perf_counter() - t0
    ok = growth_bad == 0 and extremes_bad == 0 and elapsed < 60.0
    _verdict(
        3, "growth and oscillation properties", ok,
        f"1000+1000 samples, {growth_bad} growth / {extremes_bad} extremes "
        f"violations, {elapsed:.1f}s",
    )
    assert growth_bad == 0
    assert extremes_bad == 0
    assert elapsed < 60.0


def test_criterion_04_residual_bound_grid():
    ells = [1.0, 4.0, 25.0, 100.0]
    blind = {(xi, ell, p): (value, tail) for xi, ell, p, value, tail in _blind("criterion_04")}
    violations = 0
    disagreements = 0
    worst = 0.0
    for xi in (0.02, 0.05, 0.09, 0.3):
        for p in range(1, 11):
            for ell in ells:
                ev = phi_p(xi, ell, p, tol=1e-4)
                check = ap_residual_check(xi, ell, p, ev.value, ev.tail_bound)
                worst = max(worst, check.residual / check.bound)
                if not check.holds:
                    violations += 1
                old, old_tail = blind[(xi, ell, p)]
                if not (ev.tail_bound <= 1e-4
                        and abs(ev.value - old) <= ev.tail_bound + old_tail):
                    disagreements += 1
    ok = violations == 0 and disagreements == 0
    _verdict(
        4, "residual bound grid", ok,
        f"160 grid points, worst residual/bound {worst:.3f}, "
        f"{violations} violations, {disagreements} disagreements with the "
        f"oscillation-blind values",
    )
    assert violations == 0
    assert disagreements == 0


def test_criterion_05_uniform_lower_bound_evidence():
    t0 = time.perf_counter()
    grid = np.linspace(1.0, 100.0, 100)
    blind = {(xi, ell): value for xi, ell, _, value in _blind("criterion_05")}
    bad = 0
    disagreements = 0
    worst_margin = math.inf
    for xi in (0.02, 0.05, 0.09):
        report = uniform_lower_bound_check(xi, grid, tol=1e-4)
        worst_margin = min(worst_margin, min(r.margin for r in report.rows))
        bad += sum(not r.ok for r in report.rows)
        for r in report.rows:
            # each supremum is within the largest tail (<= tol) of the true one
            ev = phi_p(xi, r.ell, r.p_star, tol=1e-4)
            if not (abs(ev.value) == r.value and ev.tail_bound <= 1e-4
                    and abs(r.value - blind[(xi, r.ell)]) <= 2e-4):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and disagreements == 0 and elapsed < 600.0
    _verdict(
        5, "uniform lower bound evidence", ok,
        f"3 ratios x 100 energies, worst margin {worst_margin:.4f}, "
        f"{bad} violations, {disagreements} disagreements with the "
        f"oscillation-blind values, {elapsed:.1f}s",
    )
    assert bad == 0
    assert disagreements == 0
    assert elapsed < 600.0


def test_criterion_06_low_spectrum_suite():
    nonpositive = 0
    total = 0
    for xi in np.linspace(0.01, 0.1, 10):
        geom = resolve_geometry(T=1.0, xi=float(xi))
        omega_L = 0.5 * low_energy_budget(float(xi)) * math.pi ** 2
        verdict = conditions_check(geom, PerturbBounds(omega_minus=0.0, omega_plus=omega_L))
        lo = 0.25 + float(xi) ** 2
        for i in range(1000):
            ell = lo + (1.0 - lo) * (i + 1) / 1001.0
            total += 1
            if not low_spectrum_no_gap(geom, verdict, ell).positive:
                nonpositive += 1
    ok = nonpositive == 0
    _verdict(
        6, "low spectrum suite", ok,
        f"{total} checks, {nonpositive} nonpositive differences",
    )
    assert nonpositive == 0


def test_criterion_07_condition_arithmetic():
    budget_err = abs(low_energy_budget(0.1) - 0.0222512)
    holds_small = gapless_margin(0.03, 0.0) > 0.0
    fails_large = gapless_margin(0.1, 0.0) < 0.0
    star = conditions_check(resolve_geometry(T=1.0, xi=0.1), PerturbBounds()).ell_star
    star_err = abs(star - 0.3776347)
    sandwich = 0.25 + 0.01 < star < 2.0 / 3.0
    ok = budget_err <= 1e-6 and holds_small and fails_large and star_err <= 1e-6 and sandwich
    _verdict(
        7, "condition arithmetic", ok,
        f"budget err {budget_err:.2e}, sign flip {holds_small and fails_large}, "
        f"ell_star err {star_err:.2e}, sandwich {sandwich}",
    )
    assert budget_err <= 1e-6
    assert holds_small and fails_large
    assert star_err <= 1e-6
    assert sandwich


def test_criterion_08_galerkin_validation():
    # V = 0 reduction against the lattice of mode energies
    geom1 = resolve_geometry(T=1.0, d=1.0)
    taus = [-0.4, -0.1, 0.0, 0.2, 0.5]
    table = band_functions(geom1, PotentialSpec(), taus, 4, default_truncation(geom1.xi, 4),
                           PerturbBounds())
    lattice_err = 0.0
    for i, tau in enumerate(taus):
        expected = sorted(
            math.pi ** 2 * ((tau + n) ** 2 + m * m)
            for n in range(-8, 9)
            for m in range(1, 10)
        )[:4]
        lattice_err = max(lattice_err, float(np.max(np.abs(table.energies[i] - expected))))
    # 2x2 closed form, from the eigensolver band_functions calls
    eigs = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 2.0]]))
    two_err = max(
        abs(eigs[0] - (3.0 - math.sqrt(5.0)) / 2.0),
        abs(eigs[1] - (3.0 + math.sqrt(5.0)) / 2.0),
    )
    # enclosure for 0.2 cos(pi x1 / T) at xi = 0.05
    geom = resolve_geometry(T=1.0, xi=0.05)
    cosine = PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1)))
    trunc = default_truncation(geom.xi, 4)
    tau_grid = [-0.5, -0.25, 0.0, 0.25, 0.5]
    enclosure = omega_bounds(geom, cosine)
    bands0 = band_functions(geom, PotentialSpec(), tau_grid, 4, trunc, PerturbBounds())
    bands = band_functions(geom, cosine, tau_grid, 4, trunc, enclosure)
    check = verify_enclosure(bands, bands0, enclosure)
    ok = lattice_err <= 1e-10 and two_err <= 1e-10 and check.worst_margin >= -1e-6
    _verdict(
        8, "galerkin validation", ok,
        f"lattice err {lattice_err:.2e}, 2x2 err {two_err:.2e}, "
        f"enclosure margin {check.worst_margin:.3e}",
    )
    assert lattice_err <= 1e-10
    assert two_err <= 1e-10
    assert check.worst_margin >= -1e-6


def test_criterion_09_characteristic_equation():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        l = rng.uniform(0.1, 20.0)
        mu = rng.uniform(0.1, 20.0)
        worst = max(worst, abs(pde_residual(l, mu, 100)))
    coarse = pde_residual(2.0, 1.5, 50, h=2e-3, mode="numeric")
    fine = pde_residual(2.0, 1.5, 50, h=1e-3, mode="numeric")
    ratio = coarse / fine
    ok = worst <= 1e-12 and ratio >= 3.8
    _verdict(
        9, "characteristic equation", ok,
        f"worst analytic residual {worst:.2e}, fd ratio {ratio:.3f}",
    )
    assert worst <= 1e-12
    assert ratio >= 3.8


def test_criterion_10_high_energy_threshold_arithmetic():
    geom = resolve_geometry(T=1.0, xi=0.05)
    c0 = 0.699118
    params = GapParams(c0=c0, gamma=0.0, ell0=1.0)
    value = ell1_threshold(geom, params, PerturbBounds())
    # the four competing terms, from scratch
    t1 = 1.0
    t2 = ((4.0 * math.sqrt(2.0) * math.pi + 6.0) / (3.0 * math.pi * c0)) ** 4
    t3 = (
        math.sqrt(9.0 + 25.0 / (1024.0 * math.pi ** 2))
        / (8.0 * math.pi ** 2 * 0.05 * c0)
    ) ** 2
    t4 = (1.0 / (2.0 * c0) + 3.0 * 0.05 / (4.0 * math.pi * c0)) ** 4
    expected = math.pi ** 2 * max(t1, t2, t3, t4)
    rel = abs(value - expected) / expected
    terms_ok = (
        abs(t2 - 169.4112405453856) <= 1e-9 * 169.4
        and abs(t3 - 1.1817930133445782) <= 1e-9
        and abs(t4 - 0.2875165534090492) <= 1e-9
        and t1 == 1.0
    )
    near_litpack = abs(value - 1.672e3) / 1.672e3 <= 1e-3
    ok = rel <= 1e-3 and terms_ok and near_litpack
    _verdict(
        10, "high energy threshold arithmetic", ok,
        f"ell1 {value:.6f}, vs max-term {rel:.2e} rel, terms "
        f"{{1, {t2:.4f}, {t3:.5f}, {t4:.6f}}}",
    )
    assert rel <= 1e-3
    assert terms_ok
    assert near_litpack


def test_criterion_11_cli_determinism(capsys):
    def run(argv):
        code = cli_main(argv)
        return code, capsys.readouterr().out

    argv = ["count", "--xi", "0.5", "--ell", "1.3", "--tau", "0.0", "--seed", "3"]
    first = run(argv)
    second = run(argv)
    sweep = [
        "sweep", "--param", "xi", "--start", "0.3", "--stop", "0.7", "--steps", "5",
        "--", "count", "--ell", "1.3", "--tau", "0.0",
    ]
    serial = run(sweep[:1] + ["--workers", "1"] + sweep[1:])
    parallel = run(sweep[:1] + ["--workers", "8"] + sweep[1:])
    ok = first == second and serial == parallel
    _verdict(
        11, "cli determinism", ok,
        f"repeat identical {first == second}, workers 1 vs 8 identical "
        f"{serial == parallel}",
    )
    assert first == second
    assert serial == parallel
