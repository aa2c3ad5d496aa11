"""The benchmark's four workloads, generated from a seed.

Each workload draws its invocations from a fixed pool whose outputs at the
time the benchmark was written are recorded in ``reference.json``; the seed
only chooses among pool entries.  The program sees nothing but the generated
argument lists and, for ``galerkin``, the potential files written here.

Seeds vary the inputs that do not change the amount of work (energies within
a band, harmonics, perturbation sizes, potential coefficients) and keep the
inputs that set it (ratios, tolerances, band counts, grid sizes) fixed, so
run-to-run spread measures the program rather than the draw.  The cost of a
phi sum grows with the energy up to about ell = 40, because sin of larger
arguments is slower, so seeded energies come from [40, 100], where it is
nearly flat, and each pass also has one fixed low energy.

* ``thm23``: ``phi-sup`` and ``check-thm23`` at subcritical ratios 0.02, 0.05
  and 0.09: ``phi-sup`` at ell = 4, at a perfect square in 49..100 and at a
  non-integer energy; ``check-thm23`` on a grid inside [40, 96].  At ratios
  0.02 and 0.05 perfect squares make sqrt(ell)/xi an integer (the resonant
  case of the oscillation series).  Time goes to ``phi_p`` through
  ``phi_sup``'s coarse pre-pass and fine evaluations.
* ``series``: ``phi`` paired with ``fourier`` at the same (xi, ell, p), ratios
  0.02, 0.05, 0.09 and 0.3, p in 1..10, non-resonant non-integer energies
  (ell = 2.5 and one in [40, 100]).  One full-length sum per call, no pruning;
  the only workload reaching ``fourier``.
* ``gapchain``: ``bands --kmax`` (golden-section refined band table) and
  ``gaps --ell-max`` (unrefined band table plus gap windows), with certified
  (exit 0) and declined (exit 2) cases and windows left undecided.  The input
  ``bands --xi 0.05 --kmax 200`` is fixed: its endpoints show the known
  inward-endpoint defect (see ``checks.py``).
* ``galerkin``: the plane-wave solver on four of eight seeded trigonometric
  potentials per pass; half of its eigensolves are the V = 0 reference bands,
  half the convergence gate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Pool contents never depend on the run seed.
_POOL_SEED = 18060929


@dataclass(frozen=True)
class Invocation:
    """One CLI call: reference key, argument list, paired phi call if any."""

    key: str
    argv: tuple[str, ...]
    pair: str | None = None


def _inv(*argv, key: str | None = None, pair: str | None = None) -> Invocation:
    argv = tuple(str(a) for a in argv)
    return Invocation(key=key or " ".join(argv), argv=argv, pair=pair)


def _energy(rng: random.Random, xi: float, lo: float = 1.0, hi: float = 100.0) -> float:
    """A non-integer, non-resonant energy in [lo, hi]."""
    while True:
        ell = round(rng.uniform(lo, hi), 3)
        if ell != int(ell) and not is_resonant(xi, ell):
            return ell


def is_resonant(xi: float, ell: float) -> bool:
    """sqrt(ell)/xi is an integer within float rounding."""
    ratio = math.sqrt(ell) / xi
    return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)


# ---------------------------------------------------------------------------
# thm23
# ---------------------------------------------------------------------------

# phi-sup tolerance per ratio: the default 1e-4 where a fine sum costs about
# 0.5 s here, looser where it would cost seconds (truncation ~ xi / tol^2).
_THM23_TOL = {0.02: "1e-4", 0.05: "2e-4", 0.09: "3e-4"}
_THM23_CHECK_TOL = "5e-4"
_THM23_GRID = 4
_THM23_LOW = 4


def _thm23_pool() -> dict[float, dict[str, list[Invocation]]]:
    rng = random.Random(_POOL_SEED)
    pool = {}
    for xi, tol in _THM23_TOL.items():
        low = [_inv("phi-sup", "--xi", xi, "--ell", _THM23_LOW, "--tol", tol)]
        squares = [_inv("phi-sup", "--xi", xi, "--ell", k * k, "--tol", tol)
                   for k in range(7, 11)]
        plain = [_inv("phi-sup", "--xi", xi, "--ell", _energy(rng, xi, 40.0), "--tol", tol)
                 for _ in range(10)]
        checks = []
        for _ in range(6):
            lo = rng.randint(40, 60)
            checks.append(_inv("check-thm23", "--xi", xi, "--ell-min", lo, "--ell-max", lo + 36,
                               "--grid", _THM23_GRID, "--tol", _THM23_CHECK_TOL))
        pool[xi] = {"low": low, "squares": squares, "plain": plain, "checks": checks}
    return pool


def thm23(rng: random.Random, workdir: Path) -> list[Invocation]:
    return [rng.choice(group) for groups in _thm23_pool().values()
            for group in groups.values()]


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

_SERIES_TOL = {0.02: "1e-4", 0.05: "2e-4", 0.09: "3e-4", 0.3: "5e-4"}
_SERIES_LOW = 2.5


def _pair(xi: float, ell: float, p: int, tol: str) -> tuple[Invocation, Invocation]:
    phi = _inv("phi", "--xi", xi, "--ell", ell, "--p", p, "--tol", tol)
    return phi, _inv("fourier", "--xi", xi, "--ell", ell, "--p", p, pair=phi.key)


def _series_pool() -> dict[float, dict[str, list[tuple[Invocation, Invocation]]]]:
    rng = random.Random(_POOL_SEED + 1)
    return {xi: {"low": [_pair(xi, _SERIES_LOW, p, tol) for p in range(1, 11)],
                 "high": [_pair(xi, _energy(rng, xi, 40.0), rng.randint(1, 10), tol)
                          for _ in range(12)]}
            for xi, tol in _SERIES_TOL.items()}


def series(rng: random.Random, workdir: Path) -> list[Invocation]:
    return [inv for groups in _series_pool().values() for group in groups.values()
            for inv in rng.choice(group)]


# ---------------------------------------------------------------------------
# gapchain
# ---------------------------------------------------------------------------

_GAPCHAIN_FIXED = (
    _inv("bands", "--xi", 0.05, "--kmax", 200),
    _inv("gaps", "--xi", 0.09, "--omega-plus", 100, "--ell-max", 10),
    _inv("gaps", "--xi", 0.3, "--c0", 0.1, "--omega-plus", 5, "--ell-max", 20),
)
_GAPCHAIN_CERTIFIED = tuple(
    _inv("gaps", "--xi", 0.03, "--omega-plus", w, "--ell-max", 40)
    for w in (0.005, 0.01, 0.015, 0.02, 0.025, 0.03))
_GAPCHAIN_DECLINED = tuple(
    _inv("gaps", "--xi", xi, "--omega-plus", 200, "--ell-max", 10)
    for xi in (0.07, 0.08, 0.09))


def gapchain(rng: random.Random, workdir: Path) -> list[Invocation]:
    return [*_GAPCHAIN_FIXED, rng.choice(_GAPCHAIN_CERTIFIED),
            rng.choice(_GAPCHAIN_DECLINED)]


# ---------------------------------------------------------------------------
# galerkin
# ---------------------------------------------------------------------------

# Geometry of every potential: T = 1, d = 20 (xi = 0.05).
_GALERKIN_HEADER = "T=1.0 d=20.0"
_GALERKIN_FLAGS = ("--kmax", "6", "--grid", "9", "--format", "csv")


def _potentials() -> list[list[tuple[int, int, float, float]]]:
    """Eight real trigonometric potentials with seeded coefficients."""
    rng = random.Random(_POOL_SEED + 2)
    pots = []
    for _ in range(8):
        a = round(rng.uniform(0.02, 0.12), 4)
        b, c = round(rng.uniform(0.0, 0.06), 4), round(rng.uniform(-0.06, 0.06), 4)
        d = round(rng.uniform(-0.05, 0.05), 4)
        pots.append([(1, 0, a, 0.0), (-1, 0, a, 0.0),
                     (2, 1, b, c), (-2, 1, b, -c), (0, 2, d, 0.0)])
    return pots


def potential_path(workdir: Path, index: int) -> Path:
    return workdir / "potentials" / f"pot{index}.txt"


def write_potentials(workdir: Path) -> None:
    (workdir / "potentials").mkdir(parents=True, exist_ok=True)
    for i, terms in enumerate(_potentials()):
        lines = [_GALERKIN_HEADER] + [f"{j} {q} {re!r} {im!r}" for j, q, re, im in terms]
        potential_path(workdir, i).write_text("\n".join(lines) + "\n", encoding="ascii")


def _galerkin_inv(workdir: Path, index: int, flags=_GALERKIN_FLAGS) -> Invocation:
    return _inv("galerkin", "--potential", potential_path(workdir, index), *flags,
                key=" ".join(("galerkin", f"pot{index}") + tuple(flags)))


def galerkin(rng: random.Random, workdir: Path) -> list[Invocation]:
    write_potentials(workdir)
    return [_galerkin_inv(workdir, i) for i in rng.sample(range(8), 4)]


# ---------------------------------------------------------------------------
# registry, pools and tiny variants
# ---------------------------------------------------------------------------

WORKLOADS = {"thm23": thm23, "series": series, "gapchain": gapchain, "galerkin": galerkin}

# Caches a fresh process pays before the first result of each workload.
SETUP_CODE = {
    "thm23": "from stripgaps.oscillation import critical_constants; critical_constants()",
    "series": "",
    "gapchain": "from stripgaps.oscillation import critical_constants; critical_constants()",
    "galerkin": "",
}


def invocations(name: str, seed: int, workdir: Path) -> list[Invocation]:
    return WORKLOADS[name](random.Random(seed), workdir)


def tiny(name: str, workdir: Path) -> list[Invocation]:
    """A small invocation list per workload, for the benchmark's own tests."""
    if name == "thm23":
        return [_inv("check-thm23", "--xi", 0.05, "--ell-min", 1, "--ell-max", 4,
                     "--grid", 2, "--tol", "1e-3"),
                _inv("phi-sup", "--xi", 0.02, "--ell", 4, "--tol", "1e-3")]
    if name == "series":
        phi = _inv("phi", "--xi", 0.3, "--ell", 2.5, "--p", 2, "--tol", "1e-2")
        return [phi, _inv("fourier", "--xi", 0.3, "--ell", 2.5, "--p", 2, pair=phi.key)]
    if name == "gapchain":
        return [_inv("bands", "--xi", 0.5, "--kmax", 30), _GAPCHAIN_FIXED[2]]
    write_potentials(workdir)
    return [_galerkin_inv(workdir, 0, ("--kmax", "2", "--grid", "3", "--format", "csv"))]


def pool(workdir: Path) -> list[Invocation]:
    """Every invocation any seed (or a tiny run) can generate."""
    out = []
    for groups in _thm23_pool().values():
        for group in groups.values():
            out += group
    for groups in _series_pool().values():
        for pairs in groups.values():
            for pair in pairs:
                out += pair
    out += [*_GAPCHAIN_FIXED, *_GAPCHAIN_CERTIFIED, *_GAPCHAIN_DECLINED]
    write_potentials(workdir)
    out += [_galerkin_inv(workdir, i) for i in range(8)]
    for name in WORKLOADS:
        out += tiny(name, workdir)
    return list({inv.key: inv for inv in out}.values())


def phi_points(invs: list[Invocation]) -> list[tuple[float, float]]:
    """(xi, ell) of every phi evaluation point the invocations ask about."""
    points = []
    for inv in invs:
        args = dict(zip(inv.argv[1::2], inv.argv[2::2]))
        if inv.argv[0] in ("phi", "phi-sup"):
            points.append((float(args["--xi"]), float(args["--ell"])))
        elif inv.argv[0] == "check-thm23":
            grid = np.linspace(float(args["--ell-min"]), float(args["--ell-max"]),
                               int(args["--grid"]))
            points += [(float(args["--xi"]), float(e)) for e in grid]
    return points


def resonant_share(invs: list[Invocation]) -> float:
    points = phi_points(invs)
    if not points:
        return 0.0
    return sum(is_resonant(xi, ell) for xi, ell in points) / len(points)
