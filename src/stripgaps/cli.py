"""Command-line entry points with deterministic, diff-able output.

Every run prints a metadata block of ``# key=value`` lines (tool, version,
command, canonical argument echo, seed, format) followed by either CSV (first
line names the columns) or a human-readable report of ``key = value`` lines.
Computed floating-point values are printed with 12 significant digits; no
timestamps or locale-dependent formatting enter the output, so identical
configurations produce byte-identical bytes.

Exit status contract: 0 on success, 1 on usage or validation errors, 2 when
the mathematics answers no (a certification condition fails or a checked
inequality is violated).

The ``sweep`` command re-runs an inner command over a parameter grid, in
parallel when requested; rows are emitted in grid order whatever the worker
count, and the worker count is deliberately excluded from the metadata echo,
keeping output bytes independent of it.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .fourier import a0_closed, ap_closed, residual_bound
from .galerkin import (
    band_functions,
    default_truncation,
    omega_bounds,
    read_potential_file,
    unperturbed_band_functions,
    verify_enclosure,
)
from .gaps import GapParams, PerturbBounds, gap_report
from .geometry import StripGeometry, resolve_geometry
from .oscillation import critical_constants, phi_p, phi_sup, uniform_lower_bound_check
from .spectrum import band_table, counting

__all__ = ["RunConfig", "SweepSpec", "build_parser", "main"]

# Ceiling on sweep cells, checked before any cell runs (like
# oscillation.MAX_TERMS).
MAX_SWEEP_STEPS = 10_000

_COMMANDS = (
    "constants",
    "count",
    "bands",
    "fourier",
    "phi",
    "phi-sup",
    "check-thm23",
    "gaps",
    "galerkin",
    "sweep",
)

# Flag order used when reconstructing the canonical argument echo.  Only
# flags the user actually supplied appear (all argparse defaults are None),
# so re-parsing the echo reproduces the namespace exactly.
_FLAG_ORDER = (
    "xi",
    "T",
    "d",
    "ell",
    "tau",
    "p",
    "tol",
    "cutoff_c1",
    "kmax",
    "grid",
    "ell_min",
    "ell_max",
    "omega_minus",
    "omega_plus",
    "omega_l",
    "c0",
    "gamma",
    "ell0",
    "low_points",
    "potential",
    "nmax",
    "mmax",
    "param",
    "start",
    "stop",
    "steps",
    "seed",
    "format",
)

_FLAG_SPELLING = {
    "T": "--T",
    "d": "--d",
    "cutoff_c1": "--cutoff-c1",
    "ell_min": "--ell-min",
    "ell_max": "--ell-max",
    "omega_minus": "--omega-minus",
    "omega_plus": "--omega-plus",
    "omega_l": "--omega-l",
    "low_points": "--low-points",
}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, explicit parameters, output, seed."""

    command: str
    parameters: tuple[tuple[str, object], ...]
    output: str
    seed: int

    def canonical_argv(self) -> list[str]:
        """Deterministic argument list reproducing this configuration.

        Floats are rendered with repr (exact round trip); the worker count is
        execution detail, never configuration, and is excluded upstream.
        """
        argv = [self.command]
        params = dict(self.parameters)
        for dest in _FLAG_ORDER:
            if dest not in params:
                continue
            flag = _FLAG_SPELLING.get(dest, "--" + dest.replace("_", "-"))
            value = params[dest]
            if isinstance(value, bool):
                argv.append(flag if value else "--no-" + flag[2:])
            else:
                argv.append(flag)
                argv.append(repr(value) if isinstance(value, float) else str(value))
        if "inner" in params:
            argv.append("--")
            argv.extend(params["inner"])
        return argv


@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep: parameter name, inclusive range, and the inner command."""

    parameter: str
    start: float
    stop: float
    steps: int
    inner: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.steps > MAX_SWEEP_STEPS:
            raise ValueError(
                f"{self.steps} sweep steps exceed the ceiling of {MAX_SWEEP_STEPS}"
            )
        if not self.start <= self.stop:
            raise ValueError(
                f"range start {self.start} must not exceed stop {self.stop}"
            )
        if not self.inner:
            raise ValueError("sweep needs an inner command after --")
        if self.inner[0] == "sweep":
            raise ValueError("sweep cannot nest another sweep")
        if self.inner[0] not in _COMMANDS:
            raise ValueError(f"unknown inner command {self.inner[0]!r}")

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.steps - 1)
        return [self.start + step * i for i in range(self.steps)]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1 (2 is reserved)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _fmt(value) -> str:
    """Render a value for output: floats at 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def build_parser() -> _Parser:
    parser = _Parser(prog="stripgaps", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--seed", type=int, default=None, help="echoed in metadata")
        p.add_argument(
            "--format", choices=("csv", "report"), default=None, help="output style"
        )
        return p

    def add_geometry(p: argparse.ArgumentParser) -> None:
        p.add_argument("--xi", type=float, default=None, help="aspect ratio T/d")
        p.add_argument("--T", type=float, default=None, help="half period")
        p.add_argument("--d", type=float, default=None, help="strip width")

    p = add("constants", "threshold constants of the small-ratio regime")
    p.add_argument("--xi", type=float, default=None, help="also report c0(xi)")

    p = add("count", "lattice counting function N0(ell, tau)")
    add_geometry(p)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)

    p = add("bands", "unperturbed band endpoints")
    add_geometry(p)
    p.add_argument("--kmax", type=int, default=None, help="bands to report (default 8)")

    p = add("fourier", "Fourier coefficient a_p of the counting function")
    add_geometry(p)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("phi", "oscillatory series phi_p(ell) with certified tail")
    add_geometry(p)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tol", type=float, default=None, help="tail tolerance (default 1e-4)")

    p = add("phi-sup", "sup over harmonics of |phi_p(ell)|")
    add_geometry(p)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--cutoff-c1", dest="cutoff_c1", type=float, default=None)

    p = add("check-thm23", "uniform lower bound sup_p |phi_p| >= c0(xi) - 2 tol")
    add_geometry(p)
    p.add_argument("--ell-min", dest="ell_min", type=float, default=None)
    p.add_argument("--ell-max", dest="ell_max", type=float, default=None)
    p.add_argument("--grid", type=int, default=None, help="energy grid points (default 100)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--cutoff-c1", dest="cutoff_c1", type=float, default=None)

    p = add("gaps", "gap certification report")
    add_geometry(p)
    p.add_argument("--omega-minus", dest="omega_minus", type=float, default=None)
    p.add_argument("--omega-plus", dest="omega_plus", type=float, default=None)
    p.add_argument(
        "--omega-l",
        dest="omega_l",
        type=float,
        default=None,
        help="shorthand for --omega-minus 0 --omega-plus VALUE",
    )
    p.add_argument("--c0", type=float, default=None, help="minorant constant")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--ell0", type=float, default=None)
    p.add_argument(
        "--ell-max",
        dest="ell_max",
        type=float,
        default=None,
        help="also build band enclosures up to this scaled energy",
    )
    p.add_argument(
        "--low-points",
        dest="low_points",
        type=int,
        default=None,
        help="low-energy verdict grid size (default 32)",
    )

    p = add("galerkin", "finite-basis bands and enclosure check for a potential")
    add_geometry(p)
    p.add_argument("--potential", required=True, help="potential file path")
    p.add_argument("--kmax", type=int, default=None, help="bands (default 6)")
    p.add_argument("--grid", type=int, default=None, help="tau grid size (default 17)")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--mmax", type=int, default=None)
    p.add_argument("--tol", type=float, default=None, help="enclosure slack (default 1e-6)")

    p = add("sweep", "re-run an inner command over a parameter grid")
    p.add_argument("--param", required=True, help="swept flag name, e.g. xi or ell")
    p.add_argument("--start", dest="start", type=float, required=True)
    p.add_argument("--stop", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--workers", type=int, default=None, help="parallel processes (default 1)"
    )
    p.add_argument(
        "inner",
        nargs=argparse.REMAINDER,
        help="inner command after --, e.g. -- phi-sup --ell 1",
    )
    return parser


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    output = ns.format if ns.format is not None else _default_format(ns.command)
    skip = {"command", "workers", "inner", "format"}
    params = []
    for dest in _FLAG_ORDER:
        if dest in skip or not hasattr(ns, dest):
            continue
        value = getattr(ns, dest)
        if value is not None:
            params.append((dest, value))
    # The resolved format always rides along (and seed when given), so the
    # canonical echo stays self-contained even for sweep, whose inner command
    # must remain the trailing section of the argument list.
    params.append(("format", output))
    inner = [t for t in getattr(ns, "inner", []) if t != "--"]
    if inner:
        params.append(("inner", tuple(inner)))
    return RunConfig(
        command=ns.command,
        parameters=tuple(params),
        output=output,
        seed=ns.seed if ns.seed is not None else 0,
    )


def _default_format(command: str) -> str:
    return "report" if command in ("constants", "gaps", "galerkin") else "csv"


def _meta(config: RunConfig) -> list[str]:
    return [
        "# tool=stripgaps",
        f"# version={__version__}",
        f"# command={config.command}",
        f"# argv={shlex.join(config.canonical_argv())}",
        f"# seed={config.seed}",
        f"# format={config.output}",
    ]


def _geometry(params: dict) -> StripGeometry:
    return resolve_geometry(
        xi=params.get("xi"), T=params.get("T"), d=params.get("d")
    )


def _table(meta: list[str], header: list[str], rows: list[list]) -> list[str]:
    lines = list(meta)
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return lines


def _report(meta: list[str], items: list[tuple[str, object]]) -> list[str]:
    return list(meta) + [f"{key} = {_fmt(value)}" for key, value in items]


def _emit(config: RunConfig, header: list[str], rows: list[list]) -> list[str]:
    """Render rows as CSV or as a report (one key = value block per row)."""
    meta = _meta(config)
    if config.output == "csv":
        return _table(meta, header, rows)
    lines = list(meta)
    for i, row in enumerate(rows):
        if i:
            lines.append("")
        lines.extend(f"{k} = {_fmt(v)}" for k, v in zip(header, row))
    return lines


def _cmd_constants(config: RunConfig, params: dict) -> tuple[int, list[str]]:
    cc = critical_constants()
    items: list[tuple[str, object]] = [
        ("c2", cc.c2),
        ("c1", cc.c1),
        ("xi_critical", cc.xi_critical),
        ("zeta32", cc.zeta32),
        ("beta_quarter_half", cc.beta_quarter_half),
    ]
    if "xi" in params:
        items.append(("c0", cc.c0(params["xi"])))
    if config.output == "csv":
        return 0, _table(_meta(config), ["name", "value"], [list(kv) for kv in items])
    return 0, _report(_meta(config), items)


def _cmd_count(config: RunConfig, params: dict) -> tuple[int, list[str]]:
    geom = _geometry(params)
    value = counting(geom, params["ell"], params["tau"])
    return 0, _emit(
        config,
        ["xi", "ell", "tau", "count"],
        [[geom.xi, params["ell"], params["tau"], value]],
    )


def _cmd_bands(config: RunConfig, params: dict) -> tuple[int, list[str]]:
    geom = _geometry(params)
    k_max = params.get("kmax", 8)
    scale = geom.T ** 2 / math.pi ** 2
    rows = [
        [b.k, b.lo, b.hi, b.lo * scale, b.hi * scale]
        for b in band_table(geom, k_max)
    ]
    return 0, _emit(
        config, ["k", "eta", "theta", "eta_scaled", "theta_scaled"], rows
    )


def _cmd_fourier(config: RunConfig, params: dict) -> tuple[int, list[str]]:
    geom = _geometry(params)
    ell, p = params["ell"], params["p"]
    if p == 0:
        value, bound = a0_closed(geom, ell), None
    else:
        value, bound = ap_closed(geom, ell, p), residual_bound(geom.xi, ell, p)
    return 0, _emit(
        config,
        ["xi", "ell", "p", "value", "residual_bound"],
        [[geom.xi, ell, p, value, bound]],
    )


def _cmd_phi(config: RunConfig, params: dict) -> tuple[int, list[str]]:
    geom = _geometry(params)
    ev = phi_p(geom, params["ell"], params["p"], tol=params.get("tol", 1e-4))
    return 0, _emit(
        config,
        ["xi", "ell", "p", "value", "tail_bound", "truncation_n"],
        [[geom.xi, ev.ell, ev.p, ev.value, ev.tail_bound, ev.truncation_n]],
    )


def _cmd_phi_sup(config: RunConfig, params: dict) -> tuple[int, list[str]]:
    geom = _geometry(params)
    res = phi_sup(
        geom,
        params["ell"],
        cutoff_c1=params.get("cutoff_c1", 3.0),
        tol=params.get("tol", 1e-4),
    )
    return 0, _emit(
        config,
        ["xi", "ell", "p_star", "value", "p_max", "cutoff_bound"],
        [[geom.xi, params["ell"], res.p_star, res.value, res.p_max, res.cutoff_bound]],
    )


def _cmd_check_thm23(config: RunConfig, params: dict) -> tuple[int, list[str]]:
    geom = _geometry(params)
    cc = critical_constants()
    if not geom.xi < cc.xi_critical:
        meta = _meta(config)
        lines = meta + [
            "verdict,margin",
            f"not-applicable,{_fmt(geom.xi - cc.xi_critical)}",
        ]
        if config.output == "report":
            lines = meta + [
                "verdict = not-applicable",
                f"xi_excess = {_fmt(geom.xi - cc.xi_critical)}",
            ]
        return 2, lines
    lo = params.get("ell_min", 1.0)
    hi = params.get("ell_max", 100.0)
    n = params.get("grid", 100)
    if n < 1:
        raise ValueError(f"grid must be >= 1, got {n}")
    if not 1.0 <= lo <= hi:
        raise ValueError(f"need 1 <= ell-min <= ell-max, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, n) if n > 1 else np.array([lo])
    report = uniform_lower_bound_check(
        geom,
        grid,
        tol=params.get("tol", 1e-4),
        cutoff_c1=params.get("cutoff_c1", 3.0),
    )
    rows = [
        [r.ell, r.p_star, r.value, report.c0 - 2 * report.tol, r.margin, r.ok]
        for r in report.rows
    ]
    status = 0 if report.all_ok else 2
    return status, _emit(
        config, ["ell", "p_star", "value", "threshold", "margin", "ok"], rows
    )


def _resolve_bounds(params: dict) -> PerturbBounds:
    has_pair = "omega_minus" in params or "omega_plus" in params
    if "omega_l" in params:
        if has_pair:
            raise ValueError(
                "--omega-l cannot be combined with --omega-minus/--omega-plus"
            )
        return PerturbBounds(0.0, params["omega_l"])
    return PerturbBounds(
        params.get("omega_minus", 0.0), params.get("omega_plus", 0.0)
    )


def _cmd_gaps(config: RunConfig, params: dict) -> tuple[int, list[str]]:
    geom = _geometry(params)
    bounds = _resolve_bounds(params)
    cc = critical_constants()
    if "c0" in params:
        gp = GapParams(
            c0=params["c0"],
            gamma=params.get("gamma", 0.0),
            ell0=params.get("ell0", 1.0),
        )
    elif geom.xi < cc.xi_critical:
        gp = GapParams.from_small_ratio(geom.xi)
    else:
        raise ValueError(
            f"xi={geom.xi} is not below the critical ratio {cc.xi_critical:.7f}; "
            "supply --c0 (and optionally --gamma, --ell0)"
        )
    rep = gap_report(geom, bounds, gp, params.get("ell_max"), params.get("low_points", 32))
    verdict = rep.conditions
    items: list[tuple[str, object]] = [
        ("xi", geom.xi),
        ("T", geom.T),
        ("d", geom.d),
        ("omega_minus", bounds.omega_minus),
        ("omega_plus", bounds.omega_plus),
        ("omega_L", bounds.omega_L),
        ("scaled_oscillation", verdict.scaled_oscillation),
        ("xi_critical", cc.xi_critical),
        ("xi_subcritical", verdict.xi_subcritical),
        ("low_energy_budget", verdict.low_energy_budget),
        ("low_energy_ok", verdict.low_energy_ok),
        ("gapless_margin", verdict.gapless_margin),
        ("gapless_ok", verdict.gapless_ok),
        ("first_band_ok", verdict.first_band_ok),
        ("c0", gp.c0),
        ("gamma", gp.gamma),
        ("ell0", gp.ell0),
        ("ell_star", rep.ell_star),
        ("ell1", rep.ell1),
        ("low_spectrum_points", len(rep.low_spectrum)),
    ]
    if rep.low_spectrum:
        items.append(
            ("low_spectrum_all_positive", all(c.positive for c in rep.low_spectrum))
        )
        items.append(
            ("low_spectrum_min_difference", min(c.difference for c in rep.low_spectrum))
        )
    undecided_lines: list[str] = []
    if "ell_max" in params:
        items.append(("bands", len(rep.bands)))
        items.append(("candidate_windows", len(rep.candidate_gaps)))
        items.append(
            ("certified_absent", sum(g.certified_absent for g in rep.candidate_gaps))
        )
        items.append(("undecided", len(rep.undecided)))
        for g in rep.undecided[:20]:
            undecided_lines.append(
                f"undecided_window_{g.k} = ({_fmt(g.lo)}, {_fmt(g.hi)})"
            )
    items.append(
        ("verdict", "gapless-certified" if verdict.all_gapless else "not-certified")
    )
    status = 0 if verdict.all_gapless else 2
    if config.output == "csv":
        return status, _table(
            _meta(config), ["key", "value"], [list(kv) for kv in items]
        )
    return status, _report(_meta(config), items) + undecided_lines


def _cmd_galerkin(config: RunConfig, params: dict) -> tuple[int, list[str]]:
    file_geom, potential = read_potential_file(params["potential"])
    if any(k in params for k in ("xi", "T", "d")):
        given = _geometry(params)
        if (
            abs(given.T - file_geom.T) > 1e-9 * file_geom.T
            or abs(given.d - file_geom.d) > 1e-9 * file_geom.d
        ):
            raise ValueError(
                f"geometry flags {given} conflict with potential file header {file_geom}"
            )
    geom = file_geom
    k_max = params.get("kmax", 6)
    grid_n = params.get("grid", 17)
    tol = params.get("tol", 1e-6)
    if "nmax" in params or "mmax" in params:
        if not ("nmax" in params and "mmax" in params):
            raise ValueError("--nmax and --mmax must be given together")
        truncation = (params["nmax"], params["mmax"])
    else:
        truncation = default_truncation(geom, k_max)
    tau_grid = [-0.5 + (i + 1) / grid_n for i in range(grid_n)]
    bands0 = unperturbed_band_functions(geom, tau_grid, k_max)
    bands = band_functions(geom, potential, tau_grid, k_max, truncation)
    enclosure = omega_bounds(geom, potential)
    check = verify_enclosure(bands, bands0, enclosure, tol=tol)
    summary: list[tuple[str, object]] = [
        ("xi", geom.xi),
        ("T", geom.T),
        ("d", geom.d),
        ("terms", len(potential.terms)),
        ("n_max", truncation[0]),
        ("m_max", truncation[1]),
        ("k_max", k_max),
        ("tau_points", grid_n),
        ("max_drift_reference", bands0.max_drift),
        ("max_drift_perturbed", bands.max_drift),
        ("omega_minus", enclosure.omega_minus),
        ("omega_plus", enclosure.omega_plus),
        ("omega_inflation", enclosure.inflation),
        ("worst_margin", check.worst_margin),
        ("enclosure_ok", check.ok),
    ]
    status = 0 if check.ok else 2
    if config.output == "report":
        return status, _report(_meta(config), summary)
    lines = _meta(config)
    lines.extend(f"# {key}={_fmt(value)}" for key, value in summary)
    lines.append("tau,k,energy0,energy")
    for i, tau in enumerate(bands.tau_grid):
        for k in range(1, k_max + 1):
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (tau, k, bands0.energies[i, k - 1], bands.energies[i, k - 1])
                )
            )
    return status, lines


def _error_text(exc: Exception) -> str:
    """Message for a refused invocation; float overflow means out-of-range inputs."""
    if isinstance(exc, OverflowError):
        detail = exc.args[-1] if exc.args else "overflow"
        return f"inputs out of floating-point range ({detail})"
    return str(exc)


def _sweep_cell(argv: list[str]) -> tuple[int, list[str]]:
    """Run one inner invocation; never raises (failures become status 1)."""
    try:
        return _run_argv(argv)
    except (ValueError, OverflowError) as exc:
        return 1, [f"# error={_error_text(exc)}"]


def _cmd_sweep(config: RunConfig, params: dict, workers: int) -> tuple[int, list[str]]:
    spec = SweepSpec(
        parameter=params["param"],
        start=params["start"],
        stop=params["stop"],
        steps=params["steps"],
        inner=tuple(params.get("inner", ())),
    )
    flag = "--" + spec.parameter.replace("_", "-")
    cells = [
        list(spec.inner) + [flag, repr(v), "--format", "csv"] for v in spec.values()
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(argv) for argv in cells]
    header: str | None = None
    for status, lines in results:
        if status == 0:
            data = [l for l in lines if not l.startswith("#")]
            if data:
                header = data[0]
                break
    width = len(header.split(",")) if header else 0
    out = _meta(config)
    out.append(
        ",".join([spec.parameter, "status"] + (header.split(",") if header else []))
    )
    for value, (status, lines) in zip(spec.values(), results):
        prefix = [_fmt(value), str(status)]
        if status != 0:
            out.append(",".join(prefix + [""] * width))
            continue
        data = [l for l in lines if not l.startswith("#")]
        for row in data[1:]:
            out.append(",".join(prefix) + "," + row)
    statuses = [status for status, _ in results]
    overall = 0 if all(s == 0 for s in statuses) else (2 if 2 in statuses else 1)
    return overall, out


def _run_argv(argv: list[str]) -> tuple[int, list[str]]:
    """Parse and dispatch one invocation, returning (status, output lines)."""
    ns = build_parser().parse_args(argv)
    config = _config_from_namespace(ns)
    params = dict(config.parameters)
    if ns.command == "sweep":
        workers = ns.workers if ns.workers is not None else 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return _cmd_sweep(config, params, workers)
    handler = {
        "constants": _cmd_constants,
        "count": _cmd_count,
        "bands": _cmd_bands,
        "fourier": _cmd_fourier,
        "phi": _cmd_phi,
        "phi-sup": _cmd_phi_sup,
        "check-thm23": _cmd_check_thm23,
        "gaps": _cmd_gaps,
        "galerkin": _cmd_galerkin,
    }[ns.command]
    return handler(config, params)


def main(argv: list[str] | None = None) -> int:
    try:
        status, lines = _run_argv(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {_error_text(exc)}\n")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
