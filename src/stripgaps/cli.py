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

One table, ``COMMANDS``, declares every command: its handler, help line,
default output format and flags.  The parser, the canonical echo, the
defaults each handler sees and the dispatch are all generated from it.
One parse (``_parse``) yields the flags given and the handler's options.
Each handler returns its status and a table (``_Table``), which
``_run_argv`` renders once, below the metadata block.  One spelling
(``_spell``) writes every value of the echo and of sweep's cells, and it
parses back to the same value: a float's exact repr, with negative numbers
in exponent form (-1e-05, -1.5e+16) and -inf read as values, not options.
So replaying the ``# argv=`` echo reproduces stdout byte for byte.  Handlers
render verdicts the library decides (check-thm23's applicability, the
``galerkin.zone_grid`` tau grid); non-finite numbers and numbers beyond
float resolution are refused with exit 1 and a message naming them.

Each invocation builds the parser of the command it names only (all of
them when it names none, so help and the invalid-choice message list every
command); the fixed cost of a call is then one command's flags.

The ``sweep`` command runs an inner command over a parameter grid.  It
parses the inner command once, at the first value, and calls its handler per
cell on those options with the swept value replaced; an inner command that
does not parse prints its usage error once and fails every cell.  Cells run
in parallel when requested (the process pool is imported only then, and holds
at most one process per cell and per core); rows are emitted in grid order
whatever the worker count, and the worker count is deliberately excluded from
the metadata echo, keeping output bytes independent of it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import shlex
import sys
from typing import Callable, NamedTuple

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
    zone_grid,
)
from .gaps import GapParams, PerturbBounds, ell1_threshold, gap_report
from .geometry import StripGeometry, resolve_geometry
from .oscillation import critical_constants, phi_p, phi_sup, uniform_lower_bound_check
from .spectrum import band_edges, counting

__all__ = ["main"]

# Ceilings checked before any cell or grid point is allocated (like
# oscillation.MAX_TERMS): sweep cells, and the points of check-thm23's energy
# grid and galerkin's tau grid.
MAX_SWEEP_STEPS = 10_000
MAX_GRID = 10_000
# The flag giving a command's grid size, capped by MAX_GRID; inside a sweep,
# steps times that size is capped.
_GRID_FLAG = "grid"

_REQUIRED = object()


class _Flag(NamedTuple):
    """One option: ``--dest`` (underscores as dashes), parsed by type.

    default is filled into the handler's options when the flag is absent;
    None leaves it absent, _REQUIRED makes it mandatory.  Flags with echo
    False (execution detail) stay out of the canonical echo.
    """

    dest: str
    type: Callable
    default: object = None
    help: str = ""
    echo: bool = True

    @property
    def spelling(self) -> str:
        return "--" + self.dest.replace("_", "-")


class _Command(NamedTuple):
    handler: Callable
    help: str
    flags: tuple[_Flag, ...]  # in echo order, --seed and --format last
    arguments: tuple[tuple[str, dict], ...]  # the flags' add_argument calls


def _command(handler: Callable, help_: str, fmt: str, flags: tuple) -> _Command:
    """A table row: the command's own flags, then the two every command takes
    (fmt is the command's default output format).

    The add_argument calls are derived here, once, so that building the parser
    on every invocation costs what a hand-written parser costs.
    """
    flags += (
        _Flag("seed", int, 0, "echoed in metadata"),
        _Flag("format", str, fmt, "output style, csv or report"),
    )
    arguments = []
    for flag in flags:
        required = flag.default is _REQUIRED
        shown = "" if required or flag.default is None else f" (default {_fmt(flag.default)})"
        arguments.append((flag.spelling, dict(
            type=flag.type, required=required, help=flag.help + shown,
            choices=("csv", "report") if flag.dest == "format" else None)))
    return _Command(handler, help_, flags, tuple(arguments))


class _Table(NamedTuple):
    """What a command prints: a CSV header and rows; the report's (key,
    value) items, or None to print each row as a block; and notes, (key,
    value) items printed as ``# key=value`` lines above the CSV header."""

    header: list[str]
    rows: list
    report: list | None = None
    notes: list | tuple = ()


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1 (2 is reserved), and
    usage and help wrapped at 78 columns whatever the terminal width."""

    def _get_formatter(self) -> argparse.HelpFormatter:
        return argparse.HelpFormatter(self.prog, width=78)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _spell(value) -> str:
    """Argv text that parses back to value (str of a float is its exact repr)."""
    return str(value)


def _fmt(value) -> str:
    """Render a value for output: floats at 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render(table: _Table, fmt: str) -> list[str]:
    """CSV (notes, header and rows) or a report.

    A report prints the ``(key, value)`` items of table.report, or without
    them each row as a block of ``header = value`` lines, blocks separated
    by a blank line.
    """
    if fmt == "csv":
        lines = [f"# {key}={_fmt(value)}" for key, value in table.notes]
        lines.append(",".join(table.header))
        lines.extend(",".join(_fmt(v) for v in row) for row in table.rows)
        return lines
    lines = []
    blocks = ([table.report] if table.report is not None
              else [zip(table.header, row) for row in table.rows])
    for i, items in enumerate(blocks):
        if i:
            lines.append("")
        lines.extend(f"{key} = {_fmt(value)}" for key, value in items)
    return lines


def _geometry(params: dict) -> StripGeometry:
    return resolve_geometry(
        xi=params.get("xi"), T=params.get("T"), d=params.get("d")
    )


def _grid(params: dict) -> int:
    """Grid size of the grid flag, failing closed outside [1, MAX_GRID]."""
    n = params[_GRID_FLAG]
    if n < 1:
        raise ValueError(f"{_GRID_FLAG} must be >= 1, got {n}")
    if n > MAX_GRID:
        raise ValueError(f"--{_GRID_FLAG} {n} exceeds the ceiling of {MAX_GRID} points")
    return n


def _cmd_constants(params: dict) -> tuple[int, _Table]:
    cc = critical_constants()
    items: list[tuple[str, object]] = [
        ("c2", cc.c2),
        ("c1", cc.c1),
        ("xi_critical", cc.xi_critical),
        ("zeta32", cc.zeta32),
        ("beta_quarter_half", cc.beta_quarter_half),
    ]
    if "xi" in params:
        c0 = cc.c0(params["xi"])
        if not c0 > 0.0:
            raise ValueError(f"c0(xi) = {c0:.6g} at xi = {params['xi']} is not positive "
                             f"(xi_critical = {cc.xi_critical:.12g}): no certified constant")
        items.append(("c0", c0))
    return 0, _Table(["name", "value"], items, items)


def _cmd_count(params: dict) -> tuple[int, _Table]:
    geom = _geometry(params)
    value = counting(geom.xi, params["ell"], params["tau"])
    return 0, _Table(["xi", "ell", "tau", "count"],
                     [[geom.xi, params["ell"], params["tau"], value]])


def _cmd_bands(params: dict) -> tuple[int, _Table]:
    geom = _geometry(params)
    lo, hi = band_edges(geom.xi, params["kmax"])
    scale = math.pi * math.pi / (geom.T * geom.T)
    rows = [
        [k, scale * a, scale * b, a, b]
        for k, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()), start=1)
    ]
    return 0, _Table(["k", "eta", "theta", "eta_scaled", "theta_scaled"], rows)


def _cmd_fourier(params: dict) -> tuple[int, _Table]:
    geom = _geometry(params)
    ell, p = params["ell"], params["p"]
    if p < 0:
        raise ValueError(f"harmonic index must be >= 0, got {p}")
    if p == 0:
        value, bound = a0_closed(geom.xi, ell), None
    else:
        value, bound = ap_closed(geom.xi, ell, p), residual_bound(geom.xi, ell, p)
    return 0, _Table(["xi", "ell", "p", "value", "residual_bound"],
                     [[geom.xi, ell, p, value, bound]])


def _cmd_phi(params: dict) -> tuple[int, _Table]:
    geom = _geometry(params)
    ev = phi_p(geom.xi, params["ell"], params["p"], tol=params["tol"])
    return 0, _Table(["xi", "ell", "p", "value", "tail_bound", "truncation_n"],
                     [[geom.xi, ev.ell, ev.p, ev.value, ev.tail_bound, ev.truncation_n]])


def _cmd_phi_sup(params: dict) -> tuple[int, _Table]:
    geom = _geometry(params)
    res = phi_sup(geom.xi, params["ell"], cutoff_c1=params["cutoff_c1"], tol=params["tol"])
    row = [geom.xi, params["ell"], res.p_star, res.value, res.p_max, res.cutoff_bound]
    return 0, _Table(["xi", "ell", "p_star", "value", "p_max", "cutoff_bound"], [row])


def _cmd_check_thm23(params: dict) -> tuple[int, _Table]:
    geom = _geometry(params)
    lo, hi, n = params["ell_min"], params["ell_max"], _grid(params)
    if not 1.0 <= lo <= hi:
        raise ValueError(f"need 1 <= ell-min <= ell-max, got [{lo}, {hi}]")
    if hi == math.inf:
        raise ValueError("ell-max must be finite, got inf")
    grid = np.linspace(lo, hi, n) if n > 1 else np.array([lo])
    report = uniform_lower_bound_check(
        geom.xi, grid, tol=params["tol"], cutoff_c1=params["cutoff_c1"]
    )
    if report.c0 is None:
        return 2, _Table(["verdict", "margin"], [["not-applicable", report.xi_excess]],
                         [("verdict", "not-applicable"), ("xi_excess", report.xi_excess)])
    rows = [
        [r.ell, r.p_star, r.value, report.threshold, r.margin, r.ok]
        for r in report.rows
    ]
    status = 0 if report.all_ok else 2
    return status, _Table(["ell", "p_star", "value", "threshold", "margin", "ok"], rows)


def _cmd_gaps(params: dict) -> tuple[int, _Table]:
    geom = _geometry(params)
    bounds = PerturbBounds(**{k: params[k] for k in ("omega_minus", "omega_plus") if k in params})
    minorant = {k: params[k] for k in ("c0", "gamma", "ell0") if k in params}
    if minorant and "c0" not in minorant:
        raise ValueError(f"--c0 is required with {' and '.join('--' + k for k in minorant)}")
    gp = GapParams(**minorant) if minorant else GapParams.from_small_ratio(geom.xi)
    # the chain takes scaled bounds and returns a scaled ell1 and windows
    to_scaled, to_energy = geom.T ** 2 / math.pi ** 2, math.pi ** 2 / geom.T ** 2
    w = (to_scaled * bounds.omega_minus, to_scaled * bounds.omega_plus)
    if not math.isfinite(w[1] - w[0]):
        raise OverflowError(f"the scaled bounds (T^2/pi^2) (omega_minus, omega_plus) = {w} "
                            f"overflow at T = {geom.T}")
    scaled = PerturbBounds(*w)
    ell1 = to_energy * ell1_threshold(geom.xi, gp, scaled)  # refused before any band work
    if not math.isfinite(ell1):
        raise OverflowError(f"threshold ell1 = {ell1} at scaled oscillation {scaled.omega_L}")
    rep = gap_report(geom.xi, scaled, gp, params.get("ell_max"))
    verdict = rep.conditions
    items: list[tuple[str, object]] = [
        ("xi", geom.xi),
        ("T", geom.T),
        ("d", geom.d),
        ("omega_minus", bounds.omega_minus),
        ("omega_plus", bounds.omega_plus),
        ("omega_L", bounds.omega_L),
        ("scaled_oscillation", verdict.scaled_oscillation),
        ("xi_critical", critical_constants().xi_critical),
        ("xi_subcritical", verdict.xi_subcritical),
        ("low_energy_budget", verdict.low_energy_budget),
        ("low_energy_ok", verdict.low_energy_ok),
        ("gapless_margin", verdict.gapless_margin),
        ("gapless_ok", verdict.gapless_ok),
        ("first_band_ok", verdict.first_band_ok),
        ("c0", gp.c0),
        ("gamma", gp.gamma),
        ("ell0", gp.ell0),
        ("ell_star", verdict.ell_star),
        ("ell1", ell1),
    ]
    windows: list[tuple[str, str]] = []
    if "ell_max" in params:
        pairs, undecided = rep.candidate_gaps, rep.undecided
        shown = undecided[:20]
        items.append(("bands", rep.band_count))
        items.append(("candidate_windows", len(pairs)))
        items.append(("certified_absent", len(pairs) - undecided.size))
        items.append(("undecided", undecided.size))
        energy = [(i, to_energy * a, to_energy * b) for i, a, b in
                  zip(shown.tolist(), pairs.lo[shown].tolist(), pairs.hi[shown].tolist())]
        if not all(math.isfinite(a) and math.isfinite(b) for _, a, b in energy):
            raise OverflowError(f"an undecided window overflows in energy at T = {geom.T}")
        windows = [(f"undecided_window_{i + 1}", f"({_fmt(a)}, {_fmt(b)})") for i, a, b in energy]
    items.append(
        ("verdict", "gapless-certified" if verdict.all_gapless else "not-certified")
    )
    status = 0 if verdict.all_gapless else 2
    return status, _Table(["key", "value"], items, items + windows)


def _cmd_galerkin(params: dict) -> tuple[int, _Table]:
    geom, potential = read_potential_file(params["potential"])
    k_max = params["kmax"]
    tau_grid = zone_grid(_grid(params))
    if ("nmax" in params) != ("mmax" in params):
        raise ValueError("--nmax and --mmax must be given together")
    truncation = ((params["nmax"], params["mmax"]) if "nmax" in params
                  else default_truncation(geom.xi, k_max))
    bands0 = unperturbed_band_functions(geom, tau_grid, k_max)
    enclosure = omega_bounds(geom, potential)
    bands = band_functions(geom, potential, tau_grid, k_max, truncation, enclosure)
    check = verify_enclosure(bands, bands0, enclosure)
    summary: list[tuple[str, object]] = [
        ("xi", geom.xi),
        ("T", geom.T),
        ("d", geom.d),
        ("terms", len(potential.terms)),
        ("n_max", truncation[0]),
        ("m_max", truncation[1]),
        ("k_max", k_max),
        ("tau_points", len(tau_grid)),
        ("max_enclosure_width", bands.max_enclosure_width),
        ("omega_minus", enclosure.omega_minus),
        ("omega_plus", enclosure.omega_plus),
        ("omega_inflation", enclosure.inflation),
        ("worst_margin", check.worst_margin),
        ("enclosure_ok", check.ok),
    ]
    if not check.ok:
        summary.append(("failing", f"band {check.band} tau {_fmt(check.tau)} "
                                   f"{check.side} margin {_fmt(check.worst_margin)}"))
    status = 0 if check.ok else 2
    rows = [
        [tau, k, bands0.energies[i, k - 1], bands.lower[i, k - 1], bands.energies[i, k - 1]]
        for i, tau in enumerate(bands.tau_grid)
        for k in range(1, k_max + 1)
    ]
    # the summary rides along as notes above the band values
    return status, _Table(
        ["tau", "k", "energy0", "energy_lower", "energy"], rows, summary, summary)


def _sweep_cell(cell: tuple[str, dict]) -> tuple[int, _Table | None]:
    """One inner handler call; never raises (a failure is status 1, no table)."""
    name, params = cell
    try:
        return COMMANDS[name].handler(params)
    except (ValueError, OverflowError):
        return 1, None


def _cmd_sweep(params: dict) -> tuple[int, _Table]:
    name, start, stop, steps = (params[k] for k in ("param", "start", "stop", "steps"))
    inner = params["inner"]
    if params["workers"] < 1:
        raise ValueError(f"workers must be >= 1, got {params['workers']}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        raise ValueError(f"{steps} sweep steps exceed the ceiling of {MAX_SWEEP_STEPS}")
    if not start <= stop:
        raise ValueError(f"range start {start} must not exceed stop {stop}")
    if not math.isfinite(stop - start):
        raise ValueError(f"range [{start}, {stop}] must be finite")
    if not inner:
        raise ValueError("sweep needs an inner command after --")
    if inner[0] == "sweep":
        raise ValueError("sweep cannot nest another sweep")
    if inner[0] not in COMMANDS:
        raise ValueError(f"unknown inner command {inner[0]!r}")
    step = (stop - start) / (steps - 1) if steps > 1 else 0.0
    values = [start + step * i for i in range(steps)] if steps > 1 else [start]
    # The swept flag is resolved once, as argparse resolves it: the exact
    # spelling (dest with underscores as dashes), else the one flag it
    # abbreviates.  A name that resolves to none or several keeps its own
    # spelling and a float type, and the inner parse then fails.
    flags = COMMANDS[inner[0]].flags
    swept = _Flag(name, float)
    matches = ([f for f in flags if f.spelling == swept.spelling]
               or [f for f in flags if f.spelling.startswith(swept.spelling)])
    if len(matches) == 1:
        swept = matches[0]
    kind, flag = swept.type, swept.spelling
    if kind is int:
        bad = next((v for v in values if not v.is_integer()), None)
        if bad is not None:
            raise ValueError(f"{flag} takes integers, but the sweep reaches {bad!r}")
    if swept.dest == _GRID_FLAG and swept in flags:
        # the swept flag is the grid size itself: every cell counts
        points = sum(max(int(v), 0) for v in values)
        if points > MAX_GRID:
            raise ValueError(
                f"{steps} sweep steps of {flag} ask for {points} {inner[0]} "
                f"points, over the ceiling of {MAX_GRID} points")
    # One parse of the inner command, at the first value.  When it fails, its
    # usage error (or help) is printed once and every cell fails.
    try:
        base = _parse(inner + [flag, _spell(kind(values[0]))])[2]
    except SystemExit:
        base = None
    if base is None:
        results = [(1, None)] * steps
    else:
        # cells differ only in the swept value, so the first one tells how
        # many grid points every cell asks for
        if swept.dest != _GRID_FLAG and steps * base.get(_GRID_FLAG, 0) > MAX_GRID:
            raise ValueError(
                f"{steps} sweep steps x {base[_GRID_FLAG]} {inner[0]} points exceed the "
                f"ceiling of {MAX_GRID} points")
        # a spelled value parses back to itself: a cell is the parsed options
        # with the swept flag set to the value argparse reads from its spelling
        cells = [(inner[0], {**base, swept.dest: kind(v)}) for v in values]
        # the pool starts all its processes at once: no more than cells or cores
        workers = min(params["workers"], steps, os.cpu_count() or 1)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_cell, cells))
        else:
            results = [_sweep_cell(cell) for cell in cells]
    # the header of the first answered cell, else of the first with a table;
    # a cell keeps its rows, declined or not, when its table has it
    inner_header = next(
        (table.header for status, table in results if status == 0 and table),
        next((table.header for _, table in results if table), []),
    )
    rows = []
    for value, (status, table) in zip(values, results):
        if table and table.header == inner_header:
            rows.extend([value, status, *row] for row in table.rows)
        else:
            rows.append([value, status] + [""] * len(inner_header))
    statuses = [status for status, _ in results]
    overall = 0 if all(s == 0 for s in statuses) else (2 if 2 in statuses else 1)
    return overall, _Table([name, "status"] + inner_header, rows)


_GEOMETRY = (
    _Flag("xi", float, None, "aspect ratio T/d"),
    _Flag("T", float, None, "half period"),
    _Flag("d", float, None, "strip width"),
)
_TOL = _Flag("tol", float, 1e-4, "tail tolerance")
_CUTOFF = _Flag("cutoff_c1", float, 3.0, "harmonic cutoff constant")

COMMANDS: dict[str, _Command] = {
    "constants": _command(
        _cmd_constants, "threshold constants of the small-ratio regime", "report", (
            _Flag("xi", float, None, "also report c0(xi)"),
        )),
    "count": _command(
        _cmd_count, "lattice counting function N0(ell, tau)", "csv", (
            *_GEOMETRY,
            _Flag("ell", float, _REQUIRED),
            _Flag("tau", float, _REQUIRED),
        )),
    "bands": _command(
        _cmd_bands, "unperturbed band endpoints", "csv", (
            *_GEOMETRY,
            _Flag("kmax", int, 8, "bands to report"),
        )),
    "fourier": _command(
        _cmd_fourier, "Fourier coefficient a_p of the counting function", "csv", (
            *_GEOMETRY,
            _Flag("ell", float, _REQUIRED),
            _Flag("p", int, _REQUIRED),
        )),
    "phi": _command(
        _cmd_phi, "oscillatory series phi_p(ell) with certified tail", "csv", (
            *_GEOMETRY,
            _Flag("ell", float, _REQUIRED),
            _Flag("p", int, _REQUIRED),
            _TOL,
        )),
    "phi-sup": _command(
        _cmd_phi_sup, "sup over harmonics of |phi_p(ell)|", "csv", (
            *_GEOMETRY,
            _Flag("ell", float, _REQUIRED),
            _TOL,
            _CUTOFF,
        )),
    "check-thm23": _command(
        _cmd_check_thm23, "uniform lower bound sup_p |phi_p| >= c0(xi) - 2 tol", "csv", (
            *_GEOMETRY,
            _TOL,
            _CUTOFF,
            _Flag("grid", int, 100, f"energy grid points, at most {MAX_GRID}"),
            _Flag("ell_min", float, 1.0, "lowest scaled energy"),
            _Flag("ell_max", float, 100.0, "highest scaled energy"),
        )),
    "gaps": _command(
        _cmd_gaps, "gap certification report", "report", (
            *_GEOMETRY,
            _Flag("ell_max", float, None, "also build band enclosures up to this scaled energy"),
            _Flag("omega_minus", float, None, "infimum omega_- of the perturbation"),
            _Flag("omega_plus", float, None, "supremum omega_+ of the perturbation"),
            _Flag("c0", float, None, "minorant constant"),
            _Flag("gamma", float, None, "minorant decay exponent, with --c0 (default 0)"),
            _Flag("ell0", float, None, "minorant base energy, with --c0 (default 1)"),
        )),
    "galerkin": _command(
        _cmd_galerkin, "finite-basis bands and enclosure check for a potential", "report", (
            _Flag("kmax", int, 6, "bands"),
            _Flag("grid", int, 17, f"tau grid size, at most {MAX_GRID}"),
            _Flag("potential", str, _REQUIRED, "potential file path"),
            _Flag("nmax", int, None, "longitudinal truncation, with --mmax"),
            _Flag("mmax", int, None, "transverse truncation, with --nmax"),
        )),
    "sweep": _command(
        _cmd_sweep, "re-run an inner command over a parameter grid", "csv", (
            _Flag("param", str, _REQUIRED, "swept flag name, e.g. xi or ell"),
            _Flag("start", float, _REQUIRED),
            _Flag("stop", float, _REQUIRED),
            _Flag("steps", int, _REQUIRED, f"grid points, at most {MAX_SWEEP_STEPS}"),
            _Flag("workers", int, 1, "parallel processes", echo=False),
        )),
}


def _parser(argv: list[str]) -> _Parser:
    """The parser for argv: the subparser of the command argv[0] names only,
    or all of them when it names none (no arguments, -h, an unknown name)."""
    parser = _Parser(prog="stripgaps", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in argv[:1] if argv and argv[0] in COMMANDS else COMMANDS:
        command = COMMANDS[name]
        p = sub.add_parser(name, help=command.help, description=command.help,
                           argument_default=argparse.SUPPRESS)
        # every negative number _spell writes is a value, not an unknown
        # option (argparse alone knows -5 and -0.5, not -1e-05 or -inf)
        p._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf)$", re.I)
        for spelling, kwargs in command.arguments:
            p.add_argument(spelling, **kwargs)
        if name == "sweep":
            p.add_argument("inner", nargs=argparse.REMAINDER,
                           help="inner command after --, e.g. -- phi-sup --ell 1")
    return parser


def _parse(argv: list[str]) -> tuple[str, dict, dict]:
    """(command, flags given, handler options: the given flags over the defaults)."""
    parser = _parser(argv)
    namespace, extra = parser.parse_known_args(argv)
    if extra:
        # reported by the command's own parser, whose usage lists its flags
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        sub.choices[namespace.command].error(f"unrecognized arguments: {' '.join(extra)}")
    given = vars(namespace)
    name = given.pop("command")
    params = {f.dest: f.default for f in COMMANDS[name].flags
              if f.default not in (None, _REQUIRED)}
    params.update(given)
    if name == "sweep" and params["inner"][:1] == ["--"]:
        params["inner"] = params["inner"][1:]
    return name, given, params


def _run_argv(argv: list[str]) -> tuple[int, list[str]]:
    """Parse and dispatch one invocation, returning (status, output lines)."""
    name, given, params = _parse(argv)
    command = COMMANDS[name]
    # The canonical echo: every flag the user supplied, in table order, and
    # the resolved format always, so re-parsing it reproduces the options;
    # sweep's inner command stays the trailing section.
    echo = [name]
    for f in command.flags:
        if f.echo and (f.dest in given or f.dest == "format"):
            echo += [f.spelling, _spell(params[f.dest])]
    if params.get("inner"):
        echo += ["--", *params["inner"]]
    status, table = command.handler(params)
    return status, [
        "# tool=stripgaps",
        f"# version={__version__}",
        f"# command={name}",
        f"# argv={shlex.join(echo)}",
        f"# seed={params['seed']}",
        f"# format={params['format']}",
        *_render(table, params["format"]),
    ]


def main(argv: list[str] | None = None) -> int:
    try:
        status, lines = _run_argv(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OverflowError as exc:
        detail = exc.args[-1] if exc.args else "overflow"
        sys.stderr.write(f"error: inputs out of floating-point range ({detail})\n")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
