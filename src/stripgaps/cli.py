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
One parse (``_parse``) yields the flags given and the handler's options;
``sweep`` also uses it to count a cell's grid points.  One spelling
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

The ``sweep`` command re-runs an inner command over a parameter grid, in
parallel when requested (the process pool is imported only then, and holds
at most one process per cell and per core); rows are emitted in grid order
whatever the worker count, and the worker count is deliberately excluded from
the metadata echo, keeping output bytes independent of it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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
from .gaps import GapParams, PerturbBounds, gap_report
from .geometry import StripGeometry, resolve_geometry
from .oscillation import critical_constants, phi_p, phi_sup, uniform_lower_bound_check
from .spectrum import band_edges, counting

__all__ = ["main"]

# Ceilings checked before any cell or grid point is allocated (like
# oscillation.MAX_TERMS): sweep cells, and the points of check-thm23's energy
# grid, galerkin's tau grid and gaps' low-energy grid.
MAX_SWEEP_STEPS = 10_000
MAX_GRID = 10_000
# The flag giving each command's grid size, capped by MAX_GRID; inside a
# sweep, steps times that size is capped.
_GRID_FLAG = {"check-thm23": "grid", "galerkin": "grid", "gaps": "low_points"}

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


class _Output(NamedTuple):
    """Resolved output style and the metadata block that heads it."""

    fmt: str
    meta: list[str]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1 (2 is reserved)."""

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


def _render(out: _Output, header: list[str], rows: list, report=None) -> list[str]:
    """The metadata block, then CSV (header and rows) or a report.

    A report prints the ``(key, value)`` items of report, or without them
    each row as a block of ``header = value`` lines, blocks separated by a
    blank line.
    """
    lines = list(out.meta)
    if out.fmt == "csv":
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        return lines
    blocks = [report] if report is not None else [zip(header, row) for row in rows]
    for i, items in enumerate(blocks):
        if i:
            lines.append("")
        lines.extend(f"{key} = {_fmt(value)}" for key, value in items)
    return lines


def _geometry(params: dict) -> StripGeometry:
    return resolve_geometry(
        xi=params.get("xi"), T=params.get("T"), d=params.get("d")
    )


def _grid(params: dict, dest: str, least: int = 1) -> int:
    """Grid size of flag dest, failing closed outside [least, MAX_GRID]."""
    n, name = params[dest], dest.replace("_", "-")
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    if n > MAX_GRID:
        raise ValueError(f"--{name} {n} exceeds the ceiling of {MAX_GRID} points")
    return n


def _cmd_constants(params: dict, out: _Output) -> tuple[int, list[str]]:
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
    return 0, _render(out, ["name", "value"], items, items)


def _cmd_count(params: dict, out: _Output) -> tuple[int, list[str]]:
    geom = _geometry(params)
    value = counting(geom, params["ell"], params["tau"])
    return 0, _render(
        out,
        ["xi", "ell", "tau", "count"],
        [[geom.xi, params["ell"], params["tau"], value]],
    )


def _cmd_bands(params: dict, out: _Output) -> tuple[int, list[str]]:
    geom = _geometry(params)
    scale = geom.T ** 2 / math.pi ** 2
    lo, hi = band_edges(geom, params["kmax"])
    rows = [
        [k, a, b, a * scale, b * scale]
        for k, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()), start=1)
    ]
    return 0, _render(out, ["k", "eta", "theta", "eta_scaled", "theta_scaled"], rows)


def _cmd_fourier(params: dict, out: _Output) -> tuple[int, list[str]]:
    geom = _geometry(params)
    ell, p = params["ell"], params["p"]
    if p == 0:
        value, bound = a0_closed(geom, ell), None
    else:
        value, bound = ap_closed(geom, ell, p), residual_bound(geom.xi, ell, p)
    return 0, _render(
        out,
        ["xi", "ell", "p", "value", "residual_bound"],
        [[geom.xi, ell, p, value, bound]],
    )


def _cmd_phi(params: dict, out: _Output) -> tuple[int, list[str]]:
    geom = _geometry(params)
    ev = phi_p(geom, params["ell"], params["p"], tol=params["tol"])
    return 0, _render(
        out,
        ["xi", "ell", "p", "value", "tail_bound", "truncation_n"],
        [[geom.xi, ev.ell, ev.p, ev.value, ev.tail_bound, ev.truncation_n]],
    )


def _cmd_phi_sup(params: dict, out: _Output) -> tuple[int, list[str]]:
    geom = _geometry(params)
    res = phi_sup(geom, params["ell"], cutoff_c1=params["cutoff_c1"], tol=params["tol"])
    return 0, _render(
        out,
        ["xi", "ell", "p_star", "value", "p_max", "cutoff_bound"],
        [[geom.xi, params["ell"], res.p_star, res.value, res.p_max, res.cutoff_bound]],
    )


def _cmd_check_thm23(params: dict, out: _Output) -> tuple[int, list[str]]:
    geom = _geometry(params)
    lo, hi, n = params["ell_min"], params["ell_max"], _grid(params, "grid")
    if not 1.0 <= lo <= hi:
        raise ValueError(f"need 1 <= ell-min <= ell-max, got [{lo}, {hi}]")
    if hi == math.inf:
        raise ValueError("ell-max must be finite, got inf")
    grid = np.linspace(lo, hi, n) if n > 1 else np.array([lo])
    report = uniform_lower_bound_check(
        geom, grid, tol=params["tol"], cutoff_c1=params["cutoff_c1"]
    )
    if report.c0 is None:
        return 2, _render(
            out,
            ["verdict", "margin"],
            [["not-applicable", report.xi_excess]],
            [("verdict", "not-applicable"), ("xi_excess", report.xi_excess)],
        )
    rows = [
        [r.ell, r.p_star, r.value, report.threshold, r.margin, r.ok]
        for r in report.rows
    ]
    status = 0 if report.all_ok else 2
    return status, _render(
        out, ["ell", "p_star", "value", "threshold", "margin", "ok"], rows
    )


def _resolve_bounds(params: dict) -> PerturbBounds:
    pair = {k: params[k] for k in ("omega_minus", "omega_plus") if k in params}
    if "omega_l" in params:
        if pair:
            raise ValueError(
                "--omega-l cannot be combined with --omega-minus/--omega-plus"
            )
        return PerturbBounds(0.0, params["omega_l"])
    return PerturbBounds(**pair)


def _cmd_gaps(params: dict, out: _Output) -> tuple[int, list[str]]:
    geom = _geometry(params)
    bounds = _resolve_bounds(params)
    low_points = _grid(params, "low_points", least=0)
    cc = critical_constants()
    if "c0" in params:
        gp = GapParams(c0=params["c0"], gamma=params["gamma"], ell0=params["ell0"])
    elif geom.xi < cc.xi_critical:
        gp = GapParams.from_small_ratio(geom.xi)
    else:
        raise ValueError(
            f"xi={geom.xi} is not below the critical ratio {cc.xi_critical:.7f}; "
            "supply --c0 (and optionally --gamma, --ell0)"
        )
    rep = gap_report(geom, bounds, gp, params.get("ell_max"), low_points)
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
        ("ell_star", verdict.ell_star),
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
    windows: list[tuple[str, str]] = []
    if "ell_max" in params:
        pairs, undecided = rep.candidate_gaps, rep.undecided
        shown = undecided[:20]
        items.append(("bands", rep.band_count))
        items.append(("candidate_windows", len(pairs)))
        items.append(("certified_absent", len(pairs) - undecided.size))
        items.append(("undecided", undecided.size))
        windows = [
            (f"undecided_window_{i + 1}", f"({_fmt(a)}, {_fmt(b)})")
            for i, a, b in zip(shown.tolist(), pairs.lo[shown].tolist(), pairs.hi[shown].tolist())
        ]
    items.append(
        ("verdict", "gapless-certified" if verdict.all_gapless else "not-certified")
    )
    status = 0 if verdict.all_gapless else 2
    return status, _render(out, ["key", "value"], items, items + windows)


def _cmd_galerkin(params: dict, out: _Output) -> tuple[int, list[str]]:
    file_geom, potential = read_potential_file(params["potential"])
    if any(k in params for k in ("xi", "T", "d")):
        # an absent flag takes the header's value
        given = resolve_geometry(xi=params.get("xi"), T=params.get("T", file_geom.T),
                                 d=params.get("d", file_geom.d))
        if (
            abs(given.T - file_geom.T) > 1e-9 * file_geom.T
            or abs(given.d - file_geom.d) > 1e-9 * file_geom.d
        ):
            raise ValueError(
                f"geometry flags {given} conflict with potential file header {file_geom}"
            )
    geom = file_geom
    k_max = params["kmax"]
    grid_n = _grid(params, "grid")
    if "nmax" in params or "mmax" in params:
        if not ("nmax" in params and "mmax" in params):
            raise ValueError("--nmax and --mmax must be given together")
        truncation = (params["nmax"], params["mmax"])
    else:
        truncation = default_truncation(geom, k_max)
    tau_grid = zone_grid(grid_n)
    bands0 = unperturbed_band_functions(geom, tau_grid, k_max)
    enclosure = omega_bounds(geom, potential)
    bands = band_functions(geom, potential, tau_grid, k_max, truncation, enclosure)
    check = verify_enclosure(bands, bands0, enclosure, tol=params["tol"])
    summary: list[tuple[str, object]] = [
        ("xi", geom.xi),
        ("T", geom.T),
        ("d", geom.d),
        ("terms", len(potential.terms)),
        ("n_max", truncation[0]),
        ("m_max", truncation[1]),
        ("k_max", k_max),
        ("tau_points", grid_n),
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
    if out.fmt == "csv":
        # the summary rides along as comment lines above the band values
        notes = [f"# {key}={_fmt(value)}" for key, value in summary]
        out = out._replace(meta=out.meta + notes)
    rows = [
        [tau, k, bands0.energies[i, k - 1], bands.lower[i, k - 1], bands.energies[i, k - 1]]
        for i, tau in enumerate(bands.tau_grid)
        for k in range(1, k_max + 1)
    ]
    return status, _render(
        out, ["tau", "k", "energy0", "energy_lower", "energy"], rows, summary)


def _sweep_cell(argv: list[str]) -> tuple[int, list[str]]:
    """Run one inner invocation; never raises (a failure is status 1, no lines)."""
    try:
        return _run_argv(argv)
    except (ValueError, OverflowError, SystemExit):
        return 1, []


def _cmd_sweep(params: dict, out: _Output) -> tuple[int, list[str]]:
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
    # Each value is spelled for the swept flag's type (float for a flag the
    # inner command lacks, whose cells then fail as usage errors).
    kind = next((f.type for f in COMMANDS[inner[0]].flags if f.dest == name), float)
    flag = _Flag(name, kind).spelling
    if kind is int:
        bad = next((v for v in values if not v.is_integer()), None)
        if bad is not None:
            raise ValueError(f"{flag} takes integers, but the sweep reaches {bad!r}")
    cells = [inner + [flag, _spell(kind(v)), "--format", "csv"] for v in values]
    if inner[0] in _GRID_FLAG:
        dest = _GRID_FLAG[inner[0]]
        if name == dest:
            # the swept flag is the grid size itself: every cell counts
            points = sum(max(int(v), 0) for v in values)
            if points > MAX_GRID:
                raise ValueError(
                    f"{steps} sweep steps of {flag} ask for {points} {inner[0]} "
                    f"points, over the ceiling of {MAX_GRID} points")
        else:
            # cells differ only in the swept value, so the first one tells
            # how many grid points every cell asks for (none if it does not parse)
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    points = _parse(cells[0])[2][dest]
                except SystemExit:
                    points = 0
            if steps * points > MAX_GRID:
                raise ValueError(
                    f"{steps} sweep steps x {points} {inner[0]} points exceed the "
                    f"ceiling of {MAX_GRID} points")
    # the pool starts all its processes at once: no more than cells or cores
    workers = min(params["workers"], len(cells), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(argv) for argv in cells]
    tables = [[l.split(",") for l in lines if not l.startswith("#")]
              for _, lines in results]
    inner_header = next(
        (t[0] for (status, _), t in zip(results, tables) if status == 0 and t), []
    )
    rows = []
    for value, (status, _), table in zip(values, results, tables):
        prefix = [_fmt(value), str(status)]
        if status != 0:
            rows.append(prefix + [""] * len(inner_header))
        else:
            rows.extend(prefix + row for row in table[1:])
    statuses = [status for status, _ in results]
    overall = 0 if all(s == 0 for s in statuses) else (2 if 2 in statuses else 1)
    # cells are CSV whatever the format, so the sweep table is too
    return overall, _render(
        out._replace(fmt="csv"), [name, "status"] + inner_header, rows
    )


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
            _Flag("omega_l", float, None, "shorthand for --omega-minus 0 --omega-plus VALUE"),
            _Flag("c0", float, None, "minorant constant"),
            _Flag("gamma", float, 0.0, "minorant decay exponent, with --c0"),
            _Flag("ell0", float, 1.0, "minorant base energy, with --c0"),
            _Flag("low_points", int, 32, f"low-energy verdict grid size, at most {MAX_GRID}"),
        )),
    "galerkin": _command(
        _cmd_galerkin, "finite-basis bands and enclosure check for a potential", "report", (
            *_GEOMETRY,
            _Flag("tol", float, 0.0, "a negative value demands an enclosure margin of -tol"),
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
    given = vars(_parser(argv).parse_args(argv))
    name = given.pop("command")
    params = {f.dest: f.default for f in COMMANDS[name].flags
              if f.default not in (None, _REQUIRED)}
    params.update(given)
    if name == "sweep":
        params["inner"] = [t for t in params["inner"] if t != "--"]
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
    out = _Output(params["format"], [
        "# tool=stripgaps",
        f"# version={__version__}",
        f"# command={name}",
        f"# argv={shlex.join(echo)}",
        f"# seed={params['seed']}",
        f"# format={params['format']}",
    ])
    return command.handler(params, out)


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
