"""Command-line interface: exit codes, determinism, canonical echo, sweep."""

import argparse
import io
import contextlib
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stripgaps
import stripgaps.cli as cli
from oracles import write_potential_file
from stripgaps.cli import COMMANDS, MAX_GRID, MAX_SWEEP_STEPS, _parse, _parser, main
import stripgaps.galerkin as galerkin
from stripgaps.galerkin import PotentialSpec
from stripgaps.geometry import resolve_geometry
from stripgaps.oscillation import MAX_HARMONICS, phi_p, phi_sup
from stripgaps.spectrum import MAX_BAND_CURVES, MAX_ROWS, band_edges


DATA = Path(__file__).parent / "data"


def run_with_stderr(argv):
    """Invoke the CLI in-process, returning (exit_code, stdout_text, stderr_text)."""
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


def run(argv):
    """Invoke the CLI in-process, returning (exit_code, stdout_text)."""
    return run_with_stderr(argv)[:2]


# ---------------------------------------------------------------------------
# basic commands and exit codes
# ---------------------------------------------------------------------------

def test_count_command_prints_the_counting_value():
    code, out = run(["count", "--xi", "0.5", "--ell", "1.3", "--tau", "0.0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "xi,ell,tau,count"
    assert lines[-1] == "0.5,1.3,0,4"


def test_constants_report_carries_the_thresholds():
    code, out = run(["constants", "--xi", "0.05"])
    assert code == 0
    assert "xi_critical = 0.10121085431" in out
    assert "c2 = 0.170663436217" in out
    assert "c1 = 0.16823107058" in out
    assert "c0 = 0.699114074069" in out


def test_usage_errors_exit_one():
    code, _ = run(["count", "--xi", "0.5", "--tau", "0.0"])  # missing --ell
    assert code == 1
    code, _ = run(["no-such-command"])
    assert code == 1
    code, _ = run([])
    assert code == 1
    # count has no --representation option
    code, _ = run(["count", "--xi", "0.5", "--ell", "1.3", "--tau", "0.0",
                   "--representation", "rows"])
    assert code == 1


def _parser_choices(argv):
    sub = next(a for a in _parser(argv)._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


def test_the_parser_holds_only_the_invoked_command():
    assert len(COMMANDS) == 10
    assert _parser_choices(["phi", "--xi", "0.5", "--ell", "1.3", "--p", "1"]) == ["phi"]
    assert _parser_choices(["sweep", "--param", "xi", "--", "count"]) == ["sweep"]
    # naming no command keeps every command for help and the usage error
    for argv in ([], ["-h"], ["--help"], ["nosuch"], ["--seed", "1", "phi"]):
        assert _parser_choices(argv) == list(COMMANDS), argv


def test_an_unknown_command_is_refused_listing_every_command(capsys):
    assert main(["nosuch"]) == 1
    listed = ", ".join(repr(name) for name in COMMANDS)
    assert capsys.readouterr() == ("", (
        "usage: stripgaps [-h] command ...\n"
        f"error: argument command: invalid choice: 'nosuch' (choose from {listed})\n"))


def test_help_lists_every_command(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    for name, command in COMMANDS.items():
        assert f"\n    {name}" in out and command.help in out, name


def test_usage_lines_of_a_known_command_show_its_flags(capsys):
    assert main(["phi", "--xi"]) == 1
    assert capsys.readouterr().err == (
        "usage: stripgaps phi [-h] [--xi XI] [--T T] [--d D] --ell ELL --p P\n"
        "                     [--tol TOL] [--seed SEED] [--format {csv,report}]\n"
        "error: argument --xi: expected one argument\n")


@pytest.mark.parametrize("argv", [["phi", "--xi"], ["gaps", "--help"], ["-h"]])
def test_usage_and_help_do_not_depend_on_the_terminal_width(monkeypatch, argv):
    # argparse wraps at COLUMNS - 2 unless told a width: the 80-column bytes
    # on stdout and stderr at every terminal width
    outputs = {}
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        outputs[columns] = run_with_stderr(argv)
    assert outputs["40"] == outputs["80"] == outputs["200"]


def test_the_process_pool_is_imported_only_by_a_parallel_sweep():
    probe = (
        "import sys, stripgaps.cli as cli\n"
        "pool = ('concurrent.futures', 'multiprocessing')\n"
        "print([m for m in pool if m in sys.modules])\n"
        "cli.main(['sweep', '--param', 'xi', '--start', '0.3', '--stop', '0.5', '--steps', '2',\n"
        "          '--', 'count', '--ell', '1.3', '--tau', '0'])\n"
        "print([m for m in pool if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "[]"


def test_validation_errors_exit_one():
    code, _ = run(["count", "--xi", "-0.5", "--ell", "1.3", "--tau", "0.0"])
    assert code == 1
    code, _ = run(["count", "--xi", "0.5", "--ell", "1.3", "--tau", "0.7"])
    assert code == 1


_GEOMETRY_FLAGS = (("--xi", "0.5"), ("--T", "1"), ("--d", "2"))


@pytest.mark.parametrize("flags", [
    flags for n in range(4) for flags in itertools.combinations(_GEOMETRY_FLAGS, n)])
def test_count_resolves_or_refuses_every_subset_of_the_geometry_flags(flags):
    # any two of xi, T, d (or xi alone, d = 1) fix the strip; none, T alone
    # or d alone is refused with one error line, never a traceback
    argv = ["count", *(token for flag in flags for token in flag), "--ell", "1", "--tau", "0"]
    code, out, err = run_with_stderr(argv)
    if flags in ((), _GEOMETRY_FLAGS[1:2], _GEOMETRY_FLAGS[2:3]):
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("0.5,1,0,")


def test_sweeping_the_width_alone_fails_each_cell_not_the_sweep():
    code, out = run(["sweep", "--param", "d", "--start", "1", "--stop", "2", "--steps", "2",
                     "--", "count", "--ell", "1", "--tau", "0"])
    assert code == 1
    assert [l for l in out.splitlines() if not l.startswith("#")] == ["d,status", "1,1", "2,1"]


def test_gaps_exit_codes_follow_the_certification():
    code, out = run(["gaps", "--T", "1.0", "--xi", "0.03"])
    assert code == 0
    assert "verdict = gapless-certified" in out
    assert "low_energy_ok = true" in out
    assert "low_spectrum" not in out  # the low-energy verdict is low_energy_ok alone
    code, out = run(["gaps", "--T", "1.0", "--xi", "0.1"])
    assert code == 2
    assert "verdict = not-certified" in out
    assert "gapless_ok = false" in out


def _unrecognized(name, extra):
    """The usage error of an argument the command does not take: the
    command's own usage line, then the arguments left over."""
    sub = next(a for a in _parser([name])._actions if isinstance(a, argparse._SubParsersAction))
    usage = sub.choices[name].format_usage()
    return f"{usage}error: unrecognized arguments: {extra}\n"


def test_an_unknown_flag_prints_the_commands_usage(capsys):
    for argv, extra in (
        (["gaps", "--xi", "0.03", "--omega-l", "0.01"], "--omega-l 0.01"),
        (["galerkin", "--potential", str(DATA / "cosine.pot"), "--xi", "0.05"], "--xi 0.05"),
        (["sweep", "--param", "xi", "--start", "0.1", "--stop", "0.5", "--steps", "2", "--bogus",
          "--", "count", "--ell", "1.3", "--tau", "0"], "--bogus"),
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err == _unrecognized(argv[0], extra), argv
        assert err.startswith(f"usage: stripgaps {argv[0]} [-h]")
    # naming no command keeps the top-level usage
    assert main(["--xi", "0.05"]) == 1
    assert capsys.readouterr().err.startswith("usage: stripgaps [-h] command ...\n")


def test_gaps_refuses_minorant_constants_without_c0(capsys):
    for flags, named in ((["--gamma", "0.2"], "--gamma"), (["--ell0", "5"], "--ell0"),
                         (["--gamma", "0.2", "--ell0", "5"], "--gamma and --ell0")):
        assert main(["gaps", "--xi", "0.03", *flags]) == 1, flags
        assert capsys.readouterr() == ("", f"error: --c0 is required with {named}\n")
    code, out = run(["gaps", "--xi", "0.03", "--c0", "0.5", "--gamma", "0.2", "--ell0", "5"])
    assert code == 0
    assert "gamma = 0.2" in out and "ell0 = 5" in out


def test_gaps_out_of_regime_needs_explicit_c0():
    code, _ = run(["gaps", "--T", "1.0", "--xi", "0.2"])
    assert code == 1
    code, out = run(["gaps", "--T", "1.0", "--xi", "0.2", "--c0", "0.5"])
    assert code == 2  # runs, but certification fails at this ratio
    assert "c0 = 0.5" in out


def test_check_thm23_out_of_regime_exits_two():
    code, out = run(["check-thm23", "--xi", "0.2", "--grid", "1"])
    assert code == 2
    assert "not-applicable" in out


def test_check_thm23_small_grid_passes():
    code, out = run([
        "check-thm23", "--xi", "0.05", "--ell-min", "1.0", "--ell-max", "5.0",
        "--grid", "3", "--tol", "1e-3",
    ])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "ell,p_star,value,threshold,margin,ok"
    assert len(lines) == 4
    assert all(row.endswith("true") for row in lines[1:])


def test_bands_command_reports_the_first_band_bottom():
    code, out = run(["bands", "--T", "1.0", "--d", "1.0", "--kmax", "3"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "k,eta,theta,eta_scaled,theta_scaled"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "9.86960440109"  # pi^2 to 12 significant digits
    # band endpoints are exact: no tau grid to choose
    assert run(["bands", "--xi", "0.5", "--grid", "51"])[0] == 1
    assert run(["gaps", "--xi", "0.03", "--ell-max", "2", "--grid", "51"])[0] == 1


@pytest.mark.parametrize("argv, geom", [
    (["bands", "--xi", "0.05", "--kmax", "200"], resolve_geometry(xi=0.05)),
    (["bands", "--T", "1.0", "--xi", "0.03", "--kmax", "1000"], resolve_geometry(xi=0.03, T=1.0)),
])
def test_bands_prints_the_endpoints_band_edges_computed(argv, geom):
    # the scaled columns are band_edges' endpoints as computed (no round trip
    # through energy units), the energy columns pi^2/T^2 times them
    code, out = run(argv)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[7:]]
    eta, theta = band_edges(geom.xi, int(argv[-1]))
    scale = math.pi * math.pi / (geom.T * geom.T)
    assert len(rows) == eta.size
    for k, (row, a, b) in enumerate(zip(rows, eta.tolist(), theta.tolist()), start=1):
        assert row == [str(k), cli._fmt(scale * a), cli._fmt(scale * b),
                       cli._fmt(a), cli._fmt(b)], k


# Requests too costly to serve, beyond float range or beyond float precision:
# each must exit 1 with a message before any large allocation, never hang,
# end in a traceback or print a meaningless number.
_COSTLY = [
    (["bands", "--xi", "0.5", "--kmax", "100000000"],
     f"error: band computation exceeds the ceiling of {MAX_BAND_CURVES} level curves "
     "(1e+08 estimated)"),
    (["gaps", "--xi", "0.03", "--omega-plus", "0.02", "--ell-max", "1e9"],
     f"error: band computation exceeds the ceiling of {MAX_BAND_CURVES} level curves "
     "(6.67e+10 estimated)"),
    (["bands", "--xi", "1e200", "--kmax", "5"],
     "error: half-period T = 1e+200 is too large: its energy scale pi^2/T^2 is beyond "
     "float64 range"),
    (["gaps", "--xi", "1e-300", "--T", "1e-150", "--c0", "0.1", "--ell-max", "2"],
     "error: inputs out of floating-point range"),
    (["phi", "--xi", "0.05", "--ell", "1e300", "--p", "1"],
     "error: tolerance 0.0001 is below the floating-point error of the sum"),
    (["count", "--xi", "1e-300", "--T", "1e-150", "--ell", "2", "--tau", "0"],
     "error: rows of 1.41e+300 points are beyond exact float64 counts"),
    (["fourier", "--xi", "1e-9", "--ell", "1e6", "--p", "1"],
     f"error: row computation exceeds the ceiling of {MAX_ROWS} rows (1e+12 estimated)"),
    (["phi-sup", "--xi", "0.05", "--ell", "1e12"],
     f"error: supremum scan exceeds the ceiling of {MAX_HARMONICS} harmonics "
     "(3e+06 estimated)"),
    (["sweep", "--param", "xi", "--start", "0.1", "--stop", "0.5",
      "--steps", "1000000000", "--", "count", "--ell", "1.3", "--tau", "0.0"],
     f"error: 1000000000 sweep steps exceed the ceiling of {MAX_SWEEP_STEPS}"),
    (["check-thm23", "--xi", "0.05", "--grid", "1000000000000"],
     f"error: --grid 1000000000000 exceeds the ceiling of {MAX_GRID} points"),
    (["galerkin", "--potential", str(DATA / "cosine.pot"), "--grid", "1000000000000"],
     f"error: --grid 1000000000000 exceeds the ceiling of {MAX_GRID} points"),
    # --low-points is not a gaps flag: a usage error
    (["gaps", "--xi", "0.03", "--low-points", "1000000000000"],
     _unrecognized("gaps", "--low-points 1000000000000")),
    (["gaps", "--xi", "0.03", "--low-points", "-5"], _unrecognized("gaps", "--low-points -5")),
    (["sweep", "--param", "xi", "--start", "0.02", "--stop", "0.09", "--steps", "10000",
      "--", "check-thm23", "--grid", "10000"],
     f"error: 10000 sweep steps x 10000 check-thm23 points exceed the ceiling of "
     f"{MAX_GRID} points"),
    (["sweep", "--param", "kmax", "--start", "1", "--stop", "10000", "--steps", "10000",
      "--", "galerkin", "--potential", str(DATA / "cosine.pot")],
     f"error: 10000 sweep steps x 17 galerkin points exceed the ceiling of {MAX_GRID} points"),
    # non-finite numbers, and numbers past float resolution, name the quantity
    (["constants", "--xi", "nan"], "error: c0(xi) is not a finite number at xi = nan"),
    (["constants", "--xi", "inf"], "error: c0(xi) is not a finite number at xi = inf"),
    (["constants", "--xi", "5e-324"], "error: c0(xi) is not a finite number at xi = 5e-324"),
    *[([command, "--xi", "0.05", *flags, "--tol", tol], f"error: tolerance must be finite, got {tol}")
      for command, flags in (("phi", ["--ell", "1.3", "--p", "1"]), ("phi-sup", ["--ell", "1.3"]),
                             ("check-thm23", ["--grid", "2"]))
      for tol in ("nan", "inf")],
    (["phi", "--xi", "0.5", "--ell", "1.3", "--p", "1", "--tol", "5e-324"],
     "error: tolerance 5e-324 needs over 2^63 terms at xi = 0.5"),
    (["phi", "--xi", "0.5", "--ell", "inf", "--p", "1"], "error: ell must be finite, got inf"),
    (["phi-sup", "--xi", "0.5", "--ell", "1.3", "--cutoff-c1", "nan"],
     "error: cutoff constant must be positive, got nan"),
    (["check-thm23", "--xi", "0.05", "--ell-max", "inf"], "error: ell-max must be finite, got inf"),
    (["fourier", "--xi", "0.5", "--ell", "1.3", "--p", "10000000000000000000000"],
     "error: harmonic p = 10000000000000000000000 at ell = 1.3 is beyond float64 resolution: "
     "the sine arguments 2 pi p r_m carry rounding errors up to 1.52e+15 rad"),
    # galerkin's geometry is its potential file's header, and it takes no tol
    (["galerkin", "--potential", str(DATA / "cosine.pot"), "--xi", "nan"],
     _unrecognized("galerkin", "--xi nan")),
    (["galerkin", "--potential", str(DATA / "cosine.pot"), "--xi", "inf"],
     _unrecognized("galerkin", "--xi inf")),
    (["galerkin", "--potential", str(DATA / "cosine.pot"), "--tol", "nan"],
     _unrecognized("galerkin", "--tol nan")),
    (["sweep", "--param", "xi", "--start", "-inf", "--stop", "0.5", "--steps", "2",
      "--", "count", "--ell", "1.3", "--tau", "0"], "error: range [-inf, 0.5] must be finite"),
    # each band crossing is ranked against 2 sqrt(cap) columns, cap >= xi^2
    (["bands", "--xi", "625842014", "--kmax", "2"],
     f"error: row computation exceeds the ceiling of {MAX_ROWS} rows (1.25e+09 estimated)"),
    # a uniform-bound threshold c0 - 2 tol <= 0 certifies nothing
    (["check-thm23", "--xi", "0.05", "--grid", "2", "--ell-max", "2", "--tol", "1e300"],
     "error: tol 1e+300 leaves no certificate: the threshold c0 - 2 tol = -2e+300 with "
     "c0 = 0.699114 is not positive"),
    (["check-thm23", "--xi", "0.05", "--grid", "2", "--ell-max", "2", "--tol", "0.4"],
     "error: tol 0.4 leaves no certificate: the threshold c0 - 2 tol = -0.100886 with "
     "c0 = 0.699114 is not positive"),
    (["check-thm23", "--xi", "0.05", "--grid", "2", "--ell-max", "2", "--tol", "1e308"],
     "error: tol 1e+308 leaves no certificate: the threshold c0 - 2 tol = -inf with "
     "c0 = 0.699114 is not positive"),
    # fourier takes p = 0 (the mean a0), so the refusal names >= 0
    (["fourier", "--xi", "0.5", "--ell", "1.3", "--p", "-1"],
     "error: harmonic index must be >= 0, got -1"),
    # finite bounds whose oscillation omega_+ - omega_- overflows
    (["gaps", "--xi", "0.03", "--omega-minus", "-1e308", "--omega-plus", "1e308"],
     "error: oscillation omega_plus - omega_minus overflows: omega_minus=-1e+308, "
     "omega_plus=1e+308"),
    # ell1 whose fourth term divides to inf: the scaled oscillation itself
    # overflows, or it is finite and its quotient by xi^2 is not
    (["gaps", "--xi", "0.03", "--d", "1e154", "--omega-plus", "1e10"],
     "error: inputs out of floating-point range (threshold ell1 = inf at scaled oscillation "
     "inf)"),
    (["gaps", "--T", "1", "--d", "1e150", "--omega-plus", "1e200"],
     "error: inputs out of floating-point range (threshold ell1 = inf at scaled oscillation "
     "1.0132118364233778e+199)"),
]


def _cli_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(stripgaps.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _subprocess_cli(argv):
    return subprocess.run([sys.executable, "-m", "stripgaps.cli", *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, message", _COSTLY)
def test_costly_requests_fail_closed(argv, message):
    proc = _subprocess_cli(argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message), proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_count_walks_rows_not_lattice_points():
    # 1e9 transverse levels per row, but only about 2000 rows to walk
    proc = _subprocess_cli(["count", "--xi", "1e-6", "--ell", "1e6", "--tau", "0"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1e-06,1000000,0,1570777734446"


def test_stdout_matches_the_recorded_corpus(monkeypatch):
    """Exit status, stdout and stderr bytes of every recorded invocation (run
    from the repository root, where the corpus' relative potential path
    resolves).  Refusals (status 1) carry their recorded message; every other
    entry writes nothing to stderr.  Usage errors are wrapped at the 80
    columns they were recorded at."""
    monkeypatch.chdir(DATA.parent.parent)
    monkeypatch.setenv("COLUMNS", "80")
    corpus = json.loads((DATA / "cli_corpus.json").read_text())
    assert len(corpus) >= 40
    assert all(("stderr" in e) == (e["status"] == 1) for e in corpus)
    for entry in corpus:
        expected = (entry["status"], entry["stdout"], entry.get("stderr", ""))
        assert run_with_stderr(entry["argv"]) == expected, entry["argv"]


def test_fourier_command_handles_the_mean_and_harmonics():
    code, out = run(["fourier", "--xi", "0.5", "--ell", "1.3", "--p", "0"])
    assert code == 0
    row = out.splitlines()[-1].split(",")
    assert row[3] == "3.1448352682"
    assert row[4] == ""  # no residual envelope for the mean
    code, out = run(["fourier", "--xi", "0.5", "--ell", "1.3", "--p", "1"])
    assert code == 0
    row = out.splitlines()[-1].split(",")
    assert row[3] == "-0.0448290814668"
    assert float(row[4]) > 0.0


def test_phi_command_matches_the_library():
    code, out = run(["phi", "--xi", "0.5", "--ell", "1.3", "--p", "2", "--tol", "1e-3"])
    assert code == 0
    row = out.splitlines()[-1].split(",")
    ev = phi_p(0.5, 1.3, 2, tol=1e-3)
    assert float(row[3]) == pytest.approx(ev.value, rel=1e-11)
    assert float(row[4]) == pytest.approx(ev.tail_bound, rel=1e-11)
    assert int(row[5]) == ev.truncation_n


def test_phi_sup_command_matches_the_library():
    code, out = run(["phi-sup", "--xi", "0.5", "--ell", "2.7", "--tol", "1e-3"])
    assert code == 0
    row = out.splitlines()[-1].split(",")
    res = phi_sup(0.5, 2.7, tol=1e-3)
    assert int(row[2]) == res.p_star
    assert float(row[3]) == pytest.approx(res.value, rel=1e-11)


# ---------------------------------------------------------------------------
# determinism and the canonical echo
# ---------------------------------------------------------------------------

def _readme_examples():
    """Every ``stripgaps ...`` line of the README's code blocks, continuation
    lines joined, as an argv without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(l)[1:] for l in lines if l.startswith("stripgaps ")]


def test_every_readme_example_parses():
    examples = _readme_examples()
    assert len(examples) >= 8
    for argv in examples:
        name, _, params = _parse(argv)
        assert name == argv[0], argv
        if name == "sweep":
            _parse(params["inner"])


def test_repeated_runs_are_byte_identical():
    argv = ["count", "--xi", "0.5", "--ell", "1.3", "--tau", "0.0"]
    assert run(argv) == run(argv)


def test_explicit_default_format_changes_nothing():
    argv = ["count", "--xi", "0.5", "--ell", "1.3", "--tau", "0.0"]
    assert run(argv) == run(argv + ["--format", "csv"])


def test_canonical_echo_round_trips(monkeypatch):
    """Replaying the echo reproduces status and stdout, for a few hand-picked
    invocations and every recorded corpus entry that prints one."""
    monkeypatch.chdir(DATA.parent.parent)
    corpus = json.loads((DATA / "cli_corpus.json").read_text())
    for argv, status in [
        (["count", "--xi", "0.5", "--ell", "1.3", "--tau", "-0.25"], 0),
        (["phi", "--xi", "0.3", "--ell", "2.7", "--p", "1", "--tol", "0.01"], 0),
        (["constants", "--xi", "0.05", "--seed", "7"], 0),
    ] + [(e["argv"], e["status"]) for e in corpus if e["status"] in (0, 2)]:
        code, out = run(argv)
        assert code == status, argv
        echo = next(l for l in out.splitlines() if l.startswith("# argv="))
        replay = shlex.split(echo[len("# argv=") :])
        assert run(replay) == (code, out), argv


# A cheap invocation of every command, for the round-trip property below.
_CHEAP = {
    "constants": [],
    "count": ["--xi", "0.5", "--ell", "1.3", "--tau", "0"],
    "bands": ["--xi", "0.5", "--kmax", "2"],
    "fourier": ["--xi", "0.5", "--ell", "1.3", "--p", "1"],
    "phi": ["--xi", "0.5", "--ell", "1.3", "--p", "1", "--tol", "0.01"],
    "phi-sup": ["--xi", "0.5", "--ell", "1.3", "--tol", "0.01"],
    "check-thm23": ["--xi", "0.05", "--grid", "1", "--tol", "0.01"],
    "gaps": ["--xi", "0.5", "--c0", "0.5", "--ell-max", "2"],
    "galerkin": ["--potential", str(DATA / "cosine.pot"), "--kmax", "1", "--grid", "2"],
    "sweep": ["--param", "xi", "--start", "0.3", "--stop", "0.5", "--steps", "2",
              "--", "count", "--ell", "1.3", "--tau", "0"],
}
_FLOAT_FLAGS = [(name, flag.spelling) for name, command in COMMANDS.items()
                for flag in command.flags if flag.type is float]


@pytest.mark.parametrize("name, spelling", _FLOAT_FLAGS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(value=st.one_of(st.sampled_from([-1e-05, -1.5e+16, -0.0, -math.inf]), st.floats()))
def test_every_float_value_parses_and_its_echo_replays(name, spelling, value):
    """Any float, in the spelling the echo uses, is read as that float, never
    as an unknown option; and the echo of the run replays its stdout."""
    argv = [name, *_CHEAP[name]]
    inner = argv.index("--") if "--" in argv else len(argv)
    if spelling in argv[:inner]:
        argv[argv.index(spelling) + 1] = repr(value)
    else:
        argv[inner:inner] = [spelling, repr(value)]
    parsed = _parse(argv)[2][spelling[2:].replace("-", "_")]
    assert repr(parsed) == repr(value)
    code, out, err = run_with_stderr(argv)
    if out:
        assert err == ""
        echo = next(l for l in out.splitlines() if l.startswith("# argv="))
        assert repr(value) in shlex.split(echo[len("# argv="):])
        assert run(shlex.split(echo[len("# argv="):])) == (code, out)
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err


def test_exponent_and_decimal_spellings_of_a_negative_value_agree():
    base = ["gaps", "--xi", "0.05", "--omega-plus", "0.01", "--omega-minus"]
    code, out, err = run_with_stderr(base + ["-1e-3"])
    assert (code, err) == (2, "")
    assert run(base + ["-0.001"]) == (code, out)
    assert "# argv=gaps --xi 0.05 --omega-minus -0.001 --omega-plus 0.01 --format report" in out


def test_sweep_cells_take_negative_exponent_values():
    code, out, err = run_with_stderr([
        "sweep", "--param", "omega_minus", "--start", "-2e-05", "--stop", "0", "--steps", "3",
        "--", "gaps", "--xi", "0.05", "--omega-plus", "0.01"])
    assert (code, err) == (2, "")
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "omega_minus,status,key,value"
    for value in ("-2e-05", "-1e-05", "0"):
        assert f"{value},2,omega_minus,{value}" in rows


def test_seed_is_echoed():
    _, out = run(["constants", "--seed", "42"])
    assert "# seed=42" in out
    _, out = run(["constants"])
    assert "# seed=0" in out


def test_report_format_switch():
    code, out = run([
        "count", "--xi", "0.5", "--ell", "1.3", "--tau", "0.0",
        "--format", "report",
    ])
    assert code == 0
    assert "count = 4" in out
    code, out = run(["constants", "--format", "csv"])
    assert code == 0
    assert "name,value" in out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_emits_rows_in_grid_order():
    code, out = run([
        "sweep", "--param", "xi", "--start", "0.3", "--stop", "0.7", "--steps", "5",
        "--", "count", "--ell", "1.3", "--tau", "0.0",
    ])
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "xi,status,xi,ell,tau,count"
    starts = [row.split(",")[0] for row in rows[1:]]
    assert starts == ["0.3", "0.4", "0.5", "0.6", "0.7"]
    assert all(row.split(",")[1] == "0" for row in rows[1:])


def test_sweep_single_step_degenerates_to_the_start_value():
    code, out = run([
        "sweep", "--param", "ell", "--start", "1.3", "--stop", "9.9", "--steps", "1",
        "--", "count", "--xi", "0.5", "--tau", "0.0",
    ])
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 2
    assert rows[1].startswith("1.3,0,")


def test_sweep_keeps_failure_rows_in_place():
    code, out = run([
        "sweep", "--param", "xi", "--start", "-0.1", "--stop", "0.5", "--steps", "2",
        "--", "count", "--ell", "1.3", "--tau", "0.0",
    ])
    assert code == 1
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[1] == "-0.1,1,,,,"
    assert rows[2] == "0.5,0,0.5,1.3,0,4"


def test_sweep_keeps_the_rows_of_declined_cells_with_the_sweeps_header():
    # a declined gaps cell keeps its report, margins included
    code, out = run([
        "sweep", "--param", "omega_plus", "--start", "0.01", "--stop", "0.02", "--steps", "2",
        "--", "gaps", "--xi", "0.05"])
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert code == 2 and rows[0] == "omega_plus,status,key,value"
    for value in ("0.01", "0.02"):
        assert f"{value},2,verdict,not-certified" in rows
        assert any(r.startswith(f"{value},2,gapless_margin,-") for r in rows)
    # the header is the answered cell's; a table without it is padded
    base = ["sweep", "--param", "xi", "--steps", "2", "--", "check-thm23", "--grid", "2",
            "--ell-max", "2"]
    code, out = run(base[:3] + ["--start", "0.05", "--stop", "0.2"] + base[3:])
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert code == 2 and rows[0] == "xi,status,ell,p_star,value,threshold,margin,ok"
    assert [r.split(",")[:2] for r in rows[1:3]] == [["0.05", "0"], ["0.05", "0"]]
    assert rows[3:] == ["0.2,2,,,,,,"]
    # with no answered cell, the first table's header is the sweep's
    code, out = run(base[:3] + ["--start", "0.15", "--stop", "0.2"] + base[3:])
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert code == 2 and rows == ["xi,status,verdict,margin",
                                  "0.15,2,not-applicable,0.0487891456898",
                                  "0.2,2,not-applicable,0.0987891456898"]


def test_sweep_propagates_certification_failures_as_two():
    code, out = run([
        "sweep", "--param", "xi", "--start", "0.2", "--stop", "0.2", "--steps", "1",
        "--", "check-thm23", "--grid", "1",
    ])
    assert code == 2


def test_sweep_worker_count_never_changes_the_bytes():
    argv = [
        "sweep", "--param", "xi", "--start", "0.3", "--stop", "0.7", "--steps", "5",
        "--", "count", "--ell", "1.3", "--tau", "0.0",
    ]
    serial = run(argv[:1] + ["--workers", "1"] + argv[1:])
    parallel = run(argv[:1] + ["--workers", "8"] + argv[1:])
    assert serial == parallel
    assert "--workers" not in serial[1]


def test_sweep_pool_holds_at_most_one_process_per_cell_and_core(monkeypatch):
    # a serial stand-in for the pool records the size asked for, so no
    # process is started whatever --workers says
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)

    def sweep(steps, workers):
        return run(["sweep", "--param", "xi", "--start", "0.3", "--stop", "0.7",
                    "--steps", str(steps), "--workers", str(workers),
                    "--", "count", "--ell", "1.3", "--tau", "0"])

    for cores, steps, workers, pool in [(4, 3, 10 ** 9, [3]), (4, 6, 10 ** 9, [4]),
                                        (4, 6, 2, [2]), (4, 1, 10 ** 9, []),
                                        (None, 6, 10 ** 9, [])]:
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        serial = sweep(steps, 1)
        sizes.clear()
        assert sweep(steps, workers) == serial
        assert sizes == pool


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_turns_an_inner_usage_error_into_failure_rows(workers):
    code, out = run([
        "sweep", "--param", "foo", "--start", "0", "--stop", "1", "--steps", "2",
        "--workers", workers, "--", "count", "--xi", "0.5", "--ell", "1", "--tau", "0",
    ])
    assert code == 1
    assert [l for l in out.splitlines() if not l.startswith("#")] == [
        "foo,status", "0,1", "1,1"]


def test_an_inner_usage_error_is_printed_once():
    code, out, err = run_with_stderr([
        "sweep", "--param", "foo", "--start", "0", "--stop", "4", "--steps", "5",
        "--", "count", "--xi", "0.5", "--ell", "1", "--tau", "0"])
    assert code == 1
    assert [l for l in out.splitlines() if not l.startswith("#")] == [
        "foo,status", "0,1", "1,1", "2,1", "3,1", "4,1"]
    assert err.count("error: unrecognized arguments") == 1, err


def test_a_sweep_keeps_a_separator_inside_its_inner_command():
    # only the -- that opens the inner command is dropped: a second one stays
    # in the inner command, which then fails as the direct call does
    inner = ["count", "--xi", "0.5", "--", "--tau", "0"]
    code, out, err = run_with_stderr(["sweep", "--param", "ell", "--start", "1.3", "--stop",
                                      "1.3", "--steps", "1", "--", *inner])
    assert code == 1
    assert f"# argv=sweep --param ell --start 1.3 --stop 1.3 --steps 1 --format csv -- " \
           f"{shlex.join(inner)}" in out.splitlines()
    assert [l for l in out.splitlines() if not l.startswith("#")] == ["ell,status", "1.3,1"]
    assert err.count("error: ") == 1, err
    assert run_with_stderr(["count", "--xi", "0.5", "--ell", "1.3", "--", "--tau", "0"])[0] == 1


def test_a_sweep_parses_its_inner_command_once(monkeypatch):
    calls, parser = [], cli._parser

    def counted(argv):
        calls.append(argv)
        return parser(argv)

    monkeypatch.setattr(cli, "_parser", counted)
    code, out = run(["sweep", "--param", "ell", "--start", "1", "--stop", "50", "--steps", "50",
                     "--", "count", "--xi", "0.5", "--tau", "0"])
    assert code == 0 and len(out.splitlines()) == 6 + 1 + 50
    assert [argv[0] for argv in calls] == ["sweep", "count"]


# inner command, swept flag and its three values (each value spelled as the
# sweep prints it, and reached exactly by its float steps)
_CELL_SWEEPS = [
    (["constants"], "xi", ("0.03125", "0.0625", "0.09375")),
    (["count", "--xi", "0.5", "--tau", "0"], "ell", ("1.5", "2.5", "3.5")),
    (["bands", "--xi", "0.5"], "kmax", ("1", "2", "3")),
    (["fourier", "--xi", "0.5", "--ell", "1.3"], "p", ("0", "1", "2")),
    (["phi", "--xi", "0.5", "--ell", "1.3", "--tol", "0.01"], "p", ("1", "2", "3")),
    (["phi-sup", "--xi", "0.5", "--tol", "0.01"], "ell", ("1.5", "2.5", "3.5")),
    (["check-thm23", "--xi", "0.05", "--grid", "2", "--ell-max", "2"], "tol",
     ("0.0625", "0.125", "0.1875")),
    (["gaps", "--xi", "0.05"], "omega_plus", ("0.015625", "0.03125", "0.046875")),
    (["galerkin", "--potential", str(DATA / "cosine.pot"), "--grid", "2"], "kmax",
     ("1", "2", "3")),
    # a flag abbreviated as argparse allows (--e for --ell), one spelled with a dash
    (["count", "--xi", "0.5", "--tau", "0"], "e", ("1.5", "2.5", "3.5")),
    (["check-thm23", "--xi", "0.05", "--grid", "2"], "ell-max", ("2", "3", "4")),
    # an integer flag abbreviated: typed as the flag it names
    (["bands", "--xi", "0.5"], "kma", ("1", "2", "3")),
]


def test_every_command_but_sweep_has_a_cell_case():
    assert {inner[0] for inner, _, _ in _CELL_SWEEPS} == set(COMMANDS) - {"sweep"}


@pytest.mark.parametrize("inner, name, values", _CELL_SWEEPS,
                         ids=[f"{inner[0]}-{name}" for inner, name, _ in _CELL_SWEEPS])
def test_a_sweep_cell_prints_the_rows_of_the_direct_call(inner, name, values):
    code, out = run(["sweep", "--param", name, "--start", values[0], "--stop", values[-1],
                     "--steps", "3", "--", *inner])
    header, *rows = [l for l in out.splitlines() if not l.startswith("#")]
    expected, statuses = [], []
    for value in values:
        status, direct = run(inner + ["--" + name.replace("_", "-"), value, "--format", "csv"])
        direct_header, *direct_rows = [l for l in direct.splitlines() if not l.startswith("#")]
        assert header == f"{name},status,{direct_header}"
        expected += [f"{value},{status},{row}" for row in direct_rows]
        statuses.append(status)
    assert rows == expected
    assert code == (0 if set(statuses) == {0} else 2)
    if inner[0] == "gaps":
        assert statuses == [2, 2, 2]  # declined cells keep their rows


def test_sweep_caps_steps_times_the_inner_grid_before_any_cell_runs():
    # xi at or above xi_critical: each cell checks its grid and answers
    # not-applicable without evaluating
    base = ["sweep", "--param", "xi", "--start", "0.2", "--stop", "0.3"]
    inner = ["--", "check-thm23"]
    # check-thm23's table default of 100 grid points counts: 101 x 100 > 10000
    code, out = run(base + ["--steps", "101"] + inner)
    assert (code, out) == (1, "")
    code, out = run(base + ["--steps", "2"] + inner + ["--grid", "5000"])
    assert code == 2
    code, out = run(base + ["--steps", "3"] + inner + ["--grid", "5000"])
    assert (code, out) == (1, "")


def test_sweep_spells_integer_flags_as_integers(capsys):
    code, out = run(["sweep", "--param", "p", "--start", "1", "--stop", "2", "--steps", "2",
                     "--", "phi", "--xi", "0.5", "--ell", "1.3"])
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
    assert [(r[0], r[1], r[4]) for r in rows] == [("1", "0", "1"), ("2", "0", "2")]
    # a value between integers is refused before any cell runs
    code = main(["sweep", "--param", "p", "--start", "1", "--stop", "2", "--steps", "3",
                 "--", "phi", "--xi", "0.5", "--ell", "1.3"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: --p takes integers, but the sweep reaches 1.5\n")


def test_sweeping_the_grid_flag_counts_every_cells_points(capsys):
    inner = ["--", "galerkin", "--potential", str(DATA / "cosine.pot"), "--kmax", "1"]
    code, out = run(["sweep", "--param", "grid", "--start", "1", "--stop", "3", "--steps", "3"]
                    + inner)
    assert code == 0
    assert [l.split(",")[0] for l in out.splitlines() if not l.startswith("#")][1:] == [
        "1", "2", "2", "3", "3", "3"]
    # 4000 + 5000 + 6000 points: each cell is under the ceiling, the sweep is not
    code = main(["sweep", "--param", "grid", "--start", "4000", "--stop", "6000",
                 "--steps", "3"] + inner)
    assert code == 1
    assert capsys.readouterr() == ("", f"error: 3 sweep steps of --grid ask for 15000 galerkin "
                                       f"points, over the ceiling of {MAX_GRID} points\n")


def test_an_abbreviated_grid_flag_counts_every_cells_points(capsys):
    # 1000 + 4500 + 8000 points: --gri names --grid, so the sum is capped,
    # not steps times the first cell's 1000
    code = main(["sweep", "--param", "gri", "--start", "1000", "--stop", "8000", "--steps", "3",
                 "--", "galerkin", "--potential", str(DATA / "cosine.pot"), "--kmax", "1"])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: 3 sweep steps of --grid ask for 13500 galerkin "
                                       f"points, over the ceiling of {MAX_GRID} points\n")


def test_sweep_validation_failures_exit_one():
    inner = ["--", "count", "--ell", "1.3", "--tau", "0.0"]
    base = ["sweep", "--param", "xi", "--start", "0.1", "--stop", "0.5"]
    code, _ = run(base + ["--steps", "0"] + inner)
    assert code == 1
    code, _ = run(base + ["--steps", "2"])  # no inner command
    assert code == 1
    code, _ = run(base + ["--steps", "2", "--", "sweep", "--param", "ell"])
    assert code == 1
    code, _ = run(base + ["--steps", "2", "--", "imaginary"])
    assert code == 1
    code, _ = run([
        "sweep", "--param", "xi", "--start", "0.9", "--stop", "0.1", "--steps", "2",
    ] + inner)
    assert code == 1
    code, _ = run(base + ["--steps", "2", "--workers", "0"] + inner)
    assert code == 1


# ---------------------------------------------------------------------------
# galerkin command
# ---------------------------------------------------------------------------

@pytest.fixture()
def cosine_potential_file(tmp_path):
    path = tmp_path / "cosine.txt"
    geom = resolve_geometry(T=1.0, d=1.0)
    spec = PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1)))
    write_potential_file(path, geom, spec)
    return str(path)


def test_galerkin_command_verifies_the_enclosure(cosine_potential_file):
    code, out = run([
        "galerkin", "--potential", cosine_potential_file,
        "--kmax", "2", "--grid", "5",
    ])
    assert code == 0
    assert "enclosure_ok = true" in out
    assert "terms = 2" in out


def test_galerkin_command_names_the_failing_condition_when_declined(cosine_potential_file,
                                                                    monkeypatch):
    # the cosine's zone-edge splitting leaves band 1 only 0.1 above E0 +
    # omega_-; a V = 0 table shifted up by 0.5 puts it 0.4 below, and the
    # real check declines it
    argv = ["galerkin", "--potential", cosine_potential_file, "--kmax", "2", "--grid", "5"]
    assert "failing" not in run(argv)[1]
    real = cli.unperturbed_band_functions

    def shifted(*args):
        table = real(*args)
        return galerkin.BandTable(table.tau_grid, table.energies + 0.5, table.lower + 0.5)

    monkeypatch.setattr(cli, "unperturbed_band_functions", shifted)
    code, out = run(argv)
    assert code == 2
    assert "enclosure_ok = false" in out
    assert out.splitlines()[-1] == "failing = band 1 tau 0.5 lower margin -0.400842064125"


def test_galerkin_command_solves_each_plus_minus_tau_pair_once(cosine_potential_file, monkeypatch):
    # --grid 9 gives tau = -7/18, ..., 7/18, 1/2: four exact pairs and 0.5
    # (band_functions rewrites the diagonal of its potential block once per
    # solved tau, then solves)
    assembled, solved = [], []
    real_set_diagonal, real_eigvalsh = galerkin._set_diagonal, np.linalg.eigvalsh
    monkeypatch.setattr(galerkin, "_set_diagonal",
                        lambda *a: assembled.append(a[2]) or real_set_diagonal(*a))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda H: solved.append(H.shape) or real_eigvalsh(H))
    code, out = run(["galerkin", "--potential", cosine_potential_file, "--grid", "9"])
    assert code == 0 and "tau_points = 9" in out
    assert assembled == [-7 / 18, -5 / 18, -3 / 18, -1 / 18, 0.5]
    assert len(solved) == 5


def test_galerkin_command_csv_lists_band_values(cosine_potential_file):
    code, out = run([
        "galerkin", "--potential", cosine_potential_file,
        "--kmax", "2", "--grid", "5", "--format", "csv",
    ])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "tau,k,energy0,energy_lower,energy"
    assert len(lines) == 1 + 5 * 2


def test_galerkin_command_rejects_conflicting_geometry(cosine_potential_file):
    code, _ = run([
        "galerkin", "--potential", cosine_potential_file, "--T", "2.0", "--d", "1.0",
    ])
    assert code == 1


def test_galerkin_command_takes_its_geometry_from_the_header(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    write_potential_file(path, resolve_geometry(T=1.0, d=20.0),
                         PotentialSpec(terms=((1, 0, 0.1), (-1, 0, 0.1))))
    base = ["galerkin", "--potential", str(path), "--kmax", "2", "--grid", "3"]
    code, out = run(base)
    assert code == 0
    assert ["xi = 0.05", "T = 1", "d = 20"] == [
        l for l in out.splitlines() if l.split(" = ")[0] in ("xi", "T", "d")]
    for flag, value in (("--xi", "0.05"), ("--T", "1"), ("--d", "20")):
        assert main(base + [flag, value]) == 1, flag
        assert capsys.readouterr().err == _unrecognized("galerkin", f"{flag} {value}")


def test_galerkin_command_fails_closed_on_an_unreadable_potential_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.pot")
    assert main(["galerkin", "--potential", missing]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot read potential file {missing!r}: No such file or directory\n")
    # inside a sweep every cell becomes a status-1 row, and the sweep goes on
    code, out = run(["sweep", "--param", "kmax", "--start", "1", "--stop", "2", "--steps", "2",
                     "--", "galerkin", "--potential", missing])
    assert code == 1
    assert [l for l in out.splitlines() if not l.startswith("#")] == ["kmax,status", "1,1", "2,1"]


def test_galerkin_command_requires_matching_truncation_flags(cosine_potential_file):
    code, _ = run([
        "galerkin", "--potential", cosine_potential_file, "--nmax", "4",
    ])
    assert code == 1
