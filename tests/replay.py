"""Replay CLI invocations on two checkouts and print every difference.

    python tests/replay.py PARENT_CHECKOUT

compares PARENT_CHECKOUT with the checkout this file belongs to.  The
invocations are every entry of tests/data/cli_corpus.json, every invocation
of bench.workloads.pool() (which only writes its potential files, to a
temporary directory) and EXTRA below.  Each checkout runs all of them in one
interpreter, calling stripgaps.cli.main in-process with OPENBLAS_NUM_THREADS=1,
its own src/ first on the path and its root as working directory (where the
corpus' relative potential path resolves).  Exit status, stdout and stderr
are compared; an exception escaping main is recorded as its type and text.

Prints one block per differing invocation and a summary line; exits 0 when
every invocation agrees, 1 otherwise.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

# Inputs beyond the corpus and the bench pool: negative values in exponent
# form, non-finite numbers, numbers past float resolution, tolerances that
# leave no certificate and sweeps with declined cells.
EXTRA = [
    ["gaps", "--xi", "0.05", "--omega-minus", "-1e-3", "--omega-plus", "0.01"],
    ["gaps", "--xi", "0.05", "--omega-minus", "-0.001", "--omega-plus", "0.01"],
    ["sweep", "--param", "omega_minus", "--start", "-2e-05", "--stop", "0", "--steps", "3",
     "--", "gaps", "--xi", "0.05", "--omega-plus", "0.01"],
    ["sweep", "--param", "omega_minus", "--start", "-0.00002", "--stop", "0", "--steps", "3",
     "--", "gaps", "--xi", "0.05", "--omega-plus", "0.01"],
    ["sweep", "--param", "p", "--start", "1", "--stop", "2", "--steps", "2",
     "--", "phi", "--xi", "0.5", "--ell", "1.3"],
    ["count", "--xi", "0.5", "--ell", "1.3", "--tau", "-1e-05"],
    ["count", "--xi", "0.5", "--ell", "1.3", "--tau", "-0.00001"],
    ["constants", "--xi", "nan"],
    ["constants", "--xi", "inf"],
    ["constants", "--xi", "5e-324"],
    *[[command, "--xi", "0.05", *flags, "--tol", tol]
      for command, flags in (("phi", ["--ell", "1.3", "--p", "1"]), ("phi-sup", ["--ell", "1.3"]),
                             ("check-thm23", ["--grid", "2"]))
      for tol in ("nan", "inf")],
    ["phi", "--xi", "0.5", "--ell", "1.3", "--p", "1", "--tol", "5e-324"],
    ["phi", "--xi", "0.5", "--ell", "inf", "--p", "1"],
    ["phi-sup", "--xi", "0.5", "--ell", "1.3", "--cutoff-c1", "nan"],
    ["check-thm23", "--xi", "0.05", "--ell-max", "inf"],
    ["check-thm23", "--xi", "0.2", "--grid", "0"],
    ["fourier", "--xi", "0.5", "--ell", "1.3", "--p", "10000000000000000000000"],
    ["galerkin", "--potential", "tests/data/cosine.pot", "--xi", "nan"],
    ["galerkin", "--potential", "tests/data/cosine.pot", "--xi", "inf"],
    ["galerkin", "--potential", "tests/data/cosine.pot", "--tol", "nan"],
    ["sweep", "--param", "xi", "--start", "-inf", "--stop", "0.5", "--steps", "2",
     "--", "count", "--ell", "1.3", "--tau", "0"],
    ["bands", "--xi", "1e16", "--kmax", "2"],
    *[["check-thm23", "--xi", "0.05", "--grid", "2", "--ell-max", "2", "--tol", tol]
      for tol in ("1e300", "0.4", "1e308")],
    *[["sweep", "--param", "xi", "--start", start, "--stop", "0.2", "--steps", "2",
       "--", "check-thm23", "--grid", "2", "--ell-max", "2"] for start in ("0.05", "0.15")],
    # every tail route of phi_p's cut: ell^(1/2)/xi an integer at ell = 49,
    # and 1e-9, 1e-6 and 1e-3 relative off it; the fallback; the 4.3e6-term
    # near-resonant cut; and cuts that the rounding re-search moves
    *[[command, "--xi", xi, "--ell", ell, *flags]
      for xi in ("0.02", "0.05")
      for ell in ("49", "49.000000049", "49.000049", "49.049")
      for command, flags in (("phi", ["--p", "1"]), ("phi", ["--p", "13"]),
                             ("phi", ["--p", "30"]), ("phi-sup", []))],
    ["phi", "--xi", "0.05", "--ell", "49.0001", "--p", "1", "--tol", "1e-2"],
    ["phi", "--xi", "0.05", "--ell", "49.00000007", "--p", "1"],
    *[["phi", "--xi", xi, "--ell", ell, "--p", p, "--tol", tol]
      for xi, ell, p, tol in (("0.005", "318.80102531880107", "1", "5e-4"),
                              ("0.02", "5282.382400000001", "13", "5e-5"),
                              ("0.09", "39668.72856868889", "2", "5e-5"),
                              ("0.3", "617325.1073244899", "2", "1e-4"))],
    # a sweep of every inner command, each cell running on the parsed options
    *[["sweep", "--param", name, "--start", start, "--stop", stop, "--steps", "3", "--", *inner]
      for inner, name, start, stop in (
          (["constants"], "xi", "0.02", "0.2"),
          (["count", "--xi", "0.5", "--tau", "0.25"], "ell", "1.3", "9.9"),
          (["bands", "--xi", "0.05"], "kmax", "1", "5"),
          (["fourier", "--xi", "0.5", "--ell", "1.3"], "p", "0", "2"),
          (["phi", "--xi", "0.05", "--ell", "49"], "p", "1", "3"),
          (["phi-sup", "--xi", "0.05", "--tol", "1e-3"], "ell", "2.7", "59.216"),
          (["check-thm23", "--xi", "0.05", "--grid", "3", "--ell-max", "5"], "tol",
           "1e-4", "0.1"),
          (["gaps", "--xi", "0.05", "--omega-plus", "0.01", "--ell-max", "40"], "xi",
           "0.04", "0.06"),
          (["galerkin", "--potential", "tests/data/cosine.pot", "--kmax", "2", "--grid", "3"],
           "tol", "-0.1", "0.1"),
          # an inner report format: the sweep stays CSV
          (["gaps", "--xi", "0.05", "--format", "report"], "omega_plus", "0.01", "0.02"),
          # every cell fails: a format that is no choice, a potential file
          # that is not there
          (["count", "--xi", "0.5", "--ell", "1.3", "--tau", "0"], "format", "0", "1"),
          (["galerkin", "--kmax", "1"], "potential", "0", "1"),
          # the grid flag itself
          (["check-thm23", "--xi", "0.05", "--ell-max", "2"], "grid", "1", "3"),
          # a flag abbreviated (--e for --ell), and one spelled with a dash
          (["count", "--xi", "0.5", "--tau", "0"], "e", "1.3", "2.3"),
          (["check-thm23", "--xi", "0.05", "--grid", "2"], "ell-max", "2", "4"))],
    ["sweep", "--param", "xi", "--start", "0.3", "--stop", "0.7", "--steps", "5",
     "--workers", "2", "--", "phi", "--ell", "2.7", "--p", "2"],
    # the removed --low-points swept (every cell fails), and an integer flag
    # swept by an abbreviation
    ["sweep", "--param", "low-points", "--start", "2", "--stop", "4", "--steps", "2",
     "--", "gaps", "--xi", "0.05", "--omega-plus", "0.01"],
    ["sweep", "--param", "kma", "--start", "2", "--stop", "3", "--steps", "2",
     "--", "bands", "--xi", "0.5"],
    # ceilings on a tie that the band count decides: a lattice level at tau 0,
    # (0 + 1)^2 + 0.25 * 2^2, one at tau 1/2, (1/2 + 1)^2 + 0.25 * 1^2, and
    # the top of band 2 (a crossing at tau 1/8)
    *[["gaps", "--xi", "0.5", "--c0", "0.5", "--ell-max", ell]
      for ell in ("2", "2.5", "1.015625")],
    # finite bounds whose oscillation overflows; the removed --low-points; an
    # ell1 whose fourth term (the overlap bound's root) dominates
    ["gaps", "--xi", "0.03", "--omega-minus", "-1e308", "--omega-plus", "1e308"],
    ["gaps", "--xi", "0.03", "--omega-plus", "0.02", "--low-points", "8"],
    ["gaps", "--xi", "0.05", "--omega-plus", "100"],
    # removed flags: gaps --omega-l (alone and with the pair it stood for),
    # galerkin's geometry (matching and conflicting with the header) and tol
    ["gaps", "--xi", "0.03", "--omega-l", "0.01"],
    ["gaps", "--T", "1.0", "--xi", "0.03", "--omega-l", "0.01", "--omega-minus", "0.0"],
    *[["galerkin", "--potential", "tests/data/cosine.pot", *flags]
      for flags in (["--xi", "1.0"], ["--T", "1.0", "--d", "1.0"], ["--T", "2.0", "--d", "1.0"],
                    ["--d", "1"], ["--tol", "-0.5"], ["--tol", "0"])],
    # a sweep in report format: one block per row
    ["sweep", "--param", "omega_plus", "--start", "0.01", "--stop", "0.02", "--steps", "2",
     "--format", "report", "--", "gaps", "--xi", "0.05"],
    ["sweep", "--param", "kmax", "--start", "1", "--stop", "2", "--steps", "2",
     "--format", "report", "--", "galerkin", "--potential", "tests/data/cosine.pot",
     "--grid", "2"],
    # minorant constants without --c0, and with it
    *[["gaps", "--xi", "0.03", *flags]
      for flags in (["--gamma", "0.2"], ["--ell0", "5"], ["--gamma", "0.2", "--ell0", "5"],
                    ["--c0", "0.5", "--gamma", "0.2", "--ell0", "5"])],
    # one scaled oscillation in the units d = 1 and 4 (the corpus has d = 2),
    # and windows at T = 1 (d = 20)
    ["gaps", "--xi", "0.02", "--omega-plus", "20"],
    ["gaps", "--xi", "0.02", "--d", "4", "--omega-plus", "1.25"],
    ["gaps", "--T", "1.0", "--xi", "0.05", "--omega-plus", "0.02", "--ell-max", "20"],
    # ell1 past float range: the scaled oscillation overflows, or only its
    # quotient by xi^2 does
    ["gaps", "--xi", "0.03", "--d", "1e154", "--omega-plus", "1e10"],
    ["gaps", "--T", "1", "--d", "1e150", "--omega-plus", "1e200"],
    # band endpoints at T = 1, whose energy scale pi^2 is not a power of two
    ["bands", "--T", "1.0", "--xi", "0.03", "--kmax", "1000"],
    # a second -- inside a sweep's inner command stays there
    ["sweep", "--param", "ell", "--start", "1.3", "--stop", "1.3", "--steps", "1",
     "--", "count", "--xi", "0.5", "--", "--tau", "0"],
]

# Run in each checkout: read a JSON list of argvs on stdin, write a JSON list
# of [status, stdout, stderr] on stdout.
_RECORD = """
import contextlib, io, json, sys
from stripgaps.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except BaseException as exc:
            status = f"raised {type(exc).__name__}: {exc}"
    results.append([status, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def invocations(workdir: Path) -> list[list[str]]:
    corpus = json.loads((HERE / "tests" / "data" / "cli_corpus.json").read_text())
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    from bench.workloads import pool

    return ([entry["argv"] for entry in corpus]
            + [list(inv.argv) for inv in pool(workdir)] + EXTRA)


def record(checkout: Path, argvs: list[list[str]]) -> list[list]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _RECORD], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=checkout, env=env, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    parent = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as workdir:
        argvs = invocations(Path(workdir))
        before, after = record(parent, argvs), record(HERE, argvs)
    differ = 0
    for args, old, new in zip(argvs, before, after):
        if old == new:
            continue
        differ += 1
        print(f"== {' '.join(args)}")
        for name, a, b in zip(("status", "stdout", "stderr"), old, new):
            if a == b:
                continue
            if name == "status":
                print(f"status: {a} -> {b}")
            else:
                print(f"{name}:")
                sys.stdout.writelines(difflib.unified_diff(
                    a.splitlines(True), b.splitlines(True), "parent", "change", n=1))
                if not b.endswith("\n") or not a.endswith("\n"):
                    print()
    print(f"{len(argvs)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
