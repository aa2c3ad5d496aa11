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
# form, non-finite numbers and numbers past float resolution.
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
