"""Benchmark of stripgaps: time to certificate, end to end and per module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload thm23 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): thm23, series, gapchain, galerkin; ``all``
runs each in turn, in its own process, and prints one JSON object keyed by
workload.

The benchmark calls the CLI in-process (``stripgaps.cli.main``, stdout
captured), one invocation at a time: a closed loop with a single caller and no
worker pool.  It first runs the workload's invocation list once with cold
caches, then repeats it until ``--seconds`` have passed, checking every output
(see ``checks.py``).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are end to end, measured with tracing off:

    wall_s        median wall time of one pass over the invocation list
    cpu_s         median process CPU time of the same passes (all threads;
                  BLAS keeps its default thread count, recorded in the facts)
    setup_s       median over fresh interpreters of importing stripgaps.cli and
                  filling the first-call caches the workload uses
    peak_rss_mb   peak resident memory of this process
    pass_frac     1 - failed / attempted invocations; failed means raised,
                  timed out, unexpected exit status, or a failed output check
    decided_frac  1 - undecided / asked certification questions (gap windows,
                  thm23 energies, Galerkin enclosures); 1 when none are asked

With ``--trace 1`` half of the time runs untraced and half traced (spans
around each module's public functions, see ``tracer.py``); the metrics are the
per-layer medians over traced passes and ``trace.overhead_s``, traced minus
untraced ``wall_s``.

Nothing starts after a run deadline of ``RUN_LIMIT_S``; an invocation the
deadline cuts short is not counted.  If fewer than ``MIN_PASSES`` passes (per
half, when traced) complete, the run is an error: no result is printed and the
exit status is 1.  A single invocation that runs past ``INVOCATION_LIMIT_S``
counts as failed (a hang).

``attempted`` and ``failed`` count invocations over all passes.  ``correct`` is
false when any check fails for a reason other than the one known defect named
in ``checks.py``; that defect still counts in ``failed`` and ``pass_frac`` and
is named on stderr.  Machine and run facts, failures, per-pass times and (when
traced) every span go to ``.bench_out/`` in the checkout; a summary goes to
stderr.  The exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import numpy as np

from checks import Checker
from tracer import Tracer, layer_metrics
from workloads import SETUP_CODE, WORKLOADS, invocations, resonant_share

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Fresh processes timed for setup_s (after one untimed run that compiles).
SETUP_SAMPLES = 7
# Passes timed at least, whatever --seconds says.
MIN_PASSES = 3
# An invocation running longer is a hang; nothing starts after the run deadline.
INVOCATION_LIMIT_S = 60.0
RUN_LIMIT_S = 150.0

# Metric names, units and bounds are defined once, in BENCHMARK.json.
SPEC_PATH = ROOT / "BENCHMARK.json"


class _Timeout(Exception):
    pass


class TooFewPasses(Exception):
    """The run deadline came before MIN_PASSES passes completed."""


def _on_alarm(signum, frame):
    raise _Timeout()


@dataclass
class Ledger:
    """Failures, questions and endpoint errors over the whole run."""

    attempted: int = 0
    failed: int = 0
    unexpected: Counter = field(default_factory=Counter)
    known: Counter = field(default_factory=Counter)
    asked: int = 0
    undecided: int = 0
    endpoint_error: float = 0.0


class Runner:
    def __init__(self, cli_main, invs, checker, ledger, deadline, tracer=None):
        self.cli_main = cli_main
        self.invs = invs
        self.checker = checker
        self.ledger = ledger
        self.deadline = deadline
        self.tracer = tracer
        self.invocation = 0
        self.stdout_bytes: dict[int, int] = {}

    def one(self, inv) -> tuple[float, float] | None:
        """Run and check one invocation; return (wall, cpu).

        Return None, counting nothing, if the run deadline comes first.
        """
        ledger = self.ledger
        limit = min(INVOCATION_LIMIT_S, self.deadline - perf_counter())
        if limit <= 0:
            return None
        if self.tracer is not None:
            self.tracer.invocation = self.invocation
        self.invocation += 1
        out, err = io.StringIO(), io.StringIO()
        status, error = None, None
        signal.setitimer(signal.ITIMER_REAL, limit)
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli_main(list(inv.argv))
        except _Timeout:
            if limit < INVOCATION_LIMIT_S:   # cut by the run deadline, not a hang
                return None
            error = f"timed out after {limit:.0f} s"
        except Exception as exc:  # the run goes on; the failure is counted
            error = "raised " + "".join(traceback.format_exception_only(exc)).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = perf_counter() - t0, process_time() - c0
        ledger.attempted += 1
        stdout = out.getvalue()
        self.stdout_bytes[self.invocation - 1] = len(stdout.encode())
        if error is None:
            outcome = self.checker.check(inv, status, stdout)
            problems, known = outcome.failures, outcome.known
            ledger.asked += outcome.asked
            ledger.undecided += outcome.undecided
            ledger.endpoint_error = max(ledger.endpoint_error, outcome.endpoint_error)
        else:
            problems, known = [error], []
        if problems or known:
            ledger.failed += 1
        for p in problems:
            ledger.unexpected[f"{inv.key}: {p}"] += 1
        for k in known:
            ledger.known[k] += 1
        return wall, cpu

    def run_pass(self) -> tuple[float, float, dict[int, float]]:
        """One pass over the list: summed wall and CPU of the invocations."""
        wall = cpu = 0.0
        walls = {}
        for inv in self.invs:
            first = self.invocation
            timing = self.one(inv)
            if timing is None:
                break
            wall += timing[0]
            cpu += timing[1]
            walls[first] = timing[0]
        return wall, cpu, walls

    def timed(self, seconds: float, on_pass=None) -> list[tuple[float, float]]:
        passes = []
        start = perf_counter()
        while perf_counter() < self.deadline:
            before = (self.invocation, len(self.tracer.spans) if self.tracer else 0)
            wall, cpu, walls = self.run_pass()
            if len(walls) < len(self.invs):
                break
            passes.append((wall, cpu))
            if on_pass is not None:
                on_pass(before, walls)
            if len(passes) >= MIN_PASSES and perf_counter() - start >= seconds:
                break
        if len(passes) < MIN_PASSES:
            raise TooFewPasses(f"{len(passes)} of {MIN_PASSES} passes completed "
                               f"within the {RUN_LIMIT_S:.0f} s run limit")
        return passes


def measure_setup(workload: str) -> list[float]:
    code = "import sys; sys.path.insert(0, 'src'); import stripgaps.cli"
    if SETUP_CODE[workload]:
        code += "; " + SETUP_CODE[workload]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        if i:
            samples.append(perf_counter() - t0)
    return samples


def blas_facts() -> dict:
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    import ctypes

    facts = {"threads": None, "library": None}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["library"] = f"{config.get('name')} {config.get('version')}"
    except Exception:  # older numpy: no dict mode; the fact stays unknown
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {l.split()[-1] for l in fh if "openblas" in l.lower() and "/" in l}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                return facts
    return facts


def run_facts(seed: int, invs) -> dict:
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unavailable ({exc})"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
        "commit": commit,
        "seed": seed,
        "resonant_share": resonant_share(invs),
        "invocations": [inv.argv for inv in invs],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, invs=None) -> dict:
    """Run one workload; return the result record (see the module docstring)."""
    from stripgaps import cli

    deadline = perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    if invs is None:
        invs = invocations(workload, seed, OUT)
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        checker = Checker(json.load(fh))
    ledger = Ledger()
    tracer = Tracer() if trace else None
    runner = Runner(cli.main, invs, checker, ledger, deadline, tracer)
    signal.signal(signal.SIGALRM, _on_alarm)
    facts = run_facts(seed, invs)
    record = {"workload": workload, "facts": facts}

    if not trace:
        setup = measure_setup(workload)
        runner.run_pass()
        passes = runner.timed(seconds)
        record["setup_samples_s"] = setup
        record["pass_wall_s"] = [w for w, _ in passes]
        record["pass_cpu_s"] = [c for _, c in passes]
        metrics = {
            "wall_s": median([w for w, _ in passes]),
            "cpu_s": median([c for _, c in passes]),
            "setup_s": median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - ledger.failed / ledger.attempted,
            "decided_frac": 1.0 - ledger.undecided / ledger.asked if ledger.asked else 1.0,
        }
    else:
        tracer.install()
        runner.run_pass()
        cold = sum(s[2] - s[1] for s in tracer.spans
                   if s[0] == "oscillation.critical_constants")
        tracer.uninstall()
        plain = runner.timed(seconds / 2.0)
        per_pass = []
        tracer.install()
        try:
            def collect(before, walls):
                layers = layer_metrics(tracer.spans, before[1], len(tracer.spans), walls)
                layers["cli.stdout_bytes"] = sum(runner.stdout_bytes[i] for i in walls)
                per_pass.append(layers)
            traced = runner.timed(seconds / 2.0, on_pass=collect)
        finally:
            tracer.uninstall()
        metrics = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
        metrics["oscillation.critical_constants.s"] = cold
        metrics["oscillation.resonant_share"] = facts["resonant_share"]
        metrics["spectrum.endpoint_error_max"] = ledger.endpoint_error
        metrics["trace.overhead_s"] = median([w for w, _ in traced]) - median([w for w, _ in plain])
        record["untraced_wall_s"] = [w for w, _ in plain]
        record["traced_wall_s"] = [w for w, _ in traced]
        stem = f"{workload}-seed{seed}-trace1"
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    record.update({
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
        "computed": ["oscillation.terms", "oscillation.terms_max", "galerkin.assemble.dim_max",
                     "galerkin.matrix_bytes", "oscillation.resonant_share"],
        "known_failures": dict(ledger.known),
        "unexpected_failures": dict(ledger.unexpected),
    })
    return record


def _summary(record: dict) -> None:
    err = sys.stderr
    facts = record["facts"]
    blas = facts["blas"]
    err.write(f"workload {record['workload']} seed {facts['seed']}: nproc {facts['nproc']}, "
              f"python {facts['python']}, numpy {facts['numpy']}, BLAS {blas['library']} "
              f"with {blas['threads']} threads, commit {facts['commit']}\n")
    for name, m in record["metrics"].items():
        label = " (computed)" if name in record["computed"] else ""
        err.write(f"  {name:40s} {m['value']:<14.6g} {m['unit']}{label}\n")
    for msg, n in record["known_failures"].items():
        err.write(f"  KNOWN DEFECT x{n}: {msg}\n")
    for msg, n in record["unexpected_failures"].items():
        err.write(f"  FAILED x{n}: {msg}\n")


def run_all(args) -> int:
    """Each workload in a fresh process; print one JSON object keyed by workload."""
    results, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S + 60)
        status = status or proc.returncode
        if proc.returncode == 0:
            results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (ROOT / "src" / "stripgaps" / "cli.py").is_file() or not SPEC_PATH.is_file():
        sys.stderr.write(f"error: {ROOT} holds no stripgaps sources or no BENCHMARK.json\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except TooFewPasses as exc:
        sys.stderr.write(f"error: {args.workload}: {exc}; no result\n")
        return 1
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"record-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _summary(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
