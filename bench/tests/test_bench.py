"""Tests of the benchmark itself: tiny workloads, the checker, the oracle.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stripgaps import cli  # noqa: E402
from stripgaps.spectrum import scaled_levels_below  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    return status, out.getvalue()


def _own_reference(*argv):
    """An invocation with a reference recorded now, and its output."""
    inv = workloads._inv(*argv)
    status, stdout = _cli(inv.argv)
    return inv, checks.Checker({inv.key: {"status": status, "stdout": stdout}}), stdout


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_reports_every_end_to_end_metric(name):
    record = run.run(name, seed=0, seconds=0, trace=False,
                     invs=workloads.tiny(name, run.OUT))
    assert record["correct"], record["unexpected_failures"]
    assert record["attempted"] == (1 + run.MIN_PASSES) * len(workloads.tiny(name, run.OUT))
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(record["metrics"]) == names
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    invs = workloads.tiny("series", run.OUT)
    record = run.run("series", seed=0, seconds=0, trace=True, invs=invs)
    metrics = {k: m["value"] for k, m in record["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    (phi_row,) = checks.csv_rows(REFERENCE[invs[0].key]["stdout"])
    assert metrics["oscillation.terms"] == int(phi_row["truncation_n"])
    assert metrics["oscillation.phi_p.calls"] == 1
    assert metrics["fourier.ap_closed.calls"] == 1
    assert metrics["fourier.rows"] > 0
    assert metrics["cli.invocations"] == 2


def test_gapchain_counts_the_known_endpoint_defect_without_failing_the_run():
    record = run.run("gapchain", seed=0, seconds=0, trace=False,
                     invs=workloads.tiny("gapchain", run.OUT))
    assert record["correct"]
    assert record["failed"] == 1 + run.MIN_PASSES
    (message,) = record["known_failures"]
    assert message.startswith(checks.KNOWN_DEFECT) and "k=[23]" in message


def test_inward_endpoint_beyond_the_record_makes_the_run_incorrect(monkeypatch):
    bands = workloads._inv("bands", "--xi", 0.05, "--kmax", 200)
    corrupted = _move_endpoint(REFERENCE[bands.key]["stdout"], 10, "eta_scaled", 1e-3)

    def cli_main(argv):
        print(corrupted, end="")
        return 0

    monkeypatch.setattr(cli, "main", cli_main)
    record = run.run("gapchain", seed=0, seconds=0, trace=False, invs=[bands])
    assert not record["correct"]
    assert record["failed"] == record["attempted"] == 1 + run.MIN_PASSES


def test_invocations_the_run_deadline_cuts_are_not_counted():
    inv = workloads._inv("phi", "--xi", 0.3, "--ell", 2.5, "--p", 2, "--tol", "1e-2")
    ledger = run.Ledger()
    runner = run.Runner(cli.main, [inv], checks.Checker(REFERENCE), ledger,
                        deadline=run.perf_counter() - 1.0)
    assert runner.one(inv) is None
    with pytest.raises(run.TooFewPasses):
        runner.timed(0.0)
    assert ledger.attempted == ledger.failed == 0


def test_every_seed_draws_from_the_recorded_pool(tmp_path):
    pool = {inv.key for inv in workloads.pool(tmp_path)}
    assert pool <= set(REFERENCE)
    for name in workloads.WORKLOADS:
        for seed in range(20):
            for inv in workloads.invocations(name, seed, tmp_path):
                assert inv.key in pool


def test_seed_fixes_the_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.invocations(name, 7, tmp_path)
        assert first == workloads.invocations(name, 7, tmp_path)


def test_resonance_share_counts_integer_sqrt_ell_over_xi():
    assert workloads.is_resonant(0.05, 49.0)
    assert workloads.is_resonant(0.02, 4.0)
    assert not workloads.is_resonant(0.09, 49.0)
    assert not workloads.is_resonant(0.05, 48.5)


# ---------------------------------------------------------------------------
# the checker flags corrupted outputs
# ---------------------------------------------------------------------------

def _phi_key():
    return next(k for k in REFERENCE if k.startswith("phi --xi 0.3"))


def test_phi_value_moved_by_three_tol_is_flagged():
    key = _phi_key()
    inv = workloads.Invocation(key=key, argv=tuple(key.split()))
    stdout = REFERENCE[key]["stdout"]
    checker = checks.Checker(REFERENCE)
    assert not checker.check(inv, 0, stdout).failed
    (row,) = checks.csv_rows(stdout)
    tol = float(checks.flag(inv.argv, "--tol"))
    moved = float(row["value"]) + 3 * tol
    corrupted = stdout.replace(f",{row['value']},", f",{moved:.12g},")
    assert corrupted != stdout
    assert checker.check(inv, 0, corrupted).failures


def test_flipped_exit_status_is_flagged():
    key = _phi_key()
    inv = workloads.Invocation(key=key, argv=tuple(key.split()))
    outcome = checks.Checker(REFERENCE).check(inv, 2, REFERENCE[key]["stdout"])
    assert outcome.failures and "exit status 2" in outcome.failures[0]


def _move_endpoint(stdout: str, k: int, column: str, delta: float) -> str:
    """stdout of bands with band k's scaled bottom or top shifted by delta."""
    lines = stdout.splitlines()
    header = next(l for l in lines if l.startswith("k,")).split(",")
    i = next(i for i, l in enumerate(lines) if l.split(",")[0] == str(k))
    fields = lines[i].split(",")
    j = header.index(column)
    fields[j] = f"{float(fields[j]) + delta:.12g}"
    lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_band_endpoint_moved_inward_is_flagged():
    inv, checker, stdout = _own_reference("bands", "--xi", 0.25, "--kmax", 40)
    assert not checker.check(inv, 0, stdout).failed
    outcome = checker.check(inv, 0, _move_endpoint(stdout, 5, "eta_scaled", 1e-6))
    assert not outcome.known
    assert outcome.failures and "bottom k=5" in outcome.failures[0]
    assert outcome.endpoint_error == pytest.approx(1e-6, rel=1e-3)


def _known_defect_case():
    key = "bands --xi 0.05 --kmax 200"
    inv = workloads.Invocation(key=key, argv=tuple(key.split()))
    return inv, checks.Checker(REFERENCE), REFERENCE[key]["stdout"]


def test_recorded_inward_endpoints_are_the_known_defect_only():
    inv, checker, stdout = _known_defect_case()
    outcome = checker.check(inv, 0, stdout)
    assert not outcome.failures
    (message,) = outcome.known
    known = checks.KNOWN_INWARD[(0.05, 200)]
    assert f"k={sorted(known['bottom'])}" in message and f"k={sorted(known['top'])}" in message
    assert outcome.endpoint_error == pytest.approx(max(known["bottom"].values()), rel=1e-6)


@pytest.mark.parametrize("k,column,delta", [
    (10, "eta_scaled", 1e-3),      # a bottom outside the recorded set
    (10, "theta_scaled", -1e-3),   # a top outside the recorded set
    (66, "theta_scaled", -1e-3),   # recorded index, but the other endpoint
    (165, "eta_scaled", 1e-4),     # recorded bottom, further inward than recorded
])
def test_inward_endpoint_beyond_the_record_is_an_unexpected_failure(k, column, delta):
    inv, checker, stdout = _known_defect_case()
    outcome = checker.check(inv, 0, _move_endpoint(stdout, k, column, delta))
    side = "bottom" if column == "eta_scaled" else "top"
    assert outcome.failures and f"{side} k={k} " in outcome.failures[0]


def test_band_endpoint_moved_outward_is_an_unexpected_failure():
    inv, checker, stdout = _own_reference("bands", "--xi", 0.25, "--kmax", 40)
    assert checker.check(inv, 0, _move_endpoint(stdout, 1, "eta_scaled", -1e-3)).failures


def test_fourier_residual_inequality_uses_the_paired_phi():
    phi, fourier = workloads.tiny("series", run.OUT)
    checker = checks.Checker(REFERENCE)
    assert not checker.check(phi, 0, REFERENCE[phi.key]["stdout"]).failed
    stdout = REFERENCE[fourier.key]["stdout"]
    assert not checker.check(fourier, 0, stdout).failed
    (row,) = checks.csv_rows(stdout)
    corrupted = stdout.replace(f",{row['value']},", f",{float(row['value']) + 5:.12g},")
    assert checker.check(fourier, 0, corrupted).failures


def test_galerkin_energy_moved_beyond_gate_tolerance_is_flagged():
    (inv,) = workloads.tiny("galerkin", run.OUT)
    stdout = REFERENCE[inv.key]["stdout"]
    checker = checks.Checker(REFERENCE)
    assert not checker.check(inv, 0, stdout).failed
    lines = stdout.splitlines()
    fields = lines[-1].split(",")
    fields[-1] = f"{float(fields[-1]) + 1e-5:.12g}"
    lines[-1] = ",".join(fields)
    assert checker.check(inv, 0, "\n".join(lines) + "\n").failures


def test_thm23_negative_margin_is_flagged():
    key = next(k for k in REFERENCE if k.startswith("check-thm23"))
    inv = workloads.Invocation(key=key, argv=tuple(key.split()))
    stdout = REFERENCE[key]["stdout"]
    assert not checks.Checker(REFERENCE).check(inv, 0, stdout).failed
    lines = stdout.splitlines()
    fields = lines[-1].split(",")
    fields[-2], fields[-1] = "-0.001", "false"
    lines[-1] = ",".join(fields)
    outcome = checks.Checker(REFERENCE).check(inv, 0, "\n".join(lines) + "\n")
    assert outcome.failures and outcome.undecided == 1


# ---------------------------------------------------------------------------
# the exact endpoint oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("xi,k_max", [(0.5, 30), (0.13, 40), (0.05, 60)])
def test_oracle_brackets_a_fine_scan_and_is_attained(xi, k_max):
    lo, hi = checks.exact_band_endpoints(xi, k_max)
    scan_lo, scan_hi = np.full(k_max, np.inf), np.full(k_max, -np.inf)
    for tau in np.linspace(0.0, 0.5, 4001):
        levels = np.sort(scaled_levels_below(xi, tau, hi[-1] + 1.0))[:k_max]
        scan_lo, scan_hi = np.minimum(scan_lo, levels), np.maximum(scan_hi, levels)
    assert np.all(lo <= scan_lo + 1e-12) and np.all(hi >= scan_hi - 1e-12)
    # a 4001-point scan misses an extremum by O(step * slope) at most
    assert np.all(scan_lo - lo < 1e-3) and np.all(hi - scan_hi < 1e-3)


def test_oracle_finds_the_crossing_maximum_exactly():
    # at xi = 1/2, band 2 peaks where (tau)^2 + 1 = (tau - 1)^2 + 1/4 crosses,
    # tau = 1/8, level 1 + 1/64
    lo, hi = checks.exact_band_endpoints(0.5, 3)
    assert hi[1] == pytest.approx(1.015625, abs=1e-15)
    assert lo[0] == pytest.approx(0.25, abs=1e-15)


def test_oracle_endpoints_are_ordered_by_band_index():
    rng = random.Random(3)
    for _ in range(3):
        xi, k_max = rng.uniform(0.05, 0.8), rng.randint(5, 50)
        lo, hi = checks.exact_band_endpoints(xi, k_max)
        assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)
        assert np.all(lo <= hi)
