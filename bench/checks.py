"""Output checks for benchmark invocations, and the exact band-endpoint oracle.

Every invocation is checked against the exit status and verdict recorded in
``reference.json`` (see ``make_reference.py``).  Certified numbers are compared
within the tolerance the program itself certifies, never byte for byte, so a
later change that legitimately tightens a certified number still passes:

* ``phi``: ``|new - ref| <= tail_new + tail_ref`` and ``tail <= tol``;
* ``phi-sup`` and ``check-thm23`` values: each side is within ``tol`` of the
  true supremum, so ``|new - ref| <= 2 tol``; every thm23 margin is >= 0;
* ``fourier``: closed-form values agree with the reference to print rounding,
  and the residual inequality of the oscillation profile holds between the
  fourier output and its paired phi output;
* ``bands``: endpoints agree with the exact oracle below;
* ``galerkin``: band energies agree with the reference within the gate
  tolerance of the solver at the time the reference was recorded.

A failure is either unexpected or a known defect.  The one known defect is
that ``bands`` reports sampled band endpoints that can lie inside the exact
band.  It is recorded as found when the benchmark was written
(``KNOWN_INWARD``): an inward endpoint at a recorded band index, no further
inward than recorded, is counted as a failed invocation and named, but does not
make the run incorrect (see ``run.py``).  Any other inward endpoint, at a new
index or further inward, is an unexpected failure.
"""

from __future__ import annotations

import math
import shlex
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance (scaled-energy units, relative to max(1, |E|)) within
# which a reported band endpoint must match the exact one.
ENDPOINT_TOL = 1e-9
# Galerkin energies: the convergence gate's drift tolerance at the reference.
GATE_TOL = 1e-6
# Closed-form values printed with 12 significant digits agree "to rounding".
ROUNDING_RTOL = 1e-10

KNOWN_DEFECT = "bands-inward-endpoints"

# The known defect as found: per bands input (xi, kmax), the band indices whose
# reported bottom or top lay inside the exact band by more than ENDPOINT_TOL,
# and by how much (scaled energy units).
KNOWN_INWARD = {
    (0.05, 200): {
        "bottom": {66: 8.155859e-3, 97: 1.146484e-3, 104: 7.010937e-3, 107: 7.1125e-3,
                   109: 9.655556e-3, 146: 5.17334e-3, 155: 3.684451e-3, 165: 1.108584e-2,
                   187: 1.355859e-3, 189: 8.036111e-3, 192: 5.655859e-3, 193: 2.763889e-3},
        "top": {65: 2.029297e-3, 71: 3.053516e-3, 105: 3.003516e-3, 125: 4.65625e-3,
                150: 8.076172e-3, 152: 8.90625e-3, 167: 7.539063e-3, 169: 6.511111e-3,
                185: 2.244e-3},
    },
    (0.5, 30): {"bottom": {}, "top": {23: 1.5625e-2}},
}
# Recorded errors carry 7 significant digits; a known endpoint may exceed its
# record by this relative margin (rounding) before it counts as worse.
KNOWN_SLACK = 1e-6


@dataclass
class Outcome:
    """What checking one invocation found."""

    failures: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    asked: int = 0
    undecided: int = 0
    endpoint_error: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.known)


# ---------------------------------------------------------------------------
# parsing the CLI's output formats
# ---------------------------------------------------------------------------

def csv_rows(stdout: str) -> list[dict[str, str]]:
    lines = [l for l in stdout.splitlines() if l and not l.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def report_items(stdout: str) -> dict[str, str]:
    items = {}
    for line in stdout.splitlines():
        if " = " in line and not line.startswith("#"):
            key, value = line.split(" = ", 1)
            items[key] = value
    return items


def meta_items(stdout: str) -> dict[str, str]:
    items = {}
    for line in stdout.splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            items[key] = value
    return items


def flag(argv, name: str, default: str | None = None) -> str | None:
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else default


def _slack(a: float, b: float) -> float:
    """Print rounding of two 12-significant-digit values."""
    return 1e-11 * max(1.0, abs(a), abs(b))


def _close(a: float, b: float, rtol: float = ROUNDING_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# exact unperturbed band endpoints
# ---------------------------------------------------------------------------

def exact_band_endpoints(xi: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact (min, max) over tau of the first k_max band functions, scaled units.

    The band function E_k(tau) is the k-th smallest level (tau+n)^2 + xi^2 m^2
    (n in Z, m >= 1).  It is even in tau, so [0, 1/2] suffices.  There every
    level curve is monotone: increasing for n >= 0, decreasing for n <= -1.
    Between two consecutive crossings E_k follows one curve, so its extrema
    lie at tau in {0, 1/2} or where an increasing curve crosses a decreasing
    one, at tau = (xi^2 (m'^2 - m^2)/(n - n') - n - n')/2.  E_k is evaluated
    exactly (up to float rounding) at every such candidate.

    Only curves whose minimum is at or below C can take part, where C, the
    k_max-th smallest curve maximum, bounds every E_k from above.  C and the
    crossing filter carry a relative slack of 1e-9, so rounding can only add
    candidates, never drop one.
    """
    xi2 = xi * xi
    ceiling = max(1.0, 4.0 * xi2, 2.6 * xi * k_max / math.pi)
    while True:
        n_top = int(math.sqrt(ceiling)) + 1
        m_top = int(math.sqrt(ceiling) / xi) + 1
        n = np.arange(-n_top - 1, n_top + 1)
        m = np.arange(1, m_top + 1)
        nn, mm = np.meshgrid(n, m, indexing="ij")
        edge = np.maximum(nn.astype(float) ** 2, (nn + 0.5) ** 2)
        maxima = (edge + xi2 * mm ** 2).ravel()
        if np.count_nonzero(maxima <= ceiling) >= k_max:
            break
        ceiling *= 2.0
    cap = np.partition(maxima, k_max - 1)[k_max - 1] * (1.0 + 1e-9)
    minima = np.where(nn >= 0, nn.astype(float) ** 2, (nn + 0.5) ** 2) + xi2 * mm ** 2
    keep = minima.ravel() <= cap
    cn = nn.ravel()[keep].astype(float)
    cm2 = (mm.ravel()[keep].astype(float)) ** 2

    taus = [np.array([0.0, 0.5])]
    inc, dec = cn >= 0, cn <= -1
    for n_up in np.unique(cn[inc]):
        m_up = cm2[inc & (cn == n_up)]
        for n_dn in np.unique(cn[dec]):
            m_dn = cm2[dec & (cn == n_dn)]
            t = (xi2 * (m_dn[None, :] - m_up[:, None]) / (n_up - n_dn) - n_up - n_dn) / 2.0
            level = (t + n_up) ** 2 + xi2 * m_up[:, None]
            ok = (t >= 0.0) & (t <= 0.5) & (level <= cap)
            taus.append(t[ok])
    taus = np.unique(np.concatenate(taus))

    lo = np.full(k_max, np.inf)
    hi = np.full(k_max, -np.inf)
    chunk = max(1, 250_000 // max(1, cn.size))   # bounded memory
    for start in range(0, taus.size, chunk):
        t = taus[start:start + chunk, None]
        levels = (t + cn[None, :]) ** 2 + xi2 * cm2[None, :]
        kth = np.sort(np.partition(levels, k_max - 1, axis=1)[:, :k_max], axis=1)
        lo = np.minimum(lo, kth.min(axis=0))
        hi = np.maximum(hi, kth.max(axis=0))
    return lo, hi


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks invocation outputs against the reference and the exact oracle.

    ``reference`` maps an invocation key to ``{"status": int, "stdout": str}``.
    Oracle results are cached per argument list, since the benchmark repeats
    the same invocations.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self._oracle: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}
        self._phi_rows: dict[str, dict[str, str]] = {}

    def check(self, inv, status: int | None, stdout: str) -> Outcome:
        out = Outcome()
        ref = self.reference.get(inv.key)
        if ref is None:
            out.failures.append(f"no reference recorded for {inv.key!r}")
            return out
        if status != ref["status"]:
            out.failures.append(f"exit status {status}, expected {ref['status']}")
            return out
        try:
            getattr(self, "_" + inv.argv[0].replace("-", "_"))(inv, stdout, ref["stdout"], out)
        except (KeyError, ValueError, IndexError) as exc:
            out.failures.append(f"malformed output: {exc!r}")
        return out

    def _phi(self, inv, stdout, ref_stdout, out):
        (row,), (ref,) = csv_rows(stdout), csv_rows(ref_stdout)
        value, tail = float(row["value"]), float(row["tail_bound"])
        rvalue, rtail = float(ref["value"]), float(ref["tail_bound"])
        tol = float(flag(inv.argv, "--tol", "1e-4"))
        if tail > tol * (1.0 + 1e-12):
            out.failures.append(f"tail bound {tail} above tol {tol}")
        if abs(value - rvalue) > tail + rtail + _slack(value, rvalue):
            out.failures.append(
                f"phi {value} differs from reference {rvalue} by more than "
                f"the certified tails {tail} + {rtail}")
        self._phi_rows[inv.key] = row

    def _phi_sup(self, inv, stdout, ref_stdout, out):
        (row,), (ref,) = csv_rows(stdout), csv_rows(ref_stdout)
        tol = float(flag(inv.argv, "--tol", "1e-4"))
        value, rvalue = float(row["value"]), float(ref["value"])
        if abs(value - rvalue) > 2.0 * tol + _slack(value, rvalue):
            out.failures.append(
                f"sup {value} differs from reference {rvalue} by more than 2 tol")

    def _check_thm23(self, inv, stdout, ref_stdout, out):
        rows, refs = csv_rows(stdout), csv_rows(ref_stdout)
        tol = float(flag(inv.argv, "--tol", "1e-4"))
        if len(rows) != len(refs):
            out.failures.append(f"{len(rows)} energies, reference has {len(refs)}")
            return
        for row, ref in zip(rows, refs):
            out.asked += 1
            ell, value = float(row["ell"]), float(row["value"])
            if row["ok"] != "true" or float(row["margin"]) < 0.0:
                out.undecided += 1
                out.failures.append(f"ell={ell}: margin {row['margin']} not certified")
            if not _close(ell, float(ref["ell"])):
                out.failures.append(f"energy {ell} differs from reference {ref['ell']}")
            rvalue = float(ref["value"])
            if abs(value - rvalue) > 2.0 * tol + _slack(value, rvalue):
                out.failures.append(
                    f"ell={ell}: sup {value} differs from reference {rvalue} by more than 2 tol")

    def _fourier(self, inv, stdout, ref_stdout, out):
        (row,), (ref,) = csv_rows(stdout), csv_rows(ref_stdout)
        value, bound = float(row["value"]), float(row["residual_bound"])
        if not _close(value, float(ref["value"])):
            out.failures.append(f"a_p {value} differs from reference {ref['value']}")
        if not _close(bound, float(ref["residual_bound"])):
            out.failures.append(
                f"residual bound {bound} differs from reference {ref['residual_bound']}")
        phi = self._phi_rows.get(inv.pair)
        if phi is None:
            out.failures.append(f"paired phi output {inv.pair!r} missing")
            return
        ell = float(row["ell"])
        half_quarter = 0.5 * ell ** 0.25
        residual = abs(value - half_quarter * float(phi["value"]))
        allowed = bound + half_quarter * float(phi["tail_bound"])
        if residual > allowed:
            out.failures.append(
                f"residual |a_p - ell^(1/4) phi_p / 2| = {residual} exceeds {allowed}")

    def _bands(self, inv, stdout, ref_stdout, out):
        rows = csv_rows(stdout)
        xi, k_max = float(flag(inv.argv, "--xi")), int(flag(inv.argv, "--kmax", "8"))
        if [int(r["k"]) for r in rows] != list(range(1, k_max + 1)):
            out.failures.append(f"band indices are not 1..{k_max}")
            return
        if (xi, k_max) not in self._oracle:
            self._oracle[(xi, k_max)] = exact_band_endpoints(xi, k_max)
        exact_lo, exact_hi = self._oracle[(xi, k_max)]
        eta = np.array([float(r["eta_scaled"]) for r in rows])
        theta = np.array([float(r["theta_scaled"]) for r in rows])
        scale_lo = np.maximum(1.0, np.abs(exact_lo))
        scale_hi = np.maximum(1.0, np.abs(exact_hi))
        inward_lo = (eta - exact_lo) / scale_lo
        inward_hi = (exact_hi - theta) / scale_hi
        out.endpoint_error = float(max(0.0, (eta - exact_lo).max(), (exact_hi - theta).max()))
        if np.any(eta > theta):
            out.failures.append("a band bottom lies above its top")
        outward = np.flatnonzero((inward_lo < -ENDPOINT_TOL) | (inward_hi < -ENDPOINT_TOL))
        if outward.size:
            out.failures.append(
                f"endpoints outside the exact band at k={(outward + 1).tolist()}")
        known = KNOWN_INWARD.get((xi, k_max), {"bottom": {}, "top": {}})
        found, new = {}, []
        for side, inward, error in (("bottom", inward_lo, eta - exact_lo),
                                    ("top", inward_hi, exact_hi - theta)):
            for i in np.flatnonzero(inward > ENDPOINT_TOL):
                k, recorded = int(i) + 1, known[side].get(int(i) + 1)
                if recorded is not None and error[i] <= recorded * (1.0 + KNOWN_SLACK):
                    found.setdefault(side, []).append(k)
                else:
                    new.append(f"{side} k={k} by {error[i]:.7g}")
        if new:
            out.failures.append(
                "endpoints inside the exact band beyond the recorded known defect: "
                + ", ".join(new))
        if found:
            worst = int(np.argmax(np.maximum(eta - exact_lo, exact_hi - theta))) + 1
            out.known.append(
                f"{KNOWN_DEFECT}: {shlex.join(inv.argv)}: bottoms inside the exact band at "
                f"k={found.get('bottom', [])}, tops at k={found.get('top', [])}; worst k={worst} "
                f"inward by {out.endpoint_error:.3g} (tolerance {ENDPOINT_TOL:g} relative)")

    def _gaps(self, inv, stdout, ref_stdout, out):
        items, ref = report_items(stdout), report_items(ref_stdout)
        if items["verdict"] != ref["verdict"]:
            out.failures.append(f"verdict {items['verdict']}, expected {ref['verdict']}")
        if "candidate_windows" in ref:
            windows = int(items["candidate_windows"])
            undecided = int(items["undecided"])
            if int(items["certified_absent"]) + undecided != windows:
                out.failures.append("certified and undecided windows do not add up")
            out.asked += windows
            out.undecided += undecided

    def _galerkin(self, inv, stdout, ref_stdout, out):
        meta, ref_meta = meta_items(stdout), meta_items(ref_stdout)
        out.asked += 1
        if meta["enclosure_ok"] != "true":
            out.undecided += 1
        if meta["enclosure_ok"] != ref_meta["enclosure_ok"]:
            out.failures.append(
                f"enclosure_ok {meta['enclosure_ok']}, expected {ref_meta['enclosure_ok']}")
        rows, refs = csv_rows(stdout), csv_rows(ref_stdout)
        if len(rows) != len(refs):
            out.failures.append(f"{len(rows)} band values, reference has {len(refs)}")
            return
        worst = max(
            max(abs(float(r[c]) - float(f[c])) for c in ("energy0", "energy"))
            for r, f in zip(rows, refs))
        if worst > GATE_TOL:
            out.failures.append(f"band energies differ from reference by {worst:.3g}")
