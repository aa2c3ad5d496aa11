"""Spans around the public functions of each ``stripgaps`` module, from outside.

``Tracer.install`` replaces a public function, in each module namespace that
calls it, by a wrapper that records a span: name, start, end, parent span,
invocation id, and a few numbers taken from the arguments or the result
(truncation length, matrix dimension, ...).  Spans stay in memory; ``run.py``
writes them out when the benchmark ends.  ``uninstall`` restores the originals,
so untraced passes run the program unchanged.

A span's self time is its duration minus that of its child spans.  The layers
are the modules: cli, oscillation, spectrum, gaps, galerkin, fourier.
``geometry`` only validates inputs in constant time; its cost falls into
``cli.self_s``.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter


def _bound(fn, name):
    """Hook reading argument ``name`` of ``fn`` (defaults applied)."""
    sig = inspect.signature(fn)

    def read(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _phi_p_info(fn):
    tol = _bound(fn, "tol")
    return lambda a, k, r: (r.truncation_n, tol(a, k, r))


def _band_functions_info(fn):
    trunc, pot = _bound(fn, "truncation"), _bound(fn, "potential")

    def info(a, k, r):
        n_max, m_max = trunc(a, k, r)
        return ((2 * n_max + 1) * m_max, not pot(a, k, r).terms, r.max_drift)
    return info


_SIZE = lambda fn: lambda a, k, r: int(r.size)
_LEN = lambda fn: lambda a, k, r: len(r)

# (module, attribute, span name, hook factory or None).  A function is wrapped
# in every namespace that calls it, so calls from the CLI and from inside the
# library both show.  Missing attributes are skipped.
TARGETS = (
    ("cli", "phi_p", "oscillation.phi_p", _phi_p_info),
    ("oscillation", "phi_p", "oscillation.phi_p", _phi_p_info),
    ("cli", "phi_sup", "oscillation.phi_sup", lambda fn: _bound(fn, "tol")),
    ("oscillation", "phi_sup", "oscillation.phi_sup", lambda fn: _bound(fn, "tol")),
    ("cli", "uniform_lower_bound_check", "oscillation.uniform_lower_bound_check", None),
    ("cli", "critical_constants", "oscillation.critical_constants", None),
    ("oscillation", "critical_constants", "oscillation.critical_constants", None),
    ("gaps", "critical_constants", "oscillation.critical_constants", None),
    ("cli", "band_table", "spectrum.band_table", _LEN),
    ("spectrum", "kth_scaled_level", "spectrum.kth_scaled_level", None),
    ("spectrum", "scaled_levels_below", "spectrum.scaled_levels_below", _SIZE),
    ("spectrum", "counting_extremes", "spectrum.counting_extremes", None),
    ("spectrum", "jump_events", "spectrum.jump_events", lambda fn: lambda a, k, r: len(r[1])),
    ("spectrum", "row_radii", "spectrum.row_radii", _SIZE),
    ("fourier", "row_radii", "spectrum.row_radii", _SIZE),
    ("cli", "counting", "spectrum.counting", None),
    ("gaps", "counting", "spectrum.counting", None),
    ("cli", "conditions_check", "gaps.conditions_check", None),
    ("cli", "ell_star", "gaps.ell_star", None),
    ("cli", "ell1_threshold", "gaps.ell1_threshold", None),
    ("cli", "gap_report", "gaps.gap_report",
     lambda fn: lambda a, k, r: (len(r.candidate_gaps), len(r.undecided))),
    ("cli", "low_spectrum_no_gap", "gaps.low_spectrum_no_gap", None),
    ("gaps", "low_spectrum_no_gap", "gaps.low_spectrum_no_gap", None),
    ("cli", "read_potential_file", "galerkin.read_potential_file", None),
    ("cli", "default_truncation", "galerkin.default_truncation", None),
    ("cli", "band_functions", "galerkin.band_functions", _band_functions_info),
    ("galerkin", "assemble", "galerkin.assemble", lambda fn: lambda a, k, r: r.shape[0]),
    ("galerkin", "hermitian_eigenvalues", "galerkin.hermitian_eigenvalues",
     lambda fn: lambda a, k, r: len(r)),
    ("cli", "omega_bounds", "galerkin.omega_bounds", None),
    ("cli", "verify_enclosure", "galerkin.verify_enclosure", None),
    ("cli", "ap_closed", "fourier.ap_closed", None),
    ("cli", "a0_closed", "fourier.a0_closed", None),
    ("cli", "residual_bound", "fourier.residual_bound", None),
)

LAYERS = ("oscillation", "spectrum", "gaps", "galerkin", "fourier")


class Tracer:
    """Span recorder; ``spans`` holds [name, start, end, parent, invocation, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname, attr, name, hook in TARGETS:
            module = importlib.import_module("stripgaps." + modname)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, hook(fn) if hook else None))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def layer_metrics(spans: list[list], lo: int, hi: int,
                  walls: dict[int, float]) -> dict[str, float]:
    """Per-layer numbers of one pass: the spans ``spans[lo:hi]`` and the wall
    time of each invocation of the pass, keyed by invocation id."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    top: dict[int, float] = defaultdict(float)
    for i in range(lo, hi):
        name, t0, t1, parent, inv, _ = spans[i]
        calls[name] += 1
        busy[name] += t1 - t0
        if parent >= 0:
            child[parent] += t1 - t0
        else:
            top[inv] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    for i in range(lo, hi):
        name, t0, t1 = spans[i][:3]
        self_s[name.split(".")[0]] += t1 - t0 - child[i]

    def of(name):
        return [s for s in spans[lo:hi] if s[0] == name and s[5] is not None]

    phi = of("oscillation.phi_p")
    sup_tol = {i: spans[i][5] for i in range(lo, hi)
               if spans[i][0] == "oscillation.phi_sup"}
    under_sup = [s for s in phi if s[3] in sup_tol]
    coarse = sum(1 for s in under_sup if s[5][1] != sup_tol[s[3]])
    terms = sum(s[5][0] for s in phi)
    sups = calls["oscillation.phi_sup"]

    bf = {i: spans[i][5] for i in range(lo, hi)
          if spans[i][0] == "galerkin.band_functions" and spans[i][5] is not None}
    eig = [s for s in of("galerkin.hermitian_eigenvalues") if s[3] in bf]
    dims = [s[5] for s in of("galerkin.assemble")]
    windows = [s[5] for s in of("gaps.gap_report")]
    rows = [s[5] for s in of("spectrum.row_radii")
            if s[3] >= 0 and spans[s[3]][0].startswith("fourier.")]

    m = {
        "oscillation.phi_p.calls": calls["oscillation.phi_p"],
        "oscillation.phi_p.coarse_calls": coarse,
        "oscillation.phi_p.s": busy["oscillation.phi_p"],
        "oscillation.terms": terms,
        "oscillation.terms_max": max((s[5][0] for s in phi), default=0),
        "oscillation.terms_per_s": terms / busy["oscillation.phi_p"] if terms else 0.0,
        "oscillation.phi_sup.calls": sups,
        "oscillation.phi_sup.s": busy["oscillation.phi_sup"],
        "oscillation.phi_sup.fine_per_call": (len(under_sup) - coarse) / sups if sups else 0.0,
        "spectrum.band_table.calls": calls["spectrum.band_table"],
        "spectrum.band_table.s": busy["spectrum.band_table"],
        "spectrum.band_table.bands": sum(s[5] for s in of("spectrum.band_table")),
        "spectrum.kth_scaled_level.calls": calls["spectrum.kth_scaled_level"],
        "spectrum.kth_scaled_level.s": busy["spectrum.kth_scaled_level"],
        "spectrum.levels": sum(s[5] for s in of("spectrum.scaled_levels_below")),
        "spectrum.counting.calls": calls["spectrum.counting"],
        "spectrum.counting.s": busy["spectrum.counting"],
        "spectrum.counting_extremes.s": busy["spectrum.counting_extremes"],
        "spectrum.jump_events.events": sum(s[5] for s in of("spectrum.jump_events")),
        "gaps.gap_report.calls": calls["gaps.gap_report"],
        "gaps.gap_report.s": busy["gaps.gap_report"],
        "gaps.windows": sum(w for w, _ in windows),
        "gaps.undecided": sum(u for _, u in windows),
        "gaps.low_spectrum_no_gap.calls": calls["gaps.low_spectrum_no_gap"],
        "gaps.low_spectrum_no_gap.s": busy["gaps.low_spectrum_no_gap"],
        "galerkin.assemble.calls": calls["galerkin.assemble"],
        "galerkin.assemble.s": busy["galerkin.assemble"],
        "galerkin.assemble.dim_max": max(dims, default=0),
        "galerkin.hermitian_eigenvalues.calls": calls["galerkin.hermitian_eigenvalues"],
        "galerkin.hermitian_eigenvalues.s": busy["galerkin.hermitian_eigenvalues"],
        "galerkin.eig_gate_s": sum(s[2] - s[1] for s in eig if s[5] != bf[s[3]][0]),
        "galerkin.reference_s": sum(spans[i][2] - spans[i][1] for i, info in bf.items() if info[1]),
        "galerkin.band_functions.s": busy["galerkin.band_functions"],
        "galerkin.matrix_bytes": sum(16 * d * d for d in dims),
        "galerkin.omega_bounds.s": busy["galerkin.omega_bounds"],
        "galerkin.max_drift": max((info[2] for info in bf.values()), default=0.0),
        "fourier.ap_closed.calls": calls["fourier.ap_closed"],
        "fourier.ap_closed.s": busy["fourier.ap_closed"],
        "fourier.a0_closed.calls": calls["fourier.a0_closed"],
        "fourier.rows": sum(rows),
        "cli.invocations": len(walls),
        "cli.self_s": sum(w - top[inv] for inv, w in walls.items()),
        "trace.spans": hi - lo,
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = self_s[layer]
    return m
