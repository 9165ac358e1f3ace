"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each layer's public functions with timing
wrappers at every binding inside the package (a function imported by name
into another module is wrapped there too) and ``uninstall`` restores them.
Spans nest on a stack: a span's self time is its duration minus that of its
child spans, and a layer's ``.s`` sums only its outermost spans, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("name", "op", "parent", "t0", "t1", "child_s", "counts")

    def __init__(self, name: str, op: str, parent: "Span | None"):
        self.name = name
        self.op = op
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.child_s = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def ancestor(self, name: str) -> "Span | None":
        s = self.parent
        while s is not None and s.name != name:
            s = s.parent
        return s


# ---------------------------------------------------------------------------
# counters taken from a wrapped call's arguments and result


def _mu_hat(span, args, kwargs, result):
    pts = int(np.size(result))
    span.add("points", pts)
    scan = span.ancestor("zeroset.scan_zero_set")
    if scan is not None:
        scan.add("mu_hat_points", pts)
    tree = span.ancestor("spectra.corrected_tree")
    if tree is not None:
        tree.add("mu_hat_calls", 1)


def _frame_matrix_bounds(span, args, kwargs, result):
    pair, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    dense_cap = args[3] if len(args) > 3 else kwargs.get("dense_cap", 4096)
    span.add("dense_calls" if pair.N**n <= dense_cap else "matrix_free_calls", 1)
    sel = span.ancestor("frames.select_subset")
    if sel is not None:
        sel.add("scored", 1)


def _emit_report(span, args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    span.add("bytes", os.path.getsize(out) if out else 0)


def _cover_constants(span, args, kwargs, result):
    span.add("refinements", round(math.log2(result.eps0 / 2 / result.h)))


def _tower(span, args, kwargs, result):
    span.add("residue_calls" if "residue" in result.note else "dense_calls", 1)


AFTER = {
    "measure.mu_hat": _mu_hat,
    "measure.discrete_approximant": lambda s, a, k, r: s.add("atoms", len(r.atoms)),
    "zeroset.scan_zero_set": lambda s, a, k, r: s.add("candidates", len(r)),
    "zeroset.certify_zero": lambda s, a, k, r: s.add("in", r.status == "in"),
    "quasiprod.product_spectrum": lambda s, a, k, r: s.add("betas_tried", len(r.rejected) + 1),
    "spectra.corrected_tree": lambda s, a, k, r: (
        s.add("points", len(r.points)), s.add("corrections", len(r.corrections))
    ),
    "spectra.cover_constants": _cover_constants,
    "triples.hadamard_matrix": lambda s, a, k, r: s.add("entries", r.size),
    "triples.tower": _tower,
    "triples.digit_sums": lambda s, a, k, r: s.add("sums", len(r)),
    "frames.frame_matrix_bounds": _frame_matrix_bounds,
    "cli.emit_report": _emit_report,
}

# module -> wrapped names; "Class.method" wraps on the class
TARGETS = {
    "measure": ("FourierEval.mu_hat", "discrete_approximant"),
    "zeroset": ("scan_zero_set", "certify_zero", "find_invariant_cycle", "vanishing_orders_1d"),
    "quasiprod": ("full_spectrum", "product_spectrum", "report_frequencies"),
    "spectra": ("corrected_tree", "cover_constants", "completeness_partial"),
    "triples": ("hadamard_matrix", "validate_triple", "tower", "digit_sums"),
    "frames": ("select_subset", "frame_matrix_bounds", "frame_matrix"),
    "intlat": ("canonical_residue", "reduce_to_full", "ConjugationRecord.unapply_frequency_point"),
    "cli": ("emit_report",),
}


class Tracer:
    """Spans of one traced round, kept in memory until written out."""

    def __init__(self):
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.op = ""
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        tracer = self
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            stack = tracer.stack
            span = Span(name, tracer.op, stack[-1] if stack else None)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.t1 - span.t0
                tracer.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _depth_hook(self, fn):
        """FourierEval.depth_for: charge points x depth to the enclosing mu_hat."""
        tracer = self

        def depth_for(ev, xi):
            T = fn(ev, xi)
            if tracer.stack and tracer.stack[-1].name == "measure.mu_hat":
                tracer.stack[-1].add("factors", (np.size(xi) // ev.pair.d) * T)
            return T

        return depth_for

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "spectral_fractal") -> None:
        targets = {short: importlib.import_module(f"{package}.{short}") for short in TARGETS}
        mods = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for short, names in TARGETS.items():
            mod = targets[short]
            for qual in names:
                label = f"{short}.{qual.split('.')[-1]}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self.wrap(label, getattr(cls, meth)))
                    continue
                orig = getattr(mod, qual)
                wrapped = self.wrap(label, orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, wrapped)
        ev = targets["measure"].FourierEval
        self._set(ev, "depth_for", self._depth_hook(ev.depth_for))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -----------------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (outermost spans), self_s and summed counters."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sp in self.spans:
            t = out[sp.name]
            dur = sp.t1 - sp.t0
            t["calls"] += 1
            t["self_s"] += dur - sp.child_s
            if sp.ancestor(sp.name) is None:
                t["s"] += dur
            for k, v in sp.counts.items():
                t[k] += v
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, op, parent index, start, end, counters."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                parent = index.get(id(sp.parent)) if sp.parent is not None else None
                fh.write(json.dumps([sp.name, sp.op, parent, sp.t0, sp.t1, sp.counts]) + "\n")


# per-layer metrics named "<span name>.<total>", read straight from the totals
PLAIN = (
    "measure.mu_hat.calls",
    "measure.mu_hat.points",
    "measure.mu_hat.factors",
    "measure.mu_hat.self_s",
    "measure.discrete_approximant.s",
    "measure.discrete_approximant.atoms",
    "zeroset.scan_zero_set.s",
    "zeroset.scan_zero_set.mu_hat_points",
    "zeroset.scan_zero_set.candidates",
    "zeroset.certify_zero.calls",
    "zeroset.certify_zero.s",
    "zeroset.find_invariant_cycle.s",
    "zeroset.vanishing_orders_1d.calls",
    "zeroset.vanishing_orders_1d.s",
    "quasiprod.full_spectrum.self_s",
    "quasiprod.product_spectrum.s",
    "quasiprod.product_spectrum.betas_tried",
    "quasiprod.report_frequencies.s",
    "spectra.corrected_tree.s",
    "spectra.corrected_tree.self_s",
    "spectra.corrected_tree.points",
    "spectra.corrected_tree.corrections",
    "spectra.corrected_tree.mu_hat_calls",
    "spectra.cover_constants.s",
    "spectra.cover_constants.refinements",
    "spectra.completeness_partial.s",
    "triples.hadamard_matrix.entries",
    "triples.hadamard_matrix.s",
    "triples.validate_triple.calls",
    "triples.tower.dense_calls",
    "triples.tower.residue_calls",
    "triples.tower.s",
    "triples.digit_sums.calls",
    "triples.digit_sums.sums",
    "triples.digit_sums.s",
    "frames.select_subset.s",
    "frames.frame_matrix_bounds.calls",
    "frames.frame_matrix_bounds.dense_calls",
    "frames.frame_matrix_bounds.matrix_free_calls",
    "frames.frame_matrix_bounds.s",
    "frames.frame_matrix.s",
    "intlat.canonical_residue.calls",
    "intlat.canonical_residue.s",
    "intlat.reduce_to_full.s",
    "intlat.unapply_frequency_point.calls",
    "intlat.unapply_frequency_point.s",
    "cli.emit_report.s",
    "cli.emit_report.bytes",
)

# rate metrics: (span name, numerator total, denominator total)
RATES = {
    "measure.mu_hat.factors_per_s": ("measure.mu_hat", "factors", "self_s"),
    "zeroset.certify_zero.in_ratio": ("zeroset.certify_zero", "in", "calls"),
    "triples.hadamard_matrix.entries_per_s": ("triples.hadamard_matrix", "entries", "s"),
    "frames.select_subset.scored_per_s": ("frames.select_subset", "scored", "s"),
}


def layer_metrics(totals) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced round's totals;
    a layer the workload does not reach reads 0."""
    out = {}
    for name in PLAIN:
        span, key = name.rsplit(".", 1)
        out[name] = float(totals.get(span, {}).get(key, 0.0))
    for name, (span, num, den) in RATES.items():
        t = totals.get(span, {})
        out[name] = t.get(num, 0.0) / t[den] if t.get(den, 0) > 0 else 0.0
    return out


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"
