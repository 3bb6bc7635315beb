"""Span tracer that wraps otrobust's module-level entry points from outside.

The program is not edited: ``install`` replaces each entry point in every
``otrobust`` module namespace that binds it (``_lp_transport`` lives in both
``otrobust.exact`` and ``otrobust.robust``, ``solve_robust`` in
``otrobust.robust``, ``otrobust.analysis``, ``otrobust.cli`` and the package),
and ``restore`` puts the originals back.  A name that no longer exists is
reported as absent and the workload still runs.

Spans are kept in memory as ``[id, name, start, end, parent, pass]`` and
written out as JSON at the end of the run.  A layer's self time is its
spans' durations minus the time covered by their direct child spans.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from math import comb

import numpy as np

# span name -> (module, attribute) of the entry point it wraps
SPANS = {
    "cli.run": ("otrobust.cli", "run"),
    "cli.read": ("otrobust.cli", "read_measure"),
    "cli.emit": ("otrobust.cli", "_emit"),
    "measures.cost_matrix": ("otrobust.measures", "cost_matrix"),
    "exact.solve": ("otrobust.exact", "solve_exact"),
    "exact.lp": ("otrobust.exact", "_lp_transport"),
    "exact.dense_dual": ("otrobust.exact", "DenseDualEvaluator.__init__"),
    "weights.oracle": ("otrobust.weights", "solve_weight_socp"),
    "robust.solve": ("otrobust.robust", "solve_robust"),
    "robust.polish": ("otrobust.robust", "_polish"),
    "sinkhorn.solve": ("otrobust.sinkhorn", "solve_sinkhorn"),
    "analysis.verify_theorem2": ("otrobust.analysis", "verify_theorem2"),
}
# counted, not spanned: two calls per Sinkhorn iteration
COUNTERS = {"sinkhorn.lse.calls": ("otrobust.sinkhorn", "logsumexp")}

# per-layer metric -> (unit, span or counter it is derived from, kind):
# "calls" counts the spans, "total" sums their durations, "self" subtracts
# the direct children, "count" is a counter kept by a hook
METRICS = {
    "exact.lp.calls": ("count", "exact.lp", "calls"),
    "exact.lp.s": ("s", "exact.lp", "total"),
    "exact.lp.repeat_calls": ("count", "exact.lp", "count"),
    "exact.dense_dual.calls": ("count", "exact.dense_dual", "calls"),
    "exact.dense_dual.s": ("s", "exact.dense_dual", "total"),
    "exact.dense_dual.bases": ("count", "exact.dense_dual", "count"),
    "exact.dense_dual.vertices": ("count", "exact.dense_dual", "count"),
    "weights.oracle.calls": ("count", "weights.oracle", "calls"),
    "weights.oracle.s": ("s", "weights.oracle", "total"),
    "robust.solve.calls": ("count", "robust.solve", "calls"),
    "robust.solve.s": ("s", "robust.solve", "total"),
    "robust.self.s": ("s", "robust.solve", "self"),
    "robust.outer_iterations": ("count", "robust.solve", "count"),
    "robust.polish.calls": ("count", "robust.polish", "calls"),
    "robust.polish.s": ("s", "robust.polish", "total"),
    "sinkhorn.solve.s": ("s", "sinkhorn.solve", "total"),
    "sinkhorn.lse.calls": ("count", "sinkhorn.lse.calls", "count"),
    "cli.read.s": ("s", "cli.read", "total"),
    "cli.emit.s": ("s", "cli.emit", "total"),
    "cli.self.s": ("s", "cli.run", "self"),
    "measures.cost_matrix.s": ("s", "measures.cost_matrix", "total"),
    "analysis.verify_theorem2.s": ("s", "analysis.verify_theorem2", "total"),
}

# an LP call repeats an earlier one in the same solve when its cost block is
# identical and its marginals agree to this (masses are about 1/n)
REPEAT_TOL = 1e-12
SOLVE_SPANS = ("robust.solve", "exact.solve")


def _resolve(modname, attr):
    """(owner, name, object) for ``attr`` in ``modname``, or None if gone."""
    owner = sys.modules.get(modname)
    if owner is None:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.pass_index = -1
        self.counts = defaultdict(int)      # (pass, key) -> count
        self.patches = []                   # (owner, name, original)
        self.absent = []                    # entry points that are gone
        self.lost_counts = set()            # hook counts that could not be read
        self._lp_seen = defaultdict(list)   # solve span id -> earlier LP args

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            rec = [sid, name, 0.0, 0.0,
                   tracer.stack[-1] if tracer.stack else None, tracer.pass_index]
            tracer.spans.append(rec)
            if before is not None:
                before(sid, args)
            tracer.stack.append(sid)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.pass_index, key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key, k):
        self.counts[self.pass_index, key] += k

    def _lp_before(self, sid, args):
        if len(args) < 3:
            self.lost_counts.add("exact.lp.repeat_calls")
            return
        a, b, C = (np.asarray(x) for x in args[:3])
        parent, group = self.spans[sid][4], sid
        while parent is not None:
            if self.spans[parent][1] in SOLVE_SPANS:
                group = parent
            parent = self.spans[parent][4]
        seen = self._lp_seen[group]
        for a0, b0, C0 in seen:
            if (C0.shape == C.shape and a0.shape == a.shape and b0.shape == b.shape
                    and abs(a0 - a).max() <= REPEAT_TOL
                    and abs(b0 - b).max() <= REPEAT_TOL
                    and (C0 == C).all()):
                self._add("exact.lp.repeat_calls", 1)
                break
        seen.append((a.copy(), b.copy(), C.copy()))

    def _dense_after(self, args, result):
        ev = args[0]
        try:
            m, n, kept = ev.m, ev.n, ev.U.shape[0]
        except AttributeError:
            self.lost_counts.update(("exact.dense_dual.bases", "exact.dense_dual.vertices"))
            return
        self._add("exact.dense_dual.bases", comb(m * n, m + n - 1))
        self._add("exact.dense_dual.vertices", kept)

    def _robust_after(self, args, sol):
        trace = getattr(sol, "trace", None)
        if trace is None:
            self.lost_counts.add("robust.outer_iterations")
            return
        # one entry per outer iteration plus the final best value
        self._add("robust.outer_iterations", len(trace) - 1)

    # -- patching ----------------------------------------------------------

    def _patch(self, modname, attr, make):
        found = _resolve(modname, attr)
        if found is None:
            self.absent.append(f"{modname}.{attr}")
            return False
        owner, name, orig = found
        new = make(orig)
        if isinstance(owner, type):  # a method: the class is its only binding
            setattr(owner, name, new)
            self.patches.append((owner, name, orig))
            return True
        for modname2, mod in list(sys.modules.items()):
            if modname2 != "otrobust" and not modname2.startswith("otrobust."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self.patches.append((mod, key, orig))
        return True

    def install(self):
        self.absent = []
        hooks = {
            "exact.lp": {"before": self._lp_before},
            "exact.dense_dual": {"after": self._dense_after},
            "robust.solve": {"after": self._robust_after},
        }
        for span, (mod, attr) in SPANS.items():
            self._patch(mod, attr, lambda fn, span=span: self._wrap(
                span, fn, **hooks.get(span, {})))
        for key, (mod, attr) in COUNTERS.items():
            self._patch(mod, attr, lambda fn, key=key: self._count(key, fn))

    def restore(self):
        for owner, name, orig in reversed(self.patches):
            setattr(owner, name, orig)
        self.patches.clear()

    def begin_pass(self, index):
        self.pass_index = index
        self._lp_seen.clear()

    # -- derived metrics ---------------------------------------------------

    def absent_metrics(self):
        gone = set()
        for span, (mod, attr) in list(SPANS.items()) + list(COUNTERS.items()):
            if f"{mod}.{attr}" in self.absent:
                gone.add(span)
        gone.update(self.lost_counts)
        return sorted(m for m, (_, src, _k) in METRICS.items()
                      if src in gone or m in gone)

    def pass_metrics(self, index):
        """Every per-layer metric of one pass (absent layers read 0)."""
        spans = [s for s in self.spans if s[5] == index]
        child_time = defaultdict(float)
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for s in spans:
            dur = s[3] - s[2]
            calls[s[1]] += 1
            total[s[1]] += dur
            self_s[s[1]] += dur - child_time[s[0]]
        counts = {k: v for (p, k), v in self.counts.items() if p == index}
        out = {}
        for metric, (unit, src, kind) in METRICS.items():
            val = {"calls": calls, "total": total, "self": self_s,
                   "count": counts}[kind].get(src if kind != "count" else metric, 0)
            out[metric] = (val, unit)
        return out

    def metrics(self, passes):
        """Median over the traced passes of each per-layer metric."""
        per = [self.pass_metrics(i) for i in passes]
        return {m: (statistics.median(p[m][0] for p in per), per[0][m][1])
                for m in METRICS}

    def write(self, path, extra):
        doc = dict(extra)
        doc["absent"] = self.absent_metrics()
        doc["counts"] = [[p, k, v] for (p, k), v in sorted(self.counts.items())]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
