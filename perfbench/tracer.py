"""Spans and counters around the package's public functions.

The tracer replaces each traced function in every ``connexion_lab``
module namespace that holds it (``formal`` and ``cli`` import names from
``model``, ``series`` and the float layers), so calls made inside the
package are seen too.  Spans (name, start, end, parent span, operation
id) stay in memory until ``write``.  ``ps_mul`` and ``ps_add`` are called
millions of times, so they get counters instead of spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, function) pairs that get a span per call
SPANNED = (
    ("model", "gauge_transform"), ("model", "smat_neumann_inverse"),
    ("model", "ramified_pullback"), ("model", "germ_or_model_from_dict"),
    ("formal", "formal_decompose"), ("formal", "split_by_spectrum"),
    ("formal", "residue_normal_form"), ("formal", "shear_step"),
    ("formal", "newton_polygon"),
    ("exactla", "rref"), ("exactla", "gaussian_roots"),
    ("index", "local_full_dims"), ("index", "local_min_dims"),
    ("sl2", "adapted_metric_frame"),
    ("metric", "eval_metric"), ("metric", "curvature_knorm_ratio"),
    ("metric", "pseudo_curvature"), ("metric", "glued_metric"),
    ("metric", "metric_report"),
    ("l2lab", "psi_profile"), ("l2lab", "hardy_angular"),
    ("l2lab", "vanishing_report"), ("l2lab", "build_primitive_angular"),
    ("l2lab", "build_primitive_radial"), ("l2lab", "weighted_norm"),
    ("cli", "main"), ("cli", "cmd_analyze"), ("cli", "cmd_l2verify"),
)
#: (module, function) pairs that only count calls and add up their time
COUNTED = (("series", "ps_mul"), ("series", "ps_add"))

#: per-layer metrics: name -> unit; every traced run reports all of them
LAYER_METRICS = {
    "series.ps_mul.calls": "count/pass", "series.ps_mul.ms": "ms/pass",
    "series.ps_add.calls": "count/pass",
    "model.gauge_transform.calls": "count/pass",
    "model.gauge_transform.ms": "ms/pass",
    "model.smat_neumann_inverse.ms": "ms/pass",
    "formal.formal_decompose.calls": "count/pass",
    "formal.formal_decompose.ms": "ms/pass",
    "formal.split_by_spectrum.ms": "ms/pass",
    "formal.residue_normal_form.ms": "ms/pass",
    "formal.shear_step.calls": "count/pass",
    "formal.newton_polygon.ms": "ms/pass",
    "model.ramified_pullback.calls": "count/pass",
    "exactla.rref.calls": "count/pass", "exactla.rref.ms": "ms/pass",
    "exactla.gaussian_roots.calls": "count/pass",
    "exactla.gaussian_roots.ms": "ms/pass",
    "exactla.gaussian_roots.refused": "count/pass",
    "index.local_full_dims.ms": "ms/pass",
    "index.local_full_dims.window_cols": "count/pass",
    "index.local_min_dims.ms": "ms/pass",
    "sl2.adapted_metric_frame.ms": "ms/pass",
    "metric.eval_metric.ms": "ms/pass", "metric.eval_metric.points": "count/pass",
    "metric.curvature_knorm_ratio.ms": "ms/pass",
    "metric.curvature_knorm_ratio.points": "count/pass",
    "metric.pseudo_curvature.calls": "count/pass",
    "metric.pseudo_curvature.ms": "ms/pass",
    "metric.glued_metric.ms": "ms/pass",
    "metric.metric_report.ms": "ms/pass", "metric.metric_report.rows": "count/pass",
    "l2lab.psi_profile.ms": "ms/pass", "l2lab.hardy_angular.ms": "ms/pass",
    "l2lab.vanishing_report.ms": "ms/pass",
    "l2lab.build_primitive_angular.calls": "count/pass",
    "l2lab.build_primitive_radial.ms": "ms/pass",
    "l2lab.weighted_norm.ms": "ms/pass",
    "cli.main.ms": "ms/pass",
    "cli.analyze.decompose_calls": "count/call",
    "cli.report_bytes": "bytes/pass",
    "model.germ_or_model_from_dict.ms": "ms/pass",
    "catalog.germ.ms": "ms/pass",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.names: list[str] = []
        self.stack: list[int] = []  # open spans, innermost last
        self.open_nids: list[int] = []  # their name ids
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.counted_ns: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- installing -----------------------------------------------------------

    def _replace(self, orig, wrapper) -> None:
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "connexion_lab" and not name.startswith("connexion_lab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        from connexion_lab import catalog

        mods = sys.modules
        for modname, fname in SPANNED:
            orig = getattr(mods["connexion_lab." + modname], fname)
            self._replace(orig, self._span_wrapper(f"{modname}.{fname}", orig))
        for modname, fname in COUNTED:
            orig = getattr(mods["connexion_lab." + modname], fname)
            self._replace(orig, self._count_wrapper(f"{modname}.{fname}", orig))
        orig = mods["connexion_lab.exactla"].rank
        self._replace(orig, self._window_wrapper(orig))
        for entry in catalog.CATALOG.values():
            orig = entry.germ
            object.__setattr__(entry, "germ",
                               self._span_wrapper("catalog.germ", orig))
            self._undo.append((entry, "germ", orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            object.__setattr__(obj, attr, orig)
        self._undo.clear()

    def _span_wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        open_nids = self.open_nids
        clock = time.perf_counter_ns
        from connexion_lab.errors import IrrationalSpectrum

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            open_nids.append(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except IrrationalSpectrum:
                if name == "exactla.gaussian_roots":
                    counts["exactla.gaussian_roots.refused"] += 1
                raise
            finally:
                spans[idx] = (nid, t0, clock(), parent, self.op_id)
                stack.pop()
                open_nids.pop()
            if name in ("metric.eval_metric", "metric.curvature_knorm_ratio"):
                counts[name + ".points"] += int(np.atleast_1d(args[1]).shape[0])
            elif name == "metric.metric_report":
                counts["metric.metric_report.rows"] += len(out)
            return out

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts, counted_ns = self.counts, self.counted_ns
        clock = time.perf_counter_ns
        key = name + ".calls"

        def wrapper(*args):
            counts[key] += 1
            t0 = clock()
            try:
                return fn(*args)
            finally:
                counted_ns[name] += clock() - t0

        return wrapper

    def _window_wrapper(self, fn):
        """Rows plus columns of each matrix ranked directly under
        local_full_dims: the Laurent windows it actually built."""
        open_nids, counts = self.open_nids, self.counts
        key = "index.local_full_dims.window_cols"
        nid = self.names.index("index.local_full_dims")

        def wrapper(m):
            if open_nids and open_nids[-1] == nid:
                counts[key] += len(m) + (len(m[0]) if m else 0)
            return fn(m)

        return wrapper

    # -- reading ----------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms (outermost spans) and self ms."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            name = self.names[nid]
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += (t1 - t0 - child_ns[i]) / 1e6
            p = parent
            while p >= 0 and self.names[spans[p][0]] != name:
                p = spans[p][3]
            if p < 0:
                row["ms"] += (t1 - t0) / 1e6
        for name, ns in self.counted_ns.items():
            out[name] = {"calls": self.counts[name + ".calls"], "ms": ns / 1e6,
                         "self_ms": ns / 1e6}
        return out

    def decompose_calls_under_analyze(self) -> tuple[int, int]:
        """(formal_decompose spans inside cmd_analyze, cmd_analyze spans)."""
        spans = self.spans
        try:
            dec = self.names.index("formal.formal_decompose")
            ana = self.names.index("cli.cmd_analyze")
        except ValueError:
            return 0, 0
        inside = 0
        for nid, _, _, parent, _ in spans:
            if nid != dec:
                continue
            p = parent
            while p >= 0 and spans[p][0] != ana:
                p = spans[p][3]
            inside += p >= 0
        return inside, sum(1 for s in spans if s[0] == ana)

    def layer_metrics(self, passes: int, report_bytes: int,
                      overhead_pct: float) -> dict:
        summ = self.summary()
        values: dict[str, float] = {}
        for metric in LAYER_METRICS:
            head, _, quantity = metric.rpartition(".")
            row = summ.get(head)
            if quantity == "calls":
                values[metric] = (row["calls"] if row else 0) / passes
            elif quantity == "ms":
                key = "self_ms" if head == "cli.main" else "ms"
                values[metric] = (row[key] if row else 0.0) / passes
        for key, n in self.counts.items():
            if key in LAYER_METRICS and not key.endswith(".calls"):
                values[key] = n / passes
        inside, analyses = self.decompose_calls_under_analyze()
        values["cli.analyze.decompose_calls"] = inside / analyses if analyses else 0.0
        values["cli.report_bytes"] = report_bytes / passes
        values["trace.overhead_pct"] = overhead_pct
        return {m: {"value": values.get(m, 0.0), "unit": u}
                for m, u in LAYER_METRICS.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for nid, t0, t1, parent, op in self.spans:
                fh.write(f"[{nid},{t0},{t1},{parent},{op}]\n")
