"""Per-layer attribution for the traced run.

The benchmark measures from outside the program: :func:`install` wraps
the public entry points of each layer in a ``repro.obs`` span named
after the layer, and :class:`LayerLedger` folds the spans the program
and these wrappers record into self time per layer, plus the counters
``repro.obs`` and the memo layer already keep.

Self time of a span is its duration minus the durations of its direct
children.  Memo-miss spans are transparent: the work inside a miss
belongs to the layer that asked for the value, and the miss's own
duration is reported separately as ``memo.<region>.miss_s``.  Time in
no named layer is ``unattributed_s``.
"""

from __future__ import annotations

import functools
import sys
from typing import Dict, List, Optional

#: (layer, module, attribute) of each wrapped entry point; a dotted
#: attribute is a method, patched on its class so every caller sees it
WRAPPED = (
    ("formats", "repro.formats.cvse", "ColumnVectorSparseMatrix.__post_init__"),
    ("formats", "repro.formats.cvse", "ColumnVectorSparseMatrix.from_dense"),
    ("formats", "repro.formats.cvse", "ColumnVectorSparseMatrix.from_topology"),
    ("formats", "repro.formats.cvse", "ColumnVectorSparseMatrix.mask_from_dense"),
    ("formats", "repro.formats.blocked_ell", "BlockedEllMatrix.__post_init__"),
    ("formats", "repro.formats.blocked_ell", "BlockedEllMatrix.random"),
    ("formats", "repro.formats.blocked_ell", "BlockedEllMatrix.from_dense"),
    ("formats", "repro.formats.conversions", "cvse_from_csr_topology"),
    ("formats", "repro.formats.conversions", "blocked_ell_matching"),
    ("datasets", "repro.datasets.dlmc", "dlmc_suite"),
    ("datasets", "repro.datasets.dlmc", "generate_topology"),
    ("datasets", "repro.datasets.benchmark_suite", "build_spmm_problem"),
    ("datasets", "repro.datasets.benchmark_suite", "build_sddmm_problem"),
    ("perfmodel.latency", "repro.perfmodel.latency", "LatencyModel.estimate"),
    ("perfmodel.trace", "repro.perfmodel.trace", "trace_octet_spmm"),
    ("perfmodel.trace", "repro.perfmodel.trace", "trace_blocked_ell"),
    ("perfmodel.trace", "repro.perfmodel.trace", "trace_octet_sddmm"),
    ("perfmodel.trace", "repro.perfmodel.trace", "trace_wmma_sddmm"),
    ("perfmodel.trace", "repro.perfmodel.trace", "trace_gemm"),
    ("kernels", "repro.kernels.base", "Kernel.run"),
    ("transformer.forward", "repro.transformer.model", "TransformerClassifier.forward"),
    ("transformer.backward", "repro.transformer.model", "TransformerClassifier.loss_and_grads"),
    ("transformer.predict", "repro.transformer.model", "TransformerClassifier.predict"),
    ("transformer.train", "repro.transformer.training", "train"),
)

#: spans the program itself emits, by name prefix
PROGRAM_SPANS = (
    ("experiment.", "experiments"),
    ("run_all", "experiments"),
    ("kernel.", "kernels"),
    ("trace.replay", "perfmodel.trace"),
    ("serving.run", "serving"),
)

#: a span of the key layer inside the value layer counts as the latter
#: (the forward pass of ``predict`` is inference, not training)
FOLDS = {"transformer.forward": "transformer.predict"}

LAYERS = (
    "formats", "datasets", "perfmodel.stats", "perfmodel.latency", "perfmodel.trace",
    "kernels", "transformer.forward", "transformer.backward", "transformer.predict",
    "transformer.train", "serving", "experiments",
)
#: layers whose call count is reported next to their self time
COUNTED = ("formats", "datasets", "perfmodel.stats", "perfmodel.latency",
           "perfmodel.trace", "kernels")
MEMO_REGIONS = ("format", "problem", "stats", "latency", "plan", "trace", "suite")

#: layer metric prefix -> (end-to-end metric it should move, on which
#: workload, prediction elsewhere)
PREDICTIONS = {
    "formats": ("wall_s", "sweep", "small on train, serve"),
    "datasets": ("wall_s", "sweep", "none on kernels, train"),
    "memo": ("wall_s, peak_rss_mb", "sweep", "ops_per_s on kernels (inserts)"),
    "perfmodel.stats": ("wall_s", "sweep", "ops_per_s on kernels"),
    "perfmodel.latency": ("wall_s", "sweep", "ops_per_s on kernels"),
    "kernels": ("ops_per_s, op_p50_ms", "kernels", "none on sweep"),
    "plans": ("ops_per_s, op_p50_ms", "kernels", "none on sweep"),
    "hardware": ("ops_per_s, op_p50_ms", "kernels", "none on sweep"),
    "perfmodel.trace": ("ops_per_s, op_p90_ms", "kernels", "none on sweep, train"),
    "transformer": ("ops_per_s, op_p50_ms", "train", "none elsewhere"),
    "serving": ("ops_per_s", "serve", "none elsewhere"),
    "experiments": ("wall_s", "sweep", "n/a"),
    "unattributed_s": ("wall_s", "sweep", "n/a"),
}


def _wrap(fn, layer: str, span):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(layer):
            return fn(*args, **kwargs)

    return wrapper


def _patch_method(cls, name: str, layer: str, span) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(_wrap(raw.__func__, layer, span)))
    else:
        setattr(cls, name, _wrap(raw, layer, span))


def _subclasses(cls) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


def install() -> None:
    """Wrap every entry point in :data:`WRAPPED` plus each kernel's
    ``stats_for``/``stats_for_shape`` (layer ``perfmodel.stats``).

    Module-level functions are rebound in every loaded ``repro`` module
    that imported them by name, since ``from x import y`` binds at
    import time.
    """
    import importlib

    import repro.kernels  # noqa: F401  (loads every Kernel subclass)
    from repro.kernels.base import Kernel
    from repro.obs.tracing import span

    rebind: Dict[int, object] = {}
    for layer, module, attr in WRAPPED:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, name = attr.split(".")
            _patch_method(getattr(mod, cls_name), name, layer, span)
        else:
            orig = getattr(mod, attr)
            rebind[id(orig)] = _wrap(orig, layer, span)
    for cls in _subclasses(Kernel):
        for name in ("stats_for", "stats_for_shape"):
            if name in cls.__dict__:
                _patch_method(cls, name, "perfmodel.stats", span)
    for name, mod in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            new = rebind.get(id(val))
            if new is not None:
                setattr(mod, attr, new)


def _layer_of(name: str) -> Optional[str]:
    if name in LAYERS:
        return name
    for prefix, layer in PROGRAM_SPANS:
        if name.startswith(prefix):
            return layer
    return None  # memo misses and anything unnamed are transparent


class LayerLedger:
    """Accumulates self time, call counts and memo-miss time from the
    spans of each op, and counters per pass."""

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.miss_s = {region: 0.0 for region in MEMO_REGIONS}
        self.memo = {region: [0, 0] for region in MEMO_REGIONS}
        self.counters: Dict[str, float] = {}
        self.hmma = [0.0, 0.0]  # batches, sum of batch sizes
        self.passes = 0
        self.wall_s = 0.0

    def fold_spans(self, spans: List[dict]) -> None:
        """Attribute the (complete) spans of one op."""
        by_id = {s["id"]: s for s in spans}
        child_s: Dict[int, float] = {}
        for s in spans:
            if s["parent"] in by_id:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["dur_ns"]
        owner: Dict[int, Optional[str]] = {}

        def owner_of(sid: int) -> Optional[str]:
            # layer the span's self time is charged to
            if sid not in by_id:
                return None
            if sid not in owner:
                s = by_id[sid]
                up = owner_of(s["parent"])
                layer = _layer_of(s["name"])
                if up is not None and FOLDS.get(layer) == up:
                    layer = None
                owner[sid] = layer if layer is not None else up
            return owner[sid]

        for s in spans:
            sid, name = s["id"], s["name"]
            mine, up = owner_of(sid), owner_of(s["parent"])
            if mine is not None:
                self.self_s[mine] += (s["dur_ns"] - child_s.get(sid, 0.0)) / 1e9
                if mine != up and _layer_of(name) == mine:
                    self.calls[mine] += 1
            if name.startswith("memo.miss."):
                region = name[len("memo.miss."):]
                if region in self.miss_s:
                    self.miss_s[region] += s["dur_ns"] / 1e9

    def end_pass(self, wall_s: float, memo_counts, counters, hists) -> None:
        """Close one traced pass with its memo and ``repro.obs`` counters."""
        self.passes += 1
        self.wall_s += wall_s
        for region, (hits, misses) in memo_counts.items():
            if region in self.memo:
                self.memo[region][0] += hits
                self.memo[region][1] += misses
        for k, v in counters.items():
            self.counters[k] = self.counters.get(k, 0.0) + v
        h = hists.get("hmma.batch_size")
        if h:
            self.hmma[0] += h["count"]
            self.hmma[1] += h["sum"]

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics, each per pass (ratios over all passes)."""
        n = max(1, self.passes)
        c = self.counters
        out: Dict[str, float] = {}
        for layer in LAYERS:
            if layer in COUNTED:
                out[f"{layer}.calls"] = self.calls[layer] / n
            out[f"{layer}.self_s"] = self.self_s[layer] / n
        for region in MEMO_REGIONS:
            hits, misses = self.memo[region]
            out[f"memo.{region}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
            out[f"memo.{region}.miss_s"] = self.miss_s[region] / n
        out["plans.hits"] = self.memo["plan"][0] / n
        out["plans.misses"] = self.memo["plan"][1] / n
        out["hardware.hmma_batches"] = self.hmma[0] / n
        out["hardware.hmma_batch_mean"] = self.hmma[1] / self.hmma[0] if self.hmma[0] else 0.0
        acc = c.get("cache.l1.sector_accesses", 0.0)
        out["hardware.cache.sector_hit_rate"] = (
            c.get("cache.l1.sector_hits", 0.0) / acc if acc else 0.0)
        out["perfmodel.trace.sector_accesses"] = c.get("trace.replay.sector_accesses", 0.0) / n
        out["serving.requests.completed"] = c.get("serving.requests.completed", 0.0) / n
        out["serving.shed"] = (c.get("serving.shed.admission", 0.0)
                               + c.get("serving.shed.queue", 0.0)) / n
        out["traced_wall_s"] = self.wall_s / n
        out["unattributed_s"] = (self.wall_s - sum(self.self_s.values())) / n
        return out


def unit(metric: str) -> str:
    """The unit of one per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("hit_rate"):
        return "ratio"
    if metric.endswith("batch_mean"):
        return "mma/batch"
    return "count"


def prediction(metric: str) -> str:
    """The recorded prediction for one layer metric, as table text."""
    for prefix in sorted(PREDICTIONS, key=len, reverse=True):
        if metric.startswith(prefix):
            moves, on, elsewhere = PREDICTIONS[prefix]
            return f"{moves} on {on}; elsewhere {elsewhere}"
    return ""
