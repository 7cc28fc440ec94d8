"""End-to-end observability for the simulator stack.

Two halves behind one switch (``REPRO_TRACE=1`` or
:func:`enable`):

* :mod:`repro.obs.tracing` — nested spans with monotonic-clock
  timing, exported as Chrome trace-event JSON
  (``chrome://tracing``/Perfetto) or a human tree.
* :mod:`repro.obs.metrics` — counters/gauges/histograms snapshotted
  to ``metrics.json`` and merged into the runner's ``manifest.json``.

Both are near-zero-overhead no-ops while disabled (the default), so
the hot paths — kernel dispatch, the memo layer, trace replay, the
experiment runner, the sanitizer, the fault campaigns — carry their
instrumentation permanently.  ``python -m repro.cli obs`` runs any
experiment under the tracer and emits timeline + metrics + a slowest
spans table; see ``docs/OBSERVABILITY.md``.
"""

from pathlib import Path

from . import metrics, tracing
from .tracing import (
    disable,
    drain,
    enable,
    enabled,
    export_chrome_trace,
    ingest,
    render_tree,
    reset,
    set_enabled,
    slowest_table,
    span,
    traced,
    validate_chrome_trace,
)

__all__ = [
    "metrics",
    "tracing",
    "enabled",
    "enable",
    "disable",
    "set_enabled",
    "reset",
    "span",
    "traced",
    "drain",
    "ingest",
    "export_chrome_trace",
    "export_trace",
    "validate_chrome_trace",
    "render_tree",
    "slowest_table",
]


def export_trace(path, spans=None) -> None:
    """Write the Chrome trace-event timeline to ``path`` and the metrics
    snapshot to its sibling ``<stem>.metrics.json``, and say where —
    the ``--trace-out`` output of ``cli obs`` and ``repro-experiments``."""
    path = Path(path)
    metrics_path = path.with_name(path.stem + ".metrics.json")
    tracing.export_chrome_trace(path, spans)
    metrics.write_json(metrics_path)
    print(f"trace written to {path} (load in Perfetto / chrome://tracing); "
          f"metrics in {metrics_path}")
