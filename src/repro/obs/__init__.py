"""Observability: metrics, tracing, and decode forensics.

See :mod:`repro.obs.metrics` for the design.  The common entry points
are re-exported here so instrumentation sites can just::

    from repro import obs
    with obs.timed("phy.wifi.decode.seconds"): ...
    obs.inc("phy.wifi.packets")
    with obs.span("engine.task", task=3): ...      # traced registries
    obs.packet_event("phy.wifi", forensics.CRC_FAIL, snr_db=4.0)

Submodules: :mod:`~repro.obs.forensics` (decode-stage taxonomy),
:mod:`~repro.obs.trace` (JSONL trace sink), :mod:`~repro.obs.export`
(Prometheus text exposition), :mod:`~repro.obs.report` (run reports).

Registries are process-local and deliberately lock-free; the active
registry is per thread.  The one registry several threads write — the
sweep service's own (:mod:`repro.service`) — is mutated under the
service's lock and rendered at its ``/metrics`` endpoint through
:func:`prometheus_text`.
"""

from repro.obs import forensics
from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceConfig,
    add_gauge,
    collect,
    collect_into,
    event,
    global_registry,
    inc,
    observe,
    packet_event,
    registry,
    set_gauge,
    span,
    timed,
)
from repro.obs.progress import ProgressJournal, monotonic_s, read_progress
from repro.obs.report import render_report
from repro.obs.trace import TraceSink, read_trace

__all__ = ["DEFAULT_LATENCY_BUCKETS", "Gauge", "Histogram",
           "MetricsRegistry", "ProgressJournal", "TraceConfig",
           "TraceSink", "add_gauge", "collect", "collect_into", "event",
           "forensics", "global_registry", "inc", "monotonic_s",
           "observe", "packet_event", "parse_prometheus_text",
           "prometheus_text", "read_progress", "read_trace", "registry",
           "render_report", "set_gauge", "span", "timed"]
