"""Prometheus-style text exposition of a metrics snapshot — and the
strict parser that validates it.

Renders the plain-dict form of :meth:`MetricsRegistry.snapshot` into
the text format scrape endpoints serve: counters become ``*_total``
counters, gauges stay bare gauges, histograms become proper
``histogram`` families with cumulative ``le`` buckets, a ``+Inf``
bucket, ``_sum`` and ``_count``, plus ``_min`` / ``_max`` gauges.
Dotted metric names are flattened to the ``[a-zA-Z0-9_]`` charset, so
the histogram ``engine.task.seconds`` is the family
``repro_engine_task_seconds``.  Span paths, which are hierarchical,
ride in a ``path`` label of one ``repro_span_seconds`` summary family
(count / sum, plus min/max gauges).

**One ``# TYPE`` line per family.**  Duplicate TYPE lines for a family
are invalid exposition; the span renderer emits each family header
exactly once and then all per-path samples.  A ``timers`` key in a
snapshot written before timers folded into histograms is ignored: its
same-named histogram carries the same family.

:func:`parse_prometheus_text` is the matching strict reader used by
tests, CI, and ``repro top``: it rejects duplicate TYPE lines, samples
that belong to no declared family, and histograms whose cumulative
buckets decrease or whose ``+Inf`` bucket disagrees with ``_count``.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import Histogram

__all__ = ["prometheus_text", "parse_prometheus_text", "Exposition",
           "ExpositionError"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(prefix: str, dotted: str, suffix: str = "") -> str:
    name = _NAME_RE.sub("_", dotted)
    return f"{prefix}_{name}{suffix}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition spec: backslash, double
    quote, and newline."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _extreme_lines(name: str, hist: Histogram,
                   labels: str = "") -> Tuple[List[str], List[str]]:
    """(min lines, max lines) for one histogram — sans TYPE headers.
    Each is empty while unknown: before the first observation, or for
    a histogram recorded before histograms carried min and max."""
    return ([f"{name}_min{labels} {_fmt(hist.min)}"]
            if math.isfinite(hist.min) else [],
            [f"{name}_max{labels} {_fmt(hist.max)}"]
            if math.isfinite(hist.max) else [])


def _gauge_family(name: str, lines: List[str]) -> List[str]:
    return [f"# TYPE {name} gauge", *lines] if lines else []


def _histogram_lines(name: str, data: Mapping[str, Any]) -> List[str]:
    hist = Histogram.from_dict(dict(data))
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for bound, count in zip(hist.buckets, hist.counts):
        cumulative += count
        lines.append(
            f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
    lines.append(f"{name}_sum {_fmt(hist.sum)}")
    lines.append(f"{name}_count {hist.count}")
    min_lines, max_lines = _extreme_lines(name, hist)
    return (lines + _gauge_family(f"{name}_min", min_lines)
            + _gauge_family(f"{name}_max", max_lines))


def prometheus_text(snapshot: Mapping[str, Any],
                    prefix: str = "repro") -> str:
    """Render *snapshot* (counters/gauges/histograms/spans) as
    exposition text."""
    lines: List[str] = []
    counters: Dict[str, Any] = dict(snapshot.get("counters", {}))
    for dotted in sorted(counters):
        name = _metric_name(prefix, dotted, "_total")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {int(counters[dotted])}")
    gauges: Dict[str, Any] = dict(snapshot.get("gauges", {}))
    for dotted in sorted(gauges):
        name = _metric_name(prefix, dotted)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt(float(gauges[dotted]))}")
    histograms: Dict[str, Any] = dict(snapshot.get("histograms", {}))
    for dotted in sorted(histograms):
        lines.extend(_histogram_lines(_metric_name(prefix, dotted),
                                      histograms[dotted]))
    spans: Dict[str, Any] = dict(snapshot.get("spans", {}))
    if spans:
        # One family header for all span paths, then per-path samples.
        name = f"{prefix}_span_seconds"
        all_min: List[str] = []
        all_max: List[str] = []
        lines.append(f"# TYPE {name} summary")
        for path in sorted(spans):
            hist = Histogram.from_dict(dict(spans[path]))
            labels = '{path="' + _escape_label(path) + '"}'
            lines.append(f"{name}_count{labels} {hist.count}")
            lines.append(f"{name}_sum{labels} {_fmt(hist.sum)}")
            min_lines, max_lines = _extreme_lines(name, hist, labels)
            all_min.extend(min_lines)
            all_max.extend(max_lines)
        lines += (_gauge_family(f"{name}_min", all_min)
                  + _gauge_family(f"{name}_max", all_max))
    return "\n".join(lines) + ("\n" if lines else "")


# -- strict parsing ---------------------------------------------------------

class ExpositionError(ValueError):
    """The exposition text violates the format or its invariants."""


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _parse_labels(raw: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = _LABEL_RE.match(raw, pos)
        if match is None:
            raise ExpositionError(f"malformed label set: {{{raw}}}")
        labels[match.group(1)] = _unescape_label(match.group(2))
        pos = match.end()
        if pos < len(raw):
            if raw[pos] != ",":
                raise ExpositionError(f"malformed label set: {{{raw}}}")
            pos += 1
    return labels


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        raise ExpositionError(f"unparsable sample value: {raw!r}")


#: Sample-name suffixes each family type may emit ("" = the bare name).
_TYPE_SUFFIXES = {
    "counter": ("",),
    "gauge": ("",),
    "summary": ("_count", "_sum", ""),
    "histogram": ("_bucket", "_sum", "_count"),
}


class Exposition:
    """Parsed, validated exposition text.

    ``families`` maps family name to declared type; ``samples`` maps
    ``(sample name, sorted label items)`` to the value.
    """

    def __init__(self) -> None:
        self.families: Dict[str, str] = {}
        self.samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                           float] = {}

    def value(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Optional[float]:
        key = (name, tuple(sorted((labels or {}).items())))
        return self.samples.get(key)

    def _family_of(self, sample: str) -> Optional[Tuple[str, str]]:
        for family, ftype in self.families.items():
            for suffix in _TYPE_SUFFIXES[ftype]:
                if sample == family + suffix:
                    return family, ftype
        return None

    def histogram(self, family: str) -> Histogram:
        """Rebuild a :class:`Histogram` from a parsed histogram family
        (so callers get ``quantile`` for free)."""
        if self.families.get(family) != "histogram":
            raise ExpositionError(f"{family} is not a histogram family")
        bounds: List[float] = []
        cumulative: List[float] = []
        inf_count: Optional[float] = None
        for (name, labels), val in self.samples.items():
            if name != f"{family}_bucket":
                continue
            le = dict(labels)["le"]
            if le == "+Inf":
                inf_count = val
            else:
                bounds.append(float(le))
                cumulative.append(val)
        order = sorted(range(len(bounds)), key=lambda i: bounds[i])
        hist = Histogram([bounds[i] for i in order])
        prev = 0.0
        for slot, i in enumerate(order):
            hist.counts[slot] = int(cumulative[i] - prev)
            prev = cumulative[i]
        assert inf_count is not None  # validated at parse time
        hist.counts[-1] = int(inf_count - prev)
        hist.count = int(self.value(f"{family}_count") or 0)
        hist.sum = float(self.value(f"{family}_sum") or 0.0)
        return hist


def _validate_histograms(exp: Exposition) -> None:
    for family, ftype in exp.families.items():
        if ftype != "histogram":
            continue
        buckets: List[Tuple[float, float]] = []
        inf_count: Optional[float] = None
        for (name, labels), val in exp.samples.items():
            if name != f"{family}_bucket":
                continue
            le = dict(labels).get("le")
            if le is None:
                raise ExpositionError(
                    f"{family}_bucket sample without an le label")
            if le == "+Inf":
                inf_count = val
            else:
                buckets.append((float(le), val))
        if inf_count is None:
            raise ExpositionError(f"{family} has no +Inf bucket")
        count = exp.value(f"{family}_count")
        if count is None or exp.value(f"{family}_sum") is None:
            raise ExpositionError(f"{family} lacks _sum/_count samples")
        if inf_count != count:
            raise ExpositionError(
                f"{family}: +Inf bucket {inf_count} != _count {count}")
        buckets.sort()
        previous = 0.0
        for bound, cumulative in buckets:
            if cumulative < previous:
                raise ExpositionError(
                    f"{family}: bucket le={bound} count {cumulative} "
                    f"decreases from {previous}")
            previous = cumulative
        if previous > inf_count:
            raise ExpositionError(
                f"{family}: finite buckets exceed +Inf bucket")


def parse_prometheus_text(text: str) -> Exposition:
    """Parse exposition *text*, enforcing format invariants.

    Raises :class:`ExpositionError` on duplicate TYPE lines, duplicate
    samples, samples outside any declared family, malformed lines, and
    histogram families whose cumulative buckets decrease or whose
    ``+Inf`` bucket disagrees with ``_count``.
    """
    exp = Exposition()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in _TYPE_SUFFIXES:
                raise ExpositionError(f"line {lineno}: bad TYPE line {line!r}")
            family = parts[2]
            if family in exp.families:
                raise ExpositionError(
                    f"line {lineno}: duplicate TYPE for family {family}")
            exp.families[family] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP or comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionError(f"line {lineno}: unparsable line {line!r}")
        name, raw_labels, raw_value = match.groups()
        labels = _parse_labels(raw_labels) if raw_labels else {}
        if exp._family_of(name) is None:
            raise ExpositionError(
                f"line {lineno}: sample {name} belongs to no declared family")
        key = (name, tuple(sorted(labels.items())))
        if key in exp.samples:
            raise ExpositionError(
                f"line {lineno}: duplicate sample {name}{labels}")
        exp.samples[key] = _parse_value(raw_value)
    _validate_histograms(exp)
    return exp
