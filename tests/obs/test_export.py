"""Prometheus exposition: rendering rules and the strict parser.

The renderer and parser are tested against each other on purpose —
every exposition the repo serves must survive its own strict reader,
and the reader must reject the two bugs the renderer used to have
(duplicate per-path TYPE lines, lossy label escaping).
"""

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    TraceConfig,
    parse_prometheus_text,
    prometheus_text,
)
from repro.obs.export import ExpositionError


def _span_stat(count=1):
    hist = Histogram()
    for value in (0.1, 0.4, 0.25)[:count]:
        hist.observe(value)
    return hist.to_dict()


#: Sample names (families, for their types) of the exposition of
#: ``_service_like_snapshot`` as rendered when each interval was both a
#: timer (summary plus min/max gauges) and a same-named histogram.
#: Folding the timer into the histogram must keep every name.
_RECORDED_SAMPLE_NAMES = sorted(
    [f"repro_{stem}_seconds_{suffix}"
     for stem in ("engine_task", "phy_zigbee_channel",
                  "phy_zigbee_decode", "phy_zigbee_encode", "service_job")
     for suffix in ("bucket", "count", "max", "min", "sum")]
    + ["repro_engine_tasks_ok_total", "repro_phy_zigbee_stage_ok_total",
       "repro_service_cache_hits_total", "repro_service_queue_depth",
       "repro_span_seconds_count", "repro_span_seconds_max",
       "repro_span_seconds_min", "repro_span_seconds_sum"])
_RECORDED_FAMILY_TYPES = dict(
    [(f"repro_{stem}_seconds{suffix}", ftype)
     for stem in ("engine_task", "phy_zigbee_channel",
                  "phy_zigbee_decode", "phy_zigbee_encode", "service_job")
     for suffix, ftype in (("", "histogram"), ("_min", "gauge"),
                           ("_max", "gauge"))]
    + [("repro_engine_tasks_ok_total", "counter"),
       ("repro_phy_zigbee_stage_ok_total", "counter"),
       ("repro_service_cache_hits_total", "counter"),
       ("repro_service_queue_depth", "gauge"),
       ("repro_span_seconds", "summary"),
       ("repro_span_seconds_min", "gauge"),
       ("repro_span_seconds_max", "gauge")])


def _service_like_snapshot():
    """What a sweep service's registry holds after a traced job."""
    reg = MetricsRegistry(trace=TraceConfig())
    reg.inc("engine.tasks.ok", 3)
    reg.inc("phy.zigbee.stage.ok", 2)
    reg.inc("service.cache.hits")
    reg.set_gauge("service.queue.depth", 1.0)
    for name, value in (("engine.task.seconds", 0.02),
                        ("service.job.seconds", 0.5),
                        ("phy.zigbee.channel.seconds", 0.001),
                        ("phy.zigbee.decode.seconds", 0.003),
                        ("phy.zigbee.encode.seconds", 0.01)):
        reg.observe(name, value)
    with reg.span("engine.run"):
        with reg.span("engine.task"):
            pass
    return reg.snapshot()


class TestRendering:
    def test_gauges_render_as_gauge_family(self):
        text = prometheus_text({"gauges": {"service.queue.depth": 3.0}})
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "repro_service_queue_depth 3.0" in text

    def test_histogram_family_shape(self):
        reg = MetricsRegistry()
        reg.observe("engine.task.seconds", 0.003)
        reg.observe("engine.task.seconds", 99.0)
        text = prometheus_text(reg.snapshot())
        assert "# TYPE repro_engine_task_seconds histogram" in text
        assert 'repro_engine_task_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_engine_task_seconds_count 2" in text
        assert "repro_engine_task_seconds_sum" in text
        assert "repro_engine_task_seconds_min 0.003" in text
        assert "repro_engine_task_seconds_max 99.0" in text

    def test_one_type_line_per_span_family(self):
        # Regression: the old renderer re-emitted the summary (and
        # min/max gauge) TYPE headers once per span path.
        snap = {"spans": {"a": _span_stat(), "a/b": _span_stat(),
                          "a/c": _span_stat()}}
        text = prometheus_text(snap)
        assert text.count("# TYPE repro_span_seconds summary") == 1
        assert text.count("# TYPE repro_span_seconds_min gauge") == 1
        assert text.count("# TYPE repro_span_seconds_max gauge") == 1
        assert text.count("repro_span_seconds_count") == 3

    def test_label_escaping_round_trips(self):
        # Regression: quotes used to be mangled to apostrophes.
        path = 'run/"quoted"\\back\nslash'
        text = prometheus_text({"spans": {path: _span_stat(count=2)}})
        exposition = parse_prometheus_text(text)
        assert exposition.value("repro_span_seconds_count",
                                {"path": path}) == 2.0

    def test_histogram_supersedes_same_named_timer(self):
        # A snapshot stored while intervals were recorded twice carries
        # the timer engine.task beside the histogram engine.task.seconds;
        # both flatten to one family.  The histogram owns it (with its
        # min/max gauges) and the whole text stays parsable.
        reg = MetricsRegistry()
        with reg.timed("engine.task.seconds"):
            pass
        snap = reg.snapshot()
        snap["timers"] = {"engine.task": {
            "count": 1, "total_s": 0.5, "mean_s": 0.5, "min_s": 0.5,
            "max_s": 0.5}}
        text = prometheus_text(snap)
        assert "# TYPE repro_engine_task_seconds summary" not in text
        assert "# TYPE repro_engine_task_seconds histogram" in text
        assert "# TYPE repro_engine_task_seconds_max gauge" in text
        parse_prometheus_text(text)  # no duplicate families

    def test_every_rendered_exposition_parses(self):
        reg = MetricsRegistry()
        reg.inc("engine.tasks.ok", 2)
        reg.set_gauge("service.queue.depth", 1.0)
        reg.observe("service.job.seconds", 0.5)
        with reg.span("engine.run"):
            pass
        exposition = parse_prometheus_text(prometheus_text(reg.snapshot()))
        assert exposition.value("repro_engine_tasks_ok_total") == 2.0

    def test_sample_names_match_recorded_exposition(self):
        exposition = parse_prometheus_text(
            prometheus_text(_service_like_snapshot()))
        assert sorted({name for name, _ in exposition.samples}) == \
            _RECORDED_SAMPLE_NAMES
        assert exposition.families == _RECORDED_FAMILY_TYPES

    def test_min_and_max_gauges_bracket_each_histogram(self):
        reg = MetricsRegistry()
        for value in (0.2, 0.05, 3.0):
            reg.observe("service.job.seconds", value)
        exposition = parse_prometheus_text(prometheus_text(reg.snapshot()))
        assert exposition.value("repro_service_job_seconds_min") == 0.05
        assert exposition.value("repro_service_job_seconds_max") == 3.0


class TestStrictParser:
    def test_rejects_duplicate_type_lines(self):
        text = ("# TYPE repro_x counter\nrepro_x 1\n"
                "# TYPE repro_x counter\n")
        with pytest.raises(ExpositionError, match="duplicate TYPE"):
            parse_prometheus_text(text)

    def test_rejects_samples_outside_any_family(self):
        with pytest.raises(ExpositionError, match="no declared family"):
            parse_prometheus_text("repro_orphan 1\n")

    def test_rejects_duplicate_samples(self):
        text = "# TYPE repro_x gauge\nrepro_x 1\nrepro_x 2\n"
        with pytest.raises(ExpositionError, match="duplicate sample"):
            parse_prometheus_text(text)

    def test_rejects_histogram_without_inf_bucket(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1.0"} 1\n'
                "repro_h_sum 0.5\nrepro_h_count 1\n")
        with pytest.raises(ExpositionError, match="no \\+Inf"):
            parse_prometheus_text(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1.0"} 1\n'
                'repro_h_bucket{le="+Inf"} 1\n'
                "repro_h_sum 0.5\nrepro_h_count 2\n")
        with pytest.raises(ExpositionError, match="!= _count"):
            parse_prometheus_text(text)

    def test_rejects_decreasing_cumulative_buckets(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1.0"} 3\n'
                'repro_h_bucket{le="2.0"} 1\n'
                'repro_h_bucket{le="+Inf"} 3\n'
                "repro_h_sum 0.5\nrepro_h_count 3\n")
        with pytest.raises(ExpositionError, match="decreases"):
            parse_prometheus_text(text)

    def test_rejects_unparsable_lines(self):
        with pytest.raises(ExpositionError, match="unparsable"):
            parse_prometheus_text("!!!\n")

    def test_parsed_histogram_supports_quantiles(self):
        reg = MetricsRegistry()
        for v in (0.001, 0.02, 0.02, 4.0):
            reg.observe("engine.task.seconds", v)
        exposition = parse_prometheus_text(prometheus_text(reg.snapshot()))
        hist = exposition.histogram("repro_engine_task_seconds")
        assert hist.count == 4
        assert hist.sum == pytest.approx(4.041)
        assert 0.01 < hist.quantile(0.5) <= 0.025

    def test_histogram_accessor_rejects_other_families(self):
        exposition = parse_prometheus_text("# TYPE repro_x gauge\n"
                                           "repro_x 1\n")
        with pytest.raises(ExpositionError, match="not a histogram"):
            exposition.histogram("repro_x")
