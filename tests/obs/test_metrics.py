"""Tests for the process-local metrics registry (repro.obs)."""

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect,
    global_registry,
    inc,
    observe,
    registry,
    set_gauge,
    timed,
)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        g.set(3.0)
        g.add(-1.0)
        assert g.value == pytest.approx(2.0)

    def test_merge_is_last_write_wins(self):
        a, b = Gauge(), Gauge()
        a.set(10.0)
        b.set(4.0)
        a.merge(b)
        assert a.value == pytest.approx(4.0)


class TestHistogram:
    def test_observe_fills_buckets_with_le_semantics(self):
        h = Histogram([1.0, 10.0])
        h.observe(1.0)   # on the edge: le means <= bound
        h.observe(5.0)
        h.observe(100.0)  # overflow slot
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(106.0)
        assert (h.min, h.max) == (1.0, 100.0)

    def test_rejects_bad_bucket_grids(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])  # not ascending
        with pytest.raises(ValueError):
            Histogram([1.0, float("inf")])

    def test_merge_requires_matching_buckets(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).merge(Histogram([2.0]))

    def test_merge_is_partition_invariant(self):
        # Any split of the observations across workers merges to the
        # same histogram — what makes n_jobs invisible in snapshots.
        values = [0.0002, 0.003, 0.003, 0.04, 0.5, 7.0, 120.0]
        whole = Histogram(DEFAULT_LATENCY_BUCKETS)
        for v in values:
            whole.observe(v)
        for split in (1, 2, 3):
            merged = Histogram(DEFAULT_LATENCY_BUCKETS)
            for start in range(split):
                part = Histogram(DEFAULT_LATENCY_BUCKETS)
                for v in values[start::split]:
                    part.observe(v)
                merged.merge(part)
            assert merged.counts == whole.counts
            assert merged.count == whole.count
            assert merged.sum == pytest.approx(whole.sum)
            assert (merged.min, merged.max) == (0.0002, 120.0)

    def test_round_trip(self):
        h = Histogram(DEFAULT_LATENCY_BUCKETS)
        for v in (0.001, 0.02, 3.0):
            h.observe(v)
        again = Histogram.from_dict(h.to_dict())
        assert again.to_dict() == h.to_dict()
        assert (again.min, again.max) == (0.001, 3.0)

    def test_empty_round_trip(self):
        d = Histogram(DEFAULT_LATENCY_BUCKETS).to_dict()
        # The inf sentinels never leak into JSON ...
        assert d["min"] is None and d["max"] is None
        again = Histogram.from_dict(d)
        assert again.count == 0 and again.to_dict() == d
        # ... and come back, so a later observation or merge still
        # takes a true minimum and maximum.
        again.observe(0.5)
        assert (again.min, again.max) == (0.5, 0.5)

    def test_from_dict_without_extremes(self):
        # Histogram dicts written before min/max existed still load;
        # their extremes are unknown until something observes or merges.
        d = Histogram([1.0]).to_dict()
        d.update(counts=[1, 0], sum=0.5, count=1)
        del d["min"], d["max"]
        hist = Histogram.from_dict(d)
        assert hist.count == 1
        assert hist.to_dict()["min"] is None
        other = Histogram([1.0])
        other.observe(0.25)
        hist.merge(other)
        assert (hist.min, hist.max) == (0.25, 0.25)

    def test_from_dict_rejects_torn_counts(self):
        d = Histogram([1.0, 2.0]).to_dict()
        d["counts"] = [0, 0]  # must be len(buckets) + 1
        with pytest.raises(ValueError):
            Histogram.from_dict(d)

    def test_quantile_empty_is_none(self):
        assert Histogram([1.0]).quantile(0.5) is None

    def test_quantile_interpolates(self):
        h = Histogram([1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        # p50 falls in the (1, 2] bucket; p100 in (2, 4].
        assert 1.0 <= h.quantile(0.5) <= 2.0
        assert 2.0 < h.quantile(1.0) <= 4.0
        assert h.quantile(0.0) <= 1.0

    def test_quantile_overflow_clamps_to_top_bound(self):
        h = Histogram([1.0])
        h.observe(50.0)
        assert h.quantile(0.99) == pytest.approx(1.0)

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).quantile(1.5)


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a") == 5
        assert reg.counter("missing") == 0

    def test_timed_context(self):
        reg = MetricsRegistry()
        with reg.timed("stage.seconds"):
            pass
        assert reg.histogram("stage.seconds").count == 1

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("n")
        reg.observe("t.seconds", 0.25)
        snap = reg.snapshot()
        assert snap["counters"] == {"n": 1}
        assert "timers" not in snap
        hist = snap["histograms"]["t.seconds"]
        assert hist["count"] == 1
        assert hist["sum"] == hist["min"] == hist["max"] == 0.25

    def test_merge_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("n", 2)
        reg.observe("t.seconds", 0.1)
        other = MetricsRegistry()
        other.inc("n", 3)
        other.observe("t.seconds", 0.3)
        reg.merge_snapshot(other.snapshot())
        assert reg.counter("n") == 5
        hist = reg.histogram("t.seconds")
        assert hist.count == 2
        assert (hist.min, hist.max) == (0.1, 0.3)

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("n")
        reg.observe("t.seconds", 0.1)
        reg.reset()
        assert reg.snapshot() == {"counters": {}}

    def test_gauge_and_histogram_in_snapshot(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3.0)
        reg.add_gauge("depth", 2.0)
        reg.observe("lat", 0.02)
        snap = reg.snapshot()
        assert snap["gauges"] == {"depth": 5.0}
        assert snap["histograms"]["lat"]["count"] == 1
        # Empty registries carry only the counters key.
        assert MetricsRegistry().snapshot() == {"counters": {}}

    def test_merge_snapshot_gauges_and_histograms(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 1.0)
        reg.observe("lat", 0.001)
        other = MetricsRegistry()
        other.set_gauge("depth", 7.0)
        other.observe("lat", 0.3)
        reg.merge_snapshot(other.snapshot())
        assert reg.gauge_value("depth") == pytest.approx(7.0)  # last write
        assert reg.histogram("lat").count == 2

    def test_merge_snapshot_ignores_legacy_timers(self):
        # Snapshots stored before timers folded into histograms carry a
        # ``timers`` key; merging one keeps everything else.
        reg = MetricsRegistry()
        reg.merge_snapshot({"counters": {"n": 1}, "timers": {
            "engine.task": {"count": 1, "total_s": 0.5, "mean_s": 0.5,
                            "min_s": 0.5, "max_s": 0.5}}})
        assert reg.snapshot() == {"counters": {"n": 1}}

    def test_merge_snapshot_round_trips_through_json(self):
        import json

        reg = MetricsRegistry()
        reg.observe("lat", 0.05)
        snap = json.loads(json.dumps(reg.snapshot()))
        other = MetricsRegistry()
        other.merge_snapshot(snap)
        assert other.histogram("lat").to_dict() == \
            reg.histogram("lat").to_dict()

    def test_timed_feeds_histogram_too(self):
        # One timed block is one histogram observation: its sum, min
        # and max are the same single duration.
        reg = MetricsRegistry()
        with reg.timed("engine.task.seconds"):
            pass
        hist = reg.histogram("engine.task.seconds")
        assert hist.count == 1
        assert hist.sum == hist.min == hist.max >= 0.0
        assert reg.snapshot().keys() == {"counters", "histograms"}


class TestCollectScope:
    def test_collect_isolates_from_global(self):
        with collect() as reg:
            inc("scoped")
            assert registry() is reg
        assert reg.counter("scoped") == 1
        assert global_registry().counter("scoped") == 0
        assert registry() is global_registry()

    def test_nested_collect(self):
        with collect() as outer:
            inc("outer.only")
            with collect() as inner:
                inc("both")
            assert inner.counter("both") == 1
        assert outer.counter("outer.only") == 1
        assert outer.counter("both") == 0

    def test_timed_binds_registry_at_exit(self):
        # A timer entered before collect() but exited inside it lands in
        # the active registry at exit time (what workers rely on).
        timer = timed("late.seconds")
        timer.__enter__()
        with collect() as reg:
            timer.__exit__(None, None, None)
            assert reg.histogram("late.seconds").count == 1

    def test_module_level_helpers_hit_active_registry(self):
        with collect() as reg:
            with timed("stage.seconds"):
                inc("packets", 2)
        assert reg.counter("packets") == 2
        assert reg.histogram("stage.seconds").count == 1

    def test_module_level_gauge_and_histogram_helpers(self):
        with collect() as reg:
            set_gauge("depth", 4.0)
            observe("lat", 0.01)
        assert reg.gauge_value("depth") == pytest.approx(4.0)
        assert reg.histogram("lat").count == 1
        assert global_registry().histogram("lat") is None
