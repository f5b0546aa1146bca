# lint-as: src/repro/mac/fixture_metrics.py
"""R011 violations: metric names absent from repro/obs/names.py."""

from repro import obs


def record(prefix):
    obs.inc("mac.slost.singles")  # typo'd literal counter
    obs.inc(f"{prefix}.stag.ok")  # template matches no declared pattern
    obs.set_gauge("service.queue.depth.extra", 1)  # two segments after *
    obs.observe("engine.task.second", 0.1)  # typo'd histogram
    with obs.timed("bench.fixture.nanos"):
        pass  # bench histograms are declared as bench.*.seconds
