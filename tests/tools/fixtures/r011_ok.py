# lint-as: src/repro/mac/fixture_metrics.py
"""R011-clean: literal and templated names match the registry."""

from repro import obs


def record(prefix, stage):
    obs.inc("mac.rounds")
    obs.inc(f"{prefix}.stage.{stage}")
    obs.set_gauge("service.queue.depth", 3)
    obs.observe("engine.task.seconds", 0.1)
    with obs.timed("bench.fixture.seconds"):
        pass
    with obs.timed(prefix + ".decode.seconds"):
        pass
