"""Each thread records into its own active registry.

``collect`` / ``collect_into`` scope the active registry to the calling
thread (a context variable), so telemetry a threaded caller stores next
to its results -- the sweep service runs one engine per worker thread --
never picks up another thread's counters.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.channel.geometry import Deployment
from repro.sim.config import BLE_CONFIG, ZIGBEE_CONFIG
from repro.sim.engine import ExperimentEngine, ExperimentSpec


def _in_threads(*targets):
    """Run each target on a fresh thread of its own; return their
    results (re-raising the first error)."""
    with ThreadPoolExecutor(max_workers=len(targets)) as pool:
        futures = [pool.submit(target) for target in targets]
        return [f.result() for f in futures]


class TestActiveRegistryPerThread:
    def test_interleaved_collect_scopes_stay_separate(self):
        # Both threads are inside their collect() blocks before either
        # records; a process-global stack would route both increments
        # into whichever registry was pushed last.
        entered = threading.Barrier(2)
        recorded = threading.Barrier(2)

        def worker(name):
            def run():
                with obs.collect() as reg:
                    entered.wait()
                    obs.inc(name)
                    with obs.timed("phy.zigbee.decode.seconds"):
                        pass
                    recorded.wait()
                return reg.snapshot()
            return run

        a, b = _in_threads(worker("phy.zigbee.packets"),
                           worker("phy.bluetooth.packets"))
        assert a["counters"] == {"phy.zigbee.packets": 1}
        assert b["counters"] == {"phy.bluetooth.packets": 1}
        assert a["histograms"]["phy.zigbee.decode.seconds"]["count"] == 1
        assert b["histograms"]["phy.zigbee.decode.seconds"]["count"] == 1

    def test_other_threads_default_to_the_global_registry(self):
        inside = threading.Event()
        done = threading.Event()

        def scoped():
            with obs.collect():
                inside.set()
                done.wait(10)

        def unscoped():
            inside.wait(10)
            try:
                return obs.registry() is obs.global_registry()
            finally:
                done.set()

        _, is_global = _in_threads(scoped, unscoped)
        assert is_global


def _spec(config):
    return ExperimentSpec(config=config, deployment=Deployment.los(1.0),
                          distances_m=(1.0, 4.0, 8.0, 12.0, 16.0, 20.0),
                          packets_per_point=30, seed=11)


def _telemetry(spec, start=None):
    def run():
        if start is not None:
            start.wait()
        result = ExperimentEngine(n_jobs=1).run(spec)
        return (result.metrics["counters"],
                [task.stage_counts for task in result.tasks])
    return run


class TestThreadedEngines:
    def test_concurrent_runs_match_solo_runs(self):
        specs = [_spec(ZIGBEE_CONFIG), _spec(BLE_CONFIG)]
        # Each solo run gets a fresh thread too, so both sides start
        # from the same (empty) per-thread simulator cache.
        solo = [_in_threads(_telemetry(spec))[0] for spec in specs]
        start = threading.Barrier(len(specs))
        together = _in_threads(*(_telemetry(spec, start) for spec in specs))
        for (counters, stages), (solo_counters, solo_stages) in zip(
                together, solo):
            assert counters == solo_counters
            assert stages == solo_stages
