"""The engine's one execution path: every task runs as a shard of
``simulate_points`` under one retry loop.

Pins the invariants of the shard model: points, per-task stage counts,
result counters and span counts do not depend on the worker count, on
tracing, on a timeout (which makes every task its own shard) or on a
failed shard being split into single-task shards.  Also pins how the
pool deals its shards and sizes their flushes, and covers the sessions
that reach the engine without the two-phase batch API and the
per-thread simulator cache the sweep service's worker threads rely on.
"""

import sys
import threading

import numpy as np
import pytest

from repro.channel.awgn import NoiseArena
from repro.channel.geometry import Deployment
from repro.core.registry import _FACTORIES, create_session, register_session
from repro.obs import TraceConfig
from repro.sim import engine as engine_mod
from repro.sim.config import WIFI_CONFIG, ZIGBEE_CONFIG
from repro.sim.engine import (
    ExperimentEngine,
    ExperimentSpec,
    FailurePolicy,
    FaultInjector,
)
from repro.sim.linksim import LinkSimulator
import repro.sim.linksim as linksim


def _spec(config=ZIGBEE_CONFIG, distances=(2.0, 10.0, 30.0), seed=11):
    return ExperimentSpec(config=config.replace(payload_bytes=24),
                          deployment=Deployment.los(1.0),
                          distances_m=distances, packets_per_point=2,
                          seed=seed)


def _wifi_spec():
    # Five points over three workers: uneven interleaved pool shards
    # whose points share a flush.
    return ExperimentSpec(config=WIFI_CONFIG.replace(payload_bytes=200),
                          deployment=Deployment.los(1.0),
                          distances_m=(2.0, 10.0, 22.0, 34.0, 46.0),
                          packets_per_point=3, seed=11)


def _shard_of(task, n_tasks, n_jobs):
    """The tasks sharing *task*'s shard on an untimed run (inline, one
    worker takes them all)."""
    workers = min(n_jobs, n_tasks)
    return list(range(n_tasks))[task % workers::workers]


def _result_counters(metrics):
    # engine.* counters are bookkeeping (retries, splits, raised
    # attempts); *_cached counters depend on which process warmed a
    # frame cache.  Everything else is a result.
    return {k: v for k, v in metrics["counters"].items()
            if not k.startswith("engine.") and not k.endswith("_cached")}


def _span_counts(metrics):
    return {path: stat["count"]
            for path, stat in metrics.get("spans", {}).items()}


MODES = {
    "plain": {},
    "traced": {"trace": TraceConfig()},
    "timeout": {"failure_policy": FailurePolicy(timeout_s=30.0)},
    "injected": {"failure_policy": FailurePolicy(max_attempts=2),
                 "fault_injector": FaultInjector(fail={1: 1})},
}


@pytest.fixture(scope="module")
def reference():
    return ExperimentEngine(n_jobs=1).run(_spec())


@pytest.fixture(scope="module")
def wifi_reference():
    return ExperimentEngine(n_jobs=1).run(_wifi_spec())


def _check_against(reference, spec, n_jobs, mode):
    result = ExperimentEngine(n_jobs=n_jobs, **MODES[mode]).run(spec)
    assert result.ok
    assert result.points == reference.points
    assert [t.stage_counts for t in result.tasks] \
        == [t.stage_counts for t in reference.tasks]
    assert _result_counters(result.metrics) \
        == _result_counters(reference.metrics)
    counters = result.metrics["counters"]
    assert counters["engine.batch.points"] == spec.n_tasks
    if mode == "injected":
        assert counters["engine.retries"] == 1
        assert result.tasks[1].attempts == 2
        # The failing task aborts its shard only when it shares one:
        # inline all tasks do, on the pool its interleaved neighbours.
        shared = len(_shard_of(1, spec.n_tasks, n_jobs)) > 1
        assert counters.get("engine.batch.aborted", 0) == int(shared)
    else:
        assert "engine.batch.aborted" not in counters


class TestShardMatrix:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_results_match_plain_inline_run(self, reference, n_jobs, mode):
        _check_against(reference, _spec(), n_jobs, mode)

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_wifi_results_match_plain_inline_run(self, wifi_reference,
                                                 n_jobs, mode):
        _check_against(wifi_reference, _wifi_spec(), n_jobs, mode)

    def test_span_counts_match_across_workers_and_splits(self):
        trace = TraceConfig()
        runs = [ExperimentEngine(n_jobs=n, trace=trace).run(_spec())
                for n in (1, 3)]
        runs.append(ExperimentEngine(
            n_jobs=1, trace=trace,
            failure_policy=FailurePolicy(max_attempts=2),
            fault_injector=FaultInjector(fail={1: 1})).run(_spec()))
        counts = [_span_counts(r.metrics) for r in runs]
        assert counts[0]["engine.run/engine.task"] == 3
        assert counts[0]["engine.run/engine.task/sim.point"] == 3
        assert counts[1] == counts[0]
        assert counts[2] == counts[0]


class TestSplitOnFailure:
    def test_split_rerun_keeps_attempt_number(self):
        # Task 0 fails its first attempt, so the inline shard aborts and
        # task 0 reruns alone at attempt 1 — where it fails again and
        # is then retried as attempt 2.  Its neighbours succeed at 1.
        result = ExperimentEngine(
            n_jobs=1, failure_policy=FailurePolicy(max_attempts=2),
            fault_injector=FaultInjector(fail={0: 1})).run(_spec())
        assert result.ok
        assert [t.attempts for t in result.tasks] == [2, 1, 1]
        assert result.metrics["counters"]["engine.batch.aborted"] == 1

    def test_degraded_split_flags_only_the_failing_task(self, reference):
        result = ExperimentEngine(
            n_jobs=1, failure_policy=FailurePolicy.degrade_policy(
                max_attempts=1),
            fault_injector=FaultInjector(fail={2: 9})).run(_spec())
        assert [t.status for t in result.tasks] == ["ok", "ok", "failed"]
        assert result.points[:2] == reference.points[:2]
        assert result.points[2] is None

    def test_shard_duration_is_split_evenly(self):
        result = ExperimentEngine(n_jobs=1).run(_spec())
        durations = {t.duration_s for t in result.tasks}
        assert len(durations) == 1 and durations.pop() > 0


class _ProtocolOnlySession:
    """Only the registry's ``BackscatterSession`` surface: no
    ``predraw_packet`` (so no batch API) and no ``make_excitation``."""

    def __init__(self, **kwargs):
        self._inner = create_session("zigbee", **kwargs)
        self.oversample_factor = self._inner.oversample_factor
        self.sample_rate_hz = self._inner.sample_rate_hz

    def capacity_bits(self):
        return self._inner.capacity_bits()

    def run_packet(self, snr_db, tag_bits=None, incident_power_dbm=None,
                   rng=None, excitation=None):
        # A deterministic session draws everything from *rng*.
        if excitation is None:
            excitation = self._inner.make_excitation(rng)
        return self._inner.run_packet(
            snr_db, tag_bits=tag_bits,
            incident_power_dbm=incident_power_dbm, rng=rng,
            excitation=excitation)


class TestProtocolOnlySession:
    @pytest.fixture
    def config(self):
        register_session("protocol-zigbee", _ProtocolOnlySession)
        yield ZIGBEE_CONFIG.replace(name="protocol-zigbee")
        _FACTORIES.pop("protocol-zigbee", None)

    def test_runs_through_engine_like_the_scalar_simulator(self, config):
        spec = _spec(config)
        result = ExperimentEngine(n_jobs=1).run(spec)
        assert result.ok
        scalar = LinkSimulator(spec.config, spec.deployment,
                               packets_per_point=spec.packets_per_point,
                               seed=0, batch=False)
        children = np.random.SeedSequence(spec.seed).spawn(spec.n_tasks)
        expected = [scalar.simulate_point(d, rng=np.random.default_rng(c),
                                          share_excitation=True)
                    for d, c in zip(spec.distances_m, children)]
        assert result.points == expected
        assert result.metrics["counters"]["phy.batch.fallback"] \
            == spec.n_tasks

    def test_serial_sweep_counts_fallback(self, config):
        from repro import obs

        sim = LinkSimulator(config, Deployment.los(1.0),
                            packets_per_point=2, seed=5)
        with obs.collect() as reg:
            points = sim.sweep((2.0, 10.0))
        assert len(points) == 2
        assert reg.counter("phy.batch.fallback") == 2


class TestSimulatorCachePerThread:
    def test_threads_get_distinct_simulators_and_solo_points(self):
        # More threads than cores and a short switch interval, so
        # concurrent cache evictions and shared-session use would show.
        spec = _spec()
        solo = ExperimentEngine(n_jobs=1).run(spec).points
        n_threads = 4
        sims, points = {}, {}
        barrier = threading.Barrier(n_threads, timeout=30)

        def work(k):
            barrier.wait()
            sims[k] = engine_mod._simulator_for(spec)
            points[k] = ExperimentEngine(n_jobs=1).run(spec).points

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len({id(sim) for sim in sims.values()}) == n_threads
        assert engine_mod._simulator_for(spec) not in sims.values()
        assert all(points[k] == solo for k in range(n_threads))


class TestPoolPartition:
    """Which shards the dispatcher makes, and with what flush budget."""

    @pytest.fixture
    def submitted(self, monkeypatch):
        shards = []
        submit = engine_mod._WorkerPools.submit
        execute_here = engine_mod._execute_here

        def record(args):
            # args: (spec, units, attempt, injector, trace, flush_bytes)
            shards.append((tuple(i for (i, _, _) in args[1]), args[5]))

        def pool_submit(self, *args):
            record(args)
            return submit(self, *args)

        def inline(*args):
            record(args)
            return execute_here(*args)

        monkeypatch.setattr(engine_mod._WorkerPools, "submit", pool_submit)
        monkeypatch.setattr(engine_mod, "_execute_here", inline)
        return shards

    @pytest.mark.parametrize("n_jobs, expected", [
        (2, [(0, 2, 4), (1, 3)]),
        (3, [(0, 3), (1, 4), (2,)]),
        (8, [(0,), (1,), (2,), (3,), (4,)]),
    ])
    def test_pool_deals_one_interleaved_shard_per_worker(
            self, submitted, n_jobs, expected):
        spec = _spec(distances=(2.0, 5.0, 10.0, 20.0, 30.0))
        result = ExperimentEngine(n_jobs=n_jobs).run(spec)
        assert result.ok
        assert sorted(shard for shard, _ in submitted) == expected
        budget = engine_mod._POOL_FLUSH_BYTES
        assert {flush for _, flush in submitted} == {budget}

    def test_timeout_keeps_single_task_shards(self, submitted):
        spec = _spec(distances=(2.0, 5.0, 10.0, 20.0, 30.0))
        ExperimentEngine(n_jobs=2, failure_policy=FailurePolicy(
            timeout_s=30.0)).run(spec)
        assert sorted(shard for shard, _ in submitted) \
            == [(i,) for i in range(5)]

    def test_inline_run_is_one_unbudgeted_shard(self, submitted):
        ExperimentEngine(n_jobs=1).run(_spec())
        assert submitted == [((0, 1, 2), None)]

    def test_pool_workers_start_with_the_session_built(self, monkeypatch):
        # The parent builds the spec's simulator before the pool starts.
        built = []
        simulator_for = engine_mod._simulator_for

        def spy(spec):
            built.append(spec.session_key())
            return simulator_for(spec)

        monkeypatch.setattr(engine_mod, "_simulator_for", spy)
        ExperimentEngine(n_jobs=2).run(_spec())
        assert built == [_spec().session_key()]


class TestPoolFlushBudget:
    """A pool shard's flushes fit the byte budget and hold whole points."""

    def _run_shard(self, monkeypatch, config, distances):
        spec = ExperimentSpec(config=config,
                              deployment=Deployment.los(1.0),
                              distances_m=distances, packets_per_point=10,
                              seed=4)
        sim = engine_mod._simulator_for(spec)
        arenas, passes, point_draws = [], [], []

        class RecordingArena(NoiseArena):
            def __init__(self, rows):
                super().__init__(rows)
                arenas.append(self)

        phase1 = sim._point_phase1
        channel = sim.session.channel_packets

        def record_phase1(*args, **kwargs):
            pending = phase1(*args, **kwargs)
            point_draws.append({id(d) for d in pending.draws
                                if d.result is None})
            return pending

        def record_channel(draws):
            passes.append({id(d) for d in draws if d.result is None})
            return channel(draws)

        monkeypatch.setattr(linksim, "NoiseArena", RecordingArena)
        monkeypatch.setattr(sim, "_point_phase1", record_phase1)
        monkeypatch.setattr(sim.session, "channel_packets", record_channel)
        children = np.random.SeedSequence(spec.seed).spawn(spec.n_tasks)
        units = [(i, d, children[i]) for i, d in enumerate(distances)]
        results, _, _ = engine_mod._execute_shard(
            spec, units, 1, None, None, engine_mod._POOL_FLUSH_BYTES)
        assert len(results) == len(distances)
        return sim, arenas, passes, point_draws

    def _check(self, sim, arenas, passes, point_draws):
        budget = engine_mod._POOL_FLUSH_BYTES
        chunk = sim.session._chunk_packets
        for arena in arenas:
            # A closed arena's rows shrink to the rows it used.
            assert arena.used <= arena.allocated <= chunk
            assert arena.allocated % 10 == 0
            for n in arena._noisy:
                assert arena.allocated * NoiseArena.row_bytes(n) <= budget
        # Every channel pass is the union of whole points' draws.
        for drawn in passes:
            touched = [p for p in point_draws if p & drawn]
            assert set().union(*touched) == drawn
        assert sum(len(p) for p in passes) \
            == sum(len(p) for p in point_draws)

    def test_wifi_flushes_two_points(self, monkeypatch):
        sim, arenas, passes, points = self._run_shard(
            monkeypatch, WIFI_CONFIG, (1.0, 2.0, 3.0, 4.0, 5.0))
        assert [a.allocated for a in arenas] == [20, 20, 10]
        assert [len(p) for p in passes] == [20, 20, 10]
        self._check(sim, arenas, passes, points)

    def test_gated_wifi_points_stay_whole(self, monkeypatch):
        # Past the sync cliff most packets are gated, so one flush takes
        # three points; none of them is split across flushes.
        sim, arenas, passes, points = self._run_shard(
            monkeypatch, WIFI_CONFIG, (2.0, 3.0, 46.0, 50.0, 4.0))
        assert len(passes) == 2
        self._check(sim, arenas, passes, points)

    def test_narrowband_chunk_binds_before_the_budget(self, monkeypatch):
        sim, arenas, passes, points = self._run_shard(
            monkeypatch, ZIGBEE_CONFIG, (1.0, 2.0, 3.0))
        assert [a.allocated for a in arenas] == [10, 10, 10]
        self._check(sim, arenas, passes, points)
