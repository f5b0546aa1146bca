"""Tests for the engine's fault-handling layer: failure policies,
retries, timeouts, deterministic fault injection, and checkpoint/resume
bit-identity."""

import json

import pytest

from repro.channel.geometry import Deployment
from repro.sim.engine import (
    CheckpointJournal,
    ExperimentEngine,
    ExperimentSpec,
    FailurePolicy,
    FaultInjector,
    MacExperimentSpec,
    TaskFailure,
    spec_fingerprint,
)
from repro.sim.config import ZIGBEE_CONFIG


def _spec(distances=(2.0, 30.0), packets=2, seed=7):
    return ExperimentSpec(config=ZIGBEE_CONFIG.replace(payload_bytes=24),
                          deployment=Deployment.los(1.0),
                          distances_m=distances,
                          packets_per_point=packets, seed=seed)


class TestFailurePolicy:
    def test_defaults_are_fail_fast_no_retry(self):
        policy = FailurePolicy()
        assert policy.fail_fast
        assert policy.max_attempts == 1

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            FailurePolicy(mode="panic")

    def test_attempts_validated(self):
        with pytest.raises(ValueError):
            FailurePolicy(max_attempts=0)

    def test_timeout_validated(self):
        with pytest.raises(ValueError):
            FailurePolicy(timeout_s=0.0)

    def test_backoff_schedule(self):
        policy = FailurePolicy(max_attempts=5, backoff_base_s=0.5,
                               backoff_factor=2.0, backoff_max_s=1.5)
        assert policy.backoff_s(1) == pytest.approx(0.5)
        assert policy.backoff_s(2) == pytest.approx(1.0)
        assert policy.backoff_s(3) == pytest.approx(1.5)  # capped
        assert policy.backoff_s(9) == pytest.approx(1.5)

    def test_zero_base_disables_backoff(self):
        assert FailurePolicy(max_attempts=3).backoff_s(2) == 0.0

    def test_degrade_policy_helper(self):
        policy = FailurePolicy.degrade_policy(max_attempts=2)
        assert not policy.fail_fast
        assert policy.max_attempts == 2


class TestFaultInjection:
    def test_fail_fast_raises_task_failure(self):
        engine = ExperimentEngine(n_jobs=1,
                                  fault_injector=FaultInjector(fail={0: 1}))
        with pytest.raises(TaskFailure):
            engine.run(_spec())

    def test_degrade_flags_failed_point_keeps_others(self):
        spec = _spec()
        clean = ExperimentEngine(n_jobs=1).run(spec)
        engine = ExperimentEngine(
            n_jobs=1,
            failure_policy=FailurePolicy.degrade_policy(max_attempts=1),
            fault_injector=FaultInjector(fail={0: 99}))
        result = engine.run(spec)
        assert result.points[0] is None
        assert result.tasks[0].status == "failed"
        assert "injected fault" in result.tasks[0].error
        assert not result.ok and result.n_failed == 1
        # The surviving point is untouched by its neighbour's failure.
        assert result.points[1] == clean.points[1]
        assert result.tasks[1].ok

    def test_retry_then_succeed_is_bit_identical(self):
        spec = _spec()
        clean = ExperimentEngine(n_jobs=1).run(spec)
        engine = ExperimentEngine(
            n_jobs=1,
            failure_policy=FailurePolicy.degrade_policy(max_attempts=3),
            fault_injector=FaultInjector(fail={0: 2}))
        result = engine.run(spec)
        assert result.points == clean.points  # seed reuse across attempts
        assert result.tasks[0].attempts == 3
        assert result.tasks[1].attempts == 1
        assert result.metrics["counters"]["engine.retries"] == 2

    def test_pool_retry_then_succeed_is_bit_identical(self):
        spec = _spec()
        clean = ExperimentEngine(n_jobs=1).run(spec)
        engine = ExperimentEngine(
            n_jobs=2,
            failure_policy=FailurePolicy.degrade_policy(max_attempts=2),
            fault_injector=FaultInjector(fail={1: 1}))
        result = engine.run(spec)
        assert result.points == clean.points
        assert result.ok

    def test_injection_keyed_by_task_and_attempt(self):
        injector = FaultInjector(fail={3: 2})
        with pytest.raises(Exception):
            injector.apply(3, 1)
        with pytest.raises(Exception):
            injector.apply(3, 2)
        injector.apply(3, 3)  # attempts beyond the budget pass
        injector.apply(0, 1)  # other tasks untouched


class TestTimeouts:
    def test_inline_soft_timeout_classified(self):
        engine = ExperimentEngine(
            n_jobs=1,
            failure_policy=FailurePolicy.degrade_policy(
                max_attempts=1, timeout_s=0.05),
            fault_injector=FaultInjector(hang_s={0: 0.25}))
        result = engine.run(_spec())
        assert result.tasks[0].status == "timeout"
        assert result.points[0] is None
        assert result.tasks[1].ok

    def test_pool_timeout_abandons_worker(self):
        engine = ExperimentEngine(
            n_jobs=2,
            failure_policy=FailurePolicy.degrade_policy(
                max_attempts=1, timeout_s=0.1),
            fault_injector=FaultInjector(hang_s={0: 0.6}))
        result = engine.run(_spec())
        assert result.tasks[0].status == "timeout"
        assert "worker abandoned" in result.tasks[0].error
        assert result.points[0] is None
        assert result.tasks[1].ok

    def test_pool_timeout_clock_excludes_queue_wait(self):
        # Regression: with more tasks than workers, the deadline used to
        # run from submit time, so tasks queued behind slow-but-healthy
        # ones were cancelled as "timeout" without ever executing.  Each
        # attempt hangs 0.2s against a 0.5s deadline: any task charged
        # for its ~0.2s queue wait would still pass, but under the old
        # submit-time clock the last tasks accumulate >0.5s and fail.
        spec = _spec(distances=(2.0, 5.0, 10.0, 30.0))
        engine = ExperimentEngine(
            n_jobs=2,
            failure_policy=FailurePolicy.degrade_policy(
                max_attempts=1, timeout_s=0.5),
            fault_injector=FaultInjector(
                hang_s={i: 0.2 for i in range(4)}))
        result = engine.run(spec)
        assert [t.status for t in result.tasks] == ["ok"] * 4
        assert result.ok

    def test_pool_timeout_retry_replaces_hung_worker(self):
        # Only the first attempt of task 0 hangs; the retry must run on
        # a fresh worker slot (the hung one is abandoned) and reproduce
        # the clean point bit-identically.
        spec = _spec()
        clean = ExperimentEngine(n_jobs=1).run(spec)
        engine = ExperimentEngine(
            n_jobs=2,
            failure_policy=FailurePolicy.degrade_policy(
                max_attempts=2, timeout_s=0.15),
            fault_injector=FaultInjector(hang_s={0: 1.0}))
        result = engine.run(spec)
        assert result.ok
        assert result.points == clean.points
        assert result.tasks[0].attempts == 2
        assert result.metrics["counters"]["engine.retries"] == 1

    def test_inline_timeout_not_retried_without_injector(self):
        # An inline rerun repeats the identical deterministic
        # computation, so retrying a timed-out attempt is pure waste —
        # the engine must record the timeout after the first attempt.
        engine = ExperimentEngine(
            n_jobs=1,
            failure_policy=FailurePolicy.degrade_policy(
                max_attempts=3, timeout_s=1e-6))
        result = engine.run(_spec())
        assert [t.status for t in result.tasks] == ["timeout", "timeout"]
        assert [t.attempts for t in result.tasks] == [1, 1]
        assert "engine.retries" not in result.metrics["counters"]

    def test_inline_timeout_retries_with_injector(self):
        # With a FaultInjector the slowness is attempt-dependent, so the
        # retry path stays live: attempt 1 hangs past the deadline,
        # attempt 2 runs clean.
        spec = _spec()
        clean = ExperimentEngine(n_jobs=1).run(spec)
        engine = ExperimentEngine(
            n_jobs=1,
            failure_policy=FailurePolicy.degrade_policy(
                max_attempts=2, timeout_s=0.1),
            fault_injector=FaultInjector(hang_s={0: 0.3}))
        result = engine.run(spec)
        assert result.ok
        assert result.points == clean.points
        assert result.tasks[0].attempts == 2


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, tmp_path):
        spec = _spec(distances=(2.0, 10.0, 30.0))
        path = tmp_path / "sweep.jsonl"
        clean = ExperimentEngine(n_jobs=1).run(spec)

        # First pass: the last point fails, the first two are journaled.
        first = ExperimentEngine(
            n_jobs=1,
            failure_policy=FailurePolicy.degrade_policy(max_attempts=1),
            fault_injector=FaultInjector(fail={2: 99})).run(
                spec, checkpoint=path)
        assert [t.status for t in first.tasks] == ["ok", "ok", "failed"]

        # Second pass (no injector): only the missing point recomputes.
        resumed = ExperimentEngine(n_jobs=1).run(spec, checkpoint=path)
        assert resumed.points == clean.points
        assert [t.resumed for t in resumed.tasks] == [True, True, False]
        assert [t.attempts for t in resumed.tasks] == [0, 0, 1]
        assert resumed.metrics["counters"]["engine.tasks.resumed"] == 2

    def test_journal_keyed_by_spec_fingerprint(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        spec_a = _spec(seed=7)
        spec_b = _spec(seed=8)
        ExperimentEngine(n_jobs=1).run(spec_a, checkpoint=path)
        # A different spec must not be satisfied by spec_a's journal.
        journal = CheckpointJournal(path, spec_b)
        assert journal.load() == {}
        assert spec_fingerprint(spec_a) != spec_fingerprint(spec_b)

    def test_torn_tail_line_tolerated(self, tmp_path):
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        ExperimentEngine(n_jobs=1).run(spec, checkpoint=path)
        with open(path, "a") as fh:
            fh.write('{"index": 99, "truncated')  # simulated crash mid-write
        done = CheckpointJournal(path, spec).load()
        assert sorted(done) == [0, 1]

    def test_failed_points_not_journaled(self, tmp_path):
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        ExperimentEngine(
            n_jobs=1,
            failure_policy=FailurePolicy.degrade_policy(max_attempts=1),
            fault_injector=FaultInjector(fail={0: 99})).run(
                spec, checkpoint=path)
        done = CheckpointJournal(path, spec).load()
        assert sorted(done) == [1]  # the failed slot stays recomputable

    def test_mac_sweep_resumes(self, tmp_path):
        spec = MacExperimentSpec(tag_counts=(4, 8), measured_rounds=4,
                                 simulated_rounds=30, seed=5)
        path = tmp_path / "mac.jsonl"
        clean = ExperimentEngine(n_jobs=1).run(spec)
        ExperimentEngine(n_jobs=1).run(spec, checkpoint=path)
        resumed = ExperimentEngine(n_jobs=1).run(spec, checkpoint=path)
        assert resumed.points == clean.points
        assert all(t.resumed for t in resumed.tasks)


class TestRunMetrics:
    def test_stage_timers_and_counters_exported(self):
        result = ExperimentEngine(n_jobs=1).run(_spec())
        counters = result.metrics["counters"]
        histograms = result.metrics["histograms"]
        assert counters["engine.tasks.ok"] == 2
        assert counters["phy.zigbee.packets"] == 4
        for stage in ("engine.task", "phy.zigbee.rng", "phy.zigbee.channel",
                      "phy.zigbee.decode"):
            hist = histograms[f"{stage}.seconds"]
            assert hist["count"] > 0
            assert hist["sum"] >= hist["max"] > 0

    def test_task_records_serializable(self):
        result = ExperimentEngine(n_jobs=1).run(_spec())
        payload = json.dumps([t.to_dict() for t in result.tasks])
        records = json.loads(payload)
        assert records[0]["status"] == "ok"
        assert records[0]["spawn_key"] == [0]
