"""Engine progress events and task-latency histograms.

The progress stream is telemetry riding alongside the run: rows must
narrate every task (including resumed ones), a raising callback must
never kill the run, and nothing on the stream may leak back into
results or fingerprints.  The ``engine.task.seconds`` histogram must be
worker-count invariant in shape (same buckets, same count) even though
the observed durations themselves are wall-clock.
"""

import pytest

from repro.channel.geometry import Deployment
from repro.obs import DEFAULT_LATENCY_BUCKETS, ProgressJournal, read_progress
from repro.sim.config import ZIGBEE_CONFIG
from repro.sim.engine import (
    ExperimentEngine,
    ExperimentSpec,
    FailurePolicy,
    FaultInjector,
    RunOptions,
    TaskFailure,
    execute_run,
    spec_fingerprint,
)


def _spec(distances=(2.0, 30.0), packets=2, seed=7):
    return ExperimentSpec(config=ZIGBEE_CONFIG.replace(payload_bytes=24),
                          deployment=Deployment.los(1.0),
                          distances_m=distances,
                          packets_per_point=packets, seed=seed)


class TestProgressStream:
    def test_rows_narrate_the_run(self):
        rows = []
        spec = _spec(distances=(2.0, 10.0, 30.0))
        result = ExperimentEngine(n_jobs=1).run(spec, progress=rows.append)
        assert result.ok
        kinds = [r["kind"] for r in rows]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert kinds.count("task") == 3
        start = rows[0]
        assert start["spec"] == spec_fingerprint(spec)
        assert start["n_tasks"] == 3 and start["n_resumed"] == 0
        tasks = [r for r in rows if r["kind"] == "task"]
        assert [r["tasks_done"] for r in tasks] == [1, 2, 3]
        assert all(r["n_tasks"] == 3 for r in tasks)
        assert all(r["status"] == "ok" for r in tasks)
        assert all("stage_counts" in r for r in tasks)
        end = rows[-1]
        assert end["tasks_done"] == 3 and end["ok"] is True

    def test_rows_cover_resumed_tasks(self, tmp_path):
        spec = _spec(distances=(2.0, 10.0, 30.0))
        path = tmp_path / "sweep.jsonl"
        ExperimentEngine(
            n_jobs=1,
            failure_policy=FailurePolicy.degrade_policy(max_attempts=1),
            fault_injector=FaultInjector(fail={2: 99})).run(
                spec, checkpoint=path)
        rows = []
        ExperimentEngine(n_jobs=1).run(spec, checkpoint=path,
                                       progress=rows.append)
        assert rows[0]["n_resumed"] == 2
        tasks = [r for r in rows if r["kind"] == "task"]
        assert [r["resumed"] for r in tasks] == [True, True, False]
        assert [r["tasks_done"] for r in tasks] == [1, 2, 3]

    def test_failing_run_still_closes_the_stream(self):
        rows = []
        with pytest.raises(TaskFailure):
            ExperimentEngine(
                n_jobs=1,
                fault_injector=FaultInjector(fail={0: 99})).run(
                    _spec(), progress=rows.append)
        kinds = [r["kind"] for r in rows]
        assert kinds[-1] == "run_end"
        assert rows[-1]["ok"] is False
        # The failing task's own row made it out before the raise.
        failed = [r for r in rows if r["kind"] == "task"]
        assert failed and failed[-1]["status"] == "failed"

    def test_raising_callback_is_counted_not_fatal(self):
        calls = []

        def bad(row):
            calls.append(row)
            raise ValueError("journal went away")

        result = ExperimentEngine(n_jobs=1).run(_spec(), progress=bad)
        assert result.ok
        assert result.metrics["counters"]["engine.progress.errors"] == \
            len(calls)

    def test_progress_never_reaches_results_or_fingerprint(self):
        rows = []
        spec = _spec()
        with_progress = ExperimentEngine(n_jobs=1).run(spec,
                                                       progress=rows.append)
        without = ExperimentEngine(n_jobs=1).run(spec)
        assert with_progress.points == without.points
        assert spec_fingerprint(with_progress.spec) == spec_fingerprint(spec)


class TestProgressJournalOption:
    def test_execute_run_writes_the_journal(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        result = execute_run(_spec(), RunOptions(n_jobs=1,
                                                 progress_path=path))
        assert result.ok
        rows = read_progress(path)
        assert [r["kind"] for r in rows][0] == "run_start"
        assert rows[-1]["kind"] == "run_end"
        # Cursor-addressed: seq strictly increasing from 1.
        assert [r["seq"] for r in rows] == list(range(1, len(rows) + 1))

    def test_journal_rows_carry_no_wall_clock(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        execute_run(_spec(), RunOptions(n_jobs=1, progress_path=path))
        for row in read_progress(path):
            # elapsed_s / duration_s are durations; absolute stamps
            # (epoch seconds would be ~1.7e9) must never appear.
            for value in row.values():
                if isinstance(value, (int, float)):
                    assert value < 1e6

    def test_resumed_run_continues_the_cursor_space(self, tmp_path):
        spec = _spec(distances=(2.0, 10.0, 30.0))
        checkpoint = str(tmp_path / "sweep.jsonl")
        progress = str(tmp_path / "progress.jsonl")
        options = RunOptions(n_jobs=1, checkpoint=checkpoint,
                             progress_path=progress,
                             failure_policy=FailurePolicy.degrade_policy(
                                 max_attempts=1))
        execute_run(spec, options, FaultInjector(fail={2: 99}))
        first_last = read_progress(progress)[-1]["seq"]
        execute_run(spec, options)
        rows = read_progress(progress, after=first_last)
        assert rows and rows[0]["seq"] == first_last + 1


class TestTaskLatencyHistogram:
    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_histogram_count_matches_tasks(self, n_jobs):
        spec = _spec(distances=(2.0, 10.0, 20.0, 30.0))
        result = ExperimentEngine(n_jobs=n_jobs).run(spec)
        hist = result.metrics["histograms"]["engine.task.seconds"]
        assert hist["count"] == 4
        assert hist["buckets"] == list(DEFAULT_LATENCY_BUCKETS)
        assert sum(hist["counts"]) == hist["count"]

    def test_phy_stage_histograms_mirror_timers(self):
        # Each stage histogram is the only aggregate of its interval,
        # so it carries what the stage timers used to: count, sum, min
        # and max, consistent with its buckets.  (Which stages fire
        # depends on session caching — encode may be skipped on a warm
        # cache — so assert the shape, not a fixed stage list.)
        result = ExperimentEngine(n_jobs=1).run(_spec())
        assert "timers" not in result.metrics
        histograms = result.metrics["histograms"]
        stages = [n for n in histograms if n.startswith("phy.zigbee.")]
        assert "phy.zigbee.decode.seconds" in stages  # decode always runs
        for name in stages:
            hist = histograms[name]
            assert sum(hist["counts"]) == hist["count"] > 0
            assert 0 <= hist["min"] <= hist["sum"] / hist["count"] \
                <= hist["max"] <= hist["sum"]


class TestJournalAppendReturnsSeq:
    def test_progress_journal_is_the_engine_callback(self, tmp_path):
        # The wiring execute_run uses: ProgressJournal.append as the
        # progress callback (via a closure, since append returns seq).
        path = str(tmp_path / "progress.jsonl")
        with ProgressJournal(path) as journal:
            ExperimentEngine(n_jobs=1).run(
                _spec(), progress=lambda row: journal.append(row))
        assert read_progress(path)[0]["kind"] == "run_start"
