"""The sweep service: queue + store + engine workers in one process.

:class:`SweepService` glues the persistence layers together into the
"millions of users" shape the ROADMAP asks for — many submitters, one
warm, cache-aware compute tier:

* **Submission** validates the payload through the versioned spec serde
  (:mod:`repro.sim.spec`), computes the spec fingerprint, and either
  answers straight from the :class:`~repro.service.store.ResultStore`
  (``service.cache.hits``; the job is born ``done``/``cached`` and no
  engine task ever runs) or journals a pending job.  Dedup keys on the
  spec fingerprint *only*: observability options riding alongside the
  envelope never fork the cache, so a cache hit explicitly warns when
  it cannot regenerate requested run-scoped artifacts (see
  :meth:`SweepService.submit_record`).
* **Execution** happens on background worker threads that claim jobs
  FIFO and drive the engine through its reusable orchestration layer
  (:func:`repro.sim.engine.execute_run`) with a per-fingerprint
  checkpoint journal, so killing the server mid-job loses nothing: on
  restart the queue journal restores the job and the engine checkpoint
  restores its completed points, and the finished result is
  bit-identical to an uninterrupted run.  Duplicate specs that were
  *queued* together dedup at claim time — the second job finds the
  store already populated and becomes a cache hit without computing.
* **Observability** folds every run's engine metrics (task counters,
  PHY stage and task latency histograms, forensics stage counts) into
  one service-wide :class:`~repro.obs.MetricsRegistry` next to the
  service's own counters (``service.jobs.*``, ``service.cache.*``),
  live queue gauges (``service.queue.<state>``, ``service.queue.depth``,
  ``service.jobs.running``, ``service.job.age_seconds``) and the
  ``service.job.seconds`` histogram, rendered by
  :meth:`SweepService.metrics_text` in Prometheus text exposition for
  the HTTP ``/metrics`` endpoint.  Each running job additionally
  narrates itself into a cursor-addressed progress journal under
  ``progress/`` (:meth:`SweepService.events` serves it) — telemetry
  keyed by job id, never part of result bytes or dedup.

Only completed, fully-ok runs are cached: a failed or degraded run
marks the job ``failed`` and leaves the store untouched, so a later
identical submission retries the computation instead of serving the
failure forever.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs import MetricsRegistry, TraceConfig, prometheus_text
from repro.obs.progress import monotonic_s, read_progress
from repro.service.queue import JobQueue, JobRecord
from repro.service.store import ResultStore
from repro.sim.engine import (
    EngineError,
    ExperimentSpec,
    FailurePolicy,
    MacExperimentSpec,
    RunOptions,
    RunResult,
    Spec,
    execute_run,
    spec_fingerprint,
)

__all__ = ["SweepService", "ServiceError", "UnknownJobError",
           "DEFAULT_POLL_S"]

#: How long an idle worker sleeps between queue polls, seconds.
DEFAULT_POLL_S = 0.05


class ServiceError(RuntimeError):
    """A request that cannot be served (wrong job state, bad payload)."""


class UnknownJobError(ServiceError, KeyError):
    """A job id that is not in the queue."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")


class SweepService:
    """Persistent, restart-surviving sweep runner over one root directory.

    Parameters
    ----------
    root:
        Durable state directory: ``queue.jsonl`` (job journal),
        ``results/`` (content-addressed store), ``checkpoints/``
        (per-fingerprint engine journals).  Reusing a root resumes it.
    n_jobs:
        Engine worker *processes* per job (the engine's ``n_jobs``).
    n_workers:
        Concurrent job worker *threads* (each running one job at a
        time).  One by default: jobs queue, results stay FIFO.
    failure_policy:
        Engine failure policy for every job; ``None`` uses the engine
        default (fail-fast, no retries), which surfaces a failed point
        as a failed job.
    trace:
        Optional :class:`~repro.obs.TraceConfig`; when given, service
        spans (``service.job``) and engine trace events are recorded in
        the service registry.
    """

    def __init__(self, root: Union[str, os.PathLike], n_jobs: int = 1,
                 n_workers: int = 1,
                 failure_policy: Optional[FailurePolicy] = None,
                 trace: Optional[TraceConfig] = None,
                 poll_s: float = DEFAULT_POLL_S) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.store = ResultStore(self.root / "results")
        self.queue = JobQueue(self.root / "queue.jsonl")
        self.checkpoint_dir = self.root / "checkpoints"
        self.n_jobs = int(n_jobs)
        self.n_workers = int(n_workers)
        self.failure_policy = failure_policy
        self.poll_s = float(poll_s)
        self.metrics = MetricsRegistry(trace=trace)  # guarded-by: _metrics_lock
        self._metrics_lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self.progress_dir = self.root / "progress"
        # Monotonic first-seen stamps for active jobs, feeding the
        # service.job.age_seconds gauge.  In-memory only (never
        # persisted): after a restart, ages restart from recovery time.
        self._active_since: Dict[str, float] = {}  # guarded-by: _metrics_lock
        for _ in self.queue.recover():
            self._inc("service.jobs.recovered")
        for job in self.queue.jobs():
            if job.active:
                self._note_active(job.job_id)

    # -- metrics (thread-safe wrappers) ------------------------------------
    # MetricsRegistry is deliberately lock-free (process-local, single
    # writer); the service is the one multi-threaded writer in the
    # repo, so it serializes its own mutations here.

    def _inc(self, name: str, n: int = 1) -> None:
        with self._metrics_lock:
            self.metrics.inc(name, n)

    def counter(self, name: str) -> int:
        with self._metrics_lock:
            return self.metrics.counter(name)

    def _note_active(self, job_id: str) -> None:
        with self._metrics_lock:
            self._active_since.setdefault(job_id, monotonic_s())

    def _note_settled(self, job_id: str) -> None:
        with self._metrics_lock:
            self._active_since.pop(job_id, None)

    def _oldest_age_s(self) -> float:  # reprolint: holds(_metrics_lock)
        if not self._active_since:
            return 0.0
        return monotonic_s() - min(self._active_since.values())

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Service + folded engine metrics as a plain dict.

        Queue state rides in as gauges, synthesized fresh per snapshot:
        ``service.queue.<state>`` per-state counts, ``service.queue.depth``
        (pending jobs), ``service.jobs.running``, and
        ``service.job.age_seconds`` (age of the oldest still-active job,
        0 when idle).
        """
        with self._metrics_lock:
            snap = self.metrics.snapshot()
            age = self._oldest_age_s()
        counts = self.queue.counts()
        gauges = snap.setdefault("gauges", {})
        for state, n in sorted(counts.items()):
            gauges[f"service.queue.{state}"] = float(n)
        gauges["service.queue.depth"] = float(counts.get("pending", 0))
        gauges["service.jobs.running"] = float(counts.get("running", 0))
        gauges["service.job.age_seconds"] = age
        return snap

    def metrics_text(self) -> str:
        """Prometheus text exposition of :meth:`metrics_snapshot`."""
        return prometheus_text(self.metrics_snapshot())

    # -- submission --------------------------------------------------------

    def submit(self, payload: Union[Spec, Mapping[str, Any]]) -> JobRecord:
        """Accept a spec (object, envelope dict, or legacy bare dict).

        Returns the job record: ``done``/``cached`` immediately when the
        store already holds this fingerprint, else ``pending``.
        """
        from repro.sim.spec import dump_spec, load_spec

        if isinstance(payload, (ExperimentSpec, MacExperimentSpec)):
            spec = payload
        else:
            spec = load_spec(payload)
        envelope = dump_spec(spec)
        fingerprint = spec_fingerprint(spec)
        self._inc("service.jobs.submitted")
        job = self.queue.submit(envelope, fingerprint)
        if self.store.has(fingerprint):
            self._inc("service.cache.hits")
            return self.queue.set_state(job.job_id, "done", cached=True)
        self._inc("service.cache.misses")
        self._note_active(job.job_id)
        return job

    def submit_record(self, payload: Union[Spec, Mapping[str, Any]]
                      ) -> Dict[str, Any]:
        """:meth:`submit` plus the explicit cache-hit contract.

        Returns the job dict with a ``cache_hit`` marker.  Dedup keys
        on the spec fingerprint alone — any ``"obs"`` section riding
        alongside the envelope (``{"obs": {"trace": true}, ...}``) is
        *not* part of the cache key, so a cache hit serves the stored
        result without a new engine run and therefore without fresh
        run-scoped observability artifacts.  When that happens the
        response carries a ``warning`` naming the requested artifacts
        that were not regenerated (and ``service.cache.obs_warnings``
        counts it), instead of silently dropping the request.
        """
        requested: List[str] = []
        if isinstance(payload, Mapping):
            raw_obs = payload.get("obs")
            if isinstance(raw_obs, Mapping):
                requested = sorted(str(k) for k, v in raw_obs.items() if v)
        job = self.submit(payload)
        record = job.to_dict()
        record["cache_hit"] = bool(job.cached)
        if job.cached and requested:
            self._inc("service.cache.obs_warnings")
            record["warning"] = (
                "cache hit: the result was served from the store without "
                "a new engine run, so the requested observability "
                f"artifacts ({', '.join(requested)}) were not regenerated; "
                "the stored record still carries the original run's "
                "metrics and forensics")
        return record

    # -- execution ---------------------------------------------------------

    def checkpoint_path(self, fingerprint: str) -> Path:
        return self.checkpoint_dir / f"{fingerprint}.jsonl"

    def progress_path(self, job_id: str) -> Path:
        """Per-job progress journal.  Lives outside ``results/`` and is
        keyed by job id (not fingerprint), so it never participates in
        dedup or bit-identical result serving."""
        return self.progress_dir / f"{job_id}.jsonl"

    def step(self) -> bool:
        """Claim and run at most one pending job; True if one ran.

        The synchronous core of the worker loop, exposed so tests (and
        embedded users) can drive the service deterministically without
        background threads.
        """
        job = self.queue.claim_next()
        if job is None:
            return False
        self._run_job(job)
        return True

    def _run_job(self, job: JobRecord) -> None:
        from repro.sim.spec import load_spec

        if self.store.has(job.fingerprint):
            # A duplicate that was queued before the first copy
            # finished: serve it from the store, run nothing.
            self._inc("service.cache.hits")
            self.queue.set_state(job.job_id, "done", cached=True)
            self._note_settled(job.job_id)
            return
        try:
            spec = load_spec(job.envelope, warn_legacy=False)
            options = RunOptions(
                n_jobs=self.n_jobs, failure_policy=self.failure_policy,
                checkpoint=str(self.checkpoint_path(job.fingerprint)),
                expect_fingerprint=job.fingerprint,
                progress_path=str(self.progress_path(job.job_id)))
            result = execute_run(spec, options)
        except (EngineError, ValueError, OSError) as exc:
            # EngineError: the job's sweep failed (fail-fast task
            # failure, fingerprint mismatch); ValueError: a corrupt
            # journaled envelope; OSError: unwritable state dir.  The
            # failure is recorded on the job itself, never swallowed.
            self._inc("service.jobs.failed")
            self.queue.set_state(job.job_id, "failed",
                                 error=f"{type(exc).__name__}: {exc}")
            self._note_settled(job.job_id)
            return
        with self._metrics_lock:
            self.metrics.merge_snapshot(result.metrics)
            # The job latency histogram rides the run's own measured
            # wall time (no ad-hoc clock reads; obs owns the clock).
            self.metrics.observe("service.job.seconds", result.wall_time_s)
            self.metrics.event("service.job", job=job.job_id,
                               spec=job.fingerprint,
                               dur_s=result.wall_time_s)
        if not result.ok:
            # Degraded run: points are missing, so the result is not
            # cacheable — a later identical submission should recompute.
            self._inc("service.jobs.failed")
            self.queue.set_state(
                job.job_id, "failed",
                error=f"{result.n_failed}/{result.n_tasks} tasks failed "
                      f"({result.failed_tasks[0].error})")
            self._note_settled(job.job_id)
            return
        self.store.put(result)
        self._inc("service.cache.stores")
        self._inc("service.jobs.completed")
        self.queue.set_state(job.job_id, "done")
        self._note_settled(job.job_id)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            if not self.step():
                self._stop.wait(self.poll_s)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SweepService":
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return self
        self._stop.clear()
        for i in range(self.n_workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"sweep-worker-{i}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout_s: float = 30.0) -> None:
        """Stop claiming new jobs and join the workers.

        An in-flight job finishes its current engine run first (its
        points are checkpointed either way, so even a hard kill here
        only costs the tail of the sweep).
        """
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._threads = []

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- reading -----------------------------------------------------------

    def _job(self, job_id: str) -> JobRecord:
        job = self.queue.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """One job's public status, including decode forensics once done.

        The ``stage_counts`` field aggregates the per-task forensic
        stage counters (sync/header/fec/crc/ok) of the stored result.
        """
        job = self._job(job_id)
        payload = job.to_dict()
        if job.state == "done":
            result = self.store.get(job.fingerprint)
            if result is not None:
                stage_counts: Dict[str, int] = {}
                for task in result.tasks:
                    for stage, count in task.stage_counts.items():
                        stage_counts[stage] = \
                            stage_counts.get(stage, 0) + int(count)
                payload["stage_counts"] = stage_counts
                payload["n_tasks"] = result.n_tasks
                payload["n_failed"] = result.n_failed
                payload["packets_simulated"] = result.packets_simulated
        return payload

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job's bare record, oldest first."""
        return [job.to_dict() for job in self.queue.jobs()]

    def events(self, job_id: str, cursor: int = 0) -> Dict[str, Any]:
        """Progress rows for *job_id* with ``seq > cursor``, plus the
        next cursor to poll with.

        The job state is read *before* the journal, so a response
        saying ``done`` is guaranteed to already include the run's
        final rows — a follower can stop on it without losing the tail.
        Stale cursors (past the end) just return no events and echo the
        cursor back; cached jobs never ran, so they have no journal and
        stream nothing.
        """
        job = self._job(job_id)
        state = job.state
        rows = read_progress(str(self.progress_path(job_id)),
                             after=int(cursor))
        next_cursor = max([int(cursor)]
                          + [int(r.get("seq", 0)) for r in rows])
        return {"job_id": job_id, "state": state, "cached": job.cached,
                "cursor": next_cursor, "events": rows}

    def result(self, job_id: str) -> RunResult:
        """The completed result for *job_id*.

        Raises :class:`UnknownJobError` for unknown ids and
        :class:`ServiceError` when the job is not ``done`` yet (or
        failed).
        """
        job = self._job(job_id)
        if job.state != "done":
            raise ServiceError(
                f"job {job_id} is {job.state}"
                + (f": {job.error}" if job.error else ""))
        result = self.store.get(job.fingerprint)
        if result is None:
            raise ServiceError(
                f"job {job_id} is done but its result "
                f"({job.fingerprint}) is missing from the store")
        return result

    def raw_result(self, job_id: str) -> bytes:
        """The stored result record's exact bytes (bit-identical serving)."""
        job = self._job(job_id)
        if job.state != "done":
            raise ServiceError(
                f"job {job_id} is {job.state}"
                + (f": {job.error}" if job.error else ""))
        raw = self.store.raw(job.fingerprint)
        if raw is None:
            raise ServiceError(
                f"job {job_id} is done but its result "
                f"({job.fingerprint}) is missing from the store")
        return raw

    def wait(self, job_id: str, timeout_s: float = 60.0,
             poll_s: Optional[float] = None) -> JobRecord:
        """Block until *job_id* leaves the active states.

        Polling, not event-driven, on purpose: it works identically on
        a restarted service where the job predates this process.
        Raises :class:`TimeoutError` when the budget runs out.
        """
        interval = self.poll_s if poll_s is None else float(poll_s)
        attempts = max(1, int(timeout_s / interval) + 1)
        for _ in range(attempts):
            job = self._job(job_id)
            if not job.active:
                return job
            # Event.wait, not time.sleep: stop() wakes waiters early.
            if self._stop.wait(interval) and not self._threads:
                break
        job = self._job(job_id)
        if job.active:
            raise TimeoutError(
                f"job {job_id} still {job.state} after {timeout_s}s")
        return job
