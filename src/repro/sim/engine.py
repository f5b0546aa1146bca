"""Parallel, deterministic, fault-tolerant experiment engine.

Every evaluation figure re-runs the signal-level PHY chain hundreds of
times; serially that is the dominant wall-clock cost of the repo.  The
engine fans the independent units of work — distance points for link
sweeps (Figures 10-13), tag counts for the MAC experiment (Figure 17) —
out over a ``ProcessPoolExecutor`` while keeping results bit-identical
for any worker count.

Determinism contract
--------------------
The master seed is expanded with ``numpy.random.SeedSequence.spawn``
into one child per task *in task order*, and each task derives every
random draw (fading, payload, scrambler seed, tag bits, noise) from its
own child generator.  Results therefore depend only on
``(spec, task index)`` — never on which worker ran the task, in what
order, or on which attempt it finally succeeded — so ``n_jobs=1`` and
``n_jobs=8`` agree point-for-point, and a retried task reproduces the
exact point an unfailed run would have produced.

Fault tolerance
---------------
Worker exceptions and overrunning tasks no longer lose the sweep.  A
:class:`FailurePolicy` controls what happens instead:

* ``fail_fast`` (default): the first exhausted task aborts the run with
  :class:`TaskFailure` — the historical behaviour, made explicit.
* ``degrade``: the sweep completes; failed tasks yield a ``None`` point
  and a :class:`TaskRecord` carrying status/error/attempts, so failures
  are flagged rather than silently dropped.

Every task runs as part of a *shard* — one :func:`_execute_shard`
call, in-process or on a pool worker — and one dispatcher owns retry,
backoff, requeue and ``fail_fast`` for all of them.  Inline without a
timeout, all pending tasks form one shard (a link sweep stacks packets
across all its points); on the pool, each worker gets one shard of
interleaved tasks whose flushes fit a fixed memory budget; with a
timeout, each task is its own shard.  A multi-task shard that raises is
split into single-task shards at the same attempt.  Each task is
retried up to ``max_attempts`` times with exponential backoff (retries
wait in a ready queue rather than blocking result collection), and
``timeout_s`` bounds one attempt's *execution* time: at most ``n_jobs``
attempts are in flight at once so the deadline never runs against
queue wait, a queued attempt that never started is requeued instead of
timed out, and a genuinely hung worker is abandoned — its pool is
replaced immediately and its process killed at shutdown.  For tests,
:class:`FaultInjector` deterministically fails or delays chosen
``(task, attempt)`` pairs.

Checkpoint / resume
-------------------
``run(spec, checkpoint="sweep.jsonl")`` journals every completed point
to a JSONL file keyed by a spec fingerprint; re-running the same spec
against the same journal recomputes only the missing tasks and returns
points bit-identical to an uninterrupted run (per-task seeding makes
each point independent of which run computed it).

Observability
-------------
Workers time the PHY stages (``phy.<radio>.encode/channel/decode`` via
:mod:`repro.obs`) and the engine folds those snapshots, task
durations, and retry counters into :attr:`RunResult.metrics`.  With
tracing enabled (``trace=TraceConfig(...)`` or ``run(...,
trace_path=...)``) every task also records, in its own registry,
hierarchical spans (``engine.task`` wrapping the PHY work) and sampled
per-packet forensic events; tracing never changes how tasks are
sharded.  The engine re-roots each task's span tree under its own
``engine.run`` span, so the aggregated tree is identical for any
worker count or shard size, and streams every event — including its own
``engine.retry`` / ``engine.requeue`` records — to a JSONL
:class:`~repro.obs.trace.TraceSink` keyed by the spec fingerprint.

Typical use::

    spec = ExperimentSpec(config=WIFI_CONFIG, deployment=Deployment.los(1.0),
                          distances_m=(1, 5, 10, 20), packets_per_point=10,
                          seed=100)
    engine = ExperimentEngine(n_jobs=4,
                              failure_policy=FailurePolicy.degrade_policy())
    result = engine.run(spec, checkpoint="sweep.jsonl")
    result.points          # List[LinkPoint], same for any n_jobs
    result.tasks           # List[TaskRecord]: status/attempts/duration
    result.metrics         # merged counters + stage histograms
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.channel.geometry import Deployment
from repro.channel.pathloss import PathLossModel
from repro.mac.aloha import AlohaConfig
from repro.obs import MetricsRegistry, TraceConfig
from repro.obs.trace import TraceSink
from repro.sim.config import RadioConfig

__all__ = ["ExperimentSpec", "MacExperimentSpec", "RunResult", "TaskRecord",
           "FailurePolicy", "FaultInjector", "InjectedFault", "TaskFailure",
           "FingerprintMismatch", "CheckpointJournal", "spec_fingerprint",
           "RunOptions", "execute_run",
           "ExperimentEngine", "run_experiment", "default_n_jobs"]


# -- deployment (de)serialization ----------------------------------------
# Specs cross process boundaries (pickle) and land in JSON result files
# (to_dict), so the geometry needs a plain-dict form too.

def _pathloss_to_dict(model: PathLossModel) -> Dict[str, Any]:
    return {
        "exponent": model.exponent,
        "pl_d0_db": model.pl_d0_db,
        "walls": [list(w) for w in model.walls],
        "shadowing_sigma_db": model.shadowing_sigma_db,
        "name": model.name,
    }


def _pathloss_from_dict(data: Dict[str, Any]) -> PathLossModel:
    return PathLossModel(
        exponent=data["exponent"],
        pl_d0_db=data["pl_d0_db"],
        walls=tuple(tuple(w) for w in data.get("walls", ())),
        shadowing_sigma_db=data.get("shadowing_sigma_db", 0.0),
        name=data.get("name", "log-distance"),
    )


def _deployment_to_dict(dep: Deployment) -> Dict[str, Any]:
    return {
        "tx_to_tag_m": dep.tx_to_tag_m,
        "tag_to_rx_m": dep.tag_to_rx_m,
        "forward_path": _pathloss_to_dict(dep.forward_path),
        "backscatter_path": _pathloss_to_dict(dep.backscatter_path),
        "name": dep.name,
    }


def _deployment_from_dict(data: Dict[str, Any]) -> Deployment:
    return Deployment(
        tx_to_tag_m=data["tx_to_tag_m"],
        tag_to_rx_m=data["tag_to_rx_m"],
        forward_path=_pathloss_from_dict(data["forward_path"]),
        backscatter_path=_pathloss_from_dict(data["backscatter_path"]),
        name=data.get("name", "deployment"),
    )


# -- specs ----------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one link-level distance sweep."""

    config: RadioConfig
    deployment: Deployment
    distances_m: Tuple[float, ...]
    packets_per_point: int = 20
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "distances_m",
                           tuple(float(d) for d in self.distances_m))
        if not self.distances_m:
            raise ValueError("spec needs at least one distance")
        if self.packets_per_point < 1:
            raise ValueError("packets_per_point must be >= 1")

    @property
    def n_tasks(self) -> int:
        return len(self.distances_m)

    @property
    def n_packets(self) -> int:
        return self.n_tasks * self.packets_per_point

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "link_sweep",
            "config": self.config.to_dict(),
            "deployment": _deployment_to_dict(self.deployment),
            "distances_m": list(self.distances_m),
            "packets_per_point": self.packets_per_point,
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        return cls(
            config=RadioConfig.from_dict(data["config"]),
            deployment=_deployment_from_dict(data["deployment"]),
            distances_m=tuple(data["distances_m"]),
            packets_per_point=data["packets_per_point"],
            seed=data["seed"],
            label=data.get("label", ""),
        )

    def session_key(self) -> str:
        """Cache key for worker-side simulator reuse: everything that
        shapes the session/budget, excluding distances and seed."""
        payload = {"config": self.config.to_dict(),
                   "deployment": _deployment_to_dict(self.deployment),
                   "packets_per_point": self.packets_per_point}
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class MacExperimentSpec:
    """Declarative description of one MAC tag-count sweep."""

    tag_counts: Tuple[int, ...]
    measured_rounds: int = 12
    simulated_rounds: int = 400
    seed: int = 0
    config: Optional[AlohaConfig] = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "tag_counts",
                           tuple(int(n) for n in self.tag_counts))
        if not self.tag_counts:
            raise ValueError("spec needs at least one tag count")

    @property
    def n_tasks(self) -> int:
        return len(self.tag_counts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "mac_sweep",
            "tag_counts": list(self.tag_counts),
            "measured_rounds": self.measured_rounds,
            "simulated_rounds": self.simulated_rounds,
            "seed": self.seed,
            "config": (dataclasses.asdict(self.config)
                       if self.config is not None else None),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MacExperimentSpec":
        cfg = data.get("config")
        return cls(
            tag_counts=tuple(data["tag_counts"]),
            measured_rounds=data["measured_rounds"],
            simulated_rounds=data["simulated_rounds"],
            seed=data["seed"],
            config=AlohaConfig(**cfg) if cfg is not None else None,
            label=data.get("label", ""),
        )


Spec = Union[ExperimentSpec, MacExperimentSpec]


def spec_fingerprint(spec: Spec) -> str:
    """Stable short hash of a spec; keys checkpoints and result caches.

    Stability contract
    ------------------
    The fingerprint is the first 16 hex digits of the SHA-256 of the
    spec's ``to_dict()`` payload serialized as sort-keyed, compact-free
    ``json.dumps`` (default separators).  It is a *persistent* key: the
    checkpoint journal, the trace sink, and the sweep service's
    content-addressed result store all file data under it, so the
    mapping from spec values to fingerprint must never change across
    refactors.  ``tests/sim/test_fingerprint_golden.py`` freezes both
    the serialized JSON and the resulting hash; any change that breaks
    it silently orphans every stored checkpoint and cached result, and
    needs an explicit migration, not a quiet edit.  Adding a *new* spec
    field is only safe if its default round-trips to the same payload
    (i.e. ``to_dict`` omits it or emits the historical value).
    """
    payload = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# -- failure handling ------------------------------------------------------

class EngineError(RuntimeError):
    """Base class for engine-level failures."""


class TaskFailure(EngineError):
    """A task exhausted its attempts under the ``fail_fast`` policy."""


class FingerprintMismatch(EngineError, ValueError):
    """A persisted artifact belongs to a different spec than expected.

    Raised when a checkpoint journal or stored result is opened with an
    explicit ``expect_fingerprint`` that does not match the spec it is
    being used with — resuming one spec's sweep from another spec's
    journal would silently mix incompatible points.  Subclasses
    ``ValueError`` so pre-typed callers that caught the bare error keep
    working.
    """

    def __init__(self, expected: str, actual: str,
                 context: str = "checkpoint") -> None:
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"{context} fingerprint mismatch: expected {expected}, "
            f"got {actual} (the artifact belongs to a different spec)")


class InjectedFault(RuntimeError):
    """Deterministic test fault raised by :class:`FaultInjector`."""


@dataclass(frozen=True)
class FailurePolicy:
    """What the engine does when a task raises or overruns.

    Parameters
    ----------
    mode:
        ``"fail_fast"`` aborts the run on the first exhausted task
        (raising :class:`TaskFailure`); ``"degrade"`` records the
        failure in the task's :class:`TaskRecord`, leaves a ``None``
        point in its slot, and finishes the sweep.
    max_attempts:
        Total tries per task (1 = no retry).  Retries re-use the task's
        seed, so a retry-then-success is bit-identical to a clean run.
    backoff_base_s / backoff_factor / backoff_max_s:
        Sleep ``min(base * factor**(attempt-1), max)`` seconds before
        attempt ``attempt+1``.  ``base=0`` (default) disables sleeping,
        which keeps tests fast and deterministic.
    timeout_s:
        Upper bound on one attempt's *execution* time — queue wait never
        counts, because the engine keeps at most ``n_jobs`` attempts on
        the active pool and requeues (rather than times out) anything
        that never started.  Setting it runs every task as its own
        shard, so each attempt has its own measured duration.  One
        *soft* rule holds at any ``n_jobs``: an attempt that completed
        past the bound is classified ``timeout`` and is not retried (an
        identical deterministic rerun cannot get faster) unless a fault
        injector is present.  The *hard* rule is pool-only, since
        in-process execution cannot be interrupted: a worker still
        running at the deadline is abandoned (attempt classified
        ``timeout``, retried normally), the engine replaces the worker
        pool so the hung process cannot occupy a slot, and kills it at
        pool shutdown.
    """

    mode: str = "fail_fast"
    max_attempts: int = 1
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("fail_fast", "degrade"):
            raise ValueError("mode must be 'fail_fast' or 'degrade'")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    @property
    def fail_fast(self) -> bool:
        return self.mode == "fail_fast"

    def backoff_s(self, attempt: int) -> float:
        """Sleep before the attempt after *attempt* (1-based)."""
        if self.backoff_base_s <= 0:
            return 0.0
        return min(self.backoff_base_s * self.backoff_factor ** (attempt - 1),
                   self.backoff_max_s)

    @classmethod
    def degrade_policy(cls, max_attempts: int = 3,
                       timeout_s: Optional[float] = None,
                       backoff_base_s: float = 0.0) -> "FailurePolicy":
        """A resilient default: retry, then flag-and-continue."""
        return cls(mode="degrade", max_attempts=max_attempts,
                   timeout_s=timeout_s, backoff_base_s=backoff_base_s)


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic fault injection for engine tests.

    ``fail[i] = n`` makes the first *n* attempts of task *i* raise
    :class:`InjectedFault`; ``hang_s[i] = t`` makes attempts of task *i*
    sleep *t* seconds first (the first ``hang_attempts.get(i, 1)``
    attempts).  Keyed by ``(task index, attempt)``, so behaviour is
    identical inline and across worker processes.
    """

    fail: Mapping[int, int] = field(default_factory=dict)
    hang_s: Mapping[int, float] = field(default_factory=dict)
    hang_attempts: Mapping[int, int] = field(default_factory=dict)

    def apply(self, task_index: int, attempt: int) -> None:
        if attempt <= self.fail.get(task_index, 0):
            raise InjectedFault(
                f"injected fault (task {task_index}, attempt {attempt})")
        if task_index in self.hang_s:
            n_hang = self.hang_attempts.get(task_index, 1)
            if attempt <= n_hang:
                time.sleep(self.hang_s[task_index])


# -- results --------------------------------------------------------------

@dataclass
class TaskRecord:
    """Per-task outcome: what ran, how often, how long, and how it ended.

    ``status`` is ``"ok"``, ``"failed"``, or ``"timeout"``; ``resumed``
    marks tasks satisfied from a checkpoint journal (``attempts == 0``).
    """

    index: int
    task: float
    status: str = "ok"
    attempts: int = 1
    duration_s: float = 0.0
    error: Optional[str] = None
    resumed: bool = False
    spawn_key: Tuple[int, ...] = ()
    # Decode-forensics breakdown for this task's packets: stage -> count
    # (see repro.obs.forensics).  Empty for MAC sweeps and failed tasks.
    stage_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "task": self.task,
            "status": self.status,
            "attempts": self.attempts,
            "duration_s": self.duration_s,
            "error": self.error,
            "resumed": self.resumed,
            "spawn_key": list(self.spawn_key),
            "stage_counts": dict(self.stage_counts),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskRecord":
        return cls(
            index=int(data["index"]),
            task=data["task"],
            status=data.get("status", "ok"),
            attempts=int(data.get("attempts", 1)),
            duration_s=float(data.get("duration_s", 0.0)),
            error=data.get("error"),
            resumed=bool(data.get("resumed", False)),
            spawn_key=tuple(data.get("spawn_key", ())),
            stage_counts=dict(data.get("stage_counts") or {}),
        )


class _ProgressTracker:
    """Per-run progress fan-out: counts finished tasks and forwards one
    row per event to the caller's callback (a
    :class:`repro.obs.ProgressJournal` in the service, anything callable
    in tests).

    A broken callback must never kill the run it is narrating: emit
    errors are swallowed and surfaced as the ``engine.progress.errors``
    counter instead.  Rows carry task bookkeeping only — durations and
    stage-count deltas, never wall-clock timestamps — so everything
    deterministic stays deterministic and the journal stays out of
    results and fingerprints.
    """

    def __init__(self, callback: Optional[Callable[[Dict[str, Any]], None]],
                 metrics: "MetricsRegistry", n_tasks: int) -> None:
        self._callback = callback
        self._metrics = metrics
        self.n_tasks = n_tasks
        self.done = 0

    def emit(self, kind: str, **fields: Any) -> None:
        if self._callback is None:
            return
        row: Dict[str, Any] = {"kind": kind}
        row.update(fields)
        try:
            self._callback(row)
        except (OSError, ValueError, TypeError):
            self._metrics.inc("engine.progress.errors")

    def task_done(self, record: "TaskRecord") -> None:
        self.done += 1
        if self._callback is None:
            return
        self.emit("task", index=record.index, task=record.task,
                  status=record.status, attempts=record.attempts,
                  resumed=record.resumed, duration_s=record.duration_s,
                  tasks_done=self.done, n_tasks=self.n_tasks,
                  stage_counts=dict(record.stage_counts))


def _stage_counts_from(snapshot: Optional[Dict[str, Any]]) -> Dict[str, int]:
    """Extract one task's per-stage packet breakdown from its metrics
    snapshot (the ``phy.<radio>.stage.<stage>`` counters)."""
    out: Dict[str, int] = {}
    if not snapshot:
        return out
    for name, value in snapshot.get("counters", {}).items():
        if name.startswith("phy.") and ".stage." in name:
            stage = name.rsplit(".stage.", 1)[1]
            out[stage] = out.get(stage, 0) + int(value)
    return out


@dataclass
class RunResult:
    """Points plus the per-task and timing metadata of the run."""

    spec: Spec
    points: List[Any]
    wall_time_s: float
    n_jobs: int
    n_tasks: int
    packets_simulated: int = 0
    tasks: List[TaskRecord] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def packets_per_second(self) -> float:
        if self.wall_time_s <= 0 or not self.packets_simulated:
            return 0.0
        return self.packets_simulated / self.wall_time_s

    @property
    def failed_tasks(self) -> List[TaskRecord]:
        return [t for t in self.tasks if not t.ok]

    @property
    def n_failed(self) -> int:
        return len(self.failed_tasks)

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "points": [dataclasses.asdict(p) if p is not None else None
                       for p in self.points],
            "tasks": [t.to_dict() for t in self.tasks],
            "metrics": self.metrics,
            "timing": {
                "wall_time_s": self.wall_time_s,
                "n_jobs": self.n_jobs,
                "n_tasks": self.n_tasks,
                "n_failed": self.n_failed,
                "packets_simulated": self.packets_simulated,
                "packets_per_second": self.packets_per_second,
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (or the sweep
        service's stored form).  Round-trips bit-identically through
        default ``json.dumps``/``loads`` — Python serializes floats via
        ``repr``, which is exact, and the NaN BER sentinel survives as
        the bare ``NaN`` token — so a cached result equals the freshly
        computed one point-for-point."""
        from repro.sim.spec import load_spec

        spec = load_spec(data["spec"], warn_legacy=False)
        if isinstance(spec, MacExperimentSpec):
            from repro.sim.macsim import MacExperimentPoint as point_cls
        else:
            from repro.sim.linksim import LinkPoint as point_cls  # type: ignore[no-redef]
        points = [point_cls(**p) if p is not None else None
                  for p in data.get("points", [])]
        timing = data.get("timing", {})
        return cls(
            spec=spec,
            points=points,
            wall_time_s=float(timing.get("wall_time_s", 0.0)),
            n_jobs=int(timing.get("n_jobs", 1)),
            n_tasks=int(timing.get("n_tasks", len(points))),
            packets_simulated=int(timing.get("packets_simulated", 0)),
            tasks=[TaskRecord.from_dict(t) for t in data.get("tasks", [])],
            metrics=dict(data.get("metrics") or {}),
        )

    def to_json(self, **dumps_kwargs) -> str:
        # NaN (the no-data BER sentinel) is not valid strict JSON; emit
        # null instead so any consumer can parse the output.
        def _clean(obj):
            if isinstance(obj, float):
                return None if np.isnan(obj) else obj
            if isinstance(obj, dict):
                return {k: _clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [_clean(v) for v in obj]
            return obj

        return json.dumps(_clean(self.to_dict()), **dumps_kwargs)


# -- checkpoint journal ---------------------------------------------------

class CheckpointJournal:
    """Append-only JSONL journal of completed sweep points.

    Each line records one task outcome under the owning spec's
    fingerprint.  ``load()`` returns the completed points of *this*
    spec only — journals are safe to share across specs, and rows from
    an edited spec are simply ignored.  A torn final line (the process
    died mid-write) is skipped, so resume is crash-safe.

    The first row a spec writes is a *header* carrying its enveloped
    spec (:func:`repro.sim.spec.dump_spec`), so a journal is
    self-describing: tooling can recover which specs produced it
    without the original code.  Opening a journal with an explicit
    *expect_fingerprint* that does not match the spec raises
    :class:`FingerprintMismatch` instead of silently resuming nothing.
    """

    def __init__(self, path: Union[str, os.PathLike], spec: Spec,
                 expect_fingerprint: Optional[str] = None):
        self.path = Path(path)
        self.fingerprint = spec_fingerprint(spec)
        if (expect_fingerprint is not None
                and expect_fingerprint != self.fingerprint):
            raise FingerprintMismatch(expect_fingerprint, self.fingerprint,
                                      context="checkpoint journal")
        self._spec = spec
        self._kind = "mac_sweep" if isinstance(spec, MacExperimentSpec) \
            else "link_sweep"
        self._header_written = False

    def _rows(self) -> List[Dict[str, Any]]:
        """Parse every intact row; torn/non-JSON lines are skipped."""
        rows: List[Dict[str, Any]] = []
        if not self.path.exists():
            return rows
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write from a killed run
            if isinstance(rec, dict):
                rows.append(rec)
        return rows

    def load_entries(self) -> Dict[int, Dict[str, Any]]:
        """Completed raw journal rows for this spec, keyed by task index
        (last write wins, matching :meth:`load`)."""
        entries: Dict[int, Dict[str, Any]] = {}
        for rec in self._rows():
            if (rec.get("spec") != self.fingerprint
                    or rec.get("kind") == "header"
                    or rec.get("status") != "ok"
                    or rec.get("point") is None):
                continue
            entries[int(rec["index"])] = rec
        return entries

    def ensure_header(self) -> None:
        """Append the self-describing header row once per spec."""
        if self._header_written:
            return
        if any(rec.get("kind") == "header"
               and rec.get("spec") == self.fingerprint
               for rec in self._rows()):
            self._header_written = True
            return
        from repro.sim.spec import dump_spec

        self._append_row({"spec": self.fingerprint, "kind": "header",
                          "envelope": dump_spec(self._spec)})
        self._header_written = True

    @staticmethod
    def header_envelopes(path: Union[str, os.PathLike]
                         ) -> Dict[str, Dict[str, Any]]:
        """``{fingerprint: spec envelope}`` for every header in *path*."""
        out: Dict[str, Dict[str, Any]] = {}
        journal_path = Path(path)
        if not journal_path.exists():
            return out
        for line in journal_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write from a killed run
            if (isinstance(rec, dict) and rec.get("kind") == "header"
                    and isinstance(rec.get("envelope"), dict)):
                out[str(rec.get("spec"))] = rec["envelope"]
        return out

    def load(self) -> Dict[int, Any]:
        """Completed ``{task index: point}`` entries for this spec."""
        return {i: self._point_from(rec["point"])
                for i, rec in self.load_entries().items()}

    def append(self, record: TaskRecord, point: Any) -> None:
        self.ensure_header()
        self._append_row({
            "spec": self.fingerprint,
            "index": record.index,
            "task": record.task,
            "status": record.status,
            "attempts": record.attempts,
            "duration_s": record.duration_s,
            "error": record.error,
            "stage_counts": dict(record.stage_counts),
            # json allows the NaN token by default and loads it back as
            # float('nan'), so the BER sentinel survives a round trip.
            "point": dataclasses.asdict(point) if point is not None else None,
        })

    def _append_row(self, rec: Dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
            fh.flush()

    def _point_from(self, data: Dict[str, Any]) -> Any:
        if self._kind == "mac_sweep":
            from repro.sim.macsim import MacExperimentPoint

            return MacExperimentPoint(**data)
        from repro.sim.linksim import LinkPoint

        return LinkPoint(**data)


# -- worker side ----------------------------------------------------------
# Module-level so they pickle under every start method.  Each thread
# keeps a small simulator cache: sessions wire up full PHY chains, which
# is the expensive part of task setup.  The cache is per thread because
# the sweep service runs engines on several threads at once, and neither
# the cache dict nor a simulator's session (its frame LRU included) is
# safe to share between them.

_LOCAL = threading.local()
_SIM_CACHE_MAX = 8

# Noise-arena budget of one flush in a pool shard.  A pool worker holds
# one flush of its shard at a time, so this caps the per-worker working
# set that multi-point shards add: WiFi rows (40 480 samples, 1.24 MiB)
# stack two 10-packet points per flush, while ZigBee and BLE rows stay
# under their 16-packet chunk.  It is a constant, not an option, because
# it trades wall time against the run's peak memory on one host and
# never changes a result.
_POOL_FLUSH_BYTES = 32 << 20


def _simulator_for(spec: ExperimentSpec):
    from repro.sim.linksim import LinkSimulator

    cache: Optional[Dict[str, Any]] = getattr(_LOCAL, "sims", None)
    if cache is None:
        cache = _LOCAL.sims = {}
    key = spec.session_key()
    sim = cache.get(key)
    if sim is None:
        # The seed is irrelevant: engine tasks inject their own per-task
        # generator, so the simulator's internal stream is never drawn.
        sim = LinkSimulator(spec.config, spec.deployment,
                            packets_per_point=spec.packets_per_point,
                            seed=0)
        if len(cache) >= _SIM_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[key] = sim
    return sim


def _run_mac_point(spec: MacExperimentSpec, n_tags: int,
                   seed_seq: np.random.SeedSequence):
    from repro.sim.macsim import MacExperiment

    exp = MacExperiment(config=spec.config,
                        measured_rounds=spec.measured_rounds,
                        simulated_rounds=spec.simulated_rounds)
    return exp.run_point(n_tags, rng=np.random.default_rng(seed_seq))


#: One task of a shard: (task index, task value, spawned seed sequence).
_Unit = Tuple[int, Any, np.random.SeedSequence]


def _execute_shard(spec: Spec, units: Sequence[_Unit], attempt: int,
                   injector: Optional[FaultInjector],
                   trace: Optional[TraceConfig],
                   flush_bytes: Optional[int]):
    """One attempt of a shard of tasks, in-process or in a pool worker.

    Every task gets its own registry (built with the run's *trace*, so
    its ``engine.task`` / ``sim.point`` spans and packet events stay
    its own) and the injector is applied per task.  A link shard is one
    :meth:`~repro.sim.linksim.LinkSimulator.simulate_points` call,
    which stacks packets across the shard's points while each task
    draws from its own spawned generator (*flush_bytes* caps each
    flush's noise arena; see :data:`_POOL_FLUSH_BYTES`); a MAC shard
    loops over its tasks.  Returns ``([(point, task snapshot), ...],
    shard snapshot, wall seconds)``: the shard snapshot holds the
    stacked channel and decode histograms, which belong to no single
    task.
    Any exception aborts the whole shard.
    """
    from repro import obs

    regs = [MetricsRegistry(trace=trace) for _ in units]
    start = time.perf_counter()
    with obs.collect() as shared, ExitStack() as spans:
        for (i, _, _), reg in zip(units, regs):
            spans.enter_context(reg.span("engine.task", task=i,
                                         attempt=attempt))
            if injector is not None:
                injector.apply(i, attempt)
        if isinstance(spec, ExperimentSpec):
            points = _simulator_for(spec).simulate_points(
                [value for (_, value, _) in units],
                rngs=[np.random.default_rng(seq) for (_, _, seq) in units],
                share_excitation=True, registries=regs,
                flush_bytes=flush_bytes)
        else:
            points = []
            for (_, value, seq), reg in zip(units, regs):
                with obs.collect_into(reg):
                    points.append(_run_mac_point(spec, value, seq))
    dur = time.perf_counter() - start
    return ([(point, reg.snapshot()) for point, reg in zip(points, regs)],
            shared.snapshot(), dur)


def _execute_here(*args: Any) -> "Future[Any]":
    """:func:`_execute_shard` run synchronously, as a settled future,
    so the dispatcher collects inline and pooled shards alike."""
    fut: "Future[Any]" = Future()
    try:
        fut.set_result(_execute_shard(*args))
    # Broad by design: the dispatcher classifies whatever the shard
    # raised exactly as it would a pool worker's exception.
    except Exception as exc:
        fut.set_exception(exc)
    return fut


class _WorkerPools:
    """The process pools behind one pooled run.

    At most *workers* attempts ride the current pool, so a submitted
    attempt starts executing (almost) at once and the timeout clock
    runs against execution, never queue wait.  An abandoned (hung)
    worker retires its pool: a fresh pool takes over at once so the
    hung process cannot hold a slot, and the old pool is shut down —
    its processes killed — once nothing else rides it.
    """

    def __init__(self, workers: int, metrics: MetricsRegistry) -> None:
        self._workers = workers
        self._metrics = metrics
        self._load: Dict[ProcessPoolExecutor, int] = {}  # live -> in flight
        self._hung: Dict[ProcessPoolExecutor, int] = {}  # -> abandoned
        self.current = self._new()

    def _new(self) -> ProcessPoolExecutor:
        pool = ProcessPoolExecutor(max_workers=self._workers)
        self._load[pool] = 0
        return pool

    def has_slot(self) -> bool:
        return self._load[self.current] < self._workers

    def submit(self, *args: Any):
        """``(future, pool)`` of a shard attempt on the current pool, or
        ``(None, None)`` when the pool was broken and has been replaced
        (the caller requeues the attempt)."""
        pool = self.current
        try:
            fut = pool.submit(_execute_shard, *args)
        except (RuntimeError, OSError):
            # BrokenProcessPool (a RuntimeError) after a crashed worker,
            # or a dead pipe.
            self._metrics.inc("engine.pool.submit_errors")
            self._retire()
            return None, None
        self._load[pool] += 1
        return fut, pool

    def release(self, pool: ProcessPoolExecutor, hung: bool = False) -> None:
        """One attempt left *pool*; *hung* marks its worker abandoned."""
        self._load[pool] -= 1
        if hung:
            self._hung[pool] = self._hung.get(pool, 0) + 1
            if pool is self.current:
                self._retire()
                return
        if pool is not self.current and self._load[pool] == 0:
            self._shutdown(pool)

    def _retire(self) -> None:
        old = self.current
        self.current = self._new()
        if self._load[old] == 0:
            self._shutdown(old)

    def _shutdown(self, pool: ProcessPoolExecutor) -> None:
        if self._load.pop(pool, None) is None:
            return
        pool.shutdown(wait=False, cancel_futures=True)
        if self._hung.get(pool):
            # ``Future.cancel`` is a no-op on a running future, so an
            # abandoned worker would keep its pool slot — and block
            # interpreter exit — forever.  Kill its processes outright;
            # results of the pool's futures were already collected or
            # discarded.  ``_processes`` is a CPython implementation
            # detail, so degrade to leaking the process if it is absent.
            procs = getattr(pool, "_processes", None) or {}
            for proc in list(procs.values()):
                try:
                    proc.terminate()
                except (OSError, ValueError):
                    # Already dead / handle closed; count it so a leak
                    # shows up in the run's metrics.
                    self._metrics.inc("engine.pool.terminate_errors")

    def close(self) -> None:
        for pool in list(self._load):
            self._shutdown(pool)


# -- the engine -----------------------------------------------------------

def default_n_jobs() -> int:
    """A sensible worker count for this machine (capped to keep the
    fork/IPC overhead of tiny experiments in check)."""
    return max(1, min(8, os.cpu_count() or 1))


class ExperimentEngine:
    """Runs experiment specs, optionally fanned out over processes.

    Parameters
    ----------
    n_jobs:
        Worker processes.  ``1`` executes inline (no pool, no pickling),
        as does a run with a single pending task; ``None`` picks
        :func:`default_n_jobs`.  Any value yields bit-identical results
        thanks to per-task seed spawning.
    failure_policy:
        Retry/abort behaviour; defaults to :class:`FailurePolicy`'s
        ``fail_fast`` with no retries (the historical behaviour).
    fault_injector:
        Deterministic test hook; see :class:`FaultInjector`.
    trace:
        Span/event recording config (see :class:`repro.obs.TraceConfig`);
        ``None`` (default) disables tracing entirely.
    """

    def __init__(self, n_jobs: Optional[int] = 1,
                 failure_policy: Optional[FailurePolicy] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 trace: Optional[TraceConfig] = None):
        if n_jobs is None:
            n_jobs = default_n_jobs()
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self.n_jobs = int(n_jobs)
        self.failure_policy = failure_policy or FailurePolicy()
        self.fault_injector = fault_injector
        self.trace = trace

    def run(self, spec: Spec,
            checkpoint: Optional[Union[str, os.PathLike]] = None,
            trace_path: Optional[Union[str, os.PathLike]] = None,
            expect_fingerprint: Optional[str] = None,
            progress: Optional[Callable[[Dict[str, Any]], None]] = None
            ) -> RunResult:
        """Execute one spec and return its points plus metadata.

        With *checkpoint*, completed points are journaled to (and
        resumed from) the given JSONL path; see
        :class:`CheckpointJournal`.  With *trace_path*, every trace
        event of the run (worker spans, sampled packet forensics,
        engine retry/requeue records) is appended to that JSONL file
        keyed by the spec fingerprint; giving a path with no ``trace``
        config enables tracing with default sampling.  With
        *expect_fingerprint* (a caller that tracked the spec by its
        fingerprint, e.g. a resumed service job), a spec whose
        fingerprint differs raises :class:`FingerprintMismatch` before
        any work runs.  With *progress*, one row per run event — a
        ``run_start`` marker, every finished task (including resumed
        ones), a ``run_end`` marker — is passed to the callback as it
        happens; a raising callback is counted, not fatal.
        """
        if isinstance(spec, ExperimentSpec):
            tasks = spec.distances_m
            packets_per_task = spec.packets_per_point
        elif isinstance(spec, MacExperimentSpec):
            tasks = spec.tag_counts
            packets_per_task = 0
        else:
            raise TypeError(f"unsupported spec type {type(spec).__name__}")

        trace_cfg = self.trace
        if trace_path is not None and trace_cfg is None:
            trace_cfg = TraceConfig()
        fingerprint = spec_fingerprint(spec)
        if (expect_fingerprint is not None
                and expect_fingerprint != fingerprint):
            raise FingerprintMismatch(expect_fingerprint, fingerprint,
                                      context="run")

        children = np.random.SeedSequence(spec.seed).spawn(len(tasks))
        journal = CheckpointJournal(checkpoint, spec) if checkpoint else None
        metrics = MetricsRegistry(trace=trace_cfg)
        points: List[Any] = [None] * len(tasks)
        records: List[Optional[TaskRecord]] = [None] * len(tasks)

        resumed = journal.load_entries() if journal else {}
        for i, entry in resumed.items():
            if not 0 <= i < len(tasks):
                continue
            points[i] = journal._point_from(entry["point"])
            records[i] = TaskRecord(index=i, task=tasks[i], status="ok",
                                    attempts=0, duration_s=0.0, resumed=True,
                                    spawn_key=tuple(children[i].spawn_key),
                                    stage_counts=dict(
                                        entry.get("stage_counts") or {}))
            metrics.inc("engine.tasks.resumed")
        pending = [i for i in range(len(tasks)) if records[i] is None]

        tracker = _ProgressTracker(progress, metrics, len(tasks))
        tracker.emit("run_start", spec=fingerprint, n_tasks=len(tasks),
                     n_resumed=len(tasks) - len(pending),
                     n_jobs=self.n_jobs)
        for i in sorted(set(range(len(tasks))) - set(pending)):
            record = records[i]
            if record is not None:
                tracker.task_done(record)

        start = time.perf_counter()
        try:
            with metrics.span("engine.run", spec=fingerprint,
                              n_tasks=len(tasks), n_jobs=self.n_jobs):
                if pending:
                    self._run_shards(spec, tasks, children, pending,
                                     points, records, journal, metrics,
                                     tracker)
        finally:
            tracker.emit("run_end", spec=fingerprint,
                         tasks_done=tracker.done, n_tasks=len(tasks),
                         ok=all(r is not None and r.ok for r in records))
            # Even an aborted (fail_fast) run leaves its forensics behind.
            if trace_path is not None:
                with TraceSink(os.fspath(trace_path), fingerprint) as sink:
                    sink.write_all(metrics.events)
        wall = time.perf_counter() - start

        task_records = [r for r in records if r is not None]
        simulated = sum(packets_per_task for r in task_records
                        if r.ok and not r.resumed)
        return RunResult(spec=spec, points=points, wall_time_s=wall,
                         n_jobs=self.n_jobs, n_tasks=len(tasks),
                         packets_simulated=simulated,
                         tasks=task_records, metrics=metrics.snapshot())

    # -- shared bookkeeping ----------------------------------------------

    def _finish_task(self, record: TaskRecord, point: Any,
                     snapshot: Optional[Dict[str, Any]],
                     points: List[Any], records: List[Optional[TaskRecord]],
                     journal: Optional[CheckpointJournal],
                     metrics: MetricsRegistry,
                     tracker: Optional[_ProgressTracker] = None) -> None:
        """Record one task's final outcome (after all its attempts)."""
        points[record.index] = point
        records[record.index] = record
        record.stage_counts = _stage_counts_from(snapshot)
        if snapshot:
            # Stamp worker events with their task before folding them in,
            # and re-root worker spans under this run's own span — the
            # aggregated tree is then invariant to the worker count.
            for ev in snapshot.get("events", []):
                ev.setdefault("task", record.index)
        metrics.merge_snapshot(snapshot, span_prefix="engine.run")
        metrics.inc(f"engine.tasks.{record.status}")
        metrics.observe("engine.task.seconds", record.duration_s)
        if journal is not None:
            journal.append(record, point)
        if tracker is not None:
            # Emit before a fail_fast abort below, so followers see the
            # failing task's row, not a silently truncated stream.
            tracker.task_done(record)
        if not record.ok and self.failure_policy.fail_fast:
            raise TaskFailure(
                f"task {record.index} (task value {record.task!r}) "
                f"{record.status} after {record.attempts} attempt(s): "
                f"{record.error}")

    def _classify(self, duration_s: float) -> Tuple[str, Optional[str]]:
        """Post-hoc (soft) timeout check for completed attempts."""
        timeout = self.failure_policy.timeout_s
        if timeout is not None and duration_s > timeout:
            return "timeout", (f"task exceeded timeout_s={timeout} "
                               f"(took {duration_s:.3f}s)")
        return "ok", None

    # -- the dispatcher ---------------------------------------------------

    def _run_shards(self, spec, tasks, children, pending,
                    points, records, journal, metrics, tracker) -> None:
        """Run every pending task as part of a shard of
        :func:`_execute_shard`, under the engine's one retry loop.

        Inline without ``timeout_s``, all pending tasks form one shard,
        so a link sweep stacks packets across all its points.  On the
        pool without ``timeout_s`` there is one shard per worker, the
        pending tasks dealt out in turn (``pending[k::workers]``) so near
        and far points balance; its flushes are capped at
        :data:`_POOL_FLUSH_BYTES` of noise arena, which bounds each
        worker's memory.  With any ``timeout_s`` each task is its own
        shard: per-task deadlines need per-task durations.  A
        multi-task shard that raises is split into single-task shards
        at the same attempt number (``engine.batch.aborted``); per-task
        seeding makes the rerun bit-exact and pins the error on the
        task that raised it.  Retries, backoff, requeues and
        ``fail_fast`` all live here; inline shards run synchronously on
        submission, and only abandoning hung workers is pool-specific.
        """
        policy = self.failure_policy
        pools: Optional[_WorkerPools] = None
        flush_bytes: Optional[int] = None
        workers = min(self.n_jobs, len(pending))
        if workers > 1:
            if isinstance(spec, ExperimentSpec):
                # Build the session before the pool starts its workers:
                # forked workers inherit it warm instead of each
                # building their own (under spawn this only warms ours).
                _simulator_for(spec)
            pools = _WorkerPools(workers, metrics)
            flush_bytes = _POOL_FLUSH_BYTES
        if policy.timeout_s is not None:
            shards = [(i,) for i in pending]
        elif pools is not None:
            shards = [tuple(pending[k::workers]) for k in range(workers)]
        else:
            shards = [tuple(pending)]
        # (shard, attempt, earliest submit time), sorted by shard, so a
        # retry runs before later tasks; backoff is a not-before time
        # rather than a sleep, so collection never stalls behind it.
        ready: List[Tuple[Tuple[int, ...], int, float]] = [
            (shard, 1, 0.0) for shard in shards]
        # future -> (shard, attempt, execution start, pool or None).
        inflight: Dict[Any, Tuple[Tuple[int, ...], int, float,
                                  Optional[ProcessPoolExecutor]]] = {}

        def fail(i: int, attempt: int, status: str, error: Optional[str],
                 dur: float, retry: bool = True) -> None:
            if retry and attempt < policy.max_attempts:
                metrics.inc("engine.retries")
                backoff = policy.backoff_s(attempt)
                metrics.event("engine.retry", task=i, attempt=attempt,
                              status=status, error=error, backoff_s=backoff)
                bisect.insort(ready, ((i,), attempt + 1,
                                      time.perf_counter() + backoff))
                return
            record = TaskRecord(index=i, task=tasks[i], status=status,
                                attempts=attempt, duration_s=dur,
                                error=error,
                                spawn_key=tuple(children[i].spawn_key))
            self._finish_task(record, None, None, points, records,
                              journal, metrics, tracker)

        def submit_due() -> None:
            while ready and (pools.has_slot() if pools is not None
                             else not inflight):
                now = time.perf_counter()
                k = next((k for k, (_, _, due) in enumerate(ready)
                          if due <= now), None)
                if k is None:
                    return
                shard, attempt, _ = ready.pop(k)
                args = (spec, [(i, tasks[i], children[i]) for i in shard],
                        attempt, self.fault_injector, metrics.trace,
                        flush_bytes)
                start = time.perf_counter()
                if pools is None:
                    fut, pool = _execute_here(*args), None
                else:
                    fut, pool = pools.submit(*args)
                    if fut is None:
                        bisect.insort(ready, (shard, attempt, now))
                        continue
                inflight[fut] = (shard, attempt, start, pool)

        def collect(fut) -> None:
            shard, attempt, t0, pool = inflight.pop(fut)
            if pool is not None:
                pools.release(pool)
            try:
                results, shared, dur = fut.result()
            except Exception as exc:
                # Broad by design: surfaces whatever the task raised;
                # its TaskRecord keeps the error verbatim.
                if len(shard) > 1:
                    metrics.inc("engine.batch.aborted")
                    for i in shard:
                        bisect.insort(ready, ((i,), attempt, 0.0))
                    return
                metrics.inc("engine.tasks.raised")
                fail(shard[0], attempt, "failed",
                     f"{type(exc).__name__}: {exc}", time.perf_counter() - t0)
                return
            per_task = dur / len(shard)
            status, error = self._classify(per_task)
            if status != "ok":
                # Soft timeout (timeouts imply single-task shards): an
                # identical deterministic rerun cannot get faster, so
                # only an injector's attempt-dependent delay is retried.
                fail(shard[0], attempt, status, error, per_task,
                     retry=self.fault_injector is not None)
                return
            metrics.merge_snapshot(shared, span_prefix="engine.run")
            if isinstance(spec, ExperimentSpec):
                metrics.inc("engine.batch.points", len(shard))
            for i, (point, snap) in zip(shard, results):
                record = TaskRecord(index=i, task=tasks[i], status="ok",
                                    attempts=attempt, duration_s=per_task,
                                    spawn_key=tuple(children[i].spawn_key))
                self._finish_task(record, point, snap, points, records,
                                  journal, metrics, tracker)

        def expire_overdue() -> None:
            # Only pool futures can still be running here: inline ones
            # are settled on submission.
            now = time.perf_counter()
            for fut, (shard, attempt, t0, pool) in list(inflight.items()):
                ran = now - t0
                if ran < policy.timeout_s:
                    continue
                if fut.cancel():
                    # Never started (queued behind an abandoned worker):
                    # requeue without consuming an attempt — a task that
                    # never ran is not a timeout.
                    del inflight[fut]
                    pools.release(pool)
                    metrics.inc("engine.tasks.requeued")
                    metrics.event("engine.requeue", task=shard[0],
                                  attempt=attempt)
                    bisect.insort(ready, (shard, attempt, now))
                elif not fut.done():
                    # Genuinely executing past its deadline: abandon the
                    # worker (a completed one is collected next round,
                    # and _classify judges its true duration).
                    del inflight[fut]
                    pools.release(pool, hung=True)
                    fail(shard[0], attempt, "timeout",
                         f"attempt exceeded timeout_s={policy.timeout_s} "
                         f"(ran {ran:.3f}s; worker abandoned)", ran)

        try:
            while ready or inflight:
                submit_due()
                now = time.perf_counter()
                # Wake for whichever comes first: a backoff-delayed retry
                # becoming due, or an executing attempt's deadline.
                wakeups = [due for (_, _, due) in ready if due > now]
                if policy.timeout_s is not None:
                    wakeups += [t0 + policy.timeout_s
                                for (_, _, t0, _) in inflight.values()]
                if not inflight:
                    if wakeups:  # only delayed retries remain
                        time.sleep(max(min(wakeups) - now, 0.0))
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=(max(min(wakeups) - now, 0.0) + 0.01
                             if wakeups else None),
                    return_when=FIRST_COMPLETED)
                if not done and policy.timeout_s is not None:
                    expire_overdue()
                for fut in done:
                    collect(fut)
        finally:
            if pools is not None:
                pools.close()


def run_experiment(spec: Spec, n_jobs: Optional[int] = 1,
                   failure_policy: Optional[FailurePolicy] = None,
                   checkpoint: Optional[Union[str, os.PathLike]] = None,
                   trace: Optional[TraceConfig] = None,
                   trace_path: Optional[Union[str, os.PathLike]] = None
                   ) -> RunResult:
    """One-shot convenience wrapper around :class:`ExperimentEngine`."""
    engine = ExperimentEngine(n_jobs=n_jobs, failure_policy=failure_policy,
                              trace=trace)
    return engine.run(spec, checkpoint=checkpoint, trace_path=trace_path)


# -- reusable run orchestration -------------------------------------------
# Everything above executes a spec; *how* it executes (worker count,
# failure policy, tracing, checkpoint/trace destinations) used to live
# scattered across one-shot CLI argument plumbing.  RunOptions reifies
# that bundle as data so every front end — the CLI's run/sweep/mac
# commands and the sweep service's job workers — drives the engine
# through the same orchestration layer.

@dataclass(frozen=True)
class RunOptions:
    """How to execute a spec, independent of which spec.

    Picklable and JSON-friendly on purpose: a sweep service can journal
    the options a job was submitted with and rebuild them on restart.
    """

    n_jobs: Optional[int] = 1
    failure_policy: Optional[FailurePolicy] = None
    trace: Optional[TraceConfig] = None
    checkpoint: Optional[str] = None
    trace_path: Optional[str] = None
    expect_fingerprint: Optional[str] = None
    #: When set, every progress row (run_start / per-task / run_end) is
    #: appended to this cursor-addressed JSONL journal — the live feed
    #: behind the service's ``/jobs/<id>/events`` endpoint.  The journal
    #: is telemetry: never part of results or fingerprints.
    progress_path: Optional[str] = None

    def replace(self, **changes: Any) -> "RunOptions":
        return dataclasses.replace(self, **changes)


def execute_run(spec: Spec, options: Optional[RunOptions] = None,
                fault_injector: Optional[FaultInjector] = None) -> RunResult:
    """Execute *spec* under *options*: the shared entry point behind the
    CLI's one-shot commands and the sweep service's workers."""
    from repro.obs.progress import ProgressJournal

    options = options or RunOptions()
    engine = ExperimentEngine(n_jobs=options.n_jobs,
                              failure_policy=options.failure_policy,
                              fault_injector=fault_injector,
                              trace=options.trace)
    journal: Optional[ProgressJournal] = None
    progress: Optional[Callable[[Dict[str, Any]], None]] = None
    if options.progress_path is not None:
        journal = ProgressJournal(options.progress_path)

        def _emit(row: Dict[str, Any], _journal: ProgressJournal = journal
                  ) -> None:
            _journal.append(row)

        progress = _emit
    try:
        return engine.run(spec, checkpoint=options.checkpoint,
                          trace_path=options.trace_path,
                          expect_fingerprint=options.expect_fingerprint,
                          progress=progress)
    finally:
        if journal is not None:
            journal.close()
