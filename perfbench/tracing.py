"""Spans around the public calls of each layer, recorded from outside.

The traced run wraps the functions below where their callers look them
up (a class attribute, or the module global a caller imported), so the
program takes exactly the path it takes untraced: nothing here sets the
engine's ``trace`` option, which would move inline sweeps off their
batched path.  Each span records its name, start, end, parent span and
request id; spans stay in per-thread lists in memory and are written
out when the run ends.  Calls made in other processes (the engine's
pool workers) are not recorded.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Span record fields (a list, mutated in place while the span is open).
NAME, START, END, PARENT, CHILD_S, REQUEST, ITEMS, TAG = range(8)

# Layer of each span name prefix; "bench" is the load generator itself.
LAYERS = (
    "sim.engine", "sim.linksim", "core.session", "channel.awgn",
    "phy.wifi", "phy.zigbee", "phy.ble", "utils.crc", "obs.metrics",
    "service.client", "service.http", "service.service", "service.queue",
    "service.store", "bench",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[str, List[list]]] = []  # guarded-by: _lock
        self._patches: List[Tuple[Any, str, Any]] = []
        self.names = set()

    # -- recording ---------------------------------------------------------

    def _state(self) -> Tuple[List[list], List[int]]:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append((threading.current_thread().name,
                                      local.spans))
        return local.spans, local.stack

    def _open(self, name: str, request: Any, items: int) -> list:
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        if request is None and parent >= 0:
            request = spans[parent][REQUEST]
        rec = [name, 0.0, 0.0, parent, 0.0, request, items, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        spans, stack = self._local.spans, self._local.stack
        stack.pop()
        if rec[PARENT] >= 0:
            spans[rec[PARENT]][CHILD_S] += rec[END] - rec[START]

    @contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[list]:
        self.names.add(name)
        rec = self._open(name, request, 0)
        try:
            yield rec
        finally:
            self._close(rec)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, *,
             request: Optional[Callable[..., Any]] = None,
             items: Optional[Callable[..., int]] = None,
             items_after: Optional[Callable[..., int]] = None,
             tag: Optional[Callable[[Any], Any]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span *name*.

        *request* and *items* read the call's arguments before it runs,
        *items_after* and *tag* read its return value after the span
        closed, so none of them is charged to the span.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            rec = tracer._open(name,
                               request(*args, **kwargs) if request else None,
                               items(*args, **kwargs) if items else 0)
            try:
                ret = original(*args, **kwargs)
            finally:
                tracer._close(rec)
            if items_after is not None:
                rec[ITEMS] = items_after(ret, *args, **kwargs)
            if tag is not None:
                rec[TAG] = tag(ret)
            return ret

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        self.names.add(name)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def threads(self) -> List[Tuple[str, List[list]]]:
        with self._lock:
            return list(self._threads)

    def write_jsonl(self, path: str) -> int:
        """Write every closed span as one JSON line; returns the count."""
        n = 0
        with open(path, "w") as fh:
            for t, (thread, spans) in enumerate(self.threads()):
                for i, rec in enumerate(spans):
                    if rec[END] == 0.0:
                        continue
                    fh.write(json.dumps({
                        "id": f"{t}:{i}", "name": rec[NAME],
                        "start": rec[START] - self._origin,
                        "end": rec[END] - self._origin,
                        "parent": (f"{t}:{rec[PARENT]}"
                                   if rec[PARENT] >= 0 else None),
                        "thread": thread, "request": rec[REQUEST],
                        "items": rec[ITEMS]}, default=str) + "\n")
                    n += 1
        return n


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the workloads exercise."""
    import numpy as np

    import repro.core.session as session
    from repro.obs.metrics import MetricsRegistry
    from repro.phy.ble.receiver import BleReceiver
    from repro.phy.wifi.convolutional import ConvolutionalCode
    from repro.phy.wifi.receiver import WifiReceiver
    from repro.phy.zigbee.receiver import ZigbeeReceiver
    from repro.service.client import ServiceClient
    from repro.service.queue import JobQueue
    from repro.service.service import SweepService
    from repro.service.store import ResultStore
    from repro.sim.engine import (CheckpointJournal, ExperimentEngine,
                                  spec_fingerprint)
    from repro.sim.linksim import LinkSimulator
    from repro.utils.crc import Crc

    def job_id(ret: Any) -> Any:
        return getattr(ret, "job_id", None)

    w = tracer.wrap
    w(ExperimentEngine, "run", "sim.engine.run",
      request=lambda self, spec, *a, **k: spec_fingerprint(spec))
    w(CheckpointJournal, "append", "sim.engine.journal")
    w(LinkSimulator, "simulate_points", "sim.linksim.simulate")
    w(LinkSimulator, "simulate_point", "sim.linksim.simulate")
    mixin = session._BatchPacketMixin
    w(mixin, "predraw_packet", "core.session.predraw")
    w(mixin, "channel_packets", "core.session.channel",
      items=lambda self, draws: sum(
          1 for d in draws if d.result is None and d.noisy is None))
    w(mixin, "decode_packets", "core.session.decode",
      items=lambda self, draws: sum(1 for d in draws if d.result is None))
    for cls in (session.WifiBackscatterSession,
                session.ZigbeeBackscatterSession,
                session.BleBackscatterSession):
        w(cls, "make_excitation", "core.session.excitation")
    w(session, "awgn_apply_batch", "channel.awgn.apply")
    w(WifiReceiver, "decode_batch", "phy.wifi.rx")
    w(ConvolutionalCode, "decode_batch", "phy.wifi.viterbi",
      items=lambda self, received, *a, **k: int(
          np.atleast_2d(np.asarray(received)).shape[0]))
    w(ZigbeeReceiver, "decode_batch", "phy.zigbee.rx")
    w(BleReceiver, "decode_bits_batch", "phy.ble.rx")
    w(Crc, "compute", "utils.crc",
      items=lambda self, data, *a, **k: len(data))
    w(MetricsRegistry, "merge_snapshot", "obs.metrics.merge")
    w(ServiceClient, "submit", "service.client.submit")
    w(ServiceClient, "status", "service.client.status")
    w(ServiceClient, "fetch_record", "service.client.fetch")
    # Its self time is the client's sleep between status polls.
    w(ServiceClient, "wait", "service.client.wait")
    w(SweepService, "submit_record", "service.service.submit",
      tag=lambda ret: bool(ret.get("cache_hit")))
    w(SweepService, "status", "service.service.status",
      request=lambda self, jid: jid)
    w(SweepService, "raw_result", "service.service.result",
      request=lambda self, jid: jid)
    w(SweepService, "step", "service.service.step", tag=bool)
    w(JobQueue, "submit", "service.queue.submit", tag=job_id)
    w(JobQueue, "set_state", "service.queue.set_state")
    w(JobQueue, "claim_next", "service.queue.claim", tag=job_id)
    w(ResultStore, "put", "service.store.put",
      items_after=lambda fp, self, *a, **k: self.path_for(fp).stat().st_size)
    w(ResultStore, "raw", "service.store.raw",
      items_after=lambda raw, *a, **k: len(raw) if raw else 0)


# What the item count of a span counts, where it counts something.
ITEM_UNITS = {
    "core.session.decode": "packets", "core.session.channel": "packets",
    "phy.wifi.viterbi": "rows", "utils.crc": "bytes",
    "service.store.put": "bytes", "service.store.raw": "bytes",
}


def summarize(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``<span>.calls/busy_s/self_s`` for every span name wrapped or
    opened (zero when never called), ``<span>.<item unit>`` where
    :data:`ITEM_UNITS` names one,
    ``layer.<layer>.self_s`` per layer, and the derived service
    numbers: HTTP overhead (client round trips minus handler time),
    mean queue wait of a claimed job, idle worker steps.
    """
    calls: Dict[str, int] = defaultdict(int)
    items: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    submitted: Dict[str, float] = {}
    claimed: Dict[str, float] = {}
    idle_steps = 0
    hits = 0
    for _, spans in tracer.threads():
        for rec in list(spans):
            if rec[END] == 0.0:
                continue  # still open when the window closed
            name, dur = rec[NAME], rec[END] - rec[START]
            calls[name] += 1
            items[name] += int(rec[ITEMS])
            busy[name] += dur
            self_s[name] += dur - rec[CHILD_S]
            if name == "service.queue.submit":
                submitted[rec[TAG]] = rec[END]
            elif name == "service.queue.claim" and rec[TAG] is not None:
                claimed[rec[TAG]] = rec[END]
            elif name == "service.service.step" and rec[TAG] is False:
                idle_steps += 1
            elif name == "service.service.submit" and rec[TAG]:
                hits += 1

    out: Dict[str, float] = {}
    for name in sorted(tracer.names):
        out[f"{name}.calls"] = calls[name]
        if name in ITEM_UNITS:
            out[f"{name}.{ITEM_UNITS[name]}"] = items[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_s[name]
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[layer_of(name)] += value
    handler = sum(busy[f"service.service.{op}"]
                  for op in ("submit", "status", "result"))
    client = sum(busy[f"service.client.{op}"]
                 for op in ("submit", "status", "fetch"))
    layer_self["service.http"] = client - handler if client else 0.0
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = value
    out["service.http.overhead_s"] = layer_self["service.http"]
    waits = [claimed[j] - submitted[j] for j in claimed if j in submitted]
    out["service.service.queue_wait_s"] = (sum(waits) / len(waits)
                                           if waits else 0.0)
    out["service.service.idle_steps"] = idle_steps
    submits = calls["service.service.submit"]
    out["service.service.cache_hit_ratio"] = hits / submits if submits else 0.0
    return out


def load_self_s(tracer: Tracer) -> float:
    """Summed self time of every span on the load-generating threads
    (those whose root spans are the benchmark's own ``bench.*``)."""
    total = 0.0
    for _, spans in tracer.threads():
        if not any(rec[PARENT] < 0 and rec[NAME].startswith("bench.")
                   for rec in spans):
            continue
        total += sum(rec[END] - rec[START] - rec[CHILD_S]
                     for rec in spans if rec[END] != 0.0)
    return total
