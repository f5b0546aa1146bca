"""Each timed interval is recorded exactly once, in one histogram.

The instrumented sites are counted independently (by wrapping the
methods that hold the ``obs.timed`` blocks) and compared with the
histogram counts a run leaves in its snapshot.
"""

import numpy as np

from repro.channel.geometry import Deployment
from repro.core import session as session_mod
from repro.core.session import WifiBackscatterSession
from repro.obs import collect
from repro.sim.config import ZIGBEE_CONFIG
from repro.sim.engine import ExperimentEngine, ExperimentSpec


class _Calls:
    """Counts calls of one method, optionally only those a predicate
    (seeing the arguments and the return value) accepts."""

    def __init__(self, monkeypatch, owner, name, before=None, after=None):
        self.n = 0
        original = getattr(owner, name)

        def wrapper(obj, *args, **kwargs):
            hit = before is None or before(obj, *args, **kwargs)
            out = original(obj, *args, **kwargs)
            if hit and (after is None or after(out)):
                self.n += 1
            return out

        monkeypatch.setattr(owner, name, wrapper)


def _has_pending(_session, draws):
    return any(d.result is None and d.noisy is None for d in draws)


def _site_counters(monkeypatch, session_cls):
    mixin = session_mod._BatchPacketMixin
    return {
        "encode": _Calls(monkeypatch, session_mod._FrameCache,
                         "get_or_build",
                         before=lambda cache, key, build:
                         key not in cache._entries),
        "rng": _Calls(monkeypatch, mixin, "predraw_packet",
                      after=lambda draw: draw.result is None),
        "channel": _Calls(monkeypatch, mixin, "channel_packets",
                          before=_has_pending),
        "decode": _Calls(monkeypatch, session_cls, "_decode_batch"),
        "decode_scalar": _Calls(monkeypatch, session_cls, "_decode_scalar"),
    }


class TestSweepRecordsEachIntervalOnce:
    def test_zigbee_sweep_histograms_match_site_calls(self, monkeypatch):
        calls = _site_counters(monkeypatch,
                               session_mod.ZigbeeBackscatterSession)
        spec = ExperimentSpec(config=ZIGBEE_CONFIG,
                              deployment=Deployment.los(1.0),
                              distances_m=(2.0, 20.0, 60.0),
                              packets_per_point=8, seed=23)
        result = ExperimentEngine(n_jobs=1).run(spec)
        assert "timers" not in result.metrics
        hist = result.metrics["histograms"]
        expected = {
            "engine.task.seconds": spec.n_tasks,
            "phy.zigbee.encode.seconds": calls["encode"].n,
            "phy.zigbee.rng.seconds": calls["rng"].n,
            "phy.zigbee.channel.seconds": calls["channel"].n,
            "phy.zigbee.decode.seconds": (calls["decode"].n
                                          + calls["decode_scalar"].n),
        }
        # A site that never ran has no histogram at all.
        assert {name: h["count"] for name, h in hist.items()} == \
            {name: n for name, n in expected.items() if n}
        assert calls["rng"].n > 0 and calls["channel"].n > 0


class TestRngPhaseSplit:
    def test_rng_per_packet_channel_per_stack(self, monkeypatch):
        calls = _site_counters(monkeypatch, WifiBackscatterSession)
        session = WifiBackscatterSession(payload_bytes=24, seed=4)
        session._chunk_packets = 4
        # Far below the sync threshold a packet is gated before its
        # noise draw; the middle chunk is all gated, so its
        # channel_packets call has nothing pending.
        high, low = 25.0, -40.0
        snrs = [high, low, high, low, low, low, low, low,
                high, high, high, low]
        with collect() as reg:
            session.run_packets(snrs, rng=np.random.default_rng(9))
        rng = reg.histogram("phy.wifi.rng.seconds")
        channel = reg.histogram("phy.wifi.channel.seconds")
        # One draw per packet that passed the gate (the five at high
        # SNR), one channel pass per chunk with pending draws.
        assert rng.count == calls["rng"].n == 5
        assert channel.count == calls["channel"].n == 2
