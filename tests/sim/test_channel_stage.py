"""The zero-copy channel stage, for every radio.

``channel_packets`` modulates, measures and noises packets in place in
their flush's :class:`~repro.channel.awgn.NoiseArena`, and the decoders
read arena rows without re-stacking them.  These tests pin the stage to
the allocating reference it replaced, byte for byte, and check how big
an arena is and who may still see its memory after a flush.
"""

import dataclasses

import numpy as np
import pytest

from repro.channel.awgn import NoiseArena
from repro.channel.geometry import Deployment
from repro.core.registry import create_session
from repro.iq.corpus import RADIO_CONFIGS
from repro.sim.config import BLE_CONFIG, ZIGBEE_CONFIG
from repro.sim.linksim import LinkSimulator
import repro.sim.linksim as linksim

RADIOS = sorted(RADIO_CONFIGS)
WIFI_RADIOS = ("wifi", "wifi-quaternary")


def _session(radio):
    return create_session(radio, seed=11, **RADIO_CONFIGS[radio])


def _two_excitations(session):
    """Two excitations of different sample lengths: two groups."""
    exc_a = session.make_excitation(rng=np.random.default_rng(31))
    session.payload_bytes += 8
    exc_b = session.make_excitation(rng=np.random.default_rng(32))
    assert exc_a.info.total_samples != exc_b.info.total_samples
    return exc_a, exc_b


def _reference_noisy(session, group, z):
    """The allocating channel of one excitation group: stacked control
    waveforms from the scalar builder, ``abs() ** 2`` power over the
    stack, and ``clean + (s * z_re + 1j * (s * z_im))``."""
    exc = group[0].excitation
    n = exc.info.total_samples
    plan = session.tag.plan_for(exc.info)
    ctrl = np.stack([session.tag.translator.control_waveform(
        d.sent_bits, plan, n) for d in group])
    clean = exc.frame.samples[None, :] * ctrl
    power = np.mean(np.abs(clean) ** 2, axis=1)
    sigmas = np.array([
        float(np.sqrt(float(power[k]) / 10 ** (d.snr_db / 10) / 2))
        for k, d in enumerate(group)])
    z_re = np.stack([z[id(d)][0] for d in group])
    z_im = np.stack([z[id(d)][1] for d in group])
    scale = sigmas[:, None]
    return sigmas, clean + (scale * z_re + 1j * (scale * z_im))


def _mixed_flush(radio):
    """One arena, two excitation groups interleaved, an incident power
    at the envelope detector's threshold and SNRs down to where WiFi's
    sync gate fires."""
    session = _session(radio)
    exc_a, exc_b = _two_excitations(session)
    incident = session.tag.envelope.min_power_dbm()
    snrs = np.linspace(-2.0, 25.0, 24)
    gen = np.random.default_rng(0x5EED)
    arena = NoiseArena(len(snrs))
    draws = [session.predraw_packet(float(snr), rng=gen,
                                    incident_power_dbm=incident,
                                    excitation=(exc_a, exc_b)[i % 2],
                                    arena=arena)
             for i, snr in enumerate(snrs)]
    return session, arena, draws


@pytest.mark.parametrize("radio", RADIOS)
def test_in_place_channel_equals_allocating_reference(radio):
    session, arena, draws = _mixed_flush(radio)
    pending = [d for d in draws if d.result is None]
    envelope_gated = [d for d in draws if d.bits_sent == 0]
    sync_gated = [d for d in draws if d.result is not None and d.bits_sent]
    assert envelope_gated and len(pending) >= 4
    if radio in WIFI_RADIOS:
        assert sync_gated
    z = {id(d): d.arena.z(d.excitation.info.total_samples)[:, d.row].copy()
         for d in pending}

    session.channel_packets(draws)

    for exc in {id(d.excitation): d.excitation for d in pending}.values():
        group = [d for d in pending if d.excitation is exc]
        sigmas, ref = _reference_noisy(session, group, z)
        for k, d in enumerate(group):
            assert d.sigma == sigmas[k]
            assert d.noisy.tobytes() == ref[k].tobytes()
    assert all(d.noisy is None for d in draws if d.result is not None)


@pytest.mark.parametrize("radio", RADIOS)
def test_decoders_read_arena_rows_without_writing(radio, monkeypatch):
    session, arena, draws = _mixed_flush(radio)
    session.channel_packets(draws)
    pending = [d for d in draws if d.result is None]
    before = [d.noisy.copy() for d in pending]
    stacks = []
    original = type(session)._noisy_stack

    def spy(draws):
        stack = original(draws)
        stacks.append(stack)
        return stack

    monkeypatch.setattr(session, "_noisy_stack", spy)
    session.decode_packets(draws)
    assert all(d.noisy.tobytes() == b.tobytes()
               for d, b in zip(pending, before))
    # One decode group per sample length, each a view of its arena rows.
    assert len(stacks) == 2
    for stack in stacks:
        assert np.shares_memory(stack, arena.noisy(stack.shape[1]))


def test_replayed_waveforms_are_stacked_copies():
    session = _session("zigbee")
    exc = session.make_excitation(rng=np.random.default_rng(4))
    draw = session.draw_packet(20.0, rng=np.random.default_rng(5),
                               excitation=exc)
    wave = draw.noisy.copy()
    stack = session._noisy_stack([dataclasses.replace(draw, noisy=wave,
                                                      arena=None)])
    assert not np.shares_memory(stack, wave)
    assert stack[0].tobytes() == wave.tobytes()


def test_second_draw_packet_leaves_first_noisy_unchanged():
    session = _session("bluetooth")
    exc = session.make_excitation(rng=np.random.default_rng(4))
    gen = np.random.default_rng(6)
    first = session.draw_packet(15.0, rng=gen, excitation=exc)
    kept = first.noisy.copy()
    second = session.draw_packet(15.0, rng=gen, excitation=exc)
    assert first.noisy.tobytes() == kept.tobytes()
    assert not np.shares_memory(first.noisy, second.noisy)
    assert first.arena.allocated == second.arena.allocated == 1


class _Recorder:
    """Records every arena a flush creates and every channel/decode
    pass that uses it."""

    def __init__(self, monkeypatch, session):
        self.arenas = []
        self.channel_passes = []   # (arenas of the pass, packets)
        self.decodes = []
        recorder = self

        class RecordingArena(NoiseArena):
            def __init__(self, rows):
                super().__init__(rows)
                recorder.arenas.append(self)

        monkeypatch.setattr(linksim, "NoiseArena", RecordingArena)
        channel = session.channel_packets
        decode = session.decode_packets
        finish = session.finish_packet

        def channel_packets(draws):
            pending = [d for d in draws
                       if d.result is None and d.noisy is None]
            self.channel_passes.append(
                ({id(d.arena): d.arena for d in pending}, len(pending)))
            return channel(draws)

        def decode_packets(draws):
            out = decode(draws)
            self.decodes.extend(out)
            return out

        def finish_packet(draw, decoded):
            out = finish(draw, decoded)
            self.decodes.append(out)
            return out

        monkeypatch.setattr(session, "channel_packets", channel_packets)
        monkeypatch.setattr(session, "decode_packets", decode_packets)
        monkeypatch.setattr(session, "finish_packet", finish_packet)


def _arrays_in(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays_in(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays_in(item)


@pytest.mark.parametrize("config", [ZIGBEE_CONFIG, BLE_CONFIG],
                         ids=["zigbee", "ble"])
def test_flush_arena_has_a_row_per_channelled_draw(config, monkeypatch):
    # Close range: no packet is gated, so every drawn row is used.  With
    # 12 packets per point and 16-packet chunks a flush is two points.
    sim = LinkSimulator(config, Deployment.los(1.0), packets_per_point=12,
                        seed=5)
    rec = _Recorder(monkeypatch, sim.session)
    sim.simulate_points([1.0, 1.5, 2.0, 2.5, 3.0])
    assert [a.rows for a in rec.arenas] == [24, 24, 12]
    assert len(rec.channel_passes) == 3
    for arena, (arenas, packets) in zip(rec.arenas, rec.channel_passes):
        assert list(arenas.values()) == [arena]
        assert arena.allocated == arena.used == packets


def test_one_point_shard_allocates_at_most_its_packets(monkeypatch):
    sim = LinkSimulator(ZIGBEE_CONFIG, Deployment.los(1.0),
                        packets_per_point=10, seed=5)
    rec = _Recorder(monkeypatch, sim.session)
    sim.simulate_points([20.0], rngs=[np.random.default_rng(8)])
    assert len(rec.arenas) == 1
    assert rec.arenas[0].rows == 10
    assert rec.arenas[0].allocated <= 10


def test_gated_points_never_overflow_the_arena(monkeypatch):
    # Past the envelope detector's range most packets are gated, so a
    # flush spans more points than its arena was sized for.
    sim = LinkSimulator(ZIGBEE_CONFIG, Deployment.los(1.0),
                        packets_per_point=5, seed=5)
    rec = _Recorder(monkeypatch, sim.session)
    distances = [1.0, 30.0, 31.0, 32.0, 2.0, 33.0, 34.0, 3.0, 35.0]
    sim.simulate_points(distances)
    for arena in rec.arenas:
        assert arena.used <= arena.rows <= 16 - 1 + 5
    assert sum(p for _, p in rec.channel_passes) == sum(
        a.used for a in rec.arenas)


@pytest.mark.parametrize("config", [ZIGBEE_CONFIG, BLE_CONFIG],
                         ids=["zigbee", "ble"])
def test_no_result_shares_memory_with_an_arena(config, monkeypatch):
    sim = LinkSimulator(config, Deployment.los(1.0), packets_per_point=6,
                        seed=5)
    rec = _Recorder(monkeypatch, sim.session)
    points = sim.simulate_points([1.0, 4.0, 8.0])
    blocks = [a.noisy(n) for a in rec.arenas for n in a._noisy]
    assert blocks
    arrays = list(_arrays_in(rec.decodes)) + list(_arrays_in(points))
    assert arrays
    for arr in arrays:
        for block in blocks:
            assert not np.shares_memory(arr, block)
