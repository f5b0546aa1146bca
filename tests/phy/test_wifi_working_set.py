"""The WiFi decode working set: blocked kernels and their memory bound.

The batched receiver runs its FFT, soft demap and Viterbi survivor
table over blocks, equalises in place and reads consecutive arena rows
as views.  Each of those is checked bit for bit against the scalar
chain here, at block sizes shrunk so that every boundary case occurs,
and a tracemalloc guard pins what the diet bought: on a 20-row flush no
decode stage grows far past the channel stage.
"""

import tracemalloc

import numpy as np
import pytest

from repro.channel.geometry import Deployment
from repro.phy.wifi import WifiReceiver, WifiTransmitter
from repro.phy.wifi import constellation as constellation_mod
from repro.phy.wifi import ofdm as ofdm_mod
from repro.phy.wifi.constellation import CONSTELLATIONS, Constellation
from repro.phy.wifi.convolutional import ConvolutionalCode
from repro.phy.wifi.ofdm import OfdmModulator, unit_phasors
from repro.sim.config import WIFI_CONFIG
from repro.sim.engine import _POOL_FLUSH_BYTES
from repro.sim.linksim import LinkSimulator


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64).tobytes()


def _python_phasors(raw):
    """The per-element CPython normalisation ``unit_phasors`` replaced."""
    out = np.empty(raw.size, dtype=complex)
    for i, v in enumerate(raw.ravel()):
        p = complex(v)
        out[i] = p / abs(p) if p != 0 else 1.0 + 0j
    return out.reshape(raw.shape)


class TestUnitPhasors:
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.5e-310, 1.0, -3.5,
             1e300, -1e-300, np.inf, -np.inf, np.nan, -np.nan]

    def test_edge_values_match_the_python_loop_bit_for_bit(self):
        re, im = np.meshgrid(self.EDGES, self.EDGES)
        raw = np.empty(re.shape, dtype=complex)
        raw.real, raw.imag = re, im       # keeps signed zeros and NaNs
        assert np.signbit(raw.real).sum() == np.signbit(re).sum()
        with np.errstate(invalid="ignore"):
            assert _bits(unit_phasors(raw)) == _bits(_python_phasors(raw))

    def test_random_phasors_match_the_python_loop(self, rng):
        raw = rng.normal(size=(40, 63)) + 1j * rng.normal(size=(40, 63))
        raw[::7] *= 1e-310                # subnormal moduli
        assert _bits(unit_phasors(raw)) == _bits(_python_phasors(raw))

    def test_scalar_demodulation_uses_the_same_normalisation(self, rng):
        mod = OfdmModulator()
        wave = rng.normal(size=80) + 1j * rng.normal(size=80)
        _, phasor = mod.demodulate_symbol(wave, 5)
        assert isinstance(phasor, complex)
        grid = np.fft.fft(wave[16:]) / np.sqrt(64)
        ref = np.array((1, 1, 1, -1)) * ofdm_mod.PILOT_POLARITY[5]
        pilots = np.array([grid[k % 64] for k in ofdm_mod.PILOT_SUBCARRIERS])
        raw = np.array([np.sum(pilots * np.conj(ref))])
        assert _bits(np.array([phasor])) == _bits(_python_phasors(raw))


class TestBlockedDemodulation:
    @pytest.mark.parametrize("pilot_correction", [False, True])
    def test_symbol_blocks_match_the_scalar_demodulator(
            self, rng, monkeypatch, pilot_correction):
        # Two frames, two symbols per FFT block, seven symbols: the last
        # block is short.
        monkeypatch.setattr(ofdm_mod, "_DEMOD_BLOCK", 4)
        mod = OfdmModulator()
        n_sym = 7
        waves = (rng.normal(size=(2, n_sym * 80 + 3))
                 + 1j * rng.normal(size=(2, n_sym * 80 + 3)))
        data, phasors = mod.demodulate_batch(
            waves, n_sym, first_index=1, pilot_correction=pilot_correction)
        for row in range(2):
            ref, ref_ph = mod.demodulate(waves[row], n_sym, first_index=1,
                                         pilot_correction=pilot_correction)
            assert _bits(data[row]) == _bits(ref)
            assert _bits(phasors[row]) == _bits(np.array(ref_ph))


class TestBlockedSoftDemap:
    @pytest.mark.parametrize("name", sorted(CONSTELLATIONS))
    def test_blocks_match_the_scalar_demapper(self, rng, monkeypatch, name):
        const: Constellation = CONSTELLATIONS[name]
        # A block of 3 (symbol, point) pairs splits BPSK symbols across
        # blocks unevenly and gives the QAMs one symbol per block.
        monkeypatch.setattr(constellation_mod, "_DEMAP_BLOCK", 3)
        syms = rng.normal(size=(3, 11)) + 1j * rng.normal(size=(3, 11))
        syms[1, 4] = complex(np.inf, 0.0)
        syms[2, 9] = complex(np.nan, 1.0)
        nv = np.array([0.1, 1e-15, 2.0])
        with np.errstate(invalid="ignore"):
            out = const.demodulate_soft_batch(syms, nv)
            for row in range(3):
                ref = const.demodulate_soft(syms[row], noise_var=nv[row])
                assert _bits(out[row]) == _bits(ref)


class TestPackedSurvivors:
    K3 = ConvolutionalCode(0o5, 0o7, 3)

    @pytest.mark.parametrize("acs_block", [8, 24, 1 << 16])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_packed_blocks_match_the_scalar_decoder(
            self, rng, monkeypatch, acs_block, rows):
        from repro.phy.wifi import convolutional

        monkeypatch.setattr(convolutional, "_ACS_BLOCK", acs_block)
        for code, length in ((convolutional.CODE_802_11, 58),
                             (self.K3, 37)):
            # n_steps (29 and 19) is a multiple of no block size here,
            # and the K=3 code at one row packs 4 choices per step.
            llr = rng.normal(0.0, 1.5, (rows, length))
            llr[:, 5] = np.nan
            llr[0, 9], llr[-1, 12] = np.inf, -np.inf
            with np.errstate(invalid="ignore"):
                out = code.decode_batch(llr, soft=True)
                ref = np.stack([code.decode(r, soft=True) for r in llr])
            assert out.dtype == np.uint8
            assert np.array_equal(out, ref)


def _same_result(a, b):
    assert (a.header_ok, a.fcs_ok, a.stage, a.psdu) \
        == (b.header_ok, b.fcs_ok, b.stage, b.psdu)
    assert repr(a.evm) == repr(b.evm)
    for name in ("data_field_bits", "equalized_symbols"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.tobytes() == y.tobytes()


class TestReceiverGroups:
    def test_group_on_non_consecutive_rows_matches_scalar(self, rng):
        frame = WifiTransmitter(6.0, seed=0).build(b"\x5a" * 40)
        clean = frame.samples
        waves = np.stack([clean, clean, clean, clean])
        waves = waves + 0.05 * (rng.normal(size=waves.shape)
                                + 1j * rng.normal(size=waves.shape))
        waves[1] = 0.0            # silent: its header fails
        nv = np.full(4, 2.5e-3)
        receiver = WifiReceiver()
        batch = receiver.decode_batch(waves, nv)
        # Rows 0, 2 and 3 decode one header, so their group is gathered.
        assert [r.header_ok for r in batch] == [True, False, True, True]
        for row, res in enumerate(batch):
            _same_result(res, receiver.decode(waves[row],
                                              noise_var=nv[row]))


def test_decode_stages_stay_near_the_channel_stage_on_a_pool_flush():
    """On a 20-row pool flush (two 10-packet WiFi points), OFDM demod and
    soft demap peak no higher than the channel stage, and the Viterbi
    no higher than the channel stage plus its packed survivor table:
    the flush's waveform rows, the equalised symbols the results keep,
    the LLRs and that table are all it must hold at once."""
    from repro.phy.wifi import convolutional

    sim = LinkSimulator(WIFI_CONFIG, Deployment.los(1.0),
                        packets_per_point=10, seed=0)
    session = sim.session
    # Warm the tables and caches the first flush builds.
    sim.simulate_points([1.0], rngs=[np.random.default_rng(1)],
                        share_excitation=True)
    peaks = {}
    steps = {}

    def traced(owner, name, stage):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            out = inner(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
            peaks[stage] = max(peaks.get(stage, 0), peak)
            if stage == "viterbi":
                steps[out.shape[1]] = out.shape[0]
            return out

        return wrapper

    mp = pytest.MonkeyPatch()
    mp.setattr(session, "channel_packets",
               traced(session, "channel_packets", "channel"))
    mp.setattr(OfdmModulator, "demodulate_batch",
               traced(OfdmModulator, "demodulate_batch", "ofdm"))
    mp.setattr(Constellation, "demodulate_soft_batch",
               traced(Constellation, "demodulate_soft_batch", "demap"))
    mp.setattr(ConvolutionalCode, "decode_batch",
               traced(ConvolutionalCode, "decode_batch", "viterbi"))
    tracemalloc.start()
    try:
        points = sim.simulate_points(
            [1.0, 2.0], rngs=[np.random.default_rng(k) for k in (2, 3)],
            share_excitation=True, flush_bytes=_POOL_FLUSH_BYTES)
    finally:
        tracemalloc.stop()
        mp.undo()
    assert [p.delivery_ratio for p in points] == [1.0, 1.0]
    n_steps = max(steps)
    assert steps[n_steps] == 20               # one 20-row data decode
    survivors = n_steps * -(-convolutional.CODE_802_11.n_states * 20 // 8)
    assert peaks["ofdm"] <= peaks["channel"]
    assert peaks["demap"] <= peaks["channel"]
    assert peaks["viterbi"] <= peaks["channel"] + survivors
