"""The per-flush noise arena and the in-place noise add.

Both replace allocating code (``standard_normal(n)`` twice per packet,
``signals + (s * z_re + 1j * (s * z_im))`` on stacked copies), so each
is checked byte for byte against the allocating form it replaced.
"""

import numpy as np
import pytest

from repro.channel.awgn import NoiseArena, awgn_apply_batch
from repro.core.registry import create_session
from repro.iq.corpus import RADIO_CONFIGS


def _sample_lengths():
    lengths = {}
    for radio, cfg in sorted(RADIO_CONFIGS.items()):
        session = create_session(radio, seed=3, **cfg)
        exc = session.make_excitation(rng=np.random.default_rng(5))
        lengths[radio] = exc.info.total_samples
    return lengths


LENGTHS = _sample_lengths()


@pytest.mark.parametrize("radio", sorted(LENGTHS))
def test_draw_into_row_equals_allocating_draw(radio):
    n = LENGTHS[radio]
    g_ref = np.random.default_rng(0xA7E4A)
    g_out = np.random.default_rng(0xA7E4A)
    arena = NoiseArena(3)
    for _ in range(3):
        ref_re, ref_im = g_ref.standard_normal(n), g_ref.standard_normal(n)
        row = arena.draw(g_out, n)
        z = arena.z(n)[:, row]
        assert z[0].tobytes() == ref_re.tobytes()
        assert z[1].tobytes() == ref_im.tobytes()
        assert g_out.bit_generator.state == g_ref.bit_generator.state


def test_rows_are_consecutive_per_length_and_lazily_allocated():
    gen = np.random.default_rng(1)
    arena = NoiseArena(5)
    assert arena.allocated == 0
    assert [arena.draw(gen, 8) for _ in range(2)] == [0, 1]
    assert arena.allocated == 5
    # A second length gets a block sized to the rows still free.
    assert arena.draw(gen, 4) == 0
    assert arena.noisy(4).shape == (3, 4)
    assert arena.draw(gen, 8) == 2
    assert arena.used == 4 and arena.allocated == 8


def test_full_arena_raises():
    gen = np.random.default_rng(1)
    arena = NoiseArena(2)
    arena.draw(gen, 4)
    arena.draw(gen, 4)
    with pytest.raises(RuntimeError, match="full"):
        arena.draw(gen, 4)
    with pytest.raises(ValueError):
        NoiseArena(0)


def test_channelled_arena_frees_draws_and_closes():
    gen = np.random.default_rng(1)
    arena = NoiseArena(4)
    arena.draw(gen, 6)
    arena.draw(gen, 6)
    arena.channelled(1)
    assert arena.z(6).shape == (2, 4, 6)      # one row still pending
    arena.channelled(1)
    with pytest.raises(KeyError):
        arena.z(6)
    assert arena.noisy(6).shape == (4, 6)     # waveforms stay
    with pytest.raises(RuntimeError, match="full"):
        arena.draw(gen, 6)


def _reference(signals, sigmas, z_re, z_im):
    """The allocating noise add the in-place one replaced."""
    scale = np.asarray(sigmas, dtype=float)[:, None]
    return signals + (scale * z_re + 1j * (scale * z_im))


@pytest.mark.parametrize("sigmas", [
    [0.5, 1e-3, 2.0],
    [0.0, 0.7, np.nan],          # no-noise and non-finite rows
    [np.inf, 0.0, 1.0],
])
def test_apply_batch_equals_allocating_formula(sigmas):
    gen = np.random.default_rng(9)
    signals = gen.standard_normal((3, 50)) + 1j * gen.standard_normal((3, 50))
    # Signed zeros in the signal, where a skipped zero term would show.
    signals[:, :4] = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)]
    z = gen.standard_normal((2, 3, 50))
    noisy = signals.copy()
    with np.errstate(invalid="ignore"):    # inf * 0j terms, as before
        ref = _reference(signals, sigmas, z[0].copy(), z[1].copy())
        out = awgn_apply_batch(noisy, np.array(sigmas), z)
    assert out is noisy
    assert noisy.tobytes() == ref.tobytes()
