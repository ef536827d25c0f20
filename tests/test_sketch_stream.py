"""The per-run sketch stream: keys, generator bytes, Haar blocks and
per-run isolation.

A :class:`SketchStream` must hand out, at step k, a generator whose bytes
are those of ``RngStream(seed, outer, k).generator()``.  Its keys come from
a port of numpy's SeedSequence hashing, so they are checked against
SeedSequence itself over seeds of up to five 32-bit words, outer indices
of two words and blocks that start at or cross ``inner = 2**32``.  Its
Haar frames come from blocks factored by one stacked QR, and must be the
bytes of the per-call draw at every step, in any order.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssdopt import RngStream, SsdConfig, VrssdConfig, draw, nesterov_worst, run_ssd, run_vrssd
from ssdopt import sketch as sketch_module
from ssdopt.sketch import BLOCK_FLOATS, KEY_BLOCK, SketchStream, draw_haar, philox_keys

SEEDS = st.integers(0, 2**160)
OUTERS = st.integers(0, 2**40)
STARTS = st.one_of(st.integers(0, 2**20), st.integers(2**32 - 2 * KEY_BLOCK, 2**32 + KEY_BLOCK))


def seed_sequence_key(seed, outer, inner):
    return np.random.SeedSequence(entropy=seed, spawn_key=(outer, inner)).generate_state(
        2, np.uint64
    )


@settings(deadline=None)
@given(SEEDS, OUTERS, STARTS, st.integers(1, KEY_BLOCK))
def test_block_keys_equal_seed_sequence(seed, outer, start, count):
    keys = philox_keys(seed, outer, start, count)
    assert keys.dtype == np.uint64 and keys.shape == (count, 2)
    for i in range(count):
        assert keys[i].tolist() == seed_sequence_key(seed, outer, start + i).tolist()


def test_negative_address_raises_as_seed_sequence_does():
    for args in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError):
            philox_keys(*args, 4)


def both_generators(seed, outer, k):
    """The stream's generator at step k and a fresh RngStream generator."""
    return SketchStream(seed, outer).at(k).generator(), RngStream(seed, outer, k).generator()


@settings(deadline=None)
@given(SEEDS, st.integers(0, 3), STARTS, st.integers(1, 300), st.integers(1, 5))
def test_generator_bytes_equal_rng_stream(seed, outer, k, d, ell):
    ell = min(ell, d)
    a, b = both_generators(seed, outer, k)
    assert a.standard_normal((d, ell)).tobytes() == b.standard_normal((d, ell)).tobytes()
    a, b = both_generators(seed, outer, k)
    assert a.choice(d, ell, replace=False).tolist() == b.choice(d, ell, replace=False).tolist()
    a, b = both_generators(seed, outer, k)
    assert a.integers(1, d + 1, size=3).tolist() == b.integers(1, d + 1, size=3).tolist()


@pytest.mark.parametrize("distribution", ["haar", "coordinate", "gaussian"])
def test_reused_stream_draws_equal_rng_stream_in_any_order(distribution):
    # Steps across three key blocks, then back into the first one: each
    # rekeying starts from a clean state whatever the previous step drew.
    stream = SketchStream(2**64 + 3)
    for k in [0, 1, 63, 64, 65, 150, 2, 64, 2, 0]:
        ours = draw(distribution, 9, 3, stream.at(k)).matrix
        ref = draw(distribution, 9, 3, RngStream(2**64 + 3, 0, k)).matrix
        assert ours.tobytes() == ref.tobytes(), k


# Sequential steps that cross every doubling boundary (1, 3, 7, ..., 127)
# and the float cap, a backward jump, jumps forward and backward inside a
# block, and jumps forward out of it.
BLOCK_STEPS = list(range(0, 140)) + [5, 6, 7, 3, 40, 45, 41, 62, 63, 64, 300, 301, 303, 8]


@pytest.mark.parametrize("d, ell", [(101, 3), (200, 10), (1000, 10), (9, 3)])
def test_block_frames_equal_per_call_draws(d, ell):
    seed = 2**64 + 3
    stream = SketchStream(seed)
    for k in BLOCK_STEPS:
        ours = draw("haar", d, ell, stream.at(k)).matrix
        ref = draw("haar", d, ell, RngStream(seed, 0, k)).matrix
        assert ours.tobytes() == ref.tobytes(), k
        assert not ours.flags.writeable


def test_block_frames_survive_other_draws_from_the_stream():
    # A Gaussian or coordinate draw rekeys the same Philox between two Haar
    # steps of one block; the block is already factored, so nothing moves.
    stream = SketchStream(7)
    for k in BLOCK_STEPS:
        for distribution in ("haar", "gaussian", "coordinate", "haar"):
            ours = draw(distribution, 9, 3, stream.at(k)).matrix
            ref = draw(distribution, 9, 3, RngStream(7, 0, k)).matrix
            assert ours.tobytes() == ref.tobytes(), (k, distribution)


def test_zero_pivot_slice_replays_the_per_call_redraw(monkeypatch):
    # The first fill of step 13 is made to report a zero R diagonal wherever
    # it is factored: as a slice of its block or alone.  The per-call path
    # then redraws from the same generator, and the block must replay that.
    seed, d, ell, bad = 5, 9, 3, 13
    unpatched = {k: draw_haar(d, ell, RngStream(seed, 0, k)).matrix for k in range(32)}
    first_fill = RngStream(seed, 0, bad).generator().standard_normal((d, ell)).tobytes()
    real = sketch_module._signed_qr
    stacked = []

    def degenerate(a, scale):
        hit = [x.tobytes() == first_fill for x in a.reshape(-1, d, ell)]
        stacked.append(a.ndim == 3 and any(hit))
        q, diag = real(a, scale)
        diag = diag.copy().reshape(-1, ell)
        diag[hit, 0] = 0.0
        return q, diag.reshape(a.shape[:-2] + (ell,))

    monkeypatch.setattr(sketch_module, "_signed_qr", degenerate)
    stream = SketchStream(seed)
    frames = {k: draw("haar", d, ell, stream.at(k)).matrix for k in range(32)}
    replayed = draw_haar(d, ell, RngStream(seed, 0, bad)).matrix
    assert any(stacked)
    assert frames[bad].tobytes() == replayed.tobytes()
    assert frames[bad].tobytes() != unpatched[bad].tobytes()
    for k, frame in frames.items():
        assert not frame.flags.writeable
        if k != bad:
            assert frame.tobytes() == unpatched[k].tobytes(), k


def counting_fills(monkeypatch):
    """Counts the generators keyed for a Haar fill and the frames served."""
    counts = {"filled": 0, "served": 0}
    generator, haar = SketchStream.generator, SketchStream.haar

    def keyed(stream):
        counts["filled"] += 1
        return generator(stream)

    def served(stream, d, ell):
        counts["served"] += 1
        return haar(stream, d, ell)

    monkeypatch.setattr(SketchStream, "generator", keyed)
    monkeypatch.setattr(SketchStream, "haar", served)
    return counts


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 9, 33, 64, 65, 130])
def test_a_run_fills_fewer_than_twice_its_steps(max_iters, monkeypatch):
    counts = counting_fills(monkeypatch)
    obj = nesterov_worst(8.0, 6, 16)
    trace = run_ssd(obj, np.zeros(obj.d), SsdConfig(ell=3, max_iters=max_iters, seed=3))
    steps = len(trace.entries) - 1
    assert counts["served"] == steps == max_iters
    assert steps <= counts["filled"] < 2 * steps + 1


@pytest.mark.parametrize("d, ell, frames", [(101, 3, 64), (200, 10, 32), (1000, 10, 6),
                                            (300, 300, 1)])
def test_blocks_hold_at_most_the_float_cap(d, ell, frames, monkeypatch):
    real = sketch_module._signed_qr
    shapes = []

    def recording(a, scale):
        shapes.append(a.shape)
        return real(a, scale)

    monkeypatch.setattr(sketch_module, "_signed_qr", recording)
    stream = SketchStream(1)
    for k in range(2 * frames + 20):
        draw("haar", d, ell, stream.at(k))
    assert max(n for n, _, _ in shapes) == frames
    # A single frame larger than the cap is factored alone.
    assert all(n * d * ell <= max(BLOCK_FLOATS, d * ell) for n, _, _ in shapes)


class TakeTurns:
    """Lets two threads run only in turn, handing over at every keying.

    A thread hands over right after its stream is keyed for a step and
    before that step's slice of a Haar block is filled, so the other run
    keys its own stream, and fills its own block, in the middle of the
    first run's fill.  Had the two runs shared a Philox, the first would
    then fill the rest of its block from the second run's key.
    """

    def __init__(self):
        self.cond = threading.Condition()
        self.holder = 0
        self.done = set()
        self.me = threading.local()
        self.hand_overs = 0

    def _wait(self):
        me = self.me.value
        assert self.cond.wait_for(
            lambda: self.holder == me or 1 - me in self.done, timeout=30
        ), "the other run stopped taking turns"

    def start(self, me):
        self.me.value = me
        with self.cond:
            self._wait()

    def hand_over(self):
        with self.cond:
            self.hand_overs += 1
            self.holder = 1 - self.me.value
            self.cond.notify_all()
            self._wait()

    def finish(self):
        with self.cond:
            self.done.add(self.me.value)
            self.holder = 1 - self.me.value
            self.cond.notify_all()

    def keyed(self, generator):
        turns = self

        def wrapped(stream):
            gen = generator(stream)
            turns.hand_over()
            return gen

        return wrapped


def chain_run(kind, seed):
    obj = nesterov_worst(8.0, 6, 16)
    x0 = np.linspace(-1.0, 1.0, obj.d)
    if kind == "ssd":
        trace = run_ssd(obj, x0, SsdConfig(ell=3, max_iters=150, seed=seed))
    else:
        trace = run_vrssd(obj, x0, VrssdConfig(ell=3, max_iters=150, seed=seed, m=10,
                                               warmup_iters=5, eta_mode="zero"))
    return repr((trace.entries, trace.terminal_status, obj.eval_count))


@pytest.mark.parametrize("kind", ["ssd", "vrssd"])
def test_runs_stepped_in_alternation_keep_their_serial_traces(kind, monkeypatch):
    seeds = (11, 2**40 + 1)
    serial = [chain_run(kind, seed) for seed in seeds]
    turns = TakeTurns()
    monkeypatch.setattr(SketchStream, "generator", turns.keyed(SketchStream.generator))
    results = [None, None]

    def worker(me):
        turns.start(me)
        try:
            results[me] = chain_run(kind, seeds[me])
        finally:
            turns.finish()

    threads = [threading.Thread(target=worker, args=(me,)) for me in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    # Both runs keyed a generator for every frame of their blocks.
    assert turns.hand_overs >= 2 * 150
    assert results == serial
