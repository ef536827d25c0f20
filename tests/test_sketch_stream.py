"""The per-run sketch stream: keys, generator bytes and per-run isolation.

A :class:`SketchStream` must hand out, at step k, a generator whose bytes
are those of ``RngStream(seed, outer, k).generator()``.  Its keys come from
a port of numpy's SeedSequence hashing, so they are checked against
SeedSequence itself over seeds of up to five 32-bit words, outer indices
of two words and blocks that start at or cross ``inner = 2**32``.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssdopt import RngStream, SsdConfig, VrssdConfig, draw, nesterov_worst, run_ssd, run_vrssd
from ssdopt import ssd as ssd_module, vrssd as vrssd_module
from ssdopt.sketch import KEY_BLOCK, SketchStream, philox_keys

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


class TakeTurns:
    """Lets two threads run only in turn, handing over at every sketch draw.

    A thread hands over right after its stream is keyed for a step and
    before the sketch is filled, so the other run keys its own stream in
    between.  Had the two runs shared a Philox, the first would then fill
    its sketch from the second run's key.
    """

    def __init__(self):
        self.cond = threading.Condition()
        self.holder = 0
        self.done = set()
        self.me = threading.local()

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
            self.holder = 1 - self.me.value
            self.cond.notify_all()
            self._wait()

    def finish(self):
        with self.cond:
            self.done.add(self.me.value)
            self.holder = 1 - self.me.value
            self.cond.notify_all()

    def draw(self, distribution, d, ell, rng):
        turns = self

        class Keyed:
            def generator(self):
                gen = rng.generator()
                turns.hand_over()
                return gen

        return draw(distribution, d, ell, Keyed())


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
    monkeypatch.setattr(ssd_module, "draw", turns.draw)
    monkeypatch.setattr(vrssd_module, "draw", turns.draw)
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
    assert results == serial
