"""Pinned traces for the sketch-stream paths that test_trace_parity misses.

Every run in ``tests/test_trace_parity.py`` draws Haar sketches with
ell=3, and all but one stop within 64 steps.  The cases here hash whole
runs, as that file does, for the other two sketch families under
``run_ssd`` and under ``run_vrssd`` with warmup and option "two", for runs
longer than 128 steps, and for seeds that span several 32-bit words
(2**32 + 5 and 2**130 + 1), where the seed-to-stream hashing takes its
longer path.  The digests were recorded with numpy 2.4 and OpenBLAS 0.3.31
on x86-64; another BLAS build may round the Haar QR differently in the
last bit.  The nine ``vrssd-{haar,coordinate,gaussian}-{s5,s2p32,s2p130}-w70-theory-exact``
cases were re-pinned when an option-two restart stopped evaluating f again
at an inner iterate whose value its trace entry already held; their
iterates and values are unchanged, and each run charges 6 fewer
evaluations (201 instead of 207).
"""

import hashlib

import numpy as np
import pytest

from ssdopt import (
    ArmijoStep,
    FdScheme,
    FixedStep,
    SsdConfig,
    TheoreticalStep,
    VrssdConfig,
    nesterov_worst,
    run_ssd,
    run_vrssd,
)

SEEDS = {"s5": 5, "s2p32": 2**32 + 5, "s2p130": 2**130 + 1}
LONG = 200


def _run(kind, **cfg):
    obj = nesterov_worst(8.0, 6, 16)
    x0 = np.linspace(-1.0, 1.0, obj.d)
    if kind == "ssd":
        trace = run_ssd(obj, x0, SsdConfig(**cfg))
    else:
        trace = run_vrssd(obj, x0, VrssdConfig(**cfg))
    return trace, obj.eval_count


def _cases():
    cases = {}
    for dist in ("haar", "coordinate", "gaussian"):
        for tag, seed in SEEDS.items():
            base = dict(ell=3, distribution=dist, seed=seed, max_iters=LONG)
            cases[f"ssd-{dist}-{tag}-fixed-centered"] = (
                "ssd", dict(base, step_rule=FixedStep(0.02), fd=FdScheme("centered")))
            cases[f"ssd-{dist}-{tag}-armijo-forward"] = (
                "ssd", dict(base, step_rule=ArmijoStep()))
            vr = dict(base, option="two", eta_mode="approx")
            cases[f"vrssd-{dist}-{tag}-w3-fixed-forward"] = (
                "vrssd", dict(vr, m=4, warmup_iters=3, step_rule=FixedStep(0.02)))
            # A warmup longer than one 64-step block hands the stream to the
            # epochs in the middle of the second block.
            cases[f"vrssd-{dist}-{tag}-w70-theory-exact"] = (
                "vrssd", dict(vr, m=20, warmup_iters=70, step_rule=TheoreticalStep(),
                              fd=FdScheme("exact")))
    return cases


CASES = _cases()


def digest(name):
    kind, cfg = CASES[name]
    trace, evals = _run(kind, **cfg)
    text = repr((trace.entries, trace.terminal_status, evals))
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    "ssd-coordinate-s2p130-armijo-forward": "e9e422fc2bba0c479296734846f7b5dcffc7a0cf6e2bd6c611990070061bf5a2",
    "ssd-coordinate-s2p130-fixed-centered": "fc77dfd0e966e16f1ede79223c687a8a67bb9f35a1b7857343fb607c82f64d3a",
    "ssd-coordinate-s2p32-armijo-forward": "814afcdafb37cbe496fcc1dcd6b67b0f9137959dc6396b020ee4bfa67dbd5a8c",
    "ssd-coordinate-s2p32-fixed-centered": "78f1dc9bbe9b89b8c5f93a1e9e4ec673134aedac2c8b5eddc48b3ce0a985547f",
    "ssd-coordinate-s5-armijo-forward": "04eb9186b89148e40e8db9c805394118415943358146c60744822e93db4f3ec9",
    "ssd-coordinate-s5-fixed-centered": "3a379cb143ee07a025d1682479bde8863d0fdef5de4a88dd95a969821d01b9ca",
    "ssd-gaussian-s2p130-armijo-forward": "19ed9e4cce8c1a00234f876ab3cee46647dbc64020504afc82ee8dfbd20c3769",
    "ssd-gaussian-s2p130-fixed-centered": "ffb4927eb392fe1fbefc3377aeee0f4dfa6d7b4214ba0f68bcc89ad4fe308b10",
    "ssd-gaussian-s2p32-armijo-forward": "79e2e8dfd10502a592e06b03598ccf56708c9f26b3194f27cdb0f42debdfe29d",
    "ssd-gaussian-s2p32-fixed-centered": "999c2822b6472f16f303c35da7ca964d74f7e2d953159f307e1a8a38efbf5c3d",
    "ssd-gaussian-s5-armijo-forward": "56c47c854903be041d9a7934f7fdc4139efa26bac9154d3fe81c5c753b6b8055",
    "ssd-gaussian-s5-fixed-centered": "7adc2d7ac4e6b9ebf3dbf62b50f8e5404c6f7167c20141a46311e4168e17878a",
    "ssd-haar-s2p130-armijo-forward": "15fed3affd99cd37500c8301d8430f9ff0dd66f18880852de2a354942901a45d",
    "ssd-haar-s2p130-fixed-centered": "694cf63ca11229fb3c9ba05f7601c9c07cbbab3963aaefc69dd732096a694ec5",
    "ssd-haar-s2p32-armijo-forward": "b07be54612f6abf7118709f943f06df477b07975daca039f8eaa5e4f7882bbb8",
    "ssd-haar-s2p32-fixed-centered": "a929c4875db3e6cdc3d71e31af39fe1ff7385910120fa5b3932f4f71975a8773",
    "ssd-haar-s5-armijo-forward": "ce34b774ec7fea5c3e660c29630883d1939f8b03dda1fbee82fb1d834f2fae2e",
    "ssd-haar-s5-fixed-centered": "7494b59e92aaec4faabdeb17e113f8211ed962d0b34cb76f169dd97e3d34d6f0",
    "vrssd-coordinate-s2p130-w3-fixed-forward": "48ca19e7277f7d822217d94b165bfae28a0428c322a0cbd134d0238ce61dbb75",
    "vrssd-coordinate-s2p130-w70-theory-exact": "b9b39440329b3da11b1ebe7c8929c825cf5f166865d97c5a09cc651a30b4d708",
    "vrssd-coordinate-s2p32-w3-fixed-forward": "5098d7ceebd200d63cd9387e62b4dea1fdccaea4274bc818e4247a4df618b983",
    "vrssd-coordinate-s2p32-w70-theory-exact": "bbb4c60f84be8295e841430218f864d8f1f95b7946fe8957fc6bb71e34f9fbb0",
    "vrssd-coordinate-s5-w3-fixed-forward": "313f4b0b85dbb3898763a064559761104cd9359cc6c9e9629ecc551fbcf8371e",
    "vrssd-coordinate-s5-w70-theory-exact": "9413a3821ae6a8d2998c5d1b33fb7b1173c37bc0128085b9b1ab7c13be06088b",
    "vrssd-gaussian-s2p130-w3-fixed-forward": "9b24ef7a48e6db56ca488e013569f8f4c593334d60e4ae56a8d5ee3bc3407447",
    "vrssd-gaussian-s2p130-w70-theory-exact": "11926e477e16d61e162d07e477c4f927435a625a3553e792897a6b90deafe31d",
    "vrssd-gaussian-s2p32-w3-fixed-forward": "7d8f3d83eafef75d7ef16d7e51318e8f5cc3427af6fec9a18d8684b8a71e5cf1",
    "vrssd-gaussian-s2p32-w70-theory-exact": "e330b5494f0f1a5f6b8e70f3a14948e33322ce92da3caa88f9a4b09785853614",
    "vrssd-gaussian-s5-w3-fixed-forward": "54c7ed53e13b28db8ca63b78238810d1dfd4c51665ff29bbee38a8ea2270b457",
    "vrssd-gaussian-s5-w70-theory-exact": "768ad30597780307d2e9937adcdaaad6a7b7989354d107d06065f912d5b639e0",
    "vrssd-haar-s2p130-w3-fixed-forward": "8b0074f89ee3d48b31b12582d31e89ab055467c3bcc99d7e207c74ffda6584ad",
    "vrssd-haar-s2p130-w70-theory-exact": "38336ab8036f2bd0e63db2b0fab2ffc85dceaf01a6b34181a323a0daddb88c36",
    "vrssd-haar-s2p32-w3-fixed-forward": "6390cea15667fe9deaa5cc03c46d7d7fd35df11ee90d4bcd3a1e346364160667",
    "vrssd-haar-s2p32-w70-theory-exact": "f75099176bdb132c9f5b0c8fd51a2fdc17f533bb506ad01e8eb33ee799596ac0",
    "vrssd-haar-s5-w3-fixed-forward": "e7f5354760fb823d199ef284b92c5a6f1841a7d30a7947f17364a3087611dd06",
    "vrssd-haar-s5-w70-theory-exact": "56524a6e77708c027bab4d098285dcb4db3da52d536d7c0af8fb91b716657183",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_is_unchanged(name):
    assert digest(name) == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_is_longer_than_two_blocks_of_64_steps(name):
    kind, cfg = CASES[name]
    trace, _ = _run(kind, **cfg)
    assert trace.terminal_status == "max_iters"
    assert trace.final.iteration == LONG
