"""Pinned traces for the sketch-stream paths that test_trace_parity misses.

Every run in ``tests/test_trace_parity.py`` draws Haar sketches with
ell=3, and all but one stop within 64 steps.  The cases here hash whole
runs, as that file does, for the other two sketch families under
``run_ssd`` and under ``run_vrssd`` with warmup and option "two", for runs
longer than 128 steps, and for seeds that span several 32-bit words
(2**32 + 5 and 2**130 + 1), where the seed-to-stream hashing takes its
longer path.  The digests were recorded with numpy 2.4 and OpenBLAS 0.3.31
on x86-64; another BLAS build may round the Haar QR differently in the
last bit.  CHANGES.md records each re-pin and why it moved.
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
    "ssd-coordinate-s2p130-armijo-forward": "ef654c914390e2c0d7fb3d4352cbd10d90a28585c3b7b24764e8c08f40a3cb89",
    "ssd-coordinate-s2p130-fixed-centered": "fc77dfd0e966e16f1ede79223c687a8a67bb9f35a1b7857343fb607c82f64d3a",
    "ssd-coordinate-s2p32-armijo-forward": "b834d8634e7a3f179f512cde13ff19250df8e76311d4ab03abf71b90c6ff7230",
    "ssd-coordinate-s2p32-fixed-centered": "78f1dc9bbe9b89b8c5f93a1e9e4ec673134aedac2c8b5eddc48b3ce0a985547f",
    "ssd-coordinate-s5-armijo-forward": "181a51523703266547b59546e6e83eb0c1854d3e35f54ee2bf6cdb1d81e17499",
    "ssd-coordinate-s5-fixed-centered": "3a379cb143ee07a025d1682479bde8863d0fdef5de4a88dd95a969821d01b9ca",
    "ssd-gaussian-s2p130-armijo-forward": "3d6cadc0611207a8cdbc6b673e3f7ed416496d37b43fac1c4ab69a5d8884c55b",
    "ssd-gaussian-s2p130-fixed-centered": "ffb4927eb392fe1fbefc3377aeee0f4dfa6d7b4214ba0f68bcc89ad4fe308b10",
    "ssd-gaussian-s2p32-armijo-forward": "f4b33dda125414786a60121dadf0520dac618e2c170ec3ef9bc9f50f9b7d09df",
    "ssd-gaussian-s2p32-fixed-centered": "999c2822b6472f16f303c35da7ca964d74f7e2d953159f307e1a8a38efbf5c3d",
    "ssd-gaussian-s5-armijo-forward": "60b24832648fedcafc4f9b5d863d94d3a17716093d7dfea2d6dded100dd91c32",
    "ssd-gaussian-s5-fixed-centered": "7adc2d7ac4e6b9ebf3dbf62b50f8e5404c6f7167c20141a46311e4168e17878a",
    "ssd-haar-s2p130-armijo-forward": "042ea52663956b2db1b968df9d6668a57f06711ecc6c231122fa093c05c61770",
    "ssd-haar-s2p130-fixed-centered": "694cf63ca11229fb3c9ba05f7601c9c07cbbab3963aaefc69dd732096a694ec5",
    "ssd-haar-s2p32-armijo-forward": "9b7ffc394330b28b73c2bcd2753c281deef37d8db5ca7f068e68f3024a65aaff",
    "ssd-haar-s2p32-fixed-centered": "a929c4875db3e6cdc3d71e31af39fe1ff7385910120fa5b3932f4f71975a8773",
    "ssd-haar-s5-armijo-forward": "f1f4d0fc4e719e4a598bafa6ffa3970bfec6977bce21deeaa0400eaddbb75a79",
    "ssd-haar-s5-fixed-centered": "7494b59e92aaec4faabdeb17e113f8211ed962d0b34cb76f169dd97e3d34d6f0",
    "vrssd-coordinate-s2p130-w3-fixed-forward": "9f531abdfa2503792d44c85824d32e28f413851bf6bbfbaac543dde792004664",
    "vrssd-coordinate-s2p130-w70-theory-exact": "b9b39440329b3da11b1ebe7c8929c825cf5f166865d97c5a09cc651a30b4d708",
    "vrssd-coordinate-s2p32-w3-fixed-forward": "c1c73a80641bf24b5fc3bc45b78e59af4e0051d690f14fe86aee63aae2bf7b2e",
    "vrssd-coordinate-s2p32-w70-theory-exact": "bbb4c60f84be8295e841430218f864d8f1f95b7946fe8957fc6bb71e34f9fbb0",
    "vrssd-coordinate-s5-w3-fixed-forward": "d3cb9b610c8ffb865f6434ef66060f832d17e06c4b26ef6e4531a61a5a76d0e3",
    "vrssd-coordinate-s5-w70-theory-exact": "9413a3821ae6a8d2998c5d1b33fb7b1173c37bc0128085b9b1ab7c13be06088b",
    "vrssd-gaussian-s2p130-w3-fixed-forward": "e2a8c0fde72ef5e493fc3120407af3f2df466fefb1f2ef75fcf67e10a63825e6",
    "vrssd-gaussian-s2p130-w70-theory-exact": "11926e477e16d61e162d07e477c4f927435a625a3553e792897a6b90deafe31d",
    "vrssd-gaussian-s2p32-w3-fixed-forward": "4505d6eb5eaa3d084f8a64551bdf5da8d5314c71e83fa75c158df5dcf85bd31f",
    "vrssd-gaussian-s2p32-w70-theory-exact": "e330b5494f0f1a5f6b8e70f3a14948e33322ce92da3caa88f9a4b09785853614",
    "vrssd-gaussian-s5-w3-fixed-forward": "b2cbed4ef9d4895dcba6d43b90943b63e094b128fe4338580fe538ae30cca329",
    "vrssd-gaussian-s5-w70-theory-exact": "768ad30597780307d2e9937adcdaaad6a7b7989354d107d06065f912d5b639e0",
    "vrssd-haar-s2p130-w3-fixed-forward": "3c26bcfce90a8b30842a5cf67c131ae2635955898d9ac1a5f86cc823acfb870a",
    "vrssd-haar-s2p130-w70-theory-exact": "38336ab8036f2bd0e63db2b0fab2ffc85dceaf01a6b34181a323a0daddb88c36",
    "vrssd-haar-s2p32-w3-fixed-forward": "353ab6632adf57c0d6703b0007b8695ce0ec4216eaf949c9ebeb44f08ed19404",
    "vrssd-haar-s2p32-w70-theory-exact": "f75099176bdb132c9f5b0c8fd51a2fdc17f533bb506ad01e8eb33ee799596ac0",
    "vrssd-haar-s5-w3-fixed-forward": "c40cb0f30322813d41786a83f70ee8bd8a7c286ed0b9ca06ef70ccd5db6703ef",
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
