"""Random projection matrices with E[P P^T] = I.

The orthogonal families (``haar`` and ``coordinate``) additionally satisfy
P^T P = (d/ell) I exactly for every draw; the ``gaussian`` family satisfies
both identities only in expectation.

Randomness is addressed rather than consumed: consumers derive a
:class:`RngStream` from a ``(seed, outer, inner)`` triple and the same triple
always yields the same matrix, independent of what was drawn elsewhere.
Channel conventions used across the package:

* outer 0: per-iteration sketches, inner = global step index,
* outer 1: epoch-level draws (anchor selection), inner = epoch index,
* outer 2: initial-point sampling in experiments,
* outer 3: synthetic problem instances built by the CLI.

A solver run draws its step sketches from one :class:`SketchStream` rather
than building ``RngStream(seed, 0, k).generator()`` afresh at every step;
building a ``SeedSequence``, a ``Philox`` and a ``Generator`` per step cost
more than the draw itself at the sizes used here.  The stream owns one
Philox and one Generator.  At step k it sets the Philox key to the key
``SeedSequence(entropy=seed, spawn_key=(0, k))`` would give it, with the
counter zeroed and the buffer empty, which is exactly the state
``Philox(SeedSequence(...))`` starts in, so every sketch is the byte-for-byte
sketch of ``RngStream(seed, 0, k)``.  The keys come from
:func:`philox_keys`, a port of SeedSequence's hashing that derives them for
:data:`KEY_BLOCK` consecutive steps in one vectorized pass.  The stream is
mutable state: each run builds its own, and no stream is ever shared
between runs or threads.

The Haar frame comes from a thin QR factorization that calls the two
LAPACK gufuncs behind :func:`numpy.linalg.qr` (``qr_r_raw``, then
``qr_reduced``) directly, under the same floating-point error state.  A
step spends only a few objective evaluations, so the per-call checks,
casts and the discarded upper triangle of ``np.linalg.qr`` cost more than
the factorization at the sizes used here; the frame and the R diagonal
are bit-for-bit those of ``np.linalg.qr``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import ConfigurationError

SKETCH_CHANNEL = 0
EPOCH_CHANNEL = 1
X0_CHANNEL = 2
PROBLEM_CHANNEL = 3

DISTRIBUTIONS = ("haar", "coordinate", "gaussian")


@dataclass(frozen=True)
class RngStream:
    """Counter-addressed source of reproducible generators."""

    seed: int
    outer: int = 0
    inner: int = 0

    def at(self, outer: Optional[int] = None, inner: Optional[int] = None) -> "RngStream":
        return RngStream(
            self.seed,
            self.outer if outer is None else outer,
            self.inner if inner is None else inner,
        )

    def generator(self) -> np.random.Generator:
        # Philox is counter-based, so streams at distinct (outer, inner)
        # addresses are independent regardless of draw order elsewhere.
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.outer, self.inner))
        return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
KEY_BLOCK = 64


def _words(n: int) -> list:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence splits it."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix(x, y):
    r = (x * _MIX_L - y * _MIX_R) & _MASK32
    return r ^ (r >> 16)


def philox_keys(seed: int, outer: int, start: int, count: int) -> np.ndarray:
    """Philox keys of the streams ``(seed, outer, start + i)``, i < count.

    Row i equals ``SeedSequence(entropy=seed, spawn_key=(outer, start + i))
    .generate_state(2, np.uint64)``.  The entropy SeedSequence hashes is the
    seed's words (zero-padded to the pool size), the outer words, then one
    word for the inner index; only that last word varies over the block, so
    the seed and outer words are hashed once as Python ints and the last
    word as a uint64 array held to 32 bits.  A block that reaches
    ``inner >= 2**32``, where the inner index takes two words, is derived by
    SeedSequence itself.
    """
    seed, outer = operator.index(seed), operator.index(outer)
    if min(seed, outer, start) < 0 or start + count > 2**32:
        # SeedSequence also raises for a negative seed or address.
        return np.array([
            np.random.SeedSequence(entropy=seed, spawn_key=(outer, i)).generate_state(2, np.uint64)
            for i in range(start, start + count)
        ], dtype=np.uint64).reshape(count, 2)
    run = _words(seed)
    entropy = run + [0] * (_POOL - len(run)) + _words(outer)
    h = [_INIT_A]

    def hashmix(v):
        c = h[0]
        h[0] = c * _MULT_A & _MASK32
        v = (v ^ c) * h[0] & _MASK32
        return v ^ (v >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(w))
    inner = np.arange(start, start + count, dtype=np.uint64)
    words = [_mix(pool[dst], hashmix(inner)) for dst in range(_POOL)]
    # generate_state(2, np.uint64): four output words, one per pool word.
    c = _INIT_B
    for i in range(_POOL):
        c_next = c * _MULT_B & _MASK32
        v = (words[i] ^ c) * c_next & _MASK32
        words[i] = v ^ (v >> 16)
        c = c_next
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = words[0] | (words[1] << 32)
    keys[:, 1] = words[2] | (words[3] << 32)
    return keys


class SketchStream:
    """One run's sketch generators, all from one reused Philox.

    ``at(k)`` addresses step k and returns the stream itself, which
    :func:`draw` takes in place of ``RngStream(seed, outer, k)``.  Its
    ``generator()`` sets the Philox key to that stream's key with the
    counter zeroed and the buffer empty, the state ``Philox(SeedSequence)``
    starts in, so it yields the same bytes.  The returned generator is the
    same object every time and is only valid until the next call, so a
    stream belongs to one run and is never shared between runs or threads.
    """

    def __init__(self, seed: int, outer: int = SKETCH_CHANNEL):
        self.seed, self.outer, self.inner = seed, outer, 0
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._start, self._keys = 0, []
        self._key_state = {"counter": (0, 0, 0, 0), "key": None}
        self._state = {"bit_generator": "Philox", "state": self._key_state,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def at(self, inner: int) -> "SketchStream":
        self.inner = inner
        return self

    def generator(self) -> np.random.Generator:
        j = self.inner - self._start
        if not 0 <= j < len(self._keys):
            self._start = self.inner - self.inner % KEY_BLOCK
            self._keys = philox_keys(self.seed, self.outer, self._start, KEY_BLOCK).tolist()
            j = self.inner - self._start
        self._key_state["key"] = self._keys[j]
        self._bitgen.state = self._state
        return self._gen


@dataclass(frozen=True)
class Sketch:
    """A d x ell projection matrix tagged with the family that drew it."""

    matrix: np.ndarray
    d: int
    ell: int
    distribution: str

    def apply(self, w) -> np.ndarray:
        """P @ w for an ell-vector w."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.ell,):
            raise ConfigurationError(
                f"apply expects shape ({self.ell},), got {w.shape}"
            )
        return self.matrix @ w

    def apply_transpose(self, v) -> np.ndarray:
        """P^T @ v for a d-vector v."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.d,):
            raise ConfigurationError(
                f"apply_transpose expects shape ({self.d},), got {v.shape}"
            )
        return self.matrix.T @ v


def _check_ell(d: int, ell: int) -> None:
    """The sketch size rule every ell and d pair in the package obeys."""
    if not 1 <= ell <= d:
        raise ConfigurationError(f"need 1 <= ell <= d, got ell={ell}, d={d}")


def _check_dims(d: int, ell: int) -> None:
    if d < 1:
        raise ConfigurationError(f"dimension must be positive, got {d}")
    _check_ell(d, ell)


def orthonormal_signed(x: np.ndarray):
    """Thin QR of ``x`` (stacked inputs fine) with a fixed sign convention.

    Columns are flipped so the diagonal of R is nonnegative, removing the
    sign ambiguity LAPACK leaves in Q; a zero pivot keeps the +1 sign.
    With Gaussian input the result is uniform over orthonormal ell-frames.
    Returns the frame and the (pre-flip) R diagonal for degeneracy checks.
    """
    a = np.array(x, dtype=float)
    with np.errstate(call=_qr_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        # qr_r_raw leaves R in the upper triangle of ``a``.
        q = _umath_linalg.qr_reduced(a, _umath_linalg.qr_r_raw(a))
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    q *= np.where(diag < 0, -1.0, 1.0)[..., None, :]
    return q, diag


def _qr_failed(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


def draw_haar(d: int, ell: int, rng: RngStream) -> Sketch:
    """Uniformly random orthonormal ell-frame, scaled by sqrt(d/ell)."""
    _check_dims(d, ell)
    gen = rng.generator()
    while True:
        q, diag = orthonormal_signed(gen.standard_normal((d, ell)))
        # A zero pivot means a degenerate Gaussian fill (probability zero).
        if (diag != 0.0).all():
            break
    q *= np.sqrt(d / ell)
    return Sketch(q, d, ell, "haar")


def sample_haar(d: int, ell: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` scaled Haar frames as one (size, d, ell) array.

    Vectorized counterpart of :func:`draw_haar` for Monte-Carlo diagnostics;
    both paths share :func:`orthonormal_signed`, so they apply the identical
    map to the Gaussian fill.
    """
    _check_dims(d, ell)
    q, diag = orthonormal_signed(gen.standard_normal((size, d, ell)))
    bad = np.any(diag == 0.0, axis=-1)
    while np.any(bad):
        fresh, fresh_diag = orthonormal_signed(
            gen.standard_normal((int(bad.sum()), d, ell))
        )
        q[bad] = fresh
        diag = diag.copy()
        diag[bad] = fresh_diag
        bad = np.any(diag == 0.0, axis=-1)
    return np.sqrt(d / ell) * q


def draw_coordinate_block(d: int, ell: int, rng: RngStream) -> Sketch:
    """Columns sqrt(d/ell) e_i at ell distinct random coordinates."""
    _check_dims(d, ell)
    idx = rng.generator().choice(d, size=ell, replace=False)
    m = np.zeros((d, ell))
    m[idx, np.arange(ell)] = np.sqrt(d / ell)
    return Sketch(m, d, ell, "coordinate")


def draw_gaussian(d: int, ell: int, rng: RngStream) -> Sketch:
    """iid N(0, 1/ell) entries; unbiased but not orthogonal per draw."""
    _check_dims(d, ell)
    m = rng.generator().standard_normal((d, ell)) / np.sqrt(ell)
    return Sketch(m, d, ell, "gaussian")


def sample_gaussian(d: int, ell: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` Gaussian sketches as one (size, d, ell) array."""
    _check_dims(d, ell)
    return gen.standard_normal((size, d, ell)) / np.sqrt(ell)


_DRAWERS = {
    "haar": draw_haar,
    "coordinate": draw_coordinate_block,
    "gaussian": draw_gaussian,
}


def _drawer(distribution: str):
    """The draw function of the named family."""
    try:
        return _DRAWERS[distribution]
    except KeyError:
        raise ConfigurationError(
            f"unknown sketch distribution {distribution!r}; expected one of {DISTRIBUTIONS}"
        ) from None


def draw(distribution: str, d: int, ell: int, rng: RngStream) -> Sketch:
    """Dispatch to the named family."""
    return _drawer(distribution)(d, ell, rng)
