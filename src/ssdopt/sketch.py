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
sketch of ``RngStream(seed, 0, k)``.  The keys come from a port of
SeedSequence's hashing (:func:`philox_keys`) that hashes the stream's seed
and outer words once and derives the keys of :data:`KEY_BLOCK` consecutive
steps in one vectorized pass.

A step's sketch depends only on the seed and the step index, so the stream
draws Haar frames for several steps at once.  It fills one ``(n, d, ell)``
block, slice i from the generator keyed for step k + i, and factors it with
one stacked QR, which LAPACK computes slice by slice exactly as it would
each slice alone.  n starts at 1, at a run's start and after any jump out
of the block, and doubles while the steps run on, up to :data:`KEY_BLOCK`
frames and :data:`BLOCK_FLOATS` floats: a run that stops early draws fewer
than twice its steps, and memory stays bounded at any d.  A slice with a
zero pivot is redrawn by the per-call :func:`draw_haar` at its own address,
which replays that step's redraw.  The frames are read-only views into the
block.  Gaussian and coordinate sketches have no factorization to share and
stay one draw per step.  The stream is mutable state: each run builds
its own, and no stream is ever shared between runs or threads.

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
# The most floats one block of Haar frames holds (512 KiB).
BLOCK_FLOATS = 2**16


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


def _constants(c: int, mult: int) -> np.ndarray:
    """The hash constants ``(c, c * mult)`` that pool words 0, 1, 2, 3 meet
    in turn from constant ``c``, as columns."""
    rows = []
    for _ in range(_POOL):
        rows.append((c, c * mult & _MASK32))
        c = rows[-1][1]
    return np.array(rows, dtype=np.uint64)[:, :, None]


# generate_state's constants, the same for every seed.
_OUTPUT_C = _constants(_INIT_B, _MULT_B)


def _hashmix(v, c):
    """SeedSequence's hashmix of word ``v`` under hash constant ``c``: the
    mixed value and the next constant."""
    c_next = c * _MULT_A & _MASK32
    v = (v ^ c) * c_next & _MASK32
    return v ^ (v >> 16), c_next


class _AddressHash:
    """SeedSequence's hashing of the addresses ``(seed, outer, inner)`` for
    one seed and outer index.

    The entropy SeedSequence hashes is the seed's words (zero-padded to the
    pool size), the outer words, then one word for the inner index.  Only
    that last word varies over a block, so the seed and outer words are
    hashed once, when the hash is made, and :meth:`keys` hashes the inner
    words of a block as a uint64 array held to 32 bits.
    """

    def __init__(self, seed: int, outer: int):
        self.seed, self.outer = operator.index(seed), operator.index(outer)
        self._pool = None
        if min(self.seed, self.outer) < 0:
            return  # SeedSequence raises for these, in keys()
        run = _words(self.seed)
        entropy = run + [0] * (_POOL - len(run)) + _words(self.outer)
        c, pool = _INIT_A, []
        for w in entropy[:_POOL]:
            w, c = _hashmix(w, c)
            pool.append(w)
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    w, c = _hashmix(pool[src], c)
                    pool[dst] = _mix(pool[dst], w)
        for w in entropy[_POOL:]:
            for dst in range(_POOL):
                v, c = _hashmix(w, c)
                pool[dst] = _mix(pool[dst], v)
        self._pool = np.array(pool, dtype=np.uint64)[:, None]
        # The inner word is hashed into each pool word in turn.
        self._inner_c = _constants(c, _MULT_A)

    def keys(self, start: int, count: int) -> np.ndarray:
        """Philox keys of the streams ``(seed, outer, start + i)``, i < count.

        A block that reaches ``inner >= 2**32``, where the inner index
        takes two words, is derived by SeedSequence itself.
        """
        if self._pool is None or start < 0 or start + count > 2**32:
            # SeedSequence also raises for a negative seed or address.
            return np.array([
                np.random.SeedSequence(entropy=self.seed, spawn_key=(self.outer, i))
                .generate_state(2, np.uint64)
                for i in range(start, start + count)
            ], dtype=np.uint64).reshape(count, 2)
        inner = np.arange(start, start + count, dtype=np.uint64)
        v = (inner ^ self._inner_c[:, 0]) * self._inner_c[:, 1] & _MASK32
        words = _mix(self._pool, v ^ (v >> 16))
        # generate_state(2, np.uint64): four output words, one per pool word.
        v = (words ^ _OUTPUT_C[:, 0]) * _OUTPUT_C[:, 1] & _MASK32
        words = v ^ (v >> 16)
        keys = np.empty((count, 2), dtype=np.uint64)
        keys[:, 0] = words[0] | (words[1] << 32)
        keys[:, 1] = words[2] | (words[3] << 32)
        return keys


def philox_keys(seed: int, outer: int, start: int, count: int) -> np.ndarray:
    """Philox keys of the streams ``(seed, outer, start + i)``, i < count.

    Row i equals ``SeedSequence(entropy=seed, spawn_key=(outer, start + i))
    .generate_state(2, np.uint64)``; see :class:`_AddressHash`, which a
    :class:`SketchStream` keeps so that it hashes its seed and outer words
    once.
    """
    return _AddressHash(seed, outer).keys(start, count)


class SketchStream:
    """One run's sketch generators, all from one reused Philox.

    ``at(k)`` addresses step k and returns the stream itself, which
    :func:`draw` takes in place of ``RngStream(seed, outer, k)``.  Its
    ``generator()`` sets the Philox key to that stream's key with the
    counter zeroed and the buffer empty, the state ``Philox(SeedSequence)``
    starts in, so it yields the same bytes.  The returned generator is the
    same object every time and is only valid until the next call, so a
    stream belongs to one run and is never shared between runs or threads.

    :meth:`haar` serves step k's Haar frame from the current block, and
    fills a new block when k lies outside it or the shape differs: slice i
    is the first fill :func:`draw_haar` takes for step k + i, from
    ``generator()`` keyed for that step, and one stacked :func:`_signed_qr`
    factors the block.  The block holds n frames, where n doubles from 1
    while the steps run on from the block's end and falls back to 1 after a
    jump, up to :data:`KEY_BLOCK` frames and :data:`BLOCK_FLOATS` floats
    (one frame at least).  A slice whose R diagonal has a zero is replaced
    by ``draw_haar(d, ell, RngStream(seed, outer, k + i))``, which replays
    that step's redraw.  Frames are read-only views into a block no other
    call writes to.
    """

    def __init__(self, seed: int, outer: int = SKETCH_CHANNEL):
        self.seed, self.outer, self.inner = seed, outer, 0
        self._hash = None  # made with the first key block
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._start, self._keys = 0, []
        self._key_state = {"counter": (0, 0, 0, 0), "key": None}
        self._state = {"bit_generator": "Philox", "state": self._key_state,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
        # The Haar block: its first step and its read-only frames.
        self._frames_start, self._frames = 0, np.empty((0, 0, 0))

    def at(self, inner: int) -> "SketchStream":
        self.inner = inner
        return self

    def generator(self) -> np.random.Generator:
        j = self.inner - self._start
        if not 0 <= j < len(self._keys):
            self._start = self.inner - self.inner % KEY_BLOCK
            if self._hash is None:
                self._hash = _AddressHash(self.seed, self.outer)
            self._keys = self._hash.keys(self._start, KEY_BLOCK).tolist()
            j = self.inner - self._start
        self._key_state["key"] = self._keys[j]
        self._bitgen.state = self._state
        return self._gen

    def haar(self, d: int, ell: int) -> np.ndarray:
        """The current step's scaled Haar frame, a read-only view."""
        frames, k = self._frames, self.inner
        j = k - self._frames_start
        if not 0 <= j < len(frames) or frames.shape[1:] != (d, ell):
            # The block doubles while the steps run on from its end.
            runs_on = j == len(frames) and frames.shape[1:] == (d, ell)
            frames, j = self._fill_haar(d, ell, k, 2 * len(frames) if runs_on else 1), 0
        return frames[j]

    def _fill_haar(self, d: int, ell: int, k: int, n: int) -> np.ndarray:
        """Factor the block of at most n frames from step k on."""
        n = min(n, KEY_BLOCK, max(1, BLOCK_FLOATS // (d * ell)))
        fill = np.empty((n, d, ell))
        for i in range(n):
            self.inner = k + i
            self.generator().standard_normal(out=fill[i])
        self.inner = k
        frames, diag = _signed_qr(fill, np.sqrt(d / ell))
        for i in np.flatnonzero((diag == 0.0).any(axis=-1)):
            frames[i] = draw_haar(d, ell, RngStream(self.seed, self.outer, k + int(i))).matrix
        frames.flags.writeable = False
        self._frames_start, self._frames = k, frames
        return frames


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


def orthonormal_signed(x: np.ndarray):
    """Thin QR of ``x`` (stacked inputs fine) with a fixed sign convention.

    Columns are flipped so the diagonal of R is nonnegative, removing the
    sign ambiguity LAPACK leaves in Q; a zero pivot keeps the +1 sign.
    With Gaussian input the result is uniform over orthonormal ell-frames.
    Returns the frame and the (pre-flip) R diagonal for degeneracy checks.
    """
    return _signed_qr(np.array(x, dtype=float), 1.0)


def _signed_qr(a: np.ndarray, scale):
    """The frame of :func:`orthonormal_signed` times ``scale``, factoring the
    float array ``a`` in place: R ends up in its upper triangle.

    The sign flip and the scaling are one multiply by -scale or scale,
    which is exact because negation is.
    """
    with np.errstate(call=_qr_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        q = _umath_linalg.qr_reduced(a, _umath_linalg.qr_r_raw(a))
    diag = a.diagonal(axis1=-2, axis2=-1)
    q *= np.where(diag < 0, -scale, scale)[..., None, :]
    return q, diag


def _qr_failed(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


def draw_haar(d: int, ell: int, rng: RngStream) -> Sketch:
    """Uniformly random orthonormal ell-frame, scaled by sqrt(d/ell).

    A :class:`SketchStream` serves the frame from its block; any other
    stream draws it here, from its own generator.
    """
    _check_ell(d, ell)
    if isinstance(rng, SketchStream):
        return Sketch(rng.haar(d, ell), d, ell, "haar")
    gen = rng.generator()
    scale = np.sqrt(d / ell)
    while True:
        # The fresh fill is factored in place: nothing else holds it.
        q, diag = _signed_qr(gen.standard_normal((d, ell)), scale)
        # A zero pivot means a degenerate Gaussian fill (probability zero).
        if (diag != 0.0).all():
            break
    return Sketch(q, d, ell, "haar")


def sample_haar(d: int, ell: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` scaled Haar frames as one (size, d, ell) array.

    Vectorized counterpart of :func:`draw_haar` for Monte-Carlo diagnostics;
    both paths share :func:`_signed_qr`, so they apply the identical map to
    the Gaussian fill.
    """
    _check_ell(d, ell)
    scale = np.sqrt(d / ell)
    q, diag = _signed_qr(gen.standard_normal((size, d, ell)), scale)
    bad = np.any(diag == 0.0, axis=-1)
    while np.any(bad):
        fresh, fresh_diag = _signed_qr(gen.standard_normal((int(bad.sum()), d, ell)), scale)
        q[bad] = fresh
        diag = diag.copy()
        diag[bad] = fresh_diag
        bad = np.any(diag == 0.0, axis=-1)
    return q


def draw_coordinate_block(d: int, ell: int, rng: RngStream) -> Sketch:
    """Columns sqrt(d/ell) e_i at ell distinct random coordinates."""
    _check_ell(d, ell)
    idx = rng.generator().choice(d, size=ell, replace=False)
    m = np.zeros((d, ell))
    m[idx, np.arange(ell)] = np.sqrt(d / ell)
    return Sketch(m, d, ell, "coordinate")


def draw_gaussian(d: int, ell: int, rng: RngStream) -> Sketch:
    """iid N(0, 1/ell) entries; unbiased but not orthogonal per draw."""
    _check_ell(d, ell)
    m = rng.generator().standard_normal((d, ell)) / np.sqrt(ell)
    return Sketch(m, d, ell, "gaussian")


def sample_gaussian(d: int, ell: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` Gaussian sketches as one (size, d, ell) array."""
    _check_ell(d, ell)
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
