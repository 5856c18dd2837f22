"""Seeded, splittable random streams and the sampling primitives built on them.

Every random quantity in this package is drawn from a :class:`RandomStream`,
which wraps a counter-based Philox generator keyed by ``(origin_seed, path)``.
Two streams with the same seed and path produce identical draw sequences on
any machine; streams with different paths are independent by construction.
This is what makes parallel trials reproducible regardless of scheduling:
trial ``t`` always works on ``master.split(t)``.

Gaussian variates are produced by the Box-Muller transform applied to Philox
uniforms (``z0 = sqrt(-2 ln u1) cos(2 pi u2)``, ``z1 = sqrt(-2 ln u1)
sin(2 pi u2)``) so each normal consumes a fixed number of uniforms.  Gamma
variates use numpy's generator routine, which is rejection based; the draw
sequence is still fully determined by the stream state.

``uniforms`` and ``normals`` draw for a block of streams at once: each
stream draws its own uniforms, and the transforms run once over the stack,
so row b has the bits ``streams[b]`` alone gives (``RandomStream.normal`` is
the block draw of one stream).

``block_streams`` makes the streams of a block of trials at once: their keys
come from one elementwise pass of numpy's ``SeedSequence`` hash
(``block_keys``), and they draw in turn from one Philox, re-pointed to a
stream's key, counter 0 and an empty buffer when it first draws.  That is the
state ``Philox(SeedSequence)`` starts in, so every draw keeps its bits.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .observations import ContractError

# Draws a Dirichlet sample may take before its alpha is rejected as too small.
DIRICHLET_DRAWS = 100

# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# np.uint32 scalars, so that no operand of ``block_keys`` is a Python int (no
# value-based promotion under numpy 1.x)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_U4, _U8 = np.dtype("<u4"), np.dtype("<u8")  # state words; a uint64 from each pair


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """The np.uint32 hash constants at steps start..start+count-1 of a
    SeedSequence hash: it starts at ``init`` and each step multiplies it by
    ``mult`` mod 2**32."""
    h, out = init * pow(mult, start, 1 << 32) & 0xFFFFFFFF, []
    for _ in range(count):
        out.append(h)
        h = h * mult & 0xFFFFFFFF
    return np.array(out, np.uint32)


_B = _hash_constants(_INIT_B, _MULT_B, 0, 5)  # reading four state words out of a pool


def block_keys(seq: SeedSequence, lo: int, hi: int, stages: int) -> np.ndarray:
    """(hi - lo, stages, 2) uint64 Philox keys: entry [t - lo, j] is
    ``SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (t, j))
    .generate_state(2, np.uint64)``.  numpy's hash continues from
    ``seq.pool`` with t's word and then j's mixed into each pool word, here
    elementwise in uint32 arithmetic, which wraps mod 2**32 on arrays.  The
    seed must fit in four words (a 64-bit one does) and trial indices in one."""
    if not 0 <= lo < hi <= 1 << 32:
        raise ContractError(f"block keys need 0 <= lo < hi <= 2**32, got {lo}..{hi}")
    # numpy's mix_entropy takes 16 hashing steps for the seed, padded to four
    # words, and 4 for each 32-bit word of the path (an index 0 takes one)
    words = sum(max(1, -(-i.bit_length() // 32)) for i in seq.spawn_key)
    h = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * words, 9)
    pool = _absorb_each(seq.pool[:, None], h[:5], np.arange(lo, hi, dtype=np.uint32))
    pool = _absorb_each(pool[..., None], h[4:], np.arange(stages, dtype=np.uint32))
    v = (pool ^ _B[:4, None, None]) * _B[1:, None, None]
    v ^= v >> _SHIFT
    return np.ascontiguousarray(v.transpose(1, 2, 0), dtype=_U4).view(_U8)


def _absorb_each(pool: np.ndarray, h: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each one-word index mixed into pool words (4, ...) at the hash
    constants h (5,), as numpy's mix_entropy mixes a path word: the result has
    the pool's leading axes and then index's axis."""
    h = h.reshape((5,) + (1,) * (pool.ndim - 1))
    v = (index ^ h[:4]) * h[1:]
    r = _MIX_L * pool - _MIX_R * (v ^ v >> _SHIFT)
    return r ^ r >> _SHIFT


def _index(i) -> int:
    """A path entry as an int; numpy would refuse a bad one only when the
    stream first draws, and with ValueError or TypeError."""
    if isinstance(i, (int, numbers.Integral)) and i >= 0:  # int first: the fast check
        return int(i)
    raise ContractError(f"stream index must be an integer >= 0, got {i!r}")


class RandomStream:
    """A deterministic random stream identified by (origin_seed, path).

    Its generator is ``Generator(Philox(SeedSequence(origin_seed,
    spawn_key=path)))``, built when it first draws.

    Parameters
    ----------
    origin_seed : int
        Master seed, interpreted as an unsigned 64-bit integer.
    path : tuple of int
        Split lineage of non-negative integers.  The root stream has an
        empty path; ``s.split(i)`` appends ``i``.
    """

    __slots__ = ("origin_seed", "path", "_gen", "_seq", "_block", "_key")

    def __init__(self, origin_seed: int, path: tuple[int, ...] = ()):
        self.origin_seed = int(origin_seed) & 0xFFFFFFFFFFFFFFFF
        self.path = tuple(map(_index, path))
        self._gen = self._seq = None  # built when first needed
        self._block = self._key = None  # a lone stream: its own Philox

    @property
    def generator(self) -> Generator:
        """The stream's generator: its own, or for a stream of a block the
        block's one generator, re-pointed to this stream's key when it first
        draws.  A block stream that another stream has since displaced
        raises rather than draw from that stream's position."""
        if self._gen is None:
            self._gen = (Generator(Philox(self._seed_sequence())) if self._block is None
                         else self._block.point(self))
        elif self._block is not None and self._block.owner is not self:
            raise RuntimeError(f"{self!r} cannot draw again: its block's generator has "
                               f"moved on to {self._block.owner!r}")
        return self._gen

    def _seed_sequence(self) -> SeedSequence:
        """``SeedSequence(origin_seed, spawn_key=path)``, built once: a block's
        root keys every block of its trials from it."""
        if self._seq is None:
            self._seq = SeedSequence(self.origin_seed, spawn_key=self.path)
        return self._seq

    def split(self, index: int) -> "RandomStream":
        """Child stream with lineage ``path + (index,)``, state untouched."""
        child = RandomStream(self.origin_seed)
        child.path = self.path + (_index(index),)
        return child

    def __repr__(self):
        return f"RandomStream(seed={self.origin_seed}, path={self.path})"

    # -- draw primitives ---------------------------------------------------

    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform draws on [0, 1)."""
        return self.generator.random(size)

    def normal(self, size=None) -> np.ndarray | float:
        """Standard normal draws via Box-Muller on Philox uniforms."""
        shape = (() if size is None else (int(size),) if isinstance(size, numbers.Integral)
                 else tuple(size))
        z = normals([self], shape)[0]
        return float(z) if size is None else z

    def gamma(self, shape: float, scale: float, size=None) -> np.ndarray | float:
        """Gamma draws; ``shape=k, scale=1/k`` has mean 1."""
        if shape <= 0 or scale <= 0:
            raise ValueError(f"gamma parameters must be > 0, got shape={shape}, scale={scale}")
        return self.generator.gamma(shape, scale, size)

    def dirichlet(self, alpha: float, d: int) -> np.ndarray:
        """One draw from the symmetric Dirichlet(alpha) on the (d-1)-simplex."""
        if alpha <= 0:
            raise ValueError(f"dirichlet alpha must be > 0, got {alpha}")
        if d < 1:
            raise ValueError(f"dirichlet dimension must be >= 1, got {d}")
        for _ in range(DIRICHLET_DRAWS):  # redraw while every gamma underflows to 0
            g = self.generator.gamma(alpha, 1.0, d)
            with np.errstate(over="ignore"):  # refused below
                total = g.sum()
            if not np.isfinite(total):
                raise ContractError(f"dirichlet alpha={alpha} is too large: the sum of "
                                    f"{d} gamma draws overflows float64")
            if total > 0.0:
                return g / total
        raise ContractError(f"dirichlet alpha={alpha} is too small: all {DIRICHLET_DRAWS} "
                            f"draws of {d} gammas underflowed to 0")


class _BlockGenerator:
    """One Philox generator that the streams of a block draw from in turn."""

    __slots__ = ("generator", "state", "owner")

    def __init__(self, seq: SeedSequence):
        self.generator = Generator(Philox(seq))  # re-pointed before any stream draws
        zeros = (0, 0, 0, 0)
        self.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
                      "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.owner = None

    def point(self, stream: RandomStream) -> Generator:
        """The generator, at the state ``Philox(SeedSequence)`` starts in for
        the stream's key: counter 0, an empty buffer, no cached uint32."""
        self.state["state"]["key"] = stream._key
        self.generator.bit_generator.state = self.state
        self.owner = stream
        return self.generator


def block_streams(root: RandomStream, lo: int, hi: int, stages: int) -> list[list[RandomStream]]:
    """The streams ``root.split(t).split(j)`` for trials t in lo..hi-1 and
    stages j < stages, as ``streams[j][t - lo]``: keyed in one pass of
    ``block_keys``, and drawing from one re-pointed Philox, so each draws
    what the lone stream of its path draws."""
    seq = root._seed_sequence()
    keys = block_keys(seq, lo, hi, stages).tolist()
    block, new, seed = _BlockGenerator(seq), RandomStream.__new__, root.origin_seed
    out = []
    for j in range(stages):
        stage = []
        for t, trial_keys in zip(range(lo, hi), keys):
            stream = new(RandomStream)
            stream.origin_seed, stream.path = seed, root.path + (t, j)
            stream._gen = stream._seq = None
            stream._block, stream._key = block, trial_keys[j]
            stage.append(stream)
        out.append(stage)
    return out


def uniforms(streams, shape: tuple) -> np.ndarray:
    """(B, *shape) uniforms on [0, 1): row b is ``streams[b].uniform(shape)``."""
    out = np.empty((len(streams), *shape))
    for row, stream in zip(out, streams):
        stream.generator.random(out=row)
    return out


def box_muller(u: np.ndarray, count: int) -> np.ndarray:
    """Standard normals from pairs of uniforms, ``u[..., 0, :]`` giving the
    radii and ``u[..., 1, :]`` the angles: the cosine variates, then the sine
    ones, cut to the first ``count`` along the last axis.  Each element is a
    function of its own pair, so a row gets the same bits in any stack."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0, :]))  # 1-u in (0,1] avoids log(0)
    theta = 2.0 * np.pi * u[..., 1, :]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :count]


def normals(streams, shape: tuple) -> np.ndarray:
    """(B, *shape) standard normals: row b is ``streams[b].normal(shape)``,
    each stream drawing its own uniforms, transformed as one stack."""
    count = math.prod(shape)
    z = box_muller(uniforms(streams, (2, (count + 1) // 2)), count)
    return z.reshape(len(streams), *shape)


def categorical_cdf(p) -> np.ndarray:
    """The CDF of a probability vector, its last entry exactly 1: category
    ``np.searchsorted(cdf, u, side="right")`` of a uniform u is distributed
    as ``p``."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("categorical needs a probability vector summing to 1")
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    return cdf
