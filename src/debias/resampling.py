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
come from one elementwise pass of the key hash (``SeedPool.block_keys``),
and they draw in turn from one Philox, re-pointed to a stream's key, counter
0 and an empty buffer when it first draws.  That is the state
``Philox(SeedSequence)`` starts in, so every draw keeps its bits.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

from .observations import ContractError

# Draws a Dirichlet sample may take before its alpha is rejected as too small.
DIRICHLET_DRAWS = 100

# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, start: int, count: int) -> tuple:
    """The hash constant at steps start..start+count-1 of a SeedSequence hash:
    it starts at ``init`` and each step multiplies it by ``mult`` mod 2**32."""
    h, out = init * pow(mult, start, 1 << 32) & _M32, []
    for _ in range(count):
        out.append(h)
        h = h * mult & _M32
    return tuple(out)


# A pool takes 16 hashing steps from its seed and 4 from each path word, and
# a step's constants depend only on its number, so they are tabled: for
# paths of up to 64 words and states of up to 8 words (a Philox key takes 4);
# longer ones compute theirs.
_POOL_STEPS = 16
_A = _hash_constants(_INIT_A, _MULT_A, 0, _POOL_STEPS + 4 * 64 + 1)
_B = _hash_constants(_INIT_B, _MULT_B, 0, 9)
_U4, _U8 = np.dtype("<u4"), np.dtype("<u8")  # state words; a uint64 from each pair
# the same constants as np.uint32 arrays and scalars for ``block_keys``, so
# that no operand is a Python int (no value-based promotion under numpy 1.x)
_A32, _B32 = np.array(_A, np.uint32), np.array(_B, np.uint32)
_MIX_L32, _MIX_R32, _SHIFT32 = np.uint32(_MIX_L), np.uint32(_MIX_R), np.uint32(16)


def _words(n: int) -> list[int]:
    """n's little-endian 32-bit words, as numpy splits an entropy integer."""
    return [n] if n <= _M32 else [n >> shift & _M32 for shift in range(0, n.bit_length(), 32)]


class SeedPool(ISeedSequence):
    """The pool of numpy's ``SeedSequence(seed, spawn_key=path)``: its four
    mixer words and the number of hashing steps taken so far, which fixes
    the hash constant of the next one.  numpy mixes the path's words in one
    at a time, so a child's pool is its parent's with the child's index
    mixed in (``absorb``)."""

    def __init__(self, words: tuple, steps: int):
        self.words = words
        self.steps = steps

    @classmethod
    def of(cls, seed: int, path=()) -> "SeedPool":
        """The pool for an unsigned 64-bit seed and a path."""
        pool = []
        for step, w in enumerate((_words(seed) + [0, 0, 0])[:4]):  # zero padded
            v = (w ^ _A[step]) * _A[step + 1] & _M32
            pool.append(v ^ v >> 16)
        step = 4
        for src in range(4):  # every pool word mixed into every other
            for dst in range(4):
                if dst != src:
                    v = (pool[src] ^ _A[step]) * _A[step + 1] & _M32
                    r = _MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16) & _M32
                    pool[dst] = r ^ r >> 16
                    step += 1
        return functools.reduce(SeedPool.absorb, path, cls(tuple(pool), _POOL_STEPS))

    def absorb(self, index: int) -> "SeedPool":
        """The pool of the path one entry ``index`` longer: each of its words
        hashed into each pool word in turn."""
        if index > _M32:
            return functools.reduce(SeedPool.absorb, _words(index), self)
        x0, x1, x2, x3 = self.words
        step = self.steps
        h0, h1, h2, h3, h4 = (_A[step:step + 5] if step + 5 <= len(_A)
                              else _hash_constants(_INIT_A, _MULT_A, step, 5))
        v = (index ^ h0) * h1 & _M32
        r0 = _MIX_L * x0 - _MIX_R * (v ^ v >> 16) & _M32
        v = (index ^ h1) * h2 & _M32
        r1 = _MIX_L * x1 - _MIX_R * (v ^ v >> 16) & _M32
        v = (index ^ h2) * h3 & _M32
        r2 = _MIX_L * x2 - _MIX_R * (v ^ v >> 16) & _M32
        v = (index ^ h3) * h4 & _M32
        r3 = _MIX_L * x3 - _MIX_R * (v ^ v >> 16) & _M32
        return SeedPool((r0 ^ r0 >> 16, r1 ^ r1 >> 16, r2 ^ r2 >> 16, r3 ^ r3 >> 16), step + 4)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """``SeedSequence.generate_state``: n_words uint32 or uint64 words
        hashed from the cycled pool, a uint64 from each little-endian pair."""
        wide = dtype is np.uint64 or np.dtype(dtype) == np.uint64  # Philox passes np.uint64
        if not wide and np.dtype(dtype) != np.uint32:
            raise ValueError("only support uint32 or uint64")
        count = n_words << wide
        h = _B if count < len(_B) else _hash_constants(_INIT_B, _MULT_B, 0, count + 1)
        words, out = self.words, []
        for k in range(count):
            v = (words[k & 3] ^ h[k]) * h[k + 1] & _M32
            out.append(v ^ v >> 16)
        state = np.array(out, dtype=_U4)
        return state.view(_U8) if wide else state

    def block_keys(self, lo: int, hi: int, stages: int) -> np.ndarray:
        """(hi - lo, stages, 2) uint64 Philox keys: entry [t - lo, j] is
        ``SeedSequence(seed, spawn_key=path + (t, j)).generate_state(2,
        np.uint64)``, this pool's ``absorb(t).absorb(j).generate_state(2,
        np.uint64)`` computed elementwise in uint32 arithmetic, which wraps
        mod 2**32 on arrays.  Trial indices must be below 2**32 (one word)."""
        if not 0 <= lo < hi <= 1 << 32:
            raise ContractError(f"block keys need 0 <= lo < hi <= 2**32, got {lo}..{hi}")
        step = self.steps
        h = (_A32[step:step + 9] if step + 9 <= len(_A32)
             else np.array(_hash_constants(_INIT_A, _MULT_A, step, 9), np.uint32))
        words = np.array(self.words, np.uint32)[:, None]
        words = _absorb_each(words, h[:5], np.arange(lo, hi, dtype=np.uint32))
        words = _absorb_each(words[..., None], h[4:], np.arange(stages, dtype=np.uint32))
        v = (words ^ _B32[:4, None, None]) * _B32[1:5, None, None]
        v ^= v >> _SHIFT32
        return np.ascontiguousarray(np.moveaxis(v, 0, -1), dtype=_U4).view(_U8)


def _absorb_each(words: np.ndarray, h: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``SeedPool.absorb`` of each one-word index into pool words (4, ...) at
    the hash constants h (5,): the result has the pool's leading axes and then
    index's axis."""
    h = h.reshape((5,) + (1,) * (words.ndim - 1))
    v = (index ^ h[:4]) * h[1:]
    r = _MIX_L32 * words - _MIX_R32 * (v ^ v >> _SHIFT32)
    return r ^ r >> _SHIFT32


def _index(i) -> int:
    if isinstance(i, (int, numbers.Integral)) and i >= 0:  # int first: the fast check
        return int(i)
    raise ContractError(f"stream index must be an integer >= 0, got {i!r}")


class RandomStream:
    """A deterministic random stream identified by (origin_seed, path).

    Its Philox key is numpy's ``SeedSequence(origin_seed, spawn_key=path)``
    key, read from a :class:`SeedPool` derived when it first draws or splits.

    Parameters
    ----------
    origin_seed : int
        Master seed, interpreted as an unsigned 64-bit integer.
    path : tuple of int
        Split lineage of non-negative integers.  The root stream has an
        empty path; ``s.split(i)`` appends ``i``.
    """

    __slots__ = ("origin_seed", "path", "_gen", "_pool", "_parent_pool", "_block", "_key")

    def __init__(self, origin_seed: int, path: tuple[int, ...] = ()):
        self.origin_seed = int(origin_seed) & 0xFFFFFFFFFFFFFFFF
        self.path = tuple(map(_index, path))
        self._gen = self._pool = self._parent_pool = None  # built when first needed
        self._block = self._key = None  # a lone stream: its own Philox

    @property
    def generator(self) -> Generator:
        """The stream's generator: its own, or for a stream of a block the
        block's one generator, re-pointed to this stream's key when it first
        draws.  A block stream that another stream has since displaced
        raises rather than draw from that stream's position."""
        if self._gen is None:
            self._gen = (Generator(Philox(self._seed_pool())) if self._block is None
                         else self._block.point(self))
        elif self._block is not None and self._block.owner is not self:
            raise RuntimeError(f"{self!r} cannot draw again: its block's generator has "
                               f"moved on to {self._block.owner!r}")
        return self._gen

    def _seed_pool(self) -> SeedPool:
        if self._pool is None:
            self._pool = (SeedPool.of(self.origin_seed, self.path) if self._parent_pool is None
                          else self._parent_pool.absorb(self.path[-1]))
        return self._pool

    def split(self, index: int) -> "RandomStream":
        """Child stream with lineage ``path + (index,)``, state untouched."""
        child = RandomStream(self.origin_seed)
        child.path = self.path + (_index(index),)
        child._parent_pool = self._seed_pool()
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
            total = g.sum()
            if total > 0.0:
                return g / total
        raise ContractError(f"dirichlet alpha={alpha} is too small: all {DIRICHLET_DRAWS} "
                            f"draws of {d} gammas underflowed to 0")

    def categorical(self, p: np.ndarray, size=None) -> np.ndarray | int:
        """Category indices distributed as ``p``, by inverse CDF on one uniform each."""
        return np.searchsorted(categorical_cdf(p), self.generator.random(size), side="right")


class _BlockGenerator:
    """One Philox generator that the streams of a block draw from in turn."""

    __slots__ = ("generator", "state", "owner")

    def __init__(self, seed: ISeedSequence):
        self.generator = Generator(Philox(seed))  # re-pointed before any stream draws
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
    ``SeedPool.block_keys``, and drawing from one re-pointed Philox, so each
    draws what the lone stream of its path draws.  A stream that is split
    derives its pool when it is."""
    pool = root._seed_pool()
    keys = pool.block_keys(lo, hi, stages).tolist()
    block, new, seed = _BlockGenerator(pool), RandomStream.__new__, root.origin_seed
    out = []
    for j in range(stages):
        stage = []
        for t, trial_keys in zip(range(lo, hi), keys):
            stream = new(RandomStream)
            stream.origin_seed, stream.path = seed, root.path + (t, j)
            stream._gen = stream._pool = stream._parent_pool = None
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
