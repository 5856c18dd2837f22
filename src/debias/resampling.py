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
"""

from __future__ import annotations

import functools
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


def _words(n: int) -> list[int]:
    """n's little-endian 32-bit words, as numpy splits an entropy integer."""
    return [n] if n <= _M32 else [n >> shift & _M32 for shift in range(0, n.bit_length(), 32)]


def _mix_in(pool: list, h: int, w: int, skip: int = -1) -> int:
    """Hash w into every pool word but ``pool[skip]``, in place, as numpy's
    ``mix_entropy`` does; returns the hash constant after those steps."""
    for dst in range(4):
        if dst != skip:
            v = w ^ h
            h = h * _MULT_A & _M32
            v = v * h & _M32
            r = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _M32
            pool[dst] = r ^ r >> 16
    return h


class SeedPool(ISeedSequence):
    """The pool of numpy's ``SeedSequence(seed, spawn_key=path)``: its four
    mixer words and the hash constant after the steps taken so far.  numpy
    mixes the path's words in one at a time, so a child's pool is its
    parent's with the child's index mixed in (``absorb``)."""

    def __init__(self, words: tuple, hash_const: int):
        self.words = words
        self.hash_const = hash_const

    @classmethod
    def of(cls, seed: int, path=()) -> "SeedPool":
        """The pool for an unsigned 64-bit seed and a path."""
        pool, h = [], _INIT_A
        for w in (_words(seed) + [0, 0, 0])[:4]:  # the seed's words, zero padded
            v = w ^ h
            h = h * _MULT_A & _M32
            v = v * h & _M32
            pool.append(v ^ v >> 16)
        for src in range(4):  # every pool word mixed into every other
            h = _mix_in(pool, h, pool[src], skip=src)
        return functools.reduce(SeedPool.absorb, path, cls(tuple(pool), h))

    def absorb(self, index: int) -> "SeedPool":
        """The pool of the path one entry ``index`` longer."""
        pool, h = list(self.words), self.hash_const
        for w in _words(index):
            h = _mix_in(pool, h, w)
        return SeedPool(tuple(pool), h)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """``SeedSequence.generate_state``: n_words uint32 or uint64 words
        hashed from the cycled pool, a uint64 from each little-endian pair."""
        wide = np.dtype(dtype) == np.uint64
        if not wide and np.dtype(dtype) != np.uint32:
            raise ValueError("only support uint32 or uint64")
        out, h = [], _INIT_B
        for k in range(n_words << wide):
            v = self.words[k & 3] ^ h
            h = h * _MULT_B & _M32
            v = v * h & _M32
            out.append(v ^ v >> 16)
        state = np.array(out, dtype="<u4")
        return state.view("<u8") if wide else state


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

    __slots__ = ("origin_seed", "path", "_gen", "_pool", "_parent_pool")

    def __init__(self, origin_seed: int, path: tuple[int, ...] = ()):
        self.origin_seed = int(origin_seed) & 0xFFFFFFFFFFFFFFFF
        self.path = tuple(_index(p) for p in path)
        self._gen = self._pool = self._parent_pool = None  # built when first needed

    @property
    def generator(self) -> Generator:
        if self._gen is None:
            self._gen = Generator(Philox(self._seed_pool()))
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
        scalar = size is None
        n = 1 if scalar else int(np.prod(size))
        npairs = (n + 1) // 2
        u = self.generator.random((2, npairs))
        r = np.sqrt(-2.0 * np.log1p(-u[0]))  # 1-u in (0,1] avoids log(0)
        theta = 2.0 * np.pi * u[1]
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        if scalar:
            return float(z[0])
        return z.reshape(size)

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
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("categorical needs a probability vector summing to 1")
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        u = self.generator.random(size)
        return np.searchsorted(cdf, u, side="right")

