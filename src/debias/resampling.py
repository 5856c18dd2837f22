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

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .observations import ContractError

# Draws a Dirichlet sample may take before its alpha is rejected as too small.
DIRICHLET_DRAWS = 100


class RandomStream:
    """A deterministic random stream identified by (origin_seed, path).

    Parameters
    ----------
    origin_seed : int
        Master seed, interpreted as an unsigned 64-bit integer.
    path : tuple of int
        Split lineage.  The root stream has an empty path; ``s.split(i)``
        appends ``i``.
    """

    __slots__ = ("origin_seed", "path", "_gen")

    def __init__(self, origin_seed: int, path: tuple[int, ...] = ()):
        self.origin_seed = int(origin_seed) & 0xFFFFFFFFFFFFFFFF
        self.path = tuple(int(p) for p in path)
        self._gen: Generator | None = None

    @property
    def generator(self) -> Generator:
        if self._gen is None:
            ss = SeedSequence(self.origin_seed, spawn_key=self.path)
            self._gen = Generator(Philox(ss))
        return self._gen

    def split(self, index: int) -> "RandomStream":
        """Child stream with lineage ``path + (index,)``, state untouched."""
        return RandomStream(self.origin_seed, self.path + (int(index),))

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

    def exponential(self, rate: float, size=None) -> np.ndarray | float:
        """Exponential draws with the given rate (mean 1/rate), inverse CDF."""
        if rate <= 0:
            raise ValueError(f"exponential rate must be > 0, got {rate}")
        u = self.generator.random(size)
        return -np.log1p(-u) / rate

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

