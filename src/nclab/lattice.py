"""Lattice index sets and grids shared by all modules.

Conventions, pinned once for the whole package:

* The torus is [0,1)^n and Fourier characters are e^{2*pi*i k.x}; every
  2*pi lives in an exponent, never in a measure.
* Frequencies are in lattice-dual units: the lattice point k embeds as
  the frequency k, with no 2*pi factor.
* Points are numpy arrays whose last axis is the coordinate axis.
* Box enumeration is lexicographic (most negative coordinate first) so
  assembled matrices are bit-reproducible across runs and platforms.

Everything here is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


def torus_grid(n: int, q: int) -> np.ndarray:
    """The uniform torus grid j/q, q points per axis, as a (q^n, n)
    array in lexicographic order (last axis fastest)."""
    axes = [np.arange(q) / q] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, n)


def multi_index(entries) -> np.ndarray:
    """Validate a multi-index (nonnegative integer entries)."""
    a = np.asarray(entries, dtype=int)
    if a.ndim != 1 or a.size < 1:
        raise UsageError("multi-index must be a nonempty integer vector")
    if np.any(a < 0):
        raise UsageError("multi-index entries must be nonnegative")
    return a


@dataclass(frozen=True)
class TruncationBox:
    """Cubic lattice window [-M, M]^n with a pinned enumeration.

    The enumeration is the lexicographic order on coordinates, -M first,
    i.e. row-major over ``np.arange(-M, M+1)`` per axis.
    """

    n: int
    M: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError(f"dimension must be >= 1, got {self.n}")
        if self.M < 0:
            raise UsageError(f"box half-width must be >= 0, got {self.M}")

    @property
    def size(self) -> int:
        return (2 * self.M + 1) ** self.n

    def points(self) -> np.ndarray:
        """All lattice points as an integer array of shape (size, n),
        in enumeration order."""
        axis = np.arange(-self.M, self.M + 1)
        grids = np.meshgrid(*([axis] * self.n), indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.n)

    def index_of(self, p) -> int:
        """Enumeration index of lattice point p; inverse of points()[i]."""
        p = np.asarray(p, dtype=int)
        if p.shape != (self.n,):
            raise UsageError(f"point has shape {p.shape}, expected ({self.n},)")
        if np.any(np.abs(p) > self.M):
            raise UsageError(f"point {p.tolist()} outside box [-{self.M},{self.M}]^{self.n}")
        return int(self.indices_of(p[None])[0])

    def indices_of(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized index_of for an (P, n) array of in-box points."""
        pts = np.asarray(pts, dtype=int)
        if np.any(np.abs(pts) > self.M):
            raise UsageError("point outside box")
        w = 2 * self.M + 1
        shifted = pts + self.M
        return np.ravel_multi_index(tuple(shifted.T), (w,) * self.n)

    def negation_permutation(self) -> np.ndarray:
        """Permutation sending the index of p to the index of -p.

        Involutive, and fixes the index of the origin.
        """
        return self.indices_of(-self.points())

