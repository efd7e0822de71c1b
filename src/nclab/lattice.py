"""Lattice index sets, grids and the budgets shared by all modules:
the memory refusals (check_memory, check_torus_grid), the evaluation
block size (BLOCK_POINTS) and the quadrature rule on the sphere of
directions (sphere_rule).

Conventions, pinned once for the whole package:

* The torus is [0,1)^n and Fourier characters are e^{2*pi*i k.x}; every
  2*pi lives in an exponent, never in a measure.
* Frequencies are in lattice-dual units: the lattice point k embeds as
  the frequency k, with no 2*pi factor.
* Points are numpy arrays whose last axis is the coordinate axis.
* Box enumeration is lexicographic (most negative coordinate first) so
  assembled matrices are bit-reproducible across runs and platforms.
  Point p of [-M, M]^n has index (p + M) @ TruncationBox.strides, so
  -p has index S - 1 - index(p): negating every point reverses the
  enumeration.

Everything here is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import UsageError
from .record import Record

# Symbol samples (first arguments times torus points) per evaluation
# block, for the assembly, the residue and the seminorm blocks; chosen
# by measurement on assembly: larger blocks gained little time and
# raised peak memory (about 40 bytes per sample: the real samples,
# their complex copy and its transform or tap product).
BLOCK_POINTS = 2**15

DEFAULT_SPHERE_ORDER = {1: 2, 2: 64, 3: 24}


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(need: int, what: str) -> None:
    """Refuse an allocation of need bytes larger than physical memory."""
    have = _physical_memory()
    if need > have:
        raise UsageError(
            f"{what} needs {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def check_torus_grid(n: int, q: int) -> None:
    """Refuse torus_grid(n, q) before it is built when its coordinates,
    twice while stacked, and one point's complex samples outgrow memory."""
    check_memory(16 * q**n * (n + 1), f"a torus grid of {q**n} points")


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


class TruncationBox(Record):
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
        # points and strides are int64; 3^63 > 2^63, so (2M+1)^n is
        # formed only below n = 63, never a power of millions of digits
        if self.M and (self.n >= 63 or (2 * self.M + 1) ** self.n >= 2**63):
            raise UsageError(f"box [-{self.M},{self.M}]^{self.n} has 2^63 or more lattice points, past int64 indexing")

    @property
    def size(self) -> int:
        return (2 * self.M + 1) ** self.n

    def points(self) -> np.ndarray:
        """All lattice points as an integer array of shape (size, n),
        in enumeration order; refused before anything is allocated when
        they, their float copy and one complex value per point would
        outgrow physical memory."""
        check_memory(16 * (self.n + 1) * self.size, f"a box of {self.size} lattice points")
        axis = np.arange(-self.M, self.M + 1)
        grids = np.meshgrid(*([axis] * self.n), indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.n)

    @property
    def strides(self) -> np.ndarray:
        """Place values (2M+1)^(n-1-j) of the enumeration: a step of d
        lattice units along every axis moves the index by d @ strides.
        Powers are taken in Python ints, so they are exact, and they fit
        in int64 since the box has fewer than 2^63 points."""
        w = 2 * self.M + 1
        return np.array([w**j for j in range(self.n - 1, -1, -1)])

    def index_of(self, p) -> int:
        """Enumeration index of lattice point p; inverse of points()[i]."""
        p = np.asarray(p, dtype=int)
        if p.shape != (self.n,):
            raise UsageError(f"point has shape {p.shape}, expected ({self.n},)")
        if np.any(np.abs(p) > self.M):
            raise UsageError(f"point {p.tolist()} outside box [-{self.M},{self.M}]^{self.n}")
        return int((p + self.M) @ self.strides)


class SphereRule(Record):
    """Quadrature nodes/weights on the unit sphere S^(n-1) in R^n;
    weights sum to the surface measure (2, 2*pi, 4*pi for n=1,2,3)."""

    n: int
    nodes: np.ndarray  # (K, n), unit vectors
    weights: np.ndarray  # (K,), positive

    @property
    def order(self) -> int:
        return len(self.weights)


def sphere_rule(n: int, order: int | None = None) -> SphereRule:
    """Build the quadrature rule for S^(n-1), 1 <= n <= 3.

    n=1: the two points +-1, weight 1 each.  n=2: `order` equispaced
    angles, trapezoid weights.  n=3: Gauss-Legendre in cos(polar) with
    `order` nodes times 2*order equispaced azimuths, normalized to
    total 4*pi.  A None order takes DEFAULT_SPHERE_ORDER.
    """
    if not 1 <= n <= 3:
        raise UsageError(f"unsupported dimension {n}: sphere rules cover 1 <= n <= 3")
    if order is None:
        order = DEFAULT_SPHERE_ORDER[n]
    if order < 1:
        raise UsageError(f"sphere rule order must be >= 1, got {order}")
    if n == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
    elif n == 2:
        ang = 2.0 * np.pi * np.arange(order) / order
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        weights = np.full(order, 2.0 * np.pi / order)
    else:
        t, wt = np.polynomial.legendre.leggauss(order)
        n_az = 2 * order
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        st = np.sqrt(1.0 - t**2)
        nodes = np.stack(
            [
                np.outer(st, np.cos(phi)).ravel(),
                np.outer(st, np.sin(phi)).ravel(),
                np.outer(t, np.ones(n_az)).ravel(),
            ],
            axis=-1,
        )
        weights = np.outer(wt, np.full(n_az, 2.0 * np.pi / n_az)).ravel()
        weights = weights * (4.0 * np.pi / weights.sum())
    return SphereRule(n, nodes, weights)
