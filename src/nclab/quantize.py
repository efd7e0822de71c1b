"""Truncated matrix assembly for the two quantizations and the Fourier
conjugation between them.

Pinned transform conventions (all 2*pi factors in exponents):

* forward transform l2(Z^n) -> L2(T^n):  (F f)(xi) = sum_k f(k) e^{-2 pi i k.xi},
  with inverse f(k) = integral e^{+2 pi i k.xi} (F f)(xi) dxi;
* discrete quantization, delta basis:  entry [n', k] equals the torus
  integral of sigma(n', xi) e^{2 pi i (n'-k).xi};
* toroidal quantization, Fourier-mode basis e_m(x) = e^{2 pi i m.x}:
  entry [eta, m] is the (eta - m)-th x-Fourier coefficient of tau(., m).

Under these conventions conjugating a Fourier-mode matrix A by the
lattice transform is the index negation B[n', k] = A[-n', -k]; combined
with the adjoint and the flip map it reproduces the discrete matrix
exactly (up to quadrature roundoff), which verify_identity measures.

Torus integrals use the Q-point tensor rectangle rule per axis, i.e.
one FFT over the grid per row (column); this is exact for trigonometric
polynomials of degree < Q/2 and spectrally accurate otherwise.

A symbol whose expression bounds its x-bandwidth by b
(Symbol.x_bandwidth) has reach r = min(b, 2M) on the box [-M, M]^n.
When r < 2M, assembly samples the (2r+2)^n grid instead of the Q^n
one, reads the offsets |d|_inf <= r and writes exact zeros beyond
them.  In exact arithmetic a Q-point rule with Q >= 4M+2 and a
(2r+2)-point rule give the same coefficients for a trigonometric
polynomial of degree r, and both give zero beyond r, so Q keeps its
meaning and its reported value; the two differ by round-off only.
Every other symbol (r = 2M, no band, or an opaque callable) is
sampled on the Q^n grid.

With r < 2M every nonzero entry lies within index distance
kd = r * sum_{j<n} (2M+1)^j of the diagonal (box enumeration is
lexicographic, last axis fastest).  When that band is narrow
(BAND_RATIO * kd < S, so never for r = 2M) assemble_toroidal writes
the kernel's in-band entries straight into band storage of half-width
kd (OperatorMatrix.kd) and never allocates the S x S matrix; .entries
materialises it for the consumers that need it dense.  A wider band
is assembled dense: its banded solve would be slower than the dense
one.
assemble_discrete, whose only consumers (quantize and verify_identity)
export or compare the dense matrix, always assembles it dense.

Both quantizations assemble block-wise: a block of B consecutive box
points evaluates the symbol once, on first arguments of shape
(B, 1, n) against the grid of shape (1, P, n) with P = Q^n or
(2r+2)^n, and runs one batched FFT over the grid axes.  B * P stays
within BLOCK_POINTS (B >= 1), so a block's temporaries stay near
40 * BLOCK_POINTS bytes: each point reads fewer entries than P (the
box size on the Q^n grid, (2r+1)^n offsets on the other).  Rows
(columns) are independent, so the block size never changes a matrix
entry.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .lattice import TruncationBox, torus_grid
from .spectral import _write_csv_rows
from .symbols import DISCRETE, TOROIDAL, Symbol, evaluate, flip

LATTICE_DELTA = "lattice_delta"
FOURIER_MODE = "fourier_mode"

BINARY_MAGIC = b"NCRM"

# Symbol samples (lattice points times grid points) per assembly block,
# chosen by measurement: larger blocks gained little time and raised
# peak memory (about 40 bytes per sample: the real samples, their
# complex copy and its transform).
BLOCK_POINTS = 2**15

# A toroidal operator of band half-width kd is kept in band storage only
# when BAND_RATIO * kd < S, chosen by measurement: on one BLAS thread
# zhbevd's band reduction overtook the dense eigvalsh near kd = S/16
# (S = 513 and 2049 in 1-D, S = 2401 in 2-D), and up to kd = S/2 it
# took 2 to 4 times as long.  Past 2kd + 1 = S the band would also
# outgrow the dense matrix.
BAND_RATIO = 16


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform torus grid: Q points per axis at j/Q, weight Q^-n."""

    n: int
    q: int

    def __post_init__(self):
        if self.q < 2 or self.q % 2:
            raise UsageError(f"grid size must be even and >= 2, got {self.q}")

    @classmethod
    def for_box(cls, box: TruncationBox, q: int | None = None) -> QuadratureGrid:
        """The assembly grid for box: q points per axis, by default
        default_grid_size(box.M)."""
        return cls(box.n, default_grid_size(box.M) if q is None else q)

    def points(self) -> np.ndarray:
        return torus_grid(self.n, self.q)


def default_grid_size(M: int) -> int:
    """Smallest power of two >= max(64, 4*(2M+1)): offsets reach +-2M,
    and the doubled margin keeps aliasing below spectral tolerance."""
    target = max(64, 4 * (2 * M + 1))
    q = 64
    while q < target:
        q *= 2
    return q


@dataclass(frozen=True)
class OperatorMatrix:
    """Complex S x S matrix plus the index maps tying rows/columns to
    the box enumeration, in either basis.

    data is the dense matrix when kd is None.  Otherwise it is the band
    of half-width kd as an (S, 2kd+1) array with
    data[min(i, j), kd + i - j] = A[i, j]: column kd + m holds the m-th
    subdiagonal by column index, column kd - m the m-th superdiagonal
    by row index.  Entries with |i - j| > kd and the slots past the
    matrix's edge are zero.  Only this class reads that layout:
    consumers take .entries or lower_bands()."""

    data: np.ndarray
    box: TruncationBox
    basis: str
    kd: int | None = None

    def __post_init__(self):
        S = self.box.size
        shape = (S, S) if self.kd is None else (S, 2 * self.kd + 1)
        if self.data.shape != shape:
            raise UsageError(f"matrix storage shape {self.data.shape} != {shape} for box size {S}")
        if self.basis not in (LATTICE_DELTA, FOURIER_MODE):
            raise UsageError(f"unknown basis tag {self.basis!r}")

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix: data itself, or a new array built from the
        band on each access (refused when larger than physical memory)."""
        if self.kd is None:
            return self.data
        S, kd = self.box.size, self.kd
        _check_memory(16 * S * S, f"a dense {S} x {S} complex matrix")
        first = np.arange(S)[:, None]
        offset = np.arange(-kd, kd + 1)
        rows, cols = first + np.maximum(offset, 0), first - np.minimum(offset, 0)
        inside = (rows < S) & (cols < S)
        out = np.zeros((S, S), dtype=complex)
        out[rows[inside], cols[inside]] = self.data[inside]
        return out

    def lower_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """LAPACK's lower band storage of A and of A* for a banded
        matrix: (S, kd + 1) arrays with [j, m] = A[j + m, j] and
        A*[j + m, j] = conj(A[j, j + m]), zero past the band and the
        matrix's edge."""
        if self.kd is None:
            raise UsageError("lower_bands needs a banded matrix")
        return self.data[:, self.kd :], self.data[:, self.kd :: -1].conj()


def _reach(sym: Symbol, box: TruncationBox) -> int:
    """Largest Chebyshev offset with a nonzero entry: min(b, 2M) for a
    symbol of x-bandwidth b, 2M when b is unknown."""
    M = box.M
    return 2 * M if sym.x_bandwidth is None else int(min(sym.x_bandwidth, 2 * M))


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(need: int, what: str) -> None:
    """Refuse an allocation of need bytes larger than physical memory."""
    have = _physical_memory()
    if need > have:
        raise UsageError(
            f"{what} needs {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def _check_sizes(
    box: TruncationBox, grid: QuadratureGrid | None, kd: int | None = None
) -> QuadratureGrid:
    """Default-fill and validate the grid, and refuse storage larger
    than physical memory before anything is allocated: the dense
    matrix, or its band of half-width kd when kd is given."""
    if grid is None:
        grid = QuadratureGrid.for_box(box)
    if grid.n != box.n:
        raise UsageError("grid and box dimensions differ")
    if grid.q < max(2, 4 * box.M + 2):
        raise UsageError(
            f"grid size {grid.q} undersized: offsets up to {2 * box.M} per axis "
            f"need at least {4 * box.M + 2} points to stay distinct"
        )
    S = box.size
    if kd is None:
        _check_memory(16 * S * S, f"a dense {S} x {S} complex matrix")
    else:
        _check_memory(16 * S * (2 * kd + 1), f"a band of {S} x {2 * kd + 1} complex entries")
    return grid


def _coefficient_blocks(sym: Symbol, box: TruncationBox, grid: QuadratureGrid):
    """Yield (rows, cols, values) over consecutive runs of box points
    p_i, with values at [rows, cols] the Fourier coefficients of
    x -> sym(p_i, x) at the offsets box_j - p_i (mod Q), i in rows and
    j in cols: the discrete matrix, whose transpose is the toroidal
    one.  On the Q^n grid rows is a slice of box points, cols all of
    them and values a dense block.  A symbol whose reach
    r = min(x_bandwidth, 2M) is below 2M is sampled on the (2r+2)^n
    grid instead, and rows, cols and values list only the entries at
    offsets |d|_inf <= r; every other entry is zero."""
    n, M = box.n, box.M
    reach = _reach(sym, box)
    if reach < 2 * M:
        grid = QuadratureGrid(n, 2 * reach + 2)
        stencil = TruncationBox(n, reach).points()
    Q = grid.q
    shape = (Q,) * n
    P = Q**n
    box_pts = box.points()
    firsts = box_pts.astype(float)[:, None, :]
    x = grid.points()[None]
    per_block = max(1, BLOCK_POINTS // P)
    for start in range(0, box.size, per_block):
        first = firsts[start : start + per_block]
        B = len(first)
        if reach < 2 * M:
            targets = box_pts[start : start + B, None, :] + stencil
            hits, taps = np.nonzero(np.all(np.abs(targets) <= M, axis=-1))
            flat = np.ravel_multi_index(tuple(np.mod(stencil[taps], Q).T), shape)
            rows, cols = start + hits, box.indices_of(targets[hits, taps])
        else:
            offsets = np.mod(box_pts[None, :, :] - box_pts[start : start + B, None, :], Q)
            flat = np.ravel_multi_index(tuple(np.moveaxis(offsets, -1, 0)), shape)
            rows, cols = slice(start, start + B), slice(None)
        # a pole or overflow in the samples is reported once, as the
        # solve's non-finite-entry error, not as numpy warnings here
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            samples = evaluate(sym.func, first, x, (B, P))
            coeff = np.fft.fftn(samples.reshape((B,) + shape), axes=tuple(range(1, n + 1))).reshape(B, P)
            if reach < 2 * M:
                values = coeff[hits, flat] / P
            else:
                values = np.take_along_axis(coeff, flat, axis=1) / P
        del samples, coeff  # keep one block's temporaries alive at a time
        yield rows, cols, values


def assemble_discrete(
    sigma: Symbol, box: TruncationBox, grid: QuadratureGrid | None = None
) -> OperatorMatrix:
    """Matrix of the discrete quantization of sigma(n', xi) in the
    standard l2 basis: row n' is the FFT of xi -> sigma(n', xi), read
    at offsets k - n'."""
    if sigma.side != DISCRETE:
        raise UsageError("assemble_discrete expects a discrete-side symbol")
    grid = _check_sizes(box, grid)
    out = np.zeros((box.size, box.size), dtype=complex)
    for rows, cols, values in _coefficient_blocks(sigma, box, grid):
        out[rows, cols] = values
    return OperatorMatrix(out, box, LATTICE_DELTA)


def assemble_toroidal(
    tau: Symbol, box: TruncationBox, grid: QuadratureGrid | None = None
) -> OperatorMatrix:
    """Matrix of the toroidal quantization of tau(x, k) in the Fourier
    basis: column m holds the x-Fourier coefficients of tau(., m) at
    offsets eta - m.  Held as its band (OperatorMatrix.kd) when
    BAND_RATIO * kd < S, dense otherwise."""
    if tau.side != TOROIDAL:
        raise UsageError("assemble_toroidal expects a toroidal-side symbol")
    kd = _reach(tau, box) * sum((2 * box.M + 1) ** j for j in range(box.n))
    if BAND_RATIO * kd >= box.size:  # reach 2M always lands here: kd = S - 1
        grid = _check_sizes(box, grid)
        out = np.zeros((box.size, box.size), dtype=complex)
        for rows, cols, values in _coefficient_blocks(tau, box, grid):
            out[cols, rows] = values.T
        return OperatorMatrix(out, box, FOURIER_MODE)
    grid = _check_sizes(box, grid, kd)
    band = np.zeros((box.size, 2 * kd + 1), dtype=complex)
    for rows, cols, values in _coefficient_blocks(tau, box, grid):
        band[np.minimum(cols, rows), kd + cols - rows] = values
    return OperatorMatrix(band, box, FOURIER_MODE, kd)


def adjoint(A: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose; basis tag preserved."""
    return OperatorMatrix(A.entries.conj().T.copy(), A.box, A.basis)


def conjugate_by_fourier(A: OperatorMatrix) -> OperatorMatrix:
    """Conjugate a Fourier-mode matrix by the lattice Fourier transform.

    With the pinned conventions F maps the mode e_{-k} to the delta at
    k, so the conjugated matrix is B[n', k] = A[-n', -k]: conjugation
    by the (unitary) negation permutation.  Singular values are
    preserved exactly.
    """
    if A.basis != FOURIER_MODE:
        raise UsageError("conjugate_by_fourier expects a Fourier-mode matrix")
    perm = A.box.negation_permutation()
    return OperatorMatrix(A.entries[np.ix_(perm, perm)], A.box, LATTICE_DELTA)


@dataclass(frozen=True)
class IdentityReport:
    """Entrywise deviation between the directly assembled discrete
    matrix and the Fourier-conjugated adjoint of the toroidal one."""

    full_deviation: float
    interior_deviation: float
    bandwidth: int
    box: TruncationBox
    grid_q: int


def verify_identity(
    sigma: Symbol, box: TruncationBox, grid: QuadratureGrid | None = None
) -> IdentityReport:
    """Check the conjugation identity relating the two quantizations:
    assemble sigma directly, and via flip -> toroidal -> adjoint ->
    Fourier conjugation; report max |difference| over the full matrix
    and over the interior block (indices with |index| <= M - b, where
    b is the observed band width of the discrete matrix)."""
    grid = _check_sizes(box, grid)
    D = assemble_discrete(sigma, box, grid)
    B = conjugate_by_fourier(adjoint(assemble_toroidal(flip(sigma), box, grid)))
    dev = np.abs(D.entries - B.entries)
    full = float(dev.max())

    b = _band_width(D)
    pts = D.box.points()
    interior = np.max(np.abs(pts), axis=1) <= D.box.M - b
    if interior.any():
        inner = float(dev[np.ix_(interior, interior)].max())
    else:
        inner = float("nan")
    return IdentityReport(full, inner, b, box, grid.q)


def _band_width(A: OperatorMatrix, rel_tol: float = 1e-13) -> int:
    """Largest Chebyshev offset |row - col| carrying a significant
    entry; equals the x-Fourier bandwidth for band-limited symbols."""
    pts = A.box.points()
    mags = np.abs(A.entries)
    thr = rel_tol * mags.max()
    rows, cols = np.nonzero(mags > thr)
    if len(rows) == 0:
        return 0
    cheb = np.max(np.abs(pts[rows] - pts[cols]), axis=1)
    return int(cheb.max())


# ---------------------------------------------------------------------------
# Export formats


def write_matrix_csv(path, A: OperatorMatrix) -> None:
    """Entries as `row,col,re,im` with a header, %.17g precision."""
    S = A.box.size
    with open(path, "w", newline="") as fh:
        fh.write("row,col,re,im\n")
        for r, row in enumerate(A.entries):  # one matrix row per formatting call
            _write_csv_rows(fh, "%d,%d,%.17g,%.17g\n", ([r] * S, range(S), row.real, row.imag))


def write_matrix_binary(path, A: OperatorMatrix) -> None:
    """Binary layout: 16-byte header (magic 'NCRM', u32 n, u32 M, u32
    reserved=0, little endian), then row-major float64 interleaved
    re/im pairs."""
    header = BINARY_MAGIC + struct.pack("<III", A.box.n, A.box.M, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(A.entries, dtype="<c16").tobytes())


def read_matrix_binary(path, basis: str = LATTICE_DELTA) -> OperatorMatrix:
    """Inverse of write_matrix_binary (basis is not stored in the file)."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != BINARY_MAGIC:
            raise UsageError(f"{path}: not a matrix file (bad magic)")
        n, M, _ = struct.unpack("<III", header[4:])
        box = TruncationBox(n, M)
        S = box.size
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != S * S:
        raise UsageError(f"{path}: truncated matrix payload")
    return OperatorMatrix(data.reshape(S, S).astype(complex), box, basis)
