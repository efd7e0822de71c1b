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
lattice transform is the index negation B[n', k] = A[-n', -k], which
reverses both axes of the box enumeration (see lattice); combined
with the adjoint and the flip map it reproduces the discrete matrix
exactly (up to quadrature roundoff), which verify_identity measures.

Torus integrals use the tensor rectangle rule per axis, i.e. the DFT of
each row's (column's) samples over the grid, read at the offsets that
reach the box; this is exact for trigonometric polynomials of degree
< Q/2 and spectrally accurate otherwise.

A symbol of x-bandwidth b (Symbol.x_bandwidth, inf when no band is
known) has reach r = min(b, 2M) on the box [-M, M]^n: entry [eta, m]
vanishes unless |eta - m|_inf <= r.  Assembly reads every symbol at
the in-box offsets of the stencil |d|_inf <= r, sampled on the grid
sampling_grid picks: (2r+2)^n when r < 2M (a band-limited symbol),
whose rule is exact for a trigonometric polynomial of degree r, and
otherwise Q^n, Q >= 4M+2 (default_grid_size(M) unless the caller
passes a grid).  That grid's Q is the one the reports name.

With r < 2M every nonzero entry lies within index distance
kd = r * sum(TruncationBox.strides) of the diagonal: a tap d of the
stencil moves an index by d @ strides.  When that band is narrow
(BAND_RATIO * kd < S, so never for r = 2M) both assemblers write the
kernel's in-band entries straight into band storage of half-width kd
(OperatorMatrix.kd) and never allocate the S x S matrix; .entries
materialises it for the consumers that need it dense, such as the
singular values, and the matrix export reads a slab of rows at a time
(OperatorMatrix.rows).  A wider band is assembled dense: its banded
solve would be slower than the dense one.  flip keeps the x-bandwidth,
so a symbol and its flip share one storage, and verify_identity
compares the two quantizations in it.

Both quantizations assemble block-wise: a block of B consecutive box
points evaluates the symbol once, on first arguments of shape
(B, 1, n) against the grid of shape (1, P, n) with P = Q^n or
(2r+2)^n.  A band (r < 2M) whose (P, T) tap matrix, T = (2r+1)^n, has
at most TAP_PRODUCT_ENTRIES entries multiplies each point's P samples
by it: one small DFT product per point, evaluated only at the T taps
and with no numpy.fft.  Reach 2M, and a band past that bound, run one
batched FFT over the grid axes and read the taps.  B * P stays within
lattice.BLOCK_POINTS (B >= 1), so a block's temporaries stay near
40 * BLOCK_POINTS bytes: the real samples, their complex copy and the
B * T < B * P coefficients (or the FFT's B * P).  Rows (columns) are
independent and each point's product is its own, so the block size
never changes a matrix entry (one (B, P) @ (P, T) product for the
whole block would: BLAS partitions it by B).
"""

from __future__ import annotations

import functools
import os
import struct

import numpy as np

from .errors import UsageError
from .lattice import BLOCK_POINTS, TruncationBox, check_memory, check_torus_grid, torus_grid
from .record import Record
from .symbols import DISCRETE, TOROIDAL, Symbol, evaluate, flip

LATTICE_DELTA = "lattice_delta"
FOURIER_MODE = "fourier_mode"

BINARY_MAGIC = b"NCRM"

# A toroidal operator of band half-width kd is kept in band storage only
# when BAND_RATIO * kd < S, chosen by measurement: on one BLAS thread
# zhbevd's band reduction overtook the dense eigvalsh near kd = S/16
# (S = 513 and 2049 in 1-D, S = 2401 in 2-D), and up to kd = S/2 it
# took 2 to 4 times as long.  Past 2kd + 1 = S the band would also
# outgrow the dense matrix.
BAND_RATIO = 16

# A band's coefficients come from a product with its (P, T) tap matrix
# (P = (2r+2)^n grid points, T = (2r+1)^n taps) when P * T is at most
# this many entries, and from the FFT past it.  The product takes
# P * T multiply-adds a point against the FFT's O(P log P).  Per point,
# on one BLAS thread (2-CPU x86-64), it took 0.15 to 0.5 times the warm
# FFT's time up to P * T = 1728, about as long at 8100 (2-D, r = 4),
# 1.5 times as long (+0.9 us) at 6642 (1-D, r = 40) and 3 to 7 times
# as long past 30,000.  Below the bound a call imports no numpy.fft,
# which costs 1 to 2.4 ms a process.
TAP_PRODUCT_ENTRIES = 2**13

# Bytes of rows (at least one row) the matrix writers make and write at once.
_SLAB_BYTES = 2**16

# verify_identity's observed band width counts an entry as significant
# above this fraction of the largest |entry|.
BAND_REL_TOL = 1e-13


class QuadratureGrid(Record):
    """Uniform torus grid: Q points per axis at j/Q, weight Q^-n."""

    n: int
    q: int

    def __post_init__(self):
        if self.q < 2 or self.q % 2:
            raise UsageError(f"grid size must be even and >= 2, got {self.q}")

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


class OperatorMatrix(Record):
    """Complex S x S matrix plus the index maps tying rows/columns to
    the box enumeration, in either basis.

    data is the dense matrix when kd is None.  Otherwise it is the band
    of half-width kd as an (S, 2kd+1) array with
    data[min(i, j), kd + i - j] = A[i, j]: column kd + m holds the m-th
    subdiagonal by column index, column kd - m the m-th superdiagonal
    by row index.  Entries with |i - j| > kd and the slots past the
    matrix's edge are zero.  Only this class reads that layout:
    consumers take .entries, rows(), lower_bands(), slots(),
    reversed_transpose() or transposed()."""

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

    def slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col), each of data's shape: data[s] holds entry
        [row[s], col[s]], or a zero when the slot lies past the
        matrix's edge (row or col >= S).  Broadcast views, which take
        no memory, for dense storage."""
        S, shape = self.box.size, self.data.shape
        if self.kd is None:
            index = np.arange(S)
            return np.broadcast_to(index[:, None], shape), np.broadcast_to(index, shape)
        first = np.arange(S)[:, None]
        offset = np.arange(-self.kd, self.kd + 1)
        return first + np.maximum(offset, 0), first - np.minimum(offset, 0)

    @staticmethod
    @functools.cache
    def _band_reads(kd: int) -> np.ndarray:
        """Offsets from i (2kd + 1) in flat band storage of entries [i, i - o],
        o = kd .. -kd: data[i - max(o, 0), kd + o], before data where i < o."""
        o = np.arange(kd, -kd - 1, -1)
        return kd + o - (2 * kd + 1) * np.maximum(o, 0)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start to stop - 1 of the dense matrix: a view of data for
        dense storage, else a new array made by one gather (_band_reads)
        and one store into rows padded on both sides by kd for a band past
        the edge, else by 0: row r at r (L - 1), its band at first + r L."""
        if self.kd is None:
            return self.data[start:stop]
        S, kd, B = self.box.size, self.kd, stop - start
        pad = kd if start < kd or stop > S - kd else 0
        W, L, first = 2 * kd + 1, S + 2 * pad + 1, start - kd + pad
        slots = np.arange(start * W, stop * W, W)[:, None] + self._band_reads(kd)
        buf = np.zeros(B * L + S, dtype=complex)
        buf[first : first + B * L].reshape(B, L)[:, :W] = self.data.reshape(-1).take(slots, mode="clip")
        return buf[: B * (L - 1)].reshape(B, L - 1)[:, pad : pad + S]

    @property
    def entries(self) -> np.ndarray:
        """rows(0, S): data, or a new array built from the band on each
        access (refused when larger than physical memory)."""
        if self.kd is not None:
            check_dense(self.box)
        return self.rows(0, self.box.size)

    def reversed_transpose(self) -> np.ndarray:
        """J A^T J, J the reversal of the box enumeration, in this
        matrix's storage: entry [i, j] is A[S-1-j, S-1-i], at the same
        offset i - j.  A view of data for dense storage; for a band,
        column kd + o holds the first S - |o| rows of data's column
        kd + o reversed, then zeros."""
        if self.kd is None:
            return self.data[::-1, ::-1].T
        out = np.zeros_like(self.data)
        for col in range(2 * self.kd + 1):
            length = self.box.size - abs(col - self.kd)
            out[:length, col] = self.data[length - 1 :: -1, col]
        return out

    def transposed(self, x: np.ndarray) -> np.ndarray:
        """x transposed in this storage, a view: a band's columns reversed."""
        return x.T if self.kd is None else x[:, ::-1]

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
    symbol of x-bandwidth b (inf when unknown)."""
    return int(min(sym.x_bandwidth, 2 * box.M))


def check_dense(box: TruncationBox) -> None:
    """Refuse a dense S x S complex matrix larger than physical memory."""
    S = box.size
    check_memory(16 * S * S, f"a dense {S} x {S} complex matrix")


def sampling_grid(sym: Symbol, box: TruncationBox, grid: QuadratureGrid | None = None) -> QuadratureGrid:
    """The grid assembly samples sym on over box: (2r + 2)^n for a band
    (reach r < 2M), whatever grid is given; otherwise grid, by default
    default_grid_size(M) points per axis, refused below the 4M + 2
    points that keep offsets up to 2M distinct."""
    if grid is not None and grid.n != box.n:
        raise UsageError("grid and box dimensions differ")
    reach = _reach(sym, box)
    if reach < 2 * box.M:
        return QuadratureGrid(box.n, 2 * reach + 2)
    if grid is None:
        return QuadratureGrid(box.n, default_grid_size(box.M))
    if grid.q < 4 * box.M + 2:
        raise UsageError(
            f"grid size {grid.q} undersized: offsets up to {2 * box.M} per axis "
            f"need at least {4 * box.M + 2} points to stay distinct"
        )
    return grid


def _stencil_taps(q: int, stencil: np.ndarray) -> np.ndarray:
    """The (q^n, T) matrix exp(-2 pi i j.d / q) / q^n that reads the
    q^n-point DFT of grid samples at the T stencil taps d.  Phases come
    from the integer residues j.d mod q: float phases (j/q).d lose an
    order of magnitude in accuracy by q = 82.  The q-th roots of unity
    are mirrored, roots[q - m] = conj(roots[m]) with roots[q/2] = -1, so
    the taps d and -d weigh the samples by exact conjugates, as the
    FFT's twiddle factors do."""
    n = stencil.shape[1]
    j = np.indices((q,) * n).reshape(n, -1).T  # grid indices, lexicographic
    half = np.exp(-2j * np.pi * np.arange(q // 2 + 1) / q)
    half[-1] = -1.0
    roots = np.concatenate([half, half[-2:0:-1].conj()])
    return roots[(j @ stencil.T) % q] / q**n


def _coefficient_blocks(sym: Symbol, box: TruncationBox, grid: QuadratureGrid, reach: int):
    """Yield (rows, cols, values) over consecutive runs of box points
    p_i: values[k] is the Fourier coefficient of x -> sym(p_i, x) at
    the offset d = p_j - p_i, i = rows[k] and j = cols[k], for every
    in-box p_j in the stencil |d|_inf <= reach.  That is entry [i, j]
    of the discrete matrix and [j, i] of the toroidal one; every other
    entry is zero.  The samples lie on grid (sampling_grid).  A band
    whose tap matrix (_stencil_taps) holds at most TAP_PRODUCT_ENTRIES
    entries multiplies each point's samples by it; any other reach runs
    a batched FFT per block and reads it at the taps."""
    n, M = box.n, box.M
    Q = grid.q
    check_torus_grid(n, Q)
    shape = (Q,) * n
    P = Q**n
    axis_offsets = np.arange(-reach, reach + 1)
    stencil = TruncationBox(n, reach).points()
    if reach < 2 * M and P * len(stencil) <= TAP_PRODUCT_ENTRIES:
        taps = _stencil_taps(Q, stencil)

        def transform(samples):
            # one product per point: no entry depends on the block size
            return (samples[:, None, :] @ taps)[:, 0]

    else:
        flat = np.ravel_multi_index(tuple(np.mod(stencil, Q).T), shape)

        def transform(samples):
            coeff = np.fft.fftn(samples.reshape((-1,) + shape), axes=tuple(range(1, n + 1)))
            return np.take(coeff.reshape(-1, P), flat, axis=1) / P

    shift = stencil @ box.strides  # tap d moves an index by shift[d]
    box_pts = box.points()
    x = grid.points()[None]
    per_block = max(1, BLOCK_POINTS // P)
    for start in range(0, box.size, per_block):
        pts = box_pts[start : start + per_block]
        B = len(pts)
        # tap d reaches a box point iff every axis stays in [-M, M]
        axis_ok = np.abs(pts[:, :, None] + axis_offsets) <= M
        inside = axis_ok[:, 0]
        for j in range(1, n):
            inside = (inside[:, :, None] & axis_ok[:, j, None, :]).reshape(B, -1)
        rows = np.arange(start, start + B)[:, None]
        # a pole or overflow in the samples is reported once, as the
        # solve's non-finite-entry error, not as numpy warnings here
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            samples = evaluate(sym.func, pts.astype(float)[:, None, :], x, (B, P))
            values = transform(samples)[inside]
        del samples  # keep one block's temporaries alive at a time
        yield np.broadcast_to(rows, inside.shape)[inside], (rows + shift)[inside], values


def _assemble(
    sym: Symbol, box: TruncationBox, grid: QuadratureGrid | None, side: str, basis: str
) -> OperatorMatrix:
    """Both quantizations: _coefficient_blocks' values at [i, j] of the
    discrete matrix, at [j, i] of the toroidal one.  Held as the band of
    half-width kd (OperatorMatrix.kd) when BAND_RATIO * kd < S, dense
    otherwise."""
    if sym.side != side:
        raise UsageError(f"assemble_{side} expects a {side}-side symbol")
    reach = _reach(sym, box)
    grid = sampling_grid(sym, box, grid)
    S = box.size
    kd = reach * int(sum(box.strides))
    if BAND_RATIO * kd >= S:  # reach 2M always lands here: kd = S - 1
        kd = None
    # refuse the storage before anything is allocated
    if kd is None:
        check_dense(box)
    else:
        check_memory(16 * S * (2 * kd + 1), f"a band of {S} x {2 * kd + 1} complex entries")
    out = np.zeros((S, S) if kd is None else (S, 2 * kd + 1), dtype=complex)
    for rows, cols, values in _coefficient_blocks(sym, box, grid, reach):
        if basis == FOURIER_MODE:
            rows, cols = cols, rows
        if kd is None:
            out[rows, cols] = values
        else:
            out[np.minimum(rows, cols), kd + rows - cols] = values
    return OperatorMatrix(out, box, basis, kd)


def assemble_discrete(
    sigma: Symbol, box: TruncationBox, grid: QuadratureGrid | None = None
) -> OperatorMatrix:
    """Matrix of the discrete quantization of sigma(n', xi) in the
    standard l2 basis: row n' is the DFT of xi -> sigma(n', xi), read
    at offsets k - n'.  Held as its band (OperatorMatrix.kd) when
    BAND_RATIO * kd < S, dense otherwise."""
    return _assemble(sigma, box, grid, DISCRETE, LATTICE_DELTA)


def assemble_toroidal(
    tau: Symbol, box: TruncationBox, grid: QuadratureGrid | None = None
) -> OperatorMatrix:
    """Matrix of the toroidal quantization of tau(x, k) in the Fourier
    basis: column m holds the x-Fourier coefficients of tau(., m) at
    offsets eta - m.  Held as its band (OperatorMatrix.kd) when
    BAND_RATIO * kd < S, dense otherwise."""
    return _assemble(tau, box, grid, TOROIDAL, FOURIER_MODE)


def adjoint(A: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose in A's storage; basis tag preserved."""
    return OperatorMatrix(np.conj(A.transposed(A.data), order="C"), A.box, A.basis, A.kd)


def conjugate_by_fourier(A: OperatorMatrix) -> OperatorMatrix:
    """Conjugate a Fourier-mode matrix by the lattice Fourier transform.

    With the pinned conventions F maps the mode e_{-k} to the delta at
    k, so the conjugated matrix is B[n', k] = A[-n', -k]: conjugation
    by the (unitary) negation permutation, which in the box enumeration
    reverses both axes.  Singular values are preserved exactly.  A band
    stays a band."""
    if A.basis != FOURIER_MODE:
        raise UsageError("conjugate_by_fourier expects a Fourier-mode matrix")
    return OperatorMatrix(A.transposed(A.reversed_transpose()).copy(), A.box, LATTICE_DELTA, A.kd)


class IdentityReport(Record):
    """Entrywise deviation between the directly assembled discrete
    matrix and the Fourier-conjugated adjoint of the toroidal one, both
    read in their common storage (band or dense): entries past a band
    are zero on both sides.  interior_deviation is None when no index
    lies in the interior; grid_q is the Q of the grid both were sampled
    on (sampling_grid)."""

    full_deviation: float
    interior_deviation: float | None
    bandwidth: int
    grid_q: int


def verify_identity(
    sigma: Symbol, box: TruncationBox, grid: QuadratureGrid | None = None
) -> IdentityReport:
    """Check the conjugation identity relating the two quantizations:
    assemble sigma directly, and via flip -> toroidal -> adjoint ->
    Fourier conjugation; report max |difference| over the full matrix
    and over the interior block (indices with |index| <= M - b, where
    b is the largest Chebyshev offset |row - col| of an entry of the
    discrete matrix above BAND_REL_TOL times its largest |entry|: the
    x-Fourier bandwidth for band-limited symbols).

    D and the toroidal matrix T share one storage (flip keeps the
    x-bandwidth), so the two are refused together, before T is
    assembled, when twice D's storage outgrows physical memory.
    B[n', k] = conj(T[-k, -n']) is read off T's storage by
    reversed_transpose, and D - B is formed in D's array: dense storage
    holds two S x S complex arrays at most."""
    grid = sampling_grid(sigma, box, grid)  # flip keeps the x-bandwidth: T's grid too
    D = assemble_discrete(sigma, box, grid)
    check_memory(2 * D.data.nbytes, "holding the discrete and the toroidal matrix at once")
    rows, cols = D.slots()
    pts = box.points()
    mags = np.abs(D.data)
    significant = np.nonzero(mags > BAND_REL_TOL * mags.max())
    del mags
    b = int(np.max(np.abs(pts[rows[significant]] - pts[cols[significant]]), initial=0))

    T = assemble_toroidal(flip(sigma), box, grid)
    np.conjugate(T.data, out=T.data)
    diff = D.data
    del D
    np.subtract(diff, T.reversed_transpose(), out=diff)
    del T
    dev = np.abs(diff)
    del diff
    full = float(dev.max())

    interior = np.max(np.abs(pts), axis=1) <= box.M - b
    # a slot past the edge, clipped to the last point, holds a zero deviation
    inner = dev[interior.take(rows, mode="clip") & interior.take(cols, mode="clip")]
    return IdentityReport(full, float(inner.max()) if inner.size else None, b, grid.q)


# ---------------------------------------------------------------------------
# Export formats


def _slabs(A: OperatorMatrix):
    """(start, rows start .. start + B - 1) of A, B = max(1,
    _SLAB_BYTES // 16S), in order, as C-contiguous complex arrays."""
    S = A.box.size
    step = max(1, _SLAB_BYTES // (16 * S))
    for start in range(0, S, step):
        yield start, np.ascontiguousarray(A.rows(start, min(start + step, S)), dtype=complex)


def write_matrix_csv(path, A: OperatorMatrix) -> None:
    """All S^2 entries as `row,col,re,im` with a header, %.17g precision.

    Line c of row r reads `r,c,0,0` for an entry whose parts are both
    +0.0, else `r,c,%.17g,%.17g` (-0.0, nan and inf parts included).
    A row is the all-zero row body with the span from its first to its
    last other entry spliced in, formatted from its line templates by
    one `%`; one replace puts in the row label.  A slab is one write."""
    S = A.box.size
    zero = [b"\0,%d,0,0\n" % c for c in range(S)]  # \0 stands for the row label
    nonzero = [b"\0,%d,%%.17g,%%.17g\n" % c for c in range(S)]
    body = memoryview(b"".join(zero))
    line_start = np.cumsum([0] + [len(line) for line in zero]).tolist()
    with open(path, "wb") as fh:
        fh.write(b"row,col,re,im\n")
        for start, slab in _slabs(A):
            bits = slab.view(np.uint64)  # +0.0 + 0.0j iff both parts' bits are 0
            r_idx, c_idx = np.nonzero(bits[:, 0::2] | bits[:, 1::2])
            # the parts interleave as re, im: the order of the placeholders
            values, cols = slab[r_idx, c_idx].view(np.float64).tolist(), c_idx.tolist()
            parts, k = [], 0
            for r, count in enumerate(np.bincount(r_idx, minlength=len(slab)).tolist(), start):
                span_cols = cols[k : k + count]
                first, last = (span_cols[0], span_cols[-1]) if count else (0, -1)
                lines = zero[first : last + 1]
                for c in span_cols:
                    lines[c - first] = nonzero[c]
                span = b"".join(lines) % tuple(values[2 * k : 2 * (k + count)])
                row = b"".join((body[: line_start[first]], span, body[line_start[last + 1] :]))
                parts.append(row.replace(b"\0", b"%d" % r))
                k += count
            fh.write(b"".join(parts))


def write_matrix_binary(path, A: OperatorMatrix) -> None:
    """Binary layout: 16-byte header (magic 'NCRM', u32 n, u32 M, u32
    reserved=0, little endian), then row-major float64 interleaved
    re/im pairs, written a slab at a time."""
    header = BINARY_MAGIC + struct.pack("<III", A.box.n, A.box.M, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        for _, slab in _slabs(A):
            fh.write(slab.astype("<c16", copy=False).data)


def read_matrix_binary(path, basis: str = LATTICE_DELTA) -> OperatorMatrix:
    """Inverse of write_matrix_binary (basis is not stored in the file)."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != BINARY_MAGIC:
            raise UsageError(f"{path}: not a matrix file (bad magic)")
        n, M, _ = struct.unpack("<III", header[4:])
        box = TruncationBox(n, M)
        S = box.size
        extra = os.fstat(fh.fileno()).st_size - 16 - 16 * S * S
        if extra:
            raise UsageError(f"{path}: truncated matrix payload" if extra < 0 else f"{path}: {extra} bytes past the matrix payload")
        # read straight into the (writable) array: one copy of the payload
        data = np.fromfile(fh, dtype="<c16")
    return OperatorMatrix(data.reshape(S, S), box, basis)
