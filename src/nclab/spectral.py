"""Sequence from operator, Dixmier partial sums/quotients, and trace
estimation by logarithmic fit.

This module owns every step from an operator to the sequence the fit
reads.  matrix_sequence takes an assembled matrix: it measures the
Hermiticity deviation max|A - A*| once, then returns the eigenvalues
of the Hermitian part (A + A*)/2 or the singular values, and names the
solver it picked from the matrix's structure.  A banded operator
(quantize.OperatorMatrix with a half-width kd) keeps its band: the
deviation and the Hermitian part are formed on it, and LAPACK's zhbevd
solves it in O(S^2 kd) time and O(S kd) memory instead of the dense
eigvalsh's O(S^3) and S^2 (for kd = 1 its reduction is an O(S) phase
scaling, and the O(S^2) tridiagonal QR dominates).  zhbevd comes from
the OpenBLAS that numpy's wheel bundles (numpy.libs), bound through
ctypes at the first banded solve; a numpy build without that library
falls back to dense eigvalsh.
diagonal_sequence takes the values of a diagonal operator: their real
parts when the imaginary parts are round-off, their moduli otherwise.
Both sort NONINCREASING (largest first; the partial sums only capture
the logarithmic divergence that way) and raise UsageError on a
non-finite entry or value instead of returning a sequence built from
it.

The trace functional targeted here is the limit of S_N / log N where
S_N is the N-th partial sum of that sequence.  Natural logarithm
throughout.

Rather than reading off the raw quotient D_N = S_N / ln N, the
estimator fits S_N ~ c ln N + b by least squares: the affine fit
cancels the O(1) intercept (Euler-Mascheroni-type constants), so c
converges one log-order faster than D_N.  For spectra obtained from
box-truncated operators only the head of the spectrum is reliable
(boundary modes corrupt the small singular values), hence the default
discard of the trailing half; exactly enumerated diagonal spectra need
no discard.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, UsageError

# Spectrum rows per formatting call of write_spectrum_csv: one chunk's
# text and values are alive at a time, so memory stays flat in the
# spectrum length.
_CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SpectralSummary:
    """Trace estimate and diagnostics from a log fit of partial sums."""

    values: np.ndarray  # the (sorted, possibly signed) sequence used
    partial_sums: np.ndarray
    quotients: np.ndarray  # D_N for N = 2..len
    l1inf: float
    trace_estimate: float
    intercept: float
    fit_window: tuple[int, int]
    fit_rms: float
    stability_span: float


def matrix_sequence(A, symmetrize: bool) -> tuple[np.ndarray, float, str]:
    """The nonincreasing sequence of a square matrix (an OperatorMatrix,
    dense or banded, or a plain 2-d array), its Hermiticity deviation
    max|A - A*| and the solver that produced it: the eigenvalues of the
    Hermitian part (A + A*)/2 when symmetrize, the singular values of
    the dense matrix ("svd") otherwise.  A banded operator's Hermitian
    part is solved in band storage by zhbevd ("banded"); a dense one,
    or any when numpy's LAPACK is not at hand, by eigvalsh ("dense").
    A non-finite entry makes the deviation non-finite, which raises
    UsageError before any solve."""
    kd = getattr(A, "kd", None)
    zhbevd = _zhbevd() if kd is not None and symmetrize else None
    if zhbevd is None:
        entries = np.asarray(getattr(A, "entries", A))
        deviation = _hermiticity_deviation(entries, entries.conj().T)
        if symmetrize:
            H = 0.5 * (entries + entries.conj().T)
            return np.linalg.eigvalsh(H)[::-1].copy(), deviation, "dense"
        return np.linalg.svd(entries, compute_uv=False), deviation, "svd"
    # A and A* in one band layout, zero past the band as dense A - A* is
    lower, adjoint = A.lower_bands()
    deviation = _hermiticity_deviation(lower, adjoint)
    # a C-ordered complex (S, kd+1) array is LAPACK's column-major lower band
    H = np.ascontiguousarray(0.5 * (lower + adjoint), dtype=complex)
    S = len(H)
    w, z = np.empty(S), np.empty(1, dtype=complex)  # z is not referenced for jobz = N
    info = zhbevd(_LAPACK_COL_MAJOR, b"N", b"L", S, kd, H.ctypes.data, kd + 1, w.ctypes.data, z.ctypes.data, 1)
    if info != 0:
        raise NonConvergenceError(f"LAPACK zhbevd failed (info {info})")
    return w[::-1].copy(), deviation, "banded"


def _hermiticity_deviation(A: np.ndarray, adjoint: np.ndarray) -> float:
    """max|A - A*|, given A and A* in the same layout; a non-finite
    result (NaN or inf entries always give one) raises UsageError."""
    with np.errstate(invalid="ignore"):  # inf - inf is reported below
        deviation = float(np.max(np.abs(A - adjoint)))
    if not np.isfinite(deviation):
        raise UsageError("matrix has non-finite entries")
    return deviation


_LAPACK_COL_MAJOR = 102


@functools.cache
def _zhbevd():
    """LAPACKE's zhbevd (64-bit integers) from the OpenBLAS that numpy's
    wheel bundles in numpy.libs, with argument types declared; None
    when this numpy build ships no such library or symbol."""
    folder = os.path.dirname(np.__file__) + ".libs"
    try:
        name = next(f for f in sorted(os.listdir(folder)) if f.startswith("libscipy_openblas64_"))
        zhbevd = ctypes.CDLL(os.path.join(folder, name)).scipy_LAPACKE_zhbevd64_
    except (OSError, StopIteration, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    zhbevd.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, i64, ptr, i64, ptr, ptr, i64)
    zhbevd.restype = i64
    return zhbevd


def diagonal_sequence(values) -> tuple[np.ndarray, float]:
    """The nonincreasing sequence of a diagonal operator from its
    diagonal values, and the largest imaginary part it dropped: the
    real parts when every imaginary part is within
    1e-12 * max(1, max|v|) (reported as 0), the moduli otherwise.  A
    non-finite value raises UsageError."""
    values = np.asarray(values)
    top = float(np.max(np.abs(values)))
    if not np.isfinite(top):
        raise UsageError("diagonal has non-finite values")
    imag = float(np.max(np.abs(values.imag)))
    if imag <= 1e-12 * max(1.0, top):
        return np.sort(values.real)[::-1].copy(), 0.0
    return np.sort(np.abs(values))[::-1].copy(), imag


def dixmier_quotients(s) -> np.ndarray:
    """D_N = (sum of the first N values) / ln N for N = 2..len."""
    v = np.asarray(s, dtype=float)
    if len(v) < 2:
        raise UsageError("need at least 2 singular values")
    return _quotients(np.cumsum(v))


def _quotients(sums: np.ndarray) -> np.ndarray:
    """D_N = S_N / ln N for N = 2..len(sums), from the partial sums."""
    return sums[1:] / np.log(np.arange(2, len(sums) + 1))


def l1inf_norm(s) -> float:
    """Finite-truncation proxy of the Dixmier-ideal norm:
    max over available N >= 2 of D_N."""
    return float(np.max(dixmier_quotients(s)))


def trace_estimate(
    s,
    window_fraction: tuple[float, float] = (0.2, 1.0),
    discard_fraction: float = 0.5,
) -> SpectralSummary:
    """Fit S_N ~ c ln N + b over N in [ceil(f0*L), floor(f1*L)] where
    L = floor((1-d)*len); the slope c estimates the Dixmier trace.

    Also reports the fit residual RMS and a stability span: the spread
    of c over 5 sliding half-width sub-windows.  Use discard_fraction
    0.5 for SVD spectra of truncated operators and 0.0 for exactly
    enumerated diagonal spectra.
    """
    v = np.asarray(s, dtype=float)
    f0, f1 = window_fraction
    if not (0.0 <= f0 < f1 <= 1.0):
        raise UsageError(f"bad window fractions ({f0}, {f1})")
    if not (0.0 <= discard_fraction < 1.0):
        raise UsageError(f"bad discard fraction {discard_fraction}")
    L = int(np.floor((1.0 - discard_fraction) * len(v)))
    if L < 20:
        raise UsageError(f"usable length {L} < 20: spectrum too short for a fit")
    N0 = max(2, int(np.ceil(f0 * L)))
    N1 = int(np.floor(f1 * L))
    if N1 - N0 < 4:
        raise UsageError(f"fit window [{N0}, {N1}] too small")

    sums = np.cumsum(v)
    c, b, rms = _affine_logfit(sums, N0, N1)

    # stability: 5 half-width windows sliding across [N0, N1]
    W = N1 - N0
    Ws = max(2, W // 2)
    slopes = []
    for j in range(5):
        a0 = N0 + (j * (W - Ws)) // 4
        cj, _, _ = _affine_logfit(sums, a0, a0 + Ws)
        slopes.append(cj)
    span = float(max(slopes) - min(slopes))

    quotients = _quotients(sums)  # len(v) >= L >= 20, so never empty
    return SpectralSummary(
        values=v,
        partial_sums=sums,
        quotients=quotients,
        l1inf=float(np.max(quotients)),
        trace_estimate=c,
        intercept=b,
        fit_window=(N0, N1),
        fit_rms=rms,
        stability_span=span,
    )


def _affine_logfit(sums: np.ndarray, N0: int, N1: int) -> tuple[float, float, float]:
    N = np.arange(N0, N1 + 1)
    x = np.log(N)
    y = sums[N - 1]
    c, b = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (c * x + b)) ** 2)))
    return float(c), float(b), rms


def write_spectrum_csv(path, s) -> None:
    """Columns N, s_N, S_N, D_N (header row, %.17g; D_1 is nan)."""
    v = np.asarray(s, dtype=float)
    sums = np.cumsum(v)
    quotients = np.full(len(v), np.nan)
    quotients[1:] = _quotients(sums)
    with open(path, "w", newline="") as fh:
        fh.write("N,s_N,S_N,D_N\n")
        for start in range(0, len(v), _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, len(v))
            _write_csv_rows(
                fh,
                "%d,%.17g,%.17g,%.17g\n",
                (range(start + 1, stop + 1), v[start:stop], sums[start:stop], quotients[start:stop]),
            )


def _write_csv_rows(fh, row_format: str, columns) -> None:
    """Write one line per index i, `row_format % (c[i] for c in columns)`,
    with a single `%` call for all lines.  Columns are equal-length
    ranges, lists or 1-d arrays; arrays go through tolist(), so floats
    format as Python floats (the same text as a per-value f-string)."""
    width, rows = len(columns), len(columns[0])
    flat = [None] * (width * rows)
    for j, col in enumerate(columns):
        flat[j::width] = col.tolist() if isinstance(col, np.ndarray) else col
    fh.write((row_format * rows) % tuple(flat))
