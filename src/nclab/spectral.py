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
falls back to dense eigvalsh.  A band of half-width 0 (any x-free
symbol's operator) needs no solver on any platform: its diagonal is
sorted in O(S log S).  Every sequence is sorted NONINCREASING (largest
first; the partial sums only capture the logarithmic divergence that
way), and a non-finite entry raises UsageError instead of returning a
sequence built from it.

The trace functional targeted here is the limit of S_N / log N where
S_N is the N-th partial sum of that sequence.  Natural logarithm
throughout.

Rather than reading off the raw quotient D_N = S_N / ln N, the
estimator fits the least-squares line S_N ~ c ln N + b over N in
[0.2 L, L] of the usable length L, in closed form (affine_fit): the
affine fit cancels the O(1) intercept (Euler-Mascheroni-type
constants), so c converges one log-order faster than D_N.  For
spectra obtained from box-truncated operators only the head of the
spectrum is reliable (boundary modes corrupt the small singular
values), hence pipeline.SpectrumRun.fit's discard of the trailing
half; exactly enumerated diagonal spectra need no discard.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

from .errors import NonConvergenceError, UsageError
from .record import Record

# Spectrum rows per chunk of write_spectrum_csv: one chunk's partial
# sums, quotients and text are alive at a time, so memory stays flat in
# the spectrum length and the input sequence is the only S-length array
# the writer touches.
_CSV_CHUNK_ROWS = 1024


class SpectralSummary(Record):
    """Trace estimate and diagnostics from a log fit of partial sums."""

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
    A band of half-width 0 is read off its diagonal d ("diagonal"):
    Re d or |d| sorted, with deviation 2 max|Im d|.  A non-finite entry
    raises UsageError before any solve."""
    kd = getattr(A, "kd", None)
    if kd == 0:
        d = A.data[:, 0]
        if not np.isfinite(float(np.max(np.abs(d)))):
            raise UsageError("matrix has non-finite entries")
        seq = d.real if symmetrize else np.abs(d)
        return np.sort(seq)[::-1].copy(), 2.0 * float(np.max(np.abs(d.imag))), "diagonal"
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
    discard_fraction: float,
    window_fraction: tuple[float, float] = (0.2, 1.0),
) -> SpectralSummary:
    """Fit S_N ~ c ln N + b over N in [ceil(f0*L), floor(f1*L)] where
    L = floor((1-d)*len); the slope c estimates the Dixmier trace.

    Also reports the fit residual RMS and a stability span: the spread
    of c over 5 sliding half-width sub-windows.  The discard has no
    default here: pipeline.SpectrumRun.fit resolves it per path.
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
    logs = np.log(np.arange(1, N1 + 1))  # logs[N - 1] = ln N

    def fit(a0: int, a1: int) -> tuple[float, float, float]:
        return affine_fit(logs[a0 - 1 : a1], sums[a0 - 1 : a1])

    c, b, rms = fit(N0, N1)

    # stability: 5 half-width windows sliding across [N0, N1]
    W = N1 - N0
    Ws = max(2, W // 2)
    slopes = []
    for j in range(5):
        a0 = N0 + (j * (W - Ws)) // 4
        slopes.append(fit(a0, a0 + Ws)[0])
    span = float(max(slopes) - min(slopes))

    return SpectralSummary(
        trace_estimate=c,
        intercept=b,
        fit_window=(N0, N1),
        fit_rms=rms,
        stability_span=span,
    )


def affine_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept over paired samples
    (at least 2, not all x equal), in closed form about the means:
    slope = sum(dx dy) / sum(dx^2) with dx = x - mean(x),
    dy = y - mean(y), intercept = mean(y) - slope * mean(x).  Returns
    (slope, intercept, rms of the residuals y - (slope x + intercept))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float(dx @ (y - y_mean) / (dx @ dx))
    intercept = float(y_mean - slope * x_mean)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return slope, intercept, rms


def write_spectrum_csv(path, s) -> None:
    """Columns N, s_N, S_N, D_N (header row, %.17g; D_1 is nan).

    S_N and D_N are made one chunk of _CSV_CHUNK_ROWS rows at a time,
    so the writer holds one chunk besides the input: its memory is flat
    in the spectrum length.  A chunk's S_N is np.cumsum of the chunk
    with the previous chunk's last S_N prepended, the same sequential
    additions as one np.cumsum over the input, so the bits are the
    same.  Each chunk of rows is written with a single bytes `%` call;
    the arrays go through tolist(), so floats format as Python floats
    (the same ASCII text as a per-value f-string).  A sorted spectrum
    repeats its values, so s_N is formatted once per run of adjacent
    values with the same bit pattern (0.0 and -0.0 format apart) and
    the text reused for the run."""
    v = np.asarray(s, dtype=float)
    sums = None
    with open(path, "wb") as fh:
        fh.write(b"N,s_N,S_N,D_N\n")
        for start in range(0, len(v), _CSV_CHUNK_ROWS):
            chunk = v[start : start + _CSV_CHUNK_ROWS]
            stop = start + len(chunk)
            sums = np.cumsum(chunk) if sums is None else np.cumsum(np.r_[sums[-1], chunk])[1:]
            with np.errstate(divide="ignore", invalid="ignore"):  # S_1 / ln 1, replaced below
                quotients = sums / np.log(np.arange(start + 1, stop + 1))
            if start == 0:
                quotients[0] = np.nan
            bits = chunk.view(np.int64)
            run_start = np.r_[True, bits[1:] != bits[:-1]]
            texts = np.array([b"%.17g" % x for x in chunk[run_start].tolist()], dtype=object)
            flat = [None] * (4 * (stop - start))
            flat[0::4] = range(start + 1, stop + 1)
            flat[1::4] = texts[np.cumsum(run_start) - 1].tolist()
            flat[2::4] = sums.tolist()
            flat[3::4] = quotients.tolist()
            fh.write((b"%d,%s,%.17g,%.17g\n" * (stop - start)) % tuple(flat))
