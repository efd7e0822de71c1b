"""Singular values, Dixmier partial sums/quotients, and trace
estimation by logarithmic fit.

The trace functional targeted here is the limit of S_N / log N where
S_N is the N-th partial sum of the singular values sorted in
NONINCREASING order (largest first; the partial sums only capture the
logarithmic divergence that way).  Natural logarithm throughout.

Rather than reading off the raw quotient D_N = S_N / ln N, the
estimator fits S_N ~ c ln N + b by least squares: the affine fit
cancels the O(1) intercept (Euler-Mascheroni-type constants), so c
converges one log-order faster than D_N.  For spectra obtained from
SVD of box-truncated operators only the head of the spectrum is
reliable (boundary modes corrupt the small singular values), hence the
default discard of the trailing half; exactly enumerated diagonal
spectra need no discard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

# Spectrum rows per formatting call of write_spectrum_csv: one chunk's
# text and values are alive at a time, so memory stays flat in the
# spectrum length.
_CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SingularSpectrum:
    """Nonincreasing nonnegative singular values of a matrix."""

    values: np.ndarray
    source_size: int

    def __post_init__(self):
        v = self.values
        if np.any(v < 0):
            raise UsageError("singular values must be nonnegative")
        if np.any(np.diff(v) > 1e-12 * max(1.0, float(v[0]) if len(v) else 1.0)):
            raise UsageError("singular values must be sorted nonincreasing")

    def __len__(self):
        return len(self.values)


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


def _values_of(s) -> np.ndarray:
    if isinstance(s, SingularSpectrum):
        return s.values
    return np.asarray(s, dtype=float)


def singular_values(A) -> SingularSpectrum:
    """Singular values (square roots of the spectrum of A*A), sorted
    nonincreasing; accepts an OperatorMatrix or a plain 2-d array."""
    entries = np.asarray(getattr(A, "entries", A))
    if not np.all(np.isfinite(entries)):
        raise UsageError("matrix has non-finite entries")
    vals = np.linalg.svd(entries, compute_uv=False)
    return SingularSpectrum(vals, entries.shape[0])


def eigenvalues_hermitian(A, tol_factor: float = 1e-10) -> np.ndarray:
    """Real eigenvalues of a (numerically) Hermitian matrix, sorted
    nonincreasing.  Rejects matrices whose max asymmetry exceeds
    tol_factor times the max entry magnitude."""
    entries = np.asarray(getattr(A, "entries", A))
    asym = float(np.max(np.abs(entries - entries.conj().T)))
    scale = float(np.max(np.abs(entries))) or 1.0
    if asym > tol_factor * scale:
        raise UsageError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} "
            f"exceeds {tol_factor:.1e} * max entry {scale:.3e}"
        )
    return np.linalg.eigvalsh(entries)[::-1].copy()


def dixmier_quotients(s) -> np.ndarray:
    """D_N = (sum of the first N values) / ln N for N = 2..len."""
    v = _values_of(s)
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
    v = _values_of(s)
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
    v = _values_of(s)
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
