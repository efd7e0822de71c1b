"""The chunked CSV writers against the per-row loops they replaced.

The reference writers below format one row at a time from numpy
scalars; the package writers format a chunk of rows in one call.  The
files must stay byte-identical.
"""

import numpy as np
import pytest

from nclab import spectral
from nclab.lattice import TruncationBox
from nclab.quantize import LATTICE_DELTA, OperatorMatrix, write_matrix_csv
from nclab.spectral import write_spectrum_csv

CHUNK = spectral._CSV_CHUNK_ROWS


def reference_spectrum_csv(path, v) -> None:
    v = np.asarray(v, dtype=float)
    sums = np.cumsum(v)
    with open(path, "w", newline="") as fh:
        fh.write("N,s_N,S_N,D_N\n")
        for i, (sv, Sv) in enumerate(zip(v, sums), start=1):
            d = sums[i - 1] / np.log(i) if i >= 2 else float("nan")
            fh.write(f"{i},{sv:.17g},{Sv:.17g},{d:.17g}\n")


def reference_matrix_csv(path, A) -> None:
    S = A.box.size
    rows, cols = np.divmod(np.arange(S * S), S)
    re = A.entries.real.ravel()
    im = A.entries.imag.ravel()
    with open(path, "w", newline="") as fh:
        fh.write("row,col,re,im\n")
        for r, c, a, b in zip(rows, cols, re, im):
            fh.write(f"{r},{c},{a:.17g},{b:.17g}\n")


def same_bytes(tmp_path, writer, reference, arg) -> bool:
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    writer(new, arg)
    reference(ref, arg)
    return new.read_bytes() == ref.read_bytes()


def diag_2d_spectrum():
    """The spectrum of the diag-2d benchmark workload: (c+|k|^2)^(-1)
    over the box [-100, 100]^2, sorted nonincreasing (40,401 values)."""
    k = np.arange(-100, 101, dtype=float)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    return np.sort(1.0 / (1.3 + k1.ravel() ** 2 + k2.ravel() ** 2))[::-1].copy()


@pytest.mark.parametrize("length", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1])
def test_spectrum_csv_matches_row_loop(tmp_path, length):
    # signed values over ten decades, and a negative zero
    v = np.random.default_rng(length).standard_normal(length) * np.logspace(-5, 5, length)
    if length >= 2:
        v[1] = -0.0
    assert same_bytes(tmp_path, write_spectrum_csv, reference_spectrum_csv, v)


def test_spectrum_csv_matches_row_loop_on_non_finite_values(tmp_path):
    v = np.array([np.inf, 1.0, -0.0, -2.5, 1e-300, -1e300])
    assert same_bytes(tmp_path, write_spectrum_csv, reference_spectrum_csv, v)
    v = np.array([3.0, np.nan, 0.5, -0.0, 5e-324])
    assert same_bytes(tmp_path, write_spectrum_csv, reference_spectrum_csv, v)


def test_spectrum_csv_matches_row_loop_on_diag_2d(tmp_path):
    v = diag_2d_spectrum()
    assert same_bytes(tmp_path, write_spectrum_csv, reference_spectrum_csv, v)
    # the vectorised quotients equal the per-row scalar divisions exactly
    sums = np.cumsum(v)
    quotients = spectral._quotients(sums)
    per_row = np.array([sums[i - 1] / np.log(i) for i in range(2, len(v) + 1)])
    assert np.array_equal(quotients, per_row)


@pytest.mark.parametrize("M", [0, 1])  # S = 1 and S = 3
def test_matrix_csv_matches_row_loop(tmp_path, M):
    box = TruncationBox(1, M)
    S = box.size
    rng = np.random.default_rng(S)
    entries = rng.standard_normal((S, S)) + 1j * rng.standard_normal((S, S))
    entries.imag[0, 0] = -0.0
    if S > 1:
        entries.imag[1, 2] = 0.0
        entries.real[2, 1] = -0.0
        entries[2, 2] = complex(1e-310, -1e300)
    A = OperatorMatrix(entries, box, LATTICE_DELTA)
    assert same_bytes(tmp_path, write_matrix_csv, reference_matrix_csv, A)
