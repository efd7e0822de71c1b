"""The CSV writers against the per-row loops they replaced.

The reference writers below format one row at a time from numpy
scalars into a text-mode file; the spectrum writer streams its partial
sums and quotients a chunk of rows at a time, formats each chunk in
one bytes `%` call into a binary file and each run of repeated values
once.  The matrix writers take a slab of rows at a time from
OperatorMatrix.rows(), dense or banded; the CSV writer formats only
the span of each row between its first and last entry that is not
+0.0 + 0.0j.  The files must stay byte-identical, and the matrix files
must not depend on the storage or on the slab size.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nclab import quantize, spectral
from nclab.dsl import to_symbol
from nclab.lattice import TruncationBox
from nclab.quantize import (
    LATTICE_DELTA,
    OperatorMatrix,
    assemble_discrete,
    write_matrix_binary,
    write_matrix_csv,
)
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


@pytest.mark.parametrize("length", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1])
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


@pytest.mark.parametrize(
    "v",
    [
        np.array([1.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -1.0]),
        np.r_[np.full(CHUNK - 3, 2.0), np.full(7, 0.5), np.full(CHUNK, 0.25)],
        np.full(2 * CHUNK + 5, 1.0 / 3.0),
    ],
    ids=["signed-zeros", "run-across-chunks", "one-value"],
)
def test_spectrum_csv_matches_row_loop_on_repeated_values(tmp_path, v):
    assert same_bytes(tmp_path, write_spectrum_csv, reference_spectrum_csv, v)


def test_spectrum_csv_matches_row_loop_on_diag_2d(tmp_path):
    v = diag_2d_spectrum()
    assert same_bytes(tmp_path, write_spectrum_csv, reference_spectrum_csv, v)
    # the vectorised quotients equal the per-row scalar divisions exactly
    sums = np.cumsum(v)
    quotients = spectral._quotients(sums)
    per_row = np.array([sums[i - 1] / np.log(i) for i in range(2, len(v) + 1)])
    assert np.array_equal(quotients, per_row)


def non_finite_mid_stream():
    """Signed values with inf, nan and -0.0 past the first rows: the
    partial sums turn inf, then nan, and carry both on."""
    v = np.random.default_rng(29).standard_normal(40)
    v[[3, 11, 12]] = -0.0
    v[17] = np.inf
    v[23] = np.nan
    v[30] = -0.0
    return v


@pytest.mark.parametrize("chunk_rows", [1, 7, "S"])
@pytest.mark.parametrize("spectrum", [diag_2d_spectrum, non_finite_mid_stream], ids=["diag-2d", "non-finite"])
def test_spectrum_csv_carries_the_partial_sum_across_chunks(tmp_path, monkeypatch, spectrum, chunk_rows):
    """S_N continues from the previous chunk's last partial sum: chunks
    of 1 row, of 7 rows (which divide neither 40,401 nor 40) and of
    all S rows give the row loop's file."""
    v = spectrum()
    monkeypatch.setattr(spectral, "_CSV_CHUNK_ROWS", len(v) if chunk_rows == "S" else chunk_rows)
    assert same_bytes(tmp_path, write_spectrum_csv, reference_spectrum_csv, v)


def test_spectrum_csv_peak_memory_is_flat_in_the_spectrum_length(tmp_path):
    """The writer holds one chunk of partial sums and quotients, not
    S-length arrays: its traced peak on 200,001 values stays below
    half the 8 S bytes of the input (about 0.2 x 8 S; four S-length
    float arrays and more when S_N and D_N are built whole)."""
    S = 200_001
    v = 1.0 / (1.3 + np.sqrt(np.arange(S, dtype=float)))
    tracemalloc.start()
    try:
        write_spectrum_csv(tmp_path / "spectrum.csv", v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * S


def test_spectrum_csv_takes_a_str_or_a_path(tmp_path):
    v = diag_2d_spectrum()[: CHUNK + 1]
    reference_spectrum_csv(tmp_path / "ref.csv", v)
    for path in (str(tmp_path / "str.csv"), tmp_path / "path.csv"):
        write_spectrum_csv(path, v)
        assert Path(path).read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


def signed_zero_band(S):
    """A tridiagonal S x S matrix whose entries cover each way a part
    can be zero: both +0.0 (off the band), (0.0, -0.0), (-0.0, 0.0),
    (0.0, x), (x, -0.0), plus nan and inf parts."""
    rng = np.random.default_rng(S)
    entries = np.zeros((S, S), dtype=complex)
    i = np.arange(S)
    for d in (-1, 0, 1):
        rows = i[max(0, -d) : S - max(0, d)]
        entries[rows, rows + d] = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    entries[0, 0] = complex(0.0, -0.0)
    entries[1, 0] = complex(-0.0, 0.0)
    entries[1, 1] = complex(0.0, 2.5)
    entries[2, 3] = complex(-1e-300, -0.0)
    entries[3, 3] = complex(np.nan, 1.0)
    entries[4, 5] = complex(-np.inf, np.inf)
    entries[S - 1, 0] = complex(0.0, -0.0)  # far off the band
    return entries


def dense_matrix(S):
    rng = np.random.default_rng(S)
    entries = rng.standard_normal((S, S)) + 1j * rng.standard_normal((S, S))
    entries *= np.logspace(-8, 8, S)  # sixteen decades of magnitude
    return entries


@pytest.mark.parametrize(
    "M, entries",
    [
        (32, signed_zero_band),
        (32, lambda S: np.zeros((S, S), dtype=complex)),
        (32, dense_matrix),
        (0, lambda S: np.zeros((S, S), dtype=complex)),
        (0, lambda S: np.full((S, S), complex(-0.0, 0.0))),
    ],
    ids=["signed-zero-band", "all-zero", "dense", "single-zero", "single-negative-zero"],
)
def test_matrix_csv_matches_row_loop_on_zero_patterns(tmp_path, M, entries):
    box = TruncationBox(1, M)
    A = OperatorMatrix(entries(box.size), box, LATTICE_DELTA)
    assert same_bytes(tmp_path, write_matrix_csv, reference_matrix_csv, A)


def test_matrix_csv_matches_row_loop_on_identity_export(tmp_path):
    """The matrix of the identity-export benchmark workload at seed 7:
    the discrete quantization of (1 + a cos(2 pi x1 + p)) <xi>^(-1) on
    [-128, 128], tridiagonal, with the imaginary part +0.0 on its
    diagonal."""
    x_part = "1+0.6191064812546355*cos(2*pi*x1+0.7882100926471682)"
    sigma = to_symbol(f"({x_part})*<xi>^(-1)", n=1, order=-1)
    A = assemble_discrete(sigma, TruncationBox(1, 128))
    bits = A.entries.view(np.uint64).reshape(257, 257, 2)
    assert bits.any(axis=2).sum() == 769  # 3 * 257 - 2: the tridiagonal
    assert same_bytes(tmp_path, write_matrix_csv, reference_matrix_csv, A)


def as_band(entries, box, kd):
    """entries [i, j] with |i - j| <= kd in band storage of half-width kd."""
    A = OperatorMatrix(np.zeros((box.size, 2 * kd + 1), dtype=complex), box, LATTICE_DELTA, kd)
    rows, cols = A.slots()
    inside = (rows < box.size) & (cols < box.size)
    A.data[inside] = entries[rows[inside], cols[inside]]
    return A


def signed_zero_band_kd1():
    box = TruncationBox(1, 32)
    return as_band(signed_zero_band(box.size), box, 1)


def band_2d():
    # a product across the axes: reach 1, kd = 1 + 17 over the row stride 17
    sigma = to_symbol("(1+0.5*cos(2*pi*x1)*cos(2*pi*x2))*(1+|xi|^2)^(-1)", n=2, order=-2)
    return assemble_discrete(sigma, TruncationBox(2, 8))


def diagonal():
    return assemble_discrete(to_symbol("<xi>^(-1)", n=1, order=-1), TruncationBox(1, 20))


@pytest.mark.parametrize("slab_rows", [None, 1, 7, "S"])
@pytest.mark.parametrize(
    "matrix, kd",
    [(signed_zero_band_kd1, 1), (band_2d, 18), (diagonal, 0)],
    ids=["signed-zero-band", "2d-band", "diagonal"],
)
def test_matrix_writers_on_band_storage(tmp_path, monkeypatch, matrix, kd, slab_rows):
    """Both files of a band match the reference writer on .entries and
    the files of its dense copy, at the default slab size and at slabs
    of 1 row, of 7 rows (which divide none of S = 65, 289 and 41) and
    of all S rows; every slab equals its rows of .entries."""
    A = matrix()
    S = A.box.size
    assert A.kd == kd
    if slab_rows is not None:
        monkeypatch.setattr(quantize, "_SLAB_BYTES", 16 * S * (S if slab_rows == "S" else slab_rows))
    step = max(1, quantize._SLAB_BYTES // (16 * S))
    entries = A.entries
    for start in range(0, S, step):  # bit for bit: signed zeros and nan included
        got = np.ascontiguousarray(A.rows(start, min(start + step, S)))
        assert got.tobytes() == entries[start : start + step].tobytes()
    dense = OperatorMatrix(entries, A.box, LATTICE_DELTA)
    assert same_bytes(tmp_path, write_matrix_csv, reference_matrix_csv, A)
    write_matrix_csv(tmp_path / "dense.csv", dense)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()
    write_matrix_binary(tmp_path / "band.bin", A)
    write_matrix_binary(tmp_path / "dense.bin", dense)
    payload = (tmp_path / "band.bin").read_bytes()
    assert payload[16:] == entries.astype("<c16").tobytes()
    assert payload == (tmp_path / "dense.bin").read_bytes()

