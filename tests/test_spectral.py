import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab.errors import UsageError
from nclab.lattice import TruncationBox
from nclab.quantize import FOURIER_MODE, OperatorMatrix
from nclab.spectral import (
    dixmier_quotients,
    l1inf_norm,
    matrix_sequence,
    trace_estimate,
    write_spectrum_csv,
)
from test_writers import diag_2d_spectrum


def harmonic(N):
    return sum(1.0 / j for j in range(1, N + 1))


def svals(A):
    return matrix_sequence(A, symmetrize=False)[0]


def hermitian_eigs(A):
    return matrix_sequence(A, symmetrize=True)[0]


# ---------------------------------------------------------------------------
# singular values


def test_diagonal_reordering():
    s = svals(np.diag([3.0, 1.0, 2.0]))
    assert s.tolist() == [3.0, 2.0, 1.0]


def test_antidiagonal_2x2():
    s = svals(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert s == pytest.approx([2.0, 2.0])


def test_permutation_matrix_all_ones():
    P = np.eye(5)[[3, 0, 4, 1, 2]]
    assert svals(P) == pytest.approx(np.ones(5))


def test_rejects_non_finite():
    # eigvalsh([[nan, 0], [0, 1]]) returns [0, -0] without complaint:
    # the deviation check has to come before the solve
    for symmetrize in (True, False):
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            for where in ((0, 0), (0, 1)):
                A = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
                A[where] = bad
                with pytest.raises(UsageError, match="non-finite"):
                    matrix_sequence(A, symmetrize)


@given(st.integers(2, 6), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_permutation_invariance(size, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    perm = rng.permutation(size)
    P = np.eye(size)[perm]
    sa = svals(A)
    sp = svals(P @ A @ P.T)
    assert np.max(np.abs(sa - sp)) < 1e-13 * max(sa[0], 1.0)


@given(st.floats(-5, 5), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_scale_equivariance(c, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(4, 4))
    sa = svals(A)
    sc = svals(c * A)
    assert np.max(np.abs(sc - abs(c) * sa)) < 1e-12 * max(1.0, abs(c) * sa[0])


def test_positive_diagonal_exact():
    d = np.array([0.5, 4.0, 2.0, 1.0])
    s = svals(np.diag(d))
    assert np.array_equal(s, np.sort(d)[::-1])


# ---------------------------------------------------------------------------
# Hermitian eigenvalues


def test_hermitian_signed():
    w = hermitian_eigs(np.diag([1.0, -1.0]))
    assert w.tolist() == [1.0, -1.0]


def test_hermitian_identity():
    assert hermitian_eigs(np.eye(5)).tolist() == [1.0] * 5


def test_hermitian_part_of_asymmetric_matrix():
    # no rejection: the Hermitian part is solved and the asymmetry reported
    w, deviation, solver = matrix_sequence(np.array([[0.0, 1.0], [0.0, 0.0]]), symmetrize=True)
    assert deviation == 1.0
    assert solver == "dense"
    assert w.tolist() == [0.5, -0.5]


# ---------------------------------------------------------------------------
# banded operators: zhbevd against dense eigvalsh

BANDED = {
    # phased, so the band is complex and A* is not A^T; M keeps 16 kd < S
    "1-D b=1": (1, 10, "(1+0.5*cos(2*pi*x1+0.3))*<xi>^(-1)", None, 1),
    "1-D b=3": (1, 24, "(1+0.5*cos(2*pi*x1+0.3))*<xi>^(-1)", "0.3*sin(2*pi*3*x1+xi1)*<xi>^(-2)", 3),
    "2-D b=1": (2, 10, "(1+0.5*cos(2*pi*x1+0.3))*(1+|xi|^2)^(-1)", None, 1),
}


def banded_operator(case):
    from nclab.dsl import to_symbol
    from nclab.quantize import assemble_toroidal
    from nclab.symbols import flip

    n, M, main, main_im, b = BANDED[case]
    A = assemble_toroidal(flip(to_symbol(main, n=n, order=-n, main_im=main_im)), TruncationBox(n, M))
    assert A.kd == b * sum((2 * M + 1) ** j for j in range(n))  # 1, 3 and 22
    return A


@pytest.mark.parametrize("case", list(BANDED))
def test_banded_solve_matches_dense_eigvalsh(case):
    A = banded_operator(case)
    w, deviation, solver = matrix_sequence(A, symmetrize=True)
    want, want_deviation, want_solver = matrix_sequence(A.entries, symmetrize=True)
    assert (solver, want_solver) == ("banded", "dense")
    assert np.max(np.abs(w - want)) <= 1e-13 * want[0]
    assert deviation == want_deviation
    assert deviation > 0  # the phase leaves a real asymmetry to measure


@pytest.mark.parametrize("case", list(BANDED))
def test_banded_solve_without_lapack_is_the_dense_solve(monkeypatch, case):
    import nclab.spectral as spectral

    A = banded_operator(case)
    monkeypatch.setattr(spectral, "_zhbevd", lambda: None)
    w, deviation, solver = matrix_sequence(A, symmetrize=True)
    want, want_deviation, _ = matrix_sequence(A.entries, symmetrize=True)
    assert solver == "dense"
    assert np.array_equal(w, want)
    assert deviation == want_deviation


def test_banded_solve_converts_a_real_band():
    # zhbevd reads complex128: a float64 band must be converted, not reinterpreted

    A = banded_operator("1-D b=3")
    real = OperatorMatrix(A.data.real.copy(), A.box, A.basis, A.kd)
    w, deviation, solver = matrix_sequence(real, symmetrize=True)
    want, want_deviation, _ = matrix_sequence(real.entries, symmetrize=True)
    assert solver == "banded"
    assert np.max(np.abs(w - want)) <= 1e-13 * want[0]
    assert deviation == want_deviation


@pytest.mark.parametrize("b, kd", [(1, 1), (2, None), (12, None)])
def test_wide_band_is_assembled_dense(b, kd):
    # M = 10, S = 21: half-width b stays a band only for 16 b < 21; at
    # b = 12 > M the band storage would even outgrow the dense matrix
    from nclab.dsl import to_symbol
    from nclab.quantize import assemble_toroidal
    from nclab.symbols import flip

    sigma = to_symbol(f"(1+0.5*cos(2*pi*{b}*x1+0.3))*<xi>^(-1)", n=1, order=-1)
    A = assemble_toroidal(flip(sigma), TruncationBox(1, 10))
    assert A.kd == kd
    w, deviation, solver = matrix_sequence(A, symmetrize=True)
    assert solver == ("dense" if kd is None else "banded")
    want, want_deviation, _ = matrix_sequence(A.entries, symmetrize=True)
    assert np.max(np.abs(w - want)) <= 1e-13 * want[0]
    assert deviation == want_deviation


def test_banded_operator_unsymmetrized_takes_the_dense_svd():
    A = banded_operator("1-D b=1")
    w, deviation, solver = matrix_sequence(A, symmetrize=False)
    want, want_deviation, _ = matrix_sequence(A.entries, symmetrize=False)
    assert solver == "svd"
    assert np.array_equal(w, want)
    assert deviation == want_deviation


@pytest.mark.parametrize("case", ["1-D b=1", "2-D b=1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_banded_solve_rejects_non_finite(case, bad):

    A = banded_operator(case)
    data = A.data.copy()
    data[5, A.kd + 1] = bad
    with pytest.raises(UsageError, match="non-finite"):
        matrix_sequence(OperatorMatrix(data, A.box, A.basis, A.kd), symmetrize=True)


# ---------------------------------------------------------------------------
# diagonal sequences: bands of half-width 0


def diagonal(values):
    """A band of half-width 0 holding values (odd length) on its diagonal,
    the form build_spectrum gives a multiplier's operator."""
    v = np.asarray(values)
    return OperatorMatrix(v[:, None], TruncationBox(1, (len(v) - 1) // 2), FOURIER_MODE, 0)


def test_diagonal_round_off_imaginary_parts_keep_the_sign():
    # symmetrized: the real parts, signed, however small Im v is
    seq, deviation, solver = matrix_sequence(diagonal([0.5, -2000.0, 3.0 + 1e-10j]), symmetrize=True)
    assert seq.tolist() == [3.0, 0.5, -2000.0]
    assert deviation == 2e-10
    assert solver == "diagonal"


def test_unsymmetrized_diagonal_takes_moduli_even_of_real_values():
    # the flag alone picks moduli, as the svd does for an assembled matrix
    seq, deviation, solver = matrix_sequence(diagonal([0.5, -2000.0, 3.0 + 0j]), symmetrize=False)
    assert seq.tolist() == [2000.0, 3.0, 0.5]
    assert deviation == 0.0
    assert solver == "diagonal"


def test_diagonal_deviation_is_the_matrix_deviation_of_the_diagonal():
    k = np.arange(-8.0, 9.0)
    v = np.exp(1j * k) / np.sqrt(1 + k**2)
    for symmetrize in (True, False):
        seq, deviation, _ = matrix_sequence(diagonal(v), symmetrize)
        dense_seq, dense_deviation, _ = matrix_sequence(np.diag(v), symmetrize)
        assert deviation == dense_deviation  # max|A - A*| = 2 max|Im v|
        assert np.max(np.abs(seq - dense_seq)) <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_diagonal_rejects_non_finite(bad):
    for symmetrize in (True, False):
        with pytest.raises(UsageError, match="non-finite"):
            matrix_sequence(diagonal(np.array([1.0, bad, 0.5], dtype=complex)), symmetrize)


def test_symmetrized_tridiagonal_example():
    # symmetrization of the cosine-modulated bracket operator at M=64:
    # eigenvalues real, and the negative part stays above -0.05
    from nclab.dsl import to_symbol
    from nclab.quantize import QuadratureGrid, assemble_toroidal
    from nclab.symbols import flip

    sigma = to_symbol(
        "(1+0.5*cos(2*pi*x1))*<xi>^(-1)", n=1, order=-1,
        classical_terms=[(-1, "1+0.5*cos(2*pi*x1)")],
    )
    A = assemble_toroidal(flip(sigma), TruncationBox(1, 64), QuadratureGrid(1, 512))
    H = 0.5 * (A.entries + A.entries.conj().T)
    w = hermitian_eigs(H)
    assert np.all(np.isreal(w))
    assert np.all(np.diff(w) <= 0)
    assert w[-1] > -0.05


# ---------------------------------------------------------------------------
# Dixmier quotients and the ideal norm


def test_quotient_harmonic_oracle():
    s = np.array([1.0 / j for j in range(1, 11)])
    got = dixmier_quotients(s)
    want_10 = harmonic(10) / math.log(10)  # direct-summation oracle
    assert got[-1] == pytest.approx(want_10, abs=1e-12)
    assert got[-1] == pytest.approx(1.2720, abs=5e-4)


def test_quotient_square_summable_oracle():
    s = np.array([j**-2.0 for j in range(1, 1001)])
    got = dixmier_quotients(s)
    want = sum(s) / math.log(1000)
    assert got[-1] == pytest.approx(want, abs=1e-12)
    assert got[-1] == pytest.approx(0.2380, abs=5e-4)


def test_quotient_zero_sequence():
    got = dixmier_quotients(np.zeros(50))
    assert np.all(got == 0.0)


def test_quotient_needs_two_values():
    with pytest.raises(UsageError):
        dixmier_quotients(np.array([1.0]))


def test_l1inf_harmonic():
    s = np.array([1.0 / j for j in range(1, 10001)])
    # scan oracle: D_N decreasing for the harmonic sequence, sup at N=2
    scan = max(sum(s[:N]) / math.log(N) for N in range(2, 200))
    assert l1inf_norm(s) == pytest.approx(scan, rel=1e-12)
    assert l1inf_norm(s) == pytest.approx(1.5 / math.log(2), abs=1e-6)


def test_l1inf_rank_one():
    s = np.zeros(100)
    s[0] = 1.0
    assert l1inf_norm(s) == pytest.approx(1.0 / math.log(2), abs=1e-12)


def test_l1inf_zero():
    assert l1inf_norm(np.zeros(10)) == 0.0


# ---------------------------------------------------------------------------
# trace estimation


def test_trace_estimate_2_over_j():
    s = 2.0 / np.arange(1, 10001)
    summary = trace_estimate(s, discard_fraction=0.0)
    assert summary.trace_estimate == pytest.approx(2.0, abs=1e-3)
    assert summary.fit_rms < 1e-3


def test_trace_estimate_trace_class_vanishes():
    s = np.arange(1, 10001) ** -2.0
    summary = trace_estimate(s, discard_fraction=0.0)
    assert abs(summary.trace_estimate) < 0.02


def test_trace_estimate_bracket_diagonal():
    # eigenvalue enumeration oracle: diag <k>^-1 over |k| <= 20000
    k = np.arange(-20000, 20001)
    s = np.sort((1.0 + k.astype(float) ** 2) ** -0.5)[::-1]
    summary = trace_estimate(s, discard_fraction=0.0)
    assert summary.trace_estimate == pytest.approx(2.0, abs=0.10)


def test_trace_estimate_scales_linearly():
    s = 1.0 / np.arange(1, 2001)
    c1 = trace_estimate(s, discard_fraction=0.0).trace_estimate
    c3 = trace_estimate(3.0 * s, discard_fraction=0.0).trace_estimate
    assert c3 == pytest.approx(3.0 * c1, rel=1e-12)


def test_trace_estimate_window_checks():
    with pytest.raises(UsageError):
        trace_estimate(np.ones(30), discard_fraction=0.9)  # usable too short
    with pytest.raises(UsageError):
        trace_estimate(np.ones(100), discard_fraction=0.5, window_fraction=(0.5, 0.4))


def polyfit_trace_estimate(s, discard_fraction, window_fraction=(0.2, 1.0)):
    """(slope, intercept, fit_rms, stability_span) with np.polyfit on
    each window, over the window trace_estimate picked."""
    N0, N1 = trace_estimate(s, discard_fraction, window_fraction).fit_window
    sums = np.cumsum(s)

    def fit(a0, a1):
        N = np.arange(a0, a1 + 1)
        x, y = np.log(N), sums[N - 1]
        c, b = np.polyfit(x, y, 1)
        return c, b, np.sqrt(np.mean((y - (c * x + b)) ** 2))

    c, b, rms = fit(N0, N1)
    W = N1 - N0
    Ws = max(2, W // 2)
    starts = [N0 + (j * (W - Ws)) // 4 for j in range(5)]
    slopes = [fit(a0, a0 + Ws)[0] for a0 in starts]
    return c, b, rms, max(slopes) - min(slopes)


def band_1d_spectrum():
    """The eigenvalues of the band-1d benchmark workload's operator:
    (1 + 0.6 cos(2 pi x1 + 0.8)) <xi>^(-1) at M = 256 (513 values)."""
    from nclab.dsl import to_symbol
    from nclab.pipeline import build_spectrum

    sigma = to_symbol("(1+0.6*cos(2*pi*x1+0.8))*<xi>^(-1)", n=1, order=-1)
    return build_spectrum(sigma, 1, 256).sequence


@pytest.mark.parametrize(
    "spectrum, discard, window",
    [
        (lambda: 2.0 / np.arange(1, 10001), 0.0, (0.2, 1.0)),
        (diag_2d_spectrum, 0.0, (0.2, 1.0)),
        (band_1d_spectrum, 0.5, (0.2, 1.0)),
        (lambda: 2.0 / np.arange(1, 21), 0.0, (0.8, 1.0)),  # [16, 20]: N1 - N0 = 4
    ],
    ids=["harmonic", "diag-2d", "band-1d", "shortest-window"],
)
def test_trace_estimate_matches_polyfit(spectrum, discard, window):
    s = spectrum()
    summary = trace_estimate(s, discard, window)
    c, b, rms, span = polyfit_trace_estimate(s, discard, window)
    scale = np.max(np.abs(np.cumsum(s)))
    assert summary.trace_estimate == pytest.approx(c, rel=1e-12)
    assert summary.intercept == pytest.approx(b, rel=1e-12)
    assert summary.fit_rms == pytest.approx(rms, rel=0, abs=1e-12 * scale)
    assert summary.stability_span == pytest.approx(span, rel=0, abs=1e-12 * scale)


def test_partial_sums_monotone_and_quotients_decreasing():
    s = 1.0 / np.arange(1, 5001)
    assert np.all(np.diff(np.cumsum(s)) >= 0)
    assert np.all(np.diff(dixmier_quotients(s)) <= 1e-15)


def test_write_spectrum_csv(tmp_path):
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, np.array([1.0, 0.5, 0.25]))
    lines = path.read_text().splitlines()
    assert lines[0] == "N,s_N,S_N,D_N"
    assert lines[1].startswith("1,1,1,nan")
    n, s, S, D = lines[2].split(",")
    assert float(D) == pytest.approx(1.5 / math.log(2))
