import struct
import time
import tracemalloc

import numpy as np
import pytest

from nclab import lattice, quantize
from nclab.dsl import to_symbol
from nclab.errors import UsageError
from nclab.lattice import TruncationBox
from nclab.quantize import (
    BINARY_MAGIC,
    FOURIER_MODE,
    LATTICE_DELTA,
    OperatorMatrix,
    QuadratureGrid,
    adjoint,
    assemble_discrete,
    assemble_toroidal,
    conjugate_by_fourier,
    default_grid_size,
    read_matrix_binary,
    sampling_grid,
    verify_identity,
    write_matrix_binary,
    write_matrix_csv,
)
from nclab.symbols import TOROIDAL, Symbol, finite_modify, flip, regularize_at_origin


def cosine_bracket(n=1):
    return to_symbol(
        "(1+0.5*cos(2*pi*x1))*<xi>^(-1)",
        n=n,
        order=-1,
        classical_terms=[(-1, "1+0.5*cos(2*pi*x1)")],
    )


def symbol_samples(func, point, Q):
    """func(point, x) at the Q nodes x = j/Q, one scalar call per node."""
    return [complex(np.asarray(func(np.array([float(point)]), np.array([x]))).reshape(())) for x in np.arange(Q) / Q]


def direct_discrete_entry(sigma, nprime, k, Q, samples=None):
    """Independent oracle: rectangle-rule sum, no FFT.  samples are
    symbol_samples(sigma.func, nprime, Q), taken here when not given."""
    xs = np.arange(Q) / Q
    if samples is None:
        samples = symbol_samples(sigma.func, nprime, Q)
    total = 0.0 + 0.0j
    for x, v in zip(xs, samples):
        total += v * np.exp(2j * np.pi * (nprime - k) * x)
    return total / Q


def direct_toroidal_entry(tau, eta, m, Q, samples=None):
    """As direct_discrete_entry, with samples symbol_samples(tau.func, m, Q)."""
    xs = np.arange(Q) / Q
    if samples is None:
        samples = symbol_samples(tau.func, m, Q)
    total = 0.0 + 0.0j
    for x, v in zip(xs, samples):
        total += v * np.exp(-2j * np.pi * (eta - m) * x)
    return total / Q


# ---------------------------------------------------------------------------
# discrete assembly


def test_constant_symbol_gives_identity():
    sigma = to_symbol("1", n=1, order=0)
    for M, q in ((0, 4), (0, 64), (2, 10), (8, 64), (8, 128), (8, 1024)):
        A = assemble_discrete(sigma, TruncationBox(1, M), QuadratureGrid(1, q))
        assert np.max(np.abs(A.entries - np.eye(2 * M + 1))) < 1e-14


def test_frequency_independent_symbol_is_diagonal():
    sigma = to_symbol("<xi>^(-1)", n=1, order=-1)
    box = TruncationBox(1, 6)
    A = assemble_discrete(sigma, box)
    k = box.points()[:, 0].astype(float)
    want = np.diag((1 + k * k) ** -0.5)
    assert np.max(np.abs(A.entries - want)) < 1e-13


def test_single_character_is_shift():
    # sigma(n', xi) = e^{2 pi i xi}: entry [n', k] = 1 iff k = n'+1
    sigma = Symbol(lambda f, x: np.exp(2j * np.pi * np.asarray(x)[..., 0]), order=0)
    box = TruncationBox(1, 3)
    A = assemble_discrete(sigma, box, QuadratureGrid(1, 64))
    want = np.zeros((7, 7), dtype=complex)
    for i, npr in enumerate(box.points()[:, 0]):
        if abs(npr + 1) <= 3:
            want[i, box.index_of([npr + 1])] = 1.0
    assert np.max(np.abs(A.entries - want)) < 1e-13


def test_discrete_against_direct_summation():
    sigma = cosine_bracket()
    box = TruncationBox(1, 3)
    Q = 64
    A = assemble_discrete(sigma, box, QuadratureGrid(1, Q))
    pts = box.points()[:, 0]
    for i, npr in enumerate(pts):
        for j, k in enumerate(pts):
            want = direct_discrete_entry(sigma, npr, k, Q)
            assert A.entries[i, j] == pytest.approx(want, abs=1e-13)


def test_undersized_or_odd_grid_rejected():
    # no known band: assembly samples the caller's grid, which needs 4M + 2 points
    sigma = to_symbol("exp(cos(2*pi*x1))", n=1, order=0)
    box = TruncationBox(1, 16)
    with pytest.raises(UsageError, match="grid size 64 undersized"):
        assemble_discrete(sigma, box, QuadratureGrid(1, 64))  # < 4M+2
    with pytest.raises(UsageError):
        QuadratureGrid(1, 65)
    # a band samples its own 2r + 2 grid: of the caller's grid only the dimension is read
    band, box = cosine_bracket(), TruncationBox(1, 64)
    A = assemble_discrete(band, box, QuadratureGrid(1, 4))
    assert A.kd == 1 and np.array_equal(A.data, assemble_discrete(band, box).data)
    with pytest.raises(UsageError, match="dimensions differ"):
        assemble_discrete(band, box, QuadratureGrid(2, 4))


def test_default_grid_size():
    assert default_grid_size(0) == 64
    assert default_grid_size(64) == 1024  # 4*(129) = 516 -> 1024
    assert default_grid_size(1024) == 16384


# ---------------------------------------------------------------------------
# toroidal assembly


def test_multiplier_is_diagonal():
    tau = to_symbol("<xi>^(-1)", n=1, order=-1, side=TOROIDAL)
    box = TruncationBox(1, 5)
    A = assemble_toroidal(tau, box)
    k = box.points()[:, 0].astype(float)
    assert np.max(np.abs(A.entries - np.diag((1 + k * k) ** -0.5))) < 1e-13


def test_single_mode_is_raising_shift():
    tau = Symbol(lambda f, x: np.exp(2j * np.pi * np.asarray(x)[..., 0]), order=0, side=TOROIDAL)
    box = TruncationBox(1, 3)
    A = assemble_toroidal(tau, box, QuadratureGrid(1, 64))
    want = np.zeros((7, 7), dtype=complex)
    for j, m in enumerate(box.points()[:, 0]):
        if abs(m + 1) <= 3:
            want[box.index_of([m + 1]), j] = 1.0
    assert np.max(np.abs(A.entries - want)) < 1e-13


def test_tridiagonal_example_against_integration_oracle():
    tau = flip(cosine_bracket())
    box = TruncationBox(1, 4)
    Q = 64
    A = assemble_toroidal(tau, box, QuadratureGrid(1, Q))
    pts = box.points()[:, 0]
    for i, eta in enumerate(pts):
        for j, m in enumerate(pts):
            want = direct_toroidal_entry(tau, eta, m, Q)
            assert A.entries[i, j] == pytest.approx(want, abs=1e-13)
    # structure: diagonal <m>^-1, off-diagonals [m+-1, m] = <m>^-1 / 4
    for j, m in enumerate(pts):
        bm = (1.0 + m * m) ** -0.5
        assert A.entries[j, j] == pytest.approx(bm, abs=1e-13)
        if j + 1 < len(pts):
            assert A.entries[j + 1, j] == pytest.approx(bm / 4, abs=1e-13)
            assert A.entries[j, j + 1] == pytest.approx((1 + pts[j + 1] ** 2) ** -0.5 / 4, abs=1e-13)


def test_banded_for_trig_polynomial_symbol():
    tau = flip(cosine_bracket())
    box = TruncationBox(1, 8)
    A = assemble_toroidal(tau, box, QuadratureGrid(1, 128))
    pts = box.points()[:, 0]
    for i in range(len(pts)):
        for j in range(len(pts)):
            if abs(pts[i] - pts[j]) > 1:
                # zero outside the band up to roundoff of the sampled cosine
                assert abs(A.entries[i, j]) < 1e-15


def test_hermitian_asymmetry_decays_one_order_faster():
    # off-diagonal asymmetry |<m>^-1 - <m+1>^-1|/4 = O(m^-2)
    tau = flip(cosine_bracket())
    box = TruncationBox(1, 64)
    A = assemble_toroidal(tau, box, QuadratureGrid(1, 512))
    pts = box.points()[:, 0]
    H = A.entries - A.entries.conj().T
    for j, m in enumerate(pts[:-1]):
        expect = abs((1 + m**2) ** -0.5 - (1 + (m + 1) ** 2) ** -0.5) / 4
        assert abs(H[j + 1, j]) == pytest.approx(expect, abs=1e-12)
        if abs(m) >= 8:
            assert abs(H[j + 1, j]) <= 0.3 * float(abs(m)) ** -2


# ---------------------------------------------------------------------------
# block-wise assembly


def column_loop(func, box, grid):
    """Reference assembly, one symbol call and one FFT per lattice point:
    column j holds the coefficients of x -> func(p_j, x) at offsets
    box - p_j.  This is the matrix of a toroidal symbol and the
    transposed matrix of a discrete one."""
    Q, n = grid.q, box.n
    shape = (Q,) * n
    pts = grid.points()
    box_pts = box.points()
    out = np.empty((box.size, box.size), dtype=complex)
    for j, p in enumerate(box_pts):
        vals = np.broadcast_to(np.asarray(func(p.astype(float), pts)), (len(pts),))
        coeff = np.fft.fftn(vals.astype(complex).reshape(shape)) / Q**n
        offsets = np.mod(box_pts - p, Q)
        out[:, j] = coeff.ravel()[np.ravel_multi_index(tuple(offsets.T), shape)]
    return out


def both_quantizations(sigma, box, grid):
    return (
        assemble_discrete(sigma, box, grid).entries,
        assemble_toroidal(flip(sigma), box, grid).entries,
    )


@pytest.mark.parametrize("n", [1, 2])
def test_patched_symbols_assemble_like_the_column_loop(n):
    base = to_symbol(
        "(1+0.5*cos(2*pi*x1))/|xi|",
        n=n,
        order=-1,
        classical_terms=[(-1, "1+0.5*cos(2*pi*x1)")],
    )
    origin, unit = (0,) * n, (1,) + (0,) * (n - 1)
    box, grid = TruncationBox(n, 3), QuadratureGrid(n, 16)
    pts = box.points()
    beyond = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1) > 1
    for sigma in (finite_modify(base, {origin: 3.0, unit: -1j}), regularize_at_origin(base, n)):
        # the same func of unknown bandwidth takes the full Q-point rule
        D, T = both_quantizations(Symbol(sigma.func, sigma.order), box, grid)
        assert np.array_equal(D, column_loop(sigma.func, box, grid).T)
        assert np.array_equal(T, column_loop(flip(sigma).func, box, grid))
        # the patch keeps b = 1: the band sampled on 4 points per axis
        assert sigma.x_bandwidth == 1
        for band, full in zip(both_quantizations(sigma, box, grid), (D, T)):
            assert np.max(np.abs(band - full)[~beyond]) <= 1e-15 * np.max(np.abs(full))
            assert not np.any(band[beyond])


@pytest.mark.parametrize(
    "n, M, q, expr",
    [
        (1, 6, 32, "(1+0.5*cos(2*pi*x1))*<xi>^(-1)"),
        (2, 2, 16, "(1+0.5*cos(2*pi*x1))*(1+0.25*sin(2*pi*x2))*(1+|xi|^2)^(-1)"),
    ],
)
def test_block_size_does_not_change_the_matrices(monkeypatch, n, M, q, expr):
    box, grid = TruncationBox(n, M), QuadratureGrid(n, q)
    symbols = (
        to_symbol(expr, n=n, order=-n),
        Symbol(lambda first, x: 1.5 - 0.5j, order=0),  # plain callable, scalar result
    )
    results = []
    # one point per block, three lattice points per block, everything in one block
    for points in (1, 3 * q**n, box.size * q**n):
        monkeypatch.setattr(quantize, "BLOCK_POINTS", points)
        results.append([m for s in symbols for m in both_quantizations(s, box, grid)])
    for got in results[1:]:
        for a, b in zip(results[0], got):
            assert np.array_equal(a, b)
    D, T = results[0][2:]
    assert np.max(np.abs(D - (1.5 - 0.5j) * np.eye(box.size))) < 1e-14
    assert np.max(np.abs(T - (1.5 + 0.5j) * np.eye(box.size))) < 1e-14


@pytest.mark.parametrize(
    "n, M, q, main, main_im, b",
    [
        (1, 8, 64, "(1+0.5*cos(2*pi*x1+0.3))*<xi>^(-1)", None, 1),
        (1, 8, 64, "(1+0.5*cos(2*pi*x1))^2*<xi>^(-1)", "sin(2*pi*3*x1+xi1)*<xi>^(-2)", 3),
        # products across axes: exact zeros past the largest per-axis degree
        (2, 3, 16, "(1+0.5*cos(2*pi*x1)*sin(2*pi*x2+xi1))*(1+|xi|^2)^(-1)", None, 1),
        (2, 3, 16, "cos(2*pi*x1)*cos(2*pi*x2)*(1+|xi|^2)^(-1)", None, 1),
        (2, 3, 16, "cos(2*pi*x1)^2*cos(2*pi*x2)*(1+|xi|^2)^(-1)", None, 2),
        (2, 3, 16, "(1+|xi|^2)^(-1)", "cos(2*pi*(x1-x2))*<xi>^(-3)", 1),
    ],
)
def test_band_assembly_matches_the_full_rule(n, M, q, main, main_im, b):
    # the same func as an opaque Symbol takes the full Q-point rule
    sigma = to_symbol(main, n=n, order=-n, main_im=main_im)
    box, grid = TruncationBox(n, M), QuadratureGrid(n, q)
    pts = box.points()
    in_band = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1) <= b
    band = both_quantizations(sigma, box, grid)
    full = both_quantizations(Symbol(sigma.func, sigma.order), box, grid)
    for got, want in zip(band, full):
        assert np.max(np.abs(got - want)[in_band]) <= 1e-15 * np.max(np.abs(want))
        assert np.all(got[~in_band] == 0)
    assert sigma.x_bandwidth == b


@pytest.mark.parametrize(
    "main",
    ["cos(2*pi*2*x1)*<xi>^(-1)", "exp(cos(2*pi*x1))*<xi>^(-1)", "exp(0.3*cos(2*pi*x1))*<xi>^(-1)"],
)
def test_reach_of_2m_or_more_runs_the_full_rule(main):
    # b = 2 >= 2M, and no known band (b = inf), in 1-D and 2-D: the
    # stencil gather on the Q^n grid equals the one-column reference
    for n in (1, 2):
        sigma = to_symbol(main, n=n, order=-1)
        box, grid = TruncationBox(n, 1), QuadratureGrid(n, 8)
        D, T = both_quantizations(sigma, box, grid)
        assert np.array_equal(D, column_loop(sigma.func, box, grid).T)
        assert np.array_equal(T, column_loop(flip(sigma).func, box, grid))
        assert sigma.x_bandwidth >= 2


@pytest.mark.parametrize(
    "n, M, main, b",
    [
        (1, 12, "(1+0.5*cos(2*pi*16*x1))*<xi>^(-1)", 16),
        (1, 24, "(1+0.5*cos(2*pi*40*x1))*<xi>^(-1)", 40),
        (2, 3, "(1+0.5*cos(2*pi*3*x1)*cos(2*pi*3*x2))*(1+|xi|^2)^(-1)", 3),
        (3, 2, "(1+0.5*cos(2*pi*(x1+x2-x3)))*(1+|xi|^2)^(-3/2)", 1),
    ],
)
def test_band_taps_match_the_fft_on_the_band_grid(n, M, main, b):
    # the tap product on the (2b+2)^n grid, against one FFT per point on
    # the same grid: q = 34, 82, 8 and 4 per axis
    sigma = to_symbol(main, n=n, order=-n)
    assert sigma.x_bandwidth == b
    q = 2 * b + 2
    assert q**n * (2 * b + 1) ** n <= quantize.TAP_PRODUCT_ENTRIES
    box = TruncationBox(n, M)
    pts = box.points()
    in_band = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1) <= b
    band_grid = sampling_grid(sigma, box)
    assert band_grid == QuadratureGrid(n, q)
    D, T = both_quantizations(sigma, box, None)
    for got, want in ((D, column_loop(sigma.func, box, band_grid).T),
                      (T, column_loop(flip(sigma).func, box, band_grid))):
        assert np.max(np.abs(got - want)[in_band]) <= 1e-15 * np.max(np.abs(want))
        assert np.all(got[~in_band] == 0)


# ---------------------------------------------------------------------------
# adjoint and Fourier conjugation


def test_adjoint_examples():
    box = TruncationBox(1, 2)
    D = OperatorMatrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex), box, LATTICE_DELTA)
    assert np.array_equal(adjoint(D).entries, D.entries)
    raising = np.diag(np.ones(4, dtype=complex), -1)
    R = OperatorMatrix(raising, box, FOURIER_MODE)
    assert np.array_equal(adjoint(R).entries, raising.conj().T)
    X = OperatorMatrix(np.random.default_rng(0).normal(size=(5, 5)) * (1 + 1j), box, FOURIER_MODE)
    assert np.array_equal(adjoint(adjoint(X)).entries, X.entries)


def test_adjoint_shares_singular_values():
    A = assemble_toroidal(flip(cosine_bracket()), TruncationBox(1, 16), QuadratureGrid(1, 128))
    sa = np.linalg.svd(A.entries, compute_uv=False)
    sb = np.linalg.svd(adjoint(A).entries, compute_uv=False)
    assert np.max(np.abs(sa - sb)) <= 1e-10 * sa[0]


def test_conjugate_by_fourier_diagonal():
    box = TruncationBox(1, 2)
    diag = np.diag(np.arange(5, dtype=complex))
    A = OperatorMatrix(diag, box, FOURIER_MODE)
    B = conjugate_by_fourier(A)
    assert B.basis == LATTICE_DELTA
    # diag a(k) -> diag a(-k): the enum (-2..2) reverses
    assert np.array_equal(np.diag(B.entries), np.arange(5)[::-1].astype(complex))


def test_conjugate_preserves_singular_values():
    rng = np.random.default_rng(1)
    box = TruncationBox(1, 3)
    A = OperatorMatrix(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)), box, FOURIER_MODE)
    B = conjugate_by_fourier(A)
    sa = np.linalg.svd(A.entries, compute_uv=False)
    sb = np.linalg.svd(B.entries, compute_uv=False)
    assert np.max(np.abs(sa - sb)) < 1e-13 * sa[0]


def test_conjugate_raising_to_lowering_by_hand():
    # n=1, M=2: raising shift in mode basis -> lowering shift in delta basis
    box = TruncationBox(1, 2)
    raising = np.zeros((5, 5), dtype=complex)
    for j, m in enumerate(box.points()[:, 0]):
        if abs(m + 1) <= 2:
            raising[box.index_of([m + 1]), j] = 1.0
    B = conjugate_by_fourier(OperatorMatrix(raising, box, FOURIER_MODE))
    # by hand: B[n', k] = raising[-n', -k] = 1 iff -n' = -k + 1 iff k = n' + 1
    want = np.zeros((5, 5), dtype=complex)
    for i, npr in enumerate(box.points()[:, 0]):
        if abs(npr + 1) <= 2:
            want[i, box.index_of([npr + 1])] = 1.0
    assert np.array_equal(B.entries, want)


# a random band, padding slots included, against the dense result:
# kd = 0, 1 and 3 in 1-D, and a 2-D band across a row stride of 7
@pytest.mark.parametrize("n, M, kd", [(1, 6, 0), (1, 6, 1), (1, 6, 3), (2, 3, 8)])
def test_adjoint_and_conjugation_keep_a_band(n, M, kd):
    rng = np.random.default_rng(kd)
    box = TruncationBox(n, M)
    shape = (box.size, 2 * kd + 1)
    A = OperatorMatrix(rng.normal(size=shape) + 1j * rng.normal(size=shape), box, FOURIER_MODE, kd)
    dense = OperatorMatrix(A.entries, box, FOURIER_MODE)
    for op in (adjoint, conjugate_by_fourier, lambda A: conjugate_by_fourier(adjoint(A))):
        B = op(A)
        assert B.kd == kd
        assert B.data.flags.c_contiguous
        assert np.array_equal(B.entries, op(dense).entries)
    assert np.array_equal(adjoint(dense).entries, dense.entries.conj().T)
    assert np.array_equal(conjugate_by_fourier(dense).entries, dense.entries[::-1, ::-1])


def test_conjugate_needs_fourier_basis():
    box = TruncationBox(1, 1)
    A = OperatorMatrix(np.eye(3, dtype=complex), box, LATTICE_DELTA)
    with pytest.raises(UsageError):
        conjugate_by_fourier(A)


# ---------------------------------------------------------------------------
# conjugation identity


def test_identity_exact_for_multiplier():
    sigma = to_symbol("<xi>^(-1)", n=1, order=-1)
    rep = verify_identity(sigma, TruncationBox(1, 8))
    assert rep.full_deviation == pytest.approx(0.0, abs=1e-14)


def test_identity_interior_below_1e12():
    rep = verify_identity(cosine_bracket(), TruncationBox(1, 64), QuadratureGrid(1, 512))
    assert rep.interior_deviation <= 1e-12
    assert rep.bandwidth == 1


def test_identity_against_direct_summation_m8():
    # build both sides by direct summation at M=8 and compare entrywise
    sigma = cosine_bracket()
    box = TruncationBox(1, 8)
    Q = 128
    pts = box.points()[:, 0]
    tau = flip(sigma)
    D = np.zeros((17, 17), dtype=complex)
    T = np.zeros((17, 17), dtype=complex)
    # D's samples depend on the row point alone, T's on the column point
    sigma_samples = {p: symbol_samples(sigma.func, p, Q) for p in pts}
    tau_samples = {p: symbol_samples(tau.func, p, Q) for p in pts}
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            D[i, j] = direct_discrete_entry(sigma, a, b, Q, sigma_samples[a])
            T[i, j] = direct_toroidal_entry(tau, a, b, Q, tau_samples[b])
    B = T.conj().T[::-1, ::-1]
    assert np.max(np.abs(D - B)) < 1e-13
    rep = verify_identity(sigma, box, QuadratureGrid(1, Q))
    assert rep.full_deviation < 1e-13


def test_identity_2d_multiplier():
    sigma = to_symbol("(1+|xi|^2)^(-1)", n=2, order=-2, classical_terms=[(-2, "1")])
    rep = verify_identity(sigma, TruncationBox(2, 3), QuadratureGrid(2, 16))
    assert rep.full_deviation < 1e-14


# (1, 6) and (2, 2) assemble D and T dense; (1, 40) and (2, 17) keep
# them banded (16 kd < S), (2, 17) with kd = 36 across a row stride of 35
@pytest.mark.parametrize("n, M", [(1, 6), (2, 2), (1, 40), (2, 17)])
def test_identity_deviation_equals_the_public_composition(n, M):
    # a complex, non-Hermitian symbol, so conjugate and transpose both matter
    sigma = to_symbol(
        "(1+0.5*cos(2*pi*x1))*(1+|xi|^2)^(-1)", main_im="sin(2*pi*x1)*(1+|xi|^2)^(-1)",
        n=n, order=-2,
    )
    box = TruncationBox(n, M)
    grid = sampling_grid(sigma, box)
    D = assemble_discrete(sigma, box, grid)
    T = assemble_toroidal(flip(sigma), box, grid)
    assert D.kd == T.kd
    assert (T.kd is not None) == (M in (17, 40))
    B = conjugate_by_fourier(adjoint(T))
    rep = verify_identity(sigma, box)
    assert rep.grid_q == grid.q == 4  # reach 1
    assert rep.full_deviation == float(np.abs(D.entries - B.entries).max())
    assert rep.full_deviation < 1e-14


def test_reversed_transpose_of_a_band_is_the_dense_one():
    # every slot of a random band, padding included, against the dense
    # J A^T J; the band's padding slots hold garbage that must not leak
    rng = np.random.default_rng(5)
    box, kd = TruncationBox(1, 6), 3
    data = rng.normal(size=(box.size, 2 * kd + 1)) + 1j * rng.normal(size=(box.size, 2 * kd + 1))
    A = OperatorMatrix(data, box, FOURIER_MODE, kd)
    dense = A.entries
    rows, cols = A.slots()
    inside = (rows < box.size) & (cols < box.size)
    assert np.array_equal(dense[rows[inside], cols[inside]], data[inside])
    assert np.count_nonzero(dense) == np.count_nonzero(inside)
    B = OperatorMatrix(A.reversed_transpose(), box, FOURIER_MODE, kd)
    assert np.array_equal(B.entries, dense[::-1, ::-1].T)
    assert not np.any(B.data[~inside])
    assert np.array_equal(OperatorMatrix(dense, box, FOURIER_MODE).reversed_transpose(), dense[::-1, ::-1].T)


def test_identity_is_sized_by_its_band(monkeypatch):
    # one dense 17 x 17 matrix does not fit, the two bands of 17 x 3 do
    box = TruncationBox(1, 8)
    one, band = 16 * box.size**2, 16 * box.size * 3
    want = verify_identity(cosine_bracket(), box)
    monkeypatch.setattr(lattice, "_physical_memory", lambda: one // 2)
    assert verify_identity(cosine_bracket(), box) == want

    def refuse(*args):
        raise AssertionError("assembly started")

    monkeypatch.setattr(lattice, "_physical_memory", lambda: band - 1)
    monkeypatch.setattr(quantize, "_coefficient_blocks", refuse)
    with pytest.raises(UsageError, match="a band of 17 x 3 complex entries needs"):
        verify_identity(cosine_bracket(), box)


def test_identity_refuses_two_matrices_that_outgrow_memory(monkeypatch):
    # one dense 13 x 13 matrix fits in 24 S^2 bytes, D and T together do not
    box = TruncationBox(1, 6)
    sigma = to_symbol("exp(0.3*cos(2*pi*x1))*<xi>^(-1)", n=1, order=-1)

    def refuse(*args):
        raise AssertionError("toroidal matrix assembled")

    monkeypatch.setattr(lattice, "_physical_memory", lambda: 24 * box.size**2)
    monkeypatch.setattr(quantize, "assemble_toroidal", refuse)
    with pytest.raises(UsageError, match=r"^holding the discrete and the toroidal matrix at once needs 0\.0 GiB"):
        verify_identity(sigma, box)


def test_assembly_refuses_box_points_that_outgrow_memory(monkeypatch):
    # an x-free band of half-width 0 takes 16 S bytes and fits in 24 S;
    # the box points it is assembled over take 32 S and do not
    box = TruncationBox(1, 500)
    monkeypatch.setattr(lattice, "_physical_memory", lambda: 24 * box.size)
    with pytest.raises(UsageError, match=r"^a box of 1001 lattice points needs 0\.0 GiB, more than the 0\.0 GiB"):
        assemble_toroidal(flip(to_symbol("<xi>^(-1)", n=1, order=-1)), box)


def test_identity_peak_memory_far_below_one_dense_matrix():
    # D and the toroidal matrix as bands of half-width 1, and little else
    box = TruncationBox(1, 200)
    sigma = cosine_bracket()
    tracemalloc.start()
    try:
        verify_identity(sigma, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 16 * box.size**2


# ---------------------------------------------------------------------------
# exports


def test_export_peak_memory_far_below_one_dense_matrix(tmp_path):
    # the band of configs/cosine_1d.cfg (M = 1024, S = 2049, kd = 1): both
    # writers hold one slab of rows at a time, never the dense matrix
    box = TruncationBox(1, 1024)
    A = assemble_discrete(cosine_bracket(), box)
    assert A.kd == 1
    tracemalloc.start()
    try:
        write_matrix_csv(tmp_path / "matrix.csv", A)
        write_matrix_binary(tmp_path / "matrix.bin", A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 16 * box.size**2
    assert (tmp_path / "matrix.bin").stat().st_size == 16 + 16 * box.size**2


def test_binary_roundtrip(tmp_path):
    sigma = cosine_bracket()
    A = assemble_discrete(sigma, TruncationBox(1, 4), QuadratureGrid(1, 64))
    path = tmp_path / "m.bin"
    write_matrix_binary(path, A)
    raw = path.read_bytes()
    assert raw[:4] == b"NCRM"
    assert len(raw) == 16 + 16 * 9 * 9
    assert raw[16:] == A.entries.astype("<c16").tobytes()
    back = read_matrix_binary(path)
    assert np.array_equal(back.entries, A.entries)
    assert back.box == A.box


def test_binary_read_holds_one_copy_of_the_payload(tmp_path):
    box = TruncationBox(1, 300)
    rng = np.random.default_rng(3)
    entries = rng.normal(size=(box.size, box.size)) + 1j * rng.normal(size=(box.size, box.size))
    path = tmp_path / "m.bin"
    write_matrix_binary(path, OperatorMatrix(entries, box, LATTICE_DELTA))
    tracemalloc.start()
    try:
        back = read_matrix_binary(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * entries.nbytes
    assert np.array_equal(back.entries, entries)
    assert back.entries.flags.writeable


def test_binary_read_refuses_bad_magic_and_short_payload(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix_binary(path, OperatorMatrix(np.eye(3, dtype=complex), TruncationBox(1, 1), LATTICE_DELTA))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(UsageError, match="truncated matrix payload"):
        read_matrix_binary(path)
    # a partial entry past the payload, then a whole one
    for extra in (8, 16):
        path.write_bytes(raw + bytes(extra))
        with pytest.raises(UsageError, match=f"{extra} bytes past the matrix payload"):
            read_matrix_binary(path)
    path.write_bytes(b"NCRX" + raw[4:])
    with pytest.raises(UsageError, match="bad magic"):
        read_matrix_binary(path)


def test_binary_read_refuses_an_unindexable_box_at_once(tmp_path):
    # a 48-byte file whose header says n = 2^31, M = 1: forming 3^(2^31)
    # before comparing the file size would take hours
    path = tmp_path / "m.bin"
    path.write_bytes(BINARY_MAGIC + struct.pack("<III", 2**31, 1, 0) + bytes(32))
    t0 = time.perf_counter()
    with pytest.raises(UsageError, match=r"2\^63 or more lattice points"):
        read_matrix_binary(path)
    assert time.perf_counter() - t0 < 1.0


def test_csv_export(tmp_path):
    sigma = to_symbol("<xi>^(-1)", n=1, order=-1)
    A = assemble_discrete(sigma, TruncationBox(1, 1), QuadratureGrid(1, 64))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, A)
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 1 + 9
    row, col, re, im = lines[1 + 4].split(",")  # center entry (0,0) -> value 1
    assert (int(row), int(col)) == (1, 1)
    assert float(re) == pytest.approx(1.0)
    assert float(im) == pytest.approx(0.0, abs=1e-15)
