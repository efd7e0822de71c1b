import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nclab import spectral
from nclab.dsl import to_symbol
from nclab.errors import UsageError
from nclab.lattice import TruncationBox
from nclab.pipeline import (
    build_spectrum,
    connes_report_json,
    depends_on_second,
    run_connes_check,
)
from nclab.quantize import QuadratureGrid, assemble_discrete, assemble_toroidal
from nclab.residue import LATTICE, PAPER, dixmier_trace_formula, residue_value
from nclab.spectral import matrix_sequence
from nclab.symbols import Symbol, evaluate, flip, regularize_at_origin


def bracket_inv():
    return to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1")])


def cosine_bracket():
    return to_symbol(
        "(1+0.5*cos(2*pi*x1))*<xi>^(-1)",
        n=1,
        order=-1,
        classical_terms=[(-1, "1+0.5*cos(2*pi*x1)")],
    )


# ---------------------------------------------------------------------------
# diagonal fast path


def test_fast_path_values_m3():
    run = build_spectrum(bracket_inv(), 1, 3)
    assert run.diagonal_path
    want = [1, 2**-0.5, 2**-0.5, 5**-0.5, 5**-0.5, 10**-0.5, 10**-0.5]
    assert run.sequence == pytest.approx(want)


def test_fast_path_constant():
    c = to_symbol("0.75", n=1, order=0)
    run = build_spectrum(c, 1, 5)
    assert run.diagonal_path
    assert np.all(run.sequence == 0.75)


def test_fast_path_matches_full_assembly():
    sigma = bracket_inv()
    box = TruncationBox(1, 16)
    run = build_spectrum(sigma, 1, 16)
    assert run.diagonal_path
    full, _, _ = matrix_sequence(assemble_discrete(sigma, box, QuadratureGrid(1, 128)), symmetrize=False)
    assert np.max(np.abs(run.sequence - full)) < 1e-13


def test_fast_path_rejects_x_dependence():
    # an x-dependent symbol never takes the diagonal path: it is assembled
    run = build_spectrum(cosine_bracket(), 1, 8)
    assert not run.diagonal_path
    assert run.Q == 4  # reach 1: the 2r + 2 grid, not default_grid_size(8) = 128
    # no known band: assembly samples the default grid
    assert build_spectrum(to_symbol("exp(0.3*cos(2*pi*x1))*<xi>^(-1)", n=1, order=-1), 1, 8).Q == 128


# ---------------------------------------------------------------------------
# the end-to-end comparison


def test_multiplier_comparison():
    rep = run_connes_check(bracket_inv(), 1, 20000)
    assert rep.run.diagonal_path
    assert rep.residue_lattice == pytest.approx(2.0, abs=1e-12)
    assert rep.relative_deviation < 0.05
    assert not rep.run.positivity_warning


def test_multiplier_accuracy_pinned_near_achieved():
    # achieved: relative deviation 6.2e-9, stability span 1.6e-8
    rep = run_connes_check(bracket_inv(), 1, 20000)
    assert rep.relative_deviation <= 2e-8
    assert rep.summary.stability_span <= 5e-8


def test_x_dependent_comparison_symmetrized():
    rep = run_connes_check(cosine_bracket(), 1, 256)
    assert not rep.run.diagonal_path
    assert rep.run.symmetrized
    assert rep.residue_lattice == pytest.approx(2.0, abs=1e-12)
    assert abs(rep.summary.trace_estimate - 2.0) / 2.0 < 0.10
    assert rep.run.min_eigenvalue > -0.05


def test_trace_class_symbol():
    sigma = to_symbol("<xi>^(-2)", n=1, order=-2, classical_terms=[(-2, "1")])
    with pytest.raises(UsageError):
        run_connes_check(sigma, 1, 20000)  # formula path errors on the order
    run = build_spectrum(sigma, 1, 20000)
    from nclab.spectral import trace_estimate

    c = trace_estimate(run.sequence, discard_fraction=0.0).trace_estimate
    assert abs(c) < 0.02


@pytest.mark.parametrize(
    "n, expr, order, Ms, trend",
    [
        (1, "<xi>^(-0.75)", -0.75, (10**3, 10**4, 10**5), 1),  # 9.44, 16.78, 29.84
        (1, "<xi>^(-1)", -1, (10**3, 10**4, 10**5), 0),  # 2 within 1e-5
        (1, "<xi>^(-1.25)", -1.25, (10**3, 10**4, 10**5), -1),  # 0.427, 0.240, 0.135
        (2, "(1+|xi|^2)^(-0.875)", -1.75, (50, 200), 1),  # 7.86, 11.10
        (2, "(1+|xi|^2)^(-1.125)", -2.25, (50, 200), -1),  # 1.245, 0.883
    ],
)
def test_trace_estimate_is_sharp_at_order_minus_n(n, expr, order, Ms, trend):
    # the paper's boundary: above -n the fitted estimate grows with the
    # truncation (not in L^(1,inf)), at -n it settles on the residue, and
    # below -n it decays towards the trace-class value 0
    sigma = to_symbol(expr, n=n, order=order)
    estimates = np.array([build_spectrum(sigma, n, M).fit().trace_estimate for M in Ms])
    if trend:
        assert np.all(np.sign(np.diff(estimates)) == trend)
    else:
        assert np.max(np.abs(estimates - 2.0)) < 1e-5


def test_order_is_refused_before_the_spectrum_is_built(monkeypatch):
    from nclab import pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("spectrum built")

    monkeypatch.setattr(pipeline, "build_spectrum", refuse)
    sigma = to_symbol("(1+0.5*cos(2*pi*x1))*<xi>^(-1)", n=1, order=-2)
    with pytest.raises(UsageError, match="needs order exactly -1, got -2"):
        run_connes_check(sigma, 1, 4096)


def test_symmetrization_does_not_change_residue():
    sigma = cosine_bracket()
    r_on = run_connes_check(sigma, 1, 128, symmetrize=True).residue_lattice
    r_off = run_connes_check(sigma, 1, 128, symmetrize=False).residue_lattice
    assert r_on == r_off


def test_unsymmetrized_uses_singular_values():
    rep = run_connes_check(cosine_bracket(), 1, 128, symmetrize=False)
    assert not rep.run.symmetrized
    assert rep.run.min_eigenvalue >= 0.0  # singular values are nonnegative


def test_deterministic():
    a = run_connes_check(cosine_bracket(), 1, 128)
    b = run_connes_check(cosine_bracket(), 1, 128)
    assert connes_report_json(a) == connes_report_json(b)


def test_agreement_for_multiplier_at_large_box():
    # x-independent classical symbol: estimate within span + 5% of residue
    rep = run_connes_check(bracket_inv(), 1, 20000)
    r = rep.residue_lattice
    assert abs(rep.summary.trace_estimate - r) <= rep.summary.stability_span + 0.05 * abs(r)


def test_agreement_2d_multiplier():
    sigma = to_symbol("(1+|xi|^2)^(-1)", n=2, order=-2, classical_terms=[(-2, "1")])
    rep = run_connes_check(sigma, 2, 160)  # 321^2 = 103041 points
    assert rep.run.diagonal_path
    assert rep.residue_lattice == pytest.approx(np.pi, abs=1e-12)
    assert abs(rep.summary.trace_estimate - np.pi) <= rep.summary.stability_span + 0.05 * np.pi


def test_agreement_3d_multiplier():
    sigma = to_symbol("(1+|xi|^2)^(-3/2)", n=3, order=-3, classical_terms=[(-3, "1")])
    rep = run_connes_check(sigma, 3, 40, residue_q=8)
    r = 4 * np.pi / 3  # (1/3) * |S^2|
    assert rep.residue_lattice == pytest.approx(r, abs=1e-12)
    assert abs(rep.summary.trace_estimate - r) / r < 0.05


def test_positivity_warning_fires():
    sigma = to_symbol("-xi1*<xi>^(-2)", n=1, order=-1, classical_terms=[(-1, "-theta1")])
    rep = run_connes_check(sigma, 1, 400)
    assert rep.run.positivity_warning


# Generated positive symbols: sigma = a(x) <xi>^(-1), optionally plus the
# odd lower-order term 0.3 xi1 <xi>^(-3), where a is a trigonometric
# polynomial of degree b in {1, 2} with constant 1 and coefficients of
# total modulus 0.9, declared as term_0.  So a >= 0.1 and the residue is
# 2 for every draw, with no quadrature in the oracle.  The fixed example
# set's largest deviation at M = 256 is POSITIVE_FAMILY_MEASURED, from
# a = 1 +- 0.9 cos(2 pi x1) with the lower-order term (median 3.3e-4);
# the bound leaves a margin of 50 % over it.
POSITIVE_FAMILY_MEASURED = 5.07e-3
POSITIVE_FAMILY_DEV_MAX = 1.5 * POSITIVE_FAMILY_MEASURED


@st.composite
def positive_symbols(draw):
    b = draw(st.sampled_from([1, 2]))
    weights = draw(st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=2 * b, max_size=2 * b))
    assume(abs(weights[-2]) + abs(weights[-1]) > 0.05)  # degree exactly b
    scale = 0.9 / sum(map(abs, weights))
    a = "1" + "".join(
        f"{scale * c:+.17g}*cos(2*pi*{k}*x1){scale * s:+.17g}*sin(2*pi*{k}*x1)"
        for k, (c, s) in enumerate(zip(weights[0::2], weights[1::2]), 1)
    )
    lower = "+0.3*xi1*<xi>^(-3)" if draw(st.booleans()) else ""
    return b, to_symbol(f"({a})*<xi>^(-1){lower}", n=1, order=-1, classical_terms=[(-1, a)])


@given(positive_symbols())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_identity_over_generated_positive_symbols(case):
    b, sigma = case
    rep = run_connes_check(sigma, 1, 256)
    assert rep.residue_lattice == pytest.approx(2.0, abs=1e-12)
    assert rep.run.solver == "banded"
    assert not rep.run.positivity_warning
    assert rep.run.Q == 2 * b + 2  # the grid assembly sampled
    assert rep.relative_deviation <= POSITIVE_FAMILY_DEV_MAX


def test_report_fields():
    rep = run_connes_check(bracket_inv(), 1, 2000)
    payload = connes_report_json(rep)
    assert list(payload.keys()) == [
        "n", "M", "Q", "symmetrized", "spectral_estimate", "residue_lattice",
        "residue_paper_convention", "relative_deviation", "fit_window", "fit_rms",
        "stability_span", "min_eigenvalue", "hermiticity_deviation",
        "positivity_warning", "diagonal_path", "conventions",
    ]
    assert payload["residue_paper_convention"] == pytest.approx(2.0 / (2 * np.pi))


def test_x_dependent_accuracy_pinned_at_m256():
    # achieved: relative deviation 1.91e-4, stability span 4.86e-4
    rep = run_connes_check(cosine_bracket(), 1, 256)
    assert rep.relative_deviation <= 4e-4
    assert rep.summary.stability_span <= 1e-3


def test_x_dependence_between_probe_points_takes_the_assembled_path():
    # cos(2 pi 1000 x1) is 1 at every probe point of depends_on_second;
    # the diagonal path would report about 3.0 against a residue of 2.
    # Achieved on the assembled path: relative deviation 1.5e-4.
    angular = "1+0.5*cos(2*pi*1000*x1)"
    sigma = to_symbol(f"({angular})*<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, angular)])
    rep = run_connes_check(sigma, 1, 256)
    assert not rep.run.diagonal_path
    assert rep.residue_lattice == pytest.approx(2.0, abs=1e-12)
    assert rep.relative_deviation <= 4e-4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_residue_quadrature_serves_both_conventions(monkeypatch, n):
    from nclab import pipeline

    calls = []

    def counted(*args, **kwargs):
        rep = dixmier_trace_formula(*args, **kwargs)
        calls.append((sorted(kwargs), rep))
        return rep

    monkeypatch.setattr(pipeline, "dixmier_trace_formula", counted)
    sigma = to_symbol(f"(1+|xi|^2)^(-{n}/2)", n=n, order=-n, classical_terms=[(-n, "1")])
    rep = run_connes_check(sigma, n, 16, residue_q=8)
    # one quadrature, called with the keywords perfbench's residue counter reads
    [(keywords, residue)] = calls
    assert keywords == ["rule", "torus_q"]
    # both values are its one integral times each prefactor, bit for bit
    assert residue.value == residue_value(residue.integral, n, LATTICE)
    assert residue.paper_value == residue_value(residue.integral, n, PAPER)
    assert rep.residue_lattice == float(np.real(residue.value))
    assert rep.residue_paper == float(np.real(residue.paper_value))


@pytest.mark.parametrize("n, M", [(1, 16), (2, 4)])
def test_probe_samples_x_along_the_assembly_grid(n, M):
    # cos(2 pi 1000 x_n) is 1 wherever 1000 x_n is an integer, so
    # sampled probes can miss it; an undeclared bandwidth is assembled
    def func(first, x):
        first, x = np.asarray(first, dtype=float), np.asarray(x, dtype=float)
        return (1 + 0.5 * np.cos(2 * np.pi * 1000 * x[..., -1])) / np.sqrt(1 + np.sum(first**2, axis=-1))

    sigma = Symbol(func, order=-n)
    assert depends_on_second(sigma)
    assert not build_spectrum(sigma, n, M).diagonal_path


def test_probe_reads_nan_samples_as_x_dependence():
    # an opaque callable, NaN for x1 < 0.5: only a declared bandwidth
    # of 0 vouches for the diagonal path
    def func(first, x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.asarray(x, dtype=float)[..., 0] - 0.5)

    assert depends_on_second(Symbol(func, order=0))
    assert not depends_on_second(Symbol(lambda first, x: 2.0, order=0, x_bandwidth=0))


def test_undeclared_x_free_callable_is_assembled():
    def func(first, x):
        return (1 + np.sum(np.asarray(first, dtype=float) ** 2, axis=-1)) ** -0.5

    undeclared = build_spectrum(Symbol(func, order=-1), 1, 16)
    assert not undeclared.diagonal_path and undeclared.Q > 0
    declared = build_spectrum(Symbol(func, order=-1, x_bandwidth=0), 1, 16)
    assert declared.diagonal_path and declared.solver == "diagonal"
    assert np.max(np.abs(undeclared.sequence - declared.sequence)) <= 1e-12


def test_regularized_cosine_symbol_keeps_its_band():
    # finite_modify keeps b = 1, so the operator is solved in band
    # storage; an unknown bandwidth would assemble it dense
    angular = "1+0.5*cos(2*pi*x1)"
    base = to_symbol(f"({angular})/|xi|", n=1, order=-1, classical_terms=[(-1, angular)])
    sigma = regularize_at_origin(base, 1)
    assert sigma.x_bandwidth == 1
    run = build_spectrum(sigma, 1, 64)
    assert not run.diagonal_path
    assert run.solver == "banded"


def _inline_solve(sigma, n, M, symmetrize):
    """The sequence and deviation as build_spectrum computed them inline
    before spectral owned the step: the reference the owner must match
    bit for bit."""
    box = TruncationBox(n, M)
    if not depends_on_second(sigma):
        # the diagonal's Hermitian part is its real parts, its singular values the moduli
        vals = evaluate(sigma.func, box.points().astype(float), np.zeros(n), (box.size,))
        seq = np.sort(vals.real if symmetrize else np.abs(vals))[::-1].copy()
        return seq, float(np.max(np.abs(vals - vals.conj())))
    A = assemble_toroidal(flip(sigma), box)
    herm_dev = float(np.max(np.abs(A.entries - A.entries.conj().T)))
    if symmetrize:
        H = 0.5 * (A.entries + A.entries.conj().T)
        return np.linalg.eigvalsh(H)[::-1].copy(), herm_dev
    return np.linalg.svd(A.entries, compute_uv=False), herm_dev


def _phased_bracket(first, x):
    k = np.asarray(first, dtype=float)[..., 0]
    return np.exp(1j * k) / np.sqrt(1 + k**2)


@pytest.mark.parametrize(
    "case",
    [
        "symmetrized", "unsymmetrized", "real diagonal", "complex diagonal",
        "real diagonal unsymmetrized", "complex diagonal unsymmetrized", "odd real diagonal",
    ],
)
def test_build_spectrum_matches_the_inline_solve(case):
    # the phase makes the assembled matrix complex, so A* is not A^T
    angular = "1+0.5*cos(2*pi*x1+0.3)"
    phased = to_symbol(f"({angular})*<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, angular)])
    sigma, symmetrize = {
        "symmetrized": (phased, True),
        "unsymmetrized": (phased, False),
        "real diagonal": (bracket_inv(), True),
        "complex diagonal": (Symbol(_phased_bracket, order=-1, x_bandwidth=0), True),
        "real diagonal unsymmetrized": (bracket_inv(), False),
        "complex diagonal unsymmetrized": (Symbol(_phased_bracket, order=-1, x_bandwidth=0), False),
        "odd real diagonal": (to_symbol("xi1*<xi>^(-2)", n=1, order=-1), True),
    }[case]
    run = build_spectrum(sigma, 1, 24, symmetrize=symmetrize)
    assert run.diagonal_path == ("diagonal" in case)
    assert run.symmetrized == symmetrize
    seq, deviation = _inline_solve(sigma, 1, 24, symmetrize)
    if case == "symmetrized":  # the band's zhbevd against dense eigvalsh
        assert run.solver == "banded"
        assert np.max(np.abs(run.sequence - seq)) <= 1e-13 * seq[0]
    else:  # bit for bit, the sign of a zero included
        assert run.sequence.tobytes() == seq.tobytes()
    assert run.hermiticity_deviation == deviation
    if case == "odd real diagonal":
        # sigma(0) = +0.0; evaluating sigma at -0.0 would sort in a -0.0
        zeros = run.sequence[run.sequence == 0]
        assert len(zeros) == 1 and not np.signbit(zeros[0])
    if case.startswith("complex diagonal"):
        assert deviation > 0.5
        # real parts change sign with the phase; moduli do not
        assert (run.sequence[-1] < 0) == symmetrize


@pytest.mark.parametrize("lapack", [True, False], ids=["zhbevd", "no zhbevd"])
@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("n, M", [(1, 24), (2, 6)])
def test_assembled_multiplier_is_solved_as_its_diagonal(monkeypatch, n, M, symmetrize, lapack):
    # an x-free symbol assembles to a band of half-width 0, which is read
    # off its diagonal exactly as build_spectrum reads the multiplier
    if not lapack:
        monkeypatch.setattr(spectral, "_zhbevd", lambda: None)
    decay = "<xi>^(-1)" if n == 1 else "(1+|xi|^2)^(-1)"
    sigma = to_symbol(f"cos(0.3)*{decay}", main_im=f"sin(0.3)*{decay}", n=n, order=-n)
    A = assemble_toroidal(flip(sigma), TruncationBox(n, M))
    assert A.kd == 0
    seq, deviation, solver = matrix_sequence(A, symmetrize)
    run = build_spectrum(sigma, n, M, symmetrize=symmetrize)
    assert solver == run.solver == "diagonal"
    assert seq.tobytes() == run.sequence.tobytes()
    assert deviation == run.hermiticity_deviation > 0.1


@pytest.mark.parametrize("M, diag_bound, band_bound", [(64, 1.2e-3, 5e-3), (256, 8e-5, 3e-4)])
def test_complex_multiplier_obeys_symmetrize_on_the_diagonal_path(M, diag_bound, band_bound):
    # exp(0.3 i) <xi>^(-1): the Hermitian part is cos(0.3) <xi>^(-1),
    # whose trace is the residue's real part 2 cos(0.3), on either path
    # (the real factor 1 + 0*cos(2 pi x1) forces assembly).  The diagonal
    # path used to take moduli here, 4.6 % off.  Achieved relative
    # deviations: 5.9e-4 diagonal and 2.5e-3 assembled at M = 64, 3.8e-5
    # and 1.5e-4 at M = 256.
    x_free = to_symbol("cos(0.3)*<xi>^(-1)", main_im="sin(0.3)*<xi>^(-1)", n=1, order=-1)
    assembled = to_symbol(
        "cos(0.3)*<xi>^(-1)*(1+0*cos(2*pi*x1))", main_im="sin(0.3)*<xi>^(-1)", n=1, order=-1
    )
    diag = run_connes_check(x_free, 1, M)
    band = run_connes_check(assembled, 1, M)
    assert diag.run.diagonal_path and diag.run.symmetrized
    assert not band.run.diagonal_path and band.run.symmetrized
    assert diag.residue_lattice == pytest.approx(2 * math.cos(0.3), abs=1e-12)
    assert diag.relative_deviation <= diag_bound
    assert band.relative_deviation <= band_bound
    # unsymmetrized, both paths take singular values, the moduli, near 2
    diag_off = run_connes_check(x_free, 1, M, symmetrize=False)
    band_off = run_connes_check(assembled, 1, M, symmetrize=False)
    assert diag_off.run.diagonal_path and not diag_off.run.symmetrized
    assert band_off.run.solver == "svd"
    assert abs(diag_off.summary.trace_estimate - band_off.summary.trace_estimate) <= 5e-3


def _pole_at_3(first, x):
    with np.errstate(divide="ignore"):
        return 1.0 / (np.abs(np.asarray(first, dtype=float)[..., 0]) - 3.0)


def test_pole_on_the_diagonal_path_is_a_usage_error():
    # unchecked, the sorted sequence starts [inf, inf] and the fit returns nan
    sigma = Symbol(_pole_at_3, order=-1, x_bandwidth=0)
    with pytest.raises(UsageError, match="non-finite"):
        build_spectrum(sigma, 1, 64)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pole_on_the_assembled_path_is_a_usage_error():
    # unchecked, both solves end in numpy's LinAlgError traceback
    def func(first, x):
        return _pole_at_3(first, x) * (1 + 0.5 * np.cos(2 * np.pi * np.asarray(x, dtype=float)[..., 0]))

    sigma = Symbol(func, order=-1)
    for symmetrize in (True, False):
        with pytest.raises(UsageError, match="non-finite"):
            build_spectrum(sigma, 1, 16, symmetrize=symmetrize)


@pytest.mark.filterwarnings("error")
# full Q-point rule, band of reach 1, and the diagonal path
@pytest.mark.parametrize("x_bandwidth", [math.inf, 1, 0])
def test_pole_on_the_assembled_path_reports_only_the_usage_error(x_bandwidth):
    # no errstate in the symbol: the samples must not warn on any path
    def func(first, x):
        k = np.asarray(first, dtype=float)[..., 0]
        return (1 + 0.5 * np.cos(2 * np.pi * np.asarray(x, dtype=float)[..., 0])) / (np.abs(k) - 3.0)

    sigma = Symbol(func, order=-1, x_bandwidth=x_bandwidth)
    for symmetrize in (True, False):
        with pytest.raises(UsageError, match="non-finite"):
            build_spectrum(sigma, 1, 16, symmetrize=symmetrize)
