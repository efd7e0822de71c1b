import numpy as np
import pytest

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
from nclab.residue import LATTICE, PAPER, dixmier_trace_formula
from nclab.spectral import matrix_sequence
from nclab.symbols import Symbol, evaluate, flip


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
    assert run.Q == 128  # default grid: 4*(2M+1) = 68 rounds up to 128


# ---------------------------------------------------------------------------
# the end-to-end comparison


def test_multiplier_comparison():
    rep = run_connes_check(bracket_inv(), 1, 20000)
    assert rep.diagonal_path
    assert rep.residue_lattice == pytest.approx(2.0, abs=1e-12)
    assert rep.relative_deviation < 0.05
    assert not rep.positivity_warning


def test_multiplier_accuracy_pinned_near_achieved():
    # achieved: relative deviation 6.2e-9, stability span 1.6e-8
    rep = run_connes_check(bracket_inv(), 1, 20000)
    assert rep.relative_deviation <= 2e-8
    assert rep.stability_span <= 5e-8


def test_x_dependent_comparison_symmetrized():
    rep = run_connes_check(cosine_bracket(), 1, 256)
    assert not rep.diagonal_path
    assert rep.symmetrized
    assert rep.residue_lattice == pytest.approx(2.0, abs=1e-12)
    assert abs(rep.spectral_estimate - 2.0) / 2.0 < 0.10
    assert rep.min_eigenvalue > -0.05


def test_trace_class_symbol():
    sigma = to_symbol("<xi>^(-2)", n=1, order=-2, classical_terms=[(-2, "1")])
    with pytest.raises(UsageError):
        run_connes_check(sigma, 1, 20000)  # formula path errors on the order
    run = build_spectrum(sigma, 1, 20000)
    from nclab.spectral import trace_estimate

    c = trace_estimate(run.sequence, discard_fraction=0.0).trace_estimate
    assert abs(c) < 0.02


def test_symmetrization_does_not_change_residue():
    sigma = cosine_bracket()
    r_on = run_connes_check(sigma, 1, 128, symmetrize=True).residue_lattice
    r_off = run_connes_check(sigma, 1, 128, symmetrize=False).residue_lattice
    assert r_on == r_off


def test_unsymmetrized_uses_singular_values():
    rep = run_connes_check(cosine_bracket(), 1, 128, symmetrize=False)
    assert not rep.symmetrized
    assert rep.min_eigenvalue >= 0.0  # singular values are nonnegative


def test_deterministic():
    a = run_connes_check(cosine_bracket(), 1, 128)
    b = run_connes_check(cosine_bracket(), 1, 128)
    assert connes_report_json(a) == connes_report_json(b)


def test_agreement_for_multiplier_at_large_box():
    # x-independent classical symbol: estimate within span + 5% of residue
    rep = run_connes_check(bracket_inv(), 1, 20000)
    r = rep.residue_lattice
    assert abs(rep.spectral_estimate - r) <= rep.stability_span + 0.05 * abs(r)


def test_agreement_2d_multiplier():
    sigma = to_symbol("(1+|xi|^2)^(-1)", n=2, order=-2, classical_terms=[(-2, "1")])
    rep = run_connes_check(sigma, 2, 160)  # 321^2 = 103041 points
    assert rep.diagonal_path
    assert rep.residue_lattice == pytest.approx(np.pi, abs=1e-12)
    assert abs(rep.spectral_estimate - np.pi) <= rep.stability_span + 0.05 * np.pi


def test_agreement_3d_multiplier():
    sigma = to_symbol("(1+|xi|^2)^(-3/2)", n=3, order=-3, classical_terms=[(-3, "1")])
    rep = run_connes_check(sigma, 3, 40, residue_q=8)
    r = 4 * np.pi / 3  # (1/3) * |S^2|
    assert rep.residue_lattice == pytest.approx(r, abs=1e-12)
    assert abs(rep.spectral_estimate - r) / r < 0.05


def test_positivity_warning_fires():
    sigma = to_symbol("-xi1*<xi>^(-2)", n=1, order=-1, classical_terms=[(-1, "-theta1")])
    with pytest.warns(UserWarning, match="positivity"):
        rep = run_connes_check(sigma, 1, 400)
    assert rep.positivity_warning


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
    assert rep.stability_span <= 1e-3


def test_x_dependence_between_probe_points_takes_the_assembled_path():
    # cos(2 pi 1000 x1) is 1 at every probe point of depends_on_second;
    # the diagonal path would report about 3.0 against a residue of 2.
    # Achieved on the assembled path: relative deviation 1.5e-4.
    angular = "1+0.5*cos(2*pi*1000*x1)"
    sigma = to_symbol(f"({angular})*<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, angular)])
    rep = run_connes_check(sigma, 1, 256)
    assert not rep.diagonal_path
    assert rep.residue_lattice == pytest.approx(2.0, abs=1e-12)
    assert rep.relative_deviation <= 4e-4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_residue_quadrature_serves_both_conventions(monkeypatch, n):
    from nclab import pipeline

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["convention"])
        return dixmier_trace_formula(*args, **kwargs)

    monkeypatch.setattr(pipeline, "dixmier_trace_formula", counted)
    sigma = to_symbol(f"(1+|xi|^2)^(-{n}/2)", n=n, order=-n, classical_terms=[(-n, "1")])
    rep = run_connes_check(sigma, n, 16, residue_q=8)
    assert calls == [LATTICE]
    # bit-identical to a separate quadrature in each convention
    for convention, got in ((LATTICE, rep.residue_lattice), (PAPER, rep.residue_paper)):
        want = dixmier_trace_formula(sigma, n, torus_q=8, convention=convention).value
        assert got == float(np.real(want))


@pytest.mark.parametrize("n, M", [(1, 16), (2, 4)])
def test_probe_samples_x_along_the_assembly_grid(n, M):
    # cos(2 pi 1000 x_n) is 1 wherever 1000 x_n is an integer, as at
    # the five fixed offsets the probe once sampled; along the axes of
    # the assembly grid (Q = 256 for M = 16, 64 for M = 4) it varies
    def func(first, x):
        first, x = np.asarray(first, dtype=float), np.asarray(x, dtype=float)
        return (1 + 0.5 * np.cos(2 * np.pi * 1000 * x[..., -1])) / np.sqrt(1 + np.sum(first**2, axis=-1))

    sigma = Symbol(func, order=-n)
    assert depends_on_second(sigma, n, M)
    assert not build_spectrum(sigma, n, M).diagonal_path


def test_probe_reads_nan_samples_as_x_dependence():
    # an opaque callable, NaN for x1 < 0.5: the samples give no finite
    # spread, so the probe must not vouch for the diagonal path
    def func(first, x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.asarray(x, dtype=float)[..., 0] - 0.5)

    assert depends_on_second(Symbol(func, order=0), 1, 8)
    assert not depends_on_second(Symbol(lambda first, x: 2.0, order=0), 1, 8)


def _inline_solve(sigma, n, M, symmetrize):
    """The sequence and deviation as build_spectrum computed them inline
    before spectral owned the step: the reference the owner must match
    bit for bit."""
    box = TruncationBox(n, M)
    if symmetrize is None and not depends_on_second(sigma, n, M):
        vals = evaluate(sigma.func, box.points().astype(float), np.zeros(n), (box.size,))
        scale = max(1.0, float(np.max(np.abs(vals))))
        real_diag = float(np.max(np.abs(vals.imag))) <= 1e-12 * scale
        seq = np.sort(vals.real if real_diag else np.abs(vals))[::-1].copy()
        return seq, 0.0 if real_diag else float(np.max(np.abs(vals.imag)))
    A = assemble_toroidal(flip(sigma), box, QuadratureGrid.for_box(box))
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
    ["symmetrized", "unsymmetrized", "real diagonal", "complex diagonal"],
)
def test_build_spectrum_matches_the_inline_solve(case):
    # the phase makes the assembled matrix complex, so A* is not A^T
    angular = "1+0.5*cos(2*pi*x1+0.3)"
    phased = to_symbol(f"({angular})*<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, angular)])
    sigma, symmetrize = {
        "symmetrized": (phased, True),
        "unsymmetrized": (phased, False),
        "real diagonal": (bracket_inv(), None),
        "complex diagonal": (Symbol(_phased_bracket, order=-1), None),
    }[case]
    run = build_spectrum(sigma, 1, 24, symmetrize=symmetrize)
    assert run.diagonal_path == (symmetrize is None)
    seq, deviation = _inline_solve(sigma, 1, 24, symmetrize)
    if case == "symmetrized":  # the band's zhbevd against dense eigvalsh
        assert run.solver == "banded"
        assert np.max(np.abs(run.sequence - seq)) <= 1e-13 * seq[0]
    else:
        assert np.array_equal(run.sequence, seq)
    assert run.hermiticity_deviation == deviation
    if case == "complex diagonal":
        assert deviation > 0.5  # moduli, not real parts


def _pole_at_3(first, x):
    with np.errstate(divide="ignore"):
        return 1.0 / (np.abs(np.asarray(first, dtype=float)[..., 0]) - 3.0)


def test_pole_on_the_diagonal_path_is_a_usage_error():
    # unchecked, the sorted sequence starts [inf, inf] and the fit returns nan
    sigma = Symbol(_pole_at_3, order=-1)
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
@pytest.mark.parametrize("x_bandwidth", [None, 1])  # full Q-point rule, band of reach 1
def test_pole_on_the_assembled_path_reports_only_the_usage_error(x_bandwidth):
    # no errstate in the symbol: the kernel's samples must not warn
    def func(first, x):
        k = np.asarray(first, dtype=float)[..., 0]
        return (1 + 0.5 * np.cos(2 * np.pi * np.asarray(x, dtype=float)[..., 0])) / (np.abs(k) - 3.0)

    sigma = Symbol(func, order=-1, x_bandwidth=x_bandwidth)
    for symmetrize in (True, False):
        with pytest.raises(UsageError, match="non-finite"):
            build_spectrum(sigma, 1, 16, symmetrize=symmetrize)
