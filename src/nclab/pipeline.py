"""End-to-end check that the spectral trace estimate of a discrete
order-(-n) operator matches the residue of its flipped symbol.

build_spectrum is the one entry point to the spectral side.  It picks
the path from the symbol's structure: when the symbol does not depend
on the integration variable it evaluates the diagonal over the box;
otherwise it assembles the toroidal operator of the flipped symbol
(singular values are shared with the discrete operator since the
bases differ by a unitary conjugation).  A symbol whose expression
bounds its x-bandwidth narrowly enough (quantize.BAND_RATIO) comes
back from assemble_toroidal as a band, never as an S x S matrix.  Turning that diagonal, band or matrix into
the sorted sequence, with its Hermiticity deviation, the non-finite
check and the choice of solver, is spectral's job (diagonal_sequence,
matrix_sequence); this module only chooses between them and reports
the solver that ran.

Symmetrization: a toroidal operator built from a real symbol is not
exactly Hermitian at finite truncation; (A + A*)/2 differs from A at
one order lower only, so its signed eigenvalue partial sums estimate
the same trace.  Defaults to on for x-dependent symbols.  Positivity
is never certified, only monitored: a minimum eigenvalue below
-0.1 times the top-decile mean raises a warning flag in the report,
never an error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError
from .lattice import TruncationBox, torus_grid
from .quantize import QuadratureGrid, assemble_toroidal
from .residue import CONVENTIONS_STANZA, LATTICE, PAPER, SphereRule, dixmier_trace_formula, residue_value
from .spectral import SpectralSummary, diagonal_sequence, matrix_sequence, trace_estimate
from .symbols import DISCRETE, Symbol, evaluate, flip


def depends_on_second(sigma: Symbol, n: int, M: int, tol: float = 1e-12) -> bool:
    """Whether sigma depends on its second argument: the symbol's
    x_dependent flag when known (from its expression), otherwise a
    sampled-variation probe along each axis of the assembly grid of
    the box [-M, M]^n, plus one asymmetric point when n > 1.  The
    probe can miss a dependence that vanishes at every sample;
    symbols built from expressions never reach it.  A non-finite
    spread of samples counts as dependence: when in doubt, assemble."""
    if sigma.x_dependent is not None:
        return sigma.x_dependent
    q = QuadratureGrid.for_box(TruncationBox(n, M)).q
    xs = np.zeros((n * q + (n > 1), n))
    for axis in range(n):
        xs[axis * q : (axis + 1) * q, axis] = torus_grid(1, q)[:, 0]
    if n > 1:  # one asymmetric point off the axes
        xs[-1] = np.linspace(0.11, 0.83, n)
    firsts = [np.zeros(n)]
    for s in (1, -1, M, -M):
        v = np.zeros(n)
        v[0] = s
        firsts.append(v)
    if n > 1:
        firsts.append(np.ones(n))
    for f in firsts:
        vals = evaluate(sigma.func, f, xs, (len(xs),))
        if not np.max(np.abs(vals - vals[0])) <= tol:
            return True
    return False


@dataclass(frozen=True)
class SpectrumRun:
    """The sorted sequence feeding the trace fit, plus how it was made."""

    n: int
    M: int
    Q: int  # 0 when the diagonal fast path skipped assembly
    symmetrized: bool
    diagonal_path: bool
    solver: str  # diagonal, banded, dense or svd
    sequence: np.ndarray  # nonincreasing; signed for symmetrized runs
    min_eigenvalue: float
    hermiticity_deviation: float
    discard_default: float


def build_spectrum(
    sigma: Symbol,
    n: int,
    M: int,
    Q: Optional[int] = None,
    symmetrize: Optional[bool] = None,
) -> SpectrumRun:
    """Diagonal fast path for multipliers; otherwise assemble the
    toroidal operator of the flipped symbol (as a band when that band
    is narrow) and take eigenvalues of its Hermitian part (symmetrize
    on, the default for x-dependent symbols) or singular values
    (symmetrize off)."""
    if sigma.side != DISCRETE:
        raise UsageError("spectrum runs start from a discrete-side symbol")
    box = TruncationBox(n, M)

    if not depends_on_second(sigma, n, M):
        vals = evaluate(sigma.func, box.points().astype(float), np.zeros(n), (box.size,))
        seq, herm_dev = diagonal_sequence(vals)
        return SpectrumRun(
            n=n, M=M, Q=0, symmetrized=False, diagonal_path=True, solver="diagonal",
            sequence=seq, min_eigenvalue=float(seq[-1]),
            hermiticity_deviation=herm_dev, discard_default=0.0,
        )

    grid = QuadratureGrid.for_box(box, Q)
    A = assemble_toroidal(flip(sigma), box, grid)
    symmetrized = True if symmetrize is None else bool(symmetrize)
    seq, herm_dev, solver = matrix_sequence(A, symmetrized)
    return SpectrumRun(
        n=n, M=M, Q=grid.q, symmetrized=symmetrized, diagonal_path=False, solver=solver,
        sequence=seq, min_eigenvalue=float(seq[-1]),
        hermiticity_deviation=herm_dev, discard_default=0.5,
    )


@dataclass(frozen=True)
class ConnesComparison:
    """Spectral trace estimate against the residue, with diagnostics."""

    n: int
    M: int
    Q: int
    symmetrized: bool
    spectral_estimate: float
    residue_lattice: float
    residue_paper: float
    relative_deviation: float
    fit_window: tuple[int, int]
    fit_rms: float
    stability_span: float
    min_eigenvalue: float
    hermiticity_deviation: float
    positivity_warning: bool
    diagonal_path: bool
    solver: str
    summary: SpectralSummary


def run_connes_check(
    sigma: Symbol,
    n: int,
    M: int,
    Q: Optional[int] = None,
    window_fraction: tuple[float, float] = (0.2, 1.0),
    discard_fraction: Optional[float] = None,
    symmetrize: Optional[bool] = None,
    sphere_rule_: Optional[SphereRule] = None,
    residue_q: int = 128,
) -> ConnesComparison:
    """Build the operator at truncation M, estimate its trace from the
    log fit, evaluate the residue formula for the same symbol, and
    compare (lattice convention on both sides).  Deterministic for
    fixed inputs."""
    run = build_spectrum(sigma, n, M, Q=Q, symmetrize=symmetrize)
    d = run.discard_default if discard_fraction is None else discard_fraction
    summary = trace_estimate(run.sequence, window_fraction, d)

    top = run.sequence[: max(1, len(run.sequence) // 10)]
    positivity_warning = bool(run.min_eigenvalue < -0.1 * float(np.mean(top)))
    if positivity_warning:
        warnings.warn(
            f"minimum eigenvalue {run.min_eigenvalue:.3e} is materially negative "
            f"(top-decile mean {float(np.mean(top)):.3e}); positivity hypothesis violated",
            stacklevel=2,
        )

    rep = dixmier_trace_formula(
        sigma, n, rule=sphere_rule_, torus_q=residue_q, convention=LATTICE
    )
    r = float(np.real(rep.value))
    c = summary.trace_estimate
    deviation = abs(c - r) / (abs(r) if abs(r) > 0 else 1.0)

    return ConnesComparison(
        n=n,
        M=M,
        Q=run.Q,
        symmetrized=run.symmetrized,
        spectral_estimate=c,
        residue_lattice=r,
        residue_paper=float(np.real(residue_value(rep.integral, n, PAPER))),
        relative_deviation=deviation,
        fit_window=summary.fit_window,
        fit_rms=summary.fit_rms,
        stability_span=summary.stability_span,
        min_eigenvalue=run.min_eigenvalue,
        hermiticity_deviation=run.hermiticity_deviation,
        positivity_warning=positivity_warning,
        diagonal_path=run.diagonal_path,
        solver=run.solver,
        summary=summary,
    )


def connes_report_json(rep: ConnesComparison) -> dict:
    return {
        "n": rep.n,
        "M": rep.M,
        "Q": rep.Q,
        "symmetrized": rep.symmetrized,
        "spectral_estimate": rep.spectral_estimate,
        "residue_lattice": rep.residue_lattice,
        "residue_paper_convention": rep.residue_paper,
        "relative_deviation": rep.relative_deviation,
        "fit_window": list(rep.fit_window),
        "fit_rms": rep.fit_rms,
        "stability_span": rep.stability_span,
        "min_eigenvalue": rep.min_eigenvalue,
        "hermiticity_deviation": rep.hermiticity_deviation,
        "positivity_warning": rep.positivity_warning,
        "diagonal_path": rep.diagonal_path,
        "conventions": CONVENTIONS_STANZA,
    }
