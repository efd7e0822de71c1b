"""End-to-end check that the spectral trace estimate of a discrete
order-(-n) operator matches the residue of its flipped symbol.

build_spectrum is the one entry point to the spectral side.  Both of
its paths build T = Op(flip sigma), the toroidal quantization of the
flipped symbol (unitarily equivalent to A* for A = Op(sigma), so it
shares A's singular values), picking the path from the symbol's
declared structure (Symbol.x_bandwidth), never from samples: for a
multiplier (bandwidth 0) T's diagonal is read off sigma's values over
the box and held as a band of half-width 0; every other symbol, a
plain Symbol(func) (bandwidth inf) included, has T assembled, as a
band when it is narrow enough (quantize.BAND_RATIO).  Symbols derived
by flip, finite_modify and difference keep their input's bandwidth,
so they take their input's path.  spectral.matrix_sequence
turns T into the sorted sequence, with its Hermiticity deviation, the
non-finite check and the choice of solver.

Symmetrization: a toroidal operator built from a real symbol is not
exactly Hermitian at finite truncation; (A + A*)/2 differs from A at
one order lower only, so its signed eigenvalue partial sums estimate
the same trace.  Defaults to on, on both paths: a diagonal's
Hermitian part is its real parts, so a complex multiplier gives the
same sequence on the diagonal path as assembled.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import UsageError
from .lattice import TruncationBox
from .quantize import FOURIER_MODE, OperatorMatrix, assemble_toroidal, sampling_grid
from .record import Record
from .residue import CONVENTIONS_STANZA, DEFAULT_TORUS_Q, SphereRule, check_trace_formula_applies, dixmier_trace_formula
from .spectral import SpectralSummary, matrix_sequence, trace_estimate
from .symbols import DISCRETE, Symbol, evaluate, flip

DEFAULT_DISCARD = 0.5


def depends_on_second(sigma: Symbol) -> bool:
    """Whether the spectrum of sigma must be assembled: every symbol
    except one whose x_bandwidth declares it x-free (0).  No known band
    (inf, the default of a plain Symbol(func)) counts as dependence, as
    it does for assembly's reach."""
    return sigma.x_bandwidth != 0


class SpectrumRun(Record):
    """The sorted sequence feeding the trace fit, plus how it was made."""

    n: int
    M: int
    Q: int  # grid points per axis that assembly sampled; 0 on the diagonal path
    symmetrized: bool
    solver: str  # diagonal, banded, dense or svd
    sequence: np.ndarray  # nonincreasing; signed for symmetrized runs
    hermiticity_deviation: float

    @property
    def diagonal_path(self) -> bool:
        return self.solver == "diagonal"

    @property
    def min_eigenvalue(self) -> float:
        return float(self.sequence[-1])

    @property
    def positivity_warning(self) -> bool:
        """Positivity is monitored, never certified: the minimum eigenvalue lies below
        -0.1 times the top-decile mean.  `nclab connes` reports it and warns once."""
        top = self.sequence[: max(1, len(self.sequence) // 10)]
        return bool(self.min_eigenvalue < -0.1 * float(np.mean(top)))

    def fit(self) -> SpectralSummary:
        """The log fit over the default window: it drops nothing of an exactly
        enumerated diagonal spectrum and the trailing DEFAULT_DISCARD
        (boundary modes) of an assembled one."""
        return trace_estimate(self.sequence, 0.0 if self.diagonal_path else DEFAULT_DISCARD)


def build_spectrum(
    sigma: Symbol,
    n: int,
    M: int,
    symmetrize: bool = True,
) -> SpectrumRun:
    """The sequence of T = Op(flip sigma): its diagonal, a band of
    half-width 0, for a multiplier; otherwise T assembled (as a band
    when that band is narrow).  Either way the sequence is the
    eigenvalues of the Hermitian part (symmetrize on, the default; on a
    diagonal the real parts) or the singular values (symmetrize off; on
    a diagonal the moduli)."""
    if sigma.side != DISCRETE:
        raise UsageError("spectrum runs start from a discrete-side symbol")
    box = TruncationBox(n, M)

    if depends_on_second(sigma):
        tau = flip(sigma)
        grid = sampling_grid(tau, box)
        A, q = assemble_toroidal(tau, box, grid), grid.q
    else:
        # T[m, m] = conj sigma(-m); evaluate's writable result is its own copy, conjugated in place
        # a pole is reported once, as matrix_sequence's non-finite-entry error, as on the assembled path
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = evaluate(sigma.func, (-box.points()).astype(float), np.zeros(n), (box.size,))
        vals = np.conjugate(vals, out=vals if vals.flags.writeable else None)
        A, q = OperatorMatrix(vals[:, None], box, FOURIER_MODE, 0), 0
    seq, herm_dev, solver = matrix_sequence(A, symmetrize)
    return SpectrumRun(
        n=n, M=M, Q=q, symmetrized=symmetrize, solver=solver, sequence=seq,
        hermiticity_deviation=herm_dev,
    )


class ConnesComparison(Record):
    """Spectral trace estimate against the residue: the spectrum run,
    its log fit and the residue of the same symbol."""

    run: SpectrumRun
    summary: SpectralSummary
    residue_lattice: float
    residue_paper: float
    relative_deviation: float


def run_connes_check(
    sigma: Symbol,
    n: int,
    M: int,
    symmetrize: bool = True,
    sphere_rule_: Optional[SphereRule] = None,
    residue_q: int = DEFAULT_TORUS_Q,
) -> ConnesComparison:
    """Build the operator at truncation M, estimate its trace from the
    log fit, evaluate the residue formula for the same symbol, and
    compare (lattice convention on both sides); a symbol the formula does
    not cover is refused first.  Deterministic for fixed inputs."""
    check_trace_formula_applies(sigma, n)
    run = build_spectrum(sigma, n, M, symmetrize=symmetrize)
    summary = run.fit()
    rep = dixmier_trace_formula(sigma, n, rule=sphere_rule_, torus_q=residue_q)
    r = float(np.real(rep.value))
    deviation = abs(summary.trace_estimate - r) / (abs(r) if abs(r) > 0 else 1.0)

    return ConnesComparison(
        run=run,
        summary=summary,
        residue_lattice=r,
        residue_paper=float(np.real(rep.paper_value)),
        relative_deviation=deviation,
    )


def connes_report_json(rep: ConnesComparison) -> dict:
    run, summary = rep.run, rep.summary
    return {
        "n": run.n,
        "M": run.M,
        "Q": run.Q,
        "symmetrized": run.symmetrized,
        "spectral_estimate": summary.trace_estimate,
        "residue_lattice": rep.residue_lattice,
        "residue_paper_convention": rep.residue_paper,
        "relative_deviation": rep.relative_deviation,
        "fit_window": list(summary.fit_window),
        "fit_rms": summary.fit_rms,
        "stability_span": summary.stability_span,
        "min_eigenvalue": run.min_eigenvalue,
        "hermiticity_deviation": run.hermiticity_deviation,
        "positivity_warning": run.positivity_warning,
        "diagonal_path": run.diagonal_path,
        "conventions": CONVENTIONS_STANZA,
    }
