"""Discrete and toroidal pseudo-differential quantizations at finite
truncation, Dixmier trace estimation by logarithmic averaging, and the
noncommutative residue of order-(-n) classical symbols.

The central numerical fact this package verifies: for a classical
order-(-n) discrete symbol, the logarithmic average of the singular
values of its truncated quantization converges to the residue integral
of the degree-(-n) homogeneous component of the flipped symbol over
S^(n-1) x T^n.
"""

from .dsl import ParseError, eval_expr, parse, to_symbol, unparse
from .errors import ConfigError, NonConvergenceError, UsageError
from .lattice import TruncationBox
from .pipeline import ConnesComparison, build_spectrum, run_connes_check
from .quantize import (
    OperatorMatrix,
    QuadratureGrid,
    adjoint,
    assemble_discrete,
    assemble_toroidal,
    conjugate_by_fourier,
    default_grid_size,
    verify_identity,
)
from .residue import ResidueReport, SphereRule, dixmier_trace_formula, noncommutative_residue, sphere_rule
from .spectral import (
    SpectralSummary,
    diagonal_sequence,
    dixmier_quotients,
    l1inf_norm,
    matrix_sequence,
    trace_estimate,
)
from .symbols import (
    ClassicalStructure,
    ClassicalTerm,
    SeminormReport,
    Symbol,
    difference,
    finite_modify,
    flip,
    homogeneous_component,
    partial_x,
    regularize_at_origin,
    seminorm_estimate,
)

__version__ = "0.1.0"
