"""Noncommutative residue of order-(-n) symbols: quadrature of the
degree-(-n) homogeneous component over the sphere of directions times
the torus.

Every report carries the residue in both prefactor conventions:

* ``lattice`` (``ResidueReport.value``): prefactor 1/n, homogeneity
  read in lattice-dual frequency units (our e^{2 pi i} transforms).
  This is the constant consistent with the spectral estimator: for the
  n=1 multiplier with bracket decay the residue is 2, matching the
  logarithmic average of its eigenvalues.
* ``paper`` (``ResidueReport.paper_value``): prefactor
  1/(n (2 pi)^n), the classical constant for components extracted in
  angular-frequency units.  Rescaling the frequency by 2 pi maps one
  convention onto the other.

Torus integration uses the tensor rectangle rule (exact for
trigonometric polynomials of degree < Q/2); the sphere rules
(lattice.sphere_rule) are exact for the polynomial angular parts used
in the analytic test corpus.
Node evaluations are summed in pinned node order for reproducibility.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .lattice import BLOCK_POINTS, SphereRule, check_torus_grid, sphere_rule, torus_grid
from .record import Record, replace
from .symbols import DISCRETE, TOROIDAL, Symbol, flip, homogeneous_component

LATTICE = "lattice"
PAPER = "paper"

DEFAULT_TORUS_Q = 128


class ResidueReport(Record):
    """The residue as value (lattice) and paper_value, both from integral."""

    value: complex | float
    paper_value: complex | float
    n: int
    sphere_order: int
    torus_q: int
    component_source: str  # "declared" or "extracted"
    integral: complex  # sphere x torus integral before the prefactor
    flipped: bool = False


def noncommutative_residue(
    a: Symbol,
    n: int,
    rule: SphereRule | None = None,
    torus_q: int = DEFAULT_TORUS_Q,
) -> ResidueReport:
    """Residue of a toroidal-side symbol, in both conventions: each
    prefactor times the integral of its degree-(-n) homogeneous
    component over S^(n-1) x T^n.

    The component is the declared term when there is one, otherwise
    extracted numerically (Richardson probe along rays); see
    symbols.homogeneous_component.  It is evaluated on blocks of sphere
    nodes, as theta of shape (B, 1, n) against the torus grid as x of
    shape (1, X, n), with B * X within lattice.BLOCK_POINTS.  A symbol
    declared x-free is evaluated at x = 0 only (X = 1): its mean over
    the torus is its value there, and the report names that grid,
    torus_q = 1.  An oversize torus grid is refused before it is built."""
    if a.side != TOROIDAL:
        raise UsageError("residue expects a toroidal-side symbol (flip first)")
    if torus_q < 1:
        raise UsageError(f"torus grid size must be >= 1, got {torus_q}")
    if rule is None:
        rule = sphere_rule(n)
    if rule.n != n:
        raise UsageError("sphere rule dimension mismatch")

    declared = a.term(-float(n)) is not None

    q = torus_q if a.x_bandwidth != 0 else 1
    check_torus_grid(n, q)
    xs = torus_grid(n, q)
    per_block = max(1, BLOCK_POINTS // len(xs))
    means = np.empty(rule.order, dtype=complex)
    for start in range(0, rule.order, per_block):
        nodes = rule.nodes[start : start + per_block, None, :]
        vals = np.asarray(homogeneous_component(a, -float(n), xs[None], nodes))
        # a value that ignores x (or theta) keeps a length-1 axis: its
        # mean over that axis is the value itself
        vals = vals.reshape((1,) * (2 - vals.ndim) + vals.shape)
        means[start : start + len(nodes)] = vals.mean(axis=1)
    total = 0.0 + 0.0j
    for w, mean in zip(rule.weights, means.tolist()):
        total += w * mean

    return ResidueReport(
        value=residue_value(total, n, LATTICE),
        paper_value=residue_value(total, n, PAPER),
        n=n,
        sphere_order=rule.order,
        torus_q=q,
        component_source="declared" if declared else "extracted",
        integral=total,
    )


def residue_value(integral: complex, n: int, convention: str) -> complex | float:
    """The convention's prefactor times the sphere x torus integral,
    made real when its imaginary part is roundoff.  Both conventions
    scale the same integral, so one quadrature serves both."""
    prefactor = 1.0 / n if convention == LATTICE else 1.0 / (n * (2.0 * np.pi) ** n)
    value = prefactor * integral
    if abs(value.imag) <= 1e-12 * (1.0 + abs(value.real)):
        value = value.real
    return value


def check_trace_formula_applies(sigma: Symbol, n: int) -> None:
    """Raise UsageError unless sigma is a discrete-side symbol of order
    exactly -n, the only case dixmier_trace_formula covers (cheap)."""
    if sigma.side != DISCRETE:
        raise UsageError("trace formula expects a discrete-side symbol")
    if abs(sigma.order + n) > 1e-12:
        raise UsageError(f"trace formula needs order exactly -{n}, got {sigma.order}")


def check_dixmier_order(sigma: Symbol, n: int) -> None:
    """Raise UsageError when sigma's order is above -n: its operator is
    then not in L^(1,inf), and a fitted trace estimate grows with the
    truncation.  At -n the Dixmier trace is the residue; below -n the
    operator is trace class and its Dixmier trace is 0 (cheap)."""
    if sigma.order > -n + 1e-12:
        raise UsageError(
            f"dixmier needs order at most -{n}, got {sigma.order}: "
            f"above -{n} the operator is not in L^(1,inf)"
        )


def dixmier_trace_formula(
    sigma: Symbol,
    n: int,
    rule: SphereRule | None = None,
    torus_q: int = DEFAULT_TORUS_Q,
) -> ResidueReport:
    """Dixmier trace of the discrete quantization of a classical
    order-(-n) symbol in both conventions: the residue of its flip.
    Valid only at the critical order -n (check_trace_formula_applies)."""
    check_trace_formula_applies(sigma, n)
    return replace(noncommutative_residue(flip(sigma), n, rule=rule, torus_q=torus_q), flipped=True)


CONVENTIONS_STANZA = {
    "transform": "forward lattice transform sums f(k) exp(-2pi i k.xi); characters exp(+2pi i k.x)",
    "frequency_units": "lattice-dual (lattice point k embeds as frequency k, no 2pi)",
    "residue_prefactor": {"lattice": "1/n", "paper": "1/(n (2pi)^n)"},
}


def _json_number(value: complex | float):
    return [value.real, value.imag] if isinstance(value, complex) else value


def residue_report_json(rep: ResidueReport) -> dict:
    """Fixed-field-order dict for residue.json."""
    return {
        "residue_lattice": _json_number(rep.value),
        "residue_paper_convention": _json_number(rep.paper_value),
        "n": rep.n,
        "sphere_order": rep.sphere_order,
        "torus_Q": rep.torus_q,
        "component_source": rep.component_source,
        "flipped": rep.flipped,
        "conventions": CONVENTIONS_STANZA,
    }
