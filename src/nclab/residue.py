"""Noncommutative residue of order-(-n) symbols: quadrature of the
degree-(-n) homogeneous component over the sphere of directions times
the torus.

Two prefactor conventions are implemented:

* ``lattice`` (default): prefactor 1/n, homogeneity read in
  lattice-dual frequency units (our e^{2 pi i} transforms).  This is
  the constant consistent with the spectral estimator: for the n=1
  multiplier with bracket decay the residue is 2, matching the
  logarithmic average of its eigenvalues.
* ``paper``: prefactor 1/(n (2 pi)^n), the classical constant for
  components extracted in angular-frequency units.  Rescaling the
  frequency by 2 pi maps one convention onto the other.

Torus integration uses the tensor rectangle rule (exact for
trigonometric polynomials of degree < Q/2); the sphere rules are exact
for the polynomial angular parts used in the analytic test corpus.
Node evaluations are summed in pinned node order for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UsageError
from .lattice import torus_grid
from .symbols import DISCRETE, TOROIDAL, Symbol, flip, homogeneous_component

LATTICE = "lattice"
PAPER = "paper"

DEFAULT_TORUS_Q = 128
DEFAULT_SPHERE_ORDER = {1: 2, 2: 64, 3: 24}


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes/weights on the unit sphere S^(n-1) in R^n;
    weights sum to the surface measure (2, 2*pi, 4*pi for n=1,2,3)."""

    n: int
    nodes: np.ndarray  # (K, n), unit vectors
    weights: np.ndarray  # (K,), positive

    @property
    def order(self) -> int:
        return len(self.weights)


def sphere_rule(n: int, order: int = 0) -> SphereRule:
    """Build the quadrature rule for S^(n-1), 1 <= n <= 3.

    n=1: the two points +-1, weight 1 each.  n=2: `order` equispaced
    angles, trapezoid weights.  n=3: Gauss-Legendre in cos(polar) with
    `order` nodes times 2*order equispaced azimuths, normalized to
    total 4*pi.
    """
    if not 1 <= n <= 3:
        raise UsageError(f"unsupported dimension {n}: sphere rules cover 1 <= n <= 3")
    if order <= 0:
        order = DEFAULT_SPHERE_ORDER[n]
    if n == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
    elif n == 2:
        ang = 2.0 * np.pi * np.arange(order) / order
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        weights = np.full(order, 2.0 * np.pi / order)
    else:
        t, wt = np.polynomial.legendre.leggauss(order)
        n_az = 2 * order
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        st = np.sqrt(1.0 - t**2)
        nodes = np.stack(
            [
                np.outer(st, np.cos(phi)).ravel(),
                np.outer(st, np.sin(phi)).ravel(),
                np.outer(t, np.ones(n_az)).ravel(),
            ],
            axis=-1,
        )
        weights = np.outer(wt, np.full(n_az, 2.0 * np.pi / n_az)).ravel()
        weights = weights * (4.0 * np.pi / weights.sum())
    return SphereRule(n, nodes, weights)


@dataclass(frozen=True)
class ResidueReport:
    value: complex | float
    convention: str
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
    convention: str = LATTICE,
) -> ResidueReport:
    """Residue of a toroidal-side symbol: prefactor times the integral
    of its degree-(-n) homogeneous component over S^(n-1) x T^n.

    Uses the declared component when available, otherwise numeric
    extraction (Richardson probe along rays)."""
    if a.side != TOROIDAL:
        raise UsageError("residue expects a toroidal-side symbol (flip first)")
    if convention not in (LATTICE, PAPER):
        raise UsageError(f"unknown convention {convention!r}")
    if rule is None:
        rule = sphere_rule(n)
    if rule.n != n:
        raise UsageError("sphere rule dimension mismatch")

    declared = a.classical.component(-float(n)) if a.classical is not None else None

    xs = torus_grid(n, torus_q)
    total = 0.0 + 0.0j
    for node, w in zip(rule.nodes, rule.weights):
        if declared is not None:
            vals = np.asarray(declared.angular(xs, node))
        else:
            vals = np.asarray(homogeneous_component(a, -float(n), xs, node))
        mean = complex(vals if vals.ndim == 0 else vals.mean())
        total += w * mean

    return ResidueReport(
        value=residue_value(total, n, convention),
        convention=convention,
        n=n,
        sphere_order=rule.order,
        torus_q=torus_q,
        component_source="declared" if declared is not None else "extracted",
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


def dixmier_trace_formula(
    sigma: Symbol,
    n: int,
    rule: SphereRule | None = None,
    torus_q: int = DEFAULT_TORUS_Q,
    convention: str = LATTICE,
) -> ResidueReport:
    """Dixmier trace of the discrete quantization of a classical
    order-(-n) symbol, computed as the residue of its flip.  Valid
    only at the critical order -n."""
    if sigma.side != DISCRETE:
        raise UsageError("trace formula expects a discrete-side symbol")
    if abs(sigma.order + n) > 1e-12:
        raise UsageError(
            f"trace formula needs order exactly -{n}, got {sigma.order}"
        )
    rep = noncommutative_residue(
        flip(sigma), n, rule=rule, torus_q=torus_q, convention=convention
    )
    return replace(rep, flipped=True)


CONVENTIONS_STANZA = {
    "transform": "forward lattice transform sums f(k) exp(-2pi i k.xi); characters exp(+2pi i k.x)",
    "frequency_units": "lattice-dual (lattice point k embeds as frequency k, no 2pi)",
    "residue_prefactor": {"lattice": "1/n", "paper": "1/(n (2pi)^n)"},
}


def residue_report_json(rep: ResidueReport) -> dict:
    """Fixed-field-order dict for residue.json."""
    value = rep.value
    payload = {
        "value": value if not isinstance(value, complex) else [value.real, value.imag],
        "convention": rep.convention,
        "n": rep.n,
        "sphere_order": rep.sphere_order,
        "torus_Q": rep.torus_q,
        "component_source": rep.component_source,
        "flipped": rep.flipped,
        "conventions": CONVENTIONS_STANZA,
    }
    return payload
