import json
import math

import numpy as np
import pytest

from nclab.dsl import to_symbol
from nclab.errors import UsageError
from nclab.residue import (
    LATTICE,
    PAPER,
    dixmier_trace_formula,
    noncommutative_residue,
    residue_report_json,
    sphere_rule,
)
from nclab.symbols import TOROIDAL, Symbol, flip


def toroidal(main, n=1, order=-1, terms=None):
    return to_symbol(main, n=n, order=order, classical_terms=terms, side=TOROIDAL)


# ---------------------------------------------------------------------------
# sphere rules


def test_sphere_total_weights():
    assert sphere_rule(1).weights.sum() == pytest.approx(2.0)
    assert sphere_rule(2, 32).weights.sum() == pytest.approx(2 * math.pi, abs=1e-12)
    assert sphere_rule(3, 16).weights.sum() == pytest.approx(4 * math.pi, abs=1e-12)


def test_sphere_nodes_are_unit():
    for n, order in ((1, 0), (2, 32), (3, 16)):
        rule = sphere_rule(n, order)
        norms = np.sqrt(np.sum(rule.nodes**2, axis=-1))
        assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_circle_integrates_cos_squared():
    rule = sphere_rule(2, 32)
    got = float(np.sum(rule.weights * rule.nodes[:, 0] ** 2))
    assert got == pytest.approx(math.pi, abs=1e-12)


def test_sphere_integrates_z_squared():
    rule = sphere_rule(3, 16)
    got = float(np.sum(rule.weights * rule.nodes[:, 2] ** 2))
    assert got == pytest.approx(4 * math.pi / 3, abs=1e-10)


def test_sphere_unsupported_dimension():
    with pytest.raises(UsageError):
        sphere_rule(4)


# ---------------------------------------------------------------------------
# residue of toroidal symbols


def test_residue_constant_component_1d():
    a = toroidal("<xi>^(-1)", terms=[(-1, "1")])
    rep = noncommutative_residue(a, 1)
    assert rep.value == pytest.approx(2.0, abs=1e-12)
    assert rep.component_source == "declared"


def test_residue_constant_component_2d():
    a = toroidal("(1+|xi|^2)^(-1)", n=2, order=-2, terms=[(-2, "1")])
    rep = noncommutative_residue(a, 2)
    assert rep.value == pytest.approx(math.pi, abs=1e-12)


def test_residue_x_dependent_component():
    a = toroidal("(1+0.5*cos(2*pi*x1))*<xi>^(-1)", terms=[(-1, "1+0.5*cos(2*pi*x1)")])
    rep = noncommutative_residue(a, 1)
    # analytic: (1/1) * integral over x of (1+cos/2) dx * |S^0| = 1 * 1 * 2
    assert rep.value == pytest.approx(2.0, abs=1e-12)


def test_residue_by_extraction():
    a = Symbol(
        lambda f, x: (1.0 + np.sum(np.asarray(f) ** 2, axis=-1)) ** -0.5,
        order=-1,
        side=TOROIDAL,
    )
    rep = noncommutative_residue(a, 1)
    assert rep.component_source == "extracted"
    assert rep.value == pytest.approx(2.0, abs=1e-6)


def test_residue_requires_toroidal():
    sigma = to_symbol("<xi>^(-1)", n=1, order=-1)
    with pytest.raises(UsageError):
        noncommutative_residue(sigma, 1)


def test_residue_linearity_declared():
    a = toroidal("<xi>^(-1)", terms=[(-1, "1")])
    b = toroidal("(1+0.5*cos(2*pi*x1))*<xi>^(-1)", terms=[(-1, "1+0.5*cos(2*pi*x1)")])
    ra = noncommutative_residue(a, 1).value
    rb = noncommutative_residue(b, 1).value

    def sum_func(f, x):
        return a.func(f, x) + b.func(f, x)

    def sum_angular(x, theta):
        return a.classical.terms[0].angular(x, theta) + b.classical.terms[0].angular(x, theta)

    from nclab.symbols import ClassicalStructure, ClassicalTerm

    s = Symbol(
        sum_func, order=-1, side=TOROIDAL,
        classical=ClassicalStructure((ClassicalTerm(-1.0, sum_angular),)),
    )
    assert noncommutative_residue(s, 1).value == pytest.approx(ra + rb, abs=1e-12)

    scaled = Symbol(
        lambda f, x: 2.5 * a.func(f, x), order=-1, side=TOROIDAL,
        classical=ClassicalStructure(
            (ClassicalTerm(-1.0, lambda x, t: 2.5 * a.classical.terms[0].angular(x, t)),)
        ),
    )
    assert noncommutative_residue(scaled, 1).value == pytest.approx(2.5 * ra, abs=1e-12)


def test_lower_order_term_invisible():
    with_tail = toroidal("<xi>^(-1)", terms=[(-1, "1"), (-2, "5")])
    bare = toroidal("<xi>^(-1)", terms=[(-1, "1")])
    assert (
        noncommutative_residue(with_tail, 1).value
        == noncommutative_residue(bare, 1).value
    )


def test_convention_rescaling_consistency():
    # homogeneous a of degree -1; rescaled a~(xi) = a(xi/2pi) = 2pi * a(xi)
    def a_func(f, x):
        return np.abs(np.asarray(f, dtype=float)[..., 0]) ** -1.0

    a = Symbol(a_func, order=-1, side=TOROIDAL)
    a_resc = Symbol(lambda f, x: a_func(np.asarray(f) / (2 * np.pi), x), order=-1, side=TOROIDAL)
    lat = noncommutative_residue(a, 1, convention=LATTICE).value
    pap = noncommutative_residue(a_resc, 1, convention=PAPER).value
    assert pap == pytest.approx(lat, abs=1e-9)


def test_quadrature_exact_for_polynomial_data():
    # angular theta1^2 and torus 1+cos(2 pi x1)/2: closed-form value
    a = toroidal(
        "(1+0.5*cos(2*pi*x1))*xi1^2*(1+|xi|^2)^(-2)",
        n=2,
        order=-2,
        terms=[(-2, "(1+0.5*cos(2*pi*x1))*theta1^2")],
    )
    rep = noncommutative_residue(a, 2)
    # (1/2) * (integral of cos^2 over circle = pi) * (torus integral = 1)
    assert rep.value == pytest.approx(math.pi / 2, abs=1e-12)


def test_reflection_compatibility_with_flip():
    # real sigma even in n': residue(flip sigma) = residue(sigma read toroidally)
    sigma = to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1")])
    as_toroidal = toroidal("<xi>^(-1)", terms=[(-1, "1")])
    r1 = noncommutative_residue(flip(sigma), 1).value
    r2 = noncommutative_residue(as_toroidal, 1).value
    assert r1 == pytest.approx(r2, abs=1e-12)


# ---------------------------------------------------------------------------
# the trace formula


def test_formula_multiplier():
    sigma = to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1")])
    rep = dixmier_trace_formula(sigma, 1)
    assert rep.value == pytest.approx(2.0, abs=1e-12)
    assert rep.flipped


def test_formula_x_dependent():
    sigma = to_symbol(
        "(1+0.5*cos(2*pi*x1))*<xi>^(-1)",
        n=1,
        order=-1,
        classical_terms=[(-1, "1+0.5*cos(2*pi*x1)")],
    )
    assert dixmier_trace_formula(sigma, 1).value == pytest.approx(2.0, abs=1e-12)


def test_formula_order_mismatch():
    sigma = to_symbol("<xi>^(-2)", n=1, order=-2, classical_terms=[(-2, "1")])
    with pytest.raises(UsageError, match="order"):
        dixmier_trace_formula(sigma, 1)
    # probing the critical degree directly: the component vanishes
    from nclab.symbols import homogeneous_component

    got = homogeneous_component(flip(sigma), -1.0, np.zeros(1), np.array([1.0]))
    assert complex(got) == pytest.approx(0.0, abs=1e-6)


def test_residue_json():
    sigma = to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1")])
    rep = dixmier_trace_formula(sigma, 1)
    data = json.loads(json.dumps(residue_report_json(rep)))
    assert list(data.keys()) == [
        "value", "convention", "n", "sphere_order", "torus_Q",
        "component_source", "flipped", "conventions",
    ]
    assert data["value"] == pytest.approx(2.0)
    assert data["convention"] == "lattice"
