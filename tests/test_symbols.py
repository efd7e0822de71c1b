import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab.dsl import to_symbol
from nclab.errors import NonConvergenceError, UsageError
from nclab.lattice import torus_grid
from nclab.residue import noncommutative_residue
from nclab.symbols import (
    TOROIDAL,
    ClassicalTerm,
    Symbol,
    difference,
    finite_modify,
    flip,
    homogeneous_component,
    regularize_at_origin,
    seminorm_estimate,
)


def bracket_inv(n=1):
    return to_symbol("<xi>^(-1)", n=n, order=-1, classical_terms=[(-1, "1")])


# ---------------------------------------------------------------------------
# flip


def test_flip_even_real_symbol():
    tau = flip(bracket_inv())
    assert tau.side == TOROIDAL
    k = np.array([3.0])
    x = np.array([0.2])
    assert tau(k, x) == pytest.approx(1 / np.sqrt(10))


def test_flip_conjugates_characters():
    # sigma(n', x) = e^{2 pi i x1} g(n') with g real even
    def func(first, x):
        g = 1.0 / (1.0 + np.sum(np.asarray(first) ** 2, axis=-1))
        return np.exp(2j * np.pi * np.asarray(x)[..., 0]) * g

    sigma = Symbol(func, order=-2)
    tau = flip(sigma)
    k, x = np.array([2.0]), np.array([0.3])
    want = np.exp(-2j * np.pi * 0.3) / 5.0
    assert tau(k, x) == pytest.approx(want)


def test_flip_direct_substitution():
    # sigma(n', x) = cos(2 pi x1) - i n'_1: flipping gives cos(2 pi x1) - i k1
    sigma = to_symbol("cos(2*pi*x1)", main_im="-xi1", n=1, order=1)
    tau = flip(sigma)
    k, x = np.array([1.0]), np.array([0.1])
    want = np.cos(2 * np.pi * 0.1) - 1j * 1.0
    assert tau(k, x) == pytest.approx(want)


def test_flip_requires_discrete():
    tau = flip(bracket_inv())
    with pytest.raises(UsageError):
        flip(tau)


def test_flip_angular_reflection():
    # odd angular part changes sign under the flip
    sigma = to_symbol("xi1*<xi>^(-2)", n=1, order=-1, classical_terms=[(-1, "theta1")])
    tau = flip(sigma)
    x = np.array([0.0])
    assert tau.classical[0].angular(x, np.array([1.0])) == pytest.approx(-1.0)


def test_flip_involution_pointwise():
    sigma = to_symbol(
        "(1+0.5*cos(2*pi*x1))*<xi>^(-1)", main_im="0.25*sin(2*pi*x1)", n=1, order=-1
    )
    tau = flip(sigma)
    # applying the same transport back (conj at -k) must reproduce sigma
    rng = np.random.default_rng(3)
    for _ in range(1000):
        k = rng.integers(-50, 51, size=1).astype(float)
        x = rng.uniform(0, 1, size=1)
        back = np.conj(tau.func(-k, x))
        assert back == pytest.approx(complex(np.asarray(sigma.func(k, x)).reshape(())))


# ---------------------------------------------------------------------------
# difference calculus


def quadratic():
    return Symbol(lambda first, x: np.sum(np.asarray(first, dtype=float) ** 2, axis=-1), order=2)


def test_first_difference_of_square():
    d = difference(quadratic(), [1])
    for xi in (-3.0, 0.0, 5.0):
        assert d(np.array([xi]), np.zeros(1)) == pytest.approx(2 * xi + 1)


def test_second_difference_of_square():
    d = difference(quadratic(), [2])
    for xi in (-3.0, 0.0, 5.0):
        assert d(np.array([xi]), np.zeros(1)) == pytest.approx(2.0)


def test_difference_kills_constants():
    const = Symbol(lambda first, x: 7.0, order=0)
    for alpha in ([1], [2], [3]):
        d = difference(const, alpha)
        assert d(np.array([4.0]), np.zeros(1)) == pytest.approx(0.0)


def test_difference_of_x_only_symbol_vanishes():
    s = to_symbol("1+0.5*cos(2*pi*x1)", n=1, order=0)
    d = difference(s, [2])
    assert d(np.array([5.0]), np.array([0.3])) == pytest.approx(0.0, abs=1e-15)


@given(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
    st.integers(-6, 6), st.integers(-6, 6),
)
@settings(max_examples=60)
def test_difference_commutes_across_axes(a, b, c, k1, k2):
    def func(first, x):
        f = np.asarray(first, dtype=float)
        return a * f[..., 0] ** 2 + b * f[..., 0] * f[..., 1] + c * f[..., 1] ** 3

    s = Symbol(func, order=3)
    pt = np.array([float(k1), float(k2)])
    x0 = np.zeros(2)
    d12 = difference(difference(s, [1, 0]), [0, 1])
    d21 = difference(difference(s, [0, 1]), [1, 0])
    assert d12(pt, x0) == d21(pt, x0)  # exact, same float ops reordered


# ---------------------------------------------------------------------------
# seminorm estimation


def test_seminorm_bracket_sup_and_exponent():
    rep = seminorm_estimate(bracket_inv(), [0], (0, 4096))
    # ratio (1+r)/sqrt(1+r^2) peaks at r=1 with value sqrt(2)
    assert rep.sup_ratio == pytest.approx(np.sqrt(2), abs=1e-4)
    assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.05)


def test_seminorm_constant_symbol():
    s = to_symbol("1", n=1, order=0)
    rep = seminorm_estimate(s, [0], (0, 256))
    assert rep.sup_ratio == pytest.approx(1.0)
    assert rep.fitted_exponent == pytest.approx(0.0, abs=1e-9)


def test_seminorm_first_difference_exponent():
    rep = seminorm_estimate(bracket_inv(), [1], (16, 4096))
    assert rep.fitted_exponent == pytest.approx(-2.0, abs=0.05)


def test_seminorm_refuses_an_oversize_window_before_enumeration(monkeypatch):
    # 3^20 points: numpy failed on one 26 GiB coordinate array of them
    from nclab import lattice

    def refuse(*axes, **kwargs):
        raise AssertionError("box enumerated")

    monkeypatch.setattr(lattice, "_physical_memory", lambda: 4 * 2**30)
    monkeypatch.setattr(lattice.np, "meshgrid", refuse)
    s = to_symbol("(1+|xi|^2)^(-10)", n=20, order=-20)
    with pytest.raises(UsageError, match=r"a box of 3486784401 lattice points needs [\d.]+ GiB, more than the 4\.0 GiB"):
        seminorm_estimate(s, [0] * 20, (0, 1))


def _reference_seminorm(sigma, alpha, window):
    """The estimate (beta = 0) with one x-grid point at a time,
    per-shell maxima by mask."""
    from nclab.lattice import torus_grid
    from nclab.symbols import _window_points, evaluate

    alpha = np.asarray(alpha)
    g = difference(sigma, alpha)
    pts = _window_points(alpha.size, *window)
    radii = np.sqrt(np.sum(pts.astype(float) ** 2, axis=-1))
    shells = np.rint(radii).astype(int)
    xs = torus_grid(alpha.size, 16)
    sup_pointwise = np.zeros(len(pts))
    for x in xs:
        vals = np.abs(evaluate(g.func, pts.astype(float), x, (len(pts),)))
        np.maximum(sup_pointwise, vals, out=sup_pointwise)
    exponent = sigma.order - sigma.rho * np.sum(alpha)
    sup_ratio = float(np.max(sup_pointwise * (1.0 + radii) ** (-exponent)))
    shell_ids = np.unique(shells)
    shell_sup = np.array([np.max(sup_pointwise[shells == s]) for s in shell_ids])
    keep = shell_sup > 0
    lx = np.log1p(shell_ids[keep].astype(float))
    ly = np.log(shell_sup[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return sup_ratio, float(slope), resid


def test_seminorm_matches_the_pointwise_reference():
    s = to_symbol("(1+0.5*cos(2*pi*x1))*cos(2*pi*x2)*(1+|xi|^2)^(-1)", n=2, order=-2)
    rep = seminorm_estimate(s, [1, 0], (0, 24))
    want = _reference_seminorm(s, [1, 0], (0, 24))
    assert rep.sup_ratio == want[0]
    # the closed-form line and np.polyfit's lstsq round differently
    assert (rep.fitted_exponent, rep.residual) == pytest.approx(want[1:], rel=1e-12)


def test_seminorm_two_shell_fit_matches_the_pointwise_reference():
    # the window [0, 1] holds shells 0 and 1: the line through two points
    s = to_symbol("(1+0.5*cos(2*pi*x1))*<xi>^(-1)", n=1, order=-1)
    rep = seminorm_estimate(s, [0], (0, 1))
    sup_ratio, slope, resid = _reference_seminorm(s, [0], (0, 1))
    assert rep.sup_ratio == sup_ratio
    assert rep.fitted_exponent == pytest.approx(slope, rel=1e-12)
    # the largest |ln sup| is ln 1.5, at shell 0
    assert rep.residual == pytest.approx(resid, rel=0, abs=1e-12 * np.log(1.5))


def test_seminorm_empty_window():
    with pytest.raises(UsageError):
        seminorm_estimate(bracket_inv(), [0], (10, 5))


# ---------------------------------------------------------------------------
# homogeneous components


def test_extraction_of_bracket_leading_term():
    s = Symbol(
        lambda first, x: (1.0 + np.sum(np.asarray(first) ** 2, axis=-1)) ** -0.5,
        order=-1,
        side=TOROIDAL,
    )
    for theta in (np.array([1.0]), np.array([-1.0])):
        got = homogeneous_component(s, -1.0, np.zeros(1), theta)
        assert complex(got) == pytest.approx(1.0, abs=1e-6)


def test_declared_component_is_preferred_and_exact():
    s = to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1")], side=TOROIDAL)
    got = homogeneous_component(s, -1.0, np.zeros(1), np.array([1.0]))
    assert complex(np.asarray(got).reshape(())) == pytest.approx(1.0)


def test_exactly_homogeneous_symbol():
    # |k|^(-1): all Richardson levels coincide
    s = Symbol(
        lambda first, x: np.abs(np.asarray(first, dtype=float)[..., 0]) ** -1.0,
        order=-1,
        side=TOROIDAL,
    )
    got = homogeneous_component(s, -1.0, np.zeros(1), np.array([1.0]))
    assert complex(got) == pytest.approx(1.0, abs=1e-14)


def test_lower_order_symbol_has_zero_component():
    s = Symbol(
        lambda first, x: (1.0 + np.sum(np.asarray(first) ** 2, axis=-1)) ** -1.0,
        order=-2,
        side=TOROIDAL,
    )
    got = homogeneous_component(s, -1.0, np.zeros(1), np.array([1.0]))
    assert complex(got) == pytest.approx(0.0, abs=1e-6)


def test_extraction_linearity():
    def base(first, x):
        return (1.0 + np.sum(np.asarray(first) ** 2, axis=-1)) ** -0.5

    s1 = Symbol(base, order=-1, side=TOROIDAL)
    s3 = Symbol(lambda f, x: 3.0 * base(f, x), order=-1, side=TOROIDAL)
    v1 = homogeneous_component(s1, -1.0, np.zeros(1), np.array([1.0]))
    v3 = homogeneous_component(s3, -1.0, np.zeros(1), np.array([1.0]))
    assert complex(v3) == pytest.approx(3.0 * complex(v1), abs=1e-9)


def test_non_unit_theta_rejected():
    with pytest.raises(UsageError):
        homogeneous_component(flip(bracket_inv()), -1.0, np.zeros(1), np.array([2.0]))


def test_extraction_divergence():
    # order +1 symbol probed at degree 0: t^0 * t -> diverges
    s = Symbol(
        lambda first, x: np.asarray(first, dtype=float)[..., 0],
        order=1,
        side=TOROIDAL,
    )
    with pytest.raises(NonConvergenceError):
        homogeneous_component(s, 0.0, np.zeros(1), np.array([1.0]))


def test_extraction_refuses_a_nan_drift():
    # the bracket decay, NaN past |k| = 4000: the last two Richardson
    # radii (4T, 8T with T = 1024) read NaN, so the drift is NaN
    def func(first, x):
        r = np.abs(np.asarray(first, dtype=float)[..., 0])
        return np.where(r > 4000, np.nan, 1.0 / np.sqrt(1.0 + r**2))

    s = Symbol(func, order=-1, side=TOROIDAL, x_bandwidth=0)
    with pytest.raises(NonConvergenceError, match="did not settle: drift nan"):
        homogeneous_component(s, -1.0, np.zeros(1), np.array([1.0]))
    with pytest.raises(NonConvergenceError):
        noncommutative_residue(s, 1)


def unit_directions(K):
    ang = 2.0 * np.pi * np.arange(K) / K
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


@pytest.mark.parametrize(
    "terms",
    [(), [(-2, "(1+0.5*cos(2*pi*x1))*(2+theta1*theta2)")]],
    ids=["extracted", "declared"],
)
def test_batched_component_equals_per_node_calls(terms):
    s = to_symbol(
        "(1+0.5*cos(2*pi*x1))*(2+xi1*xi2/(1+|xi|^2))*(1+|xi|^2)^(-1)",
        n=2, order=-2, classical_terms=terms, side=TOROIDAL,
    )
    xs = torus_grid(2, 8)
    nodes = unit_directions(12)
    batch = np.asarray(homogeneous_component(s, -2.0, xs[None], nodes[:, None, :]))
    assert batch.shape == (12, 64)
    for node, row in zip(nodes, batch):
        single = np.asarray(homogeneous_component(s, -2.0, xs, node))
        assert single.shape == (64,)
        assert row.dtype == single.dtype and row.tobytes() == single.tobytes()


def test_batch_with_one_non_unit_direction_rejected():
    nodes = unit_directions(5)
    nodes[3] *= 1.0 + 1e-9
    with pytest.raises(UsageError, match="unit vector"):
        homogeneous_component(flip(bracket_inv(2)), -1.0, np.zeros((1, 1, 2)), nodes[:, None, :])


def test_batch_with_one_unsettled_direction_raises():
    # k1 grows along every direction but those with theta1 = 0
    s = Symbol(lambda first, x: np.asarray(first, dtype=float)[..., 0], order=1, side=TOROIDAL)
    settled = np.array([[0.0, 1.0], [0.0, -1.0]])
    got = homogeneous_component(s, 0.0, np.zeros((1, 1, 2)), settled[:, None, :])
    assert np.array_equal(got, np.zeros((2, 1)))
    with pytest.raises(NonConvergenceError):
        homogeneous_component(s, 0.0, np.zeros((1, 1, 2)), np.r_[settled, [[1.0, 0.0]]][:, None, :])


# ---------------------------------------------------------------------------
# finite modification


def inv_norm_symbol():
    return Symbol(
        lambda first, x: np.abs(np.asarray(first, dtype=float)[..., 0]) ** -1.0,
        order=-1,
        classical=(),
    )


def test_patch_overrides_origin():
    s = finite_modify(inv_norm_symbol(), {(0.0,): 1.0})
    assert s(np.array([0.0]), np.zeros(1)) == pytest.approx(1.0)
    assert s(np.array([2.0]), np.zeros(1)) == pytest.approx(0.5)


def test_empty_patch_is_identity():
    s = inv_norm_symbol()
    assert finite_modify(s, {}) is s


def test_patch_batched_first_argument():
    s = finite_modify(inv_norm_symbol(), {(0.0,): 7.0})
    pts = np.array([[-2.0], [0.0], [4.0]])
    got = np.asarray(s.func(pts, np.zeros(1)))
    assert got == pytest.approx(np.array([0.5, 7.0, 0.25]))


def test_regularize_at_origin_uses_angular_average():
    s = to_symbol("1/|xi|", n=1, order=-1, classical_terms=[(-1, "1")])
    fixed = regularize_at_origin(s, 1)
    assert fixed(np.array([0.0]), np.zeros(1)) == pytest.approx(1.0)
    assert fixed(np.array([3.0]), np.zeros(1)) == pytest.approx(1 / 3)


def test_regularize_at_origin_averages_over_the_sphere_rule():
    # theta3^2 averages to 1/3 over S^2
    s = to_symbol("(1+xi3^2/|xi|^2)/|xi|^3", n=3, order=-3, classical_terms=[(-3, "1+theta3^2")])
    fixed = regularize_at_origin(s, 3)
    assert complex(fixed(np.zeros(3), np.zeros(3))) == pytest.approx(4 / 3, abs=1e-12)


def test_patched_symbol_trace_matches_analytic():
    # a finite-rank patch is invisible to the trace estimate: the
    # regularized 1/|n'| multiplier still averages to 2 at M=512
    from nclab.pipeline import build_spectrum
    from nclab.spectral import trace_estimate

    s = regularize_at_origin(
        to_symbol("1/|xi|", n=1, order=-1, classical_terms=[(-1, "1")]), 1
    )
    run = build_spectrum(s, 1, 512)
    assert run.diagonal_path
    c = trace_estimate(run.sequence, discard_fraction=0.0).trace_estimate
    assert abs(c - 2.0) <= 0.05


def test_x_dependence_flag_from_the_expression():
    assert bracket_inv().x_bandwidth == 0
    assert to_symbol("cos(2*pi*x1)*<xi>^(-1)", n=1, order=-1).x_bandwidth > 0
    assert to_symbol("<xi>^(-1)", n=1, order=-1, main_im="x1*<xi>^(-2)").x_bandwidth > 0
    assert flip(bracket_inv()).x_bandwidth == 0
    # a new evaluation map is opaque: no band is known
    assert Symbol(lambda first, x: 1.0, order=0).x_bandwidth == math.inf
    # derived symbols keep their input's bandwidth
    assert finite_modify(bracket_inv(), {(0.0,): 2.0}).x_bandwidth == 0
    assert difference(bracket_inv(), [1]).x_bandwidth == 0
    # and every other field they do not change, non-default ones included
    angular = "1+0.5*cos(2*pi*x1)"
    s = to_symbol(
        f"({angular})/|xi|", n=1, order=-1, rho=0.75, classical_terms=[(-1, angular)]
    )
    assert (s.rho, s.x_bandwidth) == (0.75, 1)
    derived = {
        "flip": flip(s),
        "difference": difference(s, [1]),
        "finite_modify": finite_modify(s, {(0.0,): 2.0}),
        "regularize_at_origin": regularize_at_origin(s, 1),
    }
    for name, d in derived.items():
        assert (d.rho, d.x_bandwidth) == (0.75, 1), name
    assert derived["flip"].side == TOROIDAL and derived["flip"].order == -1
    assert [t.degree for t in derived["flip"].classical] == [-1.0]
    assert derived["difference"].order == -1.75 and derived["difference"].classical == ()
    for name in ("finite_modify", "regularize_at_origin"):
        assert derived[name].order == -1 and derived[name].classical is s.classical
        assert derived[name].side == s.side


def test_symbol_checks_the_degree_ladder():
    # the one home of the rule: a Symbol built directly is checked too
    f = lambda first, x: 1.0  # noqa: E731
    with pytest.raises(UsageError, match="ladder"):
        Symbol(f, order=-1, classical=(ClassicalTerm(-2.0, f),))
    with pytest.raises(UsageError, match="ladder"):
        Symbol(f, order=-1, classical=(ClassicalTerm(-1.0, f), ClassicalTerm(-3.0, f)))
    ok = Symbol(f, order=-1, classical=(ClassicalTerm(-1.0, f), ClassicalTerm(-2.0, f)))
    assert ok.term(-2.0) is ok.classical[1] and ok.term(-3.0) is None
    assert Symbol(f, order=-1).classical == () and Symbol(f, order=-1).term(-1.0) is None


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
def test_symbol_refuses_a_non_finite_order(order):
    with pytest.raises(UsageError, match="order must be finite"):
        Symbol(lambda first, x: 1.0, order=order)


@pytest.mark.parametrize("b", [None, -1, 1.5, float("nan"), "1"])
def test_x_bandwidth_is_zero_a_positive_integer_or_inf(b):
    for ok in (0, 2, 3.0, np.int64(4), math.inf):
        assert Symbol(lambda first, x: 1.0, order=0, x_bandwidth=ok).x_bandwidth == ok
    with pytest.raises(UsageError, match="x_bandwidth"):
        Symbol(lambda first, x: 1.0, order=0, x_bandwidth=b)
