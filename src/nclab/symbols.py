"""Symbols on Z^n x T^n and T^n x R^n: flip map, difference calculus,
decay-class estimation and homogeneous structure.

A Symbol wraps an evaluation map ``func(first, second)`` where
``first`` is the frequency-like variable (a lattice point on the
discrete side, a real frequency on the toroidal side) and ``second``
is the torus point; the last axis of each argument is the coordinate
axis and arguments broadcast.  Two side tags:

* ``discrete``:  sigma(n', x) with n' in Z^n, stored as func(n', x);
* ``toroidal``:  tau(x, k) with k the frequency, stored as func(k, x).

The flip map transports one to the other:  tau(x, k) = conj(sigma(-k, x)).

Symbols are immutable and their evaluation maps must be pure, so all
operations here are safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergenceError, UsageError
from .lattice import BLOCK_POINTS, TruncationBox, check_torus_grid, multi_index, sphere_rule, torus_grid
from .record import Record, replace
from .spectral import affine_fit

DISCRETE = "discrete"
TOROIDAL = "toroidal"

# Pinned parameters of the numeric homogeneous-component extraction:
# probe radii T, 2T, 4T, 8T with Richardson extrapolation in 1/t.
EXTRACTION_BASE_T = 2.0**10
EXTRACTION_LEVELS = 4
EXTRACTION_TOL = 1e-6

# Pinned torus grid the seminorm estimate's sup runs over.
SEMINORM_X_GRID = 16


class ClassicalTerm(Record):
    """One homogeneous term: degree d and angular part a_d(x, theta),
    defined for |theta| = 1."""

    degree: float
    angular: Callable  # (x, theta) -> complex, broadcasting


class Symbol(Record):
    """Evaluable symbol with order/type metadata.

    func(first, second) must be pure, total on its domain, and accept
    numpy arrays (broadcasting) for batched evaluation: the leading
    axes of first and second broadcast against each other, the last
    axis of each is the coordinate axis, and the result may be any
    shape that broadcasts to the common leading shape (a scalar
    included).  Assembly calls it with first of shape (B, 1, n) and
    second of shape (1, P, n), P = q^n on the grid quantize.sampling_grid
    picks, for blocks of at most lattice.BLOCK_POINTS samples.

    classical declares the homogeneous expansion, valid for large
    |frequency|:

        func(k, x) = sum_j |k|^(d_j) * angular_j(x, k/|k|) + lower order

    as a tuple of ClassicalTerm, () (the default) when none is declared.
    Term j must have degree order - j, and the order must be finite;
    this is the one place either is checked.  term(d) reads the
    declared term of degree d.

    x_bandwidth bounds what func and the declared terms do with their
    torus argument: 0 when none depends on it (the residue then reads
    the terms at x = 0 alone), an integer b when func(k, .) and every
    angular(., theta) are trigonometric polynomials of degree at most b
    per axis, and inf when no band is known (the default, so a plain
    Symbol(func) unless the caller declares it; to_symbol reads it from
    the expressions).  The pipeline takes the diagonal path only for 0;
    assembly reads the reach r = min(b, 2M) of a truncation box
    [-M, M]^n: when r < 2M it samples the (2r+2)^n grid and writes exact
    zeros at offsets beyond r (see quantize).

    flip, finite_modify and difference build their result with
    record.replace, so it keeps every field they do not change: none of
    them can widen the x-band, and difference drops the declared terms,
    whose degrees it would shift.
    """

    func: Callable
    order: float
    rho: float = 1.0
    side: str = DISCRETE
    classical: tuple[ClassicalTerm, ...] = ()
    x_bandwidth: float = math.inf

    def __post_init__(self):
        if self.side not in (DISCRETE, TOROIDAL):
            raise UsageError(f"unknown side tag {self.side!r}")
        b = self.x_bandwidth
        if not (isinstance(b, (int, float, np.integer)) and b >= 0 and (b == math.inf or b == int(b))):
            raise UsageError(f"x_bandwidth must be 0, a positive integer or inf, got {b!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise UsageError("type parameter rho must lie in [0,1]")
        for j, t in enumerate(self.classical):
            if not abs(t.degree - (self.order - j)) <= 1e-9:  # refuses nan too
                raise UsageError(
                    f"classical degree ladder violated: term {j} has degree "
                    f"{t.degree}, expected {self.order - j}"
                )
        if not math.isfinite(self.order):
            raise UsageError(f"order must be finite, got {self.order!r}")

    def __call__(self, first, second):
        return self.func(first, second)

    def term(self, degree: float) -> Optional[ClassicalTerm]:
        """The declared term of that degree, None when there is none."""
        for t in self.classical:
            if abs(t.degree - degree) <= 1e-9:
                return t
        return None


def evaluate(func: Callable, first, second, shape) -> np.ndarray:
    """func(first, second) broadcast to shape as complex values (a
    symbol that ignores an argument may return a smaller shape or a
    scalar).  The result may be a read-only view of func's output."""
    return np.broadcast_to(np.asarray(func(first, second)), shape).astype(complex, copy=False)


# ---------------------------------------------------------------------------
# Flip


def flip(sigma: Symbol) -> Symbol:
    """Transport a discrete symbol to the toroidal side:

        tau(x, k) = conj(sigma(-k, x))

    The result is on the toroidal side and keeps every other field;
    declared homogeneous terms are conjugated with theta -> -theta.
    """
    if sigma.side != DISCRETE:
        raise UsageError("flip expects a discrete-side symbol")

    base = sigma.func

    def tau_func(k, x):
        return np.conj(base(-np.asarray(k, dtype=float), x))

    classical = tuple(ClassicalTerm(t.degree, _flip_angular(t.angular)) for t in sigma.classical)
    return replace(sigma, func=tau_func, side=TOROIDAL, classical=classical)


def _flip_angular(angular: Callable) -> Callable:
    def flipped(x, theta):
        return np.conj(angular(x, -np.asarray(theta, dtype=float)))

    return flipped


# ---------------------------------------------------------------------------
# Difference calculus in the frequency variable


def difference(sigma: Symbol, alpha) -> Symbol:
    """Forward difference Delta^alpha in the first variable, exact:

        (Delta_j f)(k) = f(k + e_j) - f(k)

    composed per axis.  Expanded as the alternating binomial sum
    sum_{g <= alpha} (-1)^{|alpha - g|} C(alpha, g) f(k + g).
    """
    alpha = multi_index(alpha)
    if np.all(alpha == 0):
        return sigma

    offsets = []
    coeffs = []
    for gamma in itertools.product(*(range(a + 1) for a in alpha)):
        g = np.array(gamma, dtype=int)
        c = (-1.0) ** int(np.sum(alpha - g))
        c *= float(np.prod([math.comb(int(a), int(gi)) for a, gi in zip(alpha, g)]))
        offsets.append(g)
        coeffs.append(c)
    offsets = np.array(offsets, dtype=float)
    coeffs = np.array(coeffs)

    base = sigma.func

    def diff_func(first, x):
        first = np.asarray(first, dtype=float)
        acc = coeffs[0] * np.asarray(base(first + offsets[0], x))
        for c, g in zip(coeffs[1:], offsets[1:]):
            acc = acc + c * np.asarray(base(first + g, x))
        return acc

    new_order = sigma.order - sigma.rho * float(np.sum(alpha))
    return replace(sigma, func=diff_func, order=new_order, classical=())


# ---------------------------------------------------------------------------
# Decay-class (seminorm) estimation


class SeminormReport(Record):
    """Observed decay of |Delta^alpha sigma| against the weight
    (1+|n'|)^(m - rho|alpha|).  No fit (None) when fewer than two
    shells carry a nonzero sup."""

    alpha: tuple[int, ...]
    sup_ratio: float
    fitted_exponent: float | None
    residual: float | None


def seminorm_estimate(sigma: Symbol, alpha, window: tuple[int, int]) -> SeminormReport:
    """Scan lattice radii r_min <= |n'| <= r_max and the uniform torus
    grid of SEMINORM_X_GRID points per axis (one point, x = 0, for a
    symbol declared x-free: its values are the same at every x);
    report the sup of the weighted ratio and the least-squares decay
    exponent of the per-shell sup against log(1+r).

    Only the Delta^alpha half of the paper's seminorms is estimated;
    the x-derivative half (beta) is always 0.  Delta^alpha sigma is
    evaluated on blocks of window points, first of shape (B, 1, n)
    against the X-point torus grid as x of shape (1, X, n), with B * X
    within lattice.BLOCK_POINTS.  An oversize window is refused by
    TruncationBox.points before it is enumerated, and so is a grid
    whose coordinates and one point's samples would outgrow physical
    memory before it is built.
    """
    alpha = multi_index(alpha)
    n = alpha.size
    r_min, r_max = int(window[0]), int(window[1])
    if r_max < r_min or r_min < 0:
        raise UsageError(f"empty window [{r_min}, {r_max}]")

    pts = _window_points(n, r_min, r_max).astype(float)
    g = difference(sigma, alpha)
    radii = np.sqrt(np.sum(pts**2, axis=-1))
    q = SEMINORM_X_GRID if g.x_bandwidth != 0 else 1
    check_torus_grid(n, q)
    xs = torus_grid(n, q)
    per_block = max(1, BLOCK_POINTS // len(xs))
    sup_pointwise = np.empty(len(pts))
    for start in range(0, len(pts), per_block):
        block = pts[start : start + per_block, None, :]
        vals = evaluate(g.func, block, xs[None], (len(block), len(xs)))
        sup_pointwise[start : start + len(block)] = np.max(np.abs(vals), axis=1)

    exponent = sigma.order - sigma.rho * float(np.sum(alpha))
    weights = (1.0 + radii) ** (-exponent)
    sup_ratio = float(np.max(sup_pointwise * weights))

    shell_ids, shell_of = np.unique(np.rint(radii).astype(int), return_inverse=True)
    shell_sup = np.zeros(len(shell_ids))
    np.maximum.at(shell_sup, shell_of, sup_pointwise)
    keep = shell_sup > 0
    if np.count_nonzero(keep) >= 2:
        lx = np.log1p(shell_ids[keep].astype(float))
        ly = np.log(shell_sup[keep])
        fitted, _, resid = affine_fit(lx, ly)
    else:
        fitted = resid = None

    return SeminormReport(tuple(int(a) for a in alpha), sup_ratio, fitted, resid)


def _window_points(n: int, r_min: int, r_max: int) -> np.ndarray:
    pts = TruncationBox(n, r_max).points()
    norms = np.sqrt(np.sum(pts.astype(float) ** 2, axis=-1))
    mask = (norms >= r_min) & (norms <= r_max)
    if not np.any(mask):
        raise UsageError(f"no lattice points with {r_min} <= |n'| <= {r_max}")
    return pts[mask]


# ---------------------------------------------------------------------------
# Homogeneous components


def homogeneous_component(sigma: Symbol, degree: float, x, theta):
    """Degree-`degree` homogeneous component at (x, theta), |theta| = 1.

    Prefers a declared term of that degree; otherwise extracts it
    numerically from t^(-degree) * sigma(t*theta, x) at t = T, 2T, 4T,
    8T with Richardson extrapolation in 1/t.  theta and x broadcast as
    a symbol's arguments do: theta of shape (K, 1, n) against x of
    shape (1, X, n) gives the component at K directions at once.  Every
    direction must be a unit vector, and the extraction must settle at
    every one of them.
    """
    theta = np.asarray(theta, dtype=float)
    norms = np.sqrt(np.sum(theta**2, axis=-1))
    off = np.ravel(np.abs(norms - 1.0) > 1e-12)
    if off.any():
        raise UsageError(f"theta must be a unit vector, |theta| = {np.ravel(norms)[off][0]}")

    term = sigma.term(degree)
    if term is not None:
        return term.angular(x, theta)

    radii = [EXTRACTION_BASE_T * 2.0**k for k in range(EXTRACTION_LEVELS)]
    prev = [
        np.asarray(t ** (-degree) * np.asarray(sigma.func(t * theta, x), dtype=complex))
        for t in radii
    ]
    # Richardson tableau for an expansion in powers of 1/t, kept one
    # column at a time; the drift compares its last two diagonal entries
    for j in range(1, EXTRACTION_LEVELS):
        before = prev[0]
        prev = [(2.0**j * prev[k + 1] - prev[k]) / (2.0**j - 1.0) for k in range(len(prev) - 1)]
    result = prev[0]

    drift = float(np.max(np.abs(result - before)))
    if not drift <= 10.0 * EXTRACTION_TOL:  # a NaN drift has not settled either
        raise NonConvergenceError(
            f"homogeneous extraction did not settle: drift {drift:.3e} > {10 * EXTRACTION_TOL:.1e}"
        )
    return result


# ---------------------------------------------------------------------------
# Finite modification


def finite_modify(sigma: Symbol, patch: dict) -> Symbol:
    """Override the symbol at finitely many lattice points (first
    variable); a finite-rank change, invisible to the Dixmier trace.
    Keys are lattice points (tuples or ints), values the new constants.
    Every other field is kept."""
    if not patch:
        return sigma

    norm_patch = {}
    for key, val in patch.items():
        k = np.atleast_1d(np.asarray(key, dtype=float))
        norm_patch[tuple(k.tolist())] = complex(val)
    pts = np.array(list(norm_patch.keys()), dtype=float)
    vals = np.array(list(norm_patch.values()), dtype=complex)
    base = sigma.func

    def patched(first, x):
        # the base symbol is never evaluated at patched points (it may
        # be singular there); first and x broadcast as for any symbol
        first = np.atleast_1d(np.asarray(first, dtype=float))
        hits = np.all(np.abs(first[..., None, :] - pts) < 1e-9, axis=-1)
        hit = hits.any(axis=-1)
        if not hit.any():
            return base(first, x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lead = np.broadcast_shapes(first.shape[:-1], x.shape[:-1])
        hit = np.broadcast_to(hit, lead)
        out = np.empty(lead, dtype=complex)
        out[hit] = np.broadcast_to(vals[np.argmax(hits, axis=-1)], lead)[hit]
        miss = ~hit
        if miss.any():
            sub_first = np.broadcast_to(first, lead + first.shape[-1:])[miss]
            sub_x = np.broadcast_to(x, lead + x.shape[-1:])[miss]
            out[miss] = np.broadcast_to(base(sub_first, sub_x), (int(miss.sum()),))
        return out

    return replace(sigma, func=patched)


def regularize_at_origin(sigma: Symbol, n: int) -> Symbol:
    """Patch the origin of a symbol whose homogeneous expression is
    singular at 0 with the average of its declared leading term over
    the unit sphere at x = 0, by the residue's quadrature
    (lattice.sphere_rule(n), 1 <= n <= 3).  A finite-rank change, so
    the Dixmier trace and the residue are unaffected."""
    if not sigma.classical:
        raise UsageError("origin regularization needs a declared leading term")
    lead = sigma.classical[0]
    rule = sphere_rule(n)
    x0 = np.zeros(n)
    vals = [complex(np.asarray(lead.angular(x0, th)).reshape(())) for th in rule.nodes]
    avg = np.dot(rule.weights, vals) / np.sum(rule.weights)
    return finite_modify(sigma, {tuple([0.0] * n): avg})
