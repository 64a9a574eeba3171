"""Solvers for the optimal investment boundary.

The boundary maps the log-shock u to the capacity level b(u) at which
investing one more marginal unit breaks even.  It is characterized
pointwise: b(u) is the unique positive root in y of

    gap(u, y) = E[ pi_c(exp(u + I), y) ] - r = 0,

where I is the running minimum of the shock process over an independent
Exp(r) horizon.  The gap is strictly decreasing in y, blows up as y -> 0,
and tends to kappa - r < 0 as y -> infinity, so a geometric bracket search
plus bisection always lands on the root when r > kappa.

The expectation is computed either by adaptive quadrature against the exact
exponential-mixture density of -I (exact factor mode) or as a sample mean
over a fixed pool of simulated minima (Monte Carlo mode).  Reusing one pool
for every gap evaluation keeps the empirical gap monotone in both arguments,
so solved grids inherit the monotonicity of the true boundary.

Closed forms are available as independent cross-checks: the cobb_douglas
boundary is an explicit power of exp(u), the ces boundary is K * exp(u)
with K solving a scalar equation (polynomial when gamma = 1/n), and the
log-profit boundary is proportional to exp(u).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy import integrate

from .errors import (BracketFailure, DomainError, MonotonicityViolation,
                     UnsupportedModel)
from .levy import LevyModel, sample_extrema
from .profit import ProfitFunction, kappa, marginal_profit
from .roots import bisect, expand_bracket_geometric
from .wiener_hopf import WienerHopfFactors, inf_moment

__all__ = [
    "ExtrapolationWarning",
    "BoundaryTable",
    "marginal_gap",
    "solve_boundary_point",
    "solve_boundary_grid",
    "integral_equation_residual",
    "cobb_douglas_boundary",
    "log_boundary",
    "ces_boundary_constant",
    "ces_polynomial_constant",
    "closed_form_boundary_table",
]

GENERIC_SOLVER = "generic_solver"

_QUAD_ABS_TOL = 1e-10
_ROOT_REL_TOL = 1e-10
# floor for exp(u + I) inside quadratures: keeps marginal_profit off the
# z = 0 domain edge while preserving its limit value to double precision
_Z_FLOOR = 1e-300


class ExtrapolationWarning(UserWarning):
    """A boundary table was evaluated outside its solved grid."""


@dataclass(frozen=True, eq=False)
class BoundaryTable:
    """Solved boundary values on a log-shock grid, interpolated log-linearly.

    Between grid points the table is piecewise linear in (u, log b); beyond
    the grid it continues with the nearest edge slope and emits an
    ExtrapolationWarning.  Construction enforces strict grid increase,
    strictly positive values, and nondecreasing values (to 1e-9 relative).
    """

    grid: np.ndarray
    values: np.ndarray
    provenance: str
    ses: np.ndarray | None = None
    _log_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or len(grid) < 2:
            raise MonotonicityViolation("boundary table needs at least 2 grid points")
        if len(values) != len(grid):
            raise MonotonicityViolation("grid and values lengths differ")
        if not np.all(np.diff(grid) > 0.0):
            raise MonotonicityViolation("grid must be strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise MonotonicityViolation("boundary values must be finite and > 0")
        if np.any(values[1:] < values[:-1] * (1.0 - 1e-9)):
            k = int(np.argmax(values[1:] < values[:-1] * (1.0 - 1e-9)))
            raise MonotonicityViolation(
                f"boundary values decrease at grid index {k + 1}: "
                f"{values[k]!r} -> {values[k + 1]!r}")
        if self.ses is not None:
            ses = np.asarray(self.ses, dtype=float)
            object.__setattr__(self, "ses", ses)
            if len(ses) != len(grid):
                raise MonotonicityViolation("ses length differs from grid")
        object.__setattr__(self, "_log_values", np.log(values))

    def __call__(self, u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        g, lv = self.grid, self._log_values
        out = np.interp(u_arr, g, lv)
        below = u_arr < g[0]
        above = u_arr > g[-1]
        if below.any() or above.any():
            warnings.warn(
                f"boundary evaluated outside solved grid [{g[0]!r}, {g[-1]!r}]; "
                f"continuing with edge slopes", ExtrapolationWarning, stacklevel=2)
            if below.any():
                slope = (lv[1] - lv[0]) / (g[1] - g[0])
                out[below] = lv[0] + slope * (u_arr[below] - g[0])
            if above.any():
                slope = (lv[-1] - lv[-2]) / (g[-1] - g[-2])
                out[above] = lv[-1] + slope * (u_arr[above] - g[-1])
        res = np.exp(out)
        return float(res[0]) if np.isscalar(u) or np.asarray(u).ndim == 0 else res


def marginal_gap(p: ProfitFunction, factors: WienerHopfFactors, u: float,
                 y: float) -> tuple[float, float]:
    """E[pi_c(exp(u + I), y)] - r with its standard error (0 in exact mode)."""
    if not y > 0:
        raise DomainError(f"capacity must be > 0, got {y!r}")
    r = factors.r
    if factors.is_exact:
        weights, rates = factors.min_weights, factors.min_rates

        def integrand(s: float) -> float:
            z = max(math.exp(u - s), _Z_FLOOR)
            dens = 0.0
            for w, rho in zip(weights, rates):
                dens += w * rho * math.exp(-rho * s)
            return float(marginal_profit(p, z, y)) * dens

        value, _ = integrate.quad(integrand, 0.0, np.inf,
                                  epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=200)
        return value - r, 0.0
    mins = factors.pool.running_min
    terms = np.asarray(marginal_profit(p, np.maximum(np.exp(u + mins), _Z_FLOOR), y),
                       dtype=float)
    n = len(terms)
    return float(terms.mean()) - r, float(terms.std(ddof=1) / math.sqrt(n))


def _solve_point(p: ProfitFunction, factors: WienerHopfFactors, u: float,
                 rel_tol: float = _ROOT_REL_TOL) -> tuple[float, float]:
    k = kappa(p)
    if factors.r <= k:
        # the gap is bounded below by kappa - r >= 0, so there is no root;
        # without this guard, roundoff in the quadrature near the kappa
        # floor can fake a sign change at astronomically large y
        raise BracketFailure(
            f"no boundary exists at r={factors.r!r}: the marginal profit "
            f"never falls below {k!r}")
    gap = lambda y: marginal_gap(p, factors, u, y)[0]
    lo, hi = expand_bracket_geometric(gap, 1.0, factor=10.0, max_steps=60)
    root = bisect(gap, lo, hi, rel_tol=rel_tol)
    if factors.is_exact:
        return root, 0.0
    # delta method: SE of the root = SE of the gap / local slope in y
    _, se_gap = marginal_gap(p, factors, u, root)
    dy = 0.01 * root
    slope = (marginal_gap(p, factors, u, root + dy)[0]
             - marginal_gap(p, factors, u, root - dy)[0]) / (2.0 * dy)
    se = abs(se_gap / slope) if slope != 0.0 else float("inf")
    return root, se


def solve_boundary_point(p: ProfitFunction, factors: WienerHopfFactors, u: float,
                         *, rel_tol: float = _ROOT_REL_TOL) -> float:
    """The boundary value b(u): unique positive root of the marginal gap.

    Brackets by multiplying/dividing y = 1 by 10 (at most 60 times each way,
    else BracketFailure - in particular whenever r <= kappa, where the gap
    never turns negative), then bisects to relative tolerance 1e-10.
    """
    return _solve_point(p, factors, u, rel_tol)[0]


def solve_boundary_grid(p: ProfitFunction, factors: WienerHopfFactors,
                        u_min: float, u_max: float, n: int) -> BoundaryTable:
    """Solve the boundary on n evenly spaced log-shock points.

    Monte Carlo factors reuse one fixed pool of minima for every point
    (common random numbers), which keeps the empirical gap - and hence the
    solved grid - monotone; per-point delta-method standard errors are
    stored in that mode.
    """
    if not n >= 2:
        raise DomainError(f"grid needs at least 2 points, got {n!r}")
    if not u_max > u_min:
        raise DomainError(f"need u_max > u_min, got [{u_min!r}, {u_max!r}]")
    us = np.linspace(u_min, u_max, n)
    roots = np.empty(n)
    ses = np.empty(n)
    for k, u in enumerate(us):
        roots[k], ses[k] = _solve_point(p, factors, float(u))
    return BoundaryTable(grid=us, values=roots, provenance=GENERIC_SOLVER,
                         ses=None if factors.is_exact else ses)


def integral_equation_residual(b, p: ProfitFunction, model: LevyModel, r: float,
                               u0: float, n: int,
                               rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo residual of the boundary's integral characterization.

    Averages pi_c(exp(u0 + m + i), b(u0 + m)) - r over n draws, where m and
    i are running maxima and minima sampled from two independent pools of
    exponential horizons (the factorization makes the true pair independent,
    so independent pools sample the correct joint law).  `b` is any callable
    boundary, typically a BoundaryTable; sampled maxima routinely leave the
    solved grid, which extrapolates by its edge slope (with a warning).
    """
    child_max, child_min = rng.spawn(2)
    maxima = sample_extrema(model, r, n, child_max).running_max
    minima = sample_extrema(model, r, n, child_min).running_min
    cap = b(u0 + maxima)
    z = np.maximum(np.exp(u0 + maxima + minima), _Z_FLOOR)
    terms = np.asarray(marginal_profit(p, z, cap), dtype=float)
    return (float(terms.mean()) - r,
            float(terms.std(ddof=1) / math.sqrt(len(terms))))


# -- closed forms -------------------------------------------------------------


def cobb_douglas_boundary(p: ProfitFunction, factors: WienerHopfFactors,
                          u: float):
    """Closed-form cobb_douglas boundary: (theta * e^u) ** (alpha / (1 - beta)).

    theta = (beta * E[e^{alpha I}] / r) ** (1 / alpha).  Accepts scalar or
    array u.
    """
    if p.kind != "cobb_douglas":
        raise UnsupportedModel(f"closed form is for cobb_douglas, got {p.kind!r}")
    base = (p.beta * inf_moment(factors, p.alpha) / factors.r) ** (1.0 / p.alpha)
    return (base * np.exp(u)) ** (p.alpha / (1.0 - p.beta))


def log_boundary(p: ProfitFunction, factors: WienerHopfFactors, u: float):
    """Closed-form log-profit boundary: E[e^I] * e^u / r."""
    if p.kind != "log":
        raise UnsupportedModel(f"closed form is for log profit, got {p.kind!r}")
    return inf_moment(factors, 1.0) * np.exp(u) / factors.r


def ces_boundary_constant(p: ProfitFunction, factors: WienerHopfFactors) -> float:
    """The ces boundary slope K, where b(u) = K * exp(u).

    K is the unique positive root of

        E[(1 + (alpha/(1-alpha)) * e^{gamma I} * K^{-gamma}) ** ((1-gamma)/gamma)]
            = r / (1 - alpha) ** (1/gamma),

    evaluated by quadrature against the exact law of I (exact factors) or as
    a pooled sample mean (Monte Carlo factors).
    """
    if p.kind != "ces":
        raise UnsupportedModel(f"ces_boundary_constant needs a ces profit, got {p.kind!r}")
    g = p.gamma
    ratio = p.alpha / (1.0 - p.alpha)
    target = factors.r / kappa(p)
    expo = (1.0 - g) / g
    if target <= 1.0:
        raise DomainError(
            f"requires r > kappa: r={factors.r!r} <= kappa={kappa(p)!r}")

    if factors.is_exact:
        weights, rates = factors.min_weights, factors.min_rates

        def expectation(k_val: float) -> float:
            def integrand(s: float) -> float:
                dens = 0.0
                for w, rho in zip(weights, rates):
                    dens += w * rho * math.exp(-rho * s)
                return (1.0 + ratio * math.exp(-g * s) * k_val ** (-g)) ** expo * dens

            val, _ = integrate.quad(integrand, 0.0, np.inf,
                                    epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=200)
            return val
    else:
        e_gi = np.exp(g * factors.pool.running_min)

        def expectation(k_val: float) -> float:
            return float(np.mean((1.0 + ratio * e_gi * k_val ** (-g)) ** expo))

    f = lambda k_val: expectation(k_val) - target
    lo, hi = expand_bracket_geometric(f, 1.0, factor=10.0, max_steps=60)
    return bisect(f, lo, hi, rel_tol=_ROOT_REL_TOL)


def ces_polynomial_constant(alpha: float, n: int, moments, r: float) -> float:
    """The ces slope K for gamma = 1/n via the binomial reduction.

    With gamma = 1/n the defining expectation expands binomially, leaving a
    polynomial equation in w = K ** (-1/n):

        sum_{j=1..n-1} C(n-1, j) * moments[j-1] * (alpha/(1-alpha))**j * w**j
            = r / (1 - alpha)**n - 1,

    where moments[j-1] = E[exp((j/n) * I)] for j = 1..n-1.  All coefficients
    are positive, so the left side increases from 0 and the positive root is
    unique; returns K = w ** (-n).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not (isinstance(n, int) and n >= 2):
        raise DomainError(f"gamma = 1/n needs integer n >= 2, got {n!r}")
    moments = [float(a) for a in moments]
    if len(moments) != n - 1:
        raise DomainError(f"need n-1 = {n - 1} moments E[e^{{(j/n) I}}], got {len(moments)}")
    if any(not 0.0 < a <= 1.0 for a in moments):
        raise DomainError("I <= 0 forces every moment into (0, 1]")
    rhs = r / (1.0 - alpha) ** n - 1.0
    if rhs <= 0.0:
        raise DomainError(
            f"requires r > kappa: r={r!r} <= kappa={(1.0 - alpha) ** n!r}")
    ratio = alpha / (1.0 - alpha)
    coef = [comb(n - 1, j) * moments[j - 1] * ratio ** j for j in range(1, n)]

    def f(w: float) -> float:
        return sum(c * w ** j for j, c in enumerate(coef, start=1)) - rhs

    lo, hi = expand_bracket_geometric(f, 1.0, factor=10.0, max_steps=60)
    w = bisect(f, lo, hi, rel_tol=1e-14)
    return w ** (-n)


def closed_form_boundary_table(p: ProfitFunction, factors: WienerHopfFactors,
                               u_min: float, u_max: float, n: int) -> BoundaryTable:
    """Boundary table from the closed form matching the profit kind."""
    us = np.linspace(u_min, u_max, n)
    if p.kind == "cobb_douglas":
        vals = cobb_douglas_boundary(p, factors, us)
        provenance = "cobb_douglas_closed_form"
    elif p.kind == "ces":
        vals = ces_boundary_constant(p, factors) * np.exp(us)
        provenance = "ces_closed_form"
    elif p.kind == "log":
        vals = log_boundary(p, factors, us)
        provenance = "log_closed_form"
    else:
        raise UnsupportedModel(f"no closed-form boundary for {p.kind!r} profit")
    return BoundaryTable(grid=us, values=np.asarray(vals, dtype=float),
                         provenance=provenance)
