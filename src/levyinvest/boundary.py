"""Solvers for the optimal investment boundary.

The boundary b(u) is the capacity at which one more marginal unit breaks
even at log-shock u: the unique positive root in y of

    gap(u, y) = E[ pi_c(exp(u + I), y) ] - r = 0,

where I is the running minimum of the shock process over an independent
Exp(r) horizon.  The gap is strictly decreasing in y, blows up as y -> 0,
and tends to kappa - r < 0 as y -> infinity, so bracketing by decades from
y = 1 plus bisection in log y always lands on the root when r > kappa.

The expectation is a fixed weighted sum over nodes of I: Gauss-Laguerre per
component of the exact exponential mixture of -I (exact mode, where all grid
points are solved at once), or a fixed pool of simulated minima (Monte Carlo
mode; one pool keeps the empirical gap, and so the grid, monotone).  Closed
forms for cobb_douglas, ces and log profit serve as cross-checks.
"""

from __future__ import annotations

import itertools
import math
import sys
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import (BracketFailure, DomainError, MonotonicityViolation,
                     UnsupportedModel)
from .levy import LevyModel, _mean_se, sample_extrema
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

_LOG_ROOT_TOL = 1e-10  # final bracket width in log y
_LAGUERRE_NODES = 32  # per mixture component of -I


class ExtrapolationWarning(UserWarning):
    """A boundary table was evaluated outside its solved grid."""


def _warn_extrapolated(b: "BoundaryTable", lo: float, hi: float) -> None:
    """Issue one ExtrapolationWarning if the boundary arguments [lo, hi] leave
    b's grid, attributed to the first caller outside the levyinvest package."""
    g0, g1 = float(b.grid[0]), float(b.grid[-1])
    if not (lo < g0 or hi > g1):
        return
    own = itertools.takewhile(
        lambda fl: fl[0].f_globals.get("__name__", "").partition(".")[0] == "levyinvest",
        traceback.walk_stack(sys._getframe(1)))
    warnings.warn(f"boundary evaluated on [{float(lo)!r}, {float(hi)!r}], beyond its "
                  f"solved grid [{g0!r}, {g1!r}]; edge-slope extrapolation was used",
                  ExtrapolationWarning, stacklevel=2 + sum(1 for _ in own))


@dataclass(frozen=True, eq=False)
class BoundaryTable:
    """Solved boundary values on a log-shock grid, interpolated log-linearly.

    `log(u)` is piecewise linear in (u, log b) between grid points; beyond the
    grid it continues with the nearest edge slope, finite for every finite u.
    It is a pure lookup: `table(u)` is its exponential and emits one
    ExtrapolationWarning when u leaves the grid, as every estimator in the
    package does once per call for the range of boundary arguments it used.
    Construction enforces strict grid increase, strictly positive values,
    and nondecreasing values (to 1e-9 relative).
    `solver` holds the generic solver's passes and largest |gap| at the roots.
    """

    grid: np.ndarray
    values: np.ndarray
    provenance: str
    ses: np.ndarray | None = None
    solver: dict | None = None
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

    def log(self, u):
        """log b(u); a float for scalar u, else an array.  Never warns."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        g, lv = self.grid, self._log_values
        out = np.interp(u_arr, g, lv)
        below = u_arr < g[0]
        above = u_arr > g[-1]
        if below.any():
            slope = (lv[1] - lv[0]) / (g[1] - g[0])
            out[below] = lv[0] + slope * (u_arr[below] - g[0])
        if above.any():
            slope = (lv[-1] - lv[-2]) / (g[-1] - g[-2])
            out[above] = lv[-1] + slope * (u_arr[above] - g[-1])
        return float(out[0]) if np.ndim(u) == 0 else out

    def first_reach(self, ly: float) -> float:
        """inf{u : log b(u) >= ly} on the lines `log` draws: the first crossing,
        whatever 1e-9 relative dips follow it, or -inf/+inf where a flat edge line
        never crosses ly (a falling edge line, a dip the table allows, is flat)."""
        g, lv = self.grid, self._log_values
        k = int(np.searchsorted(np.maximum.accumulate(lv), ly))  # first grid point at ly
        i = min(max(k - 1, 0), len(g) - 2)  # the segment or edge line that crosses ly
        slope = (lv[i + 1] - lv[i]) / (g[i + 1] - g[i])
        if slope <= 0.0:  # only an edge line: inside, lv[k - 1] < ly <= lv[k]
            return -math.inf if k == 0 else math.inf
        return float(g[i] + (ly - lv[i]) / slope)

    def __call__(self, u):
        """b(u), with one ExtrapolationWarning if any u leaves the grid."""
        u_arr = np.asarray(u, dtype=float)
        if u_arr.size:
            _warn_extrapolated(self, u_arr.min(), u_arr.max())
        res = np.exp(self.log(u))
        return float(res) if np.ndim(u) == 0 else res


def _rule(factors: WienerHopfFactors):
    """Nodes i, weights w with E[f(I)] = sum_j w_j f(i_j); w None: the pool mean.

    Exact mode: -I has density sum_k w_k rho_k e^{-rho_k s}, so Gauss-Laguerre
    nodes (t_j, a_j) give E[f(I)] = sum_k w_k sum_j a_j f(-t_j / rho_k)."""
    if not factors.is_exact:
        return factors.pool.running_min, None
    t, a = laggauss(_LAGUERRE_NODES)
    rates = np.asarray(factors.min_rates, dtype=float)[:, None]
    return (-t / rates).ravel(), (np.asarray(factors.min_weights)[:, None] * a).ravel()


def _gap(p: ProfitFunction, r: float, lz: np.ndarray, w, lc: np.ndarray, with_se=False):
    """Gap per row of log shocks lz at log capacities lc; its SE if asked (MC)."""
    terms = marginal_profit(p, lz, lc[:, None])
    if w is not None:
        return (terms * w).sum(axis=1) - r, None
    # sum / n is ndarray.mean's arithmetic without its per-call overhead,
    # which the Monte Carlo solve pays once per pass
    mean, se = _mean_se(terms) if with_se else (terms.sum(axis=1) / terms.shape[1], None)
    return mean - r, se


def _solve(p: ProfitFunction, factors: WienerHopfFactors, us: np.ndarray):
    """Roots b(us), their SEs (None in exact mode) and solver diagnostics.

    The gap falls in x = log y, so roots.expand_bracket_geometric walks
    decades from y = 1 and roots.bisect halves the brackets to width 1e-10
    in x.  Exact mode solves all points in one lockstep block; Monte Carlo
    mode one point per block, so that each gap evaluation holds one
    pool-length row.  `iterations` counts the gap evaluations of the
    longest block."""
    if factors.r <= kappa(p):
        # the gap is bounded below by kappa - r >= 0, so there is no root;
        # the guard keeps roundoff near the floor from faking a sign change
        raise BracketFailure(f"no boundary exists at r={factors.r!r}: the marginal "
                             f"profit never falls below {kappa(p)!r}")
    (nodes, w), r = _rule(factors), factors.r
    parts = []
    for block in [us] if w is not None else np.split(us, len(us)):
        lz = np.add.outer(block, nodes)
        passes = 0

        def gap_at(x):
            nonlocal passes
            passes += 1
            return _gap(p, r, lz, w, x)[0]

        lo, hi = expand_bracket_geometric(gap_at, np.zeros(len(block)))
        x = bisect(gap_at, lo, hi, rel_tol=0.0, abs_tol=_LOG_ROOT_TOL)
        root = np.exp(x)
        gap, se = _gap(p, r, lz, w, x, with_se=True)
        if se is not None:  # SE of the root: SE of the gap over its slope in y
            dy = 0.01 * root
            slope = (_gap(p, r, lz, w, np.log(root + dy))[0]
                     - _gap(p, r, lz, w, np.log(root - dy))[0]) / (2.0 * dy)
            se = np.abs(se / slope) if slope[0] != 0.0 else np.full(1, np.inf)
        parts.append((root, se, np.abs(gap), passes))
    roots, ses, gaps, passes = zip(*parts)
    solver = {"iterations": max(passes), "max_abs_gap": float(np.concatenate(gaps).max())}
    return np.concatenate(roots), None if w is not None else np.concatenate(ses), solver


def marginal_gap(p: ProfitFunction, factors: WienerHopfFactors, u: float,
                 y: float) -> tuple[float, float]:
    """E[pi_c(exp(u + I), y)] - r with its standard error (0 in exact mode)."""
    if not y > 0:
        raise DomainError(f"capacity must be > 0, got {y!r}")
    nodes, w = _rule(factors)
    lz = np.add.outer(np.array([float(u)]), nodes)
    gap, se = _gap(p, factors.r, lz, w, np.log([float(y)]), with_se=True)
    return float(gap[0]), 0.0 if se is None else float(se[0])


def solve_boundary_point(p: ProfitFunction, factors: WienerHopfFactors,
                         u: float) -> float:
    """The boundary value b(u): unique positive root of the marginal gap.

    Walks by factors of 10 from y = 1 toward the root (at most 60 steps,
    else BracketFailure - raised up front whenever r <= kappa, where the gap
    never turns negative), then bisects in log y to relative tolerance 1e-10.
    """
    return float(_solve(p, factors, np.array([float(u)]))[0][0])


def solve_boundary_grid(p: ProfitFunction, factors: WienerHopfFactors,
                        u_min: float, u_max: float, n: int) -> BoundaryTable:
    """Solve the boundary on n evenly spaced log-shock points.

    Exact factors solve all points at once.  Monte Carlo factors reuse one
    pool of minima for every point (common random numbers), which keeps the
    empirical gap - and so the grid - monotone, and store per-point
    delta-method standard errors.  `solver` records passes and final |gap|.
    """
    if not n >= 2:
        raise DomainError(f"grid needs at least 2 points, got {n!r}")
    if not u_max > u_min:
        raise DomainError(f"need u_max > u_min, got [{u_min!r}, {u_max!r}]")
    us = np.linspace(u_min, u_max, n)
    roots, ses, solver = _solve(p, factors, us)
    return BoundaryTable(grid=us, values=roots, provenance=GENERIC_SOLVER,
                         ses=ses, solver=solver)


def integral_equation_residual(b, p: ProfitFunction, model: LevyModel, r: float,
                               u0: float, n: int, rng: np.random.Generator, *,
                               workers: int = 1) -> tuple[float, float]:
    """Monte Carlo residual of the boundary's integral characterization.

    Averages pi_c(exp(u0 + X_T), b(u0 + M)) - r over one pool of n draws of
    (X_T, M), the shock and its running maximum at an independent Exp(r)
    horizon T.  X_T - M is independent of M and has the law of the running
    minimum I (the Wiener-Hopf factorization), so u0 + X_T has the law of
    u0 + M + I in the integral equation, and the pool draws (X_T, M) in their
    exact joint law.  `b` is a BoundaryTable, and the kernel reads
    log b(u0 + M) from `b.log`: sampled maxima routinely leave the solved
    grid, and edge-slope extrapolation stays finite in log coordinates
    however far they go; one ExtrapolationWarning names the range.  The
    result does not depend on `workers`.
    """
    pool = sample_extrema(model, r, n, rng, workers=workers)
    top = u0 + pool.running_max
    _warn_extrapolated(b, u0, float(top.max()))
    mean, se = _mean_se(marginal_profit(p, u0 + pool.terminal, b.log(top)))
    return float(mean) - r, float(se)


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

    which is the marginal gap at u = 0, y = K over kappa: the generic solver
    finds it with the same rule.
    """
    if p.kind != "ces":
        raise UnsupportedModel(f"ces_boundary_constant needs a ces profit, got {p.kind!r}")
    if factors.r <= kappa(p):
        raise DomainError(f"requires r > kappa: r={factors.r!r} <= kappa={kappa(p)!r}")
    return float(_solve(p, factors, np.zeros(1))[0][0])


def ces_polynomial_constant(alpha: float, n: int, moments, r: float) -> float:
    """The ces slope K for gamma = 1/n via the binomial reduction.

    With gamma = 1/n the defining expectation expands binomially, leaving a
    polynomial equation in w = K ** (-1/n):

        sum_{j=1..n-1} C(n-1, j) * moments[j-1] * (alpha/(1-alpha))**j * w**j
            = r / (1 - alpha)**n - 1,

    where moments[j-1] = E[exp((j/n) * I)] for j = 1..n-1.  All coefficients
    are positive, so the left side increases from 0 and the positive root is
    unique.  It is bracketed by decades and bisected in x = log K, where the
    equation falls, to a bracket 1e-14 wide: K to about 1e-14 relative.
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
    coef = [math.comb(n - 1, j) * moments[j - 1] * ratio ** j for j in range(1, n)]

    def f(x):  # decreasing in x = log K, as w = K ** (-1/n) falls
        w = np.exp(-x / n)
        return sum(c * w ** j for j, c in enumerate(coef, start=1)) - rhs

    return math.exp(bisect(f, *expand_bracket_geometric(f), rel_tol=0.0, abs_tol=1e-14))


def closed_form_boundary_table(p: ProfitFunction, factors: WienerHopfFactors,
                               u_min: float, u_max: float, n: int) -> BoundaryTable:
    """Boundary table from the closed form matching the profit kind."""
    us = np.linspace(u_min, u_max, n)
    if p.kind == "cobb_douglas":
        vals = cobb_douglas_boundary(p, factors, us)
    elif p.kind == "ces":
        vals = ces_boundary_constant(p, factors) * np.exp(us)
    elif p.kind == "log":
        vals = log_boundary(p, factors, us)
    else:
        raise UnsupportedModel(f"no closed-form boundary for {p.kind!r} profit")
    return BoundaryTable(grid=us, values=np.asarray(vals, dtype=float),
                         provenance=f"{p.kind}_closed_form")
