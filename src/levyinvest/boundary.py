"""Solvers for the optimal investment boundary.

The boundary b(u) is the capacity at which one more marginal unit breaks
even at log-shock u: the unique positive root in y of

    gap(u, y) = E[ pi_c(exp(u + I), y) ] - r = 0,

where I is the running minimum of the shock process over an independent
Exp(r) horizon.  The gap is strictly decreasing in y, blows up as y -> 0,
and tends to kappa - r < 0 as y -> infinity, so bracketing by decades from
y = 1 plus a bracketed root finder in log y (roots.bisect, Chandrupatla's
method) always lands on the root when r > kappa.

The expectation is a fixed weighted sum over nodes of I: Gauss-Laguerre per
component of the exact exponential mixture of -I (exact mode), or a fixed
pool of simulated minima (Monte Carlo mode; one pool keeps the empirical gap,
and so the grid, monotone).  Both modes solve all grid points in one lockstep
block.  Closed forms for cobb_douglas, ces and log profit serve as checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BracketFailure, DomainError, MonotonicityViolation,
                     UnsupportedModel)
from .levy import Estimate, LevyModel, _check_replicates, _mean_se, sample_extrema
from .profit import ProfitFunction, kappa, marginal_profit
from .roots import bisect, expand_bracket_geometric
from .wiener_hopf import WienerHopfFactors, inf_moment

__all__ = [
    "BoundaryTable",
    "marginal_gap",
    "solve_boundary_point",
    "solve_boundary_grid",
    "integral_equation_residual",
    "ces_boundary_constant",
    "ces_polynomial_constant",
    "closed_form_boundary_table",
]

GENERIC_SOLVER = "generic_solver"

_LOG_ROOT_TOL = 1e-10  # final bracket width in log y
# The 32-point Gauss-Laguerre rule, laggauss(32) of numpy.polynomial written
# out bit for bit (tested), applied per mixture component of -I: a fixed
# table, so that exact mode computes no eigenvalues.  32 nodes already sit
# at the rounding floor of the boundary.
_LAGUERRE_NODES = np.array([
    0.04448936583326739, 0.23452610951961825, 0.5768846293018863, 1.072448753817818,
    1.7224087764446456, 2.5283367064257942, 3.492213273021994, 4.616456769749767,
    5.903958504174244, 7.358126733186241, 8.982940924212597, 10.78301863253997,
    12.763697986742725, 14.931139755522558, 17.292454336715316, 19.855860940336054,
    22.630889013196775, 25.628636022459247, 28.862101816323474, 32.346629153964734,
    36.10049480575197, 40.14571977153944, 44.50920799575494, 49.22439498730864,
    54.33372133339691, 59.89250916213402, 65.97537728793505, 72.68762809066271,
    80.18744697791352, 88.7353404178924, 98.82954286828398, 111.7513980979377,
])
_LAGUERRE_WEIGHTS = np.array([
    0.10921834195242515, 0.2104431079387924, 0.23521322966984298, 0.19590333597287354,
    0.1299837862860684, 0.07057862386571556, 0.03176091250917397, 0.011918214834838204,
    0.003738816294611417, 0.0009808033066149246, 0.0002148649188013578,
    3.920341967987801e-05, 5.934541612868448e-06, 7.41640457866734e-07,
    7.604567879120552e-08, 6.350602226625618e-09, 4.281382971040738e-10,
    2.305899491891237e-11, 9.799379288726772e-13, 3.2378016577291567e-14,
    8.171823443420549e-16, 1.542133833393811e-17, 2.119792290163547e-19,
    2.0544296737880036e-21, 1.3469825866373617e-23, 5.661294130397462e-26,
    1.4185605454629684e-28, 1.9133754944539943e-31, 1.1922487600982012e-34,
    2.6715112192396625e-38, 1.3386169421064243e-42, 4.5105361938987784e-48,
])


@dataclass(frozen=True, eq=False)
class BoundaryTable:
    """Solved boundary values on a log-shock grid, interpolated log-linearly.

    `log(u)` is piecewise linear in (u, log b) between grid points; beyond the
    grid it continues silently with the nearest edge slope, finite for every
    finite u, and `table(u)` is its exponential.  Every profit kind is
    homothetic, so a solved or closed-form table is b(u) = K e^{s u} with
    s = alpha/(1 - beta) (cobb_douglas) or 1 (ces, log): its edge slope is s,
    and extrapolation is exact.  Construction enforces strict grid increase,
    strictly positive values, and nondecreasing values (to 1e-9 relative).
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
        """log b(u); a float for scalar u, else an array."""
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
        """b(u); a float for scalar u, else an array."""
        res = np.exp(self.log(u))
        return float(res) if np.ndim(u) == 0 else res


def _log_shock(u) -> float:
    """u as a float; DomainError unless it is finite."""
    u = float(u)
    if not math.isfinite(u):
        raise DomainError(f"log shock must be finite, got {u!r}")
    return u


def _grid(u_min: float, u_max: float, n: int) -> np.ndarray:
    """n evenly spaced log shocks from u_min to u_max; DomainError unless
    n >= 2 and both ends are finite with u_max > u_min."""
    if not n >= 2:
        raise DomainError(f"grid needs at least 2 points, got {n!r}")
    if not _log_shock(u_max) > _log_shock(u_min):
        raise DomainError(f"need u_max > u_min, got [{u_min!r}, {u_max!r}]")
    return np.linspace(u_min, u_max, n)


def _rule(factors: WienerHopfFactors):
    """Nodes i, weights w with E[f(I)] = sum_j w_j f(i_j); w None: the pool mean.

    Exact mode: -I has density sum_k w_k rho_k e^{-rho_k s}, so Gauss-Laguerre
    nodes (t_j, a_j) give E[f(I)] = sum_k w_k sum_j a_j f(-t_j / rho_k)."""
    if not factors.is_exact:
        return factors.pool.running_min, None
    rates = np.asarray(factors.min_rates, dtype=float)[:, None]
    return ((-_LAGUERRE_NODES / rates).ravel(),
            (np.asarray(factors.min_weights)[:, None] * _LAGUERRE_WEIGHTS).ravel())


def _gap(p: ProfitFunction, r: float, us: np.ndarray, nodes: np.ndarray, w,
         lc: np.ndarray, with_se=False):
    """Gap at log shocks us and log capacities lc, one per point; its SE if asked (MC).
    Monte Carlo mode reads the pool one point at a time through two pool-length
    buffers: however many points it serves, an evaluation holds one row."""
    if w is not None:
        return (marginal_profit(p, np.add.outer(us, nodes), lc[:, None]) * w).sum(axis=1) - r, None
    lz, terms = np.empty(len(nodes)), np.empty(len(nodes))
    mean, se = np.empty(len(us)), np.empty(len(us)) if with_se else None
    for k, (u, c) in enumerate(zip(us, lc)):
        marginal_profit(p, np.add(u, nodes, out=lz), c, out=terms)
        if with_se:
            mean[k], se[k] = _mean_se(terms)
        else:  # ndarray.mean's arithmetic without its per-call overhead
            mean[k] = terms.sum() / len(terms)
    return mean - r, se


def _solve(p: ProfitFunction, factors: WienerHopfFactors, us: np.ndarray):
    """Roots b(us), their SEs (None in exact mode) and solver diagnostics.

    The gap falls in x = log y, so roots.expand_bracket_geometric walks
    decades from y = 1 and hands its brackets, with the gap at both ends,
    to roots.bisect, which narrows them to width 1e-10 in x by Chandrupatla's
    method.  Both modes solve all points in one lockstep block, and every
    point's root is the one its own solve would find.  A Monte Carlo root's
    SE is its gap's SE over the gap's slope in y, the secant through the
    final bracket's ends, which the solve has already evaluated.
    `iterations` counts the block's gap evaluations, bracket walk included."""
    if factors.r <= kappa(p):
        # the gap is bounded below by kappa - r >= 0, so there is no root;
        # the guard keeps roundoff near the floor from faking a sign change
        raise BracketFailure(f"no boundary exists at r={factors.r!r}: the marginal "
                             f"profit never falls below {kappa(p)!r}")
    (nodes, w), r = _rule(factors), factors.r
    passes = 0
    ends = np.full((2, 2, len(us)), np.nan)  # MC: each point's newest (x, gap), gap > 0 then <= 0

    def gap_at(x):
        nonlocal passes
        passes += 1
        g = _gap(p, r, us, nodes, w, x)[0]
        if w is None:
            for side, where in enumerate((g > 0.0, g <= 0.0)):
                np.copyto(ends[side], (x, g), where=where)
        return g

    x = bisect(gap_at, *expand_bracket_geometric(gap_at, np.zeros(len(us))),
               rel_tol=0.0, abs_tol=_LOG_ROOT_TOL)
    root = np.exp(x)
    gap, se = _gap(p, r, us, nodes, w, x, with_se=True)
    if se is not None:  # SE of the root: SE of the gap over its slope in y
        (x_lo, g_lo), (x_hi, g_hi) = ends  # the final bracket
        slope = (g_hi - g_lo) / (x_hi - x_lo) / root  # d/dy = (d/dx) / y
        with np.errstate(divide="ignore", invalid="ignore"):
            se = np.where(slope != 0.0, np.abs(se / slope), np.inf)
    return root, se, {"iterations": passes, "max_abs_gap": float(np.abs(gap).max())}


def marginal_gap(p: ProfitFunction, factors: WienerHopfFactors, u: float,
                 y: float) -> Estimate:
    """E[pi_c(exp(u + I), y)] - r with its standard error (0 in exact mode)."""
    u = _log_shock(u)
    if not y > 0:
        raise DomainError(f"capacity must be > 0, got {y!r}")
    gap, se = _gap(p, factors.r, np.array([u]), *_rule(factors), np.log([float(y)]),
                   with_se=True)
    return Estimate(float(gap[0]), 0.0 if se is None else float(se[0]))


def solve_boundary_point(p: ProfitFunction, factors: WienerHopfFactors,
                         u: float) -> float:
    """The boundary value b(u): unique positive root of the marginal gap.

    Walks by factors of 10 from y = 1 toward the root (at most 60 steps,
    else BracketFailure - raised up front whenever r <= kappa, where the gap
    never turns negative), then narrows that bracket in log y to width 1e-10
    with roots.bisect (Chandrupatla's method): b to 1e-10 relative.
    """
    return float(_solve(p, factors, np.array([_log_shock(u)]))[0][0])


def solve_boundary_grid(p: ProfitFunction, factors: WienerHopfFactors,
                        u_min: float, u_max: float, n: int) -> BoundaryTable:
    """Solve the boundary on n evenly spaced log-shock points.

    Exact factors solve all points at once.  Monte Carlo factors reuse one
    pool of minima for every point (common random numbers), which keeps the
    empirical gap - and so the grid - monotone, and store per-point
    delta-method standard errors.  `solver` records passes and final |gap|.
    """
    us = _grid(u_min, u_max, n)
    roots, ses, solver = _solve(p, factors, us)
    return BoundaryTable(grid=us, values=roots, provenance=GENERIC_SOLVER,
                         ses=ses, solver=solver)


def integral_equation_residual(b, p: ProfitFunction, model: LevyModel, r: float,
                               u0: float, n: int, rng: np.random.Generator, *,
                               workers: int = 1) -> Estimate:
    """Monte Carlo residual of the boundary's integral characterization.

    Averages pi_c(exp(u0 + X_T), b(u0 + M)) - r over one pool of n draws of
    (X_T, M), the shock and its running maximum at an independent Exp(r)
    horizon T.  X_T - M is independent of M and has the law of the running
    minimum I (the Wiener-Hopf factorization), so u0 + X_T has the law of
    u0 + M + I in the integral equation, and the pool draws (X_T, M) in their
    exact joint law.  `b` is a BoundaryTable, and the kernel reads
    log b(u0 + M) from `b.log`: sampled maxima routinely leave the solved
    grid, and edge-slope extrapolation (exact on solved and closed-form
    tables, see BoundaryTable) stays finite in log coordinates however far
    they go.  The result does not depend on `workers`.  DomainError, before
    any draw, below levy's minimum replicate count.
    """
    u0 = _log_shock(u0)
    _check_replicates(n)
    pool = sample_extrema(model, r, n, rng, workers=workers)
    mean, se = _mean_se(marginal_profit(p, u0 + pool.terminal,
                                        b.log(u0 + pool.running_max)))
    return Estimate(float(mean) - r, float(se))


# -- closed forms -------------------------------------------------------------


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
    unique.  It is bracketed by decades in x = log K, where the equation
    falls, and roots.bisect (Chandrupatla's method) narrows the bracket to
    1e-14 wide: K to about 1e-14 relative.
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
    """Boundary table from the closed form matching the profit kind.

    cobb_douglas: b(u) = (theta * e^u) ** (alpha / (1 - beta)), with
    theta = (beta * E[e^{alpha I}] / r) ** (1 / alpha).  log: b(u) = E[e^I] * e^u / r.
    ces: b(u) = K * e^u, K from `ces_polynomial_constant` on exact moments where
    the factors are exact and 1/gamma is an integer, else `ces_boundary_constant`.
    The grid is checked as in `solve_boundary_grid`, before any moment or root.
    """
    us = _grid(u_min, u_max, n)
    provenance = f"{p.kind}_closed_form"
    if p.kind == "cobb_douglas":
        theta = (p.beta * inf_moment(factors, p.alpha) / factors.r) ** (1.0 / p.alpha)
        vals = (theta * np.exp(us)) ** (p.alpha / (1.0 - p.beta))
    elif p.kind == "ces":
        m = round(1.0 / p.gamma)
        if factors.is_exact and 1.0 / p.gamma == m:  # m >= 2, as gamma < 1
            provenance = "ces_polynomial_closed_form"
            moments = [inf_moment(factors, j / m) for j in range(1, m)]
            k = ces_polynomial_constant(p.alpha, m, moments, factors.r)
        else:
            k = ces_boundary_constant(p, factors)
        vals = k * np.exp(us)
    elif p.kind == "log":
        vals = inf_moment(factors, 1.0) * np.exp(us) / factors.r
    else:
        raise UnsupportedModel(f"no closed-form boundary for {p.kind!r} profit")
    return BoundaryTable(grid=us, values=np.asarray(vals, dtype=float),
                         provenance=provenance)
