"""Capacity-policy simulation: value estimates, comparisons, and optimality checks.

A boundary table b (a `BoundaryTable`) turns into an irreversible investment
policy by reflection: the capacity at time t is the starting level or the
largest boundary value seen strictly before t, whichever is bigger; the
engines work with log C = max(log y, log b).  The policy's value is

    J = E[ integral_0^inf e^{-rt} pi(z_t, C_t) dt - integral_0^inf e^{-rt} dC_t ].

The first-order conditions give two testable statements for an optimal
policy: for every stopping rule tau the "supergradient"

    E[ integral_tau^inf e^{-rs} pi_c(z_s, C_s) ds - e^{-r tau} ]

is nonpositive, and it integrates to zero against the investment increments
(complementary slackness).  Holding the capacity at y until b(x + X) first
reaches it gives the stopping value, which never exceeds 1.

Two engines estimate these.  The exponential-time engine
(`exponential_time_values`) has no time grid: with T ~ Exp(r) independent of
X, integration by parts gives

    J = E[ pi(e^{x + X_T}, C_T) / r - (C_T - y) ],   C_T = max(y, s * b(x + M)),

for the policy from s * b, where M is the running maximum over [0, T], and
one `sample_extrema` pool draws (X_T, M) in its exact joint law.  Its
estimator has a finite variance when psi(2 lam) < r for every growth
exponent lam (`profit._certified_variance`); the engine refuses otherwise.

The stepped engine serves every estimate: the values (`evaluate_profit`,
`compare_policies`), the first-order conditions and the stopping value.
All of these come from one forward pass, `_forward`, on the grid t_j = j * step
up to t_max, with one of two accumulators.  The value accumulator integrates
each policy's profit flow by the trapezoid rule and its investment by a
left-endpoint Stieltjes sum, and the truncation order e^{-(r - growth) t_max}
is reported for the certified growth rate of the integrand.  The first-hit
accumulator keeps the running trapezoid A_j of e^{-rs} pi_c(z_s, C_s) and
records A_j and e^{-r t_j} where a stop mask first turns true.  Then the
supergradient is A_N - A_tau - e^{-r tau} (0 if tau never occurs before
t_max), the slackness sum_j (A_N - A_{j-1} - e^{-r t_{j-1}}) dC_j, and the
stopping value A_tau + e^{-r tau} (A_N if tau never occurs).

All estimators reuse common random numbers across policy scales and run in
fixed-size replicate chunks with spawned substreams, so results depend only
on the seed, never on the worker count.  Paths advance one grid step at a
time through levy's shared increment: for the diffusive families the running
supremum feeding the policy takes each step's Brownian-bridge maximum, which
removes the O(sqrt(step)) reflection bias a plain grid supremum would carry;
compound-Poisson jumps are binned to the right end of their step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .boundary import BoundaryTable, ExtrapolationWarning, _warn_extrapolated
from .errors import ConditionViolation, DomainError
from .levy import (_MIN_REPLICATES, LevyModel, _increment, _mean_se, _run_chunks,
                   default_step, default_t_max, sample_extrema)
from .profit import (ProfitFunction, _certified_growth, _certified_variance, evaluate,
                     marginal_profit)

__all__ = [
    "StoppingRule",
    "PolicyEvaluation",
    "ComparisonRow",
    "ComparisonResult",
    "FOCEntry",
    "FOCReport",
    "evaluate_profit",
    "compare_policies",
    "exponential_time_values",
    "foc_residuals",
    "stopping_value",
]


# -- result records -----------------------------------------------------------


@dataclass(frozen=True)
class StoppingRule:
    """One stopping rule: 'fixed' stops at time `at`; 'hit_above'/'hit_below'
    stop when the shock process X first reaches level `at` from below/above
    (never stopping counts as tau = infinity, which contributes nothing)."""

    kind: str
    at: float

    def __post_init__(self):
        if self.kind not in ("fixed", "hit_above", "hit_below"):
            raise DomainError(f"unknown stopping rule kind {self.kind!r}")
        if not math.isfinite(self.at):
            raise DomainError(f"stopping rule level or time must be finite, got {self.at!r}")
        if self.kind == "fixed" and self.at < 0:
            raise DomainError(f"fixed stopping time must be >= 0, got {self.at!r}")

    @classmethod
    def fixed(cls, t: float) -> "StoppingRule":
        return cls("fixed", float(t))

    @classmethod
    def hit_above(cls, level: float) -> "StoppingRule":
        return cls("hit_above", float(level))

    @classmethod
    def hit_below(cls, level: float) -> "StoppingRule":
        return cls("hit_below", float(level))

    def label(self) -> str:
        if self.kind == "fixed":
            return f"t={self.at:g}"
        return f"X {'>=' if self.kind == 'hit_above' else '<='} {self.at:g}"


@dataclass(frozen=True)
class PolicyEvaluation:
    j_value: float
    j_se: float
    pv_investment: float
    pv_investment_se: float
    n_paths: int
    step: float
    t_max: float
    tail_bound: float
    engine: str = "stepped"


@dataclass(frozen=True)
class ComparisonRow:
    scale: float
    j_value: float
    j_se: float
    pv_investment: float
    pv_investment_se: float
    base_minus_this: float       # paired J(base) - J(this scale)
    base_minus_this_se: float


@dataclass(frozen=True)
class ComparisonResult:
    rows: tuple[ComparisonRow, ...]
    n_paths: int
    step: float
    t_max: float
    tail_bound: float
    engine: str = "stepped"   # or "exponential_time", which ignores step and t_max


@dataclass(frozen=True)
class FOCEntry:
    rule: StoppingRule
    supergradient: float
    se: float
    hit_fraction: float

    def to_dict(self) -> dict:
        return {"rule": self.rule.label(), "supergradient": self.supergradient,
                "se": self.se, "hit_fraction": self.hit_fraction}


@dataclass(frozen=True)
class FOCReport:
    entries: tuple[FOCEntry, ...]
    slackness: float
    slackness_se: float
    n_paths: int
    step: float
    t_max: float

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.entries],
                "slackness": self.slackness, "slackness_se": self.slackness_se,
                "n_paths": self.n_paths, "step": self.step, "t_max": self.t_max}


# -- the forward pass -----------------------------------------------------------


def _warn_if_extrapolated(b: BoundaryTable, lo: float, hi: float) -> None:
    if lo < b.grid[0] or hi > b.grid[-1]:
        _warn_extrapolated(
            f"policy engine evaluated the boundary on [{float(lo)!r}, {float(hi)!r}], "
            f"beyond its solved grid [{float(b.grid[0])!r}, {float(b.grid[-1])!r}]; "
            f"edge-slope extrapolation was used")


class _Seen:
    """The table b's log lookup, recording the range of its arguments (from [x, x] on)."""

    def __init__(self, b: BoundaryTable, x: float):
        self.b, self.lo, self.hi = b, x, x

    def log(self, u: np.ndarray) -> np.ndarray:
        self.lo, self.hi = min(self.lo, float(u.min())), max(self.hi, float(u.max()))
        return self.b.log(u)


def _check_state(y: float, n: int) -> None:
    if not y > 0:
        raise DomainError(f"initial capacity must be > 0, got {y!r}")
    if n < _MIN_REPLICATES:
        raise DomainError(f"need at least {_MIN_REPLICATES} replicates, got {n!r}")


def _grid(r: float, step: float | None, t_max: float | None) -> tuple[float, int]:
    """The stepped engine's step h and step count N, N * h >= t_max; None
    means `default_step(r)` and `default_t_max(r)`."""
    step = default_step(r) if step is None else step
    t_max = default_t_max(r) if t_max is None else t_max
    if not step > 0:
        raise DomainError(f"step must be > 0, got {step!r}")
    if not t_max > step:
        raise DomainError(f"t_max must exceed the step, got {t_max!r} <= {step!r}")
    return float(step), math.ceil(t_max / step)


def _scales(scales) -> list[float]:
    """The policy scales as floats, all > 0, with the base scale 1.0 first if missing."""
    scales = [float(s) for s in scales]
    if any(s <= 0 for s in scales):
        raise DomainError("policy scales must be > 0")
    return scales if 1.0 in scales else [1.0] + scales


def _forward(model, r, b, x, y, n, rng, step, t_max, workers, start):
    """Advance n replicate shock paths over the grid t_j = j * h, j = 0..N.

    `start(h, disc)` (disc[j] = e^{-r t_j}) returns the factory `new(m, b)`
    of a chunk's accumulator, which takes index 0 when built, then
    `step(j, x_j, w_j, lz_j)` until `done`: x_j = X_{t_j}, w_j = x + sup X
    (with each step's bridge maximum) and the log shock lz_j = x + x_j.  Returns the
    `result()` arrays joined along the replicate (last) axis, h and N * h.
    """
    _check_state(y, n)
    h, n_steps = _grid(r, step, t_max)
    new = start(h, np.exp(-r * h * np.arange(n_steps + 1)))

    def chunk(lo: int, hi: int, sub: np.random.Generator):
        seen = _Seen(b, x)
        acc = new(hi - lo, seen)
        x_j, w_j = np.zeros(hi - lo), np.full(hi - lo, x)
        for j in range(1, n_steps + 1):
            if acc.done:
                break
            x_j, step_max = _increment(model, x_j, h, sub)
            np.maximum(w_j, x + step_max, out=w_j)
            acc.step(j, x_j, w_j, x + x_j)
        return acc.result(), seen.lo, seen.hi

    # tables are extrapolated by design; coverage is reported once after the
    # join, and the filter is set before any worker thread starts
    # (catch_warnings touches process-global state, so not inside the pool)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        results, lows, highs = zip(*_run_chunks(n, rng, workers, chunk))
    _warn_if_extrapolated(b, min(lows), max(highs))
    return [np.concatenate(col, axis=-1) for col in zip(*results)], h, n_steps * h


class _Value:
    """Value J and investment PV of the policy max(y, s * b) per scale s."""

    done = False

    def __init__(self, p, x, y, scales, h, disc, m, b):
        self.p, self.y, self.h, self.disc, self.b = p, y, h, disc, b
        self.ly, self.log_scales = math.log(y), [math.log(s) for s in scales]
        pi0 = float(evaluate(p, x, self.ly))
        self.j_acc = np.full((len(scales), m), 0.5 * h * disc[0] * pi0)  # C_0 = y
        self.pv_acc = np.zeros((len(scales), m))
        self.c_prev = np.full((len(scales), m), float(y))

    def step(self, j, x_j, w_j, lz):
        lb = self.b.log(w_j)
        w = self.h if j < len(self.disc) - 1 else 0.5 * self.h
        for k, ls in enumerate(self.log_scales):
            lc = np.maximum(self.ly, ls + lb)
            c_k = np.exp(lc)
            self.j_acc[k] += w * self.disc[j] * evaluate(self.p, lz, lc)
            self.pv_acc[k] += self.disc[j - 1] * (c_k - self.c_prev[k])
            self.c_prev[k] = c_k

    def result(self):
        return self.j_acc - self.pv_acc, self.pv_acc


class _FirstHits:
    """Running trapezoid A_j of e^{-rs} pi_c(z_s, C_s); A_j and e^{-r t_j} at the
    first index where each of `stops(j, x_j, b)` holds.  `reflect`: C is
    max(y, b(w_j)), and the slackness is summed by parts, so that no terms
    growing with C cancel; else C = y, and stepping ends once all paths stop."""

    def __init__(self, p, x, y, reflect, stops, h, disc, m, b):
        self.p, self.y, self.ly, self.reflect, self.stops = p, y, math.log(y), reflect, stops
        self.h, self.disc, self.b = h, disc, b
        self.c = np.full(m, float(y)) if reflect else float(y)
        pi_c0 = float(marginal_profit(p, x, self.ly))
        self.f = np.full(m, disc[0] * pi_c0)
        self.a, self.slack = np.zeros(m), np.zeros(m)
        masks = stops(0, np.zeros(m), b)
        self.hit = np.zeros((len(masks), m), dtype=bool)
        self.a_tau, self.d_tau = np.zeros((len(masks), m)), np.zeros((len(masks), m))
        self._record(0, masks)

    def step(self, j, x_j, w_j, lz):
        lc = np.maximum(self.ly, self.b.log(w_j)) if self.reflect else self.ly
        f = self.disc[j] * marginal_profit(self.p, lz, lc)
        da = 0.5 * self.h * (self.f + f)
        if self.reflect:
            # sum_j (A_N - A_{j-1}) dC_j = sum_j (A_j - A_{j-1}) (C_j - y)
            c = np.exp(lc)
            self.slack += da * (c - self.y) - self.disc[j - 1] * (c - self.c)
            self.c = c
        self.a = self.a + da
        self.f = f
        self._record(j, self.stops(j, x_j, self.b))

    def _record(self, j: int, masks) -> None:
        for k, stops in enumerate(masks):
            newly = stops & ~self.hit[k]
            self.a_tau[k][newly] = self.a[newly]
            self.d_tau[k][newly] = self.disc[j]
            self.hit[k] |= newly
        self.done = not self.reflect and bool(self.hit.all())

    def result(self):
        return self.a, self.a_tau, self.d_tau, self.hit, self.slack


# -- value estimation -----------------------------------------------------------


def evaluate_profit(p: ProfitFunction, model: LevyModel, r: float, b, x: float,
                    y: float, n_paths: int, rng: np.random.Generator, *,
                    step: float | None = None, t_max: float | None = None,
                    workers: int = 1) -> PolicyEvaluation:
    """Monte Carlo value of the reflection policy generated by boundary b.

    Returns the discounted-profit-minus-investment estimate with standard
    errors, the truncation horizon, and the certified tail-order bound
    exp(-(r - growth) * t_max).  ConditionViolation when no growth
    certificate exists for the (profit, model) pair.
    """
    res = compare_policies(p, model, r, b, x, y, (1.0,), n_paths, rng,
                           step=step, t_max=t_max, workers=workers)
    return _at_base(res)


def _at_base(res: ComparisonResult) -> PolicyEvaluation:
    """The base-scale (1.0) row of a comparison, as a PolicyEvaluation."""
    row = next(row for row in res.rows if row.scale == 1.0)
    return PolicyEvaluation(
        j_value=row.j_value, j_se=row.j_se, pv_investment=row.pv_investment,
        pv_investment_se=row.pv_investment_se, n_paths=res.n_paths, step=res.step,
        t_max=res.t_max, tail_bound=res.tail_bound, engine=res.engine)


def compare_policies(p: ProfitFunction, model: LevyModel, r: float, b, x: float,
                     y: float, scales, n_paths: int, rng: np.random.Generator, *,
                     step: float | None = None, t_max: float | None = None,
                     workers: int = 1) -> ComparisonResult:
    """Paired values of the policies from c * b across the given scales.

    All scales ride the same simulated paths (common random numbers), so the
    paired differences J(base) - J(scale) carry far smaller standard errors
    than the individual levels.  The base scale 1.0 is added if missing.
    """
    scales = _scales(scales)
    growth = _certified_growth(p, model, r)
    (j_rows, pv_rows), h, t_eff = _forward(
        model, r, b, x, y, n_paths, rng, step, t_max, workers,
        lambda h, disc: partial(_Value, p, x, y, scales, h, disc))
    j, j_se = _mean_se(j_rows)
    pv, pv_se = _mean_se(pv_rows)
    diff, diff_se = _mean_se(j_rows[scales.index(1.0)] - j_rows)
    rows = tuple(
        ComparisonRow(scale=s, j_value=float(j[k]), j_se=float(j_se[k]),
                      pv_investment=float(pv[k]), pv_investment_se=float(pv_se[k]),
                      base_minus_this=float(diff[k]), base_minus_this_se=float(diff_se[k]))
        for k, s in enumerate(scales))
    return ComparisonResult(rows=rows, n_paths=n_paths, step=h, t_max=t_eff,
                            tail_bound=math.exp(-(r - growth) * t_eff))


def exponential_time_values(p: ProfitFunction, model: LevyModel, r: float, b, x: float,
                            y: float, scales, n_paths: int, rng: np.random.Generator, *,
                            step: float | None = None, t_max: float | None = None,
                            workers: int = 1) -> ComparisonResult:
    """`compare_policies`' rows from one (X_T, M) pool at Exp(r) horizons.

    Per draw and scale s, C_T = max(y, s * b(x + M)), the value row is
    pi(e^{x + X_T}, C_T) / r - (C_T - y) and the investment row C_T - y.
    All scales read the same draws, so J(1) - J(s) is paired as in the
    stepped engine.  There is no time grid and no truncation: `step` and
    `t_max` are checked and reported as `compare_policies` resolves them,
    but unused, and `tail_bound` is 0.  ConditionViolation when the growth
    or the variance certificate (psi(2 lam) < r) fails, before any draw.
    """
    scales = _scales(scales)
    _check_state(y, n_paths)
    _certified_growth(p, model, r)
    if not _certified_variance(p, model, r):
        raise ConditionViolation(
            "exponential-time estimator variance cannot be certified: psi(2 lam) >= r "
            "for a growth exponent lam; use compare_policies")
    h, n_steps = _grid(r, step, t_max)
    pool = sample_extrema(model, r, n_paths, rng, workers=workers)
    top = x + pool.running_max
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        lb_top = b.log(top)
    _warn_if_extrapolated(b, x, float(top.max()))
    lz, ly = x + pool.terminal, math.log(y)

    def rows(s: float):
        lc = np.maximum(ly, math.log(s) + lb_top)
        pv = np.exp(lc) - y
        return evaluate(p, lz, lc) / r - pv, pv

    # scale by scale, so that no (scales, n) block is ever held
    j_base = rows(1.0)[0]
    out = []
    for s in scales:
        j, pv = rows(s)
        (j_mean, j_se), (pv_mean, pv_se) = _mean_se(j), _mean_se(pv)
        diff, diff_se = _mean_se(j_base - j)
        out.append(ComparisonRow(
            scale=s, j_value=float(j_mean), j_se=float(j_se), pv_investment=float(pv_mean),
            pv_investment_se=float(pv_se), base_minus_this=float(diff),
            base_minus_this_se=float(diff_se)))
    return ComparisonResult(rows=tuple(out), n_paths=n_paths, step=h, t_max=n_steps * h,
                            tail_bound=0.0, engine="exponential_time")


# -- first-order conditions and stopping value -------------------------------------


def foc_residuals(p: ProfitFunction, model: LevyModel, r: float, b, x: float,
                  y: float, rules, n_paths: int, rng: np.random.Generator, *,
                  step: float | None = None, t_max: float | None = None,
                  workers: int = 1) -> FOCReport:
    """Supergradient estimates at the given stopping rules plus slackness.

    For each rule tau the estimate is E[T_tau - e^{-r tau}], where T_tau is
    the trapezoidal suffix integral of e^{-rs} pi_c(z_s, C_s) from tau; a
    rule that never triggers before t_max contributes 0 (tau = infinity).
    Slackness integrates the same bracket against the policy's investment
    increments; both should vanish at the optimal boundary, and the
    supergradients must never be significantly positive.
    """
    rules = tuple(rules)
    if not rules:
        raise DomainError("need at least one stopping rule")
    _certified_growth(p, model, r)

    def start(h, disc):
        # a fixed rule stops at the grid index nearest its time
        at = [round(rule.at / h) if rule.kind == "fixed" else rule.at for rule in rules]
        if any(rule.kind == "fixed" and k >= len(disc) for rule, k in zip(rules, at)):
            raise DomainError("fixed stopping times must lie within the truncation horizon")

        def stops(j, x_j, b):
            return [j == k if rule.kind == "fixed" else
                    x_j >= k if rule.kind == "hit_above" else x_j <= k
                    for rule, k in zip(rules, at)]
        return partial(_FirstHits, p, x, y, True, stops, h, disc)

    (a_end, a_tau, d_tau, hit, slack), h, t_eff = _forward(
        model, r, b, x, y, n_paths, rng, step, t_max, workers, start)
    sg, sg_se = _mean_se(np.where(hit, a_end - a_tau - d_tau, 0.0))
    slackness, slackness_se = _mean_se(slack)
    entries = tuple(FOCEntry(rule=rule, supergradient=float(sg[k]), se=float(sg_se[k]),
                             hit_fraction=float(hit[k].mean()))
                    for k, rule in enumerate(rules))
    return FOCReport(entries=entries, slackness=float(slackness),
                     slackness_se=float(slackness_se), n_paths=n_paths, step=h, t_max=t_eff)


def stopping_value(p: ProfitFunction, model: LevyModel, r: float, b, x: float,
                   y: float, n_paths: int, rng: np.random.Generator, *,
                   step: float | None = None, t_max: float | None = None,
                   workers: int = 1) -> tuple[float, float]:
    """Value of stopping at the first grid time where b(x + X) reaches y.

    Estimates E[ integral_0^tau e^{-rs} pi_c(e^{x + X_s}, y) ds + e^{-r tau} ]
    with e^{-r tau} = 0 when tau never occurs before t_max.  Returns exactly
    (1.0, 0.0) when y <= b(x), where tau = 0.  Never exceeds 1 beyond noise.
    """
    stops = lambda j, x_j, b: [b.log(x + x_j) >= math.log(y)]  # noqa: E731
    (a_end, a_tau, d_tau, hit, _), _, _ = _forward(
        model, r, b, x, y, n_paths, rng, step, t_max, workers,
        lambda h, disc: partial(_FirstHits, p, x, y, False, stops, h, disc))
    mean, se = _mean_se(np.where(hit[0], a_tau[0] + d_tau[0], a_end))
    return float(mean), float(se)
