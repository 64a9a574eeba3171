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
reaches it gives the stopping value, which never exceeds 1; b is nondecreasing,
so that is the first passage of X above a = inf{u : b(u) >= y} - x.

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
up to t_max, with one of two accumulators.  The pass alone reads the table and
owns the capacity: it changes only where the running maximum makes a new high
(a few percent of paths per step), so `_forward` looks b up, redoes log C and C
and forms the investment increment on those paths alone, and the accumulators
integrate what it hands them; the profit flow runs on every path, and the
results are bit for bit those of a lookup everywhere.
The value accumulator integrates each policy's profit flow by the trapezoid rule
and its investment by a left-endpoint Stieltjes sum, and the truncation order
e^{-(r - growth) t_max} is reported for the certified growth rate of the
integrand.  The first-hit accumulator keeps the running trapezoid A_j of
e^{-rs} pi_c(z_s, C_s) and records, per path, the grid index tau where each
stop (a grid index, or a level of X hit from below or above) first holds,
with A_tau there; e^{-r tau} is read off the grid's discount factors.  Each
chunk then forms its finished rows in the A_tau buffer: the supergradient
terms A_N - A_tau - e^{-r tau} (0 if tau never occurs before t_max) with a
hit count per stop, beside the slackness sum_j (A_N - A_{j-1} -
e^{-r t_{j-1}}) dC_j; or the stopping value A_tau + e^{-r tau} (A_N if tau
never occurs).

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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConditionViolation, DomainError
from .levy import (LevyModel, _check_replicates, _increment, _mean_se, _run_chunks,
                   sample_extrema)
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


def _check_state(x, y: float, n: int, r: float, step: float | None,
                 t_max: float | None) -> tuple[float, float, int]:
    """x as a float and the stepped grid's step h and step count N, N * h >= t_max,
    once x, y, n and the grid are valid.  None means step 1e-3 / r, a thousandth of the
    mean discount horizon, and t_max 20 / r, where the discount weight is e^{-20}."""
    if not math.isfinite(x):
        raise DomainError(f"initial log shock must be finite, got {x!r}")
    if not y > 0:
        raise DomainError(f"initial capacity must be > 0, got {y!r}")
    _check_replicates(n)
    step = 1e-3 / r if step is None else step
    t_max = 20.0 / r if t_max is None else t_max
    if not step > 0:
        raise DomainError(f"step must be > 0, got {step!r}")
    if not t_max > step:
        raise DomainError(f"t_max must exceed the step, got {t_max!r} <= {step!r}")
    return float(x), float(step), math.ceil(t_max / step)


def _scales(scales) -> list[float]:
    """The policy scales as floats in (0, inf), with the base scale 1.0 first if missing."""
    scales = [float(s) for s in scales]
    if not all(0.0 < s < math.inf for s in scales):
        raise DomainError(f"policy scales must be finite and > 0, got {scales!r}")
    return scales if 1.0 in scales else [1.0] + scales


def _forward(model, r, b, x, y, scales, n, rng, h, n_steps, workers, new):
    """Advance n replicate shock paths from x over the grid t_j = j * h, j = 0..N,
    under the policy C = max(y, s * b(x + sup X)) of each scale s, or C = y
    throughout when `scales` is None.

    `new(h, disc, m)` (disc[j] = e^{-r t_j}) builds a chunk's accumulator of m
    paths at index 0; `step(j, x_j, lz_j, lc, c, moved, invest)` then runs
    until `done`, with x_j = X_{t_j}, lz_j = x + x_j, and lc[k], c[k] scale
    k's log C and C per path (floats when C = y).  w_j = x + sup X takes each
    step's bridge maximum; `moved` indexes the paths whose w_j rose at step j
    (all of them at j = 1), and only there is b read, lc and c redone and
    invest[k] = e^{-r t_{j-1}} (C_j - C_{j-1}) formed, a fresh array; with
    C = y both are None.  The other arguments are buffers the chunk owns and
    overwrites at a later step (x_j swaps with the increment's buffer), so
    the accumulator keeps none.  A step allocates only moved-sized arrays,
    plus the jump families' Poisson counts and a profit kernel's one
    temporary (see `evaluate`); w_j exists only where C moves.  Returns the
    `result()` arrays joined on the last axis: each chunk reduces its paths
    to finished rows first, so the join holds one array per result.
    """
    disc = np.exp(-r * h * np.arange(n_steps + 1))
    ly = math.log(y)
    log_scales = None if scales is None else [math.log(s) for s in scales]

    def chunk(lo: int, hi: int, sub: np.random.Generator):
        m = hi - lo
        acc = new(h, disc, m)
        x_j, lz, x_next, top = np.zeros(m), np.empty(m), np.empty(m), np.empty(m)
        if scales is None:
            lc, c, moved, invest = [ly], [y], None, None
        else:
            # w starts below every level, so that every path reads b at j = 1;
            # the step maximum there is at least X_0 = 0, so w_1 >= x
            w_j = np.full(m, -np.inf)
            lc, c = np.full((len(scales), m), ly), np.full((len(scales), m), float(y))
        for j in range(1, n_steps + 1):
            if acc.done:
                break
            # lz is free until it is rewritten below, so it is the step's scratch
            x_next, top = _increment(model, x_j, h, sub, out=(x_next, top, lz))
            x_j, x_next = x_next, x_j
            np.add(x, x_j, out=lz)
            if scales is not None:
                top += x
                moved = np.flatnonzero(top > w_j)
                w_moved = top[moved]
                w_j[moved] = w_moved
                lb = b.log(w_moved)
                invest = []
                for k, ls in enumerate(log_scales):
                    lc_new = np.maximum(ly, lb + ls if ls else lb)
                    c_new = np.exp(lc_new)
                    invest.append(disc[j - 1] * (c_new - c[k][moved]))
                    lc[k][moved], c[k][moved] = lc_new, c_new
            acc.step(j, x_j, lz, lc, c, moved, invest)
        return acc.result()

    results = _run_chunks(n, rng, workers, chunk)
    return [np.concatenate(col, axis=-1) for col in zip(*results)]


class _Value:
    """Value J and investment PV per policy of the pass: the profit flow runs
    on every path, and the investment is added where the pass moved C."""

    done = False

    def __init__(self, p, x, y, n_scales, h, disc, m):
        self.p, self.h, self.disc = p, h, disc
        pi0 = float(evaluate(p, x, math.log(y)))
        self.j_acc = np.full((n_scales, m), 0.5 * h * disc[0] * pi0)  # C_0 = y
        self.pv_acc = np.zeros((n_scales, m))
        self.flow = np.empty(m)

    def step(self, j, x_j, lz, lc, c, moved, invest):
        w = self.h if j < len(self.disc) - 1 else 0.5 * self.h
        for k, dc in enumerate(invest):
            self.pv_acc[k][moved] += dc
            flow = evaluate(self.p, lz, lc[k], out=self.flow)
            flow *= w * self.disc[j]
            self.j_acc[k] += flow

    def result(self):
        return self.j_acc - self.pv_acc, self.pv_acc


class _FirstHits:
    """Running trapezoid A_j of e^{-rs} pi_c(z_s, C_s), for the pass's first
    policy or C = y, and per stop and path the first grid index tau where the
    stop holds (-1 while it has not) with A_tau there.  A stop is data:
    ("fixed", grid index), or ("hit_above", level) / ("hit_below", level) on
    X.  Where the pass moves C, the slackness is summed by parts, so that no
    terms growing with C cancel; with C held at y, stepping ends once all
    paths stop.  `result()` turns each A_tau row, in its own buffer, into the
    supergradient terms A_N - A_tau - e^{-r tau} (0 where the stop was never
    hit) and returns them with each stop's hit count and the slackness."""

    done = False

    def __init__(self, p, x, y, stops, h, disc, m):
        self.p, self.y, self.stops, self.h, self.disc = p, y, stops, h, disc
        pi_c0 = float(marginal_profit(p, x, math.log(y)))
        self.f, self.f_next = np.full(m, disc[0] * pi_c0), np.empty(m)
        self.a, self.dslack = np.zeros(m), np.empty(m)
        self.slack = None  # allocated once the pass first moves C
        self.tau = np.full((len(stops), m), -1, dtype=np.int32)
        self.a_tau = np.zeros((len(stops), m))
        self._record(0, np.zeros(m))

    def step(self, j, x_j, lz, lc, c, moved, invest):
        f = marginal_profit(self.p, lz, lc[0], out=self.f_next)
        f *= self.disc[j]
        # the last flow is spent once da is formed, so da takes its buffer,
        # and that buffer takes the next step's flow
        da = np.add(self.f, f, out=self.f)
        da *= 0.5 * self.h
        if moved is not None:
            # sum_j (A_N - A_{j-1}) dC_j = sum_j (A_j - A_{j-1}) (C_j - y)
            ds = np.subtract(c[0], self.y, out=self.dslack)
            ds *= da
            ds[moved] -= invest[0]
            if self.slack is None:
                self.slack = np.zeros(len(ds))
            self.slack += ds
        self.a += da
        self.f, self.f_next = f, da
        self._record(j, x_j)
        self.done = moved is None and bool(self.tau.min() >= 0)

    def _record(self, j: int, x_j: np.ndarray) -> None:
        for k, (kind, at) in enumerate(self.stops):
            if kind == "fixed":
                if j != at:
                    continue
                newly = self.tau[k] < 0
            else:
                newly = (x_j >= at if kind == "hit_above" else x_j <= at) & (self.tau[k] < 0)
            np.copyto(self.a_tau[k], self.a, where=newly)
            np.copyto(self.tau[k], j, where=newly)

    def _disc_at(self, tau: np.ndarray) -> np.ndarray:
        """e^{-r t_tau} per path (any value where tau = -1), in the slackness
        step's buffer.  The spent flow buffer holds tau widened to int64, so
        that np.take makes no index copy of its own."""
        idx = self.f.view(np.int64)
        np.copyto(idx, tau)
        return np.take(self.disc, idx, out=self.dslack, mode="clip")

    def result(self):
        hits = np.empty((len(self.stops), 1), dtype=np.int64)  # a column per chunk when joined
        for k, (row, tau) in enumerate(zip(self.a_tau, self.tau)):
            missed = tau < 0
            np.subtract(self.a, row, out=row)
            row -= self._disc_at(tau)
            row[missed] = 0.0
            hits[k] = tau.size - np.count_nonzero(missed)
        return self.a_tau, hits, self.slack


class _StoppingValue(_FirstHits):
    """The first-hit pass of one stop, whose `result()` is the one row
    A_tau + e^{-r tau} where the stop was hit and A_N elsewhere, formed in
    the A_tau buffer."""

    def result(self):
        row, tau = self.a_tau[0], self.tau[0]
        row += self._disc_at(tau)
        np.copyto(row, self.a, where=tau < 0)
        return (row,)


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


def _row(scale: float, j: np.ndarray, pv: np.ndarray, j_base: np.ndarray) -> ComparisonRow:
    """The row of `scale` from its value and investment samples, paired with j_base."""
    (j_mean, j_se), (pv_mean, pv_se) = _mean_se(j), _mean_se(pv)
    diff, diff_se = _mean_se(j_base - j)
    return ComparisonRow(scale=scale, j_value=float(j_mean), j_se=float(j_se),
                         pv_investment=float(pv_mean), pv_investment_se=float(pv_se),
                         base_minus_this=float(diff), base_minus_this_se=float(diff_se))


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
    x, h, n_steps = _check_state(x, y, n_paths, r, step, t_max)
    j_rows, pv_rows = _forward(model, r, b, x, y, scales, n_paths, rng, h, n_steps,
                               workers, partial(_Value, p, x, y, len(scales)))
    j_base = j_rows[scales.index(1.0)]
    rows = tuple(_row(s, j_rows[k], pv_rows[k], j_base) for k, s in enumerate(scales))
    return ComparisonResult(rows=rows, n_paths=n_paths, step=h, t_max=n_steps * h,
                            tail_bound=math.exp(-(r - growth) * n_steps * h))


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
    x, h, n_steps = _check_state(x, y, n_paths, r, step, t_max)
    _certified_growth(p, model, r)
    if not _certified_variance(p, model, r):
        raise ConditionViolation(
            "exponential-time estimator variance cannot be certified: psi(2 lam) >= r "
            "for a growth exponent lam; use compare_policies")
    pool = sample_extrema(model, r, n_paths, rng, workers=workers)
    lb_top = b.log(x + pool.running_max)
    lz, ly = x + pool.terminal, math.log(y)

    def rows(s: float):
        lc = np.maximum(ly, math.log(s) + lb_top)
        pv = np.exp(lc) - y
        return evaluate(p, lz, lc) / r - pv, pv

    # scale by scale, so that no (scales, n) block is ever held
    j_base = rows(1.0)[0]
    out = tuple(_row(s, *rows(s), j_base) for s in scales)
    return ComparisonResult(rows=out, n_paths=n_paths, step=h, t_max=n_steps * h,
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
    x, h, n_steps = _check_state(x, y, n_paths, r, step, t_max)
    # a fixed rule stops at the grid index nearest its time
    stops = [(rule.kind, round(rule.at / h) if rule.kind == "fixed" else rule.at)
             for rule in rules]
    if any(kind == "fixed" and k > n_steps for kind, k in stops):
        raise DomainError("fixed stopping times must lie within the truncation horizon")
    terms, hits, slack = _forward(model, r, b, x, y, (1.0,), n_paths, rng, h, n_steps,
                                  workers, partial(_FirstHits, p, x, y, stops))
    sg, sg_se = _mean_se(terms)
    slackness, slackness_se = _mean_se(slack)
    entries = tuple(FOCEntry(rule=rule, supergradient=float(sg[k]), se=float(sg_se[k]),
                             hit_fraction=float(hits[k].sum() / n_paths))
                    for k, rule in enumerate(rules))
    return FOCReport(entries=entries, slackness=float(slackness), slackness_se=float(slackness_se),
                     n_paths=n_paths, step=h, t_max=n_steps * h)


def stopping_value(p: ProfitFunction, model: LevyModel, r: float, b, x: float,
                   y: float, n_paths: int, rng: np.random.Generator, *,
                   step: float | None = None, t_max: float | None = None,
                   workers: int = 1) -> tuple[float, float]:
    """Value of stopping at the first grid time where b(x + X) reaches y.

    Estimates E[ integral_0^tau e^{-rs} pi_c(e^{x + X_s}, y) ds + e^{-r tau} ]
    with e^{-r tau} = 0 when tau never occurs before t_max.  b is nondecreasing,
    so tau is the first passage of X above a = inf{u : b(u) >= y} - x, read
    once off the table; the result is exactly (1.0, 0.0), before any path is
    stepped, when y <= b(x) as `b(x)` computes it.  Never exceeds 1 beyond
    noise.  b is read at x and at the threshold x + a only.
    ConditionViolation when no growth certificate exists, before any path.
    """
    _certified_growth(p, model, r)
    x, h, n_steps = _check_state(x, y, n_paths, r, step, t_max)
    # in logs first, so that b(x) is formed only below y and cannot overflow
    ly, lbx = math.log(y), b.log(x)
    if lbx >= ly or y <= np.exp(lbx):
        return 1.0, 0.0
    a = b.first_reach(ly) - x
    values, = _forward(model, r, b, x, y, None, n_paths, rng, h, n_steps, workers,
                       partial(_StoppingValue, p, x, y, [("hit_above", a)]))
    mean, se = _mean_se(values)
    return float(mean), float(se)
