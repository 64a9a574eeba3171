"""Capacity-policy simulation: value estimates, comparisons, and optimality checks.

A boundary b turns into an irreversible investment policy by reflection: the
capacity at time t is the starting level or the largest boundary value seen
strictly before t, whichever is bigger.  The policy's value is

    J = E[ integral_0^inf e^{-rt} pi(z_t, C_t) dt - integral_0^inf e^{-rt} dC_t ],

estimated here by trapezoidal time discretization truncated at t_max (with
the truncation order e^{-(r - growth) * t_max} reported, where `growth` is
the certified exponential growth rate of the integrand) and a left-endpoint
Stieltjes sum for the investment account.

The first-order conditions give two testable statements for an optimal
policy: for every stopping rule tau the "supergradient"

    E[ integral_tau^inf e^{-rs} pi_c(z_s, C_s) ds - e^{-r tau} ]

is nonpositive, and it integrates to zero against the investment increments
(complementary slackness).  Both are estimated pathwise in a single forward
pass per replicate.

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

import numpy as np

from .boundary import BoundaryTable, ExtrapolationWarning
from .errors import ConditionViolation, DomainError
from .levy import LevyModel, _increment, _run_chunks, default_step, default_t_max
from .profit import ProfitFunction, _growth_exponent, evaluate, marginal_profit

__all__ = [
    "StoppingRule",
    "PolicyEvaluation",
    "ComparisonRow",
    "ComparisonResult",
    "FOCEntry",
    "FOCReport",
    "evaluate_profit",
    "compare_policies",
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

    def to_dict(self) -> dict:
        return {
            "j_value": self.j_value, "j_se": self.j_se,
            "pv_investment": self.pv_investment,
            "pv_investment_se": self.pv_investment_se,
            "n_paths": self.n_paths, "step": self.step, "t_max": self.t_max,
            "tail_bound": self.tail_bound,
        }


@dataclass(frozen=True)
class ComparisonRow:
    scale: float
    j_value: float
    j_se: float
    pv_investment: float
    pv_investment_se: float
    base_minus_this: float       # paired J(base) - J(this scale)
    base_minus_this_se: float

    def to_dict(self) -> dict:
        return {
            "scale": self.scale, "j_value": self.j_value, "j_se": self.j_se,
            "pv_investment": self.pv_investment,
            "pv_investment_se": self.pv_investment_se,
            "base_minus_this": self.base_minus_this,
            "base_minus_this_se": self.base_minus_this_se,
        }


@dataclass(frozen=True)
class ComparisonResult:
    rows: tuple[ComparisonRow, ...]
    n_paths: int
    step: float
    t_max: float
    tail_bound: float

    def to_dict(self) -> dict:
        return {"rows": [row.to_dict() for row in self.rows],
                "n_paths": self.n_paths, "step": self.step,
                "t_max": self.t_max, "tail_bound": self.tail_bound}


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


# -- growth certificate --------------------------------------------------------


def _certified_growth(p: ProfitFunction, model: LevyModel, r: float) -> float:
    """Certified exponential growth rate of the discounted integrands.

    Raises ConditionViolation when the needed exponential moment is missing
    (e.g. the stable family) or when it reaches the discount rate, in which
    case the truncated estimate has no decaying tail bound.
    """
    try:
        worst = _growth_exponent(p, model)
    except DomainError as exc:
        raise ConditionViolation(f"tail bound cannot be certified: {exc}") from exc
    if worst is None:
        raise ConditionViolation(
            "custom profit has no closed-form growth certificate; the truncation "
            "tail bound cannot be certified")
    if worst >= r:
        raise ConditionViolation(
            f"tail bound cannot be certified: growth exponent {worst!r} >= r={r!r}")
    return worst


# -- shared engine plumbing -----------------------------------------------------


def _resolve_grid(r: float, step, t_max) -> tuple[float, float, int]:
    if step is None:
        step = default_step(r)
    if t_max is None:
        t_max = default_t_max(r)
    if not step > 0:
        raise DomainError(f"step must be > 0, got {step!r}")
    if not t_max > step:
        raise DomainError(f"t_max must exceed the step, got {t_max!r} <= {step!r}")
    n_steps = math.ceil(t_max / step)
    return float(step), n_steps * float(step), n_steps


def _run_engine(n: int, rng: np.random.Generator, workers: int, chunk_fn) -> list:
    if n < 1_000:
        raise DomainError(f"need at least 1000 replicates, got {n!r}")
    # tables are extrapolated by design inside the engines; coverage is
    # reported once by the caller instead of once per step, and the filter is
    # installed before any worker thread starts (catch_warnings touches
    # process-global state, so it must not run inside the pool)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        return _run_chunks(n, rng, workers, chunk_fn)


def _warn_if_extrapolated(b, lo: float, hi: float) -> None:
    if isinstance(b, BoundaryTable) and (lo < b.grid[0] or hi > b.grid[-1]):
        warnings.warn(
            f"policy engine evaluated the boundary on [{float(lo)!r}, {float(hi)!r}], "
            f"beyond its solved grid [{float(b.grid[0])!r}, {float(b.grid[-1])!r}]; "
            f"edge-slope extrapolation was used", ExtrapolationWarning, stacklevel=3)


# -- value estimation -----------------------------------------------------------


def _j_engine(p, model, r, b, x, y, scales, n, rng, step, t_max, workers):
    h, t_max, n_steps = _resolve_grid(r, step, t_max)
    k_scales = len(scales)
    disc = np.exp(-r * h * np.arange(n_steps + 1))
    pi0 = float(np.asarray(evaluate(p, math.exp(x), y), dtype=float))

    def chunk(lo: int, hi: int, sub: np.random.Generator):
        m = hi - lo
        x_new = np.zeros(m)
        w_run = np.full(m, x)
        c_prev = np.full((k_scales, m), float(y))
        j_acc = np.zeros((k_scales, m))
        pv_acc = np.zeros((k_scales, m))
        j_acc += 0.5 * h * disc[0] * pi0  # C_0 = y exactly; empty pre-0 supremum
        for step_idx in range(1, n_steps + 1):
            x_new, step_max = _increment(model, x_new, h, sub)
            np.maximum(w_run, x + step_max, out=w_run)
            z = np.exp(x + x_new)
            b_w = np.asarray(b(w_run), dtype=float)
            w_j = h if step_idx < n_steps else 0.5 * h
            d_j = disc[step_idx]
            d_left = disc[step_idx - 1]
            for k in range(k_scales):
                c_k = np.maximum(y, scales[k] * b_w)
                j_acc[k] += w_j * d_j * np.asarray(evaluate(p, z, c_k), dtype=float)
                pv_acc[k] += d_left * (c_k - c_prev[k])
                c_prev[k] = c_k
        return j_acc - pv_acc, pv_acc, float(w_run.max())

    j_parts, pv_parts, w_max = zip(*_run_engine(n, rng, workers, chunk))
    _warn_if_extrapolated(b, x, max(w_max))
    return np.concatenate(j_parts, axis=1), np.concatenate(pv_parts, axis=1), h, t_max


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
    if not y > 0:
        raise DomainError(f"initial capacity must be > 0, got {y!r}")
    growth = _certified_growth(p, model, r)
    j_rows, pv_rows, h, t_eff = _j_engine(p, model, r, b, x, y, (1.0,), n_paths,
                                          rng, step, t_max, workers)
    j, pv = j_rows[0], pv_rows[0]
    root_n = math.sqrt(n_paths)
    return PolicyEvaluation(
        j_value=float(j.mean()), j_se=float(j.std(ddof=1) / root_n),
        pv_investment=float(pv.mean()),
        pv_investment_se=float(pv.std(ddof=1) / root_n),
        n_paths=n_paths, step=h, t_max=t_eff,
        tail_bound=math.exp(-(r - growth) * t_eff),
    )


def compare_policies(p: ProfitFunction, model: LevyModel, r: float, b, x: float,
                     y: float, scales, n_paths: int, rng: np.random.Generator, *,
                     step: float | None = None, t_max: float | None = None,
                     workers: int = 1) -> ComparisonResult:
    """Paired values of the policies from c * b across the given scales.

    All scales ride the same simulated paths (common random numbers), so the
    paired differences J(base) - J(scale) carry far smaller standard errors
    than the individual levels.  The base scale 1.0 is added if missing.
    """
    if not y > 0:
        raise DomainError(f"initial capacity must be > 0, got {y!r}")
    scales = [float(s) for s in scales]
    if any(s <= 0 for s in scales):
        raise DomainError("policy scales must be > 0")
    if 1.0 not in scales:
        scales = [1.0] + scales
    growth = _certified_growth(p, model, r)
    j_rows, pv_rows, h, t_eff = _j_engine(p, model, r, b, x, y, tuple(scales),
                                          n_paths, rng, step, t_max, workers)
    base = j_rows[scales.index(1.0)]
    root_n = math.sqrt(n_paths)
    rows = []
    for k, s in enumerate(scales):
        diff = base - j_rows[k]
        rows.append(ComparisonRow(
            scale=s,
            j_value=float(j_rows[k].mean()),
            j_se=float(j_rows[k].std(ddof=1) / root_n),
            pv_investment=float(pv_rows[k].mean()),
            pv_investment_se=float(pv_rows[k].std(ddof=1) / root_n),
            base_minus_this=float(diff.mean()),
            base_minus_this_se=float(diff.std(ddof=1) / root_n),
        ))
    return ComparisonResult(rows=tuple(rows), n_paths=n_paths, step=h, t_max=t_eff,
                            tail_bound=math.exp(-(r - growth) * t_eff))


# -- first-order conditions ------------------------------------------------------


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
    if not y > 0:
        raise DomainError(f"initial capacity must be > 0, got {y!r}")
    rules = tuple(rules)
    if not rules:
        raise DomainError("need at least one stopping rule")
    _certified_growth(p, model, r)
    h, t_eff, n_steps = _resolve_grid(r, step, t_max)
    n_rules = len(rules)
    fixed_idx = np.array([int(round(rule.at / h)) if rule.kind == "fixed" else -1
                          for rule in rules])
    if (fixed_idx > n_steps).any():
        raise DomainError("fixed stopping times must lie within the truncation horizon")
    disc = np.exp(-r * h * np.arange(n_steps + 1))

    pi_c0 = float(np.asarray(marginal_profit(p, math.exp(x), y), dtype=float))

    def chunk(lo: int, hi: int, sub: np.random.Generator):
        m = hi - lo
        x_new = np.zeros(m)
        w_run = np.full(m, x)
        f_prev = np.full(m, disc[0] * pi_c0)
        p_prev = np.zeros(m)          # plain left sum of h * f before current index
        c_cur = np.full(m, float(y))
        total_f = np.zeros(m)          # running plain sum of h * f
        slack_a = np.zeros(m)          # sum (P_j + h/2 f_j) dC_j
        slack_pv = np.zeros(m)         # sum disc_j dC_j
        dc_tot = np.zeros(m)
        hit = np.zeros((n_rules, m), dtype=bool)
        p_rec = np.zeros((n_rules, m))
        f_rec = np.zeros((n_rules, m))
        d_rec = np.zeros((n_rules, m))

        def record_stops(step_idx: int, p_now, f_now) -> None:
            # paths whose rule first triggers at this grid index, where the
            # shock is x_new and the suffix sums stand at p_now, f_now
            for rk, rule in enumerate(rules):
                if rule.kind == "fixed":
                    stops = fixed_idx[rk] == step_idx
                elif rule.kind == "hit_above":
                    stops = x_new >= rule.at
                else:
                    stops = x_new <= rule.at
                newly = ~hit[rk] & stops
                if newly.any():
                    p_rec[rk][newly] = p_now[newly]
                    f_rec[rk][newly] = f_now[newly]
                    d_rec[rk][newly] = disc[step_idx]
                    hit[rk][newly] = True

        record_stops(0, p_prev, f_prev)  # index 0: X = 0, C = y
        for step_idx in range(1, n_steps + 1):
            x_new, step_max = _increment(model, x_new, h, sub)
            np.maximum(w_run, x + step_max, out=w_run)
            z = np.exp(x + x_new)
            c_new = np.maximum(y, np.asarray(b(w_run), dtype=float))
            f_new = disc[step_idx] * np.asarray(marginal_profit(p, z, c_new), dtype=float)
            p_new = p_prev + h * f_prev
            total_f += h * f_prev
            dc = c_new - c_cur
            slack_a += (p_prev + 0.5 * h * f_prev) * dc
            slack_pv += disc[step_idx - 1] * dc
            dc_tot += dc
            record_stops(step_idx, p_new, f_new)
            f_prev, p_prev, c_cur = f_new, p_new, c_new
        total_f += h * f_prev  # last index
        f_last = f_prev

        # suffix trapezoid from index j: T_j = total - P_j - h/2 (f_j + f_last)
        slack1 = total_f * dc_tot - slack_a - 0.5 * h * f_last * dc_tot
        t_tau = total_f - p_rec - 0.5 * h * (f_rec + f_last)
        supergrad = np.where(hit, t_tau - d_rec, 0.0)
        return slack1 - slack_pv, supergrad, hit, float(w_run.max())

    slack_parts, sg_parts, hit_parts, w_max = zip(*_run_engine(n_paths, rng, workers, chunk))
    _warn_if_extrapolated(b, x, max(w_max))
    slackness = np.concatenate(slack_parts)
    supergrad = np.concatenate(sg_parts, axis=1)
    hit_all = np.concatenate(hit_parts, axis=1)
    root_n = math.sqrt(n_paths)
    entries = tuple(
        FOCEntry(rule=rule,
                 supergradient=float(supergrad[rk].mean()),
                 se=float(supergrad[rk].std(ddof=1) / root_n),
                 hit_fraction=float(hit_all[rk].mean()))
        for rk, rule in enumerate(rules))
    return FOCReport(entries=entries,
                     slackness=float(slackness.mean()),
                     slackness_se=float(slackness.std(ddof=1) / root_n),
                     n_paths=n_paths, step=h, t_max=t_eff)


# -- stopping value ----------------------------------------------------------------


def stopping_value(p: ProfitFunction, model: LevyModel, r: float, b, x: float,
                   y: float, n_paths: int, rng: np.random.Generator, *,
                   step: float | None = None, t_max: float | None = None,
                   workers: int = 1) -> tuple[float, float]:
    """Value of stopping at the first grid time where b(x + X) reaches y.

    Estimates E[ integral_0^tau e^{-rs} pi_c(e^{x + X_s}, y) ds + e^{-r tau} ]
    with e^{-r tau} = 0 when tau never occurs before t_max.  Returns exactly
    (1.0, 0.0) when y <= b(x), where tau = 0.  Never exceeds 1 beyond noise.
    """
    if not y > 0:
        raise DomainError(f"initial capacity must be > 0, got {y!r}")
    h, t_eff, n_steps = _resolve_grid(r, step, t_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        b_at_start = float(np.asarray(b(x), dtype=float))
    if b_at_start >= y:
        return 1.0, 0.0
    disc = np.exp(-r * h * np.arange(n_steps + 1))
    pi_c0 = float(np.asarray(marginal_profit(p, math.exp(x), y), dtype=float))

    def chunk(lo: int, hi: int, sub: np.random.Generator):
        m = hi - lo
        x_new = np.zeros(m)
        x_lo = np.zeros(m)   # range of the shock, i.e. of b's arguments
        x_hi = np.zeros(m)
        v = np.zeros(m)
        active = np.ones(m, dtype=bool)
        g_prev = np.full(m, disc[0] * pi_c0)
        for step_idx in range(1, n_steps + 1):
            x_new, _ = _increment(model, x_new, h, sub)
            np.minimum(x_lo, x_new, out=x_lo)
            np.maximum(x_hi, x_new, out=x_hi)
            z = np.exp(x + x_new)
            g_new = disc[step_idx] * np.asarray(marginal_profit(p, z, y), dtype=float)
            v[active] += 0.5 * h * (g_prev + g_new)[active]
            newly = active & (np.asarray(b(x + x_new), dtype=float) >= y)
            v[newly] += disc[step_idx]
            active &= ~newly
            g_prev = g_new
        return v, x + float(x_lo.min()), x + float(x_hi.max())

    parts, arg_lo, arg_hi = zip(*_run_engine(n_paths, rng, workers, chunk))
    _warn_if_extrapolated(b, min(arg_lo), max(arg_hi))
    values = np.concatenate(parts)
    return (float(values.mean()),
            float(values.std(ddof=1) / math.sqrt(n_paths)))
