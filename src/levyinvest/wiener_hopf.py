"""Wiener-Hopf factors of a Levy process at an independent exponential time.

Kill the process at T ~ Exp(r), independent of it, and write M and I for the
running maximum and minimum over [0, T].  The factorization identity

    E[exp(M)] * E[exp(I)] = r / (r - psi(1)),    psi(1) = log E[exp(X_1)] < r,

holds with M independent of X_T - M, the latter distributed like I.  With
exponential jump components (`_exponential_jumps`: brownian_drift and kou)
both factors are rational: M and -I are finite mixtures of exponentials
whose rates are the positive respectively (sign-flipped) negative roots of
psi(lam) = r, psi continued across its poles, and whose weights follow from
one product formula (Lewis & Mordecki, J. Appl. Prob. 2008).  Each root is
bracketed between adjacent poles (or beyond the outermost one) and solved
on psi - r itself, with no polynomial and no eigenvalue routine.  Everything
else falls back to Monte Carlo over (X_T, M) draws, I read as X_T - M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DomainError, UnsupportedModel
from .levy import (ExtremaPool, Family, LevyModel, _check_replicates, _mean_se, _psi,
                   laplace_exponent, sample_extrema)
from .roots import bisect

__all__ = [
    "WienerHopfFactors",
    "cramer_roots",
    "exact_factors",
    "sample_triplet",
    "inf_moment",
    "inf_moment_with_se",
    "sup_moment_diagnostics",
    "wh_identity_residual",
]

_LOG_DBL_MAX = math.log(np.finfo(float).max)
_MAX_DOUBLINGS = 1024  # 2.0 ** 1024 overflows


@dataclass(frozen=True, eq=False)
class WienerHopfFactors:
    """Distributional handles for (M, I) at an Exp(r) horizon.

    Exact factors store the exponential-mixture representations: the law of
    -I has density sum_k min_weights[k] * min_rates[k] * exp(-min_rates[k] * s)
    on s >= 0, and symmetrically for M with the max_* fields.  Monte Carlo
    factors store a pool of (terminal, max) samples instead; I is X_T - M.
    """

    model: LevyModel
    r: float
    min_rates: tuple[float, ...] | None = None
    min_weights: tuple[float, ...] | None = None
    max_rates: tuple[float, ...] | None = None
    max_weights: tuple[float, ...] | None = None
    pool: ExtremaPool | None = None

    @property
    def is_exact(self) -> bool:
        return self.pool is None

    @property
    def roots(self) -> tuple[float, ...]:
        """cramer_roots(model, r), rebuilt from the rates of exact factors."""
        return tuple(-x for x in reversed(self.min_rates)) + self.max_rates


def _exponential_jumps(model: LevyModel):
    """Upward and downward exponential jump components, ((p, rate), ...) each;
    UnsupportedModel for a family whose Laplace exponent is not rational."""
    if model.family is Family.BROWNIAN_DRIFT:
        return (), ()
    if model.family is Family.KOU:
        return ((model.p_up, model.eta_plus),), ((1.0 - model.p_up, model.eta_minus),)
    raise UnsupportedModel(f"no rational Wiener-Hopf factors for {model.family.value}")


def cramer_roots(model: LevyModel, r: float) -> tuple[float, ...]:
    """All real roots of psi(lam) = r, sorted ascending.

    m up and n down exponential jump components give m+1 positive and n+1
    negative roots, one between each pair of adjacent poles, 0 separating
    the signs, and one beyond each outermost pole.  Each root is bracketed
    in its own interval: the ends next to a pole are the neighbouring
    floats of that pole, on the interval's side, so psi is never evaluated
    at a pole, and each outer end starts 1 beyond the outermost pole and
    doubles its distance until psi - r > 0.  psi - r rises through every
    positive root and falls through every negative one, which orients the
    brackets; BracketFailure if a bracket's end values do not have those
    signs.  All brackets are solved in one roots.bisect call (Chandrupatla's
    method, which never leaves a bracket) to a relative width of 2**-52,
    about one ulp, starting from the end values checked here.
    """
    if not r > 0:
        raise DomainError(f"discount rate must be > 0, got {r!r}")
    up, down = _exponential_jumps(model)
    g = lambda lam: _psi(model, lam) - r
    poles = np.array(sorted([0.0, *(e for _, e in up), *(-e for _, e in down)]))
    outer = [_beyond(g, float(poles[0]), -1.0), _beyond(g, float(poles[-1]), 1.0)]
    left = np.array([outer[0], *np.nextafter(poles, math.inf)])
    right = np.array([*np.nextafter(poles, -math.inf), outer[1]])
    positive = left > 0.0
    lo, hi = np.where(positive, right, left), np.where(positive, left, right)
    g_lo, g_hi = g(lo), g(hi)
    if not (np.all(g_lo > 0.0) and np.all(g_hi <= 0.0)):
        raise BracketFailure(f"psi - r does not change sign as expected on the brackets "
                             f"between the poles {poles.tolist()!r}")
    return tuple(float(x) for x in bisect(g, lo, hi, g_lo, g_hi, rel_tol=2.0 ** -52))


def _beyond(g, pole: float, step: float) -> float:
    """pole + step * 2**k for the first k >= 0 with g > 0 there; BracketFailure
    if there is none before step * 2**k overflows."""
    for k in range(_MAX_DOUBLINGS):
        x = pole + step * 2.0 ** k
        if g(x) > 0.0:
            return x
    raise BracketFailure(f"psi - r stays <= 0 beyond the pole at {pole!r}")


def _mixture_weights(rates, jumps) -> tuple[float, ...]:
    # weight of rate rho_k: prod_j (1 - rho_k/eta_j) / prod_{i != k} (1 - rho_k/rho_i)
    return tuple(math.prod(1.0 - rho / eta for _, eta in jumps)
                 / math.prod(1.0 - rho / other for i, other in enumerate(rates) if i != k)
                 for k, rho in enumerate(rates))


def exact_factors(model: LevyModel, r: float) -> WienerHopfFactors:
    """Exact rational Wiener-Hopf factors, rates ascending (which fixes the node
    order of boundary's Gauss-Laguerre rule); UnsupportedModel without them."""
    roots = cramer_roots(model, r)
    up, down = _exponential_jumps(model)
    min_rates = tuple(-x for x in reversed(roots) if x < 0)
    max_rates = tuple(x for x in roots if x > 0)
    return WienerHopfFactors(
        model=model, r=r,
        min_rates=min_rates, min_weights=_mixture_weights(min_rates, down),
        max_rates=max_rates, max_weights=_mixture_weights(max_rates, up),
    )


def sample_triplet(model: LevyModel, r: float, n: int, rng: np.random.Generator,
                   *, workers: int = 1) -> WienerHopfFactors:
    """Monte Carlo factors from n fresh (terminal, max) draws.

    Each replicate uses its own exponential horizon, with no time grid, and
    I = X_T - M is exact in law and independent of M (levy.sample_extrema).
    DomainError, before any draw, below levy's minimum replicate count.
    """
    _check_replicates(n)
    pool = sample_extrema(model, r, n, rng, workers=workers)
    return WienerHopfFactors(model=model, r=r, pool=pool)


def _moment(factors: WienerHopfFactors, lam: float, sup: bool,
            out: np.ndarray | None = None) -> tuple[float, float, np.ndarray | None]:
    """E[exp(lam * M)] (sup) or E[exp(lam * I)], its standard error and the
    per-draw terms exp(lam * extremum) of the pool; exact factors sum their
    mixture (a rate rho contributes rho / (rho -+ lam)), SE 0.0, terms None.
    The pool terms are formed in one array, `out` when given (one row of
    len(pool) floats), I as X_T - M there, so that no other pool-sized array
    is held.  DomainError, before any exp, where pooled sup terms would overflow."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    if not sup and lam < 0:
        raise DomainError(f"inf_moment requires lambda >= 0, got {lam!r}")
    if not factors.is_exact:
        # M >= 0 >= I, so only sup terms at lam > 0 can overflow: in exp, or
        # in the SE's sum of n squared deviations, each below exp(2 lam max M)
        if sup and (2.0 * lam * float(factors.pool.running_max.max())
                    >= _LOG_DBL_MAX - math.log(len(factors.pool))):
            raise DomainError(f"sup moment terms overflow at lambda={lam!r}: "
                              "2 lambda max(M) + log n passes log(DBL_MAX)")
        pool = factors.pool
        if sup:
            terms = np.multiply(pool.running_max, lam, out=out)
        else:
            terms = np.subtract(pool.terminal, pool.running_max, out=out)
            terms *= lam
        np.exp(terms, out=terms)
        mean, se = _mean_se(terms)
        return float(mean), float(se), terms
    rates, weights = ((factors.max_rates, factors.max_weights) if sup
                      else (factors.min_rates, factors.min_weights))
    if sup and lam >= min(rates):
        raise DomainError(f"sup moment diverges for lambda >= {min(rates)!r}, got {lam!r}")
    total = 0.0
    for w, rho in zip(weights, rates):
        total += w * rho / (rho - lam if sup else rho + lam)
    return total, 0.0, None


def inf_moment(factors: WienerHopfFactors, lam: float) -> float:
    """E[exp(lam * I)] for lam >= 0 (always finite since I <= 0)."""
    return _moment(factors, lam, sup=False)[0]


def inf_moment_with_se(factors: WienerHopfFactors, lam: float) -> tuple[float, float]:
    """E[exp(lam * I)] and its standard error (0 in exact mode)."""
    return _moment(factors, lam, sup=False)[:2]


def sup_moment_diagnostics(factors: WienerHopfFactors, lam: float) -> dict:
    """E[exp(lam * M)] as "estimate" with its "se", and "max_term_share": the
    largest single draw's share of the estimator sum, where values near 1 mean
    one draw dominates, the telltale of a diverging (or barely finite) moment.
    Exact factors give se 0.0 and max_term_share None, and DomainError where the
    moment diverges (lam at or above the smallest positive root of psi = r)."""
    mean, se, terms = _moment(factors, lam, sup=True)
    share = None
    if terms is not None:
        total = float(terms.sum())
        share = float(terms.max() / total) if total > 0 else float("nan")
    return {"estimate": mean, "se": se, "max_term_share": share}


def _identity_target(model: LevyModel, r: float) -> float:
    """r / (r - psi(1)); DomainError if psi(1) does not exist or r <= psi(1)."""
    psi1 = laplace_exponent(model, 1.0)
    if r <= psi1:
        raise DomainError(
            f"identity needs r > psi(1); got r={r!r}, psi(1)={psi1!r}"
        )
    return r / (r - psi1)


def wh_identity_residual(factors: WienerHopfFactors) -> tuple[float, float]:
    """Monte Carlo check of E[e^M] * E[e^I] = r / (r - psi(1)) on the factors' pool.

    Forms the product of the two sample means that sup_moment_diagnostics and
    inf_moment_with_se report at lam = 1, and returns (product - target,
    propagated standard error).  M and I = X_T - M are independent, so the
    covariance of the two means is zero in law; the propagation still keeps
    its sample value, since both means come from the same replicates.  The
    sup and inf terms fill the two rows of one (2, n) block, and their
    covariance is formed in that block with np.cov's arithmetic (ddof 1).
    DomainError if psi(1) does not exist or r <= psi(1); UnsupportedModel on
    exact factors.
    """
    if factors.is_exact:
        raise UnsupportedModel("the identity residual applies to Monte Carlo factors only")
    target = _identity_target(factors.model, factors.r)
    n = len(factors.pool)
    t = np.empty((2, n))
    mean_a = _moment(factors, 1.0, sup=True, out=t[0])[0]
    mean_b = _moment(factors, 1.0, sup=False, out=t[1])[0]
    t -= t.mean(axis=1)[:, None]
    cov = np.dot(t, t.T)
    cov *= 1.0 / (n - 1)
    var_prod = (mean_b ** 2 * cov[0, 0] + mean_a ** 2 * cov[1, 1]
                + 2.0 * mean_a * mean_b * cov[0, 1])
    se = math.sqrt(max(var_prod, 0.0) / n)
    return mean_a * mean_b - target, se
