"""Wiener-Hopf factors of a Levy process at an independent exponential time.

Kill the process at T ~ Exp(r), independent of it, and write M and I for the
running maximum and minimum over [0, T].  The factorization identity

    E[exp(M)] * E[exp(I)] = r / (r - psi(1)),    psi(1) = log E[exp(X_1)] < r,

holds with M independent of X_T - M, the latter distributed like I.  For the
brownian_drift and kou families both factors are rational: M and -I are
finite mixtures of exponentials whose rates are the positive respectively
(sign-flipped) negative roots of psi(lam) = r, where psi is continued as a
rational function across its poles in the kou case.  Everything else falls
back to Monte Carlo over exact extrema samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedModel
from .levy import (ExtremaPool, Family, LevyModel, _mean_se, _psi, laplace_exponent,
                   sample_extrema)
from .roots import bisect, expand_bracket_upward

__all__ = [
    "WienerHopfFactors",
    "cramer_roots",
    "exact_factors",
    "sample_triplet",
    "inf_moment",
    "inf_moment_with_se",
    "sup_moment_with_se",
    "sup_moment_diagnostics",
    "wh_identity_residual",
]

EXACT_RATIONAL = "exact_rational"
MONTE_CARLO = "monte_carlo"

# Bisection brackets stop this close (relatively) to a pole of the rational
# exponent; the roots themselves sit at O(1) distance for sane parameters.
_POLE_GAP = 1e-12


@dataclass(frozen=True, eq=False)
class WienerHopfFactors:
    """Distributional handles for (M, I) at an Exp(r) horizon.

    Exact mode stores the exponential-mixture representations: the law of -I
    has density sum_k min_weights[k] * min_rates[k] * exp(-min_rates[k] * s)
    on s >= 0, and symmetrically for M with the max_* fields.  Monte Carlo
    mode stores a pool of (terminal, max, min) samples instead.
    """

    model: LevyModel
    r: float
    mode: str
    roots: tuple[float, ...] | None = None
    min_rates: tuple[float, ...] | None = None
    min_weights: tuple[float, ...] | None = None
    max_rates: tuple[float, ...] | None = None
    max_weights: tuple[float, ...] | None = None
    pool: ExtremaPool | None = None

    @property
    def is_exact(self) -> bool:
        return self.mode == EXACT_RATIONAL


def cramer_roots(model: LevyModel, r: float) -> tuple[float, ...]:
    """All real roots of psi(lam) = r, sorted ascending.

    brownian_drift: two roots (one negative, one positive), in closed form.
    kou: four roots of the rational continuation, one in each of
    (-inf, -eta_minus), (-eta_minus, 0), (0, eta_plus), (eta_plus, inf),
    found by bisection between the poles.  Other families: UnsupportedModel.
    """
    if not r > 0:
        raise DomainError(f"discount rate must be > 0, got {r!r}")
    fam = model.family
    if fam is Family.BROWNIAN_DRIFT:
        sig2 = model.sigma ** 2
        disc = math.sqrt(model.mu ** 2 + 2.0 * sig2 * r)
        return ((-model.mu - disc) / sig2, (-model.mu + disc) / sig2)
    if fam is Family.KOU:
        g = lambda lam: _psi(model, lam) - r
        ep, em = model.eta_plus, model.eta_minus
        # one root strictly between each pair of adjacent poles of g, plus one
        # beyond each outer pole where the sigma^2 term takes over
        beta1 = bisect(g, 0.0, ep * (1.0 - _POLE_GAP))
        a = ep * (1.0 + _POLE_GAP)
        beta2 = bisect(g, *expand_bracket_upward(g, a, max(1.0, ep)))
        theta1 = -bisect(g, -em * (1.0 - _POLE_GAP), 0.0)
        h = lambda t: g(-t)
        b = em * (1.0 + _POLE_GAP)
        theta2 = bisect(h, *expand_bracket_upward(h, b, max(1.0, em)))
        return (-theta2, -theta1, beta1, beta2)
    raise UnsupportedModel(f"cramer_roots is only available for brownian_drift and kou, "
                           f"not {fam.value}")


def exact_factors(model: LevyModel, r: float) -> WienerHopfFactors:
    """Exact rational Wiener-Hopf factors (brownian_drift and kou only)."""
    roots = cramer_roots(model, r)
    if model.family is Family.BROWNIAN_DRIFT:
        b_minus = -roots[0]
        b_plus = roots[1]
        return WienerHopfFactors(
            model=model, r=r, mode=EXACT_RATIONAL, roots=roots,
            min_rates=(b_minus,), min_weights=(1.0,),
            max_rates=(b_plus,), max_weights=(1.0,),
        )
    # kou: -I and M are two-term exponential mixtures; the weights follow
    # from partial fractions of the rational factors, e.g.
    #   E[e^{lam I}] = (t1*t2/em) * (em+lam) / ((t1+lam)(t2+lam))
    t2, t1 = -roots[0], -roots[1]
    b1, b2 = roots[2], roots[3]
    em, ep = model.eta_minus, model.eta_plus
    min_w1 = t2 * (em - t1) / (em * (t2 - t1))
    min_w2 = t1 * (t2 - em) / (em * (t2 - t1))
    max_w1 = b2 * (ep - b1) / (ep * (b2 - b1))
    max_w2 = b1 * (b2 - ep) / (ep * (b2 - b1))
    return WienerHopfFactors(
        model=model, r=r, mode=EXACT_RATIONAL, roots=roots,
        min_rates=(t1, t2), min_weights=(min_w1, min_w2),
        max_rates=(b1, b2), max_weights=(max_w1, max_w2),
    )


def sample_triplet(model: LevyModel, r: float, n: int, rng: np.random.Generator,
                   *, step: float | None = None, workers: int = 1) -> WienerHopfFactors:
    """Monte Carlo factors from n fresh (terminal, max, min) draws.

    Each replicate uses its own exponential horizon.  The diffusive families
    are sampled exactly in law; symmetric_stable uses a grid of spacing
    `step` for its extrema (see levy.sample_extrema).
    """
    pool = sample_extrema(model, r, n, rng, step=step, workers=workers)
    return WienerHopfFactors(model=model, r=r, mode=MONTE_CARLO, pool=pool)


def _mixture_moment(weights, rates, lam: float, sign: int) -> float:
    # E[e^{lam * sign * S}] for S ~ mixture of exponentials with the given
    # rates: each term contributes rho / (rho - sign * lam).  sign=-1 for I
    # (I = -S, always finite at lam >= 0), sign=+1 for M.
    total = 0.0
    for w, rho in zip(weights, rates):
        total += w * rho / (rho - sign * lam)
    return total


def inf_moment(factors: WienerHopfFactors, lam: float) -> float:
    """E[exp(lam * I)] for lam >= 0 (always finite since I <= 0)."""
    return inf_moment_with_se(factors, lam)[0]


def inf_moment_with_se(factors: WienerHopfFactors, lam: float) -> tuple[float, float]:
    """E[exp(lam * I)] and its standard error (0 in exact mode)."""
    lam = float(lam)
    if lam < 0:
        raise DomainError(f"inf_moment requires lambda >= 0, got {lam!r}")
    if factors.is_exact:
        return _mixture_moment(factors.min_weights, factors.min_rates, lam, sign=-1), 0.0
    mean, se = _mean_se(np.exp(lam * factors.pool.running_min))
    return float(mean), float(se)


def sup_moment_with_se(factors: WienerHopfFactors, lam: float) -> tuple[float, float]:
    """E[exp(lam * M)] and its standard error (0 in exact mode).

    Exact mode requires lam below the smallest positive root of psi = r
    (the moment diverges there); Monte Carlo mode evaluates any lam but the
    estimate may be heavy-tailed - see sup_moment_diagnostics.
    """
    lam = float(lam)
    if factors.is_exact:
        smallest = min(factors.max_rates)
        if lam >= smallest:
            raise DomainError(
                f"sup moment diverges for lambda >= {smallest!r}, got {lam!r}"
            )
        return _mixture_moment(factors.max_weights, factors.max_rates, lam, sign=+1), 0.0
    mean, se = _mean_se(np.exp(lam * factors.pool.running_max))
    return float(mean), float(se)


def sup_moment_diagnostics(factors: WienerHopfFactors, lam: float) -> dict:
    """Stability diagnostics for the Monte Carlo sup-moment estimator.

    `max_term_share` is the largest single sample's share of the estimator
    sum; values near 1 mean the estimate is dominated by one draw, the
    telltale of a diverging (or barely finite) moment.
    """
    if factors.is_exact:
        raise UnsupportedModel("diagnostics apply to Monte Carlo factors only")
    terms = np.exp(float(lam) * factors.pool.running_max)
    total = float(terms.sum())
    mean, se = _mean_se(terms)
    return {
        "estimate": float(mean),
        "se": float(se),
        "max_term_share": float(terms.max() / total) if total > 0 else float("nan"),
        "n": int(len(terms)),
    }


def _identity_target(model: LevyModel, r: float) -> float:
    """r / (r - psi(1)); DomainError if psi(1) does not exist or r <= psi(1)."""
    psi1 = laplace_exponent(model, 1.0)
    if r <= psi1:
        raise DomainError(
            f"identity needs r > psi(1); got r={r!r}, psi(1)={psi1!r}"
        )
    return r / (r - psi1)


def wh_identity_residual(model: LevyModel, r: float, n: int, rng: np.random.Generator,
                         *, workers: int = 1) -> tuple[float, float]:
    """Monte Carlo check of E[e^M] * E[e^I] = r / (r - psi(1)).

    Draws n extrema samples, forms the product of the two sample means, and
    returns (product - target, propagated standard error).  The propagation
    keeps the covariance between the two means since both come from the same
    replicates; that covariance inherits the pool's approximate joint law of
    (M, I), whose per-segment bridge maximum and minimum are drawn
    independently (see levy.sample_extrema).  DomainError if psi(1) does not
    exist or r <= psi(1).  The result does not depend on `workers`.
    """
    target = _identity_target(model, r)
    pool = sample_extrema(model, r, n, rng, workers=workers)
    a = np.exp(pool.running_max)
    b = np.exp(pool.running_min)
    mean_a = float(a.mean())
    mean_b = float(b.mean())
    cov = np.cov(a, b, ddof=1)
    var_prod = (mean_b ** 2 * cov[0, 0] + mean_a ** 2 * cov[1, 1]
                + 2.0 * mean_a * mean_b * cov[0, 1])
    se = math.sqrt(max(var_prod, 0.0) / n)
    return mean_a * mean_b - target, se
