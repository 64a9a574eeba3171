"""Operating profit functions pi(z, c) of demand shock z and capacity c.

Built-ins:

  cobb_douglas  pi = z**alpha * c**beta                     (kappa = 0)
  ces           pi = (alpha*z**g + (1-alpha)*c**g)**(1/g)   (kappa = (1-alpha)**(1/g))
  log           pi = z * log(c)                             (kappa = 0)

All satisfy: pi increasing in z, increasing and strictly concave in c,
marginal profit pi_c decreasing in c from +inf (as c -> 0) down to kappa
(as c -> inf).  kappa is the floor of the marginal value of capacity; a
finite investment boundary exists only when the discount rate exceeds it.

`custom` wraps user callables (which must broadcast over numpy arrays);
the marginal falls back to a central finite difference when not supplied.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConditionViolation, ConstructionError, DomainError
from .levy import LevyModel, _increment, laplace_exponent

__all__ = [
    "ProfitFunction",
    "cobb_douglas",
    "ces",
    "log_profit",
    "custom",
    "evaluate",
    "marginal_profit",
    "kappa",
    "AssumptionCheck",
    "AssumptionReport",
    "check_assumptions",
]

_FD_REL_STEP = 1e-6


@dataclass(frozen=True)
class ProfitFunction:
    """One operating-profit family instance.  Build via the module constructors."""

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    custom_eval: Callable | None = field(default=None, repr=False, compare=False)
    custom_marginal: Callable | None = field(default=None, repr=False, compare=False)
    custom_kappa: float = 0.0


def cobb_douglas(alpha: float, beta: float) -> ProfitFunction:
    if not 0.0 < alpha < 1.0:
        raise ConstructionError("alpha", f"cobb_douglas needs alpha in (0, 1), got {alpha!r}")
    if not 0.0 < beta < 1.0:
        raise ConstructionError("beta", f"cobb_douglas needs beta in (0, 1), got {beta!r}")
    return ProfitFunction(kind="cobb_douglas", alpha=float(alpha), beta=float(beta))


def ces(alpha: float, gamma: float) -> ProfitFunction:
    if not 0.0 < alpha < 1.0:
        raise ConstructionError("alpha", f"ces needs alpha in (0, 1), got {alpha!r}")
    if not 0.0 < gamma < 1.0:
        raise ConstructionError(
            "gamma", f"ces needs gamma in (0, 1) (the marginal floor (1-alpha)**(1/gamma) "
            f"is undefined or the concavity fails otherwise), got {gamma!r}"
        )
    return ProfitFunction(kind="ces", alpha=float(alpha), gamma=float(gamma))


def log_profit() -> ProfitFunction:
    return ProfitFunction(kind="log")


def custom(eval_fn: Callable, marginal_fn: Callable | None = None,
           kappa_value: float = 0.0) -> ProfitFunction:
    if not callable(eval_fn):
        raise ConstructionError("eval_fn", "custom profit needs a callable eval_fn(z, c)")
    if not (math.isfinite(kappa_value) and kappa_value >= 0.0):
        raise ConstructionError("kappa_value",
                                f"kappa_value must be finite and >= 0, got {kappa_value!r}")
    return ProfitFunction(kind="custom", custom_eval=eval_fn,
                          custom_marginal=marginal_fn, custom_kappa=float(kappa_value))


def _check_positive(name, v) -> None:
    if np.any(np.asarray(v) <= 0.0):
        raise DomainError(f"{name} must be strictly positive")


def evaluate(p: ProfitFunction, z, c):
    """pi(z, c); broadcasts over numpy arrays.  z and c must be > 0."""
    _check_positive("z", z)
    _check_positive("c", c)
    if p.kind == "cobb_douglas":
        return z ** p.alpha * c ** p.beta
    if p.kind == "ces":
        g = p.gamma
        return (p.alpha * z ** g + (1.0 - p.alpha) * c ** g) ** (1.0 / g)
    if p.kind == "log":
        return z * np.log(c)
    return p.custom_eval(z, c)


def marginal_profit(p: ProfitFunction, z, c):
    """d pi / d c at (z, c); broadcasts over numpy arrays.

    Custom profits without a supplied marginal use a central finite
    difference with relative step 1e-6.
    """
    _check_positive("z", z)
    _check_positive("c", c)
    # the in-place steps keep to two pool-sized temporaries per call: a
    # third one makes malloc trim and re-fault the heap on every gap
    # evaluation of the Monte Carlo boundary solver
    if p.kind == "cobb_douglas":
        t = z ** p.alpha
        t *= p.beta
        return t * c ** (p.beta - 1.0)
    if p.kind == "ces":
        g = p.gamma
        t = z ** g
        t *= p.alpha
        inner = t + (1.0 - p.alpha) * c ** g
        del t
        inner **= (1.0 - g) / g
        inner *= (1.0 - p.alpha) * c ** (g - 1.0)
        return inner
    if p.kind == "log":
        return z / c
    if p.custom_marginal is not None:
        return p.custom_marginal(z, c)
    h = _FD_REL_STEP
    return (p.custom_eval(z, c * (1.0 + h)) - p.custom_eval(z, c * (1.0 - h))) / (2.0 * h * c)


def kappa(p: ProfitFunction) -> float:
    """Limit of the marginal profit as capacity grows without bound."""
    if p.kind == "cobb_douglas" or p.kind == "log":
        return 0.0
    if p.kind == "ces":
        return (1.0 - p.alpha) ** (1.0 / p.gamma)
    return p.custom_kappa


# -- assumption checking ------------------------------------------------------


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    ok: bool
    severity: str  # "fail" blocks, "warn" is advisory
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks if c.severity == "fail")

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


def _growth_exponents(p: ProfitFunction) -> tuple[float, ...]:
    """The shock exponents lam whose psi(lam) bounds the growth of the policy
    integrands: alpha/(1-beta) and alpha+beta for cobb_douglas, 1 for ces
    and log.  ConditionViolation for a custom profit, which has no closed form."""
    if p.kind == "cobb_douglas":
        return (p.alpha / (1.0 - p.beta), p.alpha + p.beta)
    if p.kind in ("ces", "log"):
        return (1.0,)
    raise ConditionViolation(
        "custom profit has no closed-form growth certificate; the truncation "
        "tail bound cannot be certified")


def _certified_growth(p: ProfitFunction, model: LevyModel, r: float) -> float:
    """Exponential growth rate of pi(e^X, c) along the shock, certified below r.

    The rate is max(0, psi(lam)) over the `_growth_exponents` lam.
    ConditionViolation when a needed exponential moment does not exist
    (stable family, or a kou rate beyond its jump decay), for a custom
    profit, which has no closed form, or when the rate reaches r: discounted
    profit integrals then have no decaying tail bound.
    """
    exponents = _growth_exponents(p)
    try:
        worst = max(0.0, *(laplace_exponent(model, lam) for lam in exponents))
    except DomainError as exc:
        raise ConditionViolation(f"tail bound cannot be certified: {exc}") from exc
    if worst >= r:
        raise ConditionViolation(
            f"tail bound cannot be certified: growth exponent {worst!r} >= r={r!r}")
    return worst


def _certified_variance(p: ProfitFunction, model: LevyModel, r: float) -> bool:
    """Whether psi(2 lam) < r for every growth exponent lam.

    Then e^{2 lam M} and e^{2 lam X_T} are integrable at an Exp(r) horizon,
    so the exponential-time policy estimator has a finite variance.  An
    exponent beyond the model's exponential moments (kou 2 lam >= eta_plus)
    is not certified.
    """
    try:
        return all(laplace_exponent(model, 2.0 * lam) < r for lam in _growth_exponents(p))
    except DomainError:
        return False


def _moment_condition(p: ProfitFunction, model: LevyModel, r: float) -> AssumptionCheck:
    """The verdict of _certified_growth; a custom profit only warns."""
    name = "moment_condition"
    if p.kind == "custom":
        return AssumptionCheck(name, True, "warn",
                               "custom profit: no closed-form moment condition; verify "
                               "discounted integrability externally")
    try:
        worst = _certified_growth(p, model, r)
    except ConditionViolation as exc:
        return AssumptionCheck(name, False, "fail", str(exc))
    return AssumptionCheck(name, True, "fail",
                           f"r > max growth exponent holds: r={r!r} > {worst!r}")


def _sampled_shape_checks(p: ProfitFunction, rng: np.random.Generator) -> list[AssumptionCheck]:
    # log-spaced random probes; the 1.5x capacity bumps test monotonicity
    # of the marginal and midpoint concavity of pi in c
    z = np.exp(rng.uniform(-3.0, 3.0, size=100))
    c = np.exp(rng.uniform(-3.0, 3.0, size=100))
    c_hi = 1.5 * c
    mp = np.asarray(marginal_profit(p, z, c), dtype=float)
    mp_hi = np.asarray(marginal_profit(p, z, c_hi), dtype=float)
    mp_zhi = np.asarray(marginal_profit(p, 1.5 * z, c), dtype=float)
    v_lo = np.asarray(evaluate(p, z, c), dtype=float)
    v_hi = np.asarray(evaluate(p, z, c_hi), dtype=float)
    v_mid = np.asarray(evaluate(p, z, 0.5 * (c + c_hi)), dtype=float)
    tol = 1e-9
    checks = [
        AssumptionCheck("marginal_positive", bool(np.all(mp > 0.0)), "fail",
                        "pi_c > 0 at 100 sampled (z, c) points"),
        AssumptionCheck("marginal_decreasing_in_capacity",
                        bool(np.all(mp_hi < mp * (1.0 + tol))), "fail",
                        "pi_c falls when capacity rises 1.5x at 100 sampled points"),
        AssumptionCheck("marginal_monotone_in_shock",
                        bool(np.all(mp_zhi >= mp * (1.0 - tol))), "fail",
                        "pi_c does not fall when the shock rises 1.5x"),
        AssumptionCheck("profit_concave_in_capacity",
                        bool(np.all(v_mid >= 0.5 * (v_lo + v_hi) - tol * np.abs(v_mid))),
                        "fail", "midpoint concavity of pi in c at 100 sampled points"),
    ]
    return checks


def _inada_checks(p: ProfitFunction) -> list[AssumptionCheck]:
    k = kappa(p)
    z_probe = np.array([0.5, 1.0, 2.0])
    small = np.asarray(marginal_profit(p, z_probe, np.full(3, 1e-10)), dtype=float)
    large = np.asarray(marginal_profit(p, z_probe, np.full(3, 1e10)), dtype=float)
    near_floor = bool(np.all(np.abs(large - k) <= 1e-3 * (1.0 + k)))
    blows_up = bool(np.all(small > 1e3))
    return [
        AssumptionCheck("inada_at_zero", blows_up, "fail",
                        "pi_c(z, c) grows without bound as c -> 0"),
        AssumptionCheck("inada_at_infinity", near_floor, "fail",
                        f"pi_c(z, c) approaches kappa={k!r} as c -> inf"),
    ]


def _integrability_spot_check(p: ProfitFunction, model: LevyModel, r: float,
                              rng: np.random.Generator) -> AssumptionCheck:
    """Short Monte Carlo probe of the discounted profit integral (warn only)."""
    name = "discounted_integrability"
    n, t_max = 256, 5.0 / r
    steps = 200
    h = t_max / steps
    x = np.zeros(n)
    total = np.zeros(n)
    tail = np.zeros(n)
    for j in range(1, steps + 1):
        x, _ = _increment(model, x, h, rng)
        term = math.exp(-r * j * h) * np.asarray(evaluate(p, np.exp(x), 1.0), dtype=float) * h
        total += term
        if j > steps * 3 // 4:
            tail += np.abs(term)
    mean_total = float(np.mean(total))
    if not np.all(np.isfinite(total)):
        ok = False
        detail = "discounted profit integral produced non-finite values"
    else:
        share = float(np.mean(tail) / max(np.mean(np.abs(total)), 1e-300))
        ok = share < 0.5
        detail = (f"mean discounted profit over [0, {t_max!r}] = {mean_total!r}; "
                  f"last-quarter share {share!r}")
    return AssumptionCheck(name, ok, "warn", detail)


def check_assumptions(p: ProfitFunction, model: LevyModel, r: float,
                      rng: np.random.Generator | None = None) -> AssumptionReport:
    """Report on the standing assumptions for the (profit, model, r) triple.

    Hard checks: r strictly above the marginal floor kappa, the exponential
    moment condition for the family/profit pair, sampled monotonicity and
    concavity of pi, and the limiting behavior of the marginal at 0 and
    infinity.  The Monte Carlo integrability probe only warns.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not r > 0:
        raise DomainError(f"discount rate must be > 0, got {r!r}")
    k = kappa(p)
    checks = []
    if r > k:
        checks.append(AssumptionCheck("r_exceeds_kappa", True, "fail",
                                      f"r > kappa holds: r={r!r} > kappa={k!r}"))
    else:
        checks.append(AssumptionCheck(
            "r_exceeds_kappa", False, "fail",
            f"r > kappa violated: r={r!r} <= kappa={k!r}; the marginal profit never "
            f"falls below the discount rate, so investing is worthwhile at every "
            f"capacity and no finite boundary exists"))
    checks.append(_moment_condition(p, model, r))
    checks.extend(_sampled_shape_checks(p, rng))
    checks.extend(_inada_checks(p))
    checks.append(_integrability_spot_check(p, model, r, rng))
    return AssumptionReport(checks=tuple(checks))
