"""Operating profit functions pi(z, c) of demand shock z and capacity c.

Kinds:

  cobb_douglas  pi = z**alpha * c**beta                     (kappa = 0)
  ces           pi = (alpha*z**g + (1-alpha)*c**g)**(1/g)   (kappa = (1-alpha)**(1/g))
  log           pi = z * log(c)                             (kappa = 0)

With alpha, beta and g in (0, 1), which construction enforces, all satisfy:
pi increasing in z, increasing and strictly concave in c, marginal profit
pi_c decreasing in c from +inf (as c -> 0) down to kappa (as c -> inf).
kappa is the floor of the marginal value of capacity; a finite investment
boundary exists only when the discount rate exceeds it.
`evaluate` and `marginal_profit` take lz = log z and lc = log c, on all of
the real plane; pi_c depends on alpha lz + (beta-1) lc or on lz - lc, so it
stays finite where z and c themselves overflow.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConditionViolation, ConstructionError, DomainError
from .levy import LevyModel, laplace_exponent

__all__ = [
    "ProfitFunction",
    "cobb_douglas",
    "ces",
    "log_profit",
    "evaluate",
    "marginal_profit",
    "kappa",
    "AssumptionCheck",
    "AssumptionReport",
    "check_assumptions",
]

# each kind's parameters and its marginal profit; every parameter ranges over
# (0, 1), outside which concavity or the ces floor (1-alpha)**(1/gamma) fails
_KINDS = {
    "cobb_douglas": (("alpha", "beta"), "beta * z**alpha * c**(beta-1)"),
    "ces": (("alpha", "gamma"),
            "(1-alpha) * (alpha * (z/c)**gamma + 1-alpha)**((1-gamma)/gamma)"),
    "log": ((), "z / c"),
}


@dataclass(frozen=True)
class ProfitFunction:
    """One operating-profit family instance.  Build via the module constructors.

    ConstructionError, naming the field, for an unknown kind or a parameter
    of the kind outside (0, 1).
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConstructionError("kind", f"unknown profit kind {self.kind!r}; "
                                            f"expected one of {', '.join(_KINDS)}")
        for name in _KINDS[self.kind][0]:
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConstructionError(name, f"{self.kind} needs {name} in (0, 1), "
                                              f"got {value!r}")


def cobb_douglas(alpha: float, beta: float) -> ProfitFunction:
    return ProfitFunction(kind="cobb_douglas", alpha=float(alpha), beta=float(beta))


def ces(alpha: float, gamma: float) -> ProfitFunction:
    return ProfitFunction(kind="ces", alpha=float(alpha), gamma=float(gamma))


def log_profit() -> ProfitFunction:
    return ProfitFunction(kind="log")


def evaluate(p: ProfitFunction, lz, lc):
    """pi(e^lz, e^lc); broadcasts over numpy arrays."""
    if p.kind == "cobb_douglas":
        return np.exp(p.alpha * lz + p.beta * lc)
    if p.kind == "ces":
        g = p.gamma
        return np.exp(lc) * (p.alpha * np.exp(g * (lz - lc)) + (1.0 - p.alpha)) ** (1.0 / g)
    return np.exp(lz) * lc


def marginal_profit(p: ProfitFunction, lz, lc):
    """d pi / d c at z = e^lz, c = e^lc; broadcasts over numpy arrays."""
    # one expression frees each pool-sized temporary once the next is made, so
    # at most two are alive: a third makes malloc trim and re-fault the heap
    # on every gap evaluation of the Monte Carlo boundary solver
    if p.kind == "cobb_douglas":
        return p.beta * np.exp(p.alpha * lz + (p.beta - 1.0) * lc)
    if p.kind == "ces":
        g = p.gamma
        return (1.0 - p.alpha) * (p.alpha * np.exp(g * (lz - lc)) + (1.0 - p.alpha)) \
            ** ((1.0 - g) / g)
    return np.exp(lz - lc)


def kappa(p: ProfitFunction) -> float:
    """Limit of the marginal profit as capacity grows without bound."""
    if p.kind == "ces":
        return (1.0 - p.alpha) ** (1.0 / p.gamma)
    return 0.0


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
    and log."""
    if p.kind == "cobb_douglas":
        return (p.alpha / (1.0 - p.beta), p.alpha + p.beta)
    return (1.0,)


def _certified_growth(p: ProfitFunction, model: LevyModel, r: float) -> float:
    """Exponential growth rate of pi(e^X, c) along the shock, certified below r.

    The rate is max(0, psi(lam)) over the `_growth_exponents` lam.
    ConditionViolation when a needed exponential moment does not exist
    (stable family, or a kou rate beyond its jump decay) or when the rate
    reaches r: discounted profit integrals then have no decaying tail bound.
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


# what each shape check claims of pi_c; the kind's formula and ranges prove it
_SHAPE_CLAIMS = (
    ("marginal_positive", "pi_c > 0 for all z, c > 0"),
    ("marginal_decreasing_in_capacity", "pi_c strictly decreasing in c"),
    ("marginal_monotone_in_shock", "pi_c nondecreasing in z"),
    ("profit_concave_in_capacity", "pi strictly concave in c (pi_c strictly decreasing)"),
    ("inada_at_zero", "pi_c -> inf as c -> 0"),
    ("inada_at_infinity", "pi_c -> kappa={kappa!r} as c -> inf"),
)


def _shape_checks(p: ProfitFunction) -> list[AssumptionCheck]:
    names, formula = _KINDS[p.kind]
    basis = f"pi_c = {formula}"
    if names:
        basis += f" with {', '.join(f'{n}={getattr(p, n)!r}' for n in names)} in (0, 1)"
    return [AssumptionCheck(name, True, "fail", f"{claim.format(kappa=kappa(p))}, since {basis}")
            for name, claim in _SHAPE_CLAIMS]


def check_assumptions(p: ProfitFunction, model: LevyModel, r: float,
                      rng: np.random.Generator | None = None) -> AssumptionReport:
    """Report on the standing assumptions for the (profit, model, r) triple.

    Two verdicts depend on the inputs: r strictly above the marginal floor
    kappa, and the growth certificate `_certified_growth`, which the
    `moment_condition` check reports as a hard failure and the
    `discounted_integrability` check repeats as a warning.  The positivity,
    monotonicity and concavity checks and the limits of the marginal at 0
    and infinity hold analytically for every kind in the ranges that
    construction enforces; their details state the formula.  No check is
    sampled, so `rng` is unused; it stays for callers that pass one.
    """
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
    try:
        worst = _certified_growth(p, model, r)
    except ConditionViolation as exc:
        certified, moment = False, str(exc)
        integrable = f"discounted profit integrals are not certified finite: {exc}"
    else:
        certified = True
        moment = f"r > max growth exponent holds: r={r!r} > {worst!r}"
        integrable = (f"discounted profit integrals are finite: profit grows at rate "
                      f"{worst!r} < r={r!r}")
    checks.append(AssumptionCheck("moment_condition", certified, "fail", moment))
    checks.extend(_shape_checks(p))
    checks.append(AssumptionCheck("discounted_integrability", certified, "warn", integrable))
    return AssumptionReport(checks=tuple(checks))
