"""Levy demand-shock models and the one simulator every estimator shares.

Four families are supported, all with stationary independent increments:

  brownian_drift    X_t = mu*t + sigma*W_t
  merton            adds compound-Poisson jumps with Gaussian sizes
  kou               adds compound-Poisson jumps with two-sided exponential
                    sizes: +Exp(eta_plus) w.p. p_up, -Exp(eta_minus) otherwise
  symmetric_stable  X_t = mu*t + scale * (symmetric alpha-stable), 1 < alpha < 2

The Laplace exponent psi(lam) = log E[exp(lam * X_1)] is closed-form where
the exponential moment exists.  Every simulation in the package advances
paths with `_increment`: the Gaussian part is exact per step, the step's
maximum comes from the Brownian-bridge law given its endpoints,
compound-Poisson jumps land at the step's right end, and the stable family
is drawn by Chambers-Mallows-Stuck, evaluated with tangents, logs and one
exp in place of sin, cos and powers (see `_increment`).  `sample_extrema`
steps the diffusive families from one exact jump arrival to the next and
draws the stable family by stick-breaking, so its terminal value and
running maximum at an independent exponential horizon carry no
discretization bias.
Replicates run in fixed chunks through `_run_chunks` and are reduced to a
mean and standard error by `_mean_se`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ConstructionError, DomainError

__all__ = [
    "Family",
    "LevyModel",
    "ExtremaPool",
    "laplace_exponent",
    "sample_extrema",
]

# Paths are simulated in chunks of this many replicates.  Each chunk draws
# from its own spawned child generator, so results are identical no matter
# how chunks are scheduled across workers.
_CHUNK = 16384
# fewest replicates a Monte Carlo estimate runs on: config's mc.n_paths and
# `_check_replicates` enforce it
_MIN_REPLICATES = 1_000

_STICKS = 40  # uniform sticks per stable horizon (see _stick_extrema)


class Family(str, Enum):
    BROWNIAN_DRIFT = "brownian_drift"
    MERTON = "merton"
    KOU = "kou"
    STABLE = "symmetric_stable"


def _require(ok: bool, name: str, value: float, rule: str) -> None:
    if not ok:
        raise ConstructionError(name, f"{name} must {rule}, got {value!r}")


# each family's parameters besides `mu`; every other field must be 0
_PARAMETERS = {
    Family.BROWNIAN_DRIFT: ("sigma",),
    Family.MERTON: ("sigma", "jump_intensity", "jump_mean", "jump_sd"),
    Family.KOU: ("sigma", "jump_intensity", "p_up", "eta_plus", "eta_minus"),
    Family.STABLE: ("stable_index", "stable_scale"),
}


@dataclass(frozen=True)
class LevyModel:
    """Parameter bundle for one Levy process.

    Use the classmethod constructors (`brownian`, `merton`, `kou`, `stable`)
    rather than filling fields by hand; every field must be finite, and every
    field the family does not use (see `_PARAMETERS`) must be 0.
    """

    family: Family
    mu: float = 0.0
    sigma: float = 0.0
    jump_intensity: float = 0.0
    jump_mean: float = 0.0   # merton: mean of Gaussian jump sizes
    jump_sd: float = 0.0     # merton: sd of Gaussian jump sizes
    p_up: float = 0.0        # kou: probability a jump is upward
    eta_plus: float = 0.0    # kou: rate of upward exponential jump sizes
    eta_minus: float = 0.0   # kou: rate of downward exponential jump sizes
    stable_index: float = 0.0
    stable_scale: float = 0.0

    def __post_init__(self):
        fam = self.family
        if not isinstance(fam, Family):
            raise ConstructionError("family", f"unknown family {fam!r}")
        used = _PARAMETERS[fam]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            _require(math.isfinite(value), f.name, value, "be finite")
            if f.name != "mu" and f.name not in used:
                _require(value == 0.0, f.name, value, f"be 0: {fam.value} does not use it")
        if "sigma" in used:
            _require(self.sigma > 0.0, "sigma", self.sigma, f"be > 0 for {fam.value}")
        if "jump_intensity" in used:
            _require(self.jump_intensity > 0.0, "jump_intensity", self.jump_intensity,
                     f"be > 0 for {fam.value} (use brownian_drift for a pure diffusion)")
        if fam is Family.MERTON:
            _require(self.jump_sd >= 0.0, "jump_sd", self.jump_sd, "be >= 0")
        elif fam is Family.KOU:
            _require(0.0 < self.p_up < 1.0, "p_up", self.p_up, "lie in (0, 1)")
            _require(self.eta_plus > 0.0, "eta_plus", self.eta_plus, "be > 0")
            _require(self.eta_minus > 0.0, "eta_minus", self.eta_minus, "be > 0")
        elif fam is Family.STABLE:
            _require(1.0 < self.stable_index < 2.0, "stable_index", self.stable_index,
                     "lie in (1, 2)")
            _require(self.stable_scale > 0.0, "stable_scale", self.stable_scale, "be > 0")

    # -- constructors -------------------------------------------------------

    @classmethod
    def brownian(cls, mu: float, sigma: float) -> "LevyModel":
        return cls(Family.BROWNIAN_DRIFT, mu=mu, sigma=sigma)

    @classmethod
    def merton(cls, mu: float, sigma: float, jump_intensity: float,
               jump_mean: float, jump_sd: float) -> "LevyModel":
        return cls(Family.MERTON, mu=mu, sigma=sigma, jump_intensity=jump_intensity,
                   jump_mean=jump_mean, jump_sd=jump_sd)

    @classmethod
    def kou(cls, mu: float, sigma: float, jump_intensity: float,
            p_up: float, eta_plus: float, eta_minus: float) -> "LevyModel":
        return cls(Family.KOU, mu=mu, sigma=sigma, jump_intensity=jump_intensity,
                   p_up=p_up, eta_plus=eta_plus, eta_minus=eta_minus)

    @classmethod
    def stable(cls, mu: float, stable_index: float, stable_scale: float) -> "LevyModel":
        return cls(Family.STABLE, mu=mu, stable_index=stable_index,
                   stable_scale=stable_scale)


def _psi(model: LevyModel, lam: float) -> float:
    """The closed form of the Laplace exponent, with no domain check.

    For kou it is continued as a rational function across its poles at
    eta_plus and -eta_minus, because cramer_roots solves it on brackets
    between the poles for the roots of psi = r beyond them; for
    symmetric_stable it is meaningful only at lam = 0.
    """
    base = model.mu * lam + 0.5 * model.sigma ** 2 * lam * lam
    if model.family is Family.MERTON:
        jump_mgf = math.exp(model.jump_mean * lam + 0.5 * (model.jump_sd * lam) ** 2)
        return base + model.jump_intensity * (jump_mgf - 1.0)
    if model.family is Family.KOU:
        jump_mgf = (model.p_up * model.eta_plus / (model.eta_plus - lam)
                    + (1.0 - model.p_up) * model.eta_minus / (model.eta_minus + lam))
        return base + model.jump_intensity * (jump_mgf - 1.0)
    return base


def laplace_exponent(model: LevyModel, lam: float) -> float:
    """log E[exp(lam * X_1)] where the exponential moment exists.

    Raises DomainError outside the finiteness domain: for the kou family
    that is lam in (-eta_minus, eta_plus); for symmetric_stable only lam = 0
    has a finite exponential moment.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    if model.family is Family.KOU and not (-model.eta_minus < lam < model.eta_plus):
        raise DomainError(
            f"kou exponential moment requires lambda in ({-model.eta_minus!r}, "
            f"{model.eta_plus!r}), got {lam!r}"
        )
    if model.family is Family.STABLE and lam != 0.0:
        raise DomainError("symmetric_stable has no exponential moments away from 0")
    return _psi(model, lam)


@dataclass(frozen=True, eq=False)
class ExtremaPool:
    """Column-wise pool of (terminal, running max) draws.

    One row per replicate, each at its own Exp(r) horizon T, with (X_T, M)
    in its exact joint law.  The running minimum is derived, not stored.
    """

    terminal: np.ndarray
    running_max: np.ndarray

    def __len__(self) -> int:
        return len(self.terminal)

    @property
    def running_min(self) -> np.ndarray:
        """X_T - M, independent of M and distributed like I (Wiener-Hopf);
        <= min(X_T, 0), as M >= max(X_T, 0) and rounding is monotone."""
        return self.terminal - self.running_max


# -- the shared simulator ------------------------------------------------------


def _jump_sizes(model: LevyModel, n: int, rng: np.random.Generator) -> np.ndarray:
    if model.family is Family.MERTON:
        return rng.normal(model.jump_mean, model.jump_sd, size=n)
    # kou: upward Exp(eta_plus) w.p. p_up, else downward Exp(eta_minus)
    up = rng.random(n) < model.p_up
    mag = rng.exponential(1.0, size=n)
    return np.where(up, mag / model.eta_plus, -mag / model.eta_minus)


def _jump_sums(model: LevyModel, counts: np.ndarray, rng: np.random.Generator):
    """Paths with at least one jump, and the sum of their `counts` jump sizes.

    All sizes come from one draw, in path order, and are summed per path by
    a single reduceat over the nonzero counts.
    """
    hit = np.nonzero(counts)[0]
    if hit.size == 0:
        return hit, np.empty(0)
    k = counts[hit].astype(np.int64)
    sizes = _jump_sizes(model, int(k.sum()), rng)
    return hit, np.add.reduceat(sizes, np.cumsum(k) - k)


def _increment(model: LevyModel, x0: np.ndarray, dt, rng: np.random.Generator, *,
               counts: np.ndarray | None = None, out=None):
    """Advance every path in x0 by one step of length dt (scalar or per path).

    Returns (x1, step max).  Diffusive families: the Gaussian move is exact,
    and the step's maximum is drawn from the Brownian-bridge law given the
    endpoints, one uniform per path.  Compound-Poisson jumps then land at
    the step's right end: counts[k] of them on path k, or
    Poisson(jump_intensity * dt) when counts is None.  Stable family: one
    Chambers-Mallows-Stuck draw per path, from phi = (u - 1/2) pi with u
    uniform and then W ~ Exp(1), which scaled by dt ** (1/a) is

        sin(a phi) cos(phi) ** (-1/a) (cos((1-a) phi) / W) ** ((1-a)/a) dt ** (1/a)
          = sin(a phi) exp((log dt + log1p(t(phi))/2 + (a-1) log W
                            + (a-1) log1p(t((1-a) phi))/2) / a),

    t(v) = tan(v) ** 2, as 1/cos^2 = 1 + tan^2, and sin(a phi) = 2 tau /
    (1 + tau^2) with tau = tan(a phi / 2): tangents, logs and one exp, which
    numpy vectorizes, where float64 sin, cos and ** are several times
    slower.  The step's maximum is that of its endpoints, biased inward by
    O(dt ** (1/a)).

    `out` = (x1, step max, scratch), three float arrays shaped like x0 and
    distinct from it, which the step overwrites and returns the first two
    of, bit for bit what it returns without them; x0 is never written.
    """
    n = len(x0)
    # without `out`, numpy allocates each array where it is first written
    x1, hi, tmp = (None, None, None) if out is None else out
    if model.family is Family.STABLE:
        a = model.stable_index
        phi = rng.random(n, out=tmp)
        phi -= 0.5
        phi *= math.pi
        hi = rng.standard_exponential(n, out=hi)  # W, until its term joins x1
        # x1 = the exponent, term by term in the order of the docstring
        x1 = np.tan(phi, out=x1)
        x1 *= x1
        np.log1p(x1, out=x1)
        x1 *= 0.5
        with np.errstate(divide="ignore"):  # a stick of length 0 draws exp(-inf) = 0
            x1 += np.log(dt)
        np.log(hi, out=hi)
        hi *= a - 1.0
        x1 += hi
        np.multiply(phi, 1.0 - a, out=hi)
        np.tan(hi, out=hi)
        hi *= hi
        np.log1p(hi, out=hi)
        hi *= 0.5 * (a - 1.0)
        x1 += hi
        x1 /= a
        np.exp(x1, out=x1)
        # phi becomes sin(a phi) = 2 tau / (1 + tau^2), tau = tan(a phi / 2)
        phi *= 0.5 * a
        np.tan(phi, out=phi)
        np.multiply(phi, phi, out=hi)
        hi += 1.0
        phi += phi
        phi /= hi
        x1 *= phi
        x1 *= model.stable_scale
        x1 += np.add(x0, model.mu * dt, out=hi)
        return x1, np.maximum(x0, x1, out=hi)
    # x1 = (x0 + mu dt) + (sigma sqrt(dt)) z
    x1 = rng.standard_normal(n, out=x1)
    x1 *= model.sigma * np.sqrt(dt)
    tmp = np.add(x0, model.mu * dt, out=tmp)
    x1 += tmp
    # step max = 0.5 ((x0 + x1) + sqrt(d^2 - (2 var) log1p(-u))), d = x1 - x0
    d2 = np.subtract(x1, x0, out=tmp)
    d2 *= d2
    hi = rng.random(n, out=hi)  # u, until d2 has taken its term
    np.negative(hi, out=hi)
    np.log1p(hi, out=hi)
    hi *= 2.0 * (model.sigma ** 2 * dt)
    d2 -= hi
    np.sqrt(d2, out=d2)
    np.add(x0, x1, out=hi)
    hi += d2
    hi *= 0.5
    if model.jump_intensity > 0.0:
        if counts is None:
            counts = rng.poisson(model.jump_intensity * dt, size=n)
        hit, sums = _jump_sums(model, counts, rng)
        x1[hit] += sums
    return x1, np.maximum(hi, x1, out=hi)


def _run_chunks(n: int, rng: np.random.Generator, workers: int, chunk_fn) -> list:
    """[chunk_fn(lo, hi, child rng) for each _CHUNK-sized slice of range(n)].

    Every chunk owns one child generator spawned from rng, and the results
    come back in chunk order, so they never depend on `workers`.  Callers
    reduce the results after the join; chunks share no mutable state.  A
    thread pool runs the chunks only when workers > 1 and there are several.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers!r}")
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    children = rng.spawn(n_chunks)

    def run(ci: int):
        lo = ci * _CHUNK
        return chunk_fn(lo, min(lo + _CHUNK, n), children[ci])

    if workers == 1 or n_chunks == 1:
        return [run(ci) for ci in range(n_chunks)]
    # imported here: concurrent.futures loads logging, which one worker never needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(n_chunks)))


def _check_replicates(n: int) -> None:
    """DomainError, before any draw, unless an estimate gets _MIN_REPLICATES draws."""
    if n < _MIN_REPLICATES:
        raise DomainError(f"need at least {_MIN_REPLICATES} replicates, got {n!r}")


def _mean_se(a: np.ndarray):
    """Mean and standard error std(ddof=1) / sqrt(n) of `a` over its last axis."""
    return a.mean(axis=-1), a.std(ddof=1, axis=-1) / math.sqrt(a.shape[-1])


# -- extrema at an exponential horizon -----------------------------------------


def _stick_extrema(model: LevyModel, horizon: np.ndarray, rng: np.random.Generator):
    """(terminal, max) at the given horizons by stick-breaking.

    Each horizon T breaks into _STICKS uniform sticks, l_k = U_k (T - l_1 -
    ... - l_{k-1}), plus the remainder, and xi_k ~ X_{l_k} comes exactly from
    `_increment`.  These are the faces of the concave majorant in law
    (Pitman & Uribe Bravo, AoP 2012), so X_T = sum xi_k is exact, and
    M = sum max(xi_k, 0) is exact up to the sup inside the remainder piece,
    typically T e^{-40 +- 6} long.
    """
    n = len(horizon)
    zeros, x, m = np.zeros(n), np.zeros(n), np.zeros(n)
    rest = horizon
    for k in range(_STICKS + 1):
        piece = rest * rng.random(n) if k < _STICKS else rest
        rest = rest - piece  # not in place: the last piece is `rest` itself
        xi = _increment(model, zeros, piece, rng)[0]
        x += xi
        m += np.maximum(xi, 0.0)
    return x, m


def _extrema_chunk(model: LevyModel, r: float, n: int, rng: np.random.Generator):
    """(terminal, max) draws at n Exp(r) horizons.

    Horizon first, then the path.  The stable family is drawn by
    stick-breaking (`_stick_extrema`).  Diffusive families step from one
    jump arrival to the next (or to the horizon), so each jump sits at its
    exact time and the bridge maxima make the draw exact in law.  Brownian
    motion has no arrivals and takes one `_increment` to its horizon.  The
    first segment starts every path at t = 0 and X = 0, so it runs on whole
    arrays with no index gathers; later segments gather only the paths still
    short of their horizons, each once (`idx` is unique).  The draws and
    their arithmetic are those of stepping every segment by gathers.
    """
    horizon = rng.exponential(1.0 / r, size=n)
    if model.family is Family.STABLE:
        return _stick_extrema(model, horizon, rng)
    q = model.jump_intensity
    if q == 0.0:
        x, m = _increment(model, np.zeros(n), horizon, rng)
        return x, np.maximum(0.0, m, out=m)
    # the first segment ends at t = min(first arrival, horizon), which is also its length
    t = rng.exponential(1.0 / q, size=n)
    np.minimum(t, horizon, out=t)
    # a path that has not reached its horizon stopped at a jump arrival
    running = t < horizon
    x, m = _increment(model, np.zeros(n), t, rng, counts=running)
    np.maximum(0.0, m, out=m)
    idx = np.flatnonzero(running)
    while idx.size:
        t0, end = t[idx], horizon[idx]
        seg_end = np.minimum(t0 + rng.exponential(1.0 / q, size=idx.size), end)
        running = seg_end < end
        t[idx] = seg_end
        x[idx], hi = _increment(model, x[idx], seg_end - t0, rng, counts=running)
        m[idx] = np.maximum(m[idx], hi)
        idx = idx[running]
    return x, m


def sample_extrema(model: LevyModel, r: float, n: int, rng: np.random.Generator,
                   *, workers: int = 1) -> ExtremaPool:
    """n independent (terminal, running max) draws at Exp(r) horizons.

    No time grid: brownian_drift, merton and kou run from one exact jump
    arrival to the next with Brownian-bridge segment maxima, and
    symmetric_stable is drawn by stick-breaking (`_stick_extrema`).  So the
    joint law of (X_T, M) is exact, and the pool's derived running minimum
    X_T - M has the exact law of I and is independent of M (Kyprianou,
    Fluctuations of Levy Processes, Thm 6.16).  Replicates come in
    fixed-size chunks, each from its own spawned substream, so results
    depend only on `rng`'s seed and `n`, never on `workers`.
    """
    if not r > 0:
        raise DomainError(f"discount rate must be > 0, got {r!r}")
    if n <= 0:
        raise DomainError(f"sample size must be > 0, got {n!r}")
    parts = _run_chunks(n, rng, workers,
                        lambda lo, hi, sub: _extrema_chunk(model, r, hi - lo, sub))
    x, m = (np.concatenate(col) for col in zip(*parts))
    return ExtremaPool(terminal=x, running_max=m)
