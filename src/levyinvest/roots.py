"""Bracketed root finding for arrays of independent monotone problems.

Every equation this package solves is monotone on its bracket: the marginal
gap of the boundary in log capacity, psi - r between two poles, and the ces
polynomial.  So one algorithm serves them all, Chandrupatla's bracketed
method (Adv. Eng. Software 28, 1997), run in lockstep over an array of
problems (a scalar is a problem array of shape ()).  Each bracket is
oriented, f(lo) > 0 >= f(hi), and every pass makes one call of f, on the
next point of every problem at once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketFailure

__all__ = ["bisect", "expand_bracket_geometric"]

_DECADE = math.log(10.0)
_MAX_DECADES = 60


def _out(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def bisect(f: Callable, lo, hi, f_lo=None, f_hi=None, *, rel_tol: float = 1e-15,
           abs_tol: float = 0.0):
    """Roots of f between lo and hi, where f(lo) > 0 >= f(hi) per problem.

    lo may lie above hi.  f_lo and f_hi are f at lo and hi where the caller
    has them (None or NaN where not); no endpoint is evaluated here.  Each
    pass puts the next point where inverse quadratic interpolation through
    the bracket's ends and the end it last dropped puts the root, when
    Chandrupatla's test says that interpolant is monotone on the bracket, and
    at the bracket's midpoint otherwise.  The point keeps half the tolerance
    away from both ends, and falls back to the midpoint where it rounds onto
    an end.  A problem freezes once its bracket is no wider than
    abs_tol + rel_tol * |x|, once its midpoint stops moving in floating
    point, or when f is exactly 0 at one of its points.  Returns, per
    problem, where the secant through the final bracket's ends crosses 0, a
    point of that bracket (where an end value is unknown, its newest point,
    lo before any pass): a float for scalar input.  Bisection is only the
    fallback step; the name stays because callers and the benchmark's
    tracer look the function up by it.
    """
    a, b = (np.array(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    fa, fb = (np.full(a.shape, np.nan if v is None else v, dtype=float) for v in (f_lo, f_hi))
    # a: the newest point, b: the other end of the bracket, c: the end that a
    # replaced (unknown before the first pass); pos: f(a) > 0, a is the lo side
    c, fc = np.full(a.shape, np.nan), np.full(a.shape, np.nan)
    pos = np.ones(a.shape, dtype=bool)
    open_ = fb != 0.0
    while True:
        d = b - a
        width = np.abs(d)
        tol = abs_tol + rel_tol * np.abs(a)
        open_ &= width > tol
        with np.errstate(all="ignore"):  # NaN and 0/0 fail the test below
            fab, fcb = fa - fb, fc - fb
            xi, phi = d / (b - c), fab / fcb
            # t: the interpolated root as a fraction of the way from a to b
            t = np.where((phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi),
                         fa / fcb * (fc / fab + (c - a) / d * fb / (fcb - fab)), 0.5)
            tl = (0.5 * tol) / width
        x = a + np.minimum(np.maximum(t, tl), 1.0 - tl) * d
        mid = a + 0.5 * d
        x = np.where((x == a) | (x == b), mid, x)
        open_ &= (mid != a) & (mid != b)
        if not open_.any():
            with np.errstate(all="ignore"):  # NaN where an end value is unknown
                s = fa / (fa - fb)  # where the secant through the ends crosses 0
            return _out(np.where(fb == 0.0, b, np.where(s >= 0.0, a + s * d, a)))
        fx = f(np.where(open_, x, a))  # a frozen problem's own x may be NaN
        new_pos = fx > 0.0
        stay = new_pos == pos  # x lands on a's side: b stays and c takes a
        c, fc = np.where(stay, a, b), np.where(stay, fa, fb)  # c matters only while open
        swap = open_ & ~stay  # x lands on b's side: a becomes the other end
        np.copyto(b, a, where=swap)
        np.copyto(fb, fa, where=swap)
        np.copyto(a, x, where=open_)
        np.copyto(fa, fx, where=open_)
        np.copyto(pos, new_pos, where=open_)
        open_ &= fx != 0.0


def expand_bracket_geometric(f: Callable, start=0.0):
    """Brackets (lo, hi, f(lo), f(hi)) of the roots of f, decreasing in x = log y.

    Each problem walks from x = start in steps of log 10 toward its root,
    upward while f > 0 and downward while f <= 0, and stops at the first
    step across it.  The bracket is the last two points of its walk, one
    decade apart up to rounding, oriented for `bisect`, which takes the
    four results as they are.  BracketFailure if some problem does not
    cross within 60 steps (y in [1e-60, 1e60] around e^start).
    """
    x = np.asarray(start, dtype=float)
    fx = f(x)
    above = fx > 0.0  # the root lies above start
    step = np.where(above, _DECADE, -_DECADE)
    prev, f_prev = x, fx
    open_ = np.ones(x.shape, dtype=bool)
    for _ in range(_MAX_DECADES):
        if not open_.any():
            break
        prev, f_prev = np.where(open_, x, prev), np.where(open_, fx, f_prev)
        x = x + step * open_
        fx = f(x)
        open_ &= (fx > 0.0) == above
    if open_.any():
        raise BracketFailure(f"f keeps its sign within {_MAX_DECADES} decades of y "
                             f"around e^start at {int(open_.sum())} of {open_.size} problems")
    lo, hi = np.where(above, prev, x), np.where(above, x, prev)
    f_lo, f_hi = np.where(above, f_prev, fx), np.where(above, fx, f_prev)
    return _out(lo), _out(hi), _out(f_lo), _out(f_hi)
