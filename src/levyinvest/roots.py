"""Bracketed root finding for arrays of independent monotone problems.

Every equation this package solves is monotone on its bracket: the marginal
gap of the boundary in log capacity, psi - r between two poles, and the ces
polynomial.  So one algorithm serves them all, bisection, run in lockstep
over an array of problems (a scalar is a problem array of shape ()).  Each
bracket is oriented, f(lo) > 0 >= f(hi), so no endpoint is ever evaluated
and every pass makes one call of f, on all midpoints at once.
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


def bisect(f: Callable, lo, hi, *, rel_tol: float = 1e-15, abs_tol: float = 0.0):
    """Roots of f between lo and hi, where f(lo) > 0 >= f(hi) per problem.

    lo may lie above hi.  A problem freezes once its bracket is no wider
    than abs_tol + rel_tol * |midpoint|, once its midpoint stops moving in
    floating point, or when f is exactly 0 at its midpoint (which is then
    its root).  Returns the final midpoints: a float for scalar input.
    """
    lo, hi = (np.array(a, dtype=float) for a in np.broadcast_arrays(lo, hi))
    mid = 0.5 * (lo + hi)
    open_ = (mid != lo) & (mid != hi)
    while open_.any():
        fm = f(mid)
        np.copyto(lo, mid, where=open_ & (fm >= 0.0))
        np.copyto(hi, mid, where=open_ & ~(fm > 0.0))
        # Monte Carlo boundary blocks hold one point, where each array op costs
        # more than its arithmetic: skip rel_tol's two ops when it is 0
        tol = abs_tol + rel_tol * np.abs(mid) if rel_tol else abs_tol
        open_ = open_ & (np.abs(hi - lo) > tol)
        mid = 0.5 * (lo + hi)
        open_ = open_ & (mid != lo) & (mid != hi)
    return _out(np.asarray(mid))


def expand_bracket_geometric(f: Callable, start=0.0):
    """Brackets (lo, lo + log 10) of the roots of f, decreasing in x = log y.

    Each problem walks from x = start in steps of log 10 toward its root,
    upward while f > 0 and downward while f <= 0, and stops at the first
    step across it; the bracket is oriented for `bisect`.  BracketFailure
    if some problem does not cross within 60 steps (y in [1e-60, 1e60]
    around e^start).
    """
    x = np.asarray(start, dtype=float)
    above = f(x) > 0.0  # the root lies above start
    step = np.where(above, _DECADE, -_DECADE)
    open_ = np.ones(x.shape, dtype=bool)
    for _ in range(_MAX_DECADES):
        if not open_.any():
            break
        x = x + step * open_
        open_ &= (f(x) > 0.0) == above
    if open_.any():
        raise BracketFailure(f"f keeps its sign within {_MAX_DECADES} decades of y "
                             f"around e^start at {int(open_.sum())} of {open_.size} problems")
    lo = np.where(above, x - _DECADE, x)
    return _out(lo), _out(lo + _DECADE)
