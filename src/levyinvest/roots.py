"""Bracketed scalar root finding.

Bisection only: every equation solved in this package is known to be
monotone (or at least single-crossing) on the bracket, and unconditional
convergence matters more than iteration count at these problem sizes.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import BracketFailure

__all__ = ["bisect", "expand_bracket_geometric"]


def bisect(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-15,
    abs_tol: float = 0.0,
    max_iter: int = 200,
) -> float:
    """Root of f on [a, b] by bisection; f(a) and f(b) must differ in sign.

    Iterates until the interval width falls below abs_tol + rel_tol*|mid|
    or the midpoint stops moving in floating point. A zero endpoint is
    returned immediately.
    """
    fa = f(a)
    if fa == 0.0:
        return a
    fb = f(b)
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketFailure(f"no sign change on [{a!r}, {b!r}]: f(a)={fa!r}, f(b)={fb!r}")
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if mid <= min(a, b) or mid >= max(a, b):
            break  # interval no longer representable
        fm = f(mid)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
        if abs(b - a) <= abs_tol + rel_tol * abs(mid):
            break
    return 0.5 * (a + b)


def expand_bracket_geometric(
    f: Callable[[float], float],
    start: float = 1.0,
    *,
    factor: float = 10.0,
    max_steps: int = 60,
) -> tuple[float, float]:
    """Find a sign-change bracket on (0, inf) around a positive start point.

    Probes alternately upward (times `factor`) and downward (divided by it)
    from `start` until f changes sign, with at most max_steps expansions in
    each direction.
    """
    f0 = f(start)
    if f0 == 0.0:
        return (start, start)
    sign0 = math.copysign(1.0, f0)
    lo, hi = start, start
    for _ in range(max_steps):
        nxt = hi * factor
        f_nxt = f(nxt)
        if f_nxt == 0.0 or math.copysign(1.0, f_nxt) != sign0:
            return (hi, nxt)
        hi = nxt
        nxt = lo / factor
        f_nxt = f(nxt)
        if f_nxt == 0.0 or math.copysign(1.0, f_nxt) != sign0:
            return (nxt, lo)
        lo = nxt
    raise BracketFailure(
        f"no sign change within [{lo!r}, {hi!r}] after {max_steps} geometric "
        f"expansions each way from {start!r} (f stays {'positive' if f0 > 0 else 'negative'})"
    )
