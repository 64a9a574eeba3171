"""Span tracing of levyinvest from outside the package.

`Tracer.install()` replaces each target function in every loaded
levyinvest module namespace that binds it, so a call is caught where it is
looked up (`levyinvest.boundary.bisect`, `levyinvest.policy.evaluate`, the
package-level re-export, ...).  `BoundaryTable.__call__` is replaced on the
class.  A target that no longer exists is reported as absent and counts 0.
`uninstall()` puts every original back.

Each call records one span: name, start, end and the index of the span
that was open when it began (its parent).  Spans live in flat arrays in
memory and are written out once, at the end of a pass.  The tracer assumes
one thread, which holds because every op runs with `--workers 1`.

`summarize()` turns spans into per-name counts and times.  A span's self
time is its duration minus the time its child spans cover.  A name's
inclusive time counts only its outermost spans, so recursion is not
counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = "bench.op"


def _size(a) -> int:
    return int(np.size(a))


def _profit_elems(args, kwargs):
    z = args[1] if len(args) > 1 else kwargs["z"]
    c = args[2] if len(args) > 2 else kwargs["c"]
    return max(_size(z), _size(c)), 0


def _lookup_points(args, kwargs):
    table = args[0]
    u = np.asarray(args[1] if len(args) > 1 else kwargs["u"], dtype=float)
    g = table.grid
    return u.size, int(np.count_nonzero((u < g[0]) | (u > g[-1])))


def _grid_points(args, kwargs):
    return int(args[4] if len(args) > 4 else kwargs["n"]), 0


def _extrema_draws(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["n"]), 0


def _extrema_family(args, kwargs) -> str:
    model = args[0] if args else kwargs["model"]
    return "stable" if model.family.value == "symmetric_stable" else "diffusive"


@dataclass(frozen=True)
class Target:
    """A function to wrap.  `attr` may be "Class.method".

    `work(args, kwargs)` returns (work units, extrapolated units) for one
    call; `variant(args, kwargs)` returns a suffix that splits the span name.
    """

    name: str
    module: str
    attr: str
    work: Callable | None = None
    variant: Callable | None = None


TARGETS = (
    Target("config.load_config", "levyinvest.config", "load_config"),
    Target("wiener_hopf.exact_factors", "levyinvest.wiener_hopf", "exact_factors"),
    Target("wiener_hopf.sample_triplet", "levyinvest.wiener_hopf", "sample_triplet"),
    Target("wiener_hopf.wh_identity_residual", "levyinvest.wiener_hopf",
           "wh_identity_residual"),
    Target("levy.sample_extrema", "levyinvest.levy", "sample_extrema",
           work=_extrema_draws, variant=_extrema_family),
    Target("roots.bisect", "levyinvest.roots", "bisect"),
    Target("roots.expand_bracket_geometric", "levyinvest.roots",
           "expand_bracket_geometric"),
    Target("profit.marginal_profit", "levyinvest.profit", "marginal_profit",
           work=_profit_elems),
    Target("profit.evaluate", "levyinvest.profit", "evaluate", work=_profit_elems),
    Target("profit.check_assumptions", "levyinvest.profit", "check_assumptions"),
    Target("boundary.marginal_gap", "levyinvest.boundary", "marginal_gap"),
    Target("boundary.solve_boundary_grid", "levyinvest.boundary",
           "solve_boundary_grid", work=_grid_points),
    Target("boundary.integral_equation_residual", "levyinvest.boundary",
           "integral_equation_residual"),
    Target("boundary.closed_form_boundary_table", "levyinvest.boundary",
           "closed_form_boundary_table"),
    Target("boundary.table_lookup", "levyinvest.boundary", "BoundaryTable.__call__",
           work=_lookup_points),
    Target("policy.compare_policies", "levyinvest.policy", "compare_policies"),
    Target("policy.evaluate_profit", "levyinvest.policy", "evaluate_profit"),
    Target("policy.foc_residuals", "levyinvest.policy", "foc_residuals"),
    Target("policy.stopping_value", "levyinvest.policy", "stopping_value"),
    Target("cli.main", "levyinvest.cli", "main"),
)


class Tracer:
    """Records spans for calls to the targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.work: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, target: Target, fn):
        base = self._id(target.name)
        work, variant = target.work, target.variant

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if variant is None:
                name, nid = target.name, base
            else:
                name = f"{target.name}.{variant(args, kwargs)}"
                nid = self._id(name)
            if work is not None:
                w, x = work(args, kwargs)
                self.work[name] = self.work.get(name, 0.0) + w
                self.extra[name] = self.extra.get(name, 0.0) + x
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def install(self) -> None:
        for target in self.targets:
            self._id(target.name)  # an absent target still reports count 0
            try:
                owner = importlib.import_module(target.module)
                holder_name, _, attr = target.attr.rpartition(".")
                holder = getattr(owner, holder_name) if holder_name else owner
                original = getattr(holder, attr)
            except (ImportError, AttributeError):
                self.absent.append(target.name)
                continue
            wrapped = self._wrapper(target, original)
            if holder_name:
                self._swap(holder, attr, original, wrapped)
                continue
            modules = [m for name, m in sorted(sys.modules.items())
                       if (name == "levyinvest" or name.startswith("levyinvest."))
                       and m is not None]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, original, wrapped)

    def _swap(self, holder, key: str, original, wrapped) -> None:
        setattr(holder, key, wrapped)
        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def save(self, path: str) -> None:
        """Write spans and counters to `path` (.npz)."""
        meta = {"names": self.names, "work": self.work, "extra": self.extra,
                "absent": self.absent}
        np.savez(path, name=np.frombuffer(self._name, dtype=np.int32),
                 parent=np.frombuffer(self._parent, dtype=np.int64),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64),
                 meta=np.array(json.dumps(meta)))


def load(path: str) -> dict:
    with np.load(path) as data:
        spans = {k: data[k] for k in ("name", "parent", "start", "end")}
        spans.update(json.loads(str(data["meta"])))
    return spans


def summarize(spans: dict) -> dict:
    """Per-name {calls, s, self_s, work, extra} from a span record.

    `s` is inclusive time over the name's outermost spans; `self_s` sums
    each span's duration minus the time its children cover.  Children of
    one span never overlap (one thread), so their durations add up.
    """
    name = np.asarray(spans["name"], dtype=np.int64)
    parent = np.asarray(spans["parent"], dtype=np.int64)
    dur = np.asarray(spans["end"], dtype=float) - np.asarray(spans["start"], dtype=float)
    names = list(spans["names"])
    n = len(dur)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - covered[:n]

    # a span is outermost for its name when no ancestor has the same name
    nested = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        nested[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]

    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
    self_sum = np.bincount(name, weights=self_time, minlength=k)
    out = {}
    for i, nm in enumerate(names):
        out[nm] = {"calls": int(calls[i]), "s": float(incl[i]),
                   "self_s": float(self_sum[i]),
                   "work": float(spans["work"].get(nm, 0.0)),
                   "extra": float(spans["extra"].get(nm, 0.0))}
    return out
