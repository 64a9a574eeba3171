"""Correctness checks on the artifacts one op wrote.

`check(op, rc, stdout, out_dir, ...)` returns None when the op's output is
right and a one-line reason when it is not.  Every statistical band is
4 SE, for every family.  NaN or infinite estimates fail: a non-finite
residual would otherwise read as a zero ratio in the artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

BAND = 4.0
EXACT_REL_TOL = 1e-8      # acceptance criterion 3's band for exact mode
MONOTONE_REL_TOL = 1e-9   # the tolerance BoundaryTable itself enforces


def artifact_digest(out_dir: str, stdout: str) -> str:
    """SHA-256 over the op's stdout and every file it wrote, by name."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            h.update(name.encode("utf-8") + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _z(value, se) -> float:
    """value / se, NaN unless both are finite and se > 0."""
    if not (math.isfinite(value) and math.isfinite(se) and se > 0.0):
        return math.nan
    return value / se


def _boundary_exact(out_dir, closed) -> str | None:
    b = np.asarray(_load(out_dir, "boundary.json")["b"], dtype=float)
    closed = np.asarray(closed, dtype=float)
    if b.shape != closed.shape:
        return f"boundary has {b.size} points, closed form {closed.size}"
    rel = float(np.max(np.abs(b - closed) / closed))
    if not rel < EXACT_REL_TOL:
        return f"max relative error to closed form {rel:.3g} >= {EXACT_REL_TOL:g}"
    return None


def _boundary_mc(out_dir) -> str | None:
    art = _load(out_dir, "boundary.json")
    b = np.asarray(art["b"], dtype=float)
    if not (np.all(np.isfinite(b)) and np.all(b > 0.0)):
        return "boundary has a nonpositive or non-finite value"
    if np.any(b[1:] < b[:-1] * (1.0 - MONOTONE_REL_TOL)):
        return "boundary decreases"
    se = art.get("se")
    if se is None or len(se) != len(b) or not np.all(np.isfinite(np.asarray(se, float))):
        return "Monte Carlo boundary lacks finite SEs"
    return None


def _verify(out_dir) -> str | None:
    for point in _load(out_dir, "verify.json")["integral_equation"]:
        z = _z(point["residual"], point["se"])
        if not abs(z) <= BAND:
            return f"integral equation at u0={point['u0']!r}: z = {z:.3g}"
    return None


def _compare(out_dir) -> str | None:
    rows = _load(out_dir, "compare.json")["rows"]
    doubled = [row for row in rows if row["scale"] == 2.0]
    if not doubled:
        return "no scale-2.0 row"
    for row in rows:
        diff, se = row["base_minus_this"], row["base_minus_this_se"]
        if not (math.isfinite(diff) and math.isfinite(se) and diff >= -BAND * se):
            return f"scale {row['scale']!r} beats the solved boundary: {diff!r} (SE {se!r})"
    z = _z(doubled[0]["base_minus_this"], doubled[0]["base_minus_this_se"])
    if not z > BAND:
        return f"scale 2.0 is not worse by more than {BAND:g} SE: z = {z:.3g}"
    return None


def _foc(out_dir) -> str | None:
    art = _load(out_dir, "foc.json")
    for entry in art["entries"]:
        z = _z(entry["supergradient"], entry["se"])
        if not (z <= BAND or entry["supergradient"] == 0.0 == entry["se"]):
            return f"supergradient at {entry['rule']}: z = {z:.3g}"
    z = _z(art["slackness"], art["slackness_se"])
    if not abs(z) <= BAND:
        return f"slackness z = {z:.3g}"
    return None


def _wh_check(out_dir) -> str | None:
    ident = _load(out_dir, "wh_check.json")["identity"]
    z = _z(ident["residual"], ident["se"])
    if not abs(z) <= BAND:
        return f"Wiener-Hopf identity z = {z:.3g}"
    return None


def _extrema(out_dir) -> str | None:
    """Each pool holds 0 and its terminal value between its extrema, and its
    max and minus its min share one law (the model is symmetric, drift 0)."""
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".npy"))
    if not names:
        return "no extrema pools written"
    for name in names:
        x, m, i = np.load(os.path.join(out_dir, name))
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(i))):
            return f"{name}: non-finite extrema"
        if np.any(m < np.maximum(x, 0.0)) or np.any(i > np.minimum(x, 0.0)):
            return f"{name}: terminal value or 0 outside [min, max]"
        d = np.tanh(m) - np.tanh(-i)
        z = _z(float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.size)))
        if not abs(z) <= BAND:
            return f"{name}: max and -min differ in law, z = {z:.3g}"
    return None


def _assumptions_fail(out_dir) -> str | None:
    if _load(out_dir, "assumptions.json")["passed"] is not False:
        return "assumption report passed a model without exponential moments"
    return None


def _reject(rc, stdout, error_types) -> str | None:
    if rc != 1:
        return f"expected rejection with exit 1, got {rc!r}"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"expected one line of JSON, got {len(lines)} lines"
    try:
        kind = json.loads(lines[0])["error"]["type"]
    except (ValueError, KeyError, TypeError):
        return "rejection output is not a JSON error object"
    if kind not in error_types:
        return f"error type {kind!r} is not a levyinvest error"
    return None


def check(op, rc, stdout: str, out_dir: str, *, closed=None,
          error_types=()) -> str | None:
    """Why the op's output is wrong, or None when every check holds.

    `closed` holds the closed-form boundary values for `boundary_exact`;
    `error_types` the class names a rejection may report.
    """
    if op.check == "reject":
        return _reject(rc, stdout, error_types)
    if rc != 0:
        return f"exit status {rc!r}: {stdout.strip()[:200]}"
    try:
        if op.check == "boundary_exact":
            return _boundary_exact(out_dir, closed)
        if op.check == "boundary_mc":
            return _boundary_mc(out_dir)
        if op.check == "verify":
            return _verify(out_dir)
        if op.check == "compare":
            return _compare(out_dir)
        if op.check == "foc":
            return _foc(out_dir)
        if op.check == "wh_check":
            return _wh_check(out_dir)
        if op.check == "extrema":
            return _extrema(out_dir)
        if op.check == "assumptions_fail":
            return _assumptions_fail(out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable artifact: {type(exc).__name__}: {exc}"
    raise ValueError(f"unknown check {op.check!r}")
