"""Command-line front end: one JSON config file drives every subcommand.

    levy-invest <subcommand> --config FILE [--seed N] [--out DIR] [--workers N]

Subcommands and their artifacts (written under the output directory):

    boundary            boundary.csv, boundary.json   solved boundary table
    verify              verify.json                   integral-equation residuals
                                                      and closed-form agreement
    wh-check            wh_check.json                 factorization roots, moments,
                                                      identity residual
    simulate            simulate.json                 policy value estimate
    compare             compare.csv, compare.json     paired policy-scale table
    check-assumptions   assumptions.json              profit/model assumption report

`simulate` and `compare` run the exponential-time policy engine, one
(X_T, M) pool at Exp(r) horizons, when its variance is certified
(psi(2 lam) < r for every growth exponent lam), and the stepped engine over
mc.step and mc.t_max otherwise; their artifacts name the engine in
"engine".

Every artifact embeds the SHA-256 of the config file text and the effective
seed, so identical (config, seed) pairs reproduce byte-identical files at
any worker count.  CSV cells use '.' decimals and 17 significant digits;
every Monte Carlo estimate is emitted next to its standard error.  Module
errors are reported as a one-line JSON object on stdout with exit status 1;
an unknown subcommand exits with the usage text and status 2.

Each subcommand computes its artifacts as text and `main` alone writes them.
A rejected run writes no artifact and removes the output directories it
created; an artifact that cannot be written is the JSON error with key
"outputs".
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .boundary import closed_form_boundary_table, integral_equation_residual, solve_boundary_grid
from .config import ExperimentConfig, _as_seed, load_config
from .errors import LevyInvestError, UnsupportedModel, ValidationError
from .profit import _certified_growth, _certified_variance, check_assumptions
from .policy import _at_base, compare_policies, exponential_time_values
from .wiener_hopf import (_identity_target, exact_factors, inf_moment, inf_moment_with_se,
                          sample_triplet, sup_moment_diagnostics, wh_identity_residual)

__all__ = ["main"]


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _ratio(residual: float, se: float) -> float:
    """residual / se; NaN unless both are finite, 0 when the SE is 0."""
    if not (math.isfinite(residual) and math.isfinite(se)):
        return math.nan
    return residual / se if se > 0 else 0.0


def _json(cfg: ExperimentConfig, payload: dict) -> str:
    """The JSON artifact text: the config digest and seed, then `payload`."""
    doc = {"config_sha256": cfg.config_sha256, "seed": cfg.seed, **payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv(cfg: ExperimentConfig, header: list[str], rows) -> str:
    """The CSV artifact text: the config digest and seed as comments, then the table."""
    lines = [f"# config_sha256: {cfg.config_sha256}", f"# seed: {cfg.seed}",
             *(",".join(row) for row in [header, *rows])]
    return "\n".join(lines) + "\n"


def _solve_table(cfg: ExperimentConfig, rng: np.random.Generator, workers: int):
    """The factors, exact when the model has them, else sampled, and the solved table."""
    try:
        factors = exact_factors(cfg.model, cfg.r)
    except UnsupportedModel:
        factors = sample_triplet(cfg.model, cfg.r, cfg.n_paths, rng, workers=workers)
    return factors, solve_boundary_grid(cfg.profit, factors, cfg.u_min, cfg.u_max, cfg.grid_n)


def _cmd_boundary(cfg: ExperimentConfig, rng: np.random.Generator, workers: int) -> dict:
    _, table = _solve_table(cfg, rng, workers)
    rows = []
    for i in range(len(table.grid)):
        se = "" if table.ses is None else _fmt(table.ses[i])
        rows.append([_fmt(table.grid[i]), _fmt(table.values[i]), table.provenance, se])
    return {
        "boundary.csv": _csv(cfg, ["u", "b", "provenance", "se_if_mc"], rows),
        "boundary.json": _json(cfg, {
            "family": cfg.model.family.value,
            "profit": cfg.profit.kind,
            "r": cfg.r,
            "provenance": table.provenance,
            "u": [float(v) for v in table.grid],
            "b": [float(v) for v in table.values],
            "se": None if table.ses is None else [float(v) for v in table.ses],
            "solver": table.solver,
        }),
    }


def _cmd_verify(cfg: ExperimentConfig, rng: np.random.Generator, workers: int) -> dict:
    factors, table = _solve_table(cfg, rng, workers)
    # "y" is b(u0): a point where it overflows fails before any pool is drawn
    with np.errstate(over="ignore"):
        ys = [float(table(u0)) for u0 in cfg.verify_u0]
    for i, (u0, y) in enumerate(zip(cfg.verify_u0, ys)):
        if not math.isfinite(y):
            raise ValidationError(f"verify.u0[{i}]", f"b({u0!r}) = exp({table.log(u0)!r}) "
                                                     "overflows a float")
    points = []
    for u0, y in zip(cfg.verify_u0, ys):
        res, se = integral_equation_residual(table, cfg.profit, cfg.model, cfg.r,
                                             u0, cfg.n_paths, rng, workers=workers)
        table_se = None if table.ses is None else float(np.interp(u0, table.grid, table.ses))
        points.append({"u0": float(u0), "y": y,
                       "residual": res, "se": se, "table_se": table_se,
                       "ratio": _ratio(res, se)})
    # every config profit kind has a closed form
    closed = closed_form_boundary_table(cfg.profit, factors,
                                        cfg.u_min, cfg.u_max, cfg.grid_n)
    rel = np.abs(table.values - closed.values) / closed.values
    # Monte Carlo mode solves both tables on one pool, and the "ces_closed_form"
    # constant is the generic solver's own root at u = 0: neither is a second route
    agreement = {"available": True, "provenance": closed.provenance,
                 "max_rel_err": float(rel.max()),
                 "independent": factors.is_exact and closed.provenance != "ces_closed_form"}
    return {"verify.json": _json(cfg, {"integral_equation": points,
                                       "closed_form_agreement": agreement,
                                       "n_paths": cfg.n_paths})}


def _cmd_wh_check(cfg: ExperimentConfig, rng: np.random.Generator, workers: int) -> dict:
    model, r = cfg.model, cfg.r
    _identity_target(model, r)  # fail before any pool is sampled
    try:
        exact = exact_factors(model, r)
    except UnsupportedModel:
        exact_block = None
    else:
        # psi is convex with psi(0) = 0 and psi(1) < r, so psi = r has its
        # smallest positive root above 1, where E[e^M] is finite
        exact_block = {
            "roots": list(exact.roots),
            "inf_moment_at_1": inf_moment(exact, 1.0),
            "sup_moment_at_1": sup_moment_diagnostics(exact, 1.0)["estimate"],
        }
    mc = sample_triplet(model, r, cfg.n_paths, rng, workers=workers)
    inf_est, inf_se = inf_moment_with_se(mc, 1.0)
    sup = sup_moment_diagnostics(mc, 1.0)
    residual, res_se = wh_identity_residual(mc)
    return {"wh_check.json": _json(cfg, {
        "family": model.family.value,
        "r": r,
        "exact": exact_block,
        "mc": {
            "n": cfg.n_paths,
            "inf_moment_at_1": {"estimate": inf_est, "se": inf_se},
            "sup_moment_at_1": {"estimate": sup["estimate"], "se": sup["se"],
                                "max_term_share": sup["max_term_share"]},
        },
        "identity": {"residual": residual, "se": res_se,
                     "ratio": _ratio(residual, res_se)},
    })}


def _policy_values(cfg: ExperimentConfig, rng: np.random.Generator, scales, workers: int):
    """The solved table's policies at `scales`, on the exponential-time engine
    when its variance is certified, else on the stepped engine."""
    _certified_growth(cfg.profit, cfg.model, cfg.r)  # fail before the table is solved
    engine = (exponential_time_values if _certified_variance(cfg.profit, cfg.model, cfg.r)
              else compare_policies)
    _, table = _solve_table(cfg, rng, workers)
    return engine(cfg.profit, cfg.model, cfg.r, table, cfg.x, cfg.y, scales,
                  cfg.n_paths, rng, step=cfg.step, t_max=cfg.t_max, workers=workers)


def _cmd_simulate(cfg: ExperimentConfig, rng: np.random.Generator, workers: int) -> dict:
    ev = _at_base(_policy_values(cfg, rng, (1.0,), workers))
    return {"simulate.json": _json(cfg, {"state": {"x": cfg.x, "y": cfg.y},
                                         **dataclasses.asdict(ev)})}


def _cmd_compare(cfg: ExperimentConfig, rng: np.random.Generator, workers: int) -> dict:
    result = _policy_values(cfg, rng, cfg.scales, workers)
    header = ["scale", "j_value", "j_se", "pv_investment", "pv_investment_se",
              "base_minus_this", "base_minus_this_se"]
    rows = [[_fmt(row.scale), _fmt(row.j_value), _fmt(row.j_se),
             _fmt(row.pv_investment), _fmt(row.pv_investment_se),
             _fmt(row.base_minus_this), _fmt(row.base_minus_this_se)]
            for row in result.rows]
    payload = {"state": {"x": cfg.x, "y": cfg.y}, **dataclasses.asdict(result)}
    return {"compare.csv": _csv(cfg, header, rows), "compare.json": _json(cfg, payload)}


def _cmd_check_assumptions(cfg: ExperimentConfig, rng: np.random.Generator, workers: int) -> dict:
    report = check_assumptions(cfg.profit, cfg.model, cfg.r)
    return {"assumptions.json": _json(cfg, report.to_dict())}


# subcommand -> handler(cfg, rng, workers) -> {artifact file name: text}
_HANDLERS = {
    "boundary": _cmd_boundary,
    "verify": _cmd_verify,
    "wh-check": _cmd_wh_check,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "check-assumptions": _cmd_check_assumptions,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levy-invest",
        description="Optimal irreversible-investment boundaries under "
                    "exponential Levy shocks: solve, verify, and simulate.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", default=None,
                        help="override the config output directory")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker threads (results are worker-count invariant)")
    return parser


def _new_dirs(path: str) -> list[str]:
    """`path` and those of its ancestors that do not exist yet, deepest first."""
    path = os.path.abspath(path)
    return [] if os.path.lexists(path) else [path, *_new_dirs(os.path.dirname(path))]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    new_dirs, written = [], []
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=_as_seed(args.seed))
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        if args.workers < 1:
            raise ValidationError("workers", f"must be >= 1, got {args.workers!r}")
        new_dirs = _new_dirs(cfg.out_dir)
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationError("outputs", f"cannot create the output directory "
                                             f"{cfg.out_dir!r}: {exc.strerror}") from exc
        artifacts = _HANDLERS[args.command](cfg, np.random.default_rng(cfg.seed), args.workers)
        for name, text in artifacts.items():
            path = os.path.join(cfg.out_dir, name)
            try:
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    written.append(path)
                    fh.write(text)
            except OSError as exc:
                raise ValidationError("outputs", f"cannot write {path!r}: {exc.strerror}") from exc
        return 0
    except LevyInvestError as exc:
        # a rejected run leaves no artifact and no directory of its own behind
        for remove, paths in ((os.remove, written), (os.rmdir, new_dirs)):
            for path in paths:
                with contextlib.suppress(OSError):
                    remove(path)
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ValidationError):
            error["key"] = exc.key
            error["message"] = exc.message
        print(json.dumps({"error": error}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
