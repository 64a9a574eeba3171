"""One pass over a workload, run in a process of its own.

    python3 bench/passrun.py --workload W --seed N --tmp DIR --result FILE
                             [--spans FILE] [--n-paths N]

Imports levyinvest once, then runs the workload's ops one after another in
this process: CLI ops through `levyinvest.cli.main(argv)` with
`--workers 1`, the foc and extrema ops through the public API.  With
`--spans` the ops run under the tracer, which is removed again before the
checks.  Each op's artifacts are checked after the last op; a failed op
never stops the pass.
`--n-paths` overrides every config's `mc.n_paths` (smoke tests only).

The result file holds, per op, its latency, exit status, artifact digest
and check outcome, plus the peak RSS of this process after the last op.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from workloads import FOC_RULES, WORKLOADS  # noqa: E402


def config_path(op, tmp: str, n_paths: int | None) -> str:
    """The example config, or a generated copy in `tmp` when overridden."""
    src = os.path.join(ROOT, "configs", f"{op.config}.json")
    overrides = dict(op.overrides)
    if n_paths is not None:
        overrides["n_paths"] = n_paths
    if not overrides:
        return src
    with open(src, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.setdefault("mc", {}).update(overrides)
    path = os.path.join(tmp, "configs", f"{op.op_id}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
    return path


def _run_foc(lv, cfg_path: str, seed: int, out_dir: str) -> int:
    """Criterion 9's audit at y = b(0) on the closed-form boundary."""
    import numpy as np

    cfg = lv.load_config(cfg_path)
    factors = lv.exact_factors(cfg.model, cfg.r)
    table = lv.closed_form_boundary_table(cfg.profit, factors, cfg.u_min,
                                          cfg.u_max, cfg.grid_n)
    y = float(table(0.0))
    rules = [lv.StoppingRule(kind, at) for kind, at in FOC_RULES]
    report = lv.foc_residuals(cfg.profit, cfg.model, cfg.r, table, 0.0, y, rules,
                              cfg.n_paths, np.random.default_rng(seed),
                              step=cfg.step, t_max=cfg.t_max, workers=1)
    payload = {"config_sha256": cfg.config_sha256, "seed": seed,
               "state": {"x": 0.0, "y": y}}
    payload.update(report.to_dict())
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "foc.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")
    return 0


def _run_extrema(lv, cfg_path: str, seed: int, out_dir: str) -> int:
    """The extrema pools `verify` samples: a max pool and a min pool per u0.

    Same calls and sizes as `integral_equation_residual` makes (default
    step, `n_paths` draws each), without the boundary table.  Each pool is
    written as a (terminal, max, min) array for the checks and the digest.
    """
    import numpy as np

    cfg = lv.load_config(cfg_path)
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    for k in range(len(cfg.verify_u0)):
        for side, child in zip(("max", "min"), rng.spawn(2)):
            pool = lv.sample_extrema(cfg.model, cfg.r, cfg.n_paths, child)
            np.save(os.path.join(out_dir, f"pool{k}_{side}.npy"),
                    np.stack([pool.terminal, pool.running_max, pool.running_min]))
    return 0


def run_op(lv, op, cfg_path: str, seed: int, out_dir: str) -> tuple[int | None, str, str | None]:
    """Run one op in-process: (exit status, captured stdout, crash text)."""
    buf = io.StringIO()
    crash = None
    rc = None
    try:
        with contextlib.redirect_stdout(buf):
            if op.command == "foc":
                rc = _run_foc(lv, cfg_path, seed, out_dir)
            elif op.command == "extrema":
                rc = _run_extrema(lv, cfg_path, seed, out_dir)
            else:
                rc = lv.cli.main([op.command, "--config", cfg_path, "--seed", str(seed),
                                  "--out", out_dir, "--workers", "1"])
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # one op's crash is recorded as its failure; the pass goes on
        crash = traceback.format_exc(limit=4)
    return rc, buf.getvalue(), crash


def run_pass(workload: str, seed: int, tmp: str, spans: str | None = None,
             n_paths: int | None = None) -> dict:
    import levyinvest as lv
    import levyinvest.cli  # noqa: F401
    import levyinvest.errors

    ops = WORKLOADS[workload]
    paths = [config_path(op, tmp, n_paths) for op in ops]
    tracer = None
    if spans is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    records = []
    for op, cfg_path in zip(ops, paths):
        out_dir = os.path.join(tmp, "out", op.op_id)
        t0 = time.perf_counter()
        if tracer is None:
            rc, stdout, crash = run_op(lv, op, cfg_path, seed, out_dir)
        else:
            with tracer.span(tracing.ROOT):
                rc, stdout, crash = run_op(lv, op, cfg_path, seed, out_dir)
        latency = time.perf_counter() - t0
        records.append({"op": op.op_id, "kind": op.kind, "latency_s": latency,
                        "rc": rc, "stdout": stdout, "crash": crash, "out_dir": out_dir})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.save(spans)
    error_types = tuple(name for name, obj in vars(lv.errors).items()
                        if isinstance(obj, type) and issubclass(obj, lv.LevyInvestError))
    for op, cfg_path, rec in zip(ops, paths, records):
        rec["digest"] = checks.artifact_digest(rec["out_dir"], rec["stdout"])
        if rec["crash"] is not None:
            rec["failure"] = "crashed: " + rec["crash"].strip().splitlines()[-1]
            continue
        closed = None
        if op.check == "boundary_exact":
            cfg = lv.load_config(cfg_path)
            closed = lv.closed_form_boundary_table(
                cfg.profit, lv.exact_factors(cfg.model, cfg.r),
                cfg.u_min, cfg.u_max, cfg.grid_n).values
        rec["failure"] = checks.check(op, rec["rc"], rec["stdout"], rec["out_dir"],
                                      closed=closed, error_types=error_types)
    return {"workload": workload, "seed": seed, "traced": tracer is not None,
            "absent": [] if tracer is None else tracer.absent,
            "peak_rss_mb": peak_rss_mb, "ops": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--n-paths", type=int, default=None)
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.tmp, args.spans, args.n_paths)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
