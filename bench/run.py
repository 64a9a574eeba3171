"""The levyinvest benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {exact_solve,policy_audit,heavy_tail}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; levyinvest is imported from its
`src/`.  The load is a closed loop with one client: passes run one at a
time, each in a fresh child process (bench/passrun.py) that runs the
workload's ops back to back with `--workers 1` and one BLAS thread.

--trace 0  repeats untraced passes until S seconds of op time are spent
           (at least one pass) and reports per-pass medians of the
           end-to-end metrics; set-up time is the median of several fresh
           interpreters, half timed before the passes and half after.
--trace 1  runs one untraced and one traced pass and reports per-layer
           metrics from the traced pass's spans (see bench/tracer.py).

Every op's artifacts are checked; a failed check, a crash, or artifacts
that differ between passes of the seed count the op as failed.  A readable
report comes first; the last line of stdout is the JSON result.  Without
`src/levyinvest` and `configs/` the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# fresh interpreter -> package imported and every example config loaded
SETUP_PROBE = """
import glob, json, os, sys
import numpy, scipy, levyinvest
for path in sorted(glob.glob(os.path.join("configs", "*.json"))):
    levyinvest.load_config(path)
print(json.dumps({"module": levyinvest.__file__, "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "python": sys.version.split()[0]}))
"""

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_failed_frac": "frac",
    "boundary_s": "s", "verify_s": "s", "compare_s": "s", "foc_s": "s",
    "wh_check_s": "s", "reject_s": "s", "extrema_s": "s", "compare_s_at_se": "s",
}
# the end-to-end metrics every workload has and that are never 0
GATED = ("wall_s", "setup_s", "peak_rss_mb")
OP_KINDS = ("boundary", "verify", "compare", "foc", "wh_check", "reject", "extrema")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure_setup(env: dict, repeats: int, warm_up: bool = True) -> tuple[list[float], dict]:
    """Wall time of `repeats` fresh set-up interpreters, after an untimed one
    when `warm_up` is set."""
    times, info = [], {}
    for k in range(repeats + 1 if warm_up else repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        if k or not warm_up:
            times.append(elapsed)
    if not os.path.abspath(info["module"]).startswith(os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"levyinvest imported from {info['module']}, not this checkout")
    return times, info


def run_pass(workload: str, seed: int, pass_dir: str, env: dict, traced: bool) -> dict:
    """One pass in a child process; a crashed child fails every op."""
    os.makedirs(pass_dir)
    result_path = os.path.join(pass_dir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", pass_dir, "--result", result_path]
    if traced:
        cmd += ["--spans", os.path.join(pass_dir, "spans.npz")]
    with open(os.path.join(pass_dir, "stderr.txt"), "w+", encoding="utf-8") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=CHILD_TIMEOUT_S)
            status = proc.returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
        err.seek(0)
        tail = err.read()[-2000:]
    if status == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    print(f"# pass failed ({status}): {tail}", file=sys.stderr)
    ops = [{"op": op.op_id, "kind": op.kind, "latency_s": 0.0, "rc": None,
            "digest": None, "failure": f"pass process failed ({status})",
            "out_dir": None} for op in WORKLOADS[workload]]
    return {"workload": workload, "seed": seed, "traced": traced, "absent": [],
            "peak_rss_mb": 0.0, "ops": ops}


def mark_nondeterminism(passes: list[dict]) -> None:
    """Fail an op whose artifacts differ from the first pass's."""
    first = {rec["op"]: rec["digest"] for rec in passes[0]["ops"]}
    for p in passes[1:]:
        for rec in p["ops"]:
            if rec["failure"] is None and rec["digest"] != first[rec["op"]]:
                rec["failure"] = "artifacts differ between passes of one seed"


def _read_json(out_dir, name):
    try:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, TypeError):
        return None


def compare_at_se(rec: dict, s_ref: float) -> float:
    """t_op * (s / s_ref)^2: the op's time rescaled to the reference paired SE."""
    art = _read_json(rec["out_dir"], "compare.json") if rec["out_dir"] else None
    if art is None:
        return math.nan
    ses = [row["base_minus_this_se"] for row in art["rows"] if row["scale"] != 1.0]
    s = math.sqrt(sum(v * v for v in ses) / len(ses))
    return rec["latency_s"] * (s / s_ref) ** 2


def pass_metrics(p: dict, ops) -> dict:
    recs = p["ops"]
    out = {"wall_s": sum(r["latency_s"] for r in recs), "peak_rss_mb": p["peak_rss_mb"]}
    for kind in OP_KINDS:
        if any(op.kind == kind for op in ops):
            out[f"{kind}_s"] = sum(r["latency_s"] for r in recs if r["kind"] == kind)
    compare_ops = [(op, r) for op, r in zip(ops, recs) if op.s_ref is not None]
    if compare_ops:
        out["compare_s_at_se"] = sum(compare_at_se(r, op.s_ref) for op, r in compare_ops)
    return out


def path_steps(p: dict) -> int:
    """Paths x steps of every policy run, from the step and t_max in its artifacts."""
    total = 0
    for rec in p["ops"]:
        for name in ("compare.json", "foc.json", "simulate.json"):
            art = _read_json(rec["out_dir"], name) if rec["out_dir"] else None
            if art is not None:
                total += art["n_paths"] * round(art["t_max"] / art["step"])
    return total


def max_abs_z(p: dict) -> float:
    """Largest finite integral-equation |residual / SE| in the pass's verify artifacts."""
    worst = 0.0
    for rec in p["ops"]:
        art = _read_json(rec["out_dir"], "verify.json") if rec["out_dir"] else None
        for point in (art or {}).get("integral_equation", []):
            res, se = point["residual"], point["se"]
            if math.isfinite(res) and math.isfinite(se) and se > 0:
                worst = max(worst, abs(res / se))
    return worst


def layer_metrics(traced: dict, untraced: dict, spans_path: str) -> dict:
    """Per-layer metrics of a traced pass, with the untraced pass as the base."""
    import tracer

    summary = tracer.summarize(tracer.load(spans_path))
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0, "extra": 0.0}
    get = lambda name: summary.get(name, zero)  # noqa: E731

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    gap, grid = get("boundary.marginal_gap"), get("boundary.solve_boundary_grid")
    m["boundary.marginal_gap.calls"] = (gap["calls"], "count")
    m["boundary.marginal_gap.s"] = (gap["s"], "s")
    m["boundary.solve_boundary_grid.points"] = (int(grid["work"]), "count")
    m["boundary.solve_boundary_grid.s"] = (grid["s"], "s")
    m["boundary.gap_calls_per_point"] = (ratio(gap["calls"], grid["work"]), "calls/point")
    m["roots.bisect.calls"] = (get("roots.bisect")["calls"], "count")
    m["roots.expand_bracket_geometric.calls"] = (
        get("roots.expand_bracket_geometric")["calls"], "count")
    mp = get("profit.marginal_profit")
    m["profit.marginal_profit.calls"] = (mp["calls"], "count")
    m["profit.marginal_profit.elems_per_call"] = (ratio(mp["work"], mp["calls"]), "elems/call")

    look = get("boundary.table_lookup")
    m["boundary.table_lookup.calls"] = (look["calls"], "count")
    m["boundary.table_lookup.points"] = (int(look["work"]), "count")
    m["boundary.table_lookup.s"] = (look["s"], "s")
    m["boundary.table_lookup.extrapolated_frac"] = (ratio(look["extra"], look["work"]), "frac")
    ev = get("profit.evaluate")
    m["profit.evaluate.calls"] = (ev["calls"], "count")
    m["profit.evaluate.s"] = (ev["s"], "s")
    m["policy.compare_policies.s"] = (get("policy.compare_policies")["s"], "s")
    m["policy.foc_residuals.s"] = (get("policy.foc_residuals")["s"], "s")
    policy = [v for k, v in summary.items() if k.startswith("policy.")]
    m["policy.self_s"] = (sum(v["self_s"] for v in policy), "s")
    steps = path_steps(traced)
    m["policy.path_steps"] = (steps, "count")
    m["policy.path_steps_per_s"] = (ratio(steps, sum(v["s"] for v in policy)), "1/s")

    stable, diffusive = get("levy.sample_extrema.stable"), get("levy.sample_extrema.diffusive")
    for fam, parts in (("", (stable, diffusive)), (".stable", (stable,)),
                       (".diffusive", (diffusive,))):
        calls = sum(v["calls"] for v in parts)
        draws = sum(v["work"] for v in parts)
        self_s = sum(v["self_s"] for v in parts)
        m[f"levy.sample_extrema{fam}.calls"] = (calls, "count")
        m[f"levy.sample_extrema{fam}.draws"] = (int(draws), "count")
        m[f"levy.sample_extrema{fam}.self_s"] = (self_s, "s")
        m[f"levy.sample_extrema{fam}.draws_per_s"] = (ratio(draws, self_s), "1/s")
    m["wiener_hopf.sample_triplet.s"] = (get("wiener_hopf.sample_triplet")["s"], "s")
    m["wiener_hopf.wh_identity_residual.s"] = (
        get("wiener_hopf.wh_identity_residual")["s"], "s")
    m["boundary.integral_equation_residual.self_s"] = (
        get("boundary.integral_equation_residual")["self_s"], "s")

    m["wiener_hopf.exact_factors.s"] = (get("wiener_hopf.exact_factors")["s"], "s")
    m["boundary.closed_form_boundary_table.s"] = (
        get("boundary.closed_form_boundary_table")["s"], "s")
    m["profit.check_assumptions.s"] = (get("profit.check_assumptions")["s"], "s")
    m["config.load_config.s"] = (get("config.load_config")["s"], "s")
    m["cli.self_s"] = (get("cli.main")["self_s"], "s")

    m["boundary.integral_equation.max_abs_z"] = (max_abs_z(traced), "SE")
    traced_wall = get(tracer.ROOT)["s"]
    untraced_wall = sum(r["latency_s"] for r in untraced["ops"])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_frac"] = (ratio(traced_wall, untraced_wall) - 1.0, "frac")
    m["trace.absent_targets"] = (len(traced["absent"]), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# the layer each workload stresses, as per-layer metrics summed over
STRESSED = {
    "exact_solve": ("boundary.marginal_gap.s",),
    "policy_audit": ("policy.self_s", "boundary.table_lookup.s", "profit.evaluate.s"),
    "heavy_tail": ("levy.sample_extrema.self_s",),
}


def stressed_share(workload: str, metrics: dict) -> float:
    """The share of the traced wall that the workload's stressed layer takes."""
    wall = metrics["trace.wall_s"]["value"]
    part = sum(metrics[name]["value"] for name in STRESSED[workload])
    return part / wall if wall else 0.0


def print_table(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{name:46s} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child and the temp dir is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (os.path.isfile(os.path.join(ROOT, "src", "levyinvest", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        print("error: run from a levyinvest checkout (src/levyinvest and configs/ "
              "not found)", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


def _run(args, tmp: str) -> int:
    ops = WORKLOADS[args.workload]
    env = child_env()
    env_record = {"seed": args.seed, "workload": args.workload, "trace": args.trace,
                  "nproc": os.cpu_count(), "cpu": cpu_model()}
    try:
        setup_times, versions = measure_setup(env, 0 if args.trace else SETUP_REPEATS // 2)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env_record.update(python=versions["python"], numpy=versions["numpy"],
                      scipy=versions["scipy"])

    passes = []
    if args.trace:
        passes.append(run_pass(args.workload, args.seed, os.path.join(tmp, "p0"), env, False))
        passes.append(run_pass(args.workload, args.seed, os.path.join(tmp, "p1"), env, True))
    else:
        spent = 0.0
        while not passes or spent < args.seconds:
            p = run_pass(args.workload, args.seed, os.path.join(tmp, f"p{len(passes)}"),
                         env, False)
            passes.append(p)
            spent += sum(r["latency_s"] for r in p["ops"])
            if all(r["rc"] is None for r in p["ops"]):
                break  # the child process died; more passes would only repeat it
        try:
            later, _ = measure_setup(env, SETUP_REPEATS - SETUP_REPEATS // 2, warm_up=False)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setup_times += later
    mark_nondeterminism(passes)

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for r in p["ops"] if r["failure"] is not None)
    print(f"# levyinvest benchmark: {json.dumps(env_record, sort_keys=True)}")
    print(f"# passes: {len(passes)}, ops attempted: {attempted}, failed: {failed}")
    for k, p in enumerate(passes):
        for r in p["ops"]:
            status = "ok" if r["failure"] is None else f"FAILED: {r['failure']}"
            print(f"# pass {k}{' traced' if p['traced'] else ''} {r['op']:40s} "
                  f"{r['latency_s']:9.3f} s  {status}")

    if args.trace:
        spans = os.path.join(tmp, "p1", "spans.npz")
        if not os.path.exists(spans):
            print("error: the traced pass left no spans", file=sys.stderr)
            return 1
        metrics = layer_metrics(passes[1], passes[0], spans)
        if passes[1]["absent"]:
            print(f"# absent (count 0): {', '.join(passes[1]['absent'])}")
        print_table(metrics)
        print(f"# share of traced wall in {' + '.join(STRESSED[args.workload])}: "
              f"{stressed_share(args.workload, metrics):.3f}")
        reported = metrics
    else:
        per_pass = [pass_metrics(p, ops) for p in passes]
        metrics = {name: statistics.median(pm[name] for pm in per_pass)
                   for name in per_pass[0]}
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["ops_failed_frac"] = failed / attempted
        table = {name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]}
                 for name in END_TO_END_UNITS if name in metrics}
        print_table(table)
        reported = {name: table[name] for name in GATED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
