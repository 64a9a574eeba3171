"""Peak memory after each op of one benchmark workload, in one fresh process.

    python3 tools/op_rss.py --workload W [--tree DIR] [--seed N] [--traced]

Runs the ops of workload W (DIR/bench/workloads.py) one after another, the
way DIR/bench/passrun.py runs a pass: CLI ops through `levyinvest.cli.main`
with `--workers 1`, the foc and extrema ops through the public API.  The
tool's own process imports levyinvest from DIR/src and runs the ops, with
one BLAS thread and PYTHONHASHSEED 0 as in the benchmark's pass processes.
Artifacts go to a temporary directory; nothing under DIR is written.

Prints one line after the imports and one after each op: the op, its exit
status, its latency and the process's peak RSS so far (`ru_maxrss`, MB).
An op line ends with the modules that the op imported first, one name per
newly loaded package (new keys of `sys.modules` whose parent is not new
too), so that an op whose peak comes from an import shows it by name.
With --traced, tracemalloc runs from the end of the imports on, each op line
adds the op's traced peak (MB), and the RSS readings include tracemalloc's
own bookkeeping.  After the last op, one line per op gives the SHA-256 of
its stdout and artifacts (`bench/checks.artifact_digest`), so two trees can
be checked for equal results as well.  The benchmark's `peak_rss_mb` is the
last op's reading of an untraced run.

Compare two trees by running the tool on each, alternating, with both
checked out at paths of equal length (the checkout path alone moves the
peak by about one 128 KiB array).  Standard library plus levyinvest.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _new_imports(loaded: set) -> str:
    """The line suffix "  imports a, b" naming the packages first imported
    since `loaded` was taken, each by its outermost new name; "" if none."""
    new = set(sys.modules) - loaded
    roots = sorted(name for name in new if name.rpartition(".")[0] not in new)
    return f"  imports {', '.join(roots)}" if roots else ""


def run_ops(tree: str, workload: str, seed: int, traced: bool) -> None:
    """Run the workload's ops in this process and print the readings."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import passrun  # the tree's bench/passrun.py, with its checks and workloads

    if workload not in passrun.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; the tree has "
                         f"{', '.join(sorted(passrun.WORKLOADS))}")
    # the imports of passrun's run_pass, so that the readings start where a pass's do
    import levyinvest as lv
    import levyinvest.cli  # noqa: F401
    import levyinvest.errors  # noqa: F401

    if traced:
        import tracemalloc
        tracemalloc.start()
    print(f"# tree {tree}  workload {workload}  seed {seed}  traced {int(traced)}")
    print(f"{'op':34} {'rc':>4} {'latency_s':>10} {'ru_maxrss_mb':>13}"
          + (f" {'traced_peak_mb':>15}" if traced else ""))
    print(f"{'(imports)':34} {'-':>4} {'-':>10} {_rss_mb():13.3f}", flush=True)
    ops = passrun.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [passrun.config_path(op, tmp, None) for op in ops]
        runs = []
        for op, cfg_path in zip(ops, paths):
            out_dir = os.path.join(tmp, "out", op.op_id)
            loaded = set(sys.modules)
            if traced:
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            rc, stdout, crash = passrun.run_op(lv, op, cfg_path, seed, out_dir)
            latency = time.perf_counter() - t0
            line = f"{op.op_id:34} {str(rc):>4} {latency:10.3f} {_rss_mb():13.3f}"
            if traced:
                line += f" {tracemalloc.get_traced_memory()[1] / 2 ** 20:15.3f}"
            line += _new_imports(loaded)
            print(line if crash is None else f"{line}  crashed", flush=True)
            runs.append((op.op_id, out_dir, stdout))
        # digests read the artifacts back, so they wait until every reading is taken
        digests = [(op_id, passrun.checks.artifact_digest(out_dir, stdout))
                   for op_id, out_dir, stdout in runs]
    for op_id, digest in digests:
        print(f"digest {op_id} {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of the tree's bench/workloads.py")
    parser.add_argument("--tree", default=os.getcwd(),
                        help="source checkout holding src/, bench/ and configs/ (default: cwd)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--traced", action="store_true",
                        help="also report each op's tracemalloc peak")
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    if not os.path.isfile(os.path.join(tree, "bench", "passrun.py")):
        print(f"no bench/passrun.py under {tree!r}", file=sys.stderr)
        return 2
    run_ops(tree, args.workload, args.seed, args.traced)
    return 0


if __name__ == "__main__":
    # the benchmark's pass environment, fixed before numpy loads; the hash
    # seed is read at start-up, so the interpreter starts again once with it
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    if env != os.environ:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  env)
    sys.exit(main())
