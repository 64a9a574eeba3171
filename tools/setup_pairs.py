"""Time two trees' benchmark set-up probes in alternating pairs.

    python3 tools/setup_pairs.py TREE_A TREE_B

Each tree's probe is the `SETUP_PROBE` text of its own `bench/run.py`, read
with `ast` (the bench itself is not run).  One probe is one fresh
interpreter, started in the tree and timed from launch to exit, in the
benchmark's child environment (`child_env` of `bench/run.py`): `TREE/src`
put in front of the caller's `PYTHONPATH`, one BLAS thread and
`PYTHONHASHSEED=0`; every other variable of the caller, including
`PYTHONDONTWRITEBYTECODE`, is kept.  As the benchmark does, each probe's
last output line must name a `levyinvest` imported from `TREE/src`.  After one untimed probe per tree, 10
pairs run, A first in even pairs and B first in odd ones.  Prints, per
tree, the median and quartiles of its 10 times and the pairs it won (the
faster probe of a pair), and whether bytecode writing is off.

With bytecode writing off, every probe compiles `src/` from source, which
the benchmark's set-up time includes.  On a 2-core Intel Xeon machine
(Python 3.11), two series of 30 alternating rounds read probe medians of
230.7 and 194.7 ms as the benchmark runs it there, 197.2 and 171.6 ms with
cached bytecode, and 180.0 and 146.4 ms for importing numpy and scipy
alone: the machine's load moves the probe as much as the code does.  A
`setup_s` difference between two trees that the pairs do not reproduce is
noise in the probe, not a cost of the change.  Put both trees at paths of
equal length.

Standard library only; the probes run one at a time.
"""

from __future__ import annotations

import ast
import json
import os
import statistics
import subprocess
import sys
import time

PAIRS = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def setup_probe(tree: str) -> str:
    """The string assigned to SETUP_PROBE in TREE/bench/run.py."""
    path = os.path.join(tree, "bench", "run.py")
    with open(path, encoding="utf-8") as fh:
        module = ast.parse(fh.read(), filename=path)
    for node in module.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "SETUP_PROBE"):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SETUP_PROBE assignment in {path!r}")


def probe_env(tree: str) -> dict:
    """The lines of `child_env` in bench/run.py, for `tree`."""
    env = dict(os.environ)
    src = os.path.join(tree, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_probe(tree: str, probe: str) -> float:
    """Seconds one fresh interpreter takes to run the probe in `tree`."""
    t0 = time.perf_counter()
    cp = subprocess.run([sys.executable, "-c", probe], cwd=tree, env=probe_env(tree),
                        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if cp.returncode != 0:
        raise SystemExit(f"the probe failed in {tree!r}: {cp.stderr.strip()[-500:]}")
    module = json.loads(cp.stdout.strip().splitlines()[-1])["module"]
    if not os.path.abspath(module).startswith(os.path.join(tree, "src") + os.sep):
        raise SystemExit(f"levyinvest imported from {module!r}, not from {tree!r}")
    return elapsed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [os.path.abspath(tree) for tree in argv]
    probes = [setup_probe(tree) for tree in trees]
    for tree, probe in zip(trees, probes):
        run_probe(tree, probe)  # untimed
    times = [[], []]
    for k in range(PAIRS):
        for i in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[i].append(run_probe(trees[i], probes[i]))
    wins = [sum(a < b for a, b in zip(times[0], times[1])),
            sum(b < a for a, b in zip(times[0], times[1]))]
    for label, tree, ts, won in zip("AB", trees, times, wins):
        q1, median, q3 = statistics.quantiles(ts, n=4)
        print(f"{label} {tree}: median {median * 1e3:.1f} ms, quartiles "
              f"{q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms, won {won} of {PAIRS} pairs")
    off = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    print(f"bytecode writing: {'off' if off else 'on'} (PYTHONDONTWRITEBYTECODE "
          f"{'set' if off else 'unset'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
