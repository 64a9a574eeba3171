"""Digest every CLI run of a source tree: one line per (config, subcommand).

    python3 tools/cli_digests.py [--tree DIR] [--workers N]

Runs `python -m levyinvest.cli <subcommand> --config <config> --out out
--workers N` for every example config under DIR/configs and every
subcommand, importing levyinvest from DIR/src.  Each run starts in an empty
scratch directory, so its line lists everything the run left there: the
exit code, the SHA-256 of stdout and of stderr, and each entry under the
scratch directory with the SHA-256 of its bytes, or "dir" for a directory
(an empty output directory left behind shows up).  Digests are cut to 16
hex digits, and lines are sorted.

Two trees produce the same results exactly when their outputs are equal:

    python3 tools/cli_digests.py --tree A > a.txt
    python3 tools/cli_digests.py --tree B > b.txt
    diff a.txt b.txt

Standard library only; the runs go one at a time.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

SUBCOMMANDS = ("boundary", "verify", "wh-check", "simulate", "compare",
               "check-assumptions")


def _sha256(data: bytes) -> str:
    """The first 16 hex digits of the SHA-256 of `data`."""
    return hashlib.sha256(data).hexdigest()[:16]


def _entries(root: str) -> list[str]:
    """Every path under `root`, relative, with its digest or "dir"."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames:
            found.append(f"{os.path.relpath(os.path.join(dirpath, name), root)}=dir")
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found.append(f"{os.path.relpath(path, root)}={_sha256(fh.read())}")
    return sorted(found)


def digest_run(tree: str, config: str, command: str, workers: int) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryDirectory() as scratch:
        cp = subprocess.run(
            [sys.executable, "-m", "levyinvest.cli", command, "--config", config,
             "--out", "out", "--workers", str(workers)],
            cwd=scratch, env=env, capture_output=True)
        fields = [os.path.splitext(os.path.basename(config))[0], command,
                  f"exit={cp.returncode}", f"stdout={_sha256(cp.stdout)}",
                  f"stderr={_sha256(cp.stderr)}", *_entries(scratch)]
    return " ".join(fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=os.getcwd(),
                        help="source checkout holding src/ and configs/ (default: cwd)")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    configs = sorted(glob.glob(os.path.join(tree, "configs", "*.json")))
    if not configs:
        print(f"no configs under {os.path.join(tree, 'configs')!r}", file=sys.stderr)
        return 2
    lines = [digest_run(tree, config, command, args.workers)
             for config in configs for command in SUBCOMMANDS]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
