#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/perf.exe with dune (build
output goes to stderr), then runs it with the same arguments; its last
line of standard output is the JSON summary. The exit code is the
benchmark's: 0 when every correctness check passed, 1 when one failed,
2 on a usage or build error. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perf.exe"


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return os.path.join(prefix, "bin", "dune")
    return None


def run(cmd, **kwargs):
    """Run [cmd] to completion; stop it if we are interrupted."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()


def main():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project at %s; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    if run([dune, "build", "--root", ROOT, TARGET], stdout=sys.stderr) != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perf.exe")
    return run([exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
