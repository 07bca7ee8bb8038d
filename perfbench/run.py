#!/usr/bin/env python3
"""Build graftkit's benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Arguments are passed to perfbench/bench.exe unchanged (see bench.ml).
The build goes to dune's _build directory; its output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Exits
non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main(argv):
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    try:
        # A build stuck waiting on another dune's lock must not hang
        # the run.
        build = subprocess.run(
            dune + ["build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=840,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # The GC event ring of a traced run is a file; keep it in _build.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.join(ROOT, "_build"))
    return subprocess.run([EXE] + argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
