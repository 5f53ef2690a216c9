#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload sparse-many --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune inside the source tree this script
belongs to (into its _build directory, with the shared dune cache off
so nothing is written outside the tree), then runs it once with the
given arguments.  The benchmark's stdout passes through unchanged; its
last line is the JSON result.  The exit code is the benchmark's, or 2 when the tree cannot be built
(for instance, when only the benchmark files are present).
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# A run must end within 180 s; the benchmark itself stops starting ops
# after 150 s, so this only catches a hung process.
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_env():
    """The environment with dune on PATH, asking opam when it is not."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune", path=env.get("PATH")):
        return env
    opam = shutil.which("opam")
    if opam is None:
        fail("dune not found on PATH and no opam to locate it")
    out = subprocess.run([opam, "env", "--shell=sh"], capture_output=True, text=True)
    for line in out.stdout.splitlines():
        # lines look like: PATH='/x/bin:/usr/bin'; export PATH;
        name, sep, rest = line.partition("=")
        if sep and name.isidentifier() and rest.startswith("'"):
            env[name] = rest[1:].split("'", 1)[0]
    if not shutil.which("dune", path=env.get("PATH")):
        fail("dune not found on PATH, even after opam env")
    return env


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run this from a full source tree" % need)
    env = dune_env()
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % build.returncode)
    cmd = [EXE] + sys.argv[1:]
    # The fingerprint's `git describe` must not pick up a repository
    # above the tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
