#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `seqdiv` (bin/main.exe) and the measurement program
(perfbench/perfbench.exe) from source with dune into the build
directory named by $CARGO_TARGET_DIR (default `.bench_build`), then runs
one measurement.  The last line of standard output is the result object;
see perfbench/README.md for the workloads and metrics.  Any further
arguments (e.g. `--inject corrupt-reference`) go to the measurement
program unchanged.
"""

import hashlib
import os
import subprocess
import sys


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the library and executable sources: the commit
    stand-in when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git(*args):
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit():
    """HEAD, when this checkout is itself the root of a git work tree."""
    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath("."):
        return "unknown"
    return git("rev-parse", "HEAD") or "unknown"


def main():
    for needed in ("dune-project", "lib", "bin/main.ml", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("run from the root of a seqdiv checkout (missing %s)" % needed)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Everything the build and the run write stays in the checkout: no
    # shared dune cache, and temporary files under the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(tmp))
    built = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "./bin/main.exe", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env,
    )
    if built.returncode != 0:
        fail("build failed", built.returncode or 2)
    default = os.path.join(build_dir, "default")
    cmd = [
        os.path.join(default, "perfbench", "perfbench.exe"),
        *sys.argv[1:],
        "--bin", os.path.join(default, "bin", "main.exe"),
        "--work-dir", os.path.join(build_dir, "perfbench"),
        "--commit", commit(),
        "--source-digest", source_digest(),
    ]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
