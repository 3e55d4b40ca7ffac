#!/usr/bin/env python3
"""The benchmark's own tests: show that each of its checks fires.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

Each case runs perfbench/run.py with a fault injected and asserts the
run is refused or marked incorrect, for the reason the case names:

  clean               a short untraced serve run passes (the control)
  corrupt-reference   a corrupted reference incident log fails the run
  corrupt-summary     a corrupted paper-maps summary pin fails the run
  reuse-batch-id      a batch id reused on one server trips the replay guard
  tmpfs-journal       a journal directory on tmpfs is refused (needs /dev/shm)
  bare-directory      BENCHMARK.json plus perfbench/ alone cannot produce a result

Takes about a minute; exits non-zero if any case does not behave.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

RUN = [sys.executable, "perfbench/run.py"]


def run(args, cwd="."):
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if not (isinstance(result, dict) and "correct" in result):
            result = None
    return p.returncode, result, p.stderr


def base(workload, seconds="2"):
    return ["--workload", workload, "--seed", "7", "--seconds", seconds,
            "--trace", "0"]


def expect_incorrect(args, reason):
    code, result, err = run(args)
    ok = code == 1 and result is not None and result["correct"] is False \
        and reason in err
    return ok, "exit %d, correct=%s" % (code, result and result["correct"])


def case_clean():
    code, result, err = run(base("serve-static"))
    ok = code == 0 and result is not None and result["correct"] is True
    return ok, "exit %d, correct=%s" % (code, result and result["correct"])


def case_corrupt_reference():
    return expect_incorrect(
        base("serve-static") + ["--inject", "corrupt-reference"],
        "differs from the serial Online replay")


def case_corrupt_summary():
    return expect_incorrect(
        base("paper-maps", "1") + ["--inject", "corrupt-reference"],
        "summary differs from the seed-2005 pin")


def case_reuse_batch_id():
    return expect_incorrect(
        base("serve-static") + ["--inject", "reuse-batch-id"],
        "replay guard")


def case_tmpfs_journal():
    shm = "/dev/shm"
    fstype = None
    with open("/proc/self/mounts") as f:
        for line in f:
            parts = line.split()
            if len(parts) > 2 and parts[1] == shm:
                fstype = parts[2]
    if fstype != "tmpfs":
        return None, "skipped: %s is not a tmpfs mount here" % shm
    root = tempfile.mkdtemp(prefix="perfbench-selftest-", dir=shm)
    try:
        code, result, err = run(base("serve-durable") +
                                ["--journal-root", root])
    finally:
        shutil.rmtree(root, ignore_errors=True)
    ok = code == 3 and result is None and "tmpfs" in err
    return ok, "exit %d, result printed: %s" % (code, result is not None)


def case_bare_directory():
    bare = tempfile.mkdtemp(prefix="perfbench-bare-")
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        code, result, _ = run(base("serve-static"), cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = code != 0 and result is None
    return ok, "exit %d, result printed: %s" % (code, result is not None)


CASES = [
    ("clean", case_clean),
    ("corrupt-reference", case_corrupt_reference),
    ("corrupt-summary", case_corrupt_summary),
    ("reuse-batch-id", case_reuse_batch_id),
    ("tmpfs-journal", case_tmpfs_journal),
    ("bare-directory", case_bare_directory),
]


def main():
    failures = 0
    for name, case in CASES:
        ok, detail = case()
        status = "skip" if ok is None else ("ok" if ok else "FAIL")
        failures += ok is False
        print("%-18s %-4s %s" % (name, status, detail), flush=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
