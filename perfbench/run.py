#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_weights --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of the repository. The benchmark is a dune package of
its own (perfbench/src). It is staged in .bench_build/perfbench together
with a copy of the repository's lib/ and BENCHMARK.json, and built there,
so the repository's own build never sees it. Each workload runs in a
fresh process; --workload all runs them one after the other. The last
line of standard output is the JSON result of the last workload run.
"""

import filecmp
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve_weights", "struct_churn", "oneshot_analytics"]
STAGE = os.path.join(".bench_build", "perfbench")
SOURCES = [("lib", "lib"), ("BENCHMARK.json", "BENCHMARK.json")]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync(src, dst, keep=()):
    """Make dst a copy of src, rewriting only files whose content changed
    (so dune rebuilds only what changed) and removing files src lacks,
    except the names in keep."""
    if os.path.isfile(src):
        if not (os.path.isfile(dst) and filecmp.cmp(src, dst, shallow=False)):
            shutil.copyfile(src, dst)
        return
    os.makedirs(dst, exist_ok=True)
    names = set(os.listdir(src))
    for name in set(os.listdir(dst)) - names - set(keep):
        path = os.path.join(dst, name)
        shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    for name in sorted(names):
        sync(os.path.join(src, name), os.path.join(dst, name))


def build():
    for src in ["perfbench/src"] + [src for src, _ in SOURCES]:
        if not os.path.exists(src):
            fail(f"{src} not found: run from the root of the repository")
    # the package sources form the stage's root, beside the other sources
    # and dune's own build directory
    sync("perfbench/src", STAGE, keep=["_build"] + [dst for _, dst in SOURCES])
    for src, dst in SOURCES:
        sync(src, os.path.join(STAGE, dst))
    r = subprocess.run(["dune", "build", "--root", STAGE, "--no-print-directory", "--display", "quiet", "./main.exe"])
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(STAGE, "_build", "default", "main.exe")


def main(argv):
    if argv == ["--selftest"]:
        build()
        return subprocess.run(["dune", "test", "--root", STAGE, "--no-print-directory", "--force"]).returncode
    try:
        workload = argv[argv.index("--workload") + 1]
    except (ValueError, IndexError):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1 [--inject-mismatch]")
    exe = build()
    names = WORKLOADS if workload == "all" else [workload]
    code = 0
    for name in names:
        args = list(argv)
        args[argv.index("--workload") + 1] = name
        sys.stdout.flush()
        code = max(code, subprocess.run([exe] + args).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
