#!/usr/bin/env python3
"""Build the kvstore benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload write-churn --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the spans file of a traced run all live
under .bench_build/ in the repository root, so nothing is read or written
outside the checkout. The benchmark's output and exit code are passed
through unchanged; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures at most 60 s plus set-up and checks; stop a hung one
# well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
    })
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed; the benchmark needs the repository source "
              "(module repro) one directory above perfbench/", file=sys.stderr)
        return 1
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
