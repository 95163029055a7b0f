#!/usr/bin/env python3
"""Build the benchmark from the checkout's source and run it.

    python3 perfbench/run.py --workload serve-replicated --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Every file the build and the run write
(Go build cache, binary, generated data, traces) stays under
.bench_build/ in the checkout. The arguments are passed to the
benchmark binary unchanged; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: no go.mod at %s: run from a sparker checkout\n" % ROOT)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=HERE, env=env,
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    args = [binary, "--workdir", os.path.join(BUILD, "work")] + sys.argv[1:]
    os.chdir(ROOT)
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
