#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload soak --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary all live under
.bench_build/ in the current directory, so nothing is written outside it.
Arguments are passed to the benchmark binary unchanged (double-dash flags
are accepted). A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build", "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        # Build from the checkout alone: never fetch a module.
        "GOPROXY": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The same environment: a traced run reads its CPU profile through
    # `go tool pprof`, which must keep to .bench_build/ as well.
    proc = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
