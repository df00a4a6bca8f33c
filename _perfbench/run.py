#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the repository root:

    python3 _perfbench/run.py --workload paper_matrix --seed 1 --seconds 10 --trace 0

Every build product, the Go build cache and every temporary file stay
under the build directory ($CARGO_TARGET_DIR, default .bench_build) of
the checkout.  The benchmark's exit code and output pass through
unchanged; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")

    # Keep the go command's cache, module state and scratch files inside
    # the checkout, and never let it reach the network.
    go_env = dict(os.environ)
    go_env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
    })
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=go_env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    # The fuzz lint round-trip and the unpacked lint snapshot go under the
    # system temporary directory; point it inside the checkout.  No other
    # variable is changed for the benchmark process.
    run_env = dict(os.environ)
    run_env["TMPDIR"] = tmp
    ran = subprocess.run([binary, "--root", root] + sys.argv[1:], env=run_env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
