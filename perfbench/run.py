#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload hotloop --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list

Every argument is passed to the benchmark binary (see perfbench/README.md).
The Go build cache, the binary, the run's stores and the span files all
live under .bench_build/ in the repository root, and nothing is fetched:
the benchmark module depends only on the repository module, found through
a relative replace directive. Outside a full checkout that replace cannot
resolve, the build fails, and this script exits non-zero without printing
a result.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent
    build = root / ".bench_build"
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": str(build / "gocache"),
            "GOPATH": str(build / "gopath"),
            "GOMODCACHE": str(build / "gopath" / "pkg" / "mod"),
            "GOTMPDIR": str(tmp),
            "TMPDIR": str(tmp),
            # Keeps the toolchain's config and telemetry files in the build
            # directory too.
            "XDG_CONFIG_HOME": str(build / "config"),
            "GOFLAGS": "",
            "GOTOOLCHAIN": "local",
            "GOPROXY": "off",
            "GOWORK": "off",
        }
    )

    binary = build / "bin" / "perfbench"
    try:
        built = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", str(binary), "."],
            cwd=here,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:] + ["--workdir", str(build / "work")]
    try:
        ran = subprocess.run([str(binary)] + args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
