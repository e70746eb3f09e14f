#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload serve_chained --seed 1 --seconds 45 --trace 0

Builds the Go program in perfbench/ from the repository's sources into
.bench_build/ at the repository root, keeping the Go build cache and
temporary files there too, then replaces itself with the program, run
from the repository root with the same arguments. A failed build exits
with status 2 and prints nothing on standard output.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    go = shutil.which("go") or "/usr/local/go/bin/go"
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    built = subprocess.run(
        [go, "build", "-o", binary, "."],
        cwd=here, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + built.stderr)
        return 2
    os.chdir(root)
    os.execv(binary, [binary] + sys.argv[1:])
    return 2  # not reached: execv replaces the process


if __name__ == "__main__":
    sys.exit(main())
