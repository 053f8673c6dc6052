#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build at the root). The benchmark's stdout passes through
unchanged; its last line is the result JSON. The serving workloads make the
servers log one "connection closed" line per RETRY resync; those lines are
counted (the benchmark reports them as server.retry_share) and summarised
instead of being forwarded.
"""

import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESYNC_LINE = "connection closed: malformed frame: batch id"
# A run must end within 180 s; stop a hung one before that.
RUN_LIMIT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([binary] + sys.argv[1:], stderr=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(RUN_LIMIT_S, proc.kill)
    timer.start()
    resyncs = 0
    try:
        for line in proc.stderr:
            if line.startswith(RESYNC_LINE):
                resyncs += 1
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if resyncs:
        print(f"run.py: {resyncs} connection-closed lines (RETRY resyncs) not shown", file=sys.stderr)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
