#!/usr/bin/env python3
"""Build the benchmark and the real `rescue-server` from source, then run
one workload and pass its result through.

    python3 perfbench/run.py --workload batch-dqsq --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. Binaries go to `$CARGO_TARGET_DIR`
(default `.bench_build`), working files (the served `.pn` nets) to
`.bench_work`. The last stdout line is the result object; the script exits
non-zero without printing one if the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["batch-dqsq", "serve-churn"]
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "rescue-perfbench", "--bin", "rescue-perfbench",
            "-p", "rescue-server", "--bin", "rescue-server",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed ({build.returncode})")

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "rescue-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(release, "rescue-server"),
        "--work-dir", os.path.join(root, ".bench_work"),
    ]
    # Own process group, so a timeout also stops a server child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"run failed ({proc.returncode})")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
