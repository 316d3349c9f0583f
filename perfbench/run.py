#!/usr/bin/env python3
"""Builds the release daemons and the benchmark, then runs one workload.

    python3 perfbench/run.py --workload <predict_open|scan_batch|drift_swap>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
(default `.bench_build`); run files and spans go to
`$CARGO_TARGET_DIR/perfbench`. The last stdout line is the JSON result.
"""

import os
import signal
import subprocess
import sys

# Wall-clock cap on one benchmark run, builds excluded.
RUN_TIMEOUT_S = 170


def build(args):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    for part in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, part)):
            sys.exit(f"perfbench: run from the repository root ({part} not found)")
    build(["-p", "phishinghook-serve", "-p", "phishinghook-ingest", "--bins"])
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")])

    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(release, "perfbench"), "--bin-dir", release, "--work-dir", work]
    cmd += sys.argv[1:]
    # Its own process group, so every daemon it starts goes with it, also
    # when this script is terminated.
    proc = subprocess.Popen(cmd, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
