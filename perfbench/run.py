#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

usage: python3 perfbench/run.py --workload <exact_topk|tbq_bound|served_churn>
                                --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); the run writes its scratch files to `.bench_run`.
Build output goes to stderr, so the last line of stdout is the run's JSON
result. Both the build and the run are time-limited: a run that hangs is
killed and the script exits non-zero without a result.
"""

import os
import pathlib
import signal
import subprocess
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_LIMIT_S = 850
RUN_LIMIT_S = 175


def git_rev() -> str:
    """The checkout's git revision, or "none" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main() -> int:
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")],
            env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: build exceeded {BUILD_LIMIT_S} s", file=sys.stderr)
        return 124
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_GIT_REV"] = git_rev()
    # A timer kills a run that overstays; the wait itself blocks. Waiting
    # with a timeout polls the child every few milliseconds, and that
    # polling stalled served_churn's writer thread for seconds.
    run = subprocess.Popen([str(target / "release" / "perfbench"), *sys.argv[1:]], env=env, cwd=ROOT)
    limit = threading.Timer(RUN_LIMIT_S, run.kill)
    limit.start()
    code = run.wait()
    limit.cancel()
    if code == -signal.SIGKILL:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s and was killed", file=sys.stderr)
        return 124
    return code


if __name__ == "__main__":
    sys.exit(main())
