#!/usr/bin/env python3
"""Build gosmrd and the perfbench binary from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload svc-readmost-1m --seed 1 --seconds 10 --trace 0

Everything the build and the run write goes under $CARGO_TARGET_DIR
(default .bench_build) in the repository root: Go's build cache, the two
binaries and the span dumps of traced runs. The last line of standard
output is the JSON result; the exit code is non-zero when the build
fails, the run fails or a correctness check fails.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_env(build_dir):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    for d in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(build_dir, d), exist_ok=True)
    return env


def go_build(env, cwd, out, pkg):
    r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(f"perfbench: building {pkg} in {cwd} failed:\n{r.stdout}")
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "gosmrd")):
        sys.stderr.write("perfbench: run from the repository root (no go.mod or cmd/gosmrd here)\n")
        sys.exit(2)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = build_env(build_dir)
    bin_dir = os.path.join(build_dir, "bin")
    gosmrd = os.path.join(bin_dir, "gosmrd")
    bench_bin = os.path.join(bin_dir, "perfbench")
    go_build(env, ROOT, gosmrd, "./cmd/gosmrd")
    go_build(env, HERE, bench_bin, ".")

    cmd = [bench_bin, "-workload", a.workload, "-seed", str(a.seed), "-seconds", str(a.seconds),
           "-trace", str(a.trace), "-gosmrd", gosmrd, "-tracedir", os.path.join(build_dir, "trace")]
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        # The benchmark runs in its own session (so a timeout can kill its
        # gosmrd too); take it down with us.
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was killed\n")
        sys.exit(3)
    sys.exit(code)


if __name__ == "__main__":
    main()
