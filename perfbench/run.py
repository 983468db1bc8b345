#!/usr/bin/env python3
"""Build and run the secmr benchmark from the root of a checkout.

    python3 perfbench/run.py --workload shamir --seed 1 --seconds 20 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that builds the
repository's packages from source through a replace directive. Every
build and run artifact stays under .bench_build/ in the checkout (or
under $CARGO_TARGET_DIR when it is set): the Go build cache, temporary
files, the benchmark binary, span dumps and the service's store.
Arguments are passed through to the binary; the last line it prints is
the JSON result.
"""
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "TMPDIR": tmp,
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           timeout=BUILD_TIMEOUT_S)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build, "perfbench-out")]
    proc = subprocess.Popen([binary] + args, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _exit_on_signal(signum, _frame):
    # Turn SIGTERM into SystemExit so main's cleanup stops the child.
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_signal)
    sys.exit(main())
