#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload <feed_read|large_docs>
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Builds the release `ldbpp_server` and
`ldbpp_tool` of the checkout and the `servebench` package, then runs one
benchmark. Build output goes to $CARGO_TARGET_DIR (default
`.bench_build`), results and spans to `.bench_out/`. The last line of
standard output is the result JSON; the exit code is 0 only when every
answer was correct.

    python3 servebench/run.py --selftest

runs the benchmark's own tests: unit tests of the answer checker and
the span arithmetic, then a tiny run of each workload, traced and
untraced, checked against the metric names and units of
BENCHMARK.json.
"""

import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
TARGET = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
TARGET = os.path.abspath(TARGET)
BIN_DIR = os.path.join(TARGET, "release")
WORKLOADS = ["feed_read", "large_docs"]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def cargo(args, cwd):
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    # Build logs go to stderr: stdout ends with the result line.
    done = subprocess.run(["cargo"] + args, cwd=cwd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("run.py: cargo %s failed" % " ".join(args))


def build():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("run.py: no Cargo.toml here; run from the root of a checkout")
    cargo(["build", "--release", "--offline", "--bin", "ldbpp_server", "--bin", "ldbpp_tool"], ROOT)
    cargo(["build", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")], ROOT)


def bench(argv, timeout):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    cmd = [os.path.join(BIN_DIR, "servebench"), "--bin-dir", BIN_DIR,
           "--out", os.path.join(ROOT, ".bench_out")] + argv
    # Its own process group, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("run.py: benchmark exceeded %d s" % timeout)
    return proc.returncode, out.splitlines()


def selftest():
    cargo(["test", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")], ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for metrics in want.values():
        for m in metrics:
            assert NAME_RE.match(m["name"]), "bad metric name %r" % m["name"]
    for w in spec["workloads"]:
        assert NAME_RE.match(w["name"]), "bad workload name %r" % w["name"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = bench(["--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--tiny"], 120)
            assert code == 0, "%s trace=%d exited %d" % (workload, trace, code)
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect = {m["name"]: m["unit"] for m in want[trace]}
            assert got == expect, "%s trace=%d metrics differ: %s" % (
                workload, trace, sorted(set(got.items()) ^ set(expect.items())))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print("selftest: %s trace=%d ok (%d metrics)" % (workload, trace, len(got)))
    print("selftest: ok")


def main():
    build()
    if sys.argv[1:] == ["--selftest"]:
        selftest()
        return
    code, lines = bench(sys.argv[1:], 175)
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
