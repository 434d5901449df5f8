#!/usr/bin/env python3
"""Builds the benchmark harness and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload forest-blob3k --seed 1 --seconds 36 --trace 0

The harness (perfbench/src/main.rs) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root). Build
output goes to stderr, so the last line of stdout is the harness's JSON
result. With --trace 1 the recorded spans are written to
.bench_out/spans-<workload>-seed<seed>.jsonl.

    python3 perfbench/run.py --self-check [--workload W] [--seed N]

checks determinism instead: two runs of one seed must print the same
fingerprint (rounds, per-phase rounds, beeps, parents digests), and the
next seed must generate different inputs.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["forest-blob3k", "spt-blob30k", "churn-spt-blob10k"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Runs `cmd` to completion; kills it and waits if it overruns."""
    with subprocess.Popen(cmd, cwd=ROOT, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{cmd[0]} exceeded {timeout} s")
        return proc.returncode, out


def build():
    """Builds the harness and returns the path of its executable."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
        env=env,
    )
    if code != 0:
        fail("build failed (the benchmark needs the repository's crates next to it)")
    return os.path.join(ROOT, target, "release", "perfbench")


def self_check(exe, workloads, seed):
    def fingerprint(s):
        code, out = run(
            [exe, "--workload", w, "--seed", str(s), "--passes", "1", "--trace", "0", "--fingerprint"],
            RUN_TIMEOUT_S,
            stdout=subprocess.PIPE,
            text=True,
        )
        if code != 0:
            fail(f"{w} seed {s} failed its checks", 1)
        return next(l for l in out.splitlines() if l.startswith("fingerprint "))

    ok = True
    for w in workloads:
        a, b, other = fingerprint(seed), fingerprint(seed), fingerprint(seed + 1)
        same_seed = a == b
        inputs = lambda f: f.split('"inputs":"')[1][:16]
        new_inputs = inputs(a) != inputs(other)
        print(f"{w}: seed {seed} repeats {'exactly' if same_seed else 'DIFFERENTLY'}; "
              f"seed {seed + 1} inputs {'differ' if new_inputs else 'ARE IDENTICAL'}")
        ok = ok and same_seed and new_inputs
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()

    exe = build()
    if a.self_check:
        self_check(exe, [a.workload] if a.workload else WORKLOADS, a.seed)
    if a.workload is None:
        fail("--workload is required")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--spans-out",
                os.path.join(ROOT, ".bench_out", f"spans-{a.workload}-seed{a.seed}.jsonl")]
    sys.stdout.flush()
    code, _ = run(cmd, RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
