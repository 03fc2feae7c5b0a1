#!/usr/bin/env python3
"""Build and run the tm-birthday stack benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a cargo package of its
own that depends on the repo's crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload, and prints:

* the benchmark's context line (configuration, fixed rates, rung verdicts),
* a host line (nproc, CPU model, rustc version, git revision or a digest
  of the sources when there is no git checkout, seed, rates),
* as the last line, the result: `correct`, `attempted`, `failed`, `metrics`.

Exits non-zero without a result line if the build fails, and with the
benchmark's own code (3) if a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 850
# Per workload, beyond --seconds: set-ups, warm-ups, drains of up to 5 s
# after a phase, the traced run's replays.
RUN_MARGIN_S = 60


def fail(msg, code=1):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(os.getcwd(), target)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """SHA-256 over every source and manifest file the benchmark builds."""
    h = hashlib.sha256()
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def host_fingerprint():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # Only a repository rooted here identifies these sources.
    top = command_output(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    rev = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"]) if top and os.path.samefile(top, ROOT) else ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": command_output(["rustc", "-V"]),
        "git_revision": rev or "none (not a git checkout)",
        "source_sha256": source_digest(),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=("0", "1"), required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    binary = build(target_dir())
    if args.workload == "all":
        listed = subprocess.run([binary, "--list"], stdout=subprocess.PIPE, text=True, timeout=30)
        workloads = max(1, len(listed.stdout.split()))
    else:
        workloads = 1
    timeout = workloads * (args.seconds + RUN_MARGIN_S)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 3) or not lines:
        fail(f"benchmark exited with code {done.returncode}", done.returncode or 1)

    try:
        parsed = [json.loads(line) for line in lines]
    except ValueError:
        fail("the benchmark printed a line that is not JSON")
    if set(parsed[-1]) != {"correct", "attempted", "failed", "metrics"}:
        fail("the benchmark's last line is not a result")

    host = {"host": host_fingerprint(), "seed": args.seed, "seconds": args.seconds}
    for line, obj in zip(lines, parsed):
        if "correct" in obj:
            print(json.dumps(host))
        print(line)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
