#!/usr/bin/env python3
"""Benchmark entry point for popp.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, the popp-serve daemon and
the benchmark program from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), generates the workload's inputs from the seed in a scratch
directory under .bench_work, runs the measurement, and prints the program's
output; its last line is the result JSON. Exits non-zero, without a result, when the build,
the generator or the measurement fails. Workloads: stream-csv, shard-cols,
serve-cols, mine-cols (see perfbench/WORKLOADS.md).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream-csv", "shard-cols", "serve-cols", "mine-cols")
RUN_TIMEOUT_S = 170  # the whole gen + run must end well within 180 s


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "popp_perfbench")


def source_id(root):
    """Git commit when available, else a digest of the library sources."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for sub in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()


def run_step(cmd, cwd, deadline, capture):
    """Runs one step in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("timed out: " + " ".join(cmd))
        return None, 1
    finally:
        # Reap anything the step left behind in its group (the daemon).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return out, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(root, ".bench_build"))
    try:
        binary = build(os.path.join(build_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 2

    work = os.path.join(root, ".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        started = time.monotonic()
        _, rc = run_step([binary, "gen"] + common, work, deadline, False)
        log("inputs generated in %.1f s" % (time.monotonic() - started))
        if rc != 0:
            log("input generation failed (exit %s)" % rc)
            return 1
        trace_out = os.path.join(
            out_dir, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
        out, rc = run_step(
            [binary, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--trace-out", trace_out, "--source", source_id(root)],
            work, deadline, True)
        if out is None:
            return 1
        sys.stdout.write(out.decode())
        sys.stdout.flush()
        return rc
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
