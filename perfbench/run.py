#!/usr/bin/env python3
"""Wall-clock benchmark for Fides: builds perfbench/fides_perf and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload global-closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds fides_perf (CMake, into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench) from the checkout's src/, runs one workload
and prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (and
writes the spans to <build dir>/traces/). The exit code is 0 only when every
output check passed.

--self-test runs every workload at a tiny size, checks that no operation
fails, that each metric named in BENCHMARK.json is emitted with its unit, and
that a forced output-check failure fails the run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("global-closed", "group-spec", "hotspot-audit")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds fides_perf; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fides", "cluster.hpp")):
        raise RuntimeError("fides sources not found under %s/src" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "fides_perf")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return "git:" + res.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_fides_perf(binary, workload, seed, seconds, trace, extra=()):
    """Runs fides_perf; returns (exit code, stdout lines, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--commit", source_id()]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed))]
    cmd += list(extra)
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if res.stderr:
        sys.stderr.write(res.stderr)
    lines = res.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None and (not isinstance(result, dict) or set(result) != RESULT_KEYS):
        result = None
    return res.returncode, lines, result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines, result = run_fides_perf(binary, workload, 7, 1, trace, ["--tiny"])
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or result["correct"] is not True:
                problems.append("%s: exit %d, result %r" % (tag, code, lines[-1:]))
                continue
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                problems.append("%s: attempted %r" % (tag, result["attempted"]))
            if result["failed"] != 0:
                problems.append("%s: %r operations failed" % (tag, result["failed"]))
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace] and
                               got[k] != expected[trace][k])
                problems.append("%s: missing %s, unexpected %s, wrong unit %s" %
                                (tag, missing, extra, wrong))
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    problems.append("%s: %s has no numeric value" % (tag, name))
        code, lines, result = run_fides_perf(binary, workload, 7, 1, False,
                                         ["--tiny", "--force-check-failure"])
        if code == 0 or result is None or result["correct"] is not False:
            problems.append("%s: a forced check failure did not fail the run (exit %d)" %
                            (workload, code))
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        binary = build()
        code, lines, result = run_fides_perf(binary, args.workload, args.seed, args.seconds,
                                         args.trace == 1)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 2
    if result is None:
        log("run.py: fides_perf printed no result (exit %d)" % code)
        for line in lines[-20:]:
            log(line)
        return code or 2
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
