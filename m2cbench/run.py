#!/usr/bin/env python3
"""One benchmark command for m2c.

    python3 m2cbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 m2cbench/run.py --self-check

Builds the compiler and the m2cbench binary from source into .bench_build/
(a Release build with assertions on, like every build of this repository),
then runs one workload: a "stamp" line with host, build and input sizes,
then as the last line one JSON object with "correct", "attempted", "failed"
and "metrics".  Run from the repository root; everything it writes stays
under .bench_build/.

The binary reports only what the workload observes.  This script checks
that result against BENCHMARK.json: every end-to-end metric (untraced), and
every per-layer metric the workload's path reaches (traced, see REACHES),
present with its declared unit.  A traced result then gets the per-layer
metrics the path does not reach, as 0, and the stamp lists them under
"unreached".  A result that fails the check is not printed.

--self-check runs every workload at a tiny size, once untraced and once
traced, and also fails if any output check failed, or a metric the workload
must observe reads 0 (beyond MAY_READ_ZERO).
"""

import argparse
import fnmatch
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "m2cbench"
M2CD = BUILD_DIR / "m2c" / "daemon" / "m2cd"
RUN_TIMEOUT_S = 170

_SERVE = ["server_ms.*", "net.*", "cache.*", "build.*", "service.*",
          "sched.*_per_req", "sched.requests.*", "trace.*"]
# The per-layer metrics each workload's path reaches, as patterns over
# BENCHMARK.json's per_layer names.  A traced run must report all of them.
REACHES = {
    "suite-cold": ["*.t1", "*.t4", "opt.*", "objfile.*", "speedup.*",
                   "trace.*"],
    "daemon-edit": _SERVE,
    "farm-replay": _SERVE + ["farm.*"],
}
# Reached metrics that read 0 on a clean tree, per workload, and why.
MAY_READ_ZERO = {
    "suite-cold": {
        "merge.busy_ms.*": "no Merge task is spawned; codegen concatenates",
        "sched.steals.t1": "one worker has no one to steal from",
        "sched.barrier_wait_ms.t1": "at P=1 the lexor is done before "
                                    "any reader waits on its tokens",
    },
    "daemon-edit": {
        "service.interface.parses_per_req": "body edits reparse no "
                                            "interface of the warm pool",
    },
    "farm-replay": {
        "build.compiled_per_req": "every module is a whole-module hit",
        "service.interface.parses_per_req": "nothing compiles, so no "
                                            "interface is parsed",
        "sched.tasks_per_req": "nothing compiles, so no task runs",
        "sched.events_per_req": "nothing compiles, so no event fires",
        "sched.requests.deferred": "nothing compiles, so nothing queues",
        "farm.spill_ratio": "4 clients stay under the spill threshold",
        "farm.requests.retried": "no worker fails on a clean tree",
    },
}


def log(msg):
    print(f"m2cbench: {msg}", file=sys.stderr, flush=True)


def matches(name, patterns):
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


def build():
    """Configures once, then brings the build up to date (a no-op when it is)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "m2cbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def revision():
    """The git commit when ROOT is a checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0 and done.stdout.strip():
                return done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def run_once(workload, seed, seconds, trace, tiny, rev):
    """Runs the m2cbench binary; returns (exit code, stdout lines)."""
    workdir = BUILD_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           # Relative to the checkout: unix socket paths must stay short.
           "--workdir", str(workdir.relative_to(ROOT)),
           "--m2cd", str(M2CD), "--revision", rev]
    if tiny:
        cmd.append("--tiny")
    # Own process group: on timeout the farm's worker processes go too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def complete(spec, workload, trace, lines):
    """Checks the binary's result against BENCHMARK.json and completes it.

    Returns (lines to print, problems, names the workload must observe)."""
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    required = [n for n in declared
                if not trace or matches(n, REACHES[workload])]
    problems = [f"reports undeclared metric {n}"
                for n in metrics if n not in declared]
    for name in required:
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing {name}")
        elif got.get("unit") != declared[name]:
            problems.append(f"{name} unit {got.get('unit')!r}, "
                            f"declared {declared[name]!r}")
    unreached = [n for n in declared if n not in required]
    for name in unreached:
        metrics.setdefault(name, {"value": 0, "unit": declared[name]})
    out = []
    for line in lines[:-1]:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
            stamp["unreached"] = unreached
            line = "stamp " + json.dumps(stamp)
        out.append(line)
    out.append(json.dumps(result))
    return out, problems, required


def self_check(spec, rev):
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            code, lines = run_once(workload, 1, 1, trace, True, rev)
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            if not any(l.startswith("stamp ") for l in lines):
                problems.append(f"{where}: no stamp line")
            lines, found, required = complete(spec, workload, trace, lines)
            problems += [f"{where}: {p}" for p in found]
            result = json.loads(lines[-1])
            if (not result["correct"] or result["failed"] != 0
                    or result["attempted"] < 1):
                problems.append(f"{where}: failed_ratio "
                                f"{result['failed']}/{result['attempted']}")
            for name in required:
                value = result["metrics"].get(name, {}).get("value")
                if value is not None and not math.isfinite(value):
                    problems.append(f"{where}: {name} reads {value}")
                elif value == 0 and not matches(name,
                                                MAY_READ_ZERO[workload]):
                    problems.append(f"{where}: {name} reads 0")
            log(f"{where}: {len(required)} metrics observed, "
                f"{result['attempted']} checked operations")
    for p in problems:
        log(f"SELF-CHECK: {p}")
    log("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.self_check and args.workload not in REACHES:
        ap.error(f"--workload must be one of {', '.join(REACHES)}")

    if not build():
        return 1
    rev = revision()
    if args.self_check:
        return self_check(spec, rev)
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace,
                           False, rev)
    if code not in (0, 1) or not lines:
        return code or 3
    lines, problems, _ = complete(spec, args.workload, args.trace, lines)
    if problems:
        for p in problems:
            log(f"result does not match BENCHMARK.json: {p}")
        return 3
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
