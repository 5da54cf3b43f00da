#!/usr/bin/env python3
"""Build corebist from source and run one workload of its benchmark.

    python3 corebench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 corebench/run.py --selftest

Run from the root of a corebist checkout. The first run configures and
builds the library and the benchmark into .bench_build/ (later runs only
re-check the build). The benchmark prints every metric by name and unit;
its last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
per-layer metrics. The printed names and units are checked against
BENCHMARK.json, and the full record (metadata, every metric, span totals)
is written to .bench_build/results/<workload>-seed<N>-trace<T>.json.
Exit status is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1
RECORD_PREFIX = "corebench-record "


def fail(msg, code=2):
    print(f"corebench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    """Run a build step, appending its output to `log`; exit on failure.
    The compiler's temporary files stay inside the build directory."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                            env=env).returncode
    if rc != 0:
        tail = Path(log).read_text().splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed ({' '.join(cmd[:3])} ...), log: {log}")


def build(targets):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no corebist source tree next to {BENCH_DIR}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    cache = CMAKE_DIR / "CMakeCache.txt"
    if cache.is_file() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n"
                            not in cache.read_text()):
        shutil.rmtree(CMAKE_DIR)  # configured for another checkout
    if not cache.is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR)]
                   + gen, log)
    run_logged(["cmake", "--build", str(CMAKE_DIR), "-j", BUILD_JOBS,
                "--target"] + targets, log)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository
    (git is not asked to search the directories above it)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_benchmark(cmd):
    """Run the benchmark in its own process group, so a timeout also
    stops any fault-sim worker it forked."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[2]} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out, err


def check_against_spec(result, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = spec["per_layer" if trace else "end_to_end"]
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in want.keys() & got.keys()
                       if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=["bist_qualify", "atpg_fullscan", "soc_floor"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        build(["corebench_selftest"])
        sys.exit(subprocess.run([str(CMAKE_DIR / "corebench_selftest")])
                 .returncode)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be in [1, 120]")

    build(["corebench"])
    out_dir = BUILD_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(CMAKE_DIR / "corebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    returncode, stdout, stderr = run_benchmark(cmd)
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if returncode not in (0, 1) or not lines:
        sys.stdout.write(stdout)
        fail(f"{args.workload} exited with status {returncode}")

    result = json.loads(lines[-1])
    record = {}
    for line in lines:
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
    record["meta"] = dict(record.get("meta", {}), git_sha=git_sha(),
                          source_sha256=source_digest(),
                          nproc=os.cpu_count(), seed=args.seed)
    record["result"] = result
    record["benchmark"] = json.loads((ROOT / "BENCHMARK.json").read_text())
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for line in lines[:-1]:
        print(line)
    meta = record["meta"]
    print(f"meta: git_sha={meta['git_sha']} "
          f"source_sha256={meta['source_sha256'][:16]} record={path}")
    check_against_spec(result, args.trace == 1)
    print(json.dumps(result), flush=True)
    sys.exit(0 if returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
