#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload pairs|backlog|dispatch \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
perfbench/ and the library sources in src/ under .bench_build/ (or under
$CARGO_TARGET_DIR when set); later calls rebuild only what changed.  The
benchmark's own output, ending with one JSON result line, goes to standard
output; build output goes to .bench_build/perfbench/build.log and, on
failure, to standard error.  Per-run records land in .bench_out/.

--self-test runs each workload briefly, clean and then with a duplicated,
a lost and a reordered item planted at the queue boundary, and checks that
the clean runs pass and every planted fault makes the run fail.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("pairs", "backlog", "dispatch")
FAULTS = ("dup", "lose", "reorder")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed (exit {rc}); see {log_path}")
    exe = bdir / "perfbench"
    if not exe.is_file():
        fail("build produced no perfbench binary")
    return exe


def run(exe, args, capture=False):
    cmd = [str(exe)] + args + ["--out-dir", str(OUT)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return p.returncode, (p.stdout or "")


def self_test(exe):
    failures = []
    for w in WORKLOADS:
        for fault in (None,) + FAULTS:
            args = ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0"]
            if fault:
                args += ["--inject", fault]
            rc, out = run(exe, args, capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want_ok = fault is None
            ok = (rc == 0 and result.get("correct") is True) if want_ok else \
                 (rc == 1 and result.get("correct") is False and result.get("failed", 0) > 0)
            verdict = "ok" if ok else "UNEXPECTED"
            print(f"{w:9s} {fault or 'clean':8s} exit={rc} correct={result.get('correct')} "
                  f"failed={result.get('failed')}  {verdict}")
            if not ok:
                failures.append((w, fault))
    print("self-test", "passed" if not failures else f"FAILED: {failures}")
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    exe = build()
    if a.self_test:
        return self_test(exe)
    rc, _ = run(exe, ["--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", a.trace])
    return rc


if __name__ == "__main__":
    sys.exit(main())
