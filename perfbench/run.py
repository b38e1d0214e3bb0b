#!/usr/bin/env python3
"""Builds and runs the dagmap benchmark.

    python3 perfbench/run.py --workload table3_suite --seed 1 --seconds 5 --trace 0

Run it from the root of a source tree.  It configures and builds the
`perfbench` program (perfbench/CMakeLists.txt, which compiles the mapper
from ../src) into $CARGO_TARGET_DIR or .bench_build, gives the run a fresh
scratch directory under the build directory, runs one workload in one
process, and exits with that process's code.  The last line of standard
output is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("table3_suite", "scale_subject", "serve_mixed")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over the mapper sources, for the run metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(root, build_dir, env):
    """Configures (once) and builds the program; returns its path or None."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--record-expected", metavar="FILE",
                    help="table3_suite / scale_subject: write the expected-QoR "
                         "table to FILE instead of checking against the "
                         "recorded one")
    args = ap.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no mapper sources at {root / 'src'}; run from a dagmap source tree")
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Compilers and the program keep their temporary files in the source tree.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(root, build_dir, env)
    if binary is None:
        log("build failed")
        return 2

    runs = build_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--work-dir", str(work_dir),
           "--data-dir", str(bench_dir / "data"),
           "--catalogue", str(root / "BENCHMARK.json"),
           "--meta", f"git_rev={git_rev(root)}",
           "--meta", f"src_digest={source_digest(root)}"]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.record_expected:
        cmd += ["--record-expected", args.record_expected]

    child = subprocess.Popen(cmd, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
