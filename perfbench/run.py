#!/usr/bin/env python3
"""End-to-end benchmark of the pipesched binary.

Builds pipesched and the benchmark runner from this checkout, then runs one
workload and prints every metric by name with its unit; the last line of
standard output is the result as one JSON object:

    python3 perfbench/run.py --workload warm_stdio --seed 1 --seconds 20 --trace 0

Workloads: warm_stdio, cold_batch, http_zipf (see perfbench/README.md).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 only when every answer matched its reference.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("warm_stdio", "cold_batch", "http_zipf")
TARGETS = ("pipesched_cli", "perfbench_runner", "perfbench_selftest")
RUNNER_TIMEOUT_S = 170


def fail(message, log=None):
    if log and os.path.exists(log):
        with open(log, errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(log, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("configure failed", log)
        rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs, "--target", *TARGETS],
                             stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        fail("build failed", log)


def cache_value(name):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(name + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_id():
    """The git commit when the checkout is a repository, else a digest of the
    program's sources (src, include, tools and the top-level build file)."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            return subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                           stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            h.update(sha256(name).encode())
    return "sources-sha256:" + h.hexdigest()


def compiler():
    cxx = cache_value("CMAKE_CXX_COMPILER")
    try:
        return subprocess.check_output([cxx, "--version"], text=True).splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return cxx


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no pipesched sources next to perfbench/ (expected %s)" % ROOT)
    build()
    binary = os.path.join(BUILD, "pipesched", "tools", "pipesched")
    runner = os.path.join(BUILD, "perfbench_runner")
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        fail("harness self-test failed:\n" + selftest.stdout)

    nproc = os.cpu_count() or 1
    print("record nproc=%d build_type=%s compiler=%r source=%s pipesched_sha256=%s "
          "workload=%s seed=%d seconds=%g trace=%d" % (
              nproc, cache_value("CMAKE_BUILD_TYPE"), compiler(), source_id(),
              sha256(binary), args.workload, args.seed, args.seconds, args.trace), flush=True)

    work = os.path.join(BUILD_ROOT, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [runner, "--bin", binary, "--work", work, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    # Own process group: on a timeout the whole tree (runner, servers) is stopped.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("runner timed out after %d s" % RUNNER_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
