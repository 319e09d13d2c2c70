#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny] [--middles <m>]

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, a Release build of the library from
src/ plus the benchmark binary) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs rebuild incrementally. Traced runs write their Chrome
traces to .bench_out/. The last line of standard output is the result
object; the line before it is the binary's report (host, build, sample
counts, notes).

Exits non-zero without printing a result when the sources are missing, the
build fails, the binary fails, or its metric names and units do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ (run from a full checkout)", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", build_dir, "-j", "3"])
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def bounded(command, timeout, stdout):
    """Run `command` in its own process group; on timeout kill the whole
    group (a build's compilers too) and wait for it. Returns (code, stdout)."""
    with subprocess.Popen(command, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                          text=True, start_new_session=True) as child:
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            fail(f"timed out after {timeout} s: {' '.join(command)}")
        return child.returncode, out


def step(command):
    code, _ = bounded(command, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        fail(f"failed ({code}): {' '.join(command)}")


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json promises for this run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--middles", type=int)
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--size", args.size]
    if args.middles is not None:
        command += ["--middles", str(args.middles)]
    code, out = bounded(command, RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        fail(f"perfbench exited with {code}", code if code > 0 else 1)
    lines = out.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    result = json.loads(lines[-1])
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_metrics(args.trace == "1")
    if emitted != expected:
        fail(f"metrics differ from BENCHMARK.json: emitted {sorted(emitted.items())}, "
             f"expected {sorted(expected.items())}")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
