#!/usr/bin/env python3
"""Builds and runs the geomcast benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is compiled from source (perfbench/CMakeLists.txt pulls in
the repository's own build of the geomcast library) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, relative to
the repository root. Build output goes to stderr; the benchmark binary's stdout, whose
last line is the JSON result, passes through unchanged. A failed build exits
non-zero without printing a result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(directory, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def git(*args):
    """Output of a git command run at the root, or None when it fails."""
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """A digest of the library and benchmark sources and build files."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    for path in (os.path.join(ROOT, "CMakeLists.txt"), os.path.join(HERE, "CMakeLists.txt")):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def source_id():
    """The git commit when the root is a git checkout, with the source digest
    appended when the work tree has uncommitted changes; else the digest."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        head = git("rev-parse", "HEAD")
        if head:
            if git("status", "--porcelain"):
                return "git-%s-dirty-%s" % (head, source_digest())
            return "git-" + head
    return source_digest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["fanout", "churn", "scale100k"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    directory = build_dir()
    if not build(directory):
        return 3
    sys.stdout.flush()
    if args.self_test:
        return subprocess.run([os.path.join(directory, "perfbench_selftest")]).returncode

    spans_dir = os.path.join(directory, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        os.path.join(directory, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--source-id", source_id(),
    ]
    if args.trace:
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
