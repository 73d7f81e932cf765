#!/usr/bin/env python3
"""Build the LISA benchmark from source and run one workload.

Usage (from the repository root):

    python3 lisabench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Configures and builds lisabench/ (which compiles liblisa from src/) into
.bench_build/ at the repository root, then runs the lisabench binary
with every LISA_* environment variable cleared. Build output goes to
stderr; the binary's stdout passes through unchanged, so its last line
is the result JSON. Exits non-zero, without a result, when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lisabench")
# A run must end within 180 s; the binary is stopped a little earlier.
RUN_TIMEOUT_S = 175


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("LISA_")}


def build(targets):
    """Configure (once) and build @p targets; False on failure."""
    env = clean_env()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def source_id():
    """SHA-1 over the sources the binary is built from."""
    h = hashlib.sha1()
    for top in ("src", "lisabench"):
        for dirpath, dirnames, names in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(names):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args):
    """Run the built binary with @p args; returns its exit code."""
    # The work dir is passed relative to ROOT so that socket paths under
    # it stay within the 108-byte Unix socket limit.
    cmd = [BINARY] + args + ["--work-dir", os.path.relpath(BUILD, ROOT),
                             "--commit", commit(),
                             "--source-id", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env())
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"lisabench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    if not build(["lisabench"]):
        print("lisabench: build failed", file=sys.stderr)
        return 1
    return run_binary(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
