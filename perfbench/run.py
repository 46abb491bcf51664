#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--delay F]

Run from the repository root.  Builds perfbench/main.exe with dune, runs
it, and passes its output on after a stamp line with the git revision
and a digest of the sources.  Traced runs also write their spans as
Chrome trace-event JSON to perfbench/out/.  Exits non-zero without a
result if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def git_rev():
    """HEAD of a git checkout in the current directory, read without git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "out")
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--delay", type=float, default=0.0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root (no dune-project or lib/ here)")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--delay", str(args.delay)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("benchmark ran longer than %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        die("benchmark exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        die("benchmark printed no result")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"stamp_host": {
        "git_rev": git_rev(), "source_sha256": source_digest(),
        "nproc": os.cpu_count()}}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
