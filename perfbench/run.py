#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload sweep-singlepath --seed 1 --seconds 30 --trace 0

builds cmd/beamserve and the perfbench binary from source into
.bench_build/ (skipped when no Go source changed since the last build),
then runs the binary from the repository root. Everything the build
writes (Go build cache, temp files, Go's config) stays under
.bench_build/. The binary's last stdout line is the result object.

Repeat mode runs the workloads interleaved, one process per run, with
seeds 1..N, and prints each metric's median,
quartiles and quartile spread (as a share of the median):

    python3 perfbench/run.py --repeat 10 --seconds 30 [--workloads a,b] [--trace 1]
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
WORKLOADS = ["sweep-singlepath", "scenario-mobility", "serve-estimate", "serve-align-multipath"]
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    return env


def source_stamp():
    """Digest of every Go source's path, size and mtime under ROOT."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for f in sorted(filenames):
            if f.endswith((".go", ".s")) or f == "go.mod":
                p = os.path.join(dirpath, f)
                st = os.stat(p)
                h.update(f"{os.path.relpath(p, ROOT)}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def build():
    gomod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(gomod) or not open(gomod).readline().startswith("module mmwalign"):
        fail(f"{ROOT} is not the mmwalign repository (no go.mod for module mmwalign)")
    stamp_path = os.path.join(BUILD, "stamp")
    stamp = source_stamp()
    bins = [os.path.join(BIN, "beamserve"), os.path.join(BIN, "perfbench")]
    if all(os.path.isfile(b) for b in bins) and os.path.isfile(stamp_path) and open(stamp_path).read() == stamp:
        return bins
    for d in ("gocache", "tmp", "gopath", "config", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = go_env()
    steps = [
        (["go", "build", "-o", bins[0], "./cmd/beamserve"], ROOT),
        (["go", "build", "-o", bins[1], "."], HERE),
    ]
    for cmd, cwd in steps:
        try:
            r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            fail("the go toolchain is not on PATH")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} (in {cwd})", 1)
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return bins


def run_once(bins, workload, seed, seconds, trace, capture=False):
    """Runs the benchmark binary in its own process group; on timeout
    the whole group (it and any beamserve child) is killed and reaped."""
    cmd = [bins[1], "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-beamserve", bins[0]]
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S}s and was killed", 1)
    return p.returncode, (out.decode() if capture else "")


def repeat(bins, args):
    names = args.workloads.split(",") if args.workloads else WORKLOADS
    values = {w: {} for w in names}
    for k in range(args.repeat):
        seed = k + 1
        for w in names:
            t0 = time.monotonic()
            code, out = run_once(bins, w, seed, args.seconds, args.trace, capture=True)
            took = time.monotonic() - t0
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                fail(f"{w} seed {seed} exited {code}", 1)
            for line in lines:
                if line.startswith(("scaling:", "generator:")):
                    print(f"{w} seed {seed}: {line}", file=sys.stderr)
            res = json.loads(lines[-1])
            flag = "" if res["correct"] else "  INCORRECT"
            vals = " ".join(f"{m}={v['value']:.6g}" for m, v in sorted(res["metrics"].items()))
            print(f"{w} seed {seed}: attempted {res['attempted']} failed {res['failed']}{flag} {vals} ({took:.1f} s)", file=sys.stderr)
            for m, v in res["metrics"].items():
                values[w].setdefault(m, []).append(v["value"])
    print(f"{'workload':24s} {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for w in names:
        for m, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w:24s} {m:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0, help="repeat mode: runs per workload")
    ap.add_argument("--workloads", default="", help="repeat mode: comma-separated subset")
    args = ap.parse_args()
    if not args.repeat and not args.workload:
        fail("--workload is required (or --repeat N)")
    bins = build()
    if args.repeat:
        repeat(bins, args)
        return
    code, _ = run_once(bins, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
