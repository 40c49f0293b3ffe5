#!/usr/bin/env python3
"""Build psdp from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or "all" to run the four
in turn and print each one's metrics. The last line of standard output is
one JSON object with the keys "correct", "attempted", "failed" and
"metrics"; everything before it is the human-readable report (metrics by
name and unit, request count, fingerprint, failing request ids, the
determinism guard's verdict).

The script builds bin/psdp_cli.exe and the benchmark executable with dune,
clears PSDP_DOMAINS (so the pool is the program's own default) and pins
OCAMLRUNPARAM, runs the workload in a process of its own, and removes the
run's scratch files afterwards. Everything it writes stays under
.perfbench/ in the checkout. It exits non-zero, without printing a
result, when the checkout cannot be built or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["solve-small", "decide-large", "serve-lineage", "cluster-repeat"]

# OCaml 5.1's default minor heap, pinned so an inherited setting cannot
# change the collector's behaviour between runs.
OCAMLRUNPARAM = "s=256k"

BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Hash of the program and benchmark sources: keys the guard's sets."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git(*args):
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")

    for need in ["dune-project", "lib", "bin", "BENCHMARK.json"]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a psdp checkout: %s is missing under %s" % (need, ROOT))

    env = {k: v for k, v in os.environ.items()
           if k not in ("PSDP_DOMAINS", "OCAMLRUNPARAM")}
    env["OCAMLRUNPARAM"] = OCAMLRUNPARAM

    targets = ["./perfbench/bin/main.exe", "./bin/psdp_cli.exe"]
    try:
        build = subprocess.run(["dune", "build", "--root", ROOT, *targets],
                               cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    work = os.path.join(ROOT, ".perfbench")
    rev, dirty = "none", "unknown"
    top = git("rev-parse", "--show-toplevel")
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        rev = git("rev-parse", "HEAD") or "none"
        porcelain = git("status", "--porcelain")
        if porcelain is not None:
            dirty = "1" if porcelain else "0"
    source = source_digest()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        out, result = run_workload(name, args, env, work, rev, dirty, source)
        sys.stdout.write(out[:out.rstrip("\n").rfind("\n") + 1])
        results.append((name, result))
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s/%s" % (n, k): v
                        for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    sys.stdout.flush()


def run_workload(name, args, env, work, rev, dirty, source):
    """Run one workload in a process of its own; return its report and
    parsed result line. Exits (without a result) if the run fails."""
    run_dir = os.path.join(work, "run-%d" % os.getpid())
    state_dir = os.path.join(work, "state")
    os.makedirs(run_dir, exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "main.exe")
    cli = os.path.join(ROOT, "_build", "default", "bin", "psdp_cli.exe")
    cmd = [exe, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--state-dir", state_dir, "--cli", cli,
           "--source", source, "--rev", rev, "--dirty", dirty]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("%s exceeded %d s" % (name, RUN_TIMEOUT), 3)
    finally:
        stop_group(proc.pid)
    shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("%s exited with %d" % (name, proc.returncode), 3)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s printed no result line" % name, 3)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        fail("%s: metrics do not match BENCHMARK.json" % name, 4)

    os.makedirs(os.path.join(work, "logs"), exist_ok=True)
    log = os.path.join(work, "logs", "%s-seed%d-s%d-trace%d-%d.txt" % (
        name, args.seed, args.seconds, args.trace, int(time.time())))
    with open(log, "w") as fh:
        fh.write(out)
    return out, result


if __name__ == "__main__":
    main()
