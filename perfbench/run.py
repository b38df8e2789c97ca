#!/usr/bin/env python3
"""Entry point of the mcsim benchmark (see perfbench/README.md).

Run from the root of an mcsim checkout:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

It builds the mcsim CLI and the measuring program (perfbench/mcbench.ml)
from source into .bench_build, runs one workload with its scratch files
under .bench_work, and prints the result line last: one JSON object with
"correct", "attempted", "failed" and "metrics" (the end-to-end metrics
with --trace 0, the per-layer metrics of the traced run with --trace 1).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("table2", "steer-sampled", "serve-cached")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
TARGETS = ("./perfbench/mcbench.exe", "./bin/mcsim_cli.exe")
MANIFEST = "BENCHMARK.json"
# A run measures for --seconds per timed phase plus set-up; past this
# it is stuck, and its whole process group (daemons included) is killed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache", "disabled",
           "--display", "quiet", *TARGETS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed: " + " ".join(cmd))


def run_workload(args):
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "mcbench.exe")
    mcsim = os.path.join(BUILD_DIR, "default", "bin", "mcsim_cli.exe")
    work = os.path.join(WORK_DIR, args.workload)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mcsim", mcsim, "--work", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        # Stray processes of the run (a daemon left by a crash) go with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    keep_only_spans(work)
    if proc.returncode != 0:
        fail("workload %s exited with code %d" % (args.workload, proc.returncode))
    return out.splitlines()


def keep_only_spans(work):
    if not os.path.isdir(work):
        return
    for name in os.listdir(work):
        path = os.path.join(work, name)
        if name == "spans.csv":
            continue
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        else:
            os.remove(path)


def check_result(line, trace):
    """The result line must hold exactly the metrics BENCHMARK.json names
    for this kind of run, each in its unit: every workload reports every
    one of them."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int):
        raise ValueError("failed must be a whole number")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError("malformed metric %s" % name)
    if os.path.isfile(MANIFEST):
        with open(MANIFEST) as f:
            declared = json.load(f)["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            raise ValueError("metrics differ from %s: missing %s, undeclared %s, other unit %s"
                             % (MANIFEST, missing, extra, units))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="walker seed (serve-cached: stream seed); default 1")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="length of each timed phase; default 20")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("not the root of an mcsim checkout (dune-project, lib/ and bin/ are missing)")
    build()
    lines = run_workload(args)
    if not lines:
        fail("the workload printed no result line")
    try:
        check_result(lines[-1], args.trace)
    except ValueError as e:
        fail("malformed result line: %s" % e)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
