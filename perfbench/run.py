#!/usr/bin/env python3
"""PCR data-path benchmark: build, run one workload, or measure steadiness.

Run one workload (the form BENCHMARK.json names), from the repository root:

    python3 perfbench/run.py --workload serve-cold-mixed --seed 1 \
        --seconds 15 --trace 0

It builds the program's libraries and the benchmark program from source
(CMake, into $CARGO_TARGET_DIR or .bench_build/). A first process generates
the seed's inputs into .bench_cache/ if they are missing, and the files are
flushed to storage. Then the workload runs in a process of its own, which
only loads the inputs. Its output passes through: diagnostics on stderr, a
machine descriptor line and, last, the result JSON on stdout.

Other commands:

    python3 perfbench/run.py steady --workload W [--runs 10]
        [--first-seed 1] [--other PATH] [--trace-overhead]
    python3 perfbench/run.py selftest

`steady` runs one workload N times, each for BENCHMARK.json's run_seconds,
with seeds first-seed..first-seed+N-1, and prints each end-to-end metric's
median, quartiles and spread (IQR / median).
With --other PATH (another checkout holding perfbench/) it alternates the
two builds run by run (A B, B A, A B, ...) and prints both plus the ratio of
medians. With --trace-overhead it pairs every run with a traced run of the
same seed and prints traced minus untraced medians.

`selftest` runs every workload twice, once with one delivered image altered
and once with one record's deliveries left out, and fails unless the
checker rejects every one of those runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workload -> the dataset its inputs are generated for (inputs.cc).
DATASETS = {
    "loader-ladder-remote": "imagenet_like",
    "serve-warm-pixels": "celebahq_like",
    "serve-cold-mixed": "ham10000_like",
}
WORKLOADS = list(DATASETS)
RUN_TIMEOUT_S = 170
SELFTEST_SECONDS = 8


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    out = build_dir()
    binary = os.path.join(out, "pcr_perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "pcr_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("[perfbench] build failed: " + " ".join(cmd))
            return None
    return binary


def run_bench(binary, args, capture):
    """Runs the benchmark program from the repository root; kills it on
    timeout."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("[perfbench] run exceeded %ds; killed" % RUN_TIMEOUT_S)
        return 124, "", ""
    return proc.returncode, out or "", err or ""


def prepare(binary, workload, seed):
    """Generates the seed's inputs in a process of their own, then flushes
    them to storage, so the measured run starts with none of that work
    pending."""
    code, _, _ = run_bench(binary, ["--prepare", "--workload", workload,
                                    "--seed", str(seed), "--seconds", "1",
                                    "--trace", "0"], capture=False)
    if code != 0:
        log("[perfbench] preparing inputs failed")
        return False
    cache = os.path.join(ROOT, ".bench_cache")
    prefix = "%s-seed%d-v" % (DATASETS[workload], seed)
    for entry in os.listdir(cache):
        if not entry.startswith(prefix):
            continue
        for dirpath, _, files in os.walk(os.path.join(cache, entry)):
            for name in files:
                fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
    return True


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def cmd_run(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args(argv)
    binary = build()
    if binary is None or not prepare(binary, a.workload, a.seed):
        return 1
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    code, _, _ = run_bench(binary, args, capture=False)
    return code


def one_run(root, workload, seed, seconds, trace):
    """One run through `root`'s own run.py; returns the result object."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # Each checkout builds in its own tree.
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S + 900, env=env)
    result = last_json(done.stdout)
    if done.returncode != 0 or result is None or "metrics" not in result:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit("[perfbench] run failed: " + " ".join(cmd))
    machine = None
    for line in done.stdout.splitlines():
        if line.startswith('{"machine"'):
            machine = json.loads(line)["machine"]
    return result, machine


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def print_table(title, runs):
    print(title)
    print("%-30s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                        "spread"))
    names = list(runs[0]["metrics"].keys())
    medians = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(values)
        medians[name] = med
        print("%-30s %14.4f %14.4f %14.4f %8.4f  [%s]" % (
            name, med, q1, q3, spread,
            " ".join("%.4g" % v for v in values)))
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print("runs %d, correct %d/%d, failed %d of %d operations" % (
        len(runs), sum(1 for r in runs if r["correct"]), len(runs), failed,
        attempted))
    return medians


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def cmd_steady(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--other", help="another checkout to alternate with")
    p.add_argument("--trace-overhead", action="store_true")
    a = p.parse_args(argv)
    if a.runs < 2:
        raise SystemExit("--runs must be at least 2")
    seconds = run_seconds()
    mine, other = [], []
    machine = None
    for k in range(a.runs):
        seed = a.first_seed + k
        order = [ROOT]
        if a.other:
            order = [ROOT, a.other] if k % 2 == 0 else [a.other, ROOT]
        for root in order:
            t0 = time.time()
            result, machine = one_run(root, a.workload, seed, seconds, 0)
            (mine if root == ROOT else other).append(result)
            log("[steady] %s seed %d (%s): %.0fs" % (
                a.workload, seed, "this" if root == ROOT else "other",
                time.time() - t0))
        if a.trace_overhead:
            one_run(ROOT, a.workload, seed, seconds, 1)
    print("machine: %s" % json.dumps(machine))
    base = print_table("== %s, this checkout" % a.workload, mine)
    if a.other:
        theirs = print_table("== %s, %s" % (a.workload, a.other), other)
        print("%-30s %14s" % ("metric", "this/other"))
        for name, med in base.items():
            ratio = med / theirs[name] if theirs[name] else float("nan")
            print("%-30s %14.4f" % (name, ratio))
    if a.trace_overhead:
        print("== tracing overhead (traced minus untraced medians)")
        for name, med in base.items():
            traced_values = []
            for seed_offset in range(a.runs):
                path = os.path.join(
                    ROOT, ".bench_trace", "%s-seed%d.e2e.json" % (
                        a.workload, a.first_seed + seed_offset))
                with open(path) as f:
                    traced_values.append(json.load(f)[name])
            tmed = statistics.median(traced_values)
            print("%-30s %14.4f %14.4f %+9.1f%%" % (
                name, tmed, med, 100.0 * (tmed - med) / med if med else 0))
    return 0


def cmd_selftest(argv):
    argparse.ArgumentParser().parse_args(argv)
    binary = build()
    if binary is None:
        return 1
    ok = True
    for w in WORKLOADS:
        if not prepare(binary, w, 1):
            return 1
        for fault in ["--corrupt-one", "--drop-one"]:
            code, out, err = run_bench(
                binary, ["--workload", w, "--seed", "1", "--seconds",
                         str(SELFTEST_SECONDS), "--trace", "0", fault],
                capture=True)
            result = last_json(out)
            rejected = (code != 0 and result is not None and
                        not result["correct"])
            found = [l for l in err.splitlines() if "CHECK FAILED" in l]
            print("%-22s %-14s %s %s" % (
                w, fault, "rejected (pass)" if rejected else
                "NOT rejected (FAIL)", found[0] if found else ""))
            ok = ok and rejected
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "steady":
        return cmd_steady(argv[1:])
    if argv and argv[0] == "selftest":
        return cmd_selftest(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main())
