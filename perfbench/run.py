#!/usr/bin/env python3
"""Repository benchmark: builds the swp library and the benchmark driver from
source, runs one workload, checks its answers, and prints the result.

One run (run from the repository root):

    python3 perfbench/run.py --workload corpus-ilp --seed 1 --seconds 30 --trace 0

prints a metric table with units and sample counts, a context line (knobs,
environment, the workload's rationale), and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced replay and
reports the per-layer metrics, writing the spans to .bench_build/traces/.
End-to-end timings are reported at a fixed machine speed, scaled by a speed
probe the run samples throughout (SpeedScale in bench.h); the measured
values are in the context line's notes as measured.<metric>.

Every workload once, one table each (metric, value, unit, sample count):

    python3 perfbench/run.py --all [--seed N]

Steadiness report (each workload run once per seed, spread per metric):

    python3 perfbench/run.py --steadiness [--workloads a,b] [--seeds 1,2,3]

Regenerate the determinism guard (perfbench/guard.json) after a change that
is meant to alter answers or counters:

    python3 perfbench/run.py --write-guard

Each workload's parameters are constants of the driver (library.cpp,
swpd.cpp) and are recorded with every result.  Answers and counters of the
default and held-out seeds are pinned in perfbench/guard.json, and a run
whose outcomes differ from them fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "swp_perfbench")
RUN_TIMEOUT_S = 170
# The seed --all uses, and a second seed held out while the benchmark was
# tuned; guard.json pins the outcomes of both.
DEFAULT_SEED = 19950618
HELD_OUT_SEED = 20260807
STEADINESS_SEEDS = list(range(1, 11))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark; build output goes to stderr."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another checkout location cannot be
        # reused; start it afresh.
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(BUILD)
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.exists(cache):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout the
    benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    for top in ("include", "src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, report dict or None, text)."""
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", work]
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as e:
        code, out, err = 124, e.stdout or "", "timed out after %d s" % RUN_TIMEOUT_S
        out = out.decode() if isinstance(out, bytes) else out
    report, text = None, []
    for line in out.splitlines():
        if line.startswith("PERFBENCH-REPORT "):
            report = json.loads(line[len("PERFBENCH-REPORT "):])
        else:
            text.append(line)
    if err.strip():
        text.append(err.strip())
    traces = os.path.join(ROOT, ".bench_build", "traces")
    for name in os.listdir(work):
        if name.startswith("trace-") and name.endswith(".json"):
            os.makedirs(traces, exist_ok=True)
            shutil.move(os.path.join(work, name), os.path.join(traces, name))
            text.append("spans written to " +
                        os.path.relpath(os.path.join(traces, name), ROOT))
    shutil.rmtree(work, ignore_errors=True)
    return code, report, "\n".join(text)


def guard_mismatches(workload, seed, outcomes):
    """Outcomes that differ from the pinned ones of (workload, seed)."""
    path = os.path.join(HERE, "guard.json")
    pinned = load_json(path).get(workload, {}).get(str(seed)) if os.path.exists(path) else None
    if not pinned:
        return []
    bad = []
    for key, want in sorted(pinned.items()):
        if key not in outcomes:
            continue
        got = outcomes[key]
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            bad.append("guard: %s is %r, pinned %r for seed %d" % (key, got, want, seed))
    return bad


def run_once(workload, seed, seconds, trace, use_guard=True):
    """One benchmark run; returns (result dict, context dict, text)."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if workload not in [w["name"] for w in bench["workloads"]]:
        raise SystemExit("unknown workload %r" % workload)
    code, report, text = run_binary(workload, seed, seconds, trace)
    if report is None:
        sys.stderr.write(text + "\n")
        raise SystemExit("benchmark binary failed (exit %d) without a report" % code)
    failures = list(report["check_failures"])
    failed = report["failed"]
    mismatches = (guard_mismatches(workload, seed, report["outcomes"])
                  if use_guard else [])
    failures += mismatches
    failed += len(mismatches)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            failures.append("metric %s missing" % m["name"])
            failed += 1
            continue
        if got["unit"] and got["unit"] != m["unit"]:
            failures.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (m["name"], got["unit"], m["unit"]))
            failed += 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {
        "correct": code == 0 and not failures,
        "attempted": max(1, report["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    context = {
        "workload": workload,
        "why": why.get(workload, ""),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": dict(report["env"], nproc=os.cpu_count(), git_revision=git_revision(),
                    source_sha256=source_digest()),
        "knobs": report["knobs"],
        "samples": {k: v["samples"] for k, v in report["metrics"].items()},
        "notes": report["notes"],
        "outcomes": report["outcomes"],
        "check_failures": failures,
    }
    return result, context, text


def steadiness(workloads, seeds, seconds):
    """Runs each workload once per seed and prints median, quartiles, min,
    max and spread (IQR over median) per end-to-end metric.  Returns 1 when
    a run failed or a spread exceeds its metric's bound."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    worst = 0
    for workload in workloads:
        values = {}
        for seed in seeds:
            result, _, _ = run_once(workload, seed, seconds, 0)
            print("%s seed %d correct=%s" % (workload, seed, result["correct"]),
                  flush=True)
            if not result["correct"]:
                worst = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        record[workload] = values
        print("\n%s: %d runs" % (workload, len(seeds)))
        print("%-18s %12s %12s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound", "flag"))
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            flags = []
            if spread > 0.1:
                flags.append("SPREAD>0.1")
            if spread > bounds[name]:
                flags.append("OVER-BOUND")
                worst = 1
            elif spread > bounds[name] / 3:
                flags.append(">BOUND/3")
            flag = " ".join(flags)
            print("%-18s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.3f  %s" % (
                name, med, q1, q3, min(v), max(v), spread, bounds[name], flag))
    path = os.path.join(ROOT, ".bench_build", "steadiness.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("\nraw values: %s" % path)
    return worst


def run_all(seed, seconds):
    """Runs every workload once and prints its end-to-end metrics."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ok = True
    for w in bench["workloads"]:
        result, context, _ = run_once(w["name"], seed, seconds, 0)
        print("\n%s, seed %d: %s" % (w["name"], seed, w["why"]))
        print("%-18s %14s  %-7s %8s" % ("metric", "value", "unit", "samples"))
        for name, m in result["metrics"].items():
            print("%-18s %14.6g  %-7s %8d" % (name, m["value"], m["unit"],
                                             context["samples"].get(name, 0)))
        for f in context["check_failures"]:
            print("CHECK FAILED: " + f)
        ok = ok and result["correct"]
    return 0 if ok else 1


def write_guard(seconds):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    guard = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            result, context, text = run_once(workload, seed, seconds, 1,
                                             use_guard=False)
            if not result["correct"]:
                print(text)
                raise SystemExit("%s seed %d failed its checks; guard not written"
                                 % (workload, seed))
            guard.setdefault(workload, {})[str(seed)] = context["outcomes"]
            print("%s seed %d: %s" % (workload, seed, context["outcomes"]), flush=True)
    with open(os.path.join(HERE, "guard.json"), "w") as f:
        json.dump(guard, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--workloads")
    p.add_argument("--seeds")
    p.add_argument("--write-guard", action="store_true")
    a = p.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    if a.steadiness:
        workloads = a.workloads.split(",") if a.workloads else [
            w["name"] for w in bench["workloads"]]
        seeds = ([int(s) for s in a.seeds.split(",")] if a.seeds
                 else STEADINESS_SEEDS)
        sys.exit(steadiness(workloads, seeds, seconds))
    if a.write_guard:
        write_guard(seconds)
        return
    if a.all:
        sys.exit(run_all(DEFAULT_SEED if a.seed is None else a.seed, seconds))
    if not a.workload or a.seed is None:
        p.error("--workload and --seed are required")

    result, context, text = run_once(a.workload, a.seed, seconds, a.trace)
    print(text)
    for f in context["check_failures"]:
        print("CHECK FAILED: " + f)
    print("PERFBENCH-CONTEXT " + json.dumps(context, sort_keys=True))
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (a.workload, a.seed, a.trace)), "w") as f:
        json.dump({"result": result, "context": context}, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
