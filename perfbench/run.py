#!/usr/bin/env python3
"""capbench's benchmark: host time to simulate fixed figure sweeps.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload classic_sweep --seed 7 --seconds 20 --trace 0

builds perfbench_timer (a Release build of ../src plus perfbench/cpp)
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  Other forms:

    python3 perfbench/run.py --all [--seconds S] [--seed N]
        every workload, untraced then traced, as a table with units
    python3 perfbench/run.py --repeat 10 --workload W [--save F] [--against F]
        ten seeds of one workload: medians and quartile spreads of every
        end-to-end metric against its bound; --against checks agreement
        with a set saved earlier with --save
    python3 perfbench/run.py --self-test
        the statistics self-test (test_stats.py)
    python3 perfbench/run.py --record-reference
        re-records reference.json from the current sources

Run it from the root of the repository.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

# Knobs that change a default the benchmark exists to measure.
FORBIDDEN_KNOBS = (
    "CAPBENCH_EVENT_QUEUE",
    "CAPBENCH_BPF_TIER",
    "CAPBENCH_JOBS",
    "CAPBENCH_QUEUES",
    "CAPBENCH_AFFINITY",
    "CAPBENCH_SAMPLE_INTERVAL",
)

# Fresh processes that each time one cold set-up pass for setup_s.
SETUP_PROCESSES = 9

# Seconds the calibration kernel takes on the reference host (a 4-vCPU
# Xeon KVM guest).  Timings are divided by the kernel's time measured
# next to them and multiplied by this, so they read in that host's
# seconds whatever the current load of the machine.
REFERENCE_CALIBRATION_S = 0.035


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"capbench sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_timer", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    timer = out / "perfbench_timer"
    if not timer.is_file():
        raise BenchError(f"build produced no {timer}")
    return timer


def timer_json(timer, mode, args, cpus=None):
    """Runs one timer process, pinned to ``cpus`` when given."""
    cmd = [str(timer), mode, *args]
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          preexec_fn=pin)
    if proc.returncode != 0:
        raise BenchError(f"{mode} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def source_digest():
    """sha256 over the capbench sources and the benchmark's own files."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        return None


def provenance(timer_out, seed):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "build_type": timer_out["build_type"],
        "compiler": timer_out["compiler"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "capbench_env": {k: v for k, v in sorted(os.environ.items())
                         if k.startswith("CAPBENCH_")},
    }


def guard_knobs():
    set_knobs = [k for k in FORBIDDEN_KNOBS if k in os.environ]
    if set_knobs:
        raise BenchError(f"{', '.join(set_knobs)} set; the benchmark measures the defaults")


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def reference_check(workload, doc_path, checks):
    """The warm-up pass's figures document must be byte-equal to the one
    recorded for this workload at the reference seed."""
    data = doc_path.read_bytes()
    ref = json.loads(REFERENCE.read_text())["documents"].get(workload)
    checks["attempted"] += 1
    digest = hashlib.sha256(data).hexdigest()
    if ref is None or ref["sha256"] != digest or ref["bytes"] != len(data):
        checks["failed"] += 1
        checks["failures"].append(f"{workload}: figures document differs from the reference "
                                  f"(sha256 {digest}, {len(data)} bytes)")


def merge_timer_checks(out, checks):
    c = out["checks"]
    checks["attempted"] += c["attempted"]
    checks["failed"] += c["failed"]
    if c["failed"]:
        checks["failures"].append(f"{out['workload']}: {c['first_failure']}")


def normalized(values, calibrations):
    """Scales each timing by the calibration kernel timed around it."""
    return [v * REFERENCE_CALIBRATION_S / c for v, c in zip(values, calibrations)]


def fastest_cpus(timer, workload):
    """The workload's job count of fastest CPUs, by the calibration kernel.
    Virtual CPUs of a shared host can differ twofold in speed; pinning
    every timed process to the fastest keeps runs comparable."""
    out = timer_json(timer, "cpus", ["--workload", workload])
    return [c["cpu"] for c in out["cpus"][:out["jobs"]]], out["cpus"]


def end_to_end(timer, workload, seed, seconds, results_dir):
    checks = {"attempted": 0, "failed": 0, "failures": []}
    cpus, speeds = fastest_cpus(timer, workload)
    setup = []
    for _ in range(SETUP_PROCESSES):
        out = timer_json(timer, "setup", ["--workload", workload, "--seed", str(seed)], cpus)
        merge_timer_checks(out, checks)
        setup.append(out["setup_s"] * REFERENCE_CALIBRATION_S / out["calibration_s"])

    doc = results_dir / f"{workload}-figures.json"
    out = timer_json(timer, "run", ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--reference-out", str(doc)],
                      cpus)
    merge_timer_checks(out, checks)
    reference_check(workload, doc, checks)

    cal = out["calibration_s"]
    around = [cal[0]] + [(cal[i - 1] + cal[i]) / 2 for i in range(1, len(out["passes"]))]
    wall = normalized([p["wall_s"] for p in out["passes"]], around)
    cpu = normalized([p["cpu_s"] for p in out["passes"]], around)
    wall_s = stats.median(wall)
    metrics = {
        "wall_s": (wall_s, "s"),
        "sim_pkts_per_s": (out["generated_per_pass"] / wall_s, "1/s"),
        "cpu_s": (stats.median(cpu), "s"),
        "setup_s": (stats.median(setup), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    raw = {
        "passes": len(wall),
        "raw_wall_s_median": stats.median([p["wall_s"] for p in out["passes"]]),
        "wall_s_spread_in_run": stats.spread(wall),
        "warm_pass_s": out["warm_pass_s"],
        "cpus": cpus,
        "cpu_calibration_s": speeds,
        "setup_s_values": setup,
    }
    return metrics, checks, out, raw


def per_layer(timer, workload, seed, seconds, results_dir):
    checks = {"attempted": 0, "failed": 0, "failures": []}
    doc = results_dir / f"{workload}-figures-traced.json"
    spans = results_dir / f"{workload}-spans.json"
    cpus, _ = fastest_cpus(timer, workload)
    out = timer_json(timer, "trace", ["--workload", workload, "--seed", str(seed),
                                        "--seconds", str(seconds), "--reference-out", str(doc),
                                        "--spans-out", str(spans)], cpus)
    merge_timer_checks(out, checks)
    reference_check(workload, doc, checks)
    metrics = {k: (v["value"], v["unit"]) for k, v in out["metrics"].items()}
    return metrics, checks, out, {"spans_file": str(spans), "cpus": cpus}


def one_run(workload, seed, seconds, trace, timer=None):
    """Runs one workload; returns (result line dict, record dict)."""
    guard_knobs()
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload '{workload}' (known: {', '.join(names)})")
    timer = timer or build()
    results_dir = build_dir() / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    run = per_layer if trace else end_to_end
    metrics, checks, out, extra = run(timer, workload, seed, seconds, results_dir)

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"timer did not report {', '.join(missing)}")
    result = {
        "correct": checks["failed"] == 0 and checks["attempted"] > 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "schema": "perfbench.result.v1",
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(out, seed),
        "result": result,
        "checks_failed_frac": checks["failed"] / max(1, checks["attempted"]),
        "failures": checks["failures"],
        "detail": extra,
    }
    path = results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for failure in checks["failures"]:
        log(f"check failed: {failure}")
    return result, record


def run_all(seed, seconds):
    bench = load_benchmark()
    timer = build()
    failed = 0
    for w in bench["workloads"]:
        for trace in (False, True):
            result, record = one_run(w["name"], seed, seconds, trace, timer)
            failed += result["failed"]
            print(f"== {w['name']} ({'per-layer' if trace else 'end-to-end'}, seed {seed})")
            if not trace:
                print(f"  {'checks_failed_frac':<30} {record['checks_failed_frac']:>16.6g} "
                      f"ratio   ({result['failed']} of {result['attempted']} checks failed)")
            for name, m in result["metrics"].items():
                print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
            sys.stdout.flush()
    return 0 if failed == 0 else 1


def repeat(workload, runs, seconds, first_seed, save, against):
    bench = load_benchmark()
    timer = build()
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(first_seed, first_seed + runs):
        result, _ = one_run(workload, seed, seconds, False, timer)
        if not result["correct"]:
            raise BenchError(f"seed {seed}: {result['failed']} checks failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()))
    status = 0
    base = json.loads(Path(against).read_text())["values"] if against else None
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        s = stats.spread(v)
        verdict = "ok" if s <= m["bound"] / 3 else ("wide" if s <= m["bound"] else "FAIL")
        line = (f"{workload:<18} {m['name']:<16} median {stats.median(v):<12.6g} "
                f"spread {s:.4f} (bound {m['bound']}) {verdict}")
        if verdict == "FAIL":
            status = 1
        if base is not None:
            ok, reason = stats.agree(base[m["name"]], v, m["bound"], m["better"])
            line += f" | vs saved: {reason}"
            status |= 0 if ok else 1
        print(line)
    if save:
        Path(save).write_text(json.dumps({"workload": workload, "values": values}, indent=2))
    return status


def record_reference():
    bench = load_benchmark()
    timer = build()
    results_dir = build_dir() / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    docs = {}
    for w in bench["workloads"]:
        doc = results_dir / f"{w['name']}-reference.json"
        # One warm-up pass plus the minimum of three timed passes.
        timer_json(timer, "run", ["--workload", w["name"], "--seed", "1", "--seconds", "0",
                                    "--reference-out", str(doc)])
        data = doc.read_bytes()
        docs[w["name"]] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    REFERENCE.write_text(json.dumps({
        "schema": "perfbench.reference.v1",
        "about": "sha256 of each workload's capbench.figures.v1 document at seed 1",
        "documents": docs,
    }, indent=2) + "\n")
    log(f"recorded {REFERENCE}")
    return 0


def self_test():
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_stats.py")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--repeat", type=int)
    p.add_argument("--save")
    p.add_argument("--against")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must not be negative")
    try:
        if a.self_test:
            return self_test()
        guard_knobs()
        if a.record_reference:
            return record_reference()
        seconds = a.seconds if a.seconds is not None else load_benchmark()["run_seconds"]
        if a.all:
            return run_all(a.seed, seconds)
        if not a.workload:
            raise BenchError("--workload is required (or --all / --self-test)")
        if a.repeat:
            return repeat(a.workload, a.repeat, seconds, a.seed, a.save, a.against)
        result, _ = one_run(a.workload, a.seed, seconds, bool(a.trace))
        print(json.dumps(result))
        return 0
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
