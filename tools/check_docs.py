#!/usr/bin/env python3
"""Validate capbench's observability documents.

Checks the documents `capbench_figures` writes with --metrics and --trace:

    tools/check_docs.py metrics FILE [FILE...]
        capbench.metrics-suite.v1 schema; every app record keeps the drop
        identity delivered + sum(drops) == generated; every SUT has CPU
        samples; every latency summary (count/min/max/mean/p50/p95/p99)
        is ordered, min <= p50 <= p95 <= p99 <= max and min <= mean <= max,
        and is all zeros when count is 0.  With several files (one run per
        --jobs value) they must be identical once config.jobs is masked;
        `--jobs N...` (one per file) also checks each file's config.jobs.
    tools/check_docs.py trace FILE
        Chrome trace: non-empty traceEvents with metadata, complete,
        instant and counter phases; every event has pid and name, and
        every non-metadata event a numeric ts.
    tools/check_docs.py --self-test
        Runs the checks on small built-in documents, valid and broken.

Exits non-zero with a message naming the first violation.  Standard
library only.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

SUITE_SCHEMA = "capbench.metrics-suite.v1"
METRICS_SCHEMA = "capbench.metrics.v1"
SUMMARY_KEYS = frozenset({"count", "min", "max", "mean", "p50", "p95", "p99"})
TRACE_PHASES = frozenset({"M", "X", "i", "C"})


class CheckError(Exception):
    pass


# An unreadable or malformed document (not JSON, a missing key, a wrong
# type) fails the check too.
FAILURES = (CheckError, KeyError, TypeError, ValueError, OSError)


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def summaries(node, path="$"):
    """Yields (path, summary) for every latency summary object in node."""
    if isinstance(node, dict):
        if set(node) == SUMMARY_KEYS:
            yield path, node
            return
        for key, value in node.items():
            yield from summaries(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from summaries(value, f"{path}[{i}]")


def check_summary(path: str, s: dict) -> None:
    if s["count"] == 0:
        require(all(s[k] == 0 for k in SUMMARY_KEYS), f"{path}: empty summary not all 0: {s}")
        return
    require(s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"],
            f"{path}: quantiles out of order: {s}")
    require(s["min"] <= s["mean"] <= s["max"], f"{path}: mean outside [min, max]: {s}")


def check_metrics(suite: dict) -> tuple[int, int]:
    """Returns (app records, latency summaries) checked."""
    require(suite.get("schema") == SUITE_SCHEMA, f"suite schema {suite.get('schema')!r}")
    apps = 0
    for doc in suite["results"]:
        require(doc["schema"] == METRICS_SCHEMA, f"{doc.get('id')}: schema {doc['schema']!r}")
        for variant in doc["variants"]:
            for point in variant["points"]:
                generated = point["generated"]
                for sut in point["suts"]:
                    require(bool(sut["cpu"]["samples"]),
                            f"{doc['id']}/{variant['name']}/{sut['name']}: no CPU samples")
                    for app in sut["apps"]:
                        require(app["delivered"] + sum(app["drops"].values()) == generated,
                                f"{doc['id']}/{variant['name']}/{sut['name']}: drop identity "
                                f"broken ({app['delivered']} delivered, drops {app['drops']}, "
                                f"{generated} generated)")
                        apps += 1
    require(apps > 0, "no app records")
    found = list(summaries(suite))
    require(bool(found), "no latency summaries")
    for path, s in found:
        check_summary(path, s)
    return apps, len(found)


def mask_jobs(suite: dict) -> dict:
    masked = copy.deepcopy(suite)
    for doc in masked["results"]:
        doc["config"]["jobs"] = 0
    return masked


def check_jobs(suite: dict, jobs: int) -> None:
    for doc in suite["results"]:
        require(doc["config"]["jobs"] == jobs, f"{doc['id']}: config.jobs {doc['config']['jobs']}, "
                f"expected {jobs}")


def check_same_beyond_jobs(suites: list[dict]) -> None:
    first = mask_jobs(suites[0])
    for i, other in enumerate(suites[1:], start=1):
        require(mask_jobs(other) == first, f"document {i} differs from document 0 beyond config.jobs")


def check_trace(trace: dict) -> tuple[int, set]:
    events = trace["traceEvents"]
    require(len(events) > 0, "empty trace")
    phases = {e["ph"] for e in events}
    require(TRACE_PHASES <= phases, f"trace phases {sorted(phases)} lack {sorted(TRACE_PHASES - phases)}")
    for e in events:
        require("pid" in e and "name" in e, f"event without pid/name: {e}")
        if e["ph"] != "M":
            require(isinstance(e.get("ts"), (int, float)), f"event without numeric ts: {e}")
    return len(events), phases


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# ---- self-test ----------------------------------------------------------------

def sample_suite(jobs: int) -> dict:
    def summary(count, lo, hi, mean, p50, p95, p99):
        return {"count": count, "min": lo, "max": hi, "mean": mean,
                "p50": p50, "p95": p95, "p99": p99}

    app = {"delivered": 90, "drops": {"nic_ring": 6, "backlog": 4},
           "latency_ns": summary(90, 10.0, 500.0, 120.5, 100.0, 400.0, 480.0),
           "enqueue_ns": summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
           "deliver_ns": summary(90, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0)}
    sut = {"name": "swan", "cpu": {"samples": 3},
           "nic_to_kernel_ns": summary(1, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0), "apps": [app]}
    doc = {"schema": METRICS_SCHEMA, "id": "fig", "config": {"jobs": jobs},
           "variants": [{"name": "v", "points": [{"generated": 100, "suts": [sut]}]}]}
    return {"schema": SUITE_SCHEMA, "results": [doc]}


def sample_trace() -> dict:
    return {"traceEvents": [
        {"ph": "M", "pid": 1, "name": "process_name"},
        {"ph": "X", "pid": 1, "name": "run", "ts": 0, "dur": 5},
        {"ph": "i", "pid": 1, "name": "irq", "ts": 1.5},
        {"ph": "C", "pid": 1, "name": "ring", "ts": 2, "args": {"frames": 3}},
    ]}


def self_test() -> int:
    def app(suite):
        return suite["results"][0]["variants"][0]["points"][0]["suts"][0]["apps"][0]

    def metrics_with(mutate):
        suite = sample_suite(1)
        mutate(suite)
        return lambda: check_metrics(suite)

    def set_field(field, key, value):
        def mutate(suite):
            app(suite)[field][key] = value
        return metrics_with(mutate)

    def trace_with(mutate):
        trace = sample_trace()
        mutate(trace)
        return lambda: check_trace(trace)

    def no_cpu_samples(suite):
        suite["results"][0]["variants"][0]["points"][0]["suts"][0]["cpu"]["samples"] = 0

    def moved_drop(suite):  # keeps the drop identity, differs beyond jobs
        app(suite)["drops"]["nic_ring"] += 1
        app(suite)["delivered"] -= 1

    good = sample_suite(1)
    check_metrics(good)
    check_jobs(good, 1)
    check_same_beyond_jobs([good, sample_suite(4)])
    check_trace(sample_trace())

    other = sample_suite(4)
    moved_drop(other)
    broken = {
        "drop identity": metrics_with(lambda suite: app(suite).update(delivered=89)),
        "no cpu samples": metrics_with(no_cpu_samples),
        "doc schema": metrics_with(lambda suite: suite["results"][0].update(schema="v0")),
        "p50 above p95": set_field("latency_ns", "p50", 450.0),
        "p99 above max": set_field("latency_ns", "p99", 501.0),
        "min above p50": set_field("latency_ns", "min", 101.0),
        "mean above max": set_field("latency_ns", "mean", 600.0),
        "mean below min": set_field("deliver_ns", "mean", 4.0),
        "empty summary with a value": set_field("enqueue_ns", "max", 1.0),
        "difference beyond config.jobs": lambda: check_same_beyond_jobs([good, other]),
        "config.jobs 1 for --jobs 4": lambda: check_jobs(good, 4),
        "trace without a counter phase": trace_with(lambda t: t["traceEvents"].pop()),
        "trace event without ts": trace_with(lambda t: t["traceEvents"][1].pop("ts")),
        "trace event without pid": trace_with(lambda t: t["traceEvents"][2].pop("pid")),
    }
    accepted = []
    for name, check in broken.items():
        try:
            check()
            accepted.append(name)
        except FAILURES:
            pass
    for name in accepted:
        print(f"FAIL: accepted a broken document: {name}", file=sys.stderr)
    if accepted:
        return 1
    print(f"self-test OK: valid documents pass, {len(broken)} broken ones are rejected")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true", help="check the checks")
    parser.add_argument("kind", nargs="?", choices=("metrics", "trace"))
    parser.add_argument("files", nargs="*")
    parser.add_argument("--jobs", type=int, nargs="+",
                        help="metrics: the --jobs value each file was written with")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.kind or not args.files:
        parser.error("give a document kind and at least one file, or --self-test")
    if args.jobs and (args.kind != "metrics" or len(args.jobs) != len(args.files)):
        parser.error("--jobs takes one value per metrics file")
    try:
        if args.kind == "trace":
            for path in args.files:
                events, phases = check_trace(load(path))
                print(f"{path}: trace OK, {events} events, phases {sorted(phases)}")
        else:
            suites = [load(path) for path in args.files]
            for i, (path, suite) in enumerate(zip(args.files, suites)):
                apps, found = check_metrics(suite)
                if args.jobs:
                    check_jobs(suite, args.jobs[i])
                print(f"{path}: metrics OK, drop identity holds for {apps} app records, "
                      f"{found} latency summaries ordered")
            if len(suites) > 1:
                check_same_beyond_jobs(suites)
                print(f"{len(suites)} metrics documents identical after masking config.jobs")
    except FAILURES as e:
        print(f"check failed: {e!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
