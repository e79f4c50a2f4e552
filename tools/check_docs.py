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
    tools/check_docs.py timeseries FILE [METRICS] [--episodes]
        capbench.timeseries.v1 schema; every counter has one delta per
        sample and its deltas sum to its total (conservation); every app
        of every SUT keeps delivered + app drops + the SUT's mirrored
        nic_ring and backlog == generated; one classification per sample;
        every episode dropped packets over a non-empty span.  --episodes
        requires at least one overload episode, and in METRICS (the
        --metrics suite of the same run) a non-empty overload_episodes.
    tools/check_docs.py diskwriter FIGURES METRICS
        The ext_disk_writer --json and --metrics documents: the inline,
        ring256, ring32-dropnew and ring32-dropold variants all have
        points; METRICS passes the metrics checks and every app record
        carries a disk_spill bucket; the inline variant never spills and
        some drop-policy variant does.
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
TIMESERIES_SCHEMA = "capbench.timeseries.v1"
SUT_DROP_SITES = frozenset({"nic_ring", "backlog"})
DISK_WRITER_VARIANTS = frozenset({"-inline", "-ring256", "-ring32-dropnew", "-ring32-dropold"})
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


def check_timeseries(ts: dict, suite: dict | None = None, episodes_required: bool = False
                     ) -> tuple[int, int, int]:
    """Returns (samples, app identities, episodes) checked."""
    require(ts.get("schema") == TIMESERIES_SCHEMA, f"time-series schema {ts.get('schema')!r}")
    samples = ts["samples"]
    require(samples > 0 and len(ts["time_ns"]) == samples,
            f"{samples} samples, {len(ts['time_ns'])} timestamps")

    def total(counter: dict, path: str) -> int:
        require(len(counter["deltas"]) == samples, f"{path}: {len(counter['deltas'])} deltas")
        require(sum(counter["deltas"]) == counter["total"],
                f"{path}: deltas sum to {sum(counter['deltas'])}, total {counter['total']}")
        return counter["total"]

    generated = total(ts["generated"], "generated")
    apps = episodes = 0
    for sut in ts["suts"]:
        name = sut["name"]
        # nic_ring and backlog happen before the per-app fan-out and are
        # mirrored into every app's identity.
        require(set(sut["drops"]) == SUT_DROP_SITES, f"{name}: SUT drops {sorted(sut['drops'])}")
        mirrored = sum(total(c, f"{name}.{site}") for site, c in sut["drops"].items())
        for a, app in enumerate(sut["apps"]):
            where = f"{name}.app{a}"
            accounted = mirrored + total(app["delivered"], f"{where}.delivered")
            accounted += sum(total(c, f"{where}.{site}") for site, c in app["drops"].items())
            require(accounted == generated,
                    f"{where}: delivered + drops = {accounted}, generated {generated}")
            apps += 1
        require(len(sut["classification"]) == samples, f"{name}: classification length")
        for ep in sut["episodes"]:
            require(ep["dropped"] > 0 and ep["intervals"] > 0, f"{name}: empty episode {ep}")
            require(ep["start_ns"] <= ep["end_ns"], f"{name}: episode ends before it starts {ep}")
            episodes += 1
    require(apps > 0, "no app series")
    if episodes_required:
        require(episodes > 0, "no overload episode")
        require(suite is not None and bool(suite.get("overload_episodes")),
                "metrics suite lacks the overload episodes")
    return samples, apps, episodes


def check_disk_writer(figures: dict, suite: dict) -> tuple[int, int]:
    """Returns (app records checked, records spilled)."""
    result = figures["results"][0]
    require(result["id"] == "ext_disk_writer", f"figures result {result['id']!r}")
    variants = {v["suffix"]: v for v in result["variants"]}
    require(DISK_WRITER_VARIANTS <= set(variants),
            f"variants {sorted(variants)} lack {sorted(DISK_WRITER_VARIANTS - set(variants))}")
    for suffix, variant in variants.items():
        require(bool(variant["points"]), f"variant {suffix} has no points")

    checked, _ = check_metrics(suite)  # schema and the drop identity
    spills = {}
    for doc in suite["results"]:
        for variant in doc["variants"]:
            spills[variant["name"]] = 0
            for point in variant["points"]:
                for sut in point["suts"]:
                    for app in sut["apps"]:
                        require("disk_spill" in app["drops"],
                                f"{variant['name']}/{sut['name']}: no disk_spill bucket")
                        spills[variant["name"]] += app["drops"]["disk_spill"]
    inline = [n for n in spills if "classic" in n or "inline" in n]
    require(bool(inline), f"no inline variant among {sorted(spills)}")
    require(spills[inline[0]] == 0, f"inline variant spilled: {spills}")
    require(any(v > 0 for n, v in spills.items() if "drop" in n),
            f"no drop-policy variant spilled: {spills}")
    return checked, sum(spills.values())


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


def sample_timeseries() -> dict:
    def counter(*deltas):
        return {"deltas": list(deltas), "total": sum(deltas)}

    # Two apps on one SUT, so a per-app check limited to single-app SUTs
    # would miss the second app.
    apps = [{"delivered": counter(50, 35), "drops": {"verdict": counter(0, 5),
                                                     "drain": counter(3, -3)}},
            {"delivered": counter(40, 30), "drops": {"fanout": counter(10, 10),
                                                     "drain": counter(2, -2)}}]
    sut = {"name": "swan", "drops": {"nic_ring": counter(5, 0), "backlog": counter(0, 5)},
           "apps": apps, "classification": ["dropping", "dropping"],
           "episodes": [{"start_ns": 0, "end_ns": 20, "intervals": 2, "dropped": 10}]}
    return {"schema": TIMESERIES_SCHEMA, "samples": 2, "time_ns": [10, 20],
            "generated": counter(60, 40), "suts": [sut]}


def sample_disk_writer() -> tuple[dict, dict]:
    figures = {"results": [{"id": "ext_disk_writer", "variants": [
        {"suffix": suffix, "points": [{"x": 1}]} for suffix in sorted(DISK_WRITER_VARIANTS)]}]}
    suite = sample_suite(1)
    inline = suite["results"][0]["variants"][0]
    dropping = copy.deepcopy(inline)
    inline["name"], dropping["name"] = "swan-inline", "swan-ring32-dropnew"
    inline["points"][0]["suts"][0]["apps"][0]["drops"]["disk_spill"] = 0
    app = dropping["points"][0]["suts"][0]["apps"][0]
    app["delivered"] -= 10
    app["drops"]["disk_spill"] = 10
    suite["results"][0]["variants"].append(dropping)
    return figures, suite


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

    def timeseries_with(mutate, episodes_required=False):
        ts = sample_timeseries()
        suite = {"overload_episodes": [{"sut": "swan"}]}
        mutate(ts, suite)
        return lambda: check_timeseries(ts, suite, episodes_required)

    def ts_app(ts, a):
        return ts["suts"][0]["apps"][a]

    def second_app_identity(ts, _):  # conserved deltas, one packet too many
        ts_app(ts, 1)["delivered"] = {"deltas": [41, 30], "total": 71}

    def no_episodes(ts, _):
        ts["suts"][0]["episodes"] = []

    def disk_writer_with(mutate):
        figures, suite = sample_disk_writer()
        mutate(figures, suite)
        return lambda: check_disk_writer(figures, suite)

    def dw_app(suite, v):
        return suite["results"][0]["variants"][v]["points"][0]["suts"][0]["apps"][0]

    def inline_spills(_, suite):  # keeps the identity
        dw_app(suite, 0)["delivered"] -= 1
        dw_app(suite, 0)["drops"]["disk_spill"] += 1

    def no_spill_bucket(_, suite):  # keeps the identity
        dw_app(suite, 0)["drops"].pop("disk_spill")

    def nothing_spills(_, suite):
        dw_app(suite, 1)["delivered"] += 10
        dw_app(suite, 1)["drops"]["disk_spill"] = 0

    good = sample_suite(1)
    check_metrics(good)
    check_jobs(good, 1)
    check_same_beyond_jobs([good, sample_suite(4)])
    check_trace(sample_trace())
    timeseries_with(lambda ts, suite: None, episodes_required=True)()
    disk_writer_with(lambda figures, suite: None)()

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
        "time-series schema": timeseries_with(lambda ts, _: ts.update(schema="v0")),
        "deltas not summing to the total": timeseries_with(
            lambda ts, _: ts_app(ts, 0)["delivered"]["deltas"].__setitem__(0, 49)),
        "SUT without a backlog column": timeseries_with(
            lambda ts, _: ts["suts"][0]["drops"].pop("backlog")),
        "a delta column one sample short": timeseries_with(
            lambda ts, _: ts["suts"][0]["drops"]["backlog"].update(deltas=[5], total=5)),
        "second app's identity broken": timeseries_with(second_app_identity),
        "classification one sample short": timeseries_with(
            lambda ts, _: ts["suts"][0]["classification"].pop()),
        "episode without drops": timeseries_with(
            lambda ts, _: ts["suts"][0]["episodes"][0].update(dropped=0)),
        "no episode where one is required": timeseries_with(no_episodes, True),
        "metrics without the episodes": timeseries_with(
            lambda _, suite: suite.pop("overload_episodes"), True),
        "disk-writer result id": disk_writer_with(
            lambda figures, _: figures["results"][0].update(id="fig_6_2")),
        "disk-writer variant missing": disk_writer_with(
            lambda figures, _: figures["results"][0]["variants"].pop()),
        "disk-writer variant without points": disk_writer_with(
            lambda figures, _: figures["results"][0]["variants"][0].update(points=[])),
        "app without a disk_spill bucket": disk_writer_with(no_spill_bucket),
        "disk-writer drop identity": disk_writer_with(
            lambda _, suite: dw_app(suite, 1).update(delivered=81)),
        "disk-writer latency summary": disk_writer_with(
            lambda _, suite: dw_app(suite, 1)["latency_ns"].update(p50=450.0)),
        "inline variant spills": disk_writer_with(inline_spills),
        "no drop-policy variant spills": disk_writer_with(nothing_spills),
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
    parser.add_argument("kind", nargs="?",
                        choices=("metrics", "trace", "timeseries", "diskwriter"))
    parser.add_argument("files", nargs="*")
    parser.add_argument("--jobs", type=int, nargs="+",
                        help="metrics: the --jobs value each file was written with")
    parser.add_argument("--episodes", action="store_true",
                        help="timeseries: require an overload episode")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.kind or not args.files:
        parser.error("give a document kind and at least one file, or --self-test")
    if args.jobs and (args.kind != "metrics" or len(args.jobs) != len(args.files)):
        parser.error("--jobs takes one value per metrics file")
    if args.kind == "timeseries" and len(args.files) > 2:
        parser.error("timeseries takes a time-series file and optionally its metrics file")
    if args.episodes and (args.kind != "timeseries" or len(args.files) != 2):
        parser.error("--episodes takes a time-series file and its metrics file")
    if args.kind == "diskwriter" and len(args.files) != 2:
        parser.error("diskwriter takes the figures file and the metrics file")
    try:
        if args.kind == "timeseries":
            suite = load(args.files[1]) if len(args.files) == 2 else None
            samples, apps, episodes = check_timeseries(load(args.files[0]), suite,
                                                       args.episodes)
            print(f"{args.files[0]}: time series OK, {samples} samples, conservation exact, "
                  f"drop identity holds for {apps} apps, {episodes} episodes")
        elif args.kind == "diskwriter":
            checked, spills = check_disk_writer(load(args.files[0]), load(args.files[1]))
            print(f"disk writer OK: drop identity holds for {checked} app records, "
                  f"{spills} spills across variants")
        elif args.kind == "trace":
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
