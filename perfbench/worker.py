"""One benchmark process for the in-process workloads (table3_*, tgff_hetero).

    python3 perfbench/worker.py WORKLOAD --seed N --work DIR
        (--seconds S | --trace) [--setup-only]

Prints ``ready`` once set up (the parent times launch -> ready), then
runs units of the workload and prints one JSON line describing them.
With ``--seconds`` it runs untraced units until S seconds have passed
(at least one); with ``--trace`` it runs one untraced unit and then one
unit traced into ``DIR/trace-1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402
import tracer  # noqa: E402

#: How a finished result is read back per unit: samples, and the least
#: time one sample takes.
READS_PER_UNIT = 40
READ_SAMPLE_S = 0.05
DAG_WORKERS = 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def time_reads(read):
    """Per-read milliseconds of ``READS_PER_UNIT`` samples, and the last value.

    A sample times a batch of reads lasting at least ``READ_SAMPLE_S``:
    reading an in-memory result back takes microseconds, where one timer
    tick is a large share of a single read, and the samples then span
    about two seconds, longer than the host's speed swings.
    """
    start = time.perf_counter()
    value = read()
    batch = max(1, int(READ_SAMPLE_S / max(time.perf_counter() - start, 1e-9)))
    reads = []
    for _ in range(READS_PER_UNIT):
        start = time.perf_counter()
        for _ in range(batch):
            value = read()
        reads.append((time.perf_counter() - start) * 1e3 / batch)
    return reads, value


def load_reference(family: str) -> dict:
    path = HERE / "references" / f"{family}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def setup(workload: str, seed: int) -> None:
    """Everything a user pays before the first unit: imports, graphs, pool."""
    from repro import api  # noqa: F401
    from repro.experiments.table3 import table3_applications

    if workload == "tgff_hetero":
        specs.tgff_optimizer(seed)
        return
    for _, graph, _ in table3_applications(specs.table3_profile(seed)):
        graph.compiled()
    if workload == "table3_dag":
        from repro.exec.dag import DagExecutor

        with DagExecutor.from_spec("process", max_workers=DAG_WORKERS) as executor:
            executor.map(abs, range(DAG_WORKERS))


def run_unit(workload: str, seed: int, work: Path, unit: int):
    """Run one unit.

    Returns (wall seconds, report digest or design summary, a callable
    that reads the result back, store directory or None, whether every
    shape check of the report passed).
    """
    from repro import api

    if workload == "tgff_hetero":
        optimizer, scalings = specs.tgff_optimizer(seed)
        start = time.perf_counter()
        outcome = optimizer.optimize(scalings)
        wall = time.perf_counter() - start
        read = outcome.best.summary if outcome.best else str
        return wall, specs.tgff_summary(outcome), read, None, True
    store = None
    if workload == "table3_dag":
        store = work / f"store-{unit}"
        profile = specs.table3_dag_profile(seed, str(store))
    else:
        profile = specs.table3_profile(seed)
    start = time.perf_counter()
    outcome = api.execute_run("table3", profile)
    wall = time.perf_counter() - start
    if store is not None:
        def read():
            return api.run_status(store, "table3")
    else:
        from repro.experiments.runner import render_report

        def read():
            return render_report("table3", outcome.result, profile)

    shapes_pass = "[FAIL]" not in outcome.report
    return wall, digest(outcome.report), read, store, shapes_pass


def check(workload: str, seed: int, result, read_value, shapes_pass) -> list:
    """(name, ok, detail) output checks against the committed references."""
    if workload == "tgff_hetero":
        expected = load_reference("tgff").get(str(specs.variant(seed)))
        return [("tgff_best_design", result == expected, f"{result} vs {expected}")]
    expected = load_reference("table3").get(str(specs.table3_profile(seed).seed))
    checks = [
        ("table3_report_digest", result == expected, f"{result} vs {expected}"),
        ("table3_shape_checks_pass", shapes_pass, "a shape check printed FAIL"),
    ]
    if workload == "table3_dag":
        checks.append(
            (
                "table3_store_complete",
                read_value.state == "complete" and read_value.completed == 15,
                f"{read_value.state} {read_value.completed}/{read_value.total}",
            )
        )
    return checks


def reconcile(counts: dict) -> list:
    """Wrapper counts against the evaluators' own counters."""
    evaluations = counts.get("evaluator.evaluations", 0)
    hits = counts.get("mapping.cache_hits", 0)
    misses = counts.get("mapping.cache_misses", 0)
    calls = counts.get("mapping.evaluate", 0)
    checks = [
        (
            "wrapper_calls_equal_evaluations",
            calls == evaluations,
            f"{calls} vs {evaluations}",
        ),
        (
            "hits_plus_misses_equal_evaluations",
            hits + misses == evaluations,
            f"{hits}+{misses} vs {evaluations}",
        ),
    ]
    if not counts.get("sched.batched.rows"):
        # Without batched rows, every miss schedules exactly once.
        schedules = counts.get("sched.schedule", 0)
        checks.append(
            (
                "schedule_calls_equal_misses",
                schedules == misses,
                f"{schedules} vs {misses}",
            )
        )
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "workload", choices=["table3_serial", "table3_dag", "tgff_hetero"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    setup(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    units = []
    started = time.perf_counter()
    index = 0
    while True:
        if args.trace:
            if index == 2:
                break
            traced = index == 1
        else:
            if index and time.perf_counter() - started >= args.seconds:
                break
            traced = False
        trace_dir = work / f"trace-{index}"
        if traced:
            tracer.install(trace_dir)
        cpu_before = cpu_seconds()
        try:
            wall, result, read, store, shapes_pass = run_unit(
                args.workload, args.seed, work, index
            )
            cpu = cpu_seconds() - cpu_before
            if traced:
                tracer.stop_unit()  # reads are timed below, not traced
            reads, value = time_reads(read)
            checks = check(args.workload, args.seed, result, value, shapes_pass)
            error = None
        except Exception as exc:  # a failed unit is reported, not fatal
            wall, cpu, result, reads, checks, store = 0.0, 0.0, None, [], [], None
            error = f"{type(exc).__name__}: {exc}"
        unit = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "result": result,
                "reads_ms": reads, "checks": checks, "error": error}
        if traced:
            tracer.stop_unit()
            unit["trace"] = tracer.merge_dir(trace_dir)
            unit["checks"] += reconcile(unit["trace"]["counts"])
            if store is not None:
                unit["store_bytes"] = sum(
                    p.stat().st_size for p in Path(store).rglob("*") if p.is_file()
                )
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
        units.append(unit)
        index += 1
    print(json.dumps({"units": units, "peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
