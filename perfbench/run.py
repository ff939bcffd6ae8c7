"""End-to-end benchmark of the soft error-aware design optimizer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see BENCHMARK.json for why):

* ``table3_serial`` - the smoke Table III grid, default plan, in memory;
* ``table3_dag``    - the same grid on ``dag:process`` (2 workers),
  streamed into a fresh store; its report must equal table3_serial's;
* ``tgff_hetero``   - one optimization of a 100-task TGFF graph on
  biglittle @ 22 nm with move screening;
* ``service_mix``   - a ``serve`` subprocess under a closed loop of fresh
  runs with idle read rounds between them, and an open loop of reads.

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics.  ``--trace 1`` runs one untraced unit and then one traced unit
(see ``tracer.py``) and prints the per-layer metrics, including the
tracing overhead.  Every output is checked against the committed
references in ``references/``; mismatches, exceptions and HTTP errors
count as failed operations.  The last line of stdout is the JSON result;
the line before it holds provenance and diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

BATCH = ("table3_serial", "table3_dag", "tgff_hetero")
WORKLOADS = BATCH + ("service_mix",)
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Counters that depend on timing, printed but never compared.
TIMING_DEPENDENT = ("exec.steals", "exec.queue_high_water")
UNIT_TIMEOUT_S = 170


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty list."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def provenance(seed: int) -> Dict[str, object]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = "unknown (not a git checkout)"
    head = Path(".git/HEAD")
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = Path(".git") / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref
        else:
            commit = ref
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# In-process workloads: one worker subprocess per run, extra ones for set-up.
# ---------------------------------------------------------------------------


def launch_worker(root: Path, work: Path, workload: str, seed: int, extra: List[str]):
    """Run ``worker.py``; return (set-up seconds, final JSON or None)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, str(HERE / "worker.py"), workload]
    command += ["--seed", str(seed), "--work", str(work)] + extra
    start = time.perf_counter()
    with open(work / "worker.log", "ab") as log:
        process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log,
        )
    setup_s, document = None, None
    try:
        for line in process.stdout:
            if line.strip() == b"ready" and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith(b"{"):
                document = json.loads(line)
        process.wait(timeout=UNIT_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0 or setup_s is None:
        raise RuntimeError(
            f"{workload} worker exited with {process.returncode}; "
            f"see {work}/worker.log"
        )
    return setup_s, document


def batch_metrics(setups, units, peak_rss_mb) -> Dict[str, float]:
    """End-to-end metrics of an in-process workload.

    Its fresh run is one unit, so ``fresh_*`` are unit walls and
    ``runs_per_s`` is units per second; a read reads the finished result
    back (the rendered report, or the store's run status).
    """
    walls = [unit["wall_s"] for unit in units]
    reads = [value for unit in units for value in unit["reads_ms"]]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(unit["cpu_s"] for unit in units),
        "peak_rss_mb": peak_rss_mb,
        "fresh_p50_s": statistics.median(walls),
        "fresh_tail_s": max(walls),
        "read_p50_ms": quantile(reads, 0.5) if reads else 0.0,
        "runs_per_s": len(walls) / sum(walls),
    }


def measure_batch(root: Path, work: Path, args, diagnostics: Dict[str, object]):
    """(metrics, attempted, failures) of an in-process workload."""
    setups = [
        launch_worker(root, work, args.workload, args.seed, ["--setup-only"])[0]
        for _ in range(SETUPS - 1)
    ]
    extra = ["--trace"] if args.trace else ["--seconds", str(args.seconds)]
    setup_s, document = launch_worker(root, work, args.workload, args.seed, extra)
    setups.append(setup_s)
    units = document["units"]
    attempted = sum(1 + len(unit["reads_ms"]) + len(unit["checks"]) for unit in units)
    failures = [unit["error"] for unit in units if unit["error"]]
    failures += [
        f"{name}: {detail}"
        for unit in units
        for name, ok, detail in unit["checks"]
        if not ok
    ]
    for unit in units[1:]:
        attempted += 1
        if unit["result"] != units[0]["result"]:
            failures.append("a later unit's output differs from the first unit's")
    reads = [value for unit in units for value in unit["reads_ms"]] or [0.0]
    diagnostics["read_tail_ms"] = quantile(reads, 0.9)
    diagnostics["samples"] = {"units": len(units), "reads": len(reads)}
    if not args.trace:
        metrics = batch_metrics(setups, units, document["peak_rss_mb"])
        return metrics, attempted, failures
    plain, traced = units
    workers = 2 if args.workload == "table3_dag" else 1
    trace = traced["trace"]
    store_bytes = traced.get("store_bytes", 0)
    layers = layer_metrics(trace, traced["wall_s"], workers, store_bytes)
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1
    diagnostics["exact_counts"] = exact_counts(trace)
    diagnostics["timing_dependent"] = {
        name: trace["counts"].get(name, 0) for name in TIMING_DEPENDENT
    }
    diagnostics["self_s"] = {
        name: value / 1e9 for name, value in sorted(trace["self_ns"].items())
    }
    return layers, attempted, failures


# ---------------------------------------------------------------------------
# service_mix: a server subprocess per set-up, the generator in this process.
# ---------------------------------------------------------------------------


def read_medians(reads_ms: List[float]) -> Dict[str, float]:
    """Median idle-round latency per read kind (``reads_ms`` holds whole rounds)."""
    import service_load

    by_kind: Dict[str, List[float]] = {}
    for index, latency in enumerate(reads_ms):
        kind = service_load.READ_ROUND[index % len(service_load.READ_ROUND)]
        by_kind.setdefault(service_load.READ_KINDS[kind], []).append(latency)
    return {kind: statistics.median(values) for kind, values in by_kind.items()}


def service_metrics(setups, outcome, peak_rss_mb) -> Dict[str, float]:
    """End-to-end metrics of service_mix; a cycle is one fresh run per kind.

    ``wall_s`` and ``cpu_s`` sum a cycle's fresh runs, and ``runs_per_s``
    counts fresh runs per second of them, so the idle read rounds between
    runs count in neither.  ``read_p50_ms`` is the mean of the median
    latencies of the three kinds that only read (status, list, report):
    the median of the whole mix falls in the upper tail of the cheap
    kinds and swung with it, and the duplicate submission rewrites the
    run record, so its ~0.1 s of writes are a diagnostic.  Missing
    samples (a failed run, already counted as a failure) read 0.
    """
    cycles = outcome.cycles or [(0.0, 0.0)]
    fresh = outcome.fresh_s or [0.0]
    medians = read_medians(outcome.reads_ms)
    reads = [medians.get(kind, 0.0) for kind in ("status", "list", "report")]
    busy = sum(outcome.fresh_s)
    return {
        "wall_s": statistics.median(wall for wall, _ in cycles),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(cpu for _, cpu in cycles),
        "peak_rss_mb": peak_rss_mb,
        "fresh_p50_s": quantile(fresh, 0.5),
        "fresh_tail_s": quantile(fresh, 0.9),
        "read_p50_ms": statistics.mean(reads),
        "runs_per_s": len(outcome.fresh_s) / busy if busy else 0.0,
    }


def measure_service(root: Path, work: Path, args, diagnostics: Dict[str, object]):
    """(metrics, attempted, failures) of service_mix."""
    import service_load
    import tracer

    expected = json.loads((HERE / "references" / "service.json").read_text())
    setups = []
    for index in range(SETUPS - 1):
        server = service_load.Server(
            root, work / f"setup-store-{index}", work / f"setup-{index}.log", None
        )
        setups.append(server.setup_s)
        server.stop()
    rounds = []
    for index, traced in enumerate([False, True] if args.trace else [False]):
        trace_dir = work / f"trace-{index}" if traced else None
        store = work / f"store-{index}"
        server = service_load.Server(
            root, store, work / f"serve-{index}.log", trace_dir
        )
        if index == 0:
            setups.append(server.setup_s)
        try:
            outcome = service_load.drive(server, args.seed, args.seconds, expected)
        finally:
            peak = server.stop()
        metrics = service_metrics(setups, outcome, peak)
        rounds.append((outcome, metrics, trace_dir, store))
    attempted = sum(outcome.attempted for outcome, *_ in rounds) + 1
    failures = [why for outcome, *_ in rounds for why in outcome.failures]
    failures += [
        "no complete fresh-run cycle" for outcome, *_ in rounds if not outcome.cycles
    ]
    outcome, plain = rounds[0][:2]
    lag = outcome.lag_ms or [0.0]
    busy = outcome.busy_reads_ms or [0.0]
    by_kind: Dict[str, List[float]] = {}
    for kind, latency in zip(outcome.fresh_kind, outcome.fresh_s):
        by_kind.setdefault(kind, []).append(latency)
    diagnostics.update(
        read_p50_ms_by_kind=read_medians(outcome.reads_ms),
        gen_lag_ms={"p50": quantile(lag, 0.5), "max": max(lag)},
        read_tail_ms=quantile(outcome.reads_ms or [0.0], 0.9),
        busy_read_ms={"p50": quantile(busy, 0.5), "p90": quantile(busy, 0.9)},
        fresh_p50_s_by_kind={k: statistics.median(v) for k, v in by_kind.items()},
        samples={
            "fresh": len(outcome.fresh_s),
            "reads": len(outcome.reads_ms),
            "busy_reads": len(outcome.busy_reads_ms),
            "cycles": len(outcome.cycles),
        },
    )
    if not args.trace:
        return plain, attempted, failures
    outcome, traced, trace_dir, store = rounds[1]
    layers = layer_metrics(
        tracer.merge_dir(trace_dir),
        outcome.elapsed_s,
        os.cpu_count() or 1,
        dir_bytes(store),
    )
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1
    diagnostics["exact_counts"] = "not compared: closed-loop counts depend on timing"
    return layers, attempted, failures


# ---------------------------------------------------------------------------
# Per-layer metrics from a merged trace.
# ---------------------------------------------------------------------------


def layer_metrics(trace, wall_s: float, workers: int, store_bytes: int):
    counts, total, own = trace["counts"], trace["total_ns"], trace["self_ns"]

    def calls(name):
        return counts.get(name, 0)

    def self_s(name):
        return own.get(name, 0) / 1e9

    def total_s(name):
        return total.get(name, 0) / 1e9

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "taskgraph.mask_bits.calls": calls("taskgraph.mask_bits"),
        "sched.schedule.calls": calls("sched.schedule"),
        "sched.schedule.self_s": self_s("sched.schedule"),
        "sched.from_arrays.self_s": self_s("sched.from_arrays"),
        "arch.power.self_s": self_s("arch.power"),
        "sched.batched.calls": calls("sched.batched"),
        "sched.batched.rows": calls("sched.batched.rows"),
        "sched.batched.self_s": self_s("sched.batched"),
        "mapping.evaluate.calls": calls("mapping.evaluate"),
        "mapping.evaluate.self_s": self_s("mapping.evaluate"),
        "mapping.evaluate.wall_share": ratio(total_s("mapping.evaluate"), wall_s),
        "mapping.cache_hits": calls("mapping.cache_hits"),
        "mapping.cache_misses": calls("mapping.cache_misses"),
        "mapping.cache_hit_ratio": ratio(
            calls("mapping.cache_hits"), calls("evaluator.evaluations")
        ),
        "mapping.evaluators": calls("mapping.evaluators"),
        "mapping.screen.previews": calls("mapping.screen"),
        "mapping.screen.self_s": self_s("mapping.screen"),
        "mapping.screen.reject_ratio": ratio(
            calls("mapping.screen.rejected"), calls("mapping.screen")
        ),
        "optim.search.self_s": self_s("optim.search"),
        "optim.optimize.calls": calls("optim.optimize"),
        "optim.scalings_assessed": calls("optim.scalings_assessed"),
        "exec.leaves": calls("exec.leaf"),
        "exec.map.wall_s": total_s("exec.map"),
        "exec.leaf.busy_s": total_s("exec.leaf"),
        "exec.worker_util": ratio(total_s("exec.leaf"), workers * wall_s),
        "exec.retries": calls("exec.retries"),
        "exec.worker_restarts": calls("exec.worker_restarts"),
        "exec.steals": calls("exec.steals"),
        "experiments.run_cells.self_s": self_s("experiments.run_cells"),
        "experiments.render.self_s": self_s("experiments.render"),
        "store.bytes_written": store_bytes,
        "api.dedup_ratio": ratio(calls("api.submit.cached"), calls("api.submit")),
        "service.request.self_s": self_s("service.request"),
        "service.queue_wait_s": ratio(
            calls("service.queue_wait_ns") / 1e9, calls("service.jobs")
        ),
        "service.rejected": calls("service.rejected"),
    }
    for span in ("store.append", "store.checkpoint", "store.index"):
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.self_s"] = self_s(span)
    for span in ("api.submit", "api.status", "api.list", "api.report"):
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.self_s"] = self_s(span)
    return metrics


def exact_counts(trace) -> Dict[str, int]:
    """The counters two traced runs at one seed must reproduce exactly.

    Printed with every traced batch run, so two runs can be compared.
    """
    return {
        name: value
        for name, value in trace["counts"].items()
        if name not in TIMING_DEPENDENT
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the repository root: src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the generator builds optimize payloads
    declared = json.loads((root / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    info = provenance(args.seed)
    info["loadavg_1m_before"] = os.getloadavg()[0]
    diagnostics: Dict[str, object] = {}
    measure = measure_service if args.workload == "service_mix" else measure_batch
    try:
        metrics, attempted, failures = measure(root, work, args, diagnostics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass
    info["loadavg_1m_after"] = os.getloadavg()[0]
    diagnostics["failed_frac"] = len(failures) / attempted
    diagnostics["failures"] = failures[:20]
    if args.trace:
        diagnostics["mask_bits"] = "counted, not timed: its callers' self time holds it"
    header = {"workload": args.workload, "trace": args.trace, "provenance": info}
    print(json.dumps(dict(header, diagnostics=diagnostics)))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
