"""Per-layer spans and counters, wrapped around repro's public entry points.

Nothing under ``src/`` knows about this module: :func:`install` replaces
entry points of each layer (``ListScheduler.schedule``,
``MappingEvaluator.evaluate``, ``api.submit_run``, ...) with wrappers that
record, per span name, the number of calls, the total time and the self
time (total minus the time of spans nested inside it on the same thread).
A span's children on *other* threads are not subtracted, so a span that
waits for worker threads (``run_cells`` under a DAG plan) keeps that wait
in its self time.

State is kept per thread and merged when written.  Every process writes
its own totals to ``<trace_dir>/<pid>.json`` when :func:`flush` is called
and when it exits (pool workers through a multiprocessing finalizer,
which runs where ``atexit`` does not).  Writing only then matters: a
small file write takes tens of milliseconds on some filesystems, and one
per DAG leaf once doubled a traced run's wall time.  Forked pool workers
inherit the wrappers and start from empty totals (``register_at_fork``),
so the files of all processes add up without double counting.

``CompiledTaskGraph.mask_bits`` runs about a million times per smoke
Table III grid, so it is counted, not timed: its time stays in the self
time of whichever span called it.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional

_clock = time.perf_counter_ns


class _ThreadTotals:
    __slots__ = ("stack", "counts", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.stack: list = []
        self.counts: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}


_local = threading.local()
_threads: list = []
_threads_lock = threading.Lock()
_flush_lock = threading.Lock()
_trace_dir: Optional[Path] = None
_installed = False
#: run id -> (enqueue time,), for ``service.queue_wait_s``.
_enqueued: Dict[str, tuple] = {}


def _totals() -> _ThreadTotals:
    try:
        return _local.totals
    except AttributeError:
        totals = _ThreadTotals()
        with _threads_lock:
            _threads.append(totals)
        _local.totals = totals
        return totals


def _reset_after_fork() -> None:
    global _local, _threads, _threads_lock, _flush_lock
    _local = threading.local()
    _threads = []
    _threads_lock = threading.Lock()
    _flush_lock = threading.Lock()
    _enqueued.clear()


class _ForkAnchor:
    """Weak-referenceable key for ``multiprocessing.util.register_after_fork``."""


_FORK_ANCHOR = _ForkAnchor()


def _flush_at_worker_exit(_anchor) -> None:
    # multiprocessing clears its finalizer registry in a new child before
    # running after-fork hooks, so the finalizer is registered from here.
    from multiprocessing import util

    util.Finalize(None, flush, exitpriority=0)


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to counter ``name`` (thread-local, merged on flush)."""
    counts = _totals().counts
    counts[name] = counts.get(name, 0) + amount


def snapshot() -> Dict[str, Dict[str, int]]:
    """This process's merged totals: counts, total and self nanoseconds."""
    merged: Dict[str, Dict[str, int]] = {"counts": {}, "total_ns": {}, "self_ns": {}}
    with _threads_lock:
        threads = list(_threads)
    for totals in threads:
        for field in ("counts", "total_ns", "self_ns"):
            into = merged[field]
            for name, value in getattr(totals, field).copy().items():
                into[name] = into.get(name, 0) + value
    return merged


def flush() -> None:
    """Write this process's totals to ``<trace_dir>/<pid>.json``."""
    if _trace_dir is None:
        return
    with _flush_lock:
        path = _trace_dir / f"{os.getpid()}.json"
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(snapshot()), encoding="utf-8")
        os.replace(temporary, path)


def merge_dir(trace_dir: Path) -> Dict[str, Dict[str, int]]:
    """Sum the per-process files one traced unit left in ``trace_dir``."""
    merged: Dict[str, Dict[str, int]] = {"counts": {}, "total_ns": {}, "self_ns": {}}
    for path in sorted(Path(trace_dir).glob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        for field, into in merged.items():
            for name, value in document.get(field, {}).items():
                into[name] = into.get(name, 0) + value
    return merged


def _span(name: str, fn: Callable, calls: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span; ``calls(args)`` overrides the call count of 1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        totals = _totals()
        stack = totals.stack
        stack.append(0)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            children = stack.pop()
            counts = totals.counts
            counts[name] = counts.get(name, 0) + (1 if calls is None else calls(args))
            total_ns = totals.total_ns
            total_ns[name] = total_ns.get(name, 0) + elapsed
            self_ns = totals.self_ns
            self_ns[name] = self_ns.get(name, 0) + elapsed - children
            if stack:
                stack[-1] += elapsed

    return wrapper


def _counted(name: str, fn: Callable) -> Callable:
    """Count calls of ``fn`` without timing them (for the hottest leaf)."""

    @functools.wraps(fn)
    def wrapper(*args):
        counts = _totals().counts
        counts[name] = counts.get(name, 0) + 1
        return fn(*args)

    return wrapper


def _patch(owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
    original = owner.__dict__[attribute]
    if isinstance(original, classmethod):
        setattr(owner, attribute, classmethod(make(original.__func__)))
    else:
        setattr(owner, attribute, make(original))


def _patch_function(
    module, attribute: str, make: Callable[[Callable], Callable]
) -> None:
    """Replace a module function everywhere repro imported it by name."""
    import sys

    original = getattr(module, attribute)
    wrapped = make(original)
    for name, other in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            other, attribute, None
        ) is original:
            setattr(other, attribute, wrapped)


def _evaluator_entry(fn: Callable, calls: Optional[Callable] = None) -> Callable:
    """``mapping.evaluate`` plus the evaluator's own counters, as deltas."""
    timed = _span("mapping.evaluate", fn, calls)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        evaluations, hits, misses = self.evaluations, self.cache_hits, self.cache_misses
        try:
            return timed(self, *args, **kwargs)
        finally:
            counts = _totals().counts
            for name, delta in (
                ("evaluator.evaluations", self.evaluations - evaluations),
                ("mapping.cache_hits", self.cache_hits - hits),
                ("mapping.cache_misses", self.cache_misses - misses),
            ):
                counts[name] = counts.get(name, 0) + delta

    return wrapper


def _after(fn: Callable, record: Callable) -> Callable:
    """Call ``record(self_or_first_arg, result)`` after ``fn`` returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(args[0] if args else None, result)
        return result

    return wrapper


def start_unit(trace_dir) -> None:
    """Zero this process's totals and write them to ``trace_dir`` from now on."""
    global _trace_dir
    with _threads_lock:
        threads = list(_threads)
    for totals in threads:
        totals.counts.clear()
        totals.total_ns.clear()
        totals.self_ns.clear()
    _enqueued.clear()
    _trace_dir = Path(trace_dir)
    _trace_dir.mkdir(parents=True, exist_ok=True)


def stop_unit() -> None:
    """Write this process's totals and stop writing until the next unit."""
    global _trace_dir
    flush()
    _trace_dir = None


def install(trace_dir) -> None:
    """Wrap every layer's entry points; totals go to ``trace_dir``."""
    global _installed
    start_unit(trace_dir)
    if _installed:
        return
    _installed = True
    from multiprocessing import util

    os.register_at_fork(after_in_child=_reset_after_fork)
    util.register_after_fork(_FORK_ANCHOR, _flush_at_worker_exit)
    atexit.register(flush)

    from repro import api
    from repro.arch.power import PowerModel
    from repro.exec import dag
    from repro.experiments import common, runner
    from repro.mapping.incremental import IncrementalMappingState
    from repro.mapping.metrics import MappingEvaluator
    from repro.optim import annealing, design_optimizer, optimized_mapping
    from repro.sched.batched import BatchedListScheduler
    from repro.sched.list_scheduler import ListScheduler
    from repro.sched.schedule import Schedule
    from repro.service.http import ServiceHandler
    from repro.service.jobs import JobManager, QueueFullError
    from repro.store.checkpoint import CellCheckpoint
    from repro.store.index import StoreIndex
    from repro.store.run_store import RunStore
    from repro.taskgraph.compiled import CompiledTaskGraph

    def span(name, calls=None):
        return lambda fn: _span(name, fn, calls)

    # taskgraph / sched / arch: the kernel under every evaluation.
    _patch(
        CompiledTaskGraph,
        "mask_bits",
        lambda fn: _counted("taskgraph.mask_bits", fn),
    )
    _patch(ListScheduler, "schedule", span("sched.schedule"))
    _patch(Schedule, "from_arrays", span("sched.from_arrays"))
    _patch(BatchedListScheduler, "run", span("sched.batched"))
    def batch_rows(_scheduler, result):
        count("sched.batched.rows", len(result.makespans))

    _patch(BatchedListScheduler, "run", lambda fn: _after(fn, batch_rows))
    for name in ("platform_power_mw", "platform_power_mw_from_terms"):
        _patch(PowerModel, name, span("arch.power"))

    # mapping: evaluation entry points, the evaluator count, screening.
    _patch(MappingEvaluator, "evaluate", _evaluator_entry)
    _patch(MappingEvaluator, "evaluate_signature", _evaluator_entry)
    _patch(
        MappingEvaluator,
        "evaluate_batch",
        lambda fn: _evaluator_entry(fn, calls=lambda args: len(args[1])),
    )
    _patch(
        MappingEvaluator,
        "__init__",
        lambda fn: _after(fn, lambda _self, _result: count("mapping.evaluators")),
    )
    for name in (
        "estimate_current",
        "estimate_move",
        "estimate_move_index",
        "estimate_swap",
        "estimate_swap_index",
        "estimate_mapping",
    ):
        _patch(IncrementalMappingState, name, span("mapping.screen"))

    # optim: the search loops (restart leaves included) and the Fig. 4 loop.
    def screened(mapper, _result):
        count("mapping.screen.rejected", mapper.screened_moves)

    searches = (
        annealing.SimulatedAnnealingMapper,
        optimized_mapping.OptimizedMappingSearch,
    )
    for owner in searches:
        _patch(owner, "run", span("optim.search"))
        _patch(owner, "run", lambda fn: _after(fn, screened))
    # Restart leaves run the same walk; their screened moves are folded
    # into the parent mapper, which the run() hook above counts.
    _patch(annealing._RestartJob, "run", span("optim.search"))
    _patch(design_optimizer.DesignOptimizer, "optimize", span("optim.optimize"))
    def assessed(_optimizer, outcome):
        count("optim.scalings_assessed", len(outcome.assessments))

    _patch(
        design_optimizer.DesignOptimizer,
        "optimize",
        lambda fn: _after(fn, assessed),
    )

    # exec: batches, leaves (in whichever process runs them), executor stats.
    _patch(dag.DagExecutor, "map_stream", span("exec.map"))
    dag._dag_leaf = _span("exec.leaf", dag._dag_leaf)

    def executor_stats(fn):
        @functools.wraps(fn)
        def wrapper(self):
            stats = self.stats
            count("exec.retries", stats.retries)
            count("exec.worker_restarts", stats.worker_restarts)
            count("exec.steals", stats.steals)
            count("exec.queue_high_water", stats.queue_high_water)
            return fn(self)

        return wrapper

    _patch(dag.DagExecutor, "close", executor_stats)

    # experiments: grid fan-out and report rendering.
    _patch_function(common, "run_cells", lambda fn: _span("experiments.run_cells", fn))
    _patch_function(runner, "render_report", lambda fn: _span("experiments.render", fn))

    # store: record appends, per-scaling checkpoints, sidecar index upserts.
    _patch(RunStore, "record_result", span("store.append"))
    _patch(CellCheckpoint, "record", span("store.checkpoint"))
    for name in ("update_entry", "update_grid_cell"):
        _patch(StoreIndex, name, span("store.index"))

    # api: the facade the service and the CLI share.
    def submitted(_spec, submission):
        count("api.submit.cached", int(bool(submission.cached)))

    _patch_function(
        api, "submit_run", lambda fn: _after(_span("api.submit", fn), submitted)
    )
    _patch_function(api, "run_status", lambda fn: _span("api.status", fn))
    _patch_function(api, "list_runs", lambda fn: _span("api.list", fn))
    _patch_function(api, "fetch_report", lambda fn: _span("api.report", fn))

    def run_submitted(fn):
        @functools.wraps(fn)
        def wrapper(store_root, run_id, *args, **kwargs):
            enqueued = _enqueued.pop(run_id, None)
            if enqueued is not None:
                count("service.queue_wait_ns", _clock() - enqueued[0])
                count("service.jobs")
            return fn(store_root, run_id, *args, **kwargs)

        return wrapper

    _patch_function(api, "run_submitted", run_submitted)

    # service: request handling and the job queue.
    for name in ("do_GET", "do_POST", "do_DELETE"):
        _patch(ServiceHandler, name, span("service.request"))

    def manager_submit(fn):
        # The enqueue time is taken before the call: a job worker may
        # start the run before submit() returns.
        @functools.wraps(fn)
        def wrapper(self, payload, *args, **kwargs):
            try:
                run_id = api.RunSpec.coerce(payload).run_id()
            except api.ApiError:
                return fn(self, payload, *args, **kwargs)  # raises the same error
            token = (_clock(),)
            mine = _enqueued.setdefault(run_id, token) is token  # atomic check-and-set
            try:
                submission = fn(self, payload, *args, **kwargs)
            except Exception as exc:
                if mine:
                    _enqueued.pop(run_id, None)
                if isinstance(exc, QueueFullError):
                    count("service.rejected")
                raise
            if mine and not submission.scheduled:
                _enqueued.pop(run_id, None)
            return submission

        return wrapper

    _patch(JobManager, "submit", manager_submit)
