"""The heap-free static-order scheduler and its lazy schedules.

``ListScheduler.schedule`` walks ``CompiledTaskGraph.static_order``
instead of running a ready heap, and returns a ``Schedule`` whose rows
are sorted only when first read.  These tests pin the three facts that
rest on:

* the static order *is* the seed heap's pop order, on every graph
  family of the parity suite;
* ``mask_bits``' byte tables equal the bit-by-bit weighted popcount;
* every accessor of a walk-built schedule equals the seed scheduler's,
  whether read before the rows settle, after, or after a pickle round
  trip — also when many threads settle one schedule at once.
"""

import heapq
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.mapping import Mapping
from repro.sched import ListScheduler, Schedule, set_from_arrays_validation
from repro.taskgraph import (
    RandomGraphConfig,
    Register,
    TaskGraph,
    fork_join_graph,
    layered_graph,
    mpeg2_decoder,
    pipeline_graph,
    random_task_graph,
)
from repro.taskgraph.examples import fig8_example


def _graph_families():
    """The graph families ``tests/test_compiled_parity.py`` sweeps."""
    yield mpeg2_decoder()
    yield fig8_example()
    for stages in range(3, 9):
        yield pipeline_graph(stages)
    for branches in range(2, 6):
        yield fork_join_graph(branches)
    for trial in range(12):
        config = RandomGraphConfig(num_tasks=5 + 3 * trial)
        yield random_task_graph(config, seed=trial)
    yield layered_graph(4, 3, seed=5)


def _heap_pop_order(graph):
    """The seed scheduler's pop order: a ready heap on (-level, name)."""
    levels = graph.bottom_levels()
    in_degree = {name: len(graph.predecessors(name)) for name in graph.task_names()}
    ready = [(-levels[name], name) for name, degree in in_degree.items() if not degree]
    heapq.heapify(ready)
    order = []
    while ready:
        _, name = heapq.heappop(ready)
        order.append(name)
        for successor in graph.successors(name):
            in_degree[successor] -= 1
            if not in_degree[successor]:
                heapq.heappush(ready, (-levels[successor], successor))
    return order


@pytest.mark.parametrize("graph", list(_graph_families()), ids=lambda g: g.name)
def test_static_order_is_the_heap_pop_order(graph):
    compiled = graph.compiled()
    order = [compiled.names[i] for i in compiled.static_order]
    assert order == _heap_pop_order(graph)


def test_a_cycle_added_after_construction_is_rejected(mpeg2):
    scheduler = ListScheduler(mpeg2, [2e8] * 3)
    mapping = Mapping.round_robin(mpeg2, 3)
    scheduler.schedule(mapping)
    mpeg2.add_edge("t11", "t1", 5)
    with pytest.raises(ValueError, match="cycle"):
        scheduler.schedule(mapping)


# ---------------------------------------------------------------------------
# mask_bits: per-byte weighted-popcount tables.
# ---------------------------------------------------------------------------


def _register_graph(count):
    """One task per register, widths 1..count, so every bit is distinct."""
    graph = TaskGraph(f"regs{count}")
    graph.add_task("anchor", 10)
    for bit in range(count):
        graph.add_task(f"r{bit:03d}", 10, registers=[Register(f"r{bit:03d}", bit + 1)])
    return graph.compiled()


def _bit_walk(register_bits, mask):
    return sum(width for bit, width in enumerate(register_bits) if mask >> bit & 1)


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 63, 64, 65, 255])
def test_mask_bits_equals_the_bit_walk(count):
    compiled = _register_graph(count)
    assert len(compiled.registers) == count
    rng = random.Random(count)
    full = (1 << count) - 1
    masks = {0, full} | {rng.getrandbits(count) if count else 0 for _ in range(200)}
    masks |= {1 << bit for bit in range(count)}
    for mask in masks:
        assert compiled.mask_bits(mask) == _bit_walk(compiled.register_bits, mask)
    with pytest.raises(ValueError, match="beyond"):
        compiled.mask_bits(1 << count)
    with pytest.raises(ValueError, match="beyond"):
        compiled.mask_bits(full | 1 << (count + 9))


# ---------------------------------------------------------------------------
# Lazy schedules: every accessor equals the seed scheduler's.
# ---------------------------------------------------------------------------


def _accessors(schedule, graph, mapping):
    """Each accessor's answer (``verify`` passes as ``None``)."""
    names = list(graph.task_names())
    return {
        "iter": list(schedule),
        "entry": [schedule.entry(name) for name in names],
        "in": [name in schedule for name in names + ["no-such-task"]],
        "core_entries": [
            schedule.core_entries(core) for core in range(mapping.num_cores)
        ],
        "to_rows": schedule.to_rows(),
        "gantt_text": schedule.gantt_text(),
        "verify": schedule.verify(graph, mapping),
        "len": len(schedule),
    }


def _cases():
    rng = random.Random(11)
    for trial, graph in enumerate(_graph_families()):
        num_cores = 1 + trial % 4
        mapping = Mapping(
            {name: rng.randrange(num_cores) for name in graph.task_names()},
            num_cores,
        )
        frequencies = [rng.choice([1e8, 2e8, 3.3e8]) for _ in range(num_cores)]
        comm_model = ("dedicated", "shared-bus")[trial % 2]
        yield graph, mapping, ListScheduler(graph, frequencies, comm_model=comm_model)


@pytest.mark.parametrize("graph,mapping,scheduler", list(_cases()))
def test_every_accessor_matches_the_reference(graph, mapping, scheduler):
    expected = _accessors(scheduler.schedule_reference(mapping), graph, mapping)
    for name in expected:  # each accessor first on a fresh, unsettled schedule
        fresh = scheduler.schedule(mapping)
        assert fresh._pending is not None
        assert _accessors(fresh, graph, mapping)[name] == expected[name], name
    settled = scheduler.schedule(mapping)
    settled.to_rows()
    assert _accessors(settled, graph, mapping) == expected
    for schedule in (scheduler.schedule(mapping), settled):
        copy = pickle.loads(pickle.dumps(schedule))
        assert _accessors(copy, graph, mapping) == expected
        assert copy.makespan_s() == schedule.makespan_s()
        assert copy.activities() == schedule.activities()


def test_threads_settling_one_schedule_see_identical_rows(mpeg2):
    scheduler = ListScheduler(mpeg2, [1e8, 2e8, 3e8], comm_model="dedicated")
    mapping = Mapping.round_robin(mpeg2, 3)
    expected = scheduler.schedule_reference(mapping).to_rows()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        rounds = 0
        while rounds < 200 and time.monotonic() < deadline:
            schedule = scheduler.schedule(mapping)
            barrier = threading.Barrier(8)
            seen = []

            def read(schedule=schedule, barrier=barrier, seen=seen):
                barrier.wait(timeout=10)
                seen.append((schedule.to_rows(), [e.name for e in schedule]))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(seen) == 8
            for rows, names in seen:
                assert rows == expected
                assert names == [row[0] for row in expected]
            rounds += 1
    finally:
        sys.setswitchinterval(previous)
    assert rounds


# ---------------------------------------------------------------------------
# Row validation (REPRO_VALIDATE_SCHEDULES) reaches walk-built schedules.
# ---------------------------------------------------------------------------


@pytest.fixture
def armed():
    previous = set_from_arrays_validation(True)
    yield
    set_from_arrays_validation(previous)


def _walk_schedule(names, cores, starts):
    count = len(names)
    finishes = [float(i + 1) for i in range(count)]
    rows = (names, cores, starts, finishes, [100] * count, [0] * count)
    aggregates = (float(count), [1.0, 1.0], [100, 100])
    return Schedule.from_walk(*rows, 2, [1.0, 1.0], *aggregates)


def test_armed_walk_schedule_rejects_a_duplicated_row(armed):
    with pytest.raises(ValueError, match="scheduled twice"):
        _walk_schedule(["a", "a"], [0, 1], [0.0, 1.0])
    with pytest.raises(ValueError, match="invalid core"):
        _walk_schedule(["a", "b"], [0, 7], [0.0, 1.0])
    with pytest.raises(ValueError, match="disagree on length"):
        _walk_schedule(["a", "b"], [0, 1], [0.0])
    assert len(_walk_schedule(["a", "b"], [0, 1], [0.0, 1.0])) == 2


def test_environment_arms_walk_schedule_validation():
    # REPRO_VALIDATE_SCHEDULES=1 is read at import, as in CI's armed pass
    # and in process-pool workers.
    code = (
        "from repro.sched import Schedule\n"
        "Schedule.from_walk(['a', 'a'], [0, 1], [0.0, 1.0], [1.0, 2.0],"
        " [100, 100], [0, 0], 2, [1.0, 1.0], 2.0, [1.0, 1.0], [100, 100])\n"
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_VALIDATE_SCHEDULES="1", PYTHONPATH=source_root)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode != 0
    assert "scheduled twice" in result.stderr


def test_armed_scheduler_output_passes_validation(armed, mpeg2):
    mapping = Mapping.round_robin(mpeg2, 4)
    scheduler = ListScheduler(mpeg2, [2e8] * 4)
    scheduler.schedule(mapping).verify(mpeg2, mapping)
