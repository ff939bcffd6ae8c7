"""List scheduler for mapped task graphs.

Implements the list scheduling used in step A/D of the paper's
``OptimizedMapping`` (Fig. 7, following Izosimov et al. [8]):

1. Compute a static priority for every task — the *bottom level*
   (longest computation+communication path to an exit task).
2. Repeatedly pick the ready task (all predecessors scheduled) with
   the highest priority and place it on its mapped core at the
   earliest feasible time.

Timing model
------------
Cores run at per-core scaled frequencies.  Two communication models
are supported:

* ``"dedicated"`` (default, the paper's platform) — a task ``j``
  mapped on core ``i`` occupies the core for

      (t_j + sum of d_kj over cross-core incoming edges) / f_i  seconds

  i.e. the receive of each cross-core dependency executes on the
  consumer's clock, matching Eq. (7)'s accounting of dependency time
  in ``T_i``.
* ``"shared-bus"`` — cross-core transfers serialize on one global
  bus (clocked at the fastest core frequency by default).  Transfers
  occupy the bus, not the consumer core, so contention stretches the
  makespan of communication-heavy spread mappings — an architecture-
  exploration variant beyond the paper.

Same-core dependencies cost nothing in either model.  A task may start
once its core is free and every predecessor (and, on the bus model,
every incoming transfer) has finished.

Implementation
--------------
The pop order is mapping-independent: the ready heap is keyed on
``(-bottom_level, name)`` and readiness only counts scheduled
predecessors.  The graph's
:class:`~repro.taskgraph.compiled.CompiledTaskGraph` therefore computes
it once (``static_order``), and :meth:`ListScheduler.schedule` walks it
with no heap and no in-degree bookkeeping — integer task ids, per-task
predecessor tuples, preallocated arrays — carrying the makespan and the
per-core busy sums as it goes.  The :class:`~repro.sched.schedule.
Schedule` it returns answers those aggregates at once and sorts its
canonical rows only when they are first read.  Every float operation
and the predecessor iteration order are the seed's, so the result is
bit-for-bit the original implementation's, which is kept as
:meth:`ListScheduler.schedule_reference`; the parity suite asserts
equality on randomized inputs.  The same static order lets
:class:`~repro.sched.batched.BatchedListScheduler` schedule a whole
batch of mappings in a single numpy pass.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from repro.arch.mpsoc import MPSoC
from repro.mapping.mapping import Mapping
from repro.sched.schedule import Schedule, ScheduledTask
from repro.taskgraph.graph import TaskGraph


class ListScheduler:
    """Bottom-level list scheduler.

    Parameters
    ----------
    graph:
        The application task graph.
    frequencies_hz:
        Per-core clock frequencies.  Usually obtained from an
        :class:`~repro.arch.mpsoc.MPSoC` via :meth:`for_platform`.
    cycle_scales:
        Optional per-core cycle-scale factors for heterogeneous
        platforms: a task of ``c`` base cycles costs
        ``max(1, round(c * scale))`` compute cycles on that core.
        ``None`` (or all ones) keeps every core on the base cycle
        tuple — the seed path.  Priorities stay base-cycle-derived
        either way, so the pop order remains mapping-independent.
    """

    _COMM_MODELS = ("dedicated", "shared-bus")

    def __init__(
        self,
        graph: TaskGraph,
        frequencies_hz: Sequence[float],
        comm_model: str = "dedicated",
        bus_frequency_hz: Optional[float] = None,
        cycle_scales: Optional[Sequence[float]] = None,
    ) -> None:
        graph.validate()
        if not frequencies_hz:
            raise ValueError("need at least one core frequency")
        for frequency in frequencies_hz:
            if frequency <= 0:
                raise ValueError(f"frequencies must be positive, got {frequency}")
        if comm_model not in self._COMM_MODELS:
            raise ValueError(
                f"unknown comm model {comm_model!r}; choose from {self._COMM_MODELS}"
            )
        self._graph = graph
        # Bound to the graph's compiled view (and per-core cycle rows) by
        # the first schedule() call, and re-bound after any mutation.
        self._compiled = None
        self._core_cycles: Sequence[Sequence[int]] = ()
        self._frequencies = tuple(float(f) for f in frequencies_hz)
        if cycle_scales is not None:
            scales = tuple(float(scale) for scale in cycle_scales)
            if len(scales) != len(self._frequencies):
                raise ValueError(
                    f"cycle_scales has {len(scales)} entries for "
                    f"{len(self._frequencies)} cores"
                )
            for scale in scales:
                if scale <= 0.0:
                    raise ValueError(f"cycle scales must be positive, got {scale}")
            # All-unit scales collapse to the homogeneous seed path.
            cycle_scales = None if all(s == 1.0 for s in scales) else scales
        self._cycle_scales: Optional[Sequence[float]] = cycle_scales
        self.comm_model = comm_model
        if bus_frequency_hz is not None and bus_frequency_hz <= 0:
            raise ValueError("bus frequency must be positive")
        self._bus_frequency = bus_frequency_hz or max(self._frequencies)

    @classmethod
    def for_platform(
        cls,
        graph: TaskGraph,
        platform: MPSoC,
        scaling: Optional[Sequence[int]] = None,
        comm_model: str = "dedicated",
        bus_frequency_hz: Optional[float] = None,
    ) -> "ListScheduler":
        """Build a scheduler from a platform and optional scaling vector.

        ``comm_model`` and ``bus_frequency_hz`` are forwarded to the
        constructor, so the shared-bus variant is reachable from the
        platform-level API too.
        """
        if scaling is None:
            scaling = platform.scaling_vector()
        tables = platform.core_tables
        frequencies = [
            table.frequency_hz(coefficient)
            for table, coefficient in zip(tables, scaling)
        ]
        cycle_scales = (
            None if platform.uniform_unit_cycles else platform.cycle_scales()
        )
        return cls(
            graph,
            frequencies,
            comm_model=comm_model,
            bus_frequency_hz=bus_frequency_hz,
            cycle_scales=cycle_scales,
        )

    @property
    def num_cores(self) -> int:
        """Number of cores the scheduler targets."""
        return len(self._frequencies)

    @property
    def frequencies_hz(self) -> Sequence[float]:
        """Per-core clock frequencies."""
        return self._frequencies

    def schedule(self, mapping: Mapping) -> Schedule:
        """Schedule ``mapping`` and return the resulting timeline.

        Raises
        ------
        ValueError
            If the mapping does not cover the graph or targets a
            different number of cores.
        """
        compiled = self._graph.compiled()  # re-validated (cycles) on mutation
        if compiled is not self._compiled:
            # Never schedule against stale arrays (the reference path
            # reads the graph live and stays in step).  Homogeneous
            # platforms point every core at the base cycle tuple
            # *object*, so the walk reads exactly the seed path's ints.
            self._compiled = compiled
            self._core_cycles = compiled.cycles_for_cores(
                self._cycle_scales or (1.0,) * len(self._frequencies)
            )
        # The memoized signature (it validated coverage when built): one
        # read of the mapping per compiled view, shared with the evaluator.
        cores, _ = mapping.signature_info(compiled)
        num_cores = self.num_cores
        if mapping.num_cores != num_cores:
            raise ValueError(
                f"mapping targets {mapping.num_cores} cores, scheduler has "
                f"{num_cores}"
            )

        n = compiled.num_tasks
        core_cycles = self._core_cycles
        pred_pairs = compiled.pred_pairs
        frequencies = self._frequencies
        dedicated = self.comm_model == "dedicated"
        bus_frequency = self._bus_frequency

        core_free_at = [0.0] * num_cores
        busy_s = [0.0] * num_cores
        busy_cycles = [0] * num_cores
        bus_free_at = 0.0
        makespan = 0.0
        start_at = [0.0] * n
        finish_at = [0.0] * n
        receive_at = [0] * n

        # The static order is the heap's pop order, so every predecessor
        # is final when its consumer comes up.
        for i in compiled.static_order:
            core = cores[i]
            receive_cycles = 0
            earliest = core_free_at[core]
            for producer, comm in pred_pairs[i]:
                producer_finish = finish_at[producer]
                if producer_finish > earliest:
                    earliest = producer_finish
                if cores[producer] != core:
                    if dedicated:
                        receive_cycles += comm
                    else:  # shared-bus: the transfer serializes on the bus
                        transfer_start = (
                            bus_free_at
                            if bus_free_at > producer_finish
                            else producer_finish
                        )
                        transfer_finish = transfer_start + comm / bus_frequency
                        bus_free_at = transfer_finish
                        if transfer_finish > earliest:
                            earliest = transfer_finish
            occupancy = core_cycles[core][i] + receive_cycles
            finish = earliest + occupancy / frequencies[core]
            core_free_at[core] = finish
            start_at[i] = earliest
            finish_at[i] = finish
            receive_at[i] = receive_cycles
            # Pop order is start order on each core, so these float sums
            # equal the canonical-order ones.
            busy_s[core] += finish - earliest
            busy_cycles[core] += occupancy
            if finish > makespan:
                makespan = finish

        if self._cycle_scales is None:
            compute_at = compiled.cycles
        else:
            compute_at = [core_cycles[core][i] for i, core in enumerate(cores)]
        return Schedule.from_walk(
            compiled.names,
            cores,
            start_at,
            finish_at,
            compute_at,
            receive_at,
            num_cores,
            frequencies,
            makespan,
            busy_s,
            busy_cycles,
        )

    def schedule_reference(self, mapping: Mapping) -> Schedule:
        """The original (seed) dict-and-string implementation.

        Kept verbatim as the behavioural reference: the parity test
        suite asserts :meth:`schedule` reproduces it bit-for-bit over
        randomized graphs, mappings and both comm models.  Prefer
        :meth:`schedule` everywhere else — it is several times faster.
        """
        mapping.validate_against(self._graph)
        if mapping.num_cores != self.num_cores:
            raise ValueError(
                f"mapping targets {mapping.num_cores} cores, scheduler has "
                f"{self.num_cores}"
            )

        graph = self._graph
        priorities = graph.bottom_levels()
        in_degree: Dict[str, int] = {
            name: len(graph.predecessors(name)) for name in graph.task_names()
        }
        # Max-heap on priority; tie-break on name for determinism.
        ready: List = [
            (-priorities[name], name)
            for name, degree in in_degree.items()
            if degree == 0
        ]
        heapq.heapify(ready)

        core_free_at = [0.0] * self.num_cores
        bus_free_at = 0.0
        finish_at: Dict[str, float] = {}
        entries: List[ScheduledTask] = []

        scheduled_count = 0
        while ready:
            _, name = heapq.heappop(ready)
            core = mapping.core_of(name)
            frequency = self._frequencies[core]
            task = graph.task(name)

            receive_cycles = 0
            earliest = core_free_at[core]
            for producer in graph.predecessors(name):
                earliest = max(earliest, finish_at[producer])
                if mapping.core_of(producer) != core:
                    comm = graph.comm_cycles(producer, name)
                    if self.comm_model == "dedicated":
                        receive_cycles += comm
                    else:  # shared-bus: the transfer serializes on the bus
                        transfer_start = max(bus_free_at, finish_at[producer])
                        transfer_finish = transfer_start + comm / self._bus_frequency
                        bus_free_at = transfer_finish
                        earliest = max(earliest, transfer_finish)

            compute = task.cycles
            if self._cycle_scales is not None:
                scale = self._cycle_scales[core]
                if scale != 1.0:
                    compute = max(1, round(task.cycles * scale))
            duration = (compute + receive_cycles) / frequency
            start = earliest
            finish = start + duration
            core_free_at[core] = finish
            finish_at[name] = finish
            entries.append(
                ScheduledTask(
                    name=name,
                    core=core,
                    start_s=start,
                    finish_s=finish,
                    compute_cycles=compute,
                    receive_cycles=receive_cycles,
                )
            )
            scheduled_count += 1

            for successor in graph.successors(name):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    heapq.heappush(ready, (-priorities[successor], successor))

        if scheduled_count != graph.num_tasks:
            raise ValueError("scheduling incomplete: graph contains a cycle")
        return Schedule(entries, self.num_cores, self._frequencies)

    def makespan_s(self, mapping: Mapping) -> float:
        """Convenience: the makespan of ``mapping`` in seconds."""
        return self.schedule(mapping).makespan_s()
