"""The benchmark's inputs, each a pure function of the workload seed.

Programs only ever receive what these functions build.  Every input
family is finite and a seed picks a member, so the committed references
in ``references/`` (see ``make_references.py``) cover every seed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, List, Tuple

#: Input variants of tgff_hetero; a workload seed selects ``seed % VARIANTS``.
VARIANTS = 16

#: Table III profile seeds.  Across seeds 0-30 a smoke grid costs 247k
#: to 480k evaluations, which would swamp any change being measured, so
#: workload seeds other than 0 cycle through ten grids that all cost
#: 247k-259k.  Workload seed 0 is the CLI's default grid (profile seed 0,
#: 335,730 evaluations), the one the ROADMAP's profile split describes.
TABLE3_SEEDS = (2, 14, 17, 19, 20, 21, 22, 24, 25, 26)

#: tgff_hetero: graph size and seed, platform, node, cores, and the
#: deadline as a multiple of (total cycles / summed top-level core
#: frequency).  100 tasks is the smallest graph ``screen_moves="auto"``
#: screens, and at 4x the deadline is tight enough that screening
#: rejects moves.  The graph is fixed and the workload seed picks the
#: search seed, so seeds vary the search, not the graph's cost.
TGFF_TASKS = 100
TGFF_GRAPH_SEED = 0
TGFF_PLATFORM = "biglittle"
TGFF_NODE = "22nm"
TGFF_CORES = 4
TGFF_DEADLINE_FACTOR = 4.0
#: The optimizer assesses exactly the cheapest scaling vectors (no early
#: exit), so every seed costs about the same number of evaluations.
TGFF_SCALINGS = 4

#: service_mix: the closed loop cycles through these kinds, in order.
SERVICE_KINDS = ("fig3", "fig9", "table2", "hetero", "optimize")
#: The paper's shape checks hold on its own platform (arm7 @ 45 nm), not
#: at other nodes (table2 prints FAIL at 22 nm for every seed), so these
#: kinds run there; hetero and optimize vary the platform and node.
PAPER_PLATFORM_KINDS = ("fig3", "fig9", "table2")
#: Profile seeds whose smoke reports pass every shape check (fig3 fails
#: at seeds 1 and 2).
SERVICE_SEEDS = (0, 3, 4, 5, 6, 7)
#: (platform, node) pairs on which every kind finds a feasible design.
SERVICE_PLATFORMS = (
    ("arm7", "45nm"),
    ("arm7", "22nm"),
    ("biglittle", "22nm"),
    ("little", "22nm"),
)
SERVICE_VARIANTS = len(SERVICE_SEEDS) * len(SERVICE_PLATFORMS)
OPTIMIZE_TASKS = 12
OPTIMIZE_CORES = 3


def variant(seed: int) -> int:
    return seed % VARIANTS


def table3_profile(seed: int):
    """The smoke Table III profile for a workload seed (default plan)."""
    from repro.experiments.common import ExperimentProfile

    profile_seed = 0 if seed == 0 else TABLE3_SEEDS[(seed - 1) % len(TABLE3_SEEDS)]
    return ExperimentProfile.smoke(seed=profile_seed)


def table3_dag_profile(seed: int, store_dir: str):
    """``table3_profile`` on the process DAG plan, streamed into a store."""
    return (
        table3_profile(seed)
        .with_exec_plan("dag:process")
        .with_max_workers(2)
        .with_store(store_dir)
    )


def tgff_optimizer(seed: int):
    """(optimizer, scalings) of the large heterogeneous workload."""
    from repro.experiments.common import (
        ExperimentProfile,
        build_optimizer,
        build_platform,
    )
    from repro.optim import platform_scaling_combinations
    from repro.taskgraph.generators import tgff_random_graph

    graph = tgff_random_graph(TGFF_TASKS, seed=TGFF_GRAPH_SEED)
    graph.compiled()
    smoke = ExperimentProfile.smoke(seed=variant(seed))
    profile = replace(
        smoke.with_platform(TGFF_PLATFORM, TGFF_NODE),
        screen_moves="auto",
        stop_after_feasible=None,
    )
    total_cycles = sum(task.cycles for task in graph.tasks())
    platform = build_platform(TGFF_CORES, platform=TGFF_PLATFORM, tech_node=TGFF_NODE)
    top = sum(table.frequency_hz(1) for table in platform.core_tables)
    deadline_s = TGFF_DEADLINE_FACTOR * total_cycles / top
    optimizer = build_optimizer(graph, TGFF_CORES, deadline_s, profile)
    scalings = sorted(
        platform_scaling_combinations(optimizer.platform), key=optimizer.power_proxy
    )[:TGFF_SCALINGS]
    return optimizer, scalings


def tgff_summary(outcome) -> Dict[str, Any]:
    """The checked facts of a tgff_hetero outcome (floats as exact reprs)."""
    best = outcome.best
    if best is None:
        return {"best": None, "evaluations": outcome.evaluations}
    return {
        "power_mw": repr(best.power_mw),
        "expected_seus": repr(best.expected_seus),
        "scaling": list(best.scaling),
        "meets_deadline": best.meets_deadline,
        "evaluations": outcome.evaluations,
    }


def service_spec(kind: str, index: int) -> Dict[str, Any]:
    """Variant ``index`` of a service submission kind (a run payload).

    ``index % 4`` picks the platform and node, ``index // 4`` the seed.
    """
    platform, node = SERVICE_PLATFORMS[index % len(SERVICE_PLATFORMS)]
    if kind in PAPER_PLATFORM_KINDS:
        platform, node = SERVICE_PLATFORMS[0]
    seed = SERVICE_SEEDS[index // len(SERVICE_PLATFORMS)]
    if kind != "optimize":
        return {
            "experiment": kind,
            "profile": "smoke",
            "seed": seed,
            "platform": platform,
            "tech_node": node,
        }
    from repro.taskgraph.random_graphs import RandomGraphConfig, random_task_graph
    from repro.taskgraph.serialize import graph_to_dict

    config = RandomGraphConfig(num_tasks=OPTIMIZE_TASKS)
    graph = random_task_graph(config, seed=1000 + index)
    return {
        "graph": graph_to_dict(graph),
        "num_cores": OPTIMIZE_CORES,
        "deadline_s": config.deadline_s,
        "profile": "smoke",
        "seed": seed,
        "platform": platform,
        "tech_node": node,
    }


def service_plan(seed: int) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """(warm-up specs, fresh specs in submission order) for a workload seed.

    Fresh specs cycle through ``SERVICE_KINDS``.  Cycle ``c`` runs hetero
    and optimize on platform ``c % 4`` (a platform changes a run's cost
    several fold, so every seed gets the same platform per cycle); the
    seed shuffles which profile seed or graph each kind uses.  The warm-up
    runs (the two cheapest kinds) complete before measuring so the read
    loop has finished runs to read.
    """
    platforms = len(SERVICE_PLATFORMS)
    rng = random.Random(seed)
    seeds = SERVICE_VARIANTS // platforms
    orders = {kind: rng.sample(range(seeds), seeds) for kind in SERVICE_KINDS}
    last = seeds - 1
    warmup = [
        service_spec(kind, orders[kind][last] * platforms + last % platforms)
        for kind in ("fig3", "fig9")
    ]
    fresh = [
        service_spec(kind, orders[kind][cycle] * platforms + cycle % platforms)
        for cycle in range(last)
        for kind in SERVICE_KINDS
    ]
    return warmup, fresh


def all_service_specs() -> List[Dict[str, Any]]:
    return [
        service_spec(kind, index)
        for kind in SERVICE_KINDS
        for index in range(SERVICE_VARIANTS)
    ]
