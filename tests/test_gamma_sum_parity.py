"""Gamma (Eq. 3) sums the same way on the serial and the batched path.

``evaluate_reference`` and ``evaluate`` compute Gamma through
``expected_seus``, which adds the per-core terms with the builtin
``sum()``.  From Python 3.12 on, ``sum()`` adds floats with Neumaier
compensation, so a hand-written left-to-right loop can differ from it
in the last bit once three or more cores carry registers.  The test
shadows ``sum`` in ``repro.mapping.metrics`` with such a compensated
sum, on any interpreter, and asserts that the vectorized
``evaluate_batch`` still equals the per-mapping reference path
bit for bit.
"""

import builtins
import random

import pytest

import repro.mapping.metrics as metrics
from repro.arch import MPSoC
from repro.mapping import Mapping, MappingEvaluator
from repro.taskgraph import mpeg2_decoder


def compensated_sum(iterable, start=0):
    """``sum()`` as Python 3.12 computes it: exact for ints, Neumaier for floats."""
    items = list(iterable)
    if isinstance(start, int) and all(isinstance(item, int) for item in items):
        return builtins.sum(items, start)
    total = float(start)
    compensation = 0.0
    for item in items:
        item = float(item)
        partial = total + item
        if abs(total) >= abs(item):
            compensation += (total - partial) + item
        else:
            compensation += (item - partial) + total
        total = partial
    return total + compensation


def test_compensated_sum_differs_from_a_left_to_right_loop():
    terms = [1.0, 1e100, 1.0, -1e100]
    assert builtins.sum(terms) in (0.0, 2.0)  # 0.0 before 3.12, 2.0 after
    assert compensated_sum(terms) == 2.0
    assert compensated_sum([3, 4], 5) == 12
    assert isinstance(compensated_sum((1, 2)), int)


@pytest.mark.parametrize("num_cores", [3, 4, 5, 6])
def test_batch_gamma_equals_the_reference_under_compensated_sum(
    monkeypatch, num_cores
):
    monkeypatch.setattr(metrics, "sum", compensated_sum, raising=False)
    graph = mpeg2_decoder()
    names = graph.task_names()
    rng = random.Random(num_cores)
    batch = MappingEvaluator(graph, MPSoC.paper_reference(num_cores))
    loop = MappingEvaluator(graph, MPSoC.paper_reference(num_cores))
    for _ in range(8):
        scaling = tuple(rng.choice((1, 2, 3)) for _ in range(num_cores))
        mappings = [
            Mapping({name: rng.randrange(num_cores) for name in names}, num_cores)
            for _ in range(40)
        ]
        points = batch.evaluate_batch(mappings, scaling)
        references = loop.evaluate_batch_reference(mappings, scaling)
        assert points == references
