"""Store payloads written before lazy schedules still load and agree.

Run stores and checkpoints hold base64 pickles of ``DesignPoint``
objects, schedules included.  ``fixtures/design_point_parent.b64`` is
one such payload, written by the code before the static-order walk
(commit 5c5349b) with::

    PYTHONPATH=src python -c "
    from repro.arch import MPSoC
    from repro.mapping import Mapping, MappingEvaluator
    from repro.store.run_store import _encode_payload
    from repro.taskgraph import mpeg2_decoder
    graph = mpeg2_decoder()
    point = MappingEvaluator(graph, MPSoC.paper_reference(4)).evaluate(
        Mapping.round_robin(graph, 4), (1, 2, 2, 3))
    print(_encode_payload(point))
    " > tests/fixtures/design_point_parent.b64

It must keep loading, its schedule must answer like the seed
scheduler's, and a walk-built schedule must pickle to the same state.
"""

import base64
import io
import pickle
from pathlib import Path

import pytest

from repro.arch import MPSoC
from repro.mapping import Mapping, MappingEvaluator
from repro.sched import ListScheduler
from repro.store.run_store import _decode_payload
from repro.taskgraph import mpeg2_decoder

FIXTURE = Path(__file__).parent / "fixtures" / "design_point_parent.b64"
SCALING = (1, 2, 2, 3)
ROW_SLOTS = ("_names", "_cores", "_starts", "_finishes", "_compute", "_receive")


class _RawState:
    """Stands in for ``Schedule`` to capture the pickled state as stored."""

    def __setstate__(self, state):
        self.state = state


class _RawScheduleUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) == ("repro.sched.schedule", "Schedule"):
            return _RawState
        return super().find_class(module, name)


def _payload() -> str:
    return FIXTURE.read_text(encoding="ascii").strip()


@pytest.fixture
def setting():
    graph = mpeg2_decoder()
    platform = MPSoC.paper_reference(4)
    evaluator = MappingEvaluator(graph, platform)
    scheduler = ListScheduler.for_platform(graph, platform, SCALING)
    return graph, evaluator, scheduler


def test_parent_payload_loads_and_matches_the_reference(setting):
    graph, evaluator, scheduler = setting
    point = _decode_payload(_payload())
    assert point.mapping == Mapping.round_robin(graph, 4)
    reference = scheduler.schedule_reference(point.mapping)
    assert point.schedule.to_rows() == reference.to_rows()
    assert point.schedule.gantt_text() == reference.gantt_text()
    assert point.schedule.verify(graph, point.mapping) is None
    assert reference.verify(graph, point.mapping) is None
    # The stored metrics are the ones this code computes.  This point's
    # four Gamma terms add to the same float with or without the
    # compensation sum() applies from Python 3.12 on, so the comparison
    # is exact on every interpreter.
    fresh = evaluator.evaluate(point.mapping, SCALING)
    assert point == fresh == evaluator.evaluate_reference(point.mapping, SCALING)


def test_walk_built_schedule_pickles_to_the_stored_state(setting):
    graph, evaluator, scheduler = setting
    raw = io.BytesIO(base64.b64decode(_payload()))
    stored_dict, stored_slots = _RawScheduleUnpickler(raw).load().schedule.state
    mapping = Mapping.round_robin(graph, 4)
    fresh = evaluator.evaluate(mapping, SCALING).schedule
    fresh_dict, fresh_slots = fresh.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[2]
    assert fresh_dict is None and stored_dict is None
    assert set(fresh_slots) == set(stored_slots)
    for slot in ROW_SLOTS:
        assert isinstance(fresh_slots[slot], list), slot
        assert fresh_slots[slot] == stored_slots[slot], slot
    # Round trip: a reloaded walk-built schedule answers like the seed's.
    copy = pickle.loads(pickle.dumps(fresh))
    assert copy.to_rows() == scheduler.schedule_reference(mapping).to_rows()
