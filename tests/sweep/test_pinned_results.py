"""Pinned regression: a fixed-seed behavioural sweep matrix reproduces
the per-run result dicts recorded in ``data/behav_matrix_seed11.json``.

The recording was taken before the netsim event list was re-keyed on
``(time, priority, seq)`` tuples and the cell/packet bridge stopped
copying payloads; any change to dispatch order or to a simulated
statistic shows here as a differing field.  Only the wall-clock
figures (``wall_s``, ``cycles_per_s``) are left out.
"""

import json
from pathlib import Path

import pytest

from repro.sweep import SweepSpec
from repro.sweep.scenario import execute_run

PINNED = json.loads(
    (Path(__file__).parent / "data" / "behav_matrix_seed11.json")
    .read_text())
VOLATILE = ("wall_s", "cycles_per_s")

SPEC = SweepSpec(traffic=["cbr", "poisson", "onoff"], ports=[2, 4],
                 seeds=[11], level=["behav"], cells=400, load=0.25,
                 jobs=1)


@pytest.mark.parametrize("run", SPEC.expand(), ids=lambda run: run.name)
def test_run_result_matches_pinned_recording(run):
    result = execute_run(run.as_dict(), in_worker=False)
    for key in VOLATILE:
        result.pop(key)
    # round-trip through JSON, as the recording was, so tuples compare
    # equal to the recorded lists
    assert json.loads(json.dumps(result)) == PINNED[run.name]


def test_recording_covers_the_whole_matrix():
    assert sorted(PINNED) == sorted(run.name for run in SPEC.expand())
