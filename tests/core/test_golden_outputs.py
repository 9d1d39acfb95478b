"""Every paper artifact is byte-identical to its committed text.

``benchmarks/output/<id>.txt`` holds the reference rendering of each
experiment.  A change that moves any number in any artifact fails here,
so speed-ups and refactors of the models must leave the paper as it was
(a deliberate model change re-records the file and says so).
"""

import pathlib

import pytest

from repro.core import experiment_ids, run_experiment

GOLDEN = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "output"


def test_every_experiment_has_a_golden_text():
    missing = [e for e in experiment_ids() if not (GOLDEN / f"{e}.txt").is_file()]
    assert not missing


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_text_matches_golden(experiment_id):
    expected = (GOLDEN / f"{experiment_id}.txt").read_bytes()
    assert run_experiment(experiment_id).encode() == expected
