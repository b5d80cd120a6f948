"""The benchmark's contract with the package, on one-second passes.

``perfbench/`` wraps broydenlab functions by name (``basin._classify_chunk``,
``basin.classify_point_detail``, ``harness.run_single``, ``cli.main``) and
reads what they return.  These tests run each workload's timed pass the way
``perfbench/run.py`` does, so a renamed function or a changed return shape
fails here and not only as failed benchmark runs.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from run import measured_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def _passes(name, tmp_path, traced):
    """The workload and its untraced (then traced) (tracer, outcome) pairs."""
    spool = tmp_path / "spool"
    spool.mkdir()
    workload = WORKLOADS[name](SEED, 1, tmp_path)
    passes = [measured_pass(workload, spool, traced=t)
              for t in ((False, True) if traced else (False,))]
    for tracer, outcome in passes:
        assert len(tracer.solve_s) == outcome.attempted
    return workload, passes


@pytest.mark.parametrize("name", ["cumulative", "basin"])
def test_traced_pass_repeats_the_untraced_one(name, tmp_path):
    workload, passes = _passes(name, tmp_path, traced=True)
    (_, untraced), (_, traced) = passes
    assert traced.fingerprint == untraced.fingerprint
    for _, outcome in passes:
        assert not outcome.data.get("error") and not outcome.data.get("errors")
        failed, problems, _ = workload.check(outcome)
        assert (failed, problems) == (0, [])
    assert workload.untimed_checks() == []


def test_single_pass_returns_0_for_every_op(tmp_path):
    # Single.check's failure count is not asserted: its q-factor oracle
    # rejects some converged runs
    workload, [(_, outcome)] = _passes("single", tmp_path, traced=False)
    assert [rc for rc, _, _ in outcome.fingerprint] == [0] * outcome.attempted
    assert workload.untimed_checks() == []
