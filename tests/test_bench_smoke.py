"""One pass of each of the benchmark's workloads.

``perfbench/workloads.py`` calls package names that no other test pins
(``FrameWindow``, ``StubEncoder.encode_window``, ``mil.Bag``,
``model.bag_logits``, the cache writer), counts one ``encode_window`` call
per streaming update tick, and trains on the acceptance configuration,
whose fields the train config must keep accepting.  Running each workload
once here catches a package change that breaks any of these before a
benchmark run does.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train_acceptance", "stream_replay", "offline_eval"])
def test_one_pass_without_failures(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, seed=1)
    workload.setup()
    workload.pass_walls.append(workload.run_pass())
    workload.finish()
    assert workload.attempted > 0
    assert workload.failed == 0, workload.messages
