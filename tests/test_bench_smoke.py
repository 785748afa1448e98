"""One pass of each of the benchmark's workloads.

``perfbench/workloads.py`` calls package names that no other test pins
(``FrameWindow``, ``StubEncoder.encode_window``, ``mil.Bag``,
``model.bag_logits``, the cache writer), counts one ``encode_window`` call
per streaming update tick, and trains on the acceptance configuration,
whose fields the train config must keep accepting.  Running each workload
once here catches a package change that breaks any of these before a
benchmark run does.  One traced ``train_acceptance`` pass, through the
bench's own span recorder, checks that the work stays in the layers the
bench times: a change that moves the products out of ``adapter_forward`` and
``heads_backward``, or into untimed glue, fails here.
"""

import importlib.util
from pathlib import Path

import pytest

import vlaad

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("perfbench_workloads", PERFBENCH / "workloads.py")


@pytest.mark.parametrize("name", ["train_acceptance", "stream_replay", "offline_eval"])
def test_one_pass_without_failures(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, seed=1)
    workload.setup()
    workload.pass_walls.append(workload.run_pass())
    workload.finish()
    assert workload.attempted > 0
    assert workload.failed == 0, workload.messages


def test_traced_train_pass_covers_its_layers(workloads, tmp_path):
    """50 epochs of one 200-clip batch (1,000 rows) and a 100-clip
    validation set (500 rows): 75,000 rows forward, 50,000 backward, and
    the spans, less ``cli.run``'s own time, cover >= 0.95 of the pass."""
    spans = load("perfbench_spans", PERFBENCH / "spans.py")
    workload = workloads.WORKLOADS["train_acceptance"](tmp_path, seed=1)
    workload.setup()
    recorder = spans.SpanRecorder()
    with recorder.installed(vlaad):
        wall = workload.run_pass()
    assert workload.failed == 0, workload.messages
    table = recorder.table()
    covered = sum(row["self_ms"] for name, row in table.items() if name != "cli.run")
    assert covered / 1e3 / wall >= 0.95
    assert table["model.adapter_forward"]["rows"] == 75_000
    assert table["model.heads_backward"]["rows"] == 50_000
