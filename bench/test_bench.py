"""Self-test of the benchmark at toy sizes.

    PYTHONPATH=src python3 -m pytest -q bench

The three workloads run once each at toy sizes (the running example at
2 maps x 2 trials, a small random network in place of MobileNetV1, one
plan-zoo pass over a small population); every metric must be reported and
every check must pass.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from flowcnn import serialize_network  # noqa: E402
from flowcnn.models import mobilenet_v1, random_network  # noqa: E402

CONTRACT = run.load_contract()
TOYS = {
    "rex-stream": lambda: workloads.SimWorkload(
        workloads.rex_stream_doc, n_maps=2, trials=2, truncate=False),
    "random-net": lambda: workloads.SimWorkload(
        lambda: serialize_network(random_network(3)), n_maps=1, trials=1,
        truncate=True),
    "plan-zoo": lambda: workloads.PlanZoo(population=4),
}


@pytest.mark.parametrize("name", sorted(TOYS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_workload_reports_every_metric(name, trace):
    workload = TOYS[name]()
    m = workloads.measure(workload, seed=1, seconds=0, trace=trace)
    lines, result = run.render(m, workload.work_name, trace, 0.0, CONTRACT)
    text = "\n".join(lines)

    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    assert "failed_frac                  0.0" in text
    assert len(m.digest) == 64
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {d["name"] for d in declared}
    json.dumps(result)
    if not trace:
        for metric in ("wall_s", "setup_s", "import_s", workload.work_name,
                       "peak_rss_mb"):
            assert f"{metric} " in text
        other = {"steps_per_s", "networks_per_s"} - {workload.work_name}
        assert other.pop() not in text
    elif isinstance(workload, workloads.SimWorkload):
        for idx in range(len(workload.spec.layers)):
            layer = workload.spec.layer_name(idx)
            assert f"engine.{layer}.s " in text
            assert f"engine.{layer}.steps " in text
        assert "beside engine.simulate_s" in text
        assert "not decomposable" not in text
    if trace:
        assert "trace.overhead_s" in text


def test_contract_names_every_simulated_layer():
    declared = {d["name"] for d in CONTRACT["per_layer"]}
    rex = workloads.SimWorkload(workloads.rex_stream_doc, 1, 1, False)
    rex.setup(1, workloads.Measured())
    for spec in (rex.spec, mobilenet_v1(0.25)):
        for idx in range(len(spec.layers)):
            layer = spec.layer_name(idx)
            assert {f"engine.{layer}.s", f"engine.{layer}.steps"} <= declared
