"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def library():
    run.load_library()


def _printed(lines, name):
    return [float(line.split()[1]) for line in lines if line.split()[:1] == [name]]


def test_contract_names_only_workloads_run_knows():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_reports_every_metric_and_fails_nothing(workload, trace, key):
    result, lines = run.run_workload(workload, seed=0, seconds=0, trace=trace, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert _printed(lines, "failed_frac") == [0.0]
    for name in run.PRINTED if trace else ("item_p90_ms", "failed_frac"):
        assert len(_printed(lines, name)) == 1, name


def test_same_seed_gives_same_digest_and_counts():
    runs = [run.run_workload("corpus", seed=3, seconds=0, trace=True, smoke=True)
            for _ in range(2)]
    digests = [[line for line in lines if line.startswith("digest")] for _, lines in runs]
    assert digests[0] == digests[1] and len(digests[0]) == 1
    counts = [{k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
              for result, _ in runs]
    assert counts[0] == counts[1] and counts[0]["lp.pivots"] > 0
