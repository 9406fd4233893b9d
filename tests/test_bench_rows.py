"""The committed benchmark rows: ``BENCH_<workload>.json`` at the repository root.

Each file is a list of rows, one per measured tree, as
``tests/data/bench_row.py`` prints them; a performance claim cites one.
Every row names what it measured and how, summarises each end-to-end
metric of ``BENCHMARK.json`` over its runs, and reads no failed operation.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]
KEYS = {"commit", "pr", "kind", "date", "workload", "seeds", "seconds", "runs", "python", "numpy", "machine",
        "metrics", "attempted", "failed"}


def rows(workload):
    with open(os.path.join(ROOT, f"BENCH_{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_workload_has_a_file_and_no_other_file_is_there():
    assert sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))) == sorted(
        os.path.join(ROOT, f"BENCH_{w}.json") for w in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_row_has_the_keys_and_no_failure(workload):
    table = rows(workload)
    assert isinstance(table, list) and table
    for row in table:
        assert set(row) == KEYS
        assert row["workload"] == workload and row["kind"] in ("merge", "re-run") and isinstance(row["pr"], int)
        assert row["runs"] == len(row["seeds"]) >= 1 and row["attempted"] > 0 and row["failed"] == 0
        assert set(row["metrics"]) == set(METRICS)
        for summary in row["metrics"].values():
            values = summary["values"]
            assert len(values) == row["runs"]
            assert min(values) <= summary["q1"] <= summary["median"] <= summary["q3"] <= max(values)
