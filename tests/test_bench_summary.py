"""scripts/bench_summary.py on synthetic run records: the verdict rules,
their order, and a single pair."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_summary", os.path.join(ROOT, "scripts", "bench_summary.py"))
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

THROUGHPUT = {"name": "throughput_ops_per_s", "unit": "1/s",
              "better": "higher", "bound": 0.25}
LATENCY = {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
           "bound": 0.25}


def side(metric, values):
    return {("w", seed): {"metrics": {metric["name"]: {"value": v}},
                          "attempted": 100 + seed}
            for seed, v in enumerate(values)}


def summary(metric, parent, change):
    out = bench_summary.summarise(side(metric, parent), side(metric, change),
                                  [metric])
    return out["w"]["metrics"][metric["name"]]


class TestVerdict:
    def test_worse_beyond_the_bound(self):
        row = summary(THROUGHPUT, [100] * 10, [74] * 10)
        assert row["verdict"] == "worse" and row["bound"] == 0.25
        row = summary(LATENCY, [1.0] * 10, [1.3] * 10)
        assert row["verdict"] == "worse"

    def test_slower_within_the_bound(self):
        row = summary(THROUGHPUT, [100] * 10, [80] * 10)
        assert row["verdict"] == "within_bound"

    def test_worse_comes_before_unresolved(self):
        parent = [10, 50, 100, 150, 200, 100, 100, 60, 140, 100]
        row = summary(THROUGHPUT, parent, [10] * 10)
        assert row["verdict"] == "worse"

    def test_wide_parent_spread_is_unresolved(self):
        parent = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
        row = summary(THROUGHPUT, parent, [101] * 10)
        assert row["parent_iqr"] > 0.25 * row["parent"]["median"]
        assert row["verdict"] == "unresolved"

    def test_wide_spread_resolved_when_every_run_beats(self):
        parent = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
        row = summary(THROUGHPUT, parent, [141] * 10)
        assert row["verdict"] == "better"

    def test_better_needs_nine_of_ten_pairs(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        row = summary(LATENCY, parent, [90] * 9 + [200])
        assert row["change_wins"] == 9 and row["verdict"] == "better"
        row = summary(LATENCY, parent, [90] * 8 + [200] * 2)
        assert row["change_wins"] == 8
        assert row["verdict"] == "within_bound"

    def test_better_needs_the_medians_beyond_the_iqr(self):
        parent = [100, 104, 96, 100, 104, 96, 100, 104, 96, 100]
        change = [v + 3 for v in parent]
        row = summary(THROUGHPUT, parent, change)
        assert row["change_wins"] == 10
        assert row["change"]["median"] - row["parent"]["median"] \
            <= row["parent_iqr"]
        assert row["verdict"] == "within_bound"

    def test_better_needs_ten_pairs(self):
        row = summary(THROUGHPUT, [100, 101, 99], [150, 151, 149])
        assert row["change_wins"] == 3
        assert row["verdict"] == "within_bound"


class TestSinglePair:
    def test_median_alone(self):
        row = summary(THROUGHPUT, [100], [101])
        assert row["parent"] == {"median": 100, "runs": [100]}
        assert row["change"] == {"median": 101, "runs": [101]}
        assert row["parent_iqr"] is None
        assert row["verdict"] == "within_bound"

    @pytest.mark.parametrize("change, expect", [(99, "unresolved"),
                                                (70, "worse")])
    def test_verdict_without_spread(self, change, expect):
        assert summary(THROUGHPUT, [100], [change])["verdict"] == expect

    def test_main_writes_one_pair(self, tmp_path):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            names = [m["name"] for m in json.load(handle)["end_to_end"]]
        for which, value in (("parent", 100.0), ("change", 101.0)):
            directory = tmp_path / which
            directory.mkdir()
            metrics = {name: {"value": value} for name in names}
            record = {"metrics": metrics, "attempted": 5,
                      "environment": {"python": "3", "numpy": "2",
                                      "scipy": "1", "nproc": 2,
                                      "machine": "x86_64"}}
            (directory / "w.seed1.trace0.json").write_text(
                json.dumps(record))
        out = tmp_path / "BENCH.json"
        assert bench_summary.main(["--parent", str(tmp_path / "parent"),
                                   "--change", str(tmp_path / "change"),
                                   "--out", str(out)]) == 0
        row = json.loads(out.read_text())["workloads"]["w"]["metrics"][
            "throughput_ops_per_s"]
        assert row["verdict"] == "within_bound" and row["parent_iqr"] is None
