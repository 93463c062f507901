"""Benchmark: regenerate Fig. 14 (graph accelerator traffic + time)."""

from repro.experiments.registry import run_experiment


def test_fig14_graph(benchmark, cold):
    result = benchmark(cold, run_experiment, "fig14", quick=True)
    for row in result.rows:
        assert row["traffic_MGX"] < 1.05 < row["traffic_BP"]
        assert row["time_MGX"] < row["time_BP"]
