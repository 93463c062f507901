"""Benchmark: regenerate Fig. 12 (DNN memory-traffic increase)."""

from repro.experiments.registry import run_experiment


def test_fig12_dnn_traffic(benchmark, cold):
    result = benchmark(cold, run_experiment, "fig12", quick=True)
    for row in result.rows:
        assert row["MGX"] < 1.10 < row["BP"]
