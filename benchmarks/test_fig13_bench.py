"""Benchmark: regenerate Fig. 13 (DNN normalized execution time)."""

from repro.experiments.registry import run_experiment


def test_fig13_dnn_perf(benchmark, cold):
    result = benchmark(cold, run_experiment, "fig13", quick=True)
    for row in result.rows:
        assert row["MGX"] <= row["MGX_VN"] <= row["MGX_MAC"] <= row["BP"]
        assert row["MGX"] < 1.08
