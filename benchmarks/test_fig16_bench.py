"""Benchmark: regenerate Fig. 16 (GACT normalized execution time)."""

from repro.experiments.registry import run_experiment


def test_fig16_gact(benchmark, cold):
    result = benchmark(cold, run_experiment, "fig16", quick=True)
    assert result.summary["avg_MGX_VN"] < result.summary["avg_BP"]
    assert 1.01 < result.summary["avg_MGX_VN"] < 1.08
    assert 1.08 < result.summary["avg_BP"] < 1.20
