"""Benchmark: regenerate the headline overhead table (abstract / §IX)."""

from repro.experiments.registry import run_experiment


def test_headline_overheads(benchmark, cold):
    result = benchmark(cold, run_experiment, "headline", quick=True)
    # MGX cuts protection overhead by >5x on both accelerator families.
    assert result.summary["DNN_BP_avg_pct"] > 5 * result.summary["DNN_MGX_avg_pct"]
    assert result.summary["Graph_BP_avg_pct"] > 5 * result.summary["Graph_MGX_avg_pct"]
