"""Benchmark: regenerate Fig. 3 (traditional-protection traffic breakdown)."""

from repro.experiments.registry import run_experiment


def test_fig03_traffic_breakdown(benchmark, cold):
    result = benchmark(cold, run_experiment, "fig03", quick=True)
    # Every workload pays ≥ ~20% under BP, and VN(+tree) ≥ MAC.
    assert all(t > 20.0 for t in result.column("total_pct"))
    assert result.mean("vn_pct") > result.mean("mac_pct")
