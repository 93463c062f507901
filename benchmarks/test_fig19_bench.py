"""Benchmark: regenerate Fig. 19 (H.264 access pattern + functional check)."""

from repro.experiments.registry import run_experiment


def test_fig19_h264_pattern(benchmark, cold):
    result = benchmark(cold, run_experiment, "fig19", quick=True)
    assert result.summary["write_once_per_frame"] == 1.0
    assert result.summary["vn_monotonic_per_buffer"] == 1.0
    assert result.summary["functional_roundtrip"] == 1.0
