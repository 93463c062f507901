"""Benchmark: cold full-suite wall time (reuse-distance engine headline).

The figure benchmarks each regenerate one quick-mode figure cold; this
one regenerates *every* quick-mode figure with the cache disabled, which
is exactly the ``--no-cache --jobs 1`` cold path the reuse-distance LRU
engine was built to accelerate.  It feeds the
``bench_trend.py`` CI gate (filter term: ``cold_suite``) so regressions
in the engine, the batched pricing pipeline, or the graph/genome
builders fail the build.
"""

from repro.experiments.registry import EXPERIMENTS, run_experiment


def _every_figure():
    return [run_experiment(eid, quick=True, prefetch=False)
            for eid in EXPERIMENTS]


def test_cold_suite_serial_sweep(benchmark, cold):
    """Every figure, serially, from scratch: the cold wall-time gate."""
    results = benchmark.pedantic(cold, args=(_every_figure,), rounds=3,
                                 iterations=1, warmup_rounds=1)
    assert len(results) == len(EXPERIMENTS)
    for result in results:
        assert result.rows
