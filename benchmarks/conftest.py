"""Benchmark-suite configuration.

Each figure benchmark regenerates one paper figure (quick workloads
inside the timed body, through the ``cold`` fixture so every round
computes instead of returning a memoized trace-cache hit) and asserts
the headline property of that figure afterwards, so
`pytest benchmarks/ --benchmark-only` both times the harness and
re-validates the reproduction.
"""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.benchmark)


@pytest.hookimpl(optionalhook=True)
def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Stamp the pricing-engine backend into every saved benchmark.

    ``bench_trend.py`` treats a backend change as "no baseline, record
    only", so a python-engine run never silently compares against a
    native-engine baseline.  Benchmarks that force a backend (the engine
    microbenchmarks) set ``extra_info`` themselves and win over the
    session-wide default.
    """
    from repro.core.engine_backend import active_backend

    default = active_backend()
    for bench in output_json.get("benchmarks", []):
        bench.setdefault("extra_info", {}).setdefault(
            "engine_backend", default)


@pytest.fixture
def disk_cache(tmp_path):
    """TRACE_CACHE with a disk tier under a temporary directory."""
    from repro.sim.runner import TRACE_CACHE

    saved_dir = TRACE_CACHE.cache_dir
    TRACE_CACHE.clear()
    TRACE_CACHE.set_cache_dir(tmp_path / "cache")
    yield TRACE_CACHE
    TRACE_CACHE.set_cache_dir(saved_dir)
    TRACE_CACHE.clear()


@pytest.fixture
def cold():
    """Call ``fn(*args, **kwargs)`` with TRACE_CACHE cleared and disabled.

    Every round then regenerates its traces and sweeps — the
    ``--no-cache`` path — instead of timing a memoized lookup.  The
    cache's enabled flag is restored afterwards.
    """
    from repro.sim.runner import TRACE_CACHE

    def run(fn, *args, **kwargs):
        enabled = TRACE_CACHE.enabled
        TRACE_CACHE.clear()
        TRACE_CACHE.enabled = False
        try:
            return fn(*args, **kwargs)
        finally:
            TRACE_CACHE.enabled = enabled

    return run
