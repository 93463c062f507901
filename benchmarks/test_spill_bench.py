"""Benchmarks of the columnar binary trace spill codec (disk format v3).

Times the four legs of the cache plane's trace path — encode, cold
decode, warm mmap load through the disk tier, and the fan-out load under
a 2-job pool — on a suite-shaped trace (every quick training workload
concatenated), and asserts the format's two contracts: the binary spill
is smaller than its v2 JSON form and decodes at least 5x faster.
"""

from __future__ import annotations

import timeit

import pytest

from repro.sim.runner import (
    BatchedTrace,
    _decode_trace,
    _encode_trace,
    dnn_workload,
    encode_trace_v2,
    sweep_schemes,
)

#: Minimum cold-decode advantage of the columnar layout over v2 JSON.
DECODE_SPEEDUP_FLOOR = 5.0


@pytest.fixture(scope="module")
def suite_trace() -> BatchedTrace:
    """One suite-shaped trace: the quick training workloads, concatenated."""
    phases, batches = [], []
    for name in ("ResNet", "GoogleNet", "SegNet", "MobileNet", "BERT"):
        trace = dnn_workload(name, "Cloud", training=True,
                             use_cache=False).trace
        phases += trace.phases
        batches += trace.batches
    return BatchedTrace(phases, batches)


def test_spill_encode(benchmark, suite_trace):
    """Vectorized columnar encode; the payload must undercut v2 JSON."""
    payload = benchmark(_encode_trace, suite_trace)
    assert len(payload) < len(encode_trace_v2(suite_trace))


def test_spill_decode_cold(benchmark, suite_trace):
    """Cold v3 decode, and the headline >=5x advantage over v2 JSON."""
    payload = _encode_trace(suite_trace)
    decoded = benchmark(_decode_trace, payload)
    assert decoded.total_accesses == suite_trace.total_accesses
    # Both sides timed the same way, so the contract also holds (and the
    # test runs) under --benchmark-disable, where benchmark.stats is None.
    v3_best = min(timeit.repeat(lambda: _decode_trace(payload),
                                number=1, repeat=5))
    v2_payload = encode_trace_v2(suite_trace)
    v2_best = min(timeit.repeat(lambda: _decode_trace(v2_payload),
                                number=1, repeat=5))
    assert v2_best >= DECODE_SPEEDUP_FLOOR * v3_best


def test_spill_decode_v2_json(benchmark, suite_trace):
    """The legacy JSON decode, recorded so the trend shows the gap."""
    payload = encode_trace_v2(suite_trace)
    decoded = benchmark(_decode_trace, payload)
    assert decoded.total_accesses == suite_trace.total_accesses


def test_spill_warm_mmap_load(benchmark, disk_cache, suite_trace):
    """Warm load through the disk tier: mmap + zero-copy column views."""
    key = ("bench-trace", "spill-warm")
    disk_cache.get_or_build(key, lambda: suite_trace)

    def warm_load():
        disk_cache.clear()  # fresh-process simulation: memory tier gone
        return disk_cache.peek(key)

    loaded = benchmark(warm_load)
    assert loaded is not None
    assert not loaded.batches[0].address.flags.writeable  # mmap view
    assert loaded.total_accesses == suite_trace.total_accesses


def test_spill_fanout_load_jobs2(benchmark, disk_cache, suite_trace):
    """Scheme fan-out under --jobs 2: both workers price the same spilled
    trace (shared pool when cores allow, inline otherwise — the recorded
    number tracks both)."""
    workload = dnn_workload("ResNet", "Cloud", training=True)
    model = workload.performance_model()

    def fanout():
        return sweep_schemes(workload.label, workload.trace.phases, model,
                             workload.protected_bytes,
                             batches=workload.trace.batches, jobs=2)

    reference = sweep_schemes(workload.label, workload.trace.phases, model,
                              workload.protected_bytes,
                              batches=workload.trace.batches)
    sweep = benchmark(fanout)
    assert set(sweep.results) == set(reference.results)
    for name, result in reference.results.items():
        assert sweep.results[name].total_cycles == result.total_cycles
