"""Fast checks of the benchmark harness itself (no workload runs)."""

from __future__ import annotations

import asyncio
import random
import sys
import types

import pytest

from mgxbench import serveload
from mgxbench.stats import percentile, report_digest, strip_timing
from mgxbench.tracing import (
    REQUEST_ID,
    Span,
    Tracer,
    call_counts,
    inclusive_times,
    root_time,
    self_times,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- percentiles -----------------------------------------------------------
def test_nearest_rank_percentile():
    samples = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert percentile(samples, 0.5) == 5
    assert percentile(samples, 0.9) == 9
    assert percentile(samples, 1.0) == 10
    assert percentile(samples, 0.01) == 1
    # Seven samples: p90 is the largest (rank ceil(6.3) = 7).
    assert percentile(range(1, 8), 0.9) == 7
    assert percentile([3.5], 0.9) == 3.5
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- report digests --------------------------------------------------------
REPORT = """Figure 3: traffic breakdown
[note] bracketed lines that are not timings stay
  MGX   1.02

[fig03 completed in 6.3s]"""


def test_strip_timing_removes_only_timing_lines():
    stripped = strip_timing(REPORT)
    assert "completed in" not in stripped
    assert "[note] bracketed lines that are not timings stay" in stripped
    assert stripped.startswith("Figure 3: traffic breakdown\n")


def test_digest_ignores_timing_but_not_content():
    slower = REPORT.replace("6.3s", "11.0s")
    assert report_digest(slower) == report_digest(REPORT)
    assert report_digest(REPORT.replace("1.02", "1.03")) != report_digest(REPORT)


# -- spans -----------------------------------------------------------------
def test_self_time_subtracts_direct_children():
    #   a [0, 10]
    #   ├── b [1, 4]
    #   └── c [5, 9]
    #       └── d [6, 7]
    #   a [12, 13]            (a second root, same name)
    spans = [
        Span(0, None, "a", None, 1, 0.0, 10.0),
        Span(1, 0, "b", None, 1, 1.0, 4.0),
        Span(2, 0, "c", None, 1, 5.0, 9.0),
        Span(3, 2, "d", None, 1, 6.0, 7.0),
        Span(4, None, "a", None, 1, 12.0, 13.0),
    ]
    selfs = self_times(spans)
    assert selfs == {"a": 3.0 + 1.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert sum(selfs.values()) == root_time(spans) == 11.0
    assert call_counts(spans) == {"a": 2, "b": 1, "c": 1, "d": 1}
    assert inclusive_times(spans)["a"] == 11.0


def test_inclusive_time_counts_recursion_once():
    spans = [
        Span(0, None, "f", None, 1, 0.0, 4.0),
        Span(1, 0, "f", None, 1, 1.0, 3.0),
    ]
    assert inclusive_times(spans) == {"f": 4.0}
    assert self_times(spans) == {"f": 4.0}


def test_tracer_wraps_calls_and_generators_on_a_fake_clock():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def outer():
        clock.now += 2.0
        traced_leaf()
        return "done"

    def steps():
        for _ in range(3):
            clock.now += 0.5
            yield clock.now

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_outer = tracer.wrap(outer, "outer")
    traced_steps = tracer.wrap(steps, "gen")
    token = REQUEST_ID.set("req-7")
    try:
        assert traced_outer() == "done"
        assert list(traced_steps()) == [3.5, 4.0, 4.5]
    finally:
        REQUEST_ID.reset(token)

    assert self_times(tracer.spans) == pytest.approx(
        {"outer": 2.0, "leaf": 1.0, "gen": 1.5})
    assert call_counts(tracer.spans) == {"outer": 1, "leaf": 1, "gen": 1}
    leaf_span = next(s for s in tracer.spans if s.name == "leaf")
    outer_span = next(s for s in tracer.spans if s.name == "outer")
    assert leaf_span.parent == outer_span.sid
    assert {s.rid for s in tracer.spans} == {"req-7"}


def test_patch_function_follows_aliases_and_uninstall_restores():
    def work(x):
        return x * 2

    home = types.ModuleType("fakepkg.home")
    alias = types.ModuleType("fakepkg.alias")
    home.work = work
    alias.work = work  # as ``from fakepkg.home import work`` binds it
    sys.modules.update({"fakepkg.home": home, "fakepkg.alias": alias})
    tracer = Tracer(FakeClock())
    try:
        tracer.patch_function(home, "work", "fake", prefix="fakepkg")
        assert home.work is not work and alias.work is not work
        assert alias.work(3) == 6
        assert call_counts(tracer.spans) == {"fake": 1}
        tracer.uninstall()
        assert home.work is work and alias.work is work
    finally:
        del sys.modules["fakepkg.home"], sys.modules["fakepkg.alias"]


def test_patch_method_covers_overrides_and_classmethods():
    class Base:
        def run(self):
            return "base"

        @classmethod
        def make(cls):
            return cls()

    class Child(Base):
        def run(self):
            return "child"

    tracer = Tracer(FakeClock())
    tracer.patch_method(Base, "run", "run")
    tracer.patch_method(Base, "make", "make")
    assert Child.make().run() == "child"
    assert Base().run() == "base"
    assert call_counts(tracer.spans) == {"make": 1, "run": 2}
    tracer.uninstall()
    assert isinstance(Base.__dict__["make"], classmethod)
    assert Child.__dict__["run"].__name__ == "run"
    assert not hasattr(Child.__dict__["run"], "__wrapped__")


# -- load generation -------------------------------------------------------
class Reply:
    status = "ok"
    payload = "p"


class StallingClient:
    """Each request holds the (single-threaded) loop for ``stall`` s."""

    def __init__(self, clock: FakeClock, stall: float) -> None:
        self.clock = clock
        self.stall = stall

    async def request(self, name, scheme):
        self.clock.now += self.stall
        return Reply()


def test_open_loop_times_from_due_and_records_lateness():
    clock = FakeClock()

    async def sleep(delay):
        clock.now += delay
        await asyncio.sleep(0)  # let due requests run, as a real sleep does

    result = serveload.LoadResult()
    requests = [("a", None)] * 3
    asyncio.run(serveload.run_open(
        result, [StallingClient(clock, 0.25)], requests, [0.0, 0.1, 0.2],
        clock=clock, sleep=sleep))
    # Request 0 stalls the loop until 0.35 s, so request 1 goes out
    # 250 ms late and request 2 150 ms late; their latencies still run
    # from when they were due.
    assert result.late_ms == pytest.approx([0.0, 250.0, 150.0])
    assert [o.latency_ms for o in result.outcomes] == pytest.approx(
        [350.0, 500.0, 650.0])
    assert result.wall_s == pytest.approx(0.85)
    assert all(o.status == "ok" for o in result.outcomes)


def test_closed_loop_keeps_one_request_per_tenant():
    clock = FakeClock()
    clients = [StallingClient(clock, 0.1) for _ in range(2)]
    result = serveload.LoadResult()
    requests = [("a", None), ("b", None), ("c", None), ("d", None)]
    asyncio.run(serveload.run_closed(result, clients, requests, clock=clock))
    assert sorted(o.name for o in result.outcomes) == ["a", "b", "c", "d"]
    assert [o.latency_ms for o in result.outcomes] == pytest.approx([100.0] * 4)
    assert result.wall_s == pytest.approx(0.4)


def test_poisson_schedule_is_seeded_and_spans_count_over_rate():
    due = serveload.poisson_due_times(random.Random(3), rate=15.0, count=150)
    assert due == serveload.poisson_due_times(random.Random(3), 15.0, 150)
    assert due != serveload.poisson_due_times(random.Random(4), 15.0, 150)
    assert due == sorted(due) and len(due) == 150
    assert 0.0 <= due[0] and due[-1] <= 150 / 15.0
