"""One benchmark sample, run in a fresh interpreter.

``python -m mgxbench.sample '<json config>'`` runs one sample and prints
its result as one JSON line.  The parent (``run.py``) stamps the time it
spawned the interpreter into the config; ``time.perf_counter`` is the
system-wide monotonic clock on Linux, so set-up time is measured from
the spawn, imports included.

Sample kinds:

* ``suite`` — the seven figure experiments, full size, serial, against a
  disk cache dir (``phase`` ``cold``: an empty dir; ``rerun``: the dir
  a cold sample filled);
* ``serve`` — one server, 16 tenants, warm-up pricing of the whole mix,
  warm reruns of the mix, then the ``closed`` or ``open`` load and warm
  reruns again (or, for ``rerun``, only the first warm reruns).
"""

from __future__ import annotations

import asyncio
import json
import random
import resource
import selectors
import sys
import threading
import time
import traceback

from mgxbench import serveload
from mgxbench.stats import percentile, report_digest
from mgxbench.tracing import (
    Tracer,
    call_counts,
    inclusive_times,
    root_time,
    self_times,
)

clock = time.perf_counter
MAIN_THREAD = threading.main_thread().ident

#: Tenants of the serve workloads, each an in-process attested session.
TENANTS = 16
#: Warm passes over the mix per batch of reruns.  A serve sample runs a
#: batch before its load and one after it; a ``rerun`` sample runs one.
SERVE_RERUNS = 10
#: A serve batch still unanswered after this long counts as lost.
LOST_AFTER_S = 120.0


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_counters(cache) -> dict[str, int]:
    return {"hits": cache.hits, "disk_hits": cache.disk_hits,
            "misses": cache.misses}


def _summarize(spans, main_thread: int) -> dict:
    return {
        "self_s": self_times(spans),
        "calls": call_counts(spans),
        "incl_s": inclusive_times(spans),
        "covered_s": root_time(spans, main_thread),
    }


def _tracer(enabled: bool) -> Tracer | None:
    if not enabled:
        return None
    from mgxbench import layers

    tracer = Tracer(clock)
    layers.install(tracer)
    return tracer


# -- suite -----------------------------------------------------------------
def run_suite(cfg: dict) -> dict:
    from repro.core.engine_backend import active_backend
    from repro.experiments.registry import EXPERIMENTS, run_experiment
    from repro.sim.runner import TRACE_CACHE

    backend = active_backend()  # loads (never compiles) the native engine
    tracer = _tracer(cfg["trace"])
    ready = clock()
    doc = {"setup_s": ready - cfg["spawned"], "engine_backend": backend}

    # The figure CLI's serial path: ``python -m repro.experiments
    # --cache-dir DIR`` runs exactly these calls.
    TRACE_CACHE.set_cache_dir(cfg["cache_dir"])
    digests, errors, done_s = {}, {}, []
    for eid in EXPERIMENTS:
        started = clock()
        try:
            result = run_experiment(eid, quick=False, jobs=None, prefetch=False)
            text = result.to_text()
        except Exception as exc:  # a failed experiment is counted, not fatal
            traceback.print_exc()
            errors[eid] = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = clock() - started
            digests[eid] = report_digest(
                f"{text}\n\n[{eid} completed in {elapsed:.1f}s]")
        done_s.append(clock() - ready)
    finished = clock()
    doc.update(
        pass_s=finished - ready,
        spawn_to_done_s=finished - cfg["spawned"],
        figure_done_s=done_s,
        digests=digests,
        errors=errors,
        cache=_cache_counters(TRACE_CACHE),
        rss_mb=_rss_mb(),
    )
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = _summarize(tracer.spans, MAIN_THREAD)
        doc["trace"]["counters"] = dict(tracer.counters)
    return doc


# -- serve -----------------------------------------------------------------
class IdleTimingSelector(selectors.DefaultSelector):
    """The default selector, timing how long the loop waits in it."""

    idle_s = 0.0

    def select(self, timeout=None):
        started = clock()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += clock() - started


def run_serve(cfg: dict) -> dict:
    from repro.core.engine_backend import active_backend
    from repro.experiments.registry import resolve_request
    from repro.host.attestation import ManufacturerCa
    from repro.serve.loadgen import DEFAULT_MIX, SERVE_KERNEL
    from repro.serve.protocol import TenantClient
    from repro.serve.server import SERVE_FIRMWARE, ProtectionServer, ServerConfig
    from repro.sim.runner import TRACE_CACHE

    backend = active_backend()
    tracer = _tracer(cfg["trace"])
    selector = IdleTimingSelector() if tracer is not None else None
    rng = random.Random(cfg["seed"])
    # Whole rounds of the mix, so every seed carries the same work.
    count = len(DEFAULT_MIX) * max(1, round(cfg["requests"] / len(DEFAULT_MIX)))
    if cfg["mode"] == "rerun":
        count = 0
    doc: dict = {"engine_backend": backend}
    every: list[serveload.Outcome] = []  # all outcomes, for the checks
    window = serveload.LoadResult()

    async def main() -> None:
        ca = ManufacturerCa(b"serve-root-secret")
        server = ProtectionServer(ca=ca, config=ServerConfig())
        async with server:
            clients = [
                TenantClient(ca, expected_firmware=SERVE_FIRMWARE,
                             kernel=SERVE_KERNEL,
                             nonce=f"mgxbench-{cfg['seed']}-{i}".encode())
                for i in range(TENANTS)
            ]
            for client in clients:
                await client.connect(server)
            handshakes_done = clock()
            # Warm-up: price every mix artifact through the server, so
            # the measured requests are all warm hits.
            for name, scheme in DEFAULT_MIX:
                await serveload.call(clients[0], name, scheme, clock(), clock,
                                     every)
            ready = clock()
            doc.update(setup_s=ready - cfg["spawned"],
                       warmup_price_s=ready - handshakes_done)
            if tracer is not None:
                doc["setup_trace"] = _summarize(tracer.spans, MAIN_THREAD)

            async def warm_reruns() -> None:
                # Every mix artifact once more, one at a time, per pass.
                for index in range(SERVE_RERUNS):
                    started = clock()
                    for name, scheme in DEFAULT_MIX:
                        await serveload.call(clients[index % TENANTS], name,
                                             scheme, clock(), clock, every)
                    doc["rerun_s"].append(clock() - started)

            async def measure_load() -> None:
                requests = serveload.request_mix(rng, DEFAULT_MIX, count)
                stats_before = dict(server.stats)
                cache_before = _cache_counters(TRACE_CACHE)
                if tracer is not None:
                    mark = len(tracer.spans)
                    tracer.counters.clear()
                    tracer.samples.clear()
                    idle_before = selector.idle_s
                if cfg["mode"] == "closed":
                    load = serveload.run_closed(window, clients, requests,
                                                traced=tracer is not None)
                else:
                    due = serveload.poisson_due_times(rng, cfg["rate"], count)
                    load = serveload.run_open(window, clients, requests, due,
                                              traced=tracer is not None)
                try:
                    await asyncio.wait_for(load, LOST_AFTER_S)
                except asyncio.TimeoutError:
                    window.finished = clock()
                doc["stats"] = {k: server.stats[k] - stats_before[k]
                                for k in server.stats}
                cache_after = _cache_counters(TRACE_CACHE)
                doc["cache"] = {k: v - cache_before[k]
                                for k, v in cache_after.items()}
                if tracer is not None:
                    idle = selector.idle_s - idle_before
                    spans = tracer.spans[mark:]
                    doc["trace"] = _summarize(spans, MAIN_THREAD)
                    doc["trace"].update(
                        counters=dict(tracer.counters),
                        queue_wait_ms=list(
                            tracer.samples["serve.queue_wait_ms"]),
                        loop_busy_s=window.wall_s - idle)

            doc["rerun_s"] = []
            await warm_reruns()
            if cfg["mode"] != "rerun":
                await measure_load()
                await warm_reruns()
            for client in clients:
                await client.close()
            doc["mac_verified"] = sum(c.mac_verified for c in clients)

    loop_factory = None
    if selector is not None:
        loop_factory = lambda: asyncio.SelectorEventLoop(selector)  # noqa: E731
    with asyncio.Runner(loop_factory=loop_factory) as runner:
        runner.run(main())
    if tracer is not None:
        tracer.uninstall()

    every.extend(window.outcomes)
    ok = [o for o in window.outcomes if o.status == "ok"]
    # Served ≡ offline: each distinct (name, scheme) payload must equal
    # a cache-bypassed recompute.
    offline = {}
    for outcome in every:
        label = (outcome.name, outcome.scheme)
        if label not in offline:
            offline[label] = resolve_request(*label).offline_payload()
    failures = [o.error or f"{o.name}: {o.status}" for o in every
                if o.status != "ok"]
    failures += [f"{o.name}: payload differs from offline pricing"
                 for o in every if o.status == "ok"
                 and o.payload != offline[(o.name, o.scheme)]]
    lost = count - len(window.outcomes)  # still unanswered at the timeout
    answered = sum(1 for o in every if o.status is not None)
    latencies = [o.latency_ms for o in ok] or [0.0]
    doc.update(
        attempted=len(every) + lost,
        failed=len(failures) + lost,
        mac_ok=doc.pop("mac_verified") == answered,
        window_s=window.wall_s,
        throughput_rps=len(ok) / window.wall_s if ok else 0.0,
        latency_p50_ms=percentile(latencies, 0.50),
        latency_p90_ms=percentile(latencies, 0.90),
        late_p90_ms=percentile(window.late_ms, 0.90) if window.late_ms else 0.0,
        errors=sorted(set(failures)) + [f"{lost} lost"] * (lost > 0),
        rss_mb=_rss_mb(),
    )
    return doc


def prepare() -> dict:
    """Import everything a sample imports and load the native engine
    (compiling it on the first run), so no timed sample pays for it."""
    import repro.experiments.registry  # noqa: F401
    import repro.serve.loadgen  # noqa: F401
    from repro.core.engine_backend import active_backend

    return {"engine_backend": active_backend()}


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[0])
    if cfg["kind"] == "prepare":
        doc = prepare()
    elif cfg["kind"] == "suite":
        doc = run_suite(cfg)
    else:
        doc = run_serve(cfg)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
