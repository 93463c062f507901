"""Where the tracer hooks into the program: one span name per layer.

Span names are ``<module layer>[.<part>]`` and name the ``src/repro``
package that does the work.  Everything here wraps public entry points
from outside; nothing under ``src/`` is edited.  A few hooks sit on
private seams the issue names explicitly, because no public function
brackets that work: ``CounterModeProtection._batch_columns`` (column
derivation), ``ProtectionServer._fetch_sync`` (artifact fetch in the
pricing threads) and ``SecureChannel._direction`` (which side of the
channel a GCM call belongs to).
"""

from __future__ import annotations

import functools
from collections import defaultdict, deque

from mgxbench.tracing import Tracer

#: Serving-side GCM vs the in-process tenants' own (client-side) GCM.
SERVER_GCM = "crypto.gcm"
CLIENT_GCM = "loadgen.client_crypto"


def _nbytes(payload) -> int:
    return payload.nbytes if isinstance(payload, memoryview) else len(payload)


def _count_result_bytes(key: str):
    def measure(tracer: Tracer, args, result) -> None:
        tracer.count(key, _nbytes(result))
    return measure


def _count_arg_bytes(key: str, index: int = 0):
    def measure(tracer: Tracer, args, result) -> None:
        tracer.count(key, _nbytes(args[index]))
    return measure


def install(tracer: Tracer) -> None:
    """Patch every layer's entry points (call after the imports)."""
    from repro.core import engine_backend, lru_engine, lru_native
    from repro.core.schemes import base as schemes_base
    from repro.core.schemes.counter_mode import CounterModeProtection
    from repro.dnn.tracegen import DnnTraceGenerator
    from repro.dram.model import DramModel
    from repro.experiments import storage
    from repro.experiments.registry import EXPERIMENTS, RequestSpec
    from repro.genome import dsoft, profile as genome_profile
    from repro.graph import generators
    from repro.graph.graphlily import GraphTraceGenerator
    from repro.host.channel import SecureChannel
    from repro.host.session import DeviceSession
    from repro.serve.protocol import TenantClient, WorkReply, WorkRequest
    from repro.serve.server import ProtectionServer, TenantConnection
    from repro.sim import faults, spillfmt
    from repro.sim.perf import PerformanceModel
    from repro.sim.runner import TraceCache
    from repro.video import profile as video_profile

    # experiments: the seven figure experiments.
    for eid in list(EXPERIMENTS):
        tracer.patch_item(EXPERIMENTS, eid, f"experiments.{eid}")

    # Trace build.
    for attr in ("__init__", "inference", "training_step", "iter_inference",
                 "iter_training_step"):
        tracer.patch_method(DnnTraceGenerator, attr, "dnn.tracegen")
    for attr in ("benchmark_spec", "rmat_edges", "build_benchmark_graph",
                 "uniform_random_graph"):
        tracer.patch_function(generators, attr, "graph.generators")
    for attr in ("__init__", "iteration_phases", "pagerank_trace", "bfs_trace",
                 "spmspv_trace", "sssp_trace", "default_iterations",
                 "iter_run"):
        tracer.patch_method(GraphTraceGenerator, attr, "graph.tracegen")
    tracer.patch_method(dsoft.SeedIndex, "__init__", "genome.dsoft")
    tracer.patch_function(dsoft, "dsoft_filter", "genome.dsoft")
    tracer.patch_function(genome_profile, "measure_tile_profile",
                          "genome.profile")
    tracer.patch_function(video_profile, "decode_profile", "video.profile")

    # Pricing: per-batch glue, column derivation, the engine, perf, DRAM.
    for attr in ("price_batch", "price_trace", "pricing_session", "finish"):
        tracer.patch_method(schemes_base.ProtectionScheme, attr,
                            "core.schemes.price")
    for attr in ("price", "close"):
        tracer.patch_method(schemes_base.PricingSession, attr,
                            "core.schemes.price")
    tracer.patch_method(CounterModeProtection, "_batch_columns", "sim.columns")
    for cls in (lru_engine.LruEngine, lru_native.NativeLruEngine):
        for attr in ("access", "probe_lines", "probe_range", "walk_tree",
                     "probe_run_batch", "flood_clean", "clean_walk_ready",
                     "flush", "contains", "load_state", "export_state"):
            tracer.patch_method(cls, attr, "core.engine")
    tracer.patch_function(engine_backend, "create_engine", "core.engine")
    tracer.patch_method(PerformanceModel, "run", "sim.perf")
    for attr in ("cycles_for", "seconds_for", "detailed",
                 "detailed_cycles_for_range"):
        tracer.patch_method(DramModel, attr, "dram.model")

    # Cache, disk tier and retries.  The build function handed to the
    # cache runs under its own span, so ``sim.cache`` keeps only lookup
    # and disk I/O.
    get_or_build = TraceCache.get_or_build

    def get_or_build_traced(self, key, build):
        return get_or_build(self, key, tracer.wrap(build, "sim.runner"))

    functools.update_wrapper(get_or_build_traced, get_or_build)
    tracer.replace(TraceCache, "get_or_build", get_or_build_traced)
    for attr in ("get_or_build", "peek", "has", "has_spill", "put"):
        tracer.patch_method(TraceCache, attr, "sim.cache")
    tracer.patch_function(faults, "call_with_retries", "sim.faults")

    def backoff(tracer: Tracer, args, result) -> None:
        tracer.count("sim.faults.retries")
        tracer.count("sim.faults.backoff_s", result)

    tracer.patch_function(faults, "backoff_delay", "sim.faults", backoff)
    tracer.patch_function(spillfmt, "encode_trace", "sim.spillfmt.encode",
                          _count_result_bytes("sim.spillfmt.encode_bytes"))
    tracer.patch_function(spillfmt, "decode_trace", "sim.spillfmt.decode",
                          _count_arg_bytes("sim.spillfmt.decode_bytes"))
    for attr in ("dumps_sweep", "dumps_result", "dumps_profile"):
        tracer.patch_function(
            storage, attr, "experiments.storage.encode",
            _count_result_bytes("experiments.storage.encode_bytes"))
    for attr in ("loads_sweep", "loads_result", "loads_profile"):
        tracer.patch_function(
            storage, attr, "experiments.storage.decode",
            _count_arg_bytes("experiments.storage.decode_bytes"))

    # Serving: handshake, channel crypto split by side, codecs, fetch.
    tracer.patch_method(TenantClient, "connect", "host.handshake")

    def gcm_side(channel, *args, **kwargs) -> str:
        return SERVER_GCM if channel._direction == 1 else CLIENT_GCM

    def gcm_bytes(index: int):
        def measure(tracer: Tracer, args, result) -> None:
            if args[0]._direction == 1:
                tracer.count("crypto.gcm.server_bytes", len(args[index]))
        return measure

    tracer.patch_method(SecureChannel, "send", gcm_side, gcm_bytes(1))
    tracer.patch_method(SecureChannel, "receive", gcm_side, gcm_bytes(2))
    tracer.patch_method(RequestSpec, "encode", "serve.codec")
    for cls in (WorkRequest, WorkReply):
        for attr in ("encode", "decode"):
            tracer.patch_method(cls, attr, "serve.codec")
    tracer.patch_method(ProtectionServer, "_fetch_sync", "serve.fetch")

    # Queue wait: a record's delivery to the server until the server
    # starts decrypting it (records are FIFO per tenant connection).
    delivered: dict[int, deque] = defaultdict(deque)
    submit, receive = TenantConnection.submit, DeviceSession.receive

    def submit_traced(self, record):
        delivered[id(self.session)].append(tracer.clock())
        return submit(self, record)

    def receive_traced(self, record, aad=b""):
        pending = delivered.get(id(self))
        if pending:
            tracer.sample("serve.queue_wait_ms",
                          (tracer.clock() - pending.popleft()) * 1e3)
        return receive(self, record, aad)

    tracer.replace(TenantConnection, "submit", submit_traced)
    tracer.replace(DeviceSession, "receive", receive_traced)
