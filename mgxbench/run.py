"""The repository benchmark: ``python3 mgxbench/run.py --workload NAME``.

Workloads (``METRICS.md`` says why each is there and what it measures):

* ``suite_cold`` — the seven figure experiments at full size, serially, each
  sample in a fresh interpreter with an empty disk cache, then fresh
  interpreters rerunning the suite warm from that cache;
* ``serve_closed`` — 16 tenants, one request in flight each, over the
  serving mix, everything priced during set-up, with warm reruns of the
  mix timed before and after the load and in two more interpreters;
* ``serve_open`` — the same server and mix under seeded Poisson arrivals
  at a fixed rate (runnable, but not in ``BENCHMARK.json``: too unsteady
  on a shared 2-core host to gate on).

Every sample runs in a fresh interpreter whose environment has the
repository's ``REPRO_*`` knobs removed; the native engine is compiled
once, before anything is timed.  With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` a separate
traced sample gives the per-layer breakdown instead.  Exit status is 0
only when every output checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from mgxbench.stats import percentile  # noqa: E402

BUILD = ROOT / ".bench_build"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Knobs of the program that would change what a sample measures.
STRIPPED_ENV = ("REPRO_FAULTS", "REPRO_ENGINE", "REPRO_CACHE_DIR",
                "REPRO_NATIVE_CACHE")

# ``--seconds`` is the open-loop schedule's length, the longest
# measurement of a run; the other workloads size their fixed work from
# it so that, at today's speed, each run stays within it.
#: Suite samples (a cold pass and its warm reruns, about 15 s each) per
#: measured second.
SUITE_SAMPLES_PER_S = 1 / 15
#: Warm reruns per cold pass; ``rerun_wall_s`` is their median.
SUITE_RERUNS = 5
#: Closed-loop requests per measured second (two thirds of today's
#: capacity of about 36 req/s).
CLOSED_REQUESTS_PER_S = 24
#: Open-loop arrival rate, about a fifth of today's closed-loop
#: capacity: at 15 req/s (40%) the median latency moved by up to 2x
#: between seeds and minutes on a 2-core shared host.
OPEN_RATE = 8.0
#: Serve interpreters per run: the load sample and ``rerun`` samples.
#: ``setup_s`` and ``rerun_wall_s`` take the median over all of them, so
#: warm reruns are timed at several points of the run, not in one burst.
SERVE_SAMPLES = 3
#: Longest a single sample may run before it is killed and failed.
SAMPLE_TIMEOUT_S = 170

WORKLOADS = ("suite_cold", "serve_closed", "serve_open")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rerun_wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

#: Span names whose self time (and, where listed, calls) is reported.
SELF_SPANS = ("dnn.tracegen", "graph.generators", "graph.tracegen",
              "genome.dsoft", "genome.profile", "video.profile", "sim.runner",
              "sim.columns", "core.schemes.price", "core.engine", "sim.perf",
              "dram.model", "sim.cache", "sim.faults", "host.handshake",
              "serve.codec", "serve.fetch")
CALL_SPANS = ("dnn.tracegen", "sim.columns", "core.schemes.price",
              "core.engine", "host.handshake")
FIGURES = ("fig03", "fig12", "fig13", "fig14", "fig16", "fig19", "headline")
SERVE_STATS = ("warm_hits", "coalesced", "computed", "busy", "errors",
               "bad_records")

PER_LAYER = {
    **{f"experiments.{eid}.incl_s": "s" for eid in FIGURES},
    "experiments.self_s": "s",
    **{f"{name}.self_s": "s" for name in SELF_SPANS},
    **{f"{name}.calls": "count" for name in CALL_SPANS},
    "sim.cache.hits": "count",
    "sim.cache.disk_hits": "count",
    "sim.cache.misses": "count",
    "sim.faults.retries": "count",
    "sim.faults.backoff_s": "s",
    "sim.spillfmt.encode_s": "s",
    "sim.spillfmt.encode_bytes": "bytes",
    "experiments.storage.encode_s": "s",
    "experiments.storage.encode_bytes": "bytes",
    "rerun.setup_s": "s",
    "rerun.sim.cache.disk_hits": "count",
    "rerun.sim.cache.misses": "count",
    "rerun.sim.spillfmt.decode_s": "s",
    "rerun.sim.spillfmt.decode_bytes": "bytes",
    "rerun.experiments.storage.decode_s": "s",
    "serve.warmup.price_s": "s",
    "crypto.gcm.server_s": "s",
    "crypto.gcm.server_bytes": "bytes",
    "crypto.gcm.calls": "count",
    "loadgen.client_crypto_s": "s",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p90": "ms",
    **{f"serve.stats.{key}": "count" for key in SERVE_STATS},
    "serve.reuse_ratio": "ratio",
    "loop.busy_ratio": "ratio",
    "loadgen.late_ms.p90": "ms",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
    "env.nproc": "count",
    "env.native_engine": "bool",
}


class SampleFailed(RuntimeError):
    """A sample interpreter crashed or timed out."""


def sample_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def spawn(cfg: dict, env: dict[str, str]) -> dict:
    """Run one sample in a fresh interpreter; return its result doc."""
    cfg = dict(cfg, spawned=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mgxbench.sample", json.dumps(cfg)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"{cfg['kind']} sample timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SampleFailed(f"{cfg['kind']} sample exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """Accumulates one run's checks: operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(problem)


# -- suite_cold ------------------------------------------------------------
def suite_sample(run: Run, env, reference: dict, reruns: int,
                 trace: bool = False) -> tuple[dict, list[dict]]:
    """A cold pass in a fresh interpreter, then ``reruns`` warm reruns,
    each in its own fresh interpreter, from the cache it filled."""
    cache_dir = BUILD / "work" / f"suite-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    cfg = {"kind": "suite", "cache_dir": str(cache_dir), "trace": trace}
    try:
        cold = spawn(dict(cfg, phase="cold"), env)
        warm = [spawn(dict(cfg, phase="rerun"), env) for _ in range(reruns)]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    for doc, phase in [(cold, "cold")] + [(d, "rerun") for d in warm]:
        run.attempted += len(reference)
        for eid, digest in reference.items():
            run.check(eid not in doc["errors"],
                      f"{phase} {eid} raised {doc['errors'].get(eid)}")
            run.check(eid in doc["errors"] or doc["digests"].get(eid) == digest,
                      f"{phase} {eid} report differs from the reference")
    for doc in warm:
        misses = doc["cache"]["misses"]
        run.check(misses == 0, f"warm rerun recomputed {misses} artifacts")
    return cold, warm


def suite_metrics(colds: list[dict], reruns: list[dict]) -> dict:
    def lookups(doc: dict) -> int:
        return sum(doc["cache"].values())

    return {
        # Every interpreter of the run sets up identically: imports and
        # loading the native engine.
        "setup_s": median(d["setup_s"] for d in colds + reruns),
        "wall_s": median(d["pass_s"] for d in colds),
        "rerun_wall_s": median(d["spawn_to_done_s"] for d in reruns),
        "peak_rss_mb": max(d["rss_mb"] for d in colds + reruns),
        # A request is one artifact lookup of the cold pass.
        "throughput_rps": median(lookups(d) / d["pass_s"] for d in colds),
        # Latency of a figure: all seven are requested when the pass
        # starts and served in order, so each waits for those before it.
        "latency_p50_ms": median(
            percentile(d["figure_done_s"], 0.5) * 1e3 for d in colds),
        "latency_p90_ms": median(
            percentile(d["figure_done_s"], 0.9) * 1e3 for d in colds),
    }


def run_suite(args, run: Run, env, reference: dict) -> dict:
    if args.trace:
        untraced, _ = suite_sample(run, env, reference, reruns=0)
        cold, (rerun,) = suite_sample(run, env, reference, reruns=1,
                                      trace=True)
        return suite_layers(cold, rerun, untraced)
    colds, reruns = [], []
    for _ in range(max(1, round(args.seconds * SUITE_SAMPLES_PER_S))):
        cold, warm = suite_sample(run, env, reference, SUITE_RERUNS)
        colds.append(cold)
        reruns.extend(warm)
    return suite_metrics(colds, reruns)


def span_layers(trace: dict) -> dict:
    """Per-layer metrics common to every workload's traced sample."""
    self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_SPANS}
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALL_SPANS})
    out.update({
        f"experiments.{eid}.incl_s": trace["incl_s"].get(f"experiments.{eid}",
                                                         0.0)
        for eid in FIGURES})
    out["experiments.self_s"] = sum(self_s.get(f"experiments.{eid}", 0.0)
                                    for eid in FIGURES)
    for key in ("sim.faults.retries", "sim.faults.backoff_s",
                "sim.spillfmt.encode_bytes", "experiments.storage.encode_bytes",
                "crypto.gcm.server_bytes"):
        out[key] = counters.get(key, 0)
    out["sim.spillfmt.encode_s"] = self_s.get("sim.spillfmt.encode", 0.0)
    out["experiments.storage.encode_s"] = self_s.get(
        "experiments.storage.encode", 0.0)
    out["crypto.gcm.server_s"] = self_s.get("crypto.gcm", 0.0)
    out["crypto.gcm.calls"] = calls.get("crypto.gcm", 0)
    out["loadgen.client_crypto_s"] = self_s.get("loadgen.client_crypto", 0.0)
    return out


def suite_layers(cold: dict, rerun: dict, untraced: dict) -> dict:
    trace = cold["trace"]
    out = span_layers(trace)
    out.update({f"sim.cache.{k}": v for k, v in cold["cache"].items()})
    rtrace = rerun["trace"]
    out.update({
        "rerun.setup_s": rerun["setup_s"],
        "rerun.sim.cache.disk_hits": rerun["cache"]["disk_hits"],
        "rerun.sim.cache.misses": rerun["cache"]["misses"],
        "rerun.sim.spillfmt.decode_s": rtrace["self_s"].get(
            "sim.spillfmt.decode", 0.0),
        "rerun.sim.spillfmt.decode_bytes": rtrace["counters"].get(
            "sim.spillfmt.decode_bytes", 0),
        "rerun.experiments.storage.decode_s": rtrace["self_s"].get(
            "experiments.storage.decode", 0.0),
        "trace.wall_s": cold["pass_s"],
        "unattributed_s": cold["pass_s"] - trace["covered_s"],
        "trace.overhead_ratio": cold["pass_s"] / untraced["pass_s"],
    })
    return out


# -- serve_* ---------------------------------------------------------------
def serve_sample(run: Run, env, cfg: dict) -> dict:
    doc = spawn(cfg, env)
    run.attempted += doc["attempted"]
    run.failed += doc["failed"]
    if doc["failed"]:
        run.problems.append(f"{doc['failed']} requests failed: {doc['errors']}")
    if not doc["mac_ok"]:
        run.problems.append("a reply was not MAC-verified")
    return doc


def run_serve(args, run: Run, env) -> dict:
    mode = args.workload.split("_", 1)[1]
    if mode == "closed":
        requests = round(args.seconds * CLOSED_REQUESTS_PER_S)
    else:
        requests = round(args.seconds * OPEN_RATE)
    cfg = {"kind": "serve", "mode": mode, "seed": args.seed,
           "requests": max(1, requests), "rate": OPEN_RATE, "trace": False}
    if args.trace:
        untraced = serve_sample(run, env, cfg)
        return serve_layers(serve_sample(run, env, dict(cfg, trace=True)),
                            untraced)
    doc = serve_sample(run, env, cfg)
    others = [serve_sample(run, env, dict(cfg, mode="rerun"))
              for _ in range(SERVE_SAMPLES - 1)]
    return {
        "setup_s": median(d["setup_s"] for d in [doc] + others),
        "wall_s": doc["window_s"],
        "rerun_wall_s": median(t for d in [doc] + others
                               for t in d["rerun_s"]),
        "peak_rss_mb": doc["rss_mb"],
        "throughput_rps": doc["throughput_rps"],
        "latency_p50_ms": doc["latency_p50_ms"],
        "latency_p90_ms": doc["latency_p90_ms"],
    }


def serve_layers(doc: dict, untraced: dict) -> dict:
    trace, stats = doc["trace"], doc["stats"]
    out = span_layers(trace)
    out.update({f"sim.cache.{k}": v for k, v in doc["cache"].items()})
    setup = doc["setup_trace"]
    out["host.handshake.self_s"] = setup["self_s"].get("host.handshake", 0.0)
    out["host.handshake.calls"] = setup["calls"].get("host.handshake", 0)
    waits = trace["queue_wait_ms"] or [0.0]
    out.update({
        "serve.warmup.price_s": doc["warmup_price_s"],
        "serve.queue_wait_ms.p50": percentile(waits, 0.5),
        "serve.queue_wait_ms.p90": percentile(waits, 0.9),
        **{f"serve.stats.{key}": stats[key] for key in SERVE_STATS},
        "serve.reuse_ratio": (stats["warm_hits"] + stats["coalesced"])
        / max(1, stats["ok"]),
        "loop.busy_ratio": trace["loop_busy_s"] / doc["window_s"],
        "loadgen.late_ms.p90": doc["late_p90_ms"],
        "trace.wall_s": doc["window_s"],
        "unattributed_s": trace["loop_busy_s"] - trace["covered_s"],
        "trace.overhead_ratio": doc["window_s"] / untraced["window_s"],
    })
    return out


# -- main ------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not REFERENCE.is_file():
        print(f"no program to benchmark under {ROOT}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    env = sample_env()
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    run = Run()
    try:
        backend = spawn({"kind": "prepare"}, env)["engine_backend"]
        if args.workload == "suite_cold":
            values = run_suite(args, run, env, reference)
        else:
            values = run_serve(args, run, env)
    except SampleFailed as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, run.attempted),
                          "failed": max(1, run.failed), "metrics": {}}))
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        values.update({"env.nproc": os.cpu_count() or 1,
                       "env.native_engine": int(backend == "native")})
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    correct = run.failed == 0 and not run.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"engine_backend={backend} nproc={os.cpu_count()}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in run.problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(f"  correct={correct} attempted={run.attempted} failed={run.failed}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
