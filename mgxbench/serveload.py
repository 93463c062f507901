"""Closed- and open-loop request generators for the in-process server.

The tenants are :class:`~repro.serve.protocol.TenantClient` sessions on
the server's own event loop, so a run adds no threads or sockets beyond
the server's pricing pool.  Both generators issue a fixed batch of
requests, so two runs of one seed do identical work:

* **closed loop** — each tenant keeps one request in flight and sends
  its next as soon as a reply arrives; latency is send → reply;
* **open loop** — requests are due on a seeded Poisson schedule and are
  sent when due whatever is outstanding; latency is timed from the due
  time, so a stall that delays later sends is charged to them, and the
  generator's own lateness is recorded.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from mgxbench.tracing import REQUEST_ID


@dataclass
class Outcome:
    """What one request returned, and when."""

    name: str
    scheme: str | None
    latency_ms: float
    status: str | None = None  # reply status; None when it raised
    payload: str | None = None
    error: str | None = None


@dataclass
class LoadResult:
    outcomes: list[Outcome] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.finished - self.started


def request_mix(rng: random.Random, mix, count: int) -> list:
    """``count`` (name, scheme) requests in rounds of the whole mix.

    Each round carries every mix entry once, in a seeded order.  Payload
    sizes differ by 8x across the mix, so draws with replacement would
    let the seed decide how much work a batch is, and how often the
    heavy requests bunch up; rounds keep both the same for every seed.
    """
    batch: list = []
    while len(batch) < count:
        round_ = list(mix)
        rng.shuffle(round_)
        batch.extend(round_)
    return batch[:count]


def poisson_due_times(rng: random.Random, rate: float, count: int) -> list[float]:
    """Due offsets of ``count`` Poisson arrivals at ``rate`` per second.

    A Poisson process conditioned on ``count`` arrivals in ``count /
    rate`` seconds places them uniformly at random: so every seed offers
    the same load over the same span, and only the burstiness varies.
    """
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


async def call(client, name: str, scheme: str | None, started: float,
               clock: Callable[[], float], into: list[Outcome]) -> None:
    """Send one request; append its :class:`Outcome` to ``into``."""
    try:
        reply = await client.request(name, scheme)
    except Exception as exc:  # a MAC failure surfaces here; count, go on
        outcome = Outcome(name, scheme, (clock() - started) * 1e3,
                          error=f"{type(exc).__name__}: {exc}")
    else:
        outcome = Outcome(name, scheme, (clock() - started) * 1e3,
                          reply.status, reply.payload)
    into.append(outcome)


async def run_closed(result: LoadResult, clients, requests: list,
                     traced: bool = False,
                     clock: Callable[[], float] = time.perf_counter) -> None:
    """Each tenant walks its round-robin share of ``requests`` in turn.

    Outcomes land in ``result`` as they arrive, so a caller that gives
    up waiting still sees every request that was answered.
    """
    shares = [requests[i::len(clients)] for i in range(len(clients))]

    async def tenant(index: int) -> None:
        for seq, (name, scheme) in enumerate(shares[index]):
            if traced:
                REQUEST_ID.set(f"{index}:{seq}")
            await call(clients[index], name, scheme, clock(), clock,
                       result.outcomes)

    result.started = clock()
    await asyncio.gather(*(tenant(i) for i in range(len(clients))))
    result.finished = clock()


async def run_open(result: LoadResult, clients, requests: list,
                   due: list[float], traced: bool = False,
                   clock: Callable[[], float] = time.perf_counter,
                   sleep: Callable[[float], Awaitable] = asyncio.sleep,
                   ) -> None:
    """Send request ``i`` at ``due[i]`` seconds after the start.

    Request ``i`` goes to tenant ``i % len(clients)``.  Latency runs
    from the due time; ``late_ms`` records how far behind schedule each
    send went out.
    """
    tasks = []
    result.started = start = clock()
    for index, ((name, scheme), offset) in enumerate(zip(requests, due)):
        target = start + offset
        delay = target - clock()
        if delay > 0:
            await sleep(delay)
        result.late_ms.append(max(0.0, clock() - target) * 1e3)
        if traced:
            REQUEST_ID.set(f"open:{index}")
        tasks.append(asyncio.ensure_future(call(
            clients[index % len(clients)], name, scheme, target, clock,
            result.outcomes)))
    await asyncio.gather(*tasks)
    result.finished = clock()
