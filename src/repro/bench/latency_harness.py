"""Round-trip latency measurements for Table 2 (Section 6.2).

Four systems, measured with the same minimal request-response pattern and a
20-byte payload, communicating processes on different worker nodes:

- **Direct HTTP** -- a non-reliable POST between two processes;
- **Kafka Only** -- two processes exchanging messages straight through the
  (simulated) broker, no KAR runtime;
- **KAR Actor** -- a KAR actor method invocation (default configuration);
- **KAR Actor (no cache)** -- placement cache disabled, paying one store
  round trip per invocation.
"""

from __future__ import annotations

from repro.bench.configs import ClusterProfile
from repro.bench.stats import summary_stats
from repro.core import Actor, KarApplication, actor_proxy
from repro.net import DirectHttpBaseline
from repro.mq import Broker, BrokerConfig, GroupCoordinator
from repro.sim import Kernel, SimProcess

__all__ = ["LatencyHarness"]

_PAYLOAD = "x" * 20  # "a small payload (20 bytes of user data)"


class EchoActor(Actor):
    async def echo(self, ctx, payload):
        return payload


class LatencyHarness:
    """Median round-trip latency of each system under one profile."""

    def __init__(self, profile: ClusterProfile, iterations: int = 300,
                 seed: int = 0):
        self.profile = profile
        self.iterations = iterations
        self.seed = seed

    # ------------------------------------------------------------------
    def measure_direct_http(self) -> dict:
        kernel = Kernel(seed=self.seed)
        endpoint = DirectHttpBaseline(
            kernel, rtt=self.profile.http_rtt,
            handler=lambda payload: payload,
        )
        samples = []

        async def driver():
            for _ in range(self.iterations):
                start = kernel.now
                await endpoint.request(_PAYLOAD)
                samples.append(kernel.now - start)

        kernel.run_until_complete(kernel.spawn(driver()))
        return summary_stats(samples)

    # ------------------------------------------------------------------
    def measure_kafka_only(self) -> dict:
        kernel = Kernel(seed=self.seed)
        broker = Broker(
            kernel,
            BrokerConfig(
                produce_latency=self.profile.produce,
                consume_latency=self.profile.consume,
            ),
        )
        group = GroupCoordinator(broker, "bench", "bench-topic")
        group.on_generation(lambda info: group.resume(info.generation))
        ping_process = SimProcess("ping")
        pong_process = SimProcess("pong")
        ping = group.join("ping", ping_process)
        pong = group.join("pong", pong_process)
        samples = []

        async def responder():
            while True:
                records = await pong.poll()
                for value in records.values:
                    await pong.send("ping", value)

        async def driver():
            for _ in range(self.iterations):
                start = kernel.now
                await ping.send("pong", _PAYLOAD)
                await ping.poll()
                samples.append(kernel.now - start)

        kernel.spawn(responder(), pong_process, name="responder")
        task = kernel.spawn(driver(), ping_process, name="driver")
        kernel.run_until_complete(task, timeout=3600.0)
        return summary_stats(samples)

    # ------------------------------------------------------------------
    def measure_kar_actor(self, placement_cache: bool = True) -> dict:
        kernel = Kernel(seed=self.seed)
        app = KarApplication(
            kernel, self.profile.kar_config(placement_cache=placement_cache)
        )
        app.register_actor(EchoActor, name="Echo")
        app.add_component("workers", ("Echo",))
        client = app.client()
        app.settle()
        ref = actor_proxy("Echo", "bench")
        samples = []

        async def driver():
            # One warm-up call instantiates the actor (and fills the cache).
            await client.invoke(None, ref, "echo", (_PAYLOAD,), True)
            for _ in range(self.iterations):
                start = kernel.now
                await client.invoke(None, ref, "echo", (_PAYLOAD,), True)
                samples.append(kernel.now - start)

        task = kernel.spawn(driver(), client.process, name="driver")
        kernel.run_until_complete(task, timeout=36000.0)
        return summary_stats(samples)

    # ------------------------------------------------------------------
    def row(self) -> tuple:
        """One Table 2 row: medians in milliseconds."""
        direct = self.measure_direct_http()
        kafka = self.measure_kafka_only()
        kar = self.measure_kar_actor(placement_cache=True)
        kar_nocache = self.measure_kar_actor(placement_cache=False)
        return (
            self.profile.name,
            direct["median"] * 1000.0,
            kafka["median"] * 1000.0,
            kar["median"] * 1000.0,
            kar_nocache["median"] * 1000.0,
        )
