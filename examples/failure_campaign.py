"""A miniature Section 6.1 fault-injection campaign.

Runs the Container Shipping application on a virtual five-node cluster and
injects random single-node failures, printing the Table 1 phase statistics
and the Figure 7b latency spikes as it goes. A second scenario demonstrates
the overload guards: a flaky downstream trips a circuit breaker, new calls
are diverted to the dead-letter parking lot, and once the fault heals the
parked calls replay to exactly-once completion.

Usage::

    python examples/failure_campaign.py [num_failures]
"""

import sys

from repro.bench import FailureCampaign, render_table
from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.sim import Kernel


class FlakyGateway(Actor):
    """A downstream dependency that errors until it is "repaired"."""

    healthy = False
    deliveries: dict = {}

    async def deliver(self, ctx, parcel):
        if not FlakyGateway.healthy:
            raise RuntimeError("gateway 502")
        count = FlakyGateway.deliveries.get(parcel, 0) + 1
        FlakyGateway.deliveries[parcel] = count
        return f"delivered {parcel} (x{count})"


def overload_guard_scenario():
    """Breaker trips -> calls park -> heal -> replay, exactly once."""
    print("\n--- overload guards: breaker, parking lot, replay ---")
    FlakyGateway.healthy = False
    FlakyGateway.deliveries = {}
    kernel = Kernel(seed=7)
    config = KarConfig.fast_test().with_overrides(
        breaker_threshold=3, breaker_cooldown=300.0
    )
    app = KarApplication.fresh(kernel, config, name="guards")
    name = app.register_actor(FlakyGateway)
    app.add_component("worker", (name,))
    client = app.client()
    app.settle()
    gateway = actor_proxy(name, "eu-west")

    failures = 0
    for parcel in ("p0", "p1", "p2"):
        try:
            app.run_call(gateway, "deliver", parcel)
        except Exception:
            failures += 1
    print(f"gateway down: {failures} calls failed; breaker threshold hit")

    # The breaker is open: these invocations divert to the parking lot
    # instead of burning executions against a known-bad dependency.
    parked_calls = [
        kernel.spawn(
            client.invoke(None, gateway, "deliver", (f"parcel{n}",), True),
            client.process,
            name=f"parked{n}",
        )
        for n in range(3)
    ]
    kernel.run(until=kernel.now + 2.0)
    stats = app.stats("overload")
    print(
        f"breaker open: {stats['diverted']} calls parked durably "
        f"(dead-letter depth {stats['dead_letter_depth']})"
    )
    for letter in stats["dead_letters"]:
        last = letter["failure_history"][-1]
        print(
            f"  parked {letter['actor']}.{letter['method']} "
            f"({letter['request_id']}): last failure at "
            f"t={last['at']:.2f}s: {last['error']}"
        )

    FlakyGateway.healthy = True  # the operator repairs the gateway ...
    summary = app.redeliver_dead_letters()  # ... and replays the lot
    results = kernel.run_until_complete(
        kernel.gather(parked_calls), timeout=120.0
    )
    print(f"healed and replayed: {summary}")
    for result in sorted(results):
        print(f"  {result}")
    assert all(count == 1 for count in FlakyGateway.deliveries.values())
    print("exactly-once: every parked parcel delivered once "
          f"({len(FlakyGateway.deliveries)} parcels)")


def main():
    failures = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    print(f"injecting {failures} single-node failures ...")
    campaign = FailureCampaign(seed=2023, failures=failures)
    result = campaign.run()

    rows = [
        (name, s["avg"], s["std"], s["median"], s["min"], s["max"])
        for name, s in result.phase_stats().items()
    ]
    print()
    print(
        render_table(
            ["Phase (s)", "Average", "StdDev", "Median", "Min", "Max"],
            rows,
            title=f"Outage phases across {len(result.records)} failures "
                  f"({result.sim_seconds:.0f} simulated seconds, "
                  f"{result.wall_seconds:.1f} wall seconds)",
        )
    )
    spikes = result.latency_stats()
    print(
        f"\nmax order latency around failures: avg={spikes['avg']:.1f}s "
        f"median={spikes['median']:.1f}s max={spikes['max']:.1f}s"
    )
    print(f"orders: {result.orders_submitted} submitted, "
          f"{result.orders_completed} completed")
    print("invariants:", "ALL HOLD" if not result.invariant_violations
          else result.invariant_violations)
    print("guarantee (Theorem 3.1):", "HOLDS" if not result.guarantee_violations
          else result.guarantee_violations)
    if result.invariant_violations or result.guarantee_violations:
        sys.exit("the campaign broke an invariant or the guarantee")

    overload_guard_scenario()


if __name__ == "__main__":
    main()
