"""Smoke tests for the benchmark harnesses (small scales)."""

from repro.bench import (
    CLUSTER_DEV,
    CLUSTER_PROD,
    FailureCampaign,
    LatencyHarness,
    MANAGED,
    campaign_kar_config,
)
from repro.bench.failure_harness import run_total_failure_iterations
from repro.reefer import ReeferConfig


def test_campaign_records_phases():
    campaign = FailureCampaign(seed=3, failures=2)
    result = campaign.run()
    assert len(result.records) == 2
    assert not result.invariant_violations
    assert not result.guarantee_violations, result.guarantee_violations
    # Each failure clears the recorded list; the monitor keeps checking.
    assert campaign.reefer.app.trace.events[0].time > result.records[-1].kill_time
    for record in result.records:
        assert record.detection > 0
        assert record.consensus > 0
        assert record.reconciliation >= 0
        assert record.total >= record.detection
    stats = result.phase_stats()
    assert stats["Total Outage"]["count"] == 2


def test_campaign_latency_spike_measured():
    campaign = FailureCampaign(seed=4, failures=1)
    result = campaign.run()
    record = result.records[0]
    assert record.max_order_latency is None or record.max_order_latency > 0


def test_paired_campaign_recovers():
    campaign = FailureCampaign(
        seed=5, failures=1, paired=True, recovery_timeout=300.0
    )
    result = campaign.run()
    assert len(result.records) == 1
    assert not result.invariant_violations
    assert not result.guarantee_violations, result.guarantee_violations


def test_total_failure_helper():
    outcome = run_total_failure_iterations(seed=6, iterations=1)
    assert outcome["recovered"] == 1
    assert not outcome["violations"]
    assert not outcome["guarantee_violations"], outcome["guarantee_violations"]


def test_latency_harness_orderings():
    harness = LatencyHarness(CLUSTER_DEV, iterations=40, seed=1)
    name, http, kafka, kar, nocache = harness.row()
    assert name == "ClusterDev"
    assert http < kafka < kar < nocache


def test_profiles_are_distinct():
    devices = [CLUSTER_DEV, CLUSTER_PROD, MANAGED]
    produces = [profile.produce.base for profile in devices]
    assert produces == sorted(produces)
    config = CLUSTER_PROD.kar_config(placement_cache=False)
    assert config.placement_cache is False


def test_campaign_config_matches_paper_detector():
    config = campaign_kar_config()
    assert config.broker.heartbeat_interval == 3.0
    assert config.broker.session_timeout == 10.0
    assert config.broker.retention_seconds == 600.0


def test_campaign_custom_workload():
    campaign = FailureCampaign(
        seed=7,
        failures=1,
        reefer_config=ReeferConfig(
            order_rate=0.2, anomaly_rate=0.0, containers_per_depot=50
        ),
    )
    result = campaign.run()
    assert not result.invariant_violations
    assert not result.guarantee_violations, result.guarantee_violations
