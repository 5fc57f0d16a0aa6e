"""Observing a running application: its guarantee, checked as it happens."""

from repro.obs.guarantee import GuaranteeMonitor, guarantee_violations

__all__ = ["GuaranteeMonitor", "guarantee_violations"]
