"""The option surface only shrinks (ROADMAP standing rule)."""

from dataclasses import fields

import pytest

from repro.core import KarConfig
from repro.mq import BrokerConfig
from repro.persist import PersistenceConfig

RULE = "no new option, kwarg or env var without deleting one"


@pytest.mark.parametrize(
    "config, ceiling",
    [(KarConfig, 20), (BrokerConfig, 8), (PersistenceConfig, 4)],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_config_field_counts_are_pinned(config, ceiling):
    names = [field.name for field in fields(config)]
    assert len(names) == ceiling, (
        f"{config.__name__} has {len(names)} fields, pinned at {ceiling}: "
        f"{RULE} (lower the pin when a field goes). Fields: {names}"
    )
