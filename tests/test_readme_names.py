"""README.md names code that exists: every backticked dotted ``repro.``
path imports, and every ``KarConfig.<name>`` and knob-table row is a
``KarConfig`` attribute."""

from __future__ import annotations

import importlib
import re
from dataclasses import fields
from pathlib import Path

from repro.core import KarConfig

README = (Path(__file__).parent.parent / "README.md").read_text()
CONFIG_NAMES = {field.name for field in fields(KarConfig)} | set(vars(KarConfig))


def resolve(path: str) -> object:
    """Import the longest module prefix of ``path``, then walk attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        return target
    raise ModuleNotFoundError(path)


def knob_table_names() -> list[str]:
    """First-column names of every table whose header cell says "knob"."""
    names, in_table = [], False
    for line in README.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if not line.startswith("|"):
            in_table = False
        elif cells[0].lower().startswith("knob"):
            in_table = True
        elif in_table and cells[0].startswith("`"):
            names.append(cells[0].strip("`"))
    return names


def test_dotted_repro_paths_resolve():
    paths = sorted(set(re.findall(r"`(repro(?:\.\w+)+)(?:\(\))?`", README)))
    assert paths
    for path in paths:
        try:
            resolve(path)
        except (ModuleNotFoundError, AttributeError) as error:
            raise AssertionError(f"README names `{path}`: {error!r}") from error


def test_config_names_resolve():
    named = set(re.findall(r"KarConfig\.(\w+)", README)) | set(knob_table_names())
    assert len(named) > 10  # both knob tables were found
    assert sorted(named - CONFIG_NAMES) == []
