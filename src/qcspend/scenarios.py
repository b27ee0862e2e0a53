"""Bundled scenario catalog.

Each bundled scenario is a JSON file shipped with the package; they double
as documentation of the config format.
"""

from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources
from typing import Optional

from .simulation import ConfigError, ScenarioConfig, Simulation

BUNDLED = (
    "honest-fc",
    "front-runner",
    "front-runner-direct",
    "lfc-spammer",
    "lfc-delay",
    "fraud-proof",
    "salvage-restrictive",
    "salvage-unrestrictive",
    "salvage-permissive",
    "epoch-mechanics",
)


def load_scenario(name_or_path: str) -> ScenarioConfig:
    """A bundled name, or a path to a scenario JSON file."""
    if name_or_path in BUNDLED:
        text = resources.files("qcspend").joinpath(f"scenarios/{name_or_path}.json").read_text()
    else:
        try:
            with open(name_or_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {name_or_path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno} column {exc.colno}: {exc.msg}")
    return ScenarioConfig.from_dict(data)


def run_scenario(name_or_path: str, seed: Optional[int] = None, overrides: Optional[dict] = None) -> Simulation:
    config = load_scenario(name_or_path)
    if overrides:
        config = replace(config, params=config.params.with_overrides(**overrides))
    sim = Simulation(config, seed=seed)
    sim.run()
    return sim
