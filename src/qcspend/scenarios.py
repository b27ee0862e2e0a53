"""Bundled scenario catalog and the adversary-report wrapper.

Each bundled scenario is a JSON file shipped with the package; they double
as documentation of the config format.  `run_adversary` maps a named
adversary archetype onto its demonstration scenario and condenses the run
into a per-agent report of actions and net profit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
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

ADVERSARY_SCENARIOS = {
    "FrontRunner": ("front-runner", "front-runner-direct"),
    "DelayAttacker": ("lfc-delay",),
    "Spammer": ("lfc-spammer",),
    "LootThief": ("fraud-proof",),
    "DepositBaiter": ("fraud-proof",),
}

ADVERSARY_AGENT = {
    "FrontRunner": "eve",
    "DelayAttacker": "mallory",
    "Spammer": "spammer",
    "LootThief": "thief",
    "DepositBaiter": "baiter",
}


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


@dataclass(frozen=True)
class AgentOutcome:
    agent_id: str
    kind: str
    actions: tuple[str, ...]
    profit: int


@dataclass(frozen=True)
class AdversaryReport:
    adversary: str
    scenario: str
    outcomes: tuple[AgentOutcome, ...]

    def outcome_of(self, agent_id: str) -> AgentOutcome:
        for outcome in self.outcomes:
            if outcome.agent_id == agent_id:
                return outcome
        raise KeyError(agent_id)

    @property
    def adversary_profit(self) -> int:
        return self.outcome_of(ADVERSARY_AGENT[self.adversary]).profit


def run_adversary(kind: str) -> tuple[AdversaryReport, ...]:
    """Run the demonstration scenario(s) for one adversary archetype and
    report every agent's attempted actions and net profit or loss."""
    if kind not in ADVERSARY_SCENARIOS:
        raise ConfigError(f"unknown adversary kind {kind!r}; one of {sorted(ADVERSARY_SCENARIOS)}")
    reports = []
    for scenario in ADVERSARY_SCENARIOS[kind]:
        sim = run_scenario(scenario)
        profits = sim.profits()
        outcomes = tuple(
            AgentOutcome(agent_id, type(agent).__name__, tuple(agent.actions), profits[agent_id])
            for agent_id, agent in sim.agents.items()
        )
        reports.append(AdversaryReport(kind, scenario, outcomes))
    return tuple(reports)
