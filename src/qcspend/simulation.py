"""Scenario configuration and the deterministic run loop.

A scenario file is strict JSON: unknown keys are rejected, and the same
config plus the same seed always produces byte-identical snapshots and
reports.  The canary keypair is derived from the scenario seed; no agent
is handed the secret, so killing the canary genuinely requires the
discrete-log oracle.

Genesis grants are named, so agent scripts can refer to outputs by name
("spend u1 with deposit d1") instead of carrying outpoints around.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from . import fawkescoin
from .agents import AGENT_KINDS, Agent, Mempool, MinerAgent, Wallet
from .consensus import Chain, ChainConfig, GenesisGrant, export_snapshot
from .groups import address_hash, pk_ec, toy_group
from .hdwallet import DerivationPath
from .ledger import Address, pk_hash_address, plain_pk_address
from .params import ConfigError, Params, check_fields, toy_order, u32_count

# The fields a user's scripted action needs besides `height` and `do`; a
# spend in the naked or lost mode needs a `deposit` as well.
ACTIONS = {
    "kill_canary": (), "registry_declare": ("paths",), "samaritan": ("utxo",),
    "direct_spend": ("utxo",), "fc_spend": ("utxo",), "lfc_spend": ("utxo",), "steal": ("utxo",),
}
DEPOSIT_MODES = tuple(mode.name.lower() for mode in fawkescoin.DEPOSIT_MODES)

# The objects of a scenario file, as tables for `check_fields`.
SCENARIO = {
    "name": (str, ...), "seed": (int, 1), "blocks": (int, ...),
    "group_q": (toy_order, 8191), "canary_q": (toy_order, 8191), "kdf_iterations": (int, 16),
    "params": (Params, Params()),
    "agents": ([dict], ...), "grants": ([dict], ()),
    "miners": ([str], ...), "miner_overrides": (dict, {}),
}
AGENT = {
    "id": (str, ...), "kind": (set(AGENT_KINDS), "user"), "quantum": (bool, False),
    "script": ([dict], ()), "watch": ([str], ()),
}
GRANT = {
    "name": (str, ...), "owner": (str, ...),
    "type": ({"hashed", "derived_plain", "raw_hashed", "raw_plain", "pq"}, ...), "path": (DerivationPath.parse, None),
    "value": (int, ...), "wait": (u32_count, 0), "lost": (bool, False),
}
SCRIPT_ENTRY = {
    "height": (int, ...), "do": (set(ACTIONS), None),
    "utxo": (str, None), "deposit": (str, None), "to": (str, None),
    "mode": ({"hashed", "derived", *DEPOSIT_MODES}, "hashed"), "sig": ({"key", "seed"}, "key"),
    "fee": (int, 0), "commit_fee": (int, 0), "alpha": (int, 0),
    "abandon": (bool, False), "paths": ([DerivationPath.parse], None),
    "fake_lfc": ({"utxo": (str, ...), "alpha": (int, 0)}, None),
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    blocks: int
    group_q: int
    canary_q: int
    kdf_iterations: int
    params: Params
    agents: tuple[dict, ...]
    miners: tuple[str, ...]
    miner_overrides: dict[int, str]
    grants: tuple[dict, ...]

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        """The scenario of a JSON object, each object checked against its
        table above and each name it uses against its agents and grants."""
        config = check_fields(data, SCENARIO, "scenario")
        agents = [check_fields(a, AGENT, "agent", f"agent {a.get('id')}: ") for a in config["agents"]]
        grants = [check_fields(g, GRANT, "grant", f"grant {g.get('name')}: ") for g in config["grants"]]
        kinds = {a["id"]: a["kind"] for a in agents}
        by_name = {g["name"]: g for g in grants}
        if len(kinds) < len(agents) or len(by_name) < len(grants):
            raise ConfigError("agent ids and grant names must be unique")
        for g in grants:
            if g["owner"] not in kinds:
                raise ConfigError(f"grant {g['name']} names unknown owner {g['owner']}")
            if (g["path"] is None) == (g["type"] in ("hashed", "derived_plain")):
                raise ConfigError(f"grant {g['name']}: hashed and derived_plain grants have a path, and no others")
        for a in agents:
            a["script"] = tuple(_check_entry(entry, a, by_name, kinds) for entry in a["script"])
            for name in a["watch"]:
                if by_name.get(name, {}).get("path") is None:
                    raise ConfigError(f"agent {a['id']}: watches {name!r}, no grant with a derivation path")
        overrides = config["miner_overrides"]
        if not all(height.isdecimal() and isinstance(miner, str) for height, miner in overrides.items()):
            raise ConfigError(f"miner_overrides must be a map from block heights to miner ids, not {overrides!r}")
        config["miner_overrides"] = {int(height): miner for height, miner in overrides.items()}
        for name in config["miners"] + tuple(config["miner_overrides"].values()):
            if kinds.get(name) != "miner":
                raise ConfigError(f"miner schedule names non-miner agent {name}")
        if not config["miners"]:
            raise ConfigError("miners must name at least one miner")
        if config["kdf_iterations"] < 1:
            raise ConfigError("kdf_iterations must be at least 1")
        return ScenarioConfig(**{**config, "agents": tuple(agents), "grants": tuple(grants)})


def _check_entry(data: dict, agent: dict, grants: dict, kinds: dict) -> dict:
    """A script entry of `agent`, checked: a user's entry gives an action
    and the fields it needs, and each grant or agent it names exists.  A
    spend takes a pre-quantum grant, with a derivation path to reveal the
    path or sign with the seed.  A thief holds no key, so `steal` must name
    the naked or lost mode."""
    who = f"agent {agent['id']}: "
    entry = check_fields(data, SCRIPT_ENTRY, "script entry", who)
    do, mode = entry["do"], entry["mode"]
    if agent["kind"] == "user":
        needs = ("do",) + ACTIONS.get(do, ()) + (("deposit",) if mode in DEPOSIT_MODES else ())
        missing = [key for key in needs if entry[key] is None]
        if missing:
            raise ConfigError(f"{who}script entry needs {missing}: {data}")
        if do == "steal" and mode not in DEPOSIT_MODES:
            raise ConfigError(f"{who}steal needs mode 'naked' or 'lost', not {mode!r}")
    for name in (entry["utxo"], entry["deposit"], (entry["fake_lfc"] or {}).get("utxo")):
        if name is not None and name not in grants:
            raise ConfigError(f"{who}script names unknown grant {name!r}")
    spent = grants.get(entry["utxo"], {})
    if spent.get("type") == "pq" or (mode == "derived" or entry["sig"] == "seed") and spent.get("path") is None:
        raise ConfigError(f"{who}cannot {do} {entry['utxo']!r}, a {spent.get('type')} grant: {data}")
    if entry["to"] is not None and entry["to"] not in kinds:
        raise ConfigError(f"{who}script names unknown agent {entry['to']!r}")
    return entry


class Simulation:
    def __init__(self, config: ScenarioConfig, seed: Optional[int] = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.tick_height = 0
        self.mempool = Mempool()
        self.grants = {g["name"]: dict(g) for g in config.grants}
        self.owner_of_address: dict[bytes, str] = {}

        canary_sk = int.from_bytes(hashlib.sha512(b"canary:%d" % self.seed).digest(), "big")
        canary_group = toy_group(config.canary_q)
        canary_pk = pk_ec(canary_group, canary_sk % canary_group.q).encode()
        nonce = address_hash(b"canary-nonce:%d" % self.seed)

        # Wallets must exist before genesis so grants can carry addresses.
        wallets = {
            a["id"]: Wallet(toy_group(config.group_q), a["id"], self.seed, config.kdf_iterations)
            for a in config.agents
        }
        grants = [GenesisGrant(self._grant_address(wallets[g["owner"]], g), g["value"], g["wait"]) for g in config.grants]

        self.chain_config = ChainConfig(
            params=config.params,
            group_q=config.group_q,
            canary_q=config.canary_q,
            canary_pk=canary_pk,
            canary_nonce=nonce,
            grants=tuple(grants),
        )
        self.chain: Chain = self.chain_config.build()

        genesis_txid = self.chain.blocks[0].coinbase.txid()
        for i, name in enumerate(self.grants):
            info = self.grants[name]
            info["outpoint"] = (genesis_txid, i)
            self.register_address(self.chain.utxos[(genesis_txid, i)].address, info["owner"])

        self.agents: dict[str, Agent] = {}
        for a in config.agents:
            agent = AGENT_KINDS[a["kind"]](a["id"], self, a, wallets[a["id"]])
            self.register_address(agent.wallet.pq_address(), a["id"])
            self.agents[a["id"]] = agent
        self.initial_holdings = self.holdings()
        self.blocks_run = 0

    def _grant_address(self, wallet: Wallet, g: dict) -> Address:
        if g["type"] == "pq":
            return wallet.pq_address()
        pk = pk_ec(wallet.group, wallet.grant_sk(g)).encode()
        return pk_hash_address(pk) if g["type"] in ("hashed", "raw_hashed") else plain_pk_address(pk)

    # -- helpers agents rely on -------------------------------------------------

    def register_address(self, address: Address, agent_id: str) -> None:
        self.owner_of_address.setdefault(address.serialize(), agent_id)

    def grant_outpoint(self, name: str):
        return self.grants[name]["outpoint"]

    def holdings(self) -> dict[str, int]:
        """Every agent's total value in the live UTXO set, from one scan."""
        totals = dict.fromkeys(self.agents, 0)
        owner_of = self.owner_of_address
        for utxo in self.chain.utxos.values():
            owner = owner_of.get(utxo.address.serialize())
            if owner in totals:
                totals[owner] += utxo.value
        return totals

    # -- the loop -----------------------------------------------------------------

    def scheduled_miner(self, height: int) -> MinerAgent:
        override = self.config.miner_overrides.get(height)
        if override is not None:
            return self.agents[override]
        rotation = self.config.miners
        return self.agents[rotation[(height - 1) % len(rotation)]]

    def run(self, blocks: Optional[int] = None) -> None:
        n = self.config.blocks if blocks is None else blocks
        for _ in range(n):
            height = self.tick_height = self.chain.height + 1
            for agent in self.agents.values():
                if agent.has_work(height):
                    agent.on_tick()
            self.scheduled_miner(height).build_block()
            self.blocks_run += 1

    # -- outputs --------------------------------------------------------------------

    def profits(self) -> dict[str, int]:
        final = self.holdings()
        return {a: final[a] - self.initial_holdings[a] for a in self.agents}

    def report(self) -> str:
        lines = [
            f"scenario {self.config.name}",
            f"seed {self.seed}",
            f"blocks {self.blocks_run}",
            f"final-height {self.chain.height}",
            f"era {self.chain.era_phase().value}",
        ]
        final = self.holdings()
        for agent_id, agent in self.agents.items():
            initial = self.initial_holdings[agent_id]
            profit = final[agent_id] - initial
            sign = "+" if profit >= 0 else ""
            lines.append(
                f"agent {agent_id} kind={type(agent).__name__} initial={initial}"
                f" final={final[agent_id]} profit={sign}{profit}"
            )
            for action in agent.actions:
                lines.append(f"  action {action}")
        lines.append(f"violations {len(self.chain.violations)}")
        for height, rule, detail in self.chain.violations:
            lines.append(f"violation h{height} {rule} {detail}")
        lines.append(f"digest {self.chain.state_digest().hex()}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> str:
        return export_snapshot(self.chain, self.chain_config)
