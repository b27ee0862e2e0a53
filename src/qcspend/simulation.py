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

from dataclasses import dataclass
from typing import Optional

from .agents import AGENT_KINDS, Agent, Mempool, MinerAgent, UserAgent, Wallet
from .consensus import Chain, ChainConfig, GenesisGrant, export_snapshot
from .fawkescoin import RevealMode
from .groups import GroupError, h512, pk_ec, toy_group
from .hdwallet import DerivationPath
from .ledger import Address, pk_hash_address, plain_pk_address
from .params import Params


class ConfigError(ValueError):
    pass


_SCENARIO_KEYS = {
    "name",
    "seed",
    "blocks",
    "group_q",
    "canary_q",
    "kdf_iterations",
    "params",
    "agents",
    "miners",
    "miner_overrides",
    "grants",
}
_AGENT_KEYS = {"id", "kind", "quantum", "script", "watch"}
_GRANT_KEYS = {"name", "owner", "type", "path", "value", "wait", "lost"}
GRANT_TYPES = ("hashed", "derived_plain", "raw_hashed", "raw_plain", "pq")


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
        unknown = set(data) - _SCENARIO_KEYS
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        for required in ("name", "blocks", "agents", "miners"):
            if required not in data:
                raise ConfigError(f"missing scenario field: {required}")
        agents = []
        for a in _shaped(data["agents"], list, dict, "agents"):
            bad = set(a) - _AGENT_KEYS
            if bad:
                raise ConfigError(f"unknown agent fields: {sorted(bad)}")
            if a.get("kind", "user") not in AGENT_KINDS:
                raise ConfigError(f"unknown agent kind: {a.get('kind')}")
            if not isinstance(a.get("id"), str):
                raise ConfigError(f"an agent id is a string, not {a.get('id')!r}")
            if not isinstance(a.get("quantum", False), bool):
                raise ConfigError(f"agent {a['id']}: quantum must be true or false, not {a['quantum']!r}")
            agents.append(dict(a))
        grants = []
        for g in _shaped(data.get("grants", []), list, dict, "grants"):
            bad = set(g) - _GRANT_KEYS
            if bad:
                raise ConfigError(f"unknown grant fields: {sorted(bad)}")
            if g.get("type") not in GRANT_TYPES:
                raise ConfigError(f"unknown grant type: {g.get('type')}")
            for key in ("name", "owner"):
                if not isinstance(g.get(key), str):
                    raise ConfigError(f"a grant {key} is a string, not {g.get(key)!r}")
            _as_int(g.get("value"), f"grant {g['name']}: value", least=0)
            _as_int(g.get("wait", 0), f"grant {g['name']}: wait", least=0)
            grants.append(dict(g))
        for a in agents:
            _check_script(a, {g.get("name") for g in grants}, {b.get("id") for b in agents})
        try:
            params = Params().with_overrides(**data.get("params", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad params: {exc}")
        config = ScenarioConfig(
            name=data["name"],
            seed=_as_int(data.get("seed", 1), "seed"),
            blocks=_as_int(data["blocks"], "blocks"),
            group_q=_group_order(data.get("group_q", 8191), "group_q"),
            canary_q=_group_order(data.get("canary_q", 8191), "canary_q"),
            kdf_iterations=_as_int(data.get("kdf_iterations", 16), "kdf_iterations", least=1),
            params=params,
            agents=tuple(agents),
            miners=tuple(_shaped(data["miners"], list, str, "miners")),
            miner_overrides={
                _as_int(k, "a miner_overrides height"): v
                for k, v in _shaped(data.get("miner_overrides", {}), dict, str, "miner_overrides").items()
            },
            grants=tuple(grants),
        )
        if not config.miners:
            raise ConfigError("miners must name at least one miner")
        return config


def _as_int(value, field: str, least: Optional[int] = None) -> int:
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field} must be an integer, not {value!r}") from None
    if least is not None and n < least:
        raise ConfigError(f"{field} must be at least {least}, not {value!r}")
    return n


def _group_order(value, field: str) -> int:
    """`value`, if it is the order of a toy group."""
    q = _as_int(value, field)
    try:
        toy_group(q)
    except GroupError as exc:
        raise ConfigError(f"{field} {q}: {exc}") from None
    return q


def _shaped(value, shape: type, entry: type, field: str):
    """`value`, if it is a `shape` (list or dict) whose entries (a dict's
    values) are each an `entry`."""
    if not isinstance(value, shape) or not all(isinstance(item, entry) for item in (value.values() if shape is dict else value)):
        raise ConfigError(f"{field} must be a {shape.__name__} of {entry.__name__} entries, not {value!r}")
    return value


def _check_script(agent: dict, grant_names: set, agent_ids: set) -> None:
    """Reject a script entry without a height, with an action the agent
    lacks, naming a grant or agent the scenario does not have, or with a
    reveal mode, signature kind or derivation path that does not parse.  A
    thief holds no key, so `steal` must name the naked or lost mode."""
    who = agent.get("id")
    for entry in _shaped(agent.get("script", []), list, dict, f"agent {who}: script"):
        if not isinstance(entry.get("height"), int):
            raise ConfigError(f"agent {who}: script entry without an integer height: {entry}")
        if agent.get("kind", "user") == "user" and not hasattr(UserAgent, f"do_{entry.get('do')}"):
            raise ConfigError(f"agent {who}: unknown action {entry.get('do')!r}")
        mode = entry.get("mode", "hashed")
        if not isinstance(mode, str) or mode.upper() not in RevealMode.__members__:
            raise ConfigError(f"agent {who}: unknown reveal mode {mode!r}")
        if entry.get("do") == "steal" and entry.get("mode", "").upper() not in ("NAKED", "LOST"):
            raise ConfigError(f"agent {who}: steal needs mode 'naked' or 'lost', not {entry.get('mode')!r}")
        fake = entry.get("fake_lfc", {})
        if not isinstance(fake, dict):
            raise ConfigError(f"agent {who}: fake_lfc must be an object, not {fake!r}")
        for source, key in ((entry, "fee"), (entry, "commit_fee"), (entry, "alpha"), (fake, "alpha")):
            if key in source:
                _as_int(source[key], f"agent {who}: {key}", least=0)
        if entry.get("sig", "key") not in ("key", "seed"):
            raise ConfigError(f"agent {who}: sig must be 'key' or 'seed', not {entry['sig']!r}")
        paths = entry.get("paths", [])
        if not isinstance(paths, list):
            raise ConfigError(f"agent {who}: paths must be a list: {paths!r}")
        for text in paths + ([entry["path"]] if "path" in entry else []):
            if not isinstance(text, str):
                raise ConfigError(f"agent {who}: a derivation path is a string: {text!r}")
            try:
                DerivationPath.parse(text)
            except ValueError as exc:
                raise ConfigError(f"agent {who}: bad derivation path: {exc}")
        for name in (entry.get("utxo"), entry.get("deposit"), fake.get("utxo")):
            if name is not None and name not in grant_names:
                raise ConfigError(f"agent {who}: script names unknown grant {name!r}")
        if entry.get("to") is not None and entry["to"] not in agent_ids:
            raise ConfigError(f"agent {who}: script names unknown agent {entry['to']!r}")
    for name in _shaped(agent.get("watch", []), list, str, f"agent {who}: watch"):
        if name not in grant_names:
            raise ConfigError(f"agent {who}: watches unknown grant {name!r}")


class Simulation:
    def __init__(self, config: ScenarioConfig, seed: Optional[int] = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.tick_height = 0
        self.mempool = Mempool()
        self.grants: dict[str, dict] = {}
        self.owner_of_address: dict[bytes, str] = {}

        canary_sk = int.from_bytes(h512(b"canary:%d" % self.seed).digest, "big")
        canary_group = toy_group(config.canary_q)
        canary_pk = pk_ec(canary_group, canary_sk % canary_group.q).encode()
        nonce = h512(b"canary-nonce:%d" % self.seed).left

        # Wallets must exist before genesis so grants can carry addresses.
        wallets = {
            a["id"]: Wallet(toy_group(config.group_q), a["id"], self.seed, config.kdf_iterations)
            for a in config.agents
        }
        grant_list = []
        for g in config.grants:
            owner = g["owner"]
            if owner not in wallets:
                raise ConfigError(f"grant {g['name']} names unknown owner {owner}")
            address, info = self._grant_address(wallets[owner], g)
            grant_list.append(GenesisGrant(address, int(g["value"]), int(g.get("wait", 0))))
            info.update({"owner": owner, "lost": bool(g.get("lost", False)), "value": int(g["value"]), "type": g["type"]})
            self.grants[g["name"]] = info

        self.chain_config = ChainConfig(
            params=config.params,
            group_q=config.group_q,
            canary_q=config.canary_q,
            canary_pk=canary_pk,
            canary_nonce=nonce,
            grants=tuple(grant_list),
        )
        self.chain: Chain = self.chain_config.build()

        genesis_txid = self.chain.blocks[0].coinbase.txid()
        for i, name in enumerate(self.grants):
            info = self.grants[name]
            info["outpoint"] = (genesis_txid, i)
            self.register_address(self.chain.utxos[(genesis_txid, i)].address, info["owner"])

        self.agents: dict[str, Agent] = {}
        for a in config.agents:
            kind = a.get("kind", "user")
            agent = AGENT_KINDS[kind](a["id"], self, a, wallets[a["id"]])
            self.register_address(agent.wallet.pq_address(), a["id"])
            self.agents[a["id"]] = agent
        for name in list(config.miners) + list(config.miner_overrides.values()):
            if name not in self.agents or not isinstance(self.agents[name], MinerAgent):
                raise ConfigError(f"miner schedule names non-miner agent {name}")
        self.initial_holdings = {agent_id: self.holdings(agent_id) for agent_id in self.agents}
        self.blocks_run = 0

    def _grant_address(self, wallet: Wallet, g: dict) -> tuple[Address, dict]:
        gtype = g["type"]
        if gtype in ("hashed", "derived_plain"):
            if "path" not in g:
                raise ConfigError(f"grant {g['name']} needs a derivation path")
            pk = wallet.derived_pk(DerivationPath.parse(g["path"]))
            address = pk_hash_address(pk) if gtype == "hashed" else plain_pk_address(pk)
            return address, {"path": g["path"]}
        if gtype in ("raw_hashed", "raw_plain"):
            label = g["name"]
            pk = pk_ec(wallet.group, wallet.raw_sk(label)).encode()
            address = pk_hash_address(pk) if gtype == "raw_hashed" else plain_pk_address(pk)
            return address, {"raw_label": label}
        return wallet.pq_address(), {}

    # -- helpers agents rely on -------------------------------------------------

    def register_address(self, address: Address, agent_id: str) -> None:
        self.owner_of_address.setdefault(address.serialize(), agent_id)

    def grant_outpoint(self, name: str):
        return self.grants[name]["outpoint"]

    def holdings(self, agent_id: str) -> int:
        mine = 0
        for utxo in self.chain.utxos.values():
            if self.owner_of_address.get(utxo.address.serialize()) == agent_id:
                mine += utxo.value
        return mine

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
            self.tick_height = self.chain.height + 1
            for agent in self.agents.values():
                agent.on_tick()
            self.scheduled_miner(self.tick_height).build_block()
            self.blocks_run += 1

    # -- outputs --------------------------------------------------------------------

    def profits(self) -> dict[str, int]:
        return {a: self.holdings(a) - self.initial_holdings[a] for a in self.agents}

    def report(self) -> str:
        lines = [
            f"scenario {self.config.name}",
            f"seed {self.seed}",
            f"blocks {self.blocks_run}",
            f"final-height {self.chain.height}",
            f"era {self.chain.era_phase().value}",
        ]
        profits = self.profits()
        for agent_id, agent in self.agents.items():
            sign = "+" if profits[agent_id] >= 0 else ""
            lines.append(
                f"agent {agent_id} kind={type(agent).__name__} initial={self.initial_holdings[agent_id]}"
                f" final={self.holdings(agent_id)} profit={sign}{profits[agent_id]}"
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
