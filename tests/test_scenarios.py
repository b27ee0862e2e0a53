"""Assertions over the bundled scenario runs: the protocol stories the
simulator must reproduce, with exact value accounting."""

import dataclasses
import functools
import hashlib
import re
from pathlib import Path

import pytest

from qcspend.agents import MinerAgent
from qcspend.consensus import verify_snapshot
from qcspend.fawkescoin import ChallengeStatus
from qcspend.ledger import Block, TxKind
from qcspend.lifted_fawkescoin import EpochDecision, LfcState, extension_decision
from qcspend.rules import RuleViolation
from qcspend.scenarios import BUNDLED, load_scenario, run_scenario
from qcspend.simulation import ConfigError, ScenarioConfig, Simulation

DATA = Path(__file__).parent / "data"
SHORT = [name for name in BUNDLED if name != "epoch-mechanics"]


def run(name):
    return run_scenario(name)


def golden(filename):
    return dict(line.split() for line in (DATA / filename).read_text().splitlines())


@functools.cache
def stepped_run(name):
    """A bundled scenario at seed 1, run one block at a time, and the
    sha256 over its state digest after each block."""
    sim = Simulation(load_scenario(name), seed=1)
    per_block = hashlib.sha256()
    for _ in range(sim.config.blocks):
        sim.run(1)
        per_block.update(sim.chain.state_digest())
    return sim, per_block.hexdigest()


class TestHonestFawkesCoin:
    def test_spends_finalize_and_fees_are_the_only_cost(self):
        sim = run("honest-fc")
        assert sim.profits()["alice"] == -220  # 2 x (fee 100 + commit fee 10)
        assert sim.chain.utxo(sim.grant_outpoint("u-hashed")) is None
        assert sim.chain.utxo(sim.grant_outpoint("u-derived")) is None
        assert not sim.chain.violations
        sim.chain.recompute_balance()

    def test_canary_kill_pays_bounty(self):
        sim = run("honest-fc")
        assert sim.chain.canary.killed_at == 5
        assert sim.profits()["oracle"] == sim.config.params.canary_bounty

    def test_classical_agent_cannot_kill_the_canary(self):
        config = ScenarioConfig.from_dict(
            {
                "name": "classical-killer",
                "blocks": 30,
                "agents": [
                    {"id": "m0", "kind": "miner"},
                    {"id": "carl", "kind": "user", "quantum": False,
                     "script": [{"height": 5, "do": "kill_canary"}]},
                ],
                "miners": ["m0"],
            }
        )
        sim = Simulation(config)
        sim.run()
        assert sim.chain.canary.killed_at is None  # alive through the run
        assert any("cannot kill" in a for a in sim.agents["carl"].actions)

    def test_report_in_the_block_that_opens_the_era_is_dropped(self):
        # The canary kill and the report land in the same block, and a zero
        # countdown opens the era with it: the miner must drop the report.
        config = ScenarioConfig.from_dict(
            {
                "name": "report-into-era",
                "blocks": 10,
                "params": {"era_countdown": 0},
                "agents": [
                    {"id": "m0", "kind": "miner"},
                    {"id": "oracle", "kind": "user", "quantum": True,
                     "script": [{"height": 5, "do": "kill_canary"}]},
                    {"id": "alice", "kind": "user",
                     "script": [{"height": 5, "do": "samaritan", "utxo": "u1"}]},
                ],
                "miners": ["m0"],
                "grants": [{"name": "u1", "owner": "alice", "type": "hashed", "path": "m/0h/0/0", "value": 10_000}],
            }
        )
        sim = Simulation(config)
        sim.run()
        assert sim.chain.height == 10 and sim.chain.canary.killed_at == 5
        assert sim.chain.violations == [(5, "samaritan-era", "mempool: report dropped")]
        assert verify_snapshot(sim.snapshot()).state_digest() == sim.chain.state_digest()


class TestFrontRunner:
    def test_nets_zero_against_fawkescoin(self):
        sim = run("front-runner")
        assert sim.profits()["eve"] == 0
        assert sim.profits()["alice"] == -100  # just the fee
        # the honest spend completed
        assert sim.chain.utxo(sim.grant_outpoint("u1")) is None

    def test_positive_against_unprotected_direct_spending(self):
        sim = run("front-runner-direct")
        assert sim.profits()["eve"] == 50_000
        assert sim.profits()["bob"] == -50_000


class TestLfcSpammer:
    def test_spammer_loses_the_whole_output_to_the_miner(self):
        sim = run("lfc-spammer")
        assert sim.profits()["spammer"] == -100_000
        record = next(iter(sim.chain.lfc_by_hash.values()))
        assert record.state is LfcState.CLAIMED_BY_MINER
        # sigma hit the chain exactly once (in the claim), never earlier
        claims = [t for b in sim.chain.blocks for t in b.transactions if t.kind is TxKind.LFC_CLAIM]
        assert len(claims) == 1


class TestLfcDelay:
    def test_attacker_pays_the_flat_fine_and_victim_is_compensated(self):
        sim = run("lfc-delay")
        assert sim.profits()["victim"] == 3_350  # 3.35% of 100,000
        record = next(iter(sim.chain.lfc_by_hash.values()))
        assert record.state is LfcState.EXPIRED_FINED
        assert record.resolved_height - record.height_included == 301
        # mallory mined exactly one block and the fine came out of it
        reward = sim.config.params.block_reward
        assert sim.profits()["mallory"] == reward - 3_350
        # the victim's output is unlocked again
        assert sim.grant_outpoint("u-victim") not in sim.chain.lfc_locks


@pytest.mark.parametrize("name", ["lfc-delay", "lfc-spammer", "epoch-mechanics"])
def test_locks_name_exactly_the_locked_records(name):
    # The lifted sweeps iterate `lfc_locks`, so it must name every LOCKED
    # record and nothing else, after every block.  epoch-mechanics adds
    # reveals, extensions and rotation settlements to the delay attack's
    # expiry and the spammer's claim.
    sim = Simulation(load_scenario(name))
    blocks_with_locks = 0
    for _ in range(sim.config.blocks):
        sim.run(1)
        chain = sim.chain
        locked = {c for c, r in chain.lfc_by_hash.items() if r.state is LfcState.LOCKED}
        assert set(chain.lfc_locks.values()) == locked
        for outpoint, committed in chain.lfc_locks.items():
            assert chain.lfc_by_hash[committed].outpoint == outpoint
        blocks_with_locks += bool(locked)
    assert blocks_with_locks and not sim.chain.lfc_locks


@pytest.mark.parametrize("name", ["lfc-delay", "lfc-spammer", "epoch-mechanics"])
def test_included_proofs_name_only_open_commitments(name):
    # A miner's claim duty walks `included_proofs` at every tick while it
    # holds any, so it must drop the commitments that were revealed, claimed
    # or fined, and keep only LOCKED ones and those not yet on chain.  Such a
    # miner ticks before the block is built, so each block is checked against
    # the records as they stood before it.  Only epoch-mechanics has records
    # revealed by their owners; the delay attack's fake commitment is
    # injected, not included.
    sim = Simulation(load_scenario(name))
    miners = [agent for agent in sim.agents.values() if isinstance(agent, MinerAgent)]
    held = 0
    for _ in range(sim.config.blocks):
        before = {committed: record.state for committed, record in sim.chain.lfc_by_hash.items()}
        sim.run(1)
        for miner in miners:
            assert all(before.get(committed, LfcState.LOCKED) is LfcState.LOCKED for committed in miner.included_proofs)
            held += len(miner.included_proofs)
    assert held or name == "lfc-delay"
    assert not any(record.state is LfcState.LOCKED for record in sim.chain.lfc_by_hash.values())


@pytest.mark.parametrize("name", ["fraud-proof", "salvage-unrestrictive", "salvage-permissive"])
def test_open_challenges_name_exactly_the_open_records(name):
    # The challenge sweep, the escrow sum and the fraud-proof watch iterate
    # `open_challenges`, so it must name every OPEN record and nothing
    # else, after every block.  fraud-proof defeats its challenge; the
    # salvage runs finalize theirs.
    sim = Simulation(load_scenario(name))
    blocks_with_open = 0
    for _ in range(sim.config.blocks):
        sim.run(1)
        chain = sim.chain
        open_txids = {t for t, r in chain.challenges.items() if r.status is ChallengeStatus.OPEN}
        assert set(chain.open_challenges) == open_txids
        for txid, record in chain.open_challenges.items():
            assert chain.challenges[txid] is record
        # A deposit reveal takes its outpoint out of `utxos`, so no second
        # record can open on it, and the fraud-proof watch matches at most
        # one record per watched outpoint whatever the dict's order.
        spent = [record.spent_outpoint for record in chain.open_challenges.values()]
        assert len(spent) == len(set(spent))
        blocks_with_open += bool(open_txids)
    assert blocks_with_open and sim.chain.challenges and not sim.chain.open_challenges


class TestFraudProof:
    def test_deposit_redistribution_is_exact(self):
        sim = run("fraud-proof")
        assert sim.profits()["thief"] == -80_500  # the whole deposit
        assert sim.profits()["baiter"] == 80_000  # deposit minus the 500 fee
        record = next(iter(sim.chain.challenges.values()))
        assert record.status is ChallengeStatus.DEFEATED
        assert record.fee + 80_000 == record.deposit_value
        sim.chain.recompute_balance()


SALVAGE_EXPECTED = {
    # (scenario, utxo) -> survives?        owner profit, notes encoded in tests below
    ("salvage-restrictive", "u-naked"): True,
    ("salvage-restrictive", "u-lost"): True,
    ("salvage-restrictive", "u-steal"): True,
    ("salvage-unrestrictive", "u-naked"): False,
    ("salvage-unrestrictive", "u-lost"): True,
    ("salvage-unrestrictive", "u-steal"): False,
    ("salvage-permissive", "u-naked"): False,
    ("salvage-permissive", "u-lost"): False,
    ("salvage-permissive", "u-steal"): False,
}


class TestSalvageMatrix:
    def test_restrictive_burns_everything(self):
        sim = run("salvage-restrictive")
        for name in ("u-naked", "u-lost", "u-steal"):
            assert sim.chain.utxo(sim.grant_outpoint(name)) is not None
        rules = [r for _, r, _ in sim.chain.violations]
        assert rules.count("fc-mode") == 3
        assert sim.profits()["owner"] == 0
        assert sim.profits()["thief"] == 0

    def test_unrestrictive_statuses(self):
        sim = run("salvage-unrestrictive")
        # naked: the owner recovered it (value moved, owner whole)
        assert sim.chain.utxo(sim.grant_outpoint("u-naked")) is None
        # lost: unspendable -- the mode rejection left it in place
        assert sim.chain.utxo(sim.grant_outpoint("u-lost")) is not None
        # stealable: quantum loot -- classical thief aborted, quantum took it
        assert sim.chain.utxo(sim.grant_outpoint("u-steal")) is None
        assert sim.profits()["pickpocket"] == 0
        assert sim.profits()["thief"] == 30_000
        assert sim.profits()["owner"] == -30_000
        assert any("steal aborted" in a for a in sim.agents["pickpocket"].actions)

    def test_permissive_statuses(self):
        sim = run("salvage-permissive")
        assert sim.chain.utxo(sim.grant_outpoint("u-naked")) is None
        assert sim.chain.utxo(sim.grant_outpoint("u-lost")) is None  # owner recovered
        assert sim.chain.utxo(sim.grant_outpoint("u-steal")) is None  # classical loot
        assert sim.profits()["pickpocket"] == 30_000
        assert sim.profits()["owner"] == -30_000


@pytest.fixture(scope="module")
def epoch_sim():
    return run("epoch-mechanics")


class TestEpochMechanics:
    @pytest.fixture
    def sim(self, epoch_sim):
        return epoch_sim

    def test_era_starts_at_kill_plus_countdown(self, sim):
        assert sim.chain.canary.killed_at == 50
        assert sim.chain.era_start() == 8_050

    def test_rotation_lengths(self, sim):
        for epoch in sim.chain.epochs:
            expected = 1_900 if epoch.kind.value == "fc" else 500
            assert epoch.length == expected

    def test_epoch_of_consistent_with_cumulative_lengths(self, sim):
        running = sim.chain.era_start()
        for epoch in sim.chain.epochs:
            assert epoch.start == running
            running = epoch.end
        for height in range(8_050, 30_001, 97):
            epoch = sim.chain.epoch_of(height)
            assert epoch.start <= height < epoch.end

    def test_exactly_one_extension(self, sim):
        extensions = [e for e in sim.chain.epochs if e.extension]
        assert len(extensions) == 1
        assert extensions[0].start == 12_850

    def test_no_commitments_inside_cutoff_windows(self, sim):
        for block in sim.chain.blocks[1:]:
            epoch = sim.chain.epoch_of(block.height)
            for tx in block.transactions:
                if tx.kind is TxKind.FC_COMMIT:
                    assert epoch.offset(block.height) < 1_800
                if tx.kind is TxKind.LFC_COMMIT:
                    assert epoch.offset(block.height) < 200
        rules = [r for _, r, _ in sim.chain.violations]
        assert "fc-commit-cutoff" in rules
        assert "lfc-commit-cutoff" in rules

    def test_extension_withholds_the_fine_until_rotation(self, sim):
        fake = next(r for r in sim.chain.lfc_by_hash.values() if r.state is LfcState.EXPIRED_FINED)
        extension = next(e for e in sim.chain.epochs if e.extension)
        assert fake.resolved_height == extension.end - 1  # paid only at the extension's end
        assert fake.height_included == 12_549

    def test_burst_was_the_trigger(self, sim):
        trigger_epoch_end = 12_850
        claims = [
            r for r in sim.chain.lfc_by_hash.values()
            if r.state is LfcState.CLAIMED_BY_MINER and trigger_epoch_end - 100 <= r.resolved_height < trigger_epoch_end
        ]
        params = sim.config.params
        k, num, den = params.proofs_per_100_blocks, params.extension_threshold_num, params.extension_threshold_den
        assert len(claims) == 6 and extension_decision(len(claims), k, num, den) is EpochDecision.EXTEND

    def test_balance_holds_over_the_full_run(self, sim):
        sim.chain.recompute_balance()


@pytest.mark.parametrize("name", BUNDLED)
def test_final_digest_matches_golden(name, request):
    # Every bundled scenario's end state at seed 1 (the bundled seed), so a
    # refactor that moves any of them fails here.
    digests = golden("scenario_digests.golden")
    assert list(digests) == list(BUNDLED)
    sim = request.getfixturevalue("epoch_sim") if name == "epoch-mechanics" else stepped_run(name)[0]
    assert sim.seed == 1
    assert sim.chain.state_digest().hex() == digests[name]


@pytest.mark.parametrize("name", BUNDLED)
def test_report_matches_golden(name, request):
    # Every bundled scenario's report at seed 1.  Its action lines say which
    # agent acted at which height, and a change to how agents are ticked can
    # move them without moving any digest.
    sections = re.split(r"(?m)^(?=scenario )", (DATA / "scenario_reports.golden").read_text())[1:]
    reports = {section.split(None, 2)[1]: section for section in sections}
    assert list(reports) == list(BUNDLED)
    sim = request.getfixturevalue("epoch_sim") if name == "epoch-mechanics" else stepped_run(name)[0]
    assert sim.report() == reports[name]


@pytest.mark.parametrize("name", SHORT)
def test_block_digests_match_golden(name):
    # Every intermediate state of the short bundled scenarios, so a change
    # that moves a state and later moves it back still fails here.
    digests = golden("block_digests.golden")
    assert list(digests) == SHORT
    assert stepped_run(name)[1] == digests[name]


@pytest.mark.parametrize("name", BUNDLED)
def test_snapshot_blocks_reencode_and_replay_to_the_tip(name, request):
    # A replay keeps each stored block as it decoded it, so every block
    # line must be the bytes its block encodes to, and the replayed tip
    # hash must be the built chain's.
    sim = request.getfixturevalue("epoch_sim") if name == "epoch-mechanics" else stepped_run(name)[0]
    text = sim.snapshot()
    lines = [bytes.fromhex(line[len("block ") :]) for line in text.splitlines() if line.startswith("block ")]
    assert len(lines) == len(sim.chain.blocks)
    for data in lines:
        assert Block.deserialize(data).serialize() == data
    assert sim.chain.tip_hash == sim.chain.blocks[-1].block_hash()
    assert verify_snapshot(text).tip_hash == sim.chain.tip_hash


def test_altered_tip_block_rejected():
    # The state digest covers the tip block's hash: only a child's parent
    # link pins any other block.
    lines = stepped_run("front-runner-direct")[0].snapshot().splitlines()
    tip = Block.deserialize(bytes.fromhex(lines[-2][len("block ") :]))
    assert tip.miner_id == "m0"
    lines[-2] = "block " + dataclasses.replace(tip, miner_id="x0").serialize().hex()
    with pytest.raises(RuleViolation, match="^snapshot-digest: "):
        verify_snapshot("\n".join(lines) + "\n")


class TestDeterminism:
    @pytest.mark.parametrize("name", ["honest-fc", "front-runner", "fraud-proof"])
    def test_same_seed_byte_identical(self, name):
        a, b = run(name), run(name)
        assert a.snapshot() == b.snapshot()
        assert a.report() == b.report()

    def test_different_seed_differs(self):
        a = run_scenario("honest-fc", seed=1)
        b = run_scenario("honest-fc", seed=2)
        assert a.snapshot() != b.snapshot()


class TestAdversaryReports:
    def test_front_runner_report(self):
        assert run_scenario("front-runner").profits()["eve"] == 0
        direct = run_scenario("front-runner-direct")
        assert direct.profits()["eve"] == 50_000
        assert any("front-ran" in a for a in direct.agents["eve"].actions)

    def test_spammer_report(self):
        assert run_scenario("lfc-spammer").profits()["spammer"] == -100_000

    def test_loot_thief_and_baiter(self):
        profits = run_scenario("fraud-proof").profits()
        assert profits["thief"] == -80_500
        assert profits["baiter"] == 80_000


def test_direct_spend_to_another_agent():
    config = ScenarioConfig.from_dict(
        {
            "name": "spend-to-bob",
            "blocks": 5,
            "agents": [
                {"id": "m0", "kind": "miner"},
                {"id": "alice", "script": [{"height": 3, "do": "direct_spend", "utxo": "u1", "fee": 100, "to": "bob"}]},
                {"id": "bob"},
            ],
            "miners": ["m0"],
            "grants": [{"name": "u1", "owner": "alice", "type": "hashed", "path": "m/0h/0/0", "value": 10_000}],
        }
    )
    sim = Simulation(config)
    sim.run()
    bob = sim.agents["bob"].wallet.pq_address()
    assert [u.value for u in sim.chain.utxos.values() if u.address == bob] == [9_900]
    assert sim.profits()["bob"] == 9_900


class TestAgentFailures:
    def test_fc_spend_without_a_fee_source(self):
        config = ScenarioConfig.from_dict(
            {
                "name": "no-fee-source",
                "blocks": 5,
                "agents": [
                    {"id": "m0", "kind": "miner"},
                    {"id": "alice", "script": [{"height": 3, "do": "fc_spend", "utxo": "u1"}]},
                ],
                "miners": ["m0"],
                "grants": [{"name": "u1", "owner": "alice", "type": "hashed", "path": "m/0h/0/0", "value": 10_000}],
            }
        )
        with pytest.raises(RuleViolation) as err:
            Simulation(config).run()
        assert err.value.rule == "agent-missing-utxo"

    def test_naked_spend_whose_deposit_is_gone_is_skipped(self):
        # The first reveal spends the deposit both spends name.
        naked = {"do": "fc_spend", "mode": "naked", "deposit": "d"}
        config = ScenarioConfig.from_dict(
            {
                "name": "deposit-gone",
                "blocks": 141,
                "params": {"era_countdown": 15},
                "agents": [
                    {"id": "m0", "kind": "miner"},
                    {"id": "oracle", "quantum": True, "script": [{"height": 5, "do": "kill_canary"}]},
                    {"id": "alice", "script": [{"height": 25, "utxo": "u1", **naked}, {"height": 140, "utxo": "u2", **naked}]},
                ],
                "miners": ["m0"],
                "grants": [
                    {"name": "u1", "owner": "alice", "type": "derived_plain", "path": "m/0h/0/0", "value": 10_000},
                    {"name": "u2", "owner": "alice", "type": "derived_plain", "path": "m/0h/0/1", "value": 10_000},
                    {"name": "d", "owner": "alice", "type": "pq", "value": 20_000},
                    {"name": "fee", "owner": "alice", "type": "pq", "value": 5_000},
                ],
            }
        )
        sim = Simulation(config)
        sim.run()
        assert sim.agents["alice"].actions[-2:] == ["h125 revealed naked:u1", "h140 fc spend failed: d already gone"]


class TestConfigStrictness:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario fields"):
            ScenarioConfig.from_dict({"name": "x", "blocks": 1, "agents": [], "miners": [], "zorp": 1})

    def test_unknown_agent_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown agent kind"):
            ScenarioConfig.from_dict(
                {"name": "x", "blocks": 1, "agents": [{"id": "a", "kind": "wizard"}], "miners": []}
            )

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError, match="bad params"):
            ScenarioConfig.from_dict(
                {"name": "x", "blocks": 1, "agents": [], "miners": [], "params": {"nope": 3}}
            )

    def test_actions_are_the_user_agents_methods(self):
        from qcspend.agents import UserAgent
        from qcspend.simulation import ACTIONS

        assert set(ACTIONS) == {name[len("do_") :] for name in dir(UserAgent) if name.startswith("do_")}

    def test_all_bundled_parse(self):
        for name in BUNDLED:
            config = load_scenario(name)
            assert config.name == name
