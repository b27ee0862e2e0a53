import functools
import json
from dataclasses import replace

import pytest

from helpers import Harness, differing_in, same_state
from qcspend import groups
from qcspend.canary_game import EntityTimeline, GameSpec, Player, Strategy, outcome
from qcspend.consensus import (
    EpochKind,
    EraPhase,
    export_snapshot,
    reorg,
    replay_chain,
    verify_snapshot,
)
from qcspend.encoding import enc_bytes, enc_u32, enc_u64
from qcspend.fawkescoin import RevealMode, RevealPayload, commit_payload
from qcspend.groups import PreQuantumSignature, decode_point, prequantum_sign, quantum_invert, toy_group
from qcspend.hdwallet import path
from qcspend.ledger import (
    Block,
    Transaction,
    TxKind,
    TxInput,
    TxOutput,
    Witness,
    WitnessKind,
    pk_hash_address,
    post_quantum_address,
)
from qcspend.rules import RuleViolation


class TestEpochArithmetic:
    def test_rotation_offsets(self):
        h = Harness()  # era from genesis, stock epoch lengths
        h.build()
        h.mine_to(2500)
        assert h.chain.epoch_of(0).kind is EpochKind.FC
        assert h.chain.epoch_of(0).offset(0) == 0
        assert h.chain.epoch_of(1899).kind is EpochKind.FC
        first_lfc = h.chain.epoch_of(1900)
        assert first_lfc.kind is EpochKind.LFC and first_lfc.offset(1900) == 0
        next_fc = h.chain.epoch_of(2400)
        assert next_fc.kind is EpochKind.FC and next_fc.offset(2400) == 0

    def test_pre_activation(self):
        h = Harness(killed_at=None, era_countdown=8000)
        h.build()
        h.mine(5)
        assert h.chain.epoch_of(3) is None
        assert h.chain.era_phase() is EraPhase.PRE_QUANTUM

    def test_cumulative_lengths_consistent(self):
        h = Harness(fc_epoch_len=200, lfc_epoch_len=500)
        h.build()
        h.mine_to(2200)
        expected = 0
        for epoch in h.chain.epochs:
            assert epoch.start == expected
            expected = epoch.end
        kinds = [e.kind for e in h.chain.epochs]
        assert kinds[:4] == [EpochKind.FC, EpochKind.LFC, EpochKind.FC, EpochKind.LFC]


class TestCanary:
    def kill_tx(self, h, claimant_wallet):
        sk = quantum_invert(decode_point(toy_group(8191), h.config.canary_pk))
        sig = prequantum_sign(toy_group(8191), sk, h.config.canary_nonce)
        return Transaction(
            TxKind.CANARY_KILL,
            payload=claimant_wallet.pq_address().serialize() + enc_bytes(sig.encode()),
        )

    def test_kill_starts_countdown_and_pays_bounty(self):
        h = Harness(killed_at=None, era_countdown=50)
        h.build()
        h.mine(3)
        h.mine_with([self.kill_tx(h, h.wallet("eve"))])
        assert h.chain.canary.killed_at == 4
        assert h.chain.era_phase() is EraPhase.COUNTDOWN
        assert h.chain.era_start() == 54
        eve_addr = h.wallet("eve").pq_address().serialize()
        bounty = [u for u in h.chain.utxos.values() if u.address.serialize() == eve_addr]
        assert sum(u.value for u in bounty) == h.params.canary_bounty
        h.mine_to(54)
        assert h.chain.era_phase() is EraPhase.QUANTUM_ERA

    def test_invalid_solution_rejected(self):
        h = Harness(killed_at=None)
        h.build()
        wallet = h.wallet("eve")
        sig = prequantum_sign(toy_group(8191), 5, b"the wrong message")
        tx = Transaction(TxKind.CANARY_KILL, payload=wallet.pq_address().serialize() + enc_bytes(sig.encode()))
        h.chain.begin_block("m0", wallet.pq_address())
        with pytest.raises(RuleViolation, match="canary-solution"):
            h.chain.add_tx(tx)

    def test_second_kill_rejected(self):
        h = Harness(killed_at=None, era_countdown=50)
        h.build()
        h.mine_with([self.kill_tx(h, h.wallet("eve"))])
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="canary-dead"):
            h.chain.add_tx(self.kill_tx(h, h.wallet("mallory")))

    def test_bounty_past_the_supply_bound_rejected(self):
        h = Harness(killed_at=None, canary_bounty=2**64 - 1)
        h.grant_pq("fee", "alice", 1)
        h.build()
        before = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(self.kill_tx(h, h.wallet("eve")))
        assert violation is not None and violation.rule == "supply-bound"
        assert h.chain.canary.killed_at is None and h.chain.state_digest() == before

    def test_burned_funds_bounty_variant_fails_when_nothing_burned(self):
        h = Harness(killed_at=None, bounty_source="burned")
        h.build()
        h.mine(2)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="canary-bounty-unfunded"):
            h.chain.add_tx(self.kill_tx(h, h.wallet("eve")))

    @pytest.mark.parametrize("bounty, rule", [(0, None), (1, "canary-bounty-unfunded")], ids=["0", "1"])
    def test_burned_funds_bounty_at_zero(self, bounty, rule):
        # README (Modelling choices): a burned-funds kill is accepted only
        # with a bounty of 0, and then credits nothing.
        h = Harness(killed_at=None, bounty_source="burned", canary_bounty=bounty)
        h.build()
        h.mine(2)
        utxos, minted = dict(h.chain.utxos), h.chain.total_minted
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(self.kill_tx(h, h.wallet("eve")))
        assert (violation and violation.rule) == rule
        assert h.chain.canary.killed_at == (None if rule else 3)
        assert h.chain.utxos == utxos and h.chain.total_minted == minted

    def test_era_monotone_through_a_run(self):
        h = Harness(killed_at=None, era_countdown=10)
        h.build()
        h.mine(3)
        order = [EraPhase.PRE_QUANTUM, EraPhase.COUNTDOWN, EraPhase.QUANTUM_ERA]
        seen = [h.chain.era_phase()]
        h.mine_with([self.kill_tx(h, h.wallet("eve"))])
        for _ in range(20):
            h.mine()
            phase = h.chain.era_phase()
            assert order.index(phase) >= order.index(seen[-1])
            seen.append(phase)
        assert seen[-1] is EraPhase.QUANTUM_ERA


class TestSupplyBound:
    """The supply stays below 2^64, as the state digest encodes it: genesis
    grants or a coinbase that would mint past 2^64 - 1 are rejected (the
    canary bounty: `TestCanary`)."""

    @pytest.mark.parametrize("second, rule", [(2**63 - 1, None), (2**63, "supply-bound")], ids=["2^64-1", "2^64"])
    def test_genesis_grants(self, second, rule):
        h = Harness()
        h.grant_pq("a", "alice", 2**63)
        h.grant_pq("b", "bob", second)
        if rule is None:
            assert h.build().total_minted == 2**64 - 1
        else:
            with pytest.raises(RuleViolation) as raised:
                h.build()
            assert raised.value.rule == rule

    def test_coinbase(self):
        h = Harness(block_reward=2**63)
        h.grant_pq("a", "alice", 2**63 - 1)
        h.build()
        h.mine()
        assert h.chain.total_minted == 2**64 - 1
        before, height = h.chain.state_digest(), h.chain.height
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation) as raised:
            h.chain.end_block()
        assert raised.value.rule == "supply-bound"
        assert h.chain.height == height and h.chain.state_digest() == before


class TestEraRules:
    def direct_spend(self, h, label, p):
        wallet = h.wallet("alice")
        op = h.outpoints[label]
        utxo = h.chain.utxos[op]
        sk = wallet.derived_sk(path(p))
        outputs = [TxOutput(wallet.pq_address(), utxo.value)]
        return h.signed(TxKind.TRANSFER, [(op, ("pre", wallet, sk))], outputs)

    def test_direct_prequantum_spend_prohibited_in_era(self):
        h = Harness()  # quantum era from genesis
        h.grant_hashed("u1", "alice", "m/0h/0/0", 10_000)
        h.build()
        h.mine(2)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="era-direct-spend"):
            h.chain.add_tx(self.direct_spend(h, "u1", "m/0h/0/0"))

    def test_direct_spend_fine_before_era(self):
        h = Harness(killed_at=None)
        h.grant_hashed("u1", "alice", "m/0h/0/0", 10_000)
        h.build()
        h.mine(2)
        h.mine_with([self.direct_spend(h, "u1", "m/0h/0/0")])
        assert h.chain.utxo(h.outpoints["u1"]) is None

    @pytest.mark.parametrize("era_countdown", [2, 5])
    @pytest.mark.parametrize("late", [0, 1], ids=["at-deadline", "past-deadline"])
    def test_loot_window_is_the_canary_games_for_w_one_less(self, era_countdown, late):
        # canary_game lets the loot be taken up to kill + w, inclusive; the
        # chain accepts a direct spend up to killed_at + era_countdown - 1,
        # the last countdown height.  So w = era_countdown - 1.
        kill, w = 3, era_countdown - 1
        game = GameSpec(EntityTimeline(kill, kill + w + late), EntityTimeline(kill + 1, kill + w + 100), w, 10, 1000)
        looted = outcome(game, Strategy.EARLY, Strategy.EARLY).loot_to is Player.FASTER
        assert looted is (late == 0)
        h = Harness(killed_at=None, era_countdown=era_countdown)
        h.grant_hashed("u1", "alice", "m/0h/0/0", 10_000)
        h.build()
        canary = toy_group(8191)
        sig = prequantum_sign(canary, quantum_invert(decode_point(canary, h.config.canary_pk)), h.config.canary_nonce)
        payload = h.wallet("eve").pq_address().serialize() + enc_bytes(sig.encode())
        h.mine_to(kill - 1)
        h.mine_with([Transaction(TxKind.CANARY_KILL, payload=payload)])
        assert h.chain.canary.killed_at == kill
        h.mine_to(game.faster.t_loot - 1)
        spend = self.direct_spend(h, "u1", "m/0h/0/0")
        if looted:
            h.mine_with([spend])
            assert h.chain.era_phase() is EraPhase.COUNTDOWN and h.chain.utxo(h.outpoints["u1"]) is None
        else:
            h.chain.begin_block("m0", h.wallet("m0").pq_address())
            assert h.chain.era_phase(h.chain.height + 1) is EraPhase.QUANTUM_ERA
            with pytest.raises(RuleViolation, match="era-direct-spend"):
                h.chain.add_tx(spend)

    def test_samaritan_reports_rejected_in_era(self):
        h = Harness()
        h.build()
        with pytest.raises(RuleViolation, match="samaritan-era"):
            h.chain.submit_samaritan_report(b"\x01" * h.group.point_len)

    def test_rejected_reports_release_the_block_builder(self):
        h = Harness()
        h.grant_hashed("u1", "alice", "m/0h/0/0", 10_000)
        h.build()
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="samaritan-era"):
            h.chain.end_block([pk])
        h.mine()
        assert h.chain.height == 1

    def test_rejected_reports_undo_the_blocks_transactions(self):
        h = Harness()
        h.grant_hashed("u1", "alice", "m/0h/0/0", 10_000)
        h.grant_pq("pq-alice", "alice", 5_000)
        h.build()
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        before = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        h.chain.add_tx(h.fc_commit_tx("alice", b"\x11" * 32, fee=10))
        with pytest.raises(RuleViolation, match="samaritan-era"):
            h.chain.end_block([pk])
        assert h.chain.state_digest() == before
        h.mine()
        h.chain.recompute_balance()

    def test_samaritan_reports_marked_leaked_pre_era(self):
        h = Harness(killed_at=None)
        h.grant_hashed("u1", "alice", "m/0h/0/0", 10_000)
        h.build()
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        h.chain.submit_samaritan_report(pk)  # mempool gate says fine
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        block = h.chain.end_block([pk])
        assert block.samaritan_reports == (pk,)
        assert h.chain.leaks.is_leaked(pk)

    def test_coinbase_cooldown(self):
        h = Harness(killed_at=None)
        h.build()
        h.mine(5, miner="m0")
        block1_coinbase = h.chain.blocks[1].coinbase
        outpoint = (block1_coinbase.txid(), 0)
        wallet = h.wallet("m0")
        tx = h.signed(TxKind.TRANSFER, [(outpoint, ("pq", wallet))], [TxOutput(wallet.pq_address(), 1)])
        h.chain.begin_block("m0", wallet.pq_address())
        with pytest.raises(RuleViolation, match="coinbase-cooldown"):
            h.chain.add_tx(tx)
        h.chain.end_block()
        h.mine_to(101)  # block-1 coinbase matures at height 101
        h.mine_with([tx])
        assert h.chain.utxo(outpoint) is None

    @pytest.mark.parametrize("age, rule", [(99, "coinbase-cooldown"), (100, None)])
    def test_coinbase_spend_at_the_cooldown_boundary(self, age, rule):
        # A coinbase is spendable from `coinbase_cooldown` (100) blocks after
        # its own: the block-1 coinbase in block 100 is refused, in 101 taken.
        h = Harness(killed_at=None)
        h.build()
        h.mine(1)
        outpoint, wallet = (h.chain.blocks[1].coinbase.txid(), 0), h.wallet("m0")
        tx = h.signed(TxKind.TRANSFER, [(outpoint, ("pq", wallet))], [TxOutput(wallet.pq_address(), 1)])
        h.mine_to(age)
        h.chain.begin_block("m0", wallet.pq_address())
        violation = h.chain.try_add_tx(tx)
        assert (violation and violation.rule) == rule
        h.chain.end_block()
        assert (h.chain.utxo(outpoint) is None) is (rule is None)


class TestDuplicateInputs:
    @pytest.mark.parametrize("kind", [TxKind.TRANSFER, TxKind.FC_COMMIT, TxKind.ESCROW_COVER])
    def test_outpoint_spent_twice_is_rejected_whole(self, kind):
        h = Harness()  # FawkesCoin epoch from genesis, so commitments are open
        h.grant_pq("fee", "alice", 5_000)
        h.build()
        wallet = h.wallet("alice")
        op = h.outpoints["fee"]
        # Counting the input twice would fund twice its value.
        outputs = [] if kind is TxKind.ESCROW_COVER else [TxOutput(wallet.pq_address(), 10_000)]
        payload = commit_payload(b"\x11" * 32) if kind is TxKind.FC_COMMIT else b""
        tx = h.signed(kind, [(op, ("pq", wallet)), (op, ("pq", wallet))], outputs, payload)
        before = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(tx)
        assert violation is not None and violation.rule == "tx-duplicate-input"
        assert h.chain.state_digest() == before
        assert op in h.chain.utxos
        assert h.chain.end_block().transactions == ()


ALICE_PATH = "m/0h/0/0"


def _alice_sk(h):
    return h.wallet("alice").derived_sk(path(ALICE_PATH))


class TestWitnessRules:
    """Every rejection of an input witness, on a post-quantum and on a
    pre-quantum output: rule id and detail text."""

    @pytest.mark.parametrize(
        "label, witness, rule, detail",
        [
            ("pq", lambda h, m: h.wallet("alice").witness_pre(_alice_sk(h), m),
             "witness-kind", "post-quantum output needs a post-quantum witness"),
            ("pq", lambda h, m: h.wallet("bob").witness_pq(m),
             "witness-address", "post-quantum key does not hash to the address"),
            ("pq", lambda h, m: h.wallet("alice").witness_pq(b"another message"),
             "witness-signature", "post-quantum signature invalid"),
            ("pq-junk", lambda h, m: Witness(WitnessKind.POST_QUANTUM, b"junk", h.wallet("alice").witness_pq(m).signature),
             "witness-malformed", "bad point length"),
            ("pre", lambda h, m: h.wallet("alice").witness_pq(m),
             "witness-kind", "pre-quantum output needs a pre-quantum witness"),
            ("pre", lambda h, m: h.wallet("bob").witness_pre(h.wallet("bob").derived_sk(path(ALICE_PATH)), m),
             "witness-address", "revealed key does not match the address"),
            ("pre", lambda h, m: h.wallet("alice").witness_pre(_alice_sk(h), b"another message"),
             "witness-signature", "pre-quantum signature invalid"),
            ("pre-junk", lambda h, m: Witness(WitnessKind.PRE_QUANTUM, b"junk", h.wallet("alice").witness_pre(_alice_sk(h), m).signature),
             "witness-malformed", "bad point length"),
        ],
        ids=["pq-kind", "pq-address", "pq-signature", "pq-malformed",
             "pre-kind", "pre-address", "pre-signature", "pre-malformed"],
    )
    def test_witness_rejection(self, label, witness, rule, detail):
        h = Harness(killed_at=None)  # before the era, so pre-quantum outputs may be spent directly
        h.grant_pq("pq", "alice", 5_000)
        h.grant_hashed("pre", "alice", ALICE_PATH, 5_000)
        h.grant("pq-junk", post_quantum_address(b"junk"), 5_000)  # hashes to the address, decodes to no point
        h.grant("pre-junk", pk_hash_address(b"junk"), 5_000)
        h.build()
        op = h.outpoints[label]
        tx = Transaction(TxKind.TRANSFER, (TxInput(op),), (TxOutput(h.wallet("alice").pq_address(), 5_000),))
        tx = tx.signed(lambda sighash: witness(h, sighash))
        before = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation) as info:
            h.chain.add_tx(tx)
        assert (info.value.rule, info.value.detail) == (rule, detail)
        assert h.chain.state_digest() == before


class TestEpochGate:
    """Where a FawkesCoin or lifted commitment may land.  Epochs: FawkesCoin
    over [0, 200), lifted over [200, 600); commitments close 100 blocks
    into each."""

    @pytest.mark.parametrize(
        "kind, killed_at, height, rule, detail",
        [
            (TxKind.FC_COMMIT, None, 1, "epoch-preactivation", "FawkesCoin activates with the quantum era"),
            (TxKind.FC_COMMIT, 0, 200, "epoch-kind", "not a FawkesCoin epoch"),
            (TxKind.FC_COMMIT, 0, 100, "fc-commit-cutoff", "no commitments in the last blocks of the epoch"),
            (TxKind.LFC_COMMIT, None, 1, "epoch-preactivation", "Lifted FawkesCoin activates with the quantum era"),
            (TxKind.LFC_COMMIT, 0, 1, "epoch-kind", "not a Lifted FawkesCoin epoch"),
            (TxKind.LFC_COMMIT, 0, 300, "lfc-commit-cutoff", "no commitments in the last blocks of the epoch"),
        ],
        ids=["fc-preactivation", "fc-kind", "fc-cutoff", "lfc-preactivation", "lfc-kind", "lfc-cutoff"],
    )
    def test_commitment_outside_its_window(self, kind, killed_at, height, rule, detail):
        h = Harness(killed_at=killed_at, fc_epoch_len=200, lfc_epoch_len=400)
        h.build()
        h.mine_to(height - 1)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation) as info:
            h.chain.add_tx(Transaction(kind, (), (), b""))
        assert (info.value.rule, info.value.detail) == (rule, detail)


class TestRegistryBound:
    @pytest.mark.parametrize("count, rule", [(32, None), (33, "registry-bound")], ids=["32-paths", "33-paths"])
    def test_declaration_bound(self, count, rule):
        h = Harness()
        h.build()
        digest = bytes(32)
        paths = [path(f"m/{i}") for i in range(count)]
        payload = enc_bytes(digest) + enc_u32(count) + b"".join(p.serialize() for p in paths)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(Transaction(TxKind.REGISTRY_DECLARE, payload=payload))
        h.chain.end_block()
        if rule is None:
            assert violation is None and h.chain.registry.declared[digest] == paths
        else:
            assert (violation.rule, violation.detail) == (rule, "33 paths exceed the declared-path bound")
            assert h.chain.registry.declared == {}


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "kind, payload, rule, harness, height",
        [
            (TxKind.FC_COMMIT, b"\x00", "fc-commit-malformed", {}, 0),
            (TxKind.FC_REVEAL, b"\x09", "fc-reveal-malformed", {}, 0),
            (TxKind.REGISTRY_DECLARE, b"", "registry-malformed", {}, 0),
            (TxKind.LFC_COMMIT, b"", "lfc-commit-malformed", {"fc_epoch_len": 200}, 200),
            (TxKind.LFC_CLAIM, b"", "lfc-claim-malformed", {"fc_epoch_len": 200}, 200),
            (TxKind.CANARY_KILL, b"\x00", "canary-malformed", {"killed_at": None}, 0),
        ],
        ids=["FC_COMMIT", "FC_REVEAL", "REGISTRY_DECLARE", "LFC_COMMIT", "LFC_CLAIM", "CANARY_KILL"],
    )
    def test_parse_failure_is_a_rule_violation(self, kind, payload, rule, harness, height):
        h = Harness(**harness)  # FawkesCoin epoch from genesis, lifted from `height`
        h.build()
        h.mine_to(height)
        before = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(Transaction(kind, (), (), payload))
        assert violation is not None and violation.rule == rule
        assert h.chain.state_digest() == before
        assert h.chain.end_block().transactions == ()
        h.mine()  # the builder is not left mid-block


class TestShapeRules:
    @pytest.mark.parametrize(
        "rule, act",
        [
            ("tx-kind", lambda h, to: h.chain.add_tx(Transaction(TxKind.COINBASE, (), (TxOutput(to, 1),)))),
            ("samaritan-format", lambda h, to: h.chain.submit_samaritan_report(b"\x01")),
            ("registry-shape", lambda h, to: h.chain.add_tx(Transaction(TxKind.REGISTRY_DECLARE, payload=enc_bytes(bytes(31)) + enc_u32(0)))),
            ("registry-shape", lambda h, to: h.chain.add_tx(
                Transaction(TxKind.REGISTRY_DECLARE, (TxInput((bytes(32), 0)),), payload=enc_bytes(bytes(32)) + enc_u32(0))
            )),
            ("cover-outputs", lambda h, to: h.chain.add_tx(Transaction(TxKind.ESCROW_COVER, (), (TxOutput(to, 1),)))),
        ],
        ids=["coinbase-in-the-list", "one-byte-report", "31-byte-digest", "declaration-with-an-input", "cover-with-an-output"],
    )
    def test_misshapen_input_names_its_rule(self, rule, act):
        h = Harness(killed_at=None)  # pre-era, where reports are taken
        h.build()
        before = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation) as err:
            act(h, h.wallet("m0").pq_address())
        assert err.value.rule == rule
        assert h.chain.state_digest() == before
        assert h.chain.end_block().transactions == ()


class TestUtxoPrimitives:
    def test_adding_an_existing_outpoint_is_a_rule_violation(self):
        h = Harness()
        h.grant_pq("fee", "alice", 5_000)
        h.build()
        utxo = h.chain.utxos[h.outpoints["fee"]]
        before = h.chain.state_digest()
        with pytest.raises(RuleViolation) as info:
            h.chain._add_utxo(utxo, h.chain.height)
        assert info.value.rule == "utxo-exists"
        assert h.chain.state_digest() == before


class TestReplayAndReorg:
    def flow_harness(self):
        h = Harness()
        h.grant_hashed("u1", "alice", "m/0h/0/0", 30_000)
        h.grant_pq("fee-alice", "alice", 10_000)
        h.build()
        return h

    def test_replay_reproduces_digest(self):
        h = self.flow_harness()
        reveal = h.fc_flow_hashed("alice", "u1", "m/0h/0/0", fee=10)
        h.mine_with([reveal])
        rebuilt = replay_chain(h.config, h.chain.blocks)
        assert rebuilt.state_digest() == h.chain.state_digest()

    def test_genesis_coinbase_is_encoded_once_per_build_and_replay(self, monkeypatch):
        # One encoding gives the genesis txid and the block hash; a replay
        # compares the stored genesis with its own by value.
        h = self.flow_harness()
        h.mine(2)
        genesis_hash = h.chain.blocks[0].block_hash()
        encoded = []
        real = Transaction.serialize

        def spy(tx):
            if tx.kind is TxKind.COINBASE and tx.payload == enc_u64(0):
                encoded.append(tx)
            return real(tx)

        monkeypatch.setattr(Transaction, "serialize", spy)
        chain = h.config.build()
        assert len(encoded) == 1 and chain.tip_hash == genesis_hash
        encoded.clear()
        assert replay_chain(h.config, h.chain.blocks).state_digest() == h.chain.state_digest()
        assert len(encoded) == 1

    def test_doctored_coinbase_rejected(self):
        h = self.flow_harness()
        h.mine(3)
        bad_coinbase = Transaction(
            TxKind.COINBASE,
            outputs=(TxOutput(h.wallet("m0").pq_address(), h.params.block_reward + 999),),
            payload=h.chain.blocks[2].coinbase.payload,
        )
        good = h.chain.blocks[2]
        doctored = Block(
            good.height, good.parent, good.miner_id, good.miner_address,
            good.transactions, good.samaritan_reports, bad_coinbase,
        )
        fresh = h.config.build()
        fresh.apply_block(h.chain.blocks[1])
        with pytest.raises(RuleViolation, match="block-mismatch"):
            fresh.apply_block(doctored)

    @pytest.mark.parametrize("field", ["value", "address", "payload", "reports"])
    def test_block_differing_in_a_recomputed_field_rejected(self, field):
        # Pre-quantum, so that a block may carry a report, and longer than
        # the reorg depth, so that the undo data is full.
        h = Harness(killed_at=None)
        h.build()
        h.mine(h.params.max_reorg_depth + 2)
        good = h.mine_with([], [h.wallet("dave").derived_pk(path("m/0h/0/0"))])
        chain = replay_chain(h.config, h.chain.blocks[:-1])
        digest, final = chain.state_digest(), chain.final_height
        with pytest.raises(RuleViolation) as raised:
            chain.apply_block(differing_in(good, field, h.wallet("m1").pq_address()))
        assert raised.value.rule == "block-mismatch"
        assert chain.state_digest() == digest and chain.final_height == final
        assert same_state(chain, replay_chain(h.config, h.chain.blocks[:-1]))
        chain.apply_block(good)
        assert same_state(chain, h.chain)

    def test_rejected_block_keeps_the_reorg_depth(self):
        # A block rejected as it closes leaves the undo data as it was, so a
        # chain whose undo data is full can still reorg `max_reorg_depth`
        # deep.  Appending such a block and then rewinding it would drop the
        # oldest journal and make one more block final per rejection.
        h = Harness()
        h.build()
        depth = h.params.max_reorg_depth
        h.mine(depth + 5)
        good = h.chain.blocks[-1]
        chain = replay_chain(h.config, h.chain.blocks[:-1])
        final = chain.final_height
        assert final == chain.height - depth
        for field in ("value", "address", "payload"):
            with pytest.raises(RuleViolation, match="block-mismatch"):
                chain.apply_block(differing_in(good, field, h.wallet("m1").pq_address()))
            assert chain.final_height == final
        side = replay_chain(h.config, chain.blocks[: final + 1])
        for _ in range(depth + 1):
            side.begin_block("m1", h.wallet("m1").pq_address())
            side.end_block()
        reorg(chain, h.config, side.blocks[final + 1 :])
        assert same_state(chain, replay_chain(h.config, side.blocks))

    def test_no_reorg_depth_makes_the_tip_final(self):
        # With max_reorg_depth 0 no block is replaced: every block is final
        # as it joins, a branch attaching at the tip still extends the
        # chain, and a branch replacing one block is refused.
        h = Harness(max_reorg_depth=0)
        h.build()
        h.mine(5)
        assert h.chain.final_height == 5
        side = replay_chain(h.config, h.chain.blocks)
        side.begin_block("m1", h.wallet("m1").pq_address())
        side.end_block()
        reorg(h.chain, h.config, side.blocks[6:])
        assert same_state(h.chain, side)
        with pytest.raises(RuleViolation, match="reorg-depth"):
            reorg(h.chain, h.config, side.blocks[6:])

    @pytest.mark.parametrize("depth, blocks, fork, length", [(2, 10, 8, 4), (0, 5, 5, 1)])
    def test_a_longer_branch_makes_the_blocks_below_the_bound_final(self, depth, blocks, fork, length):
        # After a switch the chain keeps the journals of its newest
        # `max_reorg_depth` blocks, as after any block: a branch longer than
        # the blocks it replaced makes the blocks below that bound final.
        h = Harness(max_reorg_depth=depth)
        h.build()
        h.mine(blocks)
        side = replay_chain(h.config, h.chain.blocks[: fork + 1])
        for _ in range(length):
            side.begin_block("m1", h.wallet("m1").pq_address())
            side.end_block()
        reorg(h.chain, h.config, side.blocks[fork + 1 :])
        assert h.chain.height == fork + length
        assert len(h.chain._undo) == depth
        assert h.chain.final_height == fork + length - depth
        assert same_state(h.chain, side)

    def test_depth_3_reorg_preserves_fc_flow(self):
        h = self.flow_harness()
        reveal = h.fc_flow_hashed("alice", "u1", "m/0h/0/0", fee=10)
        # Build a 3-block branch replacing the last 2 blocks (same height
        # plus one): the commitment is much older than the reorg depth.
        fork_height = h.chain.height - 2
        side = replay_chain(h.config, h.chain.blocks[: fork_height + 1])
        for _ in range(3):
            side.begin_block("m1", h.wallet("m1").pq_address())
            side.end_block()
        branch = side.blocks[fork_height + 1 :]
        height = h.chain.height
        rebuilt, abandoned = reorg(h.chain, h.config, branch)
        assert rebuilt.height == height + 1
        assert abandoned == []  # the dropped blocks were empty
        rebuilt.begin_block("m0", h.wallet("m0").pq_address())
        rebuilt.add_tx(reveal)  # the reveal is still valid on the new tip
        rebuilt.end_block()
        assert rebuilt.utxo(h.outpoints["u1"]) is None

    def test_reorg_reverting_lfc_commit_resets_lock(self):
        h = Harness(fc_epoch_len=200)
        h.grant_hashed("u1", "alice", "m/0h/0/0", 30_000)
        h.build()
        h.mine_to(210)
        from qcspend.lifted_fawkescoin import record_payload

        hu = h.chain.utxos[h.outpoints["u1"]].utxo_hash()
        h.mine_with([Transaction(TxKind.LFC_COMMIT, payload=record_payload(b"\x01" * 32, hu, 5))])
        assert h.outpoints["u1"] in h.chain.lfc_locks
        fork_height = h.chain.height - 1
        side = replay_chain(h.config, h.chain.blocks[: fork_height + 1])
        for _ in range(2):
            side.begin_block("m1", h.wallet("m1").pq_address())
            side.end_block()
        rebuilt, abandoned = reorg(h.chain, h.config, side.blocks[fork_height + 1 :])
        assert h.outpoints["u1"] not in rebuilt.lfc_locks
        assert len(abandoned) == 1  # the commitment record returns to the mempool

    def test_too_deep_reorg_rejected(self):
        h = self.flow_harness()
        h.mine(40)
        side = replay_chain(h.config, h.chain.blocks[:2])
        for _ in range(45):
            side.begin_block("m1", h.wallet("m1").pq_address())
            side.end_block()
        with pytest.raises(RuleViolation, match="reorg-depth"):
            reorg(h.chain, h.config, side.blocks[2:])

    @pytest.mark.parametrize("rule", ["reorg-empty", "reorg-ahead", "reorg-parent"])
    def test_misattached_branch_rejected(self, rule):
        h = self.flow_harness()
        h.mine(4)
        tip = h.chain.height
        # A side chain forking below the tip's parent, mined by another miner,
        # so its blocks differ from the chain's from height tip - 1 on.
        side = replay_chain(h.config, h.chain.blocks[: tip - 1])
        for _ in range(4):
            side.begin_block("m1", h.wallet("m1").pq_address())
            side.end_block()
        branch = {
            "reorg-empty": [],
            "reorg-ahead": side.blocks[tip + 2 :],  # its first block sits above tip + 1
            "reorg-parent": side.blocks[tip:],  # its parent is the side's block tip - 1, not the chain's
        }[rule]
        digest = h.chain.state_digest()
        with pytest.raises(RuleViolation) as raised:
            reorg(h.chain, h.config, branch)
        assert raised.value.rule == rule
        assert h.chain.state_digest() == digest and same_state(h.chain, replay_chain(h.config, h.chain.blocks))


class TestBoundedReorgSafety:
    def test_honest_spend_survives_reorgs_shallower_than_the_wait(self):
        """Fuzz: for reorg depth below the waiting time, a committed-then-
        revealed honest spend is never displaced by an adversary spend of
        the same output."""
        import random

        from qcspend.fawkescoin import RevealMode, RevealPayload
        from qcspend.groups import decode_point, quantum_invert
        from qcspend.hdwallet import path as parse_path

        rng = random.Random(7)
        for trial in range(100):
            wait = rng.randrange(4, 11)
            h = Harness(wait_blocks=wait, max_reorg_depth=wait, seed=trial)
            h.grant_hashed("u1", "alice", "m/0h/0/0", rng.randrange(500, 40_000), wait=wait)
            h.grant_pq("fee-alice", "alice", 1_000)
            h.build()
            reveal = h.fc_reveal_hashed("alice", "u1", "m/0h/0/0")
            h.mine_with([h.fc_commit_tx("alice", reveal.txid())])
            h.mine(wait - 1)
            h.mine_with([reveal])
            # A reorg strictly shallower than the wait reverts the reveal at
            # most, never the commitment.
            depth = rng.randrange(1, wait)
            fork_height = h.chain.height - depth
            side = replay_chain(h.config, h.chain.blocks[: fork_height + 1])
            for _ in range(depth + 1):
                side.begin_block("m1", h.wallet("m1").pq_address())
                side.end_block()
            rebuilt, abandoned = reorg(h.chain, h.config, side.blocks[fork_height + 1 :])
            # The reveal was in the replaced blocks; the commitment, being
            # older than the reorg depth, survived.  Honest rebroadcast of
            # the abandoned transactions restores the spend.
            assert rebuilt.utxo(h.outpoints["u1"]) is not None
            rebuilt.begin_block("m0", h.wallet("m0").pq_address())
            for tx in abandoned:
                rebuilt.try_add_tx(tx)
            rebuilt.end_block()
            assert rebuilt.utxo(h.outpoints["u1"]) is None
            # The adversary read the key from the reverted reveal; even so,
            # a fresh commitment can never ripen before the rebroadcast
            # lands, and the direct attempt now finds the output gone.
            eve = h.wallet("eve")
            sk = quantum_invert(decode_point(h.group, h.wallet("alice").derived_pk(parse_path("m/0h/0/0"))))
            payload = RevealPayload(RevealMode.HASHED).serialize(h.group)
            steal = h.signed(
                TxKind.FC_REVEAL,
                [(h.outpoints["u1"], ("pre", eve, sk))],
                [TxOutput(eve.pq_address(), 1)],
                payload,
            )
            rebuilt.begin_block("m0", h.wallet("m0").pq_address())
            with pytest.raises(RuleViolation, match="utxo-missing"):
                rebuilt.add_tx(steal)


def reorg_theft_setup():
    """A `Harness(wait_blocks=3)` chain with the default `max_reorg_depth`
    of 20, where alice committed at height c and revealed at c + 3, which
    made her key public; returns the harness, c, and eve's theft: a reveal
    of the same output to her post-quantum address, signed with the key
    that `quantum_invert` gave her."""
    h = Harness(wait_blocks=3)
    h.grant_hashed("u1", "alice", "m/0h/0/0", 30_000)
    h.grant_pq("fee-alice", "alice", 1_000)
    h.grant_pq("fee-eve", "eve", 1_000)
    h.build()
    h.mine(5)
    reveal = h.fc_reveal_hashed("alice", "u1", "m/0h/0/0")
    h.mine_with([h.fc_commit_tx("alice", reveal.txid())])
    c = h.chain.height
    h.mine(2)
    h.mine_with([reveal])
    eve = h.wallet("eve")
    sk = quantum_invert(decode_point(h.group, h.wallet("alice").derived_pk(path("m/0h/0/0"))))
    payload = RevealPayload(RevealMode.HASHED).serialize(h.group)
    steal = h.signed(TxKind.FC_REVEAL, [(h.outpoints["u1"], ("pre", eve, sk))], [TxOutput(eve.pq_address(), 30_000)], payload)
    return h, c, steal


def branch_from(h, fork: int, blocks: list[list]) -> list:
    """m1's blocks with the given transactions, mined on h's chain as it
    stood at height `fork`."""
    side = replay_chain(h.config, h.chain.blocks[: fork + 1])
    for txs in blocks:
        side.begin_block("m1", h.wallet("m1").pq_address())
        for tx in txs:
            side.add_tx(tx)
        side.end_block()
    return side.blocks[fork + 1 :]


class TestReorgPastTheWait:
    """ROADMAP item 19: commit-wait-reveal is safe only while a commitment is
    buried deeper than any reorg by the time its reveal makes the key
    public."""

    def test_depth_3_branch_cannot_displace_the_revealed_spend(self):
        # Forking at c keeps alice's commitment.  Eve's commitment at c + 1
        # is not ripe in a branch as long as the blocks it replaces, so her
        # reveal does not fit, and alice's rebroadcast lands in the next
        # block, where eve's theft finds the output gone.
        h, c, steal = reorg_theft_setup()
        with pytest.raises(RuleViolation, match="fc-commitment-unusable"):
            branch_from(h, c, [[h.fc_commit_tx("eve", steal.txid())], [], [steal]])
        chain, abandoned = reorg(h.chain, h.config, branch_from(h, c, [[h.fc_commit_tx("eve", steal.txid())], [], []]))
        assert chain.height == c + 3 and chain.utxo(h.outpoints["u1"]) is not None
        chain.begin_block("m0", h.wallet("m0").pq_address())
        assert all(chain.try_add_tx(tx) is None for tx in abandoned)
        assert chain.try_add_tx(steal).rule == "utxo-missing"
        chain.end_block()
        assert chain.utxo(h.outpoints["u1"]) is None

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 19: reorg accepts a branch deeper than the wait, which steals a revealed output")
    def test_depth_4_branch_is_refused(self):
        # Forking at c - 1 drops alice's commitment; eve's own, two empty
        # blocks and her reveal replace the four blocks from c to c + 3.
        h, c, steal = reorg_theft_setup()
        branch = branch_from(h, c - 1, [[h.fc_commit_tx("eve", steal.txid())], [], [], [steal]])
        with pytest.raises(RuleViolation):
            reorg(h.chain, h.config, branch)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 19: a branch longer than the blocks it replaces steals at a depth within the wait")
    def test_depth_3_branch_one_block_longer_is_refused(self):
        # Forking at c keeps alice's commitment, but a fourth block gives
        # eve's commitment of c + 1 its wait: her reveal lands at c + 4,
        # before alice's rebroadcast can.  A depth no deeper than the wait
        # does not rule this out.
        h, c, steal = reorg_theft_setup()
        branch = branch_from(h, c, [[h.fc_commit_tx("eve", steal.txid())], [], [], [steal]])
        with pytest.raises(RuleViolation):
            reorg(h.chain, h.config, branch)


def with_wait_past_u32(lines: list[str]) -> list[str]:
    """Snapshot `lines` whose config grants an output a wait that the u32
    wait field of an output cannot hold."""
    config = json.loads(lines[1][len("config ") :])
    config["grants"] = [{"address_kind": "POST_QUANTUM", "address_data": "00" * 32, "value": 1, "wait_override": 2**32}]
    return lines[:1] + ["config " + json.dumps(config)] + lines[2:]


class TestSnapshots:
    def test_snapshot_roundtrip(self):
        h = Harness()
        h.grant_hashed("u1", "alice", "m/0h/0/0", 30_000)
        h.grant_pq("fee-alice", "alice", 10_000)
        h.build()
        reveal = h.fc_flow_hashed("alice", "u1", "m/0h/0/0", fee=10)
        h.mine_with([reveal])
        text = export_snapshot(h.chain, h.config)
        chain = verify_snapshot(text)
        assert chain.state_digest() == h.chain.state_digest()

    def test_corrupted_snapshot_rejected(self):
        h = Harness()
        h.build()
        h.mine(3)
        text = export_snapshot(h.chain, h.config)
        lines = text.splitlines()
        block_line = next(i for i, l in enumerate(lines) if l.startswith("block ") and len(l) > 200)
        corrupted = lines[block_line]
        swap = "0" if corrupted[100] != "0" else "1"
        lines[block_line] = corrupted[:100] + swap + corrupted[101:]
        with pytest.raises(RuleViolation):
            verify_snapshot("\n".join(lines))

    def test_digest_covers_fawkescoin_commitments(self):
        # Clearing the commitment records after an FC_COMMIT moves the
        # digest, so a replay whose records diverge fails `snapshot-digest`.
        h = Harness()
        h.grant_pq("fee-alice", "alice", 10_000)
        h.build()
        h.mine_with([h.fc_commit_tx("alice", b"\x11" * 32, fee=10)])
        assert h.chain.fc_commitments
        before = h.chain.state_digest()
        h.chain.fc_commitments.clear()
        assert h.chain.state_digest() != before

    def test_empty_chain_snapshot_ok(self):
        h = Harness()
        h.build()
        assert verify_snapshot(export_snapshot(h.chain, h.config)).height == 0

    def test_snapshot_without_block_lines_is_the_genesis_state(self):
        # Header, config and digest, and no block line: the replay builds
        # genesis from the config alone, so the genesis digest verifies.
        h = Harness()
        h.build()
        lines = export_snapshot(h.chain, h.config).splitlines()
        chain = verify_snapshot("\n".join([lines[0], lines[1], lines[-1]]) + "\n")
        assert chain.height == 0 and chain.state_digest() == h.chain.state_digest()

    @staticmethod
    def tampered(text: str, edit) -> str:
        """`text` with its lines rewritten by `edit(lines)`."""
        return "\n".join(edit(text.splitlines())) + "\n"

    @pytest.mark.parametrize(
        "rule, edit",
        [
            ("snapshot-header", lambda lines: ["qcspend-snapshot v2"] + lines[1:]),
            ("snapshot-shape", lambda lines: lines[:-1]),
            ("snapshot-parse", lambda lines: lines[:3] + ["block 0g"] + lines[4:]),
            ("snapshot-digest", lambda lines: lines[:-1] + ["digest " + "00" * 32]),
            ("block-height", lambda lines: lines[:3] + lines[4:]),
            pytest.param("snapshot-parse", with_wait_past_u32, id="grant-wait-past-u32"),
        ],
    )
    def test_tampered_lines_name_their_rule(self, rule, edit):
        h = Harness()
        h.build()
        h.mine(3)
        with pytest.raises(RuleViolation) as err:
            verify_snapshot(self.tampered(export_snapshot(h.chain, h.config), edit))
        assert err.value.rule == rule

    @pytest.mark.parametrize("prefix", ["bl0ck ", "0lock "])
    def test_block_line_needs_its_prefix(self, prefix):
        h = Harness()
        h.build()
        h.mine(3)

        def edit(lines):
            return lines[:3] + [prefix + lines[3][len("block ") :]] + lines[4:]

        with pytest.raises(RuleViolation) as err:
            verify_snapshot(self.tampered(export_snapshot(h.chain, h.config), edit))
        assert err.value.rule == "snapshot-shape"

    def test_respelled_regular_path_is_a_parse_error(self):
        h = Harness()
        h.build()
        h.mine()

        def edit(lines):
            config = json.loads(lines[1][len("config ") :])
            assert config["params"]["regular_paths"][0] == "m/0h/0/0"
            config["params"]["regular_paths"][0] = "m/0h/0/00"
            return lines[:1] + ["config " + json.dumps(config)] + lines[2:]

        with pytest.raises(RuleViolation) as err:
            verify_snapshot(self.tampered(export_snapshot(h.chain, h.config), edit))
        assert err.value.rule == "snapshot-parse"

    def test_changed_grant_is_a_genesis_mismatch(self):
        h = Harness()
        h.grant_pq("u1", "alice", 1_000)
        h.build()
        h.mine()

        def edit(lines):
            config = json.loads(lines[1][len("config ") :])
            config["grants"][0]["value"] += 1
            return lines[:1] + ["config " + json.dumps(config)] + lines[2:]

        with pytest.raises(RuleViolation) as err:
            verify_snapshot(self.tampered(export_snapshot(h.chain, h.config), edit))
        assert err.value.rule == "genesis-mismatch"

    def test_altered_parent_is_a_block_parent_violation(self):
        h = Harness()
        h.build()
        h.mine(3)

        def edit(lines):
            block = Block.deserialize(bytes.fromhex(lines[4][len("block ") :]))
            return lines[:4] + ["block " + replace(block, parent=bytes(32)).serialize().hex()] + lines[5:]

        with pytest.raises(RuleViolation) as err:
            verify_snapshot(self.tampered(export_snapshot(h.chain, h.config), edit))
        assert err.value.rule == "block-parent"


@functools.cache
def pq_spends():
    """A chain whose blocks 1-3 spend five post-quantum grants of alice and
    bob, two, one and two per block, each with a post-quantum witness; and
    its config."""
    h = Harness()
    owners = ["alice", "bob", "alice", "bob", "alice"]
    for i, owner in enumerate(owners):
        h.grant_pq(f"pq{i}", owner, 1_000 + i)
    h.build()
    for block in ([0, 1], [2], [3, 4]):
        txs = []
        for i in block:
            wallet = h.wallet(owners[i])
            txs.append(h.signed(TxKind.TRANSFER, [(h.outpoints[f"pq{i}"], ("pq", wallet))], [TxOutput(wallet.pq_address(), 900)]))
        h.mine_with(txs)
    return h.chain, h.config


def with_pq_witness(text: str, k: int, make) -> tuple[str, int]:
    """`text` with its k-th post-quantum witness replaced by
    `make(witness)`, and the height of the block that holds it."""
    lines = text.splitlines()
    seen = 0
    for i, line in enumerate(lines):
        if not line.startswith("block "):
            continue
        block = Block.deserialize(bytes.fromhex(line[len("block ") :]))
        for j, tx in enumerate(block.transactions):
            for n, txin in enumerate(tx.inputs):
                if txin.witness.kind is not WitnessKind.POST_QUANTUM:
                    continue
                if seen == k:
                    inputs = tx.inputs[:n] + (replace(txin, witness=make(txin.witness)),) + tx.inputs[n + 1 :]
                    txs = block.transactions[:j] + (replace(tx, inputs=inputs),) + block.transactions[j + 1 :]
                    lines[i] = "block " + replace(block, transactions=txs).serialize().hex()
                    return "\n".join(lines) + "\n", block.height
                seen += 1
    raise AssertionError(f"fewer than {k + 1} post-quantum witnesses")


def forged_s(witness: Witness) -> Witness:
    sig = PreQuantumSignature.decode(witness.signature)
    q = groups.secure_group().q
    return replace(witness, signature=PreQuantumSignature(sig.nonce_point, (sig.s + 1) % q).encode())


class TestPostQuantumReplay:
    @pytest.mark.parametrize("k", range(5))
    def test_forged_s_fails_at_its_block(self, k):
        chain, config = pq_spends()
        text, height = with_pq_witness(export_snapshot(chain, config), k, forged_s)
        with pytest.raises(RuleViolation) as err:
            verify_snapshot(text)
        assert err.value.rule == "witness-signature"
        # Every block before the forged one replays.
        assert replay_chain(config, chain.blocks[:height]).height == height - 1

    @pytest.mark.parametrize("signature", [b"", b"\x00", b"\x00\x00\x00\x01\x07"])
    def test_malformed_witness_is_witness_malformed(self, signature):
        chain, config = pq_spends()
        text, _ = with_pq_witness(export_snapshot(chain, config), 2, lambda w: replace(w, signature=signature))
        with pytest.raises(RuleViolation) as err:
            verify_snapshot(text)
        assert err.value.rule == "witness-malformed"
