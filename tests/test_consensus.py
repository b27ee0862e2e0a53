import pytest

from helpers import Harness
from qcspend.consensus import (
    EpochKind,
    EraPhase,
    export_snapshot,
    reorg,
    replay_chain,
    verify_snapshot,
)
from qcspend.encoding import enc_bytes
from qcspend.fawkescoin import commit_payload
from qcspend.groups import decode_point, prequantum_sign, quantum_invert, toy_group
from qcspend.hdwallet import path
from qcspend.ledger import Block, Transaction, TxKind, TxOutput
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

    def test_burned_funds_bounty_variant_fails_when_nothing_burned(self):
        h = Harness(killed_at=None, bounty_source="burned")
        h.build()
        h.mine(2)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="canary-bounty-unfunded"):
            h.chain.add_tx(self.kill_tx(h, h.wallet("eve")))

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

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="a block rejected in end_block keeps its transactions' effects (ROADMAP item 1)")
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
        rebuilt, abandoned = reorg(h.chain, h.config, branch)
        assert rebuilt.height == h.chain.height + 1
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

    def test_empty_chain_snapshot_ok(self):
        h = Harness()
        h.build()
        assert verify_snapshot(export_snapshot(h.chain, h.config)).height == 0
