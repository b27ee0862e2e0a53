import pytest

from helpers import Harness, encodings_of, flat_backends, same_state
from qcspend import consensus, lifting
from qcspend.consensus import proof_message, replay_chain
from qcspend.fawkescoin import RevealMode, RevealPayload
from qcspend.hdwallet import kdf_pq, path
from qcspend.ledger import Transaction, TxKind, TxOutput, Utxo, pk_hash_address, plain_pk_address
from qcspend.lifted_fawkescoin import (
    EpochDecision,
    LfcMempoolMsg,
    LfcState,
    claim_payload,
    extension_decision,
    parse_claim_payload,
    record_payload,
    split_fee,
)
from qcspend.lifting import KeyLiftedSig, SeedLiftedSig, TransparentBackend, _seedlift_message, deserialize_lifted, serialize_lifted
from qcspend.rules import RuleViolation

U_VALUE = 100_000


def lfc_harness(**overrides):
    """In an LFC epoch from height 200 (FC epoch shortened to 200)."""
    overrides.setdefault("fc_epoch_len", 200)
    h = Harness(**overrides)
    h.grant_hashed("u1", "alice", "m/0h/0/0", U_VALUE)
    h.grant_hashed("u2", "alice", "m/0h/0/1", 20_000)
    h.grant_pq("fee-alice", "alice", 5_000)
    return h


def lfc_reveal_tx(h, owner, label, p, alpha, derived=False, payload=None):
    """A reveal of `label` paying `alpha`: hashed, derived, or carrying the
    given RevealPayload."""
    wallet = h.wallet(owner)
    op = h.outpoints[label]
    utxo = h.chain.utxos[op]
    if payload is None:
        payload = RevealPayload(RevealMode.DERIVED, wallet.msk, path(p)) if derived else RevealPayload(RevealMode.HASHED)
    payload = payload.serialize(h.group)
    outputs = [TxOutput(wallet.pq_address(), utxo.value - alpha)]
    sk = wallet.derived_sk(path(p))
    return h.signed(TxKind.LFC_REVEAL, [(op, ("pre", wallet, sk))], outputs, payload)


def record_tx(h, committed, label, alpha):
    hu = h.chain.utxos[h.outpoints[label]].utxo_hash()
    return Transaction(TxKind.LFC_COMMIT, payload=record_payload(committed, hu, alpha))


def committed_flow(h, owner="alice", label="u1", p="m/0h/0/0", alpha=1000, derived=False):
    """Mine the commitment record; returns (reveal_tx, committed hash)."""
    reveal = lfc_reveal_tx(h, owner, label, p, alpha, derived)
    h.mine_with([record_tx(h, reveal.txid(), label, alpha)])
    return reveal, reveal.txid()


def sigma_for(h, owner, p, committed, alpha, kind="key"):
    wallet = h.wallet(owner)
    message = proof_message(committed, alpha)
    if kind == "key":
        return wallet.keylift_proof(h.chain, wallet.derived_sk(path(p)), message)
    return wallet.seedlift_proof(h.chain, path(p), message)


class TestCommit:
    def test_lock_and_second_commit_rejected(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h)
        assert h.chain.lfc_by_hash[committed].state is LfcState.LOCKED
        assert h.outpoints["u1"] in h.chain.lfc_locks
        assert h.chain.lfc_by_hash[h.chain.lfc_locks[h.outpoints["u1"]]].committed_hash == committed
        assert sum(t.kind in (TxKind.FC_COMMIT, TxKind.LFC_COMMIT) for t in h.chain.blocks[-1].transactions) == 1
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-locked"):
            h.chain.add_tx(record_tx(h, b"\x99" * 32, "u1", 5))

    def test_duplicate_hash_rejected(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-duplicate"):
            h.chain.add_tx(record_tx(h, committed, "u2", 5))

    def test_post_quantum_utxo_rejected(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-unknown-utxo"):
            h.chain.add_tx(record_tx(h, b"\x01" * 32, "fee-alice", 5))

    def test_unknown_utxo_hashes_no_output(self, monkeypatch):
        # A miss of the H(u) index is decided by the lookup alone, not by
        # hashing the live outputs.
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        calls = []
        utxo_hash = Utxo.utxo_hash
        monkeypatch.setattr(Utxo, "utxo_hash", lambda u: calls.append(u) or utxo_hash(u))
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-unknown-utxo"):
            h.chain.add_tx(Transaction(TxKind.LFC_COMMIT, payload=record_payload(b"\x01" * 32, b"\x00" * 32, 5)))
        assert calls == []

    def test_fc_epoch_rejects_lfc_commit(self):
        h = lfc_harness()
        h.build()  # height 0: inside the FC epoch
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="epoch-kind"):
            h.chain.add_tx(record_tx(h, b"\x01" * 32, "u1", 5))

    def test_commit_cutoff(self):
        h = lfc_harness()
        h.build()
        h.mine_to(399)  # next block: offset 200 of the LFC epoch
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-commit-cutoff"):
            h.chain.add_tx(record_tx(h, b"\x01" * 32, "u1", 5))


class TestMempoolPolicy:
    def test_keylift_on_leaked_rejected(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        h.chain.leaks.mark(pk, 50)
        committed = b"\x07" * 32
        sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 9, kind="key")
        msg = LfcMempoolMsg(committed, sigma, h.outpoints["u1"], 9)
        with pytest.raises(RuleViolation, match="lfc-keylift-leaked"):
            h.chain.validate_lfc_mempool_msg(msg)

    def test_seedlift_on_leaked_accepted(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        h.chain.leaks.mark(pk, 50)
        committed = b"\x07" * 32
        sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 9, kind="seed")
        msg = LfcMempoolMsg(committed, sigma, h.outpoints["u1"], 9)
        h.chain.validate_lfc_mempool_msg(msg)  # no raise

    def test_locked_output_rejected(self):
        # Refused before its proof, a valid one, is checked.
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        committed_flow(h)
        committed = b"\x07" * 32
        msg = LfcMempoolMsg(committed, sigma_for(h, "alice", "m/0h/0/0", committed, 9), h.outpoints["u1"], 9)
        with pytest.raises(RuleViolation, match="lfc-locked") as raised:
            h.chain.validate_lfc_mempool_msg(msg)
        assert raised.value.detail == "output already locked"

    def test_invalid_proof_rejected(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        committed = b"\x07" * 32
        sigma = sigma_for(h, "alice", "m/0h/0/1", committed, 9)  # wrong key for u1
        msg = LfcMempoolMsg(committed, sigma, h.outpoints["u1"], 9)
        with pytest.raises(RuleViolation, match="lfc-proof-invalid"):
            h.chain.validate_lfc_mempool_msg(msg)


    def test_seedlift_ownership_derives_the_key_once(self, monkeypatch):
        # The chain's ownership test goes into seedlift_verify, so the leaf
        # key is derived from the carried (msk, path) in one place.
        h = lfc_harness()
        h.build()
        committed = b"\x07" * 32
        sig = deserialize_lifted(h.group, sigma_for(h, "alice", "m/0h/0/0", committed, 9, kind="seed"))
        calls = []
        for module in (consensus, lifting):
            monkeypatch.setattr(module, "derive", lambda *a, _derive=module.derive: calls.append(a) or _derive(*a))
        address = h.chain.utxos[h.outpoints["u1"]].address
        assert h.chain.verify_ownership(address, proof_message(committed, 9), sig)
        assert len(calls) == 1


class TestFlatProofBackend:
    """A backend whose proof is one flat blob, with no length prefix, works
    unchanged: the lifted-signature codec takes the proof whole."""

    @pytest.mark.parametrize("kind", ["key", "seed"])
    def test_round_trip_mempool_and_claim(self, kind):
        h = lfc_harness()
        h.build()
        h.chain.key_backend, h.chain.seed_backend = flat_backends(h.group)
        h.mine_to(199)
        committed = lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 1000).txid()
        sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 1000, kind)
        sig = deserialize_lifted(h.group, sigma)
        assert isinstance(sig, KeyLiftedSig if kind == "key" else SeedLiftedSig)
        assert serialize_lifted(h.group, sig) == sigma
        h.chain.validate_lfc_mempool_msg(LfcMempoolMsg(committed, sigma, h.outpoints["u1"], 1000))
        h.mine_with([record_tx(h, committed, "u1", 1000)])
        h.mine(201)
        h.mine_with([Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma))])
        assert h.chain.lfc_by_hash[committed].state is LfcState.CLAIMED_BY_MINER


class TestReveal:
    def test_reveal_window_and_fee_split_even(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        reveal, committed = committed_flow(h, alpha=1000)
        commit_height = h.chain.height
        h.mine(99)
        h.mine_with([reveal])  # age exactly 100
        record = h.chain.lfc_by_hash[committed]
        assert record.state is LfcState.REVEALED
        assert h.chain.fee_shares_by_block[commit_height] == 500
        assert h.chain.fee_shares_by_block[h.chain.height] == 500
        assert h.outpoints["u1"] not in h.chain.lfc_locks

    @pytest.mark.parametrize("derived", [False, True], ids=["hashed", "derived"])
    def test_reveal_is_encoded_once(self, derived):
        # One encoding gives the commitment hash the reveal looks up and
        # the txid of its outputs.
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        reveal, committed = committed_flow(h, alpha=1000, derived=derived)
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with encodings_of(reveal) as seen:
            h.chain.add_tx(reveal)
        h.chain.end_block()
        assert len(seen) == 1 and h.chain.lfc_by_hash[committed].state is LfcState.REVEALED
        assert h.chain.utxo((committed, 0)) is not None

    def test_odd_fee_unit_goes_to_revealer(self):
        assert split_fee(1000) == (500, 500)
        assert split_fee(1001) == (500, 501)
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        reveal, committed = committed_flow(h, alpha=1001)
        commit_height = h.chain.height
        h.mine(99)
        h.mine_with([reveal])
        assert h.chain.fee_shares_by_block[commit_height] == 500
        assert h.chain.fee_shares_by_block[h.chain.height] == 501

    def test_reveal_too_early(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        reveal, _ = committed_flow(h)
        h.mine(98)  # next block: age 99
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-reveal-early"):
            h.chain.add_tx(reveal)

    def test_reveal_at_age_201_rejected(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        reveal, _ = committed_flow(h)
        h.mine(200)  # next block: age 201
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-reveal-late"):
            h.chain.add_tx(reveal)

    def test_fee_must_equal_alpha(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        # commit to alpha=1000 but the revealed tx pays 999
        reveal = lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 999)
        h.mine_with([record_tx(h, reveal.txid(), "u1", 1000)])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-fee-exact"):
            h.chain.add_tx(reveal)

    def test_malformed_payload_is_a_rule_violation(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        wallet = h.wallet("alice")
        op = h.outpoints["u1"]
        sk = wallet.derived_sk(path("m/0h/0/0"))
        outputs = [TxOutput(wallet.pq_address(), U_VALUE - 1000)]
        reveal = h.signed(TxKind.LFC_REVEAL, [(op, ("pre", wallet, sk))], outputs, b"\x09")  # no such mode
        h.mine_with([record_tx(h, reveal.txid(), "u1", 1000)])
        h.mine(99)
        before = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(reveal)
        assert violation is not None and violation.rule == "lfc-reveal-malformed"
        assert h.chain.state_digest() == before
        assert h.chain.end_block().transactions == ()

    def test_reveal_of_an_immature_coinbase_rejected(self):
        # A commitment does not waive coinbase maturity: the reveal spends
        # through the same input checks as any other spend.
        h = lfc_harness(wait_blocks=20)
        h.build()
        h.mine_to(199)
        p = "m/0h/0/5"
        h.chain.begin_block("m0", pk_hash_address(h.wallet("alice").derived_pk(path(p))))
        h.outpoints["cb"] = (h.chain.end_block().coinbase.txid(), 0)  # block 200
        reveal, _ = committed_flow(h, label="cb", p=p, alpha=1000)  # committed at 201
        h.mine(19)  # next block: 221, lifted age 20, coinbase age 21
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="coinbase-cooldown"):
            h.chain.add_tx(reveal)

    def test_derived_reveal_materializes_registry(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        reveal, committed = committed_flow(h, p="m/0h/0/0", derived=True)
        h.mine(99)
        h.mine_with([reveal])
        assert h.chain.lfc_by_hash[committed].state is LfcState.REVEALED
        assert h.chain.registry.ban_height(h.group, h.wallet("alice").msk) is not None


class TestClaim:
    def test_spammer_loses_everything_to_the_miner(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)
        sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 1000)
        h.mine(201)  # past the reveal window
        claim = Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma))
        h.mine_with([claim])
        record = h.chain.lfc_by_hash[committed]
        assert record.state is LfcState.CLAIMED_BY_MINER
        miner_addr = h.wallet("m0").pq_address().serialize()
        claimed = [u for u in h.chain.utxos.values() if u.address.serialize() == miner_addr and u.value == U_VALUE]
        assert len(claimed) == 1
        h.chain.recompute_balance()

    @pytest.mark.parametrize("late, rule", [(0, None), (1, "lfc-claim-late")])
    def test_claim_at_the_claim_deadline(self, late, rule):
        # A claim at the claim-deadline age (wait + reveal window + proof
        # window) is on time and takes the output; one a block later is late.
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h)
        h.mine(h.params.claim_deadline() - 1 + late)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(claim_tx(h, committed))
        assert (violation and violation.rule) == rule
        h.chain.end_block()
        assert h.chain.lfc_by_hash[committed].state is (LfcState.CLAIMED_BY_MINER if rule is None else LfcState.EXPIRED_FINED)

    def test_claim_during_reveal_window_rejected(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)
        sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 1000)
        h.mine(149)  # next block: age 150
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-claim-early"):
            h.chain.add_tx(Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma)))

    def test_forged_keylift_claim_on_leaked_output_rejected(self):
        # A policy-skipping miner commits on a leaked output, then tries to
        # claim it with a key-lifted proof forged from the public key.  The
        # proof itself verifies -- that is the whole weakness of key
        # lifting -- but consensus sees the leak predates the commitment.
        h = lfc_harness()
        h.build()
        h.mine_to(150)
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        h.chain.leaks.mark(pk, h.chain.height)  # leaked before the commit
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)  # the "fake" commitment
        # the adversary recovers the secret from the leaked key and forges
        from qcspend.groups import decode_point, quantum_invert

        sk = quantum_invert(decode_point(h.group, pk))
        forged = h.wallet("m0").keylift_proof(h.chain, sk, proof_message(committed, 1000))
        h.mine(201)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-claim-keylift-leaked"):
            h.chain.add_tx(Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, forged)))
        h.chain.end_block()
        # the commitment can only expire now, costing the miner the fine
        h.mine(100)
        assert h.chain.lfc_by_hash[committed].state is LfcState.EXPIRED_FINED

    @pytest.mark.parametrize("leak_offset, rejected", [(-1, True), (0, False)])
    def test_keylift_claim_leak_boundary_is_the_commit_height(self, leak_offset, rejected):
        # A key leaked strictly before the commitment's block voids a
        # key-lifted claim; a leak in that same block does not.
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)
        record = h.chain.lfc_by_hash[committed]
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        h.chain.leaks.mark(pk, record.height_included + leak_offset)
        sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 1000, kind="key")
        h.mine(201)
        claim = Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma))
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        if rejected:
            with pytest.raises(RuleViolation, match="lfc-claim-keylift-leaked"):
                h.chain.add_tx(claim)
        else:
            h.chain.add_tx(claim)
        h.chain.end_block()
        assert (record.state is LfcState.LOCKED) is rejected

    def test_keylift_claim_on_a_plain_key_output_leaked_earlier_rejected(self):
        # The key leaked at 50.  Block 200 pays an output to its plain-key
        # address and, after that, a fake commitment locks the new output.
        # The output is as old as the commitment, but its key was public
        # long before, so a key-lifted claim -- which anyone holding the
        # public key can forge -- proves nothing.
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        alice = h.wallet("alice")
        pk = alice.derived_pk(path("m/0h/0/5"))
        h.chain.leaks.mark(pk, 50)
        transfer = h.signed(TxKind.TRANSFER, [(h.outpoints["fee-alice"], ("pq", alice))], [TxOutput(plain_pk_address(pk), 5_000)])
        h.outpoints["plain"] = (transfer.txid(), 0)
        committed = b"\x07" * 32
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        h.chain.add_tx(transfer)
        h.chain.add_tx(record_tx(h, committed, "plain", 0))
        h.chain.end_block()
        record = h.chain.lfc_by_hash[committed]
        assert record.height_included == 200
        forged = KeyLiftedSig(h.chain.key_backend.sign(pk, proof_message(committed, 0))).serialize()
        h.mine(200)  # next block: age 201, inside the proof window
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-claim-keylift-leaked"):
            h.chain.add_tx(Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, forged)))
        h.chain.end_block()
        assert record.state is LfcState.LOCKED
        assert h.chain.utxos[h.outpoints["plain"]].value == 5_000

    def test_seedlift_claim_on_leaked_output_accepted(self):
        # Seed-lifted proofs are leak-immune: the same late-claim flow with
        # a seed proof stays valid.
        h = lfc_harness()
        h.build()
        h.mine_to(150)
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        h.chain.leaks.mark(pk, h.chain.height)
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)
        sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 1000, kind="seed")
        h.mine(201)
        h.mine_with([Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma))])
        assert h.chain.lfc_by_hash[committed].state is LfcState.CLAIMED_BY_MINER

    def test_tampered_proof_rejected(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)
        sigma = bytearray(sigma_for(h, "alice", "m/0h/0/0", committed, 1000))
        sigma[-1] ^= 1
        h.mine(201)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="lfc-claim-proof"):
            h.chain.add_tx(Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, bytes(sigma))))

    def test_unparseable_proof_rejected_without_effects(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)
        sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 1000)
        h.mine(201)
        digest = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma[:-3])))
        assert violation.rule == "lfc-claim-proof"
        assert h.chain.state_digest() == digest
        h.chain.end_block()
        h.mine_with([Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma))])
        assert h.chain.lfc_by_hash[committed].state is LfcState.CLAIMED_BY_MINER

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: a transparent seed-lifted proof reveals kdf_pre(seed), "
        "the lifting secret of every key of the wallet; only a zero-knowledge backend stops this theft",
    )
    def test_claim_with_a_harvested_seed_secret_rejected(self):
        # Alice's seed-lifted proof for u1 lands on chain in a claim.  Eve
        # reads the secret out of it, locks alice's sibling output u2 with a
        # fake commitment and claims u2 with a proof for its path.
        h = lfc_harness(lfc_epoch_len=1000)
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)
        sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 1000, kind="seed")
        h.mine(201)
        h.mine_with([Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma))])
        (claim,) = (t for t in h.chain.blocks[-1].transactions if t.kind is TxKind.LFC_CLAIM)
        harvested = deserialize_lifted(h.group, parse_claim_payload(claim.payload)[1])
        secret = TransparentBackend.revealed_secret(harvested.proof)

        fake = b"\x07" * 32
        h.mine_with([record_tx(h, fake, "u2", 0)], miner="eve")
        record = h.chain.lfc_by_hash[fake]
        h.mine(201, miner="eve")
        sibling = path("m/0h/0/1")
        proof = h.chain.seed_backend.sign(secret, _seedlift_message(proof_message(fake, 0), sibling))
        forged = serialize_lifted(h.group, SeedLiftedSig(proof, kdf_pq(h.group, secret), sibling))
        h.chain.begin_block("eve", h.wallet("eve").pq_address())
        assert h.chain.try_add_tx(Transaction(TxKind.LFC_CLAIM, payload=claim_payload(fake, forged))) is not None
        h.chain.end_block()
        assert record.state is LfcState.LOCKED


class TestExpiry:
    def test_fine_amount_and_destination(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)  # u1 is worth 100_000
        h.mine(301)  # sweep at age 301 fines the miner
        record = h.chain.lfc_by_hash[committed]
        assert record.state is LfcState.EXPIRED_FINED
        fine_utxos = [
            u for u in h.chain.utxos.values()
            if u.address == h.chain.utxos[h.outpoints["u1"]].address and u.value == 3_350
        ]
        assert len(fine_utxos) == 1  # 3.35% of 100_000, exactly
        assert h.outpoints["u1"] not in h.chain.lfc_locks
        h.chain.recompute_balance()

    def test_zero_value_commitment_still_expires(self):
        h = lfc_harness()
        h.grant("u-zero", plain_pk_address(h.wallet("alice").derived_pk(path("m/9h"))), 0)
        h.build()
        h.mine_to(199)
        hu = h.chain.utxos[h.outpoints["u-zero"]].utxo_hash()
        h.mine_with([Transaction(TxKind.LFC_COMMIT, payload=record_payload(b"\x05" * 32, hu, 0))])
        h.mine(301)
        assert h.chain.lfc_by_hash[b"\x05" * 32].state is LfcState.EXPIRED_FINED

    def test_miner_coinbase_docked_by_escrow(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        committed_flow(h, alpha=1000)
        block = h.chain.blocks[-1]
        # reward minus the withheld fine escrow
        assert block.coinbase.outputs[0].value == h.params.block_reward - 3_350

    @pytest.mark.parametrize("reward, miner_output", [(3_349, None), (3_350, 0), (3_351, 1)], ids=["short", "exact", "over"])
    def test_reward_at_the_fine_obligation(self, reward, miner_output):
        # The record's block owes the 3,350 fine and takes no fees: a reward
        # that meets the obligation exactly is accepted and leaves the miner
        # nothing, so the coinbase makes no zero-value output; one unit less
        # is `lfc-fine-coverage`.
        h = lfc_harness(block_reward=reward)
        h.build()
        h.mine_to(199)
        reveal = lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 1000)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        h.chain.add_tx(record_tx(h, reveal.txid(), "u1", 1000))
        if miner_output is None:
            with pytest.raises(RuleViolation, match="lfc-fine-coverage"):
                h.chain.end_block()
            return
        h.chain.end_block()
        coinbase = h.chain.blocks[-1].coinbase
        assert [out.value for out in coinbase.outputs] == [miner_output]
        miner_utxo = h.chain.utxo((coinbase.txid(), 0))
        if miner_output:
            assert miner_utxo.value == miner_output
        else:
            assert miner_utxo is None
        h.chain.recompute_balance()

    def test_insufficient_coverage_invalidates_block(self):
        h = lfc_harness(block_reward=1_000)  # fine 3_350 > reward
        h.build()
        h.mine_to(199)
        reveal = lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 0)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        h.chain.add_tx(record_tx(h, reveal.txid(), "u1", 0))
        with pytest.raises(RuleViolation, match="lfc-fine-coverage"):
            h.chain.end_block()

    def test_uncovered_block_leaves_no_lock(self):
        h = lfc_harness(block_reward=1_000)
        h.build()
        h.mine_to(199)
        reveal = lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 0)
        before = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        h.chain.add_tx(record_tx(h, reveal.txid(), "u1", 0))
        with pytest.raises(RuleViolation, match="lfc-fine-coverage"):
            h.chain.end_block()
        assert h.chain.state_digest() == before
        assert not h.chain.lfc_locks
        h.mine()
        h.chain.recompute_balance()

    def test_escrow_cover_transaction_fills_the_gap(self):
        h = lfc_harness(block_reward=1_000)
        h.grant_pq("cover", "m0", 4_000)
        h.build()
        h.mine_to(199)
        reveal = lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 0)
        wallet = h.wallet("m0")
        cover = h.signed(TxKind.ESCROW_COVER, [(h.outpoints["cover"], ("pq", wallet))], [])
        h.chain.begin_block("m0", wallet.pq_address())
        h.chain.add_tx(record_tx(h, reveal.txid(), "u1", 0))
        h.chain.add_tx(cover)
        block = h.chain.end_block()
        # reward 1000 + cover 4000 - obligation 3350 = 1650
        assert block.coinbase.outputs[0].value == 1_650
        h.chain.recompute_balance()


class TestFeeAggregation:
    def test_three_commitments_pay_the_commit_block_at_plus_300(self):
        h = lfc_harness()
        for i in range(3):
            h.grant_hashed(f"v{i}", "alice", f"m/2h/{i}", 30_000)
        h.build()
        h.mine_to(199)
        reveals = []
        records = []
        for i in range(3):
            reveal = lfc_reveal_tx(h, "alice", f"v{i}", f"m/2h/{i}", 1000)
            records.append(record_tx(h, reveal.txid(), f"v{i}", 1000))
            reveals.append(reveal)
        h.mine_with(records, miner="earner")
        commit_height = h.chain.height
        h.mine(99)
        h.mine_with(reveals)
        reveal_height = h.chain.height
        h.mine_to(commit_height + 299)
        payout_block = h.chain.blocks[-1]
        h.mine(1)
        payout_block = h.chain.blocks[-1]
        assert payout_block.height == commit_height + 300
        assert len(payout_block.coinbase.outputs) == 2
        addendum = payout_block.coinbase.outputs[1]
        assert addendum.value == 1_500  # three commit-side shares of 500
        assert addendum.address == h.wallet("earner").pq_address()
        # the revealing block's shares arrive 300 after the reveal
        h.mine_to(reveal_height + 300)
        assert h.chain.blocks[-1].coinbase.outputs[1].value == 1_500
        h.chain.recompute_balance()

    def test_reveal_at_the_last_age_is_paid_in_its_own_block(self):
        # The longest allowed wait plus reveal window, 200 + 100, reaches
        # the payout height: the reveal at age 300 adds the committer's
        # share, and the same block's coinbase pays it.
        h = lfc_harness(wait_blocks=200, reveal_window=100)
        h.build()
        h.mine_to(199)
        reveal = lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 1000)
        h.mine_with([record_tx(h, reveal.txid(), "u1", 1000)], miner="earner")
        commit_height = h.chain.height
        h.mine(299)
        block = h.mine_with([reveal])
        assert block.height == commit_height + 300
        assert block.coinbase.outputs[1] == TxOutput(h.wallet("earner").pq_address(), 500)
        assert commit_height not in h.chain.fee_shares_by_block
        assert h.chain.pending_fee_pool == 500  # the revealer's share, due 300 blocks on
        h.chain.recompute_balance()

    def test_zero_share_pays_no_addendum(self):
        # A fee of 1 splits as (0, 1): the committer's share is recorded as
        # 0, and its payout block pays no addendum but still drops it.
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        reveal, _ = committed_flow(h, alpha=1)
        h.mine(99)
        h.mine_with([reveal])
        assert h.chain.fee_shares_by_block == {200: 0, 300: 1}
        h.mine_to(500)
        assert len(h.chain.blocks[500].coinbase.outputs) == 1
        assert h.chain.fee_shares_by_block == {300: 1}
        h.chain.recompute_balance()

    def test_no_commitments_no_addendum(self):
        h = lfc_harness()
        h.build()
        h.mine_to(400)
        for block in h.chain.blocks[1:]:
            assert len(block.coinbase.outputs) == 1

    def test_expired_commitment_earns_no_share(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        _, committed = committed_flow(h, alpha=1000)
        commit_height = h.chain.height
        h.mine_to(commit_height + 300)
        assert h.chain.fee_shares_by_block.get(commit_height) is None
        payout = h.chain.blocks[commit_height + 300]
        assert len(payout.coinbase.outputs) == 1


class TestExtensionDecision:
    def test_strictly_more_than_half_extends(self):
        assert extension_decision(6, 10, 1, 2) is EpochDecision.EXTEND
        assert extension_decision(5, 10, 1, 2) is EpochDecision.ROTATE
        assert extension_decision(0, 10, 1, 2) is EpochDecision.ROTATE

    def test_outcome_trichotomy_at_epoch_end(self):
        h = lfc_harness()
        h.grant_hashed("u3", "alice", "m/4h/0", 12_000)
        h.build()
        h.mine_to(199)
        # one revealed, one claimed, one left pending at the epoch end
        reveal1, c1 = committed_flow(h, label="u1", p="m/0h/0/0", alpha=100)
        reveal2, c2 = committed_flow(h, label="u2", p="m/0h/0/1", alpha=100)
        sigma2 = sigma_for(h, "alice", "m/0h/0/1", c2, 100)
        _, c3 = committed_flow(h, label="u3", p="m/4h/0", alpha=100)
        h.mine(97)
        h.mine_with([reveal1])
        h.mine(101)
        h.mine_with([Transaction(TxKind.LFC_CLAIM, payload=claim_payload(c2, sigma2))])
        h.mine_to(699)  # the lifted epoch [200, 700) has ended
        states = {h.chain.lfc_by_hash[c].state for c in (c1, c2, c3)}
        assert states == {LfcState.REVEALED, LfcState.CLAIMED_BY_MINER, LfcState.EXPIRED_FINED}
        assert not h.chain.lfc_locks

    def test_prior_epoch_commitment_claimable_during_extension(self):
        # With a zero proof capacity any claim in the closing window forces
        # an extension; a commitment left pending at the boundary then
        # stays claimable (and unfined) until the extension ends.
        h = lfc_harness(proofs_per_100_blocks=0)
        h.build()
        h.mine_to(199)
        h.mine_to(398)
        # Two commitments at offset 199 (the last commit slot): one gets
        # claimed inside the closing window, triggering the extension; the
        # other stays pending into the extension.
        r1 = lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 50)
        r2 = lfc_reveal_tx(h, "alice", "u2", "m/0h/0/1", 50)
        h.mine_with([record_tx(h, r1.txid(), "u1", 50), record_tx(h, r2.txid(), "u2", 50)])
        assert h.chain.height == 399
        sigma1 = sigma_for(h, "alice", "m/0h/0/0", r1.txid(), 50)
        sigma2 = sigma_for(h, "alice", "m/0h/0/1", r2.txid(), 50)
        h.mine(201)  # next block is age 202, inside the proof window
        h.mine_with([Transaction(TxKind.LFC_CLAIM, payload=claim_payload(r1.txid(), sigma1))])
        h.mine_to(699)  # epoch [200, 700) closes: one claim > 0 = k*p, extend
        extension = h.chain.epochs[-1]
        assert extension.extension and extension.start == 700
        pending = h.chain.lfc_by_hash[r2.txid()]
        assert pending.state is LfcState.LOCKED  # fine withheld, not expired
        h.mine(30)  # well past the normal proof deadline, inside the extension
        h.mine_with([Transaction(TxKind.LFC_CLAIM, payload=claim_payload(r2.txid(), sigma2))])
        assert pending.state is LfcState.CLAIMED_BY_MINER
        h.chain.recompute_balance()

    def test_honest_path_posts_no_proof_and_stays_small(self):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        reveal, committed = committed_flow(h, alpha=1000)
        record = next(t for t in h.chain.blocks[-1].transactions if t.kind is TxKind.LFC_COMMIT)
        h.mine(99)
        h.mine_with([reveal])
        # on-chain burden: the reveal itself plus a record of two hashes
        # and a fee amount -- within 64 bytes plus fixed framing
        assert len(record.serialize()) <= 64 + 40
        for block in h.chain.blocks:
            assert not any(t.kind is TxKind.LFC_CLAIM for t in block.transactions)


def aged_record(h, reveal, label="u1", age=100):
    """Mine a record committing `reveal` on `label`, then blocks until
    the next block is at lifted age `age`; returns `reveal`."""
    h.mine_with([record_tx(h, reveal.txid(), label, 1000)])
    h.mine(age - 1)
    return reveal


def claim_tx(h, committed, outputs=()):
    sigma = sigma_for(h, "alice", "m/0h/0/0", committed, 1000)
    return Transaction(TxKind.LFC_CLAIM, outputs=tuple(outputs), payload=claim_payload(committed, sigma))


def late_claim(h):
    """A claim at age deadline + 1: `add_tx` sees the record still LOCKED,
    since the end-of-block sweep that expires it runs after."""
    _, committed = committed_flow(h)
    h.mine(300)
    return claim_tx(h, committed)


def reveal_with(h, mode, p="m/0h/0/0"):
    """A reveal of u1 (key m/0h/0/0) whose payload has `mode`, deriving `p`."""
    payload = RevealPayload(mode, h.wallet("alice").msk, path(p)) if mode is RevealMode.DERIVED else RevealPayload(mode)
    return lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 1000, payload=payload)


def spend_locked(h):
    """A plain transfer of u1 after a record has locked it."""
    committed_flow(h)
    wallet = h.wallet("alice")
    sk = wallet.derived_sk(path("m/0h/0/0"))
    return h.signed(TxKind.TRANSFER, [(h.outpoints["u1"], ("pre", wallet, sk))], [TxOutput(wallet.pq_address(), U_VALUE)])


def overspend(h):
    """A transfer of alice's 5,000 post-quantum fee output paying 5,001."""
    wallet = h.wallet("alice")
    return h.signed(TxKind.TRANSFER, [(h.outpoints["fee-alice"], ("pq", wallet))], [TxOutput(wallet.pq_address(), 5_001)])


class TestRuleIds:
    """Each lifted rule id, and the spend rules a lock or an overspend
    reaches, with the smallest input that raises it.  A rejection leaves the
    digest as it was, the block still closes, and the chain equals a clean
    replay of its blocks."""

    @pytest.mark.parametrize(
        "make, rule, detail",
        [
            (lambda h: lfc_reveal_tx(h, "alice", "u1", "m/0h/0/0", 1000), "lfc-no-commitment", "reveal matches no locked commitment"),
            (lambda h: claim_tx(h, b"\x07" * 32), "lfc-no-commitment", "claim matches no locked commitment"),
            (lambda h: aged_record(h, lfc_reveal_tx(h, "alice", "u2", "m/0h/0/1", 1000), label="u1"), "lfc-reveal-shape", None),
            (lambda h: aged_record(h, reveal_with(h, RevealMode.NAKED)), "lfc-reveal-mode", None),
            (lambda h: aged_record(h, reveal_with(h, RevealMode.DERIVED, p="m/0h/0/1")), "lfc-derivation", None),
            (lambda h: claim_tx(h, b"\x07" * 32, [TxOutput(h.wallet("m0").pq_address(), 1)]), "lfc-claim-shape", None),
            (late_claim, "lfc-claim-late", None),
            (
                lambda h: Transaction(TxKind.LFC_COMMIT, outputs=(TxOutput(h.wallet("m0").pq_address(), 1),), payload=record_tx(h, b"\x07" * 32, "u1", 5).payload),
                "lfc-commit-shape",
                None,
            ),
            (lambda h: Transaction(TxKind.LFC_COMMIT, payload=record_payload(b"\x07" * 32, b"\x00" * 32, 5)), "lfc-unknown-utxo", None),
            (spend_locked, "utxo-locked", "an unexpired lifted commitment locks this output"),
            (overspend, "tx-overspend", "outputs 5001 exceed inputs 5000"),
        ],
        ids=["reveal-no-commitment", "claim-no-commitment", "reveal-shape", "reveal-mode", "derivation",
             "claim-shape", "claim-late", "commit-shape", "record-unknown-utxo", "utxo-locked", "overspend"],
    )
    def test_rejected_transaction(self, make, rule, detail):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        tx = make(h)
        digest = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(tx)
        assert violation is not None and violation.rule == rule
        assert detail is None or violation.detail == detail
        assert h.chain.state_digest() == digest
        assert h.chain.end_block().transactions == ()
        assert same_state(h.chain, replay_chain(h.config, h.chain.blocks))

    def test_unscheduled_height(self):
        # The schedule is built one epoch ahead of the tip, so no block
        # reaches past it; a query for a later height is refused.
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        digest = h.chain.state_digest()
        last = h.chain.epochs[-1]
        assert h.chain.epoch_of(last.end - 1) is last
        with pytest.raises(RuleViolation) as raised:
            h.chain.epoch_of(last.end)
        assert raised.value.rule == "epoch-unscheduled"
        assert h.chain.state_digest() == digest
        h.mine()
        assert same_state(h.chain, replay_chain(h.config, h.chain.blocks))

    @pytest.mark.parametrize(
        "make, rule",
        [
            (lambda h: LfcMempoolMsg(b"\x07" * 32, sigma_for(h, "alice", "m/0h/0/0", b"\x07" * 32, 9), (b"\x00" * 32, 0), 9), "lfc-unknown-utxo"),
            (lambda h: LfcMempoolMsg(b"\x07" * 32, b"\x09", h.outpoints["u1"], 9), "lfc-proof-malformed"),
            # The codec takes the proof whole; only the backend finds it unparseable.
            (lambda h: LfcMempoolMsg(b"\x07" * 32, b"\x01\x09", h.outpoints["u1"], 9), "lfc-proof-invalid"),
            # Neither kind of proof ever owns a post-quantum output.
            (lambda h: LfcMempoolMsg(b"\x07" * 32, sigma_for(h, "alice", "m/0h/0/0", b"\x07" * 32, 9), h.outpoints["fee-alice"], 9), "lfc-proof-invalid"),
            (lambda h: LfcMempoolMsg(b"\x07" * 32, sigma_for(h, "alice", "m/0h/0/0", b"\x07" * 32, 9, "seed"), h.outpoints["fee-alice"], 9), "lfc-proof-invalid"),
        ],
        ids=["message-unknown-utxo", "proof-malformed", "proof-unparseable", "keylift-on-pq-output", "seedlift-on-pq-output"],
    )
    def test_rejected_mempool_message(self, make, rule):
        h = lfc_harness()
        h.build()
        h.mine_to(199)
        msg = make(h)
        digest = h.chain.state_digest()
        with pytest.raises(RuleViolation) as raised:
            h.chain.validate_lfc_mempool_msg(msg)
        assert raised.value.rule == rule
        assert h.chain.state_digest() == digest
        assert same_state(h.chain, replay_chain(h.config, h.chain.blocks))
