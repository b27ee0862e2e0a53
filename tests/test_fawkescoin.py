from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import Harness, same_state
from qcspend.consensus import replay_chain
from qcspend.fawkescoin import ChallengeStatus, RevealMode, RevealPayload, commit_payload
from qcspend.hdwallet import DerivationPath, path
from qcspend.ledger import Transaction, TxInput, TxKind, TxOutput, plain_pk_address
from qcspend.rules import RuleViolation


def era_harness(**overrides):
    h = Harness(**overrides)
    h.grant_hashed("u1", "alice", "m/0h/0/0", 50_000)
    h.grant_pq("fee-alice", "alice", 30_000)
    return h


class TestCommit:
    def test_commit_recorded_and_visible(self):
        h = era_harness()
        h.build()
        h.mine_with([h.fc_commit_tx("alice", b"\x11" * 32, fee=25)])
        assert h.chain.fc_commitments[b"\x11" * 32] == [1]

    def test_pre_quantum_fee_source_rejected(self):
        h = era_harness()
        h.build()
        wallet = h.wallet("alice")
        sk = wallet.derived_sk(path("m/0h/0/0"))
        payload = __import__("qcspend.fawkescoin", fromlist=["commit_payload"]).commit_payload(b"\x11" * 32)
        tx = h.signed(TxKind.FC_COMMIT, [(h.outpoints["u1"], ("pre", wallet, sk))], [], payload)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-commit-needs-pq-fee"):
            h.chain.add_tx(tx)

    def test_commitment_without_inputs_rejected(self):
        # It would pay no fee at all.
        h = era_harness()
        h.build()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-commit-needs-pq-fee") as raised:
            h.chain.add_tx(Transaction(TxKind.FC_COMMIT, payload=commit_payload(b"\x11" * 32)))
        assert raised.value.detail == "the committing transaction pays its own fee"

    def test_repeated_commitment_keeps_the_first_height(self):
        h = era_harness()
        h.grant_pq("fee2", "alice", 9_000)
        h.build()
        h.mine_with([h.fc_commit_tx("alice", b"\x22" * 32)])
        digest = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        mark = len(h.chain._journal)
        h.chain.add_tx(h.fc_commit_tx("alice", b"\x22" * 32))
        # The repeat spends its fee input, and records and journals nothing more.
        assert not any(entry[1] is h.chain.fc_commitments for entry in h.chain._journal[mark:] if len(entry) > 1)
        h.chain.end_block()
        assert h.chain.fc_commitments[b"\x22" * 32] == [1] and h.chain.state_digest() != digest

    def test_commit_cutoff_window(self):
        h = era_harness(fc_epoch_len=200, fc_commit_cutoff=100)
        h.build()
        h.mine_to(99)  # next block is height 100 = offset 100: cutoff
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-commit-cutoff"):
            h.chain.add_tx(h.fc_commit_tx("alice", b"\x33" * 32))


# (commitment height, reveal height, leak height, ban height, accepted), all
# with a 20-block wait.  A row named for an old and a young commitment to one
# hash holds only the old one's height, which is the one a repeat keeps; it
# gives the verdict both heights gave (`test_first_height_decides_as_any_height_did`).
COMMITMENT_BOUNDS = {
    "age-exactly-wait": (10, 30, None, None, True),
    "age-one-short": (10, 29, None, None, False),
    "leak-at-commit-height": (10, 30, 10, None, True),
    "leak-before-commit": (10, 30, 9, None, False),
    "ban-at-commit-height": (10, 30, None, 10, False),
    "ban-one-block-later": (10, 30, None, 11, True),
    "old-banned-young-too-young": (10, 45, None, 10, False),
    "old-qualifies-young-banned": (10, 55, None, 20, True),
    "old-qualifies-young-leaked": (10, 55, 25, None, True),
    "old-leaked-young-too-young": (10, 45, 9, None, False),
    "both-leaked": (10, 55, 9, None, False),
}


def commitment_usable(committed_at, height, wait, leak, ban) -> bool:
    """Does `_check_commitment` accept a commitment included at `committed_at`?"""
    h = era_harness()
    h.build()
    h.chain.fc_commitments[b"\x44" * 32] = [committed_at]
    try:
        h.chain._check_commitment(b"\x44" * 32, height, wait, max_leak_height=leak, ban_height=ban)
    except RuleViolation as exc:
        assert exc.rule == "fc-commitment-unusable"
        return False
    return True


@pytest.mark.parametrize("case", COMMITMENT_BOUNDS)
def test_commitment_bounds(case):
    committed_at, height, leak, ban, accepted = COMMITMENT_BOUNDS[case]
    assert commitment_usable(committed_at, height, 20, leak, ban) == accepted


heights = st.integers(min_value=1, max_value=60)


@given(st.lists(heights, min_size=1, max_size=4), heights, st.integers(1, 30), st.none() | heights, st.none() | heights)
def test_first_height_decides_as_any_height_did(committed_at, height, wait, leak, ban):
    """Before a repeat kept only its first height, a reveal could use any
    height a commitment was included at.  Each bound favours the earlier
    height, and heights come in chain order, so the first one alone gives
    the same verdict."""
    committed_at.sort()
    usable_at_any = any(
        height - h >= wait and (leak is None or leak >= h) and (ban is None or h < ban) for h in committed_at
    )
    assert commitment_usable(committed_at[0], height, wait, leak, ban) == usable_at_any


class TestRevealHashed:
    def test_honest_flow_with_default_wait(self):
        h = era_harness()
        h.build()
        reveal = h.fc_flow_hashed("alice", "u1", "m/0h/0/0", fee=100)
        assert h.chain.height == 100  # commit at 1, waited to 100
        h.mine_with([reveal])  # included at age exactly 100
        assert h.chain.utxo(h.outpoints["u1"]) is None
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        assert h.chain.leaks.is_leaked(pk)

    def test_reveal_at_age_99_rejected(self):
        h = era_harness()
        h.build()
        reveal = h.fc_reveal_hashed("alice", "u1", "m/0h/0/0")
        h.mine_with([h.fc_commit_tx("alice", reveal.txid())])
        h.mine(98)  # next block: age 99
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-commitment-unusable"):
            h.chain.add_tx(reveal)

    def test_reveal_validity_monotone_in_age(self):
        for extra_age in (0, 1, 57, 300):
            h = era_harness()
            h.build()
            reveal = h.fc_flow_hashed("alice", "u1", "m/0h/0/0")
            h.mine(extra_age)
            h.mine_with([reveal])
            assert h.chain.utxo(h.outpoints["u1"]) is None

    def test_per_utxo_wait_override(self):
        h = Harness()
        h.grant_hashed("u1", "alice", "m/0h/0/0", 50_000, wait=5)
        h.grant_pq("fee-alice", "alice", 30_000)
        h.build()
        reveal = h.fc_reveal_hashed("alice", "u1", "m/0h/0/0")
        h.mine_with([h.fc_commit_tx("alice", reveal.txid())])
        h.mine(3)  # next block is age 4 < 5
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-commitment-unusable"):
            h.chain.add_tx(reveal)
        h.chain.end_block()
        h.mine_with([reveal])  # age 5: accepted
        assert h.chain.utxo(h.outpoints["u1"]) is None

    def test_key_leaked_before_commitment_rejected(self):
        h = era_harness()
        h.build()
        pk = h.wallet("alice").derived_pk(path("m/0h/0/0"))
        h.chain.leaks.mark(pk, 0)  # leak strictly before the commit block
        reveal = h.fc_flow_hashed("alice", "u1", "m/0h/0/0")
        # the commit landed at height 1, after the leak at height 0
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-commitment-unusable"):
            h.chain.add_tx(reveal)

    def test_missing_commitment_rejected(self):
        h = era_harness()
        h.build()
        h.mine(120)
        reveal = h.fc_reveal_hashed("alice", "u1", "m/0h/0/0")
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-no-commitment"):
            h.chain.add_tx(reveal)


class TestRevealDerived:
    def build_derived_reveal(self, h, label, owner, p, fee=0, parent=None, parent_path=None):
        wallet = h.wallet(owner)
        op = h.outpoints[label]
        utxo = h.chain.utxos[op]
        parent_key = parent if parent is not None else wallet.msk
        use_path = parent_path if parent_path is not None else p
        payload = RevealPayload(RevealMode.DERIVED, parent_key, DerivationPath.parse(use_path)).serialize(h.group)
        sk = wallet.derived_sk(DerivationPath.parse(p))
        outputs = [TxOutput(wallet.pq_address(), utxo.value - fee)]
        return h.signed(TxKind.FC_REVEAL, [(op, ("pre", wallet, sk))], outputs, payload)

    def test_honest_derived_two_step_path(self):
        h = Harness()
        h.grant_hashed("u2", "alice", "m/3h/1", 40_000)
        h.grant_pq("fee-alice", "alice", 30_000)
        h.build()
        reveal = self.build_derived_reveal(h, "u2", "alice", "m/3h/1")
        h.mine_with([h.fc_commit_tx("alice", reveal.txid())])
        h.mine(99)
        h.mine_with([reveal])
        assert h.chain.utxo(h.outpoints["u2"]) is None
        # the revealed parent materialized in the registry
        assert h.chain.registry.ban_height(h.group, h.wallet("alice").msk) is not None

    def test_wrong_path_rejected(self):
        h = Harness()
        h.grant_hashed("u2", "alice", "m/3h/1", 40_000)
        h.grant_pq("fee-alice", "alice", 30_000)
        h.build()
        reveal = self.build_derived_reveal(h, "u2", "alice", "m/3h/1", parent_path="m/3h/2")
        h.mine_with([h.fc_commit_tx("alice", reveal.txid())])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-derivation"):
            h.chain.add_tx(reveal)

    def test_registry_ban_blocks_commit_after_b_xsk(self):
        h = Harness()
        h.grant_hashed("u2", "alice", "m/0h/0/0", 40_000)  # m/0h/0/0 is in the regular set
        h.grant_pq("fee-alice", "alice", 30_000)
        h.build()
        # Materialize alice's master key at height 1: the regular-set keys
        # are now registry-banned for commitments from height 1 on.
        h.chain.registry.materialize(h.group, h.wallet("alice").msk, 1)
        h.mine(1)
        reveal = self.build_derived_reveal(h, "u2", "alice", "m/0h/0/0")
        h.mine_with([h.fc_commit_tx("alice", reveal.txid())])  # committed at height >= 1
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-commitment-unusable"):
            h.chain.add_tx(reveal)

    def test_commit_before_b_xsk_still_valid(self):
        h = Harness()
        h.grant_hashed("u2", "alice", "m/0h/0/0", 40_000)
        h.grant_pq("fee-alice", "alice", 30_000)
        h.build()
        reveal = self.build_derived_reveal(h, "u2", "alice", "m/0h/0/0")
        h.mine_with([h.fc_commit_tx("alice", reveal.txid())])  # committed at height 1
        h.chain.registry.materialize(h.group, h.wallet("alice").msk, 50)  # b_xsk = 50 > 1
        h.mine(99)
        h.mine_with([reveal])
        assert h.chain.utxo(h.outpoints["u2"]) is None


def deposit_harness(mode="permissive", legacy=0, **extra):
    h = Harness(fc_mode=mode, challenge_blocks=150, legacy_address_height=legacy, **extra)
    wallet = h.wallet("owner")
    pk = wallet.derived_pk(path("m/0h/0/0"))
    h.grant("u-naked", plain_pk_address(pk), 10_000)
    h.grant_pq("d1", "owner", 10_000)
    h.grant_pq("fee", "owner", 4_000)
    return h


def naked_reveal(h, fee=0, deposit_label="d1", owner="owner", mode=RevealMode.NAKED):
    wallet = h.wallet(owner)
    sk = wallet.derived_sk(path("m/0h/0/0"))
    op, dep = h.outpoints["u-naked"], h.outpoints[deposit_label]
    total = h.chain.utxos[op].value + h.chain.utxos[dep].value
    payload = RevealPayload(mode).serialize(h.group)
    outputs = [TxOutput(wallet.pq_address(), total - fee)]
    signer = ("pre", wallet, sk) if mode is RevealMode.NAKED else None
    return h.signed(TxKind.FC_REVEAL, [(op, signer), (dep, ("pq", wallet))], outputs, payload)


class TestDepositModes:
    def test_deposit_exactly_value_accepted(self):
        h = deposit_harness()
        h.build()
        reveal = naked_reveal(h, fee=0)  # deposit 10_000 = value 10_000 + fee 0
        h.mine_with([h.fc_commit_tx("owner", reveal.txid())])
        h.mine(99)
        h.mine_with([reveal])
        record = h.chain.challenges[reveal.txid()]
        assert record.status is ChallengeStatus.OPEN
        assert record.challenge_end_height == h.chain.height + 150

    def test_deposit_one_short_rejected(self):
        h = deposit_harness()
        h.build()
        reveal = naked_reveal(h, fee=1)  # needs 10_001, has 10_000
        h.mine_with([h.fc_commit_tx("owner", reveal.txid())])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-deposit-low"):
            h.chain.add_tx(reveal)

    def test_deposit_ratio_with_p_two_thirds(self):
        # p = 2/3 means the deposit must be at least twice the value.
        h = deposit_harness(deposit_p_num=2, deposit_p_den=3)
        h.build()
        reveal = naked_reveal(h)
        h.mine_with([h.fc_commit_tx("owner", reveal.txid())])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-deposit-low"):
            h.chain.add_tx(reveal)

    def test_naked_needs_unrestrictive(self):
        h = deposit_harness(mode="restrictive")
        h.build()
        reveal = naked_reveal(h)
        h.mine_with([h.fc_commit_tx("owner", reveal.txid())])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-mode"):
            h.chain.add_tx(reveal)

    def test_lost_spend_without_signature_in_permissive(self):
        h = deposit_harness(mode="permissive")
        h.build()
        reveal = naked_reveal(h, mode=RevealMode.LOST)
        h.mine_with([h.fc_commit_tx("owner", reveal.txid())])
        h.mine(99)
        h.mine_with([reveal])
        assert h.chain.challenges[reveal.txid()].status is ChallengeStatus.OPEN

    def test_lost_spend_rejected_in_unrestrictive(self):
        h = deposit_harness(mode="unrestrictive")
        h.build()
        reveal = naked_reveal(h, mode=RevealMode.LOST)
        h.mine_with([h.fc_commit_tx("owner", reveal.txid())])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fc-mode"):
            h.chain.add_tx(reveal)

    def test_signatureless_spend_must_declare_lost_mode(self):
        h = deposit_harness(mode="unrestrictive")
        h.build()
        # a naked-mode reveal without a signature on u
        reveal = naked_reveal(h, mode=RevealMode.NAKED)
        broken = Transaction(
            reveal.kind,
            (TxInput(reveal.inputs[0].outpoint), reveal.inputs[1]),
            reveal.outputs,
            reveal.payload,
        )
        h.mine_with([h.fc_commit_tx("owner", broken.txid())])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="witness"):
            h.chain.add_tx(broken)

    def test_legacy_address_stays_restrictive(self):
        # the address was first posted before the legacy threshold
        h = deposit_harness(legacy=1)  # genesis outputs appear at height 0 < 1
        h.build()
        reveal = naked_reveal(h)
        h.mine_with([h.fc_commit_tx("owner", reveal.txid())])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="era-legacy-restrictive"):
            h.chain.add_tx(reveal)

    def test_finalization_creates_outputs_and_pays_fee(self):
        h = deposit_harness()
        h.build()
        reveal = naked_reveal(h, fee=0)
        h.mine_with([h.fc_commit_tx("owner", reveal.txid())])
        h.mine(99)
        h.mine_with([reveal])
        end = h.chain.challenges[reveal.txid()].challenge_end_height
        h.mine_to(end + 1)
        record = h.chain.challenges[reveal.txid()]
        assert record.status is ChallengeStatus.FINALIZED
        assert h.chain.utxo((reveal.txid(), 0)).value == 20_000
        h.chain.recompute_balance()


class TestFrontRunningImpossibility:
    def test_adversary_never_wins_when_wait_covers_its_latency(self):
        """Fuzzed races: whenever the honest wait is at least the
        adversary's full commit-wait-reveal latency (and no deep reorg
        happens), the adversary cannot take an honestly committed output.

        The adversary learns the key the moment the honest reveal is
        broadcast, so its own commitment is always strictly younger than
        the honest one; its best reveal arrives a full waiting period after
        the output is already spent."""
        import random

        from qcspend.groups import decode_point, quantum_invert

        rng = random.Random(99)
        for trial in range(200):
            wait = rng.randrange(3, 11)
            value = rng.randrange(1_000, 90_000)
            fee = rng.randrange(0, 50)
            h = Harness(wait_blocks=wait, seed=trial)
            h.grant_hashed("u1", "alice", "m/0h/0/0", value, wait=wait)
            h.grant_pq("fee-alice", "alice", 1_000)
            h.grant_pq("fee-eve", "eve", 1_000)
            h.build()
            h.mine(rng.randrange(0, 4))
            reveal = h.fc_reveal_hashed("alice", "u1", "m/0h/0/0", fee=fee)
            h.mine_with([h.fc_commit_tx("alice", reveal.txid())])
            h.mine(wait - 1)
            # The reveal is broadcast: the adversary reads the key out of
            # it and starts its own cycle in the same block.
            eve = h.wallet("eve")
            pk = h.wallet("alice").derived_pk(__import__("qcspend.hdwallet", fromlist=["path"]).path("m/0h/0/0"))
            sk = quantum_invert(decode_point(h.group, pk))
            from qcspend.fawkescoin import RevealMode, RevealPayload

            payload = RevealPayload(RevealMode.HASHED).serialize(h.group)
            outputs = [TxOutput(eve.pq_address(), h.chain.utxos[h.outpoints["u1"]].value)]
            steal = h.signed(TxKind.FC_REVEAL, [(h.outpoints["u1"], ("pre", eve, sk))], outputs, payload)
            h.mine_with([reveal, h.fc_commit_tx("eve", steal.txid())])
            assert h.chain.utxo(h.outpoints["u1"]) is None  # honest spend landed
            h.mine(wait)
            h.chain.begin_block("m0", h.wallet("m0").pq_address())
            with pytest.raises(RuleViolation, match="utxo-missing"):
                h.chain.add_tx(steal)


class TestFraudProof:
    def setup_theft(self, h):
        """Thief claims the baiter's derived-but-leaked output."""
        thief, baiter = h.wallet("thief"), h.wallet("baiter")
        bait_pk = baiter.derived_pk(path("m/0h/0/0"))
        sk = baiter.derived_sk(path("m/0h/0/0"))  # the thief's oracle recovered it
        op, dep = h.outpoints["u-bait"], h.outpoints["d-thief"]
        payload = RevealPayload(RevealMode.NAKED).serialize(h.group)
        outputs = [TxOutput(thief.pq_address(), h.chain.utxos[op].value + h.chain.utxos[dep].value - 500)]
        steal = h.signed(TxKind.FC_REVEAL, [(op, ("pre", thief, sk)), (dep, ("pq", thief))], outputs, payload)
        h.mine_with([h.fc_commit_tx("thief", steal.txid())])
        h.mine(99)
        h.mine_with([steal])
        return steal

    def fraud_proof_tx(self, h, record_txid, fee=0):
        baiter = h.wallet("baiter")
        record = h.chain.challenges[record_txid]
        payload = RevealPayload(RevealMode.FRAUD_PROOF, baiter.msk, path("m/0h/0/0"), record_txid).serialize(h.group)
        sk = baiter.derived_sk(path("m/0h/0/0"))
        outputs = [TxOutput(baiter.pq_address(), record.spent_value - fee)]
        return h.signed(TxKind.FC_REVEAL, [(record.spent_outpoint, ("pre", baiter, sk))], outputs, payload)

    def fraud_harness(self):
        h = Harness(fc_mode="unrestrictive", challenge_blocks=150)
        baiter = h.wallet("baiter")
        h.grant("u-bait", plain_pk_address(baiter.derived_pk(path("m/0h/0/0"))), 8_000)
        h.grant_pq("d-thief", "thief", 8_500)
        h.grant_pq("fee-thief", "thief", 2_000)
        h.grant_pq("fee-baiter", "baiter", 2_000)
        h.build()
        return h

    def test_defeat_returns_deposit_minus_fee(self):
        h = self.fraud_harness()
        steal = self.setup_theft(h)
        fp = self.fraud_proof_tx(h, steal.txid())
        h.mine_with([h.fc_commit_tx("baiter", fp.txid())])
        h.mine(99)
        block = h.mine_with([fp])
        fraud_proofs = [
            t for t in block.transactions
            if t.kind is TxKind.FC_REVEAL and RevealMode(t.payload[0]) is RevealMode.FRAUD_PROOF
        ]
        assert [t.txid() for t in fraud_proofs] == [fp.txid()]
        assert [t for t in block.transactions if t.kind in (TxKind.FC_REVEAL, TxKind.LFC_REVEAL)] == [fp]
        record = h.chain.challenges[steal.txid()]
        assert record.status is ChallengeStatus.DEFEATED
        # deposit conservation: fee to the including miner, the rest to the
        # fraud prover's destination
        baiter_addr = h.wallet("baiter").pq_address().serialize()
        payout = [u for u in h.chain.utxos.values() if u.address.serialize() == baiter_addr and u.value == 8_000]
        assert len(payout) == 2  # recovered output + deposit-minus-fee (8500-500)
        fee_utxos = [
            u for u in h.chain.utxos.values()
            if u.address.serialize() == h.wallet("m0").pq_address().serialize() and u.value == 500 and not u.coinbase
        ]
        assert len(fee_utxos) == 1
        h.chain.recompute_balance()

    def test_fraud_proof_one_block_past_deadline_rejected(self):
        h = self.fraud_harness()
        steal = self.setup_theft(h)
        record = h.chain.challenges[steal.txid()]
        fp = self.fraud_proof_tx(h, steal.txid())
        h.mine_with([h.fc_commit_tx("baiter", fp.txid())])
        h.mine_to(record.challenge_end_height)  # next block is end+1
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fp-late|fp-closed"):
            h.chain.add_tx(fp)
        h.chain.end_block()
        assert h.chain.challenges[steal.txid()].status is ChallengeStatus.FINALIZED

    def test_fraud_proof_against_finalized_rejected(self):
        h = self.fraud_harness()
        steal = self.setup_theft(h)
        record = h.chain.challenges[steal.txid()]
        h.mine_to(record.challenge_end_height + 1)
        assert record.status is ChallengeStatus.FINALIZED
        fp = self.fraud_proof_tx(h, steal.txid())
        h.mine_with([h.fc_commit_tx("baiter", fp.txid())])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fp-closed"):
            h.chain.add_tx(fp)

    def test_fraud_proof_with_wrong_derivation_rejected(self):
        h = self.fraud_harness()
        steal = self.setup_theft(h)
        baiter = h.wallet("baiter")
        record = h.chain.challenges[steal.txid()]
        payload = RevealPayload(RevealMode.FRAUD_PROOF, baiter.msk, path("m/0h/0/5"), steal.txid()).serialize(h.group)
        sk = baiter.derived_sk(path("m/0h/0/0"))
        outputs = [TxOutput(baiter.pq_address(), record.spent_value)]
        fp = h.signed(TxKind.FC_REVEAL, [(record.spent_outpoint, ("pre", baiter, sk))], outputs, payload)
        h.mine_with([h.fc_commit_tx("baiter", fp.txid())])
        h.mine(99)
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        with pytest.raises(RuleViolation, match="fp-derivation"):
            h.chain.add_tx(fp)


def rule_harness():
    """A permissive in-era chain with a plain-key and a hashed output of the
    owner, the owner's post-quantum deposit and fee, and a thief's."""
    h = Harness(challenge_blocks=150)
    h.grant("u-naked", plain_pk_address(h.wallet("owner").derived_pk(path("m/0h/0/0"))), 10_000)
    h.grant_hashed("u-hashed", "owner", "m/0h/0/1", 10_000)
    h.grant_pq("d1", "owner", 10_000)
    h.grant_pq("fee", "owner", 4_000)
    h.grant_pq("d-thief", "thief", 10_500)
    h.grant_pq("fee-thief", "thief", 2_000)
    h.build()
    return h


def fc_reveal(h, mode, inputs, payload=None):
    """A reveal in `mode` spending `inputs` (label, signer) to the owner."""
    owner = h.wallet("owner")
    total = sum(h.chain.utxos[h.outpoints[label]].value for label, _ in inputs)
    payload = payload or RevealPayload(mode)
    outputs = [TxOutput(owner.pq_address(), total)]
    return h.signed(TxKind.FC_REVEAL, [(h.outpoints[label], signer) for label, signer in inputs], outputs, payload.serialize(h.group))


def owner_pre(h, p="m/0h/0/0"):
    return ("pre", h.wallet("owner"), h.wallet("owner").derived_sk(path(p)))


def fraud_proof(h, target, inputs):
    """A fraud proof by the owner naming `target`, spending `inputs`."""
    payload = RevealPayload(RevealMode.FRAUD_PROOF, h.wallet("owner").msk, path("m/0h/0/0"), target)
    return fc_reveal(h, RevealMode.FRAUD_PROOF, inputs, payload)


def committed(h, owner, tx):
    """`tx`, once `owner`'s commitment to it has waited out the default wait."""
    h.mine_with([h.fc_commit_tx(owner, tx.txid())])
    h.mine(99)
    return tx


def naked_steal(h, value=20_000):
    """The thief's naked spend of u-naked for `value`, with the owner's key
    its oracle recovered (u-naked and d-thief hold 20,500), committed."""
    thief = h.wallet("thief")
    op, dep = h.outpoints["u-naked"], h.outpoints["d-thief"]
    outputs = [TxOutput(thief.pq_address(), value)]
    payload = RevealPayload(RevealMode.NAKED).serialize(h.group)
    return committed(h, "thief", h.signed(TxKind.FC_REVEAL, [(op, owner_pre(h)), (dep, ("pq", thief))], outputs, payload))


def open_challenge(h):
    """The thief's naked spend lands and opens a challenge; returns its txid."""
    steal = naked_steal(h)
    h.mine_with([steal])
    return steal.txid()


def owner_fraud_proof(h, value):
    """The owner's fraud proof against an open challenge, recovering u-naked
    (10,000) as `value`, committed."""
    target = open_challenge(h)
    payload = RevealPayload(RevealMode.FRAUD_PROOF, h.wallet("owner").msk, path("m/0h/0/0"), target).serialize(h.group)
    outputs = [TxOutput(h.wallet("owner").pq_address(), value)]
    return committed(h, "owner", h.signed(TxKind.FC_REVEAL, [(h.chain.challenges[target].spent_outpoint, owner_pre(h))], outputs, payload))


class TestRuleIds:
    """Each FawkesCoin reveal rule id with the smallest input that raises
    it: a rejection leaves the digest as it was, the block still closes,
    and the chain equals a clean replay of its blocks."""

    @pytest.mark.parametrize(
        "make, rule",
        [
            (lambda h: fc_reveal(h, RevealMode.HASHED, []), "fc-reveal-shape"),
            (lambda h: fc_reveal(h, RevealMode.HASHED, [("u-hashed", owner_pre(h, "m/0h/0/1")), ("u-naked", owner_pre(h))]), "fc-reveal-shape"),
            (lambda h: fc_reveal(h, RevealMode.HASHED, [("fee", ("pq", h.wallet("owner")))]), "fc-reveal-prequantum"),
            (lambda h: fc_reveal(h, RevealMode.NAKED, [("fee", None), ("d1", None)]), "fc-reveal-prequantum"),
            (lambda h: fc_reveal(h, RevealMode.NAKED, [("u-naked", owner_pre(h))]), "fc-deposit-shape"),
            (lambda h: fc_reveal(h, RevealMode.NAKED, [("u-naked", None), ("u-hashed", None)]), "fc-deposit-pq"),
            (lambda h: fc_reveal(h, RevealMode.LOST, [("u-naked", owner_pre(h)), ("d1", None)]), "fc-lost-witness"),
            (lambda h: fraud_proof(h, b"\x07" * 32, []), "fp-no-target"),
            (lambda h: fraud_proof(h, open_challenge(h), [("fee", ("pq", h.wallet("owner")))]), "fp-shape"),
        ],
        ids=["hashed-no-input", "hashed-two-inputs", "hashed-pq-output", "deposit-pq-output", "deposit-one-input",
             "deposit-not-pq", "lost-with-witness", "fp-no-target", "fp-wrong-input"],
    )
    def test_rejected_transaction(self, make, rule):
        h = rule_harness()
        tx = make(h)
        digest = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(tx)
        assert violation is not None and violation.rule == rule
        assert h.chain.state_digest() == digest
        assert h.chain.end_block().transactions == ()
        assert same_state(h.chain, replay_chain(h.config, h.chain.blocks))

    @pytest.mark.parametrize("make, total", [(naked_steal, 20_500), (owner_fraud_proof, 10_000)], ids=["deposit-reveal", "fraud-proof"])
    def test_outputs_past_the_inputs(self, make, total):
        h = rule_harness()
        tx = make(h, total + 1)
        digest = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(tx)
        assert violation is not None and (violation.rule, violation.detail) == ("tx-overspend", f"outputs {total + 1} exceed inputs {total}")
        assert h.chain.state_digest() == digest
        assert h.chain.end_block().transactions == ()
        assert same_state(h.chain, replay_chain(h.config, h.chain.blocks))

    def test_fraud_proof_without_outputs(self):
        h = rule_harness()
        target = open_challenge(h)
        record = h.chain.challenges[target]
        tx = replace(fraud_proof(h, target, [("u-hashed", None)]), inputs=(TxInput(record.spent_outpoint),), outputs=())
        digest = h.chain.state_digest()
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        violation = h.chain.try_add_tx(tx)
        assert violation is not None and (violation.rule, violation.detail) == ("fp-shape", "a fraud proof needs a destination for the deposit")
        assert h.chain.state_digest() == digest
        assert h.chain.end_block().transactions == ()
        assert same_state(h.chain, replay_chain(h.config, h.chain.blocks))

    @pytest.mark.parametrize(
        "corrupt, detail",
        [
            (lambda chain: setattr(chain, "utxo_value_sum", chain.utxo_value_sum + 1), "incremental utxo sum drifted"),
            (lambda chain: chain.open_challenges.clear(), "open-challenge index drifted from the OPEN records"),
        ],
        ids=["utxo-sum", "open-challenges"],
    )
    def test_audit_finds_a_drifted_index(self, corrupt, detail):
        # Only a corrupted chain reaches these: the full audit recounts what
        # the chain keeps incrementally.
        h = rule_harness()
        open_challenge(h)
        h.chain.recompute_balance()
        corrupt(h.chain)
        with pytest.raises(RuleViolation) as raised:
            h.chain.recompute_balance()
        assert (raised.value.rule, raised.value.detail) == ("ledger-balance", detail)

    def test_ledger_balance(self):
        # Only a corrupted chain reaches it: here the running UTXO sum is one
        # off.  The balance check runs as the block closes, so the whole
        # block, its transfer included, is rolled back, built or replayed.
        h = rule_harness()
        owner = h.wallet("owner")
        transfer = h.signed(TxKind.TRANSFER, [(h.outpoints["fee"], ("pq", owner))], [TxOutput(owner.pq_address(), 3_990)])
        digest, height = h.chain.state_digest(), h.chain.height
        h.chain.utxo_value_sum += 1
        h.chain.begin_block("m0", h.wallet("m0").pq_address())
        h.chain.add_tx(transfer)
        with pytest.raises(RuleViolation) as raised:
            h.chain.end_block()
        assert raised.value.rule == "ledger-balance"
        assert h.chain.height == height and h.chain.state_digest() == digest
        h.chain.utxo_value_sum -= 1
        block = h.mine_with([transfer])
        assert same_state(h.chain, replay_chain(h.config, h.chain.blocks))

        chain = replay_chain(h.config, h.chain.blocks[:-1])
        chain.utxo_value_sum += 1
        with pytest.raises(RuleViolation, match="ledger-balance"):
            chain.apply_block(block)
        chain.utxo_value_sum -= 1
        assert same_state(chain, replay_chain(h.config, h.chain.blocks[:-1]))
        chain.apply_block(block)
        assert same_state(chain, h.chain)
